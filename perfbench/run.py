"""Seeded closed-loop benchmark of the teachdim CLI.

Run from the root of a teachdim source tree:

    python3 perfbench/run.py --workload reduce-rtd --seed 1 --seconds 35 --trace 0

One client in one thread sends one instance after another to
`teachdim.cli.main(argv)`, in-process, with stdout and stderr captured.  An
instance is all the CLI calls of one generated input; every answer is
checked (see workloads.py).  The run goes round the workload's strata until
`--seconds` have passed.

`--trace 0` prints the end-to-end metrics, taken from each stratum's median
instance, so a spell of a slower or faster machine within a run moves them
little.  `--trace 1` runs every instance twice in a row, untraced and traced,
and prints the per-layer metrics and the tracing overhead.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Details, the environment, spans and per-instance counters go under
.perfbench_out/.

`--heldout` draws the inputs from a second seed space that is kept out of
development, so a gain can be confirmed on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 21
POOL_CYCLES = 16  # inputs per stratum; a run rarely makes more cycles
REDRAWS = 50  # draws in a row that only repeat earlier inputs before a stratum starts over
INSTANCE_LIMIT_S = 30.0
RUN_LIMIT_S = 150.0  # no instance starts or runs past this, so a run ends well inside 180 s

# Spans whose time per instance is reported as "<span>.ms".
PER_LAYER_SPANS = (
    "teaching.rtd", "teaching.rtd_decision", "teaching.rtd_oracle_subsets",
    "teaching.min_teaching_set", "teaching.teaching_dim", "teaching.td_min",
    "reduction.check_observations", "reduction.domset_to_rtd", "reduction.witness_plan",
    "reduction.extract_domset", "gadget.build_gadget", "gadget.verify_gadget",
    "model.parse_class", "model.serialize_class", "model.check_plan", "model.parse_plan",
    "graph.parse_graph", "graph.has_dominating_set",
)
PER_LAYER_COUNTS = (
    "teaching.rtd.k_probes", "teaching.rtd_oracle_subsets.subclasses",
    "teaching.min_teaching_set.calls", "reduction.check_observations.sets_checked",
    "reduction.domset_to_rtd.cells", "gadget.build_gadget.calls",
    "model.parse_class.bytes", "model.check_plan.steps",
)
TAGGED = {
    # metric name: (span name, instance tag)
    "teaching.rtd.yes_ms": ("teaching.rtd", "yes"),
    "teaching.rtd.no_ms": ("teaching.rtd", "no"),
    "teaching.rtd_oracle_subsets.narrow_ms": ("teaching.rtd_oracle_subsets", "narrow"),
    "teaching.rtd_oracle_subsets.wide_ms": ("teaching.rtd_oracle_subsets", "wide"),
}


class InstanceTimeout(BaseException):
    """Raised by the alarm inside an instance that ran past its wall limit.

    A BaseException, so no `except Exception` in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise InstanceTimeout()


class Cli:
    """Calls `teachdim.cli.main` in-process and sums the wall time of the calls."""

    def __init__(self, module):
        self.module = module
        self.elapsed = 0.0

    def __call__(self, argv: list[str]) -> tuple[str, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    got = self.module.main(argv)
                except SystemExit as e:
                    got = e.code
        finally:
            self.elapsed += time.perf_counter() - t0
        if got != 0:
            raise CheckFailed(f"{' '.join(argv[:2])} exited {got}: {err.getvalue().strip()[-300:]}")
        return out.getvalue(), err.getvalue()


def _import_teachdim():
    cli = importlib.import_module("teachdim.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "teachdim").resolve():
        raise SystemExit(f"teachdim imported from {cli.__file__}, not from {SRC}")
    return cli


# Times `import teachdim.cli` in a fresh interpreter, as a user of the CLI pays it.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import teachdim.cli; print(time.perf_counter() - t0)")


def _import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"importing teachdim failed:\n{proc.stderr}")
    return float(proc.stdout)


def _pool(workload, rng: random.Random, work: Path) -> list:
    """POOL_CYCLES instances of every stratum, drawn without repeats while possible.

    A stratum with few distinct inputs (k=3, N=4 has six graphs) then shows
    each of them equally often in a run, instead of a seed-dependent few.
    Once REDRAWS draws in a row repeat earlier inputs, the stratum starts over.
    """
    seen: dict[tuple, set] = {}
    pool = []
    for c in range(POOL_CYCLES):
        for s, stratum in enumerate(workload.strata):
            drawn = seen.setdefault(stratum, set())
            for _ in range(REDRAWS):
                inst = workload.make(rng, stratum, str(work / f"i{c}-{s}"))
                key = tuple(inst.texts.values())
                if key not in drawn:
                    break
            else:
                drawn.clear()
            drawn.add(key)
            pool.append(inst)
    return pool


def _setup(workload, rng_key: str, work: Path):
    """Generate the instance pool, then time set-up SETUP_REPEATS times.

    Set-up is a fresh interpreter's import of teachdim plus writing every
    instance file; the reported time is the median of the repeats.
    Generating the inputs runs the benchmark's own brute force, not the
    program, so its time is reported apart, as `generate_s`.
    """
    t0 = time.perf_counter()
    pool = _pool(workload, random.Random(rng_key), work)
    generate_s = time.perf_counter() - t0
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        for inst in pool:
            for path, text in inst.texts.items():
                Path(path).write_text(text)
        times.append(time.perf_counter() - t0 + _import_seconds())
    return _import_teachdim(), pool, statistics.median(times), generate_s


def _attempt(workload, inst, cli_module, seq: int, pool_index: int, deadline: float,
             tracer: Tracer | None) -> dict:
    """Run one instance under the wall limit; the record says how it went and how long."""
    cli = Cli(cli_module)
    rec = {"seq": seq, "pool": pool_index, "stratum": inst.stratum, "tag": inst.tag,
           "ok": False, "error": None}
    if tracer is not None:
        tracer.instance = seq
        tracer.install(sys.modules)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, max(1e-3, min(INSTANCE_LIMIT_S, deadline - t0)))
    try:
        workload.run(inst, cli)
        rec["ok"] = True
    except InstanceTimeout:
        rec["error"] = "over the per-instance wall limit"
    except CheckFailed as e:
        rec["error"] = f"wrong answer: {e}"
    except Exception as e:  # the loop must go on and count the failure
        rec["error"] = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.uninstall()
    rec["wall_s"] = time.perf_counter() - t0
    rec["ms"] = cli.elapsed * 1000
    return rec


def _measure(workload, pool, cli_module, seconds: float, deadline: float,
             tracer: Tracer | None = None) -> tuple[list[dict], list[dict]]:
    """Closed loop over the pool until `seconds` pass, after at least one whole cycle.

    With a tracer, each instance runs twice back to back, untraced and
    traced, in alternating order, so both runs see the same machine state,
    and the loop ends on a whole cycle, so the per-instance means of the
    per-layer metrics are over the workload's own mix.
    Returns the untraced records and the traced records.
    """
    cycle = len(workload.strata)
    plain, traced = [], []
    start = time.perf_counter()
    j = 0
    while time.perf_counter() < deadline and (
            j < cycle or (tracer is not None and j % cycle) or time.perf_counter() - start < seconds):
        inst, i = pool[j % len(pool)], j % len(pool)
        if tracer is None:
            plain.append(_attempt(workload, inst, cli_module, j, i, deadline, None))
        elif j % 2:
            traced.append(_attempt(workload, inst, cli_module, j, i, deadline, tracer))
            plain.append(_attempt(workload, inst, cli_module, j, i, deadline, None))
        else:
            plain.append(_attempt(workload, inst, cli_module, j, i, deadline, None))
            traced.append(_attempt(workload, inst, cli_module, j, i, deadline, tracer))
        j += 1
    return plain, traced


def _typical_cycle(records, workload) -> list[float]:
    """Each place of a cycle filled with the median time of its stratum in the run.

    The machine's speed on a shared host shifts for tens of seconds at a
    time.  A stratum's median holds as long as fewer than half of its
    instances fall into such a spell, where a sum or a percentile over all
    the run's instances would follow it; and it does not depend on how many
    whole cycles fit into the run.
    """
    by_stratum: dict[str, list[float]] = {}
    for r in records:
        by_stratum.setdefault(r["stratum"], []).append(r["ms"])
    places = [records[i]["stratum"] for i in range(len(workload.strata))]
    return [statistics.median(by_stratum[s]) for s in places]


def _end_to_end(records, setup_s, workload) -> tuple[dict, list[str]]:
    """End-to-end metrics of the typical cycle (see _typical_cycle).

    The tail is a fixed place of it, `tail_beyond` places below the top, so
    it stays on the same stratum however fast the program gets.
    """
    ok = sum(r["ok"] for r in records)
    cycle = _typical_cycle(records, workload)
    beyond = workload.tail_beyond
    tail = sorted(cycle)[len(cycle) - 1 - beyond]
    pct = 100.0 * (1 - beyond / len(cycle))
    metrics = {
        "instances_per_s": (ok / len(records) * len(cycle) / (sum(cycle) / 1000), "1/s"),
        "instance_ms_p50": (statistics.median(cycle), "ms"),
        "instance_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [f"instance_ms_tail is p{pct:.1f} of the typical cycle, about "
             f"{len(records) * beyond // len(cycle)} of {len(records)} instances beyond it",
             f"failed_ratio {(len(records) - ok) / len(records)} ({len(records) - ok} of {len(records)})"]
    return metrics, notes


def _per_layer(tracer: Tracer, records, plain) -> dict:
    n = len(records)
    traced_wall = sum(r["wall_s"] for r in records)
    untraced_wall = sum(r["wall_s"] for r in plain)
    by_name, layer_ns, self_ns = tracer.totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.ms"] = (layer_ns[layer] / 1e6 / n, "ms")
        metrics[f"{layer}.self_ms"] = (self_ns[layer] / 1e6 / n, "ms")
    for span in PER_LAYER_SPANS:
        metrics[f"{span}.ms"] = (by_name[span] / 1e6 / n, "ms")
    for metric, (span, tag) in TAGGED.items():
        per_inst = tracer.time_by_instance(span)
        seqs = [r["seq"] for r in records if r["tag"] == tag]
        value = sum(per_inst[s] for s in seqs) / 1e6 / len(seqs) if seqs else 0.0
        metrics[metric] = (value, "ms")
    totals = {}
    for ctr in tracer.counters.values():
        for key, value in ctr.items():
            totals[key] = totals.get(key, 0) + value
    for metric in PER_LAYER_COUNTS:
        metrics[metric] = (totals.get(metric, 0) / n, "bytes" if metric.endswith(".bytes") else "count")
    check_s = by_name["reduction.check_observations"] / 1e9
    metrics["reduction.check_observations.checks_per_s"] = (
        totals.get("reduction.check_observations.sets_checked", 0) / check_s if check_s else 0.0, "1/s")
    metrics["trace.overhead_ms"] = ((traced_wall - untraced_wall) * 1000 / n, "ms")
    metrics["trace.overhead_pct"] = (100 * (traced_wall - untraced_wall) / untraced_wall, "%")
    return metrics


def _check_counters(tracer: Tracer, records, path: Path) -> list[str]:
    """Per-instance deterministic counters must equal every earlier count of the same code.

    Counters of a pool entry are compared with its other runs in this
    process and with the file left by earlier runs of identical sources.
    """
    seen = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for r in records:
        if not r["ok"]:
            continue
        key = str(r["pool"])
        ctr = dict(sorted(tracer.counters.get(r["seq"], {}).items()))
        if key in seen and seen[key] != ctr:
            problems.append(f"counters of pool instance {key} ({r['stratum']}) changed: "
                            f"{seen[key]} -> {ctr}")
        seen.setdefault(key, ctr)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return problems


def _digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for f in sorted(d.glob("*.py")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _environment(args, workload) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": _commit(), "source_sha256": _digest(SRC / "teachdim"),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "workload": workload.name, "why": workload.why,
        "seed": args.seed, "seed_set": "heldout" if args.heldout else "dev",
        "seconds": args.seconds, "trace": args.trace,
    }


def _strata_summary(records) -> dict:
    by = {}
    for r in records:
        by.setdefault(r["stratum"], []).append(r["ms"])
    return {s: {"n": len(v), "median_ms": statistics.median(v)} for s, v in by.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true",
                    help="draw inputs from the held-out seed space")
    args = ap.parse_args(argv)
    if not (SRC / "teachdim" / "__init__.py").is_file():
        print(f"error: no teachdim sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    seed_set = "heldout" if args.heldout else "dev"
    tag = f"{workload.name}-{seed_set}{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    run_start = time.perf_counter()
    try:
        cli, pool, setup_s, generate_s = _setup(
            workload, f"{seed_set}:{workload.name}:{args.seed}", work)
        deadline = run_start + RUN_LIMIT_S
        tracer = Tracer() if args.trace else None
        records, traced = _measure(workload, pool, cli, args.seconds, deadline, tracer)
        if len(records) < len(workload.strata):
            print("error: the run's time limit came before one whole cycle", file=sys.stderr)
            return 1
        problems = []
        if tracer is not None:
            metrics = _per_layer(tracer, traced, records)
            # Counters are keyed by pool index, so the benchmark's own sources name the store too.
            digest = _digest(SRC / "teachdim", HERE)[:16]
            problems = _check_counters(tracer, traced, OUT / "counters" / digest / f"{tag}.json")
            tracer.write(OUT / f"{tag}.spans.tsv")
            notes = [f"{len(traced)} instances traced and untraced in turn"]
            records = records + traced
        else:
            metrics, notes = _end_to_end(records, setup_s, workload)
        notes.append(f"generating the inputs took {generate_s:.3f} s (not in setup_s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f"{r['stratum']} #{r['pool']}: {r['error']}" for r in records if not r["ok"]]
    failed = len(failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = _environment(args, workload)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "result": result, "notes": notes, "failures": failures,
         "problems": problems, "strata": _strata_summary(records),
         "instances": [{k: r[k] for k in ("seq", "pool", "stratum", "ms", "ok")} for r in records]},
        indent=1))
    print("environment: " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes + failures + problems:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
