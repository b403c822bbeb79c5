"""Run the benchmark on several seeds and report how steady each end-to-end metric is.

Run from the root of a teachdim source tree:

    python3 perfbench/spread.py --label a
    python3 perfbench/spread.py --label b --against .perfbench_out/spread-a.json

For every workload in BENCHMARK.json it runs seeds 1..SEEDS with tracing
off, plus TRACE_SEEDS traced runs (whose per-instance counters run.py checks
against every earlier traced run of the same sources).  It prints, per
metric, the median, the quartile spread as a share of the median (Python's
statistics.quantiles, n=4) and the metric's bound; with `--against`, also how
far each median moved in the worse direction, as a share of the earlier one.
Every spread and shift is gated by the bound, except the spread of setup_s.
Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = 10
TRACE_SEEDS = 2


def _run(workload: str, seed: int, seconds: int, trace: int, heldout: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--heldout"] if heldout else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the summary file")
    ap.add_argument("--against", help="an earlier summary to compare medians with")
    ap.add_argument("--heldout", action="store_true")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    summary, bad = {}, []
    for w in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, SEEDS + 1):
            res = _run(w, seed, spec["run_seconds"], 0, args.heldout)
            if not res["correct"] or res["failed"]:
                bad.append(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        for seed in range(1, TRACE_SEEDS + 1):
            res = _run(w, seed, spec["run_seconds"], 1, args.heldout)
            if not res["correct"] or res["failed"]:
                bad.append(f"{w} traced seed {seed}: correct={res['correct']} failed={res['failed']}")
        summary[w] = values
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            line = f"{w:18} {name:17} median {med:12.6g}  spread {spread:6.3f}  bound {bound}"
            if w in earlier:
                old = statistics.median(earlier[w][name])
                shift = (med - old) / old * (1 if bounds[name]["better"] == "lower" else -1)
                line += f"  worse by {shift:+.3f}"
                if shift > bound:
                    bad.append(f"{w} {name}: median worse by {shift:.3f} > {bound}")
            # setup_s is a ~50 ms burst at the start of a run, so the machine's
            # state of that moment moves it; only its median shift is gated.
            if name != "setup_s" and spread > bound:
                bad.append(f"{w} {name}: spread {spread:.3f} > {bound}")
            print(line, flush=True)
    out = Path(".perfbench_out") / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    for line in bad:
        print("FAIL " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
