"""Command-line surface: compute, construct, reduce, verify, generate, benchmark.

Exit codes: 0 success, 1 negative verdict (invalid plan, equivalence
violation, failed gadget verification, a result failing its re-check), 2
usage or parse errors, 3 capacity or budget errors.  All commands are
deterministic given identical inputs and flags; randomness only enters
through explicit seed arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidPlanError,
    InvariantError,
    MalformedPlanError,
    ParseError,
    SoundnessViolationError,
    TeachdimError,
)
from .gadget import build_gadget, verify_gadget
from .graph import (
    dominates,
    gen_random_graph,
    has_dominating_set,
    parse_graph,
    serialize_graph,
)
from .model import check_plan, parse_class, parse_plan, serialize_class, serialize_plan
from .reduction import (
    check_observations,
    domset_to_rtd,
    extract_domset,
    metadata_json,
    shinohara_metadata_json,
    shinohara_reduce,
    witness_plan,
)
from .teaching import (
    DEFAULT_SUBSET_ORACLE_CAP,
    min_teaching_set,
    rtd,
    rtd_decision,
    rtd_oracle_subsets,
    td_min,
    teaching_dim,
)

VERIFY_MAX_VERTICES = 8
VERIFY_MAX_K = 2
# The timed sub-steps of `verify`, in the order they run.
VERIFY_STEPS = ("build", "domset", "decision", "witness_plan", "extract", "observations")


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def _emit(report: dict, as_json: bool, human: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in human:
            print(line)


def _base_report(command: str, inputs: list[str]) -> dict:
    return {
        "command": command,
        "inputs": [{"path": p, "sha256": _digest(p)} for p in inputs],
    }


# -- compute family ----------------------------------------------------------


def _cmd_ts(args) -> int:
    klass = parse_class(_read(args.classfile))
    t0 = time.perf_counter()
    res = min_teaching_set(klass.concept(args.concept), klass)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("ts", [args.classfile])
    report |= {
        "concept": args.concept,
        "ts": res.size,
        "witness": list(res.witness),
        "witness_labels": [klass.domain[i].label for i in res.witness],
        "duration_ms": round(ms, 3),
    }
    _emit(report, args.json, [
        f"TS = {res.size}",
        f"witness: {{{', '.join(report['witness_labels'])}}}",
    ])
    return 0


def _cmd_td(args) -> int:
    klass = parse_class(_read(args.classfile))
    t0 = time.perf_counter()
    value, label = teaching_dim(klass)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("td", [args.classfile])
    report |= {"td": value, "argmax": label, "duration_ms": round(ms, 3)}
    _emit(report, args.json, [f"TD = {value} (concept {label})"])
    return 0


def _cmd_tdmin(args) -> int:
    klass = parse_class(_read(args.classfile))
    t0 = time.perf_counter()
    value, label = td_min(klass)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("tdmin", [args.classfile])
    report |= {"td_min": value, "argmin": label, "duration_ms": round(ms, 3)}
    _emit(report, args.json, [f"TD_min = {value} (concept {label})"])
    return 0


def _cmd_rtd(args) -> int:
    klass = parse_class(_read(args.classfile))
    t0 = time.perf_counter()
    res = rtd(klass)
    ms = (time.perf_counter() - t0) * 1000
    plan_text = serialize_plan(res.plan)
    if args.plan_out:
        Path(args.plan_out).write_text(plan_text)
    report = _base_report("rtd", [args.classfile])
    report |= {
        "rtd": res.value,
        "plan": [[label, list(pts)] for label, pts in res.plan.steps],
        "duration_ms": round(ms, 3),
    }
    human = [f"RTD = {res.value}", "plan:"]
    human += ["  " + line for line in plan_text.splitlines()]
    _emit(report, args.json, human)
    return 0


def _cmd_rtd_oracle(args) -> int:
    klass = parse_class(_read(args.classfile))
    t0 = time.perf_counter()
    value = rtd_oracle_subsets(klass, cap=args.cap)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("rtd-oracle", [args.classfile])
    report |= {"rtd": value, "duration_ms": round(ms, 3)}
    _emit(report, args.json, [f"RTD (subset oracle) = {value}"])
    return 0


def _cmd_plan_check(args) -> int:
    klass = parse_class(_read(args.classfile))
    plan = parse_plan(_read(args.planfile))
    report = _base_report("plan-check", [args.classfile, args.planfile])
    try:
        width = check_plan(klass, plan)
    except InvalidPlanError as e:
        report |= {"valid": False, "step": e.step, "witness": e.witness, "error": str(e)}
        _emit(report, args.json, [f"plan invalid: {e}"])
        return 1
    report |= {"valid": True, "width": width}
    _emit(report, args.json, [f"plan valid: width {width}"])
    return 0


# -- construction family -----------------------------------------------------


def _cmd_gadget(args) -> int:
    g = build_gadget(args.k)
    sys.stdout.write(serialize_class(g.klass))
    if args.verify:
        rep = verify_gadget(g)
        for i, ok in enumerate((rep.property1, rep.property2, rep.property3), start=1):
            print(f"property {i}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
        if rep.ok:
            print("properties 1,2,3: PASS", file=sys.stderr)
        else:
            prop, label, pts = rep.counterexample
            print(
                f"counterexample: property {prop}, concept {label}, points {list(pts)}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_reduce(args) -> int:
    g = parse_graph(_read(args.graphfile))
    stem = Path(args.graphfile).stem
    if args.variant == "rtd":
        if args.k is None:
            raise InvalidArgumentError("the rtd variant requires k")
        out = domset_to_rtd(g, args.k)
        class_text = serialize_class(out.klass)
        meta_text = metadata_json(out)
        prefix = args.out or f"{stem}.rtd-k{args.k}"
        summary = {
            "k": out.k,
            "z_points": out.p,
            "gadget_size": out.q,
            "concepts": len(out.klass.concepts),
            "points": out.klass.width,
        }
    else:
        if args.k is not None:
            raise InvalidArgumentError("the shinohara variant takes no k")
        res = shinohara_reduce(g)
        class_text = serialize_class(res.klass)
        meta_text = shinohara_metadata_json(res, g)
        prefix = args.out or f"{stem}.shinohara"
        summary = {
            "star": res.star_label,
            "concepts": len(res.klass.concepts),
            "points": res.klass.width,
            "merged": [{"kept": kept, "vertices": list(vs)} for kept, vs in res.merges],
        }
    class_path = Path(prefix + ".class")
    meta_path = Path(prefix + ".meta.json")
    class_path.write_text(class_text)
    meta_path.write_text(meta_text)
    report = _base_report("reduce", [args.graphfile])
    report |= summary
    report |= {"class_file": str(class_path), "metadata_file": str(meta_path)}
    human = [f"{key}: {value}" for key, value in summary.items()] + [
        f"wrote {class_path}",
        f"wrote {meta_path}",
    ]
    _emit(report, args.json, human)
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graphfile))
    k = args.k
    # Parameter violations (exit 2) outrank the budget gate (exit 3).
    if g.n < 2:
        raise InvalidArgumentError("reduction requires at least 2 vertices")
    if not (1 <= k <= g.n):
        raise InvalidArgumentError(f"k must lie in 1..{g.n}, got {k}")
    if (g.n > VERIFY_MAX_VERTICES or k > VERIFY_MAX_K) and not args.budget_override:
        raise CapacityError(
            f"verify is budgeted for N <= {VERIFY_MAX_VERTICES}, k <= {VERIFY_MAX_K}; "
            "pass --budget-override to force"
        )
    # Each step's time runs from the end of the step before it, so the steps
    # add up to at most the whole; times are floored to whole microseconds.
    steps_ns = dict.fromkeys(VERIFY_STEPS, 0)
    clock = time.perf_counter_ns
    t0 = last = clock()

    def lap(step: str) -> None:
        nonlocal last
        now = clock()
        steps_ns[step] = now - last
        last = now

    out = domset_to_rtd(g, k)
    lap("build")
    dom, witness = has_dominating_set(g, k)
    # Re-check the witness against the definition before trusting it.
    if dom and not all(any(dominates(g, v, u) for v in witness) for u in range(g.n)):
        raise InvariantError(f"dominating-set search returned a non-dominating witness {witness}")
    lap("domset")
    decided, _ = rtd_decision(out.klass, k)
    lap("decision")
    report = _base_report("verify", [args.graphfile])
    report |= {
        "k": k,
        "concepts": len(out.klass.concepts),
        "points": out.klass.width,
        "dominating_set": list(witness) if witness else None,
        "domset": dom,
        "rtd_at_most_k": decided,
    }
    human = [
        f"domset: {'YES' if dom else 'NO'}"
        + (f" (witness: {', '.join(g.vertex_label(v) for v in witness)})" if dom else ""),
        f"rtd <= {k}: {'YES' if decided else 'NO'}",
    ]
    problems: list[str] = []
    if dom:
        wplan = witness_plan(out, witness)
        width = check_plan(out.klass, wplan)
        report["witness_plan_width"] = width
        human.append(f"witness plan: {len(wplan)} steps, width {width}, valid")
        if width > k:
            problems.append(f"witness plan width {width} exceeds k")
        lap("witness_plan")
        first_pattern = out.concept_map[0][1].pattern
        ts = min_teaching_set(out.klass.concept(out.constraint_label(first_pattern)), out.klass)
        try:
            extracted = extract_domset(out, first_pattern, ts.witness)
            report["extracted_dominating_set"] = list(extracted)
            human.append(
                "extracted dominating set: "
                + ", ".join(g.vertex_label(v) for v in extracted)
                + " (verified)"
            )
        except SoundnessViolationError as e:
            problems.append(f"soundness extraction failed: {e}")
        lap("extract")
    obs = check_observations(out, max_sets=args.max_observation_sets)
    lap("observations")
    report["observation_sets_checked"] = obs.sets_checked
    report["observations_exhaustive"] = obs.exhaustive
    human.append(
        f"observations: {obs.sets_checked} checks"
        + ("" if obs.exhaustive else " (sampled)")
        + (", no counterexample" if obs.ok else f", COUNTEREXAMPLE {obs.counterexample}")
    )
    if not obs.ok:
        problems.append(f"observation counterexample: {obs.counterexample}")
    if dom != decided:
        problems.append("dominating-set answer and RTD decision disagree")
    verdict = "EQUIVALENT" if not problems else "VIOLATION"
    report |= {
        "verdict": verdict,
        "problems": problems,
        "duration_ms": (clock() - t0) // 1000 / 1000,
        "steps_ms": {step: ns // 1000 / 1000 for step, ns in steps_ns.items()},
    }
    human.append(f"verdict: {verdict}")
    human += [f"  problem: {p}" for p in problems]
    _emit(report, args.json, human)
    return 0 if verdict == "EQUIVALENT" else 1


# -- generation and benchmarking ----------------------------------------------


def _cmd_gen(args) -> int:
    g = gen_random_graph(args.n, args.p, args.seed)
    out = args.out or f"er_n{args.n}_p{args.p}_s{args.seed}.graph"
    Path(out).write_text(serialize_graph(g))
    print(f"wrote {out} ({g.n} vertices, {len(g.edges)} edges)")
    return 0


def _parse_sweep(tokens: list[str]) -> dict[str, list[int]]:
    ranges = {"N": list(range(2, 6)), "k": [1, 2]}
    for tok in tokens:
        if "=" not in tok:
            raise InvalidArgumentError(f"sweep token {tok!r} must look like N=2..5 or k=2")
        name, _, spec = tok.partition("=")
        if name not in ("N", "k"):
            raise InvalidArgumentError(f"unknown sweep variable {name!r} (use N or k)")
        try:
            if ".." in spec:
                lo, hi = spec.split("..", 1)
                values = list(range(int(lo), int(hi) + 1))
            else:
                values = [int(spec)]
        except ValueError:
            raise InvalidArgumentError(f"bad sweep range {spec!r}") from None
        if not values or min(values) < 1:
            raise InvalidArgumentError(f"sweep {tok!r} must cover positive values")
        ranges[name] = values
    return ranges


def _cmd_bench(args) -> int:
    ranges = _parse_sweep(args.sweep)
    rows = ["N,k,concepts,points,rtd,milliseconds"]
    for k in ranges["k"]:
        for n in ranges["N"]:
            if k > n:
                print(f"skipping N={n} k={k} (k > N)", file=sys.stderr)
                continue
            g = gen_random_graph(n, args.edge_probability, args.seed)
            t0 = time.perf_counter()
            out = domset_to_rtd(g, k)
            value = rtd(out.klass).value
            ms = (time.perf_counter() - t0) * 1000
            rows.append(
                f"{n},{k},{len(out.klass.concepts)},{out.klass.width},{value},{ms:.1f}"
            )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teachdim",
        description="Teaching-dimension computations, gadget construction and "
        "dominating-set reductions for explicit concept classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("ts", help="minimum teaching set of one concept")
    p.add_argument("classfile")
    p.add_argument("--concept", required=True, help="label of the concept to teach")
    add_json(p)
    p.set_defaults(func=_cmd_ts)

    p = sub.add_parser("td", help="teaching dimension of a class")
    p.add_argument("classfile")
    add_json(p)
    p.set_defaults(func=_cmd_td)

    p = sub.add_parser("tdmin", help="minimum teaching-set size over a class")
    p.add_argument("classfile")
    add_json(p)
    p.set_defaults(func=_cmd_tdmin)

    p = sub.add_parser("rtd", help="recursive teaching dimension with a witness plan")
    p.add_argument("classfile")
    p.add_argument("--plan-out", help="write the witness plan to this file")
    add_json(p)
    p.set_defaults(func=_cmd_rtd)

    p = sub.add_parser("rtd-oracle", help="RTD by exhaustive subclass enumeration")
    p.add_argument("classfile")
    p.add_argument("--cap", type=int, default=DEFAULT_SUBSET_ORACLE_CAP,
                   help="largest class size the 2^|C| enumeration will accept")
    add_json(p)
    p.set_defaults(func=_cmd_rtd_oracle)

    p = sub.add_parser("plan-check", help="validate a teaching plan against a class")
    p.add_argument("classfile")
    p.add_argument("planfile")
    add_json(p)
    p.set_defaults(func=_cmd_plan_check)

    p = sub.add_parser("gadget", help="emit the weight-k pattern class")
    p.add_argument("k", type=int)
    p.add_argument("--verify", action="store_true",
                   help="exhaustively check the three gadget properties")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("reduce", help="reduce a graph to a concept class")
    p.add_argument("variant", choices=("rtd", "shinohara"))
    p.add_argument("graphfile")
    p.add_argument("k", type=int, nargs="?", help="dominating-set size (rtd variant)")
    p.add_argument("--out", help="output prefix for .class and .meta.json files")
    add_json(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check the reduction equivalence end to end")
    p.add_argument("graphfile")
    p.add_argument("k", type=int)
    p.add_argument("--budget-override", action="store_true",
                   help=f"allow N > {VERIFY_MAX_VERTICES} or k > {VERIFY_MAX_K}")
    p.add_argument("--max-observation-sets", type=int, default=250_000,
                   help="sample the observation checks beyond this many sets")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random graph file")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float, help="edge probability")
    p.add_argument("seed", type=int)
    p.add_argument("--out", help="output path (default er_n<N>_p<P>_s<SEED>.graph)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the reduce+rtd pipeline over a sweep")
    p.add_argument("sweep", nargs="*", help="e.g. N=2..5 k=1..2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-probability", type=float, default=0.5)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ParseError, InvalidArgumentError, MalformedPlanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SoundnessViolationError as e:
        print(f"SOUNDNESS VIOLATION: {e}", file=sys.stderr)
        return 1
    except InvariantError as e:
        print(f"INTERNAL ERROR: {e}", file=sys.stderr)
        return 1
    except TeachdimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
