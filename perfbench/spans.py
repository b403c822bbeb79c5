"""Spans around the teachdim functions that the CLI, gadget and reduction modules call.

The tracer rebinds names where `teachdim.cli`, `teachdim.gadget` and
`teachdim.reduction` import them (and `teachdim.cli.main` itself), so every
call across a module boundary records a span: name, start, end, parent span
and instance id.  A span is named after the module that defines the function,
and that module is its layer.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "model", "graph", "gadget", "reduction", "teaching")
CALLERS = ("teachdim.cli", "teachdim.gadget", "teachdim.reduction")
# Per-element predicates, called once per vertex pair or candidate set: a span
# per call would cost more than the call, so their time stays in the caller.
UNWRAPPED = {"dominates", "is_teaching_set"}

# Calls of internal functions counted, without a span, while the named span
# is innermost: (module, function, span, counter).  `rtd` runs one decision
# pass per k it probes.
COUNTED_CALLS = (
    ("teachdim.teaching", "_strip_decision", "teaching.rtd", "teaching.rtd.k_probes"),
)
# Deterministic sizes taken from a call's arguments and result: the work the
# call was given or reported, not counted while it ran.
COUNTS = {
    "teaching.rtd_oracle_subsets": lambda args, res: {"subclasses": 2 ** len(args[0].concepts) - 1},
    "reduction.check_observations": lambda args, res: {"sets_checked": res.sets_checked},
    "reduction.domset_to_rtd": lambda args, res: {"cells": len(res.klass.concepts) * res.klass.width},
    "model.parse_class": lambda args, res: {"bytes": len(args[0].encode())},
    "model.check_plan": lambda args, res: {"steps": len(args[1])},
}


class Tracer:
    """Records spans and per-instance counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, instance]
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            ctr = self.counters[self.instance]
            ctr[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, res).items():
                    ctr[f"{name}.{key}"] += value
            return res

        return traced

    def _count(self, span: str, counter: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == span:
                self.counters[self.instance][counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict) -> None:
        """Wrap the imported teachdim functions of each caller module, cli.main and COUNTED_CALLS."""
        for caller in CALLERS:
            mod = modules[caller]
            for attr, fn in list(vars(mod).items()):
                own = attr == "main" and caller == "teachdim.cli"
                imported = (inspect.isfunction(fn) and fn.__module__.startswith("teachdim.")
                            and fn.__module__ != caller and attr not in UNWRAPPED)
                if own or imported:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{layer}.{fn.__name__}", fn))
        for module, attr, span, counter in COUNTED_CALLS:
            fn = getattr(modules[module], attr, None)
            if fn is not None:  # a counter whose function is gone reads 0
                self._saved.append((modules[module], attr, fn))
                setattr(modules[module], attr, self._count(span, counter, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per-function span time, per-layer time and per-layer self time, in ns.

        A layer's time counts each span that has no ancestor in the same
        layer; its self time is each span's duration minus its children's.
        """
        by_name: dict[str, int] = defaultdict(int)
        layer_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            by_name[name] += dur
            layer = name.split(".", 1)[0]
            self_ns[layer] += dur
            if parent >= 0:
                self_ns[self.spans[parent][0].split(".", 1)[0]] -= dur
            up = parent
            while up >= 0 and not self.spans[up][0].startswith(layer + "."):
                up = self.spans[up][3]
            if up < 0:
                layer_ns[layer] += dur
        return by_name, layer_ns, self_ns

    def time_by_instance(self, name: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for span_name, start, end, _, inst in self.spans:
            if span_name == name:
                out[inst] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tinstance\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")
