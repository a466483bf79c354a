"""Self-time spans around the public functions of ``trigather``'s modules.

The wrappers are installed from outside the program, by rebinding every
module attribute (and every ``cli.ALGORITHMS`` entry) that refers to a
wrapped function.  Spans nest: each wrapper adds its own duration to the
enclosing span's child time, so a span's self time excludes the wrapped
calls it made, and the self times of all spans add up to the time spent
under the outermost ones.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function) -> span name.  Metrics are "<span>_s" and "<span>_calls".
SPANS = {
    ("config", "enumerate_connected"): "config.enumerate_connected",
    ("config", "is_connected"): "config.is_connected",
    ("config", "canonicalize"): "config.canonicalize",
    ("config", "is_gathered"): "config.is_gathered",
    ("engine", "run"): "engine.run_self",
    ("engine", "compute_decisions"): "engine.compute_decisions",
    ("engine", "observe"): "engine.observe",
    ("engine", "apply_decisions"): "engine.apply_decisions",
    ("engine", "trace_to_lines"): "engine.trace_to_lines",
    ("gather2", "decide_move"): "gather2.decide",
    ("gather2", "decide_verbatim"): "gather2.decide",
    ("range1", "check_table"): "range1.check_table",
    ("cli", "verify_sweep"): "cli.verify_sweep",
    ("cli", "main"): "cli.output",
}


class Tracer:
    """Accumulates self time, call counts and per-layer counters."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.views: set = set()
        self._child_ns: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` as span ``name``; ``after(args, result)`` runs untimed."""
        child_ns = self._child_ns
        self_ns = self.self_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[name] += elapsed - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "trigather") -> None:
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        engine = modules["engine"]
        counts = self.counts
        views = self.views

        def after_run(args, trace):
            counts["engine.steps"] += len(trace.steps)

        def after_apply(args, result):
            if isinstance(result, engine.CollisionReport):
                counts["engine.collisions"] += 1

        def after_lines(args, lines):
            counts["engine.trace_bytes"] += sum(len(line) + 1 for line in lines)

        def after_decide(args, move):
            views.add(args[0].occupied)

        after = {
            "engine.run_self": after_run,
            "engine.apply_decisions": after_apply,
            "engine.trace_to_lines": after_lines,
            "gather2.decide": after_decide,
        }
        replacement = {}
        for (mod_name, attr), span_name in SPANS.items():
            original = getattr(modules[mod_name], attr)
            replacement[id(original)] = (
                original,
                self.span(span_name, original, after.get(span_name)),
            )

        # range1 builds its decision function per table; wrap what it returns.
        range1 = modules["range1"]
        make_decision = range1.table_to_decision

        def table_to_decision(table):
            return self.span("range1.decide", make_decision(table))

        replacement[id(make_decision)] = (make_decision, table_to_decision)

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(vars(mod), attr, value, hit[1])
        algorithms = modules["cli"].ALGORITHMS
        for key, (decide, visibility) in list(algorithms.items()):
            hit = replacement.get(id(decide))
            if hit is not None and hit[0] is decide:
                self._rebind(algorithms, key, (decide, visibility), (hit[1], visibility))

    def _rebind(self, namespace: dict, key, old, new) -> None:
        namespace[key] = new
        self._restore.append((namespace, key, old))

    def uninstall(self) -> None:
        while self._restore:
            namespace, key, old = self._restore.pop()
            namespace[key] = old

    def metrics(self) -> dict[str, float]:
        """Self seconds and call counts per span, plus the counters."""
        out: dict[str, float] = {}
        for name in sorted(set(SPANS.values()) | {"range1.decide"}):
            out[f"{name}_s"] = self.self_ns[name] / 1e9
            out[f"{name}_calls"] = self.calls[name]
        for name in ("engine.steps", "engine.collisions", "engine.trace_bytes"):
            out[name] = self.counts[name]
        out["gather2.distinct_views"] = len(self.views)
        out["trace.self_sum_s"] = sum(self.self_ns.values()) / 1e9
        return out
