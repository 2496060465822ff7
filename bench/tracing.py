"""Spans around the library's public calls, and the per-layer metrics.

The tracer replaces a public function at the module attribute its caller
looks up (for example `wefhouse.solver.n_saturating_matching`, which
`solve_wef_traced` calls, or `wefhouse.special.is_wefable`, which
`solve_bivalued` calls) with a wrapper that records a span: name, start,
end, parent span and operation id.  Nothing under `src/` changes.  Spans
are kept in memory and written out when the run ends; a call made while
no operation is open (an output check, say) records nothing.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from wefhouse import envy, generator, model, solver, special

SETUP = "setup"  # operation id of the spans recorded during set-up


def _cells(args, result):
    return result.n * result.m + result.n


def _solve_counters(args, result):
    stats = result[1]
    return [stats.rounds, stats.prune_steps, stats.violators_removed]


def _graph_result(args, result):
    return [args[0].n, isinstance(result, envy.PositiveCycle)]


def _bivalued_counters(args, result):
    return [result.candidates_checked, result.matchings_checked]


# (module, attribute, span name, tag of the result kept with the span)
WRAP_POINTS = (
    (model, "parse_instance", "model.parse_instance", _cells),
    (solver, "solve_wef_traced", "solver.solve_wef_traced", _solve_counters),
    (solver, "n_saturating_matching", "solver.n_saturating_matching", None),
    (solver, "minimal_hall_violator", "solver.minimal_hall_violator", None),
    (solver, "maximum_matching", "bipartite.maximum_matching", None),
    (special, "maximum_matching", "bipartite.maximum_matching", None),
    (special, "max_weight_assignment", "bipartite.max_weight_assignment", None),
    (envy, "min_subsidy", "envy.min_subsidy", None),
    (special, "is_wefable", "envy.is_wefable", None),
    (envy, "build_envy_graph", "envy.build_envy_graph", None),
    (envy, "max_path_weights", "envy.max_path_weights", _graph_result),
    (special, "solve_identical", "special.solve_identical", None),
    (special, "detect_two_types", "special.detect_two_types", None),
    (special, "solve_two_types", "special.solve_two_types", None),
    (special, "solve_bivalued", "special.solve_bivalued", _bivalued_counters),
    (special, "solve_normalized_pair", "special.solve_normalized_pair", None),
    (special, "unweighted_efable", "special.unweighted_efable", None),
    (generator, "generate_instance", "generator.generate_instance", None),
)

ROOT_SPAN = "op"

# name -> unit of every metric `layer_metrics` returns, besides the CLI ones
LAYER_UNITS = {
    "model.parse_s": "s",
    "model.parse_share": "ratio",
    "model.cells_parsed": "count",
    "model.parse_cells_per_s": "1/s",
    "solver.solve_s": "s",
    "solver.engine_self_s": "s",
    "solver.rounds": "count",
    "solver.prune_steps": "count",
    "solver.violators_removed": "count",
    "solver.violator_s": "s",
    "bipartite.maximum_matching_s": "s",
    "bipartite.maximum_matching_calls": "count",
    "bipartite.max_weight_assignment_s": "s",
    "envy.build_graph_s": "s",
    "envy.closure_s": "s",
    "envy.cycle_s": "s",
    "envy.calls": "count",
    "envy.mean_n": "count",
    "special.identical_s": "s",
    "special.two_types_s": "s",
    "special.bivalued_s": "s",
    "special.bivalued_self_s": "s",
    "special.bivalued_candidates": "count",
    "special.bivalued_matchings": "count",
    "special.normalized_s": "s",
    "special.unweighted_s": "s",
    "generator.generate_s": "s",
}


class Tracer:
    """Span recorder installed over the library's module attributes.

    A span is `[name, start, end, parent, op, tag]`, where `parent` is the
    index of the enclosing span (-1 for none) and `op` the operation id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attribute, name, tag in WRAP_POINTS:
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name, tag))
        return self

    def __exit__(self, *exc) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def _wrap(self, original, name, tag):
        def traced(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                span[5] = tag(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def begin(self, op) -> None:
        """Open the root span of operation `op`; wrapped calls record until `end`."""
        self.op = op
        self._root = self._open(ROOT_SPAN)

    def end(self) -> float:
        """Close the open operation and return its traced duration."""
        self._close(self._root)
        self.op = None
        return self._root[2] - self._root[1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics per operation, from the spans of one traced run.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    tags = defaultdict(list)
    setup_total = defaultdict(float)
    for index, (name, start, end, _parent, op, tag) in enumerate(spans):
        if op == SETUP:
            setup_total[name] += end - start
            continue
        total[name] += end - start
        self_time[name] += end - start - child_time[index]
        calls[name] += 1
        if tag is not None:
            tags[name].append(tag)

    ops = max(calls[ROOT_SPAN], 1)
    cells = sum(tags["model.parse_instance"])
    solve = [sum(column) for column in zip(*tags["solver.solve_wef_traced"])] or [0, 0, 0]
    graphs = tags["envy.max_path_weights"]
    bivalued = [sum(column) for column in zip(*tags["special.solve_bivalued"])] or [0, 0]
    parse = total["model.parse_instance"]
    return {
        "model.parse_s": parse / ops,
        "model.parse_share": parse / total[ROOT_SPAN] if total[ROOT_SPAN] else 0.0,
        "model.cells_parsed": cells / ops,
        "model.parse_cells_per_s": cells / parse if parse else 0.0,
        "solver.solve_s": total["solver.solve_wef_traced"] / ops,
        "solver.engine_self_s": self_time["solver.solve_wef_traced"] / ops,
        "solver.rounds": solve[0] / ops,
        "solver.prune_steps": solve[1] / ops,
        "solver.violators_removed": solve[2] / ops,
        "solver.violator_s": total["solver.minimal_hall_violator"] / ops,
        "bipartite.maximum_matching_s": total["bipartite.maximum_matching"] / ops,
        "bipartite.maximum_matching_calls": calls["bipartite.maximum_matching"] / ops,
        "bipartite.max_weight_assignment_s": total["bipartite.max_weight_assignment"] / ops,
        "envy.build_graph_s": total["envy.build_envy_graph"] / ops,
        "envy.closure_s": _graph_time(spans, cycle=False) / ops,
        "envy.cycle_s": _graph_time(spans, cycle=True) / ops,
        "envy.calls": len(graphs) / ops,
        "envy.mean_n": sum(n for n, _ in graphs) / len(graphs) if graphs else 0.0,
        "special.identical_s": total["special.solve_identical"] / ops,
        "special.two_types_s": (total["special.detect_two_types"] + total["special.solve_two_types"]) / ops,
        "special.bivalued_s": total["special.solve_bivalued"] / ops,
        "special.bivalued_self_s": self_time["special.solve_bivalued"] / ops,
        "special.bivalued_candidates": bivalued[0] / ops,
        "special.bivalued_matchings": bivalued[1] / ops,
        "special.normalized_s": total["special.solve_normalized_pair"] / ops,
        "special.unweighted_s": total["special.unweighted_efable"] / ops,
        "generator.generate_s": setup_total["generator.generate_instance"],
    }


def _graph_time(spans: list[list], cycle: bool) -> float:
    return sum(
        end - start
        for name, start, end, _parent, op, tag in spans
        if name == "envy.max_path_weights" and op != SETUP and tag[1] == cycle
    )
