"""Envy graphs, subsidies, and the weighted envy-freeability check.

For an allocation, the envy of agent i toward agent j is
v_i(A_j)/w_j - v_i(A_i)/w_i.  An allocation can be made weighted
envy-free with non-negative payments exactly when the complete digraph
of these envy amounts has no positive-weight cycle, and the pointwise
smallest such payment to agent i is its weight times the maximum total
envy along any path starting at i.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotWefable
from .model import Allocation, Instance, SubsidyVector, check_allocation


@dataclass(frozen=True)
class WeightedEnvyGraph:
    """Complete digraph over agents; entry (i, j) is i's envy toward j."""

    weights: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PathWeights:
    """Per agent, the maximum weight of a path in the envy graph starting there.

    The single-node path counts with weight 0, so per_agent entries are
    never negative.
    """

    per_agent: tuple[Fraction, ...]


@dataclass(frozen=True)
class PositiveCycle:
    """Witness cycle with strictly positive total envy.

    `nodes` is closed (first equals last) and rotated so the smallest
    agent index comes first.
    """

    nodes: tuple[int, ...]
    weight: Fraction


def build_envy_graph(inst: Instance, allocation: Allocation) -> WeightedEnvyGraph:
    """Pairwise envy amounts for the allocation; the diagonal is zero."""
    check_allocation(inst, allocation)
    zero = Fraction(0)
    rows = []
    for i in range(inst.n):
        own = inst.utilities[i][allocation[i]] / inst.weights[i]
        rows.append(
            tuple(
                zero if i == j
                else inst.utilities[i][allocation[j]] / inst.weights[j] - own
                for j in range(inst.n)
            )
        )
    return WeightedEnvyGraph(tuple(rows))


def max_path_weights(graph: WeightedEnvyGraph) -> PathWeights | PositiveCycle:
    """Longest path weight from each agent, or a positive cycle.

    Runs the cubic all-pairs relaxation with a fixed outer order; exact
    arithmetic makes the closure independent of that order.  A diagonal
    entry turning positive proves a positive-weight cycle, in which case
    an explicit witness cycle is returned instead of path weights.
    """
    n = graph.n
    dist = [list(row) for row in graph.weights]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            for j in range(n):
                cand = dik + dk[j]
                if cand > di[j]:
                    di[j] = cand
    if any(dist[i][i] > 0 for i in range(n)):
        return _positive_cycle(graph)
    return PathWeights(tuple(max(row) for row in dist))


def _positive_cycle(graph: WeightedEnvyGraph) -> PositiveCycle:
    """Extract one positive-weight simple cycle.

    Grows maximum walk weights by exact edge count until some closed walk
    turns positive.  A positive closed walk of globally minimal length
    cannot revisit a node (splitting it there would leave a shorter
    positive closed walk), so the witness is a simple cycle.
    """
    n = graph.n
    w = graph.weights
    prev = [list(row) for row in w]  # best walks with exactly 1 edge
    start = length = None
    for t in range(2, n + 1):
        cur = []
        for i in range(n):
            prow = prev[i]
            cur.append(
                [max(prow[k] + w[k][j] for k in range(n)) for j in range(n)]
            )
        for i in range(n):
            if cur[i][i] > 0:
                start, length = i, t
                break
        if start is not None:
            break
        prev = cur
    assert start is not None, "no positive closed walk despite a positive diagonal"
    # best walks from `start` by exact edge count, for the walk-back
    rows: list[list[Fraction]] = [[], list(w[start])]
    for t in range(2, length + 1):
        prow = rows[t - 1]
        rows.append([max(prow[k] + w[k][j] for k in range(n)) for j in range(n)])
    backward = [start]
    node = start
    for t in range(length, 1, -1):
        prow = rows[t - 1]
        target = rows[t][node]
        node = next(k for k in range(n) if prow[k] + w[k][node] == target)
        backward.append(node)
    backward.append(start)
    core = backward[::-1][:-1]
    assert len(set(core)) == len(core), "witness walk is not a simple cycle"
    first = core.index(min(core))
    nodes = tuple(core[first:] + core[:first] + [core[first]])
    weight = sum(
        (w[nodes[t]][nodes[t + 1]] for t in range(len(nodes) - 1)), Fraction(0)
    )
    assert weight > 0
    return PositiveCycle(nodes, weight)


def is_wefable(inst: Instance, allocation: Allocation) -> bool:
    """Whether some non-negative subsidy vector removes all weighted envy."""
    return isinstance(max_path_weights(build_envy_graph(inst, allocation)), PathWeights)


def min_subsidy(inst: Instance, allocation: Allocation) -> SubsidyVector:
    """Pointwise-minimum envy-eliminating payments for a WEFable allocation.

    Pays each agent its weight times the maximum envy along any path
    starting from it; every envy-eliminating vector is at least this,
    componentwise.  Raises NotWefable, carrying a positive envy cycle, when
    no such vector exists.
    """
    result = max_path_weights(build_envy_graph(inst, allocation))
    if isinstance(result, PositiveCycle):
        raise NotWefable(result)
    return SubsidyVector(
        tuple(inst.weights[i] * result.per_agent[i] for i in range(inst.n))
    )
