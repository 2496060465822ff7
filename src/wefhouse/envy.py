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
from operator import add

from .errors import NotWefable
from .model import Allocation, Instance, SubsidyVector, check_allocation, clear_denominators


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

    `nodes` is a simple cycle, closed (first equals last) and rotated so
    the smallest agent index comes first.
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

    Bellman-Ford on the integer envy table toward a virtual sink that every
    agent reaches by a 0-weight edge.  A pass raises each dist[i], in
    ascending i, to the best w[i][j] + dist[j] and points succ[i] at the
    first such j.  Any cycle of these pointers is positive, and one forms by
    pass n if the graph has a positive cycle; else a pass that raises
    nothing leaves the longest path weights in dist.
    """
    weights, den = clear_denominators(graph.weights)
    dist = [0] * graph.n
    succ: list[int | None] = [None] * graph.n
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(weights):
            reach = list(map(add, row, dist))
            best = max(reach)
            if best > dist[i]:
                dist[i] = best
                succ[i] = reach.index(best)
                changed = True
        nodes = _successor_cycle(succ)
        if nodes is not None:
            weight = sum(graph.weights[a][b] for a, b in zip(nodes, nodes[1:]))
            assert weight > 0
            return PositiveCycle(nodes, weight)
    return PathWeights(tuple(Fraction(d, den) for d in dist))


def _successor_cycle(succ: list[int | None]) -> tuple[int, ...] | None:
    """A cycle of i -> succ[i], closed and smallest node first, or None.

    Walks start at each node in ascending order; the first walk to run
    into itself gives the cycle.
    """
    walk_of: list[int | None] = [None] * len(succ)
    for start in range(len(succ)):
        node, walk = start, []
        while node is not None and walk_of[node] is None:
            walk_of[node] = start
            walk.append(node)
            node = succ[node]
        if node is not None and walk_of[node] == start:
            cycle = walk[walk.index(node):]
            first = cycle.index(min(cycle))
            return tuple(cycle[first:] + cycle[:first] + [cycle[first]])
    return None


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
