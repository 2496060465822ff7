"""The search of `wefhouse.solver.solve_wef`, restated over Fraction values.

No integer scaling and no caches: every top set is recomputed from the
pool.  Slow but easy to audit; the tests require it to return exactly what
`solve_wef` returns on random sweeps.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from wefhouse.model import Allocation, Instance
from wefhouse.solver import (
    CandidateGraph,
    minimal_hall_violator,
    n_saturating_matching,
)


class VirtualAssignment(NamedTuple):
    """One potential assignment of a house to an agent."""

    agent: int
    house: int


class VirtualAssignmentSet:
    """Mutable pool of live (agent, house) assignments; removal only."""

    def __init__(self, n: int, m: int, rows: list[set[int]] | None = None):
        self.n = n
        self.m = m
        self._rows = rows if rows is not None else [set() for _ in range(n)]
        self._size = sum(len(r) for r in self._rows)

    @classmethod
    def full(cls, n: int, m: int) -> "VirtualAssignmentSet":
        return cls(n, m, [set(range(m)) for _ in range(n)])

    @property
    def size(self) -> int:
        return self._size

    def pairs(self) -> Iterator[VirtualAssignment]:
        for agent in range(self.n):
            for house in sorted(self._rows[agent]):
                yield VirtualAssignment(agent, house)

    def remove(self, agent: int, house: int) -> None:
        self._rows[agent].remove(house)
        self._size -= 1

    def remove_all(self, assignments) -> None:
        for agent, house in assignments:
            self.remove(agent, house)


def virtual_value(inst: Instance, viewer: int, assignment: VirtualAssignment) -> Fraction:
    """Value viewer places on giving `assignment.house` to `assignment.agent`:
    the viewer's utility for the house divided by the receiving agent's weight."""
    agent, house = assignment
    return inst.utilities[viewer][house] / inst.weights[agent]


def top_set(
    inst: Instance, viewer: int, pool: VirtualAssignmentSet
) -> set[VirtualAssignment]:
    """All live assignments attaining the viewer's maximum value, ties included."""
    if pool.size == 0:
        raise ValueError("top set of an empty assignment pool")
    best: Fraction | None = None
    tops: set[VirtualAssignment] = set()
    for assignment in pool.pairs():
        value = virtual_value(inst, viewer, assignment)
        if best is None or value > best:
            best = value
            tops = {assignment}
        elif value == best:
            tops.add(assignment)
    return tops


def prune_dominated(
    inst: Instance,
    pool: VirtualAssignmentSet,
    on_remove: Callable[[VirtualAssignmentSet], None] | None = None,
) -> VirtualAssignmentSet:
    """Discard dominated top groups until every agent's top set meets its own row.

    Scans agents in ascending index order, removes the first triggering
    agent's whole top set, and rescans.  Returns the pool at the fixed
    point, which may be empty.  `on_remove` is called after each removal.
    """
    while pool.size:
        for viewer in range(inst.n):
            tops = top_set(inst, viewer, pool)
            if any(t.agent == viewer for t in tops):
                continue
            pool.remove_all(tops)
            if on_remove is not None:
                on_remove(pool)
            break
        else:
            break
    return pool


def build_candidate_graph(inst: Instance, pool: VirtualAssignmentSet) -> CandidateGraph:
    """Edges (i, h) where assigning h to i attains agent i's current maximum."""
    rows = []
    for viewer in range(inst.n):
        if pool.size == 0:
            rows.append(())
            continue
        tops = top_set(inst, viewer, pool)
        rows.append(tuple(sorted(t.house for t in tops if t.agent == viewer)))
    return CandidateGraph(tuple(rows), inst.m)


def solve_wef_reference(
    inst: Instance,
    on_remove: Callable[[VirtualAssignmentSet], None] | None = None,
) -> Allocation | None:
    """The search of `solve_wef`, written directly over the operations above."""
    pool = VirtualAssignmentSet.full(inst.n, inst.m)
    while pool.size >= inst.n:
        prune_dominated(inst, pool, on_remove=on_remove)
        if pool.size < inst.n:
            break
        graph = build_candidate_graph(inst, pool)
        allocation, matching = n_saturating_matching(graph)
        if allocation is not None:
            return allocation
        violator = minimal_hall_violator(graph, matching)
        pool.remove_all(
            (a, h) for a in sorted(violator.agents) for h in graph.neighbors[a]
        )
        if on_remove is not None:
            on_remove(pool)
    return None
