"""Decide whether a weighted envy-free allocation exists and compute one.

The search maintains a shrinking pool of live (agent, house) assignments.
Whenever some agent's best surviving assignments, with values scaled by
the owning agent's weight, all belong to other agents, that whole top
group is discarded: handing any of those houses to those owners would
leave the agent envious no matter what it receives itself.  Once every
agent's top group contains one of its own assignments, a candidate
bipartite graph over those favourites is matched; an agent-saturating
matching is a weighted envy-free allocation, otherwise a minimal Hall
violator pinpoints further assignments to discard.  The pool only ever
shrinks and never loses a pair of a weighted envy-free allocation, so the
loop terminates, and it stops as soon as some agent has no live house
left: every such allocation gives each agent a house, so none exists.

`solve_wef` runs the search on the integer view of the instance
(`model.scaled_integers`), keeps the pool in one place and reads each
candidate graph off the pruning fixed point.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bipartite import maximum_matching
from .errors import MatchingSaturating
from .model import Allocation, Instance, scaled_integers


@dataclass(frozen=True)
class CandidateGraph:
    """Bipartite graph of each agent's surviving favourite assignments."""

    neighbors: tuple[tuple[int, ...], ...]
    house_count: int


def n_saturating_matching(
    graph: CandidateGraph,
) -> tuple[Allocation | None, list[int | None]]:
    """Match every agent to a distinct favourite house if possible.

    Returns (allocation, matching) when a matching covers all agents, else
    (None, matching) where the matching is maximum and reused by the Hall
    violator search.  Deterministic for a fixed graph.
    """
    matching = maximum_matching(graph.neighbors, graph.house_count)
    if all(house is not None for house in matching):
        return Allocation(tuple(matching)), matching
    return None, matching


@dataclass(frozen=True)
class HallViolator:
    """Agent set with fewer candidate neighbours than members."""

    agents: frozenset[int]
    houses: frozenset[int]


def minimal_hall_violator(
    graph: CandidateGraph, matching: list[int | None]
) -> HallViolator:
    """Minimal violating agent set, grown by alternating reachability.

    Starts from the lowest-index unmatched agent and alternates candidate
    edges (agent to house) with matching edges (house to owner).  Every
    reached house is matched, so the set has exactly one more agent than
    neighbour and no violating proper subset.  The set is the closure under
    these edges, so the order of the walk does not change it.
    """
    unmatched = [a for a, h in enumerate(matching) if h is None]
    if not unmatched:
        raise MatchingSaturating("matching already covers every agent")
    owner_of = {house: agent for agent, house in enumerate(matching) if house is not None}
    agents = {unmatched[0]}
    houses: set[int] = set()
    stack = [unmatched[0]]
    while stack:
        for house in graph.neighbors[stack.pop()]:
            if house in houses:
                continue
            houses.add(house)
            owner = owner_of.get(house)
            if owner is not None and owner not in agents:
                agents.add(owner)
                stack.append(owner)
    assert len(agents) > len(houses)
    return HallViolator(frozenset(agents), frozenset(houses))


@dataclass
class SolveStats:
    """Trace counters for one solver run: `rounds` pruning passes begun;
    `prune_steps` top groups removed, each before a pruning fixed point or
    the first agent left with no live house; `violators_removed` Hall
    violators whose candidate assignments were removed."""

    prune_steps: int = 0
    violators_removed: int = 0
    rounds: int = 0


def solve_wef(inst: Instance) -> Allocation | None:
    """Return a weighted envy-free allocation, or None when none exists.

    A returned allocation is weighted envy-free and Pareto optimal among
    all weighted envy-free allocations; None means no such allocation
    exists for the instance.
    """
    return solve_wef_traced(inst)[0]


def solve_wef_traced(inst: Instance) -> tuple[Allocation | None, SolveStats]:
    """solve_wef plus trace counters used by the command line report."""
    stats = SolveStats()
    engine = _Engine(inst)
    while None not in engine.own_best:
        stats.rounds += 1
        if not engine.prune(stats):
            break
        graph = CandidateGraph(engine.candidate_rows(), inst.m)
        if __debug__:
            _check_shared_favourites(engine, graph)
        allocation, matching = n_saturating_matching(graph)
        if allocation is not None:
            return allocation, stats
        violator = minimal_hall_violator(graph, matching)
        engine.remove_pairs(
            [(a, h) for a in sorted(violator.agents) for h in graph.neighbors[a]]
        )
        stats.violators_removed += 1
    return None, stats


# -- integer engine ----------------------------------------------------------

class _Engine:
    """Incremental state for the assignment-pool search, all in integers.

    The pool is stored once, as each agent's set of live houses.  Agents are
    kept in one order by ascending weight, and each column has a cursor into
    that order at its lightest live owner; the pool only shrinks, so cursors
    only move forward.  A viewer's best value over the whole pool is the
    best utility/min-weight ratio over columns, cached as the first column
    attaining it (`witness`) and that column's minimum (`best_den`).  Minima
    only rise, so the cache is exact while the two are still equal.  The
    search stops once some agent has no live house (`own_best` holds None),
    so the methods may assume every agent still has one.
    """

    def __init__(self, inst: Instance):
        self.n = inst.n
        self.m = inst.m
        self.U, self.W = scaled_integers(inst)
        n, m = self.n, self.m
        self.rows: list[set[int]] = [set(range(m)) for _ in range(n)]
        self.order = sorted(range(n), key=self.W.__getitem__)
        self.cursor = [0] * m
        self.col_min: list[int | None] = [self.W[self.order[0]]] * m
        self.own_best: list[int | None] = [max(row) for row in self.U]
        self.witness = [0] * n
        self.best_den = [0] * n  # equals no column minimum: scanned on first use

    def _refresh(self, viewer: int) -> None:
        # the pool is non-empty, so some column has a minimum
        row = self.U[viewer]
        best, best_den, best_house = -1, 1, 0
        for house in range(self.m):
            den = self.col_min[house]
            if den is not None and row[house] * best_den > best * den:
                best, best_den, best_house = row[house], den, house
        self.witness[viewer] = best_house
        self.best_den[viewer] = best_den

    def first_triggered(self) -> int | None:
        for viewer in range(self.n):
            if self.col_min[self.witness[viewer]] != self.best_den[viewer]:
                self._refresh(viewer)
            own = self.own_best[viewer]
            best = self.U[viewer][self.witness[viewer]]
            if own * self.best_den[viewer] < best * self.W[viewer]:
                return viewer
        return None

    def top_pairs(self, viewer: int) -> list[tuple[int, int]]:
        """The viewer's full argmax group; requires a fresh cache."""
        row = self.U[viewer]
        best, best_den = row[self.witness[viewer]], self.best_den[viewer]
        pairs = []
        order, rows, W = self.order, self.rows, self.W
        for house in range(self.m):
            den = self.col_min[house]
            if den is not None and row[house] * best_den == best * den:
                for k in range(self.cursor[house], self.n):
                    agent = order[k]
                    if W[agent] != den:
                        break
                    if house in rows[agent]:
                        pairs.append((agent, house))
        return pairs

    def remove_pairs(self, pairs) -> None:
        for agent, house in pairs:
            row = self.rows[agent]
            row.remove(house)
            values = self.U[agent]
            if self.own_best[agent] == values[house]:
                self.own_best[agent] = max((values[x] for x in row), default=None)
            k = self.cursor[house]
            if self.order[k] != agent:
                continue
            while k < self.n and house not in self.rows[self.order[k]]:
                k += 1
            self.cursor[house] = k
            self.col_min[house] = self.W[self.order[k]] if k < self.n else None

    def prune(self, stats: SolveStats) -> bool:
        """Remove top groups until no viewer is triggered (True), or until
        some agent has no live house left (False)."""
        while None not in self.own_best:
            viewer = self.first_triggered()
            if viewer is None:
                return True
            self.remove_pairs(self.top_pairs(viewer))
            stats.prune_steps += 1
        return False

    def candidate_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's live houses of its best own value: at a pruning fixed
        point, exactly the houses of its best ratio over the whole pool."""
        return tuple(
            tuple(sorted(h for h in live if row[h] == best))
            for live, row, best in zip(self.rows, self.U, self.own_best)
        )


def _check_shared_favourites(engine: _Engine, graph: CandidateGraph) -> None:
    """Debug invariant: when two agents share a candidate house, any of them
    valuing it positively has the same, minimal weight among the sharers."""
    sharers: dict[int, list[int]] = {}
    for agent, row in enumerate(graph.neighbors):
        assert row, "candidate graph row empty at a pruning fixed point"
        for house in row:
            sharers.setdefault(house, []).append(agent)
    for house, agents in sharers.items():
        positive = [a for a in agents if engine.U[a][house] > 0]
        if not positive:
            continue
        w0 = engine.W[positive[0]]
        assert all(engine.W[a] == w0 for a in positive)
        assert all(engine.W[a] >= w0 for a in agents)
