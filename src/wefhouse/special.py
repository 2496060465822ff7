"""Polynomial-time constructions for tractable instance families.

Covers identical utility functions (every allocation can be subsidised),
two agent types, bi-valued utilities on square instances, normalized
two-agent instances, and the equal-weights baseline via a maximum-weight
assignment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .bipartite import max_weight_assignment, maximum_matching
from .envy import is_wefable
from .errors import (
    InconsistentPartition,
    NotBivalued,
    NotIdenticalUtilities,
    NotNormalized,
    NotSquare,
    NotTwoAgents,
    NotUnweighted,
)
from .model import Allocation, Instance, Outcome, SubsidyVector, scaled_integers, shown


def solve_identical(inst: Instance) -> Outcome:
    """A subsidised weighted envy-free outcome for identical utilities.

    Any allocation works here; for determinism the n most valued houses
    (ties by index) go to agents in descending weight order (ties by
    index).  Payments then lift every agent's weighted utility to the
    maximum one, making all of them exactly equal.
    """
    values = inst.utilities[0]
    for i in range(1, inst.n):
        if inst.utilities[i] != values:
            raise NotIdenticalUtilities(f"agent {i} has a different utility row")
    houses = sorted(range(inst.m), key=lambda h: (-values[h], h))[: inst.n]
    agents = sorted(range(inst.n), key=lambda i: (-inst.weights[i], i))
    assignment = [0] * inst.n
    for agent, house in zip(agents, houses):
        assignment[agent] = house
    allocation = Allocation(tuple(assignment))
    top_ratio = max(values[allocation[i]] / inst.weights[i] for i in range(inst.n))
    payments = tuple(
        inst.weights[i] * top_ratio - values[allocation[i]] for i in range(inst.n)
    )
    return Outcome(allocation, SubsidyVector(payments))


@dataclass(frozen=True)
class TwoTypePartition:
    """Agents split into two non-empty groups, named by agent index only.

    Each group's weight and utility row are read from the instance, at
    the group's first agent; every other member must match that agent.
    The labels are only names: nothing requires the "large" group to have
    the larger weight, and the existence decision does not depend on
    which group carries which label.
    """

    large_agents: tuple[int, ...]
    small_agents: tuple[int, ...]

    def swapped(self) -> "TwoTypePartition":
        return TwoTypePartition(self.small_agents, self.large_agents)


def detect_two_types(inst: Instance) -> TwoTypePartition | None:
    """Group agents by (weight, utility row); exactly two groups or None.

    The group containing agent 0 gets the "large" label.
    """
    groups: dict[tuple, list[int]] = {}
    for i in range(inst.n):
        groups.setdefault((inst.weights[i], inst.utilities[i]), []).append(i)
    return TwoTypePartition(*map(tuple, groups.values())) if len(groups) == 2 else None


def _check_partition(inst: Instance, part: TwoTypePartition) -> None:
    if not part.large_agents or not part.small_agents:
        raise InconsistentPartition("a group is empty")
    if sorted(part.large_agents + part.small_agents) != list(range(inst.n)):
        raise InconsistentPartition("groups do not partition the agents")
    kinds = list(zip(inst.weights, inst.utilities))
    for first, *rest in (part.large_agents, part.small_agents):
        for agent in rest:
            if kinds[agent] != kinds[first]:
                raise InconsistentPartition(f"agent {agent} does not match agent {first}")


def solve_two_types(inst: Instance, part: TwoTypePartition) -> Allocation | None:
    """A weighted envy-freeable allocation for two agent types, or None.

    Each group's weight and utility row are those of its first agent.
    Houses are sorted by descending large-minus-small utility difference
    (stable, so ties keep house order).  The large group takes the first
    block and the small group the last; the split is sound exactly when
    the worst difference handed to the large group, scaled by its weight,
    still beats the best difference handed to the small group scaled by
    the small weight.  When that gate fails, no allocation at all for the
    instance can be made weighted envy-free by subsidies.
    """
    _check_partition(inst, part)
    large, small = part.large_agents[0], part.small_agents[0]
    n_large, n_small, m = len(part.large_agents), len(part.small_agents), inst.m
    diff = [a - b for a, b in zip(inst.utilities[large], inst.utilities[small])]
    order = sorted(range(m), key=lambda h: -diff[h])
    large_floor = diff[order[n_large - 1]] / inst.weights[large]
    small_ceiling = diff[order[m - n_small]] / inst.weights[small]
    if large_floor < small_ceiling:
        return None
    assignment = [0] * inst.n
    for k, agent in enumerate(sorted(part.large_agents)):
        assignment[agent] = order[k]
    for k, agent in enumerate(sorted(part.small_agents)):
        assignment[agent] = order[m - n_small + k]
    return Allocation(tuple(assignment))


@dataclass(frozen=True)
class RepresentingGraph:
    """For bi-valued square instances: edges where an agent values a house at 1.

    `neighbors[i]` lists, in ascending order, the houses agent i values
    at 1.  The low value is checked by `representing_graph` and not kept:
    no scan over the graph reads it.
    """

    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.neighbors)


def representing_graph(inst: Instance) -> RepresentingGraph:
    """Validate the bi-valued square setting and build its graph."""
    if inst.m != inst.n:
        raise NotSquare(f"need one house per agent, got n={inst.n}, m={inst.m}")
    one = Fraction(1)
    values = {v for row in inst.utilities for v in row}
    low_values = values - {one}
    if len(low_values) > 1:
        raise NotBivalued(f"more than two utility values: {', '.join(map(shown, sorted(values)))}")
    for low in low_values:
        if low >= 1:
            raise NotBivalued(f"low value {shown(low)} is not below 1")
    neighbors = tuple(
        tuple(h for h in range(inst.m) if inst.utilities[i][h] == one)
        for i in range(inst.n)
    )
    return RepresentingGraph(neighbors)


def enumerate_maximum_matchings(graph: RepresentingGraph) -> Iterator[tuple[int | None, ...]]:
    """Yield every maximum-cardinality matching exactly once.

    A depth-first walk over agents in ascending order, on an explicit stack
    holding one generator of extensions per prefix on the current path: each
    tries the next agent's neighbours in ascending order, then leaving it
    unmatched.  Every tried choice costs one maximum matching of the agents
    after it, and is kept only if the maximum cardinality is still reachable.
    The walk is lazy, so `itertools.islice` reads a prefix of the matchings
    with no check run past the last one read.
    """
    n = graph.n
    target = sum(1 for h in maximum_matching(graph.neighbors, n) if h is not None)

    def reaches_target(prefix: tuple[int | None, ...]) -> bool:
        used = set(prefix) - {None}
        rest = [
            tuple(h for h in graph.neighbors[a] if h not in used)
            for a in range(len(prefix), n)
        ]
        return len(used) + sum(1 for h in maximum_matching(rest, n) if h is not None) >= target

    def extensions(chosen: tuple[int | None, ...]) -> Iterator[tuple[int | None, ...]]:
        for house in (*graph.neighbors[len(chosen)], None):
            if house is None or house not in chosen:
                child = (*chosen, house)
                if reaches_target(child):
                    yield child

    stack = [iter([()])]
    while stack:
        chosen = next(stack[-1], None)
        if chosen is None:
            stack.pop()
        elif len(chosen) == n:
            yield chosen
        else:
            stack.append(extensions(chosen))


@dataclass(frozen=True)
class BivaluedResult:
    """Outcome of the bi-valued candidate scan."""

    status: str  # "found" | "not-found" | "inconclusive"
    allocation: Allocation | None
    candidates_checked: int
    matchings_checked: int


def solve_bivalued(inst: Instance, candidate_cap: int = 100_000) -> BivaluedResult:
    """Search bi-valued square instances for a WEFable allocation.

    Every allocation that can be made envy-free by subsidies is Pareto
    optimal here, hence corresponds to a maximum matching in the
    representing graph, so scanning maximum matchings is exhaustive.
    Agents left out of the matching still need distinct leftover houses
    and that pairing changes the envy structure, so all pairings are
    scanned per matching, in deterministic order.  Exceeding the
    candidate cap yields "inconclusive" with the counts so far.
    """
    graph = representing_graph(inst)
    candidates = 0
    matchings = 0
    for matching in enumerate_maximum_matchings(graph):
        matchings += 1
        free_agents = [a for a, h in enumerate(matching) if h is None]
        taken = {h for h in matching if h is not None}
        free_houses = sorted(set(range(inst.m)) - taken)
        for pairing in itertools.permutations(free_houses):
            candidates += 1
            if candidates > candidate_cap:
                return BivaluedResult("inconclusive", None, candidates - 1, matchings)
            assignment = list(matching)
            for agent, house in zip(free_agents, pairing):
                assignment[agent] = house
            allocation = Allocation(tuple(assignment))
            if is_wefable(inst, allocation):
                return BivaluedResult("found", allocation, candidates, matchings)
    return BivaluedResult("not-found", None, candidates, matchings)


def solve_normalized_pair(inst: Instance) -> Allocation:
    """A WEFable allocation for two agents with utilities summing to one.

    Agent 0 takes h1, the first house with u0[h1] >= u1[h1], and agent 1
    takes h2, the first other house with u1[h2] >= u0[h2]; each weakly
    prefers its own house to the other's, so the two-cycle envy is never
    positive.  Both houses exist: with d_h = u0[h] - u1[h], the d_h sum
    to 0 over m >= 2 houses, so some d_h >= 0, and if every house but h1
    had d_h > 0 the sum would be positive.  This is the first pair, in
    lexicographic order, with both properties.
    """
    if inst.n != 2:
        raise NotTwoAgents(f"defined for exactly two agents, got {inst.n}")
    one = Fraction(1)
    for i in range(2):
        if sum(inst.utilities[i]) != one:
            raise NotNormalized(f"agent {i} utilities sum to {shown(sum(inst.utilities[i]))}")
    first, second = inst.utilities
    h1 = next(h for h in range(inst.m) if first[h] >= second[h])
    h2 = next(h for h in range(inst.m) if h != h1 and second[h] >= first[h])
    return Allocation((h1, h2))


def unweighted_efable(inst: Instance) -> Allocation:
    """Envy-freeable allocation for equal weights: a maximum-utility assignment.

    Among all maximum-total-utility assignments, returns the one with the
    lexicographically smallest assignment vector, encoded as a secondary
    objective so one exact assignment solve suffices.
    """
    if any(w != inst.weights[0] for w in inst.weights):
        raise NotUnweighted(f"weights are not all equal: {', '.join(map(shown, inst.weights))}")
    n, m = inst.n, inst.m
    scaled = scaled_integers(inst)[0]
    base = (m + 1) ** n
    values = [
        [scaled[i][h] * base - h * (m + 1) ** (n - 1 - i) for h in range(m)]
        for i in range(n)
    ]
    return Allocation(tuple(max_weight_assignment(values)))
