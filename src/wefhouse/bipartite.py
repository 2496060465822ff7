"""Bipartite matching primitives shared by the solvers."""
from __future__ import annotations

from typing import Sequence


def maximum_matching(
    neighbors: Sequence[Sequence[int]], house_count: int
) -> list[int | None]:
    """Maximum-cardinality matching via augmenting paths.

    Agents are processed in ascending index order and each agent tries its
    neighbours in the given order, so the result is deterministic.  Worst
    case O(agents * edges), with no recursion.  Returns the matched house
    per agent, or None.
    """
    match_agent: list[int | None] = [None] * len(neighbors)
    match_house: list[int | None] = [None] * house_count
    seen = [-1] * house_count  # the last root whose search visited each house
    for root in range(len(neighbors)):
        # depth-first search for an augmenting path on an explicit stack of
        # (agent on the path, iterator over the neighbours it has yet to try)
        stack = [(root, iter(neighbors[root]))]
        while stack:
            for house in stack[-1][1]:
                if seen[house] != root:
                    break
            else:
                stack.pop()
                continue
            seen[house] = root
            owner = match_house[house]
            if owner is None:
                # each agent on the path takes the house its successor held
                for agent, _ in reversed(stack):
                    match_house[house] = agent
                    match_agent[agent], house = house, match_agent[agent]
                break
            stack.append((owner, iter(neighbors[owner])))
    return match_agent


def max_weight_assignment(values: Sequence[Sequence[int]]) -> list[int]:
    """Assign every row to a distinct column maximizing the total value.

    Rectangular Hungarian algorithm (rows <= columns) over exact integers;
    potentials stay integral so no precision is lost.  Ties are broken by
    whatever optimum the potential updates reach first, so callers needing
    a specific tie-break must encode it into the values.
    """
    n = len(values)
    m = len(values[0]) if n else 0
    if n > m:
        raise ValueError(f"need at least as many columns as rows ({n} > {m})")
    INF = float("inf")
    # 1-based arrays; p[j] is the row matched to column j (0 = free).
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv: list = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = -values[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    result = [0] * n
    for j in range(1, m + 1):
        if p[j]:
            result[p[j] - 1] = j - 1
    return result
