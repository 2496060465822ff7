"""The longest envy paths of `wefhouse.envy.max_path_weights`, restated.

A cubic all-pairs closure over Fraction values with a fixed outer order;
exact arithmetic makes its result independent of that order.  Slow but
easy to audit; the tests require the integer engine to reach exactly the
same decision and path weights.
"""
from __future__ import annotations

from fractions import Fraction

from wefhouse.envy import WeightedEnvyGraph


def max_path_weights_reference(graph: WeightedEnvyGraph) -> tuple[Fraction, ...] | None:
    """Per agent, the longest path weight from it; None on a positive cycle.

    A diagonal entry of the closure turning positive proves a
    positive-weight cycle.
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
        return None
    return tuple(max(row) for row in dist)
