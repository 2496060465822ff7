from fractions import Fraction

import pytest

from wefhouse import model
from wefhouse.generator import GeneratorConfig, SplitMix64, generate_instance
from wefhouse.model import make_instance


@pytest.fixture
def flat_pair():
    """Two agents valuing both houses flatly, unequal weights.

    The lighter agent values everything at 1/2, the heavier at 1; no
    allocation is weighted envy-free, with or without subsidies.
    """
    return make_instance([1, 2], [["1/2", "1/2"], [1, 1]])


@pytest.fixture
def hard_triple():
    """Three agents, no WEFable allocation despite unit-sum utilities."""
    return make_instance(
        [1, 2, 3],
        [
            ["49/100", "49/100", "1/50"],
            ["1/2", "1/2", 0],
            [0, 0, 1],
        ],
    )


@pytest.fixture
def identical_pair():
    """Identical utilities (6, 3) with weights (1, 3)."""
    return make_instance([1, 3], [[6, 3], [6, 3]])


@pytest.fixture
def two_type_pair():
    """One agent per type: (w=2, v=(4,2)) and (w=1, v=(1,2))."""
    return make_instance([2, 1], [[4, 2], [1, 2]])


@pytest.fixture
def diagonal_pair():
    """Equal weights, each agent's favourite is its own diagonal house."""
    return make_instance([1, 1], [[2, 1], [1, 2]])


@pytest.fixture
def shared_favorite_pair():
    """Equal weights, both agents care only about the first house."""
    return make_instance([1, 1], [[1, 0], [1, 0]])


@pytest.fixture
def flat_identical_pair():
    """Identical flat utilities with weights (1, 2)."""
    return make_instance([1, 2], [[1, 1], [1, 1]])


def random_instances(
    count,
    seed0=1,
    n_max=4,
    m_max=5,
    weights="uniform:1:3",
    utilities="uniform:0:3",
    structure="general",
    n_min=1,
    epsilon=Fraction(0),
):
    """Deterministic stream of generated instances cycling over (n, m)."""
    shapes = [
        (n, m)
        for n in range(n_min, n_max + 1)
        for m in range(n, m_max + 1)
        if structure != "bivalued" or m == n
    ]
    out = []
    seed = seed0
    while len(out) < count:
        for n, m in shapes:
            if len(out) >= count:
                break
            seed += 1
            out.append(
                generate_instance(
                    GeneratorConfig(
                        n=n,
                        m=m,
                        seed=seed,
                        weights=weights,
                        utilities=utilities,
                        structure=structure,
                        epsilon=epsilon,
                    )
                )
            )
    return out


# The benchmark's planted builder, copied from bench/workloads.py so that the
# tests import nothing from bench/.

def _injection(rng: SplitMix64, n: int, m: int) -> list[int]:
    """n distinct houses out of m, uniformly, by a partial Fisher-Yates shuffle."""
    houses = list(range(m))
    for k in range(n):
        j = k + rng.below(m - k)
        houses[k], houses[j] = houses[j], houses[k]
    return houses[:n]


def planted_instance(rng: SplitMix64, n: int, m: int) -> model.Instance:
    """Weights 1..10, utilities 0..100, then a random injective assignment is
    made weighted envy-free by raising each agent's utility for its own house
    to the smallest integer that removes its envy."""
    weights = [rng.randint(1, 10) for _ in range(n)]
    utilities = [[rng.randint(0, 100) for _ in range(m)] for _ in range(n)]
    houses = _injection(rng, n, m)
    for i in range(n):
        row, w_i = utilities[i], weights[i]
        need = max(
            -(-row[houses[j]] * w_i // weights[j]) for j in range(n) if j != i
        ) if n > 1 else 0
        row[houses[i]] = max(row[houses[i]], need)
    return model.make_instance(weights, utilities)
