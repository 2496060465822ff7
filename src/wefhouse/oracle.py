"""Brute-force ground truth for small instances.

Everything here works straight from the definitions: full enumeration of
allocations, of permutations, and of subsidy perturbations.  It never
touches the polynomial solvers or the envy graph, so agreement with them
is evidence rather than circularity.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, perm
from typing import Iterator

from .errors import CapExceeded
from .model import (
    Allocation,
    Instance,
    Outcome,
    SubsidyVector,
    check_allocation,
    is_wef_allocation,
    is_wef_outcome,
)

DEFAULT_ALLOCATION_CAP = 50_000
PERMUTATION_CAP = 5_040


def count_allocations(n: int, m: int) -> int:
    """Number of injective assignments of n agents into m houses."""
    return perm(m, n)


def iter_allocations(n: int, m: int) -> Iterator[Allocation]:
    """All allocations in lexicographic order of their assignment tuples."""
    for assignment in itertools.permutations(range(m), n):
        yield Allocation(assignment)


def oracle_wef_exists(
    inst: Instance, cap: int = DEFAULT_ALLOCATION_CAP
) -> Allocation | None:
    """First allocation (lexicographic) that is weighted envy-free, else None."""
    total = count_allocations(inst.n, inst.m)
    if total > cap:
        raise CapExceeded(f"{total} allocations exceed the cap of {cap}")
    for allocation in iter_allocations(inst.n, inst.m):
        if is_wef_allocation(inst, allocation):
            return allocation
    return None


def oracle_permutation_resistant(inst: Instance, allocation: Allocation) -> bool:
    """Check all n! reshuffles of the allocated houses.

    True when no permutation of who-gets-which-allocated-house raises the
    total of utilities scaled by the receiving agent's weight.  Past
    PERMUTATION_CAP (7! = 5040) reshuffles, that is past 7 agents, it
    raises CapExceeded instead.
    """
    total = factorial(inst.n)
    if total > PERMUTATION_CAP:
        raise CapExceeded(f"{total} permutations exceed the cap of {PERMUTATION_CAP}")
    check_allocation(inst, allocation)
    ratio = [
        [inst.utilities[i][allocation[j]] / inst.weights[j] for j in range(inst.n)]
        for i in range(inst.n)
    ]
    base = sum((ratio[i][i] for i in range(inst.n)), Fraction(0))
    for sigma in itertools.permutations(range(inst.n)):
        if sum((ratio[i][sigma[i]] for i in range(inst.n)), Fraction(0)) > base:
            return False
    return True


def oracle_wefable_exists(
    inst: Instance, cap: int = DEFAULT_ALLOCATION_CAP
) -> Allocation | None:
    """First allocation that survives the factorial permutation check, else None.

    Raises CapExceeded past `cap` allocations, and past the fixed
    PERMUTATION_CAP (5040) permutations per allocation, which the check of
    the first allocation meets before it compares any.
    """
    total = count_allocations(inst.n, inst.m)
    if total > cap:
        raise CapExceeded(f"{total} allocations exceed the cap of {cap}")
    for allocation in iter_allocations(inst.n, inst.m):
        if oracle_permutation_resistant(inst, allocation):
            return allocation
    return None


def verify_min_subsidy(
    inst: Instance,
    allocation: Allocation,
    subsidy: SubsidyVector,
    delta: Fraction,
) -> bool:
    """Check that the subsidised outcome is envy-free and not reducible.

    True when (allocation, subsidy) is weighted envy-free and lowering any
    single positive payment by min(delta, payment) breaks some envy
    constraint.  `delta` is only the perturbation probe; arithmetic is
    exact.
    """
    if delta <= 0:
        raise ValueError(f"perturbation must be positive, got {delta}")
    if not is_wef_outcome(inst, Outcome(allocation, subsidy)):
        return False
    for i, payment in enumerate(subsidy.payments):
        if payment <= 0:
            continue
        reduced = list(subsidy.payments)
        reduced[i] = payment - min(delta, payment)
        if is_wef_outcome(inst, Outcome(allocation, SubsidyVector(tuple(reduced)))):
            return False
    return True
