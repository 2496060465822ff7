"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with `pytest -s`).  All
sweeps are seeded and deterministic; every numeric comparison is exact
rational arithmetic, so the only tolerances are the stated wall-clock
budgets.
"""
import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from wefhouse.envy import (
    PositiveCycle,
    build_envy_graph,
    is_wefable,
    max_path_weights,
    min_subsidy,
)
from wefhouse.generator import GeneratorConfig, generate_instance
from wefhouse.model import (
    Allocation,
    Outcome,
    is_wef_allocation,
    is_wef_outcome,
    make_instance,
)
from wefhouse.oracle import (
    iter_allocations,
    oracle_permutation_resistant,
    oracle_wef_exists,
    oracle_wefable_exists,
    verify_min_subsidy,
)
from wefhouse.solver import solve_wef
from wefhouse.special import (
    detect_two_types,
    solve_bivalued,
    solve_identical,
    solve_normalized_pair,
    solve_two_types,
)

from conftest import random_instances


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def main_sweep():
    # utilities in {0..3}, weights in {1..3}, all shapes up to 4 agents, 5 houses
    return random_instances(2002, seed0=100_000)


def no_positive_cycle_by_enumeration(inst, allocation):
    """Third route: enumerate every simple cycle of the envy quantities."""
    n = inst.n
    envy = [
        [
            inst.utilities[i][allocation[j]] / inst.weights[j]
            - inst.utilities[i][allocation[i]] / inst.weights[i]
            for j in range(n)
        ]
        for i in range(n)
    ]
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                cycle = (first,) + rest + (first,)
                if sum(envy[cycle[k]][cycle[k + 1]] for k in range(size)) > 0:
                    return False
    return True


def test_criterion_1_hard_pair():
    with criterion(1, "hard two-agent instance: no WEF, no WEFable, witness weight 1/4"):
        started = time.perf_counter()
        inst = make_instance([1, 2], [["1/2", "1/2"], [1, 1]])
        assert solve_wef(inst) is None
        for assignment in [(0, 1), (1, 0)]:
            allocation = Allocation(assignment)
            assert not is_wefable(inst, allocation)
            witness = max_path_weights(build_envy_graph(inst, allocation))
            assert isinstance(witness, PositiveCycle)
            # (1/w1 - 1/w2) * (1 - eps) with w=(1,2), eps=1/2
            assert witness.weight == Fraction(1, 4)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_hard_triple():
    with criterion(2, "hard three-agent instance: all 6 allocations fail, oracle agrees"):
        started = time.perf_counter()
        inst = make_instance(
            [1, 2, 3],
            [["49/100", "49/100", "1/50"], ["1/2", "1/2", 0], [0, 0, 1]],
        )
        checked = 0
        for allocation in iter_allocations(3, 3):
            assert not is_wefable(inst, allocation)
            checked += 1
        assert checked == 6
        assert oracle_wefable_exists(inst) is None
        assert time.perf_counter() - started < 1.0


def test_criterion_3_solver_cross_validation(main_sweep):
    with criterion(3, f"solver vs oracle on {len(main_sweep)} instances, Pareto-checked"):
        started = time.perf_counter()
        for inst in main_sweep:
            found = solve_wef(inst)
            wef_allocations = [
                a for a in iter_allocations(inst.n, inst.m) if is_wef_allocation(inst, a)
            ]
            reference = oracle_wef_exists(inst)
            assert (found is None) == (reference is None)
            assert (reference is None) == (not wef_allocations)
            if found is None:
                continue
            assert is_wef_allocation(inst, found)
            for other in wef_allocations:
                dominates = all(
                    inst.utilities[i][other[i]] >= inst.utilities[i][found[i]]
                    for i in range(inst.n)
                ) and any(
                    inst.utilities[i][other[i]] > inst.utilities[i][found[i]]
                    for i in range(inst.n)
                )
                assert not dominates
        assert time.perf_counter() - started < 300.0


def test_criterion_4_characterization(main_sweep):
    with criterion(4, "WEFable iff permutation resistant iff no positive cycle"):
        for inst in main_sweep:
            for allocation in iter_allocations(inst.n, inst.m):
                by_graph = is_wefable(inst, allocation)
                by_permutations = oracle_permutation_resistant(inst, allocation)
                by_cycles = no_positive_cycle_by_enumeration(inst, allocation)
                assert by_graph == by_permutations == by_cycles


def test_criterion_5_minimum_subsidy(main_sweep):
    probe = Fraction(1, 1000)
    with criterion(5, "minimum subsidies are envy-eliminating and irreducible"):
        for inst in main_sweep:
            for allocation in iter_allocations(inst.n, inst.m):
                if not is_wefable(inst, allocation):
                    continue
                payments = min_subsidy(inst, allocation)
                assert is_wef_outcome(inst, Outcome(allocation, payments))
                assert verify_min_subsidy(inst, allocation, payments, probe)


def test_criterion_6_identical_utilities():
    with criterion(6, "identical utilities: everything WEFable, outcome equalized"):
        instances = random_instances(500, seed0=200_000, structure="identical")
        for inst in instances:
            for allocation in iter_allocations(inst.n, inst.m):
                assert is_wefable(inst, allocation)
            outcome = solve_identical(inst)
            assert is_wef_outcome(inst, outcome)
            ratios = {
                (inst.utilities[i][outcome.allocation[i]] + outcome.subsidy[i])
                / inst.weights[i]
                for i in range(inst.n)
            }
            assert len(ratios) == 1


def test_criterion_7_two_types():
    with criterion(7, "two agent types: gate decision matches oracle, labels swap safely"):
        instances = random_instances(
            500, seed0=300_000, n_min=2, n_max=5, m_max=6, structure="two-type"
        )
        for inst in instances:
            partition = detect_two_types(inst)
            assert partition is not None
            allocation = solve_two_types(inst, partition)
            reference = oracle_wefable_exists(inst)
            assert (allocation is None) == (reference is None)
            if allocation is not None:
                assert is_wefable(inst, allocation)
            swapped = solve_two_types(inst, partition.swapped())
            assert (allocation is None) == (swapped is None)


def test_criterion_8_bivalued():
    with criterion(8, "bi-valued square instances: scan matches oracle, Pareto checks hold"):
        for epsilon in (Fraction(0), Fraction(1, 2)):
            # square shapes 1x1 .. 4x4
            instances = random_instances(
                250,
                seed0=400_000 + int(epsilon * 1000),
                structure="bivalued",
                epsilon=epsilon,
            )
            for inst in instances:
                result = solve_bivalued(inst)
                assert result.status != "inconclusive"
                reference = oracle_wefable_exists(inst)
                assert (result.status == "found") == (reference is not None)
                if result.allocation is not None:
                    assert is_wefable(inst, result.allocation)

                allocations = list(iter_allocations(inst.n, inst.m))
                one = Fraction(1)
                matched = {
                    a: sum(1 for i in range(inst.n) if inst.utilities[i][a[i]] == one)
                    for a in allocations
                }
                best_matched = max(matched.values())
                for a in allocations:
                    pareto_optimal = not any(
                        all(
                            inst.utilities[i][b[i]] >= inst.utilities[i][a[i]]
                            for i in range(inst.n)
                        )
                        and any(
                            inst.utilities[i][b[i]] > inst.utilities[i][a[i]]
                            for i in range(inst.n)
                        )
                        for b in allocations
                    )
                    assert pareto_optimal == (matched[a] == best_matched)
                    if oracle_permutation_resistant(inst, a):
                        assert pareto_optimal


def test_criterion_9_normalized_pairs():
    with criterion(9, "normalized two-agent instances always yield a WEFable pick"):
        instances = random_instances(
            500,
            seed0=500_000,
            n_min=2,
            n_max=2,
            weights="uniform:1:5",
            utilities="uniform:0:9",
            structure="normalized",
        )
        for inst in instances:
            allocation = solve_normalized_pair(inst)  # both houses always exist
            assert is_wefable(inst, allocation)


def test_criterion_10_scaling():
    with criterion(10, "polynomial scaling: 100x200 under 10s, 200x400 under 120s"):
        timings = {}
        for n, m in [(100, 200), (200, 400)]:
            inst = generate_instance(
                GeneratorConfig(
                    n=n, m=m, seed=42, weights="uniform:1:10", utilities="uniform:0:100"
                )
            )
            started = time.perf_counter()
            solve_wef(inst)
            timings[(n, m)] = time.perf_counter() - started
        assert timings[(100, 200)] < 10.0
        assert timings[(200, 400)] < 120.0
        # growth bounded by 4x the cubic-quadratic work ratio (2^3 * 2^2 = 32)
        baseline = max(timings[(100, 200)], 0.05)
        assert timings[(200, 400)] <= baseline * 4 * 32
