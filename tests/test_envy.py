import itertools
import random
import tracemalloc
from fractions import Fraction
from math import isqrt, lcm

import pytest

from wefhouse.bipartite import max_weight_assignment
from wefhouse.envy import (
    PathWeights,
    PositiveCycle,
    build_envy_graph,
    is_wefable,
    max_path_weights,
    min_subsidy,
)
from wefhouse.errors import InvalidAllocation, NotWefable
from wefhouse.generator import GeneratorConfig, generate_instance
from wefhouse.model import Allocation, Outcome, SubsidyVector, is_wef_outcome, make_instance
from wefhouse.oracle import iter_allocations, oracle_permutation_resistant
from wefhouse.solver import solve_wef
from wefhouse.special import detect_two_types, solve_two_types, unweighted_efable

from conftest import random_instances
from reference_envy import max_path_weights_reference


class TestBuildEnvyGraph:
    def test_flat_pair_entries(self, flat_pair):
        graph = build_envy_graph(flat_pair, Allocation((0, 1)))
        assert graph.weights[0][1] == Fraction(-1, 4)
        assert graph.weights[1][0] == Fraction(1, 2)
        assert graph.weights[0][0] == graph.weights[1][1] == 0

    def test_equal_weights_identical_utilities_antisymmetric(self):
        inst = make_instance([1, 1], [[5, 2], [5, 2]])
        graph = build_envy_graph(inst, Allocation((0, 1)))
        assert graph.weights[0][1] == -graph.weights[1][0] == Fraction(-3)

    def test_single_agent(self):
        inst = make_instance([4], [[9]])
        graph = build_envy_graph(inst, Allocation((0,)))
        assert graph.weights == ((Fraction(0),),)

    def test_invalid_allocation(self, flat_pair):
        with pytest.raises(InvalidAllocation):
            build_envy_graph(flat_pair, Allocation((0, 2)))


class TestMaxPathWeights:
    def test_flat_pair_positive_cycle_witness(self, flat_pair):
        result = max_path_weights(build_envy_graph(flat_pair, Allocation((0, 1))))
        assert isinstance(result, PositiveCycle)
        assert result.nodes == (0, 1, 0)
        assert result.weight == Fraction(1, 4)

    def test_identical_pair_path_weights(self, identical_pair):
        graph = build_envy_graph(identical_pair, Allocation((0, 1)))
        result = max_path_weights(graph)
        assert isinstance(result, PathWeights)
        assert result.per_agent == (Fraction(0), Fraction(5))
        # agent 1's longest path is the edge to agent 0
        assert graph.weights[1][0] + result.per_agent[0] == Fraction(5)

    def test_zero_graph(self):
        inst = make_instance([1, 1, 1], [[1, 1, 1]] * 3)
        graph = build_envy_graph(inst, Allocation((0, 1, 2)))
        result = max_path_weights(graph)
        assert isinstance(result, PathWeights)
        assert result.per_agent == (0, 0, 0)
        assert all(v == 0 for row in graph.weights for v in row)

    def test_relaxation_fixed_point(self):
        for inst in random_instances(80, seed0=600):
            for allocation in itertools.islice(
                iter_allocations(inst.n, inst.m), 0, None, 7
            ):
                graph = build_envy_graph(inst, allocation)
                result = max_path_weights(graph)
                if isinstance(result, PositiveCycle):
                    continue
                for i in range(inst.n):
                    assert result.per_agent[i] >= 0
                    for j in range(inst.n):
                        assert (
                            result.per_agent[i]
                            >= graph.weights[i][j] + result.per_agent[j]
                        )

    def test_longer_witness_cycles_are_found(self):
        # diagonal holdings rule out 2-cycles; a heavy 3-cycle remains
        inst = make_instance(
            [1, 1, 1],
            [
                [10, 9, 0],
                [0, 10, 9],
                [9, 0, 10],
            ],
        )
        result = max_path_weights(build_envy_graph(inst, Allocation((1, 2, 0))))
        assert isinstance(result, PositiveCycle)
        assert len(result.nodes) == 4
        assert result.weight > 0

    def test_witness_cycles_are_valid_on_sweep(self):
        # whenever a positive cycle is reported, it must be a genuine one:
        # closed, simple, smallest node first, weight equal to the edge sum
        seen_longer_than_two = 0
        for inst in random_instances(120, seed0=7300, utilities="uniform:0:5"):
            for allocation in iter_allocations(inst.n, inst.m):
                graph = build_envy_graph(inst, allocation)
                result = max_path_weights(graph)
                if not isinstance(result, PositiveCycle):
                    continue
                nodes = result.nodes
                assert nodes[0] == nodes[-1] == min(nodes)
                core = nodes[:-1]
                assert len(set(core)) == len(core) >= 2
                total = sum(
                    graph.weights[nodes[t]][nodes[t + 1]]
                    for t in range(len(nodes) - 1)
                )
                assert total == result.weight > 0
                if len(core) > 2:
                    seen_longer_than_two += 1
        assert seen_longer_than_two > 0


def _engine_sweep():
    """(instance, allocation) pairs for n up to 40, WEFable and not.

    Identical utilities make every allocation WEFable, as does the
    maximum-utility assignment under equal weights; random allocations of
    general instances are mostly not WEFable, with cycles of many lengths.
    Normalized utilities, bivalued ones with epsilon 1/4 and weights such
    as 3/2 put fractions into both parts of the envy amounts.
    """
    rng, fractional = random.Random(9100), random.Random(9200)
    for n in range(1, 41, 3):
        for structure in ("normalized", "bivalued"):
            m = n if structure == "bivalued" else n + fractional.randrange(n + 1)
            inst = generate_instance(
                GeneratorConfig(n=n, m=m, seed=fractional.randrange(10**6), weights="uniform:1:9",
                                structure=structure, epsilon=Fraction(1, 4))
            )
            yield inst, Allocation(tuple(fractional.sample(range(m), n)))
            # identical rows: WEFable, with fractional longest paths
            weights = [f"{fractional.randint(1, 9)}/{fractional.randint(1, 4)}" for _ in range(n)]
            identical = make_instance(weights, [inst.utilities[0]] * n)
            yield identical, Allocation(tuple(fractional.sample(range(m), n)))
        for structure, weights, utilities in (
            ("identical", "uniform:1:9", "uniform:0:30"),
            ("general", "uniform:1:1", "uniform:0:30"),
            ("general", "uniform:1:9", "uniform:0:3"),
            ("general", "uniform:1:9", "uniform:0:30"),
        ):
            m = n + rng.randrange(n + 1)
            inst = generate_instance(
                GeneratorConfig(n=n, m=m, seed=rng.randrange(10**6),
                                weights=weights, utilities=utilities, structure=structure)
            )
            yield inst, Allocation(tuple(rng.sample(range(m), n)))
            if weights == "uniform:1:1":
                yield inst, unweighted_efable(inst)


class TestEngineAgainstReference:
    def test_decision_path_weights_and_witnesses(self):
        wefable = longer_cycles = 0
        pairs = list(_engine_sweep())
        for inst, allocation in pairs:
            graph = build_envy_graph(inst, allocation)
            result = max_path_weights(graph)
            expected = max_path_weights_reference(graph)
            if isinstance(result, PathWeights):
                assert result.per_agent == expected
                wefable += 1
                continue
            assert expected is None
            nodes = result.nodes
            assert nodes[0] == nodes[-1] == min(nodes)
            assert len(set(nodes[:-1])) == len(nodes) - 1 >= 2
            total = sum(graph.weights[a][b] for a, b in zip(nodes, nodes[1:]))
            assert total == result.weight > 0
            longer_cycles += len(nodes) > 3
        assert 0 < wefable < len(pairs)
        assert longer_cycles > 0

    def test_table_is_the_scaled_envy(self):
        for inst, allocation in _engine_sweep():
            graph = build_envy_graph(inst, allocation)
            assert graph.scale > 0
            u, w = inst.utilities, inst.weights
            for i in range(inst.n):
                own = u[i][allocation[i]] / w[i]
                for j in range(inst.n):
                    assert graph.weights[i][j] == u[i][allocation[j]] / w[j] - own
                    assert graph.table[i][j] == graph.weights[i][j] * graph.scale


class TestIsWefable:
    def test_flat_pair_never(self, flat_pair):
        assert not is_wefable(flat_pair, Allocation((0, 1)))
        assert not is_wefable(flat_pair, Allocation((1, 0)))

    def test_flat_identical_pair_always(self, flat_identical_pair):
        assert is_wefable(flat_identical_pair, Allocation((0, 1)))
        assert is_wefable(flat_identical_pair, Allocation((1, 0)))

    def test_hard_triple_never(self, hard_triple):
        for allocation in iter_allocations(3, 3):
            assert not is_wefable(hard_triple, allocation)


class TestHostileDenominators:
    def test_is_wefable_memory_stays_bounded(self):
        # one distinct prime denominator 1/p per cell: the table's scale is the
        # product of the n*n received values' primes, not of all n*m
        n, m = 30, 60
        primes = [p for p in range(2, 16_000) if all(p % d for d in range(2, isqrt(p) + 1))]
        cells = iter(primes)
        inst = make_instance([1] * n, [[Fraction(1, next(cells)) for _ in range(m)] for _ in range(n)])
        tracemalloc.start()
        try:
            wefable = is_wefable(inst, Allocation(tuple(range(n))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not wefable
        # 1.44 MB on CPython 3.10 to 3.13; an lcm over all n*m cells reaches 2.9 MB
        assert peak <= 2_000_000


class TestMinSubsidy:
    def test_identical_pair(self, identical_pair):
        payments = min_subsidy(identical_pair, Allocation((0, 1)))
        assert payments.payments == (Fraction(0), Fraction(15))
        assert is_wef_outcome(
            identical_pair, Outcome(Allocation((0, 1)), payments)
        )

    def test_wef_allocation_needs_nothing(self, diagonal_pair):
        payments = min_subsidy(diagonal_pair, Allocation((0, 1)))
        assert payments.payments == (Fraction(0), Fraction(0))

    def test_not_wefable(self, flat_pair):
        with pytest.raises(NotWefable) as caught:
            min_subsidy(flat_pair, Allocation((0, 1)))
        assert caught.value.cycle == PositiveCycle((0, 1, 0), Fraction(1, 4))
        assert str(caught.value) == "positive envy cycle (0, 1, 0) of weight 1/4"

    def test_not_wefable_with_unprintable_weight(self):
        inst = make_instance(["1", "1e4300"], [[1, 0], [0, 1]])
        with pytest.raises(NotWefable) as caught:
            min_subsidy(inst, Allocation((1, 0)))
        assert caught.value.cycle.weight == 1 + Fraction(1, 10**4300)

    def test_unprintable_weight_message(self):
        inst = make_instance([1, 1], [["1e4300", 0], [0, "1e4300"]])
        with pytest.raises(NotWefable) as caught:
            min_subsidy(inst, Allocation((1, 0)))
        assert str(caught.value) == (
            "positive envy cycle (0, 1, 0) of weight <a number past the 4300-digit print limit>"
        )

    def test_soundness_and_minimality_on_sweep(self):
        probe = Fraction(1, 1000)
        for inst in random_instances(60, seed0=2500):
            for allocation in iter_allocations(inst.n, inst.m):
                if not is_wefable(inst, allocation):
                    continue
                payments = min_subsidy(inst, allocation)
                assert is_wef_outcome(inst, Outcome(allocation, payments))
                for i, p in enumerate(payments.payments):
                    if p <= 0:
                        continue
                    for delta in (probe, p):
                        lowered = list(payments.payments)
                        lowered[i] = p - min(delta, p)
                        assert not is_wef_outcome(
                            inst, Outcome(allocation, SubsidyVector(tuple(lowered)))
                        )


class TestPermutationResistance:
    def test_flat_pair(self, flat_pair):
        assert not is_wefable(flat_pair, Allocation((0, 1)))

    def test_single_agent(self):
        inst = make_instance([2], [[3]])
        assert is_wefable(inst, Allocation((0,)))

    def test_two_type_solution_is_resistant(self, two_type_pair):
        allocation = solve_two_types(two_type_pair, detect_two_types(two_type_pair))
        assert allocation is not None
        assert is_wefable(two_type_pair, allocation)
        assert oracle_permutation_resistant(two_type_pair, allocation)

    def test_matches_factorial_check(self):
        for inst in random_instances(60, seed0=3100):
            for allocation in iter_allocations(inst.n, inst.m):
                assert is_wefable(
                    inst, allocation
                ) == oracle_permutation_resistant(inst, allocation)

    def test_matches_assignment_view_beyond_oracle_scale(self):
        # WEFable iff the identity is a maximum-weight assignment of
        # M[i][j] = u_i(A_j) / w_j: a permutation beats the identity iff one
        # of its cycles is a positive envy cycle
        def identity_is_optimal(inst, allocation):
            ratio = [
                [inst.utilities[i][allocation[j]] / inst.weights[j] for j in range(inst.n)]
                for i in range(inst.n)
            ]
            den = lcm(*(r.denominator for row in ratio for r in row))
            scaled = [[r.numerator * (den // r.denominator) for r in row] for row in ratio]
            best = max_weight_assignment(scaled)
            return sum(row[best[i]] for i, row in enumerate(scaled)) == sum(
                scaled[i][i] for i in range(inst.n)
            )

        def generated(n, seed, structure, weights):
            return generate_instance(GeneratorConfig(
                n=n, m=2 * n, seed=7000 + 100 * n + seed, weights=weights,
                utilities="uniform:0:20", structure=structure,
            ))

        outcomes = []
        for n in (20, 40, 60):
            for seed in range(6):
                rng = random.Random(seed)
                identical = generated(n, seed, "identical", "uniform:1:5")
                unweighted = generated(n, seed, "general", "uniform:1:1")
                weighted = generated(n, seed, "general", "uniform:1:5")
                for inst, allocation in (
                    (identical, Allocation(tuple(rng.sample(range(2 * n), n)))),
                    (unweighted, unweighted_efable(unweighted)),
                    (weighted, Allocation(tuple(rng.sample(range(2 * n), n)))),
                ):
                    wefable = is_wefable(inst, allocation)
                    assert wefable == identity_is_optimal(inst, allocation)
                    outcomes.append(wefable)
        assert 0 < outcomes.count(False) < len(outcomes)

    def test_solver_output_is_wefable_with_zero_subsidy(self):
        for inst in random_instances(60, seed0=3600):
            allocation = solve_wef(inst)
            if allocation is None:
                continue
            assert is_wefable(inst, allocation)
            assert min_subsidy(inst, allocation).payments == (Fraction(0),) * inst.n
