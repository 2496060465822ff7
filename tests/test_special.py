import itertools
from fractions import Fraction

import pytest

from wefhouse.bipartite import max_weight_assignment, maximum_matching
from wefhouse.envy import is_wefable, min_subsidy
from wefhouse.errors import (
    InconsistentPartition,
    NotBivalued,
    NotIdenticalUtilities,
    NotNormalized,
    NotSquare,
    NotTwoAgents,
    NotUnweighted,
)
from wefhouse.model import Allocation, is_wef_outcome, make_instance
from wefhouse.oracle import iter_allocations, oracle_wefable_exists
from wefhouse.special import (
    RepresentingGraph,
    TwoTypePartition,
    detect_two_types,
    enumerate_maximum_matchings,
    representing_graph,
    solve_bivalued,
    solve_identical,
    solve_normalized_pair,
    solve_two_types,
    unweighted_efable,
)

from conftest import random_instances


class TestSolveIdentical:
    def test_identical_pair_outcome(self, identical_pair):
        outcome = solve_identical(identical_pair)
        # heavier agent takes the better house, payments equalise ratios
        assert outcome.allocation == Allocation((1, 0))
        assert outcome.subsidy.payments == (Fraction(0), Fraction(3))
        assert is_wef_outcome(identical_pair, outcome)

    def test_constant_utilities_equal_weights_free(self):
        inst = make_instance([2, 2], [[3, 3], [3, 3]])
        outcome = solve_identical(inst)
        assert outcome.subsidy.payments == (Fraction(0), Fraction(0))

    def test_flat_identical_pair(self, flat_identical_pair):
        outcome = solve_identical(flat_identical_pair)
        assert is_wef_outcome(flat_identical_pair, outcome)

    def test_weighted_utilities_equalised_exactly(self):
        for inst in random_instances(
            120, seed0=200, structure="identical", utilities="uniform:0:9"
        ):
            outcome = solve_identical(inst)
            ratios = {
                (inst.utilities[i][outcome.allocation[i]] + outcome.subsidy[i])
                / inst.weights[i]
                for i in range(inst.n)
            }
            assert len(ratios) == 1

    def test_rejects_distinct_rows(self, diagonal_pair):
        with pytest.raises(NotIdenticalUtilities):
            solve_identical(diagonal_pair)


class TestDetectTwoTypes:
    def test_flat_pair_detected(self, flat_pair):
        part = detect_two_types(flat_pair)
        assert part is not None
        assert part.large_agents == (0,)  # labelled by lowest agent index
        assert part.small_agents == (1,)

    def test_same_weight_and_row_is_single_type(self):
        inst = make_instance([2, 2], [[6, 3], [6, 3]])
        assert detect_two_types(inst) is None

    def test_identical_rows_with_distinct_weights_are_two_types(self, identical_pair):
        part = detect_two_types(identical_pair)
        assert part is not None
        rows = identical_pair.utilities
        assert rows[part.large_agents[0]] == rows[part.small_agents[0]]

    def test_three_rows(self):
        inst = make_instance([1, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert detect_two_types(inst) is None


class TestSolveTwoTypes:
    def test_two_type_pair(self, two_type_pair):
        allocation = solve_two_types(two_type_pair, detect_two_types(two_type_pair))
        assert allocation == Allocation((0, 1))
        assert is_wefable(two_type_pair, allocation)

    def test_flat_pair_no_wefable(self, flat_pair):
        heavy_as_large = TwoTypePartition(large_agents=(1,), small_agents=(0,))
        assert solve_two_types(flat_pair, heavy_as_large) is None
        assert solve_two_types(flat_pair, heavy_as_large.swapped()) is None

    def test_single_type_partition_rejected(self):
        # detect_two_types never returns one group; a hand-built one is refused
        inst = make_instance([2, 2], [[6, 3], [6, 3]])
        for part in (TwoTypePartition((0, 1), ()), TwoTypePartition((), (0, 1))):
            with pytest.raises(InconsistentPartition):
                solve_two_types(inst, part)

    def test_inconsistent_partition(self):
        # agent 2 differs from agent 0, the first of its group
        inst = make_instance([1, 1, 2], [[1, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(InconsistentPartition):
            solve_two_types(inst, TwoTypePartition((0, 2), (1,)))

    def test_agrees_with_oracle_on_sweep(self):
        for inst in random_instances(
            150, seed0=300, structure="two-type", n_min=2, n_max=4, m_max=5
        ):
            part = detect_two_types(inst)
            assert part is not None
            allocation = solve_two_types(inst, part)
            reference = oracle_wefable_exists(inst)
            assert (allocation is None) == (reference is None)
            if allocation is not None:
                assert is_wefable(inst, allocation)
            swapped = solve_two_types(inst, part.swapped())
            assert (allocation is None) == (swapped is None)

    def test_positive_cycle_implies_cross_type_two_cycle(self):
        # on two-type instances a positive cycle always shows up at length 2
        for inst in random_instances(
            40, seed0=950, structure="two-type", n_min=2, n_max=4, m_max=4
        ):
            part = detect_two_types(inst)
            kind = {a: 0 for a in part.large_agents}
            kind.update({a: 1 for a in part.small_agents})
            for allocation in iter_allocations(inst.n, inst.m):
                w = [
                    [
                        inst.utilities[i][allocation[j]] / inst.weights[j]
                        - inst.utilities[i][allocation[i]] / inst.weights[i]
                        for j in range(inst.n)
                    ]
                    for i in range(inst.n)
                ]
                has_cycle = not is_wefable(inst, allocation)
                has_cross_two_cycle = any(
                    w[i][j] + w[j][i] > 0
                    for i in range(inst.n)
                    for j in range(i + 1, inst.n)
                    if kind[i] != kind[j]
                )
                assert has_cycle == has_cross_two_cycle


class TestRepresentingGraph:
    def test_diagonal_binary(self):
        inst = make_instance([1, 2], [[1, 0], [0, 1]])
        graph = representing_graph(inst)
        assert graph.neighbors == ((0,), (1,))

    def test_epsilon_half(self):
        inst = make_instance([1, 1], [["1/2", 1], [1, "1/2"]])
        assert representing_graph(inst) == RepresentingGraph(((1,), (0,)))

    def test_all_ones(self):
        inst = make_instance([1, 1], [[1, 1], [1, 1]])
        graph = representing_graph(inst)
        assert graph.neighbors == ((0, 1), (0, 1))

    def test_rejects_rectangular(self):
        inst = make_instance([1], [[1, 0]])
        with pytest.raises(NotSquare):
            representing_graph(inst)

    def test_rejects_three_values(self):
        inst = make_instance([1, 1], [[0, 1], ["1/2", 1]])
        with pytest.raises(NotBivalued):
            representing_graph(inst)

    def test_three_values_message_shows_rationals(self):
        inst = make_instance([1, 1], [[0, 1], ["1/50", 1]])
        with pytest.raises(NotBivalued) as caught:
            representing_graph(inst)
        assert str(caught.value) == "more than two utility values: 0, 1/50, 1"

    def test_rejects_low_value_at_least_one(self):
        inst = make_instance([1, 1], [[2, 1], [1, 2]])
        with pytest.raises(NotBivalued):
            representing_graph(inst)


def brute_force_maximum_matchings(neighbors):
    n = len(neighbors)
    best = []
    best_size = -1
    for choices in itertools.product(*[list(r) + [None] for r in neighbors]):
        taken = [h for h in choices if h is not None]
        if len(set(taken)) != len(taken):
            continue
        size = len(taken)
        if size > best_size:
            best, best_size = [choices], size
        elif size == best_size:
            best.append(choices)
    return set(best)


def enumerate_maximum_matchings_recursive(graph, cap=None):
    """The recursive search `enumerate_maximum_matchings` replaces."""
    n = graph.n
    target = sum(1 for h in maximum_matching(graph.neighbors, n) if h is not None)
    remaining_cap = [cap if cap is not None else -1]

    def residual(agent, used):
        sub = [
            tuple(h for h in graph.neighbors[a] if h not in used)
            for a in range(agent, n)
        ]
        return sum(1 for h in maximum_matching(sub, n) if h is not None)

    def extend(agent, used, chosen, matched):
        if remaining_cap[0] == 0:
            return
        if agent == n:
            yield tuple(chosen)
            if remaining_cap[0] > 0:
                remaining_cap[0] -= 1
            return
        for house in graph.neighbors[agent]:
            if house in used:
                continue
            used.add(house)
            chosen.append(house)
            if matched + 1 + residual(agent + 1, used) >= target:
                yield from extend(agent + 1, used, chosen, matched + 1)
            chosen.pop()
            used.remove(house)
        chosen.append(None)
        if matched + residual(agent + 1, used) >= target:
            yield from extend(agent + 1, used, chosen, matched)
        chosen.pop()

    yield from extend(0, set(), [], 0)


@pytest.mark.parametrize(
    "solve, weights, utilities, error",
    [
        (solve_normalized_pair, [1, 1], [["1e4300", 0], [0, 1]], NotNormalized),
        (representing_graph, [1, 1], [["1e4300", 1], [1, "1e4300"]], NotBivalued),
        (representing_graph, [1, 1], [["1e4300", 0], [1, 1]], NotBivalued),
        (unweighted_efable, ["1e4300", "1"], [[1, 0], [0, 1]], NotUnweighted),
    ],
    ids=["normalized-sum", "bivalued-low-value", "bivalued-values", "unweighted-weights"],
)
def test_value_past_print_limit_keeps_its_error(solve, weights, utilities, error):
    with pytest.raises(error, match="4300-digit print limit"):
        solve(make_instance(weights, utilities))


class TestEnumerateMaximumMatchings:
    def test_complete_two_by_two(self):
        inst = make_instance([1, 1], [[1, 1], [1, 1]])
        found = list(enumerate_maximum_matchings(representing_graph(inst)))
        assert found == [(0, 1), (1, 0)]

    def test_star_shape(self):
        inst = make_instance([1, 1], [[1, 0], [1, 0]])
        found = list(enumerate_maximum_matchings(representing_graph(inst)))
        assert found == [(0, None), (None, 0)]

    def test_empty_edges(self):
        inst = make_instance([1, 1], [[0, 0], [0, 0]])
        found = list(enumerate_maximum_matchings(representing_graph(inst)))
        assert found == [(None, None)]

    def test_cap_truncates(self):
        inst = make_instance([1, 1, 1], [[1, 1, 1]] * 3)
        found = list(itertools.islice(enumerate_maximum_matchings(representing_graph(inst)), 4))
        assert len(found) == 4

    def test_complete_against_brute_force(self):
        for inst in random_instances(
            120, seed0=550, structure="bivalued", n_min=1, n_max=4, m_max=4
        ):
            graph = representing_graph(inst)
            found = list(enumerate_maximum_matchings(graph))
            assert len(found) == len(set(found))
            assert set(found) == brute_force_maximum_matchings(graph.neighbors)

    def test_same_order_as_recursive_search(self):
        for inst in random_instances(
            160, seed0=770, structure="bivalued", n_min=1, n_max=8, m_max=8
        ):
            graph = representing_graph(inst)
            assert list(enumerate_maximum_matchings(graph)) == list(
                enumerate_maximum_matchings_recursive(graph)
            )
            for cap in (0, 1, 3):
                assert list(itertools.islice(enumerate_maximum_matchings(graph), cap)) == list(
                    enumerate_maximum_matchings_recursive(graph, cap=cap)
                )

    def test_long_diagonal_needs_no_recursion(self):
        n = 1500
        graph = RepresentingGraph(tuple((i,) for i in range(n)))
        assert list(itertools.islice(enumerate_maximum_matchings(graph), 1)) == [tuple(range(n))]

    @pytest.mark.parametrize(
        "neighbors, read, matchings, calls",
        [
            ((tuple(range(4)),) * 4, None, 24, 106),
            (((0,),) * 5, None, 5, 21),
            (((),) * 3, None, 1, 4),
            ((), None, 1, 1),
            (tuple((i,) for i in range(1500)), 1, 1, 1501),
            ((tuple(range(4)),) * 4, 0, 0, 0),
        ],
        ids=["complete-4", "star-5", "no-edges-3", "no-agents", "diagonal-1500-first", "read-none"],
    )
    def test_one_residual_matching_per_tried_choice(
        self, monkeypatch, neighbors, read, matchings, calls
    ):
        # one target matching, then one per choice tried; cut branches are never tried
        counted = []

        def counting(rows, house_count):
            counted.append(len(rows))
            return maximum_matching(rows, house_count)

        monkeypatch.setattr("wefhouse.special.maximum_matching", counting)
        graph = RepresentingGraph(neighbors)
        found = list(itertools.islice(enumerate_maximum_matchings(graph), read))
        assert len(found) == matchings
        assert len(counted) == calls
        if not neighbors:
            assert found == [()]


class TestSolveBivalued:
    def test_diagonal_binary(self):
        inst = make_instance([1, 7], [[1, 0], [0, 1]])
        result = solve_bivalued(inst)
        assert result.status == "found"
        assert result.allocation == Allocation((0, 1))
        assert is_wefable(inst, result.allocation)
        assert all(p == 0 for p in min_subsidy(inst, result.allocation).payments)

    def test_binary_flat_pair_not_found(self):
        inst = make_instance([1, 2], [[0, 0], [1, 1]])
        result = solve_bivalued(inst)
        assert result.status == "not-found"
        assert oracle_wefable_exists(inst) is None

    def test_all_ones_equal_weights(self):
        inst = make_instance([1, 1], [[1, 1], [1, 1]])
        result = solve_bivalued(inst)
        assert result.status == "found"

    def test_cap_gives_inconclusive(self):
        inst = make_instance([1, 2], [[0, 0], [1, 1]])
        result = solve_bivalued(inst, candidate_cap=1)
        assert result.status == "inconclusive"
        assert result.candidates_checked == 1

    def test_single_agent(self):
        for value in (1, 0):
            inst = make_instance([3], [[value]])
            result = solve_bivalued(inst)
            assert result.status == "found"
            assert result.allocation == Allocation((0,))

    def test_agrees_with_oracle_on_sweep(self):
        for eps in (Fraction(0), Fraction(1, 2)):
            for inst in random_instances(
                80, seed0=700, structure="bivalued", n_min=1, n_max=4, epsilon=eps
            ):
                result = solve_bivalued(inst)
                reference = oracle_wefable_exists(inst)
                assert result.status != "inconclusive"
                assert (result.status == "found") == (reference is not None)
                if result.allocation is not None:
                    assert is_wefable(inst, result.allocation)


class TestSolveNormalizedPair:
    def test_opposed_preferences(self):
        inst = make_instance([1, 9], [["3/4", "1/4"], ["1/4", "3/4"]])
        assert solve_normalized_pair(inst) == Allocation((0, 1))

    def test_ties_take_lexicographic_first(self):
        inst = make_instance([1, 2], [["1/2", "1/2"], ["1/2", "1/2"]])
        assert solve_normalized_pair(inst) == Allocation((0, 1))

    def test_sweep_always_wefable(self):
        for inst in random_instances(
            150, seed0=820, structure="normalized", n_min=2, n_max=2, m_max=4
        ):
            allocation = solve_normalized_pair(inst)
            assert is_wefable(inst, allocation)

    def test_rejects_three_agents(self, hard_triple):
        with pytest.raises(NotTwoAgents):
            solve_normalized_pair(hard_triple)

    def test_rejects_unnormalized(self, diagonal_pair):
        with pytest.raises(NotNormalized):
            solve_normalized_pair(diagonal_pair)


class TestUnweightedEfable:
    def test_shared_favorite_pair(self, shared_favorite_pair):
        allocation = unweighted_efable(shared_favorite_pair)
        total = sum(
            shared_favorite_pair.utilities[i][allocation[i]] for i in range(2)
        )
        assert total == 1
        assert is_wefable(shared_favorite_pair, allocation)

    def test_diagonal_pair(self, diagonal_pair):
        assert unweighted_efable(diagonal_pair) == Allocation((0, 1))

    def test_rejects_unequal_weights(self, flat_pair):
        with pytest.raises(NotUnweighted):
            unweighted_efable(flat_pair)

    def test_unequal_weights_message_shows_rationals(self):
        inst = make_instance([1, "1/2"], [[1, 0], [0, 1]])
        with pytest.raises(NotUnweighted) as caught:
            unweighted_efable(inst)
        assert str(caught.value) == "weights are not all equal: 1, 1/2"

    def test_matches_brute_force_maximum(self):
        for inst in random_instances(120, seed0=860, weights="uniform:3:3"):
            allocation = unweighted_efable(inst)
            value = sum(inst.utilities[i][allocation[i]] for i in range(inst.n))
            best = max(
                sum(inst.utilities[i][a[i]] for i in range(inst.n))
                for a in iter_allocations(inst.n, inst.m)
            )
            assert value == best
            # deterministic tie-break: lexicographically smallest maximiser
            smallest = min(
                a.assignment
                for a in iter_allocations(inst.n, inst.m)
                if sum(inst.utilities[i][a[i]] for i in range(inst.n)) == best
            )
            assert allocation.assignment == smallest
            assert is_wefable(inst, allocation)


class TestMaxWeightAssignment:
    def test_matches_brute_force(self):
        for inst in random_instances(80, seed0=880, utilities="uniform:0:9"):
            values = [[int(v) for v in row] for row in inst.utilities]
            chosen = max_weight_assignment(values)
            assert len(set(chosen)) == inst.n
            total = sum(values[i][chosen[i]] for i in range(inst.n))
            best = max(
                sum(values[i][a[i]] for i in range(inst.n))
                for a in iter_allocations(inst.n, inst.m)
            )
            assert total == best
