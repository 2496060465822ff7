import time
from fractions import Fraction

import pytest

from wefhouse.errors import MatchingSaturating
from wefhouse.generator import GeneratorConfig, SplitMix64, generate_instance
from wefhouse.model import Allocation, is_wef_allocation, make_instance
from wefhouse.oracle import iter_allocations, oracle_wef_exists
from wefhouse.solver import (
    CandidateGraph,
    _check_shared_favourites,
    _Engine,
    minimal_hall_violator,
    n_saturating_matching,
    solve_wef,
    solve_wef_traced,
)

from conftest import planted_instance, random_instances
from reference_solver import (
    VirtualAssignment,
    VirtualAssignmentSet,
    build_candidate_graph,
    prune_dominated,
    solve_wef_reference,
    top_set,
    virtual_value,
)


def va(agent, house):
    return VirtualAssignment(agent, house)


class TestVirtualValue:
    def test_flat_pair_values(self, flat_pair):
        assert virtual_value(flat_pair, 1, va(0, 0)) == 1
        assert virtual_value(flat_pair, 1, va(1, 0)) == Fraction(1, 2)

    def test_zero_utility(self):
        inst = make_instance([1, 7], [[0, 1], [1, 1]])
        assert virtual_value(inst, 0, va(0, 0)) == 0
        assert virtual_value(inst, 0, va(1, 0)) == 0

    def test_equal_weights_constant_owner(self, diagonal_pair):
        for h in range(2):
            assert virtual_value(diagonal_pair, 0, va(0, h)) == virtual_value(
                diagonal_pair, 0, va(1, h)
            )


class TestTopSet:
    def test_flat_identical_pair(self, flat_identical_pair):
        pool = VirtualAssignmentSet.full(2, 2)
        assert top_set(flat_identical_pair, 1, pool) == {va(0, 0), va(0, 1)}

    def test_all_ties_single_agent(self):
        inst = make_instance([2], [[1, 1, 1]])
        pool = VirtualAssignmentSet.full(1, 3)
        assert top_set(inst, 0, pool) == {va(0, 0), va(0, 1), va(0, 2)}

    def test_shared_favorite(self, shared_favorite_pair):
        pool = VirtualAssignmentSet.full(2, 2)
        assert top_set(shared_favorite_pair, 0, pool) == {va(0, 0), va(1, 0)}

    def test_empty_pool_raises(self, diagonal_pair):
        pool = VirtualAssignmentSet(2, 2)
        with pytest.raises(ValueError):
            top_set(diagonal_pair, 0, pool)


class TestPruneDominated:
    def test_flat_identical_pair_removal_order(self, flat_identical_pair):
        pool = VirtualAssignmentSet.full(2, 2)
        snapshots = []
        prune_dominated(
            flat_identical_pair,
            pool,
            on_remove=lambda p: snapshots.append(set(p.pairs())),
        )
        assert pool.size == 0
        # the heavy agent first bans the light agent's row, then starves itself
        assert snapshots[0] == {va(1, 0), va(1, 1)}
        assert snapshots[1] == set()

    def test_diagonal_pair_untouched(self, diagonal_pair):
        pool = VirtualAssignmentSet.full(2, 2)
        prune_dominated(diagonal_pair, pool)
        assert pool.size == 4

    def test_single_agent_never_triggers(self):
        inst = make_instance([3], [[5, 0, 2]])
        pool = VirtualAssignmentSet.full(1, 3)
        prune_dominated(inst, pool)
        assert pool.size == 3


class TestMatching:
    def test_unique_perfect_matching(self):
        graph = CandidateGraph(((0,), (1,)), 2)
        allocation, matching = n_saturating_matching(graph)
        assert allocation == Allocation((0, 1))
        assert matching == [0, 1]

    def test_contended_house(self):
        graph = CandidateGraph(((0,), (0,)), 2)
        allocation, matching = n_saturating_matching(graph)
        assert allocation is None
        assert matching == [0, None]

    def test_no_agents(self):
        allocation, matching = n_saturating_matching(CandidateGraph((), 0))
        assert allocation == Allocation(())
        assert matching == []


class TestMinimalHallViolator:
    def test_contended_house(self):
        graph = CandidateGraph(((0,), (0,)), 2)
        _, matching = n_saturating_matching(graph)
        violator = minimal_hall_violator(graph, matching)
        assert violator.agents == frozenset({0, 1})
        assert violator.houses == frozenset({0})

    def test_star_does_not_drag_in_everyone(self):
        graph = CandidateGraph(((0,), (0,), (0,)), 3)
        _, matching = n_saturating_matching(graph)
        violator = minimal_hall_violator(graph, matching)
        assert violator.agents == frozenset({0, 1})
        assert violator.houses == frozenset({0})

    def test_isolated_agent(self):
        graph = CandidateGraph(((), (0,)), 2)
        _, matching = n_saturating_matching(graph)
        violator = minimal_hall_violator(graph, matching)
        assert violator.agents == frozenset({0})
        assert violator.houses == frozenset()

    def test_contested_house_from_instance(self, shared_favorite_pair):
        # both agents' only favourite is the first house; pruning leaves the
        # pool alone and the violator covers both agents
        pool = VirtualAssignmentSet.full(2, 2)
        prune_dominated(shared_favorite_pair, pool)
        assert pool.size == 4
        graph = build_candidate_graph(shared_favorite_pair, pool)
        assert graph.neighbors == ((0,), (0,))
        allocation, matching = n_saturating_matching(graph)
        assert allocation is None
        violator = minimal_hall_violator(graph, matching)
        assert violator.agents == frozenset({0, 1})
        assert violator.houses == frozenset({0})

    def test_saturating_matching_rejected(self):
        graph = CandidateGraph(((0,), (1,)), 2)
        _, matching = n_saturating_matching(graph)
        with pytest.raises(MatchingSaturating):
            minimal_hall_violator(graph, matching)

    def test_violation_holds_on_random_candidate_graphs(self):
        for inst in random_instances(80, seed0=50, n_min=2):
            pool = VirtualAssignmentSet.full(inst.n, inst.m)
            prune_dominated(inst, pool)
            if pool.size < inst.n:
                continue
            graph = build_candidate_graph(inst, pool)
            allocation, matching = n_saturating_matching(graph)
            if allocation is not None:
                continue
            violator = minimal_hall_violator(graph, matching)
            neighborhood = {
                h for a in violator.agents for h in graph.neighbors[a]
            }
            assert neighborhood == set(violator.houses)
            assert len(violator.agents) == len(violator.houses) + 1


class TestSolveWef:
    def test_flat_pair_has_no_wef(self, flat_pair):
        assert solve_wef(flat_pair) is None

    def test_diagonal_pair(self, diagonal_pair):
        assert solve_wef(diagonal_pair) == Allocation((0, 1))

    def test_flat_identical_pair_has_no_wef(self, flat_identical_pair):
        assert solve_wef(flat_identical_pair) is None

    def test_heavy_agent_can_take_the_contested_house(self):
        inst = make_instance([1, 2], [[1, 1], [4, 1]])
        allocation = solve_wef(inst)
        assert allocation == Allocation((1, 0))
        assert is_wef_allocation(inst, allocation)

    def test_stats_counters(self, flat_pair):
        allocation, stats = solve_wef_traced(flat_pair)
        assert allocation is None
        assert stats.prune_steps >= 1
        assert stats.rounds >= 1

    def test_all_zero_utilities_any_matching_works(self):
        inst = make_instance([1, 2], [[0, 0], [0, 0]])
        allocation = solve_wef(inst)
        assert allocation is not None
        assert is_wef_allocation(inst, allocation)


def _generated(n, m, seed, weights, utilities):
    return generate_instance(
        GeneratorConfig(n=n, m=m, seed=seed, weights=weights, utilities=utilities)
    )


class TestSearchPath:
    """Pin the decision and the counters, so that a change to the order in
    which the search prunes or removes violators shows up here."""

    @pytest.mark.parametrize(
        "make, found, rounds, prune_steps, violators",
        [
            (lambda: _generated(40, 52, 3, "uniform:1:1", "uniform:0:1000"), False, 50, 50, 50),
            (lambda: _generated(30, 60, 4, "uniform:1:1", "uniform:0:100"), False, 48, 52, 48),
            (lambda: _generated(60, 120, 5, "uniform:1:10", "uniform:0:100"), False, 1, 261, 0),
            (lambda: planted_instance(SplitMix64(7), 60, 120), True, 2, 285, 1),
            (lambda: planted_instance(SplitMix64(8), 60, 120), True, 1, 319, 0),
            # agent 1's row empties after one step, which ends the search
            (lambda: make_instance([2, 1], [[1, 1], [1, 3]]), False, 1, 1, 0),
        ],
        ids=["equal-1000", "equal-100", "weighted", "planted-7", "planted-8", "early-stop"],
    )
    def test_counters(self, make, found, rounds, prune_steps, violators):
        allocation, stats = solve_wef_traced(make())
        assert (allocation is not None) == found
        assert (stats.rounds, stats.prune_steps, stats.violators_removed) == (
            rounds, prune_steps, violators
        )

    @pytest.mark.parametrize(
        "n, prune_steps", [(100, 473), (200, 917)], ids=["100x200", "200x400"]
    )
    def test_found_path_scaling(self, n, prune_steps):
        inst = planted_instance(SplitMix64(42), n, 2 * n)
        start = time.perf_counter()
        allocation, stats = solve_wef_traced(inst)
        elapsed = time.perf_counter() - start
        assert is_wef_allocation(inst, allocation)
        assert (stats.rounds, stats.prune_steps, stats.violators_removed) == (
            1, prune_steps, 0
        )
        assert elapsed < 10.0


@pytest.mark.skipif(not __debug__, reason="the invariant is an assert")
class TestSharedFavouritesInvariant:
    def test_shared_house_valued_by_two_weights(self):
        inst = make_instance([1, 2], [[1, 0], [1, 0]])
        graph = CandidateGraph(((0,), (0,)), 2)
        with pytest.raises(AssertionError):
            _check_shared_favourites(_Engine(inst), graph)

    def test_empty_row(self, diagonal_pair):
        graph = CandidateGraph(((0,), ()), 2)
        with pytest.raises(AssertionError):
            _check_shared_favourites(_Engine(diagonal_pair), graph)


class TestAgainstOracle:
    def test_decision_and_quality(self):
        for inst in random_instances(400, seed0=8000):
            allocation = solve_wef(inst)
            reference = oracle_wef_exists(inst)
            assert (allocation is None) == (reference is None)
            if allocation is None:
                continue
            assert is_wef_allocation(inst, allocation)
            for other in iter_allocations(inst.n, inst.m):
                if not is_wef_allocation(inst, other):
                    continue
                dominates = all(
                    inst.utilities[i][other[i]] >= inst.utilities[i][allocation[i]]
                    for i in range(inst.n)
                ) and any(
                    inst.utilities[i][other[i]] > inst.utilities[i][allocation[i]]
                    for i in range(inst.n)
                )
                assert not dominates

    def test_engine_matches_reference_exactly(self):
        for inst in random_instances(300, seed0=12000):
            assert solve_wef(inst) == solve_wef_reference(inst)
        for inst in random_instances(
            100, seed0=13000, weights="uniform:1:1", utilities="uniform:0:2"
        ):
            assert solve_wef(inst) == solve_wef_reference(inst)

    def test_engine_matches_reference_medium_sizes(self):
        for n, m, seed in [(8, 10, 1), (12, 14, 2), (12, 12, 3), (10, 16, 4)]:
            for weights in ("uniform:1:1", "uniform:1:2", "uniform:1:6"):
                inst = generate_instance(
                    GeneratorConfig(
                        n=n, m=m, seed=seed, weights=weights, utilities="uniform:0:8"
                    )
                )
                assert solve_wef(inst) == solve_wef_reference(inst)

    def test_unweighted_reduction(self):
        for inst in random_instances(150, seed0=14000, weights="uniform:2:2"):
            allocation = solve_wef(inst)
            reference = oracle_wef_exists(inst)
            assert (allocation is None) == (reference is None)

    def test_wef_allocations_survive_every_stage(self):
        # nothing the search discards can belong to any envy-free allocation
        for inst in random_instances(150, seed0=16000):
            survivors = [
                a
                for a in iter_allocations(inst.n, inst.m)
                if is_wef_allocation(inst, a)
            ]
            if not survivors:
                continue
            stages = []
            solve_wef_reference(
                inst, on_remove=lambda p: stages.append([set(r) for r in p._rows])
            )
            for rows in stages:
                for allocation in survivors:
                    assert all(
                        allocation[i] in rows[i] for i in range(inst.n)
                    )


def _scanned_best(engine, viewer):
    """The viewer's first best (house, column minimum), scanned afresh."""
    ratios = {
        h: Fraction(engine.U[viewer][h], den)
        for h, den in enumerate(engine.col_min)
        if den is not None
    }
    house = max(ratios, key=ratios.__getitem__)
    return house, engine.col_min[house]


class TestCacheRule:
    """A viewer's cached best is trusted while its witness column's minimum
    still equals the stored one; it must then equal a fresh scan."""

    def test_trusted_cache_equals_scan(self):
        instances = random_instances(40, seed0=9100, n_max=6, m_max=8, weights="uniform:1:6")
        instances.append(planted_instance(SplitMix64(7), 60, 120))
        steps = 0
        for inst in instances:
            engine = _Engine(inst)
            while None not in engine.own_best:
                viewer = engine.first_triggered()
                for v in range(inst.n):
                    if engine.col_min[engine.witness[v]] == engine.best_den[v]:
                        assert (engine.witness[v], engine.best_den[v]) == _scanned_best(engine, v)
                if viewer is not None:
                    engine.remove_pairs(engine.top_pairs(viewer))
                    steps += 1
                    continue
                graph = CandidateGraph(engine.candidate_rows(), inst.m)
                allocation, matching = n_saturating_matching(graph)
                if allocation is not None:
                    break
                violator = minimal_hall_violator(graph, matching)
                engine.remove_pairs([(a, h) for a in violator.agents for h in graph.neighbors[a]])
        assert steps > 100
