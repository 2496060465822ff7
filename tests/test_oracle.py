import math
from fractions import Fraction
from pathlib import Path

import pytest

from wefhouse.errors import CapExceeded
from wefhouse.model import Allocation, SubsidyVector, make_instance
from wefhouse.oracle import (
    count_allocations,
    iter_allocations,
    oracle_permutation_resistant,
    oracle_wef_exists,
    oracle_wefable_exists,
    verify_min_subsidy,
)

from conftest import random_instances


class TestAllocationIterator:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 4), (4, 6)])
    def test_count_and_order(self, n, m):
        allocations = list(iter_allocations(n, m))
        expected = math.factorial(m) // math.factorial(m - n)
        assert count_allocations(n, m) == expected
        assert len(allocations) == expected
        tuples = [a.assignment for a in allocations]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)


class TestWefExists:
    def test_flat_pair(self, flat_pair):
        assert oracle_wef_exists(flat_pair) is None

    def test_diagonal_pair(self, diagonal_pair):
        assert oracle_wef_exists(diagonal_pair) == Allocation((0, 1))

    def test_hard_triple(self, hard_triple):
        assert oracle_wef_exists(hard_triple) is None

    def test_cap(self):
        inst = make_instance([1] * 4, [[1] * 8] * 4)
        with pytest.raises(CapExceeded):
            oracle_wef_exists(inst, cap=100)


class TestPermutationResistant:
    def test_flat_pair_swap_wins(self, flat_pair):
        assert not oracle_permutation_resistant(flat_pair, Allocation((0, 1)))

    def test_single_agent(self):
        inst = make_instance([3], [[2]])
        assert oracle_permutation_resistant(inst, Allocation((0,)))

    def test_identical_pair(self, identical_pair):
        assert oracle_permutation_resistant(identical_pair, Allocation((0, 1)))

    def test_cap(self):
        inst = make_instance([1] * 8, [[1] * 8] * 8)
        with pytest.raises(CapExceeded):
            oracle_permutation_resistant(inst, Allocation(tuple(range(8))))


class TestWefableExists:
    def test_flat_pair(self, flat_pair):
        assert oracle_wefable_exists(flat_pair) is None

    def test_flat_identical_pair(self, flat_identical_pair):
        assert oracle_wefable_exists(flat_identical_pair) is not None

    def test_hard_triple(self, hard_triple):
        assert oracle_wefable_exists(hard_triple) is None

    def test_cap(self):
        inst = make_instance([1] * 4, [[1] * 8] * 4)
        with pytest.raises(CapExceeded):
            oracle_wefable_exists(inst, cap=100)

    def test_permutation_cap(self):
        inst = make_instance([1] * 8, [[1] * 8] * 8)
        with pytest.raises(CapExceeded):
            oracle_wefable_exists(inst)

    def test_agrees_with_envy_graph_route(self):
        from wefhouse.envy import is_wefable

        for inst in random_instances(120, seed0=5200):
            by_oracle = oracle_wefable_exists(inst) is not None
            by_graph = any(
                is_wefable(inst, a) for a in iter_allocations(inst.n, inst.m)
            )
            assert by_oracle == by_graph


class TestVerifyMinSubsidy:
    def test_exact_payments_pass(self, identical_pair):
        assert verify_min_subsidy(
            identical_pair,
            Allocation((0, 1)),
            SubsidyVector((Fraction(0), Fraction(15))),
            Fraction(1, 100),
        )

    def test_loose_payments_fail(self, identical_pair):
        assert not verify_min_subsidy(
            identical_pair,
            Allocation((0, 1)),
            SubsidyVector((Fraction(0), Fraction(16))),
            Fraction(1, 2),
        )

    def test_zero_vector_on_wef_allocation(self, diagonal_pair):
        assert verify_min_subsidy(
            diagonal_pair, Allocation((0, 1)), SubsidyVector.zero(2), Fraction(1, 10)
        )

    def test_non_wef_outcome_fails(self, flat_pair):
        assert not verify_min_subsidy(
            flat_pair, Allocation((0, 1)), SubsidyVector.zero(2), Fraction(1)
        )

    def test_rejects_nonpositive_probe(self, diagonal_pair):
        with pytest.raises(ValueError):
            verify_min_subsidy(
                diagonal_pair, Allocation((0, 1)), SubsidyVector.zero(2), Fraction(0)
            )


def test_oracle_module_is_definitionally_independent():
    # agreement with the solvers is only evidence if the oracle never uses them
    import ast

    source = (Path(__file__).parent.parent / "src" / "wefhouse" / "oracle.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not imported & {".solver", "solver", ".envy", "envy", ".special", "special", ".bipartite", "bipartite"}
