from fractions import Fraction

import pytest

from wefhouse.envy import is_wefable
from wefhouse.errors import (
    DimensionMismatch,
    InvalidAllocation,
    MalformedInstance,
    MalformedNumber,
    NegativeSubsidy,
    NegativeUtility,
    NonPositiveWeight,
    TooFewHouses,
    WefHouseError,
)
from wefhouse.model import (
    Allocation,
    Outcome,
    SubsidyVector,
    check_allocation,
    format_rational,
    is_wef_allocation,
    is_wef_outcome,
    make_instance,
    parse_allocation,
    parse_instance,
    parse_rational,
    scaled_integers,
    serialize_instance,
    validate_instance,
)
from wefhouse.oracle import iter_allocations

from conftest import random_instances


class TestParseRational:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1/2", Fraction(1, 2)),
            ("0.5", Fraction(1, 2)),
            (3, Fraction(3)),
            ("7", Fraction(7)),
            (" 2/6 ", Fraction(1, 3)),
            ("-3/4", Fraction(-3, 4)),
            (" 7 ", Fraction(7)),
            (".5", Fraction(1, 2)),
            ("1.", Fraction(1)),
            ("+1/2", Fraction(1, 2)),
            ("1.5e-3", Fraction(3, 2000)),
        ],
    )
    def test_valid(self, raw, expected):
        assert parse_rational(raw) == expected

    @pytest.mark.parametrize("raw", ["abc", "1/0", "", True, 0.5, None, [1]])
    def test_malformed(self, raw):
        with pytest.raises(MalformedNumber):
            parse_rational(raw)

    @pytest.mark.parametrize("raw", ["1e4301", "1e-4301", "1E+4301", " 2.5e-4301 "])
    def test_exponent_past_cap(self, raw):
        with pytest.raises(MalformedNumber, match="exponent beyond 4300"):
            parse_rational(raw)

    @pytest.mark.parametrize("raw", ["1_000", "1_0/3", "1.5_0", "1e1_0", " 1 / 2 ", "1 /2"])
    def test_grammar_added_after_python_3_10_rejected(self, raw):
        # Fraction reads these on some supported Pythons only
        message = f"cannot parse rational from {raw!r}"
        with pytest.raises(MalformedNumber) as caught:
            parse_rational(raw)
        assert str(caught.value) == message
        with pytest.raises(MalformedNumber) as caught:
            make_instance([raw], [[1]])
        assert str(caught.value) == message

    def test_exponent_at_cap(self):
        assert parse_rational("1e4300") == 10**4300
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)

    def test_format_roundtrip(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(3)) == "3"
        assert parse_rational(format_rational(Fraction(-15, 4))) == Fraction(-15, 4)


class TestValidateInstance:
    def test_flat_pair_shape(self):
        inst = validate_instance(
            {"weights": [1, 2], "utilities": [["1/2", "1/2"], ["1", "1"]]}
        )
        assert inst.n == 2 and inst.m == 2
        assert inst.weights == (Fraction(1), Fraction(2))
        assert inst.utilities[0] == (Fraction(1, 2), Fraction(1, 2))

    def test_minimal_instance(self):
        inst = validate_instance({"weights": [1], "utilities": [[0]]})
        assert inst.n == inst.m == 1

    def test_too_few_houses(self):
        with pytest.raises(TooFewHouses):
            validate_instance({"weights": [1, 1], "utilities": [[1], [1]]})

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            validate_instance({"weights": [0, 1], "utilities": [[1, 1], [1, 1]]})
        with pytest.raises(NonPositiveWeight):
            validate_instance({"weights": ["-1/2", 1], "utilities": [[1, 1], [1, 1]]})

    def test_negative_utility(self):
        with pytest.raises(NegativeUtility):
            validate_instance({"weights": [1], "utilities": [["-1/3"]]})

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            validate_instance({"weights": [1, 1], "utilities": [[1, 1], [1]]})

    def test_wrong_row_count(self):
        with pytest.raises(DimensionMismatch):
            validate_instance({"weights": [1, 1], "utilities": [[1, 1]]})

    def test_malformed_number(self):
        with pytest.raises(MalformedNumber):
            validate_instance({"weights": ["x"], "utilities": [[1]]})

    def test_missing_fields(self):
        with pytest.raises(MalformedInstance):
            validate_instance({"weights": [1]})
        with pytest.raises(MalformedInstance):
            validate_instance({"weights": [1], "utilities": "nope"})

    def test_label_length_checked(self):
        with pytest.raises(DimensionMismatch):
            validate_instance(
                {"weights": [1], "utilities": [[1]], "agent_labels": ["a", "b"]}
            )

    @pytest.mark.parametrize(
        "field,labels", [("agent_labels", "ab"), ("house_labels", {"x": 1, "y": 2})]
    )
    def test_labels_must_be_lists(self, field, labels):
        raw = {"weights": [1, 1], "utilities": [[1, 2], [2, 1]], field: labels}
        with pytest.raises(MalformedInstance):
            validate_instance(raw)


class TestMakeInstanceShapes:
    """Strings and bytes are scalars, never lists of characters or byte values."""

    @pytest.mark.parametrize(
        "weights,utilities,message",
        [
            ([1], ["12"], "'utilities' must be a list of lists"),
            ("12", [[1, 2], [3, 4]], "'weights' must be a list"),
            ([1], [b"12"], "'utilities' must be a list of lists"),
            (b"12", [[1, 2], [3, 4]], "'weights' must be a list"),
            ([1], "12", "'utilities' must be a list of lists"),
        ],
        ids=["str-row", "str-weights", "bytes-row", "bytes-weights", "str-utilities"],
    )
    def test_string_or_bytes_is_not_a_list(self, weights, utilities, message):
        with pytest.raises(MalformedInstance, match=message):
            make_instance(weights, utilities)

    @pytest.mark.parametrize("field", ["agent_labels", "house_labels"])
    @pytest.mark.parametrize("labels", ["ab", b"ab"], ids=["str", "bytes"])
    def test_labels_string_or_bytes_is_not_a_list(self, field, labels):
        with pytest.raises(MalformedInstance, match=f"'{field}' must be a list"):
            make_instance([1, 1], [[1, 2], [2, 1]], **{field: labels})

    def test_bytes_rows_rejected_through_validate(self):
        with pytest.raises(MalformedInstance, match="'utilities' must be a list of lists"):
            validate_instance({"weights": [1], "utilities": [b"12"]})

    def test_tuples_still_accepted(self):
        inst = make_instance((1, 2), ((1, 2), (3, 4)), ("x", "y"), ("p", "q"))
        assert inst.agent_labels == ("x", "y") and inst.house_labels == ("p", "q")


class TestContainers:
    def test_allocation_rejects_repeats(self):
        with pytest.raises(InvalidAllocation):
            Allocation((0, 0))

    def test_allocation_rejects_bad_entries(self):
        with pytest.raises(InvalidAllocation):
            Allocation((0, -1))
        with pytest.raises(InvalidAllocation):
            Allocation((0, "1"))

    def test_subsidy_rejects_negative(self):
        with pytest.raises(NegativeSubsidy):
            SubsidyVector((Fraction(-1, 2),))

    def test_outcome_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Outcome(Allocation((0, 1)), SubsidyVector((Fraction(0),)))

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: make_instance(["-1e4300", "1"], [[1, 0], [0, 1]]), NonPositiveWeight),
            (lambda: make_instance(["1"], [["-1e4300"]]), NegativeUtility),
            (lambda: SubsidyVector((Fraction(-10**4400),)), NegativeSubsidy),
            (lambda: Allocation((-10**4400,)), InvalidAllocation),
            (lambda: Allocation((10**4400, 10**4400)), InvalidAllocation),
            (lambda: check_allocation(make_instance([1], [[1]]), Allocation((10**4400,))),
             InvalidAllocation),
        ],
        ids=["weight", "utility", "payment", "house", "repeated-house", "house-range"],
    )
    def test_invalid_number_past_print_limit_keeps_its_error(self, build, error):
        with pytest.raises(error, match="4300-digit print limit"):
            build()


class TestWefAllocation:
    def test_flat_pair_is_envious(self, flat_pair):
        # the heavy agent holds value 1/2 per unit weight but sees 1 at the other
        assert not is_wef_allocation(flat_pair, Allocation((0, 1)))
        assert not is_wef_allocation(flat_pair, Allocation((1, 0)))

    def test_unique_favorites(self, diagonal_pair):
        assert is_wef_allocation(diagonal_pair, Allocation((0, 1)))
        assert not is_wef_allocation(diagonal_pair, Allocation((1, 0)))

    def test_single_agent(self):
        inst = make_instance([5], [[0, 7]])
        assert is_wef_allocation(inst, Allocation((0,)))
        assert is_wef_allocation(inst, Allocation((1,)))

    def test_wrong_length_raises(self, diagonal_pair):
        with pytest.raises(InvalidAllocation):
            is_wef_allocation(diagonal_pair, Allocation((0,)))

    def test_out_of_range_raises(self, diagonal_pair):
        with pytest.raises(InvalidAllocation):
            is_wef_allocation(diagonal_pair, Allocation((0, 2)))


class TestWefOutcome:
    def test_identical_pair_with_payments(self, identical_pair):
        outcome = Outcome(
            Allocation((0, 1)), SubsidyVector((Fraction(0), Fraction(15)))
        )
        assert is_wef_outcome(identical_pair, outcome)

    def test_flat_pair_zero_payments(self, flat_pair):
        outcome = Outcome(Allocation((0, 1)), SubsidyVector.zero(2))
        assert not is_wef_outcome(flat_pair, outcome)

    def test_zero_subsidy_matches_plain_check(self):
        for inst in random_instances(120, seed0=900):
            for allocation in iter_allocations(inst.n, inst.m):
                plain = is_wef_allocation(inst, allocation)
                lifted = is_wef_outcome(
                    inst, Outcome(allocation, SubsidyVector.zero(inst.n))
                )
                assert plain == lifted
                break  # one allocation per instance keeps this cheap


class TestSerialization:
    def test_canonical_fields(self, flat_pair):
        import json

        data = json.loads(serialize_instance(flat_pair))
        assert data["weights"] == ["1", "2"]
        assert data["utilities"] == [["1/2", "1/2"], ["1", "1"]]
        assert data["agent_labels"] == ["a1", "a2"]

    def test_round_trip_hard_triple(self, hard_triple):
        assert parse_instance(serialize_instance(hard_triple)) == hard_triple

    def test_round_trip_random(self):
        for inst in random_instances(200, seed0=4000, utilities="uniform:0:9"):
            assert parse_instance(serialize_instance(inst)) == inst

    def test_integers_accepted_on_input(self):
        inst = parse_instance('{"weights": [2], "utilities": [[3, 4]]}')
        assert inst.weights == (Fraction(2),)

    @pytest.mark.parametrize("parse", [parse_instance, parse_allocation])
    def test_deep_nesting_is_malformed(self, parse):
        with pytest.raises(MalformedInstance, match="nested too deeply"):
            parse("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("weight", ["1e4300", "1e-4300"])
    def test_accepted_instance_past_print_limit_not_serialised(self, weight):
        # the parser accepts exponents up to 4300, but 10**4300 has 4301 digits
        inst = make_instance(["1", weight], [[1, 0], [0, 1]])
        with pytest.raises(WefHouseError, match="4300-digit print limit"):
            serialize_instance(inst)

    @pytest.mark.parametrize("value", [Fraction(10**4300), Fraction(1, 10**4300)])
    def test_too_long_to_print(self, value):
        with pytest.raises(WefHouseError, match="4300-digit print limit"):
            format_rational(value)


class TestScaleInvariance:
    def test_scaled_integers_clear_each_side_separately(self):
        inst = make_instance(["1/2", "3/4"], [["1/3", 1], [0, "2/3"]])
        assert scaled_integers(inst) == ([[1, 3], [0, 2]], [2, 3])

    def test_common_scaling_preserves_wef(self):
        factor = Fraction(3, 7)
        for inst in random_instances(60, seed0=77):
            scaled = make_instance(
                inst.weights,
                [[v * factor for v in row] for row in inst.utilities],
            )
            for allocation in iter_allocations(inst.n, inst.m):
                assert is_wef_allocation(inst, allocation) == is_wef_allocation(
                    scaled, allocation
                )

    def test_single_agent_scaling_changes_wefability(self, flat_pair):
        # doubling only the light agent's utilities makes the pair identical,
        # which admits subsidised envy-freeness although the original did not
        rescaled = make_instance(
            flat_pair.weights,
            [[v * 2 for v in flat_pair.utilities[0]], list(flat_pair.utilities[1])],
        )
        assert not any(
            is_wefable(flat_pair, Allocation(a)) for a in [(0, 1), (1, 0)]
        )
        assert all(is_wefable(rescaled, Allocation(a)) for a in [(0, 1), (1, 0)])
