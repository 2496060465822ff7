"""Exact data model for weighted house allocation problems.

Every number in the system is a `fractions.Fraction`, so the fairness
predicates below are decided exactly, with no rounding anywhere.  All
containers are immutable after construction and safe to share between
threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import (
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


MAX_EXPONENT = 4300  # largest decimal exponent accepted: CPython's int_max_str_digits


def parse_rational(value) -> Fraction:
    """Parse an int, a Fraction, or a "p/q" / decimal string, exactly."""
    if isinstance(value, bool):
        raise MalformedNumber(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    # Fraction reads "_" digit groups from 3.11 on and spaces around "/" from
    # 3.12 on: rejecting both keeps 3.10's grammar on every version
    if isinstance(value, str) and "_" not in value and len(value.split()) == 1:
        text = value.strip()
        exponent = text.lower().partition("e")[2] if "e" in text or "E" in text else ""
        try:
            if exponent and abs(int(exponent)) > MAX_EXPONENT:
                raise MalformedNumber(f"exponent beyond {MAX_EXPONENT} in magnitude in {value!r}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedNumber(f"cannot parse rational from {value!r}") from exc
    raise MalformedNumber(f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q"; the inverse of parse_rational."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # CPython's int_max_str_digits
        raise WefHouseError(f"result too long to print: beyond the {MAX_EXPONENT}-digit print limit") from exc


def shown(value) -> str:
    """A value as error messages show it, never raising.

    A Fraction reads as format_rational writes it, anything else as its
    repr, and a number too long to print as a note saying so.
    """
    try:
        return str(value) if isinstance(value, Fraction) else repr(value)
    except ValueError:  # CPython's int_max_str_digits
        return f"<a number past the {MAX_EXPONENT}-digit print limit>"


@dataclass(frozen=True)
class Instance:
    """A weighted house allocation problem.

    ``weights[i]`` is agent i's positive entitlement and
    ``utilities[i][h]`` its non-negative value for house h.  There are
    at least as many houses as agents.  Labels are display-only; all
    behaviour is driven by indices.
    """

    weights: tuple[Fraction, ...]
    utilities: tuple[tuple[Fraction, ...], ...]
    agent_labels: tuple[str, ...]
    house_labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.utilities[0]) if self.utilities else 0


def clear_denominators(table: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The table times its least common denominator, and that denominator.

    Entry (i, j) of the integer table equals table[i][j] * den exactly, so
    sums and comparisons come out as they do on the exact values.
    """
    den = lcm(*(v.denominator for row in table for v in row), 1)
    return [[v.numerator * (den // v.denominator) for v in row] for row in table], den


def scaled_integers(inst: Instance) -> tuple[list[list[int]], list[int]]:
    """The instance with denominators cleared: (utilities, weights) as ints.

    Utilities are all scaled by one common positive factor and weights by
    another, so any comparison within utilities, within weights, or of
    utility/weight ratios comes out as it does on the exact values.
    """
    utilities, _ = clear_denominators(inst.utilities)
    (weights,), _ = clear_denominators((inst.weights,))
    return utilities, weights


@dataclass(frozen=True)
class Allocation:
    """An injective assignment of one house index per agent."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        for house in self.assignment:
            if isinstance(house, bool) or not isinstance(house, int) or house < 0:
                raise InvalidAllocation(f"house index must be a non-negative int: {shown(house)}")
        if len(set(self.assignment)) != len(self.assignment):
            raise InvalidAllocation(f"repeated house in assignment {shown(self.assignment)}")

    def __len__(self) -> int:
        return len(self.assignment)

    def __getitem__(self, agent: int) -> int:
        return self.assignment[agent]


@dataclass(frozen=True)
class SubsidyVector:
    """Non-negative payment per agent."""

    payments: tuple[Fraction, ...]

    def __post_init__(self):
        for p in self.payments:
            if p < 0:
                raise NegativeSubsidy(f"negative payment {shown(p)}")

    def __len__(self) -> int:
        return len(self.payments)

    def __getitem__(self, agent: int) -> Fraction:
        return self.payments[agent]

    @classmethod
    def zero(cls, n: int) -> "SubsidyVector":
        return cls((Fraction(0),) * n)


@dataclass(frozen=True)
class Outcome:
    """An allocation together with its subsidy vector."""

    allocation: Allocation
    subsidy: SubsidyVector

    def __post_init__(self):
        if len(self.subsidy) != len(self.allocation):
            raise DimensionMismatch(
                f"{len(self.subsidy)} payments for {len(self.allocation)} agents"
            )


def _is_list(value) -> bool:
    """A sequence of items; strings and bytes are read as scalars, not lists."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray))


def make_instance(
    weights: Sequence,
    utilities: Sequence[Sequence],
    agent_labels: Sequence[str] | None = None,
    house_labels: Sequence[str] | None = None,
) -> Instance:
    """Build and validate an Instance from loosely typed values."""
    if not _is_list(weights):
        raise MalformedInstance("'weights' must be a list")
    if not _is_list(utilities) or not all(_is_list(row) for row in utilities):
        raise MalformedInstance("'utilities' must be a list of lists")
    for field, value in (("agent_labels", agent_labels), ("house_labels", house_labels)):
        if value is not None and not _is_list(value):
            raise MalformedInstance(f"{field!r} must be a list")
    parsed_weights = tuple(parse_rational(w) for w in weights)
    n = len(parsed_weights)
    if n == 0:
        raise MalformedInstance("an instance needs at least one agent")
    if len(utilities) != n:
        raise DimensionMismatch(f"{len(utilities)} utility rows for {n} agents")
    rows = tuple(tuple(parse_rational(v) for v in row) for row in utilities)
    m = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != m:
            raise DimensionMismatch(f"utility row {i} has {len(row)} entries, expected {m}")
    if m < n:
        raise TooFewHouses(f"{m} houses for {n} agents")
    for i, w in enumerate(parsed_weights):
        if w <= 0:
            raise NonPositiveWeight(f"agent {i} has weight {shown(w)}")
    for i, row in enumerate(rows):
        for h, v in enumerate(row):
            if v < 0:
                raise NegativeUtility(f"agent {i} values house {h} at {shown(v)}")
    if agent_labels is None:
        agent_labels = tuple(f"a{i + 1}" for i in range(n))
    else:
        agent_labels = tuple(str(lbl) for lbl in agent_labels)
        if len(agent_labels) != n:
            raise DimensionMismatch(f"{len(agent_labels)} agent labels for {n} agents")
    if house_labels is None:
        house_labels = tuple(f"h{h + 1}" for h in range(m))
    else:
        house_labels = tuple(str(lbl) for lbl in house_labels)
        if len(house_labels) != m:
            raise DimensionMismatch(f"{len(house_labels)} house labels for {m} houses")
    return Instance(parsed_weights, rows, agent_labels, house_labels)


def validate_instance(raw: Mapping) -> Instance:
    """Validate dict-shaped instance data (typically parsed JSON)."""
    if not isinstance(raw, Mapping):
        raise MalformedInstance(f"instance data must be an object, got {type(raw).__name__}")
    try:
        weights = raw["weights"]
        utilities = raw["utilities"]
    except KeyError as exc:
        raise MalformedInstance(f"missing field {exc.args[0]!r}") from exc
    return make_instance(weights, utilities, raw.get("agent_labels"), raw.get("house_labels"))


def check_allocation(inst: Instance, allocation: Allocation) -> None:
    """Raise InvalidAllocation unless the allocation fits the instance."""
    if len(allocation) != inst.n:
        raise InvalidAllocation(
            f"allocation assigns {len(allocation)} agents, instance has {inst.n}"
        )
    for house in allocation.assignment:
        if house >= inst.m:
            raise InvalidAllocation(f"house index {shown(house)} out of range for m={inst.m}")


def is_wef_allocation(inst: Instance, allocation: Allocation) -> bool:
    """Exact check that no agent weighted-envies another under the allocation.

    Agent i is satisfied against j when v_i(A_i)/w_i >= v_i(A_j)/w_j.
    """
    check_allocation(inst, allocation)
    for i in range(inst.n):
        own = inst.utilities[i][allocation[i]] / inst.weights[i]
        for j in range(inst.n):
            if i != j and own < inst.utilities[i][allocation[j]] / inst.weights[j]:
                return False
    return True


def is_wef_outcome(inst: Instance, outcome: Outcome) -> bool:
    """Exact weighted envy-freeness check with utilities augmented by payments."""
    # an Outcome has one payment per allocated agent, so this also fits the payments
    check_allocation(inst, outcome.allocation)
    allocation, payments = outcome.allocation, outcome.subsidy
    for i in range(inst.n):
        own = (inst.utilities[i][allocation[i]] + payments[i]) / inst.weights[i]
        for j in range(inst.n):
            if i == j:
                continue
            if own < (inst.utilities[i][allocation[j]] + payments[j]) / inst.weights[j]:
                return False
    return True


# -- canonical JSON ----------------------------------------------------------

def instance_to_data(inst: Instance) -> dict:
    return {
        "weights": [format_rational(w) for w in inst.weights],
        "utilities": [[format_rational(v) for v in row] for row in inst.utilities],
        "agent_labels": list(inst.agent_labels),
        "house_labels": list(inst.house_labels),
    }


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON text; parse_instance is its inverse.

    Numbers are printed in full, so an instance holding a numerator or
    denominator of more than 4300 digits (Python's int_max_str_digits)
    cannot be written: the parser accepts one as a decimal such as
    "1e4300", but serialising it raises the print-limit WefHouseError.
    """
    return json.dumps(instance_to_data(inst), indent=2) + "\n"


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise MalformedInstance("JSON nested too deeply") from exc


def parse_instance(text: str) -> Instance:
    return validate_instance(_load_json(text))


def serialize_allocation(allocation: Allocation) -> str:
    return json.dumps({"assignment": list(allocation.assignment)}, indent=2) + "\n"


def parse_allocation(text: str) -> Allocation:
    data = _load_json(text)
    if not isinstance(data, Mapping) or "assignment" not in data:
        raise MalformedInstance("allocation data must be an object with 'assignment'")
    assignment = data["assignment"]
    if not _is_list(assignment):
        raise InvalidAllocation("'assignment' must be a list of house indices")
    return Allocation(tuple(assignment))

