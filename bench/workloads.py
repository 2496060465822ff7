"""Workload builders, operations and output checks for the benchmark.

Every workload is a fixed list of items built from the workload seed.  An
item is one request a library user makes: the instance as canonical JSON
text, plus the allocation to check where the operation takes one.  Set-up
records each item's expected decision, either by construction (planted
WEF allocations, identical utilities, equal-weight maximum-utility
allocations, positive two-cycles) or by running the library once, and
asserts the workload's class mix so that a drift moving a workload off
the code path it exists for fails loudly.

The library's own generator streams are used unchanged; the builders
below only choose their seeds and shapes, and draw everything else from
their own `SplitMix64` streams.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from wefhouse import envy, generator, model, solver, special
from wefhouse.errors import NotWefable
from wefhouse.generator import GeneratorConfig, SplitMix64
from wefhouse.model import Allocation, Outcome

WORKLOADS = ("solve-violator", "solve-weighted", "envy-check", "special-mix")

EPSILON = Fraction(1, 4)
MAX_DRAWS = 200  # fresh sub-seeds a slot may try before set-up gives up

# Shapes per slot.  Most items of a workload share one shape, so that the
# middle and the upper quantiles of its latencies fall among items of equal
# size: the seed then changes the values, but neither the work in a pass
# nor which kind of item a quantile measures.  Each pass has an odd number
# of items, so its median is an item rather than a gap between two.
SHAPES = {
    "full": {
        # equal weights, utilities 0..1000: about n Hall-violator rounds,
        # then not-found
        "violator-dense": [(125, 160)] * 7,
        # equal weights, utilities 0..100, m = 2n: found after a few violators
        "violator-found": [(100, 200)] * 2,
        # weights 1..10: planted and general instances alternate
        "weighted": [(150, 300)] * 7,
        # m = 2n: WEFable and non-WEFable allocations on alternate slots
        "envy": [30 + (30 * k + 4) // 8 for k in range(9)],
        "identical": [(200, 400)] * 2,
        "two-type": [(200, 400)],
        "bivalued-found": [8],
        "bivalued-not-found": [9],
        "normalized-m": 400,
        "unweighted": [(200, 400)],
        # candidates an accepted not-found bivalued scan checks
        "bivalued-band": (30, 60),
    },
    "toy": {
        "violator-dense": [(8, 12), (10, 10)],
        "violator-found": [(8, 16)],
        "weighted": [(8, 24)] * 3,
        "envy": [6, 7, 8],
        "identical": [(6, 12)],
        "two-type": [(6, 12)],
        "bivalued-found": [5],
        "bivalued-not-found": [6],
        "normalized-m": 8,
        "unweighted": [(6, 12)],
        "bivalued-band": (2, 60),
    },
}


@dataclass
class Item:
    """One request: an operation on an instance, with its expected result."""

    kind: str
    op: str
    text: str
    n: int
    m: int
    expected: str
    # outputs the operation must reproduce where no certificate exists
    detail: tuple = ()
    allocation: Allocation | None = None
    # counters recorded at set-up for the class mix
    counters: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    items: list[Item]
    # (command, item index): the fixed subset the CLI probe runs
    cli: list[tuple[str, int]]
    mix: dict


class SetupError(RuntimeError):
    """The generated workload is not the workload the benchmark describes."""


# -- builders ------------------------------------------------------------------

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


def sparse_bivalued_instance(rng: SplitMix64, n: int) -> model.Instance:
    """Square instance, weights 1..10, each utility 1 with a per-instance
    probability of 10..35 percent and EPSILON otherwise."""
    density = rng.randint(10, 35)
    weights = [rng.randint(1, 10) for _ in range(n)]
    utilities = [
        [1 if rng.below(100) < density else EPSILON for _ in range(n)]
        for _ in range(n)
    ]
    return model.make_instance(weights, utilities)


def _generate(seed: int, n: int, m: int, weights: str, utilities: str,
              structure: str = "general") -> model.Instance:
    config = GeneratorConfig(n, m, seed, weights=weights, utilities=utilities,
                             structure=structure)
    return generator.generate_instance(config)


def positive_two_cycle(inst: model.Instance, allocation: Allocation) -> tuple[int, int] | None:
    """A pair of agents whose mutual weighted envy sums to more than zero.

    Such a pair proves that no subsidy makes the allocation envy-free; the
    search is quadratic and shares no code with the envy layer.
    """
    u, w, a = inst.utilities, inst.weights, allocation.assignment
    ratio = [[u[i][a[j]] / w[j] for j in range(inst.n)] for i in range(inst.n)]
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            if ratio[i][j] - ratio[i][i] + ratio[j][i] - ratio[j][j] > 0:
                return i, j
    return None


# -- workloads -----------------------------------------------------------------

def _solve_item(kind: str, inst: model.Instance) -> Item:
    allocation, stats = solver.solve_wef_traced(inst)
    return Item(
        kind, "solve", model.serialize_instance(inst), inst.n, inst.m,
        "found" if allocation is not None else "not-found",
        counters={"violators": stats.violators_removed, "rounds": stats.rounds},
    )


def _draw(rng: SplitMix64, make, accept, what: str):
    for _ in range(MAX_DRAWS):
        item = make(rng.next64())
        if accept(item):
            return item
    raise SetupError(f"no {what} in {MAX_DRAWS} draws")


def _solve_violator(rng: SplitMix64, shapes: dict) -> Workload:
    items = []
    for n, m in shapes["violator-dense"]:
        items.append(_draw(
            rng,
            lambda s: _solve_item("dense", _generate(s, n, m, "uniform:1:1", "uniform:0:1000")),
            lambda it: it.expected == "not-found" and it.counters["violators"] > 0,
            f"not-found {n}x{m} instance with Hall violators",
        ))
    for n, m in shapes["violator-found"]:
        items.append(_draw(
            rng,
            lambda s: _solve_item("found-2n", _generate(s, n, m, "uniform:1:1", "uniform:0:100")),
            lambda it: it.expected == "found" and it.counters["violators"] > 0,
            f"found {n}x{m} instance with a Hall violator",
        ))
    # the draws above assert the mix: every item took Hall-violator rounds,
    # and exactly the dense ones end not-found
    mix = _solve_mix(items)
    cli = [("solve", k) for k in range(3)]
    return Workload("solve-violator", items, cli, mix)


def _solve_weighted(rng: SplitMix64, shapes: dict) -> Workload:
    items = []
    for k, (n, m) in enumerate(shapes["weighted"]):
        if k % 2 == 0:
            items.append(_draw(
                rng,
                lambda s: _solve_item("planted", planted_instance(SplitMix64(s), n, m)),
                lambda it: it.counters["violators"] == 0,
                f"planted {n}x{m} instance solved without a Hall violator",
            ))
        else:
            items.append(_solve_item("general", _generate(rng.next64(), n, m, "uniform:1:10", "uniform:0:100")))
    mix = _solve_mix(items)
    planted = sum(it.kind == "planted" for it in items)
    _require(all(it.expected == "found" for it in items if it.kind == "planted"), "planted instances all found", mix)
    _require(mix["not-found"] == len(items) - planted, "general instances all not-found", mix)
    _require(mix["violators"] == 0, "no violator rounds", mix)
    cli = [("solve", k) for k in range(3)]
    return Workload("solve-weighted", items, cli, mix)


def _solve_mix(items: list[Item]) -> dict:
    return {
        "found": sum(it.expected == "found" for it in items),
        "not-found": sum(it.expected == "not-found" for it in items),
        "violators": sum(it.counters["violators"] for it in items),
        "rounds": sum(it.counters["rounds"] for it in items),
    }


def _envy_item(kind: str, inst: model.Instance, allocation: Allocation, expected: str) -> Item:
    return Item(kind, "subsidy", model.serialize_instance(inst), inst.n, inst.m,
                expected, allocation=allocation)


def _envy_check(rng: SplitMix64, shapes: dict) -> Workload:
    items = []
    for k, n in enumerate(shapes["envy"]):
        m = 2 * n
        if k % 4 == 0:
            inst = _generate(rng.next64(), n, m, "uniform:1:10", "uniform:0:100", "identical")
            items.append(_envy_item("identical", inst, Allocation(tuple(_injection(rng, n, m))), "wefable"))
        elif k % 4 == 2:
            inst = _generate(rng.next64(), n, m, "uniform:1:1", "uniform:0:100")
            items.append(_envy_item("equal-weight", inst, special.unweighted_efable(inst), "wefable"))
        else:
            def non_wefable(seed, n=n, m=m):
                inst = _generate(seed, n, m, "uniform:1:10", "uniform:0:100")
                return inst, Allocation(tuple(_injection(SplitMix64(seed + 1), n, m)))

            inst, allocation = _draw(
                rng, non_wefable, lambda pair: positive_two_cycle(*pair) is not None,
                f"allocation with a positive two-cycle at n={n}",
            )
            items.append(_envy_item("general", inst, allocation, "not-wefable"))
    mix = {
        "wefable": sum(it.expected == "wefable" for it in items),
        "not-wefable": sum(it.expected == "not-wefable" for it in items),
    }
    # odd in number, with the median on the non-WEFable item
    cli = [("subsidy", 0), ("subsidy", 1), ("check-wefable", 1)]
    return Workload("envy-check", items, cli, mix)


def scan_size(inst: model.Instance, cap: int) -> int:
    """Candidates `solve_bivalued` checks when it finds nothing: the pairings
    of free agents with free houses, summed over the maximum matchings of
    the representing graph.  Counting stops once it passes `cap`."""
    total = 0
    for matching in special.enumerate_maximum_matchings(special.representing_graph(inst)):
        total += factorial(sum(house is None for house in matching))
        if total > cap:
            break
    return total


def _bivalued(seed: int, n: int, lo: int, hi: int):
    """A sparse bivalued instance and its scan, or no scan when a not-found
    outcome would check a number of candidates outside lo..hi."""
    inst = sparse_bivalued_instance(SplitMix64(seed), n)
    if not lo <= scan_size(inst, hi) <= hi:
        return inst, None
    return inst, special.solve_bivalued(inst)


def _bivalued_item(kind: str, inst: model.Instance, result) -> Item:
    assignment = result.allocation.assignment if result.allocation else ()
    return Item(kind, "bivalued", model.serialize_instance(inst), inst.n, inst.n, result.status,
                detail=(assignment, result.candidates_checked, result.matchings_checked),
                counters={"candidates": result.candidates_checked})


def _special_mix(rng: SplitMix64, shapes: dict) -> Workload:
    items = []
    for n, m in shapes["identical"]:
        inst = _generate(rng.next64(), n, m, "uniform:1:10", "uniform:0:100", "identical")
        outcome = special.solve_identical(inst)
        items.append(Item("identical", "identical", model.serialize_instance(inst), n, m,
                          "found", detail=outcome.allocation.assignment))

    for n, m in shapes["two-type"]:
        inst = _generate(rng.next64(), n, m, "uniform:1:10", "uniform:0:100", "two-type")
        allocation = special.solve_two_types(inst, special.detect_two_types(inst))
        items.append(Item("two-type", "two-type", model.serialize_instance(inst), n, m,
                          "found" if allocation else "not-found",
                          detail=allocation.assignment if allocation else ()))

    lo, hi = shapes["bivalued-band"]
    for n in shapes["bivalued-found"]:
        inst, result = _draw(
            rng, lambda seed: _bivalued(seed, n, 1, hi),
            lambda pair: pair[1] is not None and pair[1].status == "found",
            f"found bivalued n={n} instance",
        )
        items.append(_bivalued_item("bivalued-found", inst, result))
    for n in shapes["bivalued-not-found"]:
        inst, result = _draw(
            rng, lambda seed: _bivalued(seed, n, lo, hi),
            lambda pair: pair[1] is not None and pair[1].status == "not-found",
            f"not-found bivalued n={n} instance scanning {lo}..{hi} candidates",
        )
        items.append(_bivalued_item("bivalued-not-found", inst, result))

    inst = _generate(rng.next64(), 2, shapes["normalized-m"], "uniform:1:10", "uniform:0:100", "normalized")
    items.append(Item("normalized", "normalized", model.serialize_instance(inst), 2, inst.m, "found"))

    for n, m in shapes["unweighted"]:
        inst = _generate(rng.next64(), n, m, "uniform:1:1", "uniform:0:100")
        items.append(Item("unweighted", "unweighted", model.serialize_instance(inst), n, m,
                          "found", detail=special.unweighted_efable(inst).assignment))

    bivalued_items = [it for it in items if it.op == "bivalued"]
    mix = {
        "families": sorted({it.op for it in items}),
        "two-type": [it.expected for it in items if it.op == "two-type"],
        "bivalued-found": sum(it.expected == "found" for it in bivalued_items),
        "bivalued-not-found": sum(it.expected == "not-found" for it in bivalued_items),
        "bivalued-candidates": sum(it.counters["candidates"] for it in bivalued_items),
    }
    # the probe runs `special --mode auto` on the 200x400 items only, so that
    # its median is not the boundary between them and the cheap bivalued ones
    cli = [("special", k) for k, it in enumerate(items) if it.op in ("identical", "two-type")]
    return Workload("special-mix", items, cli, mix)


def _require(condition: bool, what: str, mix: dict) -> None:
    if not condition:
        raise SetupError(f"class mix off its path: expected {what}, got {mix}")


_BUILDERS = {
    "solve-violator": _solve_violator,
    "solve-weighted": _solve_weighted,
    "envy-check": _envy_check,
    "special-mix": _special_mix,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload `name` for `seed`; the same seed gives the same items."""
    rng = SplitMix64(seed * len(WORKLOADS) + WORKLOADS.index(name))
    return _BUILDERS[name](rng, SHAPES[scale])


# -- operations ----------------------------------------------------------------
# Each operation is what a library user does per request after parsing the
# instance text.  Module attributes are looked up at call time, so the
# traced run sees its wrappers.

def _op_solve(inst, item):
    return solver.solve_wef_traced(inst)


def _op_subsidy(inst, item):
    try:
        return envy.min_subsidy(inst, item.allocation)
    except NotWefable as exc:
        return exc


def _op_identical(inst, item):
    return special.solve_identical(inst)


def _op_two_type(inst, item):
    return special.solve_two_types(inst, special.detect_two_types(inst))


def _op_bivalued(inst, item):
    return special.solve_bivalued(inst)


def _op_normalized(inst, item):
    return special.solve_normalized_pair(inst)


def _op_unweighted(inst, item):
    return special.unweighted_efable(inst)


OPERATIONS = {
    "solve": _op_solve,
    "subsidy": _op_subsidy,
    "identical": _op_identical,
    "two-type": _op_two_type,
    "bivalued": _op_bivalued,
    "normalized": _op_normalized,
    "unweighted": _op_unweighted,
}


# -- checks --------------------------------------------------------------------
# Each returns the decision the output represents and whether the output
# passed its certificate check.  They run outside the timed region.

_WITNESS = re.compile(r"positive envy cycle \(([\d, ]+)\) of weight (-?\d+(?:/\d+)?)$")


def witness_holds(inst: model.Instance, allocation: Allocation, message: str) -> bool:
    """Re-sum the witness cycle named in a NotWefable message from the instance:
    it must be closed, simple and of the stated, positive weight."""
    found = _WITNESS.search(message)
    if found is None:
        return False
    nodes = [int(x) for x in found.group(1).split(",") if x.strip()]
    core = nodes[:-1]
    if len(nodes) < 3 or nodes[0] != nodes[-1] or len(set(core)) != len(core):
        return False
    if not all(0 <= v < inst.n for v in core):
        return False
    u, w, a = inst.utilities, inst.weights, allocation.assignment
    weight = sum(
        (u[i][a[j]] / w[j] - u[i][a[i]] / w[i] for i, j in zip(nodes, nodes[1:])),
        Fraction(0),
    )
    return weight > 0 and weight == Fraction(found.group(2))


def _check_solve(inst, item, result):
    allocation, _stats = result
    if allocation is None:
        return "not-found", True
    return "found", model.is_wef_allocation(inst, allocation)


def _check_subsidy(inst, item, result):
    if isinstance(result, NotWefable):
        return "not-wefable", witness_holds(inst, item.allocation, str(result))
    outcome = Outcome(item.allocation, result)
    return "wefable", model.is_wef_outcome(inst, outcome)


def _check_identical(inst, item, result):
    ok = result.allocation.assignment == item.detail and model.is_wef_outcome(inst, result)
    return "found", ok


def _check_two_type(inst, item, result):
    if result is None:
        return "not-found", True
    return "found", result.assignment == item.detail


def _check_bivalued(inst, item, result):
    assignment = result.allocation.assignment if result.allocation else ()
    ok = (assignment, result.candidates_checked, result.matchings_checked) == item.detail
    if result.allocation is not None:
        ok = ok and envy.is_wefable(inst, result.allocation)
    return result.status, ok


def _check_normalized(inst, item, result):
    return "found", envy.is_wefable(inst, result)


def _check_unweighted(inst, item, result):
    model.check_allocation(inst, result)
    return "found", result.assignment == item.detail


CHECKS = {
    "solve": _check_solve,
    "subsidy": _check_subsidy,
    "identical": _check_identical,
    "two-type": _check_two_type,
    "bivalued": _check_bivalued,
    "normalized": _check_normalized,
    "unweighted": _check_unweighted,
}


def check(inst: model.Instance, item: Item, result) -> bool:
    """True when the output carries the recorded decision and passes its check."""
    decision, ok = CHECKS[item.op](inst, item, result)
    return ok and decision == item.expected


# -- CLI probe -----------------------------------------------------------------

def cli_expectation(item: Item) -> tuple[int, str]:
    """Exit code and JSON `decision` the CLI must give for this item."""
    found = item.expected in ("found", "wefable")
    return (0 if found else 2), ("found" if found else "not-found")
