"""Command-line front end.

The commands that read an instance (solve, check-wefable, subsidy, special,
oracle) print one JSON object on standard output: ``command``, the command's
own fields, then ``timing_seconds``.  The input files are read and parsed
before the clock starts, so ``timing_seconds`` times only the library call.
Exit codes are stable across commands: 0 when the requested object was
found (or the check passed), 2 when it provably does not exist, 3 when an
enumeration cap was exceeded, and 1 on any error, which prints one line to
standard error and no report.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import envy, generator, oracle, special
from .errors import CapExceeded, ModeMismatch, NotWefable, WefHouseError
from .model import (
    Allocation,
    Instance,
    format_rational,
    parse_allocation,
    parse_instance,
    parse_rational,
    serialize_instance,
)
from .solver import solve_wef_traced

EXIT_FOUND = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2
EXIT_CAP = 3


def _read(path: str, parse):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _assignment(allocation: Allocation) -> dict:
    return {"assignment": list(allocation.assignment)}


def _run(args) -> int:
    """Parse the inputs (args.allocation becomes an Allocation), time args.run, print the report."""
    inst = _read(args.input, parse_instance)
    if "allocation" in args:
        args.allocation = _read(args.allocation, parse_allocation)
    started = time.perf_counter()
    fields, code = args.run(inst, args)
    elapsed = time.perf_counter() - started
    _emit({"command": args.command, **fields, "timing_seconds": elapsed})
    return code


# -- instance commands ---------------------------------------------------------
# Each returns (report fields, exit code); _run does the rest.

def _decision(allocation: Allocation | None) -> tuple[dict, int]:
    if allocation is None:
        return {"decision": "not-found"}, EXIT_NOT_FOUND
    return {"decision": "found", "allocation": _assignment(allocation)}, EXIT_FOUND


def _solve(inst: Instance, args) -> tuple[dict, int]:
    allocation, stats = solve_wef_traced(inst)
    fields, code = _decision(allocation)
    fields["counters"] = {
        "prune_steps": stats.prune_steps,
        "violators_removed": stats.violators_removed,
    }
    return fields, code


def _wefable(inst: Instance, args) -> tuple[dict, int]:
    """check-wefable and subsidy: one report, under the command's name."""
    fields = {"allocation": _assignment(args.allocation)}
    try:
        payments = envy.min_subsidy(inst, args.allocation).payments
    except NotWefable as exc:
        cycle = {"nodes": list(exc.cycle.nodes), "weight": format_rational(exc.cycle.weight)}
        fields.update(decision="not-found", wefable=False, witness_cycle=cycle)
        return fields, EXIT_NOT_FOUND
    fields.update(decision="found", wefable=True, subsidy=[format_rational(p) for p in payments])
    return fields, EXIT_FOUND


def _oracle(inst: Instance, args) -> tuple[dict, int]:
    exists = oracle.oracle_wef_exists if args.query == "wef" else oracle.oracle_wefable_exists
    found = exists(inst, cap=args.cap)
    fields, code = _decision(found)
    return {"query": args.query, **fields}, code


# -- special families ----------------------------------------------------------
# Each runner also raises ModeMismatch when the instance lies outside its family.

def _run_identical(inst: Instance, args) -> tuple[dict, int]:
    outcome = special.solve_identical(inst)
    fields, code = _decision(outcome.allocation)
    fields["subsidy"] = [format_rational(p) for p in outcome.subsidy.payments]
    return fields, code


def _run_two_type(inst: Instance, args) -> tuple[dict, int]:
    partition = special.detect_two_types(inst)
    if partition is None:
        raise ModeMismatch("instance does not have exactly two agent types")
    return _decision(special.solve_two_types(inst, partition))


def _run_bivalued(inst: Instance, args) -> tuple[dict, int]:
    result = special.solve_bivalued(inst, candidate_cap=args.cap)
    fields, code = _decision(result.allocation)
    if result.status == "inconclusive":
        fields, code = {"decision": "inconclusive"}, EXIT_CAP
    fields["counters"] = {
        "candidates_checked": result.candidates_checked,
        "matchings_checked": result.matchings_checked,
    }
    return fields, code


def _run_normalized(inst: Instance, args) -> tuple[dict, int]:
    return _decision(special.solve_normalized_pair(inst))


# in the order auto mode tries them
_SPECIAL_MODES = {
    "identical": _run_identical,
    "two-type": _run_two_type,
    "bivalued": _run_bivalued,
    "normalized": _run_normalized,
}


def _special(inst: Instance, args) -> tuple[dict, int]:
    """The first mode that fits; an explicit mode is the only one tried."""
    modes = _SPECIAL_MODES if args.mode == "auto" else {args.mode: _SPECIAL_MODES[args.mode]}
    for mode, run in modes.items():
        try:
            fields, code = run(inst, args)
            return {"mode": mode, **fields}, code
        except ModeMismatch:
            if len(modes) == 1:
                raise
    raise ModeMismatch("instance fits no special family (identical, two-type, bivalued, normalized)")


def _cmd_generate(args) -> int:
    config = generator.GeneratorConfig(
        n=args.n,
        m=args.m if args.m is not None else args.n,
        seed=args.seed,
        weights=args.weights,
        utilities=args.utilities,
        structure=args.structure,
        epsilon=parse_rational(args.epsilon),
    )
    inst = generator.generate_instance(config)
    text = serialize_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(
            {
                "command": "generate",
                "output": args.output,
                "structure": config.structure,
                "seed": config.seed,
                "n": inst.n,
                "m": inst.m,
                "prng": generator.PRNG_ID,
            }
        )
    else:
        sys.stdout.write(text)
    return EXIT_FOUND


def _non_negative_int(text: str) -> int:
    """The type of the enumeration caps."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # reported like a negative value
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1, like every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="wefhouse",
        description="Weighted envy-free house allocation: solvers, checks, subsidies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_command(name, run, text):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--input", required=True, help="instance JSON file")
        cmd.set_defaults(func=_run, run=run)
        return cmd

    instance_command("solve", _solve, "decide and compute a weighted envy-free allocation")
    for name, text in (
        ("check-wefable", "check whether an allocation can be subsidised into envy-freeness"),
        ("subsidy", "minimum envy-eliminating payments for an allocation"),
    ):
        cmd = instance_command(name, _wefable, text)
        cmd.add_argument("--allocation", required=True, help="allocation JSON file")

    spec = instance_command(
        "special", _special, "special-case solvers (identical, two-type, bivalued, normalized)"
    )
    spec.add_argument(
        "--mode", choices=["auto", *_SPECIAL_MODES], default="auto",
        help="auto tries the families in the order listed and reports the first that fits",
    )
    spec.add_argument("--cap", type=_non_negative_int, default=100_000, help="bivalued candidate cap")

    orc = instance_command("oracle", _oracle, "brute-force reference queries for small instances")
    orc.add_argument(
        "--query", choices=["wef", "wefable"], required=True,
        help="wef: a weighted envy-free allocation; wefable: one that subsidies make envy-free",
    )
    orc.add_argument(
        "--cap", type=_non_negative_int, default=oracle.DEFAULT_ALLOCATION_CAP,
        help=(
            "most allocations to enumerate (default %(default)s); --query wefable also stops "
            f"past 7 agents, at its fixed cap of {oracle.PERMUTATION_CAP} permutations, "
            "which --cap does not lift"
        ),
    )

    gen = sub.add_parser("generate", help="write a deterministic random instance")
    gen.add_argument("--n", type=int, required=True, help="number of agents")
    gen.add_argument("--m", type=int, default=None, help="number of houses; defaults to n")
    gen.add_argument("--seed", type=int, default=0, help="splitmix64 seed")
    gen.add_argument("--weights", default="uniform:1:5", help="weight range, uniform:LO:HI")
    gen.add_argument("--utilities", default="uniform:0:10", help="utility range, uniform:LO:HI")
    gen.add_argument(
        "--structure", choices=list(generator.STRUCTURES), default="general", help="instance family"
    )
    gen.add_argument("--epsilon", default="0", help="low value for bivalued instances")
    gen.add_argument("--output", default=None, help="instance file path; stdout when omitted")
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (WefHouseError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
