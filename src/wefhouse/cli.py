"""Command-line front end.

Exit codes are stable across commands: 0 when the requested object was
found (or the check passed), 2 when it provably does not exist, 3 when an
enumeration cap was exceeded, and 1 on any error.  Reports are JSON on
standard output; diagnostics go to standard error.
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


def _read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _read_allocation(path: str) -> Allocation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_allocation(fh.read())


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _subsidy_strings(payments) -> list[str]:
    return [format_rational(p) for p in payments]


def _assignment(allocation: Allocation) -> dict:
    return {"assignment": list(allocation.assignment)}


def _cmd_solve(args) -> int:
    inst = _read_instance(args.input)
    started = time.perf_counter()
    allocation, stats = solve_wef_traced(inst)
    elapsed = time.perf_counter() - started
    report = {
        "command": "solve",
        "decision": "found" if allocation is not None else "not-found",
        "timing_seconds": elapsed,
        "counters": {
            "prune_steps": stats.prune_steps,
            "violators_removed": stats.violators_removed,
        },
    }
    if allocation is not None:
        report["allocation"] = _assignment(allocation)
    _emit(report)
    return EXIT_FOUND if allocation is not None else EXIT_NOT_FOUND


def _cmd_wefable(args) -> int:
    """check-wefable and subsidy: one report, under the command's name."""
    inst = _read_instance(args.input)
    allocation = _read_allocation(args.allocation)
    started = time.perf_counter()
    try:
        payments = envy.min_subsidy(inst, allocation).payments
    except NotWefable as exc:
        verdict = {
            "decision": "not-found",
            "wefable": False,
            "witness_cycle": {
                "nodes": list(exc.cycle.nodes),
                "weight": format_rational(exc.cycle.weight),
            },
        }
        code = EXIT_NOT_FOUND
    else:
        verdict = {"decision": "found", "wefable": True, "subsidy": _subsidy_strings(payments)}
        code = EXIT_FOUND
    _emit(
        {
            "command": args.command,
            "allocation": _assignment(allocation),
            "timing_seconds": time.perf_counter() - started,
            **verdict,
        }
    )
    return code


# -- special families ----------------------------------------------------------
# Each runner returns (report fields, exit code) and raises ModeMismatch when
# the instance lies outside its family.

def _decision(allocation: Allocation | None) -> tuple[dict, int]:
    if allocation is None:
        return {"decision": "not-found"}, EXIT_NOT_FOUND
    return {"decision": "found", "allocation": _assignment(allocation)}, EXIT_FOUND


def _run_identical(inst: Instance, args) -> tuple[dict, int]:
    outcome = special.solve_identical(inst)
    fields, code = _decision(outcome.allocation)
    fields["subsidy"] = _subsidy_strings(outcome.subsidy.payments)
    return fields, code


def _run_two_type(inst: Instance, args) -> tuple[dict, int]:
    partition = special.detect_two_types(inst)
    if partition is None:
        raise ModeMismatch("instance does not have exactly two agent types")
    return _decision(special.solve_two_types(inst, partition))


def _run_bivalued(inst: Instance, args) -> tuple[dict, int]:
    result = special.solve_bivalued(inst, candidate_cap=args.cap)
    fields = {
        "decision": result.status,
        "counters": {
            "candidates_checked": result.candidates_checked,
            "matchings_checked": result.matchings_checked,
        },
    }
    if result.allocation is not None:
        fields["allocation"] = _assignment(result.allocation)
    code = {"found": EXIT_FOUND, "not-found": EXIT_NOT_FOUND, "inconclusive": EXIT_CAP}
    return fields, code[result.status]


def _run_normalized(inst: Instance, args) -> tuple[dict, int]:
    return _decision(special.solve_normalized_pair(inst))


# in the order auto mode tries them
_SPECIAL_MODES = {
    "identical": _run_identical,
    "two-type": _run_two_type,
    "bivalued": _run_bivalued,
    "normalized": _run_normalized,
}


def _run_special(inst: Instance, args) -> tuple[str, dict, int]:
    if args.mode != "auto":
        return args.mode, *_SPECIAL_MODES[args.mode](inst, args)
    for mode, run in _SPECIAL_MODES.items():
        try:
            return mode, *run(inst, args)
        except ModeMismatch:
            pass
    raise ModeMismatch("instance fits no special family (identical, two-type, bivalued, normalized)")


def _cmd_special(args) -> int:
    inst = _read_instance(args.input)
    started = time.perf_counter()
    mode, fields, code = _run_special(inst, args)
    _emit(
        {
            "command": "special",
            "mode": mode,
            **fields,
            "timing_seconds": time.perf_counter() - started,
        }
    )
    return code


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.input)
    started = time.perf_counter()
    if args.query == "wef":
        found = oracle.oracle_wef_exists(inst, cap=args.cap)
    else:
        found = oracle.oracle_wefable_exists(inst, allocation_cap=args.cap)
    report = {
        "command": "oracle",
        "query": args.query,
        "decision": "found" if found is not None else "not-found",
        "timing_seconds": time.perf_counter() - started,
    }
    if found is not None:
        report["allocation"] = _assignment(found)
    _emit(report)
    return EXIT_FOUND if found is not None else EXIT_NOT_FOUND


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

    solve = sub.add_parser("solve", help="decide and compute a weighted envy-free allocation")
    solve.add_argument("--input", required=True, help="instance JSON file")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check-wefable", help="check whether an allocation can be subsidised into envy-freeness")
    check.add_argument("--input", required=True)
    check.add_argument("--allocation", required=True, help="allocation JSON file")
    check.set_defaults(func=_cmd_wefable)

    subsidy = sub.add_parser("subsidy", help="minimum envy-eliminating payments for an allocation")
    subsidy.add_argument("--input", required=True)
    subsidy.add_argument("--allocation", required=True)
    subsidy.set_defaults(func=_cmd_wefable)

    spec = sub.add_parser("special", help="special-case solvers (identical, two-type, bivalued, normalized)")
    spec.add_argument("--input", required=True)
    spec.add_argument(
        "--mode",
        choices=["auto", *_SPECIAL_MODES],
        default="auto",
    )
    spec.add_argument("--cap", type=_non_negative_int, default=100_000, help="bivalued candidate cap")
    spec.set_defaults(func=_cmd_special)

    orc = sub.add_parser("oracle", help="brute-force reference queries for small instances")
    orc.add_argument("--input", required=True)
    orc.add_argument("--query", choices=["wef", "wefable"], required=True)
    orc.add_argument("--cap", type=_non_negative_int, default=oracle.DEFAULT_ALLOCATION_CAP)
    orc.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("generate", help="write a deterministic random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=None, help="defaults to n")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weights", default="uniform:1:5")
    gen.add_argument("--utilities", default="uniform:0:10")
    gen.add_argument("--structure", choices=list(generator.STRUCTURES), default="general")
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
