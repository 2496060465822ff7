"""A golden corpus of `wefhouse` command runs, and the code to replay one.

Each run is a list of argv words, plus any instance or allocation files
it reads, given by name and text.  Replaying a run writes its files into
one temporary directory shared by the whole corpus (so a `generate --output`
run can feed the runs after it), calls `cli.main` in-process and records
the exit code, standard error and the standard output JSON without
`timing_seconds`.  That directory is written as `{dir}` in argv
and in the recorded output.

    PYTHONPATH=src python tests/golden_cli.py

rewrites `tests/golden_cli.json` from the code under `src/`; the tests in
`test_golden_cli.py` replay that file and require the same records, and
require its runs to be the ones `corpus_runs` lists.
Regenerate it only for an intended change of CLI behaviour.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from wefhouse.cli import main
from wefhouse.envy import is_wefable
from wefhouse.model import Allocation, instance_to_data, make_instance, serialize_allocation

import conftest

CORPUS = Path(__file__).with_name("golden_cli.json")
DIR = "{dir}"


def replay(argv: list[str], files: dict[str, str], directory: str) -> dict:
    """Run one corpus entry in `directory` and return its record."""
    for name, text in files.items():
        Path(directory, name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([word.replace(DIR, directory) for word in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
            # keep the error line: argparse lays out the usage line above it
            # for the terminal width and the Python version
            err = io.StringIO(err.getvalue().splitlines(keepends=True)[-1])
    stdout = json.loads(out.getvalue()) if out.getvalue() else None
    if isinstance(stdout, dict):
        stdout.pop("timing_seconds", None)
        if "output" in stdout:  # generate --output
            stdout["output"] = stdout["output"].replace(directory, DIR)
    stderr = err.getvalue().replace(directory, DIR)
    return {"argv": argv, "files": files, "exit": code, "stderr": stderr, "stdout": stdout}


def _instance_text(inst) -> str:
    return json.dumps(instance_to_data(inst), separators=(",", ":"))


def _on(inst_text: str, allocation=None):
    """The files of a run on one instance, and one allocation when given."""
    files = {"instance.json": inst_text}
    if allocation is not None:
        files["allocation.json"] = serialize_allocation(Allocation(tuple(allocation)))
    return files


INPUT = ["--input", f"{DIR}/instance.json"]
ALLOCATION = ["--allocation", f"{DIR}/allocation.json"]
FIXTURES = ("flat_pair", "hard_triple", "identical_pair", "two_type_pair",
            "diagonal_pair", "shared_favorite_pair", "flat_identical_pair")


def _fixture_runs():
    for name in FIXTURES:
        inst = getattr(conftest, name).__wrapped__()
        files = _on(_instance_text(inst), range(inst.n))
        yield ["solve", *INPUT], files
        yield ["special", *INPUT], files
        yield ["subsidy", *INPUT, *ALLOCATION], files
        reversed_files = _on(files["instance.json"], range(inst.n)[::-1])
        yield ["check-wefable", *INPUT, *ALLOCATION], reversed_files
        yield ["oracle", *INPUT, "--query", "wefable"], files
    for name in ("flat_pair", "diagonal_pair", "hard_triple"):
        files = _on(_instance_text(getattr(conftest, name).__wrapped__()))
        yield ["oracle", *INPUT, "--query", "wef"], files
    files = _on(_instance_text(conftest.hard_triple.__wrapped__()))
    yield ["oracle", *INPUT, "--query", "wef", "--cap", "5"], files
    yield ["oracle", *INPUT, "--query", "wefable", "--cap", "5"], files


def _generated_runs():
    """Every generator structure through `generate --output`, then solved."""
    shapes = (
        ("general", 4, 6, []), ("general", 12, 20, []),
        ("general", 32, 32, ["--weights", "uniform:1:1"]),
        ("general", 20, 40, ["--utilities", "uniform:0:3"]),
        ("identical", 5, 7, []), ("identical", 24, 30, []),
        ("two-type", 6, 8, []), ("two-type", 32, 48, []),
        ("bivalued", 5, 5, ["--epsilon", "1/4"]), ("bivalued", 8, 8, ["--weights", "uniform:1:1"]),
        ("normalized", 2, 4, []), ("normalized", 16, 24, []),
    )
    for seed, (structure, n, m, extra) in enumerate(shapes, start=11):
        name = f"{DIR}/{structure}-{n}x{m}.json"
        yield ["generate", "--n", str(n), "--m", str(m), "--seed", str(seed),
               "--structure", structure, *extra, "--output", name], {}
        yield ["solve", "--input", name], {}
        yield ["special", "--input", name], {}
    yield ["generate", "--n", "3", "--m", "4", "--seed", "5"], {}
    yield ["generate", "--n", "2", "--structure", "bivalued", "--epsilon", "1/3"], {}


def _special_runs():
    """Each `special` mode, explicit and mismatched, and the bivalued cap."""
    quarter = "1/4"
    bivalued = _instance_text(
        make_instance([1, 2, 3], [[1, quarter, 1], [1, 1, quarter], [quarter, 1, 1]])
    )
    for mode in ("auto", "identical", "two-type", "bivalued", "normalized"):
        yield ["special", *INPUT, "--mode", mode], _on(bivalued)
    yield ["special", *INPUT, "--mode", "bivalued", "--cap", "0"], _on(bivalued)
    yield ["special", *INPUT, "--mode", "bivalued", "--cap", "1"], _on(bivalued)
    flat = _instance_text(conftest.flat_pair.__wrapped__())
    yield ["special", *INPUT, "--cap", "0"], _on(flat)
    yield ["special", *INPUT, "--mode", "normalized"], _on(flat)
    normalized = _instance_text(make_instance([1, 2], [["1/3", "2/3"], ["3/4", "1/4"]]))
    yield ["special", *INPUT, "--mode", "normalized"], _on(normalized)
    yield ["special", *INPUT, "--mode", "two-type"], _on(normalized)


def _random_number(rng: random.Random, lo: int) -> str:
    """A rational in [lo, 12] as "p/q", or as a decimal when it has one."""
    value = Fraction(rng.randint(lo, 12), rng.choice((1, 2, 3, 4, 6, 7)))
    if value.denominator in (2, 4) and rng.random() < 0.5:
        return f"{float(value)}"
    return str(value)


def _fractional_runs():
    """subsidy and check-wefable on fractional weights and utilities."""
    rng = random.Random(2108)
    kinds = {True: 0, False: 0}
    while min(kinds.values()) < 12:
        n = rng.randint(2, 6)
        m = n + rng.randint(0, 2)
        rows = [[_random_number(rng, 0) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:  # identical rows: every allocation is WEFable
            rows = [rows[0]] * n
        data = {"weights": [_random_number(rng, 1) for _ in range(n)], "utilities": rows}
        assignment = rng.sample(range(m), n)
        wefable = is_wefable(make_instance(data["weights"], data["utilities"]),
                             Allocation(tuple(assignment)))
        if kinds[wefable] < 12:
            kinds[wefable] += 1
            command = rng.choice(("subsidy", "check-wefable"))
            yield [command, *INPUT, *ALLOCATION], _on(json.dumps(data), assignment)


def _error_runs():
    """Malformed files and usage errors: exit code 1, one line on stderr."""
    good = _instance_text(conftest.diagonal_pair.__wrapped__())
    for text in (
        "{not json",
        "[1, 2]",
        '{"weights": [1]}',
        '{"weights": [1, 0], "utilities": [[1, 0], [0, 1]]}',
        '{"weights": [1, 1], "utilities": [[1, -1], [0, 1]]}',
        '{"weights": [1, 1], "utilities": [[1, 0], [0]]}',
        '{"weights": [1, 1], "utilities": [[1], [0]]}',
        '{"weights": ["x", 1], "utilities": [[1, 0], [0, 1]]}',
        '{"weights": [1, 1], "utilities": [["1e5000", 0], [0, 1]]}',
        '{"weights": [true, 1], "utilities": [[1, 0], [0, 1]]}',
        '{"weights": [], "utilities": []}',
    ):
        yield ["solve", *INPUT], {"instance.json": text}
    for text in ('{"assignment": [0, 0]}', '{"assignment": [0, 5]}', '{"assignment": [0]}',
                 '{"assignment": 3}', '{"assignment": [0, -1]}', "[0, 1]"):
        yield ["subsidy", *INPUT, *ALLOCATION], {"instance.json": good, "allocation.json": text}
    yield ["solve", "--input", f"{DIR}/missing.json"], {}
    yield ["oracle", *INPUT, "--query", "wef", "--cap", "-1"], {"instance.json": good}
    yield ["special", *INPUT, "--cap", "many"], {"instance.json": good}
    yield ["solve"], {}
    yield ["subsidy", *INPUT], {"instance.json": good}
    yield ["oracle", *INPUT], {"instance.json": good}
    yield ["solve", *INPUT, "--trace"], {"instance.json": good}
    yield ["generate", "--n", "0"], {}
    yield ["generate", "--n", "3", "--m", "2"], {}
    yield ["generate", "--n", "3", "--weights", "uniform:0:2"], {}


def corpus_runs():
    yield from _fixture_runs()
    yield from _generated_runs()
    yield from _special_runs()
    yield from _fractional_runs()
    yield from _error_runs()


def record_corpus() -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        return [replay(argv, files, directory) for argv, files in corpus_runs()]


if __name__ == "__main__":
    records = record_corpus()
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {CORPUS}", file=sys.stderr)
