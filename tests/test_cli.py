import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from wefhouse.cli import main
from wefhouse.envy import is_wefable, min_subsidy
from wefhouse.errors import NotWefable
from wefhouse.generator import GeneratorConfig, generate_instance
from wefhouse.model import (
    Allocation,
    format_rational,
    make_instance,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
)
from wefhouse.special import detect_two_types

from conftest import random_instances


@pytest.fixture
def write_files(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def instance_file(write_files, inst, name="instance.json"):
    return write_files(name, serialize_instance(inst))


def allocation_file(write_files, assignment, name="allocation.json"):
    return write_files(name, serialize_allocation(Allocation(tuple(assignment))))


def assert_reports_match_library(capsys, write_files, command, wefable, count=12):
    """On seeded random allocations the library judges `wefable`, the report
    carries the min_subsidy payments or the cycle NotWefable carries."""
    rng = random.Random(900)
    for inst in random_instances(300, seed0=900, n_min=2):
        allocation = Allocation(tuple(rng.sample(range(inst.m), inst.n)))
        if is_wefable(inst, allocation) != wefable:
            continue
        try:
            payments = min_subsidy(inst, allocation).payments
            expected = {"decision": "found", "wefable": True,
                        "subsidy": [format_rational(p) for p in payments]}
        except NotWefable as exc:
            cycle = {"nodes": list(exc.cycle.nodes), "weight": format_rational(exc.cycle.weight)}
            expected = {"decision": "not-found", "wefable": False, "witness_cycle": cycle}
        code, out, _ = run_cli(
            capsys, command, "--input", instance_file(write_files, inst),
            "--allocation", allocation_file(write_files, allocation.assignment),
        )
        report = json.loads(out)
        del report["timing_seconds"]
        assert code == (0 if wefable else 2)
        assignment = {"assignment": list(allocation.assignment)}
        assert report == {"command": command, "allocation": assignment, **expected}
        count -= 1
        if count == 0:
            return
    pytest.fail("too few seeded allocations of the requested kind")


class TestSolve:
    def test_not_found_exit_two(self, capsys, write_files, flat_pair):
        code, out, _ = run_cli(capsys, "solve", "--input", instance_file(write_files, flat_pair))
        assert code == 2
        report = json.loads(out)
        assert report["decision"] == "not-found"
        assert "allocation" not in report
        assert report["counters"]["prune_steps"] >= 1
        assert report["counters"]["rounds"] >= 1

    def test_found_exit_zero(self, capsys, write_files, diagonal_pair):
        code, out, _ = run_cli(capsys, "solve", "--input", instance_file(write_files, diagonal_pair))
        assert code == 0
        report = json.loads(out)
        assert report["decision"] == "found"
        assert report["allocation"]["assignment"] == [0, 1]

    def test_malformed_json_exit_one(self, capsys, write_files):
        path = write_files("bad.json", "{not json")
        code, out, err = run_cli(capsys, "solve", "--input", path)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--input", "/nonexistent/file.json")
        assert code == 1
        assert "error" in err

    def test_deep_nesting_exit_one(self, write_files):
        path = write_files("deep.json", "[" * 100_000 + "]" * 100_000)
        result = subprocess.run(
            [sys.executable, "-m", "wefhouse", "solve", "--input", path],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: JSON nested too deeply\n"

    def test_exponent_past_cap_exit_one(self, capsys, write_files):
        path = write_files("big.json", '{"weights": ["1e4301"], "utilities": [["1"]]}')
        code, out, err = run_cli(capsys, "solve", "--input", path)
        assert code == 1
        assert out == ""
        assert "exponent beyond 4300" in err

    @pytest.mark.parametrize("raw", ["1_000", "1_0/3", "1.5_0", "1e1_0", " 1 / 2 ", "1 /2"])
    def test_grammar_added_after_python_3_10_exit_one(self, capsys, write_files, raw):
        text = json.dumps({"weights": [raw], "utilities": [["1"]]})
        code, out, err = run_cli(capsys, "solve", "--input", write_files("grammar.json", text))
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse rational from {raw!r}\n"

    @pytest.mark.parametrize("raw", ["\u0661\u0662", "\uff11/\uff12", "1\uff12"])
    def test_non_ascii_digits_exit_one(self, capsys, write_files, raw):
        text = json.dumps({"weights": [1], "utilities": [[raw]]})
        code, out, err = run_cli(capsys, "solve", "--input", write_files("digits.json", text))
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse rational from {raw!r}\n"

    def test_invalid_number_past_print_limit_exit_one(self, capsys, write_files):
        text = '{"weights": ["-1e4300", "1"], "utilities": [[1, 0], [0, 1]]}'
        code, out, err = run_cli(capsys, "solve", "--input", write_files("huge.json", text))
        assert (code, out) == (1, "")
        assert err.startswith("error: agent 0 has weight ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    def test_special_auto_reads_unprintable_value_as_mode_mismatch(self, capsys, write_files):
        # three agent types, and a "low" value past the print limit: no family fits
        rows = [["1e4300", 1, 1], [1, "1e4300", 1], [1, 1, "1e4300"]]
        text = json.dumps({"weights": [1, 1, 1], "utilities": rows})
        code, out, err = run_cli(capsys, "special", "--input", write_files("huge.json", text))
        assert (code, out) == (1, "")
        assert err == (
            "error: instance fits no special family (identical, two-type, bivalued, normalized)\n"
        )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "--input", "instance.json", "--bogus"],
            ["special", "--input", "instance.json", "--format", "json"],
            ["special", "--input", "instance.json", "--mode", "bivalued", "--cap", "-1"],
            ["oracle", "--input", "instance.json", "--query", "wef", "--cap", "-1"],
        ],
        ids=[
            "missing-required-flag", "unknown-flag", "removed-format-flag",
            "negative-special-cap", "negative-oracle-cap",
        ],
    )
    def test_exit_one_without_report(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        out, err = capsys.readouterr()
        assert caught.value.code == 1
        assert out == ""
        assert err.startswith("usage: wefhouse")


class TestCheckWefable:
    def test_witness_cycle(self, capsys, write_files, flat_pair):
        code, out, _ = run_cli(
            capsys,
            "check-wefable",
            "--input", instance_file(write_files, flat_pair),
            "--allocation", allocation_file(write_files, [0, 1]),
        )
        assert code == 2
        report = json.loads(out)
        assert report["wefable"] is False
        assert report["witness_cycle"]["nodes"] == [0, 1, 0]
        assert report["witness_cycle"]["weight"] == "1/4"

    def test_subsidy_when_wefable(self, capsys, write_files, identical_pair):
        code, out, _ = run_cli(
            capsys,
            "check-wefable",
            "--input", instance_file(write_files, identical_pair),
            "--allocation", allocation_file(write_files, [0, 1]),
        )
        assert code == 0
        report = json.loads(out)
        assert report["wefable"] is True
        assert report["subsidy"] == ["0", "15"]

    def test_repeated_house_exit_one(self, capsys, write_files, identical_pair):
        path = write_files("allocation.json", '{"assignment": [0, 0]}')
        code, _, err = run_cli(
            capsys,
            "check-wefable",
            "--input", instance_file(write_files, identical_pair),
            "--allocation", path,
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("wefable", [True, False])
    def test_report_matches_library(self, capsys, write_files, wefable):
        assert_reports_match_library(capsys, write_files, "check-wefable", wefable)


@pytest.mark.parametrize("command", ["check-wefable", "subsidy"])
def test_result_too_long_to_print_exit_one(capsys, write_files, command):
    text = '{"weights": ["1", "1e4300"], "utilities": [[1, 0], [0, 1]]}'
    code, out, err = run_cli(
        capsys, command,
        "--input", write_files("instance.json", text),
        "--allocation", allocation_file(write_files, [1, 0]),
    )
    assert code == 1
    assert out == ""
    assert err == "error: result too long to print: beyond the 4300-digit print limit\n"


class TestSubsidy:
    def test_minimum_payments(self, capsys, write_files, identical_pair):
        code, out, _ = run_cli(
            capsys,
            "subsidy",
            "--input", instance_file(write_files, identical_pair),
            "--allocation", allocation_file(write_files, [0, 1]),
        )
        assert code == 0
        assert json.loads(out)["subsidy"] == ["0", "15"]

    def test_not_wefable_is_a_decision(self, capsys, write_files, flat_pair):
        code, out, _ = run_cli(
            capsys,
            "subsidy",
            "--input", instance_file(write_files, flat_pair),
            "--allocation", allocation_file(write_files, [0, 1]),
        )
        assert code == 2
        assert json.loads(out)["decision"] == "not-found"

    @pytest.mark.parametrize("wefable", [True, False])
    def test_report_matches_library(self, capsys, write_files, wefable):
        assert_reports_match_library(capsys, write_files, "subsidy", wefable)


class TestSpecial:
    def test_identical_mode(self, capsys, write_files, flat_identical_pair):
        code, out, _ = run_cli(
            capsys,
            "special",
            "--input", instance_file(write_files, flat_identical_pair),
            "--mode", "identical",
        )
        assert code == 0
        report = json.loads(out)
        assert report["decision"] == "found"
        assert "subsidy" in report

    def test_two_type_not_found(self, capsys, write_files, flat_pair):
        code, out, _ = run_cli(
            capsys,
            "special",
            "--input", instance_file(write_files, flat_pair),
            "--mode", "two-type",
        )
        assert code == 2
        assert json.loads(out)["decision"] == "not-found"

    def test_bivalued_diagonal(self, capsys, write_files):
        inst = make_instance([1, 2], [[1, 0], [0, 1]])
        code, out, _ = run_cli(
            capsys,
            "special",
            "--input", instance_file(write_files, inst),
            "--mode", "bivalued",
        )
        assert code == 0
        assert json.loads(out)["allocation"]["assignment"] == [0, 1]

    def test_mode_mismatch_exit_one(self, capsys, write_files, diagonal_pair):
        code, _, err = run_cli(
            capsys,
            "special",
            "--input", instance_file(write_files, diagonal_pair),
            "--mode", "identical",
        )
        assert code == 1
        assert "error" in err

    def test_auto_prefers_identical(self, capsys, write_files, identical_pair):
        code, out, _ = run_cli(
            capsys, "special", "--input", instance_file(write_files, identical_pair)
        )
        assert code == 0
        assert json.loads(out)["mode"] == "identical"

    def test_explicit_normalized_mode(self, capsys, write_files):
        inst = make_instance([1, 5], [["1/4", "3/4"], ["2/3", "1/3"]])
        code, out, _ = run_cli(
            capsys,
            "special",
            "--input", instance_file(write_files, inst),
            "--mode", "normalized",
        )
        assert code == 0
        assert json.loads(out)["mode"] == "normalized"

    def test_auto_two_type_beats_normalized(self, capsys, write_files):
        # any two distinct agents form two types, so auto picks that branch
        inst = make_instance([1, 5], [["1/4", "3/4"], ["2/3", "1/3"]])
        code, out, _ = run_cli(
            capsys, "special", "--input", instance_file(write_files, inst)
        )
        assert code == 0
        assert json.loads(out)["mode"] == "two-type"

    def test_auto_resolves_bivalued(self, capsys, write_files):
        inst = generate_instance(
            GeneratorConfig(n=4, m=4, seed=5, structure="bivalued", epsilon=Fraction(1, 3))
        )
        code, out, _ = run_cli(capsys, "special", "--input", instance_file(write_files, inst))
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "bivalued"
        assert report["allocation"]["assignment"] == [3, 1, 0, 2]

    def test_bivalued_mismatch_prints_rationals(self, capsys, write_files):
        inst = make_instance([1, 1], [[0, 1], ["1/50", 1]])
        code, out, err = run_cli(
            capsys, "special", "--input", instance_file(write_files, inst),
            "--mode", "bivalued",
        )
        assert code == 1
        assert out == ""
        assert err == "error: more than two utility values: 0, 1/50, 1\n"

    def test_auto_no_family_exit_one(self, capsys, write_files):
        inst = make_instance([1, 2, 3], [[1, 2, 3], [3, 2, 1], [2, 3, 1]])
        code, out, err = run_cli(capsys, "special", "--input", instance_file(write_files, inst))
        assert code == 1
        assert out == ""
        assert "fits no special family" in err


class TestOracle:
    def test_wefable_not_found(self, capsys, write_files, hard_triple):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--input", instance_file(write_files, hard_triple),
            "--query", "wefable",
        )
        assert code == 2
        assert json.loads(out)["decision"] == "not-found"

    def test_wef_found(self, capsys, write_files, diagonal_pair):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--input", instance_file(write_files, diagonal_pair),
            "--query", "wef",
        )
        assert code == 0
        assert json.loads(out)["allocation"]["assignment"] == [0, 1]

    def test_cap_exit_three(self, capsys, write_files):
        inst = make_instance([1] * 8, [[1] * 8] * 8)
        code, _, err = run_cli(
            capsys,
            "oracle",
            "--input", instance_file(write_files, inst),
            "--query", "wefable",
        )
        assert code == 3
        assert "cap exceeded" in err


class TestGenerate:
    def test_same_seed_byte_identical(self, capsys, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        for out_path in (out_a, out_b):
            code, out, _ = run_cli(
                capsys,
                "generate",
                "--structure", "two-type",
                "--n", "4", "--m", "5", "--seed", "7",
                "--output", out_path,
            )
            assert code == 0
            assert json.loads(out)["prng"] == "splitmix64"
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_two_type_structure_detectable(self, capsys, tmp_path):
        out_path = str(tmp_path / "inst.json")
        run_cli(
            capsys,
            "generate",
            "--structure", "two-type",
            "--n", "4", "--m", "5", "--seed", "7",
            "--output", out_path,
        )
        inst = parse_instance((tmp_path / "inst.json").read_text())
        assert detect_two_types(inst) is not None

    def test_stdout_instance_parses(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "3", "--m", "4", "--seed", "1")
        assert code == 0
        inst = parse_instance(out)
        assert inst.n == 3 and inst.m == 4

    def test_identical_structure_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--n", "3", "--m", "3", "--seed", "2",
            "--structure", "identical",
        )
        assert code == 0
        inst = parse_instance(out)
        assert all(row == inst.utilities[0] for row in inst.utilities)

    def test_bad_distribution_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--n", "2", "--m", "2", "--weights", "uniform:0:2"
        )
        assert code == 1
        assert "error" in err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "wefhouse", "generate", "--n", "2", "--m", "2", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    parse_instance(result.stdout)


class TestReportsRoundTrip:
    def test_solve_report_allocation_parses(self, capsys, write_files):
        for inst in random_instances(10, seed0=70):
            code, out, _ = run_cli(
                capsys, "solve", "--input", instance_file(write_files, inst)
            )
            assert code in (0, 2)
            report = json.loads(out)
            if code == 0:
                allocation = parse_allocation(json.dumps(report["allocation"]))
                assert len(allocation) == inst.n


# -- the report contract shared by every instance command ------------------------

EXIT_BY_DECISION = {"found": 0, "not-found": 2, "inconclusive": 3}
CONTRACT_FIXTURES = [
    "flat_pair", "hard_triple", "identical_pair", "two_type_pair",
    "diagonal_pair", "shared_favorite_pair", "flat_identical_pair",
]
CONTRACT_COMMANDS = [
    ("solve",),
    ("check-wefable", "--allocation"),
    ("subsidy", "--allocation"),
    ("special",),
    ("oracle", "--query", "wef"),
    ("oracle", "--query", "wefable"),
]
CONTRACT_CASES = [
    (argv, fixture)
    for argv in CONTRACT_COMMANDS
    for fixture in CONTRACT_FIXTURES
    # the three distinct agents of hard_triple fit no special family
    if (argv[0], fixture) != ("special", "hard_triple")
] + [(("special", "--mode", "bivalued", "--cap", "0"), "shared_favorite_pair")]


def run_contract_case(request, capsys, write_files, argv, fixture):
    inst = request.getfixturevalue(fixture)
    command, *options = argv
    if options == ["--allocation"]:
        options = ["--allocation", allocation_file(write_files, range(inst.n))]
    return run_cli(capsys, command, "--input", instance_file(write_files, inst), *options)


@pytest.mark.parametrize(
    "argv,fixture", CONTRACT_CASES, ids=[" ".join((*argv, fixture)) for argv, fixture in CONTRACT_CASES]
)
def test_report_contract(request, capsys, write_files, argv, fixture):
    code, out, err = run_contract_case(request, capsys, write_files, argv, fixture)
    report = json.loads(out)
    assert err == ""
    assert list(report)[0] == "command" and report["command"] == argv[0]
    assert list(report)[-1] == "timing_seconds"
    assert isinstance(report["timing_seconds"], float) and report["timing_seconds"] >= 0
    assert code == EXIT_BY_DECISION[report["decision"]]


def test_report_contract_covers_every_decision(request, capsys, write_files):
    decisions = {
        json.loads(run_contract_case(request, capsys, write_files, *case)[1])["decision"]
        for case in CONTRACT_CASES
    }
    assert decisions == set(EXIT_BY_DECISION)
