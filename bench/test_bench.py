"""Self-test of the benchmark at toy size.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from wefhouse import envy  # noqa: E402
from wefhouse.errors import NotWefable  # noqa: E402
from wefhouse.model import Allocation, make_instance  # noqa: E402

END_TO_END = [
    "ops_per_s", "latency_p50_s", "latency_tail_s", "failed_ratio",
    "cli_p50_s", "setup_s", "peak_rss_mb",
]
PER_LAYER = [
    "model.parse_s", "model.parse_share", "model.cells_parsed", "model.parse_cells_per_s",
    "solver.solve_s", "solver.engine_self_s", "solver.rounds", "solver.prune_steps",
    "solver.violators_removed", "solver.violator_s",
    "bipartite.maximum_matching_s", "bipartite.maximum_matching_calls",
    "bipartite.max_weight_assignment_s",
    "envy.build_graph_s", "envy.closure_s", "envy.cycle_s", "envy.calls", "envy.mean_n",
    "special.identical_s", "special.two_types_s", "special.bivalued_s",
    "special.bivalued_self_s", "special.bivalued_candidates", "special.bivalued_matchings",
    "special.normalized_s", "special.unweighted_s",
    "cli.import_s", "cli.process_s.solve", "cli.process_s.subsidy",
    "cli.process_s.check-wefable", "cli.process_s.special",
    "generator.generate_s", "trace.overhead_ratio",
]


def bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "0.2", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


def printed_metrics(stdout):
    printed = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    return printed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    printed = printed_metrics(proc.stdout)
    names = PER_LAYER if trace else END_TO_END
    assert set(printed) == set(names)
    assert all(unit for _value, unit in printed.values())

    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(expected)
    for metric in declared["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    if trace:
        value = {name: v for name, (v, _unit) in printed.items()}
        if workload.startswith("solve-"):
            assert value["envy.calls"] == 0
        if workload == "envy-check":
            assert value["bipartite.maximum_matching_calls"] == 0
        if workload == "solve-violator":
            assert value["solver.violators_removed"] > 0
        if workload == "solve-weighted":
            assert value["solver.violators_removed"] == 0


def test_wrong_expected_decision_is_a_failure(monkeypatch, capsys):
    build = workloads.build

    def corrupted(name, seed, scale):
        workload = build(name, seed, scale)
        item = workload.items[0]
        item.expected = "not-found" if item.expected == "found" else "found"
        return workload

    monkeypatch.setattr(workloads, "build", corrupted)
    code = run.main(["--workload", "solve-violator", "--seed", "5", "--seconds", "0.1",
                     "--trace", "0", "--scale", "toy"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_witness_check():
    inst = make_instance([1, 2], [["1/2", "1/2"], [1, 1]])
    allocation = Allocation((0, 1))
    with pytest.raises(NotWefable) as caught:
        envy.min_subsidy(inst, allocation)
    message = str(caught.value)
    assert workloads.witness_holds(inst, allocation, message)
    assert not workloads.witness_holds(inst, allocation, message.replace("1/4", "1/2"))
    assert not workloads.witness_holds(inst, allocation, "positive envy cycle (0, 1) of weight 1/4")


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        shutil.copy(source, tmp_path / "bench")
    proc = bench("solve-violator", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
