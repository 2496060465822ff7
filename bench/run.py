"""Benchmark of the wefhouse library and command line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One single-threaded process, one closed-loop client: each operation parses
an instance's JSON text with `parse_instance` and makes the workload's
library call; the next starts when it returns.  Runs consist of whole
passes over the workload's items and last at least `--seconds` of
measured time.  Every output is checked outside the timed region.  A
fixed subset of the items also goes through `python -m wefhouse`, one
process at a time, between the passes.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced passes and reports the per-layer
metrics from the spans (see tracing.py).  Every metric is printed by
name and unit; the last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The full result, with
the environment and, when traced, the spans, goes to `bench/out/`.

The interpreter must run without -O: the solver's debug invariants are
part of the measured program.  Exit code 0 means every output passed its
check; 1 means a failed operation or a set-up that drifted off its class
mix; 2 means the library could not be found or loaded.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
CLI_REPEATS = 3
CLI_IMPORT_PROBES = 3
CLI_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "failed_ratio": "ratio",
    "cli_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("solve", "subsidy", "check-wefable", "special")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-violator", "solve-weighted", "envy-check", "special-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "toy"], default="full",
                        help="toy shrinks every shape, for the self-test")
    return parser.parse_args(argv)


def import_library() -> float:
    """Import wefhouse from this checkout's src/ and return the seconds taken."""
    if not (SRC / "wefhouse" / "__init__.py").is_file():
        raise ImportError(f"no wefhouse package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import wefhouse  # noqa: F401  (the timed import)
    import wefhouse.cli  # noqa: F401
    elapsed = perf_counter() - started
    if Path(wefhouse.__file__).resolve().parent != SRC / "wefhouse":
        raise ImportError(f"imported wefhouse from {wefhouse.__file__}, not {SRC}")
    return elapsed


# -- measurement ---------------------------------------------------------------

class Run:
    """Latencies and failures of the operations of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        # operations per second of each untraced pass
        self.pass_rates: list[float] = []
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def fail(self, what: str) -> None:
        self.failures.append(what)


def run_pass(workload, run: Run, tracer=None) -> float:
    """One pass over the workload's items; returns the measured seconds."""
    from wefhouse import model
    import workloads

    busy = 0.0
    for index, item in enumerate(workload.items):
        operation = workloads.OPERATIONS[item.op]
        inst = result = error = None
        if tracer is not None:
            tracer.begin(len(run.traced))
        started = perf_counter()
        try:
            inst = model.parse_instance(item.text)
            result = operation(inst, item)
        except Exception as exc:  # an unexpected raise is a failed operation
            error = exc
        elapsed = perf_counter() - started
        if tracer is not None:
            run.traced.append(tracer.end())
        else:
            run.untraced.append(elapsed)
        busy += elapsed
        run.attempted += 1
        run.latencies.append(elapsed)
        label = f"item {index} ({item.kind}, {item.n}x{item.m})"
        if error is not None:
            run.fail(f"{label}: raised {error!r}")
            continue
        try:
            ok = workloads.check(inst, item, result)
        except Exception as exc:  # a check that raises is a failed check
            run.fail(f"{label}: check raised {exc!r}")
            continue
        if not ok:
            run.fail(f"{label}: output does not carry decision {item.expected!r} or fails its check")
    if tracer is None:
        run.pass_rates.append(len(workload.items) / busy)
    return busy


def measure(workload, seconds: float, run: Run, probe: "CliProbe") -> None:
    """Whole untraced passes until `seconds` of operations were measured, with
    one CLI process after each pass."""
    busy = 0.0
    while busy < seconds or not run.latencies:
        busy += run_pass(workload, run)
        probe.step()


def measure_traced(workload, seconds: float, run: Run, tracer, probe: "CliProbe") -> None:
    """Alternate untraced and traced passes until `seconds` were measured,
    with one CLI process after each pair."""
    busy = 0.0
    while busy < seconds or not run.traced:
        busy += run_pass(workload, run)
        with tracer:
            busy += run_pass(workload, run, tracer)
        probe.step()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With fewer than 21 samples no such percentile lies above the median,
    and the median is returned.
    """
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


# -- set-up and CLI probe ------------------------------------------------------

def set_up(name: str, seed: int, scale: str, workdir: Path):
    """Build the workload and write the CLI probe's files; the timed set-up."""
    import workloads
    from wefhouse import model

    workload = workloads.build(name, seed, scale)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    files = {}
    for _command, index in workload.cli:
        item = workload.items[index]
        instance = workdir / f"instance-{index}.json"
        instance.write_text(item.text, encoding="utf-8")
        files[index] = [str(instance)]
        if item.allocation is not None:
            allocation = workdir / f"allocation-{index}.json"
            allocation.write_text(model.serialize_allocation(item.allocation), encoding="utf-8")
            files[index].append(str(allocation))
    return workload, files


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONOPTIMIZE", None)
    return env


def _timed_process(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    started = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return perf_counter() - started, proc


class CliProbe:
    """The workload's CLI subset, `CLI_REPEATS` times, one process at a time.

    The processes run between measured passes, so that they sample the
    machine over the whole run rather than over a few seconds at its end.
    """

    def __init__(self, workload, files: dict, run: Run):
        self.workload = workload
        self.files = files
        self.run = run
        self.pending = list(workload.cli * CLI_REPEATS)
        self.times: dict[str, list[float]] = {}

    def step(self) -> None:
        """Run the next process of the subset, if one is left, and check it."""
        import workloads

        if not self.pending:
            return
        command, index = self.pending.pop(0)
        item = self.workload.items[index]
        argv = [sys.executable, "-m", "wefhouse", command, "--input", self.files[index][0]]
        if item.allocation is not None:
            argv += ["--allocation", self.files[index][1]]
        if command == "special":
            argv += ["--mode", "auto"]
        elapsed, proc = _timed_process(argv)
        self.times.setdefault(command, []).append(elapsed)
        self.run.attempted += 1
        code, decision = workloads.cli_expectation(item)
        label = f"cli {command} item {index} ({item.kind})"
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            report = {}
        if proc.returncode != code or report.get("decision") != decision:
            self.run.fail(f"{label}: exit {proc.returncode}, decision {report.get('decision')!r}; "
                          f"expected exit {code}, decision {decision!r}")
        elif command == "special" and report.get("mode") != item.op:
            self.run.fail(f"{label}: mode {report.get('mode')!r}, expected {item.op!r}")

    def finish(self) -> dict[str, list[float]]:
        """Run what is left of the subset; wall times by command."""
        while self.pending:
            self.step()
        return self.times


def cli_import_probe() -> float:
    """Median wall time of a process that only imports the command line module."""
    times = []
    for _ in range(CLI_IMPORT_PROBES):
        elapsed, proc = _timed_process([sys.executable, "-c", "import wefhouse.cli"])
        if proc.returncode != 0:
            raise ImportError(proc.stderr.strip())
        times.append(elapsed)
    return statistics.median(times)


# -- environment and report ----------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "shapes": [[it.kind, it.op, it.n, it.m] for it in workload.items],
        "class_mix": workload.mix,
        "cli_subset": workload.cli,
    }


def end_to_end(run: Run, cli_times: dict, import_s: float, builds: list[float]):
    """End-to-end metrics, their units, and the sample counts behind them."""
    processes = [t for times in cli_times.values() for t in times]
    percentile, tail_s = tail(run.latencies)
    metrics = {
        # median over passes, so that a burst of machine noise moves one pass
        "ops_per_s": statistics.median(run.pass_rates),
        "latency_p50_s": statistics.median(run.latencies),
        "latency_tail_s": tail_s,
        "failed_ratio": len(run.failures) / run.attempted,
        "cli_p50_s": statistics.median(processes),
        "setup_s": import_s + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "ops_per_s": f"passes={len(run.pass_rates)} ops={len(run.latencies)}",
        "latency_p50_s": f"samples={len(run.latencies)}",
        "latency_tail_s": f"percentile={percentile:.2f} samples={len(run.latencies)}",
        "failed_ratio": f"failed={len(run.failures)} attempted={run.attempted}",
        "cli_p50_s": f"processes={len(processes)}",
        "setup_s": f"import_s={import_s:.4f} builds_s={[round(b, 4) for b in builds]}",
    }
    return metrics, dict(END_TO_END_UNITS), notes


def per_layer(tracer, run: Run, cli_times: dict, cli_import_s: float):
    """Per-layer metrics and their units, from the spans and the CLI probe."""
    import tracing

    metrics = tracing.layer_metrics(tracer.spans)
    units = dict(tracing.LAYER_UNITS)
    metrics["trace.overhead_ratio"] = sum(run.traced) / sum(run.untraced)
    units["trace.overhead_ratio"] = "ratio"
    metrics["cli.import_s"] = cli_import_s
    units["cli.import_s"] = "s"
    for command in CLI_COMMANDS:
        name = f"cli.process_s.{command}"
        metrics[name] = statistics.median(cli_times[command]) if command in cli_times else 0.0
        units[name] = "s"
    return metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the solver's debug invariants are part of the program",
              file=sys.stderr)
        return 2
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run = Run()
    tracer = tracing.Tracer()
    builds = []
    try:
        if args.trace:
            tracer.op = tracing.SETUP
            with tracer:
                workload, files = set_up(args.workload, args.seed, args.scale, workdir)
            tracer.op = None
            probe = CliProbe(workload, files, run)
            measure_traced(workload, args.seconds, run, tracer, probe)
        else:
            for _ in range(SETUP_REPEATS):
                started = perf_counter()
                workload, files = set_up(args.workload, args.seed, args.scale, workdir)
                builds.append(perf_counter() - started)
            probe = CliProbe(workload, files, run)
            measure(workload, args.seconds, run, probe)
        cli_times = probe.finish()
        cli_import_s = cli_import_probe() if args.trace else None
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units = per_layer(tracer, run, cli_times, cli_import_s)
        notes = {}
        reported = list(metrics)
    else:
        metrics, units, notes = end_to_end(run, cli_times, import_s, builds)
        # failed_ratio is zero on a correct run, so the result line carries
        # it as `attempted` and `failed` rather than as a metric
        reported = [name for name in metrics if name != "failed_ratio"]

    env = environment(args, workload)
    print(f"# wefhouse benchmark {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]} {notes.get(name, '')}".rstrip())
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }
    record = {"env": env, "result": result, "metrics": metrics, "cli_times": cli_times,
              "failures": run.failures}
    if args.trace:
        record["spans"] = tracer.spans
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
