#!/usr/bin/env python3
"""ntkreg benchmark: runs the real CLI commands and reports what they cost.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-krr --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every end-to-end metric, every workload
    python3 perfbench/selftest.py               # quick harness self-test at tiny sizes

Every command runs in a fresh child process (``perfbench/child.py``, which
calls ``ntkreg.cli.main`` as the ``ntkreg`` script does) with a fresh output
directory under ``.perfbench/``, one child at a time. BLAS keeps its default
thread count. Outputs are checked after every iteration.

``--trace 0`` runs the workload's commands once to warm up, then repeats
them until ``--seconds`` have passed (at least once) and reports medians of
the end-to-end metrics:

* ``wall_s``: child start to return, summed over the workload's commands;
* ``setup_s``: child start to command dispatch (interpreter, ``import
  ntkreg``, config validation), the median of the measured commands and of
  extra dispatch-only runs;
* ``peak_rss_mb``: peak resident memory of the largest command.

``--trace 1`` ignores ``--seconds``: after the warm-up it runs the workload
once untraced and twice with spans around every call into ntkreg's layers
(``perfbench/tracer.py``). It checks that the call counts and computed sizes
repeat exactly between the two traced runs, that the CSV payloads match the
untraced run byte for byte and that the top-level spans cover the traced
run time, and reports the per-layer metrics (mean of the two traced runs)
and the tracing overhead.

For the default seed every iteration's outputs are also compared with
``perfbench/reference.json`` (``--record-reference`` rewrites it).

The last line of standard output is one JSON object with ``correct``,
``attempted`` (operations: sweep cells, commands or equivalence lambdas),
``failed`` and ``metrics``. A full record, with the machine facts, goes to
``.perfbench/results/``. The exit code is 0 when every output check passed.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, compare_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

SETUP_PROBES = 8
# The whole run must end within this many seconds; a child still running
# at the deadline is killed and counted as failed.
RUN_DEADLINE_S = 170.0
# Top-level spans must cover a traced run's time after start-up, except for
# interpreter teardown: at most this share of it, or this many seconds.
MAX_UNTRACED_SHARE = 0.05
TEARDOWN_ALLOWANCE_S = 0.5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (span name, statistic, unit). Statistics: calls,
# total_s, self_s, size (computed from argument shapes, not measured).
PER_LAYER = {
    "krr.cho_factor.calls": ("krr.cho_factor", "calls", "count"),
    "krr.cho_factor.total_s": ("krr.cho_factor", "total_s", "s"),
    "krr.cho_factor.gflop": ("krr.cho_factor", "size", "GFLOP"),
    "krr.PSDSolver.calls": ("krr.PSDSolver", "calls", "count"),
    "krr.PSDSolver.total_s": ("krr.PSDSolver", "total_s", "s"),
    "krr.solve_checked.total_s": ("krr.PSDSolver.solve_checked", "total_s", "s"),
    "krr.krr_fit.self_s": ("krr.krr_fit", "self_s", "s"),
    "krr.KRRPredictor.predict.calls": ("krr.KRRPredictor.predict", "calls", "count"),
    "krr.KRRPredictor.predict.total_s": ("krr.KRRPredictor.predict", "total_s", "s"),
    "krr.export_predictions.total_s": ("krr.export_predictions", "total_s", "s"),
    "kernel.analytic_ntk_cross.calls": ("kernel.analytic_ntk_cross", "calls", "count"),
    "kernel.analytic_ntk_cross.total_s": ("kernel.analytic_ntk_cross", "total_s", "s"),
    "kernel.analytic_ntk.calls": ("kernel.analytic_ntk", "calls", "count"),
    "kernel.analytic_ntk.self_s": ("kernel.analytic_ntk", "self_s", "s"),
    "kernel.arccos_kernel0.total_s": ("kernel.arccos_kernel0", "total_s", "s"),
    "kernel.arccos_kernel1.total_s": ("kernel.arccos_kernel1", "total_s", "s"),
    "kernel.KernelMatrix.from_values.calls": ("kernel.KernelMatrix.from_values", "calls", "count"),
    "kernel.KernelMatrix.from_values.total_s": ("kernel.KernelMatrix.from_values", "total_s", "s"),
    "kernel.empirical_ntk.total_s": ("kernel.empirical_ntk", "total_s", "s"),
    "kernel.empirical_ntk_cross.total_s": ("kernel.empirical_ntk_cross", "total_s", "s"),
    "bounds.bound_binary.calls": ("bounds.bound_binary", "calls", "count"),
    "bounds.bound_binary.self_s": ("bounds.bound_binary", "self_s", "s"),
    "bounds.quad_form_inv.calls": ("bounds.quad_form_inv", "calls", "count"),
    "bounds.quad_form_inv.total_s": ("bounds.quad_form_inv", "total_s", "s"),
    "bounds.lemma1_bound.total_s": ("bounds.lemma1_bound", "total_s", "s"),
    "bounds.lemma2_bound.total_s": ("bounds.lemma2_bound", "total_s", "s"),
    "linmodel.linearize.self_s": ("linmodel.linearize", "self_s", "s"),
    "linmodel.run_gd_rdi.total_s": ("linmodel.run_gd_rdi", "total_s", "s"),
    "linmodel.run_gd_aux.total_s": ("linmodel.run_gd_aux", "total_s", "s"),
    "linmodel.check_equivalence.total_s": ("linmodel.check_equivalence", "total_s", "s"),
    "net.gradients_matrix.total_s": ("net.gradients_matrix", "total_s", "s"),
    "net.gradients_matrix.bytes": ("net.gradients_matrix", "size", "bytes"),
    "net.gradient_factors.total_s": ("net.gradient_factors", "total_s", "s"),
    "net.forward.total_s": ("net.forward", "total_s", "s"),
    "net.train_full.self_s": ("net.train_full", "self_s", "s"),
    "net.distance_to_init.calls": ("net.distance_to_init", "calls", "count"),
    "net.distance_to_init.total_s": ("net.distance_to_init", "total_s", "s"),
    "net.layer_norms.calls": ("net.layer_norms", "calls", "count"),
    "net.layer_norms.total_s": ("net.layer_norms", "total_s", "s"),
    "data.synth_sphere.calls": ("data.synth_sphere", "calls", "count"),
    "data.synth_sphere.total_s": ("data.synth_sphere", "total_s", "s"),
    "noise.corrupt.calls": ("noise.corrupt", "calls", "count"),
    "noise.corrupt.total_s": ("noise.corrupt", "total_s", "s"),
}
# Metrics derived from several spans or from both runs of a traced run.
DERIVED_PER_LAYER = {
    "krr.jitter_retry_share": "share",  # failed cho_factor attempts / attempts
    "linmodel.gd_steps": "count",  # GD steps over both trajectories, computed
    "kernel.cross.entries": "count",  # sum of m*n over cross kernels, computed
    "cli.self_s": "s",  # time in cli spans not covered by any other layer
    "tracing.coverage": "share",  # top-level span time / traced run time after set-up
    "tracing.overhead_s": "s",  # traced wall_s minus untraced wall_s
}
COMPUTED = ("krr.cho_factor.gflop", "net.gradients_matrix.bytes", "linmodel.gd_steps", "kernel.cross.entries")


class HarnessError(Exception):
    """The benchmark cannot run here (for example, no ntkreg sources)."""


@dataclass
class CommandRun:
    command: str
    returncode: int
    wall_s: float
    setup_s: float
    rss_mb: float
    pre_main_s: float  # child start to the call of ``cli.main``
    out: Path
    record: dict


@dataclass
class Iteration:
    runs: list
    ops: int
    failed: int
    failures: list
    digest: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(run.rss_mb for run in self.runs)


class Runner:
    """Runs commands of one workload in fresh processes and directories."""

    def __init__(self, workload, seed: int, tiny: bool, label: str):
        self.workload = workload
        self.commands = workload.commands(seed, tiny)
        self.configs = dict(self.commands)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = WORK / "runs" / label
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.check_reference = seed == DEFAULT_SEED and not tiny
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(self.dir)

    def run(self, command: str, config: dict, mode: str) -> CommandRun:
        self.count += 1
        base = self.dir / f"{self.count:03d}-{command}-{mode}"
        out = base.with_suffix(".out")
        config_path = base.with_suffix(".config.json")
        record_path = base.with_suffix(".record.json")
        config_path.write_text(json.dumps(dict(config, out=str(out)), indent=2))
        argv = [sys.executable, str(CHILD), str(record_path), mode, command, "--config", str(config_path)]
        with open(base.with_suffix(".log"), "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        if record and Path(record["ntkreg_file"]).resolve().parent.parent != SRC:
            raise HarnessError(f"child imported ntkreg from {record['ntkreg_file']}, not {SRC}")
        setup = record.get("dispatch", float("nan")) - start
        pre_main = record.get("main_start", float("nan")) - start
        return CommandRun(
            command, proc.returncode, end - start, setup, usage.ru_maxrss / 1024.0, pre_main, out, record
        )

    def iteration(self, mode: str, keep: bool = False) -> Iteration:
        """Run every command once and check the outputs. Outputs are deleted
        afterwards unless ``keep`` is set or a check failed."""
        runs = [self.run(command, config, mode) for command, config in self.commands]
        ops = self.workload.ops(self.configs)
        failures = [f"{r.command} exited with {r.returncode}" for r in runs if r.returncode != 0]
        try:
            checked, digest = self.workload.check(self.configs, {r.command: r.out for r in runs})
            if self.check_reference:
                checked += compare_reference(self.workload.name, digest)
        except (OSError, KeyError, ValueError) as exc:
            failures.append(f"output check could not read the outputs: {exc!r}")
        if failures:
            # A failed exit or unreadable output fails every operation.
            return Iteration(runs, ops, ops, failures)
        if not (keep or checked):
            self.discard_outputs(runs)
        return Iteration(runs, ops, min(len(checked), ops), checked, digest)

    def setup_probe(self) -> float:
        command, config = self.commands[0]
        return self.run(command, config, "setup").setup_s

    def discard_outputs(self, runs) -> None:
        for run in runs:
            shutil.rmtree(run.out, ignore_errors=True)


# ---------------------------------------------------------------------------
# span aggregation


def aggregate_spans(spans) -> dict:
    """Per span name: calls, failed, total_s, self_s and computed size."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, failed, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, parent, start, end, failed, size) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "size": 0.0})
        entry["calls"] += 1
        entry["failed"] += int(failed)
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["size"] += size
    return stats


def layer_metrics(run: CommandRun) -> dict:
    """Per-layer metrics of one traced command, plus its top-level span time."""
    spans = run.record.get("spans", [])
    stats = aggregate_spans(spans)
    empty = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "size": 0.0}
    values = {metric: stats.get(span, empty)[stat] for metric, (span, stat, _) in PER_LAYER.items()}
    cho = stats.get("krr.cho_factor", empty)
    values["krr.cho_factor.failed"] = cho["failed"]
    values["linmodel.gd_steps"] = sum(stats.get(s, empty)["size"] for s in ("linmodel.run_gd_rdi", "linmodel.run_gd_aux"))
    values["kernel.cross.entries"] = sum(
        stats.get(s, empty)["size"] for s in ("kernel.analytic_ntk_cross", "kernel.empirical_ntk_cross")
    )
    values["cli.self_s"] = sum(entry["self_s"] for name, entry in stats.items() if name.startswith("cli."))
    values["top_level_s"] = sum(end - start for _, parent, start, end, _, _ in spans if parent < 0)
    return values


def _counts(values: dict) -> dict:
    keys = [m for m, (_, stat, _) in PER_LAYER.items() if stat in ("calls", "size")]
    keys += ["krr.cho_factor.failed", "linmodel.gd_steps", "kernel.cross.entries"]
    return {k: values[k] for k in keys}


def _csv_payloads(iteration: Iteration) -> dict:
    return {
        f"{run.command}/{path.name}": path.read_bytes()
        for run in iteration.runs
        for path in sorted(run.out.glob("*.csv"))
    }


# ---------------------------------------------------------------------------
# modes


def measure(workload, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Untraced run: repeat the workload until ``seconds`` have passed."""
    runner = Runner(workload, seed, tiny, f"{workload.name}-s{seed}-t0")
    # Half the dispatch-only probes run before the iterations and half
    # after, so slow phases of a shared machine weigh less on the median.
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES // 2)]
    # The first iteration is checked but not timed: on a virtual machine the
    # first large allocations after a pause run up to 25% slower, which would
    # make the median depend on how many iterations fit in ``seconds``.
    iterations = [runner.iteration("plain")]
    start = time.monotonic()
    while not iterations[-1].failures and (len(iterations) < 2 or time.monotonic() - start < seconds):
        iterations.append(runner.iteration("plain"))
    timed = iterations[1:] or iterations
    setups += [runner.setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups += [run.setup_s for it in iterations for run in it.runs]
    failures = [f for it in iterations for f in it.failures]
    wall = statistics.median(it.wall_s for it in timed)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(it.rss_mb for it in timed),
    }
    extras = {}
    if workload.rate_name:
        extras[workload.rate_name] = (workload.rate_units(runner.configs) / wall, "1/s")
    ops = sum(it.ops for it in iterations)
    failed = sum(it.failed for it in iterations)
    extras["failed_share"] = (failed / ops, "share")
    extras["ops_total"] = (ops, "count")
    return {
        "metrics": metrics,
        "extras": extras,
        "samples": {
            "warm_up_wall_s": iterations[0].wall_s,
            "wall_s": [it.wall_s for it in timed],
            "setup_s": setups,
            "peak_rss_mb": [it.rss_mb for it in timed],
        },
        "attempted": ops,
        "failed": failed,
        "failures": failures,
    }


def _traced_values(iteration: Iteration, failures: list) -> dict:
    """Per-layer values of one traced iteration, summed over its commands."""
    values = {"coverage": 1.0}
    for command_run in iteration.runs:
        layer = layer_metrics(command_run)
        run_s = command_run.wall_s - command_run.pre_main_s
        uncovered = run_s - layer.pop("top_level_s")
        if uncovered > max(MAX_UNTRACED_SHARE * run_s, TEARDOWN_ALLOWANCE_S):
            failures.append(f"{command_run.command}: {uncovered:.3f} s of the traced run is outside the top-level spans")
        values["coverage"] = min(values["coverage"], 1.0 - uncovered / run_s)
        for key, value in layer.items():
            values[key] = values.get(key, 0) + value
    return values


def trace(workload, seed: int, tiny: bool = False) -> dict:
    """One untraced and two traced runs; per-layer metrics and self-checks."""
    runner = Runner(workload, seed, tiny, f"{workload.name}-s{seed}-t1")
    warm_up = runner.iteration("plain")  # untimed, as in ``measure``
    plain = runner.iteration("plain", keep=True)
    traced = [runner.iteration("trace", keep=True), runner.iteration("trace", keep=True)]
    failures = [f for it in (warm_up, plain, *traced) for f in it.failures]
    payload = _csv_payloads(plain)
    for it in traced:
        if _csv_payloads(it) != payload:
            failures.append("traced run wrote CSV payloads that differ from the untraced run")
    per_run = [_traced_values(it, failures) for it in traced]
    first, second = (_counts(values) for values in per_run)
    if first != second:
        diff = {k: (v, second[k]) for k, v in first.items() if v != second[k]}
        failures.append(f"call counts or computed sizes differ between the two traced runs: {diff}")
    metrics = {
        name: statistics.mean(values[name] for values in per_run)
        for name in list(PER_LAYER) + ["linmodel.gd_steps", "kernel.cross.entries", "cli.self_s"]
    }
    attempts = first["krr.cho_factor.calls"]
    metrics["krr.jitter_retry_share"] = first["krr.cho_factor.failed"] / attempts if attempts else 0.0
    metrics["tracing.coverage"] = min(values["coverage"] for values in per_run)
    metrics["tracing.overhead_s"] = statistics.mean(it.wall_s for it in traced) - plain.wall_s
    if not failures:
        runner.discard_outputs([run for it in (plain, *traced) for run in it.runs])
    failed = sum(it.failed for it in (warm_up, plain, *traced))
    ops = sum(it.ops for it in (warm_up, plain, *traced))
    return {
        "metrics": metrics,
        "extras": {"failed_share": (failed / ops, "share"), "ops_total": (ops, "count")},
        "samples": {"untraced_wall_s": plain.wall_s, "traced_wall_s": [it.wall_s for it in traced]},
        "attempted": ops,
        "failed": failed,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# machine facts and reporting


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy
    import scipy

    meminfo = _read("/proc/meminfo") or ""
    match = re.search(r"MemTotal:\s+(\d+) kB", meminfo)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(str(index / "level")) == "3":
            l3 = _read(str(index / "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ram_mb": int(match.group(1)) // 1024 if match else None,
        "l3_cache": l3,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": 1,
        "fresh_process_per_command": True,
        "fresh_output_dir_per_command": True,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PER_LAYER:
        return PER_LAYER[name][2]
    return DERIVED_PER_LAYER[name]


def report(workload, seed: int, trace_on: bool, result: dict) -> None:
    kind = "per-layer (traced)" if trace_on else "end-to-end (untraced)"
    print(f"# {workload.name}, seed {seed}, {kind}: {workload.why}")
    for name, value in result["metrics"].items():
        note = " (computed, not measured)" if name in COMPUTED else ""
        print(f"{name:42s} {value:>16.6g} {unit_of(name)}{note}")
    for name, (value, unit) in result["extras"].items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def run_one(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    workload = WORKLOADS[name]
    result = trace(workload, seed) if trace_on else measure(workload, seed, seconds)
    report(workload, seed, trace_on, result)
    record = dict(result, workload=name, seed=seed, trace=trace_on, seconds=seconds,
                  extras={k: v[0] for k, v in result["extras"].items()}, machine=machine_facts())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-s{seed}-t{int(trace_on)}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(f"# full record: {path.relative_to(ROOT)}")
    return result


def record_reference() -> None:
    """Write the default seed's output digests to ``reference.json``."""
    reference = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, DEFAULT_SEED, False, f"{name}-reference")
        runner.check_reference = False
        iteration = runner.iteration("plain")
        if iteration.failures:
            raise HarnessError(f"{name} failed its output checks: {iteration.failures}")
        reference[name] = iteration.digest
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run every workload once at the default seed and rewrite reference.json")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (args.workload or args.record_reference):
        parser.error("give --workload or --record-reference")
    if not (SRC / "ntkreg" / "cli.py").is_file():
        print(f"perfbench: no ntkreg sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.record_reference:
            record_reference()
            return 0
        results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = all(not r["failures"] for r in results)
    if args.workload != "all":
        result = results[0]
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in result["metrics"].items()}
        print(json.dumps({"correct": correct, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
