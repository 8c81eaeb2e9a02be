"""The benchmark's workloads: generated configs, output checks and digests.

Each workload maps a benchmark seed to the dataset, noise and init seeds of
one or more ``ntkreg`` commands. The program only ever sees the generated
config. ``check`` reads a finished iteration's output directories and
returns the failures among its operations (sweep cells, commands or
equivalence lambdas) and a digest of the values that are compared with
``reference.json`` for the default seed.
"""

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Floating-point-level changes (another solver, another summation order) may
# move continuous outputs by a relative 1e-6 and flip a borderline prediction
# or two, which moves an error rate by at most 0.011 on these set sizes.
REL_TOL = 1e-6
ERROR_RATE_ABS_TOL = 0.011
# BoundReport documents total == main + sigma/lambda + delta exactly.
BOUND_SUM_RTOL = 1e-12

LAMBDA_GRID = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
NOISE_GRID = [0.0, 0.2, 0.4]
FLIP_P = 0.2


def _seeds(seed: int, count: int):
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _dataset(n, test_n, seed):
    spec = {"kind": "synth-sphere", "n": n, "d": 10, "target": "linear-sign", "seed": seed}
    if test_n:
        spec["test_n"] = test_n
    return spec


def _rows(path: Path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


# At this commit ``ntkreg sweep`` writes some ``bound_total`` cells as
# ``np.float64(...)`` (numpy 2 repr through ``_format_cell``). The value is
# still checked and compared; the format itself is a known CLI defect.
_NP_REPR = re.compile(r"np\.float64\((.*)\)")


def _number(text) -> float:
    match = _NP_REPR.fullmatch(text or "")
    return float(match.group(1) if match else text)


def _rate(text) -> bool:
    return _finite(text) and 0.0 <= float(text) <= 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, tiny) -> [(command, config), ...], run in this order.
    commands: object
    # configs by command -> operations in one iteration: sweep cells,
    # commands or equivalence lambdas.
    ops: object
    # (configs by command, out dirs by command) -> (failures, digest); at
    # most one failure per operation.
    check: object
    # Name of the throughput printed with the end-to-end metrics, and the
    # number of its units in one iteration, from the configs.
    rate_name: str = None
    rate_units: object = None


# ---------------------------------------------------------------------------
# sweep-krr


def _sweep_commands(seed: int, tiny: bool):
    data_seed, first = _seeds(seed, 2)
    # n=500 rather than 1000 keeps the structure (63 cells, 3 kernels) at
    # about 7 s per sweep, so a run holds several sweeps and the median is
    # steady on a shared 2-core machine.
    n = 60 if tiny else 500
    return [(
        "sweep",
        {
            "dataset": _dataset(n, n, data_seed),
            "noise": {"kind": "binary-flip", "p": FLIP_P},
            "model": {"kind": "analytic", "depth": 2},
            "method": "krr",
            "lambda_grid": LAMBDA_GRID,
            "noise_grid": NOISE_GRID,
            "seeds": [first, first + 1, first + 2],
            "workers": 1,
        },
    )]


def _sweep_cells(configs) -> int:
    config = configs["sweep"]
    return len(config["lambda_grid"]) * len(config["noise_grid"]) * len(config["seeds"])


def _sweep_check(configs, outs):
    config, out = configs["sweep"], outs["sweep"]
    cells = _sweep_cells(configs)
    rows = _rows(out / "results.csv")
    if len(rows) != cells:
        return [f"sweep: {len(rows)} result rows, expected {cells}"], {}
    failures = []
    digest = {}
    for i, row in enumerate(rows):
        noise, lam = float(row["noise"]), float(row["lambda"])
        needs_bound = noise > 0.0 and lam > 0.0
        problems = []
        if row["status"] != "ok":
            problems.append(f"status {row['status']}")
        if not (_rate(row["train_error_noisy"]) and _rate(row["test_error_clean"])):
            problems.append("error rates not in [0, 1]")
        bound = row["bound_total"]
        if needs_bound != bool(bound) or (needs_bound and not math.isfinite(_number(bound))):
            problems.append(f"bound_total {bound!r}")
        if problems:
            failures.append(f"sweep cell {i} (noise {noise}, lambda {lam}): {'; '.join(problems)}")
            continue
        digest[f"cell{i}.train_error"] = float(row["train_error_noisy"])
        digest[f"cell{i}.test_error"] = float(row["test_error_clean"])
        if needs_bound:
            digest[f"cell{i}.bound_total"] = _number(bound)
    summary = _rows(out / "summary.csv")
    if len(summary) != len(config["noise_grid"]):
        failures.append(f"sweep: {len(summary)} summary rows, expected {len(config['noise_grid'])}")
    return failures, digest


# ---------------------------------------------------------------------------
# oneshot-n3000


def _oneshot_commands(seed: int, tiny: bool):
    data_seed, noise_seed = _seeds(seed, 2)
    config = {
        "dataset": _dataset(120 if tiny else 3000, 40 if tiny else 1000, data_seed),
        "noise": {"kind": "binary-flip", "p": FLIP_P},
        "model": {"kind": "analytic", "depth": 3},
        "method": "krr",
        "lambda": 1.0,
        "seeds": [noise_seed],
    }
    return [("krr", config), ("bounds", dict(config))]


def _oneshot_check(configs, outs):
    failures = []
    digest = {}
    test_n = configs["krr"]["dataset"]["test_n"]
    results = _rows(outs["krr"] / "results.csv")
    predictions = _rows(outs["krr"] / "predictions.csv")
    krr_ok = (
        len(results) == 1
        and _rate(results[0]["train_error_noisy"])
        and _rate(results[0]["test_error_clean"])
        and len(predictions) == test_n
        and all(_finite(row["output_1"]) for row in predictions)
        and all(
            float(row["predicted_class"]) == (1.0 if float(row["output_1"]) >= 0.0 else -1.0)
            for row in predictions
        )
    )
    if krr_ok:
        digest["krr.train_error"] = float(results[0]["train_error_noisy"])
        digest["krr.test_error"] = float(results[0]["test_error_clean"])
        outputs = [float(row["output_1"]) for row in predictions]
        digest["krr.prediction_l2"] = math.sqrt(sum(v * v for v in outputs))
        for i in range(0, test_n, max(test_n // 8, 1)):
            digest[f"krr.prediction{i}"] = outputs[i]
    else:
        failures.append(f"krr: results.csv or predictions.csv ({len(predictions)} rows) malformed")
    report = json.loads((outs["bounds"] / "bound_report.json").read_text())
    terms = ("total", "main_term", "sigma_over_lambda_term", "delta_term", "y_kinv_y")
    if not all(_finite(report.get(key)) for key in terms):
        failures.append("bounds: bound_report.json has a missing or non-finite term")
    elif not math.isclose(
        report["total"],
        report["main_term"] + report["sigma_over_lambda_term"] + report["delta_term"],
        rel_tol=BOUND_SUM_RTOL,
    ):
        failures.append(f"bounds: total {report['total']!r} is not the sum of its three terms")
    else:
        digest.update({f"bounds.{key}": report[key] for key in terms})
    return failures, digest


# ---------------------------------------------------------------------------
# equivalence-w512


def _equivalence_commands(seed: int, tiny: bool):
    data_seed, noise_seed, init_seed = _seeds(seed, 3)
    return [(
        "equivalence",
        {
            "dataset": _dataset(20 if tiny else 300, None, data_seed),
            "noise": {"kind": "binary-flip", "p": FLIP_P},
            "model": {"kind": "net", "widths": [24, 24] if tiny else [512, 512], "init_seed": init_seed},
            "method": "linear-rdi",
            "lambda_grid": LAMBDA_GRID,
            "steps": 40 if tiny else 2000,
            "seeds": [noise_seed],
        },
    )]


def _equivalence_lambdas(configs):
    return [lam for lam in configs["equivalence"]["lambda_grid"] if lam > 0.0]


def _gd_steps(configs) -> int:
    return 2 * len(_equivalence_lambdas(configs)) * configs["equivalence"]["steps"]


def _equivalence_check(configs, outs):
    config, out = configs["equivalence"], outs["equivalence"]
    lambdas = _equivalence_lambdas(configs)
    steps = config["steps"]
    report = json.loads((out / "equivalence.json").read_text())
    rows = _rows(out / "trajectory.csv")
    if len(rows) != len(lambdas) * (steps + 1):
        return [f"equivalence: {len(rows)} trajectory rows, expected {len(lambdas) * (steps + 1)}"], {}
    failures = []
    digest = {}
    for i, lam in enumerate(lambdas):
        run = report["runs"].get(str(lam))
        if run is None or not (run["passed"] and run["max_rel"] <= report["tolerance"]):
            failures.append(f"equivalence lambda {lam}: {run}")
            continue
        last = rows[(i + 1) * (steps + 1) - 1]
        if not (_finite(last["objective_rdi"]) and float(last["lambda"]) == lam):
            failures.append(f"equivalence lambda {lam}: bad final trajectory row {last}")
            continue
        digest[f"lambda{lam}.eta"] = run["eta"]
        digest[f"lambda{lam}.objective"] = float(last["objective_rdi"])
        digest[f"lambda{lam}.dist_from_init"] = float(last["dist_from_init"])
    return failures, digest


# ---------------------------------------------------------------------------
# train-w2048


def _train_commands(seed: int, tiny: bool):
    data_seed, noise_seed, init_seed = _seeds(seed, 3)
    return [(
        "train",
        {
            "dataset": _dataset(20 if tiny else 100, 40 if tiny else 1000, data_seed),
            "noise": {"kind": "binary-flip", "p": FLIP_P},
            "model": {"kind": "net", "widths": [64] if tiny else [2048], "init_seed": init_seed},
            "method": "net-rdi",
            "lambda": 1.0,
            "steps": 20 if tiny else 500,
            "seeds": [noise_seed],
        },
    )]


def _train_check(configs, outs):
    config, out = configs["train"], outs["train"]
    rows = _rows(out / "trajectory.csv")
    if len(rows) != config["steps"] + 1:
        return [f"train: {len(rows)} trajectory rows, expected {config['steps'] + 1}"], {}
    if not all(_finite(row["objective"]) for row in rows):
        return ["train: non-finite objective in trajectory.csv"], {}
    last = rows[-1]
    return [], {
        "final.objective": float(last["objective"]),
        "final.train_error": float(last["train_error"]),
        "final.dist_l1": float(last["dist_l1"]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-krr",
            "63 KRR cells (n=500) on 3 identical analytic kernels: many shifted solves and cross "
            "kernels that could share one factorization",
            _sweep_commands, _sweep_cells, _sweep_check, "cells_per_s", _sweep_cells,
        ),
        Workload(
            "oneshot-n3000",
            "krr then bounds on one n=3000 kernel with no reuse: gram build, PSD check and a few "
            "large factorizations",
            _oneshot_commands, lambda configs: 2, _oneshot_check,
        ),
        Workload(
            "equivalence-w512",
            "width-512 two-layer net: materialized tangent features and 24k linearized GD steps",
            _equivalence_commands, lambda configs: len(_equivalence_lambdas(configs)),
            _equivalence_check, "gd_steps_per_s", _gd_steps,
        ),
        Workload(
            "train-w2048",
            "500 full-batch nonlinear train steps of a width-2048 net, bound by elementwise work",
            _train_commands, lambda configs: 1, _train_check, "train_steps_per_s",
            lambda configs: configs["train"]["steps"],
        ),
    )
}


def _tolerance_ok(key: str, value: float, expected: float) -> bool:
    if key.endswith("error"):
        return abs(value - expected) <= ERROR_RATE_ABS_TOL
    return math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=1e-12)


def compare_reference(workload: str, digest: dict) -> list:
    """Differences from the values recorded for the default seed."""
    if not REFERENCE_PATH.exists():
        return [f"no reference values at {REFERENCE_PATH.name}"]
    expected = json.loads(REFERENCE_PATH.read_text()).get(workload, {})
    problems = []
    for key, ref in expected.items():
        if key not in digest:
            problems.append(f"reference {key}: missing from the outputs")
        elif not _tolerance_ok(key, digest[key], ref):
            problems.append(f"reference {key}: got {digest[key]!r}, recorded {ref!r}")
    return problems
