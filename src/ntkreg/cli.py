"""Batch experiment runner.

Subcommands: ``kernel``, ``equivalence``, ``train``, ``krr``, ``bounds``,
``sweep``. Configuration comes from a JSON file plus flag overrides; the
fully resolved configuration is always written to the output directory as
``resolved_config.json`` so every run is auditable. CSV payloads are
deterministic given (config, seeds); timestamps appear only in log lines.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O or file-format failure, 5 a requested check did not meet its
tolerance, 1 anything unexpected.
"""

import argparse
import concurrent.futures
import copy
import json
import os
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .data import (
    Provenance,
    load_kernel,
    load_mnist_binary,
    make_kernel_cache,
    onehot_matrix,
    prediction_error,
    save_kernel,
    split_dataset,
    synth_multiclass,
    synth_sphere,
)
from .errors import (
    DataFormatError,
    DivergenceError,
    EmptyDatasetError,
    SingularityError,
    StaleCacheError,
    ToolkitError,
    TrickViolationError,
    ValidationError,
)
from .kernel import AnalyticNTK, EmpiricalNTK, empirical_ntk
from .krr import ShiftedSolvers, export_predictions, krr_fit
from .linmodel import check_equivalence, linearize, run_gd_aux, run_gd_rdi
from .net import NetConfig, TrainConfig, distance_to_init, forward, init_mlp, train_full

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_CHECK_FAILED = 5

DEFAULT_CONFIG = {
    "dataset": {"kind": "synth-sphere", "n": 200, "d": 10, "target": "linear-sign", "seed": 1},
    "test_dataset": None,
    "noise": {"kind": "none"},
    "model": {"kind": "analytic", "depth": 2},
    "method": "krr",
    "lambda": 1.0,
    "lambda_grid": [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    "noise_grid": [0.0],
    "eta": None,
    "steps": 1000,
    "seeds": [0],
    "delta": 0.1,
    "sigma": 0.1,
    "constant_mode": "explicit-appendix",
    "tolerance": 1e-10,
    "workers": 1,
    "out": "ntkreg-out",
}

_METHODS = ("krr", "linear-rdi", "linear-aux", "net-rdi", "net-aux", "net-vanilla")


def _log(message: str) -> None:
    stamp = time.strftime("%H:%M:%S")
    print(f"[ntkreg {stamp}] {message}")


def load_config(path=None, overrides=None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        config.update(user)
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = value
    _validate_config(config)
    return config


def _validate_config(config: dict) -> None:
    if not config["seeds"]:
        raise ValidationError("config needs at least one seed")
    if any(lam < 0.0 for lam in config["lambda_grid"]):
        raise ValidationError("lambda grid values must be >= 0")
    if config["lambda"] < 0.0:
        raise ValidationError("lambda must be >= 0")
    if config["method"] not in _METHODS:
        raise ValidationError(f"unknown method {config['method']!r}; choose from {_METHODS}")
    dataset = config["dataset"]
    if dataset["kind"] == "mnist-binary":
        for key in ("images", "labels"):
            if not os.path.exists(dataset[key]):
                raise ValidationError(f"referenced file does not exist: {dataset[key]}")
    if config["method"].startswith("linear-") and dataset["kind"] == "synth-multiclass":
        raise ValidationError("linear-* methods need binary or regression data")
    noise = config["noise"]
    if noise.get("kind") == "class-transition":
        if not os.path.exists(noise["csv"]):
            raise ValidationError(f"referenced file does not exist: {noise['csv']}")
        if len({level for level in config["noise_grid"] if level > 0.0}) > 1:
            raise ValidationError("a class-transition noise_grid has at most one positive "
                                  "level; each applies the same transition matrix")


def build_dataset(spec: dict):
    kind = spec.get("kind")
    if kind == "synth-sphere":
        return synth_sphere(int(spec["n"]), int(spec["d"]), spec["target"], int(spec["seed"]))
    if kind == "synth-multiclass":
        return synth_multiclass(
            int(spec["n"]), int(spec["d"]), int(spec.get("classes", 3)), int(spec["seed"])
        )
    if kind == "mnist-binary":
        return load_mnist_binary(
            spec["images"], spec["labels"], int(spec["class_a"]), int(spec["class_b"]),
            limit=spec.get("limit"),
        )
    raise ValidationError(f"unknown dataset kind {kind!r}")


def build_train_test(config: dict):
    """Training set plus matched test set (or None).

    A ``test_n`` field on a synth-sphere dataset draws one larger sample and
    splits it, so train and test share the target direction; an explicit
    ``test_dataset`` spec (for example the MNIST test files) takes priority.
    """
    spec = config["dataset"]
    if config["test_dataset"]:
        return build_dataset(spec), build_dataset(config["test_dataset"])
    test_n = spec.get("test_n")
    if test_n and spec.get("kind") in ("synth-sphere", "synth-multiclass"):
        joint = dict(spec, n=int(spec["n"]) + int(test_n))
        full = build_dataset(joint)
        return split_dataset(full, int(spec["n"]))
    return build_dataset(spec), None


def build_noise_model(spec: dict, override_level=None):
    """The noise model of ``spec``; a sweep's ``override_level`` of 0.0 means none.

    A positive level is p for flips and sigma for additive noise; transitions ignore it.
    """
    kind = spec.get("kind", "none")
    if override_level == 0.0:
        return None
    if override_level is not None and kind in ("none", "binary-flip"):
        return noise_mod.BinaryFlip(float(override_level))
    if override_level is not None and kind == "additive":
        return noise_mod.AdditiveNoise(float(override_level), spec.get("shape", "gaussian"))
    if kind == "none":
        return None
    if kind == "binary-flip":
        return noise_mod.BinaryFlip(float(spec["p"]))
    if kind == "additive":
        return noise_mod.AdditiveNoise(float(spec["sigma"]), spec.get("shape", "gaussian"))
    if kind == "class-transition":
        return noise_mod.read_transition_csv(spec["csv"])
    raise ValidationError(f"unknown noise kind {kind!r}")


def apply_noise(data, model, seed):
    if model is None:
        return data
    return noise_mod.corrupt(data, model, seed)


def build_net_config(spec: dict, input_dim: int, outputs: int) -> NetConfig:
    widths = tuple(int(w) for w in spec.get("widths", [512]))
    return NetConfig(
        input_dim=input_dim,
        widths=widths,
        outputs=outputs,
        freeze_first_last=bool(spec.get("freeze_first_last", True)),
        difference_trick=bool(spec.get("difference_trick", True)),
    )


def build_kernel_source(config: dict, data, seed=0):
    model = config["model"]
    kind = model.get("kind")
    if kind == "analytic":
        return AnalyticNTK(int(model.get("depth", 2)))
    if kind == "net":
        net_cfg = build_net_config(model, data.d, data.num_outputs)
        mlp = init_mlp(net_cfg, (int(model.get("init_seed", 0)), int(seed)))
        return EmpiricalNTK(mlp)
    raise ValidationError(f"unknown model kind {kind!r}")


def _ensure_out(config: dict) -> str:
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "resolved_config.json"), "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------------------
# kernel command


def cmd_kernel(config: dict) -> int:
    out = _ensure_out(config)
    data, _ = build_train_test(config)
    source = build_kernel_source(config, data)
    cache_path = os.path.join(out, "kernel.ntkk")
    matrix = None
    if os.path.exists(cache_path):
        try:
            cache = load_kernel(cache_path, data)
            if cache.provenance.kind == source.kind:
                matrix = cache.matrix
                _log(f"cache hit: reusing {cache_path}")
        except StaleCacheError:
            _log(f"stale cache at {cache_path}; rebuilding")
        except DataFormatError:
            _log(f"malformed cache at {cache_path}; rebuilding")
    if matrix is None:
        _log(f"building {source.kind} kernel for n={data.n}")
        matrix = source.gram(data)
        model = config["model"]
        if source.kind == "analytic":
            provenance = Provenance(kind="analytic", depth=int(model.get("depth", 2)))
        else:
            provenance = Provenance(
                kind="empirical",
                width=int(model.get("widths", [512])[0]),
                depth=len(model.get("widths", [512])) + 1,
                seed=int(model.get("init_seed", 0)),
            )
        save_kernel(make_kernel_cache(matrix, provenance, data), cache_path)
        _log(f"wrote cache {cache_path}")
    print(f"trace = {matrix.trace!r}")
    print(f"op_norm = {matrix.op_norm!r}")
    print(f"min_eig = {matrix.min_eig!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# equivalence command


def cmd_equivalence(config: dict) -> int:
    out = _ensure_out(config)
    model = config["model"]
    if model.get("kind") != "net":
        raise ValidationError("the equivalence check needs a finite-width net model")
    seed = int(config["seeds"][0])
    data, _ = build_train_test(config)
    noise_model = build_noise_model(config["noise"])
    data = apply_noise(data, noise_model, (seed, 0))
    net_cfg = build_net_config(model, data.d, 1)
    mlp = init_mlp(net_cfg, (int(model.get("init_seed", 0)), seed))
    lm = linearize(mlp, data)
    y = np.asarray(data.noisy_labels, dtype=np.float64)
    lambdas = [lam for lam in config["lambda_grid"] if lam > 0.0] or [config["lambda"]]
    steps = int(config["steps"])
    tol = float(config["tolerance"])
    rows = []
    summary = {}
    all_pass = True
    for lam in lambdas:
        eta = config["eta"] if config["eta"] else lm.default_eta(lam)
        traj_rdi = run_gd_rdi(lm, y, lam, eta=eta, steps=steps)
        traj_aux = run_gd_aux(lm, y, lam, eta=eta, steps=steps)
        report = check_equivalence(traj_rdi, traj_aux, tol=tol)
        summary[str(lam)] = {
            "eta": eta,
            "max_abs": report.max_abs,
            "max_rel": report.max_rel,
            "passed": report.passed,
        }
        all_pass = all_pass and report.passed
        for t in range(steps + 1):
            rows.append(
                (
                    lam,
                    t,
                    float(traj_rdi.objectives[t]),
                    float(traj_aux.objectives[t]),
                    float(traj_rdi.dist_from_init[t]),
                    float(report.gaps[t]),
                    float(report.rel_gaps[t]),
                )
            )
        _log(f"lambda={lam}: max relative gap {report.max_rel:.3e} ({'pass' if report.passed else 'FAIL'})")
    _write_csv(
        os.path.join(out, "trajectory.csv"),
        ["lambda", "t", "objective_rdi", "objective_aux", "dist_from_init", "gap", "rel_gap"],
        rows,
    )
    with open(os.path.join(out, "equivalence.json"), "w") as f:
        json.dump({"tolerance": tol, "runs": summary}, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# train command


def cmd_train(config: dict) -> int:
    out = _ensure_out(config)
    method = config["method"]
    if not method.startswith("net-"):
        raise ValidationError("the train command needs a net-* method")
    seed = int(config["seeds"][0])
    data, test = build_train_test(config)
    noise_model = build_noise_model(config["noise"])
    data = apply_noise(data, noise_model, (seed, 0))
    net_cfg = build_net_config(config["model"], data.d, data.num_outputs)
    mlp = init_mlp(net_cfg, (int(config["model"].get("init_seed", 0)), seed))
    lam = float(config["lambda"])
    eta = config["eta"]
    if not eta:
        eta = 1.0 / (empirical_ntk(mlp, data).op_norm + lam * lam)
        _log(f"using default eta = {eta:.6g}")
    objective = method.removeprefix("net-")
    trained, aux, log = train_full(
        mlp, data, TrainConfig(objective=objective, eta=float(eta), steps=int(config["steps"]), lam=lam)
    )
    log.to_csv(os.path.join(out, "trajectory.csv"))
    dist = distance_to_init(trained)
    _log(f"final objective {log.objective[-1]:.6g}, train error {log.train_error[-1]:.4f}")
    _log(f"distance to init per layer: {[round(float(v), 6) for v in dist]}")
    if test is not None:
        err = prediction_error(forward(trained, test.inputs), test.clean_labels, test.task)
        _log(f"clean test error {err:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# krr command


def cmd_krr(config: dict) -> int:
    out = _ensure_out(config)
    seed = int(config["seeds"][0])
    data, test = build_train_test(config)
    noise_model = build_noise_model(config["noise"])
    data = apply_noise(data, noise_model, (seed, 0))
    source = build_kernel_source(config, data, seed)
    gram = source.gram(data)
    lam = float(config["lambda"])
    predictor = krr_fit(gram, data.fit_targets(), lam, kernel_source=source, train_data=data)
    # In-sample predictions from the Gram matrix: evaluating k(X, X) again
    # would repeat the kernel build and, at large n, set the command's peak memory.
    train_err = prediction_error(gram.values @ predictor.alpha.T, data.noisy_labels, data.task)
    row = {"lambda": lam, "train_error_noisy": train_err, "test_error_clean": None}
    if test is not None:
        path = os.path.join(out, "predictions.csv")
        test_predictions = export_predictions(predictor, test.inputs, path)
        row["test_error_clean"] = prediction_error(test_predictions, test.clean_labels, test.task)
    _write_csv(
        os.path.join(out, "results.csv"),
        ["lambda", "train_error_noisy", "test_error_clean"],
        [(row["lambda"], row["train_error_noisy"], row["test_error_clean"])],
    )
    _log(f"lambda={lam}: train error (noisy) {train_err:.4f}, test error {row['test_error_clean']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds command


def _noise_bound(config, data, gram, noise, lam, solvers=None):
    """The bound report of flip or class-transition ``noise`` on ``data``; None for other noise."""
    args = (lam, float(config["delta"]), data.n)
    options = {"constant_mode": config["constant_mode"], "solvers": solvers}
    if isinstance(noise, noise_mod.BinaryFlip):
        return bounds_mod.bound_binary(gram, data.clean_labels, noise.p, *args, **options)
    if isinstance(noise, noise_mod.ClassTransition):
        Y = onehot_matrix(data.clean_labels, data.num_classes)
        return bounds_mod.bound_multiclass(gram, Y, noise.matrix, *args, **options)
    return None


def cmd_bounds(config: dict) -> int:
    out = _ensure_out(config)
    seed = int(config["seeds"][0])
    data, _ = build_train_test(config)
    noise_spec = config["noise"]
    source = build_kernel_source(config, data, seed)
    gram = source.gram(data)
    lam = float(config["lambda"])
    if lam <= 0.0:
        raise ValidationError("bound reports need lambda > 0")
    delta = float(config["delta"])
    mode = config["constant_mode"]
    if noise_spec.get("kind", "none") in ("binary-flip", "class-transition"):
        report = _noise_bound(config, data, gram, build_noise_model(noise_spec), lam)
    else:
        sigma = float(noise_spec.get("sigma", config["sigma"]))
        cfg = bounds_mod.BoundConfig(lam=lam, sigma=sigma, delta=delta, constant_mode=mode)
        report = bounds_mod.bound_additive(gram, data.clean_labels, cfg, data.n)
    report.to_json(os.path.join(out, "bound_report.json"))
    _log(f"bound total = {report.total:.6g} (mode {mode})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep command


def _sweep_cells(config: dict):
    cells = []
    index = 0
    for noise_idx, noise_level in enumerate(config["noise_grid"]):
        for lam in config["lambda_grid"]:
            for seed in config["seeds"]:
                cells.append(
                    {
                        "index": index,
                        "noise_idx": noise_idx,
                        "noise": float(noise_level),
                        "lambda": float(lam),
                        "seed": int(seed),
                    }
                )
                index += 1
    return cells


def _sweep_groups(config: dict, cells: list) -> list:
    """The sweep's plan: cells grouped by the work they share.

    krr cells share a kernel, keyed by (dataset, model) plus, for net models
    only, the seed, because the empirical kernel depends on the init seed
    and the analytic one does not. Every other method trains per cell, so
    each of its cells is a group of its own.
    """
    if config["method"] != "krr":
        return [[cell] for cell in cells]
    by_seed = config["model"].get("kind") == "net"
    groups = {}
    for cell in cells:
        groups.setdefault(cell["seed"] if by_seed else None, []).append(cell)
    return list(groups.values())


_RESULT_HEADER = [
    "noise", "lambda", "seed", "method", "train_error_noisy",
    "test_error_clean", "distance_to_init", "bound_total", "status",
]


def _row(config, cell, status, **values) -> dict:
    """One results.csv row; values not given stay empty."""
    row = dict.fromkeys(_RESULT_HEADER)
    row.update({"noise": cell["noise"], "lambda": cell["lambda"], "seed": cell["seed"],
                "method": config["method"], "status": status}, **values)
    return row


def _error_row(config, cell, exc) -> dict:
    return _row(config, cell, f"error:{type(exc).__name__}")


def _cell_row(config, cell, train, test, train_predictions, test_predictions,
              distance=None, bound_total=None) -> dict:
    return _row(
        config, cell, "ok",
        train_error_noisy=prediction_error(train_predictions, train.noisy_labels, train.task),
        test_error_clean=(
            None if test is None
            else prediction_error(test_predictions, test.clean_labels, test.task)
        ),
        distance_to_init=distance,
        bound_total=bound_total,
    )


def _noisy_train(config, cell, train):
    noise_model = build_noise_model(config["noise"], override_level=cell["noise"])
    return apply_noise(train, noise_model, (cell["seed"], cell["noise_idx"]))


def _krr_group_rows(config: dict, cells: list) -> dict:
    """Rows of the krr cells that share one kernel, by cell index.

    The split, the Gram matrix K and the test cross matrix C are built once.
    Cells are visited ridge by ridge, so each shift lam^2 is factored once
    and the shift-0 factor also serves the bounds' y^T K^-1 y. A cell then
    costs O(n^2) per output: a solve, K @ alpha, C @ alpha and the bound
    arithmetic. Cells fit ``DataSet.fit_targets``, one-hot for multiclass.
    """
    train, test = build_train_test(config)
    source = build_kernel_source(config, train, cells[0]["seed"])
    gram = source.gram(train)
    cross = source.cross(test.inputs, train) if test is not None else None
    solvers = ShiftedSolvers(gram)
    noisy = {}
    rows = {}
    for cell in sorted(cells, key=lambda c: c["lambda"]):
        try:
            key = (cell["noise_idx"], cell["seed"])
            if key not in noisy:
                noisy[key] = _noisy_train(config, cell, train)
            noisy_data = noisy[key]
            lam = cell["lambda"]
            alpha = krr_fit(gram, noisy_data.fit_targets(), lam, solvers=solvers).alpha
            noise = build_noise_model(config["noise"], override_level=cell["noise"])
            report = _noise_bound(config, train, gram, noise, lam, solvers) if lam > 0.0 else None
            rows[cell["index"]] = _cell_row(
                config, cell, noisy_data, test, gram.values @ alpha.T,
                cross @ alpha.T if cross is not None else None,
                bound_total=report.total if report is not None else None,
            )
        except ToolkitError as exc:
            rows[cell["index"]] = _error_row(config, cell, exc)
    return rows


def _trained_cell_row(config: dict, cell: dict) -> dict:
    """Row of one linear-* or net-* cell, which trains its own model."""
    method = config["method"]
    train, test = build_train_test(config)
    train = _noisy_train(config, cell, train)
    lam = cell["lambda"]
    seed = cell["seed"]
    if method.startswith("linear-"):
        model = config["model"]
        if model.get("kind") != "net":
            raise ValidationError("linear-* methods need a finite-width net model")
        net_cfg = build_net_config(model, train.d, 1)
        mlp = init_mlp(net_cfg, (int(model.get("init_seed", 0)), seed))
        lm = linearize(mlp, train)
        y = train.fit_targets()
        eta = config["eta"] if config["eta"] else lm.default_eta(lam)
        if method == "linear-rdi":
            traj = run_gd_rdi(lm, y, lam, eta=eta, steps=int(config["steps"]))
        else:
            if lam <= 0.0:
                raise ValidationError("linear-aux needs lambda > 0")
            traj = run_gd_aux(lm, y, lam, eta=eta, steps=int(config["steps"]))
        coeffs = traj.final_coeffs()
        train_predictions = lm.K.values @ coeffs
        test_predictions = lm.predict(coeffs, test.inputs) if test is not None else None
        distance = float(traj.dist_from_init[-1])
    elif method.startswith("net-"):
        net_cfg = build_net_config(config["model"], train.d, train.num_outputs)
        mlp = init_mlp(net_cfg, (int(config["model"].get("init_seed", 0)), seed))
        eta = config["eta"]
        if not eta:
            eta = 1.0 / (empirical_ntk(mlp, train).op_norm + lam * lam)
        trained, _, log = train_full(
            mlp, train,
            TrainConfig(method.removeprefix("net-"), eta=float(eta), steps=int(config["steps"]), lam=lam),
        )
        train_predictions = forward(trained, train.inputs)
        test_predictions = forward(trained, test.inputs) if test is not None else None
        distance = float(np.linalg.norm(distance_to_init(trained)))
    else:
        raise ValidationError(f"unknown method {method!r}")
    return _cell_row(config, cell, train, test, train_predictions, test_predictions, distance=distance)


def _group_worker(payload) -> dict:
    """Rows of one group by cell index; a failure shared by the group fails all its cells."""
    config, cells = payload
    try:
        if config["method"] == "krr":
            return _krr_group_rows(config, cells)
        return {cell["index"]: _trained_cell_row(config, cell) for cell in cells}
    except ToolkitError as exc:
        return {cell["index"]: _error_row(config, cell, exc) for cell in cells}


def cmd_sweep(config: dict) -> int:
    out = _ensure_out(config)
    if not config["lambda_grid"]:
        raise ValidationError("sweep needs a nonempty lambda grid")
    if not config["noise_grid"]:
        raise ValidationError("sweep needs a nonempty noise grid")
    cells = _sweep_cells(config)
    groups = _sweep_groups(config, cells)
    _log(f"running {len(cells)} sweep cells in {len(groups)} groups with method {config['method']}")
    workers = min(int(config["workers"]), len(groups))
    payloads = [(config, group) for group in groups]
    results = [None] * len(cells)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            group_rows = list(pool.map(_group_worker, payloads))
    else:
        group_rows = [_group_worker(payload) for payload in payloads]
    for rows in group_rows:
        for index, row in rows.items():
            results[index] = row
    _write_csv(
        os.path.join(out, "results.csv"),
        _RESULT_HEADER,
        [tuple(row[h] for h in _RESULT_HEADER) for row in results],
    )

    # Best-lambda-per-noise summary over seed-averaged clean test error.
    summary_rows = []
    for noise_level in config["noise_grid"]:
        noise_level = float(noise_level)
        by_lambda = {}
        for row in results:
            if row["noise"] != noise_level or row["status"] != "ok":
                continue
            if row["test_error_clean"] is None:
                continue
            by_lambda.setdefault(row["lambda"], []).append(row["test_error_clean"])
        if not by_lambda:
            continue
        means = {lam: float(np.mean(v)) for lam, v in by_lambda.items()}
        best_lambda = min(means, key=lambda lam: (means[lam], lam))
        summary_rows.append(
            (noise_level, best_lambda, means[best_lambda], means.get(0.0))
        )
    _write_csv(
        os.path.join(out, "summary.csv"),
        ["noise", "best_lambda", "best_test_error", "lambda0_test_error"],
        summary_rows,
    )

    # Distance-vs-hyperparameter table (seed-averaged) for methods that track it.
    distance_rows = []
    for noise_level in config["noise_grid"]:
        for lam in config["lambda_grid"]:
            values = [
                row["distance_to_init"]
                for row in results
                if row["noise"] == float(noise_level)
                and row["lambda"] == float(lam)
                and row["status"] == "ok"
                and row["distance_to_init"] is not None
            ]
            if values:
                distance_rows.append((float(noise_level), float(lam), float(np.mean(values))))
    if distance_rows:
        _write_csv(
            os.path.join(out, "distance_summary.csv"),
            ["noise", "lambda", "mean_distance_to_init"],
            distance_rows,
        )
    failures = sum(1 for row in results if row["status"] != "ok")
    _log(f"sweep finished: {len(cells) - failures} ok, {failures} failed cells")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ntkreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("kernel", "build (or reuse) a kernel matrix cache and print its statistics"),
        ("equivalence", "check that the two regularized trajectories coincide step for step"),
        ("train", "train a finite-width network with the chosen objective"),
        ("krr", "fit kernel ridge regression and report errors"),
        ("bounds", "write an itemized generalization bound report"),
        ("sweep", "run a (noise x lambda x seed) experiment grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override: single seed")
        p.add_argument("--out", type=str, default=None, help="override: output directory")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="override: lambda")
        p.add_argument("--noise", type=float, default=None, help="override: flip probability")
        p.add_argument("--width", type=int, default=None, help="override: hidden width")
        p.add_argument("--depth", type=int, default=None, help="override: analytic kernel depth")
        p.add_argument("--eta", type=float, default=None, help="override: learning rate")
        p.add_argument("--steps", type=int, default=None, help="override: GD steps")
        p.add_argument("--constant-mode", type=str, default=None,
                       choices=["explicit-appendix", "unit-constants"])
        p.add_argument("--workers", type=int, default=None,
                       help="sweep: processes over kernel groups (krr) or cells (other methods)")
    return parser


def _apply_flag_overrides(config: dict, args) -> dict:
    if args.seed is not None:
        config["seeds"] = [args.seed]
    if args.out is not None:
        config["out"] = args.out
    if args.lam is not None:
        config["lambda"] = args.lam
    if args.noise is not None:
        config["noise"] = {"kind": "binary-flip", "p": args.noise} if args.noise > 0 else {"kind": "none"}
    if args.width is not None:
        config.setdefault("model", {})
        config["model"] = dict(config["model"], kind="net", widths=[args.width])
    if args.depth is not None:
        config["model"] = dict(config["model"], depth=args.depth)
    if args.eta is not None:
        config["eta"] = args.eta
    if args.steps is not None:
        config["steps"] = args.steps
    if args.constant_mode is not None:
        config["constant_mode"] = args.constant_mode
    if args.workers is not None:
        config["workers"] = args.workers
    _validate_config(config)
    return config


_COMMANDS = {
    "kernel": cmd_kernel,
    "equivalence": cmd_equivalence,
    "train": cmd_train,
    "krr": cmd_krr,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        config = _apply_flag_overrides(config, args)
        return _COMMANDS[args.command](config)
    except (ValidationError, EmptyDatasetError, TrickViolationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularityError, DivergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataFormatError, StaleCacheError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
