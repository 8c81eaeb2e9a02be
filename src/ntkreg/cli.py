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
import contextlib
import copy
import dataclasses
import itertools
import json
import os
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .data import (
    Provenance,
    _write_csv,
    _write_json,
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
from .kernel import AnalyticNTK, EmpiricalNTK, empirical_ntk, empirical_ntk_cross
from .krr import export_predictions, krr_fit
from .linmodel import _descend, linearize, run_gd_equivalence
from .net import (
    MLP,
    NetConfig,
    TrainConfig,
    distance_to_init,
    forward,
    gradient_factors,
    init_mlp,
    train_full,
)

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

# Each nested spec's fields by section and kind, mapped to a default, _REQUIRED or _LEVEL (required
# but in a sweep, whose noise_grid gives the level). README's "Config specs" table mirrors it.
_REQUIRED, _LEVEL = "required", "level"
_SPECS = {
    "dataset": {
        "synth-sphere": {"n": _REQUIRED, "d": _REQUIRED, "target": _REQUIRED, "seed": _REQUIRED,
                         "test_n": None},
        "synth-multiclass": {"n": _REQUIRED, "d": _REQUIRED, "classes": 3, "seed": _REQUIRED, "test_n": None},
        "mnist-binary": {"images": _REQUIRED, "labels": _REQUIRED, "class_a": _REQUIRED,
                         "class_b": _REQUIRED, "limit": None},
    },
    "noise": {
        "none": {},
        "binary-flip": {"p": _LEVEL},
        "additive": {"sigma": _LEVEL, "shape": "gaussian"},
        "class-transition": {"csv": _REQUIRED},
    },
    "model": {
        "analytic": {"depth": 2},
        "net": {"widths": [512], "freeze_first_last": True, "difference_trick": True, "init_seed": 0},
    },
}


def _log(message: str) -> None:
    stamp = time.strftime("%H:%M:%S")
    print(f"[ntkreg {stamp}] {message}")


def _spec(section: str, spec: dict, grid: bool = False) -> dict:
    """``spec`` with its kind's defaults; an unknown kind or key, or a missing required key, fails."""
    kinds = _SPECS[section]
    fields = kinds.get(spec.get("kind"))
    if fields is None:
        raise ValidationError(f"unknown {section} kind {spec.get('kind')!r}; choose from {tuple(kinds)}")
    unknown = sorted(set(spec) - set(fields) - {"kind"})
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in a {spec['kind']} {section} spec")
    for key, default in fields.items():
        if key not in spec and (default == _REQUIRED or (default == _LEVEL and not grid)):
            raise ValidationError(f"{spec['kind']} {section} spec needs the key {key!r}")
    return {**fields, **spec}


def load_config(path=None, overrides=None, command=None) -> dict:
    """The default config updated by the file at ``path`` and ``overrides``; checked for a ``command``."""
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
    config.update(overrides or {})
    if command is not None:
        _validate_config(config, command)
    return config


def _is_number(value) -> bool:
    """An int or a float; JSON's true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_config(config: dict, command: str) -> None:
    """Every check the config alone decides for ``command``, before any output."""
    for key in ("seeds", "lambda_grid", "noise_grid"):
        if not isinstance(config[key], (list, tuple)):
            raise ValidationError(f"{key} must be a list, got {config[key]!r}")
    if not config["seeds"]:
        raise ValidationError("config needs at least one seed")
    if not all(_is_integer(seed) for seed in config["seeds"]):
        raise ValidationError(f"seeds must be integers, got {config['seeds']!r}")
    if not all(_is_number(v) for v in (config["lambda"], *config["lambda_grid"], *config["noise_grid"])):
        raise ValidationError("lambda and the lambda_grid and noise_grid values must be numbers")
    if not (_is_integer(config["workers"]) and config["workers"] >= 1):
        raise ValidationError(f"workers must be an integer >= 1, got {config['workers']!r}")
    if not all(lam >= 0.0 for lam in (config["lambda"], *config["lambda_grid"])):  # NaN fails too
        raise ValidationError("lambda and the lambda grid values must be >= 0")
    sigma, delta = config["sigma"], config["delta"]
    if not (_is_number(sigma) and _is_number(delta)):
        raise ValidationError(f"sigma and delta must be numbers, got {sigma!r} and {delta!r}")
    lam = config["lambda"] if command == "bounds" else 1.0  # only bounds reads the one lambda
    bounds_mod.BoundConfig(lam, sigma, delta, config["constant_mode"])  # their ranges, checked by their owner
    if command == "equivalence" and not max(config["lambda"], *config["lambda_grid"]) > 0.0:
        raise ValidationError("equivalence needs a lambda > 0 in lambda_grid or lambda")
    tol = config["tolerance"]
    if command == "equivalence" and not (_is_number(tol) and tol >= 0.0):
        raise ValidationError(f"the equivalence tolerance must be >= 0, got {tol!r}")
    eta, steps = config["eta"], config["steps"]
    if eta is not None and not (_is_number(eta) and 0.0 < eta < np.inf):
        raise ValidationError(f"eta must be null or finite and > 0, got {eta!r}")
    if not (_is_integer(steps) and steps >= 0):
        raise ValidationError(f"steps must be an integer >= 0, got {steps!r}")
    if command == "sweep" and not (config["lambda_grid"] and config["noise_grid"]):
        raise ValidationError("a sweep needs a nonempty lambda_grid and noise_grid")
    method = config["method"]
    if method not in _METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {_METHODS}")
    if command == "train" and not method.startswith("net-"):
        raise ValidationError(f"the train command needs a net-* method, not {method!r}")
    dataset = _spec("dataset", config["dataset"])
    test_dataset = _spec("dataset", config["test_dataset"]) if config["test_dataset"] else {}
    noise = _spec("noise", config["noise"], grid=command == "sweep")
    files = [spec[key] for spec in (dataset, test_dataset, noise)
             for key in ("images", "labels", "csv") if key in spec]
    for path in files:
        if not os.path.exists(path):
            raise ValidationError(f"referenced file does not exist: {path}")
    # value ranges, from the objects that own their checks: a two-point draw, the model, each noise level
    probe = _probe(dataset)
    if test_dataset:
        shapes = [(data.d, data.task, data.num_classes) for data in (_probe(test_dataset), probe)]
        if shapes[0] != shapes[1]:
            raise ValidationError("test_dataset must match the training set's input dimension, task and "
                                  "class count: (d, task, classes) = {} against {}".format(*shapes))
    build_kernel_source(config, probe)
    for level in config["noise_grid"] if command == "sweep" else [None]:
        apply_noise(probe, build_noise_model(config["noise"], override_level=level), 0)
    tangent = method.startswith("linear-") or command == "equivalence"
    if (tangent or method.startswith("net-")) and config["model"]["kind"] != "net":
        raise ValidationError(f"{command} with {method} needs a net model, not {config['model']['kind']!r}")
    if tangent and not _spec("model", config["model"])["difference_trick"]:
        raise ValidationError("linear-* methods and the equivalence check need difference_trick: true")
    if tangent and dataset["kind"] == "synth-multiclass":
        raise ValidationError("linear-* methods and the equivalence check need binary or regression data")
    if command == "bounds" and dataset["kind"] == "synth-multiclass" and noise["kind"] != "class-transition":
        raise ValidationError("bounds on multiclass data need class-transition noise")
    if noise["kind"] == "class-transition" and len({lv for lv in config["noise_grid"] if lv > 0.0}) > 1:
        raise ValidationError("a class-transition noise_grid has at most one positive "
                              "level; each applies the same transition matrix")


def _probe(spec: dict):
    """A two-point draw of a dataset spec, for the checks that need data."""
    return build_dataset(dict(spec, limit=2) if spec["kind"] == "mnist-binary" else dict(spec, n=2))


def build_dataset(spec: dict):
    spec = _spec("dataset", spec)
    if spec["kind"] == "synth-sphere":
        return synth_sphere(int(spec["n"]), int(spec["d"]), spec["target"], int(spec["seed"]))
    if spec["kind"] == "synth-multiclass":
        return synth_multiclass(int(spec["n"]), int(spec["d"]), int(spec["classes"]), int(spec["seed"]))
    return load_mnist_binary(spec["images"], spec["labels"], int(spec["class_a"]),
                             int(spec["class_b"]), limit=spec["limit"])


def build_train_test(config: dict):
    """Training set plus matched test set (or None).

    A ``test_n`` field on a synthetic dataset draws one larger sample and
    splits it, so train and test share the target direction; an explicit
    ``test_dataset`` spec (for example the MNIST test files) takes priority.
    """
    spec = _spec("dataset", config["dataset"])
    if config["test_dataset"]:
        return build_dataset(spec), build_dataset(config["test_dataset"])
    if spec.get("test_n"):
        full = build_dataset(dict(spec, n=int(spec["n"]) + int(spec["test_n"])))
        return split_dataset(full, int(spec["n"]))
    return build_dataset(spec), None


def build_noise_model(spec: dict, override_level=None):
    """The noise model of ``spec``; a sweep's ``override_level`` of 0.0 means none.

    A positive level is p for flips and sigma for additive noise; transitions ignore it.
    """
    spec = _spec("noise", spec, grid=override_level is not None)
    if override_level == 0.0:
        return None
    if override_level is not None and spec["kind"] in ("none", "binary-flip"):
        return noise_mod.BinaryFlip(float(override_level))
    if spec["kind"] == "none":
        return None
    if spec["kind"] == "binary-flip":
        return noise_mod.BinaryFlip(float(spec["p"]))
    if spec["kind"] == "additive":
        sigma = spec["sigma"] if override_level is None else override_level
        return noise_mod.AdditiveNoise(float(sigma), spec["shape"])
    return noise_mod.read_transition_csv(spec["csv"])


def apply_noise(data, model, seed):
    if model is None:
        return data
    return noise_mod.corrupt(data, model, seed)


def build_net_config(spec: dict, input_dim: int, outputs: int) -> NetConfig:
    spec = _spec("model", spec)
    return NetConfig(
        input_dim=input_dim,
        widths=tuple(int(w) for w in spec["widths"]),
        outputs=outputs,
        freeze_first_last=bool(spec["freeze_first_last"]),
        difference_trick=bool(spec["difference_trick"]),
    )


def build_kernel_source(config: dict, data, seed=0):
    model = _spec("model", config["model"])
    if model["kind"] == "analytic":
        return AnalyticNTK(int(model["depth"]))
    return EmpiricalNTK(_seeded_net(config, data, seed))


def _seeded_net(config: dict, data, seed) -> MLP:
    """The net of ``config["model"]`` for ``data``, drawn at (init_seed, seed)."""
    model = _spec("model", config["model"])
    net_cfg = build_net_config(model, data.d, data.num_outputs)
    return init_mlp(net_cfg, (int(model["init_seed"]), int(seed)))


def _ensure_out(config: dict) -> str:
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "resolved_config.json"), config)
    return out


# ---------------------------------------------------------------------------
# kernel command


def _kernel_provenance(config: dict, source, seed: int) -> Provenance:
    """What makes ``source`` one kernel: the depth of an analytic kernel, or
    the architecture and the (init_seed, seed) draw of an empirical kernel's net."""
    if source.kind == "analytic":
        return Provenance(kind="analytic", depth=source.depth)
    net = source.mlp.config
    init_seed = int(_spec("model", config["model"])["init_seed"])
    model = json.dumps({"net": dataclasses.asdict(net), "seeds": [init_seed, seed]}, sort_keys=True)
    return Provenance(kind="empirical", width=net.widths[0], depth=net.depth, seed=init_seed,
                      model=model)


def cmd_kernel(config: dict) -> int:
    out = _ensure_out(config)
    cell, data, _ = _single_run(config)
    source = build_kernel_source(config, data, cell["seed"])
    provenance = _kernel_provenance(config, source, cell["seed"])
    cache_path = os.path.join(out, "kernel.ntkk")
    matrix = None
    if os.path.exists(cache_path):
        try:
            cache = load_kernel(cache_path, data)
            if cache.provenance == provenance:
                matrix = cache.matrix
                _log(f"cache hit: reusing {cache_path}")
            else:
                _log(f"cache at {cache_path} holds another model's kernel; rebuilding")
        except StaleCacheError:
            _log(f"stale cache at {cache_path}; rebuilding")
        except DataFormatError:
            _log(f"malformed cache at {cache_path}; rebuilding")
    if matrix is None:
        _log(f"building {source.kind} kernel for n={data.n}")
        matrix = source.gram(data)
        save_kernel(make_kernel_cache(matrix, provenance, data), cache_path)
        _log(f"wrote cache {cache_path}")
    print(f"trace = {matrix.trace!r}")
    print(f"op_norm = {matrix.op_norm!r}")
    print(f"min_eig = {matrix.min_eig!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# one run path per method: a cell is a noise level (None keeps the spec's),
# its noise-grid index, a lambda and a seed; a group holds the work that its
# cells share, and both the single-run commands and the sweep run through it


def _single_run(config: dict):
    """The one cell of a single-run command, with its train and test sets."""
    cell = {"index": 0, "noise_idx": 0, "noise": None,
            "lambda": float(config["lambda"]), "seed": int(config["seeds"][0])}
    train, test = build_train_test(config)
    return cell, train, test


def _noisy_train(config: dict, cell: dict, train):
    """The noise model of ``cell`` and ``train`` with labels drawn at (seed, noise_idx)."""
    noise = build_noise_model(config["noise"], override_level=cell["noise"])
    return noise, apply_noise(train, noise, (cell["seed"], cell["noise_idx"]))


def _noise_bound(config, data, gram, noise, lam):
    """The bound report of ``noise`` on ``data``.

    Flips and class transitions have their own bounds. Additive noise gets
    the additive bound, and so do clean labels (None), at the config's sigma.
    """
    delta, mode = float(config["delta"]), config["constant_mode"]
    args = (lam, delta, data.n)
    if isinstance(noise, noise_mod.BinaryFlip):
        return bounds_mod.bound_binary(gram, data.clean_labels, noise.p, *args, mode)
    if isinstance(noise, noise_mod.ClassTransition):
        Y = onehot_matrix(data.clean_labels, data.num_classes)
        return bounds_mod.bound_multiclass(gram, Y, noise.matrix, *args, mode)
    sigma = float(config["sigma"]) if noise is None else noise.sigma
    cfg = bounds_mod.BoundConfig(lam, sigma, delta, mode)
    return bounds_mod.bound_additive(gram, data.clean_labels, cfg, data.n)


class _KRRGroup:
    """krr cells that share one kernel K and the test cross matrix C.

    K owns its factorizations (``KernelMatrix.solver``). Visiting the cells
    ridge by ridge factors each shift lam^2 once, and the shift-0 factor,
    built by K's PSD check, also serves the bounds' y^T K^-1 y. A cell then
    costs O(n^2) per output: a solve, K @ alpha, C @ alpha and the bound
    arithmetic. Cells fit ``DataSet.fit_targets``, one-hot for multiclass.
    """

    def __init__(self, config, train, test, cells):
        self.config, self.train, self.test = config, train, test
        self.source = build_kernel_source(config, train, cells[0]["seed"])
        # The cross kernel is built in place in C, so either order peaks at
        # C, K and K's shift-0 factor (its PSD certificate).
        self.cross = None if test is None else self.source.cross(test.inputs, train)
        self.gram = self.source.gram(train)

    def fit(self, noisy, lam: float):
        return krr_fit(self.gram, noisy.fit_targets(), lam, self.source, noisy)

    def train_outputs(self, fit):
        # From the Gram matrix: evaluating k(X, X) again would repeat the
        # kernel build and, at large n, set the command's peak memory.
        return self.gram.values @ fit.alpha.T

    def row(self, cell, noise, noisy) -> dict:
        lam = cell["lambda"]
        fit = self.fit(noisy, lam)
        report = None
        if noise is not None and lam > 0.0:
            report = _noise_bound(self.config, self.train, self.gram, noise, lam)
        return _cell_row(
            self.config, cell, noisy, self.test, self.train_outputs(fit),
            None if self.cross is None else self.cross @ fit.alpha.T,
            bound_total=None if report is None else report.total,
        )


class _LinearGroup:
    """linear-* cells of one init seed, stepped as one block of runs.

    One gradient pass serves K and the test cross kernel, which live only in
    the constructor: it draws each noise level's labels once and steps every
    cell as an RDI or AUX run of one ``linmodel._descend`` block. A cell keeps
    its outputs and displacement, or the error that froze its run.
    """

    def __init__(self, config, train, test, cells):
        self.config, self.test = config, test
        mlp = _seeded_net(config, train, cells[0]["seed"])
        factors = gradient_factors(mlp, train.inputs, output_index=0, at_init=True)
        lm = linearize(mlp, train, factors)
        cross = None if test is None else empirical_ntk_cross(mlp, test.inputs, train, factors)
        levels = {cell["noise_idx"]: cell for cell in cells}  # one cell per noise level draws its labels
        targets = {i: _noisy_train(config, cell, train)[1].fit_targets() for i, cell in levels.items()}
        kind = config["method"].removeprefix("linear-")  # KIND_RDI or KIND_AUX
        # eta None: each run's certified step
        runs = [(kind, targets[cell["noise_idx"]], cell["lambda"], config["eta"]) for cell in cells]
        block, _ = _descend(lm, runs, int(config["steps"]))
        tests = [None] * len(cells) if cross is None else block.coeffs @ cross.T
        outcomes = zip(block.errors, block.product, tests, np.sqrt(np.maximum(block.quad, 0.0)))
        self.outcomes = {cell["index"]: outcome for cell, outcome in zip(cells, outcomes)}

    def row(self, cell, noise, noisy) -> dict:
        error, train_outputs, test_outputs, distance = self.outcomes[cell["index"]]
        if error is not None:
            raise error
        return _cell_row(self.config, cell, noisy, self.test, train_outputs, test_outputs,
                         distance=float(distance))


class _NetGroup:
    """net-* cells of one init seed: the seeded net and its tangent kernel's norm.

    The net is drawn once. With ``eta`` null each cell steps at
    1/(||K|| + lam^2), and ||K|| is read once from the net's empirical
    kernel, which its PSD certificate checks when it is built; only the norm
    is kept. ``train_full`` trains a copy of the net, so cells cannot
    disturb each other.
    """

    def __init__(self, config, train, test, cells):
        self.config, self.test = config, test
        self.mlp = _seeded_net(config, train, cells[0]["seed"])
        self.k_norm = empirical_ntk(self.mlp, train).op_norm if config["eta"] is None else None

    def train(self, noisy, lam: float):
        eta = self.config["eta"]
        if eta is None:  # 1/(||K|| + lam^2), the largest certified step for one output
            eta = 1.0 / (self.k_norm + lam * lam)
        objective = self.config["method"].removeprefix("net-")
        return train_full(self.mlp, noisy, TrainConfig(objective, eta=float(eta),
                                                       steps=int(self.config["steps"]), lam=lam))

    def row(self, cell, noise, noisy) -> dict:
        trained, _, _ = self.train(noisy, cell["lambda"])
        return _cell_row(
            self.config, cell, noisy, self.test, forward(trained, noisy.inputs),
            None if self.test is None else forward(trained, self.test.inputs),
            distance=float(np.linalg.norm(distance_to_init(trained))),
        )


_GROUPS = {"krr": _KRRGroup, "linear": _LinearGroup, "net": _NetGroup}


# ---------------------------------------------------------------------------
# equivalence command


def cmd_equivalence(config: dict) -> int:
    out = _ensure_out(config)
    cell, train, _ = _single_run(config)
    _, noisy = _noisy_train(config, cell, train)
    lm = linearize(_seeded_net(config, train, cell["seed"]), train)
    lambdas = [lam for lam in config["lambda_grid"] if lam > 0.0] or [config["lambda"]]
    tol = float(config["tolerance"])
    scan = run_gd_equivalence(lm, noisy.fit_targets(), lambdas, eta=config["eta"],
                              steps=int(config["steps"]), tol=tol)
    summary = {}
    for j, lam in enumerate(lambdas):
        report = scan.report(j)
        summary[str(lam)] = {"eta": scan.etas[j], "max_abs": report.max_abs,
                             "max_rel": report.max_rel, "passed": report.passed}
        _log(f"lambda={lam}: max relative gap {report.max_rel:.3e} ({'pass' if report.passed else 'FAIL'})")
    # rows are made lambda by lambda as they are written
    columns = (scan.objectives_rdi, scan.objectives_aux, scan.dist_from_init, scan.gaps, scan.rel_gaps)
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(lam), range(scan.steps + 1), *(column[:, j].tolist() for column in columns))
        for j, lam in enumerate(lambdas)
    )
    header = ["lambda", "t", "objective_rdi", "objective_aux", "dist_from_init", "gap", "rel_gap"]
    _write_csv(os.path.join(out, "trajectory.csv"), header, rows)
    _write_json(os.path.join(out, "equivalence.json"), {"tolerance": tol, "runs": summary})
    return EXIT_OK if all(run["passed"] for run in summary.values()) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# train command


def cmd_train(config: dict) -> int:
    out = _ensure_out(config)
    cell, train, test = _single_run(config)
    _, noisy = _noisy_train(config, cell, train)
    trained, _, log = _NetGroup(config, train, test, [cell]).train(noisy, cell["lambda"])
    log.to_csv(os.path.join(out, "trajectory.csv"))
    _log(f"final objective {log.objective[-1]:.6g}, train error {log.train_error[-1]:.4f}")
    _log(f"distance to init per layer: {[round(float(v), 6) for v in distance_to_init(trained)]}")
    if test is not None:
        err = prediction_error(forward(trained, test.inputs), test.clean_labels, test.task)
        _log(f"clean test error {err:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# krr command


def cmd_krr(config: dict) -> int:
    out = _ensure_out(config)
    cell, train, test = _single_run(config)
    _, noisy = _noisy_train(config, cell, train)
    # without a test set, the group evaluates no cross kernel: predictions.csv
    # and the test error share the one evaluation of export_predictions
    group = _KRRGroup(config, train, None, [cell])
    fit = group.fit(noisy, cell["lambda"])
    test_outputs = None
    if test is not None:
        test_outputs = export_predictions(fit, test.inputs, os.path.join(out, "predictions.csv"))
    row = _cell_row(config, cell, noisy, test, group.train_outputs(fit), test_outputs)
    header = ["lambda", "train_error_noisy", "test_error_clean"]
    _write_csv(os.path.join(out, "results.csv"), header, [tuple(row[h] for h in header)])
    _log(f"lambda={row['lambda']}: train error (noisy) {row['train_error_noisy']:.4f}, "
         f"test error {row['test_error_clean']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds command


def cmd_bounds(config: dict) -> int:
    out = _ensure_out(config)
    cell, train, _ = _single_run(config)
    noise = build_noise_model(config["noise"], override_level=cell["noise"])
    group = _KRRGroup(config, train, None, [cell])
    report = _noise_bound(config, train, group.gram, noise, cell["lambda"])
    report.to_json(os.path.join(out, "bound_report.json"))
    _log(f"bound total = {report.total:.6g} (mode {config['constant_mode']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep command


def _sweep_cells(config: dict):
    grid = itertools.product(enumerate(config["noise_grid"]), config["lambda_grid"], config["seeds"])
    return [
        {"index": index, "noise_idx": noise_idx, "noise": float(level), "lambda": float(lam), "seed": int(seed)}
        for index, ((noise_idx, level), lam, seed) in enumerate(grid)
    ]


def _seed_means(config: dict, results: list, column: str) -> list:
    """(noise, lambda, seed mean of ``column``) over the ok rows at each grid point."""
    means = []
    for noise, lam in itertools.product(config["noise_grid"], config["lambda_grid"]):
        values = [
            row[column] for row in results
            if (row["noise"], row["lambda"], row["status"]) == (float(noise), float(lam), "ok")
            and row[column] is not None
        ]
        if values:
            means.append((float(noise), float(lam), float(np.mean(values))))
    return means


def _sweep_groups(config: dict, cells: list) -> list:
    """The sweep's plan: cells grouped by the work they share.

    A net's draw depends on the seed, so a net model gives one group per
    seed, whose cells share that net's work: its kernel, its linearized
    model or its default step. An analytic kernel does not depend on the
    seed, so it gives one group that serves every seed.
    """
    by_seed = config["model"]["kind"] == "net"
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
    _log(f"cell noise={cell['noise']} lambda={cell['lambda']} seed={cell['seed']} failed: {exc}")
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


def _group_worker(payload) -> dict:
    """Rows of one group by cell index.

    A failure in the group's shared work fails all its cells; a failure in
    one cell fails that cell only. Cells run ridge by ridge, and each
    (noise level, seed) draws its noisy labels once.
    """
    config, cells = payload
    try:
        train, test = build_train_test(config)
        group = _GROUPS[config["method"].split("-")[0]](config, train, test, cells)
    except ToolkitError as exc:
        return {cell["index"]: _error_row(config, cell, exc) for cell in cells}
    noisy = {}
    rows = {}
    for cell in sorted(cells, key=lambda c: c["lambda"]):
        try:
            key = (cell["noise_idx"], cell["seed"])
            if key not in noisy:
                noisy[key] = _noisy_train(config, cell, train)
            rows[cell["index"]] = group.row(cell, *noisy[key])
        except ToolkitError as exc:
            rows[cell["index"]] = _error_row(config, cell, exc)
    return rows


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _worker_blas_threads(workers: int):
    """Worker processes started inside get max(1, cores // workers) BLAS threads each.

    The thread-count variables are set for the workers to read at start-up,
    so the workers must be fresh processes (spawned; a forked child keeps
    the parent's loaded thread pool). A user who set any of them keeps
    their setting, and the parent's environment is restored afterwards.
    """
    added = []
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        added = list(_BLAS_THREAD_VARIABLES)
        os.environ.update(dict.fromkeys(added, str(max(1, cores // workers))))
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def cmd_sweep(config: dict) -> int:
    out = _ensure_out(config)
    cells = _sweep_cells(config)
    groups = _sweep_groups(config, cells)
    _log(f"running {len(cells)} sweep cells in {len(groups)} groups with method {config['method']}")
    workers = min(config["workers"], len(groups))
    payloads = [(config, group) for group in groups]
    results = [None] * len(cells)
    if workers > 1:
        import multiprocessing  # here, not at the top: it adds about 10 ms to every command's start-up

        spawn = multiprocessing.get_context("spawn")
        with (_worker_blas_threads(workers),
              concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool):
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
    test_means = _seed_means(config, results, "test_error_clean")
    summary_rows = []
    for noise_level in config["noise_grid"]:
        means = {lam: mean for noise, lam, mean in test_means if noise == float(noise_level)}
        if means:
            best_lambda = min(means, key=lambda lam: (means[lam], lam))
            summary_rows.append((float(noise_level), best_lambda, means[best_lambda], means.get(0.0)))
    _write_csv(os.path.join(out, "summary.csv"),
               ["noise", "best_lambda", "best_test_error", "lambda0_test_error"], summary_rows)
    # Distance-vs-hyperparameter table for methods that track it.
    distance_rows = _seed_means(config, results, "distance_to_init")
    if distance_rows:
        _write_csv(os.path.join(out, "distance_summary.csv"),
                   ["noise", "lambda", "mean_distance_to_init"], distance_rows)
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
        p.add_argument("--lambda", dest="lambda", type=float, default=None, help="override: lambda")
        p.add_argument("--noise", type=float, default=None, help="override: flip probability")
        p.add_argument("--width", type=int, default=None, help="override: hidden width")
        p.add_argument("--depth", type=int, default=None, help="override: analytic kernel depth")
        p.add_argument("--eta", type=float, default=None, help="override: learning rate")
        p.add_argument("--steps", type=int, default=None, help="override: GD steps")
        p.add_argument("--constant-mode", type=str, default=None,
                       choices=["explicit-appendix", "unit-constants"])
        p.add_argument("--workers", type=int, default=None,
                       help="sweep: processes over cell groups (one group for an analytic model, "
                            "one per seed for a net model)")
    return parser


def _apply_flag_overrides(config: dict, args) -> dict:
    if args.seed is not None:
        config["seeds"] = [args.seed]
    for key in ("out", "lambda", "eta", "steps", "constant_mode", "workers"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    if args.noise is not None:
        config["noise"] = {"kind": "binary-flip", "p": args.noise} if args.noise > 0 else {"kind": "none"}
    if args.width is not None:
        net = config["model"] if config["model"].get("kind") == "net" else {"kind": "net"}
        config["model"] = dict(net, widths=[args.width])
    if args.depth is not None:
        config["model"] = dict(config["model"], depth=args.depth)
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
        config = _apply_flag_overrides(load_config(args.config), args)
        _validate_config(config, args.command)
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
