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
import contextlib
import copy
import itertools
import json
import operator
import os
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .data import (
    TASK_MULTICLASS,
    _format_cell,
    _write_csv,
    _write_json,
    load_mnist_binary,
    onehot_matrix,
    prediction_error,
    split_dataset,
    synth_multiclass,
    synth_sphere,
)
from .errors import (
    DataFormatError,
    DivergenceError,
    EmptyDatasetError,
    SingularityError,
    ToolkitError,
    TrickViolationError,
    ValidationError,
    _check_lambda,
)
from .kernel import AnalyticNTK, EmpiricalNTK, empirical_ntk
from .krr import KRRPredictor, _write_predictions, krr_fit
from .linmodel import _descend, linearize, run_gd_equivalence
from .net import (
    MLP,
    NetConfig,
    TrainConfig,
    forward,
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
# Typed fields of every kind besides the list of integers ``widths``: integers (null where the default is
# null), seeds among them >= 0 and counts >= 1, numbers, paths and flags.
_INTEGERS = ("n", "d", "seed", "test_n", "classes", "class_a", "class_b", "limit", "depth", "init_seed")
_SEEDS = ("seed", "init_seed")
_COUNTS = ("n", "test_n", "limit")
_NUMBERS = ("p", "sigma")
_PATHS = ("images", "labels", "csv")
_FLAGS = ("freeze_first_last", "difference_trick")


def _log(message: str) -> None:
    stamp = time.strftime("%H:%M:%S")
    print(f"[ntkreg {stamp}] {message}")


def _spec(section: str, spec: dict, grid: bool = False) -> dict:
    """``spec`` with its kind's defaults; a spec that is not an object, an unknown kind or key, a missing
    required key or a field of the wrong type fails."""
    if not isinstance(spec, dict):
        raise ValidationError(f"the {section} spec must be a JSON object, got {spec!r}")
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
    given, spec = spec, {**fields, **spec}
    for key, value in spec.items():
        if key in _INTEGERS and not (_is_integer(value) or (value is None and fields[key] is None)):
            raise ValidationError(f"{section} field {key!r} must be an integer, got {value!r}")
        if key in _SEEDS and value < 0:
            raise ValidationError(f"{section} field {key!r} is a seed and must be >= 0, got {value!r}")
        if key in _COUNTS and value is not None and value < 1:
            accepted = ">= 1" if fields[key] == _REQUIRED else ">= 1 or null"
            raise ValidationError(f"{section} field {key!r} must be {accepted}, got {value!r}")
        if key in _NUMBERS and key in given and not _is_number(value):  # absent in a sweep: a placeholder
            raise ValidationError(f"{section} field {key!r} must be a number, got {value!r}")
        if key in _PATHS and not isinstance(value, str):
            raise ValidationError(f"{section} field {key!r} must be a path string, got {value!r}")
        if key in _FLAGS and not isinstance(value, bool):
            raise ValidationError(f"{section} field {key!r} must be true or false, got {value!r}")
        if key == "widths" and not (isinstance(value, list) and all(_is_integer(width) for width in value)):
            raise ValidationError(f"{section} field 'widths' must be a list of integers, got {value!r}")
    return spec


def load_config(path=None, overrides=None, command=None) -> dict:
    """The default config updated by the file at ``path`` and ``overrides``; checked for a ``command``."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ValidationError(f"config {path} must hold a JSON object, got {type(user).__name__}")
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
    if not all(_is_integer(seed) and seed >= 0 for seed in config["seeds"]):
        raise ValidationError(f"seeds must be integers >= 0, got {config['seeds']!r}")
    if not all(_is_number(v) for v in (config["lambda"], *config["lambda_grid"], *config["noise_grid"])):
        raise ValidationError("lambda and the lambda_grid and noise_grid values must be numbers")
    for key in ("seeds", "lambda_grid", "noise_grid"):
        if len(set(config[key])) < len(config[key]):  # 1 and 1.0 are one value
            raise ValidationError(f"{key} repeats a value: {config[key]!r}")
    if not (_is_integer(config["workers"]) and config["workers"] >= 1):
        raise ValidationError(f"workers must be an integer >= 1, got {config['workers']!r}")
    if not isinstance(config["out"], str):
        raise ValidationError(f"out must be a path string, got {config['out']!r}")
    for lam in (config["lambda"], *config["lambda_grid"]):
        _check_lambda("lambda and each lambda_grid value", lam)
    if not all(0.0 <= level < np.inf for level in config["noise_grid"]):  # NaN fails too
        raise ValidationError(f"noise_grid levels must be finite and >= 0, got {config['noise_grid']!r}")
    sigma, delta = config["sigma"], config["delta"]
    if not (_is_number(sigma) and _is_number(delta)):
        raise ValidationError(f"sigma and delta must be numbers, got {sigma!r} and {delta!r}")
    lam = config["lambda"] if command == "bounds" else 1.0  # only bounds reads the one lambda
    bounds_mod.BoundConfig(lam, sigma, delta, config["constant_mode"])  # their ranges, checked by their owner
    if command == "equivalence" and not max([config["lambda"], *config["lambda_grid"]]) > 0.0:
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
    test_dataset = _spec("dataset", config["test_dataset"]) if config["test_dataset"] is not None else {}
    noise = _spec("noise", config["noise"], grid=command == "sweep")
    model = _spec("model", config["model"])
    files = [spec[key] for spec in (dataset, test_dataset, noise)
             for key in ("images", "labels", "csv") if key in spec]
    for path in files:
        if not os.path.exists(path):
            raise ValidationError(f"referenced file does not exist: {path}")
    # value ranges, from the objects that own their checks: a two-point draw, the model's architecture
    # (drawing the net would cost as much as the command's own draw), each noise level
    probe = _probe(dataset)
    if test_dataset:
        shapes = [(data.d, data.task, data.num_classes) for data in (_probe(test_dataset), probe)]
        if shapes[0] != shapes[1]:
            raise ValidationError("test_dataset must match the training set's input dimension, task and "
                                  "class count: (d, task, classes) = {} against {}".format(*shapes))
        if test_dataset["kind"].startswith("synth-"):
            raise ValidationError(f"a {test_dataset['kind']} test_dataset draws its own target direction, so its "
                                  "labels follow another rule; give the training dataset a test_n instead")
        if dataset.get("test_n") is not None:
            raise ValidationError("the training dataset's test_n and a test_dataset both give a test set; keep one")
    if model["kind"] == "net":
        build_net_config(model, probe.d, probe.num_outputs)
    else:
        AnalyticNTK(model["depth"])
    for level in config["noise_grid"] if command == "sweep" else [None]:
        apply_noise(probe, build_noise_model(config["noise"], override_level=level), 0)
    tangent = method.startswith("linear-") or command == "equivalence"
    if (tangent or method.startswith("net-")) and model["kind"] != "net":
        raise ValidationError(f"{command} with {method} needs a net model, not {model['kind']!r}")
    if tangent and not model["difference_trick"]:
        raise ValidationError("linear-* methods and the equivalence check need difference_trick: true")
    if tangent and probe.task == TASK_MULTICLASS:
        raise ValidationError("linear-* methods and the equivalence check need binary or regression data")
    if command == "bounds" and probe.task == TASK_MULTICLASS and noise["kind"] != "class-transition":
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
        return synth_sphere(spec["n"], spec["d"], spec["target"], spec["seed"])
    if spec["kind"] == "synth-multiclass":
        return synth_multiclass(spec["n"], spec["d"], spec["classes"], spec["seed"])
    return load_mnist_binary(spec["images"], spec["labels"], spec["class_a"], spec["class_b"],
                             limit=spec["limit"])


def build_train_test(config: dict):
    """Training set plus matched test set (or None).

    A ``test_n`` field on a synthetic dataset draws one larger sample and
    splits it, so train and test share the target direction; an explicit
    ``test_dataset`` spec, the MNIST test files, is the other way, never
    together with ``test_n``.
    """
    spec = _spec("dataset", config["dataset"])
    if config["test_dataset"] is not None:
        return build_dataset(spec), build_dataset(config["test_dataset"])
    if spec.get("test_n"):
        full = build_dataset(dict(spec, n=spec["n"] + spec["test_n"]))
        return split_dataset(full, spec["n"])
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
        widths=tuple(spec["widths"]),
        outputs=outputs,
        freeze_first_last=spec["freeze_first_last"],
        difference_trick=spec["difference_trick"],
    )


def build_kernel_source(config: dict, data, seed=0):
    model = _spec("model", config["model"])
    if model["kind"] == "analytic":
        return AnalyticNTK(model["depth"])
    return EmpiricalNTK(_seeded_net(config, data, seed))


def _seeded_net(config: dict, data, seed) -> MLP:
    """The net of ``config["model"]`` for ``data``, drawn at (init_seed, seed).

    No command writes a net's weights, and ``init_mlp`` returns one
    read-only array per layer, held by every branch and the snapshot.
    """
    model = _spec("model", config["model"])
    return init_mlp(build_net_config(model, data.d, data.num_outputs), (model["init_seed"], seed))


def _ensure_out(config: dict) -> str:
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "resolved_config.json"), config)
    return out


# ---------------------------------------------------------------------------
# kernel command


def cmd_kernel(config: dict) -> int:
    _ensure_out(config)
    cell, data, _ = _single_run(config)
    source = build_kernel_source(config, data, cell["seed"])
    _log(f"building {source.kind} kernel for n={data.n}")
    matrix = source.gram(data)
    print(f"trace = {matrix.trace!r}\nop_norm = {matrix.op_norm!r}\nmin_eig = {matrix.min_eig!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# one run path per method: a cell is a noise level (None keeps the spec's),
# its noise-grid index, a lambda and a seed. A method's group function runs
# the cells that share work, on the labels drawn for each (noise level, seed)
# among them, and returns each cell's outcome by cell index: the ToolkitError
# that failed it, or its measurements "train_outputs" and "test_outputs"
# (None without a test set), plus "distance" or "bound_total" where the
# method has them. ``_outcome_row`` turns an outcome into a results.csv row.


def _single_run(config: dict):
    """The one cell of a single-run command, with its train and test sets."""
    cell = {"index": 0, "noise_idx": 0, "noise": None,
            "lambda": float(config["lambda"]), "seed": config["seeds"][0]}
    train, test = build_train_test(config)
    return cell, train, test


def _noisy_train(config: dict, cell: dict, train):
    """The noise model of ``cell`` and ``train`` with labels drawn at (seed, noise_idx)."""
    noise = build_noise_model(config["noise"], override_level=cell["noise"])
    return noise, apply_noise(train, noise, (cell["seed"], cell["noise_idx"]))


def _draw_key(cell: dict) -> tuple:
    """The (noise level, seed) whose labels ``cell`` fits."""
    return cell["noise_idx"], cell["seed"]


def _draws(config: dict, cells: list, train) -> dict:
    """``_noisy_train`` of each (noise level, seed) among ``cells``, drawn once, by ``_draw_key``."""
    draws = {}
    for cell in cells:
        if _draw_key(cell) not in draws:
            draws[_draw_key(cell)] = _noisy_train(config, cell, train)
    return draws


def _bound_labels(data, noise):
    """The clean labels that the bound of ``noise`` reads, one-hot under class transitions."""
    if isinstance(noise, noise_mod.ClassTransition):
        return onehot_matrix(data.clean_labels, data.num_classes)
    return data.clean_labels


def _noise_bound(config, data, gram, noise, lam):
    """The bound report of ``noise`` on ``data``.

    Flips and class transitions have their own bounds. Additive noise gets
    the additive bound, and so do clean labels (None), at the config's sigma.
    """
    delta, mode = float(config["delta"]), config["constant_mode"]
    labels = _bound_labels(data, noise)
    if isinstance(noise, noise_mod.BinaryFlip):
        return bounds_mod.bound_binary(gram, labels, noise.p, lam, delta, mode)
    if isinstance(noise, noise_mod.ClassTransition):
        return bounds_mod.bound_multiclass(gram, labels, noise.matrix, lam, delta, mode)
    sigma = float(config["sigma"]) if noise is None else noise.sigma
    cfg = bounds_mod.BoundConfig(lam, sigma, delta, mode)
    return bounds_mod.bound_additive(gram, labels, cfg)


def _bounded(cell: dict) -> bool:
    """Whether ``cell`` gets a bound total: its noise level (None in a single run) and its lambda are > 0."""
    return (cell["noise"] or 0.0) > 0.0 and cell["lambda"] > 0.0


def _krr_group(config, train, test, cells, draws) -> dict:
    """Outcomes of krr cells that share one kernel K, fitted ridge by ridge into one block of coefficients A.

    K keeps one factor: first the shift-0 one that certifies K, which gives
    the bounds' y^T K^-1 y if some cell is ``_bounded``, then each lam^2's.
    A ridge solves the fit targets (one-hot rows for multiclass) of its
    (noise level, seed) draws as one block, whose rows join A, and computes
    one bound report per noise level for all its seeds. After the last
    ridge every train output comes from one K @ A^T. Then K and its factor
    are released, and every test output comes from one
    ``KRRPredictor(A, source, train).predict``, so the cross kernel never
    stands beside them. A failed factor fails its ridge's cells; a draw
    whose column fails its residual check fails its cells, and the rest of
    the ridge is solved again without it.
    """
    source = build_kernel_source(config, train, cells[0]["seed"])
    gram = source.gram(train)
    bounded = [draws[_draw_key(cell)][0] for cell in cells if _bounded(cell)]
    if bounded:  # y^T K^-1 y from the certifying factor; on failure each bound fails as it reads it
        with contextlib.suppress(ToolkitError):
            gram.inverse_form(_bound_labels(train, bounded[0]), 0.0)
    outcomes = {}
    by_lambda = operator.itemgetter("lambda")
    # A's blocks and its row count; (lam, draw key) -> its rows of A; (lam, noise_idx) -> bound total
    blocks, stacked, rows, totals = [], 0, {}, {}
    for lam, ridge in itertools.groupby(sorted(cells, key=by_lambda), key=by_lambda):
        ridge, failed = list(ridge), {}  # failed: draw key -> its error
        keys = list(dict.fromkeys(map(_draw_key, ridge)))
        while len(failed) < len(keys):
            kept = [key for key in keys if key not in failed]
            targets = [np.atleast_2d(draws[key][1].fit_targets()) for key in kept]
            owners = np.repeat(np.arange(len(kept)), [len(block) for block in targets])  # per target row
            try:
                alpha = krr_fit(gram, np.concatenate(targets), lam).alpha
            except SingularityError as exc:  # a failed factor names no columns and fails them all
                failing = owners if exc.columns is None else owners[list(exc.columns)]
                failed.update((kept[i], exc.with_traceback(None)) for i in set(failing.tolist()))
                continue
            for key, block in zip(kept, targets):
                rows[lam, key] = slice(stacked, stacked + len(block))
                stacked += len(block)
            blocks.append(alpha)
            break
        for cell in ridge:
            if _draw_key(cell) in failed:
                outcomes[cell["index"]] = failed[_draw_key(cell)]
            elif _bounded(cell) and (lam, cell["noise_idx"]) not in totals:
                try:
                    bound = _noise_bound(config, train, gram, draws[_draw_key(cell)][0], lam)
                    totals[lam, cell["noise_idx"]] = bound.total
                except ToolkitError as exc:
                    outcomes[cell["index"]] = exc.with_traceback(None)
    if not blocks:
        return outcomes
    coeffs = np.concatenate(blocks)
    # In-sample outputs from the Gram matrix: evaluating k(X, X) again
    # would repeat the kernel build and, at large n, set the peak memory.
    train_outputs = gram.values @ coeffs.T
    del gram  # K and its factor go: a kept error has no traceback, whose frames would hold them
    test_outputs = None if test is None else KRRPredictor(coeffs, source, train).predict(test.inputs)
    for cell in cells:
        if cell["index"] not in outcomes:
            own = rows[cell["lambda"], _draw_key(cell)]
            outcomes[cell["index"]] = {"train_outputs": train_outputs[:, own],
                                       "test_outputs": None if test_outputs is None else test_outputs[:, own],
                                       "bound_total": totals.get((cell["lambda"], cell["noise_idx"]))}
    return outcomes


def _linear_group(config, train, test, cells, draws) -> dict:
    """Outcomes of linear-* cells of one init seed, stepped as one block of runs.

    The seed's net is linearized, and every cell steps, on its (noise level,
    seed)'s drawn labels, as an RDI or AUX run of one ``linmodel._descend``
    block; the test outputs of all the runs come from one ``predict``. A
    cell's outcome is the error that froze its run, or its outputs and
    displacement.
    """
    lm = linearize(_seeded_net(config, train, cells[0]["seed"]), train)
    targets = {key: noisy.fit_targets() for key, (_, noisy) in draws.items()}
    kind = config["method"].removeprefix("linear-")  # KIND_RDI or KIND_AUX
    # eta None: each run's certified step
    runs = [(kind, targets[_draw_key(cell)], cell["lambda"], config["eta"]) for cell in cells]
    block, _ = _descend(lm, runs, int(config["steps"]))
    tests = [None] * len(cells) if test is None else lm.predict(block.coeffs.T, test.inputs).T
    ends = zip(cells, block.errors, block.product, tests, np.sqrt(np.maximum(block.quad, 0.0)))
    return {cell["index"]: error if error is not None else
            {"train_outputs": train_outputs, "test_outputs": test_outputs, "distance": float(distance)}
            for cell, error, train_outputs, test_outputs, distance in ends}


def _net_trainer(config, train, seed):
    """``train_full`` of the net of ``config`` drawn at ``seed``, as a function of drawn labels and a lambda.

    The net is drawn once. With ``eta`` null each run steps at
    1/(||K|| + lam^2), the largest certified step for one output, and ||K||
    is read once from the net's empirical kernel, certified PSD by the same
    spectrum that gives its norm; only the norm is kept. ``train_full``
    trains copies of the net's trainable layers, so runs cannot disturb
    each other.
    """
    mlp = _seeded_net(config, train, seed)
    k_norm = empirical_ntk(mlp, train).op_norm if config["eta"] is None else None
    objective = config["method"].removeprefix("net-")

    def run(noisy, lam):
        eta = config["eta"] if k_norm is None else 1.0 / (k_norm + lam * lam)
        return train_full(mlp, noisy, TrainConfig(objective, eta=float(eta), steps=int(config["steps"]), lam=lam))

    return run


def _net_group(config, train, test, cells, draws) -> dict:
    """Outcomes of net-* cells of one init seed, each trained in turn by one ``_net_trainer``.

    A cell whose training fails fails alone; the others still train.
    """
    run = _net_trainer(config, train, cells[0]["seed"])
    outcomes = {}
    for cell in cells:
        noisy = draws[_draw_key(cell)][1]
        try:
            trained, _, log = run(noisy, cell["lambda"])
        except ToolkitError as exc:  # kept without its traceback, whose frames would hold the run's layers
            outcomes[cell["index"]] = exc.with_traceback(None)
            continue
        outcomes[cell["index"]] = {"train_outputs": forward(trained, noisy.inputs),
                                   "test_outputs": None if test is None else forward(trained, test.inputs),
                                   "distance": float(np.linalg.norm(log.dist_to_init[-1]))}
    return outcomes


_GROUPS = {"krr": _krr_group, "linear": _linear_group, "net": _net_group}


# ---------------------------------------------------------------------------
# equivalence command


_TRAJECTORY_ROWS = 256


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
    # lambda by lambda, one line per step in ``_write_csv``'s format: the values are plain floats, made
    # a block of rows at a time so that they do not raise the command's peak memory
    columns = (scan.objectives_rdi, scan.objectives_aux, scan.dist_from_init, scan.gaps, scan.rel_gaps)
    with open(os.path.join(out, "trajectory.csv"), "w", newline="") as f:
        f.write("lambda,t,objective_rdi,objective_aux,dist_from_init,gap,rel_gap\n")
        for j, lam in enumerate(lambdas):
            cell = _format_cell(lam)
            for first in range(0, scan.steps + 1, _TRAJECTORY_ROWS):
                rows = zip(*(column[first:first + _TRAJECTORY_ROWS, j].tolist() for column in columns))
                f.writelines(f"{cell},{t},{rdi!r},{aux!r},{dist!r},{gap!r},{rel!r}\n"
                             for t, (rdi, aux, dist, gap, rel) in enumerate(rows, first))
    _write_json(os.path.join(out, "equivalence.json"), {"tolerance": tol, "runs": summary})
    return EXIT_OK if all(run["passed"] for run in summary.values()) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# train command


def cmd_train(config: dict) -> int:
    out = _ensure_out(config)
    cell, train, test = _single_run(config)
    _, noisy = _noisy_train(config, cell, train)
    trained, _, log = _net_trainer(config, train, cell["seed"])(noisy, cell["lambda"])
    log.to_csv(os.path.join(out, "trajectory.csv"))
    _log(f"final objective {log.objective[-1]:.6g}, train error {log.train_error[-1]:.4f}")
    _log(f"distance to init per layer: {[round(float(v), 6) for v in log.dist_to_init[-1]]}")
    if test is not None:
        err = prediction_error(forward(trained, test.inputs), test.clean_labels, test.task)
        _log(f"clean test error {err:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# krr command


def cmd_krr(config: dict) -> int:
    out = _ensure_out(config)
    cell, train, test = _single_run(config)
    draws = _draws(config, [cell], train)
    outcome = _krr_group(config, train, test, [cell], draws)[cell["index"]]
    if isinstance(outcome, ToolkitError):
        raise outcome
    row = _outcome_row(config, cell, outcome, draws, test)
    if test is not None:
        _write_predictions(os.path.join(out, "predictions.csv"), outcome["test_outputs"], train.task)
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
    gram = build_kernel_source(config, train, cell["seed"]).gram(train)
    report = _noise_bound(config, train, gram, noise, cell["lambda"])
    report.to_json(os.path.join(out, "bound_report.json"))
    _log(f"bound total = {report.total:.6g} (mode {config['constant_mode']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep command


def _sweep_cells(config: dict):
    grid = itertools.product(enumerate(config["noise_grid"]), config["lambda_grid"], config["seeds"])
    return [
        {"index": index, "noise_idx": noise_idx, "noise": float(level), "lambda": float(lam), "seed": seed}
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


def _outcome_row(config, cell, outcome, draws=None, test=None) -> dict:
    """The results.csv row of ``cell``'s outcome, empty where it has no value.

    An error gives a logged error row; measurements give an ok row, scored
    on the cell's noisy labels in ``draws`` and on ``test``'s clean labels.
    """
    row = dict.fromkeys(_RESULT_HEADER)
    row.update({"noise": cell["noise"], "lambda": cell["lambda"], "seed": cell["seed"], "method": config["method"]})
    if isinstance(outcome, ToolkitError):
        _log(f"cell noise={cell['noise']} lambda={cell['lambda']} seed={cell['seed']} failed: {outcome}")
        return dict(row, status=f"error:{type(outcome).__name__}")
    train = draws[_draw_key(cell)][1]
    noisy_error = prediction_error(outcome["train_outputs"], train.noisy_labels, train.task)
    clean_error = None if test is None else prediction_error(outcome["test_outputs"], test.clean_labels, test.task)
    return dict(row, status="ok", train_error_noisy=noisy_error, test_error_clean=clean_error,
                distance_to_init=outcome.get("distance"), bound_total=outcome.get("bound_total"))


def _group_worker(payload) -> dict:
    """Rows of one group by cell index.

    Each (noise level, seed) draws its noisy labels once, for the group to
    share. A failure in the group's shared work, those draws included, fails
    all its cells; the group function keeps a failure in one cell to that
    cell.
    """
    config, cells = payload
    try:
        train, test = build_train_test(config)
        draws = _draws(config, cells, train)
        outcomes = _GROUPS[config["method"].split("-")[0]](config, train, test, cells, draws)
    except ToolkitError as exc:
        return {cell["index"]: _outcome_row(config, cell, exc) for cell in cells}
    return {cell["index"]: _outcome_row(config, cell, outcomes[cell["index"]], draws, test) for cell in cells}


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
        # here, not at the top: concurrent.futures (with logging) and multiprocessing
        # would add about 6 and 10 ms to every command's start-up
        import concurrent.futures
        import multiprocessing

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
        ("kernel", "build a kernel matrix and print its trace, norm and least eigenvalue"),
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
        config["noise"] = {"kind": "none"} if args.noise == 0 else {"kind": "binary-flip", "p": args.noise}
    model = config["model"] if isinstance(config["model"], dict) else None  # None: validation refuses it
    if args.width is not None:
        net = model if model and model.get("kind") == "net" else {"kind": "net"}
        model = config["model"] = dict(net, widths=[args.width])
    if args.depth is not None and model is not None:
        config["model"] = dict(model, depth=args.depth)
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
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
