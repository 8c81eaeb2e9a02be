"""Datasets, the task rule, MNIST IDX ingestion, and CSV and JSON output.

All stochastic constructors take an explicit 64-bit seed and use numpy's
PCG64 generator, so every dataset is bit-reproducible. Input rows are
l2-normalized by default, which keeps the Gram diagonal bounded and the
kernel trace proportional to the sample count.

The task rule: ``DataSet.num_outputs`` and ``DataSet.fit_targets`` say what
a model of each task outputs and fits, ``prediction_error`` and
``predicted_classes`` how its outputs are scored and read as classes.

Every CSV and JSON payload the package writes goes through ``_write_csv``
and ``_write_json``, so one cell format and one JSON layout serve them all.
"""

import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from ._kernelmatrix import _as_real
from .errors import DataFormatError, EmptyDatasetError, ValidationError, _check_integer

ROW_NORM_TOL = 1e-12

TASK_REGRESSION = "regression"
TASK_BINARY = "binary"
TASK_MULTICLASS = "multiclass"
_TASKS = (TASK_REGRESSION, TASK_BINARY, TASK_MULTICLASS)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class DataSet:
    """Inputs plus clean and noisy labels for one of three task kinds.

    ``clean_labels`` and ``noisy_labels`` coincide until a noise model is
    applied. Binary labels live in {+1, -1}; multiclass labels are class ids
    in 1..num_classes; regression targets are clean values in [-1, 1] (noisy
    regression targets may leave that interval).
    """

    inputs: np.ndarray
    clean_labels: np.ndarray
    noisy_labels: np.ndarray
    task: str
    num_classes: int = 0
    normalized: bool = True

    def __post_init__(self):
        self.inputs = _as_real(self.inputs, "inputs")
        if self.inputs.ndim != 2:
            raise ValidationError(f"inputs must be a 2-D matrix, got ndim={self.inputs.ndim}")
        n, d = self.inputs.shape
        if n < 1 or d < 1:
            raise ValidationError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if not np.all(np.isfinite(self.inputs)):
            raise ValidationError("inputs contain non-finite values")
        if self.task not in _TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        if self.normalized:
            norms = np.linalg.norm(self.inputs, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > ROW_NORM_TOL:
                raise ValidationError(
                    f"normalized dataset has a row with |norm - 1| = {worst:.3e} > {ROW_NORM_TOL:.0e}"
                )
        self.clean_labels = self._check_labels(_as_real(self.clean_labels, "clean_labels"), "clean_labels")
        self.noisy_labels = self._check_labels(
            _as_real(self.noisy_labels, "noisy_labels"), "noisy_labels", noisy=True
        )

    def _check_labels(self, labels, name, noisy=False):
        if labels.shape != (self.n,):
            raise ValidationError(f"{name} must have shape ({self.n},), got {labels.shape}")
        if self.task == TASK_MULTICLASS:
            if self.num_classes < 2:
                raise ValidationError("multiclass datasets need num_classes >= 2")
            # checked before the cast, which would truncate 1.7 to 1 and turn NaN into a warning
            if not np.all(np.isfinite(labels) & (labels == np.trunc(labels))):
                raise ValidationError(f"{name} must be integer class ids, got a non-integral or non-finite value")
            if labels.min() < 1 or labels.max() > self.num_classes:
                raise ValidationError(f"{name} must be class ids in 1..{self.num_classes}")
            return labels.astype(np.int64)
        labels = labels.astype(np.float64)
        if not np.all(np.isfinite(labels)):
            raise ValidationError(f"{name} contain non-finite values")
        if self.task == TASK_BINARY and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValidationError(f"{name} for a binary task must be +1 or -1")
        if self.task == TASK_REGRESSION and not noisy:
            if labels.min() < -1.0 or labels.max() > 1.0:
                raise ValidationError(f"{name} for regression must lie in [-1, 1]")
        return labels

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_outputs(self) -> int:
        """Outputs a model of this task has: one per class for multiclass, else 1."""
        return self.num_classes if self.task == TASK_MULTICLASS else 1

    def fit_targets(self) -> np.ndarray:
        """The noisy labels as fitting targets.

        A float (n,) vector, or for multiclass the (num_classes, n) one-hot
        matrix, whose row h is the target of output h.
        """
        if self.task == TASK_MULTICLASS:
            return onehot_matrix(self.noisy_labels, self.num_classes)
        return self.noisy_labels.astype(np.float64)

    def with_noisy_labels(self, noisy_labels) -> "DataSet":
        """New dataset sharing inputs and clean labels, with fresh noisy labels."""
        return replace(self, noisy_labels=np.array(noisy_labels))


def onehot(c: int, num_classes: int) -> np.ndarray:
    """Standard-basis vector for class id c in 1..num_classes."""
    if not 1 <= c <= num_classes:
        raise ValidationError(f"class id {c} out of range 1..{num_classes}")
    e = np.zeros(num_classes, dtype=np.float64)
    e[c - 1] = 1.0
    return e


def onehot_matrix(labels, num_classes: int) -> np.ndarray:
    """(num_classes, n) matrix whose columns are the one-hot encodings of ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValidationError(f"class ids must lie in 1..{num_classes}")
    out = np.zeros((num_classes, labels.size), dtype=np.float64)
    out[labels - 1, np.arange(labels.size)] = 1.0
    return out


def _single_output(outputs) -> np.ndarray:
    values = np.atleast_1d(np.asarray(outputs, dtype=np.float64))
    values = values[:, 0] if values.ndim == 2 and values.shape[1] == 1 else values
    if values.ndim != 1:
        raise ValidationError(f"a single-output task needs (m,) or (m, 1) outputs, not {values.shape}")
    return values


def predicted_classes(outputs, task: str) -> np.ndarray:
    """The class each output row predicts, as exported with predictions.

    Multiclass: the argmax class id of (m, K) or (K,) outputs, ties to the
    lowest class. Binary: +1.0 or -1.0 by sign, with an output of 0 mapped to +1.
    """
    if task == TASK_MULTICLASS:
        return np.argmax(np.atleast_2d(outputs), axis=1) + 1
    if task == TASK_BINARY:
        return np.where(_single_output(outputs) >= 0.0, 1.0, -1.0)
    raise ValidationError(f"a {task} task has no classes")


def prediction_error(outputs, labels, task: str) -> float:
    """Error of outputs against labels: the one rule for every task.

    Multiclass: the share of argmax mismatches of (m, K) outputs. Binary: the
    share of sign mismatches, where an output of exactly 0 is wrong for either
    label. Regression: the mean squared error. Single outputs are (m,) or (m, 1).
    """
    labels = np.asarray(labels)
    if task == TASK_MULTICLASS:
        values = predicted_classes(outputs, task)
    else:
        values = _single_output(outputs)
    if values.shape != labels.shape:
        raise ValidationError(f"outputs {np.shape(outputs)} do not match labels {labels.shape}")
    if task == TASK_MULTICLASS:
        return float(np.mean(values != labels))
    if task == TASK_BINARY:
        return float(np.mean((values == 0.0) | (np.sign(values) != labels)))
    return float(np.mean((values - labels) ** 2))


def _format_cell(value) -> str:
    """A CSV cell: floats by ``repr``, None empty, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    """Rows of cells as ``_format_cell`` writes them; a plain float or int is its ``repr`` at once."""
    plain = (float, int)  # exact types: np.float64 subclasses float but reprs differently
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join([repr(v) if type(v) in plain else _format_cell(v) for v in row]) + "\n")


def _write_json(path, payload) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValidationError("cannot l2-normalize a zero input row")
    return x / norms


def _read_exact(buf: bytes, offset: int, count: int, what: str) -> bytes:
    if len(buf) < offset + count:
        raise DataFormatError(f"file truncated while reading {what}")
    return buf[offset : offset + count]


def _read_idx_images(path) -> np.ndarray:
    buf = open(path, "rb").read()
    magic, count, rows, cols = struct.unpack(">IIII", _read_exact(buf, 0, 16, "image header"))
    if magic != IDX_IMAGE_MAGIC:
        raise DataFormatError(f"bad IDX image magic 0x{magic:08x} in {path}")
    payload = _read_exact(buf, 16, count * rows * cols, "image pixels")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)


def _read_idx_labels(path) -> np.ndarray:
    buf = open(path, "rb").read()
    magic, count = struct.unpack(">II", _read_exact(buf, 0, 8, "label header"))
    if magic != IDX_LABEL_MAGIC:
        raise DataFormatError(f"bad IDX label magic 0x{magic:08x} in {path}")
    payload = _read_exact(buf, 8, count, "label bytes")
    return np.frombuffer(payload, dtype=np.uint8)


def load_mnist_binary(image_path, label_path, class_a: int, class_b: int, limit=None) -> DataSet:
    """Two-digit MNIST subset with labels mapped to +1 (class_a) / -1 (class_b).

    Pixels are scaled to [0, 1] and rows are then l2-normalized. Selection is
    deterministic: the first ``limit`` (None, or an integer >= 1) matching
    examples in file order.
    """
    if class_a == class_b:
        raise ValidationError("class_a and class_b must differ")
    if limit is not None:
        _check_integer("limit", limit, 1)
    images = _read_idx_images(image_path)
    labels = _read_idx_labels(label_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    mask = (labels == class_a) | (labels == class_b)
    idx = np.flatnonzero(mask)
    if limit is not None:
        idx = idx[:limit]
    if idx.size < 2:
        raise EmptyDatasetError(
            f"only {idx.size} usable examples for classes {class_a}/{class_b}"
        )
    x = images[idx].astype(np.float64) / 255.0
    x = _l2_normalize_rows(x)
    y = np.where(labels[idx] == class_a, 1.0, -1.0)
    return DataSet(inputs=x, clean_labels=y, noisy_labels=y.copy(), task=TASK_BINARY)


TARGET_LINEAR_SIGN = "linear-sign"
TARGET_SMOOTH_POLY = "smooth-poly"


def synth_sphere(n: int, d: int, target: str, seed: int) -> DataSet:
    """Uniform points on the unit sphere with a linear-sign or smooth target.

    Inputs are normalized Gaussian draws; the direction ``w`` is a unit vector
    drawn from the same seeded stream (inputs first, then w, so the draw order
    is part of the reproducibility contract).

    linear-sign: y = sgn(w.x) in {+1, -1} (binary task; sgn(0) maps to +1).
    smooth-poly: y = clip((w.x) + (w.x)^2 - 1/d, -1, 1) (regression task).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    rng = np.random.default_rng(seed)
    x = _l2_normalize_rows(rng.standard_normal((n, d)))
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    margin = x @ w
    if target == TARGET_LINEAR_SIGN:
        y = np.where(margin >= 0.0, 1.0, -1.0)
        task = TASK_BINARY
    elif target == TARGET_SMOOTH_POLY:
        y = np.clip(margin + margin**2 - 1.0 / d, -1.0, 1.0)
        task = TASK_REGRESSION
    else:
        raise ValidationError(f"unknown target family {target!r}")
    return DataSet(inputs=x, clean_labels=y, noisy_labels=y.copy(), task=task)


def synth_multiclass(n: int, d: int, classes: int, seed: int) -> DataSet:
    """Sphere inputs with labels from quantile bins of a random margin.

    Inputs are drawn first, then the direction w, as in ``synth_sphere``.
    Classes are balanced by construction: the rank of w.x is cut into
    ``classes`` equal bins, labelled 1..classes.
    """
    rng = np.random.default_rng(seed)
    x = _l2_normalize_rows(rng.standard_normal((n, d)))
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    rank = np.argsort(np.argsort(x @ w))
    labels = 1 + (rank * classes) // n
    return DataSet(x, labels, labels.copy(), TASK_MULTICLASS, num_classes=classes)


def split_dataset(data: DataSet, n_train: int):
    """Split one dataset into (train, test) by row index.

    Synthetic targets depend on a per-dataset random direction, so matched
    train/test pairs must come from a single draw; generate n_train + n_test
    points and split rather than sampling two differently seeded datasets.
    """
    if not 1 <= n_train < data.n:
        raise ValidationError(f"n_train must lie in 1..{data.n - 1}, got {n_train}")
    head = replace(
        data,
        inputs=data.inputs[:n_train],
        clean_labels=data.clean_labels[:n_train],
        noisy_labels=data.noisy_labels[:n_train],
    )
    tail = replace(
        data,
        inputs=data.inputs[n_train:],
        clean_labels=data.clean_labels[n_train:],
        noisy_labels=data.noisy_labels[n_train:],
    )
    return head, tail
