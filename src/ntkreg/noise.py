"""Label-noise models: additive subgaussian noise, binary sign flips, and
class-transition channels, plus the (1-2p) rescaling of flipped labels.

The one-hot encodings live in ``ntkreg.data`` and are re-exported here.

Every corruption is i.i.d. per example and deterministic given its seed.
Clean labels are never mutated.
"""

from dataclasses import dataclass

import numpy as np

from ._kernelmatrix import _as_real
from .data import TASK_BINARY, TASK_MULTICLASS, TASK_REGRESSION, DataSet
from .data import onehot, onehot_matrix  # noqa: F401  (public names of this module too)
from .errors import ValidationError, _check_flip

COLUMN_SUM_TOL = 1e-12

SHAPE_GAUSSIAN = "gaussian"
SHAPE_BOUNDED_UNIFORM = "bounded-uniform"


@dataclass(frozen=True)
class AdditiveNoise:
    """Zero-mean additive noise with subgaussian parameter <= sigma.

    ``gaussian`` draws N(0, sigma^2); ``bounded-uniform`` draws uniformly on
    [-sqrt(3) sigma, sqrt(3) sigma], which has the same variance but bounded
    support. Applies to regression tasks.
    """

    sigma: float
    shape: str = SHAPE_GAUSSIAN

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValidationError(f"additive noise needs sigma > 0, got {self.sigma}")
        if self.shape not in (SHAPE_GAUSSIAN, SHAPE_BOUNDED_UNIFORM):
            raise ValidationError(f"unknown additive noise shape {self.shape!r}")


@dataclass(frozen=True)
class BinaryFlip:
    """Flip each +-1 label independently with probability p, 0 <= p < 1/2."""

    p: float

    def __post_init__(self):
        _check_flip(self.p)


class ClassTransition:
    """Column-stochastic transition channel: entry (c', c) is P[observed c' | true c].

    The matrix must be strictly diagonally dominant per column (each class
    stays itself more often than it becomes any particular other class);
    validation also yields the dominance gap used by the multiclass bound.
    """

    def __init__(self, matrix):
        matrix = _as_real(matrix, "transition matrix")
        self.gap = validate_transition(matrix)
        self.matrix = matrix

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]


def validate_transition(P) -> float:
    """Check a transition matrix and return gap = min_{c != c'} (P_cc - P_c'c)."""
    P = _as_real(P, "transition matrix")
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {P.shape}")
    if P.shape[0] < 2:
        raise ValidationError("transition matrix needs at least 2 classes")
    if np.any(P < 0.0) or np.any(P > 1.0):
        raise ValidationError("transition entries must lie in [0, 1]")
    col_sums = P.sum(axis=0)
    worst = float(np.max(np.abs(col_sums - 1.0)))
    if worst > COLUMN_SUM_TOL:
        raise ValidationError(
            f"transition columns must sum to 1 (worst deviation {worst:.3e})"
        )
    diffs = np.diag(P)[None, :] - P  # entry (c', c) is P_cc - P_c'c
    np.fill_diagonal(diffs, np.inf)
    gap = float(diffs.min())
    if gap <= 0.0:
        raise ValidationError(
            f"diagonal dominance violated: some off-diagonal entry >= its column diagonal (gap {gap:.3e})"
        )
    return gap


def rescale_binary(y, p: float):
    """Shift +-1 labels to +-(1-2p) so the flip noise becomes zero-mean.

    Returns the rescaled labels and the subgaussian parameter used downstream,
    sigma_eff = min(1, 2 sqrt(p)). The value 2 sqrt(p) follows from the flip
    variance 4p(1-p) <= 4p; the cap at 1 is the range bound |noise| <= 2.
    This constant is a documented convention, not a derived identity.
    """
    _check_flip(p)
    y = _as_real(y, "labels")
    sigma_eff = min(1.0, 2.0 * np.sqrt(p))
    return (1.0 - 2.0 * p) * y, sigma_eff


def read_transition_csv(path) -> ClassTransition:
    """Load a K x K column-stochastic transition matrix from CSV."""
    matrix = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return ClassTransition(matrix)


def corrupt(data: DataSet, model, seed: int) -> DataSet:
    """Fresh dataset whose noisy labels are drawn i.i.d. from ``model``.

    The model must match the task kind: additive noise for regression,
    binary flips for binary tasks, class transitions for multiclass.
    """
    rng = np.random.default_rng(seed)
    if isinstance(model, AdditiveNoise):
        if data.task != TASK_REGRESSION:
            raise ValidationError(f"additive noise requires a regression task, got {data.task}")
        if model.shape == SHAPE_GAUSSIAN:
            eps = rng.normal(0.0, model.sigma, size=data.n)
        else:
            half_width = np.sqrt(3.0) * model.sigma
            eps = rng.uniform(-half_width, half_width, size=data.n)
        return data.with_noisy_labels(data.clean_labels + eps)
    if isinstance(model, BinaryFlip):
        if data.task != TASK_BINARY:
            raise ValidationError(f"binary flips require a binary task, got {data.task}")
        flips = rng.random(data.n) < model.p
        return data.with_noisy_labels(np.where(flips, -data.clean_labels, data.clean_labels))
    if isinstance(model, ClassTransition):
        if data.task != TASK_MULTICLASS:
            raise ValidationError(f"class transitions require a multiclass task, got {data.task}")
        if model.num_classes != data.num_classes:
            raise ValidationError(
                f"transition matrix has {model.num_classes} classes, dataset has {data.num_classes}"
            )
        cdf = np.cumsum(model.matrix, axis=0)  # (K, K), column c is the CDF for true class c
        draws = rng.random(data.n)
        per_example_cdf = cdf[:, data.clean_labels - 1]  # (K, n)
        noisy = 1 + np.sum(draws[None, :] >= per_example_cdf, axis=0)
        noisy = np.minimum(noisy, model.num_classes)  # guard fp shortfall in the last CDF entry
        return data.with_noisy_labels(noisy)
    raise ValidationError(f"unknown noise model {type(model).__name__}")
