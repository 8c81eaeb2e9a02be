"""Kernel ridge regression: fitting, prediction, and RKHS norms.

The regularization strength lam enters the normal equations as lam^2, i.e.
alpha = (K + lam^2 I)^-1 y, so callers never have to remember which power
of lam the solver adds. Solves go through a Cholesky factorization with an
escalating-jitter fallback; every fit is verified against its residual and
fails loudly instead of returning a silently wrong coefficient vector. The
factorizations belong to the kernel matrix (``KernelMatrix.solver``), so
fits at one ridge and the bounds on the same K factor each shift once; the
factor of K itself is the one the kernel matrix's PSD check built.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._kernelmatrix import KernelMatrix, k_norms
from .data import TASK_BINARY, TASK_MULTICLASS, DataSet, _write_csv, predicted_classes
from .errors import SingularityError, ValidationError
from .kernel import as_kernel_source, kernel_cross

RESIDUAL_RTOL = 1e-8
BASE_JITTER_FACTOR = 1e-10
JITTER_ESCALATIONS = 3


class PSDSolver:
    """Cholesky solve of (K + shift I) x = b with escalating diagonal jitter.

    On factorization failure, adds jitter 1e-10 tr(K)/n to the diagonal and
    escalates tenfold up to three times before raising SingularityError.
    The top rung, 1e-8 tr(K)/n, is ``KernelMatrix``'s PSD tolerance, so a
    factor at shift 0 certifies K as PSD. Solutions are checked against the
    unjittered system, so a jitter large enough to distort the solve is
    also a loud failure. Each rung factors one fresh Fortran-order copy of
    K in place, so the caller's K is never written. The copy is K^T, written
    contiguously: for the symmetric K that ``KernelMatrix`` certifies this
    is K itself, and for a K that is symmetric only within tolerance the
    factor is that of the symmetric matrix on K's upper triangle. The solver
    holds one n x n array, its factor; the residual check forms
    K x + shift x from the caller's K. Neither the factorization nor the
    solves re-scan for non-finite values: ``KernelMatrix`` has excluded them
    from K, and a non-finite right-hand side fails the residual check.
    """

    def __init__(self, values: np.ndarray, shift: float):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {values.shape}")
        n = values.shape[0]
        self.values, self.shift = values, shift
        base_jitter = BASE_JITTER_FACTOR * max(float(np.trace(values)), 0.0) / n
        jitters = [0.0] + [base_jitter * 10.0**k for k in range(JITTER_ESCALATIONS)]
        self.factor = None
        self.jitter = 0.0
        diagonal = np.diag_indices(n)
        for jitter in jitters:
            # A failed potrf clobbers its array, so every rung factors a fresh
            # copy, in Fortran order so that LAPACK works on it where it lies;
            # filling it as a.T, a C-order view, keeps the copy contiguous.
            # Adding 0.0 turns -0.0 into +0.0, so that the factored matrix is
            # exactly (K + shift I) + jitter I, signed zeros included.
            a = np.empty((n, n), order="F")
            np.add(values, 0.0, out=a.T)
            a[diagonal] += shift
            a[diagonal] += jitter
            try:
                self.factor = cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
                self.jitter = jitter
                break
            except np.linalg.LinAlgError:
                continue
        if self.factor is None:
            raise SingularityError(
                f"Cholesky failed for shift {shift:.3e} even with jitter up to "
                f"{jitters[-1]:.3e}"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve(self.factor, b, check_finite=False)

    def solve_checked(self, b: np.ndarray) -> np.ndarray:
        x = self.solve(b)
        residual = float(np.linalg.norm(self.values @ x + self.shift * x - b))
        scale = max(float(np.linalg.norm(b)), np.finfo(np.float64).tiny)
        if not residual <= RESIDUAL_RTOL * scale:  # a NaN residual fails too
            raise SingularityError(
                f"solve residual {residual / scale:.3e} exceeds {RESIDUAL_RTOL:.0e}; "
                "the shifted kernel matrix is numerically singular"
            )
        return x


@dataclass
class KRRPredictor:
    """Ridge coefficients bound to a kernel source and the training inputs.

    ``alpha`` is an n-vector for single-output fits or a (num_outputs, n)
    matrix for multi-output fits. Prediction requires ``kernel_source`` and
    ``train_data``; purely algebraic fits may leave them unset.
    """

    alpha: np.ndarray
    lam: float
    kernel_source: object = None
    train_data: DataSet = None

    @property
    def multi_output(self) -> bool:
        return self.alpha.ndim == 2

    def _cross(self, x) -> np.ndarray:
        if self.kernel_source is None or self.train_data is None:
            raise ValidationError("predictor has no kernel source bound; cannot predict")
        return kernel_cross(self.kernel_source, x, self.train_data)

    def predict(self, x) -> np.ndarray:
        """k(x, X)^T alpha per output; scalar rows for single-output fits."""
        return self._cross(x) @ self.alpha.T

    def classify(self, x) -> np.ndarray:
        """Class labels: argmax over more than one output row, else sign (0 maps to +1).

        Argmax ties resolve to the lowest class index.
        """
        task = TASK_MULTICLASS if np.atleast_2d(self.alpha).shape[0] > 1 else TASK_BINARY
        return predicted_classes(self.predict(x), task)


def krr_fit(K: KernelMatrix, y, lam: float, kernel_source=None, train_data=None) -> KRRPredictor:
    """Solve (K + lam^2 I) alpha = y with the jittered Cholesky solver.

    ``y`` is an n-vector, or a (num_outputs, n) matrix whose row h gives the
    coefficients of output h; each row is solved and residual-checked on its
    own against one factorization. Fits on the same ``K`` share the
    factorization of each shift through ``K.solver``.
    """
    if not lam >= 0.0:  # NaN fails too
        raise ValidationError(f"lam must be >= 0, got {lam}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[-1] != K.n:
        raise ValidationError(f"targets must be ({K.n},) or (num_outputs, {K.n}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("targets contain non-finite values")
    solver = K.solver(lam * lam)
    alpha = np.stack([solver.solve_checked(row) for row in np.atleast_2d(y)]).reshape(y.shape)
    source = as_kernel_source(kernel_source) if kernel_source is not None else None
    return KRRPredictor(alpha=alpha, lam=lam, kernel_source=source, train_data=train_data)


def rkhs_norm(predictor: KRRPredictor, K: KernelMatrix):
    """sqrt(alpha^T K alpha), clamped at zero against fp noise.

    Multi-output predictors get one norm per output row.
    """
    alpha = predictor.alpha
    if alpha.shape[-1] != K.n:
        raise ValidationError(f"alpha has shape {alpha.shape}, kernel is {K.n}x{K.n}")
    norms = k_norms(K.values, np.atleast_2d(alpha))
    return float(norms[0]) if alpha.ndim == 1 else norms


def export_predictions(predictor: KRRPredictor, queries, path) -> np.ndarray:
    """CSV of per-query outputs, plus the predicted class for classifiers.

    Evaluates the cross kernel once and returns the outputs it wrote.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    values = np.atleast_1d(predictor.predict(queries))
    task = predictor.train_data.task if predictor.train_data is not None else None
    classes = predicted_classes(values, task) if task in (TASK_BINARY, TASK_MULTICLASS) else None
    columns = values.reshape(queries.shape[0], -1)
    header = ["query_id"] + [f"output_{h + 1}" for h in range(columns.shape[1])]
    rows = [[i, *outputs] for i, outputs in enumerate(columns)]
    if classes is not None:
        header.append("predicted_class")
        rows = [row + [label.item()] for row, label in zip(rows, classes)]  # 2, or 1.0 by sign
    _write_csv(path, header, rows)
    return values
