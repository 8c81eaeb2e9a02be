"""Kernel ridge regression: fitting, prediction, and RKHS norms.

The regularization strength lam enters the normal equations as lam^2, i.e.
alpha = (K + lam^2 I)^-1 y, so callers never have to remember which power
of lam the solver adds. Solves go through a Cholesky factorization with an
escalating-jitter fallback; every fit is verified against its residual and
fails loudly instead of returning a silently wrong coefficient vector. The
factorization belongs to the kernel matrix (``KernelMatrix.solver``), so
fits at one ridge and the bounds on the same K factor it once, and the
shift-0 factor that K's first solve builds certifies K PSD. A factor is
packed in n(n+1)/2 floats, LAPACK's rectangular full packed (RFP) format
(Gustavson et al. 2010, ACM TOMS 37(2)), so a kernel matrix holds K plus
one packed factor.

Every factor is the lower triangle's, packed by LAPACK's ``dtrttf``,
factored by ``dpftrf`` and solved with by ``dpftrs`` through ``ctypes`` in
the OpenBLAS library numpy has already loaded: one BLAS thread pool and no
scipy import, except through ``scipy.linalg.lapack`` where numpy's wheel
layout is missing. Input is checked once, at the public edges
(``KernelMatrix``, ``PSDSolver``, ``krr_fit``); ``cho_factor`` and
``cho_solve`` check only the shapes that LAPACK's writes rely on.
"""

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np
from numpy.ctypeslib import ndpointer

from ._kernelmatrix import PSD_RTOL, KernelMatrix, _as_real, check_residual, k_norms
from .data import TASK_BINARY, TASK_MULTICLASS, DataSet, _write_csv, predicted_classes
from .errors import SingularityError, ValidationError, _check_lambda
from .kernel import as_kernel_source, kernel_cross


def _openblas_lapack():
    """``_lapack``'s routines from the OpenBLAS library numpy has loaded, or None.

    ``ctypes`` opens the library file of numpy's wheel, which returns the
    handle numpy already holds: no second BLAS and no second thread pool.
    Integers are 64-bit; the last two arguments are the hidden Fortran
    lengths of ``transr`` and ``uplo``.
    """
    folder = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(folder, "libscipy_openblas64_*"))  # ILP64, symbols suffixed 64_
    if len(paths) != 1:
        return None
    try:
        library = ctypes.CDLL(paths[0])
        trttf, pftrf, pftrs = library.scipy_dtrttf_64_, library.scipy_dpftrf_64_, library.scipy_dpftrs_64_
    except (OSError, AttributeError):
        return None
    char, integer, length = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_size_t
    matrix = ndpointer(np.float64, flags="F_CONTIGUOUS")
    packed = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    trttf.argtypes = [char, char, integer, matrix, integer, packed, integer, length, length]
    pftrf.argtypes = [char, char, integer, packed, integer, length, length]
    pftrs.argtypes = [char, char, integer, integer, packed, matrix, integer, integer, length, length]
    trttf.restype = pftrf.restype = pftrs.restype = None
    i64 = ctypes.c_int64

    def dtrttf(a, out):
        info = i64()
        trttf(b"N", b"L", i64(a.shape[0]), a, i64(max(a.shape[0], 1)), out, info, 1, 1)
        return info.value

    def dpftrf(c, n):
        info = i64()
        pftrf(b"N", b"L", i64(n), c, info, 1, 1)
        return info.value

    def dpftrs(c, x):
        info = i64()
        pftrs(b"N", b"L", i64(x.shape[0]), i64(x.shape[1] if x.ndim == 2 else 1), c, x,
              i64(max(x.shape[0], 1)), info, 1, 1)
        return info.value

    return dtrttf, dpftrf, dpftrs


@functools.cache
def _lapack():
    """Lower-triangle ``(dtrttf, dpftrf, dpftrs)``, RFP with TRANSR='N', each returning LAPACK's ``info``.

    ``dtrttf(a, out)`` packs the lower triangle of a Fortran-order ``a``
    into ``out``, ``dpftrf(c, n)`` factors the packed ``c`` in place and
    ``dpftrs(c, x)`` overwrites the Fortran-order ``x`` with the solution.
    Where numpy's wheel layout is missing they come from
    ``scipy.linalg.lapack``.
    """
    routines = _openblas_lapack()
    if routines is not None:
        return routines
    from scipy.linalg.lapack import dpftrf, dpftrs, dtrttf

    def trttf(a, out):
        out[:], info = dtrttf(a, uplo="L")
        return info

    return (trttf, lambda c, n: dpftrf(n, c, uplo="L", overwrite_a=True)[1],
            lambda c, x: dpftrs(x.shape[0], c, x if x.ndim == 2 else x[:, None], uplo="L",
                                overwrite_b=True)[1])


def _packed_diagonal(n: int) -> np.ndarray:
    """Positions of the diagonal entries 0, ..., n-1 in a lower RFP array of order n, TRANSR='N'.

    The diagonal runs in two strided halves: the array is (n + 1) x n/2 in
    Fortran order for even n and n x (n + 1)/2 for odd n.
    """
    i, half = np.arange(n), n // 2
    stride, first, offsets = (n + 2, half, (1, 0)) if n % 2 == 0 else (n + 1, n - half, (0, n))
    return np.where(i < first, i * stride + offsets[0], (i - first) * stride + offsets[1])


def cho_factor(a, shifts=(), out=None):
    """Packed lower Cholesky factor of a symmetric matrix, for ``cho_solve``.

    For a symmetric ``a``, the factor holds the bits of
    ``scipy.linalg.lapack``'s ``dpftrf(n, dtrttf(a, uplo="L")[0], uplo="L")[0]``:
    n(n+1)/2 floats. LAPACK reads ``a``'s memory in Fortran order, so of a
    C-order ``a`` it packs the lower triangle of ``a.T``, with no copy. The
    packed copy gets 0.0 added (-0.0 becomes +0.0) and each of ``shifts``
    added to its diagonal in turn: ``shifts=(s, t)`` factors exactly
    (a + s I) + t I. ``a`` is never written; ``out``, a contiguous float64
    n(n+1)/2-vector, receives the factor if given. Raises
    ``np.linalg.LinAlgError`` if that matrix is not positive definite and
    ``ValueError`` for a non-square ``a`` or a wrong ``out``; whether ``a``
    is real and finite is the caller's to check.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if out is None:
        out = np.empty(n * (n + 1) // 2)
    elif out.dtype != np.float64 or out.shape != (n * (n + 1) // 2,) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous float64 vector of {n * (n + 1) // 2} entries")
    trttf, pftrf, _ = _lapack()
    trttf(a.T if a.flags.c_contiguous else np.asfortranarray(a), out)
    out += 0.0
    if shifts:
        diagonal = _packed_diagonal(n)
        for shift in shifts:
            out[diagonal] += shift
    info = pftrf(out, n)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of dpftrf")
    return out


def cho_solve(c, b):
    """Solve A x = b from ``cho_factor``'s packed factor ``c`` of A, as ``dpftrs`` does.

    ``b`` is an n-vector or an (n, k) matrix; a fresh Fortran-order float64
    copy of it becomes ``x``, so ``b`` is not written. Raises ``ValueError``
    for mismatched shapes.
    """
    c, b = np.ascontiguousarray(c, dtype=np.float64), np.asarray(b)
    n = b.shape[0] if b.ndim else 0
    if c.ndim != 1 or b.ndim not in (1, 2) or c.shape[0] != n * (n + 1) // 2:
        raise ValueError(f"incompatible dimensions ({c.shape} and {b.shape})")
    x = np.array(b, dtype=np.float64, order="F")
    info = _lapack()[2](c, x)
    if info != 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of dpftrs")
    return x


class PSDSolver:
    """Cholesky solve of (K + shift I) x = b with escalating diagonal jitter.

    On factorization failure, adds jitter 1e-10 tr(K)/n to the diagonal and
    escalates tenfold up to three times before raising SingularityError.
    The top rung, 1e-8 tr(K)/n, is ``KernelMatrix``'s PSD tolerance
    ``PSD_RTOL``, so a factor at shift 0 certifies K as PSD. Solutions are
    checked against the unjittered system by ``check_residual``, so a jitter
    that distorts the solve fails loudly too. ``factor`` is the solver's one
    array: the packed lower factor of ``cho_factor``, n(n+1)/2 floats, which
    every rung refills from K's memory and factors in place; the caller's K
    is never written. K's C-order memory, read in Fortran order, is K^T, so
    the packed triangle is K itself for the symmetric K that
    ``KernelMatrix`` certifies, and for a K symmetric only within tolerance
    the factor is that of the symmetric matrix on K's upper triangle. The
    residual check forms K x + shift x from the caller's K. K and each
    right-hand side are checked to be real here, but not re-scanned for
    non-finite values: ``KernelMatrix`` has excluded them from K, and a
    non-finite right-hand side fails the residual check.
    """

    def __init__(self, values: np.ndarray, shift: float):
        values = _as_real(values, "matrix to factor")
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {values.shape}")
        n = values.shape[0]
        if n == 0:
            raise ValidationError("matrix to factor is empty (0 x 0); it needs at least one row")
        self.values, self.shift = values, shift
        base_jitter = PSD_RTOL / 100.0 * max(float(np.trace(values)), 0.0) / n
        jitters = [0.0, base_jitter, base_jitter * 10.0, base_jitter * 100.0]
        packed = np.empty(n * (n + 1) // 2)
        for jitter in jitters:
            # a failed dpftrf clobbers the buffer, so every rung refills it from K
            try:
                self.factor = cho_factor(values, shifts=(shift, jitter), out=packed)
            except np.linalg.LinAlgError:
                continue
            self.jitter = jitter
            break
        else:
            raise SingularityError(
                f"Cholesky failed for shift {shift:.3e} even with jitter up to "
                f"{jitters[-1]:.3e}"
            )

    def solve_checked(self, b) -> np.ndarray:
        """x with (K + shift I) x = b, for an n-vector b or an (n, k) block of right-hand sides.

        A block is one ``dpftrs`` call and one product with K for its
        residuals, which ``check_residual`` checks column by column. A
        narrow block's columns equal single solves bitwise; OpenBLAS may
        split a wide block's triangular solves differently, which moves its
        columns by rounding.
        """
        b = _as_real(b, "right-hand side")
        x = cho_solve(self.factor, b)
        check_residual(self.values, self.shift, x, b)
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
    coefficients of output h. All rows are solved as one block of
    right-hand sides against one factorization, and each is residual-checked
    on its own; a SingularityError's ``columns`` name the rows that failed.
    Fits on the same ``K`` share the factorization of each shift through
    ``K.solver``.
    """
    _check_lambda("lam", lam)
    y = _as_real(y, "targets")
    if y.ndim not in (1, 2) or y.shape[-1] != K.n:
        raise ValidationError(f"targets must be ({K.n},) or (num_outputs, {K.n}), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("targets contain non-finite values")
    alpha = K.solver(lam * lam).solve_checked(y.T).T
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
    _write_predictions(path, values, predictor.train_data.task if predictor.train_data is not None else None)
    return values


def _write_predictions(path, outputs: np.ndarray, task) -> None:
    """``export_predictions``' CSV of (m,) or (m, k) ``outputs``, with classes for a binary or multiclass ``task``."""
    classes = predicted_classes(outputs, task) if task in (TASK_BINARY, TASK_MULTICLASS) else None
    columns = outputs.reshape(outputs.shape[0], -1)
    header = ["query_id"] + [f"output_{h + 1}" for h in range(columns.shape[1])]
    rows = [[i, *row] for i, row in enumerate(columns)]
    if classes is not None:
        header.append("predicted_class")
        rows = [row + [label.item()] for row, label in zip(rows, classes)]  # 2, or 1.0 by sign
    _write_csv(path, header, rows)
