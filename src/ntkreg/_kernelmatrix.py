"""Container for symmetric Gram matrices, certified PSD by the first decomposition
read (a Cholesky factor, which also serves solves, a spectrum or an eigh), with
the packed factor of its latest shift K + shift I (n(n+1)/2 floats, so K plus
one packed factor) and the quadratic forms it solved, and a spectrum and an
eigendecomposition computed only when read, whose spectral filters solve
without a factor; one residual rule checks every solve.

Re-exported by ``kernel``. The solver class comes from ``krr``, which
imports this module, so :meth:`KernelMatrix.solver` imports it when called.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SingularityError, ValidationError

# Tolerances for the structural checks every kernel matrix must pass.
# PSD_RTOL is also the top rung of ``krr.PSDSolver``'s jitter ladder, whose
# rungs are 1e-10, 1e-9 and 1e-8 times tr/n.
SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-8
RESIDUAL_RTOL = 1e-8  # a solve's residual, relative to its right-hand side's norm
# ``mirror_upper`` and the symmetry check work on bands of this many rows.
MIRROR_BLOCK_ROWS = 64


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """An n-by-n Gram matrix together with its trace and, on demand, its spectrum.

    :meth:`from_values` verifies symmetry (max |K_ij - K_ji| <= 1e-10 max|K|).
    Positive semidefiniteness up to tolerance (lambda_min >= -1e-8 tr/n) is
    certified once, by whichever decomposition is read first: :attr:`eigh`
    tests its eigenvalues; ``op_norm`` and ``min_eig`` test the ``eigvalsh``
    spectrum they read; :meth:`solver` and :meth:`inverse_form` build the
    shift-0 factor, whose jitter ladder tops out at that tolerance (the
    spectrum decides only when the ladder fails). A K that fails raises
    ValidationError on that read and on every later one, which decomposes
    nothing. ``min_eig`` and ``op_norm`` come from one spectrum, computed on
    first read: :attr:`eigh`'s eigenvalues once computed, an ``eigvalsh``
    otherwise.

    The checks make no n x n temporary: exact symmetry is tested band by
    band, and max|K_ij - K_ji| is formed only when K is not exactly
    symmetric. An instance holds K plus at most one packed factor of
    n(n+1)/2 floats, or K and ``eigvalsh``'s workspace, or K and its n x n
    eigenvectors.
    """

    values: np.ndarray
    trace: float
    _factors: dict = field(default_factory=dict, init=False, repr=False)
    _forms: dict = field(default_factory=dict, init=False, repr=False)
    _verdict: list = field(default_factory=list, init=False, repr=False)  # [] unread, [""] certified, [message] failed

    @classmethod
    def from_values(cls, values) -> "KernelMatrix":
        values = _as_real(values, "kernel matrix")
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"kernel matrix must be square, got shape {values.shape}")
        if values.shape[0] == 0:
            raise ValidationError("kernel matrix is empty (0 x 0); it needs at least one point")
        # max and min propagate NaN and +-inf, so together they check
        # finiteness and give max|K| without an n x n temporary
        top, bottom = float(values.max()), float(values.min())
        if not (np.isfinite(top) and np.isfinite(bottom)):
            raise ValidationError("kernel matrix contains non-finite entries")
        trace = float(np.trace(values))
        scale = max(top, -bottom, np.finfo(np.float64).tiny)
        if not _exactly_symmetric(values):
            asym = float(np.max(np.abs(values - values.T)))
            if asym > SYMMETRY_RTOL * scale:
                raise ValidationError(
                    f"kernel matrix is not symmetric: max|K - K^T| = {asym:.3e} "
                    f"exceeds {SYMMETRY_RTOL:.0e} * max|K| = {SYMMETRY_RTOL * scale:.3e}"
                )
        return cls(values=values, trace=trace)

    def _certify(self, spectrum=None):
        """Judge K by ``spectrum``, its ascending eigenvalues, unless a read has; raise if K failed."""
        if spectrum is not None and not self._verdict:
            failed = spectrum[0] < -PSD_RTOL * max(self.trace, 0.0) / self.n
            self._verdict.append(f"kernel matrix is not PSD within tolerance: lambda_min = {spectrum[0]:.3e}"
                                 if failed else "")
        if any(self._verdict):
            raise ValidationError(self._verdict[0])
        return spectrum

    @cached_property
    def eigh(self) -> tuple:
        """(k, V): K's eigenvalues in ascending order and its orthonormal eigenvectors, K = V diag(k) V^T."""
        self._certify()  # a failed K raises before it is decomposed again: a raising read caches nothing
        k, V = np.linalg.eigh(self.values)
        return self._certify(k), V

    def _filter(self, targets, gains) -> np.ndarray:
        """V diag(g) V^T y for each row y of ``targets``, n or (r, n), with ``gains`` g per eigenvalue, n or (r, n)."""
        basis = self.eigh[1]
        return ((targets @ basis) * gains) @ basis.T

    @cached_property
    def _spectrum(self) -> np.ndarray:
        if "eigh" in self.__dict__:  # computed already: its eigenvalues serve
            return self.eigh[0]
        self._certify()
        return self._certify(np.linalg.eigvalsh(self.values))

    @property
    def min_eig(self) -> float:
        return float(self._spectrum[0])

    @property
    def op_norm(self) -> float:
        return float(max(self._spectrum[-1], -self._spectrum[0]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def solver(self, shift: float):
        """The ``krr.PSDSolver`` of K + shift I, built on first use.

        Keeps the latest shift's only, releasing the old factor first. A first
        read certifies K by its shift-0 factor, or its spectrum if that fails.
        """
        from .krr import PSDSolver

        if not self._verdict:  # no factor is kept yet
            try:
                self._factors[0.0] = PSDSolver(self.values, 0.0)
                self._verdict.append("")
            except SingularityError:  # no factor within the jitter ladder: the spectrum decides
                self._spectrum
        self._certify()
        if shift not in self._factors:
            self._factors.clear()
            self._factors[shift] = PSDSolver(self.values, shift)
        return self._factors[shift]

    def inverse_form(self, rows, shift: float = 0.0) -> np.ndarray:
        """rows (K + shift I)^-1 rows^T for (k, n) rows, read-only k x k: solved once per (shift, rows), then kept.

        A failed solve is kept too and raised again on every later read,
        which so never solves again or refactors a replaced shift.
        """
        rows = np.atleast_2d(_as_real(rows, "rows"))
        key = (shift, rows.shape, rows.tobytes())
        if key not in self._forms:
            try:
                solver = self.solver(shift)
                if rows.shape[0] == 1:
                    form = np.array([[rows[0] @ solver.solve_checked(rows[0])]])
                else:
                    form = rows @ solver.solve_checked(rows.T)
                form.setflags(write=False)
            except SingularityError as exc:
                form = exc
            self._forms[key] = form
        if isinstance(self._forms[key], SingularityError):
            raise self._forms[key]
        return self._forms[key]


def _as_real(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; ValidationError if complex, whose imaginary part the cast would drop."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValidationError(f"{name} must be real, got dtype {values.dtype}")
    return np.asarray(values, dtype=np.float64)


def check_residual(values: np.ndarray, shift: float, x: np.ndarray, b: np.ndarray) -> None:
    """SingularityError unless ||(K + shift I) x_j - b_j|| <= ``RESIDUAL_RTOL`` ||b_j|| in every column j.

    K is ``values``; ``x`` and ``b`` are n-vectors or (n, k) blocks. The error
    reports the worst relative residual, and for a block the failed ``columns``.
    """
    residuals = np.linalg.norm(values @ x + shift * x - b, axis=0)
    scales = np.maximum(np.linalg.norm(b, axis=0), np.finfo(np.float64).tiny)
    ratios = np.atleast_1d(residuals / scales)
    failed = ~(ratios <= RESIDUAL_RTOL)  # a NaN residual fails too
    if np.any(failed):
        columns = tuple(np.flatnonzero(failed).tolist()) if x.ndim == 2 else None
        raise SingularityError(f"solve residual {np.max(ratios[failed]):.3e} exceeds {RESIDUAL_RTOL:.0e}; the "
                               "shifted kernel matrix is numerically singular", columns)


def k_norms(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sqrt(max(v^T K v, 0)) for every row v of ``rows``, from one product with K = ``values``."""
    return np.sqrt(np.maximum(np.sum((rows @ values) * rows, axis=1), 0.0))


def _exactly_symmetric(values: np.ndarray) -> bool:
    """Whether K equals K^T, comparing each band's upper block with its lower mirror."""
    n = values.shape[0]
    for start in range(0, n, MIRROR_BLOCK_ROWS):
        stop = min(start + MIRROR_BLOCK_ROWS, n)
        if not np.array_equal(values[start:stop, start:], values[start:, start:stop].T):
            return False
    return True


def mirror_upper(values: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one in place, enforcing exact symmetry.

    Works over bands of rows. Adding 0.0 to the upper triangle turns -0.0
    into +0.0, so the result is bitwise ``triu(K) + triu(K, 1).T``.
    Returns ``values``.
    """
    n = values.shape[0]
    for start in range(0, n, MIRROR_BLOCK_ROWS):
        stop = min(start + MIRROR_BLOCK_ROWS, n)
        band = values[start:stop, start:]
        band += 0.0
        values[start:stop, :start] = values[:start, start:stop].T
        square = values[start:stop, start:stop]
        lower = np.tril_indices(stop - start, -1)
        square[lower] = square.T[lower]
    return values
