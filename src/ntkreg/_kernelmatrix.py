"""Container for symmetric PSD Gram matrices with cached spectral statistics.

Lives in its own module (re-exported by ``kernel``) so that the kernel cache
I/O in ``data`` can construct instances without a circular import.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Tolerances for the structural checks every kernel matrix must pass.
SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """An n-by-n Gram matrix together with its trace and spectral norm.

    Instances are built through :meth:`from_values`, which verifies symmetry
    (max |K_ij - K_ji| <= 1e-10 * max|K|) and positive semidefiniteness up to
    tolerance (lambda_min >= -1e-8 * tr/n). ``min_eig`` and ``op_norm`` both
    come from the one ``eigvalsh`` spectrum that the PSD check computes.
    """

    values: np.ndarray
    trace: float
    op_norm: float
    min_eig: float

    @classmethod
    def from_values(cls, values) -> "KernelMatrix":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"kernel matrix must be square, got shape {values.shape}")
        n = values.shape[0]
        if not np.all(np.isfinite(values)):
            raise ValidationError("kernel matrix contains non-finite entries")
        trace = float(np.trace(values))
        scale = max(float(np.max(np.abs(values))), np.finfo(np.float64).tiny)
        asym = float(np.max(np.abs(values - values.T)))
        if asym > SYMMETRY_RTOL * scale:
            raise ValidationError(
                f"kernel matrix is not symmetric: max|K - K^T| = {asym:.3e} "
                f"exceeds {SYMMETRY_RTOL:.0e} * max|K| = {SYMMETRY_RTOL * scale:.3e}"
            )
        eigs = np.linalg.eigvalsh(values)
        min_eig = float(eigs[0])
        if min_eig < -PSD_RTOL * max(trace, 0.0) / n:
            raise ValidationError(
                f"kernel matrix is not PSD within tolerance: lambda_min = {min_eig:.3e}"
            )
        op_norm = float(max(eigs[-1], -eigs[0]))
        return cls(values=values, trace=trace, op_norm=op_norm, min_eig=min_eig)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def k_norms(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sqrt(max(v^T K v, 0)) for every row v of ``rows``, from one product with K = ``values``."""
    return np.sqrt(np.maximum(np.sum((rows @ values) * rows, axis=1), 0.0))


def mirror_upper(values: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one, enforcing exact symmetry."""
    upper = np.triu(values)
    return upper + np.triu(values, 1).T
