"""Tangent kernels for fully-connected ReLU networks.

Two routes to the same object:

* ``empirical_ntk`` builds the Gram matrix of per-example parameter
  gradients at initialization, K_ij = <phi(x_i), phi(x_j)> with
  phi(x) = grad_theta f(theta(0), x); it concentrates around the
  infinite-width limit at rate O(width^-1/2).

* ``analytic_ntk`` evaluates that limit directly for unit-norm inputs via
  the arc-cosine recursion. With u = x_i . x_j,

      k0(u) = (pi - arccos u) / pi
      k1(u) = (u (pi - arccos u) + sqrt(1 - u^2)) / pi
      S_0 = u,  T_0 = S_0
      S_h = k1(S_{h-1}),  T_h = T_{h-1} k0(S_{h-1}) + S_h

  and the depth-L kernel is T_{L-1}. For unit-norm inputs the diagonal is
  exactly L.

Cosines are clamped to [-1, 1] with a 1e-12 tolerance (values within 1e-12
of +-1 are snapped, so duplicated rows and self-queries hit the endpoint
identities exactly); anything further out is an error.

The recursion runs fused and in place over bands of rows: each band of
cosines is cleaned into a contiguous scratch block, each level evaluates
arccos once and reuses it for k0 and k1, with the floating-point operations
of ``arccos_kernel0/1`` in their order, so the values are bitwise theirs,
and T is written back over the band. A Gram matrix runs the recursion on
each band from its diagonal column on and ``mirror_upper`` copies K's upper
triangle down once. Besides its result, a build allocates at most four
blocks of scratch: a Gram build holds one n x n array until its first solve
packs K's triangle for its Cholesky factor (n(n+1)/2 floats), and afterwards
K plus one packed factor at a time; a cross kernel holds one m x n array.
The empirical cross kernel also holds the training inputs' gradient factors,
and takes the queries' gradient pass in ``forward``'s row blocks. The
empirical kernels read a ``GradientFactors``'s pairs and copies: for a
difference-trick net at initialization, one branch's factors and one set of
factor products, whose sum is added to itself.
"""

import numpy as np

from ._kernelmatrix import KernelMatrix, mirror_upper
from .data import DataSet
from .errors import ValidationError, _check_integer
from .net import BLOCK_ENTRIES, MLP, GradientFactors, _as_batch, _row_blocks, gradient_factors

COS_CLAMP_TOL = 1e-12
UNIT_NORM_TOL = 1e-8


def arccos_kernel0(u):
    """Degree-0 arc-cosine kernel: expected product of ReLU derivatives."""
    u = np.asarray(u, dtype=np.float64)
    return (np.pi - np.arccos(u)) / np.pi


def arccos_kernel1(u):
    """Degree-1 arc-cosine kernel: 2 E[relu(a) relu(b)] for unit correlated Gaussians."""
    u = np.asarray(u, dtype=np.float64)
    return (u * (np.pi - np.arccos(u)) + np.sqrt(np.maximum(1.0 - u * u, 0.0))) / np.pi


def _clean_cosines(u: np.ndarray, out: np.ndarray) -> None:
    """Clamp the cosines ``u`` to [-1, 1] into ``out``, snapping the endpoints."""
    worst = max(float(u.max()), -float(u.min())) if u.size else 0.0
    if worst > 1.0 + COS_CLAMP_TOL:
        raise ValidationError(
            f"cosine {worst!r} exceeds 1 + {COS_CLAMP_TOL:.0e}; inputs are not unit-norm"
        )
    np.clip(u, -1.0, 1.0, out=out)
    np.copyto(out, 1.0, where=out > 1.0 - COS_CLAMP_TOL)
    np.copyto(out, -1.0, where=out < -1.0 + COS_CLAMP_TOL)


def _require_unit_rows(x: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(x, axis=1)
    worst = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if worst > UNIT_NORM_TOL:
        raise ValidationError(
            f"{what} must have unit-norm rows for the analytic kernel "
            f"(worst |norm - 1| = {worst:.3e})"
        )


def _recursion_block(s, t, a, r, depth: int) -> None:
    """T_{depth-1} into ``t`` for one block, ``t`` holding S_0 = ``s`` on entry.

    Overwrites the cosines ``s`` with S_h level by level; ``a`` and ``r`` are
    scratch of the same shape. Each level evaluates arccos once, with the
    floating-point operations of ``arccos_kernel0/1`` in their order, so the
    result is bitwise theirs.
    """
    for _ in range(depth - 1):
        np.arccos(s, out=a)
        np.subtract(np.pi, a, out=a)  # pi - arccos S_{h-1}
        np.multiply(s, s, out=r)
        np.subtract(1.0, r, out=r)
        np.maximum(r, 0.0, out=r)
        np.sqrt(r, out=r)
        np.multiply(s, a, out=s)
        np.add(s, r, out=s)
        np.divide(s, np.pi, out=s)  # S_h = k1(S_{h-1})
        np.divide(a, np.pi, out=a)  # k0(S_{h-1})
        np.multiply(t, a, out=t)
        np.add(t, s, out=t)


def _kernel_bands(u: np.ndarray, depth: int, gram: bool) -> np.ndarray:
    """Overwrite the raw cosines ``u`` with their depth-``depth`` kernel, band by band.

    Each band of rows is cleaned into a contiguous scratch block, run through
    the recursion there, and its T written back over the band, so besides
    ``u`` only three float blocks and the clamp's bool masks are allocated.
    A Gram matrix (``gram``) visits each band from its diagonal column on,
    snapping that diagonal to 1, and leaves the strict lower triangle for
    ``mirror_upper``. Returns ``u``.
    """
    m, n = u.shape
    # bands small enough for a band and its scratch blocks to stay in cache
    rows = max(1, min(m, BLOCK_ENTRIES // max(n, 1)))
    s, a, r = (np.empty(rows * n) for _ in range(3))
    for start in range(0, m, rows):
        t = u[start:start + rows, start if gram else 0:]
        sb, ab, rb = (buf[: t.size].reshape(t.shape) for buf in (s, a, r))
        _clean_cosines(t, sb)
        if gram:
            # Unit-norm rows make the true diagonal exactly 1; snap away the fp dot noise.
            np.fill_diagonal(sb, 1.0)
        t[...] = sb
        _recursion_block(sb, t, ab, rb, depth)
    return u


def analytic_ntk(depth: int, data: DataSet) -> KernelMatrix:
    """Infinite-width tangent kernel matrix for a depth-``depth`` ReLU network, certified PSD by its first read."""
    _check_integer("depth", depth, 2)
    _require_unit_rows(data.inputs, "inputs")
    x = data.inputs
    return KernelMatrix.from_values(mirror_upper(_kernel_bands(x @ x.T, depth, gram=True)))


def analytic_ntk_cross(depth: int, queries: np.ndarray, data: DataSet) -> np.ndarray:
    _check_integer("depth", depth, 2)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != data.d:
        raise ValidationError(f"query dimension {queries.shape[1]} != data dimension {data.d}")
    _require_unit_rows(data.inputs, "inputs")
    _require_unit_rows(queries, "queries")
    return _kernel_bands(queries @ data.inputs.T, depth, gram=False)


def _factor_gram(factors_a: GradientFactors, factors_b: GradientFactors = None) -> np.ndarray:
    """Sum over layers of (Da Db^T) * (Ia Ib^T); equals Za Zb^T exactly in algebra.

    Pairs that count twice (``GradientFactors.copies``) are multiplied once
    and the sum is added to itself: branch 2's products equal branch 1's bit
    for bit, and x + x = 2x is exact, so with one trainable layer the result
    is the bits of the sum over every pair. Two factor sets that count their
    pairs differently come from different weights and raise ValidationError.
    """
    factors_b = factors_a if factors_b is None else factors_b
    if factors_a.copies != factors_b.copies:
        raise ValidationError(f"factor sets count their pairs {factors_a.copies} and {factors_b.copies} times: "
                              "they come from different weights")
    total = None
    for (da, ia), (db, ib) in zip(factors_a.pairs, factors_b.pairs):
        block = (da @ db.T) * (ia @ ib.T)
        total = block if total is None else total + block
    if factors_a.copies == 2:
        total += total
    return total


def empirical_ntk(mlp: MLP, data: DataSet) -> KernelMatrix:
    """Gram matrix of parameter gradients at initialization (output 0).

    Only the first output's gradients are used. The outputs of a
    multi-output network share one tangent kernel only at infinite width;
    at finite width the full kernel has cross-output blocks, and its norm
    can exceed this one's, so a step size read from this kernel is
    certified for single-output networks only. The gradient factors are a
    temporary of the layerwise reduction, with no name of their own, so
    they are freed before K is returned and its first decomposition read
    certifies it PSD; K's values get their upper triangle mirrored for
    exact symmetry.
    """
    values = mirror_upper(_factor_gram(gradient_factors(mlp, data.inputs, output_index=0, at_init=True)))
    return KernelMatrix.from_values(values)


def _cross_blocks(mlp: MLP, batch: np.ndarray, factors: GradientFactors):
    """(rows, k(batch[rows], X)) per row block of the queries: one gradient pass each, X's ``factors`` given."""
    # X's factors stand on the left of each product and the block is yielded
    # transposed: that way round, blocks of more than a few rows gave the same
    # bits whatever their size (OpenBLAS 0.3.31); one-row blocks differ by rounding.
    for rows in _row_blocks(mlp.config, batch.shape[0]):
        yield rows, _factor_gram(factors, gradient_factors(mlp, batch[rows], output_index=0, at_init=True)).T


def empirical_ntk_cross(mlp: MLP, queries: np.ndarray, data: DataSet) -> np.ndarray:
    """k(queries, X) of the output-0 tangent kernel: one gradient pass over X, then the queries in row blocks."""
    batch, _ = _as_batch(mlp.config, queries)
    factors = gradient_factors(mlp, data.inputs, output_index=0, at_init=True)
    out = np.empty((batch.shape[0], data.n))
    for rows, block in _cross_blocks(mlp, batch, factors):
        out[rows] = block
    return out


class AnalyticNTK:
    """Kernel source backed by the infinite-width recursion."""

    kind = "analytic"

    def __init__(self, depth: int):
        _check_integer("depth", depth, 2)
        self.depth = depth

    def gram(self, data: DataSet) -> KernelMatrix:
        return analytic_ntk(self.depth, data)

    def cross(self, queries, data: DataSet) -> np.ndarray:
        return analytic_ntk_cross(self.depth, queries, data)


class EmpiricalNTK:
    """Kernel source backed by a finite-width network's gradients at init."""

    kind = "empirical"

    def __init__(self, mlp: MLP):
        self.mlp = mlp

    def gram(self, data: DataSet) -> KernelMatrix:
        return empirical_ntk(self.mlp, data)

    def cross(self, queries, data: DataSet) -> np.ndarray:
        return empirical_ntk_cross(self.mlp, queries, data)


def as_kernel_source(source):
    """Accept an MLP, an integer depth, or an existing kernel source."""
    if isinstance(source, (AnalyticNTK, EmpiricalNTK)):
        return source
    if isinstance(source, MLP):
        return EmpiricalNTK(source)
    if isinstance(source, (int, np.integer)):
        return AnalyticNTK(int(source))
    raise ValidationError(f"cannot interpret {type(source).__name__} as a kernel source")


def kernel_cross(source, x, data: DataSet) -> np.ndarray:
    """Vector k(x, X) (or matrix for a batch of queries) under ``source``."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    values = as_kernel_source(source).cross(x, data)
    return values[0] if single else values
