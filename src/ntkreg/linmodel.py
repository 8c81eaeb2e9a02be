"""Gradient descent on the linearized objectives and their closed-form limit.

Around the initialization theta0 the network is replaced by its tangent
model f(theta, x) ~= phi(x)^T (theta - theta0). Both regularized objectives,

    distance-to-init:  1/2 sum_i (phi_i^T d - y_i)^2 + lam^2/2 ||d||^2
    auxiliary:         1/2 sum_i (phi_i^T d + lam b_i - y_i)^2,  b(0) = 0

(with d = theta - theta0) produce *identical* gradient-descent iterates for
every step and learning rate, and both converge to the kernel ridge
solution theta* = theta0 + Z (K + lam^2 I)^-1 y when
eta <= 1/(||K|| + lam^2).

Z, the P x n matrix of feature columns, is notation and is never stored.
Displacements always live in its span, so iterates are span coefficients
a(t) with theta(t) = theta0 + Z a(t), and a step is O(n^2) whatever the
parameter count. One stepper, ``_descend``, holds the update rules, the
objectives and the divergence check, and steps a block of runs with one
product with K per step. ``run_gd_rdi`` and ``run_gd_aux`` are its one-run
case with iterates kept, a ``linear-*`` sweep keeps the final state of all
the cells of a seed, and ``run_gd_equivalence`` pairs RDI and AUX runs.
"""

from dataclasses import dataclass

import numpy as np

from ._kernelmatrix import KernelMatrix, k_norms
from .data import DataSet
from .errors import DivergenceError, TrickViolationError, ValidationError, _check_divergence
from .kernel import kernel_cross, kernel_from_factors
from .krr import krr_fit
from .net import MLP, forward, gradient_factors, gradients_matrix

INIT_OUTPUT_TOL = 1e-8
EQUIVALENCE_TOL = 1e-10

KIND_RDI = "rdi"
KIND_AUX = "aux"


@dataclass(eq=False)
class LinearizedModel:
    """The tangent model of an MLP at initialization, held as its kernel.

    ``K`` is the Gram matrix Z^T Z (assembled by the same layerwise
    reduction as ``empirical_ntk``), all that gradient descent and the ridge
    limit read. ``mlp``/``data`` stay attached for ``theta0``, ``theta_at``
    and held-out prediction.
    """

    K: KernelMatrix
    mlp: MLP = None
    data: DataSet = None

    @property
    def n(self) -> int:
        return self.K.n

    @property
    def theta0(self) -> np.ndarray:
        """The flattened trainable initialization, in the order ``ntkreg.net`` documents."""
        if self.mlp is None or self.data is None:
            raise ValidationError("linearized model has no MLP attached; it has no parameters")
        layers = self.mlp.config.trainable_layers
        return np.concatenate([branch[l].ravel() for branch in self.mlp.params0 for l in layers])

    def default_eta(self, lam: float) -> float:
        """Largest certified step size, 1/(||K|| + lam^2)."""
        return 1.0 / (self.K.op_norm + lam * lam)

    def theta_at(self, coeffs: np.ndarray) -> np.ndarray:
        """theta0 + Z a, formed layer by layer from one gradient pass: sum_i a_i delta_i input_i^T."""
        theta0 = self.theta0  # first, so a model without a net fails with its message
        factors = gradient_factors(self.mlp, self.data.inputs, output_index=0, at_init=True)
        return theta0 + np.concatenate([((delta * coeffs[:, None]).T @ inp).ravel() for delta, inp in factors])

    def predict(self, coeffs: np.ndarray, queries) -> np.ndarray:
        """Tangent-model prediction phi(x)^T Z a = k(x, X)^T a."""
        if self.mlp is None or self.data is None:
            raise ValidationError("linearized model has no MLP attached; cannot predict")
        cross = kernel_cross(self.mlp, queries, self.data)
        return cross @ coeffs


def linearize(mlp: MLP, data: DataSet, factors=None) -> LinearizedModel:
    """The tangent kernel, from one gradient pass; requires an exactly-zero initial output.

    K comes from ``kernel_from_factors`` (the reduction of ``empirical_ntk``)
    and is checked on a seeded probe v: K v against Z^T (Z v) formed layer by layer.
    ``factors`` are ``gradient_factors`` of ``data``'s inputs at init, when the
    caller has made that pass already.
    """
    if not mlp.config.difference_trick:
        raise ValidationError("linearize requires a difference-trick network")
    init_out = np.atleast_2d(forward(mlp, data.inputs))
    worst = float(np.max(np.abs(init_out)))
    if worst > INIT_OUTPUT_TOL:
        raise TrickViolationError(
            f"initial output magnitude {worst:.3e} exceeds {INIT_OUTPUT_TOL:.0e}"
        )
    if factors is None:
        factors = gradient_factors(mlp, data.inputs, output_index=0, at_init=True)
    k = kernel_from_factors(factors)
    # per layer, Z v is the block (delta * v)^T input and Z^T maps a block B to rowsum((delta B) * input)
    v = np.random.default_rng(0).standard_normal(k.n)
    ztzv = sum(np.sum((delta @ ((delta * v[:, None]).T @ inp)) * inp, axis=1) for delta, inp in factors)
    scale = max(float(np.max(np.abs(k.values))), np.finfo(np.float64).tiny) * float(np.sum(np.abs(v)))
    mismatch = float(np.max(np.abs(k.values @ v - ztzv)))
    if mismatch > 1e-10 * scale:
        raise ValidationError(f"probe: K v deviates from Z^T (Z v) by {mismatch:.3e} > 1e-10 max|K| ||v||_1")
    return LinearizedModel(K=k, mlp=mlp, data=data)


@dataclass(eq=False)
class LinTrajectory:
    """Iterates of one linearized run, stored as span coefficients.

    ``coeffs[t]`` gives theta(t) = theta0 + Z coeffs[t]; ``aux`` holds b(t)
    for auxiliary runs. ``identity_gap`` tracks the representation identity
    theta(t) - theta0 = Z b(t)/lam, which auxiliary gradient descent
    maintains for free.
    """

    kind: str
    lam: float
    eta: float
    coeffs: np.ndarray  # (steps+1, n)
    objectives: np.ndarray
    dist_from_init: np.ndarray
    aux: np.ndarray = None
    identity_gap: np.ndarray = None
    lm: LinearizedModel = None

    @property
    def steps(self) -> int:
        return self.coeffs.shape[0] - 1

    def final_coeffs(self) -> np.ndarray:
        return self.coeffs[-1]


def _check_run(lm: LinearizedModel, kind: str, y, lam: float, eta):
    """A run's targets, checked as the tangent model's (n,) vector, and its step (None: the default)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (lm.n,):  # the tangent model has one output
        raise ValidationError(f"targets must have shape ({lm.n},), got {y.shape}")
    if not 0.0 <= lam < np.inf:  # NaN fails too
        raise ValidationError(f"lam must be finite and >= 0, got {lam}")
    if kind == KIND_AUX and not lam > 0.0:
        raise ValidationError(f"the auxiliary objective needs lam > 0, got {lam}")
    eta = lm.default_eta(lam) if eta is None else eta
    if not 0.0 < eta < np.inf:
        raise ValidationError(f"eta must be finite and positive, got {eta}")
    return y, eta


def _root(squares: np.ndarray) -> np.ndarray:
    """sqrt(max(v, 0)): norms from quadratic forms that rounding can push below zero."""
    return np.sqrt(np.maximum(squares, 0.0))


@dataclass(eq=False)
class GDBlock:
    """Runs stepped as one block, row i for run i: a (``coeffs``), b (``aux``), K a and a^T K a.

    ``etas[i]`` is run i's step and ``errors[i]`` the error that froze it, or
    None; a frozen run is reset to zero and moves no further.
    """

    coeffs: np.ndarray
    aux: np.ndarray
    product: np.ndarray
    quad: np.ndarray
    objectives: np.ndarray
    etas: np.ndarray
    errors: list


def _descend(lm: LinearizedModel, runs, steps: int, read=None):
    """Gradient descent on a block of (kind, y, lam, eta) runs; returns the final block and traces.

    With r = K a + lam b - y (b stays 0 for RDI), RDI steps a <- a - eta (r + lam^2 a)
    on 1/2 (|r|^2 + lam^2 a^T K a), and AUX steps a <- a - eta r, b <- b - eta lam r
    on 1/2 |r|^2, all read from one product of the block with K per step. An
    invalid run is frozen with its ValidationError, and a run that breaks the
    divergence rule with a DivergenceError naming its lambda. Traces are
    None, or, given ``read``, read(block) at every step t = 0..steps stacked
    into (steps+1, ...) arrays, and then the first error of a run is raised.
    """
    if not steps >= 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    count, k, shape = len(runs), lm.K.values, (len(runs), lm.n)
    reg, coupling, eta = np.zeros((3, count, 1))  # per run: lam^2 (RDI), lam (AUX) and eta
    block = GDBlock(np.zeros(shape), np.zeros(shape), np.empty(shape), np.empty(count), np.empty(count),
                    etas=eta[:, 0], errors=[None] * count)
    a, b, product, quad, objectives = block.coeffs, block.aux, block.product, block.quad, block.objectives
    targets = np.zeros(shape)
    for i, (kind, y, lam, run_eta) in enumerate(runs):
        try:
            targets[i], eta[i] = _check_run(lm, kind, y, lam, run_eta)
        except ValidationError as exc:
            block.errors[i] = exc
            continue
        reg[i], coupling[i] = (lam * lam, 0.0) if kind == KIND_RDI else (0.0, lam)
    traces = None
    for t in range(steps + 1):
        np.matmul(a, k, out=product)  # K is exactly symmetric, so row i is K a_i
        np.einsum("ij,ij->i", a, product, out=quad)
        residual = coupling * b + product - targets
        np.einsum("ij,ij->i", residual, residual, out=objectives)
        objectives += reg[:, 0] * quad
        objectives *= 0.5
        for i, objective in enumerate(objectives.tolist()):
            try:
                _check_divergence(objective, t)
            except DivergenceError as exc:  # freeze the run at zero
                block.errors[i] = DivergenceError(f"lambda={runs[i][2]}: {exc}")
                for rows in (a, b, residual, targets):
                    rows[i] = 0.0
        if read is not None:
            for error in filter(None, block.errors):
                raise error
            values = read(block)
            traces = traces or [np.empty((steps + 1,) + np.shape(value)) for value in values]
            for trace, value in zip(traces, values):
                trace[t] = value
        if t < steps:
            a -= eta * (reg * a + residual)
            b -= eta * coupling * residual
    return block, traces


def _one_run(lm: LinearizedModel, kind: str, y, lam: float, eta, steps: int) -> LinTrajectory:
    """``_descend`` on one run, with every a(t) kept, and b(t) too for AUX."""
    def read(block):
        kept = (block.coeffs[0], block.objectives[0], block.quad[0])
        return kept + (block.aux[0],) if kind == KIND_AUX else kept

    block, (coeffs, objectives, quad, *aux) = _descend(lm, [(kind, y, lam, eta)], steps, read)
    return LinTrajectory(kind=kind, lam=lam, eta=float(block.etas[0]), coeffs=coeffs, objectives=objectives,
                         dist_from_init=_root(quad), aux=aux[0] if aux else None, lm=lm)


def run_gd_rdi(lm: LinearizedModel, y, lam: float, eta=None, steps: int = 1000) -> LinTrajectory:
    """Gradient descent on the distance-to-init objective.

    Update: a <- a - eta ((K a - y) + lam^2 a), i.e. the span coordinates of
    theta <- theta - eta (Z (Z^T (theta - theta0) - y) + lam^2 (theta - theta0)).
    """
    return _one_run(lm, KIND_RDI, y, lam, eta, steps)


def run_gd_aux(lm: LinearizedModel, y, lam: float, eta=None, steps: int = 1000) -> LinTrajectory:
    """Joint gradient descent on the auxiliary-variable objective.

    With residual r = K a + lam b - y the updates are a <- a - eta r and
    b <- b - eta lam r from b(0) = 0, which keeps theta(t) - theta0 equal to
    Z b(t)/lam at every step; the recorded ``identity_gap`` measures that
    relation in the parameter norm, relative to the displacement size.
    """
    traj = _one_run(lm, KIND_AUX, y, lam, eta, steps)
    gaps, dist = k_norms(lm.K.values, traj.coeffs - traj.aux / lam), traj.dist_from_init
    traj.identity_gap = np.divide(gaps, dist, out=gaps.copy(), where=dist > 0.0)
    return traj


@dataclass
class EquivalenceReport:
    """Step-by-step distance between two trajectories in parameter norm, and its maxima."""

    gaps: np.ndarray
    rel_gaps: np.ndarray
    tol: float

    @property
    def max_abs(self) -> float:
        return float(np.max(self.gaps))

    @property
    def max_rel(self) -> float:
        return float(np.max(self.rel_gaps))

    @property
    def passed(self) -> bool:
        return bool(self.max_rel <= self.tol)


def _relative_gaps(gaps: np.ndarray, displacement: np.ndarray) -> np.ndarray:
    """gaps / displacement; a zero gap counts 0 and a nonzero gap at zero displacement inf."""
    rel_gaps = np.where(gaps == 0.0, 0.0, np.inf)
    np.divide(gaps, displacement, out=rel_gaps, where=displacement > 0.0)
    return rel_gaps


def check_equivalence(traj_rdi: LinTrajectory, traj_aux: LinTrajectory,
                      tol: float = EQUIVALENCE_TOL) -> EquivalenceReport:
    """Max over t of ||theta_rdi(t) - theta_aux(t)||, absolute and relative.

    The relative gap at step t divides by ||theta_rdi(t) - theta0||; steps
    with zero displacement and zero gap contribute zero, while a nonzero gap
    at zero displacement is an immediate failure (reported as inf).
    """
    if traj_rdi.coeffs.shape != traj_aux.coeffs.shape:
        raise ValidationError(
            f"trajectory shapes differ: {traj_rdi.coeffs.shape} vs {traj_aux.coeffs.shape}"
        )
    lm = traj_rdi.lm if traj_rdi.lm is not None else traj_aux.lm
    if lm is None:
        raise ValidationError("trajectories carry no linearized model to measure norms with")
    gaps = k_norms(lm.K.values, traj_rdi.coeffs - traj_aux.coeffs)
    return EquivalenceReport(gaps, _relative_gaps(gaps, traj_rdi.dist_from_init), tol)


@dataclass(eq=False)
class EquivalenceScan:
    """RDI and AUX gradient descent at every lambda of a grid, recorded per step.

    Column j of each (steps+1, L) array belongs to ``lambdas[j]``, which
    stepped at ``etas[j]``. ``gaps`` are ||theta_rdi(t) - theta_aux(t)|| and
    ``rel_gaps`` divide them by ``dist_from_init``, the RDI displacement,
    under ``check_equivalence``'s rule.
    """

    lambdas: list
    etas: list
    objectives_rdi: np.ndarray
    objectives_aux: np.ndarray
    dist_from_init: np.ndarray
    gaps: np.ndarray
    rel_gaps: np.ndarray
    tol: float

    @property
    def steps(self) -> int:
        return self.gaps.shape[0] - 1

    def report(self, j: int) -> EquivalenceReport:
        """The equivalence report of ``lambdas[j]``."""
        return EquivalenceReport(self.gaps[:, j], self.rel_gaps[:, j], self.tol)


def run_gd_equivalence(lm: LinearizedModel, y, lambdas, eta=None, steps: int = 1000,
                       tol: float = EQUIVALENCE_TOL) -> EquivalenceScan:
    """RDI and AUX gradient descent run together, for every lambda at once.

    One ``_descend`` block holds an RDI run a and an AUX run a' per lambda,
    stepped at ``eta`` (None: each lambda's default). Each step keeps only
    the objectives, sqrt(a^T K a) and the gap sqrt(d . (K a - K a')) with
    d = a - a', all from the block's product with K, so memory is
    O(L n + L steps). Block products round differently from ``K @ a``, so
    results match the one-lambda runs and ``check_equivalence`` to
    floating-point level. The first run to diverge fails the scan.
    """
    if not (count := len(lambdas)):
        raise ValidationError("the equivalence scan needs at least one lambda")

    def read(block):
        a, ka = block.coeffs, block.product
        return block.objectives, block.quad[:count], np.einsum("ij,ij->i", a[:count] - a[count:],
                                                               ka[:count] - ka[count:])

    runs = [(kind, y, lam, eta) for kind in (KIND_RDI, KIND_AUX) for lam in lambdas]
    block, (objectives, quad, gaps) = _descend(lm, runs, steps, read)
    dist, gaps = _root(quad), _root(gaps)
    return EquivalenceScan(list(lambdas), block.etas[:count].tolist(), objectives[:, :count],
                           objectives[:, count:], dist, gaps, _relative_gaps(gaps, dist), tol)


def closed_form_limit(lm: LinearizedModel, y, lam: float):
    """Limit solution theta* = theta0 + Z (K + lam^2 I)^-1 y.

    Returns (theta_star, alpha) where alpha are the ridge coefficients; the
    limiting predictor is x |-> k(x, X)^T alpha. Requires lam > 0, or an
    invertible kernel matrix when lam = 0.
    """
    y, _ = _check_run(lm, KIND_RDI, y, lam, 1.0)
    alpha = krr_fit(lm.K, y, lam).alpha
    return lm.theta_at(alpha), alpha


def span_residual(lm: LinearizedModel, theta: np.ndarray) -> float:
    """Relative norm of the part of theta - theta0 outside span(Z); forms the P x n matrix Z."""
    displacement = theta - lm.theta0
    norm = float(np.linalg.norm(displacement))
    if norm == 0.0:
        return 0.0
    z = gradients_matrix(lm.mlp, lm.data.inputs).T
    coeffs = np.linalg.lstsq(z, displacement, rcond=None)[0]
    return float(np.linalg.norm(displacement - z @ coeffs)) / norm
