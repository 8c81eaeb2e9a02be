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
a(t) with theta(t) = theta0 + Z a(t), which keeps the iteration O(n^2)
regardless of the parameter count. ``run_gd_rdi`` and ``run_gd_aux`` record
every iterate; their loops only step, and every parameter norm
||Z v|| = sqrt(v^T K v) is taken after the loop, for all stored rows at
once, through ``k_norms``. ``run_gd_equivalence`` runs both objectives for
a whole lambda grid as one (3L, n) block with one product with K per step,
reads every norm from that product and keeps no iterates; its values match
the recorded runs to floating-point level.
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


def _targets_and_eta(lm: LinearizedModel, y, lam: float, eta=1.0):
    """``y`` checked as the tangent model's (n,) targets, and the step size.

    ``eta`` None stands for the default step at ``lam``; the closed-form
    limit takes no step and leaves ``eta`` at its placeholder.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (lm.n,):  # the tangent model has one output
        raise ValidationError(f"targets must have shape ({lm.n},), got {y.shape}")
    if eta is None:
        eta = lm.default_eta(lam)
    if not eta > 0.0:
        raise ValidationError(f"eta must be positive, got {eta}")
    return y, eta


def run_gd_rdi(lm: LinearizedModel, y, lam: float, eta=None, steps: int = 1000) -> LinTrajectory:
    """Gradient descent on the distance-to-init objective.

    Update: a <- a - eta ((K a - y) + lam^2 a), i.e. the span coordinates of
    theta <- theta - eta (Z (Z^T (theta - theta0) - y) + lam^2 (theta - theta0)).
    """
    if lam < 0.0:
        raise ValidationError(f"lam must be >= 0, got {lam}")
    y, eta = _targets_and_eta(lm, y, lam, eta)
    k = lm.K.values
    reg = lam * lam
    coeffs = np.zeros((steps + 1, lm.n))
    objectives = np.zeros(steps + 1)
    for t, a in enumerate(coeffs):
        ka = k @ a
        residual = ka - y
        objectives[t] = 0.5 * float(residual @ residual) + 0.5 * reg * float(a @ ka)
        _check_divergence(objectives[t], t)
        if t < steps:
            coeffs[t + 1] = a - eta * (residual + reg * a)
    return LinTrajectory(
        kind=KIND_RDI, lam=lam, eta=eta, coeffs=coeffs,
        objectives=objectives, dist_from_init=k_norms(k, coeffs), lm=lm,
    )


def run_gd_aux(lm: LinearizedModel, y, lam: float, eta=None, steps: int = 1000) -> LinTrajectory:
    """Joint gradient descent on the auxiliary-variable objective.

    With residual r = K a + lam b - y the updates are a <- a - eta r and
    b <- b - eta lam r from b(0) = 0, which keeps theta(t) - theta0 equal to
    Z b(t)/lam at every step; the recorded ``identity_gap`` measures that
    relation in the parameter norm, relative to the displacement size.
    """
    if not lam > 0.0:
        raise ValidationError(f"the auxiliary objective needs lam > 0, got {lam}")
    y, eta = _targets_and_eta(lm, y, lam, eta)
    k = lm.K.values
    coeffs = np.zeros((steps + 1, lm.n))
    aux = np.zeros((steps + 1, lm.n))
    objectives = np.zeros(steps + 1)
    for t, (a, b) in enumerate(zip(coeffs, aux)):
        residual = k @ a + lam * b - y
        objectives[t] = 0.5 * float(residual @ residual)
        _check_divergence(objectives[t], t)
        if t < steps:
            coeffs[t + 1] = a - eta * residual
            aux[t + 1] = b - eta * lam * residual
    dist = k_norms(k, coeffs)
    gaps = k_norms(k, coeffs - aux / lam)
    identity_gap = np.divide(gaps, dist, out=gaps.copy(), where=dist > 0.0)
    return LinTrajectory(
        kind=KIND_AUX, lam=lam, eta=eta, coeffs=coeffs, aux=aux,
        objectives=objectives, dist_from_init=dist, identity_gap=identity_gap, lm=lm,
    )


@dataclass
class EquivalenceReport:
    """Step-by-step distance between two trajectories in parameter norm."""

    max_abs: float
    max_rel: float
    gaps: np.ndarray
    rel_gaps: np.ndarray
    tol: float

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
    rel_gaps = _relative_gaps(gaps, traj_rdi.dist_from_init)
    return EquivalenceReport(
        max_abs=float(np.max(gaps)),
        max_rel=float(np.max(rel_gaps)),
        gaps=gaps,
        rel_gaps=rel_gaps,
        tol=tol,
    )


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
        gaps, rel_gaps = self.gaps[:, j], self.rel_gaps[:, j]
        return EquivalenceReport(max_abs=float(np.max(gaps)), max_rel=float(np.max(rel_gaps)),
                                 gaps=gaps, rel_gaps=rel_gaps, tol=self.tol)


def run_gd_equivalence(lm: LinearizedModel, y, lambdas, eta=None, steps: int = 1000,
                       tol: float = EQUIVALENCE_TOL) -> EquivalenceScan:
    """RDI and AUX gradient descent run together, for every lambda at once.

    The state is one (3L, n) block: per lambda the RDI coefficients a, the
    AUX coefficients a' and their difference d = a - a'; AUX's b is an
    (L, n) block beside it. Each step makes one product of the block with K,
    and every recorded value is read from it: both residuals and objectives,
    the displacement sqrt(a^T K a) and the gap sqrt(d^T K d). Only those
    per-step scalars are kept, never an iterate history, so memory is
    O(L n + L steps). The updates are ``run_gd_rdi``'s and ``run_gd_aux``'s;
    the block product rounds differently from one ``K @ a`` at a time, so the
    results agree with theirs and ``check_equivalence``'s to floating-point
    level. Each lambda steps at ``eta``, or at its ``default_eta`` when
    ``eta`` is None. The divergence rule applies to each step's worst
    objective, and its error names the lambda.
    """
    if not lambdas or not min(lambdas) > 0.0:
        raise ValidationError(f"the auxiliary objective needs every lam > 0, got {list(lambdas)}")
    etas = []
    for lam in lambdas:
        y, step_size = _targets_and_eta(lm, y, lam, eta)
        etas.append(step_size)
    count, n = len(lambdas), lm.n
    k = lm.K.values
    lam = np.array(lambdas, dtype=np.float64)[:, None]
    reg = lam * lam
    eta_col = np.array(etas, dtype=np.float64)[:, None]
    eta_lam = eta_col * lam
    # rows of the coefficient pair [a; a']: a steps on r + lam^2 a and a' on its residual alone
    pair_reg = np.concatenate([reg, np.zeros_like(reg)])
    pair_eta = np.concatenate([eta_col, eta_col])
    half_reg = np.concatenate([0.5 * reg[:, 0], np.zeros(count)])
    state = np.zeros((3 * count, n))
    pair, a_rdi, a_aux, diff = state[:2 * count], state[:count], state[count:2 * count], state[2 * count:]
    b = np.zeros((count, n))
    product = np.empty_like(state)
    residual = np.empty((2 * count, n))
    r_rdi, r_aux = residual[:count], residual[count:]
    update = np.empty((2 * count, n))
    scratch = np.empty((count, n))
    quad = np.empty((steps + 1, 3 * count))  # v^T K v for each row v of the block
    objectives = np.empty((steps + 1, 2 * count))
    penalty = np.empty(2 * count)
    for t in range(steps + 1):
        np.matmul(state, k, out=product)
        np.einsum("ij,ij->i", state, product, out=quad[t])
        np.subtract(product[:count], y, out=r_rdi)
        np.multiply(lam, b, out=r_aux)
        r_aux += product[count:2 * count]
        r_aux -= y
        objective = objectives[t]
        np.einsum("ij,ij->i", residual, residual, out=objective)
        objective *= 0.5
        np.multiply(half_reg, quad[t, :2 * count], out=penalty)
        objective += penalty
        try:
            _check_divergence(float(objective.max()), t)
        except DivergenceError as exc:
            raise DivergenceError(f"lambda={lambdas[int(np.argmax(objective)) % count]}: {exc}") from None
        if t < steps:
            np.multiply(pair_reg, pair, out=update)
            update += residual
            update *= pair_eta
            pair -= update
            np.multiply(eta_lam, r_aux, out=scratch)
            b -= scratch
            np.subtract(a_rdi, a_aux, out=diff)
    np.maximum(quad, 0.0, out=quad)
    np.sqrt(quad, out=quad)
    dist, gaps = quad[:, :count], quad[:, 2 * count:]
    return EquivalenceScan(
        lambdas=list(lambdas), etas=etas, objectives_rdi=objectives[:, :count], objectives_aux=objectives[:, count:],
        dist_from_init=dist, gaps=gaps, rel_gaps=_relative_gaps(gaps, dist), tol=tol,
    )


def closed_form_limit(lm: LinearizedModel, y, lam: float):
    """Limit solution theta* = theta0 + Z (K + lam^2 I)^-1 y.

    Returns (theta_star, alpha) where alpha are the ridge coefficients; the
    limiting predictor is x |-> k(x, X)^T alpha. Requires lam > 0, or an
    invertible kernel matrix when lam = 0.
    """
    y, _ = _targets_and_eta(lm, y, lam)
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
