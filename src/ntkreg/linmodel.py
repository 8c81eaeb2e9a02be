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
a(t) with theta(t) = theta0 + Z a(t). Both recursions are diagonal in K's
eigenbasis, K = V diag(k) V^T: one stepper, ``_descend``, holds the update
rules, the objectives and the divergence check, and steps a block of runs
on their rotated coefficients V^T a, where K a is the elementwise k * V^T a.
A step is O(n) per run whatever the parameter count, after one ``eigh`` of
K (``KernelMatrix.eigh``, which also certifies K) and one rotation in and
out of the basis. The RDI and AUX runs step as sub-blocks that make only
their own kind's update, and the trace, the objectives and the divergence
rule are read once per chunk of at most ``_CHUNK`` (8) steps, which costs
O(8 runs n) memory beside the block. ``run_gd_rdi`` and ``run_gd_aux`` are
its one-run case with iterates kept, a ``linear-*`` sweep keeps the final
state of all the cells of a seed, and ``run_gd_equivalence`` pairs RDI and
AUX runs.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernelmatrix import KernelMatrix, _as_real, check_residual, k_norms, mirror_upper
from .data import DataSet
from .errors import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    TrickViolationError,
    ValidationError,
    _check_divergence,
    _check_integer,
    _check_lambda,
)
from .kernel import _cross_blocks, _factor_gram
from .net import BLOCK_ENTRIES, MLP, GradientFactors, _as_batch, _combine_branches, flatten_factors, gradient_factors

INIT_OUTPUT_TOL = 1e-8
EQUIVALENCE_TOL = 1e-10
_PROBE_RTOL = 1e-10  # K v against Z^T (Z v), relative to max|K| ||v||_1

KIND_RDI = "rdi"
KIND_AUX = "aux"

_CHUNK = 8  # steps ``_descend`` takes between two reads of its trace


@dataclass(eq=False)
class LinearizedModel:
    """The tangent model of an MLP at initialization, held as its kernel and its training inputs.

    ``K`` is the Gram matrix Z^T Z (assembled by the same layerwise
    reduction as ``empirical_ntk``), all that gradient descent and the ridge
    limit read. ``mlp`` stays attached for ``theta0`` and the queries' pass,
    and ``inputs``, the n x d training inputs, for ``factors``: Z in
    factored form, the inputs' ``gradient_factors`` at ``params0``, built by
    one pass on first read (by ``theta_at``, ``predict`` or
    ``span_residual``) and checked against K on ``linearize``'s probe, so a
    snapshot written after ``linearize`` is refused. For a difference-trick
    net they hold branch 1's pairs only, counted twice: ``theta_at`` forms
    branch 2's blocks by negating branch 1's.
    """

    K: KernelMatrix
    mlp: MLP = None
    inputs: np.ndarray = None

    @property
    def n(self) -> int:
        return self.K.n

    @property
    def theta0(self) -> np.ndarray:
        """The flattened trainable initialization, in the order ``ntkreg.net`` documents."""
        if self.mlp is None:
            raise ValidationError("linearized model has no MLP attached; it has no parameters")
        layers = self.mlp.config.trainable_layers
        return np.concatenate([branch[l].ravel() for branch in self.mlp.params0 for l in layers])

    def default_eta(self, lam: float) -> float:
        """Largest certified step size, 1/(||K|| + lam^2)."""
        return 1.0 / (self.K.op_norm + lam * lam)

    @cached_property
    def factors(self) -> GradientFactors:
        """The training inputs' ``gradient_factors`` at ``params0``, bit for bit ``linearize``'s."""
        if self.mlp is None or self.inputs is None:
            raise ValidationError("linearized model has no MLP and training inputs attached; it has no factors")
        factors = gradient_factors(self.mlp, self.inputs, output_index=0, at_init=True)
        v = _probe_vector(self.n)
        if _probe_mismatch(self.K.values, v, _probe(factors, v)) > _PROBE_RTOL:
            raise ValidationError("probe: K v deviates from Z^T (Z v): the factors come from different weights "
                                  "than K, the net's snapshot changed after linearize")
        return factors

    def theta_at(self, coeffs: np.ndarray) -> np.ndarray:
        """theta0 + Z a, formed layer by layer from the factors: sum_i a_i delta_i input_i^T."""
        theta0 = self.theta0  # first, so a model without a net fails with its message
        blocks = [((delta * coeffs[:, None]).T @ inp).ravel() for delta, inp in self.factors.pairs]
        if self.factors.copies == 2:  # branch 2's deltas are branch 1's negated, and so are its blocks
            blocks += [-block for block in blocks]
        return theta0 + np.concatenate(blocks)

    def predict(self, coeffs: np.ndarray, queries) -> np.ndarray:
        """Tangent-model prediction phi(x)^T Z a = k(x, X)^T a; each row block of k(x, X) meets ``coeffs`` as it is formed."""
        if self.mlp is None:
            raise ValidationError("linearized model has no MLP attached; cannot predict")
        batch, single = _as_batch(self.mlp.config, queries)
        coeffs = _as_real(coeffs, "coefficients")
        out = np.empty((batch.shape[0], *coeffs.shape[1:]))
        for rows, block in _cross_blocks(self.mlp, batch, self.factors):
            out[rows] = block @ coeffs
        return out[0] if single else out


def _probe(factors: GradientFactors, v: np.ndarray) -> np.ndarray:
    """Z^T (Z v), formed one column block of each layer's Z v at a time.

    Per layer, Z v is the (width_out, width_in) block delta^T (v * input),
    and Z^T maps a block B to rowsum((delta B) * input). A block of the
    input's columns holds at most BLOCK_ENTRIES entries of Z v and of each
    (n, columns) temporary, so the probe forms neither a parameter-sized
    block nor delta * v.
    """
    total = np.zeros(len(v))
    for delta, inp in factors.pairs:
        width = max(1, BLOCK_ENTRIES // max(delta.shape[1], len(v)))
        for start in range(0, inp.shape[1], width):
            block = inp[:, start:start + width]
            total += np.sum((delta @ (delta.T @ (v[:, None] * block))) * block, axis=1)
    return factors.copies * total


def _probe_vector(n: int) -> np.ndarray:
    """The seeded probe v that ``linearize`` and ``LinearizedModel.factors`` check K on."""
    return np.random.default_rng(0).standard_normal(n)


def _probe_mismatch(values: np.ndarray, v: np.ndarray, ztzv: np.ndarray) -> float:
    """max |K v - Z^T (Z v)| relative to max|K| ||v||_1; max|K| is read without an n x n temporary."""
    scale = max(float(values.max()), -float(values.min()), np.finfo(np.float64).tiny) * float(np.sum(np.abs(v)))
    return float(np.max(np.abs(values @ v - ztzv))) / scale


def linearize(mlp: MLP, data: DataSet) -> LinearizedModel:
    """The tangent kernel from one gradient pass; requires an exactly-zero output at init.

    The pass's factors serve three reads and are then let go: the zero
    output, checked at ``params0``, the point linearized, whatever the
    current weights, from the branch outputs of that pass; the seeded probe
    v, Z^T (Z v) formed layer by layer, one column block of at most
    ``BLOCK_ENTRIES`` entries at a time; and K's values, the reduction of
    ``empirical_ntk``. Only then is K checked against the probe and
    certified PSD by the eigenvalues of its ``eigh``, so no factor array is
    alive beside that decomposition. The ``eigh`` serves ``op_norm``, every
    later descent and ``closed_form_limit`` too: K is never factored. The
    model keeps the training inputs, from which ``LinearizedModel.factors``
    rebuilds the same factors when ``theta_at`` or ``predict`` first reads
    them. It holds ``mlp`` itself and never writes its arrays, so the one
    read-only copy of each matrix that ``init_mlp`` draws serves it.
    """
    if not mlp.config.difference_trick:
        raise ValidationError("linearize requires a difference-trick network")
    factors = gradient_factors(mlp, data.inputs, output_index=0, at_init=True)
    # the pass's own branch outputs, combined as ``forward`` combines them: with
    # equal branches c o - c o, which is exactly 0 unless o is non-finite
    init_out = _combine_branches(mlp.branch_coeffs, factors.outputs)
    worst = float(np.max(np.abs(init_out)))
    if worst > INIT_OUTPUT_TOL:
        raise TrickViolationError(
            f"initial output magnitude {worst:.3e} exceeds {INIT_OUTPUT_TOL:.0e}"
        )
    v = _probe_vector(data.n)
    ztzv = _probe(factors, v)
    values = mirror_upper(_factor_gram(factors))
    del factors  # the last reference: the factors are freed before K's eigh
    mismatch = _probe_mismatch(values, v, ztzv)
    if mismatch > _PROBE_RTOL:
        raise ValidationError(f"probe: K v deviates from Z^T (Z v) by {mismatch:.3e} max|K| ||v||_1 > "
                              f"{_PROBE_RTOL:.0e} max|K| ||v||_1")
    return LinearizedModel(K=KernelMatrix.from_values(values, certificate="eigh"), mlp=mlp, inputs=data.inputs)


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
    """A run's targets, checked as the tangent model's finite (n,) vector, and its step (None: the default)."""
    y = _as_real(y, "targets")
    if y.shape != (lm.n,):  # the tangent model has one output
        raise ValidationError(f"targets must have shape ({lm.n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("targets contain non-finite values")
    _check_lambda("lam", lam)
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

    ``_descend`` returns the final block, its rows in the original basis.
    Its ``read`` sees a chunk of at most ``_CHUNK`` consecutive steps
    instead: each array gains a leading step axis, (m, runs, n) for a, b and
    K a and (m, runs) for a^T K a and the objectives, and a, b and K a hold
    their coordinates in K's eigenbasis (V^T a for a). ``etas[i]`` is run
    i's step and ``errors[i]`` the error that froze it, or None; a frozen
    run is reset to zero and moves no further.
    """

    coeffs: np.ndarray
    aux: np.ndarray
    product: np.ndarray
    quad: np.ndarray
    objectives: np.ndarray
    etas: np.ndarray
    errors: list


def _rdi_steps(a, b, product, residual, last, targets, spectrum, reg, eta):
    """RDI rows through a chunk: K a and r = K a - y at each step, then a <- a - eta (lam^2 a + r).

    ``a`` holds one more step than ``product``: a[s + 1] is the update of
    a[s]. Step ``last`` of the chunk is the descent's last and takes no
    update (with more chunks to come, it lies past this one). RDI's b stays
    0 and is not touched. The rates are (rows, n) arrays.
    """
    for s, (a_s, a_next, ka, r) in enumerate(zip(a, a[1:], product, residual)):
        np.multiply(a_s, spectrum, out=ka)
        np.subtract(ka, targets, out=r)
        if s == last:
            break
        move = np.multiply(reg, a_s, out=a_next)
        move += r
        move *= eta
        np.subtract(a_s, move, out=a_next)


def _aux_steps(a, b, product, residual, last, targets, spectrum, coupling, eta, eta_coupling):
    """AUX rows through a chunk as ``_rdi_steps``: r = K a + lam b - y, then a <- a - eta r, b <- b - eta lam r."""
    for s, (a_s, a_next, b_s, b_next, ka, r) in enumerate(zip(a, a[1:], b, b[1:], product, residual)):
        np.multiply(a_s, spectrum, out=ka)
        np.multiply(coupling, b_s, out=r)
        r += ka
        r -= targets
        if s == last:
            break
        np.subtract(a_s, np.multiply(eta, r, out=a_next), out=a_next)
        np.subtract(b_s, np.multiply(eta_coupling, r, out=b_next), out=b_next)


def _descend(lm: LinearizedModel, runs, steps: int, read=None):
    """Gradient descent on a block of (kind, y, lam, eta) runs; returns the final block and traces.

    With r = K a + lam b - y (b stays 0 for RDI), RDI steps a <- a - eta (r + lam^2 a)
    on 1/2 (|r|^2 + lam^2 a^T K a), and AUX steps a <- a - eta r, b <- b - eta lam r
    on 1/2 |r|^2. Consecutive runs of one kind form a sub-block that makes
    only its own kind's update. The block steps in K's eigenbasis,
    K = V diag(k) V^T: the targets are rotated to V^T y once, K a is the
    elementwise k * V^T a, and a, b and K a are rotated back once after the
    last step. Objectives and a^T K a are the same in either basis.

    Each step's a, b, K a and r go into a chunk of at most ``_CHUNK`` steps,
    O(_CHUNK runs n) memory beside the block; a^T K a, the objectives and
    the divergence rule are then computed for the whole chunk at once. An
    invalid run is frozen with its ValidationError, and a run that breaks the
    divergence rule with a DivergenceError naming its lambda and its first
    breaking step, from which on it is zero in either basis; what its chunk
    stepped past that step is discarded. Traces are None, or, given
    ``read``, read(chunk) for the chunks covering t = 0..steps, on the chunk
    in the eigenbasis, concatenated into (steps+1, ...) arrays; the error at
    the earliest step (the first run's, among runs that fail there) is
    raised instead.
    """
    _check_integer("steps", steps, 0)
    (spectrum, basis), count, shape = lm.K.eigh, len(runs), (len(runs), lm.n)
    reg, coupling, eta = np.zeros((3, count, 1))  # per run: lam^2 (RDI), lam (AUX) and eta
    targets, errors, failed = np.zeros(shape), [None] * count, {}  # failed: run -> step of its error
    for i, (kind, y, lam, run_eta) in enumerate(runs):
        try:
            targets[i], eta[i] = _check_run(lm, kind, y, lam, run_eta)
        except ValidationError as exc:
            errors[i], failed[i] = exc, 0
            continue
        reg[i], coupling[i] = (lam * lam, 0.0) if kind == KIND_RDI else (0.0, lam)
    targets = targets @ basis  # row i is V^T y_i
    # the sub-blocks, each with its rows and its rates spread over n columns
    full = [np.broadcast_to(rate, shape).copy() for rate in (spectrum, reg, coupling, eta, eta * coupling)]
    sub_blocks, start = [], 0
    for rdi, group in itertools.groupby(kind == KIND_RDI for kind, *_ in runs):
        rows = slice(start, start + len(list(group)))
        start = rows.stop
        k, lam_sq, lam, rate, lam_rate = (values[rows] for values in full)
        sub_blocks.append((rows, _rdi_steps, (targets[rows], k, lam_sq, rate)) if rdi else
                          (rows, _aux_steps, (targets[rows], k, lam, rate, lam_rate)))
    size = min(_CHUNK, steps + 1)
    a, b = np.zeros((2, size + 1) + shape)  # row s + 1 is the update of row s; row size carries on
    product, residual = np.empty((2, size) + shape)
    quad, objectives = np.empty((2, size, count))
    traces = None
    with np.errstate(over="ignore", invalid="ignore"):  # a breaking run's steps past its break are discarded
        for first in range(0, steps + 1, size):
            m = min(size, steps + 1 - first)
            for rows, stepper, constants in sub_blocks:
                stepper(a[:, rows], b[:, rows], product[:m, rows], residual[:m, rows], steps - first, *constants)
            chunk = GDBlock(a[:m], b[:m], product[:m], quad[:m], objectives[:m], eta[:, 0], errors)
            np.einsum("sij,sij->si", chunk.coeffs, chunk.product, out=chunk.quad)
            np.einsum("sij,sij->si", residual[:m], residual[:m], out=chunk.objectives)
            chunk.objectives += reg[:, 0] * chunk.quad
            chunk.objectives *= 0.5
            over = ~(np.abs(chunk.objectives) <= DIVERGENCE_LIMIT)
            for i in np.flatnonzero(over.any(axis=0)).tolist():  # some run may break the rule: check each
                for s in np.flatnonzero(over[:, i]).tolist():
                    try:
                        _check_divergence(float(chunk.objectives[s, i]), first + s)
                    except DivergenceError as exc:  # freeze the run at zero from step s on
                        errors[i], failed[i] = DivergenceError(f"lambda={runs[i][2]}: {exc}"), first + s
                        a[s:, i] = b[s:, i] = targets[i] = 0.0
                        product[s + 1:, i] = quad[s + 1:, i] = objectives[s + 1:, i] = 0.0
                        break
            if read is not None:
                if failed:
                    raise errors[min(failed, key=lambda i: (failed[i], i))]
                values = read(chunk)
                traces = traces or [np.empty((steps + 1,) + np.shape(value)[1:]) for value in values]
                for trace, value in zip(traces, values):
                    trace[first:first + m] = value
            if first + m <= steps:  # the next chunk starts from this one's last update
                a[0], b[0] = a[m], b[m]
    last = m - 1
    block = GDBlock(a[last] @ basis.T, b[last] @ basis.T, product[last] @ basis.T, quad[last], objectives[last],
                    eta[:, 0], errors)
    return block, traces


def _one_run(lm: LinearizedModel, kind: str, y, lam: float, eta, steps: int) -> LinTrajectory:
    """``_descend`` on one run, with every a(t) kept, and b(t) too for AUX, rotated back once."""
    def read(chunk):
        kept = (chunk.coeffs[:, 0], chunk.objectives[:, 0], chunk.quad[:, 0])
        return kept + (chunk.aux[:, 0],) if kind == KIND_AUX else kept

    block, (coeffs, objectives, quad, *aux) = _descend(lm, [(kind, y, lam, eta)], steps, read)
    basis_t = lm.K.eigh[1].T
    return LinTrajectory(kind=kind, lam=lam, eta=float(block.etas[0]), coeffs=coeffs @ basis_t,
                         objectives=objectives, dist_from_init=_root(quad),
                         aux=aux[0] @ basis_t if aux else None, lm=lm)


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
    d = a - a', all read in K's eigenbasis, where they take the same values,
    a chunk of steps at a time, so memory is O(L n + L steps) beside K's
    eigenvectors. A block's
    rotations round differently from one run's, so results match the
    one-lambda runs and ``check_equivalence`` to floating-point level. The
    first run to diverge fails the scan.
    """
    if not (count := len(lambdas)):
        raise ValidationError("the equivalence scan needs at least one lambda")

    def read(chunk):
        a, ka = chunk.coeffs, chunk.product
        return chunk.objectives, chunk.quad[:, :count], np.einsum("sij,sij->si", a[:, :count] - a[:, count:],
                                                                  ka[:, :count] - ka[:, count:])

    runs = [(kind, y, lam, eta) for kind in (KIND_RDI, KIND_AUX) for lam in lambdas]
    block, (objectives, quad, gaps) = _descend(lm, runs, steps, read)
    dist, gaps = _root(quad), _root(gaps)
    return EquivalenceScan(list(lambdas), block.etas[:count].tolist(), objectives[:, :count],
                           objectives[:, count:], dist, gaps, _relative_gaps(gaps, dist), tol)


def closed_form_limit(lm: LinearizedModel, y, lam: float):
    """Limit solution theta* = theta0 + Z (K + lam^2 I)^-1 y.

    Returns (theta_star, alpha) where alpha are the ridge coefficients; the
    limiting predictor is x |-> k(x, X)^T alpha. alpha is the filter
    1/(k + lam^2) of K's cached ``eigh`` (0 where k + lam^2 <= 0), checked
    by ``check_residual`` as a fit is: lam = 0 needs an invertible K.
    """
    y, _ = _check_run(lm, KIND_RDI, y, lam, 1.0)
    shifted = lm.K.eigh[0] + lam * lam
    alpha = lm.K._filter(y, np.divide(1.0, shifted, out=np.zeros_like(shifted), where=shifted > 0.0))
    check_residual(lm.K.values, lam * lam, alpha, y)
    return lm.theta_at(alpha), alpha


def span_residual(lm: LinearizedModel, theta: np.ndarray) -> float:
    """Relative norm of the part of theta - theta0 outside span(Z); forms the P x n matrix Z from the factors."""
    displacement = theta - lm.theta0
    norm = float(np.linalg.norm(displacement))
    if norm == 0.0:
        return 0.0
    z = flatten_factors(lm.factors).T
    coeffs = np.linalg.lstsq(z, displacement, rcond=None)[0]
    return float(np.linalg.norm(displacement - z @ coeffs)) / norm
