"""Generalization-bound components for ridge-regularized kernel predictors
trained on noisy labels, with every constant made explicit.

Three bound assemblies are provided, one per noise channel:

* additive subgaussian noise on regression targets,
* independent sign flips on binary labels (rescaled to +-(1-2p)),
* a column-stochastic class-transition channel for multiclass problems.

Each returns a :class:`BoundReport` that derives its ``total`` as the exact
sum of the itemized ``main_term``, ``sigma_over_lambda_term`` and
``delta_term``, so users can see which part dominates.

Two constant modes:

``explicit-appendix``
    Every hidden constant is traced through the underlying proof chain with
    net radius eps = 1 and the confidence budget split in thirds:
    the main constant becomes C = 4 sqrt(tr(K)/n); the noise-to-ridge term
    gets coefficient 5/2; the confidence term collects
    sigma sqrt(2 log(3/delta)/n), the net-radius and net-size residues, and
    the base concentration term 3 sqrt(log(2/delta)/(2n)). The union-bound
    logarithm is split via sqrt(a+b) <= sqrt(a) + sqrt(b) into that base
    term plus sqrt(log(n/(delta lam))/n) with unit constant.

``unit-constants``
    Every O(.) is replaced by 1, giving the shape-level statement
    (lam + 1)/2 sqrt(y^T K^-1 y / n) + sigma/lam + confidence terms.

Logarithms that can go negative for very large lam are floored at zero.

Reports read the clean labels' y^T K^-1 y and y^T (K + lam^2 I)^-1 y from
``K.inverse_form``, which solves each once per kernel matrix; the binary
report scales them by (1-2p)^2, and the multiclass one reads
q_h = (P G P^T)_hh from G = Y K^-1 Y^T.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._kernelmatrix import KernelMatrix, _as_real
from .data import TASK_BINARY, TASK_REGRESSION, DataSet, _write_json, prediction_error
from .errors import ValidationError, _check_flip, _check_lambda
from .krr import KRRPredictor
from .noise import rescale_binary, validate_transition

MODE_EXPLICIT = "explicit-appendix"
MODE_UNIT = "unit-constants"
_MODES = (MODE_EXPLICIT, MODE_UNIT)

LOSS_ZERO_ONE = "zero-one"
LOSS_CLIPPED_ABSOLUTE = "clipped-absolute"
LOSS_RAMP = "ramp"


@dataclass(frozen=True)
class BoundConfig:
    """Shared knobs for bound assembly: ridge strength, noise level, confidence."""

    lam: float
    sigma: float = 0.0
    delta: float = 0.1
    constant_mode: str = MODE_EXPLICIT

    def __post_init__(self):
        _check_lambda("lambda", self.lam)
        if not self.lam > 0.0:
            raise ValidationError(f"bounds need a lambda > 0, got {self.lam}")
        if not 0.0 <= self.sigma < math.inf:  # NaN fails too
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.constant_mode not in _MODES:
            raise ValidationError(f"unknown constant mode {self.constant_mode!r}")


@dataclass
class BoundReport:
    """Itemized right-hand side of one generalization bound.

    ``total`` is not an argument: it is set to main_term +
    sigma_over_lambda_term + delta_term on construction, also by
    ``dataclasses.replace``. ``lemma1_value`` (clean-label training-loss
    bound), ``lemma2_value`` (predictor-norm bound B') and
    ``rademacher_value`` (2 x the complexity bound of the B'-ball) are
    diagnostics of the underlying chain; they are None where not applicable.
    Multiclass reports carry the dominance gap and the per-class quadratic
    forms, and their three terms already include the 1/gap factor.
    """

    mode: str
    total: float = field(init=False)
    main_term: float
    sigma_over_lambda_term: float
    delta_term: float
    main_constant: float
    y_kinv_y: float = None
    lemma1_value: float = None
    lemma2_value: float = None
    rademacher_value: float = None
    gap: float = None
    q_quadratic_forms: tuple = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.total = self.main_term + self.sigma_over_lambda_term + self.delta_term
        for name in ("total", "main_term", "sigma_over_lambda_term", "delta_term"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValidationError(f"bound component {name} = {value!r} is not finite and >= 0")

    def as_dict(self) -> dict:
        """Every field but ``extras`` by name, the quadratic forms as a list, then the extras."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extras"}
        if self.q_quadratic_forms is not None:
            out["q_quadratic_forms"] = list(self.q_quadratic_forms)
        out.update(self.extras)
        return out

    def to_json(self, path) -> None:
        _write_json(path, self.as_dict())


def _quad_form(K: KernelMatrix, v, shift: float) -> float:
    """v^T (K + shift I)^-1 v for a length-n vector v, clamped at zero against fp noise."""
    v = _as_real(v, "vector")
    if v.shape != (K.n,):
        raise ValidationError(f"vector must have shape ({K.n},), got {v.shape}")
    return max(float(K.inverse_form(v, shift)[0, 0]), 0.0)


def quad_form_inv(K: KernelMatrix, v) -> float:
    """v^T K^-1 v via a factorized solve (never an explicit inverse)."""
    return _quad_form(K, v, 0.0)


def _lemma1(q: float, trace: float, sigma: float, lam: float, delta: float) -> float:
    """Lemma 1's value from q = y^T K^-1 y."""
    return (
        0.5 * lam * math.sqrt(q)
        + (sigma / (2.0 * lam)) * math.sqrt(max(trace, 0.0))
        + sigma * math.sqrt(2.0 * math.log(1.0 / delta))
    )


def _lemma2(q_shift: float, sigma: float, lam: float, delta: float, n: int) -> float:
    """Lemma 2's value B' from q_shift = y^T (K + lam^2 I)^-1 y."""
    return math.sqrt(q_shift) + (sigma / lam) * (
        math.sqrt(n) + math.sqrt(2.0 * math.log(1.0 / delta))
    )


def lemma1_bound(K: KernelMatrix, y, sigma: float, lam: float, delta: float) -> float:
    """High-probability bound on the training loss against *clean* labels.

    Value: (lam/2) sqrt(y^T K^-1 y) + (sigma/(2 lam)) sqrt(tr K)
    + sigma sqrt(2 log(1/delta)).
    """
    BoundConfig(lam=lam, sigma=sigma, delta=delta)
    return _lemma1(quad_form_inv(K, y), K.trace, sigma, lam, delta)


def lemma2_bound(K: KernelMatrix, y, sigma: float, lam: float, delta: float) -> float:
    """High-probability bound B' on the predictor's RKHS norm.

    Value: sqrt(y^T (K + lam^2 I)^-1 y) + (sigma/lam)(sqrt(n) + sqrt(2 log(1/delta))).
    """
    BoundConfig(lam=lam, sigma=sigma, delta=delta)
    y = _as_real(y, "labels")
    return _lemma2(_quad_form(K, y, lam * lam), sigma, lam, delta, y.size)


def _log_floor(value: float) -> float:
    return max(math.log(value), 0.0)


def _explicit_terms(q: float, trace: float, sigma: float, lam: float, delta: float, n: int):
    """The explicit-appendix (main constant, main term, sigma/lam term, delta term) from q = y^T K^-1 y."""
    tr_n = max(trace, 0.0) / n
    c_main = 4.0 * math.sqrt(tr_n)
    main = 0.5 * (lam + c_main) * math.sqrt(q / n)
    sigma_term = 2.5 * (sigma / lam) * math.sqrt(tr_n)
    log3 = math.log(3.0 / delta)
    delta_term = (
        sigma * math.sqrt(2.0 * log3 / n)
        + 2.0 * math.sqrt(tr_n) * (sigma / lam) * math.sqrt(2.0 * log3) / math.sqrt(n)
        + 2.0 * math.sqrt(tr_n) / math.sqrt(n)  # net radius eps = 1
        + 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
        + math.sqrt(_log_floor(n / (delta * lam)) / n)
    )
    return c_main, main, sigma_term, delta_term


def _additive_report(K: KernelMatrix, q: float, q_shift: float, sigma: float, lam: float,
                     delta: float, n: int, mode: str) -> BoundReport:
    """The additive-noise bound on targets y from q = y^T K^-1 y and q_shift = y^T (K + lam^2 I)^-1 y."""
    lemma2 = _lemma2(q_shift, sigma, lam, delta, n)
    if mode == MODE_EXPLICIT:
        c_main, main, sigma_term, delta_term = _explicit_terms(q, K.trace, sigma, lam, delta, n)
        b_prime = _lemma2(q_shift, sigma, lam, delta / 3.0, n)  # the confidence budget split in thirds
        rademacher = 2.0 * (b_prime + 1.0) * math.sqrt(max(K.trace, 0.0)) / n
    else:
        c_main = 1.0
        main = 0.5 * (lam + 1.0) * math.sqrt(q / n)
        sigma_term = sigma / lam
        log1 = math.log(1.0 / delta)
        delta_term = (
            sigma * math.sqrt(log1 / n)
            + (sigma / lam) * math.sqrt(log1 / n)
            + math.sqrt(_log_floor(n / (delta * lam)) / n)
        )
        rademacher = 2.0 * lemma2 * math.sqrt(max(K.trace, 0.0)) / n
    return BoundReport(
        mode=mode,
        main_term=main,
        sigma_over_lambda_term=sigma_term,
        delta_term=delta_term,
        main_constant=c_main,
        y_kinv_y=q,
        lemma1_value=_lemma1(q, K.trace, sigma, lam, delta),
        lemma2_value=lemma2,
        rademacher_value=rademacher,
    )


def bound_additive(K: KernelMatrix, y, cfg: BoundConfig) -> BoundReport:
    """Population-loss bound for additive subgaussian label noise.

    Holds for any loss mapping to [0, 1] that is 1-Lipschitz in the
    prediction and zero on correct answers; the quadratic form uses the
    clean labels y, not the noisy ones the predictor was fitted on.
    """
    y = _as_real(y, "labels")
    q, q_shift = _quad_form(K, y, 0.0), _quad_form(K, y, cfg.lam * cfg.lam)
    return _additive_report(K, q, q_shift, cfg.sigma, cfg.lam, cfg.delta, y.size, cfg.constant_mode)


def bound_binary(K: KernelMatrix, y, p: float, lam: float, delta: float,
                 constant_mode: str = MODE_EXPLICIT) -> BoundReport:
    """Clean-distribution classification-error bound under flip probability p.

    The labels are rescaled to +-(1-2p) so the flip noise becomes zero-mean
    subgaussian; converting the surrogate loss back to classification error
    divides by (1-2p), which cancels in the main term and multiplies the
    noise and confidence terms by 1/(1-2p).
    """
    y = _as_real(y, "labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("binary bound expects labels in {+1, -1}")
    _check_flip(p)
    BoundConfig(lam=lam, delta=delta, constant_mode=constant_mode)
    n = y.size
    _, sigma_eff = rescale_binary(y, p)
    q, q_shift = _quad_form(K, y, 0.0), _quad_form(K, y, lam * lam)
    margin = 1.0 - 2.0 * p
    scale, inv_margin = margin * margin, 1.0 / margin  # the rescaled labels' forms are scale * y's
    extras = {"p": p, "sigma_eff": sigma_eff}
    if constant_mode == MODE_EXPLICIT:
        scaled = _additive_report(K, scale * q, scale * q_shift, sigma_eff, lam, delta, n, constant_mode)
        return replace(
            scaled,
            main_term=scaled.main_term * inv_margin,  # the (1-2p) inside sqrt(q) cancels here
            sigma_over_lambda_term=scaled.sigma_over_lambda_term * inv_margin,
            delta_term=scaled.delta_term * inv_margin,
            y_kinv_y=q,
            extras=extras,
        )
    return BoundReport(
        mode=constant_mode,
        main_term=0.5 * (lam + 1.0) * math.sqrt(q / n),
        sigma_over_lambda_term=inv_margin * math.sqrt(p) / lam,
        delta_term=inv_margin * (
            math.sqrt(p * math.log(1.0 / delta) / n)
            + math.sqrt(_log_floor(n / (delta * lam)) / n)
        ),
        main_constant=1.0,
        y_kinv_y=q,
        lemma1_value=_lemma1(scale * q, K.trace, sigma_eff, lam, delta),
        lemma2_value=_lemma2(scale * q_shift, sigma_eff, lam, delta, n),
        extras=extras,
    )


def bound_multiclass(K: KernelMatrix, Y, P, lam: float, delta: float,
                     constant_mode: str = MODE_EXPLICIT) -> BoundReport:
    """Clean-distribution top-1 error bound under a class-transition channel.

    ``Y`` is the (num_classes, n) one-hot matrix of clean labels. The bound
    works through Q = P Y, whose column j is the conditional mean of the
    observed one-hot label for example j; the observed labels are then Q
    plus bounded zero-mean noise (subgaussian parameter 1). A union bound
    over the per-output bounds at delta' = delta / num_classes and the
    dominance gap of P give the final error bound; all three report terms
    include the 1/gap factor.
    """
    Y = _as_real(Y, "one-hot matrix")
    P = _as_real(P, "transition matrix")
    gap = validate_transition(P)
    num_classes = P.shape[0]
    if Y.ndim != 2 or Y.shape[0] != num_classes:
        raise ValidationError(
            f"one-hot matrix must have shape ({num_classes}, n), got {Y.shape}"
        )
    if not np.all(np.isin(Y, (0.0, 1.0))) or not np.all(Y.sum(axis=0) == 1.0):
        raise ValidationError("Y must contain one-hot columns")
    BoundConfig(lam=lam, delta=delta, constant_mode=constant_mode)
    n = Y.shape[1]
    if K.n != n:
        raise ValidationError(f"kernel is {K.n}x{K.n} but n = {n}")
    delta_per_class = delta / num_classes
    G = K.inverse_form(Y, 0.0)  # Y K^-1 Y^T, one block solve for every class
    q_forms = [max(float(q), 0.0) for q in np.sum((P @ G) * P, axis=1)]  # (P G P^T)_hh = Q_h^T K^-1 Q_h
    if constant_mode == MODE_EXPLICIT:
        c_mains, mains, sigma_terms, delta_terms = zip(
            *(_explicit_terms(q, K.trace, 1.0, lam, delta_per_class, n) for q in q_forms)
        )
        main_sum, sigma_sum, delta_sum = sum(mains), sum(sigma_terms), sum(delta_terms)
        c_main = c_mains[0]
    else:
        main_sum = sum(0.5 * (lam + 1.0) * math.sqrt(q / n) for q in q_forms)
        sigma_sum = num_classes / lam
        delta_sum = num_classes * (
            math.sqrt(math.log(1.0 / delta_per_class) / n)
            + math.sqrt(_log_floor(n / (delta_per_class * lam)) / n)
        )
        c_main = 1.0
    return BoundReport(
        mode=constant_mode,
        main_term=main_sum / gap,
        sigma_over_lambda_term=sigma_sum / gap,
        delta_term=delta_sum / gap,
        main_constant=c_main,
        gap=gap,
        q_quadratic_forms=tuple(q_forms),
        extras={"num_classes": num_classes, "delta_per_class": delta_per_class},
    )


def ramp_loss(u, y, p: float):
    """Piecewise-linear surrogate that dominates the scaled zero-one loss.

    With margin target ybar = (1-2p) y the value is (1-2p) for u ybar <= 0,
    decays linearly with slope 1 for 0 < u ybar < (1-2p)^2, and is 0 beyond.
    It is 1-Lipschitz in u, zero at u = ybar, and satisfies
    ramp(u, y, p) >= (1-2p) [sgn(u) != y] with sgn(0) counting as a
    mismatch for both labels.
    """
    _check_flip(p)
    u = _as_real(u, "predictions")
    y_arr = _as_real(y, "labels")
    if not np.all(np.isin(y_arr, (-1.0, 1.0))):
        raise ValidationError("ramp loss expects labels in {+1, -1}")
    width = 1.0 - 2.0 * p
    v = u * (width * y_arr)
    values = np.where(v <= 0.0, width, np.where(v >= width * width, 0.0, width - v / width))
    return float(values) if values.ndim == 0 else values


def empirical_clean_risk(predictor: KRRPredictor, test: DataSet, loss: str, p: float = None) -> float:
    """Mean loss of the predictor on a test set scored against clean labels.

    zero-one: the task's classification error (``ntkreg.data.prediction_error``).
    clipped-absolute: min(|f(x) - y|, 1) for single-output tasks. ramp: the
    flip-aware surrogate, binary only.
    """
    y = test.clean_labels
    if loss == LOSS_ZERO_ONE:
        if test.task == TASK_REGRESSION:
            raise ValidationError("zero-one loss needs a classification task")
        return prediction_error(predictor.predict(test.inputs), y, test.task)
    if loss == LOSS_CLIPPED_ABSOLUTE:
        if test.task not in (TASK_REGRESSION, TASK_BINARY):
            raise ValidationError("clipped-absolute loss needs a single-output task")
        values = np.atleast_1d(predictor.predict(test.inputs))
        return float(np.mean(np.minimum(np.abs(values - y), 1.0)))
    if loss == LOSS_RAMP:
        if test.task != TASK_BINARY:
            raise ValidationError("ramp loss needs a binary task")
        if p is None:
            raise ValidationError("ramp loss needs the flip probability p")
        values = np.atleast_1d(predictor.predict(test.inputs))
        return float(np.mean(ramp_loss(values, y, p)))
    raise ValidationError(f"unknown loss {loss!r}")
