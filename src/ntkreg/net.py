"""Finite-width fully-connected ReLU networks with tangent-kernel scaling.

The forward pass is

    f(x) = W_L @ s_L relu(W_{L-1} @ s_{L-1} relu( ... relu(W_1 @ x)))

with s_l = sqrt(scale_c / fan_in_l) applied from the second layer on (the
first layer consumes unit-norm inputs directly, so its pre-activations
already have unit variance under i.i.d. N(0, 1) weights). The forward pass
applies s_l to the product h W_l^T, which at the output is one column per
output, so the cached layer inputs are the unscaled activations. ReLU's
derivative at 0 is taken to be 0: the backward mask is ``z > 0``. ReLU is
``max(z, 0)``, which propagates a NaN pre-activation instead of masking it
to 0, so a NaN weight or input makes the output NaN.

The backward pass walks a branch from its output down to its lowest
trainable layer and no further. It applies s_l to the delta entering layer
l, so the gradient w.r.t. W_l is the product of the scaled delta and the
unscaled input, and a factor pair carries the scale on its delta.

With ``difference_trick`` enabled the model is the scaled difference of two
identically initialized copies, f = sqrt(2)/2 (g(theta_1, x) - g(theta_2, x)),
which makes the initial output exactly zero while leaving the gradient Gram
matrix unchanged.

Parameter flattening order (fixed; it defines the feature map): branch 1
before branch 2, layers in forward order within a branch, trainable layers
only, each weight matrix raveled row-major.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataSet, _write_csv, prediction_error
from .errors import ValidationError, _check_divergence

BRANCH_COEFF = math.sqrt(2.0) / 2.0

OBJECTIVE_VANILLA = "vanilla"
OBJECTIVE_RDI = "rdi"
OBJECTIVE_AUX = "aux"
_OBJECTIVES = (OBJECTIVE_VANILLA, OBJECTIVE_RDI, OBJECTIVE_AUX)


@dataclass(frozen=True)
class NetConfig:
    """Architecture of a bias-free fully-connected ReLU network.

    ``widths`` lists the hidden layer sizes, so the network has
    ``len(widths) + 1`` weight matrices. ``freeze_first_last`` freezes the
    first and last weight matrices for depth >= 3; for two-layer networks it
    freezes only the last one (freezing both would leave nothing trainable).
    """

    input_dim: int
    widths: tuple
    outputs: int = 1
    scale_c: float = 2.0
    freeze_first_last: bool = True
    difference_trick: bool = True

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.input_dim < 1:
            raise ValidationError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.widths) < 1 or any(w < 1 for w in self.widths):
            raise ValidationError(f"need at least one hidden layer of width >= 1, got {self.widths}")
        if self.outputs < 1:
            raise ValidationError(f"outputs must be >= 1, got {self.outputs}")
        if not self.scale_c > 0.0:
            raise ValidationError(f"scale_c must be positive, got {self.scale_c}")

    @property
    def depth(self) -> int:
        return len(self.widths) + 1

    @property
    def dims(self) -> tuple:
        return (self.input_dim, *self.widths, self.outputs)

    @property
    def frozen_layers(self) -> frozenset:
        if not self.freeze_first_last:
            return frozenset()
        if self.depth == 2:
            return frozenset({self.depth - 1})
        return frozenset({0, self.depth - 1})

    @property
    def trainable_layers(self) -> tuple:
        return tuple(l for l in range(self.depth) if l not in self.frozen_layers)

    def layer_scale(self, layer: int) -> float:
        return 1.0 if layer == 0 else math.sqrt(self.scale_c / self.dims[layer])


@dataclass(eq=False)
class MLP:
    """Weight matrices per branch plus a snapshot of their initialization."""

    config: NetConfig
    params: list
    params0: list = field(repr=False)

    @property
    def branch_coeffs(self) -> tuple:
        if self.config.difference_trick:
            return (BRANCH_COEFF, -BRANCH_COEFF)
        return (1.0,)

    @property
    def n_trainable_params(self) -> int:
        per_branch = sum(
            self.config.dims[l + 1] * self.config.dims[l] for l in self.config.trainable_layers
        )
        return per_branch * len(self.params)

    def copy(self) -> "MLP":
        return MLP(
            config=self.config,
            params=[[w.copy() for w in branch] for branch in self.params],
            params0=[[w.copy() for w in branch] for branch in self.params0],
        )


def init_mlp(config: NetConfig, seed: int) -> MLP:
    """I.i.d. standard-normal weights; both branches share the draw exactly."""
    rng = np.random.default_rng(seed)
    dims = config.dims
    base = [rng.standard_normal((dims[l + 1], dims[l])) for l in range(config.depth)]
    if config.difference_trick:
        params = [base, [w.copy() for w in base]]
    else:
        params = [base]
    params0 = [[w.copy() for w in branch] for branch in params]
    return MLP(config=config, params=params, params0=params0)


def _branch_forward(config: NetConfig, weights, x, keep_cache=False, reuse=None):
    """Forward one branch; with ``keep_cache``, also (input, relu mask) per layer.

    Each layer allocates one (m, width) array, its matmul result, and works
    in place on it: the layer scale multiplies it, then ReLU overwrites it.
    A layer's cached input is the previous layer's ReLU output, unscaled
    (the caller's x for layer 0), and it is not written while the cache is
    in use. The mask ``z > 0`` is built only when the cache is kept, and only
    where the backward walk reads it: from the lowest trainable layer up.

    ``reuse`` is the cache of an earlier pass on an input of x's shape, no
    longer read: its activations and masks are overwritten instead of
    allocated, so a training loop makes no (m, width) array after its first
    step and does not hand that memory back to the system and fault it in
    again every step.
    """
    caches = []
    h = x
    lowest = config.trainable_layers[0]
    for l, w in enumerate(weights):
        last = l == config.depth - 1
        z = np.matmul(h, w.T, out=None if reuse is None or last else reuse[l + 1][0])
        scale = config.layer_scale(l)
        if scale != 1.0:
            z *= scale
        if keep_cache:
            mask = None
            if not last and l >= lowest:
                mask = np.greater(z, 0.0, out=None if reuse is None else reuse[l][1])
            caches.append((h, mask))
        h = z if last else np.maximum(z, 0.0, out=z)
    return h, caches


def _as_batch(config: NetConfig, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValidationError(
            f"input has shape {x.shape}, expected (*, {config.input_dim})"
        )
    return x, single


def forward(mlp: MLP, x) -> np.ndarray:
    """Network output; accepts a single d-vector or an (m, d) batch."""
    batch, single = _as_batch(mlp.config, x)
    out = None
    for coeff, weights in zip(mlp.branch_coeffs, mlp.params):
        branch_out, _ = _branch_forward(mlp.config, weights, batch)
        contribution = coeff * branch_out
        out = contribution if out is None else out + contribution
    return out[0] if single else out


def _branch_backward(config: NetConfig, weights, caches, delta, summed=False):
    """One walk from a branch's output down to its lowest trainable layer.

    ``caches`` is the (input, relu mask) list of ``_branch_forward`` with
    ``keep_cache``; ``delta`` is the (m, outputs) sensitivity of the loss or
    of the selected output to the branch output, and is scaled in place.
    Entering layer l, the walk multiplies delta by s_l, so the per-example
    gradient w.r.t. W_l is the outer product delta[i] x input[i]. Returns,
    per trainable layer in order, that factor pair (delta, input), or with
    ``summed`` the gradient summed over examples. No layer below the lowest
    trainable one is visited.

    Back-propagating into layer l - 1 allocates one (m, width) array, the
    next delta, and masks and scales it in place; masked entries are zeros
    whose sign follows the product they replace. A summed walk whose delta
    has one column (one output) forms the gradient of layer l - 1, when that
    is the lowest trainable layer, without that array or its outer product
    and mask multiply: W_l^T * (mask^T (s_{l-1} delta * input_{l-1})), with
    the mask converted to floats for the one matmul.
    """
    trainable = config.trainable_layers
    lowest = trainable[0]
    out = {}
    for l in range(config.depth - 1, lowest - 1, -1):
        inp, _ = caches[l]
        scale = config.layer_scale(l)
        if scale != 1.0:
            delta *= scale
        if l in trainable:
            out[l] = (inp.T @ delta).T if summed else (delta, inp)
        if l == lowest:
            break
        if summed and l - 1 == lowest and delta.shape[1] == 1:
            low_inp, mask = caches[lowest]
            scaled = delta * config.layer_scale(lowest)  # (m, 1)
            out[lowest] = weights[l].T * ((scaled * low_inp).T @ mask.astype(np.float64)).T
            break
        # one column: delta_i * W_j, the values of the inner-dimension-1
        # matmul at a fraction of its cost
        back = delta * weights[l] if delta.shape[1] == 1 else delta @ weights[l]
        back *= caches[l - 1][1]
        delta = back
    return [out[l] for l in trainable]


def gradient_factors(mlp: MLP, x, output_index: int = 0, at_init: bool = True):
    """Factor pairs of the per-example parameter gradient, flattening order.

    Returns a list over (branch, trainable layer) of (delta, input) arrays
    with per-example rows. ``at_init`` selects the initialization snapshot
    (the reference point for tangent features) instead of current weights.
    """
    batch, _ = _as_batch(mlp.config, x)
    config = mlp.config
    if not 0 <= output_index < config.outputs:
        raise ValidationError(f"output_index {output_index} out of range 0..{config.outputs - 1}")
    params = mlp.params0 if at_init else mlp.params
    out = []
    for coeff, weights in zip(mlp.branch_coeffs, params):
        _, caches = _branch_forward(config, weights, batch, keep_cache=True)
        sens = np.zeros((batch.shape[0], config.outputs))
        sens[:, output_index] = coeff
        out.extend(_branch_backward(config, weights, caches, sens))
    return out


def gradients_matrix(mlp: MLP, x, output_index: int = 0, at_init: bool = True) -> np.ndarray:
    """(m, N) matrix of flattened per-example gradients over trainable params."""
    factors = gradient_factors(mlp, x, output_index, at_init)
    m = factors[0][0].shape[0]
    blocks = [
        np.einsum("mi,mj->mij", delta, inp).reshape(m, -1) for delta, inp in factors
    ]
    return np.concatenate(blocks, axis=1)


def gradient(mlp: MLP, x, output_index: int = 0, at_init: bool = False) -> np.ndarray:
    """Exact reverse-mode gradient of one output w.r.t. all trainable weights.

    Evaluated at the current parameters by default; pass ``at_init=True`` for
    the tangent feature map at initialization.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"gradient expects a single d-vector, got shape {x.shape}")
    return gradients_matrix(mlp, x[None, :], output_index, at_init)[0]


def distance_to_init(mlp: MLP) -> np.ndarray:
    """Per-layer Frobenius distance ||W_l - W_l(0)||_F.

    For difference-trick networks the two branches are combined in
    quadrature, so the result is the distance of the full parameter vector
    restricted to each layer.
    """
    depth = mlp.config.depth
    sq = np.zeros(depth)
    for branch, branch0 in zip(mlp.params, mlp.params0):
        for l in range(depth):
            diff = branch[l] - branch0[l]
            sq[l] += float(np.sum(diff * diff))
    return np.sqrt(sq)


def layer_norms(mlp: MLP) -> np.ndarray:
    """Per-layer ||W_l||_F, branches combined in quadrature."""
    depth = mlp.config.depth
    sq = np.zeros(depth)
    for branch in mlp.params:
        for l in range(depth):
            sq[l] += float(np.sum(branch[l] * branch[l]))
    return np.sqrt(sq)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient descent settings for the nonlinear objectives.

    ``objective``: "vanilla" (plain l2 loss), "rdi" (adds lam^2/2 times the
    squared distance to initialization), or "aux" (adds a trainable per-example
    offset lam * b_i to the output inside the loss; b starts at zero and is
    discarded at prediction time).

    Training is full-batch with a fixed learning rate ``eta`` for ``steps``
    steps, so the trajectory is deterministic given the initial net.
    """

    objective: str
    eta: float
    steps: int
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "objective", str(self.objective).lower())
        if self.objective not in _OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}")
        if not 0.0 < self.eta < math.inf:
            raise ValidationError(f"learning rate must be finite and positive, got {self.eta}")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if not self.lam >= 0.0:  # NaN fails too
            raise ValidationError(f"lam must be >= 0, got {self.lam}")


@dataclass
class AuxState:
    """Trained per-example auxiliary variables: (n,) or (num_outputs, n)."""

    b: np.ndarray


@dataclass
class TrainLog:
    """Per-step trajectory: objective, training errors, weight movement.

    ``train_error`` scores the network output alone against noisy labels
    (zero-one error for classification, mean squared error for regression);
    ``train_error_with_aux`` scores output + lam * b, which only differs for
    the aux objective. Distances and norms are per layer, branches combined
    in quadrature.
    """

    steps: np.ndarray
    objective: np.ndarray
    train_error: np.ndarray
    train_error_with_aux: np.ndarray
    dist_to_init: np.ndarray  # (steps+1, depth)
    weight_norms: np.ndarray  # (steps+1, depth)

    def to_csv(self, path) -> None:
        depth = self.dist_to_init.shape[1]
        header = ["step", "objective", "train_error", "train_error_with_aux"]
        header += [f"dist_l{l + 1}" for l in range(depth)]
        header += [f"norm_l{l + 1}" for l in range(depth)]
        values = np.column_stack([self.objective, self.train_error, self.train_error_with_aux,
                                  self.dist_to_init, self.weight_norms])
        _write_csv(path, header, ([step, *row] for step, row in zip(self.steps, values)))


def _targets_for(data: DataSet, outputs: int) -> np.ndarray:
    """The (n, outputs) regression targets of ``data`` for a net with ``outputs`` outputs."""
    if outputs != data.num_outputs:
        raise ValidationError(
            f"{data.task} training needs a network with {data.num_outputs} outputs, got {outputs}"
        )
    return np.atleast_2d(data.fit_targets()).T


def train_full(mlp: MLP, data: DataSet, cfg: TrainConfig):
    """Full-batch gradient descent on the nonlinear objective.

    Returns (trained MLP, AuxState, TrainLog); the input model is untouched.
    Aborts with DivergenceError if the objective exceeds 1e12 or turns
    non-finite, naming the offending step. A NaN in the weights or inputs
    reaches the output, so it fails at step 0.
    """
    config = mlp.config
    targets = _targets_for(data, config.outputs)
    n, n_out = targets.shape
    x = data.inputs
    model = mlp.copy()
    aux = np.zeros((n, n_out))
    lam = cfg.lam
    reg_sq = lam * lam

    depth = config.depth
    total = cfg.steps
    log_obj = np.zeros(total + 1)
    log_err = np.zeros(total + 1)
    log_err_aux = np.zeros(total + 1)
    log_dist = np.zeros((total + 1, depth))
    log_norm = np.zeros((total + 1, depth))

    caches = [None] * len(model.params)
    for t in range(total + 1):
        outs = []
        for b, weights in enumerate(model.params):
            branch_out, caches[b] = _branch_forward(config, weights, x, keep_cache=True, reuse=caches[b])
            outs.append(branch_out)
        f_out = None
        for coeff, branch_out in zip(model.branch_coeffs, outs):
            contribution = coeff * branch_out
            f_out = contribution if f_out is None else f_out + contribution

        effective = f_out + lam * aux if cfg.objective == OBJECTIVE_AUX else f_out
        residual = effective - targets
        objective = 0.5 * float(np.sum(residual * residual))
        dist = distance_to_init(model)
        if cfg.objective == OBJECTIVE_RDI and lam > 0.0:
            objective += 0.5 * reg_sq * float(np.sum(dist * dist))
        _check_divergence(objective, t)

        log_obj[t] = objective
        log_err[t] = prediction_error(f_out, data.noisy_labels, data.task)
        log_err_aux[t] = prediction_error(effective, data.noisy_labels, data.task)
        log_dist[t] = dist
        log_norm[t] = layer_norms(model)

        if t == total:
            break

        for coeff, weights, weights0, cache in zip(
            model.branch_coeffs, model.params, model.params0, caches
        ):
            grads = _branch_backward(config, weights, cache, coeff * residual, summed=True)
            for l, grad in zip(config.trainable_layers, grads):
                if cfg.objective == OBJECTIVE_RDI and lam > 0.0:
                    grad = grad + reg_sq * (weights[l] - weights0[l])
                weights[l] -= cfg.eta * grad
        if cfg.objective == OBJECTIVE_AUX and lam > 0.0:
            aux -= cfg.eta * lam * residual

    if n_out == 1:
        aux_state = AuxState(b=aux[:, 0].copy())
    else:
        aux_state = AuxState(b=aux.T.copy())
    log = TrainLog(
        steps=np.arange(total + 1),
        objective=log_obj,
        train_error=log_err,
        train_error_with_aux=log_err_aux,
        dist_to_init=log_dist,
        weight_norms=log_norm,
    )
    return model, aux_state, log
