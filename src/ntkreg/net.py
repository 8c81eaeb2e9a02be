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
unscaled input, and a factor pair carries the scale on its delta. The
walk reads a cache the forward pass fills: the caller's list of one
(input, relu mask) slot per layer. A pass writes into the arrays its slots
hold, so a training loop that hands every step the same slots allocates
no activation after its first step.

With ``difference_trick`` enabled the model is the scaled difference of two
identically initialized copies, f = sqrt(2)/2 (g(theta_1, x) - g(theta_2, x)),
which makes the initial output exactly zero while leaving the gradient Gram
matrix unchanged. While the two branches hold equal weights, branch 2's
gradient factors are branch 1's with the deltas negated, so
``gradient_factors`` makes one branch's pass and counts its pairs twice.

Parameter flattening order (fixed; it defines the feature map): branch 1
before branch 2, layers in forward order within a branch, trainable layers
only, each weight matrix raveled row-major.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import DataSet, _write_csv, prediction_error
from .errors import DIVERGENCE_LIMIT, ValidationError, _check_divergence, _check_integer, _check_lambda

BRANCH_COEFF = math.sqrt(2.0) / 2.0

OBJECTIVE_VANILLA = "vanilla"
OBJECTIVE_RDI = "rdi"
OBJECTIVE_AUX = "aux"
_OBJECTIVES = (OBJECTIVE_VANILLA, OBJECTIVE_RDI, OBJECTIVE_AUX)

# Query-side passes (``forward``, and the cross kernels and tangent
# predictions of ``ntkreg.kernel`` and ``ntkreg.linmodel``) take a batch in
# row blocks of at most max(1, BLOCK_ENTRIES // max(widths)) rows, so a layer
# holds about BLOCK_ENTRIES activations whatever the number of queries; the
# arc-cosine recursion runs on bands of about as many entries. Training and
# the training Gram builds sum over all rows and run full-batch.
BLOCK_ENTRIES = 65536


@dataclass(frozen=True)
class NetConfig:
    """Architecture of a bias-free fully-connected ReLU network.

    ``widths`` lists the hidden layer sizes, so the network has
    ``len(widths) + 1`` weight matrices. ``input_dim``, ``outputs`` and the
    widths are integers (numpy integers too, bools not). ``freeze_first_last``
    freezes the first and last weight matrices for depth >= 3; for two-layer
    networks it freezes only the last one (freezing both would leave nothing
    trainable).
    """

    input_dim: int
    widths: tuple
    outputs: int = 1
    scale_c: float = 2.0
    freeze_first_last: bool = True
    difference_trick: bool = True

    def __post_init__(self):
        _check_integer("input_dim", self.input_dim, 1)
        _check_integer("outputs", self.outputs, 1)
        widths = tuple(self.widths)
        if len(widths) < 1:
            raise ValidationError(f"need at least one hidden layer of width >= 1, got {widths}")
        for width in widths:
            _check_integer("a hidden width", width, 1)
        # numpy integers become Python ints, so a config serializes as JSON
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "outputs", int(self.outputs))
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))
        if not self.scale_c > 0.0:
            raise ValidationError(f"scale_c must be positive, got {self.scale_c}")

    # Derived fields are computed on first read and kept in the instance
    # dict; equality and hashing read the fields only.
    @cached_property
    def depth(self) -> int:
        return len(self.widths) + 1

    @cached_property
    def dims(self) -> tuple:
        return (self.input_dim, *self.widths, self.outputs)

    @cached_property
    def frozen_layers(self) -> frozenset:
        if not self.freeze_first_last:
            return frozenset()
        if self.depth == 2:
            return frozenset({self.depth - 1})
        return frozenset({0, self.depth - 1})

    @cached_property
    def trainable_layers(self) -> tuple:
        return tuple(l for l in range(self.depth) if l not in self.frozen_layers)

    @cached_property
    def layer_scales(self) -> tuple:
        return tuple(1.0 if l == 0 else math.sqrt(self.scale_c / self.dims[l]) for l in range(self.depth))


@dataclass(eq=False)
class MLP:
    """Weight matrices per branch plus a snapshot of their initialization.

    ``params`` and ``params0`` hold one list of per-layer arrays per branch,
    and the lists may share arrays. A net ``init_mlp`` draws holds one
    read-only array per layer, shared by every branch and the snapshot, so
    an in-place write into it raises; ``copy`` gives a writable net.
    ``train_full`` copies only the trainable layers, which it writes, and
    its model shares the input's frozen layers and snapshot.
    """

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
        """A net with an independent, writable copy of every array."""
        return MLP(
            config=self.config,
            params=[[w.copy() for w in branch] for branch in self.params],
            params0=[[w.copy() for w in branch] for branch in self.params0],
        )


def init_mlp(config: NetConfig, seed) -> MLP:
    """I.i.d. standard-normal weights; both branches share the draw exactly.

    ``seed`` is any ``numpy.random.default_rng`` seed (an int, or a tuple
    of ints as the CLI passes). Each weight matrix is drawn once into one
    read-only array, held by every branch's ``params`` and ``params0``.
    """
    rng = np.random.default_rng(seed)
    dims = config.dims
    weights = [rng.standard_normal((dims[l + 1], dims[l])) for l in range(config.depth)]
    for w in weights:
        w.flags.writeable = False
    branches = 2 if config.difference_trick else 1
    return MLP(config, [list(weights) for _ in range(branches)], [list(weights) for _ in range(branches)])


def _branch_forward(config: NetConfig, weights, x, cache=None):
    """Forward one branch and return its output, filling ``cache`` in place.

    Each layer writes its matmul result into one (m, width) array and works
    in place on it: the layer scale multiplies it, then ReLU overwrites it,
    and it is the next layer's input, unscaled.

    ``cache`` is the caller's list of one (input, relu mask) slot per layer.
    Layer l's matmul writes into slot l + 1's input array when that slot
    holds one and allocates otherwise; the mask ``z > 0``, built only from
    the lowest trainable layer up, goes into its slot's mask array the same
    way. Slot l keeps layer l's input (layer 0's is the caller's x), which
    ``_branch_backward`` reads. A frozen layer above the first is read by no
    walk: its slot keeps the buffer it held, which may be shared between
    branches, or None, and then the activation is freed when the pass ends.
    A training loop hands every step the same slots, so it makes no
    (m, width) array after its first step.
    """
    h = x
    lowest = config.trainable_layers[0]
    for l, w in enumerate(weights):
        last = l == config.depth - 1
        z = np.matmul(h, w.T, out=None if cache is None or last else cache[l + 1][0])
        scale = config.layer_scales[l]
        if scale != 1.0:
            z *= scale
        if cache is not None:
            inp, mask = cache[l]
            if not last and l >= lowest:
                mask = np.greater(z, 0.0, out=mask)
            cache[l] = (inp if l > 0 and l in config.frozen_layers else h, mask)
        h = z if last else np.maximum(z, 0.0, out=z)
    return h


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


def _row_blocks(config: NetConfig, m: int) -> list:
    """Slices of at most max(1, BLOCK_ENTRIES // max(widths)) rows covering m rows in order."""
    rows = max(1, BLOCK_ENTRIES // max(config.widths))
    return [slice(start, start + rows) for start in range(0, m, rows)]


def forward(mlp: MLP, x) -> np.ndarray:
    """Network output; accepts a single d-vector or an (m, d) batch, evaluated in row blocks."""
    batch, single = _as_batch(mlp.config, x)
    out = np.empty((batch.shape[0], mlp.config.outputs))
    for rows in _row_blocks(mlp.config, batch.shape[0]):
        out[rows] = _combine_branches(
            mlp.branch_coeffs, (_branch_forward(mlp.config, weights, batch[rows]) for weights in mlp.params)
        )
    return out[0] if single else out


def _combine_branches(coeffs, branch_outs):
    """The network output from its branches' outputs: sum of coeff * output, in branch order."""
    total = None
    for coeff, branch_out in zip(coeffs, branch_outs):
        contribution = coeff * branch_out
        total = contribution if total is None else total + contribution
    return total


def _branch_backward(config: NetConfig, weights, caches, delta, summed=False):
    """One walk from a branch's output down to its lowest trainable layer.

    ``caches`` is the (input, relu mask) slot list a ``_branch_forward``
    pass filled; ``delta`` is the (m, outputs) sensitivity of the loss or
    of the selected output to the branch output, and is scaled in place.
    Entering layer l, the walk multiplies delta by s_l, so the per-example
    gradient w.r.t. W_l is the outer product delta[i] x input[i]. Returns,
    per trainable layer in order, that factor pair (delta, input), or with
    ``summed`` the gradient summed over examples. No layer below the lowest
    trainable one is visited.

    Back-propagating into layer l - 1 forms one (m, width) array, the next
    delta, and masks and scales it in place; masked entries are zeros whose
    sign follows the product they replace. A summed walk forms that array
    in slot l's input, which the walk reads no further (its gradient, if
    layer l is trainable, is formed by then), or in a new array when the
    slot of a frozen layer l holds None. A summed walk whose delta has one
    column (one output) forms the gradient of layer l - 1, when that is the
    lowest trainable layer, without that array or its outer product and
    mask multiply: W_l^T * (mask^T (s_{l-1} delta * input_{l-1})). The one
    matmul reads the mask as floats, copied into slot l's input, so there a
    summed walk needs a buffer in the slot of a frozen layer l.
    """
    trainable = config.trainable_layers
    lowest = trainable[0]
    out = {}
    for l in range(config.depth - 1, lowest - 1, -1):
        inp, _ = caches[l]
        scale = config.layer_scales[l]
        if scale != 1.0:
            delta *= scale
        if l in trainable:
            out[l] = (inp.T @ delta).T if summed else (delta, inp)
        if l == lowest:
            break
        if summed and l - 1 == lowest and delta.shape[1] == 1:
            low_inp, mask = caches[lowest]
            scaled = delta * config.layer_scales[lowest]  # (m, 1)
            np.copyto(inp, mask)  # inp is read no further: it takes the float mask
            out[lowest] = weights[l].T * ((scaled * low_inp).T @ inp).T
            break
        # one column: delta_i * W_j, the values of the inner-dimension-1
        # matmul at a fraction of its cost; a summed walk has read inp for
        # the last time and writes the back signal into it
        into = inp if summed else None
        if delta.shape[1] == 1:
            back = np.multiply(delta, weights[l], out=into)
        else:
            back = np.matmul(delta, weights[l], out=into)
        back *= caches[l - 1][1]
        delta = back
    return [out[l] for l in trainable]


@dataclass(frozen=True, eq=False)
class GradientFactors:
    """The (delta, input) factor pairs of ``gradient_factors``, kept once per distinct branch pass.

    ``pairs`` are the pairs of the branches that were passed, in flattening
    order, and each counts ``copies`` times. A difference-trick net whose two
    branches hold equal weights is passed along branch 1 only (``copies`` 2):
    branch 2's output coefficient is branch 1's negated and every other value
    of its pass is equal, so its pairs are branch 1's with the deltas negated,
    bit for bit. Consumers read ``pairs`` and ``copies``; of them only
    ``flatten_factors`` forms branch 2's deltas. ``outputs`` holds each
    branch's (m, outputs) output from the same forward passes (branch 1's
    array for both when one pass served both), which ``linearize`` combines
    to check the zero output without a pass of its own.
    """

    pairs: list
    copies: int
    outputs: tuple


def gradient_factors(mlp: MLP, x, output_index: int = 0, at_init: bool = True) -> GradientFactors:
    """Factor pairs of the per-example parameter gradient, flattening order.

    Returns a ``GradientFactors`` of (delta, input) arrays with per-example
    rows, one pair per passed branch and trainable layer. ``at_init``
    selects the initialization snapshot (the reference point for tangent
    features) instead of current weights. When a difference-trick net's two branches
    hold equal weights there (the same array or ``np.array_equal``, layer
    by layer), one branch's forward and backward pass serves both.
    """
    batch, _ = _as_batch(mlp.config, x)
    config = mlp.config
    if not 0 <= output_index < config.outputs:
        raise ValidationError(f"output_index {output_index} out of range 0..{config.outputs - 1}")
    params = mlp.params0 if at_init else mlp.params
    copies = 2 if len(params) == 2 and all(a is b or np.array_equal(a, b) for a, b in zip(*params)) else 1
    pairs, outputs = [], []
    for coeff, weights in zip(mlp.branch_coeffs, params[:1] if copies == 2 else params):
        # the activation entering a frozen layer is freed as the forward pass
        # ends, and the cache is released before the next branch's pass
        cache = [(None, None)] * config.depth
        outputs.append(_branch_forward(config, weights, batch, cache))
        sens = np.zeros((batch.shape[0], config.outputs))
        sens[:, output_index] = coeff
        pairs.extend(_branch_backward(config, weights, cache, sens))
    return GradientFactors(pairs, copies, tuple(outputs * copies))


def gradients_matrix(mlp: MLP, x, output_index: int = 0, at_init: bool = True) -> np.ndarray:
    """(m, N) matrix of flattened per-example gradients over trainable params."""
    return flatten_factors(gradient_factors(mlp, x, output_index, at_init))


def flatten_factors(factors: GradientFactors) -> np.ndarray:
    """The (m, N) gradient matrix of ``gradient_factors``: row i holds delta_i input_i^T per pair and copy."""
    pairs = factors.pairs
    if factors.copies == 2:  # branch 2's deltas are branch 1's negated
        pairs = itertools.chain(pairs, ((-delta, inp) for delta, inp in pairs))
    blocks = [np.einsum("mi,mj->mij", delta, inp).reshape(len(delta), -1) for delta, inp in pairs]
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
        _check_integer("steps", self.steps, 0)
        _check_lambda("lam", self.lam)


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
    The trained model's trainable layers are writable copies, one per
    branch, and the only arrays a step writes; its frozen layers and its
    snapshot are the input's arrays, which it shares and never writes, so
    a read-only input (any net ``init_mlp`` draws) trains as a writable one
    does.
    Aborts with DivergenceError if the objective exceeds 1e12 or turns
    non-finite, naming the offending step. A NaN in the weights or inputs
    reaches the output, so it fails at step 0.

    A step walks each branch back, then passes once over its trainable
    layers: each forms W - W0, adds its squares and W's to the step's log
    rows (as ``distance_to_init`` and ``layer_norms`` add them), forms the
    RDI step in that array and updates W, so one layer's W - W0 is alive at
    a time. The last step, and one whose data term diverged, only measure.
    """
    config = mlp.config
    targets = _targets_for(data, config.outputs)
    n, n_out = targets.shape
    x = data.inputs
    trainable = list(config.trainable_layers)
    model = MLP(config, [[w.copy() if l in trainable else w for l, w in enumerate(branch)] for branch in mlp.params],
                [list(branch) for branch in mlp.params0])
    aux = np.zeros((n, n_out))
    lam = cfg.lam
    reg_sq = lam * lam
    rdi = cfg.objective == OBJECTIVE_RDI and lam > 0.0

    depth = config.depth
    total = cfg.steps
    log = TrainLog(steps=np.arange(total + 1), objective=np.zeros(total + 1), train_error=np.zeros(total + 1),
                   train_error_with_aux=np.zeros(total + 1), dist_to_init=np.zeros((total + 1, depth)),
                   weight_norms=np.tile(layer_norms(model), (total + 1, 1)))
    log.weight_norms[:, trainable] = 0.0  # a frozen layer's norm is read once, its distance stays 0

    # each branch's slots keep its trainable layers' inputs and its masks from
    # step to step; the activation entering a frozen layer, which no walk
    # reads, has one buffer for both branches, and the summed walk's float
    # mask uses it
    frozen = {l: np.empty((n, config.dims[l])) for l in config.frozen_layers if l > 0}
    caches = [[(frozen.get(l), None) for l in range(depth)] for _ in model.params]
    for t in range(total + 1):
        f_out = _combine_branches(
            model.branch_coeffs, [_branch_forward(config, w, x, c) for w, c in zip(model.params, caches)]
        )

        effective = f_out + lam * aux if cfg.objective == OBJECTIVE_AUX else f_out
        residual = effective - targets
        with np.errstate(over="ignore"):  # an overflowing square reads as inf, which the divergence rule fails
            objective = 0.5 * float(np.sum(residual * residual))
        walk = t < total and objective <= DIVERGENCE_LIMIT  # False for NaN
        dist, norm = log.dist_to_init[t], log.weight_norms[t]
        for coeff, branch, branch0, cache in zip(model.branch_coeffs, model.params, model.params0, caches):
            grads = (_branch_backward(config, branch, cache, coeff * residual, summed=True) if walk
                     else [None] * len(trainable))
            for l, grad in zip(trainable, grads):
                diff = branch[l] - branch0[l]
                dist[l] += float(np.sum(diff * diff))
                norm[l] += float(np.sum(branch[l] * branch[l]))
                if walk:
                    if rdi:  # g + lam^2 (W - W0), formed in the displacement array
                        diff *= reg_sq
                        grad = np.add(diff, grad, out=diff)
                    grad *= cfg.eta
                    branch[l] -= grad
                del diff, grad  # freed before the next layer's W - W0 is formed
        np.sqrt(dist, out=dist)
        norm[trainable] = np.sqrt(norm[trainable])
        if rdi:
            objective += 0.5 * reg_sq * float(np.sum(dist * dist))
        _check_divergence(objective, t)

        log.objective[t] = objective
        log.train_error[t] = prediction_error(f_out, data.noisy_labels, data.task)
        log.train_error_with_aux[t] = log.train_error[t] if effective is f_out else prediction_error(
            effective, data.noisy_labels, data.task)
        if walk and cfg.objective == OBJECTIVE_AUX and lam > 0.0:
            aux -= cfg.eta * lam * residual

    return model, AuxState(b=aux[:, 0].copy() if n_out == 1 else aux.T.copy()), log
