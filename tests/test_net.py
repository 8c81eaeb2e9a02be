"""Network forward/gradient correctness and full nonlinear training."""

import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from ntkreg import cli
from ntkreg import net as net_module
from ntkreg.data import prediction_error, synth_multiclass, synth_sphere
from ntkreg.errors import DIVERGENCE_LIMIT, DivergenceError, ValidationError, _check_divergence
from ntkreg._kernelmatrix import mirror_upper
from ntkreg.kernel import _factor_gram, empirical_ntk, empirical_ntk_cross
from ntkreg.linmodel import linearize
from ntkreg.net import (
    GradientFactors,
    NetConfig,
    TrainConfig,
    distance_to_init,
    flatten_factors,
    forward,
    gradient,
    gradient_factors,
    gradients_matrix,
    init_mlp,
    layer_norms,
    train_full,
)
from ntkreg.net import _branch_backward, _branch_forward
from ntkreg.noise import BinaryFlip, corrupt


def unit_vector(d, seed):
    x = np.random.default_rng(seed).standard_normal(d)
    return x / np.linalg.norm(x)


def finite_difference_gradient(mlp, x, output_index, h=1e-4):
    """Central differences over every trainable coordinate, in flatten order."""
    fd = []
    for branch in mlp.params:
        for l in mlp.config.trainable_layers:
            w = branch[l]
            block = np.zeros_like(w)
            for r in range(w.shape[0]):
                for c in range(w.shape[1]):
                    orig = w[r, c]
                    w[r, c] = orig + h
                    fp = np.atleast_1d(forward(mlp, x))[output_index]
                    w[r, c] = orig - h
                    fm = np.atleast_1d(forward(mlp, x))[output_index]
                    w[r, c] = orig
                    block[r, c] = (fp - fm) / (2.0 * h)
            fd.append(block.ravel())
    return np.concatenate(fd)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            NetConfig(input_dim=0, widths=(4,))
        with pytest.raises(ValidationError):
            NetConfig(input_dim=3, widths=())
        with pytest.raises(ValidationError):
            NetConfig(input_dim=3, widths=(4,), scale_c=0.0)

    @pytest.mark.parametrize("make, match", [
        pytest.param(lambda: NetConfig(input_dim=3, widths=(16.9, 4)), "hidden width", id="width-float"),
        pytest.param(lambda: NetConfig(input_dim=3, widths=(16, True)), "hidden width", id="width-true"),
        pytest.param(lambda: NetConfig(input_dim=3.5, widths=(4,)), "input_dim", id="input-dim-float"),
        pytest.param(lambda: NetConfig(input_dim=True, widths=(4,)), "input_dim", id="input-dim-true"),
        pytest.param(lambda: NetConfig(input_dim=3, widths=(4,), outputs=True), "outputs", id="outputs-true"),
        pytest.param(lambda: NetConfig(input_dim=3, widths=(4,), outputs=2.0), "outputs", id="outputs-float"),
        pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=2.5), "steps", id="steps-float"),
        pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=True), "steps", id="steps-true"),
        pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=np.float64(3.0)), "steps", id="steps-numpy-float"),
    ])
    def test_integer_fields_rejected(self, make, match):
        with pytest.raises(ValidationError, match=f"{match} must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        cfg = NetConfig(input_dim=np.int64(3), widths=np.array([4, 5]), outputs=np.int32(2))
        assert cfg == NetConfig(input_dim=3, widths=(4, 5), outputs=2)
        assert all(type(value) is int for value in cfg.dims)
        assert TrainConfig("rdi", eta=0.1, steps=np.int64(3)).steps == 3

    def test_derived_fields_computed_once(self):
        cfg = NetConfig(input_dim=3, widths=(4, 5), scale_c=3.0)
        derived = (cfg.dims, cfg.frozen_layers, cfg.trainable_layers, cfg.layer_scales)
        assert all(a is b for a, b in zip(derived, (cfg.dims, cfg.frozen_layers, cfg.trainable_layers,
                                                   cfg.layer_scales)))
        assert cfg.layer_scales == (1.0, np.sqrt(3.0 / 4), np.sqrt(3.0 / 5))
        # equality, hashing, the field dict and pickling read the fields only
        fresh = NetConfig(input_dim=3, widths=(4, 5), scale_c=3.0)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert dataclasses.asdict(cfg) == dataclasses.asdict(fresh)
        assert list(dataclasses.asdict(cfg)) == [f.name for f in dataclasses.fields(NetConfig)]
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg and clone.trainable_layers == (1,) and clone.depth == 3

    def test_frozen_layers(self):
        two = NetConfig(input_dim=3, widths=(4,), freeze_first_last=True)
        assert two.frozen_layers == frozenset({1})  # two-layer nets keep the first trainable
        deep = NetConfig(input_dim=3, widths=(4, 4, 4), freeze_first_last=True)
        assert deep.frozen_layers == frozenset({0, 3})
        free = NetConfig(input_dim=3, widths=(4,), freeze_first_last=False)
        assert free.trainable_layers == (0, 1)


class TestInitAndForward:
    def test_same_seed_bit_identical(self):
        cfg = NetConfig(input_dim=5, widths=(16,), freeze_first_last=False)
        a = init_mlp(cfg, seed=42)
        b = init_mlp(cfg, seed=42)
        for wa, wb in zip(a.params[0], b.params[0]):
            assert np.array_equal(wa, wb)

    def test_difference_branches_share_draw(self):
        cfg = NetConfig(input_dim=5, widths=(16,), difference_trick=True, freeze_first_last=False)
        mlp = init_mlp(cfg, seed=0)
        for w1, w2 in zip(mlp.params0[0], mlp.params0[1]):
            assert np.array_equal(w1, w2)

    def test_zero_initial_output_exact(self):
        cfg = NetConfig(input_dim=7, widths=(32,), difference_trick=True, freeze_first_last=False)
        mlp = init_mlp(cfg, seed=1)
        x = np.random.default_rng(0).standard_normal((100, 7))
        out = forward(mlp, x)
        assert np.all(out == 0.0)

    def test_zero_input_gives_zero_output(self):
        cfg = NetConfig(input_dim=4, widths=(8, 8), difference_trick=False, freeze_first_last=False)
        mlp = init_mlp(cfg, seed=2)
        assert np.all(forward(mlp, np.zeros(4)) == 0.0)

    def test_positive_homogeneity(self):
        # Bias-free ReLU nets are degree-1 positively homogeneous in the input
        # once the output layer scaling is included; direct evaluation oracle.
        cfg = NetConfig(input_dim=4, widths=(8,), difference_trick=False, freeze_first_last=False)
        mlp = init_mlp(cfg, seed=3)
        x = unit_vector(4, 11)
        base = forward(mlp, x)
        for c in (2.0, 3.0, 0.25):
            scaled = forward(mlp, c * x)
            assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        cfg = NetConfig(input_dim=4, widths=(8,))
        mlp = init_mlp(cfg, seed=0)
        with pytest.raises(ValidationError):
            forward(mlp, np.zeros(5))

    def test_initial_output_variance_matches_limit(self):
        # Monte-Carlo over init seeds: for unit-norm inputs, the initial
        # output variance converges to 1 at large width (pooled estimator).
        cfg = NetConfig(input_dim=6, widths=(1024,), difference_trick=False, freeze_first_last=False)
        x = np.vstack([unit_vector(6, s) for s in range(40)])
        samples = np.stack([forward(init_mlp(cfg, seed=s), x) for s in range(50)])
        pooled_var = float(np.mean(np.var(samples, axis=0)))
        assert 1.0 / 3.0 <= pooled_var <= 3.0


@pytest.mark.parametrize("trick", [True, False], ids=["trick", "no-trick"])
class TestOneDraw:
    """``init_mlp`` draws each matrix once into one read-only array that every branch and the snapshot hold."""

    def test_one_array_per_layer(self, trick):
        mlp = init_mlp(NetConfig(input_dim=5, widths=(16, 8), difference_trick=trick), 3)
        weights = mlp.params[0]
        assert len(mlp.params) == len(mlp.params0) == (2 if trick else 1) and len(weights) == 3
        for branch in (*mlp.params, *mlp.params0):
            assert len(branch) == 3 and all(w is shared for w, shared in zip(branch, weights))

    def test_in_place_write_raises(self, trick):
        mlp = init_mlp(NetConfig(input_dim=5, widths=(16, 8), difference_trick=trick), 3)
        for w in mlp.params[0]:
            assert not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w += 1.0
        assert all(w.flags.writeable for branch in mlp.copy().params for w in branch)

    def test_peak_is_one_copy(self, traced_peak, trick):
        # a copy per branch and per snapshot made four copies of the draw with the trick, two without
        config = NetConfig(input_dim=10, widths=(1024, 1024), difference_trick=trick)
        mlp, peak = traced_peak(init_mlp, config, 0)
        one_copy = sum(w.nbytes for w in mlp.params[0])
        assert peak <= 1.1 * one_copy


class TestGradient:
    @pytest.mark.parametrize(
        "cfg,seed,xseed,out_idx",
        [
            (NetConfig(input_dim=4, widths=(6, 5), outputs=2, freeze_first_last=False, difference_trick=False), 2, 2, 1),
            (NetConfig(input_dim=4, widths=(8,), outputs=1, freeze_first_last=False, difference_trick=True), 3, 7, 0),
            (NetConfig(input_dim=5, widths=(7, 6, 4), outputs=3, freeze_first_last=True, difference_trick=True), 1, 9, 2),
        ],
    )
    def test_matches_finite_differences(self, cfg, seed, xseed, out_idx):
        mlp = init_mlp(cfg, seed=seed).copy()
        x = unit_vector(cfg.input_dim, xseed)
        g = gradient(mlp, x, output_index=out_idx)
        fd = finite_difference_gradient(mlp, x, out_idx)
        scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-12)
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-2 * scale)
        assert rel.max() <= 1e-5

    def test_frozen_layers_excluded(self):
        cfg = NetConfig(input_dim=4, widths=(6,), freeze_first_last=True, difference_trick=True)
        mlp = init_mlp(cfg, seed=0)
        g = gradient(mlp, unit_vector(4, 0))
        assert g.size == mlp.n_trainable_params == 2 * 6 * 4  # last layer frozen, two branches

    def test_self_inner_product_nonnegative(self):
        cfg = NetConfig(input_dim=4, widths=(6,), freeze_first_last=False, difference_trick=True)
        mlp = init_mlp(cfg, seed=4)
        for s in range(5):
            g = gradient(mlp, unit_vector(4, s))
            assert g @ g >= 0.0

    def test_gradients_matrix_rows_match_single(self):
        cfg = NetConfig(input_dim=5, widths=(9,), freeze_first_last=False, difference_trick=False)
        mlp = init_mlp(cfg, seed=5)
        x = np.vstack([unit_vector(5, s) for s in range(4)])
        z = gradients_matrix(mlp, x)
        for i in range(4):
            # batched and single-row GEMMs may round differently; demand
            # agreement at a few ulps
            assert np.allclose(z[i], gradient(mlp, x[i]), rtol=1e-13, atol=1e-15)

    def test_output_index_out_of_range(self):
        cfg = NetConfig(input_dim=4, widths=(6,), outputs=2, freeze_first_last=False)
        mlp = init_mlp(cfg, seed=0)
        with pytest.raises(ValidationError):
            gradient(mlp, unit_vector(4, 0), output_index=2)


def small_problem(p=0.2, n=24, d=6, width=128, seed=4, noise_seed=9):
    ds = synth_sphere(n, d, "linear-sign", seed=seed)
    if p > 0:
        ds = corrupt(ds, BinaryFlip(p), seed=noise_seed)
    cfg = NetConfig(input_dim=d, widths=(width,), freeze_first_last=True, difference_trick=True)
    mlp = init_mlp(cfg, 0)
    return ds, mlp


class TestTrainFull:
    def test_rdi_lambda_zero_equals_vanilla(self):
        ds, mlp = small_problem()
        eta = 0.02
        m1, _, log1 = train_full(mlp, ds, TrainConfig("vanilla", eta=eta, steps=40))
        m2, _, log2 = train_full(mlp, ds, TrainConfig("rdi", eta=eta, steps=40, lam=0.0))
        assert np.array_equal(log1.objective, log2.objective)
        assert np.array_equal(m1.params[0][0], m2.params[0][0])

    def test_aux_first_step_absorbs_labels(self):
        # Hand gradient at step 0: residual is -y (zero initial output),
        # so b(1) = eta * lam * y exactly.
        ds, mlp = small_problem()
        lam, eta = 1.5, 0.01
        _, aux, _ = train_full(mlp, ds, TrainConfig("aux", eta=eta, steps=1, lam=lam))
        assert np.array_equal(aux.b, eta * lam * ds.noisy_labels)

    def test_objective_non_increasing_at_small_eta(self):
        ds, mlp = small_problem(width=256)
        K = empirical_ntk(mlp, ds)
        lam = 1.0
        # well below the linearized-certified rate: the nonlinear objective
        # has non-PSD curvature terms that allow tiny ascents at larger eta
        eta = 0.05 / (K.op_norm + lam * lam)
        _, _, log = train_full(mlp, ds, TrainConfig("rdi", eta=eta, steps=100, lam=lam))
        diffs = np.diff(log.objective)
        assert np.all(diffs <= 1e-12 * np.abs(log.objective[:-1]))

    def test_divergence_detected_with_step(self):
        ds, mlp = small_problem()
        with pytest.raises(DivergenceError, match="step"):
            train_full(mlp, ds, TrainConfig("vanilla", eta=50.0, steps=200))

    def test_determinism(self):
        ds, mlp = small_problem()
        cfg = TrainConfig("aux", eta=0.02, steps=30, lam=1.0)
        _, a1, log1 = train_full(mlp, ds, cfg)
        _, a2, log2 = train_full(mlp, ds, cfg)
        assert np.array_equal(log1.objective, log2.objective)
        assert np.array_equal(a1.b, a2.b)

    def test_input_model_untouched(self):
        ds, mlp = small_problem()
        before = [w.copy() for w in mlp.params[0]]
        train_full(mlp, ds, TrainConfig("vanilla", eta=0.02, steps=10))
        for w0, w1 in zip(before, mlp.params[0]):
            assert np.array_equal(w0, w1)

    def test_multiclass_training_runs(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        labels = rng.integers(1, 4, size=30)
        from ntkreg.data import DataSet

        ds = DataSet(x, labels, labels.copy(), "multiclass", num_classes=3)
        cfg = NetConfig(input_dim=5, widths=(64,), outputs=3, freeze_first_last=True)
        mlp = init_mlp(cfg, 0)
        trained, aux, log = train_full(mlp, ds, TrainConfig("aux", eta=0.01, steps=20, lam=1.0))
        assert aux.b.shape == (3, 30)
        assert log.objective[-1] < log.objective[0]

    def test_trajectory_csv(self, tmp_path):
        ds, mlp = small_problem()
        _, _, log = train_full(mlp, ds, TrainConfig("rdi", eta=0.02, steps=5, lam=0.5))
        path = tmp_path / "traj.csv"
        log.to_csv(path)
        lines = Path(path).read_text().strip().split("\n")
        assert lines[0] == (
            "step,objective,train_error,train_error_with_aux,dist_l1,dist_l2,norm_l1,norm_l2"
        )
        assert len(lines) == 7  # header + steps 0..5


class TestDistanceToInit:
    def test_untrained_all_zero(self):
        _, mlp = small_problem()
        assert np.array_equal(distance_to_init(mlp), np.zeros(2))

    def test_nonnegative_after_training(self):
        ds, mlp = small_problem()
        trained, _, _ = train_full(mlp, ds, TrainConfig("rdi", eta=0.02, steps=50, lam=1.0))
        dist = distance_to_init(trained)
        assert np.all(dist >= 0.0)
        assert dist[0] > 0.0  # the trainable layer moved
        assert dist[1] == 0.0  # the frozen layer did not

    def test_distance_non_decreasing_in_noise(self):
        # Directional relationship at small lambda, shared flip coupling.
        ds = synth_sphere(80, 8, "linear-sign", seed=4)
        cfg = NetConfig(input_dim=8, widths=(256,), freeze_first_last=True)
        mlp = init_mlp(cfg, 0)
        lam = 0.25
        K = empirical_ntk(mlp, ds)
        eta = 1.0 / (K.op_norm + lam * lam)
        totals = []
        for p in (0.0, 0.2, 0.4):
            noisy = corrupt(ds, BinaryFlip(p), seed=9) if p > 0 else ds
            trained, _, _ = train_full(mlp, noisy, TrainConfig("rdi", eta=eta, steps=500, lam=lam))
            totals.append(float(np.linalg.norm(distance_to_init(trained))))
        assert totals[0] <= totals[1] <= totals[2]

    @pytest.mark.parametrize("objective, lam", [("vanilla", 0.0), ("rdi", 1.0), ("aux", 1.0)])
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_log_ends_at_the_trained_distance(self, objective, lam, outputs):
        # the CLI reads a trained net's distance from the log's last row instead of walking the weights again
        data = synth_sphere(20, 6, "linear-sign", seed=3) if outputs == 1 else synth_multiclass(20, 6, 3, seed=3)
        for widths in ((8,), (16, 8), (32, 16, 8)):
            for trick in (True, False):
                for freeze in (True, False):
                    config = NetConfig(input_dim=6, widths=widths, outputs=outputs,
                                       freeze_first_last=freeze, difference_trick=trick)
                    trained, _, log = train_full(init_mlp(config, 1), data,
                                                 TrainConfig(objective, eta=0.05, steps=4, lam=lam))
                    assert same_bits(log.dist_to_init[-1], distance_to_init(trained))

    def test_layer_norms_positive(self):
        _, mlp = small_problem()
        assert np.all(layer_norms(mlp) > 0.0)


# An independent reference step: np.where ReLU and masking, matmul
# back-propagation and out-of-place arithmetic throughout. The library's
# step must do the same floating-point operations in the same order.


def reference_branch_forward(config, weights, x):
    caches = []
    h = x
    for l, w in enumerate(weights):
        scale = config.layer_scales[l]
        inp = h if scale == 1.0 else h * scale
        z = inp @ w.T
        last = l == config.depth - 1
        mask = None if last else z > 0.0
        caches.append((inp, mask))
        h = z if last else np.where(mask, z, 0.0)
    return h, caches


def reference_branch_factors(config, weights, caches, out_sens):
    factors = [None] * config.depth
    delta = out_sens
    for l in range(config.depth - 1, -1, -1):
        inp, _ = caches[l]
        factors[l] = (delta, inp)
        if l > 0:
            back = delta @ weights[l]
            scale = config.layer_scales[l]
            if scale != 1.0:
                back = back * scale
            delta = np.where(caches[l - 1][1], back, 0.0)
    return factors


def reference_gradient_factors(mlp, x):
    out = []
    for coeff, weights in zip(mlp.branch_coeffs, mlp.params0):
        _, caches = reference_branch_forward(mlp.config, weights, x)
        sens = np.zeros((x.shape[0], mlp.config.outputs))
        sens[:, 0] = coeff
        factors = reference_branch_factors(mlp.config, weights, caches, sens)
        out.extend(factors[l] for l in mlp.config.trainable_layers)
    return out


def reference_train(mlp, data, cfg):
    """Full-batch gradient descent with summed per-layer gradients, logged per step."""
    config = mlp.config
    targets = np.atleast_2d(data.fit_targets()).T
    model = mlp.copy()
    aux = np.zeros(targets.shape)
    rdi = cfg.objective == "rdi" and cfg.lam > 0.0
    reg_sq = cfg.lam * cfg.lam
    columns = {name: [] for name in ("objective", "train_error", "train_error_with_aux",
                                     "dist_to_init", "weight_norms")}
    for t in range(cfg.steps + 1):
        runs = [reference_branch_forward(config, weights, data.inputs) for weights in model.params]
        f_out = sum(coeff * out for coeff, (out, _) in zip(model.branch_coeffs, runs))
        effective = f_out + cfg.lam * aux if cfg.objective == "aux" else f_out
        residual = effective - targets
        objective = 0.5 * float(np.sum(residual * residual))
        dist = distance_to_init(model)
        if rdi:
            objective += 0.5 * reg_sq * float(np.sum(dist * dist))
        columns["objective"].append(objective)
        columns["train_error"].append(prediction_error(f_out, data.noisy_labels, data.task))
        columns["train_error_with_aux"].append(prediction_error(effective, data.noisy_labels, data.task))
        columns["dist_to_init"].append(dist)
        columns["weight_norms"].append(layer_norms(model))
        if t == cfg.steps:
            break
        for coeff, weights, weights0, (_, caches) in zip(
            model.branch_coeffs, model.params, model.params0, runs
        ):
            factors = reference_branch_factors(config, weights, caches, coeff * residual)
            for l in config.trainable_layers:
                delta, inp = factors[l]
                grad = delta.T @ inp
                if rdi:
                    grad = grad + reg_sq * (weights[l] - weights0[l])
                weights[l] = weights[l] - cfg.eta * grad
        if cfg.objective == "aux" and cfg.lam > 0.0:
            aux = aux - cfg.eta * cfg.lam * residual
    b = aux[:, 0] if targets.shape[1] == 1 else aux.T
    return model, b, {name: np.array(values) for name, values in columns.items()}


def every_pair(factors):
    """A ``GradientFactors``'s pairs in flattening order, every copy listed: branch 2's deltas negated."""
    if factors.copies == 2:
        return factors.pairs + [(-delta, inp) for delta, inp in factors.pairs]
    return factors.pairs


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def close_rel(a, b, rtol=1e-12):
    """Same shape, and every entry within rtol of the largest magnitude in b."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= rtol * np.max(np.abs(b), initial=0.0)


REFERENCE_OBJECTIVES = [("vanilla", 0.0), ("rdi", 1.0), ("aux", 1.0)]


def reference_cases():
    for widths in ((512,), (64, 32)):
        for freeze in (True, False):
            for objective, lam in REFERENCE_OBJECTIVES:
                yield pytest.param(widths, 1, freeze, objective, lam,
                                   id=f"{objective}-{'x'.join(map(str, widths))}-freeze{freeze}")
    for objective, lam in REFERENCE_OBJECTIVES:
        yield pytest.param((64,), 3, True, objective, lam, id=f"{objective}-multiclass")


class TestReferenceStep:
    @pytest.mark.parametrize("widths,outputs,freeze,objective,lam", list(reference_cases()))
    def test_train_full_matches_reference_bitwise(self, widths, outputs, freeze, objective, lam):
        if outputs == 1:
            data = corrupt(synth_sphere(40, 6, "linear-sign", seed=3), BinaryFlip(0.2), seed=5)
        else:
            data = synth_multiclass(40, 6, outputs, seed=3)
        mlp = init_mlp(NetConfig(input_dim=6, widths=widths, outputs=outputs,
                                 freeze_first_last=freeze), 7)
        cfg = TrainConfig(objective, eta=0.01, steps=50, lam=lam)
        model, aux, log = train_full(mlp, data, cfg)
        ref_model, ref_b, ref_log = reference_train(mlp, data, cfg)
        assert ref_log["objective"][-1] < ref_log["objective"][0]
        # the layer scale multiplies a product instead of its input and the
        # summed gradients are formed in another order, so the continuous
        # values agree to rounding and the error rates exactly
        for branch, ref_branch in zip(model.params, ref_model.params):
            for w, ref_w in zip(branch, ref_branch):
                assert close_rel(w, ref_w)
        assert close_rel(aux.b, ref_b)
        for name, ref_column in ref_log.items():
            if name.startswith("train_error"):
                assert same_bits(getattr(log, name), ref_column), name
            else:
                assert close_rel(getattr(log, name), ref_column), name
        # the scale sits on the delta here and on the input in the reference,
        # so the factor pairs are compared as per-example products
        factors = every_pair(gradient_factors(mlp, data.inputs))
        ref_factors = reference_gradient_factors(mlp, data.inputs)
        assert len(factors) == len(ref_factors)
        for (delta, inp), (ref_delta, ref_inp) in zip(factors, ref_factors):
            assert delta.shape == ref_delta.shape and inp.shape == ref_inp.shape
            assert close_rel(np.einsum("mi,mj->mij", delta, inp),
                             np.einsum("mi,mj->mij", ref_delta, ref_inp))


def flat(mlp, params):
    """Trainable weights in the flattening order of ``gradients_matrix``."""
    return np.concatenate([branch[l].ravel() for branch in params for l in mlp.config.trainable_layers])


def gradient_cases():
    for p in reference_cases():
        yield p
    for objective, lam in REFERENCE_OBJECTIVES:
        yield pytest.param((24, 16, 12), 1, True, objective, lam, id=f"{objective}-24x16x12-freezeTrue")
        yield pytest.param((24, 16), 3, True, objective, lam, id=f"{objective}-24x16-multiclass")


class TestStepAgainstGradientsMatrix:
    """One train_full step against per-example gradients from the factor-pair path."""

    @pytest.mark.parametrize("widths,outputs,freeze,objective,lam", list(gradient_cases()))
    def test_one_step(self, widths, outputs, freeze, objective, lam):
        if outputs == 1:
            data = corrupt(synth_sphere(30, 6, "linear-sign", seed=3), BinaryFlip(0.2), seed=5)
        else:
            data = synth_multiclass(30, 6, outputs, seed=3)
        eta = 0.01
        # a few steps first, so that the weights have moved from their initialization
        mlp, _, _ = train_full(init_mlp(NetConfig(input_dim=6, widths=widths, outputs=outputs,
                                                  freeze_first_last=freeze), 7),
                               data, TrainConfig(objective, eta=eta, steps=3, lam=lam))
        stepped, _, _ = train_full(mlp, data, TrainConfig(objective, eta=eta, steps=1, lam=lam))
        # b starts at zero in every call, so each objective's residual is f(x) - y
        residual = forward(mlp, data.inputs) - np.atleast_2d(data.fit_targets()).T
        grad = sum(residual[:, k] @ gradients_matrix(mlp, data.inputs, k, at_init=False)
                   for k in range(outputs))
        theta, theta0 = flat(mlp, mlp.params), flat(mlp, mlp.params0)
        if objective == "rdi":
            assert np.any(theta != theta0)
            grad = grad + lam * lam * (theta - theta0)
        expected = theta - eta * grad
        assert close_rel(flat(stepped, stepped.params), expected)


class CountingArray(np.ndarray):
    """Records the operand shapes of every matrix product it takes part in."""

    products = []
    differences = []  # shapes of the out-of-place differences of two counted arrays

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            CountingArray.products.append(tuple(np.shape(a) for a in inputs))
        if ufunc is np.subtract and out is None and all(isinstance(a, CountingArray) for a in inputs):
            CountingArray.differences.append(np.shape(inputs[0]))
        plain = [a.view(np.ndarray) if isinstance(a, CountingArray) else a for a in inputs]
        if out is not None:
            # an in-place update keeps the counted array in its place
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
            getattr(ufunc, method)(*plain, **kwargs)
            return out[0]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestWalkStopsAtLowestTrainableLayer:
    """Layer 0 of a (64, 32) frozen-first net is frozen, so no delta is carried into it."""

    CONFIG = NetConfig(input_dim=6, widths=(64, 32), freeze_first_last=True)

    def counted_net(self):
        mlp = init_mlp(self.CONFIG, 7)
        for params in (mlp.params, mlp.params0):
            for branch in params:
                branch[:] = [w.view(CountingArray) for w in branch]
        CountingArray.products.clear()
        return mlp

    def test_gradient_factors(self):
        mlp = self.counted_net()
        x = synth_sphere(30, 6, "linear-sign", seed=3).inputs
        factors = gradient_factors(mlp, x)
        assert [inp.shape for _, inp in every_pair(factors)] == [(30, 64)] * 2
        # the forward pass reads each weight transposed; carrying a delta from
        # layer 1 into layer 0 would be a (30, 32) @ (32, 64) product with W_1
        assert ((30, 64), (64, 32)) in CountingArray.products
        assert not any(shapes[1] == (32, 64) for shapes in CountingArray.products)

    def test_train_full(self):
        mlp = self.counted_net()
        data = corrupt(synth_sphere(30, 6, "linear-sign", seed=3), BinaryFlip(0.2), seed=5)
        model, _, _ = train_full(mlp, data, TrainConfig("rdi", eta=0.01, steps=2, lam=1.0))
        assert all(isinstance(w, CountingArray) for branch in model.params for w in branch)
        # the forwards at steps 0, 1 and 2 of two branches, each reading W_1 once
        assert CountingArray.products.count(((30, 64), (64, 32))) == 6
        assert not any(shapes[1] == (32, 64) for shapes in CountingArray.products)


def nan_weight_problem():
    mlp = init_mlp(NetConfig(input_dim=5, widths=(16,)), 0).copy()
    for branch in mlp.params:
        branch[0][3, 1] = np.nan
    return mlp, synth_sphere(20, 5, "linear-sign", seed=0)


def test_nan_weight_fails_loudly():
    # ReLU propagates a NaN pre-activation instead of masking it to 0, so the
    # output turns non-finite and training stops at the first objective
    mlp, data = nan_weight_problem()
    assert not np.all(np.isfinite(forward(mlp, data.inputs)))
    with pytest.raises(
        DivergenceError, match="at step 0; before any update; the weights or inputs are non-finite"
    ) as failure:
        train_full(mlp, data, TrainConfig("vanilla", eta=0.01, steps=5))
    assert "learning rate" not in str(failure.value)


def test_overflowing_residual_fails_by_the_divergence_rule():
    # the aux step at eta 1e150 sends the output past 1e154, whose square overflows: the data
    # term reads as inf, without a numpy warning, and the step fails before any walk
    data = synth_sphere(30, 6, "linear-sign", seed=3)
    mlp = init_mlp(NetConfig(input_dim=6, widths=(64,)), 1)
    with pytest.raises(DivergenceError, match="objective became inf at step 1; reduce the learning rate"):
        train_full(mlp, data, TrainConfig("aux", eta=1e150, steps=6, lam=1e5))


class TestNoAliasing:
    UNSCALED = NetConfig(input_dim=5, widths=(2, 2), scale_c=2.0, freeze_first_last=False)
    NETS = [
        NetConfig(input_dim=5, widths=(16,), freeze_first_last=False),
        NetConfig(input_dim=5, widths=(8, 6), freeze_first_last=True, outputs=2),
        UNSCALED,
    ]

    def test_unscaled_net_scales_nothing(self):
        assert self.UNSCALED.layer_scales == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("config", NETS, ids=["w16", "w8x6-2out", "w2x2-unscaled"])
    def test_inputs_and_weights_untouched(self, config):
        if config.outputs == 1:
            data = synth_sphere(12, 5, "linear-sign", seed=1)
        else:
            data = synth_multiclass(12, 5, config.outputs, seed=1)
        mlp = init_mlp(config, 2)
        x = np.random.default_rng(0).standard_normal((9, 5))
        arrays = [x, data.inputs] + [w for branch in mlp.params0 + mlp.params for w in branch]
        before = [a.copy() for a in arrays]
        forward(mlp, x)
        gradient_factors(mlp, x, at_init=False)
        gradient_factors(mlp, data.inputs)
        train_full(mlp, data, TrainConfig("rdi", eta=0.01, steps=3, lam=1.0))
        for old, new in zip(before, arrays):
            assert same_bits(old, new)

    @pytest.mark.parametrize("config", NETS, ids=["w16", "w8x6-2out", "w2x2-unscaled"])
    def test_forward_reuses_an_earlier_cache(self, config):
        # a training loop hands every step the same slots; a pass overwrites
        # the arrays an earlier pass left there and computes what a fresh pass computes
        weights = init_mlp(config, 2).params[0]
        x = np.random.default_rng(0).standard_normal((9, 5))
        fresh, reused = [(None, None)] * config.depth, [(None, None)] * config.depth
        out = _branch_forward(config, weights, x, fresh)
        _branch_forward(config, weights, -x, reused)
        stale = list(reused)
        out_again = _branch_forward(config, weights, x, reused)
        assert same_bits(out, out_again)
        assert reused[0][0] is x
        for (h, mask), (h_again, mask_again), (h_stale, mask_stale) in zip(fresh, reused, stale):
            assert same_bits(h, h_again) and same_bits(mask, mask_again)
            if h_again is not x:
                assert h_again is h_stale
            assert mask_again is mask_stale

    @pytest.mark.parametrize("config", NETS, ids=["w16", "w8x6-2out", "w2x2-unscaled"])
    def test_factors_own_their_memory(self, config):
        mlp = init_mlp(config, 2)
        x = np.random.default_rng(0).standard_normal((9, 5))
        first = gradient_factors(mlp, x)
        second = gradient_factors(mlp, x)
        layers = config.trainable_layers
        computed = []
        for factors in (first, second):
            for (delta, inp), l in zip(factors.pairs, layers * len(mlp.params)):
                computed.append(delta)
                if l == 0:
                    # layer 0 is unscaled: its input factor is the input batch, read only
                    assert same_bits(inp, x)
                else:
                    computed.append(inp)
        for i, a in enumerate(computed):
            assert not np.shares_memory(a, x)
            for b in computed[i + 1:]:
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("objective", [np.nextafter(DIVERGENCE_LIMIT, np.inf), np.inf, np.nan])
def test_one_divergence_rule(objective):
    # nonlinear training and the linearized runs both fail through this check
    _check_divergence(DIVERGENCE_LIMIT, 7)
    with pytest.raises(DivergenceError, match="at step 7; reduce the learning rate"):
        _check_divergence(objective, 7)


def moved_net(config, seed=2):
    """A net whose first branch has left its initialization, so the output is not zero."""
    mlp = init_mlp(config, seed).copy()
    rng = np.random.default_rng(seed)
    for w in mlp.params[0]:
        w += 0.05 * rng.standard_normal(w.shape)
    return mlp


# The default budget evaluates BLOCK_ENTRIES // 2048 = 32 rows of these nets at a time.
BLOCKED_NETS = {
    "w2048": NetConfig(input_dim=6, widths=(2048,)),
    "w2048-3out": NetConfig(input_dim=6, widths=(2048,), outputs=3),
    "w64x2048-ends-frozen": NetConfig(input_dim=6, widths=(64, 2048), freeze_first_last=True),
}
ROWS = net_module.BLOCK_ENTRIES // 2048


class TestRowBlocks:
    """Query passes evaluate at most max(1, BLOCK_ENTRIES // max(widths)) rows at a time.

    A block's products run in BLAS kernels picked by its shape (a one-row
    block in gemv, a few rows in gemm's edge kernels), so the budget moves
    outputs by rounding only: by at most 1.6e-14 of the largest output
    (forward, whose output cancels two branches) and 1.2e-15 (cross kernel
    and tangent predictions) where this was measured.
    """

    @pytest.mark.parametrize("budget_rows", [1, 7])
    @pytest.mark.parametrize("m", [1, ROWS - 1, ROWS, ROWS + 1, None], ids=lambda m: f"m{m or '-vector'}")
    @pytest.mark.parametrize("name", list(BLOCKED_NETS))
    def test_budget_moves_outputs_by_rounding_only(self, monkeypatch, name, m, budget_rows):
        config = BLOCKED_NETS[name]
        moved, mlp = moved_net(config), init_mlp(config, 3)
        train = synth_sphere(20, 6, "linear-sign", seed=4)
        lm = linearize(mlp, train)
        coeffs = np.random.default_rng(5).standard_normal((20, 2))
        queries = synth_sphere(m or 1, 6, "linear-sign", seed=6).inputs
        if m is None:
            queries = queries[0]

        def passes():
            return [forward(moved, queries), empirical_ntk_cross(mlp, queries, train),
                    lm.predict(coeffs, queries), lm.predict(coeffs[:, 0], queries)]

        expected = passes()
        monkeypatch.setattr(net_module, "BLOCK_ENTRIES", budget_rows * max(config.widths))
        for got, ref in zip(passes(), expected):
            assert got.dtype == ref.dtype
            assert close_rel(got, ref)
        if m is None:
            assert [np.shape(out) for out in expected] == [(config.outputs,), (1, 20), (2,), ()]

    def test_empty_batch_keeps_its_shape(self):
        mlp = moved_net(BLOCKED_NETS["w2048-3out"])
        assert forward(mlp, np.empty((0, 6))).shape == (0, 3)

    def test_gradient_factors_release_each_branch_cache(self, traced_peak):
        # in (m, width) float arrays: with a second branch pass, the two
        # branches' returned deltas are 2 and that pass adds 1.15; the first
        # branch's forward cache, kept through it, made it 3.25. Equal
        # branches now take one pass: its cache and delta, 2.15
        n, width = 300, 2048
        mlp = init_mlp(NetConfig(input_dim=10, widths=(width,)), 0)
        x = synth_sphere(n, 10, "linear-sign", seed=1).inputs
        factors, peak = traced_peak(gradient_factors, mlp, x)
        assert len(factors.pairs) * factors.copies == 2
        assert peak < 3.2 * n * width * 8

    def test_forward_peak_is_one_block(self, traced_peak):
        # 4096 queries at width 2048 are 64 MB of activations per layer in one pass
        mlp = init_mlp(NetConfig(input_dim=10, widths=(2048,)), 0)
        queries = synth_sphere(4096, 10, "linear-sign", seed=1).inputs
        out, peak = traced_peak(forward, mlp, queries)
        assert out.shape == (4096, 1)
        assert peak < 4e6


class TestTrainStepWork:
    """A step scores the plain output once unless AUX shifts it, and forms each W - W0 once."""

    @pytest.mark.parametrize("objective, lam, scored", [("vanilla", 0.0, 4), ("rdi", 1.0, 4), ("aux", 1.0, 8)])
    def test_train_error_scored_once_without_aux(self, objective, lam, scored, count_calls):
        calls = count_calls(net_module, "prediction_error")
        data = corrupt(synth_sphere(20, 6, "linear-sign", seed=3), BinaryFlip(0.2), seed=5)
        _, _, log = train_full(init_mlp(NetConfig(input_dim=6, widths=(32,)), 7), data,
                               TrainConfig(objective, eta=0.01, steps=3, lam=lam))
        assert len(calls) == scored
        if objective != "aux":
            assert same_bits(log.train_error_with_aux, log.train_error)

    def test_rdi_forms_each_displacement_once(self):
        mlp = TestWalkStopsAtLowestTrainableLayer().counted_net()
        CountingArray.differences.clear()
        data = corrupt(synth_sphere(30, 6, "linear-sign", seed=3), BinaryFlip(0.2), seed=5)
        train_full(mlp, data, TrainConfig("rdi", eta=0.01, steps=2, lam=1.0))
        # steps 0, 1 and 2 measure the distance of layer 1 of two branches; the two updates reuse it
        assert CountingArray.differences == [(32, 64)] * 6


MIB = 2 ** 20


class TestKeptActivations:
    """A pass keeps what its backward walk reads: trainable layers' inputs and the masks.

    The activation entering a frozen layer goes to one buffer that
    ``train_full`` holds for both branches and every step, and that its
    summed one-output walk also fills with the float mask; ``gradient_factors``
    frees it as the forward pass ends. Peaks of 2 RDI steps at n = 1000.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return corrupt(synth_sphere(1000, 10, "linear-sign", seed=1), BinaryFlip(0.2), seed=2)

    # per n x width, train_full held each branch's float input of the frozen
    # output layer, its bool mask and a float copy of that mask (26 bytes,
    # 104.7 MiB at width 4096); it holds the shared buffer and two masks (10
    # bytes, 42.7 MiB). On (256, 256) the buffer also replaces the float mask
    # (16.9 -> 13.0 MiB).
    @pytest.mark.parametrize("widths, bound_mib", [((4096,), 48.0), ((256, 256), 14.5)], ids=["w4096", "w256x256"])
    def test_train_full_peak(self, traced_peak, data, widths, bound_mib):
        mlp = init_mlp(NetConfig(input_dim=10, widths=widths, freeze_first_last=True), 0)
        (_, _, log), peak = traced_peak(train_full, mlp, data, TrainConfig("rdi", eta=1e-3, steps=2, lam=1.0))
        assert log.objective[-1] < log.objective[0]
        assert peak <= bound_mib * MIB

    def test_multi_output_train_full_peak(self, traced_peak):
        # the summed walk allocated its (n, width) back signal delta @ W_1 every step and branch
        # (73.6 MiB); it now goes into the frozen output layer's input buffer, as with one output
        data = synth_multiclass(1000, 10, 3, seed=1)
        mlp = init_mlp(NetConfig(input_dim=10, widths=(4096,), outputs=3, freeze_first_last=True), 0)
        (_, _, log), peak = traced_peak(train_full, mlp, data, TrainConfig("rdi", eta=1e-3, steps=2, lam=1.0))
        assert log.objective[-1] < log.objective[0]
        assert peak <= 48.0 * MIB

    @pytest.mark.parametrize("widths", [(16,), (8, 6)], ids=["w16", "w8x6"])
    def test_summed_walk_writes_its_back_signal_into_the_buffer(self, widths):
        config = NetConfig(input_dim=5, widths=widths, outputs=3, freeze_first_last=True)
        weights = init_mlp(config, 2).params[0]
        rng = np.random.default_rng(0)
        x, delta = rng.standard_normal((9, 5)), rng.standard_normal((9, 3))
        top, low = config.depth - 1, config.depth - 2
        buffer = np.empty((9, config.dims[top]))
        caches = [(buffer if l == top else None, None) for l in range(config.depth)]
        _branch_forward(config, weights, x, caches)
        low_input = caches[low][0].copy()
        # the allocating walk's arithmetic: delta @ W_top, masked, scaled, then the summed outer product
        back = (delta * config.layer_scales[top]) @ weights[top]
        back *= caches[low][1]
        back *= config.layer_scales[low]
        (grad,) = _branch_backward(config, weights, caches, delta.copy(), summed=True)
        assert same_bits(grad, (low_input.T @ back).T)
        assert same_bits(buffer, back)

    def test_gradient_factors_peak(self, traced_peak, data):
        # the mask and the delta at layer 0 (9 bytes per n x width, 35.2 MiB);
        # the frozen layer's input, kept through the walk, made it 66.5 MiB
        mlp = init_mlp(NetConfig(input_dim=10, widths=(4096,)), 0)
        factors, peak = traced_peak(gradient_factors, mlp, data.inputs)
        assert len(factors.pairs) * factors.copies == 2
        assert peak <= 38.0 * MIB

    @pytest.mark.parametrize("widths", [(16,), (8, 6)], ids=["w16", "w8x6"])
    def test_frozen_input_goes_to_the_callers_buffer(self, widths):
        config = NetConfig(input_dim=5, widths=widths, freeze_first_last=True)
        weights = init_mlp(config, 2).params[0]
        x = np.random.default_rng(0).standard_normal((9, 5))
        top = config.depth - 1
        buffer = np.empty((9, config.dims[top]))
        plain = [(None, None)] * config.depth
        buffered = [(buffer if l == top else None, None) for l in range(config.depth)]
        out = _branch_forward(config, weights, x, plain)
        out_buffered = _branch_forward(config, weights, x, buffered)
        assert same_bits(out, out_buffered)
        # no walk reads a frozen layer's input: its slot keeps the buffer or nothing
        assert plain[top][0] is None and buffered[top][0] is buffer
        # the buffer holds that input: the layers below it, run on their own
        assert same_bits(buffer, _branch_forward(config, weights[:top], x))
        for l in config.trainable_layers:
            assert same_bits(plain[l][0], buffered[l][0]) and same_bits(plain[l][1], buffered[l][1])


def cli_net(widths, data, seed=0):
    """The net the CLI draws for ``data``: one read-only array per layer, shared by branches and snapshot."""
    return cli._seeded_net({"model": {"kind": "net", "widths": list(widths)}}, data, seed)


class TestOneCopyOfEachMatrix:
    """A CLI net's one copy of each matrix serves every pass; training copies only its trainable layers.

    Peaks at n = 40 on widths (1024, 1024), where the trainable matrix is 8 MiB,
    unless a test says otherwise.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return corrupt(synth_sphere(40, 10, "linear-sign", seed=1), BinaryFlip(0.2), seed=2)

    def test_train_full_copies_only_the_trainable_layers(self, data):
        mlp = cli_net((16, 8), data)
        trained, _, _ = train_full(mlp, data, TrainConfig("rdi", eta=0.01, steps=3, lam=1.0))
        for branch, source in zip(trained.params, mlp.params):
            for l, (w, w_in) in enumerate(zip(branch, source)):
                if l in mlp.config.trainable_layers:
                    assert w.flags.writeable and not np.shares_memory(w, w_in)
                else:
                    assert w is w_in
        assert not np.shares_memory(trained.params[0][1], trained.params[1][1])
        for branch, source in zip(trained.params0, mlp.params0):
            assert all(w is w_in for w, w_in in zip(branch, source))

    @pytest.mark.parametrize("objective", ["vanilla", "rdi", "aux"])
    def test_cli_net_trains_as_a_drawn_net(self, data, objective):
        mlp = cli_net((16, 8), data, seed=4)
        before = [w.copy() for w in mlp.params0[0]]
        cfg = TrainConfig(objective, eta=0.01, steps=5, lam=1.0)
        trained, aux, log = train_full(mlp, data, cfg)
        ref, ref_aux, ref_log = train_full(init_mlp(mlp.config, (0, 4)).copy(), data, cfg)
        for w, w_before in zip(mlp.params0[0], before):
            assert not w.flags.writeable and same_bits(w, w_before)
        for params, ref_params in ((trained.params, ref.params), (trained.params0, ref.params0)):
            for branch, ref_branch in zip(params, ref_params):
                assert all(same_bits(w, w_ref) for w, w_ref in zip(branch, ref_branch))
        assert same_bits(aux.b, ref_aux.b)
        for field in dataclasses.fields(log):
            assert same_bits(getattr(log, field.name), getattr(ref_log, field.name))

    def test_gradient_factors_peak(self, traced_peak, data):
        # comparing the branches with np.array_equal made a 1 MiB bool array
        # per pass (1.00 MiB); the same array needs no comparison (0.79 MiB)
        factors, peak = traced_peak(gradient_factors, cli_net((1024, 1024), data), data.inputs)
        assert factors.copies == 2
        assert peak < 0.9 * MIB

    def test_linearize_peak(self, traced_peak, data):
        # the probe formed Z v one parameter-sized block per layer (8.94
        # MiB); a column block of at most BLOCK_ENTRIES entries makes 1.15 MiB
        lm, peak = traced_peak(linearize, cli_net((1024, 1024), data), data)
        assert lm.n == 40
        assert peak < 2 * MIB

    def test_train_full_peak(self, traced_peak, data):
        # copying all four sets of weights made 89.4 MiB; two copies of the trainable one, 73.0 MiB;
        # forming the RDI step eta (g + lam^2 (W - W0)) in the displacement array, not beside it, 65.1 MiB;
        # holding one layer's W - W0 at a time, formed after its branch's walk, 41.1 MiB: the two
        # trainable copies, a gradient, W - W0 and one square of it
        cfg = TrainConfig("rdi", eta=1e-3, steps=2, lam=1.0)
        (_, _, log), peak = traced_peak(train_full, cli_net((1024, 1024), data), data, cfg)
        assert log.objective[-1] < log.objective[0]
        assert peak < 45 * MIB

    def test_train_full_peak_at_width_2048(self, traced_peak):
        # a 32 MiB trainable matrix at n = 300: keeping every branch's W - W0 from the measurement
        # to the update made 271.3 MiB; one layer's at a time makes 175.3 MiB
        data = corrupt(synth_sphere(300, 10, "linear-sign", seed=1), BinaryFlip(0.2), seed=2)
        cfg = TrainConfig("rdi", eta=1e-3, steps=2, lam=1.0)
        (_, _, log), peak = traced_peak(train_full, cli_net((2048, 2048), data), data, cfg)
        assert log.objective[-1] < log.objective[0]
        assert peak < 185 * MIB


def two_pass_factors(mlp, x, output_index=0):
    """The pairs at init from a forward and backward pass of every branch, in flattening order."""
    pairs = []
    for coeff, weights in zip(mlp.branch_coeffs, mlp.params0):
        caches = [(None, None)] * mlp.config.depth
        _branch_forward(mlp.config, weights, x, caches)
        sens = np.zeros((x.shape[0], mlp.config.outputs))
        sens[:, output_index] = coeff
        pairs.extend(_branch_backward(mlp.config, weights, caches, sens))
    return pairs


# name -> (config, whether it has one trainable layer); with one, the
# one-pass sums are the two-pass sums' bits, since x + x = 2x is exact
ONE_PASS_NETS = {
    "w2048": (NetConfig(input_dim=6, widths=(2048,)), True),
    "w64x2048": (NetConfig(input_dim=6, widths=(64, 2048)), True),
    "w16x8-3out": (NetConfig(input_dim=6, widths=(16, 8), outputs=3), True),
    "w64x128x32": (NetConfig(input_dim=6, widths=(64, 128, 32)), False),
    "w2048-unfrozen": (NetConfig(input_dim=6, widths=(2048,), freeze_first_last=False), False),
    "w64x128x32-unfrozen": (NetConfig(input_dim=6, widths=(64, 128, 32), freeze_first_last=False), False),
}


class TestOneBranchPass:
    """While a difference-trick net's branches hold equal weights, one branch's pass serves both."""

    def test_one_pass_per_call_while_branches_are_equal(self, count_calls):
        forwards = count_calls(net_module, "_branch_forward")
        backwards = count_calls(net_module, "_branch_backward")
        data = corrupt(synth_sphere(20, 6, "linear-sign", seed=3), BinaryFlip(0.2), seed=5)
        mlp = init_mlp(NetConfig(input_dim=6, widths=(32,)), 7).copy()

        def passes(net, **kwargs):
            forwards.clear()
            backwards.clear()
            factors = gradient_factors(net, data.inputs, **kwargs)
            assert len(factors.pairs) * factors.copies == len(net.params)
            return len(forwards), len(backwards)

        assert passes(mlp) == passes(mlp, at_init=False) == (1, 1)
        trained, _, _ = train_full(mlp, data, TrainConfig("rdi", eta=0.01, steps=5, lam=1.0))
        assert passes(trained) == (1, 1)
        assert passes(trained, at_init=False) == (2, 2)
        # the frozen output layer is read by the pass, so it counts in the comparison
        mlp.params0[1][1] += 0.1
        assert passes(mlp) == (2, 2)
        assert passes(init_mlp(NetConfig(input_dim=6, widths=(32,), difference_trick=False), 7)) == (1, 1)

    @pytest.mark.parametrize("name", list(ONE_PASS_NETS))
    def test_factors_are_the_two_passes_bitwise(self, name):
        config, _ = ONE_PASS_NETS[name]
        mlp = init_mlp(config, 3)
        x = synth_sphere(25, 6, "linear-sign", seed=1).inputs
        factors = gradient_factors(mlp, x, output_index=config.outputs - 1)
        reference = two_pass_factors(mlp, x, output_index=config.outputs - 1)
        assert factors.copies == 2 and 2 * len(factors.pairs) == len(reference)
        for (delta, inp), (ref_delta, ref_inp) in zip(every_pair(factors), reference):
            assert same_bits(delta, ref_delta) and same_bits(inp, ref_inp)

    @pytest.mark.parametrize("name", list(ONE_PASS_NETS))
    def test_flattened_factors_are_the_two_passes_bitwise(self, name):
        # branch 2's blocks are einsums of negated deltas, so their zeros carry the two passes' signs
        config, _ = ONE_PASS_NETS[name]
        mlp = init_mlp(config, 3)
        x = synth_sphere(25, 6, "linear-sign", seed=1).inputs
        output = config.outputs - 1
        reference = np.concatenate([np.einsum("mi,mj->mij", delta, inp).reshape(25, -1)
                                    for delta, inp in two_pass_factors(mlp, x, output_index=output)], axis=1)
        assert same_bits(flatten_factors(gradient_factors(mlp, x, output_index=output)), reference)
        assert same_bits(gradients_matrix(mlp, x, output_index=output), reference)

    def test_predict_refuses_factors_of_another_initialization(self):
        train = synth_sphere(20, 6, "linear-sign", seed=1)
        lm = linearize(init_mlp(NetConfig(input_dim=6, widths=(32,)), 3).copy(), train)
        lm.mlp.params0[1][0] += 0.1  # the branches differ now: the queries' pass counts its pairs once
        with pytest.raises(ValidationError, match="different weights"):
            lm.predict(np.ones(20), train.inputs)

    @pytest.mark.parametrize("name", list(ONE_PASS_NETS))
    def test_kernels_match_two_passes(self, name):
        config, one_layer = ONE_PASS_NETS[name]
        same = same_bits if one_layer else close_rel
        mlp = init_mlp(config, 3)
        train = synth_sphere(40, 6, "linear-sign", seed=1)
        queries = synth_sphere(20, 6, "linear-sign", seed=2).inputs  # one row block of every net here
        coeffs = np.random.default_rng(4).standard_normal((40, 2))
        pairs, query_pairs = (GradientFactors(two_pass_factors(mlp, x), 1, ()) for x in (train.inputs, queries))
        gram, cross = mirror_upper(_factor_gram(pairs)), _factor_gram(pairs, query_pairs).T
        lm = linearize(mlp, train)
        assert same(empirical_ntk(mlp, train).values, gram) and same(lm.K.values, gram)
        assert same(empirical_ntk_cross(mlp, queries, train), cross)
        assert same(lm.predict(coeffs, queries), cross @ coeffs)
        # theta_at makes one product per pair and sums none, so it is bitwise at every depth
        blocks = [((delta * coeffs[:, :1]).T @ inp).ravel() for delta, inp in pairs.pairs]
        assert same_bits(lm.theta_at(coeffs[:, 0]), lm.theta0 + np.concatenate(blocks))

    @pytest.mark.parametrize("build", ["empirical_ntk", "empirical_ntk_cross", "linearize"])
    def test_peak_is_one_branch_pass(self, traced_peak, build):
        # one branch's pass over X peaks at about 2.15 x 300 x 2048 floats
        # (10.6 MB): its forward cache and the delta it returns; a second
        # branch's pass beside the first one's factors made it 15.5 MB
        mlp = init_mlp(NetConfig(input_dim=10, widths=(2048,)), 0)
        train = synth_sphere(300, 10, "linear-sign", seed=2)
        queries = synth_sphere(200, 10, "linear-sign", seed=1).inputs
        calls = {"empirical_ntk": (empirical_ntk, mlp, train),
                 "empirical_ntk_cross": (empirical_ntk_cross, mlp, queries, train),
                 "linearize": (linearize, mlp, train)}
        _, peak = traced_peak(*calls[build])
        assert peak <= 12e6
