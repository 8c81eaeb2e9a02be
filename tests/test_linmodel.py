"""Linearized dynamics: the two regularizers coincide step for step and
converge to the ridge solution."""

import warnings

import numpy as np
import pytest

from ntkreg._kernelmatrix import KernelMatrix
from ntkreg.data import synth_sphere
from ntkreg.errors import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    SingularityError,
    TrickViolationError,
    ValidationError,
)
from ntkreg.kernel import EmpiricalNTK, empirical_ntk
from ntkreg.krr import krr_fit, rkhs_norm
from ntkreg.linmodel import (
    INIT_OUTPUT_TOL,
    KIND_AUX,
    KIND_RDI,
    LinearizedModel,
    _CHUNK,
    _descend,
    check_equivalence,
    closed_form_limit,
    linearize,
    run_gd_aux,
    run_gd_equivalence,
    run_gd_rdi,
    span_residual,
)
from ntkreg.net import NetConfig, TrainConfig, forward, gradient_factors, gradients_matrix, init_mlp, train_full
from ntkreg.noise import BinaryFlip, corrupt


def make_lm(n=20, d=6, width=96, seed=0, noise=0.2, freeze=False):
    ds = synth_sphere(n, d, "linear-sign", seed=seed)
    if noise > 0:
        ds = corrupt(ds, BinaryFlip(noise), seed=seed + 100)
    cfg = NetConfig(input_dim=d, widths=(width,), freeze_first_last=freeze,
                    difference_trick=True)
    mlp = init_mlp(cfg, seed)
    return linearize(mlp, ds), ds


def identity_lm(n=4):
    """Synthetic model with orthonormal features: Z = I, K = I."""
    return LinearizedModel(K=KernelMatrix.from_values(np.eye(n)))


class TestLinearize:
    def test_requires_difference_trick(self):
        ds = synth_sphere(5, 4, "linear-sign", seed=0)
        cfg = NetConfig(input_dim=4, widths=(16,), difference_trick=False)
        with pytest.raises(ValidationError):
            linearize(init_mlp(cfg, 0), ds)

    def test_detects_nonzero_initial_output(self):
        ds = synth_sphere(5, 4, "linear-sign", seed=0)
        cfg = NetConfig(input_dim=4, widths=(16,), freeze_first_last=False,
                        difference_trick=True)
        mlp = init_mlp(cfg, 0).copy()
        mlp.params0[0][0] += 0.1  # desynchronize the branch snapshots
        mlp.params[0][0] += 0.1
        with pytest.raises(TrickViolationError):
            linearize(mlp, ds)

    def test_trained_net_is_linearized_at_its_snapshot(self):
        # the zero output is checked at params0, the point linearized, not at the trained weights
        ds = corrupt(synth_sphere(20, 6, "linear-sign", seed=0), BinaryFlip(0.2), seed=1)
        fresh = init_mlp(NetConfig(input_dim=6, widths=(32,)), 0)
        trained, _, _ = train_full(fresh, ds, TrainConfig("rdi", eta=0.01, steps=5, lam=1.0))
        assert np.max(np.abs(forward(trained, ds.inputs))) > INIT_OUTPUT_TOL
        assert np.array_equal(linearize(trained, ds).K.values, linearize(fresh, ds).K.values)

    def test_zero_output_read_from_the_gradient_pass(self, count_calls):
        # the check combines the branch outputs of the pass that forms the
        # factors: no forward of its own, one branch pass for equal branches
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        forwards = [count_calls(owner, "forward") for owner in (net_module, linmodel_module)
                    if hasattr(owner, "forward")]
        branch_passes = count_calls(net_module, "_branch_forward")
        lm, _ = make_lm(n=12, width=32)
        assert [len(calls) for calls in forwards] == [0] * len(forwards)
        assert len(branch_passes) == 1
        assert len(lm.factors.outputs) == 2 and lm.factors.outputs[0] is lm.factors.outputs[1]

    def test_gram_matches_empirical_kernel_bitwise(self):
        lm, ds = make_lm()
        K = empirical_ntk(lm.mlp, ds)
        assert np.array_equal(lm.K.values, K.values)

    def test_gram_matches_feature_product(self):
        lm, ds = make_lm()
        z = gradients_matrix(lm.mlp, ds.inputs).T
        gram = z.T @ z
        scale = np.max(np.abs(lm.K.values))
        assert np.max(np.abs(gram - lm.K.values)) <= 1e-10 * scale

    def test_gradient_passes(self, monkeypatch):
        # linearize makes one pass and keeps no factors; the first read of the model's factors makes
        # one more over the training inputs, later reads none, and predict one over its queries
        from ntkreg import kernel as kernel_module
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        original = net_module.gradient_factors
        rows_seen = []

        def counted(mlp, x, *args, **kwargs):
            rows_seen.append(np.atleast_2d(x).shape[0])
            return original(mlp, x, *args, **kwargs)

        for owner in (net_module, kernel_module, linmodel_module):
            monkeypatch.setattr(owner, "gradient_factors", counted)
        lm, ds = make_lm(n=12, width=32)
        assert rows_seen == [12]
        a = np.random.default_rng(1).standard_normal(lm.n)
        lm.theta_at(a)
        lm.theta_at(-a)
        assert rows_seen == [12, 12]
        queries = synth_sphere(7, ds.d, "linear-sign", seed=9).inputs
        values = lm.predict(np.stack([a, -a], axis=1), queries)
        assert rows_seen == [12, 12, 7] and values.shape == (7, 2)
        # a block of coefficient vectors is one matrix product, which rounds differently from one at a time
        assert np.allclose(values[:, 0], lm.predict(a, queries), rtol=1e-13, atol=0.0)
        assert np.array_equal(values[:, 0], -values[:, 1])
        # a single query gives a scalar
        assert np.ndim(lm.predict(a, queries[0])) == 0

    def test_prediction_at_reference_is_zero(self):
        lm, ds = make_lm()
        preds = lm.predict(np.zeros(lm.n), ds.inputs)
        assert np.all(preds == 0.0)

    def test_single_point_algebra(self):
        # theta = theta0 + c * phi(x1) predicts c * K11 on x1
        lm, ds = make_lm(n=1, noise=0.0)
        c = 0.7
        pred = lm.predict(np.array([c]), ds.inputs[0])
        assert abs(pred - c * lm.K.values[0, 0]) <= 1e-10 * abs(pred)


class TestRdiDynamics:
    def test_zero_targets_fixed_point(self):
        lm, _ = make_lm()
        traj = run_gd_rdi(lm, np.zeros(lm.n), lam=1.0, steps=20)
        assert np.all(traj.coeffs == 0.0)
        assert np.all(traj.objectives == 0.0)

    def test_identity_kernel_one_step_interpolation(self):
        # scalar recursion per coordinate: a(1) = eta * y = y at eta = 1, lam = 0
        lm = identity_lm()
        y = np.array([1.0, -2.0, 0.5, 0.0])
        traj = run_gd_rdi(lm, y, lam=0.0, eta=1.0, steps=1)
        assert np.allclose(traj.coeffs[1], y, rtol=0, atol=0)
        assert traj.objectives[1] == 0.0

    def test_descent_at_certified_rate(self):
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam = 0.5
        traj = run_gd_rdi(lm, y, lam=lam, steps=300)  # default eta = 1/(||K|| + lam^2)
        diffs = np.diff(traj.objectives)
        assert np.all(diffs <= 1e-12 * np.abs(traj.objectives[:-1]) + 1e-15)

    def test_linear_convergence_ratio(self):
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam = 1.0
        eta = lm.default_eta(lam)
        _, alpha = closed_form_limit(lm, y, lam)
        traj = run_gd_rdi(lm, y, lam=lam, eta=eta, steps=400)
        k = lm.K.values
        gaps = np.array([
            np.sqrt(max((traj.coeffs[t] - alpha) @ k @ (traj.coeffs[t] - alpha), 0.0))
            for t in range(401)
        ])
        valid = gaps > 1e-12
        ratios = gaps[1:][valid[1:] & valid[:-1]] / gaps[:-1][valid[1:] & valid[:-1]]
        assert np.all(ratios <= 1.0 - eta * lam * lam + 1e-9)

    def test_divergence_raises(self):
        lm, ds = make_lm()
        with pytest.raises(DivergenceError, match="step"):
            run_gd_rdi(lm, ds.noisy_labels, lam=0.0, eta=50.0, steps=500)


class TestAuxDynamics:
    def test_zero_targets_fixed_point(self):
        lm, _ = make_lm()
        traj = run_gd_aux(lm, np.zeros(lm.n), lam=1.0, steps=20)
        assert np.all(traj.coeffs == 0.0)
        assert np.all(traj.aux == 0.0)

    def test_first_step_aux_update(self):
        # hand gradient at t=0: residual is -y, so b(1) = eta * lam * y, up to the
        # rounding of the step's rotation into K's eigenbasis and back
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam = 2.0
        eta = 0.01
        traj = run_gd_aux(lm, y, lam=lam, eta=eta, steps=1)
        assert np.max(np.abs(traj.aux[1] - eta * lam * y)) <= 1e-14 * eta * lam

    def test_representation_identity(self):
        lm, ds = make_lm()
        traj = run_gd_aux(lm, ds.noisy_labels, lam=0.7, steps=200)
        assert np.max(traj.identity_gap) <= 1e-10

    def test_requires_positive_lam(self):
        lm, ds = make_lm()
        with pytest.raises(ValidationError):
            run_gd_aux(lm, ds.noisy_labels, lam=0.0, steps=5)


class TestEquivalence:
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_trajectories_coincide(self, lam):
        lm, ds = make_lm()
        y = ds.noisy_labels
        rdi = run_gd_rdi(lm, y, lam=lam, steps=500)
        aux = run_gd_aux(lm, y, lam=lam, steps=500)
        report = check_equivalence(rdi, aux)
        assert report.passed
        assert report.max_rel <= 1e-10

    def test_zero_steps_zero_deviation(self):
        lm, ds = make_lm()
        rdi = run_gd_rdi(lm, ds.noisy_labels, lam=1.0, steps=0)
        aux = run_gd_aux(lm, ds.noisy_labels, lam=1.0, steps=0)
        report = check_equivalence(rdi, aux)
        assert report.max_abs == 0.0 and report.max_rel == 0.0

    def test_perturbed_aux_start_fails(self):
        # negative control: replay the auxiliary updates with b(0) != 0
        # using an independent reimplementation of the coupled recursion
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam, steps = 1.0, 100
        eta = lm.default_eta(lam)
        k = lm.K.values
        a = np.zeros(lm.n)
        b = np.full(lm.n, 0.1)  # violated precondition
        coeffs = [a.copy()]
        for _ in range(steps):
            r = k @ a + lam * b - y
            a = a - eta * r
            b = b - eta * lam * r
            coeffs.append(a.copy())
        aux = run_gd_aux(lm, y, lam=lam, eta=eta, steps=steps)
        aux.coeffs = np.array(coeffs)
        rdi = run_gd_rdi(lm, y, lam=lam, eta=eta, steps=steps)
        report = check_equivalence(rdi, aux)
        assert not report.passed

    def test_equality_holds_even_above_stable_eta(self):
        # the step-for-step identity needs no step-size bound; use a rate
        # above the certified one but small enough to stay finite
        lm, ds = make_lm(n=10)
        y = ds.noisy_labels
        lam = 1.0
        eta = 1.5 * lm.default_eta(lam)
        rdi = run_gd_rdi(lm, y, lam=lam, eta=eta, steps=60)
        aux = run_gd_aux(lm, y, lam=lam, eta=eta, steps=60)
        assert check_equivalence(rdi, aux).passed

    def test_gap_at_zero_displacement_is_inf(self):
        # RDI on zero targets never leaves theta0, AUX on nonzero targets does
        lm = identity_lm()
        rdi = run_gd_rdi(lm, np.zeros(lm.n), lam=1.0, eta=0.1, steps=3)
        aux = run_gd_aux(lm, np.ones(lm.n), lam=1.0, eta=0.1, steps=3)
        report = check_equivalence(rdi, aux)
        assert report.rel_gaps[0] == 0.0
        assert np.all(report.gaps[1:] > 0.0) and np.all(np.isinf(report.rel_gaps[1:]))
        assert report.max_rel == np.inf and not report.passed

    def test_mismatched_lengths_rejected(self):
        lm, ds = make_lm()
        rdi = run_gd_rdi(lm, ds.noisy_labels, lam=1.0, steps=10)
        aux = run_gd_aux(lm, ds.noisy_labels, lam=1.0, steps=11)
        with pytest.raises(ValidationError):
            check_equivalence(rdi, aux)


class TestEquivalenceScan:
    """Every lambda in one block matches the one-lambda runs and ``check_equivalence`` step by step."""

    @staticmethod
    def step_of(exc) -> int:
        return int(str(exc).split("at step ")[1].split(";")[0])

    @pytest.mark.parametrize("lambdas, eta_factor", [
        pytest.param([0.25, 1.0, 4.0], None, id="default-eta"),
        pytest.param([1.0, 0.5], 1.5, id="fixed-eta-1.5x-certified"),
        pytest.param([0.7], None, id="single-lambda"),
    ])
    def test_matches_one_lambda_runs(self, lambdas, eta_factor):
        lm, ds = make_lm(n=10) if eta_factor else make_lm()
        y = ds.noisy_labels
        eta = None if eta_factor is None else eta_factor * lm.default_eta(lambdas[0])
        steps = 60 if eta_factor else 300
        scan = run_gd_equivalence(lm, y, lambdas, eta=eta, steps=steps)
        assert scan.steps == steps and scan.lambdas == lambdas
        for j, lam in enumerate(lambdas):
            rdi = run_gd_rdi(lm, y, lam, eta=eta, steps=steps)
            aux = run_gd_aux(lm, y, lam, eta=eta, steps=steps)
            reference = check_equivalence(rdi, aux)
            assert scan.etas[j] == rdi.eta
            assert np.all(np.abs(scan.objectives_rdi[:, j] - rdi.objectives) <= 1e-12 * rdi.objectives)
            # AUX's objective decays towards 0, where both runs hold only rounding noise of the
            # residual's terms, so it is compared at the scale of its start
            aux_error = np.abs(scan.objectives_aux[:, j] - aux.objectives)
            assert np.all(aux_error <= 1e-12 * aux.objectives[0])
            dist = rdi.dist_from_init
            assert dist[0] == scan.dist_from_init[0, j] == 0.0
            assert np.all(np.abs(scan.dist_from_init[:, j] - dist) <= 1e-12 * dist)
            # the gaps are rounding noise on both sides; each stays within 1e-12 of the displacement
            assert np.all(np.abs(scan.gaps[:, j] - reference.gaps) <= 1e-12 * dist)
            report = scan.report(j)
            assert report.passed and reference.passed
            assert report.max_rel <= 1e-12
            assert report.max_abs == np.max(scan.gaps[:, j])

    def test_zero_steps(self):
        lm, ds = make_lm()
        scan = run_gd_equivalence(lm, ds.noisy_labels, [0.5, 2.0], steps=0)
        assert scan.gaps.shape == (1, 2)
        assert np.all(scan.gaps == 0.0) and np.all(scan.rel_gaps == 0.0)
        # |y|^2, summed in K's eigenbasis
        assert scan.objectives_rdi == pytest.approx(np.full((1, 2), 0.5 * ds.noisy_labels @ ds.noisy_labels), rel=1e-14)

    def test_relative_gap_rule(self):
        # the identity model at power-of-two lambdas: RDI and AUX round alike,
        # so every gap is exactly zero, and zero gaps count as zero
        lm = identity_lm()
        scan = run_gd_equivalence(lm, np.array([1.0, -2.0, 0.5, 3.0]), [0.5, 2.0], eta=0.1, steps=5)
        assert np.all(scan.gaps == 0.0) and np.all(scan.rel_gaps == 0.0)
        assert np.all(scan.dist_from_init[1:] > 0.0)

    def test_divergence_names_step_and_lambda(self):
        # one shared step that is stable at lambda 0.25 and unstable at lambda 8
        lm, ds = make_lm()
        y = ds.noisy_labels
        eta = 1.5 * lm.default_eta(0.25)
        assert eta * (lm.K.op_norm + 64.0) > 2.0
        steps = []
        for run in (run_gd_rdi, run_gd_aux):
            with pytest.raises(DivergenceError) as one:
                run(lm, y, 8.0, eta=eta, steps=2000)
            steps.append(self.step_of(one.value))
        run_gd_rdi(lm, y, 0.25, eta=eta, steps=2000)  # stays finite
        with pytest.raises(DivergenceError, match=r"^lambda=8\.0: objective became .* at step \d+;") as block:
            run_gd_equivalence(lm, y, [0.25, 8.0], eta=eta, steps=2000)
        assert self.step_of(block.value) == min(steps)

    def test_huge_eta_diverges(self):
        lm, ds = make_lm()
        with pytest.raises(DivergenceError, match=r"lambda=0\.5: .*at step [1-9]"):
            run_gd_equivalence(lm, ds.noisy_labels, [0.5], eta=1e6, steps=500)

    @pytest.mark.parametrize("lambdas", [[], [0.5, 0.0], [-1.0]])
    def test_needs_positive_lambdas(self, lambdas):
        lm, ds = make_lm()
        with pytest.raises(ValidationError):
            run_gd_equivalence(lm, ds.noisy_labels, lambdas, steps=5)


class TestBlock:
    """Runs stepped as one block match the one-run calls step by step, and a frozen run disturbs no other."""

    STEPS = 120

    @staticmethod
    def runs(ds):
        y = ds.noisy_labels
        other = np.random.default_rng(7).standard_normal(len(y))
        return [
            (KIND_RDI, y, 0.5, None),
            (KIND_AUX, y, 0.5, None),
            (KIND_RDI, other, 2.0, 0.02),
            (KIND_AUX, -y, 1.0, 0.02),
            (KIND_RDI, y, 0.0, None),
        ]

    @staticmethod
    def one_run(lm, kind, y, lam, eta, steps):
        return (run_gd_rdi if kind == KIND_RDI else run_gd_aux)(lm, y, lam, eta=eta, steps=steps)

    def test_rows_match_one_run_calls(self):
        lm, ds = make_lm()
        runs = self.runs(ds)
        block, (coeffs, aux, objectives, quad) = _descend(
            lm, runs, self.STEPS, lambda b: (b.coeffs, b.aux, b.objectives, b.quad))
        coeffs, aux = coeffs @ lm.K.eigh[1].T, aux @ lm.K.eigh[1].T  # read sees K's eigenbasis
        dist = np.sqrt(np.maximum(quad, 0.0))
        for i, (kind, y, lam, eta) in enumerate(runs):
            traj = self.one_run(lm, kind, y, lam, eta, self.STEPS)
            assert block.etas[i] == traj.eta and block.errors[i] is None
            assert np.max(np.abs(coeffs[:, i] - traj.coeffs)) <= 1e-12 * np.max(np.abs(traj.coeffs))
            # AUX's objective decays towards 0, where both hold only rounding noise, so it is
            # compared at the scale of its start
            scale = traj.objectives if kind == KIND_RDI else traj.objectives[0]
            assert np.all(np.abs(objectives[:, i] - traj.objectives) <= 1e-12 * scale)
            assert dist[0, i] == traj.dist_from_init[0] == 0.0
            assert np.all(np.abs(dist[:, i] - traj.dist_from_init) <= 1e-12 * traj.dist_from_init)
            if kind == KIND_AUX:
                assert np.max(np.abs(aux[:, i] - traj.aux)) <= 1e-12 * np.max(np.abs(traj.aux))
            else:
                assert np.all(aux[:, i] == 0.0)

    def test_frozen_runs_leave_the_others(self):
        lm, ds = make_lm()
        runs = self.runs(ds)
        eta = 1.5 * lm.default_eta(0.25)  # stable at lambda 0.25, unstable at lambda 8
        bad = [(KIND_AUX, ds.noisy_labels, 0.0, None), (KIND_RDI, ds.noisy_labels, 8.0, eta),
               (KIND_RDI, ds.noisy_labels[:-1], 1.0, None), (KIND_RDI, ds.noisy_labels, 1.0, -0.1)]
        block, _ = _descend(lm, bad[:2] + runs + bad[2:], self.STEPS)
        assert [type(error) for error in block.errors[:2] + block.errors[-2:]] == [
            ValidationError, DivergenceError, ValidationError, ValidationError]
        assert str(block.errors[1]).startswith("lambda=8.0: objective became")
        for frozen in (0, 1, -2, -1):
            assert np.all(block.coeffs[frozen] == 0.0) and np.all(block.aux[frozen] == 0.0)
        for i, (kind, y, lam, eta) in enumerate(runs, start=2):
            traj = self.one_run(lm, kind, y, lam, eta, self.STEPS)
            assert block.errors[i] is None
            assert np.max(np.abs(block.coeffs[i] - traj.final_coeffs())) <= 1e-12 * np.max(np.abs(traj.coeffs))
            assert abs(np.sqrt(block.quad[i]) - traj.dist_from_init[-1]) <= 1e-12 * traj.dist_from_init[-1]


class TestRunValidation:
    """Every linearized run checks its step count, lambda and eta before it steps."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, steps=-1), id="rdi-steps-minus-1"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, steps=-2), id="rdi-steps-minus-2"),
        pytest.param(lambda lm, y: run_gd_aux(lm, y, 1.0, steps=-1), id="aux-steps-minus-1"),
        pytest.param(lambda lm, y: run_gd_equivalence(lm, y, [0.5], steps=-1), id="equivalence-steps-minus-1"),
        pytest.param(lambda lm, y: _descend(lm, [(KIND_RDI, y, 1.0, None)], -1), id="block-steps-minus-1"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, float("nan"), eta=0.01), id="rdi-nan-lambda"),
        pytest.param(lambda lm, y: run_gd_aux(lm, y, float("nan"), eta=0.01), id="aux-nan-lambda"),
        pytest.param(lambda lm, y: run_gd_equivalence(lm, y, [0.5, float("nan")]), id="equivalence-nan-lambda"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, -0.5), id="rdi-negative-lambda"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, eta=float("nan")), id="rdi-nan-eta"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, eta=float("inf")), id="rdi-inf-eta"),
        pytest.param(lambda lm, y: run_gd_aux(lm, y, float("inf"), eta=0.01), id="aux-inf-lambda"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, steps=2.5), id="rdi-steps-float"),
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, steps=True), id="rdi-steps-true"),
        pytest.param(lambda lm, y: run_gd_aux(lm, y, 1.0, steps=np.float64(2.0)), id="aux-steps-numpy-float"),
        pytest.param(lambda lm, y: run_gd_equivalence(lm, y, [0.5], steps=2.5), id="equivalence-steps-float"),
        pytest.param(lambda lm, y: run_gd_equivalence(lm, y, [0.5], steps=False), id="equivalence-steps-false"),
        pytest.param(lambda lm, y: _descend(lm, [(KIND_RDI, y, 1.0, None)], "3"), id="block-steps-string"),
    ])
    def test_rejected(self, call):
        lm, ds = make_lm()
        with pytest.raises(ValidationError):
            call(lm, ds.noisy_labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda lm, y: run_gd_rdi(lm, y, 1.0, steps=3), id="rdi"),
        pytest.param(lambda lm, y: run_gd_aux(lm, y, 1.0, steps=3), id="aux"),
        pytest.param(lambda lm, y: run_gd_equivalence(lm, y, [0.5], steps=3), id="equivalence"),
        pytest.param(lambda lm, y: closed_form_limit(lm, y, 1.0), id="closed-form"),
    ])
    def test_non_finite_targets_rejected(self, call, bad):
        # the targets are named before any step: a NaN one is not blamed on the weights, an inf one is not rotated
        lm, ds = make_lm()
        y = ds.noisy_labels.copy()
        y[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="targets contain non-finite values"):
                call(lm, y)

    def test_numpy_integer_steps_accepted(self):
        lm, ds = make_lm()
        traj = run_gd_rdi(lm, ds.noisy_labels, 1.0, steps=np.int64(3))
        assert traj.steps == 3
        assert np.array_equal(traj.coeffs, run_gd_rdi(lm, ds.noisy_labels, 1.0, steps=3).coeffs)


class TestClosedForm:
    def test_zero_targets(self):
        lm, _ = make_lm()
        theta_star, alpha = closed_form_limit(lm, np.zeros(lm.n), lam=1.0)
        assert np.array_equal(theta_star, lm.theta0)
        assert np.all(alpha == 0.0)

    def test_iterates_converge_to_limit(self):
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam = 1.0
        eta = lm.default_eta(lam)
        steps = int(np.ceil(np.log(1e-8) / np.log(1.0 - eta * lam * lam)))
        traj = run_gd_rdi(lm, y, lam=lam, eta=eta, steps=steps)
        theta_star, alpha = closed_form_limit(lm, y, lam)
        k = lm.K.values
        diff = traj.final_coeffs() - alpha
        gap = np.sqrt(max(diff @ k @ diff, 0.0))
        scale = np.sqrt(max(alpha @ k @ alpha, 0.0))
        assert gap <= 1e-6 * scale

    def test_predictor_matches_krr_module(self):
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam = 0.5
        _, alpha = closed_form_limit(lm, y, lam)
        predictor = krr_fit(lm.K, y, lam, kernel_source=EmpiricalNTK(lm.mlp), train_data=ds)
        queries = synth_sphere(10, ds.d, "linear-sign", seed=77).inputs
        mine = lm.predict(alpha, queries)
        theirs = predictor.predict(queries)
        assert np.max(np.abs(mine - theirs)) <= 1e-10 * max(np.max(np.abs(theirs)), 1e-12)

    def test_limit_after_fit_builds_no_factor(self, count_calls):
        from ntkreg import krr as krr_module

        lm, ds = make_lm(n=12, width=32)
        fit = krr_fit(KernelMatrix.from_values(lm.K.values), ds.noisy_labels, 0.5)
        calls = count_calls(krr_module, "cho_factor")
        _, alpha = closed_form_limit(lm, ds.noisy_labels, 0.5)
        assert calls == [] and lm.K._factors == {}
        assert np.max(np.abs(alpha - fit.alpha)) <= 1e-12 * np.max(np.abs(fit.alpha))

    def test_lambda_zero_gives_interpolating_solution(self):
        # with an invertible Gram matrix the limit is plain kernel regression
        lm, ds = make_lm(n=12, width=64)
        y = ds.noisy_labels
        _, alpha = closed_form_limit(lm, y, lam=0.0)
        oracle = np.linalg.solve(lm.K.values, y)
        assert np.allclose(alpha, oracle, rtol=1e-8, atol=1e-12)
        # the limiting predictor interpolates the training labels
        fitted = lm.K.values @ alpha
        assert np.max(np.abs(fitted - y)) <= 1e-7

    def test_singular_at_lambda_zero(self):
        lm = LinearizedModel(K=KernelMatrix.from_values(np.ones((3, 3))))
        with pytest.raises(SingularityError):
            closed_form_limit(lm, np.array([1.0, 0.0, 0.0]), lam=0.0)
        # an exact zero eigenvalue gets gain 0, not 1/0, and fails the residual check
        lm = LinearizedModel(K=KernelMatrix.from_values(np.diag([1.0, 0.0])))
        with pytest.raises(SingularityError):
            closed_form_limit(lm, np.array([1.0, 1.0]), lam=0.0)

    def test_displacement_stays_in_span(self):
        lm, ds = make_lm(n=10, width=48)
        traj = run_gd_aux(lm, ds.noisy_labels, lam=1.0, steps=50)
        for t in (1, 10, 50):
            theta = lm.theta_at(traj.coeffs[t])
            assert span_residual(lm, theta) <= 1e-10

    def test_span_residual_makes_no_gradient_pass(self, monkeypatch):
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        lm, ds = make_lm(n=12, width=32)
        passes = []
        for owner in (net_module, linmodel_module):
            original = owner.gradient_factors
            monkeypatch.setattr(owner, "gradient_factors",
                                lambda *a, _original=original, **k: passes.append(1) or _original(*a, **k))
        theta = lm.theta_at(run_gd_rdi(lm, ds.noisy_labels, lam=1.0, steps=20).final_coeffs())
        assert passes == [1]  # theta_at's first read of the factors builds them
        passes.clear()
        assert span_residual(lm, theta) <= 1e-10
        assert passes == []
        # off the span: a parameter direction orthogonal to every training gradient
        z = gradients_matrix(lm.mlp, ds.inputs).T
        passes.clear()
        q, _ = np.linalg.qr(z)
        off = np.random.default_rng(3).standard_normal(z.shape[0])
        off -= q @ (q.T @ off)
        assert span_residual(lm, lm.theta0 + off) == pytest.approx(1.0, rel=1e-10)
        assert passes == []


class TestClosedFormTargets:
    def test_target_matrix_rejected(self):
        # krr_fit takes (h, n) targets; the single-output tangent model does not
        lm, ds = make_lm(n=8, width=16)
        with pytest.raises(ValidationError):
            closed_form_limit(lm, np.stack([ds.noisy_labels, ds.noisy_labels]), lam=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        lm, ds = make_lm(n=8, width=16)
        y = ds.noisy_labels.copy()
        y[3] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            closed_form_limit(lm, y, lam=1.0)


def per_vector_norm(K, v):
    """The parameter norm ||Z v|| = sqrt(v^T K v), one vector at a time."""
    return float(np.sqrt(max(float(v @ (K @ v)), 0.0)))


class TestKNorms:
    """Norms taken after the loop, all rows at once, match the per-vector formula."""

    @staticmethod
    def assert_close(values, reference):
        reference = np.asarray(reference)
        assert values.shape == reference.shape
        assert np.all(np.abs(values - reference) <= 1e-12 * np.abs(reference))

    def test_width64_runs(self):
        lm, ds = make_lm(width=64)
        k = lm.K.values
        rdi = run_gd_rdi(lm, ds.noisy_labels, lam=0.5, steps=200)
        aux = run_gd_aux(lm, ds.noisy_labels, lam=0.5, steps=200)
        for traj in (rdi, aux):
            self.assert_close(traj.dist_from_init, [per_vector_norm(k, a) for a in traj.coeffs])
        # identity gap: relative to the displacement, the bare gap where there is none (t = 0)
        gaps = np.array([per_vector_norm(k, a - b / 0.5) for a, b in zip(aux.coeffs, aux.aux)])
        dist = np.array([per_vector_norm(k, a) for a in aux.coeffs])
        assert dist[0] == 0.0 and np.all(dist[1:] > 0.0)
        self.assert_close(aux.identity_gap, np.concatenate([gaps[:1], gaps[1:] / dist[1:]]))
        pairs = zip(rdi.coeffs, aux.coeffs)
        self.assert_close(check_equivalence(rdi, aux).gaps, [per_vector_norm(k, a - b) for a, b in pairs])

    def test_rkhs_norm_rows(self):
        lm, ds = make_lm(width=64)
        fit = krr_fit(lm.K, np.stack([ds.noisy_labels, -2.0 * ds.noisy_labels]), 0.5)
        norms = rkhs_norm(fit, lm.K)
        self.assert_close(norms, [per_vector_norm(lm.K.values, a) for a in fit.alpha])
        single = krr_fit(lm.K, ds.noisy_labels, 0.5)
        assert rkhs_norm(single, lm.K) == pytest.approx(norms[0], rel=1e-12)


class TestFactoredFeatures:
    """The tangent model is its kernel: Z is never formed, parameters come from the layer factors."""

    def test_predict_peak_is_a_few_blocks(self, traced_peak):
        # one gradient pass over 2000 queries would hold 2 x 2000 x 2048 floats
        # of factors (65.5 MB) and k(x, X) another 2000 x 300 (4.8 MB)
        mlp = init_mlp(NetConfig(input_dim=10, widths=(2048,)), 0)
        lm = linearize(mlp, synth_sphere(300, 10, "linear-sign", seed=2))
        queries = synth_sphere(2000, 10, "linear-sign", seed=1).inputs
        out, peak = traced_peak(lm.predict, np.ones((300, 3)), queries)
        assert out.shape == (2000, 3)
        assert peak < 8e6

    def test_predict_on_no_queries(self):
        lm, _ = make_lm(width=32)
        none = np.empty((0, lm.mlp.config.input_dim))
        assert lm.predict(np.ones(lm.n), none).shape == (0,)
        assert lm.predict(np.ones((lm.n, 4)), none).shape == (0, 4)

    def test_linearize_never_forms_feature_matrix(self, monkeypatch):
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        calls = []
        for owner in (net_module, linmodel_module):
            original = owner.flatten_factors
            monkeypatch.setattr(owner, "flatten_factors",
                                lambda *a, _original=original, **k: calls.append(1) or _original(*a, **k))
        lm, ds = make_lm(width=32)
        rdi = run_gd_rdi(lm, ds.noisy_labels, lam=1.0, steps=5)
        aux = run_gd_aux(lm, ds.noisy_labels, lam=1.0, steps=5)
        assert check_equivalence(rdi, aux).passed
        assert calls == []

    @pytest.mark.parametrize("freeze", [True, False])
    def test_theta_at_matches_feature_matrix(self, freeze):
        ds = synth_sphere(15, 5, "linear-sign", seed=2)
        cfg = NetConfig(input_dim=5, widths=(24, 16), freeze_first_last=freeze, difference_trick=True)
        mlp = init_mlp(cfg, 4)
        lm = linearize(mlp, ds)
        a = np.random.default_rng(5).standard_normal(lm.n)
        z = gradients_matrix(mlp, ds.inputs).T
        reference = lm.theta0 + z @ a
        theta = lm.theta_at(a)
        assert theta.shape == reference.shape == (mlp.n_trainable_params,)
        assert np.max(np.abs(theta - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.array_equal(lm.theta_at(np.zeros(lm.n)), lm.theta0)
        # the limit's theta* is theta_at of the ridge coefficients
        theta_star, alpha = closed_form_limit(lm, ds.noisy_labels, 0.5)
        assert np.max(np.abs(theta_star - (lm.theta0 + z @ alpha))) <= 1e-12 * np.max(np.abs(theta_star))

    def test_theta0_follows_the_flattening_order(self):
        lm, _ = make_lm(width=16, freeze=True)
        mlp = lm.mlp
        assert mlp.config.trainable_layers == (0,)
        expected = np.concatenate([mlp.params0[0][0].ravel(), mlp.params0[1][0].ravel()])
        assert np.array_equal(lm.theta0, expected)

    def test_model_without_net_has_no_parameters(self):
        with pytest.raises(ValidationError, match="no MLP attached"):
            identity_lm().theta_at(np.ones(4))

    def test_kernel_is_certified_by_its_spectrum(self, count_calls):
        from ntkreg import krr as krr_module

        calls = count_calls(krr_module, "cho_factor")
        lm, ds = make_lm(n=12, width=32)
        assert calls == [] and lm.K._factors == {}
        # the closed-form limit reads the same eigh and never factors; it agrees with the Cholesky
        # route of a factor-certified copy of K, which is invertible here, at every ridge
        for lam in (0.0, 0.5, 1.0, 4.0):
            _, alpha = closed_form_limit(lm, ds.noisy_labels, lam)
            assert calls == [] and lm.K._factors == {}
            expected = krr_fit(KernelMatrix.from_values(lm.K.values), ds.noisy_labels, lam).alpha
            calls.clear()
            assert np.max(np.abs(alpha - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_probe_rejects_a_perturbed_kernel(self, monkeypatch):
        from ntkreg import linmodel as linmodel_module

        original = linmodel_module._factor_gram

        def perturbed(factors):
            values = original(factors)
            return values + 1e-6 * np.max(np.abs(values)) * np.eye(len(values))

        monkeypatch.setattr(linmodel_module, "_factor_gram", perturbed)
        with pytest.raises(ValidationError, match="probe"):
            make_lm(width=32)


# name -> config: one trainable layer, or two (the first layer trains and reads the inputs themselves)
FACTOR_NETS = {
    "one-layer": NetConfig(input_dim=6, widths=(64,)),
    "two-layers": NetConfig(input_dim=6, widths=(32,), freeze_first_last=False),
    "one-layer-no-trick": NetConfig(input_dim=6, widths=(64,), difference_trick=False),
    "two-layers-no-trick": NetConfig(input_dim=6, widths=(32,), freeze_first_last=False, difference_trick=False),
}


class TestFactorLifetime:
    """``linearize`` lets go of its factors before K's eigh; the model rebuilds the same ones on first read."""

    @pytest.mark.parametrize("name", ["one-layer", "two-layers"])
    def test_factors_are_freed_before_the_eigh(self, factor_refs, count_calls, name):
        from ntkreg import linmodel as linmodel_module

        ds = synth_sphere(20, 6, "linear-sign", seed=0)
        refs = factor_refs(linmodel_module, keep=(ds.inputs,))
        alive_at_eigh = count_calls(np.linalg, "eigh", record=lambda *args, **kwargs: sum(
            ref() is not None for ref in refs))
        lm = linearize(init_mlp(FACTOR_NETS[name], 0), ds)
        assert refs and alive_at_eigh == [0]
        assert lm.inputs is ds.inputs and "factors" not in vars(lm)

    @pytest.mark.parametrize("name", list(FACTOR_NETS))
    def test_factors_are_a_fresh_pass_bitwise(self, name):
        config = FACTOR_NETS[name]
        ds = synth_sphere(20, 6, "linear-sign", seed=0)
        mlp = init_mlp(config, 0)
        if config.difference_trick:
            lm = linearize(mlp, ds)
        else:  # linearize needs the trick's zero output; the model and its factors do not
            lm = LinearizedModel(K=empirical_ntk(mlp, ds), mlp=mlp, inputs=ds.inputs)
        fresh = gradient_factors(lm.mlp, ds.inputs, at_init=True)
        factors = lm.factors
        assert factors.copies == fresh.copies == (2 if config.difference_trick else 1)
        assert len(factors.pairs) == len(fresh.pairs) == len(config.trainable_layers)
        got = [array for pair in factors.pairs for array in pair] + list(factors.outputs)
        want = [array for pair in fresh.pairs for array in pair] + list(fresh.outputs)
        for array, expected in zip(got, want, strict=True):
            assert array.shape == expected.shape and array.tobytes() == expected.tobytes()
        assert lm.factors is factors  # built once

    def test_model_without_inputs_has_no_factors(self):
        lm, _ = make_lm(n=8, width=16)
        with pytest.raises(ValidationError, match="no factors"):
            LinearizedModel(K=lm.K, mlp=lm.mlp).factors


def reference_descend(k, runs, steps):
    """Each step's (a, b, K a, a^T K a, objective) per run, stepped in the original basis with K @ a.

    A run given as None is invalid and stays zero; a run whose objective breaks
    the divergence rule is zeroed there and moves no further.
    """
    history = []
    for run in runs:
        a, b, states = np.zeros(len(k)), np.zeros(len(k)), []
        kind, y, lam, eta = run if run is not None else (KIND_RDI, np.zeros(len(k)), 0.0, 0.0)
        y = np.array(y, dtype=np.float64)
        for t in range(steps + 1):
            ka = k @ a
            residual = ka + (lam * b if kind == KIND_AUX else 0.0) - y
            objective = 0.5 * (residual @ residual + (lam * lam * (a @ ka) if kind == KIND_RDI else 0.0))
            quad = a @ ka
            if not (np.isfinite(objective) and objective <= DIVERGENCE_LIMIT):
                a, b, residual, y = (np.zeros(len(k)) for _ in range(4))
            states.append((a.copy(), b.copy(), ka, quad, objective))
            a = a - eta * ((lam * lam * a if kind == KIND_RDI else 0.0) + residual)
            b = b - eta * (lam * residual if kind == KIND_AUX else 0.0)
        history.append(states)
    return history


class TestEigenbasis:
    """Gradient descent steps in K's eigenbasis: one eigh per kernel, the same iterates as K @ a."""

    def test_one_eigh_per_kernel(self, count_calls):
        from ntkreg import krr as krr_module

        eigh, eigvalsh = count_calls(np.linalg, "eigh"), count_calls(np.linalg, "eigvalsh")
        factors = count_calls(krr_module, "cho_factor")
        lm, ds = make_lm(n=12, width=32)
        assert (len(eigh), len(eigvalsh)) == (1, 0)
        k, v = lm.K.eigh
        assert lm.K.op_norm == max(k[-1], -k[0]) and lm.K.min_eig == k[0]
        _descend(lm, [(KIND_RDI, ds.noisy_labels, 0.5, None)], 10)
        _descend(lm, [(KIND_AUX, ds.noisy_labels, 0.5, None)], 10)
        run_gd_equivalence(lm, ds.noisy_labels, [0.5, 1.0], steps=10)
        run_gd_aux(lm, ds.noisy_labels, 1.0, steps=10)
        closed_form_limit(lm, ds.noisy_labels, 0.0)
        closed_form_limit(lm, ds.noisy_labels, 0.5)
        assert (len(eigh), len(eigvalsh), len(factors)) == (1, 0, 0) and lm.K._factors == {}
        # a kernel built elsewhere decomposes on its first descent, once
        other = LinearizedModel(K=KernelMatrix.from_values(lm.K.values))
        run_gd_rdi(other, ds.noisy_labels, 0.5, steps=5)
        run_gd_rdi(other, ds.noisy_labels, 0.5, steps=5)
        assert (len(eigh), len(eigvalsh)) == (2, 0)

    STEPS = 40

    @pytest.mark.parametrize("case", ["rdi", "aux", "validation-frozen", "diverging"])
    def test_matches_reference_stepper(self, case):
        lm, ds = make_lm()
        y = ds.noisy_labels
        other = np.random.default_rng(11).standard_normal(lm.n)
        eta = lm.default_eta(0.5)
        runs = {
            "rdi": [(KIND_RDI, y, 0.5, None), (KIND_RDI, other, 0.0, 0.5 * eta), (KIND_RDI, -y, 2.0, None)],
            "aux": [(KIND_AUX, y, 0.5, None), (KIND_AUX, other, 1.5, 0.5 * eta), (KIND_AUX, -y, 2.0, None)],
            "validation-frozen": [(KIND_AUX, y, 0.0, None), (KIND_RDI, y, 0.5, None), (KIND_RDI, y[:-1], 1.0, None)],
            "diverging": [(KIND_RDI, y, 0.5, None), (KIND_AUX, y, 0.5, 3.0 * eta), (KIND_RDI, other, 0.5, 3.0 * eta)],
        }[case]
        block, _ = _descend(lm, runs, 0)
        valid = [None if error is not None else (kind, y_i, lam, float(block.etas[i]))
                 for i, (error, (kind, y_i, lam, _)) in enumerate(zip(block.errors, runs))]
        reference = reference_descend(lm.K.values, valid, self.STEPS)
        for t in range(self.STEPS + 1):
            block, _ = _descend(lm, runs, t)
            got = (block.coeffs, block.aux, block.product, block.quad, block.objectives)
            for i, states in enumerate(reference):
                # each quantity within 1e-12 of its largest magnitude along the run; a frozen run's is 0
                for j, value in enumerate(got):
                    scale = max(np.max(np.abs(state[j])) for state in states)
                    assert np.max(np.abs(value[i] - states[t][j])) <= 1e-12 * scale
        kinds = [type(error).__name__ if error is not None else None for error in block.errors]
        assert kinds == {"rdi": [None] * 3, "aux": [None] * 3,
                         "validation-frozen": ["ValidationError", None, "ValidationError"],
                         "diverging": [None, "DivergenceError", "DivergenceError"]}[case]
        if case == "diverging":
            assert all(np.all(block.coeffs[i] == 0.0) and np.all(block.aux[i] == 0.0) for i in (1, 2))

    @pytest.mark.parametrize("kind, lam", [(KIND_RDI, 0.0), (KIND_RDI, 0.5), (KIND_RDI, 2.0),
                                           (KIND_AUX, 0.5), (KIND_AUX, 2.0)])
    def test_closed_form_iterates(self, kind, lam):
        # a(t) = V diag((1 - max(1 - eta s, 0)^t) / s) V^T y with s = k + lam^2; AUX keeps b = lam a,
        # so its span coefficients follow the same recursion
        lm, ds = make_lm(n=30, width=64)
        y, steps = ds.noisy_labels, 300
        traj = (run_gd_rdi if kind == KIND_RDI else run_gd_aux)(lm, y, lam, steps=steps)
        k, v = lm.K.eigh
        s = k + lam * lam
        t = np.arange(steps + 1)[:, None]
        decay = np.maximum(1.0 - traj.eta * s, 0.0) ** t
        gain = np.divide(1.0 - decay, s, out=traj.eta * t * np.ones_like(decay), where=s > 0.0)
        expected = (gain * (v.T @ y)) @ v.T
        assert np.max(np.abs(traj.coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))
        # the same filters through the kernel matrix's spectral reader
        read = lm.K._filter(np.broadcast_to(y, gain.shape), gain)
        assert np.max(np.abs(traj.coeffs - read)) <= 1e-12 * np.max(np.abs(read))


def same_bits(a, b):
    """Equal arrays, NaNs and signed zeros included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_step_scan(lm, y, lambdas, steps):
    """run_gd_equivalence's four traces from a plain loop that steps and reads one step at a time.

    Rows 0..L-1 are the RDI runs and rows L..2L-1 the AUX runs, stepped in
    K's eigenbasis with the stepper's operations in its order.
    """
    k, v = lm.K.eigh
    count = len(lambdas)
    lam = np.array(lambdas, dtype=np.float64)[:, None]
    eta = np.array([lm.default_eta(value) for value in lambdas])[:, None]
    targets = np.tile(np.asarray(y, dtype=np.float64), (2 * count, 1)) @ v
    y_rdi, y_aux = targets[:count], targets[count:]
    a_rdi, a_aux, b_aux = np.zeros((3, count, lm.n))
    traces = [], [], [], []
    for t in range(steps + 1):
        ka_rdi, ka_aux = a_rdi * k, a_aux * k
        r_rdi = ka_rdi - y_rdi
        r_aux = lam * b_aux
        r_aux += ka_aux
        r_aux -= y_aux
        quad = np.einsum("ij,ij->i", a_rdi, ka_rdi)
        for trace, value in zip(traces, (
                0.5 * (np.einsum("ij,ij->i", r_rdi, r_rdi) + (lam * lam)[:, 0] * quad),
                0.5 * (np.einsum("ij,ij->i", r_aux, r_aux) + 0.0 * np.einsum("ij,ij->i", a_aux, ka_aux)),
                quad, np.einsum("ij,ij->i", a_rdi - a_aux, ka_rdi - ka_aux))):
            trace.append(value)
        a_rdi = a_rdi - eta * (lam * lam * a_rdi + r_rdi)
        a_aux, b_aux = a_aux - eta * r_aux, b_aux - eta * lam * r_aux
    objectives_rdi, objectives_aux, quad, gaps = (np.array(trace) for trace in traces)
    return objectives_rdi, objectives_aux, np.sqrt(np.maximum(quad, 0.0)), np.sqrt(np.maximum(gaps, 0.0))


class TestChunks:
    """``_descend`` steps chunks of ``_CHUNK`` steps and reads each chunk's trace and divergence at once."""

    EDGE_STEPS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]

    @pytest.mark.parametrize("steps", EDGE_STEPS + [5 * _CHUNK + 3])
    def test_scan_matches_a_per_step_loop_bitwise(self, steps):
        lm, ds = make_lm()
        lambdas = [0.25, 0.5, 1.0, 3.0]
        scan = run_gd_equivalence(lm, ds.noisy_labels, lambdas, steps=steps)
        expected = per_step_scan(lm, ds.noisy_labels, lambdas, steps)
        got = (scan.objectives_rdi, scan.objectives_aux, scan.dist_from_init, scan.gaps)
        for name, value, reference in zip(("objectives_rdi", "objectives_aux", "dist", "gaps"), got, expected):
            assert same_bits(value, reference), name

    @pytest.mark.parametrize("steps", EDGE_STEPS)
    def test_edge_step_counts_match_the_reference(self, steps):
        lm, ds = make_lm()
        runs = TestBlock.runs(ds)
        block, (coeffs, aux, product, quad, objectives) = _descend(
            lm, runs, steps, lambda c: (c.coeffs, c.aux, c.product, c.quad, c.objectives))
        basis = lm.K.eigh[1]
        traces = (coeffs @ basis.T, aux @ basis.T, product @ basis.T, quad, objectives)
        valid = [(kind, y, lam, float(eta)) for (kind, y, lam, _), eta in zip(runs, block.etas)]
        reference = reference_descend(lm.K.values, valid, steps)
        assert block.errors == [None] * len(runs)
        for i, states in enumerate(reference):
            for j, (final, trace) in enumerate(zip((block.coeffs, block.aux, block.product, block.quad,
                                                    block.objectives), traces)):
                scale = max(np.max(np.abs(state[j])) for state in states)
                assert trace.shape[0] == steps + 1
                assert np.max(np.abs(final[i] - states[steps][j])) <= 1e-12 * scale
                for t in range(steps + 1):
                    assert np.max(np.abs(trace[t, i] - states[t][j])) <= 1e-12 * scale

    # With K = I, lam = 0 and eta = 3, RDI's a(t) = (1 - (-2)^t) y, so the objective is 2 * 4^t |y|^2 / 4:
    # it first exceeds 1e12 at t = 20 for y = 1 (step 4 of its chunk) and at t = 23 for y = 0.1 (a chunk's
    # last step). eta = 1e150 breaks at t = 1 with 2e300, and the steps its chunk takes past that overflow.
    BREAKS = {0: 20, 2: 23, 4: 1}

    @staticmethod
    def breaking_runs(n):
        ones = np.ones(n)
        return [(KIND_RDI, ones, 0.0, 3.0), (KIND_AUX, ones, 0.5, 0.1), (KIND_RDI, 0.1 * ones, 0.0, 3.0),
                (KIND_RDI, ones, 0.5, 0.1), (KIND_RDI, ones, 0.0, 1e150)]

    @pytest.mark.parametrize("steps", [1, 19, 20, 21, 22, 23, 24, 30])
    def test_divergence_inside_a_chunk_matches_the_reference(self, steps):
        assert _CHUNK == 8  # the break steps above sit inside a chunk and on its last step
        lm = identity_lm(4)
        runs = self.breaking_runs(lm.n)
        block, _ = _descend(lm, runs, steps)
        reference = reference_descend(lm.K.values, runs, steps)
        for i, states in enumerate(reference):
            if i in self.BREAKS and self.BREAKS[i] <= steps:
                assert isinstance(block.errors[i], DivergenceError)
                assert str(block.errors[i]).startswith(f"lambda=0.0: objective became ")
                assert f" at step {self.BREAKS[i]}; reduce the learning rate" in str(block.errors[i])
                assert np.all(block.coeffs[i] == 0.0) and np.all(block.aux[i] == 0.0)
            else:
                assert block.errors[i] is None
            for j, final in enumerate((block.coeffs, block.aux, block.product, block.quad, block.objectives)):
                scale = max(np.max(np.abs(state[j])) for state in states[:steps + 1])
                assert np.max(np.abs(final[i] - states[steps][j])) <= 1e-12 * scale

    def test_read_raises_the_earliest_break(self):
        lm = identity_lm(4)
        runs = self.breaking_runs(lm.n)
        read = lambda chunk: (chunk.objectives,)
        # run 2 breaks at step 23, after run 0 at step 20: the earlier step wins over the run order
        with pytest.raises(DivergenceError, match="at step 20;"):
            _descend(lm, [runs[2], runs[1], runs[0]], 30, read)
        with pytest.raises(DivergenceError, match="at step 23;"):
            _descend(lm, runs[1:4], 30, read)
        # two runs that break at one step: the first run's error
        twin = (KIND_RDI, np.ones(4), 1e-9, 3.0)
        with pytest.raises(DivergenceError, match="lambda=1e-09: "):
            _descend(lm, [runs[1], twin, runs[0]], 30, read)
        # the traces of a run that does not break cover every step
        _, (objectives,) = _descend(lm, runs[1:2], 30, read)
        assert objectives.shape == (31, 1)


def test_linmodel_imports_nothing_from_krr():
    # the ridge limit reads K's eigh, so the linearized model needs no name of the factor route
    from ntkreg import linmodel as linmodel_module

    assert [name for name, value in vars(linmodel_module).items()
            if getattr(value, "__module__", None) == "ntkreg.krr"] == []
