"""Linearized dynamics: the two regularizers coincide step for step and
converge to the ridge solution."""

import numpy as np
import pytest

from ntkreg._kernelmatrix import KernelMatrix
from ntkreg.data import synth_sphere
from ntkreg.errors import (
    DivergenceError,
    SingularityError,
    TrickViolationError,
    ValidationError,
)
from ntkreg.kernel import empirical_ntk
from ntkreg.krr import krr_fit, rkhs_norm
from ntkreg.linmodel import (
    KIND_AUX,
    KIND_RDI,
    LinearizedModel,
    _descend,
    check_equivalence,
    closed_form_limit,
    linearize,
    run_gd_aux,
    run_gd_equivalence,
    run_gd_rdi,
    span_residual,
)
from ntkreg.net import NetConfig, gradients_matrix, init_mlp
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
        mlp = init_mlp(cfg, 0)
        mlp.params0[0][0] += 0.1  # desynchronize the branch snapshots
        mlp.params[0][0] += 0.1
        with pytest.raises(TrickViolationError):
            linearize(mlp, ds)

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
        # hand gradient at t=0: residual is -y, so b(1) = eta * lam * y
        lm, ds = make_lm()
        y = ds.noisy_labels
        lam = 2.0
        eta = 0.01
        traj = run_gd_aux(lm, y, lam=lam, eta=eta, steps=1)
        assert np.array_equal(traj.aux[1], eta * lam * y)

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
        assert np.all(scan.objectives_rdi == 0.5 * ds.noisy_labels @ ds.noisy_labels)

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
    ])
    def test_rejected(self, call):
        lm, ds = make_lm()
        with pytest.raises(ValidationError):
            call(lm, ds.noisy_labels)


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
        predictor = krr_fit(lm.K, y, lam, kernel_source=lm.mlp, train_data=ds)
        queries = synth_sphere(10, ds.d, "linear-sign", seed=77).inputs
        mine = lm.predict(alpha, queries)
        theirs = predictor.predict(queries)
        assert np.max(np.abs(mine - theirs)) <= 1e-10 * max(np.max(np.abs(theirs)), 1e-12)

    def test_limit_after_fit_reuses_the_factor(self, monkeypatch):
        from ntkreg import krr as krr_module

        lm, ds = make_lm(n=12, width=32)
        fit = krr_fit(lm.K, ds.noisy_labels, 0.5)
        calls = []
        original = krr_module.cho_factor
        monkeypatch.setattr(krr_module, "cho_factor", lambda *a, **k: calls.append(1) or original(*a, **k))
        _, alpha = closed_form_limit(lm, ds.noisy_labels, 0.5)
        assert calls == []
        assert np.array_equal(alpha, fit.alpha)

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

    def test_displacement_stays_in_span(self):
        lm, ds = make_lm(n=10, width=48)
        traj = run_gd_aux(lm, ds.noisy_labels, lam=1.0, steps=50)
        for t in (1, 10, 50):
            theta = lm.theta_at(traj.coeffs[t])
            assert span_residual(lm, theta) <= 1e-10


class TestClosedFormTargets:
    def test_target_matrix_rejected(self):
        # krr_fit takes (h, n) targets; the single-output tangent model does not
        lm, ds = make_lm(n=8, width=16)
        with pytest.raises(ValidationError):
            closed_form_limit(lm, np.stack([ds.noisy_labels, ds.noisy_labels]), lam=1.0)


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

    def test_linearize_never_forms_feature_matrix(self, monkeypatch):
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        calls = []
        for owner in (net_module, linmodel_module):
            original = owner.gradients_matrix
            monkeypatch.setattr(owner, "gradients_matrix",
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

    def test_probe_rejects_a_perturbed_kernel(self, monkeypatch):
        from ntkreg import linmodel as linmodel_module

        original = linmodel_module.kernel_from_factors

        def perturbed(factors):
            values = original(factors).values
            return KernelMatrix.from_values(values + 1e-6 * np.max(np.abs(values)) * np.eye(len(values)))

        monkeypatch.setattr(linmodel_module, "kernel_from_factors", perturbed)
        with pytest.raises(ValidationError, match="probe"):
            make_lm(width=32)
