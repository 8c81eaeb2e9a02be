"""Bound formulas against hand evaluations, monotonicity, and the ramp loss."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkreg._kernelmatrix import KernelMatrix
from ntkreg.bounds import (
    BoundConfig,
    BoundReport,
    bound_additive,
    bound_binary,
    bound_multiclass,
    empirical_clean_risk,
    lemma1_bound,
    lemma2_bound,
    quad_form_inv,
    ramp_loss,
)
from ntkreg.data import synth_sphere
from ntkreg.errors import ValidationError
from ntkreg.kernel import AnalyticNTK, analytic_ntk
from ntkreg import krr as krr_module
from ntkreg.krr import KRRPredictor, krr_fit, rkhs_norm
from ntkreg.noise import AdditiveNoise, corrupt, onehot_matrix, rescale_binary


def kernel_from(values):
    return KernelMatrix.from_values(np.asarray(values, dtype=np.float64))


class TestQuadForm:
    def test_identity(self):
        assert quad_form_inv(kernel_from(np.eye(2)), np.array([1.0, 1.0])) == 2.0

    def test_scaled_identity(self):
        value = quad_form_inv(kernel_from(2.0 * np.eye(2)), np.array([1.0, 1.0]))
        assert abs(value - 1.0) <= 1e-14  # triangular solves divide by sqrt(2) twice

    def test_two_by_two_oracle(self):
        # K^-1 = 1/3 [[2,-1],[-1,2]]; (1,1) K^-1 (1,1) = 2/3
        K = kernel_from([[2.0, 1.0], [1.0, 2.0]])
        value = quad_form_inv(K, np.array([1.0, 1.0]))
        assert abs(value - 2.0 / 3.0) <= 1e-14

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        values = a @ a.T + 0.5 * np.eye(6)
        values = np.triu(values) + np.triu(values, 1).T
        K = kernel_from(values)
        for _ in range(10):
            assert quad_form_inv(K, rng.standard_normal(6)) >= 0.0


class TestLemmaFormulas:
    def test_lemma1_noiseless_collapse(self):
        K = kernel_from([[2.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, -1.0])
        lam = 1.7
        value = lemma1_bound(K, y, 0.0, lam, 0.1)
        assert abs(value - 0.5 * lam * np.sqrt(quad_form_inv(K, y))) <= 1e-14

    def test_lemma1_formula_evaluation(self):
        # K = I_4, y = 0, sigma = 1, lam = 1, delta = 1/e:
        # 0 + sqrt(4)/2 + sqrt(2 * 1) = 1 + sqrt(2)
        value = lemma1_bound(kernel_from(np.eye(4)), np.zeros(4), 1.0, 1.0, np.exp(-1.0))
        assert abs(value - (1.0 + np.sqrt(2.0))) <= 1e-14

    def test_lemma1_monotone_in_delta(self):
        K = kernel_from(np.eye(5))
        y = np.ones(5)
        values = [lemma1_bound(K, y, 0.5, 1.0, d) for d in (0.5, 0.1, 0.01)]
        assert values[0] < values[1] < values[2]

    def test_lemma2_noiseless_collapse(self):
        K = kernel_from([[2.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, -1.0])
        lam = 1.2
        inv = np.linalg.inv(K.values + lam * lam * np.eye(2))
        assert abs(lemma2_bound(K, y, 0.0, lam, 0.3) - np.sqrt(y @ inv @ y)) <= 1e-14

    def test_lemma2_formula_evaluation(self):
        # y = 0, sigma = 1, lam = 2, delta = 1/e, n = 4: (1/2)(2 + sqrt(2))
        value = lemma2_bound(kernel_from(np.eye(4)), np.zeros(4), 1.0, 2.0, np.exp(-1.0))
        assert abs(value - 0.5 * (2.0 + np.sqrt(2.0))) <= 1e-14

    def test_lemma2_dominates_fitted_norm_noiseless(self):
        ds = synth_sphere(30, 6, "smooth-poly", seed=1)
        K = analytic_ntk(2, ds)
        lam = 1.5
        p = krr_fit(K, ds.clean_labels, lam)
        assert rkhs_norm(p, K) <= lemma2_bound(K, ds.clean_labels, 0.0, lam, 0.1) + 1e-10


class TestAdditiveBound:
    def make_report(self, mode, sigma=0.1, n=100):
        ds = synth_sphere(n, 8, "smooth-poly", seed=2)
        K = analytic_ntk(2, ds)
        cfg = BoundConfig(lam=n**0.25, sigma=sigma, delta=0.1, constant_mode=mode)
        return bound_additive(K, ds.clean_labels, cfg)

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_components_nonnegative_and_sum(self, mode):
        report = self.make_report(mode)
        parts = (report.main_term, report.sigma_over_lambda_term, report.delta_term)
        assert all(v >= 0.0 and np.isfinite(v) for v in parts)
        assert report.total == sum(parts)
        assert report.lemma1_value is not None
        assert report.rademacher_value is not None

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_shared_solvers_reuse_factors(self, mode, count_calls):
        ds = synth_sphere(60, 8, "smooth-poly", seed=2)
        K = analytic_ntk(2, ds)
        cfg = BoundConfig(lam=1.5, sigma=0.1, delta=0.1, constant_mode=mode)
        fresh = bound_additive(kernel_from(K.values), ds.clean_labels, cfg)
        quad_form_inv(K, ds.clean_labels)  # read from the first read's factor, as a sweep reads it
        krr_fit(K, ds.clean_labels, 1.5)
        calls = count_calls(krr_module, "cho_factor")
        shared = bound_additive(K, ds.clean_labels, cfg)
        assert calls == []
        assert shared.as_dict() == fresh.as_dict()

    def test_sigma_zero_leaves_main_term(self):
        report = self.make_report("explicit-appendix", sigma=0.0, n=400)
        assert report.sigma_over_lambda_term == 0.0
        # residual confidence terms shrink with n while main term persists
        assert report.delta_term < report.main_term + 0.5

    def test_decreasing_in_n_at_fixed_quadratic_form(self):
        # formula-level property: scale lam = n^0.25 and hold y^T K^-1 y / n
        # fixed by construction (trace scales with n for the analytic kernel)
        totals = []
        for n in (100, 200, 400):
            ds = synth_sphere(n, 8, "smooth-poly", seed=3)
            K = analytic_ntk(2, ds)
            cfg = BoundConfig(lam=n**0.25, sigma=0.1, delta=0.1)
            totals.append(bound_additive(K, ds.clean_labels, cfg).total)
        assert totals[0] > totals[1] > totals[2]

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_non_increasing_in_delta(self, mode):
        ds = synth_sphere(60, 8, "smooth-poly", seed=12)
        K = analytic_ntk(2, ds)
        totals = [
            bound_additive(
                K, ds.clean_labels,
                BoundConfig(lam=2.0, sigma=0.1, delta=d, constant_mode=mode),
            ).total
            for d in (0.01, 0.1, 0.5)
        ]
        assert totals[0] > totals[1] > totals[2]

    def test_json_serialization(self, tmp_path):
        report = self.make_report("explicit-appendix")
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(Path(path).read_text())
        for key in ("total", "main_term", "sigma_over_lambda_term", "delta_term",
                    "lemma1_value", "lemma2_value", "rademacher_value", "y_kinv_y"):
            assert key in payload and payload[key] is not None


class TestBinaryBound:
    def setup_method(self):
        ds = synth_sphere(80, 8, "linear-sign", seed=4)
        self.K = analytic_ntk(2, ds)
        self.y = ds.clean_labels

    def test_p_zero_reduces_to_noiseless(self):
        report = bound_binary(self.K, self.y, 0.0, 2.0, 0.1)
        assert report.sigma_over_lambda_term == 0.0
        assert report.extras["sigma_eff"] == 0.0
        # only the net residue remains in the confidence term
        assert report.delta_term > 0.0

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_monotone_in_p(self, mode):
        totals = [
            bound_binary(self.K, self.y, p, 2.0, 0.1, constant_mode=mode).total
            for p in (0.0, 0.1, 0.2, 0.3, 0.4)
        ]
        assert np.all(np.diff(totals) > 0.0)

    def test_pole_at_half(self):
        near = bound_binary(self.K, self.y, 0.4999, 2.0, 0.1).total
        assert near > bound_binary(self.K, self.y, 0.4, 2.0, 0.1).total * 100

    def test_invalid_p(self):
        with pytest.raises(ValidationError):
            bound_binary(self.K, self.y, 0.5, 2.0, 0.1)

    def test_main_term_independent_of_p(self):
        # the (1-2p) factors cancel in the main term
        r1 = bound_binary(self.K, self.y, 0.0, 2.0, 0.1)
        r2 = bound_binary(self.K, self.y, 0.3, 2.0, 0.1)
        assert abs(r1.main_term - r2.main_term) <= 1e-9 * r1.main_term

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_factors_each_shift_once(self, mode, count_calls):
        # K's factor is its first read's, which certifies it, so only
        # K + lam^2 I is factored, once, not once per quadratic form
        self.K.solver(0.0)
        calls = count_calls(krr_module, "cho_factor")
        bound_binary(self.K, self.y, 0.2, 2.0, 0.1, constant_mode=mode)
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_shared_solvers_reuse_factors(self, mode, count_calls):
        # with y^T K^-1 y read first, a fit at the same ridge leaves the bound
        # nothing new to factor, and the shared factors give the same report bit for bit
        fresh = bound_binary(kernel_from(self.K.values), self.y, 0.2, 2.0, 0.1, constant_mode=mode)
        quad_form_inv(self.K, self.y)
        krr_fit(self.K, self.y, 2.0)
        calls = count_calls(krr_module, "cho_factor")
        shared = bound_binary(self.K, self.y, 0.2, 2.0, 0.1, constant_mode=mode)
        assert calls == []
        assert shared.as_dict() == fresh.as_dict()

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_bound_after_fit_factors_only_shift_zero(self, mode, count_calls):
        # y^T K^-1 y read from K's own factor, the one its first read built,
        # and the fit's factor of K + lam^2 I belong to K, so the bound factors nothing
        fresh = bound_binary(kernel_from(self.K.values), self.y, 0.2, 2.0, 0.1, constant_mode=mode)
        self.K.solver(0.0)  # the first read, which certifies K
        calls = count_calls(krr_module, "cho_factor")
        certificate = self.K.solver(0.0)
        assert calls == []  # built by the first read
        assert certificate.jitter == 0.0
        quad_form_inv(self.K, self.y)
        krr_fit(self.K, self.y, 2.0)
        calls.clear()
        shared = bound_binary(self.K, self.y, 0.2, 2.0, 0.1, constant_mode=mode)
        assert len(calls) == 0
        assert shared.as_dict() == fresh.as_dict()


class TestMulticlassBound:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.n = 40
        x = rng.standard_normal((self.n, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        self.labels = rng.integers(1, 4, size=self.n)
        self.Y = onehot_matrix(self.labels, 3)
        values = x @ x.T + 2.0 * np.eye(self.n)
        values = np.triu(values) + np.triu(values, 1).T
        self.K = kernel_from(values)

    def test_identity_channel(self):
        report = bound_multiclass(self.K, self.Y, np.eye(3), 1.5, 0.1)
        assert report.gap == 1.0
        # Q = Y, so the per-class quadratic forms reduce to the clean ones
        for h in range(3):
            expected = quad_form_inv(self.K, self.Y[h])
            assert abs(report.q_quadratic_forms[h] - expected) <= 1e-10 * max(expected, 1.0)

    def test_q_columns_are_transition_columns(self):
        # matrix-product oracle: column j of Q = P Y is column c_j of P
        P = np.array([[0.7, 0.1, 0.2], [0.2, 0.8, 0.1], [0.1, 0.1, 0.7]])
        Q = P @ self.Y
        for j in range(self.n):
            assert np.array_equal(Q[:, j], P[:, self.labels[j] - 1])

    def test_class_forms_from_one_block_solve(self, count_calls):
        # one solve of K against every class's row of Q = P Y, where each class was its own solve
        P = np.array([[0.7, 0.1, 0.2], [0.2, 0.8, 0.1], [0.1, 0.1, 0.7]])
        solves = count_calls(krr_module, "cho_solve")
        report = bound_multiclass(self.K, self.Y, P, 0.8, 0.1)
        assert len(solves) == 1
        Q = P @ self.Y
        for h in range(3):
            expected = quad_form_inv(self.K, Q[h])
            assert abs(report.q_quadratic_forms[h] - expected) <= 1e-12 * expected

    def test_gap_surfaces_in_report(self):
        P = np.array([[0.8, 0.3], [0.2, 0.7]])
        labels = np.array([1, 2, 1, 2])
        Y = onehot_matrix(labels, 2)
        K = kernel_from(np.eye(4) * 2.0)
        report = bound_multiclass(K, Y, P, 1.0, 0.1)
        assert abs(report.gap - 0.4) <= 1e-15

    def test_invalid_transition_rejected(self):
        with pytest.raises(ValidationError):
            bound_multiclass(self.K, self.Y, np.full((3, 3), 1 / 3), 1.0, 0.1)

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_total_is_sum(self, mode):
        P = np.array([[0.7, 0.1, 0.2], [0.2, 0.8, 0.1], [0.1, 0.1, 0.7]])
        report = bound_multiclass(self.K, self.Y, P, 1.0, 0.1, constant_mode=mode)
        assert report.total == (
            report.main_term + report.sigma_over_lambda_term + report.delta_term
        )


class TestRampLoss:
    def test_zero_at_target(self):
        for p in (0.0, 0.1, 0.3):
            for y in (1.0, -1.0):
                assert ramp_loss((1.0 - 2.0 * p) * y, y, p) == 0.0

    def test_value_at_zero(self):
        for p in (0.0, 0.1, 0.3):
            assert ramp_loss(0.0, 1.0, p) == 1.0 - 2.0 * p
            assert ramp_loss(0.0, -1.0, p) == 1.0 - 2.0 * p

    def test_dominates_scaled_zero_one(self):
        u = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        for p in (0.0, 0.1, 0.3):
            width = 1.0 - 2.0 * p
            for y in (1.0, -1.0):
                values = ramp_loss(u, y, p)
                mistakes = (u == 0.0) | (np.sign(u) != y)
                assert np.all(values >= width * mistakes - 0.0)

    def test_lipschitz_on_grid(self):
        u = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        for p in (0.0, 0.1, 0.3, 0.45):
            for y in (1.0, -1.0):
                values = ramp_loss(u, y, p)
                assert np.max(np.abs(np.diff(values))) <= 1e-3 + 1e-12

    @settings(deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=0.49),
        st.sampled_from([1.0, -1.0]),
    )
    def test_lipschitz_random_pairs(self, u1, u2, p, y):
        assert abs(ramp_loss(u1, y, p) - ramp_loss(u2, y, p)) <= abs(u1 - u2) + 1e-12


class TestEmpiricalRisk:
    def test_interpolating_predictor_zero_error(self):
        ds = synth_sphere(15, 5, "linear-sign", seed=6)
        K = analytic_ntk(2, ds)
        p = krr_fit(K, ds.noisy_labels, 0.0, kernel_source=AnalyticNTK(2), train_data=ds)
        assert empirical_clean_risk(p, ds, "zero-one") == 0.0

    def test_constant_zero_predictor_counts_all_errors(self):
        ds = synth_sphere(20, 5, "linear-sign", seed=7)
        p = KRRPredictor(alpha=np.zeros(20), lam=1.0, kernel_source=AnalyticNTK(2),
                         train_data=ds)
        assert empirical_clean_risk(p, ds, "zero-one") == 1.0

    def test_clipped_vs_ramp_relation(self):
        # pointwise comparison oracle on random fitted instances
        rng = np.random.default_rng(8)
        for seed in range(5):
            ds = synth_sphere(25, 5, "linear-sign", seed=seed)
            K = analytic_ntk(2, ds)
            p_flip = 0.2
            predictor = krr_fit(K, ds.noisy_labels, 1.0, kernel_source=AnalyticNTK(2),
                                train_data=ds)
            clip_risk = empirical_clean_risk(predictor, ds, "clipped-absolute")
            ramp_risk = empirical_clean_risk(predictor, ds, "ramp", p=p_flip)
            values = predictor.predict(ds.inputs)
            pointwise = np.abs(
                np.minimum(np.abs(values - ds.clean_labels), 1.0)
                - ramp_loss(values, ds.clean_labels, p_flip)
            )
            assert clip_risk <= ramp_risk + float(np.mean(pointwise)) + 1e-12

    def test_loss_task_mismatch(self):
        ds = synth_sphere(10, 5, "smooth-poly", seed=9)
        K = analytic_ntk(2, ds)
        p = krr_fit(K, ds.noisy_labels, 1.0, kernel_source=AnalyticNTK(2), train_data=ds)
        with pytest.raises(ValidationError):
            empirical_clean_risk(p, ds, "zero-one")
        with pytest.raises(ValidationError):
            empirical_clean_risk(p, ds, "ramp", p=0.1)

    def test_clipped_absolute_on_regression(self):
        ds = synth_sphere(60, 6, "smooth-poly", seed=10)
        noisy = corrupt(ds, AdditiveNoise(0.05), seed=11)
        K = analytic_ntk(2, noisy)
        p = krr_fit(K, noisy.noisy_labels, 1.0, kernel_source=AnalyticNTK(2), train_data=noisy)
        risk = empirical_clean_risk(p, noisy, "clipped-absolute")
        assert 0.0 <= risk <= 1.0


class TestMulticlassSharedSolvers:
    def test_reuses_the_fit_factors(self, count_calls):
        ds = synth_sphere(30, 5, "linear-sign", seed=4)
        K = analytic_ntk(2, ds)
        labels = np.arange(30) % 3 + 1
        Y = onehot_matrix(labels, 3)
        P = np.array([[0.7, 0.1, 0.2], [0.2, 0.8, 0.1], [0.1, 0.1, 0.7]])
        factors = count_calls(krr_module, "cho_factor")
        for mode in ("explicit-appendix", "unit-constants"):
            fresh = bound_multiclass(kernel_from(K.values), Y, P, 0.8, 0.1, constant_mode=mode)
            krr_fit(K, Y, 0.8)
            K.solver(0.0)
            factors.clear()
            shared = bound_multiclass(K, Y, P, 0.8, 0.1, constant_mode=mode)
            assert factors == []
            assert shared.as_dict() == fresh.as_dict()


# The keys of BoundReport.as_dict(), in order, before the per-channel extras.
REPORT_KEYS = ["mode", "total", "main_term", "sigma_over_lambda_term", "delta_term", "main_constant",
               "y_kinv_y", "lemma1_value", "lemma2_value", "rademacher_value", "gap", "q_quadratic_forms"]
TRANSITION = np.array([[0.7, 0.1, 0.2], [0.2, 0.8, 0.1], [0.1, 0.1, 0.7]])


class TestReportAssembly:
    """Each report solves each (vector, shift) pair once and derives its total."""

    def setup_method(self):
        ds = synth_sphere(30, 5, "linear-sign", seed=4)
        self.K = analytic_ntk(2, ds)
        self.y = ds.clean_labels
        self.Y = onehot_matrix(np.arange(30) % 3 + 1, 3)

    def reports(self, mode):
        return {
            "additive": lambda: bound_additive(self.K, self.y, BoundConfig(1.5, 0.1, 0.1, mode)),
            "binary": lambda: bound_binary(self.K, self.y, 0.2, 1.5, 0.1, constant_mode=mode),
            "multiclass": lambda: bound_multiclass(self.K, self.Y, TRANSITION, 1.5, 0.1, constant_mode=mode),
        }

    @pytest.mark.parametrize("mode, channel, solves", [
        ("explicit-appendix", "additive", 2),
        ("unit-constants", "additive", 2),
        ("explicit-appendix", "binary", 2),
        ("unit-constants", "binary", 2),  # y^T K^-1 y on the clean labels, the shifted form on the scaled ones
        ("explicit-appendix", "multiclass", 3),
        ("unit-constants", "multiclass", 3),
    ])
    def test_solves_per_report(self, mode, channel, solves, monkeypatch):
        pairs = []
        original = krr_module.PSDSolver.solve_checked

        def counted(solver, b):  # one pair per right-hand side, a block's columns each
            b = np.asarray(b)
            pairs.extend((solver.shift, column.tobytes()) for column in b.reshape(len(b), -1).T)
            return original(solver, b)

        monkeypatch.setattr(krr_module.PSDSolver, "solve_checked", counted)
        self.reports(mode)[channel]()
        assert len(pairs) == solves
        assert len(set(pairs)) == solves

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    @pytest.mark.parametrize("channel", ["additive", "binary", "multiclass"])
    def test_total_is_derived(self, mode, channel):
        report = self.reports(mode)[channel]()
        assert report.total == report.main_term + report.sigma_over_lambda_term + report.delta_term
        halved = dataclasses.replace(report, main_term=report.main_term / 2.0, delta_term=0.0)
        assert halved.total == report.main_term / 2.0 + report.sigma_over_lambda_term + 0.0
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(report, total=0.0)

    def test_total_is_not_an_argument(self):
        with pytest.raises(TypeError):
            BoundReport(mode="unit-constants", total=3.0, main_term=1.0, sigma_over_lambda_term=1.0,
                        delta_term=1.0, main_constant=1.0)

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    @pytest.mark.parametrize("channel, extras", [
        ("additive", []), ("binary", ["p", "sigma_eff"]), ("multiclass", ["num_classes", "delta_per_class"]),
    ])
    def test_as_dict_keys(self, mode, channel, extras):
        payload = self.reports(mode)[channel]().as_dict()
        assert list(payload) == REPORT_KEYS + extras
        forms = payload["q_quadratic_forms"]
        if channel == "multiclass":
            assert type(forms) is list and len(forms) == 3
        else:
            assert forms is None

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_additive_lemma_values_match_public_functions(self, mode):
        report = self.reports(mode)["additive"]()
        assert report.lemma1_value == lemma1_bound(self.K, self.y, 0.1, 1.5, 0.1)
        assert report.lemma2_value == lemma2_bound(self.K, self.y, 0.1, 1.5, 0.1)

    @pytest.mark.parametrize("mode", ["explicit-appendix", "unit-constants"])
    def test_binary_lemma_values_match_public_functions(self, mode):
        report = self.reports(mode)["binary"]()
        scaled_y, sigma_eff = rescale_binary(self.y, 0.2)
        # the report scales y^T K^-1 y by (1 - 2p)^2 and lemma1_bound solves on the
        # scaled labels: one value rounded two ways, so equal up to the last bit
        assert report.lemma1_value == pytest.approx(lemma1_bound(self.K, scaled_y, sigma_eff, 1.5, 0.1), rel=1e-14)
        assert report.lemma2_value == lemma2_bound(self.K, scaled_y, sigma_eff, 1.5, 0.1)

    @pytest.mark.parametrize("shift_form", [lemma1_bound, lemma2_bound, quad_form_inv])
    def test_vector_shape_checked_for_both_shifts(self, shift_form):
        # lemma2_bound's shifted solve used to raise scipy's bare ValueError
        K = kernel_from(np.eye(3))
        args = (K, np.ones(4)) if shift_form is quad_form_inv else (K, np.ones(4), 0.1, 1.0, 0.1)
        with pytest.raises(ValidationError, match=r"shape \(3,\)"):
            shift_form(*args)
