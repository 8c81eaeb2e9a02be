"""Ridge solver against closed-form oracles, prediction, RKHS norms."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import ntkreg
from ntkreg._kernelmatrix import KernelMatrix
from ntkreg.bounds import BoundConfig
from ntkreg.data import DataSet, Provenance, make_kernel_cache, save_kernel, synth_sphere
from ntkreg.errors import SingularityError, ValidationError
from ntkreg.kernel import AnalyticNTK, analytic_ntk, kernel_cross
from ntkreg.krr import (
    KRRPredictor,
    PSDSolver,
    export_predictions,
    krr_fit,
    rkhs_norm,
)
from ntkreg.net import TrainConfig
from ntkreg.noise import onehot_matrix


def kernel_from(values):
    values = np.asarray(values, dtype=np.float64)
    return KernelMatrix.from_values(values)


def random_psd_kernel(rng, n):
    a = rng.standard_normal((n, n))
    values = a @ a.T / n + 0.05 * np.eye(n)
    values = np.triu(values) + np.triu(values, 1).T
    return kernel_from(values)


class TestFitSpotValues:
    def test_identity_kernel_lambda_zero(self):
        p = krr_fit(kernel_from(np.eye(2)), np.array([1.0, 0.0]), 0.0)
        assert np.allclose(p.alpha, [1.0, 0.0], rtol=0, atol=1e-14)

    def test_identity_kernel_lambda_one(self):
        p = krr_fit(kernel_from(np.eye(2)), np.array([1.0, 0.0]), 1.0)
        assert np.allclose(p.alpha, [0.5, 0.0], rtol=0, atol=1e-14)

    def test_two_by_two_inversion_oracle(self):
        # (K + I)^-1 (1, -1) with K = [[2,1],[1,2]] computed by hand:
        # K + I = [[3,1],[1,3]], inverse = 1/8 [[3,-1],[-1,3]], alpha = (0.5, -0.5)
        K = kernel_from([[2.0, 1.0], [1.0, 2.0]])
        p = krr_fit(K, np.array([1.0, -1.0]), 1.0)
        assert np.allclose(p.alpha, [0.5, -0.5], rtol=0, atol=1e-14)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValidationError):
            krr_fit(kernel_from(np.eye(2)), np.zeros(2), -1.0)


NAN = float("nan")


@pytest.mark.parametrize("make, named", [
    pytest.param(lambda: krr_fit(kernel_from(np.eye(2)), np.ones(2), NAN), "lam", id="krr-lambda-nan"),
    pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=1, lam=NAN), "lam", id="train-lambda-nan"),
    pytest.param(lambda: TrainConfig("rdi", eta=NAN, steps=1), "learning rate", id="train-eta-nan"),
    pytest.param(lambda: TrainConfig("rdi", eta=float("inf"), steps=1), "learning rate", id="train-eta-inf"),
    pytest.param(lambda: BoundConfig(1.0, sigma=NAN), "sigma", id="bounds-sigma-nan"),
])
def test_non_finite_settings_rejected(make, named):
    # one rule, not x >= 0: a NaN lambda used to train as vanilla and fail krr_fit as a
    # singular solve, and a NaN sigma passed
    with pytest.raises(ValidationError, match=named):
        make()


class TestSolverAgainstDenseInverse:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 21))
            K = random_psd_kernel(rng, n)
            y = rng.standard_normal(n)
            lam = float(rng.choice([0.0, 0.3, 1.0, 3.0]))
            p = krr_fit(K, y, lam)
            oracle = np.linalg.inv(K.values + lam * lam * np.eye(n)) @ y
            scale = max(np.linalg.norm(oracle), 1e-12)
            assert np.linalg.norm(p.alpha - oracle) <= 1e-8 * scale
            # in-sample predictions K alpha agree too
            assert np.linalg.norm(K.values @ p.alpha - K.values @ oracle) <= 1e-8 * max(
                np.linalg.norm(K.values @ oracle), 1e-12
            )
            residual = (K.values + lam * lam * np.eye(n)) @ p.alpha - y
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(y)

    def test_monotone_coefficient_shrinkage(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            K = random_psd_kernel(rng, 12)
            y = rng.standard_normal(12)
            norms = [
                np.linalg.norm(krr_fit(K, y, lam).alpha) for lam in (0.1, 0.5, 1.0, 2.0)
            ]
            assert np.all(np.diff(norms) <= 1e-12)

    def test_singular_rank_deficient(self):
        with pytest.raises(SingularityError):
            krr_fit(kernel_from(np.ones((3, 3))), np.array([1.0, 0.0, 0.0]), 0.0)

    def test_jitter_rescues_consistent_rank_deficient_system(self):
        # Cholesky fails on the exactly rank-deficient matrix, jitter lets it
        # factor, and the solution is accepted because the right-hand side
        # lies in the range.
        values = np.diag([1.0, 1.0, 0.0])
        solver = PSDSolver(values, 0.0)
        assert solver.jitter > 0.0
        x = solver.solve_checked(np.array([1.0, 1.0, 0.0]))
        assert np.allclose(values @ x, [1.0, 1.0, 0.0], rtol=0, atol=1e-8)

    @pytest.mark.parametrize("diagonal", [[1.0, 1.0, 0.0], [4.0, 9.0, 0.0]])
    def test_jitter_rung_factors_a_fresh_copy(self, diagonal):
        # the failed shift-0 rung overwrites its array (for [4, 9, 0] the
        # leading entries become 2 and 3); the next rung must factor K + jitter I
        values = np.diag(diagonal)
        solver = PSDSolver(values, 0.0)
        assert solver.jitter == 1e-10 * sum(diagonal) / 3
        expected = scipy.linalg.cholesky(values + solver.jitter * np.eye(3), lower=True)
        assert np.tril(solver.factor[0]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values", [np.diag([4.0, 9.0, 0.0]), -np.eye(3)],
                             ids=["rescued", "every-rung-fails"])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_leaves_callers_matrix_untouched(self, values, shift):
        before = values.tobytes()
        try:
            PSDSolver(values, shift)
        except SingularityError:
            pass
        assert values.tobytes() == before

    def test_factor_matches_shifted_sum_bitwise(self):
        # the factor of one Fortran-order copy equals the factor of
        # (K + shift I) + jitter I, signed zeros off the diagonal included
        a = np.random.default_rng(4).standard_normal((40, 40))
        values = a @ a.T / 40
        values = np.triu(values) + np.triu(values, 1).T
        values[np.abs(values) < 0.1] = -0.0
        values[np.diag_indices(40)] += 10.0
        assert np.sum(np.signbit(values) & (values == 0.0)) > 100
        for shift in (0.0, 0.3):
            solver = PSDSolver(values, shift)
            shifted = (values + shift * np.eye(40)) + solver.jitter * np.eye(40)
            expected, _ = scipy.linalg.cho_factor(shifted, lower=True)
            assert solver.factor[0].tobytes() == np.asfortranarray(expected).tobytes()
            assert solver.factor[0].flags.f_contiguous

    def test_near_symmetric_matrix_factors_its_upper_triangle(self):
        # K symmetric only within tolerance: the contiguous copy is K^T, so
        # the lower-triangle factor is that of the symmetric matrix on K's
        # upper triangle, and the residual is still checked against K itself
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30))
        upper = a @ a.T / 30 + np.eye(30)
        upper = np.triu(upper) + np.triu(upper, 1).T
        values = upper.copy()
        values[np.tril_indices(30, -1)] *= 1.0 + 1e-12
        assert not np.array_equal(values, values.T)
        K = KernelMatrix.from_values(values)  # within the symmetry tolerance
        solver = K.solver(0.3)
        expected, _ = scipy.linalg.cho_factor(upper + 0.3 * np.eye(30), lower=True)
        assert np.tril(solver.factor[0]).tobytes() == np.tril(expected).tobytes()
        b = rng.standard_normal(30)
        x = solver.solve_checked(b)
        assert np.linalg.norm(values @ x + 0.3 * x - b) <= 1e-8 * np.linalg.norm(b)
        # an asymmetry the factored triangle cannot answer for fails the check
        skewed = upper.copy()
        skewed[np.tril_indices(30, -1)] *= 1.0 + 1e-4
        with pytest.raises(SingularityError, match="solve residual"):
            PSDSolver(skewed, 0.3).solve_checked(b)

    def test_jitter_does_not_mask_inconsistent_system(self):
        # same matrix, right-hand side with a null-space component: the
        # residual check must fail loudly instead of returning garbage
        values = np.diag([1.0, 1.0, 0.0])
        solver = PSDSolver(values, 0.0)
        with pytest.raises(SingularityError):
            solver.solve_checked(np.array([1.0, 1.0, 1.0]))


class TestNonFiniteTargets:
    """NaN and inf right-hand sides fail as toolkit errors, never silently."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("multi", [False, True], ids=["vector", "matrix"])
    def test_fit_rejects(self, bad, multi):
        y = np.array([[1.0, 0.0, 1.0], [0.0, bad, 1.0]])
        with pytest.raises(ValidationError, match="^targets contain non-finite values$"):
            krr_fit(kernel_from(2.0 * np.eye(3)), y if multi else y[1], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_checked_solve_fails(self, bad):
        solver = PSDSolver(2.0 * np.eye(3), 0.5)
        with pytest.raises(SingularityError, match="solve residual"):
            solver.solve_checked(np.array([1.0, bad, 0.0]))


class TestShiftedSolvers:
    """The solvers of K + shift I that a KernelMatrix builds and keeps."""

    def test_matches_fresh_solver_bitwise(self):
        rng = np.random.default_rng(7)
        K = random_psd_kernel(rng, 12)
        y = rng.standard_normal(12)
        for shift in (0.0, 0.25, 4.0, 0.25):
            assert np.array_equal(K.solver(shift).solve_checked(y), PSDSolver(K.values, shift).solve_checked(y))
        assert float(y @ K.solver(1.0).solve_checked(y)) == float(y @ PSDSolver(K.values, 1.0).solve_checked(y))

    def test_keeps_shift_zero_and_latest_shift(self):
        K = random_psd_kernel(np.random.default_rng(8), 6)
        zero = K.solver(0.0)
        first = K.solver(1.0)
        assert K.solver(1.0) is first
        K.solver(4.0)
        assert K.solver(0.0) is zero
        assert K.solver(1.0) is not first  # evicted by shift 4, refactored

    def test_fits_share_factorization(self):
        K = random_psd_kernel(np.random.default_rng(9), 8)
        a = krr_fit(K, np.ones(8), 0.5)
        solver = K.solver(0.25)
        b = krr_fit(K, -np.ones(8), 0.5)
        assert K.solver(0.25) is solver
        assert np.array_equal(a.alpha, -b.alpha)

    def test_failed_factorization_raises_every_time(self):
        K = kernel_from(np.ones((3, 3)))
        for _ in range(2):
            with pytest.raises(SingularityError):
                K.solver(0.0).solve_checked(np.array([1.0, 0.0, 0.0]))

    def test_solver_after_loading_a_cache_in_a_fresh_interpreter(self, tmp_path):
        # the solver class is imported inside KernelMatrix.solver; a process
        # that imports only the data module must still reach it
        ds = synth_sphere(10, 4, "linear-sign", seed=3)
        K = analytic_ntk(2, ds)
        path = tmp_path / "k.ntkk"
        save_kernel(make_kernel_cache(K, Provenance(kind="analytic", depth=2), ds), path)
        script = (
            "import sys\n"
            "from ntkreg.data import load_kernel, synth_sphere\n"
            "K = load_kernel(sys.argv[1], synth_sphere(10, 4, 'linear-sign', seed=3)).matrix\n"
            "print(repr(float(K.solver(0.0).solve_checked(K.values[0]).sum())))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ntkreg.__file__)))
        out = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) == float(K.solver(0.0).solve_checked(K.values[0]).sum())


class TestPrediction:
    def make_fitted(self, lam, n=12, seed=0):
        ds = synth_sphere(n, 5, "linear-sign", seed=seed)
        K = analytic_ntk(2, ds)
        return ds, krr_fit(K, ds.noisy_labels, lam, kernel_source=AnalyticNTK(2), train_data=ds), K

    def test_interpolation_at_lambda_zero(self):
        ds, p, _ = self.make_fitted(0.0)
        preds = p.predict(ds.inputs)
        assert np.max(np.abs(preds - ds.noisy_labels)) <= 1e-7
        # the prediction is k(x, X)^T alpha, from the cross kernel directly
        assert np.array_equal(kernel_cross(AnalyticNTK(2), ds.inputs, ds) @ p.alpha, preds)

    def test_large_lambda_shrinks_to_zero(self):
        ds, p, _ = self.make_fitted(1e6)  # lam^2 = 1e12
        preds = np.atleast_1d(p.predict(ds.inputs))
        # |f(x)| <= ||k(x, X)|| ||y|| / lam^2, computed from the operands
        from ntkreg.kernel import kernel_cross

        for i in range(ds.n):
            bound = np.linalg.norm(kernel_cross(AnalyticNTK(2), ds.inputs[i], ds)) * \
                np.linalg.norm(ds.noisy_labels) / 1e12
            assert abs(preds[i]) <= bound * (1.0 + 1e-12)

    def test_predict_without_source_rejected(self):
        p = krr_fit(kernel_from(np.eye(3)), np.ones(3), 1.0)
        with pytest.raises(ValidationError):
            p.predict(np.ones(3))

    def test_classify_binary_zero_maps_up(self):
        p = KRRPredictor(alpha=np.zeros(2), lam=0.0, kernel_source=AnalyticNTK(2),
                         train_data=synth_sphere(2, 4, "linear-sign", seed=0))
        labels = p.classify(np.eye(4)[:1])
        assert labels[0] == 1.0

    def test_classify_single_row_fit_by_sign(self):
        # a binary fit on (1, n) targets has one output row, so it is read by
        # sign, not by an argmax over that one column
        ds = synth_sphere(30, 5, "linear-sign", seed=0)
        source = AnalyticNTK(2)
        row = krr_fit(source.gram(ds), ds.noisy_labels[None, :].astype(np.float64), 0.5,
                      kernel_source=source, train_data=ds)
        vector = krr_fit(source.gram(ds), ds.noisy_labels.astype(np.float64), 0.5,
                         kernel_source=source, train_data=ds)
        labels = row.classify(ds.inputs)
        assert set(labels.tolist()) == {-1.0, 1.0}
        assert np.array_equal(labels, vector.classify(ds.inputs))


class TestMultiOutput:
    def test_rows_match_independent_fits_bitwise(self):
        rng = np.random.default_rng(3)
        K = random_psd_kernel(rng, 10)
        targets = rng.standard_normal((4, 10))
        multi = krr_fit(K, targets, 0.8)
        for h in range(4):
            single = krr_fit(K, targets[h], 0.8)
            assert np.array_equal(multi.alpha[h], single.alpha)

    def test_zero_targets(self):
        K = kernel_from(np.eye(5))
        multi = krr_fit(K, np.zeros((3, 5)), 1.0)
        assert np.all(multi.alpha == 0.0)

    def test_residual_oracle_per_row(self):
        rng = np.random.default_rng(4)
        K = random_psd_kernel(rng, 15)
        targets = rng.standard_normal((5, 15))
        lam = 0.6
        multi = krr_fit(K, targets, lam)
        shifted = K.values + lam * lam * np.eye(15)
        for h in range(5):
            residual = shifted @ multi.alpha[h] - targets[h]
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(targets[h])

    def test_onehot_identity_kernel(self):
        labels = np.array([1, 2, 1])
        targets = onehot_matrix(labels, 2)
        x = np.eye(3)
        ds = DataSet(x, labels, labels.copy(), "multiclass", num_classes=2)
        K = kernel_from(np.eye(3))
        p = krr_fit(K, targets, 0.0)
        # alpha = targets themselves; output h at x_i is 1[h == label_i]
        assert np.array_equal(p.alpha, targets)
        assert np.array_equal(
            np.argmax(p.alpha.T, axis=1) + 1, labels
        )

    def test_argmax_tie_breaks_low(self):
        ds = synth_sphere(3, 4, "linear-sign", seed=0)
        p = KRRPredictor(alpha=np.zeros((3, 3)), lam=1.0, kernel_source=AnalyticNTK(2),
                         train_data=ds)
        # all outputs identical -> tie -> class 1
        assert np.all(p.classify(ds.inputs) == 1)


class TestRkhsNorm:
    def test_zero_alpha(self):
        p = KRRPredictor(alpha=np.zeros(4), lam=1.0)
        assert rkhs_norm(p, kernel_from(np.eye(4))) == 0.0

    def test_euclidean_case(self):
        p = KRRPredictor(alpha=np.array([3.0, 4.0]), lam=1.0)
        assert rkhs_norm(p, kernel_from(np.eye(2))) == 5.0

    def test_matrix_algebra_oracle(self):
        # equals sqrt(y^T (K+lam^2 I)^-1 K (K+lam^2 I)^-1 y) by direct inversion
        rng = np.random.default_rng(5)
        for _ in range(10):
            K = random_psd_kernel(rng, 8)
            y = rng.standard_normal(8)
            lam = 0.9
            p = krr_fit(K, y, lam)
            inv = np.linalg.inv(K.values + lam * lam * np.eye(8))
            oracle = np.sqrt(y @ inv @ K.values @ inv @ y)
            assert abs(rkhs_norm(p, K) - oracle) <= 1e-10 * max(oracle, 1e-12)

    def test_norm_bound_chain(self):
        # ||f||_H <= sqrt(y^T (K + lam^2 I)^-1 y)
        rng = np.random.default_rng(6)
        for _ in range(10):
            K = random_psd_kernel(rng, 9)
            y = rng.standard_normal(9)
            lam = 0.7
            p = krr_fit(K, y, lam)
            cap = np.sqrt(y @ np.linalg.inv(K.values + lam * lam * np.eye(9)) @ y)
            assert rkhs_norm(p, K) <= cap + 1e-10


class TestExport:
    def test_prediction_csv(self, tmp_path):
        ds = synth_sphere(6, 4, "linear-sign", seed=1)
        K = analytic_ntk(2, ds)
        p = krr_fit(K, ds.noisy_labels, 0.5, kernel_source=AnalyticNTK(2), train_data=ds)
        path = tmp_path / "preds.csv"
        export_predictions(p, ds.inputs[:3], path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "query_id,output_1,predicted_class"
        assert len(lines) == 4

    def test_returns_the_written_outputs(self, tmp_path):
        ds = synth_sphere(6, 4, "linear-sign", seed=1)
        p = krr_fit(analytic_ntk(2, ds), ds.noisy_labels, 0.5, kernel_source=AnalyticNTK(2),
                    train_data=ds)
        values = export_predictions(p, ds.inputs, tmp_path / "preds.csv")
        assert np.array_equal(values, p.predict(ds.inputs))
        lines = open(tmp_path / "preds.csv").read().strip().split("\n")[1:]
        assert [float(line.split(",")[1]) for line in lines] == list(values)


class TestTargetMatrix:
    def test_rows_solved_against_one_factorization(self, monkeypatch):
        from ntkreg import krr as krr_module

        rng = np.random.default_rng(10)
        K = random_psd_kernel(rng, 9)
        targets = rng.standard_normal((3, 9))
        factors = []
        original = krr_module.cho_factor
        monkeypatch.setattr(krr_module, "cho_factor", lambda *a, **k: factors.append(1) or original(*a, **k))
        fit = krr_fit(K, targets, 0.7)
        assert len(factors) == 1
        for h in range(3):
            assert np.array_equal(fit.alpha[h], krr_fit(K, targets[h], 0.7).alpha)
        assert len(factors) == 1
        assert np.array_equal(fit.alpha, krr_fit(K, targets, 0.7).alpha)
        assert len(factors) == 1

    def test_one_row_matrix_keeps_its_shape(self):
        K = kernel_from(np.eye(4))
        fit = krr_fit(K, np.ones((1, 4)), 1.0)
        assert fit.alpha.shape == (1, 4) and fit.multi_output

    @pytest.mark.parametrize("shape", [(5, 1), (2, 2, 5), (3, 4)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValidationError):
            krr_fit(kernel_from(np.eye(5)), np.ones(shape), 1.0)

    def test_predict_one_and_many_outputs(self):
        ds = synth_sphere(8, 4, "linear-sign", seed=2)
        K = analytic_ntk(2, ds)
        single = krr_fit(K, ds.noisy_labels, 0.5, kernel_source=AnalyticNTK(2), train_data=ds)
        multi = krr_fit(K, np.stack([ds.noisy_labels, -ds.noisy_labels]), 0.5,
                        kernel_source=AnalyticNTK(2), train_data=ds)
        values = multi.predict(ds.inputs)
        expected = single.predict(ds.inputs)
        assert values.shape == (8, 2)
        # one matrix product against two vector products: equal up to rounding
        scale = 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(values - np.stack([expected, -expected], axis=1))) <= scale
