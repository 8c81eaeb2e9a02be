"""Ridge solver against closed-form oracles, prediction, RKHS norms."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import ntkreg
from ntkreg import krr as krr_module
from ntkreg._kernelmatrix import KernelMatrix
from ntkreg.bounds import (
    BoundConfig,
    bound_additive,
    bound_binary,
    bound_multiclass,
    lemma2_bound,
    quad_form_inv,
    ramp_loss,
)
from ntkreg.data import DataSet, synth_sphere
from ntkreg.errors import SingularityError, ValidationError
from ntkreg.kernel import AnalyticNTK, analytic_ntk, kernel_cross
from ntkreg.krr import (
    KRRPredictor,
    PSDSolver,
    cho_factor,
    cho_solve,
    export_predictions,
    krr_fit,
    rkhs_norm,
)
from ntkreg.linmodel import LinearizedModel, linearize, run_gd_rdi
from ntkreg.net import NetConfig, TrainConfig, init_mlp
from ntkreg.noise import ClassTransition, onehot_matrix, rescale_binary, validate_transition


def packed_factor(matrix):
    """scipy's lower Cholesky factor of ``matrix`` in rectangular full packed format: dpftrf(dtrttf(matrix))."""
    packed, info = scipy.linalg.lapack.dtrttf(matrix, uplo="L")
    assert info == 0
    factor, info = scipy.linalg.lapack.dpftrf(matrix.shape[0], packed, uplo="L")
    assert info == 0
    return factor


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
INF = float("inf")


@pytest.mark.parametrize("make, named", [
    pytest.param(lambda: krr_fit(kernel_from(np.eye(2)), np.ones(2), NAN), "lam", id="krr-lambda-nan"),
    pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=1, lam=NAN), "lam", id="train-lambda-nan"),
    pytest.param(lambda: TrainConfig("rdi", eta=NAN, steps=1), "learning rate", id="train-eta-nan"),
    pytest.param(lambda: TrainConfig("rdi", eta=float("inf"), steps=1), "learning rate", id="train-eta-inf"),
    pytest.param(lambda: BoundConfig(1.0, sigma=NAN), "sigma", id="bounds-sigma-nan"),
    pytest.param(lambda: krr_fit(kernel_from(np.eye(2)), np.ones(2), INF), "lam", id="krr-lambda-inf"),
    pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=1, lam=INF), "lam", id="train-lambda-inf"),
    pytest.param(lambda: BoundConfig(INF), "lambda", id="bounds-lambda-inf"),
    pytest.param(lambda: krr_fit(kernel_from(np.eye(2)), np.ones(2), 1e200), "lam", id="krr-lambda-square-overflows"),
    pytest.param(lambda: TrainConfig("rdi", eta=0.1, steps=1, lam=1e200), "lam", id="train-lambda-square-overflows"),
    pytest.param(lambda: BoundConfig(1e200), "lambda", id="bounds-lambda-square-overflows"),
    pytest.param(lambda: BoundConfig(1.0, sigma=INF), "sigma", id="bounds-sigma-inf"),
])
def test_non_finite_settings_rejected(make, named):
    # one rule, lambda >= 0 with a finite lambda^2, not x >= 0: a NaN lambda used to train as vanilla
    # and fail krr_fit as a singular solve, an infinite one or one whose square overflows did the
    # same, and a NaN or infinite sigma passed
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
        # the failed shift-0 rung overwrites the packed buffer (for [4, 9, 0]
        # its leading entries become 2 and 3); the next rung must factor K + jitter I
        values = np.diag(diagonal)
        solver = PSDSolver(values, 0.0)
        assert solver.jitter == 1e-10 * sum(diagonal) / 3
        expected = packed_factor(values + solver.jitter * np.eye(3))
        assert solver.factor.tobytes() == expected.tobytes()

    def test_jitter_ladder_refills_one_buffer(self, count_calls, traced_peak):
        # a rank-5 Gram matrix fails the shift-0 rung and factors at the first
        # jitter; the retry refills the failed rung's packed buffer of n(n+1)/2
        # floats instead of allocating a second one, and factors the same bits
        # as a fresh packing
        n = 600
        g = np.random.default_rng(0).standard_normal((n, 5))
        values = g @ g.T
        buffers = count_calls(krr_module, "cho_factor", record=lambda a, **k: k["out"])
        solver, peak = traced_peak(PSDSolver, values, 0.0)
        assert solver.jitter == 1e-10 * np.trace(values) / n
        assert len(buffers) == 2 and buffers[0] is buffers[1] is solver.factor
        assert peak <= 0.55 * n * n * 8
        expected = packed_factor(values.T + solver.jitter * np.eye(n))
        assert solver.factor.tobytes() == expected.tobytes()

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
        # the factor of the packed copy equals the factor of
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
            assert solver.factor.tobytes() == packed_factor(shifted).tobytes()
            assert solver.factor.shape == (40 * 41 // 2,)

    def test_near_symmetric_matrix_factors_its_upper_triangle(self):
        # K symmetric only within tolerance: K's memory read in Fortran order
        # is K^T, so the packed lower-triangle factor is that of the symmetric
        # matrix on K's upper triangle, and the residual is still checked
        # against K itself
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30))
        upper = a @ a.T / 30 + np.eye(30)
        upper = np.triu(upper) + np.triu(upper, 1).T
        values = upper.copy()
        values[np.tril_indices(30, -1)] *= 1.0 + 1e-12
        assert not np.array_equal(values, values.T)
        K = KernelMatrix.from_values(values)  # within the symmetry tolerance
        solver = K.solver(0.3)
        assert solver.factor.tobytes() == packed_factor(upper + 0.3 * np.eye(30)).tobytes()
        b = rng.standard_normal(30)
        x = solver.solve_checked(b)
        assert np.linalg.norm(values @ x + 0.3 * x - b) <= 1e-8 * np.linalg.norm(b)
        # an asymmetry the factored triangle cannot answer for fails the check
        skewed = upper.copy()
        skewed[np.tril_indices(30, -1)] *= 1.0 + 1e-4
        with pytest.raises(SingularityError, match="solve residual"):
            PSDSolver(skewed, 0.3).solve_checked(b)

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_empty_matrix_rejected(self, shift):
        # its jitter scale tr(K)/n used to divide by zero
        with pytest.raises(ValidationError, match="empty"):
            PSDSolver(np.empty((0, 0)), shift)

    def test_jitter_does_not_mask_inconsistent_system(self):
        # same matrix, right-hand side with a null-space component: the
        # residual check must fail loudly instead of returning garbage
        values = np.diag([1.0, 1.0, 0.0])
        solver = PSDSolver(values, 0.0)
        with pytest.raises(SingularityError):
            solver.solve_checked(np.array([1.0, 1.0, 1.0]))


def spd_matrix(n, seed=0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestLapackCalls:
    """``cho_factor`` and ``cho_solve`` make scipy's packed (RFP) LAPACK calls on the lower triangle in numpy's own OpenBLAS, importing no scipy."""

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_bit_equal_to_scipy(self, n):
        a = spd_matrix(n, seed=n)
        c = cho_factor(a)
        expected = packed_factor(a)
        assert c.shape == (n * (n + 1) // 2,) and c.tobytes() == expected.tobytes()
        b = np.random.default_rng(n + 1).standard_normal((n, 3))
        for rhs in (b, b[:, 0]):
            x = cho_solve(c, rhs)
            reference, info = scipy.linalg.lapack.dpftrs(n, expected, rhs.reshape(n, -1), uplo="L")
            assert info == 0
            assert x.shape == rhs.shape and x.tobytes() == reference.reshape(rhs.shape).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 50, 300, 1000])
    def test_bit_equal_to_numpy_cholesky(self, n):
        # one BLAS runtime: dpftrf first factors the leading n/2 x n/2 block
        # with the dpotrf call numpy's own Cholesky makes, to the bit; the
        # rest of the factor goes through its own dtrsm and dsyrk, so it
        # matches numpy's full Cholesky only up to rounding
        a = spd_matrix(n, seed=n)
        factor, info = scipy.linalg.lapack.dtfttr(n, cho_factor(a), uplo="L")
        assert info == 0
        factor = np.tril(factor)
        k = n // 2
        assert factor[:k, :k].tobytes() == np.linalg.cholesky(a[:k, :k]).tobytes()
        expected = np.linalg.cholesky(a)
        if n == 1:
            assert factor.tobytes() == expected.tobytes()
        assert np.max(np.abs(factor - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [*range(1, 10), 600])
    def test_packed_diagonal_positions(self, n):
        # where dtrttf puts the diagonal, which is where a shift is added
        packed, _ = scipy.linalg.lapack.dtrttf(np.diag(np.arange(1.0, n + 1)), uplo="L")
        positions = krr_module._packed_diagonal(n)
        assert np.array_equal(packed[positions], np.arange(1.0, n + 1))

    def test_shifts_are_added_in_turn(self):
        a = spd_matrix(9)
        a[0, 5] = a[5, 0] = -0.0
        c = cho_factor(a, shifts=(0.1, 1e-9))
        assert c.tobytes() == packed_factor((a + 0.1 * np.eye(9)) + 1e-9 * np.eye(9)).tobytes()

    @pytest.mark.parametrize("a", [-np.eye(3), np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 1.0, 0.0])],
                             ids=["negative", "indefinite", "singular"])
    def test_not_positive_definite_raises_linalg_error(self, a):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            cho_factor(a)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_real_input_converted_to_float64(self, dtype):
        c = cho_factor(4 * np.eye(3, dtype=dtype))
        assert c.dtype == np.float64 and c.tobytes() == scipy.linalg.lapack.dtrttf(2 * np.eye(3), uplo="L")[0].tobytes()
        x = cho_solve(c, np.arange(3, dtype=dtype))
        assert x.dtype == np.float64 and np.array_equal(x, np.arange(3) / 4)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError):
            cho_factor(np.ones(shape))

    def test_mismatched_right_hand_side_rejected(self):
        with pytest.raises(ValueError, match="incompatible dimensions"):
            cho_solve(cho_factor(spd_matrix(4)), np.ones(5))

    def test_out_buffer_takes_the_factor(self):
        # a is never written, in either memory order; out receives the factor
        for a in (spd_matrix(6), np.asfortranarray(spd_matrix(6))):
            before = a.copy()
            c = cho_factor(a)
            assert a.tobytes() == before.tobytes() and not np.shares_memory(a, c)
            out = np.full(21, np.nan)
            c_out = cho_factor(a, out=out)
            assert c_out is out and out.tobytes() == c.tobytes() and a.tobytes() == before.tobytes()
        for wrong in (np.empty(20), np.empty(21, dtype=np.float32), np.empty(42)[::2]):
            with pytest.raises(ValueError, match="out must be"):
                cho_factor(a, out=wrong)

    def test_right_hand_side_not_written(self):
        c = cho_factor(spd_matrix(5))
        b = np.asfortranarray(np.random.default_rng(2).standard_normal((5, 2)))
        before = b.copy()
        cho_solve(c, b)
        assert b.tobytes() == before.tobytes()

    def test_fallback_through_scipy_linalg_gives_the_same_bits(self, tmp_path):
        # fresh interpreters, one finding numpy's OpenBLAS and one whose lookup
        # misses: only the miss imports scipy, and it gives scipy.linalg's bits
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from ntkreg import krr\n"
            "if sys.argv[2] == 'miss':\n"
            "    krr._openblas_lapack = lambda: None\n"
            "a = np.load(sys.argv[1])\n"
            "c = krr.cho_factor(a)\n"
            "np.save(sys.argv[3], np.concatenate([c, krr.cho_solve(c, a).ravel()]))\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        a = spd_matrix(50)
        np.save(tmp_path / "a.npy", a)
        c = cho_factor(a)
        primary = np.concatenate([c, cho_solve(c, a).ravel()])
        reference = packed_factor(a)
        reference = np.concatenate([reference, scipy.linalg.lapack.dpftrs(50, reference, a, uplo="L")[0].ravel()])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ntkreg.__file__)))
        results = {}
        for lookup in ("numpy", "miss"):
            out = tmp_path / f"{lookup}.npy"
            run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.npy"), lookup, str(out)],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            results[lookup] = (json.loads(run.stdout), np.load(out))
        assert results["numpy"][0] == [] and results["numpy"][1].tobytes() == primary.tobytes()
        assert "scipy.linalg" in results["miss"][0] and results["miss"][1].tobytes() == reference.tobytes()
        assert np.max(np.abs(results["miss"][1] - primary)) <= 1e-13 * np.max(np.abs(primary))


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


class TestComplexInput:
    """Complex input fails as a ValidationError at each public edge, before the float64 cast would drop its imaginary part."""

    def test_fit_targets(self):
        with pytest.raises(ValidationError, match="targets must be real"):
            krr_fit(kernel_from(np.eye(3)), np.array([1, 1j, 0]), 1.0)

    def test_kernel_matrix_values(self):
        with pytest.raises(ValidationError, match="kernel matrix must be real"):
            KernelMatrix.from_values(np.eye(3) * (1 + 1j))

    def test_inverse_form_rows(self):
        with pytest.raises(ValidationError, match="rows must be real"):
            kernel_from(np.eye(3)).inverse_form(np.array([[1.0, 1j, 0.0]]))

    def test_solver_matrix(self):
        with pytest.raises(ValidationError, match="matrix to factor must be real"):
            PSDSolver(np.eye(3) * (1 + 1j), 0.5)

    def test_checked_solve_right_hand_side(self):
        with pytest.raises(ValidationError, match="right-hand side must be real"):
            PSDSolver(np.eye(2), 0.5).solve_checked(np.array([1.0, 1j]))

    # each case passes a complex array whose real part the call would accept
    BEYOND_THE_SOLVER = {
        "quad_form_inv": lambda: quad_form_inv(kernel_from(np.eye(3)), np.array([1, 1j, 0])),
        "lemma2_bound": lambda: lemma2_bound(kernel_from(np.eye(2)), np.array([1.0, 1j]), 0.5, 1.0, 0.1),
        "bound_additive": lambda: bound_additive(kernel_from(np.eye(2)), np.array([0.5, 0.5j]),
                                                 BoundConfig(lam=1.0, sigma=0.5, delta=0.1)),
        "bound_binary": lambda: bound_binary(kernel_from(np.eye(2)), np.array([1, -1], dtype=complex),
                                             0.1, 1.0, 0.1),
        "bound_multiclass": lambda: bound_multiclass(kernel_from(np.eye(2)), np.eye(2, dtype=complex),
                                                     np.eye(2), 1.0, 0.1),
        "bound_multiclass-transition": lambda: bound_multiclass(kernel_from(np.eye(2)), np.eye(2),
                                                                np.eye(2, dtype=complex), 1.0, 0.1),
        "ramp_loss": lambda: ramp_loss(np.array([0.5, 0.5j]), np.array([1.0, -1.0]), 0.1),
        "ramp_loss-labels": lambda: ramp_loss(np.array([0.5, 0.5]), np.array([1, -1], dtype=complex), 0.1),
        "run_gd_rdi": lambda: run_gd_rdi(LinearizedModel(K=kernel_from(np.eye(2))), np.array([1.0, 1j]), 1.0,
                                         steps=1),
        "predict": lambda: tangent_model().predict(np.full(4, 1j), np.eye(3)[:1]),
        "DataSet-inputs": lambda: DataSet(np.eye(2, dtype=complex), np.ones(2), np.ones(2), "binary"),
        "DataSet-labels": lambda: DataSet(np.eye(2), np.array([1, -1], dtype=complex), np.ones(2), "binary"),
        "ClassTransition": lambda: ClassTransition(np.eye(2, dtype=complex)),
        "validate_transition": lambda: validate_transition(np.eye(2) + 0j),
        "rescale_binary": lambda: rescale_binary(np.array([1, -1], dtype=complex), 0.1),
    }

    @pytest.mark.parametrize("call", list(BEYOND_THE_SOLVER))
    def test_beyond_the_solver(self, call):
        with pytest.raises(ValidationError, match="must be real"):
            self.BEYOND_THE_SOLVER[call]()


def tangent_model():
    """A linearized width-8 net on four unit inputs in three dimensions."""
    data = DataSet(np.vstack([np.eye(3), -np.eye(3)[:1]]), np.ones(4), np.ones(4), "binary")
    return linearize(init_mlp(NetConfig(input_dim=3, widths=(8,)), 0), data)


class TestShiftedSolvers:
    """The solvers of K + shift I that a KernelMatrix builds and keeps."""

    def test_matches_fresh_solver_bitwise(self):
        rng = np.random.default_rng(7)
        K = random_psd_kernel(rng, 12)
        y = rng.standard_normal(12)
        for shift in (0.0, 0.25, 4.0, 0.25):
            assert np.array_equal(K.solver(shift).solve_checked(y), PSDSolver(K.values, shift).solve_checked(y))
        assert float(y @ K.solver(1.0).solve_checked(y)) == float(y @ PSDSolver(K.values, 1.0).solve_checked(y))

    def test_keeps_one_factor_at_a_time(self):
        # one factor at a time: each new shift releases the last one's
        K = random_psd_kernel(np.random.default_rng(8), 6)
        zero = K.solver(0.0)
        first = K.solver(1.0)
        assert K.solver(1.0) is first
        assert list(K._factors.values()) == [first]
        K.solver(4.0)
        assert K.solver(0.0) is not zero  # evicted by shift 1, refactored
        assert K.solver(1.0) is not first  # evicted by shift 4, refactored
        assert len(K._factors) == 1

    def test_inverse_form_is_solved_once_per_shift_and_rows(self, count_calls):
        K = random_psd_kernel(np.random.default_rng(10), 8)
        rows = np.random.default_rng(11).standard_normal((3, 8))
        form = K.inverse_form(rows, 0.5)
        dense = rows @ np.linalg.solve(K.values + 0.5 * np.eye(8), rows.T)
        assert np.max(np.abs(form - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert not form.flags.writeable
        # one row is solved as a vector, as the bounds' quadratic forms always were
        single = K.inverse_form(rows[1], 0.5)
        assert single.shape == (1, 1)
        assert single[0, 0] == rows[1] @ PSDSolver(K.values, 0.5).solve_checked(rows[1])
        K.solver(0.0)  # releases the factor of shift 0.5
        factors, solves = count_calls(krr_module, "cho_factor"), count_calls(krr_module, "cho_solve")
        assert K.inverse_form(rows, 0.5) is form
        assert K.inverse_form(rows[1], 0.5) is single
        assert factors + solves == []

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

    def test_fresh_process_solve_gives_the_in_process_bits(self, tmp_path):
        # a fresh interpreter that builds a KernelMatrix from stored values and
        # makes its first factorization there solves to the same bits as this process
        ds = synth_sphere(10, 4, "linear-sign", seed=3)
        K = analytic_ntk(2, ds)
        path = tmp_path / "k.npy"
        np.save(path, K.values)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from ntkreg._kernelmatrix import KernelMatrix\n"
            "K = KernelMatrix.from_values(np.load(sys.argv[1]))\n"
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
        lines = Path(path).read_text().strip().split("\n")
        assert lines[0] == "query_id,output_1,predicted_class"
        assert len(lines) == 4

    def test_returns_the_written_outputs(self, tmp_path):
        ds = synth_sphere(6, 4, "linear-sign", seed=1)
        p = krr_fit(analytic_ntk(2, ds), ds.noisy_labels, 0.5, kernel_source=AnalyticNTK(2),
                    train_data=ds)
        values = export_predictions(p, ds.inputs, tmp_path / "preds.csv")
        assert np.array_equal(values, p.predict(ds.inputs))
        lines = (tmp_path / "preds.csv").read_text().strip().split("\n")[1:]
        assert [float(line.split(",")[1]) for line in lines] == list(values)


class TestBlockSolve:
    """``solve_checked`` on an (n, k) block: one ``dpotrs``, one product with K, a check per column."""

    @pytest.mark.parametrize("n, k", [(200, 3), (500, 27)])
    def test_columns_match_single_solves(self, n, k):
        # a narrow block gives each column the bits of its single solve; OpenBLAS
        # may split a wide block's triangular solves differently (at n=500 and
        # 27 columns on 2 cores they moved by 2.7e-15 of the largest entry)
        K = analytic_ntk(2, synth_sphere(n, 10, "linear-sign", seed=1))
        B = np.random.default_rng(11).standard_normal((n, k))
        for shift in (0.0, 0.25):
            solver = K.solver(shift)
            block = solver.solve_checked(B)
            singles = np.stack([solver.solve_checked(B[:, j]) for j in range(k)], axis=1)
            if k == 3:
                assert np.array_equal(block, singles)
            else:
                assert np.max(np.abs(block - singles)) <= 1e-13 * np.max(np.abs(singles))

    def test_fit_is_one_lapack_call(self, count_calls):
        from ntkreg import krr as krr_module

        K = random_psd_kernel(np.random.default_rng(12), 9)
        calls = count_calls(krr_module, "cho_solve", record=lambda c, b: np.shape(b))
        krr_fit(K, np.random.default_rng(13).standard_normal((5, 9)), 0.7)
        assert calls == [(9, 5)]

    def test_each_column_checked_on_its_own(self):
        # [1, 1, 1] has a null-space component of diag(1, 1, 0); its neighbours lie in the range
        solver = PSDSolver(np.diag([1.0, 1.0, 0.0]), 0.0)
        B = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 2.0, 0.0]]).T
        with pytest.raises(SingularityError, match="solve residual") as failed:
            solver.solve_checked(B)
        assert failed.value.columns == (1,)
        x = solver.solve_checked(B[:, [0, 2]])
        assert np.allclose(x, [[1.0, 0.0], [1.0, 2.0], [0.0, 0.0]], rtol=0, atol=1e-8)
        with pytest.raises(SingularityError) as failed:
            solver.solve_checked(B[:, 1])
        assert failed.value.columns is None

    def test_fit_names_its_failed_rows(self):
        K = kernel_from(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(SingularityError) as failed:
            krr_fit(K, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), 0.0)
        assert failed.value.columns == (1, 2)


class TestTargetMatrix:
    def test_rows_solved_against_one_factorization(self, count_calls):
        from ntkreg import krr as krr_module

        rng = np.random.default_rng(10)
        K = random_psd_kernel(rng, 9)
        targets = rng.standard_normal((3, 9))
        factors = count_calls(krr_module, "cho_factor")
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
