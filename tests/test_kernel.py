"""Analytic recursion spot values, empirical Gram correctness, concentration."""

import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntkreg
from ntkreg import _kernelmatrix as kernelmatrix_module
from ntkreg import cli
from ntkreg import kernel as kernel_module
from ntkreg import krr as krr_module
from ntkreg._kernelmatrix import MIRROR_BLOCK_ROWS, KernelMatrix, mirror_upper
from ntkreg.bounds import bound_binary
from ntkreg.data import DataSet, synth_sphere
from ntkreg.errors import ValidationError
from ntkreg.kernel import (
    COS_CLAMP_TOL,
    AnalyticNTK,
    EmpiricalNTK,
    analytic_ntk,
    analytic_ntk_cross,
    arccos_kernel0,
    arccos_kernel1,
    empirical_ntk,
    empirical_ntk_cross,
)
from ntkreg.krr import krr_fit
from ntkreg.linmodel import LinearizedModel, closed_form_limit
from ntkreg.net import BLOCK_ENTRIES, NetConfig, gradient, init_mlp

# Hand evaluations of the recursion for depth 2:
#   pair at cosine u: T = u k0(u) + k1(u)
#   u = 1: 1 * 1 + 1 = 2;  u = 0: 0 * 1/2 + 1/pi = 1/pi
DEPTH2_DIAG = 2.0
DEPTH2_ORTHOGONAL = 1.0 / np.pi


def first_read(K, kind):
    """K after its first decomposition read, of ``kind``, which certifies it: a factor, a spectrum or an eigh."""
    {"factor": lambda: K.solver(0.0), "spectrum": lambda: K.op_norm, "eigh": lambda: K.eigh}[kind]()
    return K


def basis_dataset(n, d):
    x = np.eye(d)[:n]
    return DataSet(x, np.ones(n), np.ones(n), "binary")


class TestArcCosineHelpers:
    def test_endpoint_identities_exact(self):
        assert arccos_kernel0(1.0) == 1.0
        assert arccos_kernel1(1.0) == 1.0
        assert arccos_kernel0(-1.0) == 0.0
        assert arccos_kernel1(-1.0) == 0.0

    def test_range_and_monotonicity(self):
        u = np.linspace(-1.0, 1.0, 2001)
        k0, k1 = arccos_kernel0(u), arccos_kernel1(u)
        assert np.all((k0 >= 0.0) & (k0 <= 1.0))
        assert np.all((k1 >= -1e-15) & (k1 <= 1.0))
        assert np.all(np.diff(k0) > 0.0)
        assert np.all(np.diff(k1) >= 0.0)


class TestAnalyticKernel:
    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_diagonal_is_depth_exact(self, depth):
        ds = synth_sphere(12, 7, "linear-sign", seed=0)
        K = analytic_ntk(depth, ds)
        assert np.all(np.diag(K.values) == float(depth))

    def test_orthogonal_pair_depth2(self):
        K = analytic_ntk(2, basis_dataset(4, 4))
        off = K.values[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off - DEPTH2_ORTHOGONAL)) <= 1e-15

    @pytest.mark.parametrize(
        "call",
        [lambda ds: analytic_ntk(2.5, ds), lambda ds: analytic_ntk_cross(2.0, ds.inputs, ds),
         lambda ds: AnalyticNTK(3.0).gram(ds)],
        ids=["gram-2.5", "cross-2.0", "source-3.0"],
    )
    def test_depth_is_an_integer(self, call):
        # a float depth passed the depth check and raised TypeError from range in the recursion
        ds = synth_sphere(5, 3, "linear-sign", seed=0)
        with pytest.raises(ValidationError, match="^depth must be an integer"):
            call(ds)
        with pytest.raises(ValidationError, match="^depth must be >= 2, got 1$"):
            analytic_ntk(1, ds)

    def test_trace_proportional_to_n(self):
        for n in (5, 20, 80):
            ds = synth_sphere(n, 6, "linear-sign", seed=1)
            K = analytic_ntk(2, ds)
            assert K.trace / n == DEPTH2_DIAG

    def test_duplicated_rows_give_equal_entries(self):
        ds = synth_sphere(5, 6, "linear-sign", seed=2)
        x = ds.inputs.copy()
        x[3] = x[1]
        dup = DataSet(x, ds.clean_labels, ds.noisy_labels, "binary")
        K = analytic_ntk(2, dup).values
        assert K[1, 3] == K[1, 1] == K[3, 3]

    def test_rejects_non_unit_rows(self):
        bad = DataSet(2.0 * np.eye(3), np.ones(3), np.ones(3), "binary", normalized=False)
        with pytest.raises(ValidationError):
            analytic_ntk(2, bad)

    def test_rejects_cosine_above_clamp(self):
        # rows pass the 1e-8 norm check individually but a parallel pair
        # pushes the dot product beyond 1 + 1e-12
        x = np.vstack([np.eye(3)[0] * (1.0 + 5e-9), np.eye(3)[0] * (1.0 + 5e-9), np.eye(3)[1]])
        ds = DataSet(x, np.ones(3), np.ones(3), "binary", normalized=False)
        with pytest.raises(ValidationError):
            analytic_ntk(2, ds)

    def test_symmetry_exact(self):
        ds = synth_sphere(15, 5, "linear-sign", seed=3)
        K = analytic_ntk(3, ds).values
        assert np.array_equal(K, K.T)


def reference_cosines(u):
    """The cosine clamp composed out of place: clip, then snap to +-1 within the tolerance."""
    u = np.clip(u, -1.0, 1.0)
    u = np.where(u > 1.0 - COS_CLAMP_TOL, 1.0, u)
    return np.where(u < -1.0 + COS_CLAMP_TOL, -1.0, u)


def reference_recursion(u, depth):
    """T_{depth-1} composed from the public arc-cosine kernels, one level at a time."""
    s, t = u, u.copy()
    for _ in range(depth - 1):
        k0 = arccos_kernel0(s)
        s = arccos_kernel1(s)
        t = t * k0 + s
    return t


def reference_gram(depth, x):
    u = x @ x.T
    u = reference_cosines(np.triu(u) + np.triu(u, 1).T)
    np.fill_diagonal(u, 1.0)
    return reference_recursion(u, depth)


def reference_cross(depth, queries, x):
    return reference_recursion(reference_cosines(queries @ x.T), depth)


def near_endpoint_inputs(n, d, seed):
    """Unit rows whose first three cosines with row 0 lie within 1e-13 of +-1."""
    x = synth_sphere(n, d, "linear-sign", seed=seed).inputs.copy()
    tilt = np.eye(d)[1] - x[0, 1] * x[0]
    tilt /= np.linalg.norm(tilt)
    for row, sign, angle in ((1, 1.0, 3e-7), (2, -1.0, 3e-7), (3, 1.0, 1e-7)):
        x[row] = sign * (np.cos(angle) * x[0] + np.sin(angle) * tilt)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


class TestFusedRecursion:
    """The row-blocked recursion is bitwise the composition of arccos_kernel0/1."""

    # 700 rows are 7 full blocks of 93 and one of 49
    N = 700

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_gram_matches_reference_bitwise(self, depth):
        assert self.N % (BLOCK_ENTRIES // self.N) != 0
        ds = synth_sphere(self.N, 10, "linear-sign", seed=11)
        K = analytic_ntk(depth, ds).values
        assert K.tobytes() == reference_gram(depth, ds.inputs).tobytes()

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("m", [250, 5])
    def test_cross_matches_reference_bitwise(self, depth, m):
        ds = synth_sphere(self.N, 10, "linear-sign", seed=12)
        queries = synth_sphere(m, 10, "linear-sign", seed=13).inputs
        cross = analytic_ntk_cross(depth, queries, ds)
        assert cross.shape == (m, self.N)
        assert cross.tobytes() == reference_cross(depth, queries, ds.inputs).tobytes()

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_small_blocks_match_reference_bitwise(self, depth, monkeypatch):
        # blocks of 3 rows, the last one of 2, on both the Gram and a cross kernel
        monkeypatch.setattr(kernel_module, "BLOCK_ENTRIES", 3 * 41)
        ds = synth_sphere(41, 6, "linear-sign", seed=14)
        queries = synth_sphere(17, 6, "linear-sign", seed=15).inputs
        K = analytic_ntk(depth, ds).values
        assert K.tobytes() == reference_gram(depth, ds.inputs).tobytes()
        cross = analytic_ntk_cross(depth, queries, ds)
        assert cross.tobytes() == reference_cross(depth, queries, ds.inputs).tobytes()

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_near_endpoint_cosines_snap(self, depth):
        x = near_endpoint_inputs(40, 6, seed=16)
        cosines = x[0] @ x[1:4].T
        assert np.all(np.abs(np.abs(cosines) - 1.0) < 1e-13)
        assert np.all(np.abs(cosines) != 1.0)  # so only the snap makes them endpoints
        ds = DataSet(x, np.ones(40), np.ones(40), "binary")
        K = analytic_ntk(depth, ds).values
        assert K.tobytes() == reference_gram(depth, x).tobytes()
        antipodal = reference_recursion(np.array([[-1.0]]), depth)[0, 0]
        assert K[0, 1] == K[0, 3] == float(depth) and K[0, 2] == antipodal
        cross = analytic_ntk_cross(depth, x[:4], ds)
        assert cross.tobytes() == reference_cross(depth, x[:4], x).tobytes()
        assert cross[0, 1] == cross[0, 3] == float(depth) and cross[0, 2] == antipodal


class TestBuildMemory:
    """A Gram build holds at most two n x n arrays at once; a cross kernel one m x n.

    Besides those, the recursion allocates at most four blocks of scratch
    (three of floats and the clamp's bool masks) and the unit-norm checks O(n d).
    A solve at another shift replaces the first read's factor with its own,
    so K and one packed factor of n(n+1)/2 floats stay the largest arrays.
    """

    def test_gram_peak_within_two_and_a_half_matrices(self, traced_peak):
        n = 600
        ds = synth_sphere(n, 10, "linear-sign", seed=17)
        K, peak = traced_peak(lambda: first_read(analytic_ntk(3, ds), "factor"))
        assert K.solver(0.0).jitter == 0.0  # the first read's factor, which certifies K, is part of the peak
        assert peak <= 2.5 * n * n * 8

    @pytest.mark.parametrize("read", [
        lambda K, y: krr_fit(K, y, 1.0),
        lambda K, y: bound_binary(K, y, 0.2, lam=1.0, delta=0.1),
    ], ids=["krr_fit", "bound_binary"])
    def test_solve_after_build_peaks_at_two_matrices(self, read, traced_peak):
        n = 600
        ds = synth_sphere(n, 10, "linear-sign", seed=17)
        _, peak = traced_peak(lambda: read(analytic_ntk(3, ds), ds.clean_labels))
        assert peak <= 2.1 * n * n * 8

    def test_krr_command_peaks_at_two_matrices_and_the_cross_kernel(self, tmp_path, traced_peak):
        # K and the fit's factor, then the test cross kernel with its four blocks of scratch
        n, m = 600, 200
        block = min(m, BLOCK_ENTRIES // n) * n
        config = tmp_path / "krr.json"
        config.write_text(json.dumps({
            "dataset": {"kind": "synth-sphere", "n": n, "d": 10, "target": "linear-sign", "seed": 17, "test_n": m},
            "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "analytic", "depth": 3},
            "lambda": 1.0,
            "out": str(tmp_path / "krr"),
        }))
        code, peak = traced_peak(lambda: cli.main(["krr", "--config", str(config)]))
        assert code == cli.EXIT_OK
        assert peak <= (2.1 * n * n + m * n + 4 * block) * 8

    def test_krr_command_peaks_below_k_and_a_full_factor(self, tmp_path, traced_peak):
        # K plus its packed factor (1.5 n^2 floats) set the peak; K is released
        # before the test cross kernel is built, so C never stands beside them
        n, m = 600, 200
        config = tmp_path / "krr.json"
        config.write_text(json.dumps({
            "dataset": {"kind": "synth-sphere", "n": n, "d": 10, "target": "linear-sign", "seed": 17, "test_n": m},
            "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "analytic", "depth": 3},
            "lambda": 1.0,
            "out": str(tmp_path / "krr"),
        }))
        code, peak = traced_peak(lambda: cli.main(["krr", "--config", str(config)]))
        assert code == cli.EXIT_OK
        assert peak < 2 * n * n * 8

    @pytest.mark.parametrize("failed_column", [None, 1], ids=["all-ok", "failed-column"])
    def test_krr_sweep_peaks_below_k_and_a_full_factor(self, tmp_path, monkeypatch, traced_peak, failed_column):
        # a sweep group releases K and its factor before it builds the test cross kernel, as the
        # krr command does, also with as many test points as training points and bounded cells,
        # and after a cell failed: its kept error holds no frame that holds K
        n = 600
        if failed_column is not None:
            solve = krr_module.cho_solve

            def spoiled(c, b):
                x = solve(c, b)
                if np.shape(b) == (n, 4):  # each ridge's first block, of all four draws
                    x[:, failed_column] += 1.0
                return x

            monkeypatch.setattr(krr_module, "cho_solve", spoiled)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "dataset": {"kind": "synth-sphere", "n": n, "d": 10, "target": "linear-sign", "seed": 17, "test_n": n},
            "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "analytic", "depth": 3},
            "method": "krr",
            "lambda_grid": [0.0, 1.0],
            "noise_grid": [0.0, 0.2],
            "seeds": [0, 1],
            "out": str(tmp_path / "sweep"),
        }))
        code, peak = traced_peak(lambda: cli.main(["sweep", "--config", str(config)]))
        assert code == cli.EXIT_OK
        statuses = [row.split(",")[-1] for row in (tmp_path / "sweep" / "results.csv").read_text().split()[1:]]
        assert statuses.count("ok") == (8 if failed_column is None else 6)
        assert peak < 2 * n * n * 8

    def test_gram_values_peak_is_one_matrix_and_four_blocks(self, traced_peak):
        # the values before the certificate: the recursion overwrites the
        # cosines in place and mirror_upper copies K's upper triangle in place
        n, d = 600, 10
        x = synth_sphere(n, d, "linear-sign", seed=17).inputs
        block = min(n, BLOCK_ENTRIES // n) * n
        values, peak = traced_peak(
            lambda: mirror_upper(kernel_module._kernel_bands(x @ x.T, 3, gram=True))
        )
        assert values.tobytes() == reference_gram(3, x).tobytes()
        assert peak <= (n * n + 4 * block + n * d) * 8

    @pytest.mark.parametrize("m, n", [(5, 600), (300, 600), (600, 800)])
    def test_cross_peak_is_one_matrix_and_four_blocks(self, m, n, traced_peak):
        d = 10
        ds = synth_sphere(n, d, "linear-sign", seed=18)
        queries = synth_sphere(m, d, "linear-sign", seed=19).inputs
        block = min(m, BLOCK_ENTRIES // n) * n
        _, peak = traced_peak(lambda: analytic_ntk_cross(3, queries, ds))
        assert peak <= (m * n + 4 * block + n * d) * 8


class TestMirrorUpper:
    def test_matches_triangle_sum_bitwise_in_place(self):
        # n spans two full bands and a partial one; signed zeros on both sides
        n = 2 * MIRROR_BLOCK_ROWS + 17
        values = np.random.default_rng(20).standard_normal((n, n))
        values[np.random.default_rng(21).random((n, n)) < 0.1] = -0.0
        expected = np.triu(values) + np.triu(values, 1).T
        assert np.any(np.signbit(values) & (values == 0.0))
        assert mirror_upper(values) is values
        assert values.tobytes() == expected.tobytes()


class TestEmpiricalKernel:
    def test_single_input_nonnegative(self):
        ds = synth_sphere(1, 5, "linear-sign", seed=0)
        cfg = NetConfig(input_dim=5, widths=(32,), freeze_first_last=False, difference_trick=True)
        K = empirical_ntk(init_mlp(cfg, 0), ds)
        assert K.values.shape == (1, 1)
        assert K.values[0, 0] >= 0.0

    @pytest.mark.parametrize("certificate, owner, name", [("factor", krr_module, "cho_factor"),
                                                          ("spectrum", np.linalg, "eigvalsh"),
                                                          ("eigh", np.linalg, "eigh")])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_factors_are_freed_before_the_certificate(self, factor_refs, count_calls, certificate, owner, name,
                                                       freeze):
        ds = synth_sphere(20, 5, "linear-sign", seed=4)
        refs = factor_refs(kernel_module, keep=(ds.inputs,))
        alive = count_calls(owner, name, record=lambda *args, **kwargs: sum(ref() is not None for ref in refs))
        mlp = init_mlp(NetConfig(input_dim=5, widths=(48,), freeze_first_last=freeze), 4)
        K = first_read(empirical_ntk(mlp, ds), certificate)
        assert refs and alive == [0] and K.n == 20

    def test_duplicated_rows_exact(self):
        ds = synth_sphere(6, 5, "linear-sign", seed=1)
        x = ds.inputs.copy()
        x[4] = x[2]
        dup = DataSet(x, ds.clean_labels, ds.noisy_labels, "binary")
        cfg = NetConfig(input_dim=5, widths=(64,), freeze_first_last=False, difference_trick=False)
        K = empirical_ntk(init_mlp(cfg, 1), dup).values
        assert K[2, 4] == K[2, 2] == K[4, 4]

    def test_symmetry_and_psd(self):
        ds = synth_sphere(10, 5, "linear-sign", seed=2)
        cfg = NetConfig(input_dim=5, widths=(64,), freeze_first_last=False, difference_trick=True)
        K = empirical_ntk(init_mlp(cfg, 2), ds)
        assert np.array_equal(K.values, K.values.T)
        assert K.min_eig >= -1e-8 * K.trace / K.n

    def test_matches_explicit_gradient_dots(self):
        # direct inner-product oracle against flattened gradients
        ds = synth_sphere(6, 4, "linear-sign", seed=3)
        cfg = NetConfig(input_dim=4, widths=(16,), freeze_first_last=True, difference_trick=True)
        mlp = init_mlp(cfg, 3)
        K = empirical_ntk(mlp, ds).values
        for i in range(6):
            gi = gradient(mlp, ds.inputs[i], at_init=True)
            for j in range(6):
                gj = gradient(mlp, ds.inputs[j], at_init=True)
                assert abs(K[i, j] - gi @ gj) <= 1e-10 * max(abs(K[i, j]), 1.0)

    def test_taken_at_init_not_current_params(self):
        ds = synth_sphere(5, 4, "linear-sign", seed=4)
        cfg = NetConfig(input_dim=4, widths=(16,), freeze_first_last=False, difference_trick=False)
        mlp = init_mlp(cfg, 4).copy()
        before = empirical_ntk(mlp, ds).values
        mlp.params[0][0] += 0.5  # move current params away from the snapshot
        after = empirical_ntk(mlp, ds).values
        assert np.array_equal(before, after)

    def test_width_concentration_smoke(self):
        ds = synth_sphere(12, 6, "linear-sign", seed=5)
        analytic = analytic_ntk(2, ds).values
        errs = []
        for width in (64, 512):
            cfg = NetConfig(input_dim=6, widths=(width,), freeze_first_last=False,
                            difference_trick=False)
            emp = empirical_ntk(init_mlp(cfg, 7), ds).values
            errs.append(np.linalg.norm(emp - analytic) / np.linalg.norm(analytic))
        assert errs[1] < errs[0]
        assert errs[1] < 0.2


class TestKernelCross:
    def test_training_point_matches_column(self):
        ds = synth_sphere(8, 5, "linear-sign", seed=6)
        K = analytic_ntk(2, ds).values
        for j in (0, 3, 7):
            row = AnalyticNTK(2).cross(ds.inputs[j], ds)[0]
            assert np.allclose(row, K[:, j], rtol=0, atol=1e-10)
        cfg = NetConfig(input_dim=5, widths=(32,), freeze_first_last=True, difference_trick=True)
        mlp = init_mlp(cfg, 5)
        Ke = empirical_ntk(mlp, ds).values
        for j in (0, 4):
            row = EmpiricalNTK(mlp).cross(ds.inputs[j], ds)[0]
            assert np.allclose(row, Ke[:, j], rtol=1e-10, atol=1e-12)

    def test_orthogonal_query_depth2(self):
        ds = basis_dataset(4, 6)
        cross = analytic_ntk_cross(2, np.eye(6)[5], ds)
        assert np.allclose(cross, DEPTH2_ORTHOGONAL, rtol=0, atol=1e-15)

    def test_empirical_matches_gradient_oracle(self):
        ds = synth_sphere(5, 4, "linear-sign", seed=8)
        cfg = NetConfig(input_dim=4, widths=(24,), freeze_first_last=False, difference_trick=True)
        mlp = init_mlp(cfg, 8)
        q = np.random.default_rng(3).standard_normal(4)
        q /= np.linalg.norm(q)
        row = EmpiricalNTK(mlp).cross(q, ds)[0]
        gq = gradient(mlp, q, at_init=True)
        for i in range(5):
            gi = gradient(mlp, ds.inputs[i], at_init=True)
            assert abs(row[i] - gq @ gi) <= 1e-10 * max(abs(row[i]), 1.0)

    def test_batch_queries(self):
        ds = synth_sphere(6, 5, "linear-sign", seed=9)
        queries = synth_sphere(3, 5, "linear-sign", seed=10).inputs
        out = AnalyticNTK(2).cross(queries, ds)
        assert out.shape == (3, 6)

    @pytest.mark.parametrize("source", ["analytic", "empirical"])
    def test_empty_query_set_gives_zero_rows(self, source):
        ds = synth_sphere(6, 5, "linear-sign", seed=9)
        mlp = init_mlp(NetConfig(input_dim=5, widths=(16,)), 1)
        kernel = AnalyticNTK(2) if source == "analytic" else EmpiricalNTK(mlp)
        none = np.empty((0, 5))
        assert kernel.cross(none, ds).shape == (0, 6)
        assert krr_fit(kernel.gram(ds), ds.clean_labels, 1.0, kernel, ds).predict(none).shape == (0,)
        cross = analytic_ntk_cross if source == "analytic" else empirical_ntk_cross
        assert cross(2 if source == "analytic" else mlp, none, ds).shape == (0, 6)

    def test_empirical_cross_peak_does_not_grow_with_queries(self, traced_peak):
        # X's factors (one branch's, 300 x 2048 floats, 4.9 MB) and their gradient pass
        # are needed whatever m is; beyond them and the (m, n) result, 2000
        # queries must cost no more than 200 do, while one pass over them
        # would hold 2 x 2000 x 2048 floats of factors (65.5 MB)
        mlp = init_mlp(NetConfig(input_dim=10, widths=(2048,)), 0)
        ds = synth_sphere(300, 10, "linear-sign", seed=2)
        queries = synth_sphere(2000, 10, "linear-sign", seed=1).inputs
        beyond = []
        for m in (200, 2000):
            cross, peak = traced_peak(empirical_ntk_cross, mlp, queries[:m], ds)
            assert cross.shape == (m, 300)
            beyond.append(peak - cross.nbytes)
        assert beyond[1] <= beyond[0] + 1e6


class TestConstructionInvariants:
    """Every produced kernel matrix passes its symmetry and PSD checks."""

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=2, max_value=15),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
    )
    def test_analytic_construction_never_fails(self, n, d, seed, depth):
        ds = synth_sphere(n, d, "linear-sign", seed=seed)
        K = analytic_ntk(depth, ds)  # construction validates symmetry and PSD
        assert K.min_eig >= -1e-8 * K.trace / K.n
        assert np.array_equal(K.values, K.values.T)

    @settings(deadline=None, max_examples=10)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=4, max_value=48),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_empirical_construction_never_fails(self, n, width, seed):
        ds = synth_sphere(n, 5, "linear-sign", seed=seed)
        cfg = NetConfig(input_dim=5, widths=(width,), freeze_first_last=False,
                        difference_trick=bool(seed % 2))
        K = empirical_ntk(init_mlp(cfg, seed), ds)
        assert np.array_equal(K.values, K.values.T)


class TestKernelMatrixChecks:
    def test_rejects_asymmetric(self):
        values = np.array([[1.0, 0.5], [0.2, 1.0]])
        message = (
            r"kernel matrix is not symmetric: max\|K - K\^T\| = 3\.000e-01 "
            r"exceeds 1e-10 \* max\|K\| = 1\.000e-10"
        )
        with pytest.raises(ValidationError, match=message):
            KernelMatrix.from_values(values)

    def test_accepts_asymmetry_within_tolerance(self):
        values = np.array([[2.0, 0.5], [0.5 + 1e-12, 2.0]])
        assert not np.array_equal(values, values.T)
        assert KernelMatrix.from_values(values).trace == 4.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValidationError, match="^kernel matrix contains non-finite entries$"):
            KernelMatrix.from_values(values)

    @pytest.mark.parametrize("certificate", ["factor", "spectrum", "eigh"])
    def test_rejects_empty(self, certificate):
        with pytest.raises(ValidationError, match="kernel matrix is empty"):
            first_read(KernelMatrix.from_values(np.empty((0, 0))), certificate)

    def test_rejects_negative_definite(self):
        with pytest.raises(ValidationError):
            first_read(KernelMatrix.from_values(-np.eye(3)), "factor")

    def test_op_norm_matches_eigendecomposition(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 20))
        values = a @ a.T
        values = np.triu(values) + np.triu(values, 1).T
        K = KernelMatrix.from_values(values)
        top = float(np.linalg.eigvalsh(values)[-1])
        assert abs(K.op_norm - top) <= 1e-9 * top

    def test_trace_cached(self):
        K = KernelMatrix.from_values(np.diag([1.0, 2.0, 3.0]))
        assert K.trace == 6.0
        assert K.n == 3


class TestBandedSymmetryCheck:
    """Exact symmetry is tested band by band; a mismatch anywhere is still caught."""

    # bands of 4 rows: three full ones and a last one of 2
    N = 14

    @pytest.fixture(autouse=True)
    def small_bands(self, monkeypatch):
        monkeypatch.setattr(kernelmatrix_module, "MIRROR_BLOCK_ROWS", 4)

    # first row; both sides of the boundary between the first two bands;
    # the last, partial band's diagonal block; its row against the first band
    POSITIONS = [(0, 13), (13, 0), (3, 4), (4, 3), (12, 13), (13, 12), (13, 2), (2, 13)]

    @pytest.mark.parametrize("i, j", POSITIONS)
    def test_asymmetry_caught_with_full_message(self, i, j):
        values = np.eye(self.N)
        values[i, j] = 0.25
        message = (
            r"^kernel matrix is not symmetric: max\|K - K\^T\| = 2\.500e-01 "
            r"exceeds 1e-10 \* max\|K\| = 1\.000e-10$"
        )
        with pytest.raises(ValidationError, match=message):
            KernelMatrix.from_values(values)

    @pytest.mark.parametrize("i, j", POSITIONS)
    def test_asymmetry_within_tolerance_accepted(self, i, j):
        values = 2.0 * np.eye(self.N)
        values[i, j] = values[j, i] = 0.5
        values[i, j] += 1e-12
        assert not np.array_equal(values, values.T)
        assert KernelMatrix.from_values(values).trace == 2.0 * self.N

    def test_symmetric_accepted(self):
        x = synth_sphere(self.N, 5, "linear-sign", seed=22).inputs
        values = reference_gram(3, x)
        assert KernelMatrix.from_values(values).values is values


def with_min_eig(n, ratio):
    """A symmetric n x n matrix whose lambda_min is ``ratio`` * 1e-8 * tr/n."""
    rng = np.random.default_rng(7)
    rest = np.linspace(1.0, 2.0, n - 1)
    # lambda_min = ratio * 1e-8 * (sum(rest) + lambda_min) / n, solved for lambda_min
    lowest = ratio * 1e-8 * rest.sum() / (n - ratio * 1e-8)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = (q * np.concatenate([[lowest], rest])) @ q.T
    return np.triu(values) + np.triu(values, 1).T


class TestCholeskyCertificate:
    """PSD is certified by K's shift-0 factor; the spectrum is computed only when read."""

    def test_psd_matrix_factors_once_without_spectrum(self, count_calls):
        values = analytic_ntk(2, synth_sphere(30, 5, "linear-sign", seed=2)).values
        factored = count_calls(krr_module, "cho_factor", record=lambda a, **_: np.array(a))
        spectra = count_calls(np.linalg, "eigvalsh")
        K = first_read(KernelMatrix.from_values(values), "factor")
        assert len(factored) == 1 and np.array_equal(factored[0], values)  # K itself, no jitter
        assert spectra == []
        assert K.solver(0.0).jitter == 0.0
        assert len(factored) == 1  # the solves at shift 0 reuse it

    def test_spectrum_computed_once_on_read(self, count_calls):
        K = KernelMatrix.from_values(np.diag([1.0, 2.0, 3.0]))
        spectra = count_calls(np.linalg, "eigvalsh")
        readings = [(K.op_norm, K.min_eig) for _ in range(2)]
        assert len(spectra) == 1
        assert readings == [(3.0, 1.0), (3.0, 1.0)]

    def test_zero_empirical_kernel_accepted(self):
        # a width-1 net whose ReLU is off on both points: K is exactly 0, so
        # every jitter rung is 0 and the spectrum decides
        cfg = NetConfig(input_dim=5, widths=(1,), freeze_first_last=False)
        K = empirical_ntk(init_mlp(cfg, (0, 1)), synth_sphere(2, 5, "linear-sign", seed=1))
        assert np.all(K.values == 0.0)
        assert K.solver(1.0).jitter == 0.0  # the first read: no shift-0 factor, so the spectrum certifies K
        assert K.min_eig == 0.0 and K.op_norm == 0.0

    def test_tolerance_boundary(self):
        accepted = first_read(KernelMatrix.from_values(with_min_eig(200, -0.9)), "factor")
        assert accepted.min_eig < 0.0
        assert accepted.solver(0.0).jitter == pytest.approx(1e-8 * accepted.trace / accepted.n)
        with pytest.raises(ValidationError, match="lambda_min"):
            first_read(KernelMatrix.from_values(with_min_eig(200, -1.1)), "factor")


class TestSpectrumCertificate:
    """PSD certified by K's eigvalsh spectrum under the factor's rule, with no factor built."""

    def test_tolerance_boundary(self):
        accepted = first_read(KernelMatrix.from_values(with_min_eig(200, -0.9)), "spectrum")
        assert accepted.min_eig < 0.0
        with pytest.raises(ValidationError, match="lambda_min"):
            first_read(KernelMatrix.from_values(with_min_eig(200, -1.1)), "spectrum")

    def test_keeps_no_factor_and_one_spectrum(self, count_calls):
        values = analytic_ntk(2, synth_sphere(30, 5, "linear-sign", seed=2)).values
        factored = count_calls(krr_module, "cho_factor")
        spectra = count_calls(np.linalg, "eigvalsh")
        K = first_read(KernelMatrix.from_values(values), "spectrum")
        readings = [(K.op_norm, K.min_eig) for _ in range(3)]
        assert factored == [] and K._factors == {}
        assert len(spectra) == 1
        assert readings == [readings[0]] * 3

    def test_solves_factor_on_demand(self):
        values = analytic_ntk(2, synth_sphere(30, 5, "linear-sign", seed=2)).values
        K = first_read(KernelMatrix.from_values(values), "spectrum")
        factored = KernelMatrix.from_values(values)
        b = values[0]
        assert K.solver(0.0).jitter == 0.0
        assert np.array_equal(K.solver(0.0).solve_checked(b), factored.solver(0.0).solve_checked(b))


# Each first read of a linearized model's K, and the decompositions it makes
# on a PSD K: the shift of each Cholesky factor, and one entry per eigvalsh or eigh.
FIRST_READS = [
    ("solver-0", lambda lm: lm.K.solver(0.0), {"cho_factor": [0.0]}),
    # the shift-0 factor certifies K before the 0.25 one replaces it
    ("solver-0.25", lambda lm: lm.K.solver(0.25), {"cho_factor": [0.0, 0.25]}),
    ("inverse_form", lambda lm: lm.K.inverse_form(np.ones(lm.n)), {"cho_factor": [0.0]}),
    ("op_norm", lambda lm: lm.K.op_norm, {"eigvalsh": [1]}),
    ("min_eig", lambda lm: lm.K.min_eig, {"eigvalsh": [1]}),
    ("eigh", lambda lm: lm.K.eigh, {"eigh": [1]}),
    ("closed_form_limit", lambda lm: closed_form_limit(lm, np.ones(lm.n), 0.5), {"eigh": [1]}),
]


def count_decompositions(count_calls):
    """The shift of each Cholesky factor made from now on, and a 1 per eigvalsh and per eigh."""
    return {"cho_factor": count_calls(krr_module, "cho_factor", record=lambda a, shifts=(), out=None: shifts[0]),
            "eigvalsh": count_calls(np.linalg, "eigvalsh"), "eigh": count_calls(np.linalg, "eigh")}


class TestFirstReadCertifies:
    """The first decomposition read certifies K, by its own decomposition; a K that fails raises on every read."""

    @pytest.mark.parametrize("read, made", [pytest.param(read, made, id=name) for name, read, made in FIRST_READS])
    def test_psd_kernel_makes_its_own_decomposition_only(self, count_calls, read, made):
        ds = synth_sphere(20, 5, "linear-sign", seed=4)
        mlp = init_mlp(NetConfig(input_dim=5, widths=(48,)), 4)
        lm = LinearizedModel(K=empirical_ntk(mlp, ds), mlp=mlp, inputs=ds.inputs)
        calls = count_decompositions(count_calls)
        read(lm)
        assert calls == {"cho_factor": [], "eigvalsh": [], "eigh": [], **made}

    @pytest.mark.parametrize("read", [pytest.param(read, id=name) for name, read, _ in FIRST_READS])
    def test_failed_kernel_raises_on_every_read(self, count_calls, read):
        lm = LinearizedModel(K=KernelMatrix.from_values(with_min_eig(200, -1.1)))
        calls = count_decompositions(count_calls)
        with pytest.raises(ValidationError, match="lambda_min"):
            read(lm)
        first = {name: list(made) for name, made in calls.items()}
        for later in [read] + [other for _, other, _ in FIRST_READS]:
            with pytest.raises(ValidationError, match="lambda_min"):
                later(lm)
        assert calls == first  # a failed K is never factored or decomposed again


def public_callables():
    """(dotted name, callable) for each public function of every ntkreg module and each public method of its classes."""
    for info in pkgutil.iter_modules(ntkreg.__path__):
        module = importlib.import_module(f"ntkreg.{info.name}")
        for name, member in vars(module).items():
            if name.startswith("_") or not getattr(member, "__module__", "").startswith("ntkreg"):
                continue
            if inspect.isclass(member):
                for attr in vars(member):
                    if (attr == "__init__" or not attr.startswith("_")) and callable(getattr(member, attr)):
                        yield f"{module.__name__}.{name}.{attr}", getattr(member, attr)
            elif callable(member):
                yield f"{module.__name__}.{name}", member


def test_no_public_callable_takes_a_certificate():
    # the first decomposition read certifies a kernel matrix, so no caller chooses how
    found = dict(public_callables())
    assert {"ntkreg.kernel.KernelMatrix.from_values", "ntkreg.kernel.analytic_ntk", "ntkreg.kernel.empirical_ntk",
            "ntkreg.kernel.AnalyticNTK.gram", "ntkreg.kernel.EmpiricalNTK.gram"} <= found.keys()
    assert [name for name, fn in found.items() if "certificate" in inspect.signature(fn).parameters] == []
