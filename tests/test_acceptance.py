"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v``.

The criteria pin exact algebraic identities (trajectory equivalence, zero
initial output), oracle agreements (finite differences, dense inverses,
analytic kernel values), and directional or statistical properties
(concentration across widths, regularization benefit under label noise,
Monte-Carlo bound validity, weight-movement relationships).
"""

import json
import time

import numpy as np
import pytest

from ntkreg.bounds import (
    BoundConfig,
    bound_additive,
    empirical_clean_risk,
    lemma1_bound,
    lemma2_bound,
    ramp_loss,
)
from ntkreg.cli import main as cli_main
from ntkreg.data import split_dataset, synth_sphere
from ntkreg.kernel import AnalyticNTK, analytic_ntk, empirical_ntk
from ntkreg.krr import krr_fit, rkhs_norm
from ntkreg.linmodel import (
    check_equivalence,
    closed_form_limit,
    linearize,
    run_gd_aux,
    run_gd_rdi,
)
from ntkreg.net import (
    NetConfig,
    TrainConfig,
    distance_to_init,
    forward,
    gradient,
    init_mlp,
    train_full,
)
from ntkreg.noise import AdditiveNoise, BinaryFlip, corrupt


def report(num: int, name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} ({name}): PASS{suffix}")


def unit_rows(m, d, seed):
    x = np.random.default_rng(seed).standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def equivalence_instance():
    """Shared by criteria 1 and 2: n=50, d=10, width-512 two-layer net."""
    full = synth_sphere(150, 10, "linear-sign", seed=11)
    train, test = split_dataset(full, 50)
    train = corrupt(train, BinaryFlip(0.2), seed=(11, 1))
    cfg = NetConfig(input_dim=10, widths=(512,), freeze_first_last=False,
                    difference_trick=True)
    mlp = init_mlp(cfg, 0)
    lm = linearize(mlp, train)
    return lm, train, test


def test_c01_trajectory_equivalence(equivalence_instance):
    """Both regularized trajectories coincide step for step at 1e-10."""
    lm, train, _ = equivalence_instance
    start = time.time()
    y = train.noisy_labels
    worst = 0.0
    for lam in (0.25, 1.0, 4.0):
        eta = lm.default_eta(lam)  # 1/(||K|| + lam^2)
        rdi = run_gd_rdi(lm, y, lam, eta=eta, steps=2000)
        aux = run_gd_aux(lm, y, lam, eta=eta, steps=2000)
        rep = check_equivalence(rdi, aux, tol=1e-10)
        assert rep.passed, f"lambda={lam}: max relative gap {rep.max_rel:.3e}"
        worst = max(worst, rep.max_rel)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    report(1, "trajectory equivalence", f"max rel gap {worst:.2e}, {elapsed:.1f}s")


def test_c02_convergence_to_ridge_limit(equivalence_instance):
    """Iterates reach the closed-form ridge solution; gap decays log-linearly."""
    lm, train, test = equivalence_instance
    y = train.noisy_labels
    queries = test.inputs[:100]
    worst_dev = 0.0
    for lam in (0.25, 1.0, 4.0):
        eta = lm.default_eta(lam)
        steps = min(int(np.ceil(np.log(1e-8) / np.log(1.0 - eta * lam * lam))), 200_000)
        traj = run_gd_rdi(lm, y, lam, eta=eta, steps=steps)
        _, alpha = closed_form_limit(lm, y, lam)
        f_iter = lm.predict(traj.final_coeffs(), queries)
        f_star = lm.predict(alpha, queries)
        deviation = float(np.max(np.abs(f_iter - f_star)) / np.max(np.abs(f_star)))
        assert deviation <= 1e-6, f"lambda={lam}: predictor deviation {deviation:.3e}"
        worst_dev = max(worst_dev, deviation)

        stride = max(steps // 200, 1)
        k = lm.K.values
        gaps = np.array([
            np.sqrt(max((c - alpha) @ k @ (c - alpha), 0.0))
            for c in traj.coeffs[::stride]
        ])
        valid = gaps > 1e-13
        ts = np.arange(gaps.size)[valid] * stride
        slope = float(np.polyfit(ts, np.log(gaps[valid]), 1)[0])
        assert slope < 0.0, f"lambda={lam}: fitted log-gap slope {slope:.3e}"
    report(2, "convergence to ridge limit", f"max predictor deviation {worst_dev:.2e}")


def test_c03_difference_trick():
    """Exactly zero initial output; gradient Gram matrix matches the single net."""
    d = 8
    cfg_pair = NetConfig(input_dim=d, widths=(64,), freeze_first_last=False,
                         difference_trick=True)
    cfg_single = NetConfig(input_dim=d, widths=(64,), freeze_first_last=False,
                           difference_trick=False)
    seed = 5
    paired = init_mlp(cfg_pair, seed)
    single = init_mlp(cfg_single, seed)  # same draw: branch 1 == single net

    xs = unit_rows(100, d, 0)
    assert np.all(forward(paired, xs) == 0.0), "initial output is not exactly zero"

    pairs = unit_rows(100, d, 1).reshape(50, 2, d)
    worst = 0.0
    for a, b in pairs:
        k_pair = gradient(paired, a, at_init=True) @ gradient(paired, b, at_init=True)
        k_single = gradient(single, a, at_init=True) @ gradient(single, b, at_init=True)
        rel = abs(k_pair - k_single) / max(abs(k_single), 1e-300)
        worst = max(worst, rel)
    assert worst <= 1e-10, f"kernel equality relative error {worst:.3e}"
    report(3, "difference trick", f"kernel equality rel err {worst:.2e}")


def test_c04_gradient_correctness():
    """Reverse-mode gradients match central finite differences at 1e-5."""
    h = 1e-4
    configs = [
        (NetConfig(input_dim=4, widths=(6, 5), outputs=2, freeze_first_last=False,
                   difference_trick=False), 2, 2, 1),
        (NetConfig(input_dim=4, widths=(8,), outputs=1, freeze_first_last=False,
                   difference_trick=True), 3, 7, 0),
        (NetConfig(input_dim=5, widths=(7, 6, 4), outputs=3, freeze_first_last=True,
                   difference_trick=True), 1, 9, 2),
    ]
    worst = 0.0
    for cfg, seed, xseed, out_idx in configs:
        mlp = init_mlp(cfg, seed)
        assert mlp.n_trainable_params <= 1000
        x = unit_rows(1, cfg.input_dim, xseed)[0]
        g = gradient(mlp, x, output_index=out_idx)
        fd = np.zeros_like(g)
        idx = 0
        for branch in mlp.params:
            for l in cfg.trainable_layers:
                w = branch[l]
                for r in range(w.shape[0]):
                    for c in range(w.shape[1]):
                        orig = w[r, c]
                        w[r, c] = orig + h
                        fp = np.atleast_1d(forward(mlp, x))[out_idx]
                        w[r, c] = orig - h
                        fm = np.atleast_1d(forward(mlp, x))[out_idx]
                        w[r, c] = orig
                        fd[idx] = (fp - fm) / (2.0 * h)
                        idx += 1
        scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-12)
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-2 * scale)
        assert rel.max() <= 1e-5, f"config {cfg.widths}: max rel error {rel.max():.3e}"
        worst = max(worst, float(rel.max()))
    report(4, "gradient correctness", f"max rel error vs FD {worst:.2e}")


def test_c05_solver_vs_dense_inverse():
    """Ridge solves agree with explicit inverses; residuals always small."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n))
        values = a @ a.T / n + 0.05 * np.eye(n)
        values = np.triu(values) + np.triu(values, 1).T
        from ntkreg._kernelmatrix import KernelMatrix

        K = KernelMatrix.from_values(values)
        y = rng.standard_normal(n)
        lam = float(rng.choice([0.0, 0.3, 1.0, 3.0]))
        predictor = krr_fit(K, y, lam)
        shifted = values + lam * lam * np.eye(n)
        oracle = np.linalg.inv(shifted) @ y
        rel = np.linalg.norm(predictor.alpha - oracle) / max(np.linalg.norm(oracle), 1e-300)
        assert rel <= 1e-8
        in_sample_rel = np.linalg.norm(values @ (predictor.alpha - oracle)) / max(
            np.linalg.norm(values @ oracle), 1e-300
        )
        assert in_sample_rel <= 1e-8
        residual = np.linalg.norm(shifted @ predictor.alpha - y) / np.linalg.norm(y)
        assert residual <= 1e-8
        worst = max(worst, rel)
    report(5, "ridge solver vs dense inverse", f"max coefficient rel err {worst:.2e}")


def test_c06_kernel_concentration():
    """Empirical kernel approaches the analytic limit as width doubles."""
    start = time.time()
    ds = synth_sphere(20, 10, "linear-sign", seed=123)
    analytic_norm = np.linalg.norm(analytic_ntk(2, ds).values)
    analytic_values = analytic_ntk(2, ds).values
    widths = (64, 256, 1024, 4096)
    good_seeds = 0
    final_errors = []
    for seed in range(20):
        errors = []
        for width in widths:
            cfg = NetConfig(input_dim=10, widths=(width,), freeze_first_last=False,
                            difference_trick=False)
            emp = empirical_ntk(init_mlp(cfg, seed), ds).values
            errors.append(float(np.linalg.norm(emp - analytic_values) / analytic_norm))
        inversions = int(np.sum(np.diff(errors) > 0.0))
        if inversions <= 1:  # allow one inversion per seed
            good_seeds += 1
        final_errors.append(errors[-1])
    elapsed = time.time() - start
    assert good_seeds >= 19, f"only {good_seeds}/20 seeds are non-increasing"
    assert max(final_errors) <= 0.1, f"width-4096 error {max(final_errors):.3f} > 0.1"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 300s"
    report(6, "kernel concentration",
           f"{good_seeds}/20 monotone, max err at 4096 = {max(final_errors):.3f}")


def test_c07_analytic_spot_values():
    """Depth-2 recursion: diagonal exactly 2, orthogonal pairs 1/pi."""
    ds = synth_sphere(25, 12, "linear-sign", seed=3)
    K = analytic_ntk(2, ds)
    assert np.all(np.diag(K.values) == 2.0)
    from ntkreg.data import DataSet

    basis = DataSet(np.eye(6)[:4], np.ones(4), np.ones(4), "binary")
    K2 = analytic_ntk(2, basis).values
    off = K2[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - 1.0 / np.pi)) <= 1e-12
    report(7, "analytic kernel spot values", "diag = 2.0 exact, off-diag = 1/pi")


@pytest.mark.slow
def test_c08_regularization_benefit_under_label_noise():
    """Ridge beats interpolation on flipped labels; error stays below p."""
    start = time.time()
    lambdas = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    details = []
    for p in (0.2, 0.4):
        satisfied = 0
        for seed in range(5):
            full = synth_sphere(2000, 10, "linear-sign", seed=seed)
            train, test = split_dataset(full, 1000)
            noisy = corrupt(train, BinaryFlip(p), seed=(seed, int(10 * p)))
            K = analytic_ntk(2, noisy)
            errors = {}
            for lam in lambdas:
                predictor = krr_fit(K, noisy.noisy_labels, lam,
                                    kernel_source=AnalyticNTK(2), train_data=noisy)
                errors[lam] = empirical_clean_risk(predictor, test, "zero-one")
            best = min(errors.values())
            if best <= errors[0.0] - 0.03 and best < p:
                satisfied += 1
        assert satisfied >= 3, f"p={p}: only {satisfied}/5 seeds satisfied"
        details.append(f"p={p}: {satisfied}/5")
    elapsed = time.time() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget is 600s"
    report(8, "regularization benefit", ", ".join(details) + f", {elapsed:.0f}s")


@pytest.fixture(scope="module")
def monte_carlo_trials():
    """200 seeded ridge fits on noisy smooth targets, shared by criteria 9/10."""
    n, sigma, delta = 100, 0.1, 0.1
    lam = n**0.25
    trials = []
    for seed in range(200):
        full = synth_sphere(n + 400, 10, "smooth-poly", seed=seed)
        train, test = split_dataset(full, n)
        noisy = corrupt(train, AdditiveNoise(sigma, "gaussian"), seed=(seed, 1))
        K = analytic_ntk(2, noisy)
        predictor = krr_fit(K, noisy.noisy_labels, lam,
                            kernel_source=AnalyticNTK(2), train_data=noisy)
        trials.append((K, train, test, noisy, predictor))
    return trials, n, sigma, delta, lam


def test_c09_lemma_monte_carlo_validity(monte_carlo_trials):
    """Training-loss and norm lemma values hold in >= 90% of 200 trials."""
    trials, n, sigma, delta, lam = monte_carlo_trials
    hits1 = hits2 = 0
    for K, train, _, _, predictor in trials:
        in_sample = K.values @ predictor.alpha
        clean_loss = float(np.sqrt(np.sum((in_sample - train.clean_labels) ** 2)))
        hits1 += clean_loss <= lemma1_bound(K, train.clean_labels, sigma, lam, delta)
        hits2 += rkhs_norm(predictor, K) <= lemma2_bound(
            K, train.clean_labels, sigma, lam, delta
        )
    assert hits1 >= 180, f"training-loss lemma held in only {hits1}/200 trials"
    assert hits2 >= 180, f"norm lemma held in only {hits2}/200 trials"
    report(9, "lemma Monte-Carlo validity", f"{hits1}/200 and {hits2}/200")


def test_c10_bound_validity_monte_carlo(monte_carlo_trials):
    """Assembled explicit bound dominates the clean-test risk in >= 90%."""
    trials, n, sigma, delta, lam = monte_carlo_trials
    cfg = BoundConfig(lam=lam, sigma=sigma, delta=delta,
                      constant_mode="explicit-appendix")
    hits = 0
    for K, train, test, _, predictor in trials:
        risk = empirical_clean_risk(predictor, test, "clipped-absolute")
        rep = bound_additive(K, train.clean_labels, cfg)
        for value in (rep.total, rep.main_term, rep.sigma_over_lambda_term,
                      rep.delta_term, rep.lemma1_value, rep.lemma2_value,
                      rep.rademacher_value, rep.y_kinv_y):
            assert value is not None and np.isfinite(value)
        hits += risk <= rep.total
    assert hits >= 180, f"bound held in only {hits}/200 trials"
    report(10, "bound validity Monte-Carlo", f"{hits}/200")


def test_c11_ramp_loss_inequality():
    """Exhaustive grid: ramp dominates the scaled zero-one loss; 1-Lipschitz."""
    u = np.arange(-2.0, 2.0 + 1e-12, 1e-3)
    violations = 0
    for p in (0.0, 0.1, 0.3, 0.45):
        width = 1.0 - 2.0 * p
        for y in (1.0, -1.0):
            values = ramp_loss(u, y, p)
            mistakes = (u == 0.0) | (np.sign(u) != y)  # sgn(0) counts as a miss
            violations += int(np.sum(values < width * mistakes))
            steps = np.abs(np.diff(values))
            assert np.all(steps <= 1e-3 + 1e-12), "Lipschitz constant exceeds 1"
    assert violations == 0, f"{violations} grid points violate the domination"
    report(11, "ramp loss inequality", "0 violations on 4001-point grid")


@pytest.mark.slow
def test_c12_distance_to_init_relationships():
    """Weight movement: up with noise, down with ridge strength, flat in width."""
    start = time.time()
    seeds = range(5)

    def total_distance(width, noise, lam, seed, steps=500):
        ds = synth_sphere(100, 10, "linear-sign", seed=seed)
        if noise > 0:
            ds = corrupt(ds, BinaryFlip(noise), seed=(seed, int(10 * noise)))
        cfg = NetConfig(input_dim=10, widths=(width,), freeze_first_last=True,
                        difference_trick=True)
        mlp = init_mlp(cfg, seed)
        eta = 1.0 / (empirical_ntk(mlp, ds).op_norm + lam * lam)
        trained, _, _ = train_full(
            mlp, ds, TrainConfig("rdi", eta=eta, steps=steps, lam=lam)
        )
        return float(np.linalg.norm(distance_to_init(trained)))

    by_noise = [
        float(np.mean([total_distance(512, nz, 1.0, s) for s in seeds]))
        for nz in (0.0, 0.2, 0.4)
    ]
    assert by_noise[0] <= by_noise[1] <= by_noise[2], f"noise sweep {by_noise}"

    by_lambda = [
        float(np.mean([total_distance(512, 0.2, lam, s) for s in seeds]))
        for lam in (0.25, 1.0, 4.0)
    ]
    assert by_lambda[0] >= by_lambda[1] >= by_lambda[2], f"lambda sweep {by_lambda}"

    narrow = float(np.mean([total_distance(512, 0.2, 1.0, s) for s in seeds]))
    wide = float(np.mean([total_distance(2048, 0.2, 1.0, s) for s in seeds]))
    ratio = narrow / wide
    assert 0.5 <= ratio <= 2.0, f"width ratio {ratio:.3f} outside [0.5, 2]"
    elapsed = time.time() - start
    report(12, "distance-to-init relationships",
           f"noise {by_noise[0]:.2f}<={by_noise[1]:.2f}<={by_noise[2]:.2f}, "
           f"width ratio {ratio:.2f}, {elapsed:.0f}s")


def test_c13_reproducibility(tmp_path):
    """Identical config and seeds give byte-identical CSV payloads."""
    sweep_cfg = {
        "dataset": {"kind": "synth-sphere", "n": 60, "test_n": 60, "d": 8,
                    "target": "linear-sign", "seed": 3},
        "noise": {"kind": "binary-flip", "p": 0.2},
        "model": {"kind": "analytic", "depth": 2},
        "method": "krr",
        "lambda_grid": [0.0, 1.0],
        "noise_grid": [0.0, 0.3],
        "seeds": [0, 1],
    }
    payload_pairs = []
    for run in ("a", "b"):
        cfg_path = tmp_path / f"sweep_{run}.json"
        with open(cfg_path, "w") as f:
            json.dump(dict(sweep_cfg, out=str(tmp_path / f"sweep_out_{run}")), f)
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 0
        payload_pairs.append(
            (
                open(tmp_path / f"sweep_out_{run}" / "results.csv", "rb").read(),
                open(tmp_path / f"sweep_out_{run}" / "summary.csv", "rb").read(),
            )
        )
    assert payload_pairs[0] == payload_pairs[1]

    eq_cfg = {
        "dataset": {"kind": "synth-sphere", "n": 16, "d": 6,
                    "target": "linear-sign", "seed": 2},
        "model": {"kind": "net", "widths": [48], "freeze_first_last": False},
        "lambda_grid": [1.0],
        "steps": 80,
    }
    traj = []
    for run in ("a", "b"):
        cfg_path = tmp_path / f"eq_{run}.json"
        with open(cfg_path, "w") as f:
            json.dump(dict(eq_cfg, out=str(tmp_path / f"eq_out_{run}")), f)
        assert cli_main(["equivalence", "--config", str(cfg_path)]) == 0
        traj.append(open(tmp_path / f"eq_out_{run}" / "trajectory.csv", "rb").read())
    assert traj[0] == traj[1]
    report(13, "reproducibility", "sweep and equivalence CSVs byte-identical")
