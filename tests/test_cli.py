"""End-to-end command tests: outputs, exit codes, reproducibility."""

import argparse
import concurrent.futures
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ntkreg import cli as cli_module
from ntkreg import krr as krr_module
from ntkreg.bounds import bound_binary, empirical_clean_risk
from ntkreg.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    apply_noise,
    build_net_config,
    build_noise_model,
    build_train_test,
    load_config,
    main,
)
from ntkreg.data import onehot_matrix, prediction_error, synth_multiclass, synth_sphere
from ntkreg.errors import SingularityError
from ntkreg.kernel import AnalyticNTK, EmpiricalNTK, KernelMatrix, empirical_ntk
from ntkreg.krr import KRRPredictor, krr_fit
from ntkreg.linmodel import linearize, run_gd_rdi
from ntkreg.net import TrainConfig, forward, init_mlp, train_full


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def small_synth(n=24, d=6, test_n=None, seed=3):
    spec = {"kind": "synth-sphere", "n": n, "d": d, "target": "linear-sign", "seed": seed}
    if test_n:
        spec["test_n"] = test_n
    return spec


class TestKernelCommand:
    def test_build_then_cache_hit(self, tmp_path, capsys):
        # no kernel is stored: a rerun into the same directory builds again and prints the same lines
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(n=20), "model": {"kind": "analytic", "depth": 2},
             "out": str(out)},
        )
        assert main(["kernel", "--config", cfg]) == EXIT_OK
        first = capsys.readouterr().out
        assert "trace = 40.0" in first  # diag is exactly 2 for depth 2
        assert main(["kernel", "--config", cfg]) == EXIT_OK
        second = capsys.readouterr().out
        assert second.splitlines()[-3:] == first.splitlines()[-3:]
        assert sorted(os.listdir(out)) == ["resolved_config.json"]

    @pytest.mark.parametrize("model", [{"kind": "analytic", "depth": 2}, {"kind": "net", "widths": [16]}],
                             ids=["analytic", "net"])
    def test_certified_by_its_spectrum(self, tmp_path, capsys, model, count_calls):
        # one eigvalsh per run certifies K and gives both numbers
        factors = count_calls(krr_module, "cho_factor")
        spectra = count_calls(np.linalg, "eigvalsh")
        bases = count_calls(np.linalg, "eigh")
        cfg = write_config(tmp_path, "cfg.json",
                           {"dataset": small_synth(n=20), "model": model, "out": str(tmp_path / "out")})
        assert main(["kernel", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        assert (len(factors), len(spectra), len(bases)) == (0, 1, 0)
        # the printed numbers are those of the kernel source's K, to the last digit
        resolved = load_config(cfg, command="kernel")
        cell, data, _ = cli_module._single_run(resolved)
        reference = cli_module.build_kernel_source(resolved, data, cell["seed"]).gram(data)
        assert text.splitlines()[-3:] == [f"trace = {reference.trace!r}", f"op_norm = {reference.op_norm!r}",
                                          f"min_eig = {reference.min_eig!r}"]

    def test_refused_kernel_prints_nothing(self, tmp_path, capsys, monkeypatch):
        # the spectrum that certifies K is read before the first number is printed
        monkeypatch.setattr(AnalyticNTK, "gram", lambda self, data: KernelMatrix.from_values(-np.eye(data.n)))
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=20), "out": str(tmp_path / "out")})
        assert main(["kernel", "--config", cfg]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "lambda_min" in captured.err and " = " not in captured.out

    def test_resolved_config_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(n=10), "out": str(out)},
        )
        assert main(["kernel", "--config", cfg]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["dataset"]["n"] == 10


class TestEquivalenceCommand:
    def test_passes_and_writes_reports(self, tmp_path):
        out = tmp_path / "eq"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=20),
                "noise": {"kind": "binary-flip", "p": 0.2},
                "model": {"kind": "net", "widths": [96], "freeze_first_last": False},
                "lambda_grid": [0.25, 1.0],
                "steps": 150,
                "out": str(out),
            },
        )
        assert main(["equivalence", "--config", cfg]) == EXIT_OK
        summary = json.loads((out / "equivalence.json").read_text())
        assert all(run["passed"] for run in summary["runs"].values())
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,t,objective_rdi,objective_aux,dist_from_init,gap,rel_gap"
        assert len(lines) == 1 + 2 * 151

    def test_equality_holds_above_stable_rate(self, tmp_path):
        # update-rule identity without a step-size bound: run with eta 1.5x
        # the certified value for a few steps and still require equality
        out = tmp_path / "eqfast"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=10),
                "model": {"kind": "net", "widths": [64], "freeze_first_last": False},
                "lambda_grid": [1.0],
                "steps": 40,
                "eta": 0.08,
                "out": str(out),
            },
        )
        assert main(["equivalence", "--config", cfg]) == EXIT_OK

    def test_analytic_model_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(), "model": {"kind": "analytic", "depth": 2},
             "out": str(tmp_path / "x")},
        )
        assert main(["equivalence", "--config", cfg]) == EXIT_VALIDATION

    def test_never_forms_tangent_features(self, tmp_path, count_calls):
        # the check reads only the kernel; the n x P feature matrix is never built
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        calls = [count_calls(owner, "flatten_factors") for owner in (net_module, linmodel_module)]
        cfg = write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=20), "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "net", "widths": [24, 24]}, "lambda_grid": [0.5], "steps": 20,
            "out": str(tmp_path / "eq"),
        })
        assert main(["equivalence", "--config", cfg]) == EXIT_OK
        assert calls == [[], []]

    def test_one_gradient_pass(self, tmp_path, count_calls):
        # linearize's pass forms K and is let go; the check never reads the model's factors
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        passes = [count_calls(owner, "gradient_factors") for owner in (net_module, linmodel_module)]
        cfg = write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=20), "model": {"kind": "net", "widths": [24, 24]},
            "lambda_grid": [0.5], "steps": 20, "out": str(tmp_path / "eq"),
        })
        assert main(["equivalence", "--config", cfg]) == EXIT_OK
        assert passes == [[], [1]]

    def test_traced_memory_holds_no_trajectories(self, tmp_path, traced_peak):
        # n=300, 2000 steps, six lambdas: one (steps+1) x n history alone is 4.8 MB
        out = tmp_path / "eq"
        cfg = write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=300, d=10), "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "net", "widths": [16]}, "lambda_grid": [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            "steps": 2000, "out": str(out),
        })
        code, peak = traced_peak(main, ["equivalence", "--config", cfg])
        assert code == EXIT_OK
        assert peak < 8e6
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 6 * 2001

    def test_grid_without_positive_lambda_uses_lambda(self, tmp_path):
        out = tmp_path / "eq"
        cfg = write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]},
            "lambda_grid": [0.0], "lambda": 0.5, "steps": 5, "out": str(out),
        })
        assert main(["equivalence", "--config", cfg]) == EXIT_OK
        assert list(json.loads((out / "equivalence.json").read_text())["runs"]) == ["0.5"]

    def empty_grid_config(self, tmp_path, lam):
        return write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]},
            "lambda_grid": [], "lambda": lam, "steps": 5, "out": str(tmp_path / "eq"),
        })

    def test_empty_grid_uses_lambda(self, tmp_path):
        # the check took max() of lambda alone, a float, and the command died with a TypeError
        assert main(["equivalence", "--config", self.empty_grid_config(tmp_path, 1.0)]) == EXIT_OK
        assert list(json.loads((tmp_path / "eq" / "equivalence.json").read_text())["runs"]) == ["1.0"]

    def test_empty_grid_needs_a_positive_lambda(self, tmp_path, capsys):
        assert main(["equivalence", "--config", self.empty_grid_config(tmp_path, 0.0)]) == EXIT_VALIDATION
        assert "equivalence needs a lambda > 0 in lambda_grid or lambda" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_trajectory(self, tmp_path):
        out = tmp_path / "train"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=20, test_n=20),
                "noise": {"kind": "binary-flip", "p": 0.2},
                "model": {"kind": "net", "widths": [64]},
                "method": "net-rdi",
                "lambda": 1.0,
                "steps": 50,
                "out": str(out),
            },
        )
        assert main(["train", "--config", cfg]) == EXIT_OK
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 52
        assert lines[0].startswith("step,objective,train_error")

    def test_reported_test_error_uses_column_predictions(self, tmp_path, capsys):
        # regression guard: single-output nets predict (m, 1); the error
        # computation must not broadcast that against (m,) labels
        out = tmp_path / "trainerr"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=60, d=6, test_n=60),
                "model": {"kind": "net", "widths": [128], "freeze_first_last": False},
                "method": "net-rdi",
                "lambda": 0.5,
                "steps": 250,
                "out": str(out),
            },
        )
        assert main(["train", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        line = [l for l in text.splitlines() if "clean test error" in l][0]
        err = float(line.rsplit(" ", 1)[1])
        # clean separable data, matched test set: far better than chance
        assert err < 0.35

    def test_krr_method_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(), "method": "krr", "out": str(tmp_path / "x")},
        )
        assert main(["train", "--config", cfg]) == EXIT_VALIDATION

    @pytest.mark.parametrize("changes, named", [
        pytest.param({"lambda": float("nan")}, "lambda", id="lambda-nan"),
        pytest.param({"eta": float("inf")}, "eta", id="eta-inf"),
    ])
    def test_non_finite_settings_rejected(self, tmp_path, capsys, changes, named):
        # JSON's NaN and Infinity used to pass: a NaN lambda trained as vanilla and
        # reported success, an infinite eta failed late as a divergence
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]},
                   "method": "net-rdi", "steps": 2, "out": str(out)}
        cfg = write_config(tmp_path, "cfg.json", dict(payload, **changes))
        assert main(["train", "--config", cfg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error") and named in err
        assert not out.exists()


class TestKrrCommand:
    def test_results_and_predictions(self, tmp_path):
        out = tmp_path / "krr"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=40, test_n=30),
                "model": {"kind": "analytic", "depth": 2},
                "lambda": 0.0,
                "out": str(out),
            },
        )
        assert main(["krr", "--config", cfg]) == EXIT_OK
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,train_error_noisy,test_error_clean"
        row = lines[1].split(",")
        assert float(row[1]) == 0.0  # interpolation at lambda = 0, no noise
        assert os.path.exists(out / "predictions.csv")

    def test_one_cross_kernel_evaluation(self, tmp_path, count_calls):
        # train predictions come from the Gram matrix; the test cross kernel
        # serves both the test error and predictions.csv
        cross = count_calls(AnalyticNTK, "cross")
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=40, test_n=30),
                "noise": {"kind": "binary-flip", "p": 0.2},
                "model": {"kind": "analytic", "depth": 2},
                "lambda": 0.5,
                "out": str(tmp_path / "krr"),
            },
        )
        assert main(["krr", "--config", cfg]) == EXIT_OK
        assert len(cross) == 1
        predictions = read_rows(tmp_path / "krr" / "predictions.csv")
        assert len(predictions) == 30
        for row in predictions:
            assert float(row["predicted_class"]) == (1.0 if float(row["output_1"]) >= 0.0 else -1.0)

    @pytest.mark.parametrize("model", [{"kind": "analytic", "depth": 2}, {"kind": "net", "widths": [16]}],
                             ids=["analytic", "net"])
    def test_one_prediction_through_the_predictor(self, tmp_path, count_calls, model):
        # the test outputs come from KRRPredictor.predict, whose cross kernel is the command's only one
        predicts = count_calls(KRRPredictor, "predict", record=lambda predictor, x: predictor.alpha.shape)
        crosses = count_calls(AnalyticNTK if model["kind"] == "analytic" else EmpiricalNTK, "cross")
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(n=40, test_n=30), "noise": {"kind": "binary-flip", "p": 0.2},
             "model": model, "lambda": 0.5, "out": str(tmp_path / "krr")},
        )
        assert main(["krr", "--config", cfg]) == EXIT_OK
        assert predicts == [(1, 40)]
        assert len(crosses) == 1


class TestBoundsCommand:
    def test_binary_sweep_increasing(self, tmp_path):
        totals = []
        for i, p in enumerate((0.0, 0.2, 0.4)):
            out = tmp_path / f"b{i}"
            cfg = write_config(
                tmp_path, f"cfg{i}.json",
                {
                    "dataset": small_synth(n=40),
                    "noise": {"kind": "binary-flip", "p": p},
                    "model": {"kind": "analytic", "depth": 2},
                    "lambda": 2.0,
                    "out": str(out),
                },
            )
            assert main(["bounds", "--config", cfg]) == EXIT_OK
            totals.append(json.loads((out / "bound_report.json").read_text())["total"])
        assert totals[0] < totals[1] < totals[2]

    def test_multiclass_identity_gap(self, tmp_path):
        # identity transition channel surfaces gap = 1 in the report
        transition = tmp_path / "p.csv"
        np.savetxt(transition, np.eye(3), delimiter=",")
        out = tmp_path / "mc"
        cfg_payload = {
            "dataset": {"kind": "synth-multiclass", "n": 30, "d": 6, "classes": 3, "seed": 2},
            "noise": {"kind": "class-transition", "csv": str(transition)},
            "model": {"kind": "analytic", "depth": 2},
            "lambda": 1.0,
            "out": str(out),
        }
        cfg = write_config(tmp_path, "cfg.json", cfg_payload)
        assert main(["bounds", "--config", cfg]) == EXIT_OK
        payload = json.loads((out / "bound_report.json").read_text())
        assert payload["gap"] == 1.0
        assert len(payload["q_quadratic_forms"]) == 3

    def test_transition_mismatched_task_rejected(self, tmp_path):
        transition = tmp_path / "p.csv"
        np.savetxt(transition, np.eye(2), delimiter=",")
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=30),  # binary task, not multiclass
                "noise": {"kind": "class-transition", "csv": str(transition)},
                "model": {"kind": "analytic", "depth": 2},
                "lambda": 1.0,
                "out": str(tmp_path / "bad"),
            },
        )
        assert main(["bounds", "--config", cfg]) == EXIT_VALIDATION

    def test_additive_report_finite(self, tmp_path):
        out = tmp_path / "add"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": {"kind": "synth-sphere", "n": 50, "d": 8,
                            "target": "smooth-poly", "seed": 5},
                "noise": {"kind": "additive", "sigma": 0.1},
                "model": {"kind": "analytic", "depth": 2},
                "lambda": 2.0,
                "out": str(out),
            },
        )
        assert main(["bounds", "--config", cfg]) == EXIT_OK
        payload = json.loads((out / "bound_report.json").read_text())
        for key in ("total", "main_term", "sigma_over_lambda_term", "delta_term"):
            assert np.isfinite(payload[key])


class TestSweepCommand:
    def sweep_config(self, tmp_path, out_name, method="krr"):
        payload = {
            "dataset": small_synth(n=60, d=8, test_n=60),
            "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "analytic", "depth": 2}
            if method == "krr"
            else {"kind": "net", "widths": [64]},
            "method": method,
            "lambda_grid": [0.0, 1.0],
            "noise_grid": [0.0, 0.3],
            "seeds": [0, 1],
            "steps": 60,
            "out": str(tmp_path / out_name),
        }
        return write_config(tmp_path, f"{out_name}.json", payload)

    def test_results_and_summary(self, tmp_path):
        cfg = self.sweep_config(tmp_path, "sw")
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        out = tmp_path / "sw"
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2
        header = lines[0].split(",")
        assert header[:4] == ["noise", "lambda", "seed", "method"]
        rows = [line.split(",") for line in lines[1:]]
        assert all(row[-1] == "ok" for row in rows)
        # noise 0, lambda 0: interpolation drives noisy-train error to ~0
        first = rows[0]
        assert float(first[4]) == 0.0
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "noise,best_lambda,best_test_error,lambda0_test_error"
        assert len(summary) == 3

    def test_reproducible_byte_identical(self, tmp_path):
        cfg_a = self.sweep_config(tmp_path, "swa")
        cfg_b = self.sweep_config(tmp_path, "swb")
        assert main(["sweep", "--config", cfg_a]) == EXIT_OK
        assert main(["sweep", "--config", cfg_b]) == EXIT_OK
        a = (tmp_path / "swa" / "results.csv").read_bytes()
        b = (tmp_path / "swb" / "results.csv").read_bytes()
        assert a == b

    def test_net_method_test_errors_sane(self, tmp_path):
        # regression guard for (m, 1)-shaped net predictions in sweep cells
        payload = {
            "dataset": small_synth(n=60, d=6, test_n=60),
            "model": {"kind": "net", "widths": [128], "freeze_first_last": False},
            "method": "net-rdi",
            "lambda_grid": [0.5],
            "noise_grid": [0.0],
            "seeds": [0, 1],
            "steps": 250,
            "out": str(tmp_path / "swnet"),
        }
        cfg = write_config(tmp_path, "swnet.json", payload)
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        lines = (tmp_path / "swnet" / "results.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        idx = header.index("test_error_clean")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) < 0.35

    def test_parallel_workers_match_sequential(self, tmp_path):
        cfg_seq = self.sweep_config(tmp_path, "swseq")
        cfg_par = self.sweep_config(tmp_path, "swpar")
        assert main(["sweep", "--config", cfg_seq]) == EXIT_OK
        assert main(["sweep", "--config", cfg_par, "--workers", "2"]) == EXIT_OK
        a = (tmp_path / "swseq" / "results.csv").read_bytes()
        b = (tmp_path / "swpar" / "results.csv").read_bytes()
        assert a == b

    def net_krr_config(self, tmp_path, out_name):
        payload = {
            "dataset": small_synth(n=30, d=6, test_n=20),
            "noise": {"kind": "binary-flip", "p": 0.2},
            "model": {"kind": "net", "widths": [32]},
            "method": "krr",
            "lambda_grid": [0.5, 1.0],
            "noise_grid": [0.0, 0.3],
            "seeds": [0, 1],
            "out": str(tmp_path / out_name),
        }
        return write_config(tmp_path, f"{out_name}.json", payload)

    def test_net_kernel_groups_parallel_match_sequential(self, tmp_path):
        # a net-model krr sweep has one kernel group per seed, so two workers
        # really split the work
        cfg_seq = self.net_krr_config(tmp_path, "seq")
        cfg_par = self.net_krr_config(tmp_path, "par")
        assert main(["sweep", "--config", cfg_seq]) == EXIT_OK
        assert main(["sweep", "--config", cfg_par, "--workers", "2"]) == EXIT_OK
        a = (tmp_path / "seq" / "results.csv").read_bytes()
        b = (tmp_path / "par" / "results.csv").read_bytes()
        assert a == b

    def test_bound_total_cells_are_plain_floats(self, tmp_path):
        # regression guard: numpy scalars were written as np.float64(...)
        cfg = self.sweep_config(tmp_path, "swb")
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "swb" / "results.csv")
        bounds = [row["bound_total"] for row in rows if row["bound_total"]]
        assert len(bounds) == 2  # noise 0.3 x lambda 1.0 x two seeds
        for text in bounds:
            assert np.isfinite(float(text))

    def test_additive_noise_level_zero_is_clean(self, tmp_path):
        # regression guard: level 0 of an additive sweep failed its cells
        # with "additive noise needs sigma > 0"
        payload = {
            "dataset": {"kind": "synth-sphere", "n": 40, "test_n": 20, "d": 6,
                        "target": "smooth-poly", "seed": 5},
            "noise": {"kind": "additive", "sigma": 0.1},
            "model": {"kind": "analytic", "depth": 2},
            "lambda_grid": [0.0, 1.0],
            "noise_grid": [0.0, 0.2],
            "seeds": [0],
            "out": str(tmp_path / "swadd"),
        }
        cfg = write_config(tmp_path, "swadd.json", payload)
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "swadd" / "results.csv")
        assert [row["status"] for row in rows] == ["ok"] * 4
        # clean labels at lambda 0: interpolation, so in-sample squared error ~0
        assert float(rows[0]["train_error_noisy"]) <= 1e-12
        assert float(rows[2]["train_error_noisy"]) > float(rows[0]["train_error_noisy"])

    def test_plan_matches_independent_cells(self, tmp_path):
        # Each row equals an independent fit on a freshly built Gram matrix,
        # with in-sample predictions from k(X, X) as the per-cell code had
        # them. The plan takes them as K @ alpha, which agrees to 1e-10
        # relative; the rates, the test predictions and the bounds match exactly.
        cfg = self.sweep_config(tmp_path, "swplan")
        with open(cfg) as f:
            payload = json.load(f)
        payload.update(lambda_grid=[0.0, 0.5, 2.0], noise_grid=[0.0, 0.2, 0.4], seeds=[0, 1, 2])
        with open(cfg, "w") as f:
            json.dump(payload, f)
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "swplan" / "results.csv")
        config = load_config(cfg)
        source = AnalyticNTK(2)
        i = 0
        for noise_idx, noise in enumerate(config["noise_grid"]):
            for lam in config["lambda_grid"]:
                for seed in config["seeds"]:
                    train, test = build_train_test(config)
                    model = build_noise_model(config["noise"], override_level=noise)
                    train = apply_noise(train, model, (seed, noise_idx))
                    gram = source.gram(train)
                    predictor = krr_fit(gram, train.noisy_labels.astype(np.float64), lam,
                                        kernel_source=source, train_data=train)
                    in_sample = predictor.predict(train.inputs)
                    from_gram = gram.values @ predictor.alpha
                    assert np.max(np.abs(from_gram - in_sample)) <= 1e-10 * np.max(np.abs(in_sample))
                    test_values = predictor.predict(test.inputs)
                    row = rows[i]
                    assert (float(row["noise"]), float(row["lambda"]), int(row["seed"])) == (noise, lam, seed)
                    assert row["status"] == "ok"
                    assert float(row["train_error_noisy"]) == np.mean(np.sign(in_sample) != train.noisy_labels)
                    assert float(row["test_error_clean"]) == np.mean(np.sign(test_values) != test.clean_labels)
                    if noise > 0.0 and lam > 0.0:
                        expected = bound_binary(gram, train.clean_labels, noise, lam, 0.1).total
                        assert float(row["bound_total"]) == expected
                    else:
                        assert row["bound_total"] == ""
                    i += 1
        assert i == len(rows) == 27

    def grid_sweep(self, tmp_path, out_name):
        """The sweep of ``test_plan_matches_independent_cells``: 3 seeds x noise [0, 0.2, 0.4] x lambda [0, 0.5, 2]."""
        cfg = self.sweep_config(tmp_path, out_name)
        with open(cfg) as f:
            payload = json.load(f)
        payload.update(lambda_grid=[0.0, 0.5, 2.0], noise_grid=[0.0, 0.2, 0.4], seeds=[0, 1, 2])
        with open(cfg, "w") as f:
            json.dump(payload, f)
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        return read_rows(tmp_path / out_name / "results.csv")

    def test_one_block_solve_per_ridge(self, tmp_path, count_calls):
        # each ridge fits its 9 (noise level, seed) label draws as one block, and each
        # (noise level > 0, lambda > 0) computes one bound report for its three seeds
        fits = count_calls(cli_module, "krr_fit")
        reports = count_calls(cli_module.bounds_mod, "bound_binary")
        factors = count_calls(krr_module, "cho_factor")
        solves = count_calls(krr_module, "cho_solve", record=lambda c, b: np.shape(b))
        rows = self.grid_sweep(tmp_path, "swblock")
        assert [row["status"] for row in rows] == ["ok"] * 27
        assert len(fits) == 3
        assert [shape for shape in solves if shape != (60, 1)] == [(60, 9)] * 3
        assert len(reports) == 4
        # the certificate and one factor per lambda^2 > 0; the clean labels'
        # y^T K^-1 y, read once before the first ridge, and their shifted form
        # once per lambda > 0 are the only one-column solves
        assert len(factors) == 1 + 2
        assert solves.count((60, 1)) == 1 + 2

    def test_failed_clean_form_fails_only_the_bounds(self, tmp_path, monkeypatch, count_calls):
        # the group's early y^T K^-1 y is the only one-column solve at shift 0: when it
        # fails, each bound that reads it fails with that error, and the rest is unchanged;
        # the failure is kept, so no bound solves or refactors shift 0 again
        clean = self.grid_sweep(tmp_path, "swclean")
        original = krr_module.PSDSolver.solve_checked
        messages = []

        def spoiled(solver, b):
            if solver.shift == 0.0 and np.shape(b) == (60, 1):
                raise SingularityError("spoiled clean-label solve")
            return original(solver, b)

        monkeypatch.setattr(krr_module.PSDSolver, "solve_checked", spoiled)
        monkeypatch.setattr(cli_module, "_log", messages.append)
        factors = count_calls(krr_module, "cho_factor")
        rows = self.grid_sweep(tmp_path, "swspoiled")
        assert len(factors) == 1 + 2  # the certificate and one factor per lambda^2 > 0
        failed = [row for row, before in zip(rows, clean, strict=True) if row != before]
        assert failed == [row for row in rows if row["noise"] != "0.0" and row["lambda"] != "0.0"]
        assert len(failed) == 12
        assert all(row["status"] == "error:SingularityError" for row in failed)
        errors = [message for message in messages if "failed:" in message]
        assert len(errors) == 12 and all(message.endswith("failed: spoiled clean-label solve") for message in errors)

    def test_failed_column_fails_only_its_cell(self, tmp_path, monkeypatch):
        clean = self.grid_sweep(tmp_path, "swclean")
        blocks = []
        original = krr_module.cho_solve

        def spoiled(c, b):
            x = original(c, b)
            if np.shape(b) != (60, 1):  # a ridge's block, not a quadratic form's one column
                blocks.append(np.shape(b))
                if len(blocks) == 2:  # the ridge lambda 0.5, whose column 4 fits noise 0.2 at seed 1
                    x[:, 4] += 1.0
            return x

        monkeypatch.setattr(krr_module, "cho_solve", spoiled)
        rows = self.grid_sweep(tmp_path, "swspoiled")
        # the rest of the ridge is solved again without the failed column
        assert blocks == [(60, 9), (60, 9), (60, 8), (60, 9)]
        for row, before in zip(rows, clean, strict=True):
            if (row["noise"], row["lambda"], row["seed"]) == ("0.2", "0.5", "1"):
                assert row["status"] == "error:SingularityError"
            else:
                assert row == before

    def test_analytic_sweep_builds_one_kernel(self, tmp_path, count_calls):
        grams = count_calls(AnalyticNTK, "gram")
        crosses = count_calls(AnalyticNTK, "cross")
        factors = count_calls(krr_module, "cho_factor")
        cfg = self.sweep_config(tmp_path, "swcount")
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert (len(grams), len(crosses)) == (1, 1)
        assert len(factors) == 2  # one per distinct lambda^2 in the grid [0, 1]

    def test_net_sweep_builds_one_kernel_per_seed(self, tmp_path, count_calls):
        # the empirical kernel depends on the init seed, so each seed is a group
        grams = count_calls(EmpiricalNTK, "gram")
        crosses = count_calls(EmpiricalNTK, "cross")
        cfg = self.net_krr_config(tmp_path, "swnetk")
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert (len(grams), len(crosses)) == (2, 2)
        rows = read_rows(tmp_path / "swnetk" / "results.csv")
        assert all(row["status"] == "ok" for row in rows)

    def test_one_prediction_per_group(self, tmp_path, count_calls):
        # each seed's group predicts its test outputs once, through one KRRPredictor
        # holding the coefficient rows of all its ridges and draws, from one cross kernel
        predicts = count_calls(KRRPredictor, "predict", record=lambda predictor, x: predictor.alpha.shape)
        crosses = count_calls(EmpiricalNTK, "cross")
        cfg = self.net_krr_config(tmp_path, "swpredict")
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert predicts == [(4, 30), (4, 30)]  # 2 lambdas x 2 noise levels of one seed, n = 30
        assert len(crosses) == 2

    def test_regression_rows_match_per_ridge_fits(self, tmp_path):
        # the group's one block of coefficients predicts what each cell's own fit predicts
        cfg = write_config(tmp_path, "reg.json", {
            "dataset": {"kind": "synth-sphere", "n": 40, "test_n": 30, "d": 6, "target": "smooth-poly", "seed": 5},
            "noise": {"kind": "additive", "sigma": 0.1}, "lambda_grid": [0.0, 0.5, 2.0],
            "noise_grid": [0.0, 0.1, 0.3], "seeds": [0, 1], "out": str(tmp_path / "reg")})
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        config = load_config(cfg)
        rows = read_rows(tmp_path / "reg" / "results.csv")
        assert len(rows) == 18 and all(row["status"] == "ok" for row in rows)
        train, test = build_train_test(config)
        source = AnalyticNTK(2)
        gram = source.gram(train)
        for row in rows:
            level = float(row["noise"])
            noise = build_noise_model(config["noise"], override_level=level)
            noisy = apply_noise(train, noise, (int(row["seed"]), config["noise_grid"].index(level)))
            predictor = krr_fit(gram, noisy.fit_targets(), float(row["lambda"]), source, train)
            expected = prediction_error(predictor.predict(test.inputs), test.clean_labels, test.task)
            assert abs(float(row["test_error_clean"]) - expected) <= 1e-12 * expected

    def test_linear_method_distance_recorded(self, tmp_path):
        cfg = self.sweep_config(tmp_path, "swl", method="linear-rdi")
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        out = tmp_path / "swl"
        lines = (out / "results.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        idx = header.index("distance_to_init")
        values = [line.split(",")[idx] for line in lines[1:]]
        assert all(v != "" for v in values)
        assert os.path.exists(out / "distance_summary.csv")

    def test_empty_lambda_grid_rejected(self, tmp_path):
        payload = {
            "dataset": small_synth(),
            "lambda_grid": [],
            "out": str(tmp_path / "x"),
        }
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION


class TestMnistPipeline:
    def test_krr_on_synthetic_idx_files(self, tmp_path):
        # end-to-end through the mnist-binary config path with assembled files
        from test_data import write_idx_pair

        rng = np.random.default_rng(0)
        labels = np.tile([5, 8], 20)
        train_images, train_labels, _ = write_idx_pair(tmp_path, labels, rng)
        out = tmp_path / "mnist"
        cfg = write_config(
            tmp_path, "mnist.json",
            {
                "dataset": {"kind": "mnist-binary", "images": str(train_images),
                            "labels": str(train_labels), "class_a": 5, "class_b": 8,
                            "limit": 30},
                "model": {"kind": "analytic", "depth": 2},
                "lambda": 0.5,
                "out": str(out),
            },
        )
        assert main(["krr", "--config", cfg]) == EXIT_OK
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 2


class TestErrorPaths:
    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"no_such_key": 1})
        assert main(["kernel", "--config", cfg]) == EXIT_VALIDATION

    @pytest.mark.parametrize("payload", [5, None, [["lambda", 2]], "x", []],
                             ids=["number", "null", "pairs", "string", "empty-list"])
    def test_config_must_be_an_object(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "o"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "must hold a JSON object" in captured.err and captured.out == ""
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["kernel", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_missing_referenced_file(self, tmp_path):
        cfg = write_config(
            tmp_path, "bad.json",
            {"dataset": {"kind": "mnist-binary", "images": str(tmp_path / "x.idx"),
                         "labels": str(tmp_path / "y.idx"), "class_a": 5, "class_b": 8},
             "out": str(tmp_path / "o")},
        )
        assert main(["kernel", "--config", cfg]) == EXIT_VALIDATION

    def test_equivalence_failure_exit_code(self, tmp_path):
        # force a failure by demanding an impossible tolerance
        out = tmp_path / "eqf"
        cfg = write_config(
            tmp_path, "cfg.json",
            {
                "dataset": small_synth(n=12),
                "model": {"kind": "net", "widths": [48], "freeze_first_last": False},
                "lambda_grid": [1.0],
                "steps": 50,
                "tolerance": 0.0,
                "out": str(out),
            },
        )
        assert main(["equivalence", "--config", cfg]) == EXIT_CHECK_FAILED


# A 3-class problem on which one-hot KRR at lambda 0.5 gives train error 0.0
# and clean test error 0.215.
MULTICLASS = {"kind": "synth-multiclass", "n": 200, "test_n": 200, "d": 10, "classes": 3, "seed": 1}
SMALL_MULTICLASS = {"kind": "synth-multiclass", "n": 40, "test_n": 40, "d": 6, "classes": 3, "seed": 2}


def transition_noise(tmp_path, diagonal=0.6):
    """A class-transition noise spec: ``diagonal`` stays, the rest splits evenly."""
    P = np.full((3, 3), (1.0 - diagonal) / 2.0)
    np.fill_diagonal(P, diagonal)
    path = tmp_path / "transition.csv"
    np.savetxt(path, P, delimiter=",")
    return {"kind": "class-transition", "csv": str(path)}


class TestMulticlassCommands:
    def test_krr_fits_onehot_targets(self, tmp_path):
        out = tmp_path / "mckrr"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": MULTICLASS, "lambda": 0.5, "out": str(out)})
        assert main(["krr", "--config", cfg]) == EXIT_OK
        row = read_rows(out / "results.csv")[0]
        assert (float(row["train_error_noisy"]), float(row["test_error_clean"])) == (0.0, 0.215)
        # the same numbers from krr_fit on the one-hot matrix and the argmax, computed directly
        train, test = build_train_test(load_config(cfg))
        source = AnalyticNTK(2)
        gram = source.gram(train)
        fit = krr_fit(gram, onehot_matrix(train.noisy_labels, 3), 0.5, source, train)
        train_classes = np.argmax(gram.values @ fit.alpha.T, axis=1) + 1
        test_outputs = fit.predict(test.inputs)
        test_classes = np.argmax(test_outputs, axis=1) + 1
        assert np.mean(train_classes != train.noisy_labels) == 0.0
        assert np.mean(test_classes != test.clean_labels) == 0.215
        predictions = read_rows(out / "predictions.csv")
        written = np.array([[float(r[f"output_{h}"]) for h in (1, 2, 3)] for r in predictions])
        assert np.array_equal(written, test_outputs)
        assert [int(r["predicted_class"]) for r in predictions] == list(test_classes)

    def test_sweep_cells_match_krr_command(self, tmp_path):
        out = tmp_path / "mcsweep"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": MULTICLASS, "lambda_grid": [0.0, 0.5], "noise_grid": [0.0],
             "seeds": [0, 1], "out": str(out)},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(out / "results.csv")
        assert [row["status"] for row in rows] == ["ok"] * 4
        for row in rows[2:]:  # lambda 0.5
            assert (float(row["train_error_noisy"]), float(row["test_error_clean"])) == (0.0, 0.215)
        for row in rows[:2]:  # lambda 0 interpolates the one-hot targets
            assert float(row["train_error_noisy"]) == 0.0

    def test_transition_level_zero_is_clean(self, tmp_path):
        noise = transition_noise(tmp_path)
        train, _ = build_train_test(load_config(None, {"dataset": MULTICLASS, "noise": noise}))
        assert build_noise_model(noise, override_level=0.0) is None
        corrupted = apply_noise(train, build_noise_model(noise, override_level=0.4), (0, 0))
        assert np.mean(corrupted.noisy_labels != train.clean_labels) > 0.2
        # in a sweep, level 0 gives the clean fit of the krr command
        out = tmp_path / "ctsweep"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": MULTICLASS, "noise": noise, "lambda_grid": [0.5],
             "noise_grid": [0.0, 0.4], "seeds": [0], "out": str(out)},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        clean, noisy = read_rows(out / "results.csv")
        assert (float(clean["train_error_noisy"]), float(clean["test_error_clean"])) == (0.0, 0.215)
        assert float(noisy["train_error_noisy"]) > 0.0

    def test_transition_grid_with_two_positive_levels_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": SMALL_MULTICLASS, "noise": transition_noise(tmp_path),
             "noise_grid": [0.0, 0.2, 0.4], "out": str(tmp_path / "x")},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION

    def test_sweep_bound_matches_bounds_command(self, tmp_path):
        noise = transition_noise(tmp_path)
        out = tmp_path / "ctbound"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": SMALL_MULTICLASS, "noise": noise, "lambda_grid": [0.0, 0.5, 2.0],
             "noise_grid": [0.0, 1.0], "seeds": [0], "out": str(out)},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(out / "results.csv")
        assert [row["bound_total"] != "" for row in rows] == [False] * 3 + [False, True, True]
        for row in rows[4:]:
            lam = float(row["lambda"])
            bounds_out = tmp_path / f"bounds{lam}"
            bounds_cfg = write_config(
                tmp_path, f"bounds{lam}.json",
                {"dataset": SMALL_MULTICLASS, "noise": noise, "lambda": lam, "out": str(bounds_out)},
            )
            assert main(["bounds", "--config", bounds_cfg]) == EXIT_OK
            report = json.loads((bounds_out / "bound_report.json").read_text())
            assert float(row["bound_total"]) == report["total"]

    @pytest.mark.parametrize("method", ["linear-rdi", "linear-aux"])
    def test_linear_methods_reject_multiclass(self, tmp_path, method):
        out = tmp_path / "mclin"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": SMALL_MULTICLASS, "model": {"kind": "net", "widths": [32]},
             "method": method, "lambda_grid": [0.5], "steps": 5, "out": str(out)},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
        assert not os.path.exists(out / "results.csv")


class TestOneErrorRule:
    """A sweep row scores a model as its TrainLog and empirical_clean_risk do."""

    def sweep_row(self, tmp_path, dataset, method, model):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": dataset, "model": model, "method": method, "lambda_grid": [0.5],
             "seeds": [0], "steps": 20, "out": str(tmp_path / "one")},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        (row,) = read_rows(tmp_path / "one" / "results.csv")
        assert row["status"] == "ok"
        return row, load_config(cfg)

    @pytest.mark.parametrize("dataset", [small_synth(n=40, d=6, test_n=40), SMALL_MULTICLASS])
    def test_net_row_matches_train_log(self, tmp_path, dataset):
        model = {"kind": "net", "widths": [32]}
        row, config = self.sweep_row(tmp_path, dataset, "net-vanilla", model)
        train, test = build_train_test(config)
        mlp = init_mlp(build_net_config(model, train.d, train.num_outputs), (0, 0))
        eta = 1.0 / (empirical_ntk(mlp, train).op_norm + 0.25)
        trained, _, log = train_full(mlp, train, TrainConfig("vanilla", eta=eta, steps=20, lam=0.5))
        assert float(row["train_error_noisy"]) == log.train_error[-1]
        expected = prediction_error(forward(trained, test.inputs), test.clean_labels, test.task)
        assert float(row["test_error_clean"]) == expected

    @pytest.mark.parametrize("dataset", [small_synth(n=40, d=6, test_n=40), SMALL_MULTICLASS])
    def test_krr_row_matches_clean_risk(self, tmp_path, dataset):
        row, config = self.sweep_row(tmp_path, dataset, "krr", {"kind": "analytic", "depth": 2})
        train, test = build_train_test(config)
        source = AnalyticNTK(2)
        predictor = krr_fit(source.gram(train), train.fit_targets(), 0.5, source, train)
        assert float(row["test_error_clean"]) == empirical_clean_risk(predictor, test, "zero-one")


class TestSharedRunPaths:
    """The single-run commands and the sweep run one path per method."""

    @pytest.mark.parametrize("command", ["equivalence", "train", "krr", "bounds"])
    @pytest.mark.parametrize("noise, named", [
        ({"kind": "binary-flip"}, "'p'"),
        ({"kind": "additive"}, "'sigma'"),
        ({"kind": "class-transition"}, "'csv'"),
        ({"kind": "gaussian"}, "'gaussian'"),
    ])
    def test_malformed_noise_spec_fails_validation(self, tmp_path, capsys, command, noise, named):
        # a missing key was a KeyError traceback; bounds reported an additive
        # bound for an unknown kind and exited 0
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(n=20), "noise": noise, "model": {"kind": "net", "widths": [16]},
             "method": "net-rdi", "lambda": 0.5, "steps": 2, "out": str(tmp_path / "x")},
        )
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    def test_sweep_additive_bound_matches_bounds_command(self, tmp_path):
        dataset = {"kind": "synth-sphere", "n": 40, "test_n": 20, "d": 6,
                   "target": "smooth-poly", "seed": 5}
        noise = {"kind": "additive", "sigma": 0.1}
        cfg = write_config(
            tmp_path, "sweep.json",
            {"dataset": dataset, "noise": noise, "lambda_grid": [0.0, 1.0],
             "noise_grid": [0.0, 0.1], "seeds": [0], "out": str(tmp_path / "sweep")},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "sweep" / "results.csv")
        assert [row["bound_total"] != "" for row in rows] == [False, False, False, True]
        bounds_cfg = write_config(
            tmp_path, "bounds.json",
            {"dataset": dataset, "noise": noise, "lambda": 1.0, "out": str(tmp_path / "bounds")},
        )
        assert main(["bounds", "--config", bounds_cfg]) == EXIT_OK
        report = json.loads((tmp_path / "bounds" / "bound_report.json").read_text())
        assert float(rows[3]["bound_total"]) == report["total"]

    def test_equivalence_rejects_multiclass(self, tmp_path):
        out = tmp_path / "mceq"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": dict(SMALL_MULTICLASS, n=20), "model": {"kind": "net", "widths": [32]},
             "lambda_grid": [0.5], "steps": 5, "out": str(out)},
        )
        assert main(["equivalence", "--config", cfg]) == EXIT_VALIDATION
        assert not os.path.exists(out / "trajectory.csv")


class TestLinearGroups:
    """linear-* sweep cells share one linearized model per init seed."""

    CONFIG = {
        "dataset": small_synth(n=30, d=6, test_n=20),
        "noise": {"kind": "binary-flip", "p": 0.2},
        "model": {"kind": "net", "widths": [32]},
        "method": "linear-rdi",
        "lambda_grid": [0.5, 1.0],
        "noise_grid": [0.0, 0.3],
        "seeds": [0, 1],
        "steps": 30,
    }

    def run_sweep(self, tmp_path, name, *flags, **changes):
        cfg = write_config(tmp_path, f"{name}.json", dict(self.CONFIG, out=str(tmp_path / name), **changes))
        assert main(["sweep", "--config", cfg, *flags]) == EXIT_OK
        return read_rows(tmp_path / name / "results.csv"), load_config(cfg)

    def test_linearize_once_per_seed(self, tmp_path, count_calls):
        calls = count_calls(cli_module, "linearize")
        rows, _ = self.run_sweep(tmp_path, "lin")
        assert [row["status"] for row in rows] == ["ok"] * 8
        assert len(calls) == 2

    def test_gradient_passes_per_seed(self, tmp_path, monkeypatch):
        # per seed, one pass over the 30 training inputs forms K; after the descent,
        # the test predict builds the training factors once more and makes one pass
        # over the 20 test inputs
        from ntkreg import kernel as kernel_module
        from ntkreg import linmodel as linmodel_module
        from ntkreg import net as net_module

        original = net_module.gradient_factors
        rows_seen = []

        def counted(mlp, x, *args, **kwargs):
            rows_seen.append(len(x))
            return original(mlp, x, *args, **kwargs)

        for owner in (net_module, kernel_module, linmodel_module, cli_module):
            if hasattr(owner, "gradient_factors"):
                monkeypatch.setattr(owner, "gradient_factors", counted)
        rows, _ = self.run_sweep(tmp_path, "lin")
        assert [row["status"] for row in rows] == ["ok"] * 8
        assert rows_seen == [30, 30, 20] * 2

    def test_rows_match_independent_cells(self, tmp_path):
        rows, config = self.run_sweep(tmp_path, "lin")
        i = 0
        for noise_idx, noise in enumerate(config["noise_grid"]):
            for lam in config["lambda_grid"]:
                for seed in config["seeds"]:
                    train, test = build_train_test(config)
                    model = build_noise_model(config["noise"], override_level=noise)
                    train = apply_noise(train, model, (seed, noise_idx))
                    mlp = init_mlp(build_net_config(config["model"], train.d, 1), (0, seed))
                    lm = linearize(mlp, train)
                    traj = run_gd_rdi(lm, train.noisy_labels.astype(np.float64), lam, steps=30)
                    coeffs = traj.final_coeffs()
                    train_error = prediction_error(lm.K.values @ coeffs, train.noisy_labels, train.task)
                    test_error = prediction_error(lm.predict(coeffs, test.inputs), test.clean_labels, test.task)
                    row = rows[i]
                    assert (float(row["noise"]), float(row["lambda"]), int(row["seed"])) == (noise, lam, seed)
                    assert float(row["train_error_noisy"]) == train_error
                    assert float(row["test_error_clean"]) == test_error
                    # block products round differently from one K @ a at a time
                    distance = float(traj.dist_from_init[-1])
                    assert abs(float(row["distance_to_init"]) - distance) <= 1e-12 * distance
                    i += 1
        assert i == len(rows) == 8

    def test_one_block_per_seed(self, tmp_path, count_calls):
        # every cell of a seed steps in one block of runs
        calls = count_calls(cli_module, "_descend")
        rows, _ = self.run_sweep(tmp_path, "lin")
        assert [row["status"] for row in rows] == ["ok"] * 8
        assert len(calls) == 2

    def test_diverging_lambda_fails_only_its_cells(self, tmp_path, capsys):
        # ||K|| is 6.0 and 8.6 on the two seeds' nets: eta 0.1 is below 2/(||K|| + lambda^2) at
        # lambda 0.25 and far above it at lambda 8
        rows, _ = self.run_sweep(tmp_path, "div", lambda_grid=[0.25, 8.0], eta=0.1)
        log = capsys.readouterr().out
        for row in rows:
            if float(row["lambda"]) == 8.0:
                assert row["status"] == "error:DivergenceError"
                assert f"cell noise={float(row['noise'])} lambda=8.0 seed={row['seed']} failed: " in log
            else:
                assert row["status"] == "ok"
        assert log.count("failed: ") == 4 and "sweep finished: 4 ok, 4 failed cells" in log

    def test_parallel_workers_match_sequential(self, tmp_path):
        self.run_sweep(tmp_path, "seq")
        self.run_sweep(tmp_path, "par", "--workers", "2")
        a = (tmp_path / "seq" / "results.csv").read_bytes()
        b = (tmp_path / "par" / "results.csv").read_bytes()
        assert a == b

    def test_labels_drawn_once_per_noise_level_and_seed(self, tmp_path, count_calls):
        # the config check's two probes, then one draw per (noise level > 0, seed), which the
        # group's runs and its rows share
        from ntkreg import noise as noise_module

        calls = count_calls(noise_module, "corrupt")
        rows, _ = self.run_sweep(tmp_path, "lin", noise_grid=[0.0, 0.2, 0.4])
        assert [row["status"] for row in rows] == ["ok"] * 12
        assert len(calls) == 6

    def test_aux_lambda_zero_fails_only_its_cells(self, tmp_path):
        rows, _ = self.run_sweep(tmp_path, "aux", method="linear-aux", lambda_grid=[0.0, 0.5])
        expected = ["error:ValidationError" if float(row["lambda"]) == 0.0 else "ok" for row in rows]
        assert [row["status"] for row in rows] == expected
        assert expected.count("ok") == 4


class TestNetGroups:
    """net-* sweep cells share one split, one net and one default step per init seed."""

    CONFIG = {
        "dataset": small_synth(n=30, d=6, test_n=20),
        "noise": {"kind": "binary-flip", "p": 0.2},
        "model": {"kind": "net", "widths": [32]},
        "method": "net-rdi",
        "lambda_grid": [0.0, 0.5, 1.0],
        "noise_grid": [0.0, 0.3],
        "seeds": [0, 1],
        "steps": 10,
    }

    def run_sweep(self, tmp_path, name, *flags, **changes):
        cfg = write_config(tmp_path, f"{name}.json", dict(self.CONFIG, out=str(tmp_path / name), **changes))
        assert main(["sweep", "--config", cfg, *flags]) == EXIT_OK
        return read_rows(tmp_path / name / "results.csv")

    @pytest.mark.parametrize("eta, kernels", [(None, 2), (0.05, 0)])
    def test_one_split_and_kernel_per_seed(self, tmp_path, eta, kernels, count_calls):
        # an explicit eta needs no kernel norm
        built = count_calls(cli_module, "empirical_ntk")
        splits = count_calls(cli_module, "build_train_test")
        rows = self.run_sweep(tmp_path, "net", eta=eta)
        assert [row["status"] for row in rows] == ["ok"] * 12
        assert (len(built), len(splits)) == (kernels, 2)

    def test_default_step_builds_no_factor(self, tmp_path, count_calls):
        # the kernel is read only for its norm, which its spectrum certificate computes anyway
        built = count_calls(cli_module, "empirical_ntk")
        factors = count_calls(krr_module, "cho_factor")
        rows = self.run_sweep(tmp_path, "net", seeds=[0])
        assert [row["status"] for row in rows] == ["ok"] * 6
        assert (len(built), len(factors)) == (1, 0)

    def test_parallel_workers_match_sequential(self, tmp_path):
        self.run_sweep(tmp_path, "seq")
        self.run_sweep(tmp_path, "par", "--workers", "2")
        for name in ("results.csv", "summary.csv", "distance_summary.csv"):
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    def test_diverging_lambda_fails_only_its_cells(self, tmp_path, capsys):
        # eta 0.1 trains at lambda 0.25, while at lambda 8 each step multiplies W - W0 by about
        # 1 - 0.1 * 64 = -5.4, and the objective passes the divergence limit within 30 steps
        rows = self.run_sweep(tmp_path, "div", lambda_grid=[0.25, 8.0], eta=0.1, steps=30)
        log = capsys.readouterr().out
        for row in rows:
            if float(row["lambda"]) == 8.0:
                assert row["status"] == "error:DivergenceError"
                assert f"cell noise={float(row['noise'])} lambda=8.0 seed={row['seed']} failed: " in log
            else:
                assert row["status"] == "ok" and float(row["distance_to_init"]) > 0.0
        assert log.count("failed: ") == 4 and "sweep finished: 4 ok, 4 failed cells" in log


class TestOneCopyOfTheNet:
    """A CLI net holds one read-only array per layer, shared by both branches and the snapshot."""

    BASE = {
        "dataset": small_synth(n=20, test_n=10),
        "noise": {"kind": "binary-flip", "p": 0.2},
        "model": {"kind": "net", "widths": [16, 8]},
        "lambda": 1.0,
        "lambda_grid": [0.0, 1.0],
        "noise_grid": [0.2],
        "steps": 3,
    }

    def test_one_read_only_array_per_layer(self):
        mlp = cli_module._seeded_net(self.BASE, synth_sphere(20, 6, "linear-sign", seed=3), 5)
        weights = mlp.params0[0]
        assert len(mlp.params) == len(mlp.params0) == 2 and len(weights) == mlp.config.depth
        for branch in (*mlp.params, *mlp.params0):
            assert len(branch) == len(weights) and all(w is shared for w, shared in zip(branch, weights))
        drawn = init_mlp(mlp.config, (0, 5)).params[0]
        for w, w_drawn in zip(weights, drawn):
            assert np.array_equal(w, w_drawn) and not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                np.add(w, 1.0, out=w)

    def test_commands_leave_their_nets_read_only_and_unchanged(self, tmp_path, monkeypatch):
        # a command that wrote into the shared arrays would move both branches and the snapshot at once
        nets = []
        seeded_net = cli_module._seeded_net

        def kept(*args):
            mlp = seeded_net(*args)
            nets.append((mlp, [w.copy() for w in mlp.params0[0]]))
            return mlp

        monkeypatch.setattr(cli_module, "_seeded_net", kept)
        runs = [("kernel", {}), ("train", {"method": "net-rdi"}), ("equivalence", {}),
                ("sweep", {"method": "linear-rdi", "seeds": [0, 1]}), ("sweep", {"method": "net-aux", "seeds": [0, 1]})]
        for i, (command, changes) in enumerate(runs):
            cfg = write_config(tmp_path, f"{i}.json", dict(self.BASE, out=str(tmp_path / str(i)), **changes))
            assert main([command, "--config", cfg]) == EXIT_OK
        assert len(nets) == 7
        for mlp, before in nets:
            arrays = {id(w): w for branch in (*mlp.params, *mlp.params0) for w in branch}
            assert len(arrays) == mlp.config.depth == 3
            for w, w_before in zip(mlp.params0[0], before):
                assert not w.flags.writeable and w.tobytes() == w_before.tobytes()


class TestScipyOnlyToFactor:
    """No command loads anything of scipy, and a command that solves maps one BLAS library.

    Factorizations and solves call LAPACK in the OpenBLAS library numpy has
    loaded, so neither scipy nor its own OpenBLAS, with a second thread pool,
    enters the process.
    """

    SCRIPT = (
        "import json, os, sys\n"
        "from ntkreg import cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = cli.main(argv) if argv else 0\n"
        "maps = '/proc/self/maps'\n"
        "blas = None\n"
        "if os.path.exists(maps):\n"
        "    with open(maps) as lines:\n"
        "        paths = {line.split()[-1] for line in lines}\n"
        "    blas = sorted(p for p in paths if 'openblas' in os.path.basename(p).lower())\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), blas]))\n"
    )
    NET = {"kind": "net", "widths": [32]}
    RUNS = {
        "import": (None, {}),
        "equivalence": ("equivalence", {"model": dict(NET, freeze_first_last=False), "lambda_grid": [0.5, 1.0]}),
        "train": ("train", {"method": "net-rdi", "eta": None}),
        "linear-rdi": ("sweep", {"method": "linear-rdi"}),
        "net-rdi": ("sweep", {"method": "net-rdi"}),
        "krr-sweep": ("sweep", {"method": "krr", "model": {"kind": "analytic", "depth": 2}}),
        "krr": ("krr", {"model": {"kind": "analytic", "depth": 2}}),
        "bounds": ("bounds", {"model": {"kind": "analytic", "depth": 2}}),
        "kernel": ("kernel", {"model": {"kind": "analytic", "depth": 2}}),
    }

    def modules_after(self, tmp_path, name):
        command, changes = self.RUNS[name]
        argv = []
        if command is not None:
            payload = {"dataset": small_synth(n=20, d=6, test_n=10), "noise": {"kind": "binary-flip", "p": 0.2},
                       "model": self.NET, "lambda": 0.5, "lambda_grid": [0.0, 0.5], "noise_grid": [0.0, 0.2],
                       "seeds": [0], "steps": 5, "out": str(tmp_path / name), **changes}
            argv = [command, "--config", write_config(tmp_path, f"{name}.json", payload)]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli_module.__file__)))
        out = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        code, modules, blas = json.loads(out.stdout.strip().splitlines()[-1])
        assert code == EXIT_OK
        return modules, blas

    @pytest.mark.parametrize("name", ["import", "equivalence", "train", "linear-rdi", "net-rdi", "kernel"])
    def test_no_scipy_without_a_solve(self, tmp_path, name):
        assert self.modules_after(tmp_path, name)[0] == []

    @pytest.mark.parametrize("name", ["krr-sweep", "krr", "bounds"])
    def test_solves_load_only_lapack(self, tmp_path, name):
        assert self.modules_after(tmp_path, name)[0] == []

    @pytest.mark.parametrize("name", ["krr-sweep", "krr", "bounds"])
    def test_solves_map_one_blas_library(self, tmp_path, name):
        blas = self.modules_after(tmp_path, name)[1]
        if blas is None:
            pytest.skip("no /proc/self/maps to read the mapped libraries from")
        assert len(blas) == 1, blas


class TestEigenbasisReaders:
    """Only linearized gradient descent reads eigenvectors: one eigh per linearized kernel, none elsewhere."""

    NET = {"kind": "net", "widths": [16], "freeze_first_last": False}

    @pytest.mark.parametrize("command, changes, counts", [
        pytest.param("equivalence", {"lambda_grid": [0.5, 1.0]}, (1, 0), id="equivalence"),
        pytest.param("sweep", {"method": "linear-rdi", "seeds": [0, 1]}, (2, 0), id="linear-rdi-2-seeds"),
        pytest.param("sweep", {"method": "linear-aux", "lambda_grid": [0.5], "eta": 0.01}, (1, 0),
                     id="linear-aux-explicit-eta"),
        pytest.param("train", {"method": "net-rdi", "eta": None}, (0, 1), id="train"),
        pytest.param("sweep", {"method": "net-rdi"}, (0, 1), id="net-rdi"),
    ])
    def test_eigh_calls(self, tmp_path, command, changes, counts, count_calls):
        bases = count_calls(np.linalg, "eigh")
        spectra = count_calls(np.linalg, "eigvalsh")
        payload = {"dataset": small_synth(n=20, test_n=10), "noise": {"kind": "binary-flip", "p": 0.2},
                   "model": self.NET, "lambda": 0.5, "lambda_grid": [0.0, 0.5], "noise_grid": [0.0, 0.2],
                   "seeds": [0], "steps": 5, "out": str(tmp_path / "out"), **changes}
        assert main([command, "--config", write_config(tmp_path, "cfg.json", payload)]) == EXIT_OK
        assert (len(bases), len(spectra)) == counts


class TestWorkerThreads:
    """Sweep workers start fresh with max(1, cores // workers) BLAS threads unless the user chose."""

    NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_sets_and_restores(self, monkeypatch):
        for name in self.NAMES:
            monkeypatch.delenv(name, raising=False)
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with cli_module._worker_blas_threads(2):
            assert [os.environ[name] for name in self.NAMES] == [str(max(1, cores // 2))] * 3
        with cli_module._worker_blas_threads(10 * cores):
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert not any(name in os.environ for name in self.NAMES)

    def test_user_setting_kept(self, monkeypatch):
        for name in self.NAMES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        with cli_module._worker_blas_threads(2):
            assert [os.environ.get(name) for name in self.NAMES] == [None, "3", None]
        assert [os.environ.get(name) for name in self.NAMES] == [None, "3", None]

    def test_sweep_spawns_workers_inside(self, tmp_path, monkeypatch):
        # the pool is built while the variables are set, with a spawn context; run it in-process here
        for name in self.NAMES:
            monkeypatch.delenv(name, raising=False)
        seen = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                seen.append((mp_context.get_start_method(), os.environ.get("OPENBLAS_NUM_THREADS")))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]}, "method": "linear-rdi",
            "lambda_grid": [0.5], "seeds": [0, 1], "steps": 5, "workers": 2, "out": str(tmp_path / "sw"),
        })
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert len(seen) == 1 and seen[0][0] == "spawn" and seen[0][1] is not None
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestNoiseKindValidation:
    @pytest.mark.parametrize("command", ["kernel", "equivalence", "train", "krr", "bounds", "sweep"])
    def test_unknown_kind_rejected_before_output(self, tmp_path, capsys, command):
        # a sweep used to write an ok row at level 0 and an error row at 0.2, and exit 0
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(n=30), "noise": {"kind": "gaussian"}, "noise_grid": [0.0, 0.2],
             "model": {"kind": "net", "widths": [16]}, "method": "net-rdi", "steps": 2,
             "out": str(out)},
        )
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'gaussian'" in err and "class-transition" in err
        assert not out.exists()

    @pytest.mark.parametrize("level", ["-0.3", "nan", "0.5"])
    def test_noise_flag_out_of_range_rejected_before_output(self, tmp_path, capsys, level):
        # only 0 means no noise: every other level is a flip probability, checked before any output
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=20), "out": str(out)})
        assert main(["krr", "--config", cfg, "--noise", level]) == EXIT_VALIDATION
        assert "flip probability" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("level, noise", [("0", {"kind": "none"}), ("0.2", {"kind": "binary-flip", "p": 0.2})])
    def test_noise_flag_sets_the_noise(self, tmp_path, level, noise):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=20), "out": str(out)})
        assert main(["krr", "--config", cfg, "--noise", level]) == EXIT_OK
        assert json.loads((out / "resolved_config.json").read_text())["noise"] == noise
        assert (out / "results.csv").exists()


REGRESSION = {"kind": "synth-sphere", "n": 20, "d": 6, "target": "smooth-poly", "seed": 5}
TINY_MNIST = {"kind": "mnist-binary", "images": "images.idx", "labels": "labels.idx", "class_a": 5, "class_b": 8}
LOCAL_TRANSITION = {"kind": "class-transition", "csv": "transition.csv"}  # as ``transition_noise`` writes it
TASK_DATA = {"binary": small_synth(n=20), "regression": REGRESSION, "multiclass": SMALL_MULTICLASS}
TASK_NOISE = {"binary": {"kind": "binary-flip", "p": 0.2}, "regression": {"kind": "additive", "sigma": 0.1}}


class TestOneConfigCheck:
    """Every config check runs once, after the flags and before any output."""

    @pytest.mark.parametrize("command, changes, named", [
        pytest.param("sweep", {"method": "net-rdi", "model": {"kind": "analytic"}}, "'analytic'",
                     id="net-method-analytic-sweep"),
        pytest.param("train", {"method": "net-rdi", "model": {"kind": "analytic"}}, "'analytic'",
                     id="net-method-analytic-train"),
        pytest.param("sweep", {"method": "linear-rdi", "model": {"kind": "analytic"}}, "'analytic'",
                     id="linear-method-analytic"),
        pytest.param("sweep", {"method": "net-rdi", "model": {"kind": "net", "width": [16]}}, "'width'",
                     id="width-typo"),
        pytest.param("krr", {"model": {"kind": "foo"}}, "'foo'", id="model-kind"),
        pytest.param("kernel", {"model": {"kind": "net", "widths": [0]}}, "width", id="widths-0"),
        pytest.param("krr", {"dataset": {"kind": "synth-sphere", "d": 6, "target": "linear-sign", "seed": 3}},
                     "'n'", id="dataset-without-n"),
        pytest.param("sweep", {"dataset": dict(small_synth(n=20), kind="synth-cube")}, "'synth-cube'",
                     id="dataset-kind"),
        pytest.param("sweep", {"dataset": small_synth(n=20) | {"target": "linear-sgn"}}, "'linear-sgn'",
                     id="target"),
        pytest.param("sweep", {"noise": {"kind": "binary-flip", "p": 0.2}, "noise_grid": [0.0, 0.7]}, "0.7",
                     id="flip-level"),
        pytest.param("krr", {"dataset": REGRESSION, "noise": {"kind": "additive", "sigma": 0.1, "shape": "uniform"}},
                     "'uniform'", id="additive-shape"),
        pytest.param("train", {"method": "krr"}, "'krr'", id="train-krr"),
        pytest.param("bounds", {"lambda": 0.0}, "lambda", id="bounds-lambda-0"),
        pytest.param("sweep", {"lambda_grid": []}, "lambda_grid", id="empty-lambda-grid"),
        pytest.param("sweep", {"lambda_grid": [0.5, float("nan")]}, "lambda", id="lambda-grid-nan"),
        # integer and boolean fields are checked, not truncated or coerced, and seeds are >= 0
        pytest.param("krr", {"seeds": [-1]}, "seeds", id="seeds-negative-krr"),
        pytest.param("sweep", {"seeds": [-1]}, "seeds", id="seeds-negative-sweep"),
        pytest.param("krr", {"dataset": small_synth(n=20, seed=-3)}, "'seed'", id="dataset-seed-negative"),
        pytest.param("krr", {"dataset": small_synth(n=20) | {"seed": True}}, "'seed'", id="dataset-seed-true"),
        pytest.param("kernel", {"model": {"kind": "net", "widths": [16], "init_seed": -1}}, "'init_seed'",
                     id="init-seed-negative"),
        pytest.param("kernel", {"model": {"kind": "net", "widths": [16], "init_seed": 1.5}}, "'init_seed'",
                     id="init-seed-float"),
        pytest.param("train", {"method": "net-rdi", "model": {"kind": "net", "widths": [16], "init_seed": True}},
                     "'init_seed'", id="init-seed-true"),
        pytest.param("kernel", {"model": {"kind": "net", "widths": 16}}, "'widths'", id="widths-not-a-list"),
        pytest.param("kernel", {"model": {"kind": "net", "widths": [16.9]}}, "'widths'", id="width-float"),
        pytest.param("krr", {"dataset": small_synth(n=20) | {"n": 20.7}}, "'n'", id="n-float"),
        pytest.param("krr", {"dataset": small_synth(n=20, test_n=10) | {"test_n": 10.5}}, "'test_n'",
                     id="test-n-float"),
        pytest.param("krr", {"model": {"kind": "analytic", "depth": 2.9}}, "'depth'", id="depth-float"),
        pytest.param("sweep", {"method": "net-rdi",
                               "model": {"kind": "net", "widths": [16], "freeze_first_last": "no"}},
                     "'freeze_first_last'", id="flag-string"),
        # a transition ignores its level, so these swept the transition and wrote rows at level -1 and nan
        pytest.param("sweep", {"dataset": SMALL_MULTICLASS, "noise": LOCAL_TRANSITION, "noise_grid": [-1.0]},
                     "noise_grid", id="transition-level-negative"),
        pytest.param("sweep", {"dataset": SMALL_MULTICLASS, "noise": LOCAL_TRANSITION, "noise_grid": [float("nan")]},
                     "noise_grid", id="transition-level-nan"),
        # each of these failed only after resolved_config.json was written
        pytest.param("krr", {"dataset": small_synth(n=20) | {"n": 0}}, "'n'", id="n-0"),
        pytest.param("train", {"method": "net-rdi", "model": {"kind": "net", "widths": [16]}, "lambda": 1e200},
                     "lambda", id="train-lambda-square-overflows"),
        pytest.param("krr", {"lambda": 1e200}, "lambda", id="krr-lambda-square-overflows"),
        pytest.param("bounds", {"sigma": float("inf")}, "sigma", id="bounds-sigma-inf"),
        # equivalence wrote both runs of a repeated lambda to trajectory.csv and one to equivalence.json,
        # and a sweep wrote each repeated cell's results.csv row twice
        pytest.param("equivalence", {"model": {"kind": "net", "widths": [16]}, "lambda_grid": [1.0, 1.0]},
                     "lambda_grid repeats a value", id="equivalence-repeated-lambda"),
        pytest.param("equivalence", {"model": {"kind": "net", "widths": [16]}, "lambda_grid": [0.5, 1, 1.0]},
                     "lambda_grid repeats a value", id="equivalence-int-and-float-lambda"),
        pytest.param("sweep", {"seeds": [0, 0]}, "seeds repeats a value", id="sweep-repeated-seed"),
        pytest.param("sweep", {"noise_grid": [0.2, 0.0, 0.2]}, "noise_grid repeats a value",
                     id="sweep-repeated-noise-level"),
    ])
    def test_rejected_before_output(self, tmp_path, monkeypatch, capsys, command, changes, named):
        monkeypatch.chdir(tmp_path)
        transition_noise(tmp_path)  # transition.csv, for the class-transition cases
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=20), "steps": 2, "out": str(out)}
        cfg = write_config(tmp_path, "cfg.json", dict(payload, **changes))
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("changes, named", [
        pytest.param({"dataset": "synth"}, "dataset", id="dataset-string"),
        pytest.param({"noise": None}, "noise", id="noise-null"),
        pytest.param({"model": [1]}, "model", id="model-list"),
        pytest.param({"test_dataset": "x"}, "dataset", id="test-dataset-string"),
        pytest.param({"noise": {"kind": "binary-flip", "p": "abc"}}, "'p'", id="p-abc"),
        pytest.param({"noise": {"kind": "binary-flip", "p": [0.2]}}, "'p'", id="p-list"),
        pytest.param({"noise": {"kind": "binary-flip", "p": "0.2"}}, "'p'", id="p-numeric-string"),
        pytest.param({"noise": {"kind": "binary-flip", "p": True}}, "'p'", id="p-true"),
        pytest.param({"dataset": REGRESSION, "noise": {"kind": "additive", "sigma": "0.1"}}, "'sigma'",
                     id="sigma-string"),
        pytest.param({"out": 5}, "out", id="out-number"),
        pytest.param({"dataset": TINY_MNIST | {"images": 3}}, "'images'", id="images-number"),
        pytest.param({"dataset": TINY_MNIST | {"labels": ["labels.idx"]}}, "'labels'", id="labels-list"),
        pytest.param({"noise": {"kind": "class-transition", "csv": None}}, "'csv'", id="csv-null"),
        pytest.param({"dataset": small_synth(n=20) | {"test_n": 0}}, "'test_n'", id="test-n-0"),
        pytest.param({"dataset": small_synth(n=20) | {"test_n": -5}}, "'test_n'", id="test-n-negative"),
        pytest.param({"dataset": TINY_MNIST | {"limit": 0}}, "'limit'", id="limit-0"),
        pytest.param({"dataset": TINY_MNIST | {"limit": -1}}, "'limit'", id="limit-negative"),
    ])
    def test_malformed_config_is_a_validation_error(self, tmp_path, monkeypatch, capsys, changes, named):
        # every case crashed with a traceback, ran, or failed under a message naming another field
        from test_data import write_idx_pair

        monkeypatch.chdir(tmp_path)  # TINY_MNIST names its IDX pair relative to the working directory
        write_idx_pair(tmp_path, [5, 8, 5, 8, 5], np.random.default_rng(0), rows=2, cols=2)
        cfg = write_config(tmp_path, "cfg.json", dict({"out": "out"}, **changes))
        assert main(["krr", "--config", cfg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and named in err
        assert not (tmp_path / "out").exists()

    def test_depth_flag_over_a_malformed_model_is_a_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"model": [1], "out": str(tmp_path / "out")})
        assert main(["krr", "--config", cfg, "--depth", "3"]) == EXIT_VALIDATION
        assert "the model spec must be a JSON object" in capsys.readouterr().err
        # --width replaces the model with a net of that width, as it replaces an analytic one
        assert main(["kernel", "--config", cfg, "--width", "8"]) == EXIT_OK

    @pytest.mark.parametrize("command, key, value", [
        ("sweep", "lambda_grid", "[0.5, 1e400]"),
        ("krr", "lambda", "1e400"),
        ("bounds", "lambda", "1e400"),
    ])
    def test_infinite_lambda_rejected_before_output(self, tmp_path, capsys, command, key, value):
        # JSON reads 1e400 as inf: the sweep exited 0 with every cell failed, and krr and bounds
        # exited 3 with a NaN residual after writing their output
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=20), "noise": {"kind": "binary-flip", "p": 0.2}, "out": str(out)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload)[:-1] + f', "{key}": {value}}}')
        assert main([command, "--config", str(cfg)]) == EXIT_VALIDATION
        assert "lambda" in capsys.readouterr().err
        assert not out.exists()

    BINARY = {"kind": "synth-sphere", "n": 40, "d": 10, "target": "linear-sign", "seed": 1}

    @pytest.mark.parametrize("command", ["krr", "sweep"])
    @pytest.mark.parametrize("dataset, test_dataset, named", [
        pytest.param(BINARY, {"kind": "mnist-binary", "images": "no-such-dir/images.idx",
                              "labels": "no-such-dir/labels.idx", "class_a": 1, "class_b": 7},
                     "no-such-dir/images.idx", id="missing-files"),
        pytest.param(BINARY, dict(BINARY, d=5), "(5, 'binary', 0) against (10, 'binary', 0)", id="dimension"),
        pytest.param(BINARY, dict(BINARY, target="smooth-poly"), "'regression'", id="task"),
        pytest.param(dict(SMALL_MULTICLASS, test_n=None), dict(SMALL_MULTICLASS, classes=4, test_n=None),
                     "(6, 'multiclass', 4) against (6, 'multiclass', 3)", id="classes"),
    ])
    def test_test_dataset_checked_before_output(self, tmp_path, capsys, command, dataset, test_dataset, named):
        # a test set the training set's model cannot score ran, and reported a wrong error or failed late
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": dataset, "test_dataset": test_dataset,
                                                  "lambda_grid": [0.5], "out": str(out)})
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["krr", "sweep"])
    @pytest.mark.parametrize("case", ["synthetic", "with-test-n"])
    def test_synthetic_or_second_test_set_refused(self, tmp_path, capsys, command, case):
        # a synthetic test set drew its own target direction: krr fit its training labels exactly and
        # reported test error 0.75, and the training set's test_n was silently ignored beside it
        from test_data import write_idx_pair

        images, labels, _ = write_idx_pair(tmp_path, [5, 8, 5, 8, 5], np.random.default_rng(0), rows=2, cols=2)
        mnist = {"kind": "mnist-binary", "images": str(images), "labels": str(labels), "class_a": 5, "class_b": 8}
        dataset, test_dataset, named = {
            "synthetic": (dict(self.BINARY, d=4), dict(self.BINARY, d=4, n=20, seed=2, test_n=7),
                          "synth-sphere test_dataset draws its own target direction"),
            "with-test-n": (dict(self.BINARY, d=4, test_n=7), mnist, "test_n and a test_dataset"),
        }[case]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": dataset, "test_dataset": test_dataset,
                                                  "lambda_grid": [0.5], "out": str(out)})
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()
        # the MNIST test files beside a training set without test_n pass
        dataset.pop("test_n", None)
        cfg = write_config(tmp_path, "ok.json", {"dataset": dataset, "test_dataset": mnist, "out": str(out)})
        assert load_config(cfg, None, command)["test_dataset"] == mnist

    @pytest.mark.parametrize("method, model, task", [
        *[("krr", model, task) for model in ("analytic", "net") for task in TASK_DATA],
        *[(method, "net", task) for method in ("linear-rdi", "linear-aux") for task in ("binary", "regression")],
        *[(method, "net", task) for method in ("net-rdi", "net-aux", "net-vanilla") for task in TASK_DATA],
    ])
    def test_advertised_combinations_validate(self, tmp_path, method, model, task):
        noise = TASK_NOISE.get(task) or transition_noise(tmp_path)
        models = {"analytic": {"kind": "analytic", "depth": 2}, "net": {"kind": "net", "widths": [16]}}
        cfg = write_config(tmp_path, "cfg.json", {"dataset": TASK_DATA[task], "noise": noise,
                                                  "model": models[model], "method": method})
        single = {"krr": ("krr", "bounds", "kernel"), "linear": ("equivalence",), "net": ("train",)}
        for command in ("sweep", *single[method.split("-")[0]]):
            assert load_config(cfg, None, command)["method"] == method

    def test_readme_example_config_validates(self, tmp_path):
        readme = (Path(__file__).parent / ".." / "README.md").read_text()
        example = readme.split("Example config:")[1].split("```json")[1].split("```")[0]
        cfg = write_config(tmp_path, "example.json", json.loads(example))
        assert load_config(cfg, None, command="sweep")["noise_grid"] == [0.0, 0.2, 0.4]

    def test_readme_spec_table_matches_specs(self):
        readme = (Path(__file__).parent / ".." / "README.md").read_text()
        table = readme.split("| section | kind | required | optional (default) |")[1].split("\n\n")[0]

        def names(cell):  # the field names, without the defaults and notes in parentheses
            return sorted(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell)))

        documented = {}
        for line in table.strip().splitlines()[1:]:  # below the --- row
            section, kind, required, optional = (cell.strip() for cell in line.strip().strip("|").split("|"))
            documented[section.strip("`"), kind.strip("`")] = (names(required), names(optional))
        required = (cli_module._REQUIRED, cli_module._LEVEL)
        coded = {
            (section, kind): (sorted(k for k, v in fields.items() if v in required),
                              sorted(k for k, v in fields.items() if v not in required))
            for section, kinds in cli_module._SPECS.items() for kind, fields in kinds.items()
        }
        assert documented == coded

    def test_readme_common_flags_match_the_parser(self):
        readme = (Path(__file__).parent / ".." / "README.md").read_text()
        documented = re.findall(r"`(--[a-z-]+)`", readme.split("Common flags:")[1].split(".")[0])
        commands = next(action for action in cli_module._build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for command, parser in commands.choices.items():
            coded = [option for action in parser._actions for option in action.option_strings
                     if option.startswith("--") and option != "--help"]
            assert coded == documented, command

    @pytest.mark.parametrize("command, method", [("equivalence", "linear-rdi"), ("train", "net-rdi")])
    def test_net_drawn_once(self, tmp_path, command, method, count_calls):
        # validation checks the model spec without drawing the net; the command draws it
        calls = count_calls(cli_module, "init_mlp")
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=20), "method": method, "steps": 2,
                                                  "model": {"kind": "net", "widths": [16]}, "lambda_grid": [1.0],
                                                  "out": str(tmp_path / "out")})
        assert main([command, "--config", cfg]) == EXIT_OK
        assert len(calls) == 1

    def test_flags_apply_before_validation(self, tmp_path):
        # a config without seeds runs with --seed; the check used to run before the flags
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=10), "seeds": [],
                                                  "out": str(tmp_path / "out")})
        assert main(["kernel", "--config", cfg, "--seed", "3"]) == EXIT_OK
        assert json.loads((tmp_path / "out" / "resolved_config.json").read_text())["seeds"] == [3]

    @pytest.mark.parametrize("model, resolved", [
        ({"kind": "analytic", "depth": 3}, {"kind": "net", "widths": [16]}),
        ({"kind": "net", "widths": [8, 8], "init_seed": 2}, {"kind": "net", "widths": [16], "init_seed": 2}),
    ])
    def test_width_flag(self, tmp_path, model, resolved):
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=10), "model": model,
                                                  "out": str(tmp_path / "out")})
        assert main(["kernel", "--config", cfg, "--width", "16"]) == EXIT_OK
        assert json.loads((tmp_path / "out" / "resolved_config.json").read_text())["model"] == resolved

    def test_depth_flag_on_net_model_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=10), "model": {"kind": "net"},
                                                  "out": str(tmp_path / "out")})
        assert main(["kernel", "--config", cfg, "--depth", "3"]) == EXIT_VALIDATION
        assert "'depth'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validated_once_per_run(self, tmp_path, count_calls):
        calls = count_calls(cli_module, "_validate_config")
        assert main(["kernel", "--out", str(tmp_path / "out"), "--seed", "1"]) == EXIT_OK
        assert len(calls) == 1

    def test_kernel_draws_net_at_run_seed(self, tmp_path, capsys):
        # the kernel command drew a net model at run seed 0 whatever --seed said
        assert main(["kernel", "--width", "16", "--seed", "3", "--out", str(tmp_path / "k")]) == EXIT_OK
        config = json.loads((tmp_path / "k" / "resolved_config.json").read_text())
        train, _ = build_train_test(config)
        traces = [empirical_ntk(cli_module._seeded_net(config, train, seed), train).trace for seed in (0, 3)]
        assert traces[0] != traces[1]
        assert f"trace = {traces[1]!r}" in capsys.readouterr().out.splitlines()

    def test_failed_cell_logs_its_message(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json",
            {"dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]}, "method": "linear-aux",
             "lambda_grid": [0.0, 0.5], "seeds": [4], "steps": 5, "out": str(tmp_path / "out")},
        )
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "results.csv")
        assert [row["status"] for row in rows] == ["error:ValidationError", "ok"]
        failed = [line for line in capsys.readouterr().out.splitlines() if "failed:" in line]
        assert len(failed) == 1
        assert "noise=0.0 lambda=0.0 seed=4" in failed[0]
        assert "the auxiliary objective needs lam > 0, got 0.0" in failed[0]

    @pytest.mark.parametrize("command, method", [("sweep", "linear-rdi"), ("equivalence", "krr")])
    def test_tangent_runs_need_difference_trick(self, tmp_path, capsys, command, method):
        # the tangent model exists only for a difference-trick net
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {
            "dataset": small_synth(n=20), "method": method, "steps": 2, "out": str(out),
            "model": {"kind": "net", "widths": [16], "difference_trick": False},
        })
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert "difference_trick" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, changes, flags, named", [
        pytest.param("sweep", {"method": "net-rdi", "eta": -0.1}, [], "eta", id="negative-eta-sweep"),
        pytest.param("train", {"method": "net-rdi"}, ["--eta", "0"], "eta", id="eta-flag-0"),
        pytest.param("equivalence", {}, ["--steps", "-1"], "steps", id="negative-steps"),
        pytest.param("train", {"method": "net-rdi", "steps": 2.5}, [], "steps", id="fractional-steps"),
    ])
    def test_eta_and_steps_checked_before_output(self, tmp_path, capsys, command, changes, flags, named):
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]}, "steps": 2,
                   "out": str(out)}
        cfg = write_config(tmp_path, "cfg.json", dict(payload, **changes))
        assert main([command, "--config", cfg, *flags]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, changes, named", [
        pytest.param("sweep", {"delta": 1.5}, "delta", id="sweep-delta"),
        pytest.param("sweep", {"constant_mode": "bogus"}, "'bogus'", id="sweep-constant-mode"),
        pytest.param("bounds", {"delta": 1.5}, "delta", id="bounds-delta"),
        pytest.param("bounds", {"constant_mode": "bogus"}, "'bogus'", id="bounds-constant-mode"),
        pytest.param("bounds", {"sigma": -1.0}, "sigma", id="bounds-sigma"),
    ])
    def test_bound_settings_checked_before_output(self, tmp_path, capsys, command, changes, named):
        # a noisy krr sweep used to exit 0 with every noisy cell failed; bounds wrote its directory first
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=20), "noise": {"kind": "binary-flip", "p": 0.2},
                   "noise_grid": [0.0, 0.2], "lambda_grid": [0.5], "out": str(out)}
        cfg = write_config(tmp_path, "cfg.json", dict(payload, **changes))
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("changes, named", [
        pytest.param({"lambda_grid": [0.0], "lambda": 0.0}, "lambda", id="no-positive-lambda"),
        pytest.param({"tolerance": -1e-10}, "tolerance", id="negative-tolerance"),
        pytest.param({"tolerance": None}, "tolerance", id="null-tolerance"),
    ])
    def test_equivalence_settings_checked_before_output(self, tmp_path, capsys, changes, named):
        # no positive lambda used to exit 2 after writing resolved_config.json, and a negative
        # tolerance ran every step to exit 5
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=20), "model": {"kind": "net", "widths": [16]}, "steps": 2,
                   "out": str(out)}
        cfg = write_config(tmp_path, "cfg.json", dict(payload, **changes))
        assert main(["equivalence", "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_multiclass_bounds_need_transition_noise(self, tmp_path, capsys):
        # class ids are not regression targets; multiclass data has only the transition bound
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": dict(SMALL_MULTICLASS, n=20), "out": str(out)})
        assert main(["bounds", "--config", cfg]) == EXIT_VALIDATION
        assert "class-transition" in capsys.readouterr().err
        assert not out.exists()
        cfg = write_config(tmp_path, "ok.json", {"dataset": dict(SMALL_MULTICLASS, n=20), "out": str(out),
                                                 "noise": transition_noise(tmp_path)})
        assert main(["bounds", "--config", cfg]) == EXIT_OK
        assert json.loads((out / "bound_report.json").read_text())["gap"] is not None

    @pytest.mark.parametrize("command, method, named", [
        ("equivalence", "linear-rdi", "binary or regression"),
        ("sweep", "linear-rdi", "binary or regression"),
        ("bounds", "krr", "class-transition"),
    ])
    def test_multiclass_rules_read_the_task(self, tmp_path, monkeypatch, capsys, command, method, named):
        # the rules tested the kind name synth-multiclass, so multiclass data of any other kind passed them
        monkeypatch.setattr(cli_module, "build_dataset",
                            lambda spec: synth_multiclass(spec["n"], spec["d"], 3, spec["seed"]))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=20), "noise": {"kind": "none"},
                                                  "method": method, "model": {"kind": "net", "widths": [16]},
                                                  "lambda_grid": [0.5], "steps": 2, "out": str(out)})
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("test_dataset", [False, {}, 0, []], ids=["false", "empty-object", "zero", "empty-list"])
    def test_falsy_test_dataset_is_refused(self, tmp_path, capsys, test_dataset):
        # only null means no test set: each of these ran krr with an empty test_error_clean
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "cfg.json", {"dataset": small_synth(n=20), "test_dataset": test_dataset,
                                                  "out": str(out)})
        assert main(["krr", "--config", cfg]) == EXIT_VALIDATION
        assert "dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, changes, named", [
        pytest.param("krr", {"lambda": "1"}, "numbers", id="lambda-string"),
        pytest.param("krr", {"lambda": True}, "numbers", id="lambda-bool"),
        pytest.param("krr", {"lambda_grid": ["x"]}, "numbers", id="lambda-grid-string-krr"),
        pytest.param("sweep", {"lambda_grid": ["x"]}, "numbers", id="lambda-grid-string-sweep"),
        pytest.param("sweep", {"noise_grid": ["x"]}, "numbers", id="noise-grid-string"),
        pytest.param("krr", {"seeds": ["a"]}, "seeds", id="seed-string-krr"),
        pytest.param("sweep", {"seeds": ["a"]}, "seeds", id="seed-string-sweep"),
        pytest.param("sweep", {"seeds": [1.5]}, "seeds", id="seed-fraction"),
        pytest.param("krr", {"seeds": [True]}, "seeds", id="seed-bool"),
        pytest.param("sweep", {"workers": "two"}, "workers", id="workers-string"),
        pytest.param("sweep", {"workers": 0}, "workers", id="workers-0"),
        pytest.param("sweep", {"workers": True}, "workers", id="workers-bool"),
        pytest.param("bounds", {"sigma": "0.1"}, "sigma", id="sigma-string"),
        pytest.param("sweep", {"delta": "0.1"}, "delta", id="delta-string"),
    ])
    def test_wrong_types_rejected_before_output(self, tmp_path, capsys, command, changes, named):
        # a wrongly typed top-level value used to crash with a traceback, in some cases after
        # writing the output directory, or to run with a truncated seed
        out = tmp_path / "out"
        payload = {"dataset": small_synth(n=30), "lambda_grid": [0.5], "out": str(out)}
        cfg = write_config(tmp_path, "cfg.json", dict(payload, **changes))
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()
