import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optlaws
from optlaws import cli
from optlaws.cli import main, read_runs_csv, sweep_grid
from optlaws.divergence import DEFAULT_PARAMS, critical_rate, gated_criterion
from optlaws.law import FittedLaw, RunConfig, predict, reference_law
from optlaws.schedule import build_general_schedule
from util import count_per_config_calls, fixture_corpus, records_to_csv


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture()
def law_file(tmp_path, runs_csv):
    out = tmp_path / "law.json"
    assert run_cli(["fit", "--runs", runs_csv, "--out", out]) == 0
    return out


class TestFixtures:
    def test_committed_corpus_is_fresh(self, runs_csv):
        assert runs_csv.read_text(encoding="utf-8") == records_to_csv(fixture_corpus())

    def test_read_runs_round_trip(self, runs_csv):
        records = read_runs_csv(str(runs_csv))
        assert len(records) == 66
        assert sum(r.diverged for r in records) == 2


class TestFit:
    def test_fit_fixture_corpus(self, tmp_path, runs_csv, capsys):
        out = tmp_path / "law.json"
        assert run_cli(["fit", "--runs", runs_csv, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual_rms"] <= 1e-10
        assert report["n_divergent_excluded"] == 2
        law = FittedLaw.from_json(out.read_text())
        assert law.mode == "pretrain"

    def test_malformed_row_reports_line(self, tmp_path, runs_csv, capsys):
        bad = tmp_path / "bad.csv"
        lines = runs_csv.read_text().splitlines()
        lines[3] = lines[3].replace(",", ",oops,", 1)
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli(["fit", "--runs", bad, "--out", tmp_path / "law.json"]) == 1
        assert "line 4" in capsys.readouterr().err

    def test_wrong_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli(["fit", "--runs", bad, "--out", tmp_path / "law.json"]) == 1
        assert "header" in capsys.readouterr().err

    def test_law_file_round_trips_byte_for_byte(self, law_file):
        text = law_file.read_text()
        assert FittedLaw.from_json(text).to_json() == text


class TestCheck:
    def test_check_outputs_criterion_json(self, capsys):
        assert run_cli(["check", "--eta-max", 0.4, "--warmup", 8.39,
                        "--model", 4.05, "--tokens", 100]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"R", "eta_L", "verdict"}
        assert payload["verdict"] == "stable"
        assert 0.4 < payload["R"] < 0.7

    def test_check_raw_lr_flag(self, capsys):
        assert run_cli(["check", "--eta-max", 6e-3, "--raw-lr", "--warmup", 8.39,
                        "--model", 4.05, "--tokens", 100]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert run_cli(["check", "--eta-max", 0.4, "--warmup", 8.39,
                        "--model", 4.05, "--tokens", 100]) == 0
        norm = json.loads(capsys.readouterr().out)
        assert raw == norm


class TestPredictRank:
    def _config(self, tokens=10.0, eta=4.5e-3, warmup=1.5, model=0.58):
        return {
            "model_B": model, "tokens_B": tokens, "eta1": eta, "eta2": eta,
            "a1_B": warmup, "a2_B": warmup, "a3_B": warmup,
        }

    def test_predict(self, tmp_path, law_file, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self._config()))
        assert run_cli(["predict", "--law", law_file, "--config", cfg]) == 0
        pred = json.loads(capsys.readouterr().out)
        assert math.exp(pred["log_loss"]) == pytest.approx(pred["loss"], rel=1e-12)
        assert 1.5 < pred["loss"] < 4.0

    def test_rank_orders_by_loss(self, tmp_path, law_file, capsys):
        cfgs = tmp_path / "configs.json"
        cfgs.write_text(json.dumps([
            self._config(eta=1.5e-3), self._config(eta=4.5e-3), self._config(eta=3e-3),
        ]))
        assert run_cli(["rank", "--law", law_file, "--configs", cfgs]) == 0
        table = json.loads(capsys.readouterr().out)
        losses = [row["loss"] for row in table]
        assert losses == sorted(losses)
        assert [row["rank"] for row in table] == [1, 2, 3]

    def test_rank_lists_unpriced_configs(self, tmp_path, law_file, capsys):
        # zero warmup at the critical rate: stable, but the fitted
        # pretrain-mode law cannot price it
        eta_crit = critical_rate(0.58, 10.0) * 1.5e-2
        unpriceable = {**self._config(eta=eta_crit, warmup=0.0), "a2_B": 2.0, "a3_B": 5.0}
        cfgs = tmp_path / "configs.json"
        cfgs.write_text(json.dumps([
            self._config(eta=0.9, warmup=0.01, tokens=3.0), unpriceable,
            self._config(eta=1.5e-3),
        ]))
        assert run_cli(["rank", "--law", law_file, "--configs", cfgs]) == 0
        table = json.loads(capsys.readouterr().out)
        assert [(row["index"], row["verdict"]) for row in table] == [
            (2, "ok"), (1, "unpriced"), (0, "diverge")]
        assert table[1]["log_loss"] is None and table[1]["loss"] is None
        assert table[1]["R"] == 0.0

    def test_rank_empty_is_usage_error(self, tmp_path, law_file, capsys):
        cfgs = tmp_path / "configs.json"
        cfgs.write_text("[]")
        assert run_cli(["rank", "--law", law_file, "--configs", cfgs]) == 1
        assert "nonempty" in capsys.readouterr().err

    def test_pipeline_byte_identical_across_runs(self, tmp_path, runs_csv, capsys,
                                                 monkeypatch):
        outputs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)  # identical relative arguments both times
            (d / "config.json").write_text(json.dumps(self._config()))
            (d / "configs.json").write_text(json.dumps([
                self._config(eta=1.5e-3), self._config(eta=4.5e-3),
            ]))
            run_cli(["fit", "--runs", runs_csv, "--out", "law.json",
                     "--report", "fit_report.json"])
            run_cli(["predict", "--law", "law.json", "--config", "config.json",
                     "--out", "pred.json"])
            run_cli(["rank", "--law", "law.json", "--configs", "configs.json",
                     "--out", "rank.json"])
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(d.iterdir())
                if p.name in ("law.json", "fit_report.json", "pred.json", "rank.json")
            })
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_single_cell(self, tmp_path, law_file, capsys):
        grid = tmp_path / "grid.csv"
        assert run_cli(["sweep", "--law", law_file, "--eta-max-range", "0.1:0.1:1",
                        "--warmup-range", "1.0:1.0:1", "--model", 0.58,
                        "--tokens", 10, "--out", grid]) == 0
        rows = list(csv.DictReader(grid.open()))
        assert len(rows) == 1
        assert float(rows[0]["predicted_loss"]) != 7.0

    def test_divergent_corner_and_determinism(self, tmp_path, law_file, capsys):
        args = ["sweep", "--law", law_file, "--eta-max-range", "0.05:0.8:6",
                "--warmup-range", "0.1:4.0:5", "--model", 4.05, "--tokens", 10]
        grid_a, grid_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", grid_a]) == 0
        assert run_cli(args + ["--out", grid_b]) == 0
        assert grid_a.read_bytes() == grid_b.read_bytes()

        rows = list(csv.DictReader(grid_a.open()))
        assert len(rows) == 30
        cells = {
            (float(r["eta_max"]), float(r["warmup_B"])): float(r["predicted_loss"])
            for r in rows
        }
        etas = sorted({k[0] for k in cells})
        warms = sorted({k[1] for k in cells})
        # warmup-major row order
        assert [(float(r["warmup_B"]), float(r["eta_max"])) for r in rows] == [
            (a, h) for a in warms for h in etas
        ]
        diverged = {k for k, v in cells.items() if v == 7.0}
        assert diverged, "grid must straddle the R = 1 boundary"
        assert (etas[-1], warms[0]) in diverged  # hottest corner
        assert (etas[0], warms[-1]) not in diverged  # gentlest corner
        # divergence region is monotone: hotter peak, shorter warmup
        for h, a in diverged:
            for h2 in [e for e in etas if e >= h]:
                for a2 in [w for w in warms if w <= a]:
                    assert (h2, a2) in diverged

    def test_sweep_grid_matches_direct_evaluation(self):
        law = reference_law()
        rows = sweep_grid(law, DEFAULT_PARAMS, [0.1, 0.3], [1.0, 2.0], N=0.58, S=10.0)
        assert len(rows) == 4
        assert [r[:2] for r in rows] == [(0.1, 1.0), (0.3, 1.0), (0.1, 2.0), (0.3, 2.0)]
        assert all(r[2] >= 0.0 for r in rows)  # R carried for contour plots

        # a grid straddling R = 1: every cell against the one-config path
        etas = np.linspace(0.02, 1.0, 23)
        warms = np.linspace(0.05, 6.0, 17)
        N, S = 4.05, 10.0
        rows = sweep_grid(law, DEFAULT_PARAMS, etas, warms, N=N, S=S)
        assert [r[:2] for r in rows] == [(h, a) for a in warms for h in etas]
        verdicts = set()
        for h, a, R, loss in rows:
            gate = gated_criterion(h, a, N, S)
            assert R == gate.R
            verdicts.add(gate.verdict)
            if gate.verdict == "diverge":
                assert loss == 7.0
            else:
                want = predict(law, RunConfig(build_general_schedule(h, h, a, a, a, S), N))
                assert loss == np.exp(want["log_loss"])
        assert verdicts == {"stable", "diverge"}

    @pytest.mark.parametrize("sentinel", [7.0, math.inf])
    def test_grid_csv_bytes_match_csv_writer(self, tmp_path, sentinel):
        rows = sweep_grid(reference_law(), DEFAULT_PARAMS, np.linspace(0.02, 1.0, 23),
                          np.linspace(0.05, 6.0, 17), N=4.05, S=10.0, sentinel=sentinel)
        assert {r[3] == sentinel for r in rows} == {True, False}  # diverged and priced cells
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta_max", "warmup_B", "R", "predicted_loss"])
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])
        cli._write_grid_csv(rows, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == reference.read_bytes()

    def test_grid_builds_no_schedule_per_cell(self, monkeypatch):
        calls = count_per_config_calls(monkeypatch)
        rows = sweep_grid(reference_law(), DEFAULT_PARAMS, np.linspace(0.05, 0.8, 32),
                          np.linspace(0.1, 4.0, 32), N=4.05, S=10.0)
        assert len(rows) == 32 * 32
        assert len({r[3] for r in rows}) > 2  # priced cells, not only the sentinel
        assert not any(calls.values()), calls  # no per-config call of any kind


class TestSimulate:
    def test_report_and_traces(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        traces = tmp_path / "traces.csv"
        assert run_cli(["simulate", "--objective", "quadratic", "--dim", 4,
                        "--algorithm", "sgd", "--peak", 0.5, "--warmup", 0.5,
                        "--horizon", 2.0, "--eta0", 0.02, "--paths", 40,
                        "--sigma2", 0.05, "--seed", 1, "--out", out,
                        "--trace-csv", traces]) == 0
        payload = json.loads(out.read_text())
        assert payload["checks"]["gradient_bound_dominates"]
        assert payload["report"]["n_paths"] == 40
        with traces.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40 * (100 + 1)
        assert {r["path"] for r in rows} == {str(i) for i in range(40)}

    def test_adam_simulation_check(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--objective", "double_well", "--dim", 4,
                        "--algorithm", "adam", "--peak", 0.4, "--warmup", 0.5,
                        "--horizon", 2.0, "--eta0", 0.02, "--paths", 40,
                        "--sigma2", 0.05, "--seed", 1, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["checks"]["v_nonnegative"]
        assert payload["checks"]["momentum_bound_dominates"]

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPTLAWS_SEED", "42")
        out = tmp_path / "report.json"
        assert run_cli(["simulate", "--dim", 2, "--paths", 5, "--horizon", 1.0,
                        "--eta0", 0.05, "--out", out]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 42


class TestValidate:
    def test_quick_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "validate.json"
        assert run_cli(["validate", "--quick", "--seed", 0, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"]
        for key in ("integral_consistency", "gaussian_approx_routes", "bound_domination",
                    "anti_concentration", "random_matrix", "trapping_bound"):
            assert payload[key]["passed"], key


class TestBadInput:
    """Bad input exits 1 with a one-line message, never a traceback."""

    @staticmethod
    def one_line_error(capsys):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        return captured

    def test_check_nan_peak_rate_is_not_stable(self, capsys):
        assert run_cli(["check", "--eta-max", "nan", "--warmup", 8.39,
                        "--model", 4.05, "--tokens", 100]) == 1
        captured = self.one_line_error(capsys)
        assert "stable" not in captured.out

    def test_predict_config_missing_field(self, tmp_path, law_file, capsys):
        cfg = {"eta2": 6e-3, "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0,
               "tokens_B": 10.0, "model_B": 0.58}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli(["predict", "--law", law_file, "--config", path]) == 1
        assert "eta1" in self.one_line_error(capsys).err

    def test_unknown_gate_override(self, capsys):
        assert run_cli(["check", "--eta-max", 0.4, "--warmup", 8.39, "--model", 4.05,
                        "--tokens", 100, "--gate-overrides", '{"bogus": 1}']) == 1
        assert "bogus" in self.one_line_error(capsys).err

    def test_simulate_dim_zero(self, capsys):
        assert run_cli(["simulate", "--dim", 0, "--paths", 4]) == 1
        assert "--dim" in self.one_line_error(capsys).err

    def test_simulate_diverged_path(self, capsys):
        assert run_cli(["simulate", "--objective", "rosenbrock"]) == 1
        assert "diverged path" in self.one_line_error(capsys).err

    @pytest.mark.parametrize("flag, value, match", [
        ("--trap-eps", "nan", "trapping radius must be positive and finite, got nan"),
        ("--trap-eps", "inf", "trapping radius must be positive and finite, got inf"),
        ("--sigma2", "inf", "noise variance must be finite, got inf"),
        ("--sigma2", "nan", "noise variance must be finite, got nan"),
        ("--peak", "inf", "segment times and rates must be finite"),
        ("--peak", "nan", "segment times and rates must be finite"),
        ("--horizon", "inf", "segment times and rates must be finite"),
        ("--eta0", "inf", "eta0 must be positive and finite, got inf"),
        ("--x0-offset", "nan", "x0 must be finite"),
        ("--x0-offset", "inf", "x0 must be finite"),
        ("--peak", "1e308", "step rate at t = 2.8000000000000003 is -inf"),
        ("--algorithm adam --peak", "1e308", "step rate at t = 2.8000000000000003 is -inf"),
        ("--peak", "1e306", "step rates sum to inf"),
    ])
    def test_simulate_non_finite_input(self, capsys, recwarn, flag, value, match):
        # NaN radii were reported as a "nan" trapping entry, an infinite
        # variance ended in "Sigma_g must be symmetric", an infinite peak or
        # x0 in a diverged path and an infinite eta0 in "times outside
        # schedule domain", some after RuntimeWarning lines; a finite peak
        # whose rates overflow once multiplied out warned three times before
        # its diverged path
        assert run_cli(["simulate", "--paths", 4, *flag.split(), value]) == 1
        captured = self.one_line_error(capsys)
        assert match in captured.err and captured.out == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_check_raw_lr_zero_scale(self, capsys):
        assert run_cli(["check", "--eta-max", 6e-3, "--raw-lr", "--lr-scale", 0,
                        "--warmup", 8.39, "--model", 4.05, "--tokens", 100]) == 1
        assert "lr_scale" in self.one_line_error(capsys).err

    def test_fit_zero_lr_scale(self, tmp_path, runs_csv, capsys):
        assert run_cli(["fit", "--runs", runs_csv, "--out", tmp_path / "law.json",
                        "--lr-scale", 0]) == 1
        assert "lr_scale" in self.one_line_error(capsys).err

    def test_predict_law_with_zero_lr_scale(self, tmp_path, law_file, capsys):
        law = json.loads(law_file.read_text())
        law["lr_scale"] = 0.0
        bad_law = tmp_path / "bad_law.json"
        bad_law.write_text(json.dumps(law))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3,
                                   "eta2": 6e-3, "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}))
        capsys.readouterr()
        assert run_cli(["predict", "--law", bad_law, "--config", cfg]) == 1
        assert "lr_scale" in self.one_line_error(capsys).err


    def test_check_warmup_squared_underflows(self, capsys):
        assert run_cli(["check", "--eta-max", 0.4, "--warmup", 1e-200, "--model", 4.05,
                        "--tokens", 100]) == 1
        assert "underflows" in self.one_line_error(capsys).err

    def test_sweep_warmup_squared_underflows(self, tmp_path, law_file, capsys):
        assert run_cli(["sweep", "--law", law_file, "--eta-max-range", "0.01:0.8:4",
                        "--warmup-range", "1e-200:1e-200:1", "--model", 4.05,
                        "--tokens", 100, "--out", tmp_path / "g.csv"]) == 1
        assert "underflows" in self.one_line_error(capsys).err

    @pytest.mark.parametrize("command", ["check", "rank", "sweep"])
    def test_horizon_squared_overflows(self, tmp_path, law_file, capsys, command):
        # S^2 = inf made R = inf * 0 = NaN, which the gate passed as stable
        cfg = {"model_B": 4.0, "tokens_B": 1e200, "eta1": 6e-3, "eta2": 6e-3,
               "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}
        (tmp_path / "cfgs.json").write_text(json.dumps([cfg]))
        argv = {
            "check": ["--eta-max", 0.4, "--warmup", 1, "--model", 4, "--tokens", 1e200],
            "rank": ["--law", law_file, "--configs", tmp_path / "cfgs.json"],
            "sweep": ["--law", law_file, "--eta-max-range", "0.1:0.5:3", "--warmup-range",
                      "1:2:2", "--model", 4, "--tokens", 1e200, "--out", tmp_path / "g.csv"],
        }[command]
        capsys.readouterr()
        assert run_cli([command, *argv]) == 1
        captured = self.one_line_error(capsys)
        assert "overflows" in captured.err and captured.out == ""
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("command", ["check", "rank", "sweep"])
    def test_ratio_denominator_underflows(self, tmp_path, law_file, capsys, command):
        # c3 * a1^2 * eta_L^2 underflows to 0: check raised ZeroDivisionError,
        # and sweep wrote R = nan as a stable cell
        cfg = {"model_B": 4.0, "tokens_B": 100.0, "eta1": 1e-170, "eta2": 1e-170,
               "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}
        (tmp_path / "cfgs.json").write_text(json.dumps([cfg]))
        argv = {
            "check": ["--eta-max", 1e-170, "--warmup", 1, "--model", 4, "--tokens", 100],
            "rank": ["--law", law_file, "--configs", tmp_path / "cfgs.json"],
            "sweep": ["--law", law_file, "--eta-max-range", "1e-100:1e-99:2",
                      "--warmup-range", "1e-100:1e-99:2", "--model", 4, "--tokens", 100,
                      "--out", tmp_path / "g.csv"],
        }[command]
        capsys.readouterr()
        assert run_cli([command, *argv]) == 1
        captured = self.one_line_error(capsys)
        assert "underflows to 0" in captured.err and captured.out == ""
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("eta0", [1e-6, 1e-320])  # a 512 MB noise row; S/eta0 = inf
    def test_simulate_too_many_steps(self, capsys, eta0):
        assert run_cli(["simulate", "--eta0", eta0, "--dim", 16]) == 1
        assert "n_steps" in self.one_line_error(capsys).err

    # 10**16 float64 entries are 71 PiB, beyond any address space, so numpy
    # refuses them at once; they ended in an _ArrayMemoryError traceback
    @pytest.mark.parametrize("argv", [
        ["simulate", "--paths", 10**16],
        ["sweep", "--eta-max-range", f"0.1:0.5:{10**16}", "--warmup-range", "1:2:2"],
        ["sweep", "--eta-max-range", "0.1:0.5:2", "--warmup-range", f"1:2:{10**16}"],
    ], ids=["simulate-paths", "sweep-eta-max-range", "sweep-warmup-range"])
    def test_request_too_large_to_allocate(self, tmp_path, law_file, capsys, argv):
        if argv[0] == "sweep":
            argv = [*argv, "--law", law_file, "--model", 4, "--tokens", 100,
                    "--out", tmp_path / "g.csv"]
        capsys.readouterr()
        assert run_cli(argv) == 1
        captured = self.one_line_error(capsys)
        assert "Unable to allocate" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["predict", "rank"])
    def test_loss_overflows_exp(self, tmp_path, law_file, capsys, command):
        law = json.loads(law_file.read_text())
        law["c"][15] = 1000.0  # log loss about 1000: exp overflows
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(law))
        cfg = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3, "eta2": 6e-3,
               "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "cfgs.json").write_text(json.dumps([cfg]))
        flag = {"predict": ["--config", tmp_path / "cfg.json"],
                "rank": ["--configs", tmp_path / "cfgs.json"]}[command]
        capsys.readouterr()
        assert run_cli([command, "--law", huge, *flag]) == 1
        assert "log loss" in self.one_line_error(capsys).err

    @pytest.mark.parametrize("command", ["predict", "rank", "sweep"])
    @pytest.mark.parametrize("text, match", [
        ("missing", "missing field 'powers'"), ("[1, 2]", "JSON object"),
    ])
    def test_malformed_law_file(self, tmp_path, law_file, capsys, command, text, match):
        bad_law = tmp_path / "bad_law.json"
        if text == "missing":
            law = json.loads(law_file.read_text())
            del law["powers"]
            text = json.dumps(law)
        bad_law.write_text(text)
        cfg = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3, "eta2": 6e-3,
               "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "cfgs.json").write_text(json.dumps([cfg]))
        argv = {
            "predict": ["--config", tmp_path / "cfg.json"],
            "rank": ["--configs", tmp_path / "cfgs.json"],
            "sweep": ["--eta-max-range", "0.1:0.2:2", "--warmup-range", "1:2:2",
                      "--model", 1, "--tokens", 10, "--out", tmp_path / "g.csv"],
        }[command]
        capsys.readouterr()
        assert run_cli([command, "--law", bad_law, *argv]) == 1
        err = self.one_line_error(capsys).err
        assert match in err and "bad_law.json" in err


class TestStartup:
    @staticmethod
    def after_import(expr: str) -> str:
        """``expr`` printed by a fresh interpreter that only imported optlaws.cli."""
        code = f"import sys, optlaws.cli; print({expr})"
        src = str(Path(optlaws.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True,
                              timeout=60)
        return done.stdout.strip()

    def test_import_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg is slow to import and only the closed-form covariance
        # of a non-symmetric generator needs it
        assert self.after_import("'scipy.linalg' in sys.modules") == "False"

    def test_import_builds_no_parser(self):
        # the parser is built by the first main call, not at import
        assert self.after_import("optlaws.cli.build_parser.cache_info().currsize") == "0"


class TestParserReuse:
    """main reuses one parser, and a call leaves nothing on it for the next."""

    def test_shared_parser_matches_fresh_parser(self, tmp_path, law_file, capsys,
                                                monkeypatch):
        cfg = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 4.5e-3, "eta2": 4.5e-3,
               "a1_B": 1.5, "a2_B": 1.5, "a3_B": 1.5}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        slower = {**cfg, "eta1": 1.5e-3, "eta2": 1.5e-3}
        (tmp_path / "cfgs.json").write_text(json.dumps([cfg, slower]))
        check = ["check", "--eta-max", 6e-3, "--warmup", 8.39, "--model", 4.05,
                 "--tokens", 100]
        simulate = ["simulate", "--dim", 2, "--paths", 5, "--horizon", 1.0, "--seed", 3]
        sequence = [
            ["fit", "--runs", "x.csv"],  # usage error: missing --out
            ["--help"],
            ["frobnicate"],
            check + ["--raw-lr"],
            check,
            ["predict", "--law", law_file, "--config", tmp_path / "cfg.json"],
            ["rank", "--law", law_file, "--configs", tmp_path / "cfgs.json",
             "--gate-overrides", '{"bogus": 1}'],
            ["rank", "--law", law_file, "--configs", tmp_path / "cfgs.json"],
            simulate + ["--trap-eps", 0.1, 0.5],
            simulate,
        ]

        def run_all():
            out = []
            for argv in sequence:
                code = run_cli(argv)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        capsys.readouterr()
        shared = run_all()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_all()
        assert [code for code, _, _ in shared] == [1, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        assert shared[3][1] != shared[4][1]  # --raw-lr changed the peak rate
        assert shared == fresh

    def test_many_calls_build_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(5):
            assert run_cli(["check", "--eta-max", 0.4, "--warmup", 8.39, "--model", 4.05,
                            "--tokens", 100]) == 0
            assert run_cli(["frobnicate"]) == 1
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 9)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(["fit", "--runs", "x.csv"]) == 1

    def test_bad_range_spec(self, tmp_path, law_file, capsys):
        assert run_cli(["sweep", "--law", law_file, "--eta-max-range", "0.1-0.5",
                        "--warmup-range", "1:2:2", "--model", 1, "--tokens", 10,
                        "--out", tmp_path / "g.csv"]) == 1

    def test_missing_file(self, capsys):
        assert run_cli(["predict", "--law", "nope.json", "--config", "nope.json"]) == 1
