import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optlaws
from optlaws import cli, validate
from optlaws.cli import RUNS_COLUMNS, main, read_runs_csv, sweep_grid
from optlaws.divergence import DEFAULT_PARAMS, critical_rate, gated_criterion
from optlaws.features import FeatureError, Normalizer, compute_features, default_markers
from optlaws.law import (REFERENCE_COEFFICIENTS, ConfigBatch, FittedLaw, RunConfig, RunTable,
                         predict, reference_law)
from optlaws.schedule import build_general_schedule
from optlaws.sde import SimulationDiverged
import make_golden
from util import count_per_config_calls, fixture_corpus, law_text, records_to_csv, table_row


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
        runs = read_runs_csv(str(runs_csv))
        assert len(runs) == 66
        assert sum(runs.diverged) == 2
        want = RunTable.from_records(fixture_corpus())
        for name in RUNS_COLUMNS:
            assert getattr(runs, name).tobytes() == getattr(want, name).tobytes(), name


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

    def test_oversized_cell_names_file_and_line(self, tmp_path, runs_csv, capsys):
        # a cell over the csv module's 131,072-character limit ended in a
        # _csv.Error traceback
        lines = runs_csv.read_text().splitlines()
        lines[3] = lines[3].replace(",", "," + "1" * 131_073, 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli(["fit", "--runs", bad, "--out", tmp_path / "law.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad} line 4: ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not (tmp_path / "law.json").exists()

    def test_header_with_spaces_reads_by_position(self, tmp_path, runs_csv, capsys):
        # the stripped header matched, then every row failed with "line 2: 'tokens_B'"
        lines = runs_csv.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([", ".join(RUNS_COLUMNS), *lines[1:]]) + "\n")
        out, want = tmp_path / "spaced.json", tmp_path / "law.json"
        assert run_cli(["fit", "--runs", spaced, "--out", out]) == 0
        assert run_cli(["fit", "--runs", runs_csv, "--out", want]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == want.read_bytes()

    def test_zero_warmup_in_third_row_names_its_term(self, tmp_path, runs_csv, capsys):
        # the first bad row is not row 0; fit names its line, with the error that
        # row raises alone
        lines = runs_csv.read_text().splitlines()
        fields = lines[3].split(",")
        fields[RUNS_COLUMNS.index("a1_B")] = "0.0"
        lines[3] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        row = table_row(read_runs_csv(str(bad)), 2)
        s = row.normalized_schedule()
        with pytest.raises(FeatureError) as want:
            compute_features(s, default_markers(s), row.model_B)
        assert str(want.value) == "zero base with negative power for term 'warmup_lr_area'"
        assert run_cli(["fit", "--runs", bad, "--out", tmp_path / "law.json"]) == 1
        assert capsys.readouterr().err == f"error: {bad} line 4: {want.value}\n"

    @pytest.mark.parametrize("diverged", ["0", "1"])
    def test_negative_rate_row_is_named_unless_divergent(self, tmp_path, runs_csv, capsys,
                                                         diverged):
        # the log reads; fit names the line of the row it cannot price, and
        # never prices a divergent row
        lines = runs_csv.read_text().splitlines()
        fields = lines[9].split(",")
        fields[RUNS_COLUMNS.index("eta1")] = "-0.001"
        fields[RUNS_COLUMNS.index("diverged")] = diverged
        lines[9] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(["fit", "--runs", bad, "--out", tmp_path / "law.json"])
        err = capsys.readouterr().err
        if diverged == "0":
            assert (code, err) == (1, f"error: {bad} line 10: rates must be nonnegative\n")
        else:
            assert (code, err) == (0, "")

    def test_one_model_size_is_rank_deficient(self, tmp_path, capsys):
        one_size = tmp_path / "one_size.csv"
        one_size.write_text(records_to_csv([r for r in fixture_corpus() if r.model_B == 0.58]))
        assert run_cli(["fit", "--runs", one_size, "--out", tmp_path / "law.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rank-deficient design matrix: rank ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not (tmp_path / "law.json").exists()

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
        # a constant term near log(max float): about half the priced cells'
        # losses overflow to inf
        law = reference_law()
        law = replace(law, c=(*law.c[:15], law.c[15] + 708.9))
        etas, warmups = np.linspace(0.02, 1.0, 23), np.linspace(0.05, 6.0, 17)
        rows = sweep_grid(law, DEFAULT_PARAMS, etas, warmups, N=4.05, S=10.0,
                          sentinel=sentinel)
        R = np.array([r[2] for r in rows])
        loss = np.array([r[3] for r in rows])
        assert (R > 1).any() and (loss[R > 1] == sentinel).all()  # diverged cells
        priced = loss[~(R > 1)]
        assert np.isinf(priced).any() and np.isfinite(priced).any()
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta_max", "warmup_B", "R", "predicted_loss"])
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])
        cli._write_grid_csv(rows, etas, warmups, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("etas, warms, N, match", [
        ("0.05:0.9:6", "0.1:12:5", 0, r"warmup 12\.0 outside \(0, S=10\.0\)"),
        ("0:0.9:6", "0.1:3:5", 0, r"peak rate 0\.0 must be positive"),
        ("0:0.9:6", "0.1:12:5", 0.58, r"warmup 12\.0 outside"),
    ], ids=["warmup-over-model", "peak-over-model", "warmup-over-peak"])
    def test_range_checks_come_before_the_gate(self, etas, warms, N, match):
        # with two faults the sweep's own checks win; the gate refused
        # --model 0 first when it ran on the first row and column
        with pytest.raises(ValueError, match=match):
            sweep_grid(reference_law(), DEFAULT_PARAMS, cli._parse_range(etas),
                       cli._parse_range(warms), N=N, S=10.0)

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

    def test_full_suite_passes_at_seed_604(self):
        # 3 of 2,000 trials (0.0015) exceeded the random-matrix bound 0.00128
        # at one t, well within sampling error, and the suite failed
        suites = validate.run(604, False)
        assert suites["random_matrix"]["passed"] and suites["passed"]

    @pytest.mark.parametrize("excess, passed", [(0, True), (1, False)])
    def test_random_matrix_frequency_allows_three_standard_errors(self, monkeypatch, excess,
                                                                 passed):
        # the first deviation count above bound + 3 binomial standard errors
        # fails the suite; the count below it, also above the bound, passes
        real = optlaws.sde.random_matrix_checks

        def moved(*args, **kwargs):
            rep = real(*args, **kwargs)
            n, bound = rep.n_trials, rep.bernstein[-1]
            within = lambda k: k / n <= bound + 3.0 * math.sqrt(k / n * (1.0 - k / n) / n)
            k = next(k for k in range(n + 1) if not within(k)) - 1 + excess
            assert k / n > bound
            return replace(rep, deviation_freq=(*rep.deviation_freq[:-1], k / n))

        monkeypatch.setattr(optlaws.sde, "random_matrix_checks", moved)
        assert validate.run(0, True)["random_matrix"]["passed"] is passed

    def test_cli_writes_what_run_returns(self, capsys):
        assert run_cli(["validate", "--quick", "--seed", 0]) == 0
        assert capsys.readouterr().out == cli._dump_json(validate.run(0, True))


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

    @pytest.mark.parametrize("command", ["check", "rank", "sweep"])
    @pytest.mark.parametrize("value, match", [
        ("true", "field 'c1_hat' must be a number, got true"),
        ("1" + "0" * 400, "field 'c1_hat' is too large for a float"),
    ], ids=["bool", "400-digits"])
    def test_gate_override_not_a_number(self, tmp_path, law_file, capsys, command, value, match):
        # true gated with c1_hat = 1.0 and exited 0; the integer ended in an
        # OverflowError traceback
        (tmp_path / "cfgs.json").write_text(json.dumps([{
            "model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3, "eta2": 6e-3,
            "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}]))
        argv = {
            "check": ["--eta-max", 0.4, "--warmup", 1, "--model", 1, "--tokens", 10],
            "rank": ["--law", law_file, "--configs", tmp_path / "cfgs.json"],
            "sweep": ["--law", law_file, "--eta-max-range", "0.1:0.5:3", "--warmup-range",
                      "1:2:2", "--model", 1, "--tokens", 10, "--out", tmp_path / "g.csv"],
        }[command]
        capsys.readouterr()
        assert run_cli([command, *argv, "--gate-overrides", f'{{"c1_hat": {value}}}']) == 1
        captured = self.one_line_error(capsys)
        assert f"error: --gate-overrides {match}" in captured.err and captured.out == ""
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("predict", "--config"), ("predict", "--law"), ("rank", "--configs"),
        ("simulate", "--schedule-json")])
    def test_json_syntax_error_names_the_file(self, tmp_path, law_file, capsys, command, flag):
        # a truncated config, configs or schedule file printed only
        # "error: Expecting value: line 1 column 13 (char 12)"
        bad = tmp_path / "truncated.json"
        bad.write_text('{"model_B": ')
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3,
                                   "eta2": 6e-3, "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}))
        argv = {"predict": {"--law": law_file, "--config": cfg},
                "rank": {"--law": law_file, "--configs": cfg},
                "simulate": {"--paths": 4, "--schedule-json": cfg}}[command]
        capsys.readouterr()
        assert run_cli([command, *(x for k, v in {**argv, flag: bad}.items() for x in (k, v))]) == 1
        captured = self.one_line_error(capsys)
        assert captured.err == f"error: {bad}: Expecting value: line 1 column 13 (char 12)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, flag", [
        ("predict", "--law"), ("predict", "--config"), ("rank", "--law"), ("rank", "--configs"),
        ("sweep", "--law"), ("simulate", "--schedule-json"), ("check", "--gate-overrides")])
    def test_deeply_nested_json_names_its_source(self, tmp_path, law_file, capsys, command,
                                                 flag):
        # 5,000 nested arrays ended in a RecursionError traceback
        deep = "[" * 5000 + "]" * 5000
        bad = tmp_path / "deep.json"
        bad.write_text(deep)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3,
                                   "eta2": 6e-3, "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}))
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(f"[{cfg.read_text()}]")
        argv = {
            "predict": {"--law": law_file, "--config": cfg},
            "rank": {"--law": law_file, "--configs": cfgs},
            "sweep": {"--law": law_file, "--eta-max-range": "0.1:0.5:3",
                      "--warmup-range": "1:2:2", "--model": 1, "--tokens": 10,
                      "--out": tmp_path / "g.csv"},
            "simulate": {"--paths": 4, "--schedule-json": cfg},
            "check": {"--eta-max": 0.4, "--warmup": 1, "--model": 1, "--tokens": 10},
        }[command]
        source = deep if flag == "--gate-overrides" else bad
        capsys.readouterr()
        assert run_cli([command, *(x for k, v in {**argv, flag: source}.items()
                                   for x in (k, v))]) == 1
        captured = self.one_line_error(capsys)
        assert (flag if source is deep else str(bad)) in captured.err and captured.out == ""
        assert not (tmp_path / "g.csv").exists()

    def test_file_not_utf8_names_the_file(self, tmp_path, law_file, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"model_B": "\xe9"}')
        capsys.readouterr()
        assert run_cli(["predict", "--law", law_file, "--config", bad]) == 1
        assert self.one_line_error(capsys).err.startswith(
            f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("argv", [
        ["check", "--eta-max", 0.4, "--warmup", 1, "--model", 1, "--tokens", 10,
         "--gate-overrides", "-Infinity"],
        ["check", "--eta-max", 0.4],
        ["frobnicate"],
    ], ids=["flag-like-value", "missing-flags", "unknown-command"])
    def test_usage_error_is_one_line(self, capsys, argv):
        # argparse's usage block came before the error line
        assert run_cli(argv) == 1
        self.one_line_error(capsys)

    def test_sweep_range_must_be_finite(self, tmp_path, law_file, capsys):
        # an infinite end warned from np.linspace before the gate refused it
        capsys.readouterr()
        assert run_cli(["sweep", "--law", law_file, "--eta-max-range", "inf:0.5:2",
                        "--warmup-range", "0.1:3:4", "--model", 0.58, "--tokens", 10,
                        "--out", tmp_path / "g.csv"]) == 1
        assert "range ends and their span must be finite, got 'inf:0.5:2'" in (
            self.one_line_error(capsys).err)

    def test_sweep_loss_too_large_for_exp_is_inf(self, tmp_path, law_file, capsys):
        # a tiny model size wrote its inf losses after a RuntimeWarning
        capsys.readouterr()
        assert run_cli(["sweep", "--law", law_file, "--eta-max-range", "0.05:0.9:4",
                        "--warmup-range", "0.1:3:4", "--model", 1e-320, "--tokens", 10,
                        "--out", tmp_path / "g.csv"]) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader((tmp_path / "g.csv").open()))
        assert "inf" in {r["predicted_loss"] for r in rows}

    def test_fit_step_size_too_large_for_a_float(self, tmp_path, runs_csv, capsys):
        # ended in an OverflowError traceback
        assert run_cli(["fit", "--runs", runs_csv, "--out", tmp_path / "law.json",
                        "--token-length", "1" + "0" * 400, "--batch", 2]) == 1
        assert "--token-length or --batch is too large for a float" in (
            self.one_line_error(capsys).err)

    def test_simulate_dim_zero(self, capsys):
        assert run_cli(["simulate", "--dim", 0, "--paths", 4]) == 1
        assert "--dim" in self.one_line_error(capsys).err

    def test_simulate_diverged_path(self, capsys):
        assert run_cli(["simulate", "--objective", "rosenbrock"]) == 1
        assert "diverged path" in self.one_line_error(capsys).err

    def test_validate_diverged_path(self, capsys, monkeypatch):
        # the suites' ensembles do not diverge, so a stand-in run raises
        def diverge(seed, quick):
            raise SimulationDiverged(3)

        monkeypatch.setattr(validate, "run", diverge)
        assert run_cli(["validate", "--quick"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: diverged path: path 3 produced non-finite values "
                                "(reduce eta0 or the peak rate)\n")
        assert captured.out == ""

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

    @pytest.mark.parametrize("flag", ["--token-length", "--batch"])
    def test_fit_step_size_flag_alone(self, tmp_path, runs_csv, capsys, flag):
        # one of the two read the size columns as billions and exited 0
        out = tmp_path / "law.json"
        assert run_cli(["fit", "--runs", runs_csv, "--out", out, flag, 2048]) == 1
        assert "--token-length and --batch go together" in self.one_line_error(capsys).err
        assert not out.exists()

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


    def test_overflowing_pre_area_is_refused(self, tmp_path, law_file, capsys):
        # the pre block's area overflows to inf, which would make every
        # warmup term vanish and the config look priceable
        law = json.loads(law_file.read_text())
        continual = tmp_path / "law_continual.json"
        continual.write_text(json.dumps({**law, "mode": "continual"}))
        cfg = {"eta1": 0.006, "eta2": 0.006, "a1_B": 1, "a2_B": 1, "a3_B": 1, "tokens_B": 10,
               "model_B": 0.58, "pre": {"eta1": 1e306, "eta2": 1e306, "a1_B": 5, "a2_B": 5,
                                        "a3_B": 8, "tokens_B": 10}}
        one, many = tmp_path / "cfg.json", tmp_path / "cfgs.json"
        one.write_text(json.dumps(cfg))
        many.write_text(json.dumps([cfg]))
        capsys.readouterr()
        assert run_cli(["predict", "--law", continual, "--config", one]) == 1
        captured = self.one_line_error(capsys)
        assert captured.out == ""
        assert captured.err == ("error: pre-training area must be nonnegative and keep the "
                                "warmup area finite, got inf\n")
        assert run_cli(["rank", "--law", continual, "--configs", many]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["verdict"], row["log_loss"], row["loss"]) == ("unpriced", None, None)

    def test_check_warmup_squared_underflows(self, capsys):
        assert run_cli(["check", "--eta-max", 0.4, "--warmup", 1e-200, "--model", 4.05,
                        "--tokens", 100]) == 1
        assert "underflows" in self.one_line_error(capsys).err

    def test_check_horizon_squared_underflows(self, capsys):
        # S^2 = 0 made eta_L = 0: "degenerate parameters yield eta_L = 0.0"
        assert run_cli(["check", "--eta-max", 0.4, "--warmup", 1, "--model", 4.05,
                        "--tokens", 1e-200]) == 1
        captured = self.one_line_error(capsys)
        assert "S^2 underflows" in captured.err and captured.out == ""

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

    @pytest.mark.parametrize("command", ["check", "rank", "sweep"])
    def test_critical_rate_underflows(self, tmp_path, law_file, capsys, command):
        # (S^2)^alpha1 underflows, so the critical rate is 0: check and sweep
        # said "degenerate parameters yield eta_L = 0.0", and rank listed a
        # zero warmup as diverging at eta_L = 0
        cfg = {"model_B": 1.0, "tokens_B": 0.5, "eta1": 6e-3, "eta2": 6e-3,
               "a1_B": 0.0, "a2_B": 0.1, "a3_B": 0.3}
        (tmp_path / "cfgs.json").write_text(json.dumps([cfg]))
        argv = {
            "check": ["--eta-max", 0.4, "--warmup", 0.1, "--model", 1, "--tokens", 0.5],
            "rank": ["--law", law_file, "--configs", tmp_path / "cfgs.json"],
            "sweep": ["--law", law_file, "--eta-max-range", "0.1:0.5:3", "--warmup-range",
                      "0.1:0.3:2", "--model", 1, "--tokens", 0.5, "--out", tmp_path / "g.csv"],
        }[command]
        capsys.readouterr()
        assert run_cli([command, *argv, '--gate-overrides={"alpha1_hat": 2000}']) == 1
        captured = self.one_line_error(capsys)
        assert captured.err == "error: critical rate underflows to 0 at S=0.5, N=1.0\n"
        assert captured.out == "" and not (tmp_path / "g.csv").exists()

    def test_predict_model_size_zero(self, tmp_path, law_file, capsys):
        # predict does not gate its config, so the feature map refuses N = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_B": 0, "tokens_B": 10.0, "eta1": 6e-3, "eta2": 6e-3,
                                   "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}))
        capsys.readouterr()
        assert run_cli(["predict", "--law", law_file, "--config", cfg]) == 1
        captured = self.one_line_error(capsys)
        assert captured.err == "error: S and N must be positive, got S=10.0, N=0.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("eta0", [1e-6, 1e-320])  # a 512 MB noise row; S/eta0 = inf
    def test_simulate_too_many_steps(self, capsys, eta0):
        assert run_cli(["simulate", "--eta0", eta0, "--dim", 16]) == 1
        assert "n_steps" in self.one_line_error(capsys).err

    # 10**16 float64 entries are 71 PiB, beyond any address space, so numpy
    # refuses them at once; they ended in an _ArrayMemoryError traceback.
    # SdeConfig refuses 10**16 paths before anything is allocated.
    @pytest.mark.parametrize("argv, match", [
        (["simulate", "--paths", 10**16], "n_paths must be an integer in [1, 2**32)"),
        (["sweep", "--eta-max-range", f"0.1:0.5:{10**16}", "--warmup-range", "1:2:2"],
         "Unable to allocate"),
        (["sweep", "--eta-max-range", "0.1:0.5:2", "--warmup-range", f"1:2:{10**16}"],
         "Unable to allocate"),
    ], ids=["simulate-paths", "sweep-eta-max-range", "sweep-warmup-range"])
    def test_request_too_large_to_allocate(self, tmp_path, law_file, capsys, argv, match):
        if argv[0] == "sweep":
            argv = [*argv, "--law", law_file, "--model", 4, "--tokens", 100,
                    "--out", tmp_path / "g.csv"]
        capsys.readouterr()
        assert run_cli(argv) == 1
        captured = self.one_line_error(capsys)
        assert match in captured.err and captured.out == ""

    # each named numpy's message instead: "expected non-negative integer",
    # "invalid literal for int() with base 10: 'x'" and "D must be at least 1"
    @pytest.mark.parametrize("argv, env, match", [
        (["simulate", "--seed", -1], None, "--seed must be a non-negative integer, got -1"),
        (["validate", "--quick", "--seed", -1], None,
         "--seed must be a non-negative integer, got -1"),
        (["simulate"], "x", "OPTLAWS_SEED must be a non-negative integer, got 'x'"),
        (["validate", "--quick"], "-3", "OPTLAWS_SEED must be a non-negative integer, got '-3'"),
        (["simulate", "--noise-samples", 0], None, "--noise-samples must be at least 1, got 0"),
        (["simulate", "--paths", 2**32], None,
         "n_paths must be an integer in [1, 2**32), got 4294967296"),
    ], ids=["simulate-seed", "validate-seed", "simulate-env-seed", "validate-env-seed",
            "noise-samples", "paths-two-words"])
    def test_bad_flag_is_named(self, capsys, monkeypatch, argv, env, match):
        if env is not None:
            monkeypatch.setenv("OPTLAWS_SEED", env)
        assert run_cli(argv) == 1
        captured = self.one_line_error(capsys)
        assert captured.err == f"error: {match}\n" and captured.out == ""

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

    # the new cases loaded a law from strings, bools and NaN (predict exited 0,
    # sweep wrote nan losses) or ended in an OverflowError traceback
    @pytest.mark.parametrize("command", ["predict", "rank", "sweep"])
    @pytest.mark.parametrize("text, match", [
        ("missing", "missing field 'powers'"), ("[1, 2]", "JSON object"),
        pytest.param(law_text(c=[str(x) for x in REFERENCE_COEFFICIENTS]),
                     "law field 'c' must be a number, got \"-0.000692\"", id="c-strings"),
        pytest.param(law_text(lr_scale=True), "law field 'lr_scale' must be a number, got true",
                     id="lr-scale-bool"),
        pytest.param(law_text(c=[math.nan] * 16), "law c[0] (warmup_lr_area) must be finite",
                     id="c-nan"),
        pytest.param(law_text(powers=[math.inf] * 16), "law powers[0] (warmup_lr_area) must be "
                     "finite", id="powers-inf"),
        pytest.param(law_text(lr_scale=10**400), "law field 'lr_scale' is too large for a float",
                     id="lr-scale-400-digits"),
        pytest.param(law_text(c=[10**400] * 16), "law field 'c' is too large for a float",
                     id="c-400-digits"),
        pytest.param(law_text(c=list(REFERENCE_COEFFICIENTS[:15])),
                     "a law carries exactly 16 coefficients and powers", id="15-coefficients"),
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


    @pytest.mark.parametrize("value", ["1", True, None], ids=["str", "bool", "null"])
    @pytest.mark.parametrize("where", ["predict", "rank", "pre"])
    def test_config_field_not_a_number(self, tmp_path, law_file, capsys, where, value):
        # predict read "1" and true as 1.0 and exited 0, rank ended in a
        # TypeError traceback from the gate, and a pre block's message did
        # not name the field
        cfg = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3, "eta2": 6e-3,
               "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}
        field = "eta1" if where == "pre" else "model_B"
        if where == "pre":
            cfg["pre"] = {**cfg, "eta1": value}
        else:
            cfg[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg if where == "predict" else [cfg]))
        flag = "--config" if where == "predict" else "--configs"
        command = "predict" if where == "predict" else "rank"
        capsys.readouterr()
        assert run_cli([command, "--law", law_file, flag, path]) == 1
        captured = self.one_line_error(capsys)
        assert f"config field {field!r} must be a number, got {json.dumps(value)}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["predict", "rank"])
    def test_config_integer_too_large_for_a_float(self, tmp_path, law_file, capsys, command):
        # ended in an OverflowError traceback
        text = ('{"model_B": 0.58, "tokens_B": 1' + "0" * 400 + ', "eta1": 0.006, '
                '"eta2": 0.006, "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}')
        path = tmp_path / "cfg.json"
        path.write_text(text if command == "predict" else f"[{text}]")
        flag = "--config" if command == "predict" else "--configs"
        capsys.readouterr()
        assert run_cli([command, "--law", law_file, flag, path]) == 1
        assert "field 'tokens_B' is too large for a float" in self.one_line_error(capsys).err

    @pytest.mark.parametrize("text, match", [
        ('{"S": 1}', "missing field 'segments'"),
        ("[1, 2]", "JSON object, not list"),
        ('{"S": 1.0, "markers": [0, 0, 0], "segments": [{"kind": "linear", "t0": 0, '
         '"t1": 1, "eta0": "a", "eta1": 0}]}', "field 'eta0' must be a number"),
    ], ids=["missing-segments", "list", "string-rate"])
    def test_simulate_malformed_schedule_file(self, tmp_path, capsys, text, match):
        # each ended in a KeyError or TypeError traceback
        path = tmp_path / "schedule.json"
        path.write_text(text)
        assert run_cli(["simulate", "--paths", 4, "--schedule-json", path]) == 1
        captured = self.one_line_error(capsys)
        assert match in captured.err and captured.out == ""


DROP = object()  # a field left out of a config


def _mixed_candidates(rng, n):
    """Four-phase JSON configs at lr_scale 1: a tenth with a zero warmup at,
    below or one ulp above the critical rate, a tenth with a tiny warmup whose
    square is subnormal, short warmups and high peaks that diverge, and every
    other config with a pre block."""
    cfgs = []
    for i in range(n):
        S = float(rng.uniform(2.0, 60.0))
        N = float(rng.uniform(0.05, 8.0))
        a1, a2, a3 = (float(x) for x in np.sort(rng.uniform(0.0, 0.8, 3)) * S)
        h1 = float(rng.uniform(0.02, 1.0))
        h2 = float(rng.uniform(0.3, 1.0)) * h1 if a2 > a1 else h1
        kind = i % 10
        if kind == 0:  # zero warmup around the critical rate
            thr = critical_rate(N, S)
            h1 = h2 = (thr, 0.5 * thr, math.nextafter(thr, math.inf))[i // 10 % 3]
            a1 = 0.0
        elif kind == 1:  # a1^2 subnormal: the ratio overflows to inf
            a1 = 1e-160
        cfg = {"model_B": N, "tokens_B": S, "eta1": h1, "eta2": h2,
               "a1_B": a1, "a2_B": a2, "a3_B": a3}
        if i % 2:
            cfg["pre"] = {**cfg, "model_B": 1.0, "tokens_B": 2.0 * S, "a3_B": a3 + S}
        cfgs.append(cfg)
    return cfgs


class TestRankRoute:
    """rank reads its configs into one table and gates them elementwise."""

    @pytest.fixture()
    def unit_law(self, tmp_path):
        # lr_scale 1: JSON rates are the normalized rates the gate sees
        path = tmp_path / "unit_law.json"
        path.write_text(FittedLaw(c=reference_law().c, lr_scale=1.0).to_json())
        return path

    @pytest.mark.parametrize("mode", ["pretrain", "continual"])
    def test_rank_builds_no_schedule_per_config(self, tmp_path, monkeypatch, capsys, mode):
        cfgs = _mixed_candidates(np.random.default_rng(71), 200)
        if mode == "continual":
            cfgs = [c for c in cfgs if "pre" in c]
        law = tmp_path / "law.json"
        law.write_text(FittedLaw(c=reference_law().c, lr_scale=1.0, mode=mode).to_json())
        path = tmp_path / "cfgs.json"
        path.write_text(json.dumps(cfgs))
        capsys.readouterr()
        calls = count_per_config_calls(monkeypatch)
        assert run_cli(["rank", "--law", law, "--configs", path]) == 0
        assert not any(calls.values()), calls  # no per-config call of any kind
        verdicts = {row["verdict"] for row in json.loads(capsys.readouterr().out)}
        assert verdicts == {"ok", "unpriced", "diverge"}

    def test_rows_equal_the_scalar_gate(self, tmp_path, unit_law, capsys):
        cfgs = _mixed_candidates(np.random.default_rng(73), 200)
        path = tmp_path / "cfgs.json"
        path.write_text(json.dumps(cfgs))
        capsys.readouterr()
        assert run_cli(["rank", "--law", unit_law, "--configs", path]) == 0
        table = json.loads(capsys.readouterr().out)
        seen = set()
        for row in table:
            cfg = cfgs[row["index"]]
            s = build_general_schedule(*(cfg[k] for k in cli.SCHEDULE_FIELDS))
            gate = gated_criterion(s.eta_max, s.markers[0], cfg["model_B"], s.S)
            assert row["R"] == (gate.R if math.isfinite(gate.R) else None)
            assert row["eta_L"] == gate.eta_L
            assert (row["verdict"] == "diverge") == (gate.verdict == "diverge")
            seen.add((cfg["a1_B"], gate.R))
        assert (0.0, 0.0) in seen and (0.0, math.inf) in seen  # both zero-warmup cases
        assert (1e-160, math.inf) in seen  # a subnormal a1^2 whose ratio overflows

    @pytest.mark.parametrize("candidates", [make_golden._candidates,
                                            make_golden._continual_candidates])
    def test_pre_areas_equal_the_configs_areas(self, candidates):
        # one pre-training area per config, whether read as columns or one
        # config at a time; NaN exactly where a config has no pre block
        cfgs, normalizer = candidates(), Normalizer(reference_law().lr_scale)
        got = cli._load_candidates(cfgs, normalizer).pre_area
        want = ConfigBatch.from_configs([cli._load_config(c, normalizer) for c in cfgs]).pre_area
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).tolist() == ["pre" not in c for c in cfgs]

    @pytest.mark.parametrize("changes, message", [
        ([{}, {"pre": {"a1_B": 5.0}}, {"a1_B": 4.0, "a2_B": 2.0}],
         "markers must satisfy 0 <= a1 <= a2 <= a3 <= S, got (5.0, 1.0, 1.0)"),
        ([{"a1_B": 2.0, "pre": {"a1_B": 5.0}}],
         "markers must satisfy 0 <= a1 <= a2 <= a3 <= S, got (2.0, 1.0, 1.0)"),
        ([{"model_B": "x"}, {"eta1": None}], "config field 'model_B' must be a number"),
        ([{}, {"a1_B": 2.0}, {"tokens_B": DROP}],
         "markers must satisfy 0 <= a1 <= a2 <= a3 <= S, got (2.0, 1.0, 1.0)"),
        ([{}, {"tokens_B": DROP}, {"a1_B": 2.0}], "config is missing field 'tokens_B'"),
        ([{}, {"eta1": 0.0, "eta2": 0.0}, {"model_B": 0.0}],
         "criterion inputs must be finite and strictly positive, got eta_max=0.0"),
        ([{}, {"model_B": 0.0, "a1_B": 0.0}, {"eta1": 0.0, "eta2": 0.0}],
         "N and S must be finite and strictly positive, got N=0.0"),
        ([{}, {"a1_B": 1e-170}], "warmup a1=1e-170 is too small"),
        ([{}, {"model_B": -1, "a1_B": 0.0, "tokens_B": 10}],
         "N and S must be finite and strictly positive, got N=-1, S=10"),
    ], ids=["pre-block-first", "schedule-before-its-pre-block", "typed-field-first",
            "schedule-first", "missing-field-first", "gate-first", "critical-rate-first",
            "warmup-square-underflows", "integers-named-as-written"])
    def test_first_error_comes_from_the_first_bad_config(self, tmp_path, unit_law, capsys,
                                                         changes, message):
        base = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 0.3, "eta2": 0.3,
                "a1_B": 1.0, "a2_B": 1.0, "a3_B": 1.0}
        change = lambda d: {k: v for k, v in {**base, **d}.items() if v is not DROP}
        cfgs = []
        for c in changes:
            cfg = change({k: v for k, v in c.items() if k != "pre"})
            if "pre" in c:
                cfg["pre"] = change(c["pre"])
            cfgs.append(cfg)
        path = tmp_path / "cfgs.json"
        path.write_text(json.dumps(cfgs))
        capsys.readouterr()
        assert run_cli(["rank", "--law", unit_law, "--configs", path]) == 1
        assert f"error: {message}" in TestBadInput.one_line_error(capsys).err


def stdlib_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e-310, -0.0, 0.0, 1e16, 1e-5, 1e-4, 0.1, 1e22, -2.5e-300]),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
JSON_STRINGS = st.one_of(st.text(), st.sampled_from(["", "é", "日本", "\x00\x1f\x7f", "\u2028",
                                                    '"\\/', "\U0001f600", "tab\there"]))
JSON_PAYLOADS = st.recursive(
    st.one_of(JSON_FLOATS, st.integers(), st.booleans(), st.none(), JSON_STRINGS),
    lambda items: st.one_of(st.lists(items, max_size=5), st.tuples(items, items),
                            st.just(()), st.dictionaries(JSON_STRINGS, items, max_size=5)),
    max_leaves=30)


class TestJsonWriter:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(JSON_PAYLOADS)
    def test_bytes_match_the_stdlib(self, payload):
        assert cli._dump_json(payload) == stdlib_json(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_float_is_refused_as_the_stdlib_refuses_it(self, tmp_path, bad):
        payload = {"a": 1.0, "b": [2.0, {"c": bad}]}
        with pytest.raises(ValueError) as want:
            stdlib_json(payload)
        out = tmp_path / "out.json"
        with pytest.raises(ValueError) as got:
            cli._dump_json(payload, out)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("Out of range float values are not JSON compliant: ")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), np.zeros(2), {1.5}],
                             ids=["int64", "bool_", "array", "set"])
    def test_other_types_are_refused_as_the_stdlib_refuses_them(self, tmp_path, bad):
        payload = {"a": [1, bad]}
        with pytest.raises(TypeError) as want:
            stdlib_json(payload)
        out = tmp_path / "out.json"
        with pytest.raises(TypeError) as got:
            cli._dump_json(payload, out)
        assert str(got.value) == str(want.value)
        assert not out.exists()


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

    def test_import_leaves_concurrent_futures_unloaded(self):
        # only simulate's threaded noise fill needs it, and it imports it there
        assert self.after_import("'concurrent.futures' in sys.modules") == "False"

    def test_import_leaves_the_sde_laboratory_unloaded(self):
        # only simulate and validate use it, and each imports it when it runs;
        # their reports go to stdout ahead of the printed line
        loaded = "[m for m in ('optlaws.sde', 'optlaws.validate') if m in sys.modules]"
        runs = ("[optlaws.cli.main(argv) for argv in (['simulate', '--paths', '5', '--dim', '2'],"
                " ['validate', '--quick'])]")
        assert self.after_import(f"{loaded}, {runs}").splitlines()[-1] == "[] [0, 0]"


class TestBlasThreads:
    """The CLI writes the same bytes under one and two OpenBLAS threads."""

    @staticmethod
    def outputs(directory: Path, threads: str, runs_csv: Path) -> dict:
        """stdout and ``--out`` bytes of fit, rank and ``validate --quick``, each
        run by a fresh interpreter in ``directory`` under ``threads`` threads."""
        src = str(Path(optlaws.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        commands = {
            "fit": ["fit", "--runs", str(runs_csv), "--out", "law.json"],
            "rank": ["rank", "--law", "law.json", "--configs", "configs.json",
                     "--out", "rank.json"],
            "validate": ["validate", "--quick", "--seed", "7", "--out", "validation.json"],
        }
        out = {}
        for name, argv in commands.items():
            done = subprocess.run([sys.executable, "-m", "optlaws.cli", *argv], cwd=directory,
                                  env=env, capture_output=True, check=True, timeout=120)
            out[name] = (done.stdout, (directory / argv[-1]).read_bytes())
        return out

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, runs_csv):
        got = {}
        for threads in ("1", "2"):
            directory = tmp_path / threads
            directory.mkdir()
            (directory / "configs.json").write_text(json.dumps(make_golden._candidates()))
            got[threads] = self.outputs(directory, threads, runs_csv)
        for name in got["1"]:
            assert got["1"][name] == got["2"][name], name


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
