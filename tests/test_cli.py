import csv
import json
import math

import pytest

from optlaws.cli import Workspace, main, read_runs_csv, sweep_grid
from optlaws.divergence import DEFAULT_PARAMS
from optlaws.law import FittedLaw, reference_law
from util import fixture_corpus, records_to_csv


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


class TestWorkspace:
    def test_law_round_trip_and_active_id(self, tmp_path, runs_csv):
        ws = Workspace(tmp_path / "ws")
        law = reference_law()
        path = ws.save_law("ref", law)
        assert ws.active_law == "ref"
        assert ws.load_law() == law
        # saving what was loaded reproduces the file byte-for-byte
        ws.save_law("again", ws.load_law("ref"))
        assert ws.law_path("again").read_bytes() == path.read_bytes()

    def test_no_active_law_is_error(self, tmp_path):
        from optlaws.cli import DataError

        ws = Workspace(tmp_path / "ws")
        with pytest.raises(DataError):
            ws.load_law()


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
