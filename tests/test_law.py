import inspect
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlaws import features
from optlaws.cli import build_parser, read_runs_csv
from optlaws.divergence import critical_rate
from optlaws.features import (
    DEFAULT_MARKER_RULE,
    FeatureError,
    Normalizer,
    collapsed_markers,
    compute_features,
    default_markers,
)
from optlaws.law import (
    DIVERGED_LOSS,
    REFERENCE_COEFFICIENTS,
    FittedLaw,
    ConfigBatch,
    LawFitError,
    RunConfig,
    RunRecord,
    RunTable,
    SimpleLaw,
    continual_features,
    fit,
    general_log_losses,
    predict,
    prop1_gap,
    rank,
    reference_law,
    simple_law_eval,
)
from optlaws.schedule import (
    ScheduleTable,
    build_general_schedule,
    warmup_cosine_schedule,
    warmup_const_cooldown_schedule,
)
from util import (
    LR_SCALE,
    count_per_config_calls,
    law_text,
    make_grid_records,
    random_four_phase,
    random_schedule,
    table_row,
)

GRID = dict(
    warm_fracs=(0.05, 0.15, 0.3, 0.5),
    peak_rates=(0.1, 0.3, 0.55, 0.8),
    token_sizes=(3.0, 10.0),
    model_sizes=(0.58, 4.05),
)


def rank_configs(law, configs):
    """rank over the batch of a list of RunConfig."""
    return rank(law, ConfigBatch.from_configs(configs))


def _area(schedule, S=None):
    """The LR area of a pre-training run on ``schedule`` up to S (its horizon)."""
    return schedule.integral(0.0, schedule.S if S is None else S, "eta")


def _config(h_norm, a_B, S_B, N, h2_norm=None, a2_B=None, a3_B=None):
    h2 = h_norm if h2_norm is None else h2_norm
    a2 = a_B if a2_B is None else a2_B
    a3 = a_B if a3_B is None else a3_B
    return RunConfig(
        schedule=build_general_schedule(h_norm, h2, a_B, a2, a3, S_B), N=N
    )


def one_row_table(*numbers, diverged=False) -> RunTable:
    """A one-run RunTable, built from RunRecord's arguments."""
    return RunTable(*([x] for x in numbers), diverged=[diverged])


class TestRunRecord:
    # each case runs as a record and as a table of one run
    def test_sentinel_loss_for_divergent(self):
        for make in (RunRecord, one_row_table):
            r = make(4.0, 10.0, 6e-3, 6e-3, 1.0, 1.0, 1.0, 2.5, diverged=True)
            assert np.all(r.loss == DIVERGED_LOSS)

    def test_nonpositive_loss_rejected(self):
        for make in (RunRecord, one_row_table):
            for loss in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match=f"needs loss > 0, got {loss}$"):
                    make(4.0, 10.0, 6e-3, 6e-3, 1.0, 1.0, 1.0, loss)

    def test_table_names_the_first_bad_row(self):
        losses = [2.5, -1.0, 0.0, 3.0]
        with pytest.raises(ValueError, match="got 0.0$"):
            RunTable(*[[1.0] * 4] * 7, losses, diverged=[False, True, False, False])

    @pytest.mark.parametrize("loss", [[2.5], [[2.5, 2.5]], 2.5], ids=["short", "2-D", "scalar"])
    def test_table_columns_must_be_rows_of_one_length(self, loss):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            RunTable(*[[1.0, 1.0]] * 7, loss, diverged=[False, False])

    def test_table_of_records_matches_its_columns(self):
        records = make_grid_records(**GRID)[:5] + [
            RunRecord(4.05, 10.0, 1.5e-2, 1.5e-2, 0.05, 0.05, 0.05, 2.5, diverged=True)]
        table = RunTable.from_records(records)
        assert len(table) == 6 and table.diverged.tolist() == [False] * 5 + [True]
        assert table.loss[-1] == DIVERGED_LOSS
        assert [table_row(table, i) for i in range(6)] == records

    def test_raw_step_normalization(self, tmp_path):
        runs = tmp_path / "steps.csv"
        runs.write_text(
            "model_B,tokens_B,eta1,eta2,a1_B,a2_B,a3_B,loss,diverged\n"
            "4.05,20000,6e-3,6e-3,2000,2000,2000,2.0,0\n"
        )
        runs = read_runs_csv(str(runs), token_length=2048, batch=2048)
        assert len(runs) == 1
        s = table_row(runs, 0).normalized_schedule()
        assert s.S == pytest.approx(20000 * 2048 * 2048 / 1e9, rel=1e-15)
        assert s.markers[0] == pytest.approx(8.388608, rel=1e-15)
        assert s.eta_max == pytest.approx(0.4, rel=1e-15)


class TestFit:
    def test_noiseless_recovery(self):
        records = make_grid_records(**GRID)
        law = fit(records)
        np.testing.assert_allclose(law.c, REFERENCE_COEFFICIENTS, atol=1e-8)
        assert law.residual_rms <= 1e-10
        assert law.condition_number < 1e6

    def test_noisy_holdout_within_half_percent(self):
        rng = np.random.default_rng(31)
        records = make_grid_records(
            warm_fracs=np.linspace(0.03, 0.6, 9),
            peak_rates=np.linspace(0.08, 0.9, 8),
            token_sizes=(3.0, 6.0, 10.0, 30.0),
            model_sizes=(0.58, 4.05),
            noise_rel=1e-3,
            rng=rng,
        )
        train = [r for i, r in enumerate(records) if i % 3 != 0]
        hold = [r for i, r in enumerate(records) if i % 3 == 0]
        law = fit(train)
        rels = []
        for r in hold:
            cfg = RunConfig(schedule=r.normalized_schedule(), N=r.model_B)
            pred = predict(law, cfg)["loss"]
            rels.append(abs(pred - r.loss) / r.loss)
        assert float(np.mean(rels)) <= 5e-3

    def test_divergent_rows_excluded(self):
        records = make_grid_records(**GRID)
        bad = RunRecord(4.05, 10.0, 1.5e-2, 1.5e-2, 0.05, 0.05, 0.05,
                        DIVERGED_LOSS, diverged=True)
        law_with = fit(records + [bad] * 5)
        law_without = fit(records)
        np.testing.assert_allclose(law_with.c, law_without.c, rtol=0, atol=1e-12)

    def test_all_divergent_is_error(self):
        bad = RunRecord(4.05, 10.0, 1.5e-2, 1.5e-2, 0.05, 0.05, 0.05,
                        DIVERGED_LOSS, diverged=True)
        with pytest.raises(LawFitError, match="no fittable rows"):
            fit([bad] * 20)

    def test_too_few_rows_is_error(self):
        records = make_grid_records(**GRID)[:16]
        with pytest.raises(LawFitError, match="at least 17"):
            fit(records)

    def test_one_model_size_is_rank_deficient(self):
        # with one N, each term's power of N only rescales a column
        records = make_grid_records(**{**GRID, "model_sizes": (0.58,)})
        with pytest.raises(LawFitError, match=r"^rank-deficient design matrix: rank \d+ < 16 "):
            fit(records)

    def test_twelve_term_mode(self):
        records = make_grid_records(**GRID)
        law = fit(records, include_escape=False)
        assert not law.escape_terms
        assert all(law.c[i] == 0.0 for i in (4, 5, 6, 7))
        # still fits its own training data exactly in the reduced span? no:
        # the generator used escape terms, so a residual remains
        assert law.residual_rms is not None

    def test_ols_optimality(self):
        rng = np.random.default_rng(37)
        records = make_grid_records(**GRID, noise_rel=1e-3, rng=rng)
        law = fit(records)
        feats, ys = [], []
        for r in records:
            s = r.normalized_schedule()
            feats.append(compute_features(s, default_markers(s), r.model_B).values)
            ys.append(math.log(r.loss))
        A = np.array(feats)
        y = np.array(ys)
        base = float(np.sum((A @ np.array(law.c) - y) ** 2))
        for i in range(16):
            for sign in (+1.0, -1.0):
                c = np.array(law.c)
                c[i] += sign * 1e-3
                assert float(np.sum((A @ c - y) ** 2)) >= base - 1e-12

    def test_design_matrix_built_in_one_pass(self, monkeypatch):
        # fit featurises every record in one batch: no Schedule per row and
        # no call into the single-config feature path
        records = make_grid_records(**GRID)
        calls = count_per_config_calls(monkeypatch)
        law = fit(records)
        assert law.residual_rms <= 1e-10
        assert not any(calls.values()), calls  # no per-config call of any kind

    def test_table_fits_as_its_records(self):
        records = make_grid_records(**GRID, noise_rel=1e-3, rng=np.random.default_rng(43))
        assert fit(RunTable.from_records(records)) == fit(records)

    def test_refit_idempotence(self):
        rng = np.random.default_rng(41)
        noisy = make_grid_records(**GRID, noise_rel=1e-3, rng=rng)
        law1 = fit(noisy)
        regenerated = []
        for r in noisy:
            cfg = RunConfig(schedule=r.normalized_schedule(), N=r.model_B)
            loss = predict(law1, cfg)["loss"]
            regenerated.append(
                RunRecord(r.model_B, r.tokens_B, r.eta1, r.eta2,
                          r.a1_B, r.a2_B, r.a3_B, loss)
            )
        law2 = fit(regenerated)
        assert law2.residual_rms <= 1e-10


class TestPredict:
    def test_in_sample_consistency(self):
        records = make_grid_records(**GRID)
        law = fit(records)
        r = records[7]
        cfg = RunConfig(schedule=r.normalized_schedule(), N=r.model_B)
        assert predict(law, cfg)["log_loss"] == pytest.approx(
            math.log(r.loss), abs=1e-9
        )

    def test_constant_model(self):
        v = 0.7
        law = FittedLaw(c=(0.0,) * 15 + (v,))
        for cfg in (_config(0.4, 2.0, 10.0, 4.0), _config(0.1, 1.0, 30.0, 0.5)):
            assert predict(law, cfg)["loss"] == pytest.approx(math.exp(v), rel=1e-15)

    def test_identical_features_identical_prediction(self):
        law = reference_law()
        a = predict(law, _config(0.4, 2.0, 10.0, 4.0))
        b = predict(law, _config(0.4, 2.0, 10.0, 4.0))
        assert a == b

    def test_feature_errors_propagate(self):
        law = reference_law()
        with pytest.raises(FeatureError):
            predict(law, _config(0.4, 0.0, 10.0, 4.0))  # zero warmup


class TestRank:
    def test_planted_order_reproduced(self):
        records = make_grid_records(**GRID)
        law = fit(records)
        # three pre-training-style settings at N=4.05 / 2.0, S=100
        configs = [
            _config(1e-3 / LR_SCALE, 20.97, 100.0, 4.05,
                    h2_norm=5e-4 / LR_SCALE, a2_B=41.94, a3_B=62.91),
            _config(1.2e-3 / LR_SCALE, 5.03, 100.0, 4.05,
                    h2_norm=6e-4 / LR_SCALE, a2_B=29.36, a3_B=54.53),
            _config(1e-3 / LR_SCALE, 8.39, 100.0, 2.0),
        ]
        oracle = []
        for i, cfg in enumerate(configs):
            f = compute_features(cfg.schedule, default_markers(cfg.schedule), cfg.N)
            oracle.append((float(np.dot(REFERENCE_COEFFICIENTS, f.values)), i))
        expected = [i for _, i in sorted(oracle)]
        ranked = rank_configs(law, configs)
        assert [r.verdict for r in ranked] == ["ok"] * 3
        assert [r.index for r in ranked] == expected

    def test_singleton(self):
        law = reference_law()
        ranked = rank_configs(law, [_config(0.4, 2.0, 10.0, 0.5)])
        assert len(ranked) == 1 and ranked[0].verdict == "ok"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_configs(reference_law(), [])

    def test_zero_warmup_gated_at_critical_rate(self):
        # with no warmup only a peak at or below the critical rate is stable;
        # a continual-mode law prices such a config from the pre-training area
        law = reference_law().as_continual()
        pre_area = _area(build_general_schedule(0.3, 0.3, 1.0, 1.0, 1.0, 20.0))
        eta_crit = critical_rate(0.58, 10.0)
        cool, hot = (
            RunConfig(schedule=build_general_schedule(h, h, 0.0, 2.0, 5.0, 10.0),
                      N=0.58, pre_area=pre_area)
            for h in (eta_crit, math.nextafter(eta_crit, 1.0))
        )
        ok, gated = rank_configs(law, [hot, cool])
        assert (ok.index, ok.verdict, ok.R, ok.eta_L) == (1, "ok", 0.0, eta_crit)
        assert (gated.index, gated.verdict, gated.R, gated.eta_L) == (
            0, "diverge", math.inf, eta_crit)

    def test_unpriced_config_listed_before_divergent(self):
        # a zero warmup at the critical rate passes the gate, but a
        # pretrain-mode law has no features for it: it is listed, not priced
        law = reference_law()
        eta_crit = critical_rate(0.58, 10.0)
        configs = [
            _config(0.9, 0.05, 3.0, 4.05),  # diverges
            RunConfig(schedule=build_general_schedule(eta_crit, eta_crit, 0.0, 2.0, 5.0, 10.0),
                      N=0.58),
            _config(0.1, 2.0, 10.0, 4.05),
            _config(0.2, 2.0, 10.0, 4.05),
        ]
        ranked = rank_configs(law, configs)
        assert [(r.index, r.verdict) for r in ranked][2:] == [(1, "unpriced"), (0, "diverge")]
        assert sorted(r.index for r in ranked[:2]) == [2, 3]
        assert all(r.verdict == "ok" for r in ranked[:2])
        unpriced = ranked[2]
        assert (unpriced.R, unpriced.eta_L, unpriced.log_loss, unpriced.loss) == (
            0.0, eta_crit, None, None)
        for r in ranked[:2]:
            assert r.log_loss == predict(law, configs[r.index])["log_loss"]

    def test_divergent_listed_last(self):
        law = reference_law()
        hot = _config(0.9, 0.05, 3.0, 4.05)  # high peak, tiny warmup
        cool = _config(0.1, 2.0, 10.0, 4.05)
        ranked = rank_configs(law, [hot, cool])
        assert ranked[-1].index == 0 and ranked[-1].verdict == "diverge"
        assert ranked[-1].R > 1.0
        assert ranked[0].verdict == "ok"

    def test_tie_break_by_peak_then_warmup(self):
        law = FittedLaw(c=(0.0,) * 15 + (0.5,))  # constant predictions: all tie
        configs = [
            _config(0.4, 3.0, 10.0, 0.5),
            _config(0.2, 3.0, 10.0, 0.5),
            _config(0.2, 1.0, 10.0, 0.5),
            _config(0.2, 1.0, 10.0, 0.5),
        ]
        ranked = rank_configs(law, configs)
        assert [r.verdict for r in ranked] == ["ok"] * 4
        assert [r.index for r in ranked] == [2, 3, 1, 0]

    def test_bias_shift_preserves_order(self):
        records = make_grid_records(**GRID)
        law = fit(records)
        shifted = FittedLaw(c=tuple(np.array(law.c) + 0.3 * np.eye(16)[15]),
                            powers=law.powers)
        configs = [
            _config(0.1, 1.5, 10.0, 1.0),
            _config(0.15, 2.0, 10.0, 0.58),
            _config(0.3, 3.0, 10.0, 0.5),
        ]
        base = rank_configs(law, configs)
        moved = rank_configs(shifted, configs)
        assert all(r.verdict == "ok" for r in base)
        assert [r.index for r in base] == [r.index for r in moved]
        for rb, rm in zip(base, moved):
            assert rm.log_loss == pytest.approx(rb.log_loss + 0.3, rel=1e-12)


class TestContinual:
    def test_pre_zero_and_unit_peak_reduces_to_pretrain(self):
        # cooldown peak equal to 1 on [a_e2, S]: dividing by 1^4 is a no-op
        law = reference_law().as_continual()
        cfg = _config(1.0, 2.0, 10.0, 4.0)
        cont = continual_features(law, replace(cfg, pre_area=0.0))
        pre = compute_features(cfg.schedule, default_markers(cfg.schedule), cfg.N)
        np.testing.assert_array_equal(cont.values, pre.values)

    def test_pre_zero_keeps_escape_rescaling(self):
        law = reference_law().as_continual()
        cfg = _config(0.5, 2.0, 10.0, 4.0)
        cont = continual_features(law, replace(cfg, pre_area=0.0))
        pre = compute_features(cfg.schedule, default_markers(cfg.schedule), cfg.N)
        scale = 0.5 ** -4  # peak on the escape interval is 0.5
        assert cont.escape[0] == pytest.approx(pre.escape[0] * scale, rel=1e-12)
        assert cont.escape[2] == pytest.approx(pre.escape[2] * scale**0.25, rel=1e-12)
        assert cont.escape[1] == pre.escape[1]
        # warmup area untouched by a zero pre-training area
        assert cont.convergence[0] == pre.convergence[0]

    def test_enlarged_warmup_only_when_unit_peak(self):
        law = reference_law().as_continual()
        cfg = _config(1.0, 2.0, 10.0, 4.0)
        pre_sched = build_general_schedule(1.0, 1.0, 5.0, 5.0, 5.0, 50.0)
        cont = continual_features(law, replace(cfg, pre_area=_area(pre_sched)))
        base = compute_features(cfg.schedule, default_markers(cfg.schedule), cfg.N)
        # only entries touching the warmup area move
        for i in (1, 2, 4, 5, 6, 7, 9, 11, 12, 13, 14, 15):
            assert cont.values[i] == base.values[i]
        for i in (0, 3, 8, 10):
            assert cont.values[i] != base.values[i]

    def test_symbolic_oracle_continual_setting(self):
        # warmup 1200 steps to 1.2e-3, decay to 6e-4 by 7000, plateau to
        # 13000, cooldown to 100B tokens; after a 300B-token pre-training
        # run with peak 1e-3 and 500-step warmup.  All steps use token
        # length 2048 and batch 2048.
        to_b = 2048 * 2048 / 1e9
        h1, h2 = 1.2e-3 / LR_SCALE, 6e-4 / LR_SCALE
        a1, a2, a3, S = 1200 * to_b, 7000 * to_b, 13000 * to_b, 100.0
        N = 4.05
        cfg = RunConfig(
            schedule=build_general_schedule(h1, h2, a1, a2, a3, S), N=N
        )
        hp = 1e-3 / LR_SCALE
        ap, Sp = 500 * to_b, 300.0
        pre_sched = build_general_schedule(hp, hp, ap, ap, ap, Sp)
        law = reference_law().as_continual()
        got = continual_features(law, replace(cfg, pre_area=_area(pre_sched)))

        # independent arithmetic: every integral written out by hand
        pre_area = hp * Sp / 2.0
        warmup_area = a1 * h1 / 2.0 + pre_area
        tail_area = (S - a3) * h2 / 2.0
        warmup_energy = h1**2 / a1 + (h2 - h1) ** 2 / (a2 - a1)
        tail_energy = (h2**2 / (S - a3)) / h2**4  # peak on [a2, S] is h2
        p = got.powers
        expected = [
            warmup_area ** p[0],
            tail_area ** p[1],
            (N / tail_area) ** p[2],
            (warmup_area * tail_area) ** p[3],
            tail_energy ** p[4],
            warmup_energy ** p[5],
            tail_energy ** p[6],
            (S * N) ** p[7],
            (tail_energy / warmup_area) ** p[8],
            (tail_energy / tail_area) ** p[9],
            (N * tail_energy / warmup_area) ** p[10],
            (N * tail_energy / tail_area) ** p[11],
            N ** p[12],
            S ** p[13],
            h1 ** p[14],
            1.0,
        ]
        np.testing.assert_allclose(got.values, expected, rtol=1e-12)

    def test_zero_tail_peak_is_error(self):
        law = reference_law().as_continual()
        # constant-zero everywhere after the escape split is impossible to
        # build with positive rates before it, so use an all-zero schedule
        cfg = RunConfig(schedule=build_general_schedule(0.0, 0.0, 2.0, 2.0, 2.0, 10.0), N=4.0,
                        pre_area=0.0)
        with pytest.raises(FeatureError, match="positive peak rate"):
            continual_features(law, cfg)

    def test_tail_peak_whose_fourth_power_underflows_is_feature_error(self):
        # h_tail ** 4 underflows to 0: a domain error, not a ZeroDivisionError
        law = reference_law().as_continual()
        pre_area = _area(build_general_schedule(0.3, 0.3, 1.0, 1.0, 1.0, 20.0))
        cfg = RunConfig(build_general_schedule(1e-90, 1e-90, 2.0, 2.0, 2.0, 10.0), 4.0, pre_area)
        with pytest.raises(FeatureError, match="tail_slope_energy"):
            predict(law, cfg)

    def test_predict_in_continual_mode_requires_context(self):
        law = reference_law().as_continual()
        with pytest.raises(FeatureError, match="pre-training context"):
            predict(law, _config(0.4, 2.0, 10.0, 4.0))

    @pytest.mark.parametrize("route", ["predict", "rank", "continual_features"])
    def test_nan_pre_area_is_no_context(self, route):
        law = reference_law().as_continual()
        cfg = replace(_config(0.1, 2.0, 10.0, 0.58), pre_area=math.nan)
        call = {
            "predict": lambda: predict(law, cfg),
            "rank": lambda: rank_configs(law, [cfg]),
            "continual_features": lambda: continual_features(law, cfg),
        }[route]
        with pytest.raises(FeatureError, match="^continual-mode law needs a pre-training context$"):
            call()

    def test_zero_pre_horizon_needs_no_pre_schedule(self):
        # a run resumed from no pre-training has area 0.0, not NaN
        law = reference_law().as_continual()
        cfg = replace(_config(0.1, 2.0, 10.0, 0.58), pre_area=0.0)
        want = predict(law, cfg)["log_loss"]
        assert rank_configs(law, [cfg])[0].log_loss == want
        assert want == sum(c * f for c, f in zip(law.c, continual_features(law, cfg).values))

    def test_pre_context_area(self):
        # a pre-training run stopped short of its horizon: the area of
        # [0, 4], the warmup to 0.5 on [0, 2] then the decay to 0.4 at t = 4,
        # adds to the warmup area as given
        s = build_general_schedule(0.5, 0.3, 2.0, 6.0, 12.0, 20.0)
        partial = _area(s, 4.0)
        assert partial == pytest.approx(0.5 * 2.0 / 2 + (0.5 + 0.4) / 2 * 2.0, rel=1e-15)
        law = replace(reference_law().as_continual(), powers=(1.0,) + (0.0,) * 15)
        cfg = replace(_config(1.0, 2.0, 10.0, 4.0), pre_area=partial)
        assert continual_features(law, cfg).values[0] == 1.0 * 2.0 / 2 + partial

    @pytest.mark.parametrize("pre_area", [-1.0, math.inf, -math.inf])
    def test_negative_or_infinite_pre_area_is_refused(self, pre_area):
        # -1.0 leaves this config's warmup area (1.2) positive and inf makes
        # its warmup terms vanish, so only the area check refuses them; rank
        # lists the config unpriced, among priced configs
        law = reference_law().as_continual()
        cfg = replace(_config(0.3, 8.0, 10.0, 0.58), pre_area=pre_area)
        message = ("^pre-training area must be nonnegative and keep the warmup area finite, "
                   f"got {re.escape(str(pre_area))}$")
        for call in (lambda: predict(law, cfg), lambda: continual_features(law, cfg)):
            with pytest.raises(FeatureError, match=message):
                call()
        batch = ConfigBatch(ScheduleTable.from_schedules([cfg.schedule] * 3), np.full(3, cfg.N),
                            np.array([1.0, pre_area, 1.0]))
        ranked = rank(law, batch)
        assert [(r.index, r.verdict) for r in ranked] == [(0, "ok"), (2, "ok"), (1, "unpriced")]
        assert ranked[0].log_loss == predict(law, replace(cfg, pre_area=1.0))["log_loss"]

    def test_pre_area_that_overflows_the_warmup_area_is_refused(self):
        # each term finite, their sum not: the warmup area 5e299 plus the
        # largest double
        law = reference_law().as_continual()
        cfg = RunConfig(build_general_schedule(1e300, 1e300, 1.0, 1.0, 1.0, 10.0), 4.0,
                        sys.float_info.max)
        with pytest.raises(FeatureError, match="keep the warmup area finite, got 1.797"):
            continual_features(law, cfg)

    def test_pre_block_with_overflowing_warmup_slope_is_priced(self):
        # the pre block's warmup slope 1e200 / 1e-300 overflows; its area is
        # still finite, so it is a pre-training context like any other
        law = reference_law().as_continual()
        pre_area = _area(build_general_schedule(1e200, 1e200, 1e-300, 1e-300, 1e-300, 10.0))
        assert pre_area == pytest.approx(5e200, rel=1e-15)
        cfg = RunConfig(build_general_schedule(0.1, 0.1, 2.0, 2.0, 8.0, 10.0), 4.05, pre_area)
        want = predict(law, cfg)["log_loss"]
        assert math.isfinite(want)
        assert rank_configs(law, [cfg])[0].log_loss == want

    def test_predict_uses_pre_context(self):
        law = reference_law().as_continual()
        pre = build_general_schedule(0.5, 0.5, 1.0, 1.0, 1.0, 20.0)
        cfg = RunConfig(
            schedule=build_general_schedule(1.0, 1.0, 2.0, 2.0, 2.0, 10.0),
            N=4.0,
            pre_area=_area(pre),
        )
        want = 0.0
        for c, f in zip(law.c, continual_features(law, cfg).values):
            want += c * f  # term order
        assert predict(law, cfg)["log_loss"] == want
        shorter = replace(cfg, pre_area=_area(pre, 10.0))
        assert predict(law, shorter)["log_loss"] != want


def _random_runs(seed: int, n: int = 60) -> list[tuple[float, ...]]:
    """(eta1, eta2, a1, a2, a3, S, N) of random four-phase runs with low peaks."""
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(n):
        S = float(rng.uniform(5.0, 60.0))
        a1, a2, a3 = (float(x) for x in np.sort(rng.uniform(0.02 * S, S, size=3)))
        h1, h2 = (float(x) for x in rng.uniform(0.01, 0.2, size=2))
        runs.append((h1, h2, a1, a2, a3, S, float(rng.uniform(0.1, 8.0))))
    return runs


class TestOneRoute:
    """predict, rank and general_log_losses give a config one log loss."""

    def test_pretrain_predict_rank_and_general_agree(self):
        law = reference_law()
        runs = _random_runs(61)
        configs = [RunConfig(build_general_schedule(*r[:6]), r[6]) for r in runs]
        general = general_log_losses(law, *(np.array(col) for col in zip(*runs)))
        ok = [r for r in rank_configs(law, configs) if r.verdict == "ok"]
        assert len(ok) >= len(runs) // 2
        for r in ok:
            want = predict(law, configs[r.index])["log_loss"]
            assert r.log_loss == want
            assert general[r.index] == want

    def test_continual_predict_and_rank_agree(self):
        law = reference_law().as_continual()
        pre_area = _area(build_general_schedule(0.3, 0.3, 1.0, 1.0, 1.0, 20.0))
        configs = [RunConfig(build_general_schedule(*r[:6]), r[6], pre_area)
                   for r in _random_runs(67)]
        ok = [r for r in rank_configs(law, configs) if r.verdict == "ok"]
        assert len(ok) >= len(configs) // 2
        for r in ok:
            assert r.log_loss == predict(law, configs[r.index])["log_loss"]

    @pytest.mark.parametrize("mode", ["pretrain", "continual"])
    def test_cosine_schedules_rank_as_predict_prices_them(self, mode):
        # cosine and four-phase rows in one table, and a pre-training run
        # stopped before its own horizon
        law = replace(reference_law(), mode=mode)
        pre_area = _area(warmup_cosine_schedule(0.3, 2.0, 20.0), 15.0)
        configs = []
        for i, (h1, _, a1, a2, a3, S, N) in enumerate(_random_runs(71)):
            s = (warmup_cosine_schedule(h1, a1, S) if i % 2
                 else build_general_schedule(h1, h1, a1, a2, a3, S))
            configs.append(RunConfig(s, N, pre_area))
        ok = [r for r in rank_configs(law, configs) if r.verdict == "ok"]
        assert len(ok) >= len(configs) // 2
        for r in ok:
            assert r.log_loss == predict(law, configs[r.index])["log_loss"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 1.0), st.floats(0.01, 1.0),  # peak and decayed rate
                st.just(0.0) | st.floats(0.01, 0.3),  # warmup / S
                st.floats(0.01, 0.3), st.floats(0.0, 0.3),  # decay and plateau / S
                st.floats(1.0, 100.0), st.floats(0.05, 10.0),  # S, N
            ),
            min_size=2,
            max_size=12,
        ),
        st.data(),
    )
    def test_rank_log_loss_independent_of_batch(self, runs, data):
        # zero warmups (unpriced) and high peaks (diverge) keep None
        law = reference_law()
        configs = []
        for h1, h2, f1, f2, f3, S, N in runs:
            a1, a2, a3 = f1 * S, (f1 + f2) * S, (f1 + f2 + f3) * S
            configs.append(RunConfig(build_general_schedule(h1, h2, a1, a2, a3, S), N))
        full = {r.index: r.log_loss for r in rank_configs(law, configs)}
        for i, cfg in enumerate(configs):
            assert rank_configs(law, [cfg])[0].log_loss == full[i]
        drop = data.draw(st.integers(0, len(configs) - 1))
        kept = [i for i in range(len(configs)) if i != drop]
        for r in rank_configs(law, [configs[i] for i in kept]):
            assert r.log_loss == full[kept[r.index]]


class TestSimpleLaw:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            SimpleLaw(c1=0.0)
        with pytest.raises(ValueError):
            SimpleLaw(alpha2=-1.0)

    def test_eval_constant_phase_folds_into_cooldown(self):
        law = SimpleLaw()
        h, a, a_c, S = 0.5, 1.0, 8.0, 10.0
        s = warmup_const_cooldown_schedule(h, a, a_c, S)
        val = simple_law_eval(law, s)
        iw = a * h / 2
        it = h * (a_c - a) + h * (S - a_c) / 2
        expected = 1 / iw + 1 / it + 1 / S + h**2 / a + h**2 / (S - a_c)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_eval_rejects_zero_warmup(self):
        law = SimpleLaw()
        s = build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            simple_law_eval(law, s)

    def test_zero_warmup_refusal_message(self):
        s = build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError) as err:
            simple_law_eval(SimpleLaw(), s)
        assert str(err.value) == "law needs positive area integrals, got warmup 0.0, tail 2.0"

    @staticmethod
    def four_integral_eval(law, schedule):
        """The five-term law from its four integrals, each taken on the
        schedule directly, split at the warmup marker."""
        a, S = schedule.markers[0], schedule.S
        iw = schedule.integral(0.0, a, "eta")
        it = schedule.integral(a, S, "eta")
        if iw <= 0 or it <= 0:
            raise ValueError(f"law needs positive area integrals, got warmup {iw}, tail {it}")
        ew = schedule.integral(0.0, a, "deta_sq")
        et = schedule.integral(a, S, "deta_sq")
        return (
            law.c1 * iw ** -law.alpha1
            + law.c2 * it ** -law.alpha2
            + law.c3_bias / S
            + law.b
            + law.c4 * ew ** law.alpha3
            + law.c5 * et ** law.alpha4
        )

    @pytest.mark.parametrize("draw", [random_schedule, random_four_phase])
    def test_eval_equals_four_integral_formula(self, draw):
        rng = np.random.default_rng(517)
        for _ in range(600):
            law = SimpleLaw(*rng.uniform(0.1, 2.0, size=9), b=float(rng.normal()))
            s = draw(rng)
            try:
                want = self.four_integral_eval(law, s)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    simple_law_eval(law, s)
                assert str(err.value) == str(exc)
            else:
                assert simple_law_eval(law, s) == want

    def test_gap_matches_direct_evaluation(self):
        # with symmetric escape constants the closed forms equal the
        # integral route on both families
        law = SimpleLaw(c1=0.8, c2=1.3, c3_bias=0.5, c4=0.9, c5=0.9,
                        alpha1=1.1, alpha2=0.7, alpha3=0.8, alpha4=0.8, b=0.2)
        r_a, r_ac, S, h = 0.05, 0.7, 40.0, 0.6
        cos = warmup_cosine_schedule(h, r_a * S, S)
        con = warmup_const_cooldown_schedule(h, r_a * S, r_ac * S, S)
        direct = abs(simple_law_eval(law, cos) - simple_law_eval(law, con))
        closed = prop1_gap(law, r_a, r_ac, S, eta_max=h)
        assert closed == pytest.approx(direct, rel=1e-12)

    def test_gap_uses_tail_slope_constants(self):
        # c4/alpha3 weigh the warmup slope energy and c5/alpha4 the tail one;
        # with them unequal, mixing the pairs up gives 0.0529 here
        law = SimpleLaw(c1=0.8, c2=2.0, c3_bias=0.5, c4=0.5, c5=3.0,
                        alpha1=1.1, alpha2=0.7, alpha3=0.6, alpha4=0.3, b=0.2)
        r_a, r_ac, S, h = 0.05, 0.8, 100.0, 0.5
        cos = warmup_cosine_schedule(h, r_a * S, S)
        con = warmup_const_cooldown_schedule(h, r_a * S, r_ac * S, S)
        direct = abs(simple_law_eval(law, cos) - simple_law_eval(law, con))
        assert direct == pytest.approx(0.195, abs=5e-4)
        assert prop1_gap(law, r_a, r_ac, S, eta_max=h) == pytest.approx(direct, rel=1e-12)

    def test_gap_vanishes_with_horizon(self):
        law = SimpleLaw()
        gaps = [prop1_gap(law, 0.01, 0.85, 10.0**k) for k in range(2, 9)]
        assert all(g > 0 and math.isfinite(g) for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_cosine_worse_when_no_constant_phase(self):
        law = SimpleLaw()
        h, S = 0.5, 20.0
        a = 0.1 * S
        cos = warmup_cosine_schedule(h, a, S)
        con = warmup_const_cooldown_schedule(h, a, a, S)
        assert simple_law_eval(law, cos) > simple_law_eval(law, con)

    def test_gap_decreasing_on_geometric_grid(self):
        law = SimpleLaw()
        svals = [10.0**k for k in range(1, 8)]
        gaps = [prop1_gap(law, 0.01, 0.85, S) for S in svals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_invalid_ratios(self):
        law = SimpleLaw()
        with pytest.raises(ValueError):
            prop1_gap(law, 0.0, 0.5, 100.0)
        with pytest.raises(ValueError):
            prop1_gap(law, 0.6, 0.5, 100.0)
        with pytest.raises(ValueError):
            prop1_gap(law, 0.01, 1.0, 100.0)


class TestDefaultMarkerRule:
    def test_defaults_are_the_one_constant(self):
        # the rule name is not interned, so `is` tells one object from a copy
        assert FittedLaw(c=REFERENCE_COEFFICIENTS).policy_rule is DEFAULT_MARKER_RULE
        assert inspect.signature(fit).parameters["policy_rule"].default is DEFAULT_MARKER_RULE
        argv = ["fit", "--runs", "runs.csv", "--out", "law.json"]
        assert build_parser().parse_args(argv).policy is DEFAULT_MARKER_RULE

    def test_default_markers_read_the_constant(self, monkeypatch):
        s = build_general_schedule(0.8, 0.4, 1.0, 3.0, 6.0, 10.0)
        assert default_markers(s) != collapsed_markers(s)
        monkeypatch.setattr(features, "DEFAULT_MARKER_RULE", "all-a1")
        assert default_markers(s) == collapsed_markers(s)


class TestLawJson:
    # the new cases loaded (strings and bools read as floats, any escape_terms
    # or diagnostics kept as written) or ended in an OverflowError
    @pytest.mark.parametrize("text, match", [
        ('{"c": [0.0], "lr_scale": 0.015}', "missing field 'powers'"),
        ("[1, 2, 3]", "JSON object, not list"),
        ('{"c": 5, "powers": [], "lr_scale": 0.015, "policy": "a1/a3/a2", "mode": "pretrain"}',
         "malformed law file"),
        pytest.param(law_text(c=[str(x) for x in REFERENCE_COEFFICIENTS]),
                     "law field 'c' must be a number, got \"-0.000692\"", id="c-strings"),
        pytest.param(law_text(c=[None] * 16), "law field 'c' must be a number, got null",
                     id="c-null"),
        pytest.param(law_text(powers=[True] * 16), "law field 'powers' must be a number, got true",
                     id="powers-bool"),
        pytest.param(law_text(lr_scale=True), "law field 'lr_scale' must be a number, got true",
                     id="lr-scale-bool"),
        pytest.param(law_text(lr_scale=10**400), "law field 'lr_scale' is too large for a float",
                     id="lr-scale-400-digits"),
        pytest.param(law_text(c=[10**400] * 16), "law field 'c' is too large for a float",
                     id="c-400-digits"),
        pytest.param(law_text(residual_rms="0.1"),
                     "law field 'residual_rms' must be a number, got \"0.1\"", id="rms-string"),
        pytest.param(law_text(escape_terms="no"), "law field 'escape_terms' must be a bool",
                     id="escape-terms-string"),
    ])
    def test_malformed_law_is_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            FittedLaw.from_json(text)

    @pytest.mark.parametrize("field", ["c", "powers"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_term_is_refused(self, field, value):
        # NaN coefficients priced every config at NaN: sweep wrote nan losses,
        # and an infinite power left every rank survivor unpriced
        law = reference_law()
        terms = list(getattr(law, field))
        terms[5] = value
        with pytest.raises(ValueError, match=rf"law {field}\[5\] \(warmup_slope_energy\) "
                                             rf"must be finite, got {value}"):
            FittedLaw.from_json(law_text(**{field: terms}))
        with pytest.raises(ValueError, match="must be finite"):
            replace(law, **{field: tuple(terms)})

    def test_round_trip(self):
        records = make_grid_records(**GRID)
        law = fit(records)
        text = law.to_json()
        law2 = FittedLaw.from_json(text)
        assert law2 == law
        assert law2.to_json() == text

    def test_normalizer_recorded(self):
        records = make_grid_records(**GRID)
        law = fit(records, normalizer=Normalizer(lr_scale=1e-2))
        assert FittedLaw.from_json(law.to_json()).lr_scale == 1e-2
