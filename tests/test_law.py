import math

import numpy as np
import pytest

from optlaws.features import FeatureError, Normalizer, compute_features, default_markers
from optlaws.law import (
    DIVERGED_LOSS,
    REFERENCE_COEFFICIENTS,
    FittedLaw,
    LawFitError,
    PretrainContext,
    RunConfig,
    RunRecord,
    SimpleLaw,
    continual_features,
    features_for,
    fit,
    predict,
    prop1_gap,
    rank,
    reference_law,
    simple_law_eval,
    unit_simple_law,
)
from optlaws.schedule import (
    build_general_schedule,
    warmup_cosine_schedule,
    warmup_const_cooldown_schedule,
)
from util import LR_SCALE, make_grid_records

GRID = dict(
    warm_fracs=(0.05, 0.15, 0.3, 0.5),
    peak_rates=(0.1, 0.3, 0.55, 0.8),
    token_sizes=(3.0, 10.0),
    model_sizes=(0.58, 4.05),
)


def _config(h_norm, a_B, S_B, N, h2_norm=None, a2_B=None, a3_B=None):
    h2 = h_norm if h2_norm is None else h2_norm
    a2 = a_B if a2_B is None else a2_B
    a3 = a_B if a3_B is None else a3_B
    return RunConfig(
        schedule=build_general_schedule(h_norm, h2, a_B, a2, a3, S_B), N=N
    )


class TestRunRecord:
    def test_sentinel_loss_for_divergent(self):
        r = RunRecord.from_billions(4.0, 10.0, 6e-3, 6e-3, 1.0, 1.0, 1.0, 2.5, diverged=True)
        assert r.final_loss == DIVERGED_LOSS

    def test_nonpositive_loss_rejected(self):
        with pytest.raises(ValueError):
            RunRecord.from_billions(4.0, 10.0, 6e-3, 6e-3, 1.0, 1.0, 1.0, 0.0)

    def test_raw_step_normalization(self):
        r = RunRecord(
            eta1=6e-3, eta2=6e-3, a1=2000, a2=2000, a3=2000,
            S_steps=20000, token_length=2048, batch=2048, N=4.05, final_loss=2.0,
        )
        s = r.normalized_schedule()
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
            cfg = RunConfig(schedule=r.normalized_schedule(), N=r.N)
            pred = predict(law, cfg)["loss"]
            rels.append(abs(pred - r.final_loss) / r.final_loss)
        assert float(np.mean(rels)) <= 5e-3

    def test_divergent_rows_excluded(self):
        records = make_grid_records(**GRID)
        bad = RunRecord.from_billions(4.05, 10.0, 1.5e-2, 1.5e-2, 0.05, 0.05, 0.05,
                                      DIVERGED_LOSS, diverged=True)
        law_with = fit(records + [bad] * 5)
        law_without = fit(records)
        np.testing.assert_allclose(law_with.c, law_without.c, rtol=0, atol=1e-12)

    def test_all_divergent_is_error(self):
        bad = RunRecord.from_billions(4.05, 10.0, 1.5e-2, 1.5e-2, 0.05, 0.05, 0.05,
                                      DIVERGED_LOSS, diverged=True)
        with pytest.raises(LawFitError, match="no fittable rows"):
            fit([bad] * 20)

    def test_too_few_rows_is_error(self):
        records = make_grid_records(**GRID)[:16]
        with pytest.raises(LawFitError, match="at least 17"):
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
            feats.append(compute_features(s, default_markers(s), r.N).values)
            ys.append(math.log(r.final_loss))
        A = np.array(feats)
        y = np.array(ys)
        base = float(np.sum((A @ np.array(law.c) - y) ** 2))
        for i in range(16):
            for sign in (+1.0, -1.0):
                c = np.array(law.c)
                c[i] += sign * 1e-3
                assert float(np.sum((A @ c - y) ** 2)) >= base - 1e-12

    def test_refit_idempotence(self):
        rng = np.random.default_rng(41)
        noisy = make_grid_records(**GRID, noise_rel=1e-3, rng=rng)
        law1 = fit(noisy)
        regenerated = []
        for r in noisy:
            cfg = RunConfig(schedule=r.normalized_schedule(), N=r.N)
            loss = predict(law1, cfg)["loss"]
            regenerated.append(
                RunRecord.from_billions(r.N, r.S_steps / 1e9, r.eta1, r.eta2,
                                        r.a1 / 1e9, r.a2 / 1e9, r.a3 / 1e9, loss)
            )
        law2 = fit(regenerated)
        assert law2.residual_rms <= 1e-10


class TestPredict:
    def test_in_sample_consistency(self):
        records = make_grid_records(**GRID)
        law = fit(records)
        r = records[7]
        cfg = RunConfig(schedule=r.normalized_schedule(), N=r.N)
        assert predict(law, cfg)["log_loss"] == pytest.approx(
            math.log(r.final_loss), abs=1e-9
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
        ranked = rank(law, configs)
        assert [r.verdict for r in ranked] == ["ok"] * 3
        assert [r.index for r in ranked] == expected

    def test_singleton(self):
        law = reference_law()
        ranked = rank(law, [_config(0.4, 2.0, 10.0, 0.5)])
        assert len(ranked) == 1 and ranked[0].verdict == "ok"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank(reference_law(), [])

    def test_divergent_listed_last(self):
        law = reference_law()
        hot = _config(0.9, 0.05, 3.0, 4.05)  # high peak, tiny warmup
        cool = _config(0.1, 2.0, 10.0, 4.05)
        ranked = rank(law, [hot, cool])
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
        ranked = rank(law, configs)
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
        base = rank(law, configs)
        moved = rank(shifted, configs)
        assert all(r.verdict == "ok" for r in base)
        assert [r.index for r in base] == [r.index for r in moved]
        for rb, rm in zip(base, moved):
            assert rm.log_loss == pytest.approx(rb.log_loss + 0.3, rel=1e-12)


class TestContinual:
    def test_pre_zero_and_unit_peak_reduces_to_pretrain(self):
        # cooldown peak equal to 1 on [a_e2, S]: dividing by 1^4 is a no-op
        law = reference_law().as_continual()
        cfg = _config(1.0, 2.0, 10.0, 4.0)
        cont = continual_features(law, None, 0.0, cfg)
        pre = compute_features(cfg.schedule, default_markers(cfg.schedule), cfg.N)
        np.testing.assert_array_equal(cont.values, pre.values)

    def test_pre_zero_keeps_escape_rescaling(self):
        law = reference_law().as_continual()
        cfg = _config(0.5, 2.0, 10.0, 4.0)
        cont = continual_features(law, None, 0.0, cfg)
        pre = compute_features(cfg.schedule, default_markers(cfg.schedule), cfg.N)
        scale = 0.5 ** -4  # peak on the escape interval is 0.5
        assert cont.escape[0] == pytest.approx(pre.escape[0] * scale, rel=1e-12)
        assert cont.escape[2] == pytest.approx(pre.escape[2] * scale**0.25, rel=1e-12)
        assert cont.escape[1] == pre.escape[1]
        # warmup area untouched when pre_S = 0
        assert cont.convergence[0] == pre.convergence[0]

    def test_enlarged_warmup_only_when_unit_peak(self):
        law = reference_law().as_continual()
        cfg = _config(1.0, 2.0, 10.0, 4.0)
        pre_sched = build_general_schedule(1.0, 1.0, 5.0, 5.0, 5.0, 50.0)
        cont = continual_features(law, pre_sched, 50.0, cfg)
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
        got = continual_features(law, pre_sched, Sp, cfg)

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
        cfg = RunConfig(schedule=build_general_schedule(0.0, 0.0, 2.0, 2.0, 2.0, 10.0), N=4.0)
        with pytest.raises(FeatureError, match="positive peak rate"):
            continual_features(law, None, 0.0, cfg)

    def test_predict_in_continual_mode_requires_context(self):
        law = reference_law().as_continual()
        with pytest.raises(FeatureError, match="pre-training context"):
            predict(law, _config(0.4, 2.0, 10.0, 4.0))

    def test_features_for_uses_pre_context(self):
        law = reference_law().as_continual()
        pre = PretrainContext(build_general_schedule(0.5, 0.5, 1.0, 1.0, 1.0, 20.0))
        cfg = RunConfig(
            schedule=build_general_schedule(1.0, 1.0, 2.0, 2.0, 2.0, 10.0),
            N=4.0,
            pre=pre,
        )
        via_dispatch = features_for(law, cfg)
        direct = continual_features(law, pre.schedule, 20.0, cfg)
        assert via_dispatch.values == direct.values


class TestSimpleLaw:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            SimpleLaw(c1=0.0)
        with pytest.raises(ValueError):
            SimpleLaw(alpha2=-1.0)

    def test_eval_constant_phase_folds_into_cooldown(self):
        law = unit_simple_law()
        h, a, a_c, S = 0.5, 1.0, 8.0, 10.0
        s = warmup_const_cooldown_schedule(h, a, a_c, S)
        val = simple_law_eval(law, s)
        iw = a * h / 2
        it = h * (a_c - a) + h * (S - a_c) / 2
        expected = 1 / iw + 1 / it + 1 / S + h**2 / a + h**2 / (S - a_c)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_eval_rejects_zero_warmup(self):
        law = unit_simple_law()
        s = build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            simple_law_eval(law, s)

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
        law = unit_simple_law()
        gaps = [prop1_gap(law, 0.01, 0.85, 10.0**k) for k in range(2, 9)]
        assert all(g > 0 and math.isfinite(g) for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_cosine_worse_when_no_constant_phase(self):
        law = unit_simple_law()
        h, S = 0.5, 20.0
        a = 0.1 * S
        cos = warmup_cosine_schedule(h, a, S)
        con = warmup_const_cooldown_schedule(h, a, a, S)
        assert simple_law_eval(law, cos) > simple_law_eval(law, con)

    def test_gap_decreasing_on_geometric_grid(self):
        law = unit_simple_law()
        svals = [10.0**k for k in range(1, 8)]
        gaps = [prop1_gap(law, 0.01, 0.85, S) for S in svals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_invalid_ratios(self):
        law = unit_simple_law()
        with pytest.raises(ValueError):
            prop1_gap(law, 0.0, 0.5, 100.0)
        with pytest.raises(ValueError):
            prop1_gap(law, 0.6, 0.5, 100.0)
        with pytest.raises(ValueError):
            prop1_gap(law, 0.01, 1.0, 100.0)


class TestLawJson:
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
