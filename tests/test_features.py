import json
import re
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlaws.features import (
    DEFAULT_POWERS,
    MARKER_RULES,
    TERM_NAMES,
    FeatureError,
    FeatureVector,
    MarkerPolicy,
    Normalizer,
    checked_feature_matrix,
    collapsed_markers,
    compute_features,
    default_markers,
    feature_matrix,
    marker_policy,
    rule_bases,
    schedule_bases,
)
from optlaws.law import RunConfig, _config_bases, continual_features, reference_law
from optlaws.schedule import (
    Schedule,
    ScheduleError,
    ScheduleTable,
    Segment,
    build_general_schedule,
    warmup_const_cooldown_schedule,
)


def linear_family_expected(a, h, S, N, p=DEFAULT_POWERS):
    """Printed closed forms for linear warmup + linear cooldown, splits at a."""
    return [
        (a * h / 2) ** p[0],
        ((S - a) * h / 2) ** p[1],
        (2 * N / ((S - a) * h)) ** p[2],
        (a * (S - a) * h**2 / 4) ** p[3],
        (h**2 / (S - a)) ** p[4],
        (h**2 / a) ** p[5],
        (h**2 / (S - a)) ** p[6],
        (S * N) ** p[7],
        (2 * h / (a * (S - a))) ** p[8],
        (2 * h / (S - a) ** 2) ** p[9],
        (2 * h * N / (a * (S - a))) ** p[10],
        (2 * h * N / (S - a) ** 2) ** p[11],
        N ** p[12],
        S ** p[13],
        h ** p[14],
        1.0,
    ]


def const_family_expected(a1, a2, h, S, N, p=DEFAULT_POWERS):
    """Printed closed forms for warmup + constant + cooldown, splits at a1."""
    tail_area = (S + a2 - 2 * a1) * h / 2
    return [
        (a1 * h / 2) ** p[0],
        tail_area ** p[1],
        (2 * N / ((S + a2 - 2 * a1) * h)) ** p[2],
        (a1 * h / 2 * tail_area) ** p[3],
        (h**2 / (S - a2)) ** p[4],
        (h**2 / a1) ** p[5],
        (h**2 / (S - a2)) ** p[6],
        (S * N) ** p[7],
        (2 * h / (a1 * (S - a2))) ** p[8],
        (2 * h / ((S - a2) * (S + a2 - 2 * a1))) ** p[9],
        (2 * h * N / (a1 * (S - a2))) ** p[10],
        (2 * h * N / ((S - a2) * (S + a2 - 2 * a1))) ** p[11],
        N ** p[12],
        S ** p[13],
        h ** p[14],
        1.0,
    ]


class TestMarkerPolicies:
    def test_general_rule(self):
        s = build_general_schedule(0.5, 0.3, 2.0, 5.0, 8.0, 10.0)
        pol = default_markers(s)
        assert (pol.a_c1, pol.a_c2, pol.a_e1, pol.a_e2) == (2.0, 8.0, 5.0, 5.0)

    def test_all_markers_coincide(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        pol = default_markers(s)
        assert (pol.a_c1, pol.a_c2, pol.a_e1, pol.a_e2) == (2.0, 2.0, 2.0, 2.0)

    def test_const_with_cooldown_rule(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 8.0, 10.0)
        pol = default_markers(s)
        assert (pol.a_c1, pol.a_c2, pol.a_e1, pol.a_e2) == (2.0, 8.0, 2.0, 2.0)

    def test_collapsed_rule(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 8.0, 10.0)
        pol = collapsed_markers(s)
        assert (pol.a_c1, pol.a_c2, pol.a_e1, pol.a_e2) == (2.0, 2.0, 2.0, 2.0)

    def test_ordering_enforced(self):
        with pytest.raises(FeatureError):
            MarkerPolicy(3.0, 2.0, 1.0, 1.0)


class TestComputeFeatures:
    def test_linear_family_spot_values(self):
        a, h, S, N = 2.0, 0.4, 10.0, 4.0
        s = build_general_schedule(h, h, a, a, a, S)
        f = compute_features(s, default_markers(s), N)
        assert f.convergence[0] == pytest.approx(2.5, rel=1e-15)
        assert f.convergence[1] == pytest.approx(0.625, rel=1e-15)
        assert f.escape[0] == pytest.approx(0.02, rel=1e-15)

    def test_const_family_tail_area(self):
        a1, a2, h, S = 2.0, 8.0, 0.4, 10.0
        s = warmup_const_cooldown_schedule(h, a1, a2, S)
        f = compute_features(s, collapsed_markers(s), 4.0)
        assert f.convergence[1] == pytest.approx(1.0 / (0.4 * 14.0 / 2.0), rel=1e-15)

    def test_zero_powers_give_ones(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        f = compute_features(s, default_markers(s), 4.0, powers=[0.0] * 16)
        assert all(v == 1.0 for v in f.values)

    def test_linear_family_matches_printed_forms(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            S = float(rng.uniform(2.0, 100.0))
            a = float(rng.uniform(0.02, 0.8)) * S
            h = float(rng.uniform(0.05, 1.0))
            N = float(rng.uniform(0.05, 8.0))
            s = build_general_schedule(h, h, a, a, a, S)
            f = compute_features(s, default_markers(s), N)
            expected = linear_family_expected(a, h, S, N)
            np.testing.assert_allclose(f.values, expected, rtol=1e-12)

    def test_const_family_matches_printed_forms(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            S = float(rng.uniform(2.0, 100.0))
            a1 = float(rng.uniform(0.02, 0.4)) * S
            a2 = float(rng.uniform(a1 / S + 0.05, 0.9)) * S
            h = float(rng.uniform(0.05, 1.0))
            N = float(rng.uniform(0.05, 8.0))
            s = warmup_const_cooldown_schedule(h, a1, a2, S)
            f = compute_features(s, collapsed_markers(s), N)
            expected = const_family_expected(a1, a2, h, S, N)
            np.testing.assert_allclose(f.values, expected, rtol=1e-12)

    def test_representation_independence(self):
        # one linear cooldown vs two collinear halves: identical features
        h, S, N = 0.6, 10.0, 2.0
        one = build_general_schedule(h, h, 2.0, 2.0, 2.0, S)
        mid_t = 6.0
        mid_eta = one.value(mid_t)
        two = Schedule(
            (
                Segment("linear", 0.0, 2.0, 0.0, h),
                Segment("linear", 2.0, mid_t, h, mid_eta),
                Segment("linear", mid_t, S, mid_eta, 0.0),
            ),
            S,
            (2.0, 2.0, 2.0),
        )
        fa = compute_features(one, default_markers(one), N)
        fb = compute_features(two, default_markers(two), N)
        np.testing.assert_allclose(fa.values, fb.values, rtol=1e-12)

    def test_peak_rate_monotonicity(self):
        a, S, N = 2.0, 10.0, 4.0
        lo = build_general_schedule(0.3, 0.3, a, a, a, S)
        hi = build_general_schedule(0.6, 0.6, a, a, a, S)
        f_lo = compute_features(lo, default_markers(lo), N)
        f_hi = compute_features(hi, default_markers(hi), N)
        assert f_hi.convergence[0] < f_lo.convergence[0]
        assert f_hi.convergence[1] < f_lo.convergence[1]
        assert f_hi.escape[0] > f_lo.escape[0]

    def test_model_size_scaling(self):
        # doubling N touches exactly the N-bearing entries, each by 2^power
        a, h, S = 2.0, 0.4, 10.0
        s = build_general_schedule(h, h, a, a, a, S)
        pol = default_markers(s)
        f1 = np.array(compute_features(s, pol, 2.0).values)
        f2 = np.array(compute_features(s, pol, 4.0).values)
        n_bearing = {2: 0.25, 7: -0.25, 10: 0.15, 11: 0.15, 12: -0.25}
        for i in range(16):
            if i in n_bearing:
                assert f2[i] == pytest.approx(f1[i] * 2.0 ** n_bearing[i], rel=1e-14)
            else:
                assert f2[i] == f1[i]

    def test_zero_warmup_is_domain_error(self):
        s = build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 10.0)
        with pytest.raises(FeatureError, match="warmup_lr_area"):
            compute_features(s, default_markers(s), 4.0)

    def test_policy_beyond_horizon_rejected(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        with pytest.raises(FeatureError):
            compute_features(s, MarkerPolicy(2.0, 12.0, 2.0, 2.0), 4.0)


def four_phase_bases(eta1, eta2, a1, a2, a3, S, rule):
    """rule_bases of four-phase configurations given as columns."""
    return rule_bases(ScheduleTable.four_phase(eta1, eta2, a1, a2, a3, S), rule)


def random_four_phase_arrays(rng, n):
    """Four-phase configs as arrays, with every kind of zero-length phase."""
    S = rng.uniform(1.0, 60.0, n)
    a1, a2, a3 = np.sort(rng.uniform(0.0, 1.0, (3, n)), axis=0) * S
    kind = rng.integers(0, 6, n)
    a1 = np.where(kind == 1, 0.0, a1)  # no warmup
    a2 = np.where(kind == 2, a1, a2)  # no decay
    a3 = np.where(kind == 3, a2, a3)  # no plateau
    a3 = np.where(kind == 4, S, a3)  # no cooldown
    a1, a2, a3 = (np.where(kind == 5, S, x) for x in (a1, a2, a3))  # warmup only
    h1, h2 = rng.uniform(0.05, 1.0, (2, n))
    h2 = np.where(a2 > a1, h2, h1)  # no decay phase: no jump from h1 to h2 either
    return h1, h2, a1, a2, a3, S


class TestScheduleTable:
    @pytest.mark.parametrize("rule", sorted(MARKER_RULES))
    def test_batch_equals_scalar_bases_exactly(self, rule):
        rng = np.random.default_rng(31)
        cols = random_four_phase_arrays(rng, 3000)
        got = four_phase_bases(*cols, rule)
        for i, args in enumerate(zip(*(c.tolist() for c in cols))):
            s = build_general_schedule(*args)
            want = schedule_bases(s, marker_policy(rule, s))
            assert {k: got[k][i] for k in want} == want, (i, args)

    def test_invalid_config_raises_the_scalar_error(self):
        cols = [np.array([0.5, 0.5, 0.5]) for _ in range(2)] + [
            np.array([1.0, 1.0, 3.0]), np.array([2.0, 2.0, 2.0]),
            np.array([3.0, 3.0, 3.0]), np.array([10.0, 10.0, 10.0]),
        ]
        with pytest.raises(ScheduleError, match="markers must satisfy"):
            ScheduleTable.four_phase(*cols)
        cols[2] = np.array([1.0, 1.0, 1.0])
        cols[1] = np.array([0.5, -0.1, 0.5])
        with pytest.raises(ScheduleError, match="rates must be nonnegative"):
            ScheduleTable.four_phase(*cols)
        cols[1] = np.array([0.5, 0.5, 0.4])  # h1 -> h2 jump where the decay phase is empty
        cols[3] = cols[2]
        with pytest.raises(ScheduleError, match="eta discontinuous"):
            ScheduleTable.four_phase(*cols)

    @pytest.mark.parametrize("config", [
        (inf, inf, 1.0, 1.0, 1.0, 4.0),  # infinite peak
        (nan, nan, 1.0, 1.0, 1.0, 4.0),  # NaN peak
        (0.5, nan, 1.0, 2.0, 3.0, 4.0),  # NaN decay target
        (0.5, 0.5, 1.0, 1.0, 1.0, inf),  # infinite horizon
        (0.5, 0.5, 1.0, 2.0, inf, inf),  # infinite plateau
        (0.5, 0.5, 1.0, 1.0, 1.0, nan),  # NaN horizon
        (0.5, 0.5, nan, 1.0, 1.0, 4.0),  # NaN marker
        (inf, 0.5, 0.0, 0.0, 1.0, 4.0),  # the unused rate of empty phases: accepted
        (0.5, nan, 1.0, 4.0, 4.0, 4.0),  # likewise
    ])
    def test_non_finite_config_matches_the_scalar_builder(self, config):
        cols = [np.array([0.5, x, 0.5]) for x in config[:2]] + [
            np.array([1.0, x, 1.0]) for x in config[2:5]] + [np.array([4.0, config[5], 4.0])]
        try:
            want = build_general_schedule(*config)
        except ScheduleError as err:
            with pytest.raises(ScheduleError, match=f"^{re.escape(str(err))}$"):
                ScheduleTable.four_phase(*cols)
            return
        batch = ScheduleTable.four_phase(*cols)
        assert batch.eta_max[1] == want.eta_max
        for functional in ("eta", "deta_sq"):
            assert batch.integral(0.0, batch.S, functional)[1] == want.integral(0.0, want.S, functional)


class TestFeatureMatrix:
    def test_linear_family_rows_match_printed_forms(self):
        rng = np.random.default_rng(37)
        S = rng.uniform(2.0, 100.0, 50)
        a = rng.uniform(0.02, 0.8, 50) * S
        h = rng.uniform(0.05, 1.0, 50)
        N = rng.uniform(0.05, 8.0, 50)
        F, ok = feature_matrix(four_phase_bases(h, h, a, a, a, S, "a1/a3/a2"), S, N)
        assert F.shape == (50, 16) and ok.all()
        expected = [linear_family_expected(*args) for args in zip(a, h, S, N)]
        np.testing.assert_allclose(F, expected, rtol=1e-12)

    def test_const_family_rows_match_printed_forms(self):
        rng = np.random.default_rng(41)
        S = rng.uniform(2.0, 100.0, 50)
        a1 = rng.uniform(0.02, 0.4, 50) * S
        a2 = rng.uniform(a1 / S + 0.05, 0.9) * S
        h = rng.uniform(0.05, 1.0, 50)
        N = rng.uniform(0.05, 8.0, 50)
        bases = four_phase_bases(h, h, a1, a1, a2, S, "all-a1")
        F, ok = feature_matrix(bases, S, N)
        assert ok.all()
        expected = [const_family_expected(*args) for args in zip(a1, a2, h, S, N)]
        np.testing.assert_allclose(F, expected, rtol=1e-12)

    def test_rows_equal_the_single_config_path(self):
        rng = np.random.default_rng(43)
        cols = random_four_phase_arrays(rng, 200)
        inside = (cols[2] > 0) & (cols[4] < cols[5])  # warmup and cooldown keep rows in domain
        ok_cols = [c[inside] for c in cols]
        N = rng.uniform(0.05, 8.0, len(ok_cols[0]))
        F, ok = feature_matrix(four_phase_bases(*ok_cols, "a1/a3/a2"), ok_cols[5], N)
        assert ok.all()
        for row, args, n in zip(F, zip(*(c.tolist() for c in ok_cols)), N):
            s = build_general_schedule(*args)
            assert tuple(row) == compute_features(s, default_markers(s), n).values

    def test_mask_marks_rows_outside_the_domain(self):
        h = np.array([0.4, 0.4, 0.4])
        a = np.array([2.0, 0.0, 3.0])
        S = np.array([10.0, 10.0, 10.0])
        F, ok = feature_matrix(four_phase_bases(h, h, a, a, a, S, "a1/a3/a2"), S, 4.0)
        assert ok.tolist() == [True, False, True]
        assert np.isfinite(F[ok]).all()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(0.0, 1e6),
                st.floats(0.0, 1e6), st.floats(0.0, 1e3), st.floats(1e-3, 1e3),
                st.floats(1e-3, 1e3),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_rows_on_the_domain_are_finite_nonnegative(self, rows):
        iw, it, ew, et, h, S, N = (np.array(c) for c in zip(*rows))
        bases = {"warmup_area": iw, "tail_area": it, "warmup_energy": ew,
                 "tail_energy": et, "eta_max": h}
        F, ok = feature_matrix(bases, S, N)
        assert F.shape == (len(rows), 16)
        assert ok.all()
        assert np.isfinite(F).all() and (F >= 0.0).all()
        assert (F[:, 15] == 1.0).all()


def _alone(s, N=4.0, powers=None):
    """Bases, S and N of one config under the standard split, and the call
    that prices it alone."""
    row = {**schedule_bases(s, default_markers(s)), "S": s.S, "N": N}
    return row, lambda: compute_features(s, default_markers(s), N, powers)


def _raw_alone(row, powers=None):
    """A bases row no schedule gives, priced alone by the checked map."""
    return row, lambda: checked_feature_matrix(
        {k: row[k] for k in row if k not in ("S", "N")}, row["S"], row["N"], powers)


_GOOD = [build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0),
         build_general_schedule(0.7, 0.3, 1.0, 4.0, 6.0, 12.0),
         build_general_schedule(0.2, 0.2, 3.0, 3.0, 3.0, 20.0)]
_ZERO_WARMUP = build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 10.0)
_NEGATIVE = {**_alone(_GOOD[0])[0], "warmup_energy": -1.0}
_ABS_POWERS = tuple(abs(p) for p in DEFAULT_POWERS)

# kind -> (the first bad row and its call alone, powers, a later bad row with
# another message, the message)
_FIRST_BAD = {
    "negative base": (
        _raw_alone(_NEGATIVE), None, _alone(_ZERO_WARMUP)[0],
        "negative base for term 'warmup_slope_energy': -1.0"),
    "zero base with a negative power": (
        _alone(_ZERO_WARMUP), None, _NEGATIVE,
        "zero base with negative power for term 'warmup_lr_area'"),
    "zero denominator under custom powers": (
        _alone(_ZERO_WARMUP, powers=_ABS_POWERS), _ABS_POWERS, _NEGATIVE,
        "zero or negative denominator for term 'tail_slope_energy_per_warmup_lr_area': 0.0"),
    "non-finite entry": (  # N over a tail area below 1 overflows
        _alone(build_general_schedule(0.1, 0.1, 2.0, 2.0, 2.0, 10.0), N=1e308), None,
        _alone(_ZERO_WARMUP)[0],
        "feature entry 'model_per_tail_lr_area' is not finite nonnegative: inf"),
}


class TestCheckedFeatureMatrix:
    """A batch's first row outside the domain raises the error that row
    raises alone, wherever it sits and whatever bad rows follow it."""

    @staticmethod
    def batch(rows):
        cols = {k: np.array([r[k] for r in rows]) for k in rows[0]}
        return cols, cols.pop("S"), cols.pop("N")

    def test_rows_in_the_domain_are_the_feature_matrix(self):
        bases, S, N = self.batch([_alone(s)[0] for s in _GOOD])
        F, ok = feature_matrix(bases, S, N)
        assert ok.all() and np.array_equal(checked_feature_matrix(bases, S, N), F)

    @pytest.mark.parametrize("kind", sorted(_FIRST_BAD))
    def test_first_bad_row_mid_batch(self, kind):
        (bad, alone), powers, later, message = _FIRST_BAD[kind]
        with pytest.raises(FeatureError) as want:
            alone()
        assert str(want.value) == message
        good = [_alone(s)[0] for s in _GOOD]
        bases, S, N = self.batch(good[:2] + [bad, good[2], later])
        with pytest.raises(FeatureError, match=f"^{re.escape(message)}$"):
            checked_feature_matrix(bases, S, N, powers)

    def test_bad_row_with_no_failing_term_is_named_by_index(self):
        # a NaN base under a zero power gives the term 1.0: no term and no
        # entry is at fault, but the row is still outside the domain
        nan_row = {**_alone(_GOOD[0])[0], "tail_energy": nan}
        bases, S, N = self.batch([_alone(_GOOD[1])[0], nan_row, _alone(_ZERO_WARMUP)[0]])
        with pytest.raises(FeatureError,
                           match="^configuration 1 is outside the feature map's domain$"):
            checked_feature_matrix(bases, S, N, (0.0,) * 16)

    def test_first_refused_continual_row_mid_batch(self):
        law = reference_law().as_continual()
        zero_tail = build_general_schedule(0.0, 0.0, 2.0, 2.0, 2.0, 10.0)  # no peak past a_e2
        with pytest.raises(FeatureError) as want:
            continual_features(law, RunConfig(zero_tail, 4.0, 0.0))
        assert str(want.value) == "continual rescaling needs a positive peak rate on [2.0, 10.0]"
        # bad rows after it: a zero warmup (no pre-training area lifts it)
        # and a refused row with other markers
        later_tail = build_general_schedule(0.0, 0.0, 3.0, 3.0, 3.0, 12.0)
        rows = [*_GOOD[:2], zero_tail, _GOOD[2], _ZERO_WARMUP, later_tail]
        N = np.full(len(rows), 4.0)
        bases, S, N, refused = _config_bases(
            law, ScheduleTable.from_schedules(rows), N, np.zeros(len(rows)))
        assert sorted(refused) == [2, 5]
        with pytest.raises(FeatureError, match=f"^{re.escape(str(want.value))}$"):
            checked_feature_matrix(bases, S, N, law.powers, refused)


class TestFeatureVector:
    def test_blocks_and_serialization(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        f = compute_features(s, default_markers(s), 4.0)
        assert len(f.convergence) == len(f.escape) == len(f.mixed) == len(f.bias) == 4
        assert f.bias[3] == 1.0
        recs = f.as_records()
        assert [r["name"] for r in recs] == list(TERM_NAMES)
        assert [r["power"] for r in recs] == list(DEFAULT_POWERS)
        json.dumps(recs)  # JSON-ready

    def test_term_names_are_unique(self):
        assert len(TERM_NAMES) == len(set(TERM_NAMES)) == 16
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        names = [r["name"] for r in compute_features(s, default_markers(s), 4.0).as_records()]
        assert len(set(names)) == 16

    def test_rejects_nonfinite(self):
        with pytest.raises(FeatureError):
            FeatureVector((float("nan"),) + (1.0,) * 15)

    def test_rejects_bad_bias(self):
        with pytest.raises(FeatureError):
            FeatureVector((1.0,) * 15 + (2.0,))


class TestNormalizer:
    def test_lr_normalization(self):
        n = Normalizer()
        assert n.normalize_lr(6e-3) == pytest.approx(0.4, rel=1e-15)

    def test_token_conversion(self):
        # steps x token length x batch / 1e9
        assert Normalizer.tokens_billions(2000, 2048, 2048) == pytest.approx(8.388608, rel=1e-15)
