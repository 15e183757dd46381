import json

import numpy as np
import pytest

from optlaws.features import (
    DEFAULT_POWERS,
    TERM_NAMES,
    FeatureError,
    FeatureVector,
    MarkerPolicy,
    Normalizer,
    collapsed_markers,
    compute_features,
    default_markers,
)
from optlaws.schedule import (
    Schedule,
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

    def test_horizon_mismatch_rejected(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        with pytest.raises(FeatureError):
            compute_features(s, default_markers(s), 4.0, S=12.0)


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
