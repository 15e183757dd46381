import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlaws.divergence import (
    DEFAULT_PARAMS,
    DivergenceParams,
    criterion_R,
    critical_rate,
    divergence_ratio,
    gated_criterion,
)
from optlaws.features import Normalizer


def oracle_R(eta_max, a1, N, S, p=DEFAULT_PARAMS):
    """Straight-line rewrite of the criterion, kept independent on purpose."""
    s = S**2
    a = a1**2
    threshold = (p.c1_hat / p.c2_hat) * s**p.alpha1_hat * N ** (-p.alpha2_hat)
    eta_l = eta_max if eta_max < threshold else threshold
    return s * (eta_max - eta_l) ** 2 / (p.c3_hat * a * eta_l**2), eta_l


class TestParams:
    def test_defaults(self):
        p = DEFAULT_PARAMS
        assert (p.c1_hat, p.c2_hat, p.c3_hat) == (1.76, 33.21, 292.03)
        assert (p.alpha1_hat, p.alpha2_hat) == (0.218, 0.5)

    def test_positivity(self):
        with pytest.raises(ValueError):
            DivergenceParams(c3_hat=0.0)
        with pytest.raises(ValueError):
            DivergenceParams(alpha1_hat=-0.1)
        for bad in (float("nan"), float("inf"), "1.0"):
            with pytest.raises(ValueError):
                DivergenceParams(c1_hat=bad)

    def test_override(self):
        p = DivergenceParams(c1_hat=2.0)
        assert criterion_R(0.4, 8.39, 4.05, 100.0, p).eta_L != criterion_R(
            0.4, 8.39, 4.05, 100.0
        ).eta_L


class TestCriterion:
    def test_zero_numerator_when_peak_below_threshold(self):
        # threshold at N=4.05, S=100 is ~0.196; anything below it is exact zero
        res = criterion_R(0.1, 8.39, 4.05, 100.0)
        assert res.R == 0.0
        assert res.eta_L == 0.1
        assert res.verdict == "stable"

    def test_hand_evaluated_case(self):
        res = criterion_R(0.4, 8.39, 4.05, 100.0)
        r_expected, eta_l_expected = oracle_R(0.4, 8.39, 4.05, 100.0)
        assert res.eta_L == pytest.approx(eta_l_expected, rel=1e-12)
        assert res.R == pytest.approx(r_expected, rel=1e-12)
        assert res.verdict == "stable"
        assert 0.4 < res.R < 0.7  # comfortably stable but not trivially so

    def test_warmup_shrink_scales_ratio(self):
        base = criterion_R(0.4, 8.39, 4.05, 100.0)
        # shrinking the squared warmup a hundredfold (pre-squaring: 10x)
        # scales R by exactly 100 and flips the verdict past R = 1
        shrunk = criterion_R(0.4, 0.839, 4.05, 100.0)
        assert shrunk.R == pytest.approx(100.0 * base.R, rel=1e-12)
        assert shrunk.verdict == "diverge"

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            eta = float(rng.uniform(0.01, 1.0))
            a1 = float(rng.uniform(0.05, 50.0))
            n = float(rng.uniform(0.02, 10.0))
            s = float(rng.uniform(1.0, 500.0))
            res = criterion_R(eta, a1, n, s)
            assert gated_criterion(eta, a1, n, s) == res
            r_exp, eta_l_exp = oracle_R(eta, a1, n, s)
            assert res.R == pytest.approx(r_exp, rel=1e-12, abs=1e-300)
            assert res.eta_L == pytest.approx(eta_l_exp, rel=1e-12)
            assert res.verdict == ("diverge" if r_exp > 1.0 else "stable")

    def test_exactly_one_is_stable(self):
        # power-of-two parameters make every step exact: threshold = 0.25,
        # excess = 0.5, R = 1*(0.5)^2 / (4*1*(0.25)^2) = 1.0 bit-exactly
        p = DivergenceParams(c1_hat=1.0, c2_hat=4.0, c3_hat=4.0,
                             alpha1_hat=0.218, alpha2_hat=0.5)
        res = criterion_R(0.75, 1.0, 1.0, 1.0, p)
        assert res.R == 1.0
        assert res.verdict == "stable"
        # one ulp past the boundary flips it
        res_hot = criterion_R(math.nextafter(0.75, 2.0), 1.0, 1.0, 1.0, p)
        assert res_hot.verdict == "diverge"

    def test_invalid_inputs(self):
        nan, inf = float("nan"), float("inf")
        for bad in [(0.0, 1, 1, 1), (0.4, 0, 1, 1), (0.4, 1, 0, 1), (0.4, 1, 1, 0),
                    (nan, 1, 1, 1), (inf, 1, 1, 1), (0.4, nan, 1, 1), (0.4, 1, inf, 1),
                    (0.4, 1, 1, nan), (0.4, -1, 1, 1), (0.4, 1e-200, 1, 1),
                    (0.4, 1, 4, 1e200)]:
            with pytest.raises(ValueError):
                criterion_R(*bad)
            if bad[1] != 0:  # a zero warmup is the gate's own case
                with pytest.raises(ValueError):
                    gated_criterion(*bad)
        for N, S in [(nan, 1.0), (1.0, inf), (4.0, 1e200)]:
            with pytest.raises(ValueError):
                critical_rate(N, S)
        with pytest.raises(ValueError):  # S^2 overflows on the zero-warmup branch too
            gated_criterion(0.4, 0.0, 4.0, 1e200)
        # N^alpha2 underflows to 0; (S^2)^alpha1 overflows
        for N, S, params in [(1e-3, 10.0, DivergenceParams(alpha2_hat=200.0)),
                             (4.0, 1e100, DivergenceParams(alpha1_hat=5.0))]:
            with pytest.raises(ValueError):
                critical_rate(N, S, params)
            for warmup in (1.0, 0.0):
                with pytest.raises(ValueError):
                    gated_criterion(0.4, warmup, N, S, params)
            with pytest.raises(ValueError):
                criterion_R(0.4, 1.0, N, S, params)


class TestRatioUnderflow:
    """c3 * a1^2 * eta_L^2 underflowing to 0 is an error, never 0/0 or x/0."""

    def test_scalar_denominator(self):
        for args in [(1e-170, 1.0, 1e4, 1e-170), (1e-100, 1e-200, 1e4, 1e-100)]:
            with pytest.raises(ValueError, match="underflows to 0"):
                divergence_ratio(*args)
            with pytest.raises(ValueError, match="underflows to 0"):  # numpy scalars too
                divergence_ratio(*map(np.float64, args))
        with pytest.raises(ValueError, match="underflows to 0"):
            criterion_R(1e-170, 1.0, 4.0, 100.0)
        with pytest.raises(ValueError, match="underflows to 0"):
            gated_criterion(np.float64(1e-100), np.float64(1e-100), 4.0, 100.0)

    def test_array_names_first_zero_cell(self):
        h = np.array([0.4, 1e-170, 1e-171])
        a = np.array([[1.0], [4.0]])
        with pytest.raises(ValueError, match=r"eta_L=1e-170, a1\^2=1"):
            divergence_ratio(h, a, 1e4, h)
        ok = np.array([0.4, 0.2])
        np.testing.assert_array_equal(divergence_ratio(ok, 1.0, 1e4, ok), [0.0, 0.0])


class TestMonotonicity:
    def test_r_monotone_in_warmup_and_peak(self):
        n, s = 4.05, 100.0
        etas = np.linspace(0.05, 1.0, 50)
        warms = np.linspace(0.2, 40.0, 50)
        grid = np.array([[criterion_R(e, a, n, s).R for e in etas] for a in warms])
        # non-decreasing along eta (columns), non-increasing along a1 (rows)
        assert np.all(np.diff(grid, axis=1) >= -1e-15)
        assert np.all(np.diff(grid, axis=0) <= 1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=2),
        st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
        st.floats(1e-2, 1e2),
        st.floats(1.0, 1e4),
    )
    def test_r_monotone_property(self, peaks, warms, n, s):
        lo_h, hi_h = sorted(peaks)
        lo_a, hi_a = sorted(warms)
        # non-decreasing in the peak rate at either warmup
        for a in (lo_a, hi_a):
            assert criterion_R(hi_h, a, n, s).R >= criterion_R(lo_h, a, n, s).R
        # non-increasing in the warmup at either peak rate
        for h in (lo_h, hi_h):
            assert criterion_R(h, hi_a, n, s).R <= criterion_R(h, lo_a, n, s).R

    def test_r_continuous_at_threshold(self):
        n, s = 4.05, 100.0
        eta_l = critical_rate(n, s)
        just_above = criterion_R(eta_l * (1.0 + 1e-9), 5.0, n, s)
        assert just_above.R < 1e-12

    def test_eta_l_monotone_in_model_and_data(self):
        svals = np.linspace(5.0, 500.0, 20)
        etas = [critical_rate(4.05, s) for s in svals]
        assert all(b >= a for a, b in zip(etas, etas[1:]))
        nvals = np.linspace(0.05, 10.0, 20)
        etas = [critical_rate(n, 100.0) for n in nvals]
        assert all(b <= a for a, b in zip(etas, etas[1:]))


class TestScaleConsistency:
    def test_raw_lr_after_normalizer_equals_prenormalized(self):
        norm = Normalizer()
        raw_lr = 6e-3
        direct = criterion_R(0.4, 8.39, 4.05, 100.0)
        via_norm = criterion_R(norm.normalize_lr(raw_lr), 8.39, 4.05, 100.0)
        assert via_norm == direct
