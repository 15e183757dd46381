import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlaws.numerics import adaptive_simpson
from optlaws.schedule import (
    FUNCTIONALS,
    SEGMENT_KINDS,
    Schedule,
    ScheduleError,
    ScheduleTable,
    Segment,
    build_general_schedule,
    warmup_cosine_schedule,
    warmup_const_cooldown_schedule,
)
from util import quad_oracle, random_schedule


class TestConstruction:
    def test_four_phase_segments(self):
        s = build_general_schedule(0.5, 0.25, 1.0, 2.0, 3.0, 5.0)
        assert [seg.kind for seg in s.segments] == ["linear", "linear", "constant", "linear"]
        assert s.markers == (1.0, 2.0, 3.0)

    def test_degenerate_phases_dropped(self):
        s = build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 10.0)
        assert len(s.segments) == 1
        assert s.segments[0].kind == "linear"
        assert s.value(0.0) == 0.4 and s.value(10.0) == 0.0

    def test_table_row_one_shape(self):
        # linear warmup to h over a, linear cooldown to 0 over S - a
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        assert len(s.segments) == 2
        assert s.value(2.0) == 0.4 and s.value(10.0) == 0.0

    def test_const_then_cooldown_shape(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 8.0, 10.0)
        kinds = [seg.kind for seg in s.segments]
        assert kinds == ["linear", "constant", "linear"]
        assert s.value(5.0) == 0.4

    def test_marker_ordering_rejected(self):
        with pytest.raises(ScheduleError):
            build_general_schedule(0.4, 0.4, 3.0, 2.0, 8.0, 10.0)
        with pytest.raises(ScheduleError):
            build_general_schedule(0.4, 0.4, 2.0, 2.0, 11.0, 10.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ScheduleError):
            build_general_schedule(-0.1, 0.4, 1.0, 2.0, 3.0, 10.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ScheduleError):
            build_general_schedule(0.4, 0.4, 0.0, 0.0, 0.0, 0.0)

    def test_discontinuity_rejected(self):
        # empty decay phase with eta1 != eta2 would jump at a1
        with pytest.raises(ScheduleError):
            build_general_schedule(0.4, 0.2, 2.0, 2.0, 8.0, 10.0)
        with pytest.raises(ScheduleError):
            Schedule(
                (
                    Segment("linear", 0.0, 1.0, 0.0, 0.5),
                    Segment("linear", 1.0, 2.0, 0.4, 0.0),
                ),
                2.0,
                (1.0, 1.0, 1.0),
            )

    def test_gap_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(
                (
                    Segment("linear", 0.0, 1.0, 0.0, 0.5),
                    Segment("linear", 1.5, 2.0, 0.5, 0.0),
                ),
                2.0,
                (1.0, 1.0, 1.0),
            )

    @pytest.mark.parametrize("field", ["t0", "t1", "eta0", "eta1"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_segment_rejected(self, field, bad):
        args = {"t0": 0.0, "t1": 1.0, "eta0": 0.2, "eta1": 0.3, field: bad}
        with pytest.raises(ScheduleError, match="segment times and rates must be finite"):
            Segment("linear", **args)

    def test_constant_segment_requires_equal_rates(self):
        with pytest.raises(ScheduleError):
            Segment("constant", 0.0, 1.0, 0.2, 0.3)


class TestEval:
    def test_linear_midpoint(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        assert s.value(1.0) == pytest.approx(0.2, abs=0.0)

    def test_linear_slope(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        assert s.derivative(1.0) == pytest.approx(0.2, abs=1e-16)

    def test_cosine_midpoint(self):
        s = warmup_cosine_schedule(0.4, 2.0, 10.0)
        assert s.value(6.0) == pytest.approx(0.2, abs=1e-15)

    def test_out_of_domain(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        with pytest.raises(ScheduleError):
            s.value(-0.1)
        with pytest.raises(ScheduleError):
            s.value(10.5)

    def test_derivative_right_limit_at_joint(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        # at the warmup/cooldown joint the right-hand slope applies
        assert s.derivative(2.0) == pytest.approx(-0.05, abs=1e-16)
        # at S the last segment's value keeps the function total
        assert s.derivative(10.0) == pytest.approx(-0.05, abs=1e-16)

    def test_derivative_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_schedule(rng)
            joints = {seg.t0 for seg in s.segments} | {s.S}
            for _ in range(20):
                t = float(rng.uniform(0.0, s.S))
                if min(abs(t - j) for j in joints) < 1e-3 * s.S:
                    continue
                h = 1e-6 * s.S
                fd = (s.value(t + h) - s.value(t - h)) / (2.0 * h)
                assert s.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("seg", [
        Segment("linear", 0.5, 2.5, 0.1, 0.9),
        Segment("constant", 1.0, 3.0, 0.4, 0.4),
        Segment("cosine", 0.8, 6.0, 0.7, 0.05),
    ])
    def test_segment_closed_forms_on_arrays(self, seg):
        # one array call equals the scalar calls element by element, so the
        # covariance routes can evaluate all quadrature nodes at once
        ts = np.linspace(seg.t0, seg.t1, 257)
        values = seg.value(ts)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        np.testing.assert_array_equal(values, [seg.value(float(t)) for t in ts])
        assert seg.value(ts.reshape(1, -1, 1)).shape == (1, ts.size, 1)
        # the scalar path still returns a plain float
        assert not isinstance(seg.value(float(ts[100])), np.ndarray)
        assert seg.value(float(ts[100])) == values[100]
        for functional in ("eta", "deta_sq"):
            np.testing.assert_array_equal(
                seg.integral(seg.t0, ts, functional),
                [seg.integral(seg.t0, float(t), functional) for t in ts],
            )

    @pytest.mark.parametrize("schedule", [
        build_general_schedule(0.9, 0.3, 0.5, 2.25, 4.0, 6.0),
        warmup_cosine_schedule(0.7, 0.75, 6.0),
    ])
    def test_schedule_value_on_arrays(self, schedule):
        # step times that land on every joint read the right-hand segment,
        # as the scalar lookup does
        ts = np.minimum(np.arange(30) * 0.25, schedule.S)
        assert {seg.t0 for seg in schedule.segments} <= set(ts.tolist())
        values = schedule.value(ts)
        assert values.tolist() == [schedule.value(float(t)) for t in ts]
        assert schedule.value(ts.reshape(5, 6)).tolist() == values.reshape(5, 6).tolist()
        for bad in (np.array([-0.1, 1.0]), np.array([1.0, schedule.S + 0.1]),
                    np.array([float("nan")])):
            with pytest.raises(ScheduleError):
                schedule.value(bad)

    def test_eta_max(self):
        s = build_general_schedule(0.7, 0.3, 1.0, 2.0, 3.0, 4.0)
        assert s.eta_max == 0.7
        assert s.max_rate(2.5, 4.0) == 0.3


class TestIntegrals:
    def test_warmup_area(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        assert s.integral(0.0, 2.0, "eta") == pytest.approx(0.4, abs=1e-15)  # a h / 2

    def test_warmup_slope_energy(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        assert s.integral(0.0, 2.0, "deta_sq") == pytest.approx(0.08, rel=1e-15)  # h^2 / a

    def test_cosine_cooldown_energy(self):
        s = warmup_cosine_schedule(0.4, 2.0, 10.0)
        exact = s.integral(2.0, 10.0, "deta_sq")
        assert exact == pytest.approx(math.pi**2 * 0.16 / 64.0, rel=1e-14)
        assert exact == pytest.approx(quad_oracle(s, 2.0, 10.0, "deta_sq"), rel=1e-12)

    def test_bad_bounds(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        with pytest.raises(ScheduleError):
            s.integral(3.0, 2.0, "eta")
        with pytest.raises(ScheduleError):
            s.integral(0.0, 11.0, "eta")
        with pytest.raises(ScheduleError):
            s.integral(0.0, 1.0, "eta_cubed")

    @pytest.mark.parametrize("u, v", [(2.0, 3.0), (2.0, 2.0)], ids=["interval", "empty"])
    def test_unknown_functional_refused(self, u, v):
        # on an empty interval no piece checked the name, and the call returned 0.0
        s = build_general_schedule(0.8, 0.5, 1, 3, 6, 10)
        with pytest.raises(ScheduleError, match="^unknown functional 'bogus'$"):
            s.integral(u, v, "bogus")
        with pytest.raises(ScheduleError, match="not 'bogus'$"):
            ScheduleTable.from_schedules([s]).integral(u, v, "bogus")

    def test_additivity(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            s = random_schedule(rng)
            for _ in range(10):
                u, w = np.sort(rng.uniform(0.0, s.S, size=2))
                v = float(rng.uniform(u, w))
                for functional in FUNCTIONALS:
                    whole = s.integral(u, w, functional)
                    split = s.integral(u, v, functional) + s.integral(v, w, functional)
                    assert split == pytest.approx(whole, rel=1e-12, abs=1e-14)
                checked += 1

    def test_analytic_matches_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            s = random_schedule(rng)
            u, v = np.sort(rng.uniform(0.0, s.S, size=2))
            for functional in FUNCTIONALS:
                exact = s.integral(u, v, functional)
                approx = quad_oracle(s, u, v, functional)
                assert exact == pytest.approx(approx, rel=1e-9, abs=1e-12)

    def test_rate_scaling(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = random_schedule(rng)
            k = float(rng.uniform(0.5, 3.0))
            sk = s.scaled(k)
            u, v = np.sort(rng.uniform(0.0, s.S, size=2))
            assert sk.integral(u, v, "eta") == pytest.approx(
                k * s.integral(u, v, "eta"), rel=1e-12
            )
            for functional in ("eta_sq", "deta_sq"):
                assert sk.integral(u, v, functional) == pytest.approx(
                    k * k * s.integral(u, v, functional), rel=1e-12
                )

    def test_cosine_vs_linear_cooldown(self):
        # same span, same peak: equal areas, slope-energy ratio pi^2/8
        h, a, S = 0.4, 2.0, 10.0
        cos = warmup_cosine_schedule(h, a, S)
        lin = build_general_schedule(h, h, a, a, a, S)
        assert cos.integral(a, S, "eta") == pytest.approx(
            lin.integral(a, S, "eta"), rel=1e-14
        )
        assert cos.integral(a, S, "eta") == pytest.approx(h * (S - a) / 2.0, rel=1e-14)
        ratio = cos.integral(a, S, "deta_sq") / lin.integral(a, S, "deta_sq")
        assert ratio == pytest.approx(math.pi**2 / 8.0, rel=1e-14)

    def test_const_cooldown_tail_area(self):
        h, a, a_c, S = 0.4, 2.0, 8.0, 10.0
        s = warmup_const_cooldown_schedule(h, a, a_c, S)
        assert s.integral(a, S, "eta") == pytest.approx(
            h * (a_c - a) + h * (S - a_c) / 2.0, rel=1e-14
        )


def _closed_linear_integral(e0, e1, t0, t1, u, v, functional):
    """The linear closed form of eta or eta^2 through the slope, the only
    form used before steep slopes were handled."""
    m = (e1 - e0) / (t1 - t0)
    tu, tv = u - t0, v - t0
    if functional == "eta":
        return (e0 * tv + 0.5 * m * tv * tv) - (e0 * tu + 0.5 * m * tu * tu)
    return (e0 * e0 * tv + e0 * m * tv * tv + m * m * tv ** 3 / 3.0) - (
        e0 * e0 * tu + e0 * m * tu * tu + m * m * tu ** 3 / 3.0
    )


class TestSteepLinear:
    """A linear piece whose slope overflows still has its finite integrals."""

    STEEP = build_general_schedule(1e200, 1e200, 1e-300, 1e-300, 1e-300, 10.0)

    def test_overflowing_warmup_slope_has_its_area(self):
        s = self.STEEP
        assert s.segments[0].slope == math.inf
        assert s.integral(0.0, 1e-300, "eta") == 5e-101  # h * a1 / 2
        assert s.integral(0.0, 1e-300, "eta_sq") == pytest.approx(1e100 / 3.0, rel=1e-15)
        half = s.segments[0].integral(0.0, np.array([0.0, 5e-301, 1e-300]), "eta")
        assert half.tolist() == [0.0, 1.25e-101, 5e-101]

    def test_table_route_agrees(self):
        calm = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        v = np.array([1e-300, 2.0])
        want = [self.STEEP.integral(0.0, 1e-300, "eta"), calm.integral(0.0, 2.0, "eta")]
        assert want[0] == 5e-101
        tables = (ScheduleTable.from_schedules([self.STEEP, calm]),
                  ScheduleTable.four_phase([1e200, 0.4], [1e200, 0.4], [1e-300, 2.0],
                                           [1e-300, 2.0], [1e-300, 2.0], 10.0))
        for table in tables:
            assert table.integral(0.0, v, "eta").tolist() == want

    def test_finite_slopes_keep_the_closed_form_bits(self):
        rng = np.random.default_rng(19)
        n = 1000
        e0, e1 = rng.uniform(0.0, 1.0, (2, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
        t0 = rng.uniform(0.0, 50.0, n)
        t1 = t0 + 10.0 ** rng.uniform(-4.0, 2.0, n)
        u, v = np.sort(rng.uniform(t0, t1, (2, n)), axis=0)
        for functional in ("eta", "eta_sq"):
            want = [_closed_linear_integral(*row, functional)
                    for row in zip(e0.tolist(), e1.tolist(), t0.tolist(), t1.tolist(),
                                   u.tolist(), v.tolist())]
            got = [Segment("linear", a, b, c, d).integral(x, y, functional)
                   for a, b, c, d, x, y in zip(t0.tolist(), t1.tolist(), e0.tolist(),
                                               e1.tolist(), u.tolist(), v.tolist())]
            assert got == want
        col = lambda x: x[:, None]
        table = ScheduleTable(np.zeros((n, 1), dtype=int), col(t0), col(t1), col(e0), col(e1),
                              t1, (t0, t0, t0))
        assert table.integral(u, v, "eta").tolist() == _closed_linear_integral(
            e0, e1, t0, t1, u, v, "eta").tolist()


@st.composite
def schedules(draw):
    """A schedule of one to five segments of any kind, with any markers."""
    S = draw(st.floats(1.0, 60.0))
    n = draw(st.integers(1, 5))
    # joints on a grid of S/100, so every segment has positive length
    cuts = sorted(draw(st.lists(st.integers(1, 99), min_size=n - 1, max_size=n - 1,
                                unique=True)))
    times = [0.0, *(k * S / 100.0 for k in cuts), S]
    rate = draw(st.floats(0.0, 1.0))
    segs = []
    for t0, t1 in zip(times, times[1:]):
        kind = draw(st.sampled_from(SEGMENT_KINDS))
        end = rate if kind == "constant" else draw(st.floats(0.0, 1.0))
        segs.append(Segment(kind, t0, t1, rate, end))
        rate = end
    markers = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    return Schedule(tuple(segs), S, tuple(f * S for f in markers))


@st.composite
def split_points(draw, s):
    """u <= v <= w in [0, S]; each point is a joint or anywhere in between."""
    joints = [seg.t0 for seg in s.segments] + [s.S]
    point = st.one_of(st.sampled_from(joints), st.floats(0.0, 1.0).map(lambda f: f * s.S))
    return sorted(draw(st.lists(point, min_size=3, max_size=3)))


class TestScheduleProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_integral_additive_over_adjacent_intervals(self, data):
        s = data.draw(schedules())
        u, v, w = data.draw(split_points(s))
        for functional in FUNCTIONALS:
            whole = s.integral(u, w, functional)
            split = s.integral(u, v, functional) + s.integral(v, w, functional)
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_json_round_trip(self, s):
        assert Schedule.from_json(s.to_json()) == s

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.floats(0.1, 10.0))
    def test_scaled_integrals(self, data, k):
        s = data.draw(schedules())
        u, _, w = data.draw(split_points(s))
        sk = s.scaled(k)
        assert sk.integral(u, w, "eta") == pytest.approx(
            k * s.integral(u, w, "eta"), rel=1e-12, abs=1e-12
        )
        for functional in ("eta_sq", "deta_sq"):
            assert sk.integral(u, w, functional) == pytest.approx(
                k * k * s.integral(u, w, functional), rel=1e-12, abs=1e-12
            )


class TestScheduleTableExact:
    """Every element of a table of schedules equals the Schedule method."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_table_equals_schedules(self, data):
        rows = data.draw(st.lists(schedules(), min_size=1, max_size=4))
        table = ScheduleTable.from_schedules(rows)
        # per row: two of its split points, and a joint (or an end) for u == v
        points = [data.draw(split_points(s)) for s in rows]
        joints = [data.draw(st.sampled_from([g.t0 for g in s.segments] + [s.S])) for s in rows]
        u = np.array([p[0] for p in points])
        v = np.array([p[2] for p in points])
        at = np.array(joints)
        for functional in ("eta", "deta_sq"):
            got = table.integral(u, v, functional).tolist()
            assert got == [s.integral(a, b, functional) for s, a, b in zip(rows, u, v)]
            whole = table.integral(0.0, table.S, functional).tolist()
            assert whole == [s.integral(0.0, s.S, functional) for s in rows]
        assert table.max_rate(u, v).tolist() == [s.max_rate(a, b) for s, a, b in zip(rows, u, v)]
        assert table.max_rate(at, at).tolist() == [s.max_rate(a, a) for s, a in zip(rows, at)]
        assert table.eta_max.tolist() == [s.eta_max for s in rows]

    def test_interval_outside_domain_rejected(self):
        table = ScheduleTable.from_schedules([build_general_schedule(
            0.4, 0.4, 1.0, 1.0, 1.0, 5.0)] * 2)
        with pytest.raises(ScheduleError, match="row 1"):
            table.integral(0.0, np.array([5.0, 6.0]), "eta")
        with pytest.raises(ScheduleError, match="eta and deta_sq"):
            table.integral(0.0, 1.0, "eta_sq")


class TestJson:
    @pytest.mark.parametrize("text, match", [
        ('{"S": 1}', "missing field 'segments'"),
        ('[1, 2]', "JSON object, not list"),
        ('{"S": 1.0, "markers": [0, 0, 0], "segments": [{"kind": "linear", "t0": 0, '
         '"t1": 1, "eta0": "a", "eta1": 0}]}', "field 'eta0' must be a number, got \"a\""),
        ('{"S": true, "markers": [0, 0, 0], "segments": []}', "field 'S' must be a number"),
        ('{"S": 1, "markers": [0, 0], "segments": []}', "'markers' holds 3 numbers, not 2"),
        ('{"S": 1, "markers": [0, 0, 0], "segments": [[0, 1]]}', "malformed schedule file"),
        ('{"S": 1' + "0" * 400 + ', "markers": [0, 0, 0], "segments": []}',
         "field 'S' is too large for a float"),
    ])
    def test_malformed_payload_names_the_field(self, text, match):
        with pytest.raises(ScheduleError, match=match):
            Schedule.from_json(text)

    def test_round_trip_preserves_values(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            s = random_schedule(rng)
            s2 = Schedule.from_json(s.to_json())
            assert s2.S == s.S
            assert s2.markers == s.markers
            for a, b in zip(s.segments, s2.segments):
                assert (a.kind, a.t0, a.t1, a.eta0, a.eta1) == (b.kind, b.t0, b.t1, b.eta0, b.eta1)

    def test_schema_keys(self):
        s = build_general_schedule(0.4, 0.4, 2.0, 2.0, 2.0, 10.0)
        payload = json.loads(s.to_json())
        assert set(payload) == {"S", "markers", "segments"}
        assert set(payload["segments"][0]) == {"kind", "t0", "t1", "eta0", "eta1"}


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_oscillatory(self):
        val = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_reversed_bounds(self):
        assert adaptive_simpson(lambda x: x, 2.0, 0.0) == pytest.approx(-2.0, abs=1e-12)

    def test_interval_cap(self):
        with pytest.raises(RuntimeError):
            adaptive_simpson(lambda x: math.sin(1e4 * x), 0.0, 10.0, tol=1e-15, max_intervals=50)
