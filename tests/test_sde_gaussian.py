import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from optlaws import validate
from optlaws.numerics import is_symmetric
from optlaws.schedule import build_general_schedule, warmup_cosine_schedule
from optlaws.sde import (
    NoiseModel,
    SdeConfig,
    adam_generator,
    closed_form_covariance,
    gaussian_approx,
    integrate_covariance_ode,
    isotropic_quadratic,
    quadratic,
)
from optlaws.sde import gaussian
from util import (
    constant_schedule,
    count_per_config_calls,
    criterion_07_systems,
    reference_closed_form,
    reference_rk4,
    scipy_node_exponential,
)


def random_spd(rng, n, shift=0.3):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + shift * np.eye(n)


class TestScalarCase:
    def test_matches_analytic_ou_solution(self):
        lam, eta, eta0, sigma2 = 1.3, 0.1, 0.01, 0.7
        sched = constant_schedule(eta, 40.0)
        obj = quadratic(np.array([[lam]]))
        noise = NoiseModel(np.array([[sigma2]]))
        grid = [5.0, 10.0, 20.0, 40.0]
        ga = gaussian_approx(obj, noise, sched, np.zeros(1), "sgd", grid, eta0=eta0)
        for t, po, pc in zip(grid, ga.P_ode, ga.P_closed):
            analytic = eta0 * eta**2 * sigma2 * (1.0 - math.exp(-2 * lam * eta * t)) / (
                2.0 * lam * eta
            )
            assert po[0, 0] == pytest.approx(analytic, abs=1e-10)
            assert pc[0, 0] == pytest.approx(analytic, abs=1e-10)

    def test_zero_noise_gives_zero_covariance(self):
        sched = constant_schedule(0.1, 10.0)
        obj = isotropic_quadratic(2)
        ga = gaussian_approx(obj, NoiseModel(np.zeros((2, 2))), sched, np.zeros(2), "sgd",
                             [5.0, 10.0], eta0=0.01)
        for p in ga.P_ode + ga.P_closed:
            np.testing.assert_array_equal(p, np.zeros((2, 2)))

    def test_zero_rate_freezes_covariance(self):
        sched = constant_schedule(0.0, 10.0)
        obj = isotropic_quadratic(2)
        ga = gaussian_approx(obj, NoiseModel.isotropic(2, 1.0), sched, np.zeros(2),
                             "sgd", [10.0], eta0=0.01)
        np.testing.assert_array_equal(ga.P_ode[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(ga.P_closed[0], np.zeros((2, 2)))


def sgd_batch():
    """Three 5x5 SGD systems stacked along a leading batch dimension."""
    rng = np.random.default_rng(11)
    H = np.stack([random_spd(rng, 5) for _ in range(3)])
    Sg = np.stack([random_spd(rng, 5, shift=0.1) for _ in range(3)])
    return H, Sg


class TestRouteAgreement:
    @pytest.mark.parametrize("make_sched", [
        lambda: build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0),
        lambda: warmup_cosine_schedule(0.7, 0.8, 6.0),
        lambda: build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0),
    ])
    def test_sgd_routes_agree(self, make_sched):
        sched = make_sched()
        grid = np.linspace(0.3, 6.0, 10)
        H, Sg = sgd_batch()
        po = integrate_covariance_ode(H, Sg, sched, 0.01, grid)
        pc = closed_form_covariance(H, Sg, sched, 0.01, grid)
        for a, b in zip(po, pc):
            assert np.max(np.abs(a - b)) <= 1e-6 * (1.0 + np.max(np.abs(a)))
        # the batch changes no element beyond the quadrature tolerance
        for i in range(H.shape[0]):
            single = closed_form_covariance(H[i], Sg[i], sched, 0.01, grid)
            for a, b in zip(pc, single):
                assert a[i].shape == b.shape
                assert np.max(np.abs(a[i] - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_routes_walk_segments(self, monkeypatch):
        # both routes read rates and areas from the segments' closed forms,
        # and the closed form's schedule work does not grow with the batch
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        grid = [0.5, 3.0, 6.0]
        H, Sg = sgd_batch()
        calls = count_per_config_calls(monkeypatch)
        integrate_covariance_ode(H, Sg, sched, 0.01, grid)
        closed_form_covariance(H, Sg, sched, 0.01, grid)
        per_batch = calls["segment_integral"]
        closed_form_covariance(H[0], Sg[0], sched, 0.01, grid)
        assert calls["value"] == 0 and calls["integral"] == 0
        assert calls["segment_integral"] == 2 * per_batch > 0

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(13)
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        H = random_spd(rng, 6)
        Sg = random_spd(rng, 6, shift=0.05)
        for p in closed_form_covariance(H, Sg, sched, 0.01, np.linspace(0.5, 6.0, 8)):
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            assert np.linalg.eigvalsh(p)[0] >= -1e-10

    def test_adam_routes_agree(self):
        rng = np.random.default_rng(17)
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 5.0)
        obj = quadratic(random_spd(rng, 4))
        noise = NoiseModel(random_spd(rng, 4, shift=0.2))
        ga = gaussian_approx(obj, noise, sched, np.zeros(4), "adam",
                             np.linspace(0.5, 5.0, 8), eta0=0.01)
        assert ga.generator.shape == (8, 8)
        assert ga.max_route_gap() <= 1e-6

    def test_nearly_symmetric_generator_is_not_symmetrised(self):
        # 5e-6 off symmetry: the eigenbasis of its lower triangle would be
        # 2.1e-6 off the ODE route
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 5.0)
        G = np.array([[2.0, 1.0 + 5e-6], [1.0, 3.0]])
        grid = [1.0, 2.5, 5.0]
        for a, b in zip(closed_form_covariance(G, np.eye(2), sched, 0.01, grid),
                        integrate_covariance_ode(G, np.eye(2), sched, 0.01, grid)):
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))


def adam_system():
    """8x8 (x, m) Adam generator (not symmetric) and its diffusion matrix."""
    rng = np.random.default_rng(23)
    return adam_generator(random_spd(rng, 4), random_spd(rng, 4, shift=0.2), 1.0, 1e-8)


SCHEDULES = pytest.mark.parametrize("make_sched", [
    lambda: build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0),   # linear
    lambda: build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0),   # with a constant piece
    lambda: warmup_cosine_schedule(0.7, 0.8, 6.0),                  # cosine
], ids=["linear", "constant", "cosine"])


class TestFoldedRK4:
    """The folded step against the stage-by-stage RK4 it rewrites."""

    @pytest.mark.parametrize("system", [sgd_batch, adam_system], ids=["sgd_batch", "adam"])
    @SCHEDULES
    def test_matches_reference_rk4(self, system, make_sched):
        sched = make_sched()
        G, Sg = system()
        grid = [0.3, 0.77, 1.6, 2.9, 4.45, 5.3, 6.0]  # no point on a joint
        folded = integrate_covariance_ode(G, Sg, sched, 0.01, grid)
        reference = reference_rk4(G, Sg, sched, 0.01, grid)
        for a, b in zip(folded, reference):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * (1.0 + np.max(np.abs(b)))

    def test_chunking_changes_nothing(self, monkeypatch):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        H, Sg = sgd_batch()
        grid = [0.9, 6.0]
        whole = integrate_covariance_ode(H, Sg, sched, 0.01, grid)
        monkeypatch.setattr(gaussian, "CHUNK_BYTES", 1)  # one step per chunk
        for a, b in zip(integrate_covariance_ode(H, Sg, sched, 0.01, grid), whole):
            assert np.max(np.abs(a - b)) <= 1e-15 * (1.0 + np.max(np.abs(b)))

    def test_peak_memory_is_one_chunk(self):
        # one grid point: each solve steps every segment in one piece of
        # hundreds of steps, more than two chunks hold
        sched = constant_schedule(0.5, 6.0)
        rng = np.random.default_rng(29)
        H = np.stack([random_spd(rng, 8) for _ in range(16)])
        Sg = np.stack([random_spd(rng, 8, shift=0.1) for _ in range(16)])
        per_step = 8 * 6 * H.size  # the step matrices alone, without a budget
        assert gaussian.ODE_BASE_STEPS * per_step > 2 * gaussian.CHUNK_BYTES
        integrate_covariance_ode(H, Sg, sched, 0.01, [6.0])  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            (P,) = integrate_covariance_ode(H, Sg, sched, 0.01, [6.0])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= gaussian.CHUNK_BYTES + 16 * P.nbytes


def count_rk4_steps(monkeypatch) -> list[int]:
    """Count the RK4 steps integrate_covariance_ode takes from here on, one
    per row of step coefficients; returns the live counter."""
    steps = [0]
    rows = gaussian._rk4_coefficients

    def counted(h, eta_lo, *rates):
        steps[0] += eta_lo.size
        return rows(h, eta_lo, *rates)

    monkeypatch.setattr(gaussian, "_rk4_coefficients", counted)
    return steps


def two_solves(steps: int) -> bool:
    """Whether ``steps`` is a solve at S/B and one at S/2B (3B steps, plus
    each piece's rounding up), without a third at S/4B."""
    return 3 * gaussian.ODE_BASE_STEPS <= steps < 4 * gaussian.ODE_BASE_STEPS


class TestHalving:
    """Where the step halving starts, when it stops, and what it discards."""

    @pytest.mark.parametrize("system", ["sgd_batch", "adam"])
    @SCHEDULES
    def test_criterion_07_systems_converge_after_one_halving(self, system, make_sched,
                                                              monkeypatch):
        sched = make_sched()
        H, Sg, H4, Sg4 = criterion_07_systems()
        G, Sg = (H, Sg) if system == "sgd_batch" else adam_generator(H4, Sg4, 1.0, 1e-8)
        grid = np.linspace(0.25, 6.0, 50)
        steps = count_rk4_steps(monkeypatch)
        got = integrate_covariance_ode(G, Sg, sched, 0.01, grid)
        assert two_solves(steps[0])
        # one fixed-step solve at S/16,000, far finer than the loop stops at
        monkeypatch.setattr(gaussian, "ODE_BASE_STEPS", 16_000)
        monkeypatch.setattr(gaussian, "ODE_MAX_HALVINGS", 0)
        fine = integrate_covariance_ode(G, Sg, sched, 0.01, grid)
        for a, b in zip(got, fine):
            assert np.max(np.abs(a - b)) <= gaussian.ODE_TOL * (1.0 + np.max(np.abs(b)))

    def test_tolerance_scales_with_the_covariance(self, monkeypatch):
        # |P| ~ 3e7: an absolute 1e-8 would halve down to roundoff
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        G, Sg = np.diag([1.0, 2.0]), 1e10 * np.eye(2)
        steps = count_rk4_steps(monkeypatch)
        got = integrate_covariance_ode(G, Sg, sched, 0.01, [3.0, 6.0])
        assert two_solves(steps[0])
        for a, b in zip(got, closed_form_covariance(G, Sg, sched, 0.01, [3.0, 6.0])):
            assert 1e7 < np.max(np.abs(b))
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    @pytest.mark.parametrize("lam, start", [(300.0, 2000), (800.0, 4000), (1000.0, 4000)],
                             ids=["300.0", "800.0", "1000.0"])
    def test_stiff_generator_discards_unstable_solves(self, lam, start, monkeypatch):
        # RK4 is unstable at the coarse steps, so the first solve takes the
        # first S/(250 * 2^j) with h * eta_max * 2 * lam <= 2.5 (eta_max = 0.8)
        # and the second agrees with it: 3 * start steps, plus at most one
        # per piece ([0, 1], [1, 3], [3, 6]) and solve for rounding up
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        G = np.diag([lam, 1.0])
        steps = count_rk4_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_covariance_ode(G, np.eye(2), sched, 0.01, [3.0, 6.0])
        assert 3 * start <= steps[0] <= 3 * start + 6
        for a, b in zip(got, closed_form_covariance(G, np.eye(2), sched, 0.01, [3.0, 6.0])):
            assert np.max(np.abs(a - b)) <= 1e-6 * (1.0 + np.max(np.abs(b)))

    def test_unstable_at_every_step_is_refused(self, monkeypatch):
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        monkeypatch.setattr(gaussian, "ODE_MAX_HALVINGS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                integrate_covariance_ode(np.diag([1e6, 1.0]), np.eye(2), sched, 0.01, [3.0, 6.0])

    def test_unstable_at_the_finest_step_is_refused_before_solving(self, monkeypatch):
        # RK4 would need about S/3,840,000 here; no step is taken
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        steps = count_rk4_steps(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not finite: at the finest step S/512000"):
            integrate_covariance_ode(np.diag([1e6, 1.0]), np.eye(2), sched, 0.01, [3.0, 6.0])
        assert time.perf_counter() - start < 0.05
        assert steps[0] == 0

    def test_a_solve_that_overflows_is_refused_at_once(self, monkeypatch):
        # G has the eigenvalue -400, so P grows like exp(800 Phi(t)) and
        # overflows by t = 3.  The first solve is stable (S/2000), so no
        # finer one is tried: one solve of 2000 steps, plus at most one per
        # piece for rounding up
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        G = np.diag([-400.0, 1.0])
        want = "^covariance ODE is not finite at the step S/2000$"
        steps = count_rk4_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=want):
                integrate_covariance_ode(G, np.eye(2), sched, 0.01, [3.0, 6.0])
        assert 2000 <= steps[0] <= 2003

    def test_validate_suite_2_converges_after_one_halving(self, monkeypatch):
        # the system validate's route-agreement suite builds at seed 7
        steps, per_call = count_rk4_steps(monkeypatch), []
        route = gaussian.integrate_covariance_ode

        def counted(*args):
            before = steps[0]
            out = route(*args)
            per_call.append(steps[0] - before)
            return out

        monkeypatch.setattr(gaussian, "integrate_covariance_ode", counted)
        suites = validate.run(7, quick=False)
        assert suites["gaussian_approx_routes"]["passed"]
        assert len(per_call) == 2 and all(two_solves(n) for n in per_call)


def package_node_exponential(G, tau):
    """The package's node exponential, exp(-tau G), one node per call."""
    return gaussian._node_exponentials(G, np.array([tau]))[0]


def batch_axes_systems():
    """A non-symmetric generator under a batch of noise matrices, a batch of
    generators under one noise matrix, and a symmetric generator under the
    batch of noise matrices, with the result shapes."""
    rng = np.random.default_rng(31)
    G = random_spd(rng, 3) + np.triu(rng.standard_normal((3, 3)), 1)
    Gs = np.stack([G, G.T, 2.0 * G])
    Sg = np.stack([random_spd(rng, 3, shift=0.2) for _ in range(2)])
    return ((G, Sg, (2, 3, 3)), (Gs, Sg[0], (3, 3, 3)), (random_spd(rng, 3), Sg, (2, 3, 3)))


class TestClosedFormNodes:
    """The nodes' exponentials of a pass at once against one node at a time:
    the package's own bit for bit, scipy's to rounding."""

    @SCHEDULES
    def test_adam_matches_node_loop(self, make_sched):
        sched = make_sched()
        G, Sg = adam_system()
        grid = [0.0, 0.3, 1.0, 2.9, 6.0]  # zero, a joint, the horizon
        got = closed_form_covariance(G, Sg, sched, 0.01, grid)
        want = reference_closed_form(G, Sg, sched, 0.01, grid, package_node_exponential)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_batch_axes_match_node_loop(self):
        # the eigenbasis route has no node loop: it is held to the symmetric
        # generator under one noise matrix at a time, as each noise matrix
        # stops at the same level at both times
        sched = build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0)
        for g, sigma, shape in batch_axes_systems():
            got = closed_form_covariance(g, sigma, sched, 0.01, [1.3, 6.0])
            if is_symmetric(g):
                want = np.stack([closed_form_covariance(g, s, sched, 0.01, [1.3, 6.0])
                                 for s in sigma], axis=1)
            else:
                want = reference_closed_form(g, sigma, sched, 0.01, [1.3, 6.0],
                                             package_node_exponential)
            for a, b in zip(got, want):
                assert a.shape == shape and np.array_equal(a, b)

    @SCHEDULES
    def test_adam_matches_scipy_node_loop(self, make_sched):
        sched = make_sched()
        G, Sg = adam_system()
        grid = [0.0, 0.3, 1.0, 2.9, 6.0]
        got = closed_form_covariance(G, Sg, sched, 0.01, grid)
        want = reference_closed_form(G, Sg, sched, 0.01, grid, scipy_node_exponential)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * (1.0 + np.max(np.abs(b)))

    def test_batch_axes_match_scipy_node_loop(self):
        sched = build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0)
        for g, sigma, shape in batch_axes_systems():
            got = closed_form_covariance(g, sigma, sched, 0.01, [1.3, 6.0])
            want = reference_closed_form(g, sigma, sched, 0.01, [1.3, 6.0])
            for a, b in zip(got, want):
                assert a.shape == shape
                assert np.max(np.abs(a - b)) <= 1e-13 * (1.0 + np.max(np.abs(b)))


def stable_non_normal(rng, n, norm):
    """A random non-normal n x n generator with every eigenvalue's real part
    at least 0.1 before scaling, scaled to |G|_1 = norm."""
    A = rng.standard_normal((n, n))
    A += (0.1 - min(0.0, np.linalg.eigvals(A).real.min())) * np.eye(n)
    return A * (norm / np.max(np.sum(np.abs(A), axis=0)))


class TestNodeExponentials:
    """exp(-tau G) by one Taylor polynomial in G, scaled and squared per node."""

    def test_zero_node_is_the_identity(self):
        G = adam_system()[0]
        (K,) = gaussian._node_exponentials(G, np.zeros(1))
        assert np.array_equal(K, np.eye(8))
        # a zero generator batched with a non-symmetric one (|G|_1 = 0)
        K = gaussian._node_exponentials(np.stack([np.zeros((8, 8)), G]), np.array([0.5, 2.0]))
        assert np.array_equal(K[:, 0], np.broadcast_to(np.eye(8), (2, 8, 8)))

    def test_nilpotent_generator_is_exact(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        tau = np.array([0.0, 1e-9, 0.3, 1.0, 2.4, 1e3])
        for t, K in zip(tau, gaussian._node_exponentials(N, tau)):
            assert np.array_equal(K, np.eye(2) - t * N)

    def test_rotation_generator(self):
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        tau = np.array([1e-6, 0.5, 1.0, math.pi, 10.0])
        for t, K in zip(tau, gaussian._node_exponentials(J, tau)):
            c, s = math.cos(t), math.sin(t)
            assert np.max(np.abs(K - np.array([[c, -s], [s, c]]))) <= 1e-14

    def test_stiff_diagonal_gives_the_scalar_exponentials(self):
        # 14 squarings at tau = 1, each doubling the relative error
        tau = np.array([1e-8, 1e-4, 1e-3, 0.01, 0.1, 1.0])
        lam = np.array([1e4, 1.0])
        K = gaussian._node_exponentials(np.diag(lam), tau)
        assert not K[:, 0, 1].any() and not K[:, 1, 0].any()
        want = np.exp(-tau[:, None] * lam)
        assert np.all(np.abs(K[:, [0, 1], [0, 1]] - want) <= 1e-11 * want)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_matches_scipy(self, n):
        # the squarings' rounding grows with |tau G|_1, so does the bound
        rng = np.random.default_rng(n)
        for norm in (1e-8, 1e-4, 1e-2, 1.0, 10.0, 100.0, 1e3):
            G = stable_non_normal(rng, n, norm)
            tau = np.array([1.0, 0.37, 0.05])
            for t, K in zip(tau, gaussian._node_exponentials(G, tau)):
                want = scipy_node_exponential(G, t)
                err = np.max(np.abs(K - want)) / np.max(np.abs(want))
                assert err <= 2e-15 * (1.0 + t * norm)

    def test_batch_axes(self):
        rng = np.random.default_rng(37)
        G = np.stack([[stable_non_normal(rng, 4, norm) for norm in (0.5, 3.0, 40.0)]
                      for _ in range(2)])  # (2, 3, 4, 4)
        tau = np.array([0.0, 0.2, 1.0, 2.4])
        K = gaussian._node_exponentials(G, tau)
        assert K.shape == (4, 2, 3, 4, 4)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(K[:, i, j], gaussian._node_exponentials(G[i, j], tau))
            for t, k in zip(tau, K[:, i, j]):
                want = scipy_node_exponential(G[i, j], t)
                assert np.max(np.abs(k - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("system", ["adam", "batch_3x3"])
    def test_a_node_does_not_depend_on_the_others(self, system):
        # 3x3 systems give gemm row tails (9 columns) that round by position
        G = adam_system()[0] if system == "adam" else batch_axes_systems()[1][0]
        tau = np.random.default_rng(41).uniform(0.0, 3.0, 300)
        tau[::7] = 0.0
        whole = gaussian._node_exponentials(G, tau)
        assert np.array_equal(gaussian._node_exponentials(G, tau[::-1])[::-1], whole)
        for lo, hi in ((0, 40), (5, 8), (3, 2**6 + 1)):
            assert np.array_equal(gaussian._node_exponentials(G, tau[lo:hi]), whole[lo:hi])
        for t, K in zip(tau, whole):
            assert np.array_equal(gaussian._node_exponentials(G, np.array([t]))[0], K)


class TestClosedFormPasses:
    """One array pass per refinement level over the grid times still refining."""

    @pytest.mark.parametrize("system", ["sgd_batch", "adam"])
    def test_a_time_does_not_depend_on_its_neighbours(self, system, monkeypatch):
        sched = build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0)
        H, Sg, _, _ = criterion_07_systems()
        G, Sg = (H, Sg) if system == "sgd_batch" else adam_system()
        grid = [2.9, 0.0, 0.3, 6.0, 2.0, 0.77, 4.45]  # unsorted, zero, a joint, the horizon
        whole = closed_form_covariance(G, Sg, sched, 0.01, grid)
        reversed_ = closed_form_covariance(G, Sg, sched, 0.01, grid[::-1])[::-1]
        alone = [closed_form_covariance(G, Sg, sched, 0.01, [t])[0] for t in grid]
        monkeypatch.setattr(gaussian, "CHUNK_BYTES", 1)  # one time per chunk
        chunked = closed_form_covariance(G, Sg, sched, 0.01, grid)
        assert len(whole) == len(grid)
        for p, *others in zip(whole, reversed_, alone, chunked):
            assert p.shape == G.shape
            assert all(np.array_equal(p, other) for other in others)

    def test_peak_memory_is_one_chunk(self):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        H, Sg, _, _ = criterion_07_systems()
        grid = np.linspace(0.003, 6.0, 2000)
        # the first pass's exponentials alone, 2n words per node and system
        # in the eigenbasis, without a budget
        nodes = grid.size * len(sched.segments) * gaussian.QUAD_BASE_NODES
        assert 8 * nodes * 2 * H.shape[0] * H.shape[-1] > 4 * gaussian.CHUNK_BYTES
        closed_form_covariance(H, Sg, sched, 0.01, grid[:3])  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            P = closed_form_covariance(H, Sg, sched, 0.01, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out_bytes = sum(p.nbytes for p in P)
        assert peak <= gaussian.CHUNK_BYTES + 2 * out_bytes

    def test_peak_memory_of_the_general_route_is_one_chunk(self):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        G, Sg = adam_system()
        grid = np.linspace(0.003, 6.0, 2000)
        # the first pass's Sigma products alone, n^2 words per node, without a budget
        nodes = grid.size * len(sched.segments) * gaussian.QUAD_BASE_NODES
        assert 8 * nodes * G.size > 4 * gaussian.CHUNK_BYTES
        closed_form_covariance(G, Sg, sched, 0.01, grid[:3])  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            P = closed_form_covariance(G, Sg, sched, 0.01, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out_bytes = sum(p.nbytes for p in P)
        assert peak <= gaussian.CHUNK_BYTES + 2 * out_bytes

    @pytest.mark.parametrize("G", [
        np.diag([-400.0, 1.0]),
        np.array([[-400.0, 1.0], [0.0, 1.0]]),
    ], ids=["eigenbasis", "general"])
    @pytest.mark.parametrize("grid, t", [([3.0, 6.0], 3.0), ([0.5, 6.0, 3.0], 6.0)])
    def test_a_pass_that_is_not_finite_is_refused(self, G, grid, t):
        # P grows like exp(800 Phi(t)): finite at t = 0.5, not at 3 or 6.
        # The error names the first such time in grid order, and comes
        # without a RuntimeWarning
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        want = f"^closed-form covariance is not finite at t = {t}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=want):
                closed_form_covariance(G, np.eye(2), sched, 0.01, grid)

    @SCHEDULES
    def test_eigenbasis_matches_node_loop(self, make_sched):
        # the symmetric route against one expm per node, which takes no eigh
        sched = make_sched()
        H, Sg, _, _ = criterion_07_systems()
        grid = [0.0, 0.3, sched.segments[1].t0, 2.9, sched.S]  # zero, a joint, the horizon
        got = closed_form_covariance(H, Sg, sched, 0.01, grid)
        want = reference_closed_form(H, Sg, sched, 0.01, grid)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * (1.0 + np.max(np.abs(b)))


def lifted_adam_system(H, Sigma, c1, c2, eps):
    """The paper's 3n lift of Adam in (x, m, v), with c2*I on v: the
    reference adam_generator's (x, m) system is held to."""
    n = H.shape[0]
    G = np.zeros((3 * n, 3 * n))
    G[:n, n:2 * n] = np.diag(1.0 / np.sqrt(np.diag(Sigma) + eps))
    G[n:2 * n, :n] = -c1 * H
    G[n:2 * n, n:2 * n] = c1 * np.eye(n)
    G[2 * n:, 2 * n:] = c2 * np.eye(n)
    S = np.zeros((3 * n, 3 * n))
    S[n:2 * n, n:2 * n] = Sigma
    return G, S


class TestAdamGenerator:
    def test_block_structure(self):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        Sigma = np.diag([0.4, 0.9])
        Hhat, Shat = adam_generator(H, Sigma, c1=1.5, eps=1e-8)
        n = 2
        assert Hhat.shape == Shat.shape == (2 * n, 2 * n)
        np.testing.assert_allclose(
            Hhat[0:n, n:2*n], np.diag(1.0 / np.sqrt(np.diag(Sigma) + 1e-8))
        )
        np.testing.assert_allclose(Hhat[n:2*n, 0:n], -1.5 * H)
        np.testing.assert_allclose(Hhat[n:2*n, n:2*n], 1.5 * np.eye(n))
        assert np.all(Hhat[0:n, 0:n] == 0.0)
        np.testing.assert_allclose(Shat[n:2*n, n:2*n], Sigma)
        assert np.all(Shat[0:n] == 0.0) and np.all(Shat[:, 0:n] == 0.0)

    @pytest.mark.parametrize("c2", [0.5, 2.0])
    @SCHEDULES
    def test_v_block_of_the_lift_is_inert(self, c2, make_sched):
        sched = make_sched()
        _, _, H4, Sg4 = criterion_07_systems()
        lifted = lifted_adam_system(H4, Sg4, 1.0, c2, 1e-8)
        G, Sg = adam_generator(H4, Sg4, 1.0, 1e-8)
        grid = np.linspace(0.5, 6.0, 12)
        for big, small in zip(integrate_covariance_ode(*lifted, sched, 0.01, grid),
                              integrate_covariance_ode(G, Sg, sched, 0.01, grid)):
            assert not big[8:].any() and not big[:, 8:].any()
            assert np.array_equal(big[:8, :8], small)
        for big, small in zip(closed_form_covariance(*lifted, sched, 0.01, grid),
                              closed_form_covariance(G, Sg, sched, 0.01, grid)):
            assert not big[8:].any() and not big[:, 8:].any()
            assert np.max(np.abs(big[:8, :8] - small)) <= 1e-15 * (1.0 + np.max(np.abs(small)))

    def test_generator_is_stable(self):
        rng = np.random.default_rng(19)
        H = random_spd(rng, 3)
        Hhat, _ = adam_generator(H, random_spd(rng, 3, shift=0.2), 1.0, 1e-8)
        eigs = np.linalg.eigvals(Hhat)
        assert np.all(eigs.real > 0.0)

    def test_diffusion_scale_is_the_simulations_c1_prime(self):
        # at c1 = 3, eta0 = 0.01, c1*sqrt(eta0) is an ulp off sqrt(c1*c1*eta0)
        rng = np.random.default_rng(29)
        H, Sigma = random_spd(rng, 3), random_spd(rng, 3, shift=0.2)
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 3.0)
        t = np.linspace(0.5, 3.0, 4)
        ga = gaussian_approx(quadratic(H), NoiseModel(Sigma), sched, np.zeros(3), "adam", t,
                             eta0=0.01, c1=3.0)
        scale = SdeConfig(sched, 0.01, 1, algorithm="adam", c1=3.0).c1_prime ** 2
        want = closed_form_covariance(*adam_generator(H, Sigma, 3.0, 1e-8), sched, scale, t)
        assert np.asarray(ga.P_closed).tobytes() == np.asarray(want).tobytes()


class TestValidation:
    def test_nonstationary_point_rejected(self):
        sched = constant_schedule(0.1, 1.0)
        obj = isotropic_quadratic(2)
        with pytest.raises(ValueError, match="not stationary"):
            gaussian_approx(obj, NoiseModel.isotropic(2, 1.0), sched,
                            np.array([1.0, 0.0]), "sgd", [1.0], eta0=0.01)

    def test_nearly_symmetric_hessian_rejected(self):
        # 5e-6 off symmetry, inside numpy's default allclose rtol
        H = np.array([[2.0, 1.0 + 5e-6], [1.0, 3.0]])
        obj = dataclasses.replace(isotropic_quadratic(2), hessian_at=lambda x: H)
        with pytest.raises(ValueError, match="^Hessian at x_star is not symmetric$"):
            gaussian_approx(obj, NoiseModel.isotropic(2, 1.0), constant_schedule(0.1, 1.0),
                            np.zeros(2), "sgd", [1.0], eta0=0.01)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="^unknown algorithm 'bogus'$"):
            gaussian_approx(isotropic_quadratic(2), NoiseModel.isotropic(2, 1.0),
                            constant_schedule(0.1, 1.0), np.zeros(2), "bogus", [1.0], eta0=0.01)

    def test_unsorted_grid_rejected(self):
        sched = constant_schedule(0.1, 1.0)
        with pytest.raises(ValueError):
            integrate_covariance_ode(np.eye(2), np.eye(2), sched, 0.01, [1.0, 0.5])

    @pytest.mark.parametrize("route", [integrate_covariance_ode, closed_form_covariance])
    def test_nan_grid_time_rejected(self, route):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        with pytest.raises(ValueError, match="within"):
            route(np.eye(2), np.eye(2), sched, 0.01, [float("nan")])

    def test_one_shot_grid_feeds_both_routes(self):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        ga = gaussian_approx(isotropic_quadratic(2), NoiseModel.isotropic(2, 1.0), sched,
                             np.zeros(2), "sgd", iter([1.0, 3.0, 6.0]), eta0=0.01)
        assert ga.t_grid.tolist() == [1.0, 3.0, 6.0]
        assert len(ga.P_ode) == len(ga.P_closed) == 3
        assert ga.max_route_gap() <= 1e-9

    def test_nan_grid_time_rejected_by_gaussian_approx(self):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        with pytest.raises(ValueError, match="within"):
            gaussian_approx(isotropic_quadratic(2), NoiseModel.isotropic(2, 1.0), sched,
                            np.zeros(2), "sgd", [1.0, float("nan")], eta0=0.01)
