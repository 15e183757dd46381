import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from optlaws import validate
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
        ga = gaussian_approx(obj, NoiseModel.zero(2), sched, np.zeros(2), "sgd",
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
        monkeypatch.setattr(gaussian, "ODE_CHUNK_BYTES", 1)  # one step per chunk
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
        assert gaussian.ODE_BASE_STEPS * per_step > 2 * gaussian.ODE_CHUNK_BYTES
        integrate_covariance_ode(H, Sg, sched, 0.01, [6.0])  # warm up imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            (P,) = integrate_covariance_ode(H, Sg, sched, 0.01, [6.0])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= gaussian.ODE_CHUNK_BYTES + 16 * P.nbytes


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


class TestClosedFormNodes:
    """One expm call on the stack of nodes against one call per node."""

    @SCHEDULES
    def test_adam_matches_node_loop(self, make_sched):
        sched = make_sched()
        G, Sg = adam_system()
        grid = [0.0, 0.3, 1.0, 2.9, 6.0]  # zero, a joint, the horizon
        got = closed_form_covariance(G, Sg, sched, 0.01, grid)
        want = reference_closed_form(G, Sg, sched, 0.01, grid)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_batch_axes_match_node_loop(self):
        # a non-symmetric generator under a batch of noise matrices, and a
        # batch of generators under one noise matrix
        rng = np.random.default_rng(31)
        sched = build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0)
        G = random_spd(rng, 3) + np.triu(rng.standard_normal((3, 3)), 1)
        Gs = np.stack([G, G.T, 2.0 * G])
        Sg = np.stack([random_spd(rng, 3, shift=0.2) for _ in range(2)])
        for g, sigma, shape in ((G, Sg, (2, 3, 3)), (Gs, Sg[0], (3, 3, 3))):
            got = closed_form_covariance(g, sigma, sched, 0.01, [1.3, 6.0])
            want = reference_closed_form(g, sigma, sched, 0.01, [1.3, 6.0])
            for a, b in zip(got, want):
                assert a.shape == shape and np.array_equal(a, b)


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

    def test_nan_grid_time_rejected_by_gaussian_approx(self):
        sched = warmup_cosine_schedule(0.7, 0.8, 6.0)
        with pytest.raises(ValueError, match="within"):
            gaussian_approx(isotropic_quadratic(2), NoiseModel.isotropic(2, 1.0), sched,
                            np.zeros(2), "sgd", [1.0, float("nan")], eta0=0.01)
