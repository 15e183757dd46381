import json
import tracemalloc

import numpy as np
import pytest

from optlaws.schedule import Schedule, Segment, build_general_schedule
from optlaws.sde import (
    NoiseModel,
    SdeConfig,
    SimulationDiverged,
    double_well,
    isotropic_quadratic,
    path_rng,
    quadratic,
    rosenbrock,
    simulate,
)
from util import reference_simulate


def constant_schedule(eta, T):
    return Schedule((Segment("constant", 0.0, T, eta, eta),), T, (0.0, 0.0, 0.0))


class TestObjectives:
    @pytest.mark.parametrize("make", [
        lambda: isotropic_quadratic(5, 1.3),
        lambda: double_well(5),
        lambda: rosenbrock(5),
    ])
    def test_gradient_matches_finite_differences(self, make):
        obj = make()
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=obj.dim)
            g = obj.gradient(x)
            h = 1e-6
            for i in range(obj.dim):
                e = np.zeros(obj.dim)
                e[i] = h
                fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("make", [
        lambda: isotropic_quadratic(4, 2.0),
        lambda: double_well(4),
        lambda: rosenbrock(4),
    ])
    def test_hessian_symmetric(self, make):
        obj = make()
        H = obj.hessian_at(np.full(obj.dim, 0.3))
        np.testing.assert_array_equal(H, H.T)

    def test_empty_quadratic_rejected(self):
        with pytest.raises(ValueError):
            quadratic(np.zeros((0, 0)))

    def test_batched_gradient(self):
        obj = double_well(3)
        x = np.random.default_rng(5).standard_normal((7, 3))
        g = obj.gradient(x)
        assert g.shape == (7, 3)
        np.testing.assert_allclose(g[2], obj.gradient(x[2]), rtol=1e-15)


class TestSgdSimulation:
    def test_frozen_dynamics_with_zero_rate(self):
        sched = constant_schedule(0.0, 1.0)
        obj = isotropic_quadratic(3)
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=8, seed=0,
                        x0=np.array([1.0, -2.0, 0.5]), trap_eps=(0.1,))
        rep = simulate(obj, NoiseModel.isotropic(3, 1.0), cfg)
        assert rep.stats["weighted_avg_grad_sq"].mean == 0.0
        assert rep.stats["final_sq_dist"].mean == pytest.approx(5.25, rel=1e-14)

    def test_noiseless_descent_is_monotone(self):
        sched = constant_schedule(0.5, 4.0)
        obj = isotropic_quadratic(4)
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=2, seed=0,
                        x0=np.ones(4), record_traces=True)
        rep = simulate(obj, NoiseModel.zero(4), cfg)
        for _, _, trace in rep.traces:
            grads = trace[:, 1]
            assert np.all(np.diff(grads) <= 1e-14)

    def test_ou_stationary_variance(self):
        lam, eta, eta0 = 1.0, 0.1, 0.01
        sched = constant_schedule(eta, 30.0)
        obj = quadratic(np.array([[lam]]))
        cfg = SdeConfig(schedule=sched, eta0=eta0, n_paths=3000, seed=2)
        rep = simulate(obj, NoiseModel(np.array([[1.0]])), cfg)
        target = eta0 * eta * 1.0 / (2.0 * lam)
        stat = rep.stats["final_sq_dist"]
        assert abs(stat.mean - target) <= 3.0 * stat.std_err

    def test_divergence_detected_with_path_index(self):
        sched = constant_schedule(1.0, 3000.0)
        obj = isotropic_quadratic(2)
        cfg = SdeConfig(schedule=sched, eta0=3.0, n_paths=4, seed=0, x0=np.ones(2))
        with pytest.raises(SimulationDiverged) as err:
            simulate(obj, NoiseModel.zero(2), cfg)
        assert "path 0" in str(err.value)

    def test_trap_eps_validation(self):
        sched = constant_schedule(0.1, 1.0)
        with pytest.raises(ValueError):
            SdeConfig(schedule=sched, eta0=0.01, n_paths=2, trap_eps=(0.0,))


class TestAdamSimulation:
    def test_v_stays_nonnegative(self):
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 4.0)
        obj = double_well(6)
        cfg = SdeConfig(schedule=sched, eta0=0.02, n_paths=64, seed=3,
                        algorithm="adam", x0=np.full(6, 1.3))
        rep = simulate(obj, NoiseModel.isotropic(6, 0.05), cfg)
        assert rep.v_min >= 0.0

    def test_momentum_noise_consistency(self):
        # c1' must satisfy (c1')^2 = c1 * c1hat with c1hat = c1 * eta0
        cfg = SdeConfig(schedule=constant_schedule(0.1, 1.0), eta0=0.04, n_paths=1,
                        algorithm="adam", c1=2.0)
        assert cfg.c1_prime**2 == pytest.approx(cfg.c1 * cfg.c1_hat, rel=1e-15)

    def test_mean_momentum_within_gradient_bound(self):
        obj = double_well(4, box=2.0)
        sched = build_general_schedule(0.8, 0.8, 0.5, 0.5, 0.5, 3.0)
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=400, seed=5,
                        algorithm="adam", x0=np.full(4, 1.4),
                        track_mean_momentum=True)
        rep = simulate(obj, NoiseModel.isotropic(4, 0.1), cfg)
        assert rep.max_abs_coordinate <= obj.box  # ell valid on the visited region
        norms = rep.mean_momentum["norm"]
        ses = rep.mean_momentum["std_err"]
        assert np.all(norms <= obj.ell + 3.0 * ses)

    def test_zero_rate_freezes_adam(self):
        sched = constant_schedule(0.0, 1.0)
        obj = isotropic_quadratic(3)
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=4, seed=0,
                        algorithm="adam", x0=np.ones(3))
        rep = simulate(obj, NoiseModel.isotropic(3, 1.0), cfg)
        assert rep.stats["weighted_avg_momentum_sq"].mean == 0.0
        assert rep.stats["final_sq_dist"].mean == pytest.approx(3.0, rel=1e-14)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        sched = build_general_schedule(0.5, 0.5, 0.5, 0.5, 0.5, 2.0)
        obj = isotropic_quadratic(4)
        noise = NoiseModel.isotropic(4, 0.3)
        cfg = SdeConfig(schedule=sched, eta0=0.02, n_paths=50, seed=9, trap_eps=(0.01,))
        a = simulate(obj, noise, cfg)
        b = simulate(obj, noise, cfg)
        for key in a.stats:
            assert a.stats[key] == b.stats[key]
        assert a.trapping == b.trapping

    def test_block_size_does_not_change_results(self):
        sched = build_general_schedule(0.5, 0.5, 0.5, 0.5, 0.5, 2.0)
        obj = isotropic_quadratic(4)
        noise = NoiseModel.isotropic(4, 0.3)
        cfg = SdeConfig(schedule=sched, eta0=0.02, n_paths=33, seed=9)
        a = simulate(obj, noise, cfg, block_size=5)
        b = simulate(obj, noise, cfg, block_size=33)
        for key in a.stats:
            assert a.stats[key] == b.stats[key]

    def test_path_streams_independent_of_order(self):
        draws_a = path_rng(7, 3).standard_normal(4)
        path_rng(7, 0).standard_normal(100)  # unrelated consumption
        draws_b = path_rng(7, 3).standard_normal(4)
        np.testing.assert_array_equal(draws_a, draws_b)


def assert_matches_reference(objective, noise, config, block_size=None):
    """simulate() and the reference stepper agree bit for bit."""
    want = reference_simulate(objective, noise, config, block_size=block_size)
    got = simulate(objective, noise, config, block_size=block_size)
    assert json.dumps(got.as_dict(), sort_keys=True) == json.dumps(want.as_dict(), sort_keys=True)
    if want.mean_momentum is None:
        assert got.mean_momentum is None
    else:
        assert got.mean_momentum.keys() == want.mean_momentum.keys()
        for key, arr in want.mean_momentum.items():
            assert got.mean_momentum[key].tobytes() == arr.tobytes(), key
    if want.traces is None:
        assert got.traces is None
    else:
        assert len(got.traces) == len(want.traces)
        for (i, t, tr), (j, u, ur) in zip(got.traces, want.traces):
            assert i == j and t.tobytes() == u.tobytes() and tr.tobytes() == ur.tobytes()
    return got


def correlated_system(dim, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    return quadratic(A.T @ A / dim + 0.2 * np.eye(dim)), NoiseModel(A @ A.T / dim)


class TestReferenceStepper:
    SCHED = build_general_schedule(0.8, 0.5, 0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_non_diagonal_noise(self, algorithm):
        obj, noise = correlated_system(5)
        assert np.any(noise.root - np.diag(np.diag(noise.root)))
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=37, seed=4,
                        algorithm=algorithm, trap_eps=(0.01, 0.1),
                        track_mean_momentum=algorithm == "adam")
        assert_matches_reference(obj, noise, cfg, block_size=7)

    def test_adam_with_tracking(self):
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=40, seed=3,
                        algorithm="adam", c1=2.0, c2=3.0, x0=np.full(4, 1.3),
                        track_mean_momentum=True, record_traces=True)
        noise = NoiseModel(np.diag([0.3, 0.05, 1.2, 0.7]))
        rep = assert_matches_reference(double_well(4), noise, cfg, block_size=11)
        assert rep.mean_momentum is not None and len(rep.traces) == 40

    @pytest.mark.parametrize("block_size", [1, 6, 13, 53, None])
    def test_odd_block_sizes(self, block_size):
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=53, seed=8,
                        record_traces=True, trap_eps=(0.5,))
        assert_matches_reference(double_well(4), NoiseModel.isotropic(4, 0.1), cfg,
                                 block_size=block_size)

    @pytest.mark.parametrize("algorithm, variance, eta0, c2, path", [
        ("sgd", 10.0, 0.14, 1.0, 11),
        ("adam", 0.5, 0.15, 1.0, 1),
        ("adam", 0.1, 0.01, 400.0, 0),  # v itself overflows
    ])
    def test_diverging_run_names_the_same_path(self, algorithm, variance, eta0, c2, path):
        cfg = SdeConfig(schedule=constant_schedule(1.0, 10.0), eta0=eta0, n_paths=40,
                        seed=0, algorithm=algorithm, c2=c2, x0=np.ones(3))
        noise = NoiseModel.isotropic(3, variance)
        for run in (reference_simulate, simulate):
            with pytest.raises(SimulationDiverged) as err:
                run(double_well(3), noise, cfg, block_size=9)
            assert err.value.path_index == path

    def test_adam_v_min_matches_closed_form(self):
        # v_k = diag(Sigma) * (1 - prod_{j<k} (1 - c2*eta0*eta_j)); c2*eta0*eta_j
        # starts above 1, so v overshoots diag(Sigma) before settling
        sched = Schedule((Segment("linear", 0.0, 2.0, 1.0, 0.2),), 2.0, (0.0, 0.0, 0.0))
        d = np.array([0.3, 1.0, 2.5])
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=3, seed=1, algorithm="adam",
                        c2=150.0)
        rep = simulate(isotropic_quadratic(3), NoiseModel(np.diag(d)), cfg)
        ts = np.minimum(np.arange(cfg.n_steps) * cfg.eta0, sched.S)
        etas = np.array([sched.value(t) for t in ts])
        prods = np.cumprod(1.0 - cfg.c2 * cfg.eta0 * etas)
        closed = float(np.min(np.outer(1.0 - prods, d)))
        assert closed < 1.5 * d.min()  # the minimum is not simply the first step
        assert rep.v_min == pytest.approx(closed, rel=1e-12)


class TestMemory:
    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_peak_allocation_is_one_noise_block(self, algorithm):
        dim, block = 16, 64
        cfg = SdeConfig(schedule=constant_schedule(0.5, 4.0), eta0=0.01, n_paths=3 * block,
                        seed=0, algorithm=algorithm, x0=np.full(dim, 1.2))
        obj, noise = double_well(dim), NoiseModel.isotropic(dim, 0.05)
        block_bytes = block * cfg.n_steps * dim * 8
        simulate(obj, noise, cfg, block_size=block)  # warm caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate(obj, noise, cfg, block_size=block)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * block_bytes
