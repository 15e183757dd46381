import importlib
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from optlaws.schedule import Schedule, Segment, build_general_schedule, warmup_cosine_schedule
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
    simulate_many,
)
from optlaws.sde.simulate import DEFAULT_BLOCK_BYTES, _path_keys
from util import constant_schedule, reference_simulate

# the module, which the package's simulate function shadows as an attribute
simulate_module = importlib.import_module("optlaws.sde.simulate")


@pytest.fixture
def blocks(monkeypatch):
    """``blocks(paths, config, dim)`` makes the next runs step noise blocks
    of ``paths`` paths of ``config``'s steps at ``dim``, by setting the
    noise budget that sizes every block; None restores the default budget."""

    def set_budget(paths, config, dim):
        budget = DEFAULT_BLOCK_BYTES if paths is None else paths * config.n_steps * dim * 8
        monkeypatch.setattr(simulate_module, "DEFAULT_BLOCK_BYTES", budget)
    return set_budget


def first_path(keys, seed, n_paths):
    """The index of the path, of ``n_paths``, whose seed words are ``keys[0]``."""
    return int(np.flatnonzero((_path_keys(seed, 0, n_paths) == keys[0]).all(axis=1))[0])


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

    @pytest.mark.parametrize("H", [
        [[1.0, 0.5], [0.0, 1.0]],
        [[2.0, 1.0 + 5e-6], [1.0, 3.0]],  # inside numpy's default allclose rtol
    ], ids=["asymmetric", "nearly-symmetric"])
    def test_asymmetric_quadratic_rejected(self, H):
        with pytest.raises(ValueError, match="^H must be symmetric$"):
            quadratic(np.array(H))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_double_well_without_dimensions_rejected(self, dim):
        # dim 0 built a 0-dim objective; dim -1 warned from sqrt
        with pytest.raises(ValueError, match=f"^dim must be at least 1, got {dim}$"):
            double_well(dim)

    @pytest.mark.parametrize("lam", [0.7, 1.0, 3.0])
    def test_isotropic_gradient_equals_the_matrix_product(self, lam):
        x = np.random.default_rng(2).standard_normal((300, 8))
        got = isotropic_quadratic(8, lam).gradient(x)
        assert got.tobytes() == (x @ (lam * np.eye(8))).tobytes()

    def test_one_row_gradient_equals_its_row_in_a_block(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        obj = quadratic(A @ A.T / 8)
        x = rng.standard_normal((50, 8))
        block = obj.gradient(x)
        for i in range(len(x)):
            assert obj.gradient(x[i:i + 1]).tobytes() == block[i:i + 1].tobytes()
            assert obj.gradient(x[i]).tobytes() == block[i].tobytes()

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
        rep = simulate(obj, NoiseModel(np.zeros((4, 4))), cfg)
        for trace in rep.traces:
            grads = trace[:, 1]
            assert np.all(np.diff(grads) <= 1e-14)

    @pytest.mark.parametrize("eta0", [0.01, 0.06])  # 0.06: 17 steps end past S = 1
    def test_trace_array_and_times(self, eta0, blocks):
        sched = constant_schedule(0.5, 1.0)
        cfg = SdeConfig(schedule=sched, eta0=eta0, n_paths=7, seed=0, x0=np.ones(3),
                        record_traces=True)
        blocks(3, cfg, 3)
        rep = simulate(isotropic_quadratic(3), NoiseModel.isotropic(3, 0.1), cfg)
        n_steps = cfg.n_steps
        assert rep.traces.shape == (7, n_steps + 1, 2)
        assert rep.trace_t.shape == (n_steps + 1,)
        assert rep.trace_t[-1] == min(n_steps * eta0, sched.S)
        assert np.isfinite(rep.traces).all()
        plain = simulate(isotropic_quadratic(3), NoiseModel.isotropic(3, 0.1),
                         replace(cfg, record_traces=False))
        assert plain.traces is None and plain.trace_t is None

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
            simulate(obj, NoiseModel(np.zeros((2, 2))), cfg)
        assert "path 0" in str(err.value)

    @pytest.mark.parametrize("algorithm, stat", [("sgd", "weighted_avg_grad_sq"),
                                                 ("adam", "weighted_avg_momentum_sq")])
    def test_overflowing_statistic_is_named(self, algorithm, stat):
        # every path is finite, but the squares in the standard error overflow
        cfg = SdeConfig(schedule=constant_schedule(0.5, 1.0), eta0=0.01, n_paths=3, seed=0,
                        algorithm=algorithm)
        with pytest.raises(ValueError, match=f"^{stat} std_err is inf: .* overflow a double"):
            simulate(isotropic_quadratic(2), NoiseModel.isotropic(2, 1e250), cfg)

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_overflowing_weighted_sum_alone_diverges(self, algorithm):
        # one noiseless step from 1e-40 at curvature 1e200: g = 1e160 and the
        # next x are finite, but g*g overflows, so only the weighted sum of
        # ||grad f||^2, reduced after the last step, can flag the path
        cfg = SdeConfig(schedule=constant_schedule(1.0, 0.01), eta0=0.01, n_paths=3, seed=0,
                        algorithm=algorithm, x0=np.full(2, 1e-40))
        assert cfg.n_steps == 1
        for run in (reference_simulate, simulate):
            with pytest.raises(SimulationDiverged, match="path 0 "):
                run(isotropic_quadratic(2, 1e200), NoiseModel(np.zeros((2, 2))), cfg)

    def test_trap_eps_validation(self):
        sched = constant_schedule(0.1, 1.0)
        with pytest.raises(ValueError):
            SdeConfig(schedule=sched, eta0=0.01, n_paths=2, trap_eps=(0.0,))

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
    def test_non_finite_or_negative_trap_eps_refused(self, eps):
        sched = constant_schedule(0.1, 1.0)
        with pytest.raises(ValueError, match="trapping radius must be positive and finite"):
            SdeConfig(schedule=sched, eta0=0.01, n_paths=2, trap_eps=(0.5, eps))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_eta0_and_x0_refused(self, bad):
        sched = constant_schedule(0.1, 1.0)
        with pytest.raises(ValueError, match="eta0 must be positive and finite"):
            SdeConfig(schedule=sched, eta0=bad, n_paths=2)
        with pytest.raises(ValueError, match="x0 must be finite"):
            SdeConfig(schedule=sched, eta0=0.01, n_paths=2, x0=np.array([0.0, bad]))

    @pytest.mark.parametrize("size", [1, 3])
    def test_x0_of_the_wrong_shape_refused_before_any_buffer(self, size):
        # numpy would broadcast a length-1 x0 to every coordinate; 100k
        # paths would allocate megabytes of results
        obj, noise = isotropic_quadratic(4), NoiseModel.isotropic(4, 1.0)
        cfg = SdeConfig(schedule=constant_schedule(0.1, 1.0), eta0=0.01, n_paths=100_000,
                        seed=0, x0=np.ones(size))
        want = (fr"^x0 has shape \({size},\), but objective 'quadratic' "
                r"takes points of shape \(4,\)$")
        with pytest.raises(ValueError, match=want):
            simulate(obj, noise, cfg)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=want):
                simulate_many([(obj, cfg), (obj, replace(cfg, x0=None))], noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("field, value", [
        ("c1", -1.0), ("c1", math.nan), ("c1", math.inf), ("c2", -1.0), ("c2", math.nan),
        ("c2", math.inf), ("eps", math.nan), ("eps", math.inf),
    ])
    def test_bad_adam_constants_refused_by_name(self, field, value):
        # c1 = -1 and eps = inf gave a report, eps = inf one that never
        # moved; the others ended in SimulationDiverged, which blames eta0
        rule = "finite" if field == "eps" else "non-negative and finite"
        sched = constant_schedule(0.1, 1.0)
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
            SdeConfig(schedule=sched, eta0=0.01, n_paths=2, algorithm="adam", **{field: value})


    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", True), ("seed", 1.0), ("seed", -2**70),
        ("n_paths", 0), ("n_paths", 2**32), ("n_paths", True), ("n_paths", 3.0),
    ])
    def test_bad_seed_or_path_count_refused_at_once(self, field, value):
        # both are refused before any noise is drawn
        sched = constant_schedule(0.1, 1.0)
        kwargs = {"schedule": sched, "eta0": 0.01, "n_paths": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SdeConfig(**kwargs)

    def test_numpy_integer_seed_accepted(self):
        # the report holds plain ints, so it dumps to the same JSON
        cfg = SdeConfig(schedule=constant_schedule(0.1, 1.0), eta0=0.01, n_paths=3, seed=2**40)
        noise = NoiseModel.isotropic(2, 0.3)
        want = json.dumps(simulate(isotropic_quadratic(2), noise, cfg).as_dict())
        for field, value in (("seed", np.int64(2**40)), ("n_paths", np.uint64(3))):
            got = simulate(isotropic_quadratic(2), noise, replace(cfg, **{field: value}))
            assert json.dumps(got.as_dict()) == want


class TestPathStreams:
    """Path i's stream is SFC64 seeded by SeedSequence(seed, spawn_key=(i,))."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1,
                                      12345678901234567890123])
    def test_keys_equal_seed_sequence_state(self, seed):
        def seed_sequence_words(path):
            return np.random.SeedSequence(seed, spawn_key=(path,)).generate_state(3, np.uint64)

        keys = _path_keys(seed, 0, 2048)
        assert keys.dtype == np.uint64 and keys.shape == (2048, 3)
        np.testing.assert_array_equal(keys, [seed_sequence_words(i) for i in range(2048)])
        # the first 32-bit word is a bijection of the path index
        assert np.unique(keys[:, 0] & np.uint64(0xFFFFFFFF)).size == 2048
        for path in (2**31, 2**32 - 1):
            np.testing.assert_array_equal(_path_keys(seed, path, path + 1),
                                          [seed_sequence_words(path)])

    def test_one_sfc64_per_fill_thread(self, monkeypatch, blocks):
        # the seed words are derived once per group on the calling thread:
        # derived per share in the fill threads, they hold the GIL while
        # the other thread steps
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 3)
        built = {"SFC64": 0, "PCG64DXSM": 0, "Philox": 0, "SeedSequence": 0, "Generator": 0}

        def counting(name, make):
            def build(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)
            return build

        for name in built:
            monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
        monkeypatch.setattr(simulate_module, "_path_keys",
                            counting("_path_keys", simulate_module._path_keys))
        # groups of 32, 8 and 4 paths: 32, 125 and 125 groups
        for n_paths, block, groups in ((1000, 64, 32), (1000, 16, 125), (500, 8, 125)):
            built.update(dict.fromkeys(built, 0), _path_keys=0)
            cfg = SdeConfig(schedule=constant_schedule(0.5, 0.2), eta0=0.01, n_paths=n_paths,
                            seed=2**32 + 5)
            blocks(block, cfg, 3)
            simulate(isotropic_quadratic(3), NoiseModel.isotropic(3, 0.1), cfg)
            assert built == {"SFC64": 3, "PCG64DXSM": 0, "Philox": 0, "SeedSequence": 1,
                             "Generator": 3, "_path_keys": groups}, (n_paths, built)

    @pytest.mark.parametrize("seed", [7, 2**32 + 5])
    @pytest.mark.parametrize("first", [0, 1, 2**31, 2**32 - 2])
    def test_share_rows_are_the_path_streams(self, seed, first):
        # the last share n_paths allows ends at path 2**32 - 1
        z = np.empty((min(3, 2**32 - first), 5, 2))
        keys = _path_keys(seed, first, first + len(z))
        simulate_module._PathFill(np.random.SeedSequence(seed))(z, keys)
        for r, row in enumerate(z):
            assert row.tobytes() == path_rng(seed, first + r).standard_normal((5, 2)).tobytes()

    def test_streams_look_independent_normal(self):
        # two-sided: over 4,000 paths x 64 draws, each step's mean and
        # variance, and the correlation of adjacent paths at each step, lie
        # within 4 standard errors of 0, 1 and 0
        n, steps = 4000, 64
        z = np.empty((n, steps))
        simulate_module._PathFill(np.random.SeedSequence(0))(z, _path_keys(0, 0, n))
        mean_z = z.mean(axis=0) * math.sqrt(n)
        var_z = (z.var(axis=0, ddof=1) - 1.0) * math.sqrt((n - 1) / 2.0)
        corr_z = (z[1:] * z[:-1]).mean(axis=0) * math.sqrt(n - 1)
        for name, zs in (("mean", mean_z), ("variance", var_z), ("adjacent", corr_z)):
            assert np.abs(zs).max() <= 4.0, (name, np.abs(zs).max())


class TestNoiseModel:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_covariance_refused(self, bad):
        sigma = np.eye(3)
        sigma[1, 1] = bad
        with pytest.raises(ValueError, match="Sigma_g must be finite"):
            NoiseModel(sigma)
        with pytest.raises(ValueError, match="noise variance must be finite"):
            NoiseModel.isotropic(3, bad)

    @pytest.mark.parametrize("sigma, D, match", [
        (np.ones((2, 3)), 64, "^Sigma_g must be square$"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), 64, "^Sigma_g must be symmetric$"),
        (np.array([[2.0, 1.0 + 5e-6], [1.0, 3.0]]), 64, "^Sigma_g must be symmetric$"),
        (np.eye(2), 0, "^D must be at least 1$"),
    ], ids=["non-square", "asymmetric", "nearly-symmetric", "no-samples"])
    def test_malformed_noise_rejected(self, sigma, D, match):
        with pytest.raises(ValueError, match=match):
            NoiseModel(sigma, D=D)

    @pytest.mark.parametrize("make", [
        lambda: NoiseModel(np.zeros((0, 0))),
        lambda: NoiseModel.isotropic(0),
    ], ids=["matrix", "isotropic"])
    def test_empty_covariance_rejected(self, make):
        # both raised an IndexError from the PSD root
        with pytest.raises(ValueError, match="^Sigma_g must be nonempty$"):
            make()


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

    def test_v_recursion_runs_once_per_case(self, monkeypatch, blocks):
        # 40 paths in blocks of 6 make at least seven groups; each Adam case
        # runs v once, however many groups its paths are stepped in
        adam_v = simulate_module._adam_v
        calls = []

        def counting(config, *args):
            calls.append(config)
            return adam_v(config, *args)

        monkeypatch.setattr(simulate_module, "_adam_v", counting)
        base = SdeConfig(schedule=constant_schedule(0.5, 0.3), eta0=0.01, n_paths=40, seed=2,
                         x0=np.full(3, 1.3))
        cases = [(double_well(3), replace(base, algorithm="adam")), (double_well(3), base),
                 (isotropic_quadratic(3), replace(base, algorithm="adam", c2=3.0))]
        blocks(6, base, 3)
        simulate_many(cases, NoiseModel.isotropic(3, 0.1))
        assert calls == [cases[0][1], cases[2][1]]

    def test_zero_rate_freezes_adam(self):
        sched = constant_schedule(0.0, 1.0)
        obj = isotropic_quadratic(3)
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=4, seed=0,
                        algorithm="adam", x0=np.ones(3))
        rep = simulate(obj, NoiseModel.isotropic(3, 1.0), cfg)
        assert rep.stats["weighted_avg_momentum_sq"].mean == 0.0
        assert rep.stats["final_sq_dist"].mean == pytest.approx(3.0, rel=1e-14)


def exact_moments(lam, variance, config):
    """Exact means of one coordinate's share of ``weighted_avg_grad_sq``,
    ``weighted_avg_momentum_sq`` and ``final_sq_dist``, on lam*||x||^2/2
    under isotropic noise of ``variance``, from ``config.x0``'s first entry.

    Every coordinate follows one linear-Gaussian recursion of (x, m), with
    s = eta0*eta_k.  For SGD it is mu <- (1 - s*lam) mu and
    p <- (1 - s*lam)^2 p + s^2 variance.  For Adam it is the 2x2 one in
    simulate's update order: x moves with the old m over sqrt(v_k + eps),
    then m takes the gradient at the old x and the step's noise.
    """
    ts = np.minimum(np.arange(config.n_steps) * config.eta0, config.schedule.S)
    etas = config.schedule.value(ts)
    mean, cov, v = np.array([float(config.x0[0]), 0.0]), np.zeros((2, 2)), 0.0
    grad_sq = mom_sq = 0.0
    for eta_k in etas:
        s = config.eta0 * eta_k
        second = cov + np.outer(mean, mean)
        grad_sq += eta_k * lam**2 * second[0, 0]
        mom_sq += eta_k * second[1, 1]
        if config.algorithm == "adam":
            A = np.array([[1.0, -s / math.sqrt(v + config.eps)],
                          [config.c1 * s * lam, 1.0 - config.c1 * s]])
            b = np.array([0.0, config.c1_prime * eta_k * math.sqrt(config.eta0)])
            v -= config.c2 * s * (v - variance)
        else:
            A, b = np.array([[1.0 - s * lam, 0.0], [0.0, 0.0]]), np.array([-s, 0.0])
        mean = A @ mean
        cov = A @ cov @ A.T + variance * np.outer(b, b)
    weight = float(np.sum(etas))
    return {"weighted_avg_grad_sq": grad_sq / weight, "weighted_avg_momentum_sq": mom_sq / weight,
            "final_sq_dist": cov[0, 0] + mean[0] ** 2}


class TestExactMoments:
    """Two-sided: the Monte-Carlo means of the isotropic quadratic lie within
    4 standard errors of their exact values."""

    def test_criterion_08_quadratic_cases(self):
        # criterion 08's quadratic, noise and x0 on two of its schedules, at
        # 4,000 paths
        dim, lam, variance = 16, 1.0, 0.05
        base = SdeConfig(schedule=build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 4.0), eta0=0.01,
                         n_paths=4000, seed=41, x0=np.full(dim, 0.5))
        cases = [(isotropic_quadratic(dim, lam), replace(base, schedule=schedule, algorithm=algo))
                 for schedule in (base.schedule, warmup_cosine_schedule(0.7, 0.8, 4.0))
                 for algo in ("sgd", "adam")]
        reports = simulate_many(cases, NoiseModel.isotropic(dim, variance, D=64))
        for (_, config), rep in zip(cases, reports):
            for name, exact in exact_moments(lam, variance, config).items():
                if name in rep.stats:
                    stat = rep.stats[name]
                    z = (stat.mean - dim * exact) / stat.std_err
                    assert abs(z) <= 4.0, (config.algorithm, config.schedule.markers, name, z)


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

    def test_block_size_does_not_change_results(self, blocks):
        sched = build_general_schedule(0.5, 0.5, 0.5, 0.5, 0.5, 2.0)
        obj = isotropic_quadratic(4)
        noise = NoiseModel.isotropic(4, 0.3)
        cfg = SdeConfig(schedule=sched, eta0=0.02, n_paths=33, seed=9)
        blocks(5, cfg, 4)
        a = simulate(obj, noise, cfg)
        blocks(33, cfg, 4)
        b = simulate(obj, noise, cfg)
        for key in a.stats:
            assert a.stats[key] == b.stats[key]

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    @pytest.mark.parametrize("block, dim", [(13, 8), (1, 8), (40, 8), (13, 18)],
                             ids=["13", "1", "40", "13-dim18"])
    def test_dense_h_results_do_not_depend_on_blocks(self, algorithm, block, dim, blocks):
        # blocks of one path, and the last block of one path at 13, multiply
        # the gradient by H one row at a time, which numpy does by gemv; at
        # dim 18 a gemm row also rounds by how many rows share the product
        obj = dense_quadratic(dim)
        noise = NoiseModel.isotropic(dim, 0.3)
        cfg = SdeConfig(schedule=build_general_schedule(0.5, 0.5, 0.5, 0.5, 0.5, 2.0),
                        eta0=0.02, n_paths=40, seed=9, algorithm=algorithm,
                        x0=np.full(dim, 0.7), trap_eps=(0.05,), record_traces=True)
        blocks(block, cfg, dim)
        assert_same_report(simulate(obj, noise, cfg), reference_simulate(obj, noise, cfg))

    @pytest.mark.parametrize("dim", [8, 16, 32, 17, 18, 19, 25, 33])
    def test_correlated_noise_does_not_depend_on_blocks(self, dim, blocks):
        # one step in blocks of one path: each block's noise product over a
        # non-diagonal root has one row, which numpy multiplies by gemv; at
        # dims 17, 18, 19, 25 and 33 a gemm row also rounds by the row count
        objective, noise = correlated_system(dim)
        cfg = SdeConfig(schedule=constant_schedule(0.6, 0.01), eta0=0.01, n_paths=40, seed=5,
                        trap_eps=(0.05,), record_traces=True)
        assert cfg.n_steps == 1
        blocks(1, cfg, dim)
        assert_matches_reference(objective, noise, cfg)

    def test_path_streams_independent_of_order(self):
        draws_a = path_rng(7, 3).standard_normal(4)
        path_rng(7, 0).standard_normal(100)  # unrelated consumption
        draws_b = path_rng(7, 3).standard_normal(4)
        np.testing.assert_array_equal(draws_a, draws_b)


def assert_matches_reference(objective, noise, config):
    """simulate(), in the blocks its budget sizes, and the reference stepper,
    which steps every path as one block, agree bit for bit."""
    want = reference_simulate(objective, noise, config)
    got = simulate(objective, noise, config)
    assert_same_report(got, want)
    return got


def assert_same_report(got, want):
    """Two reports agree bit for bit: JSON and traces."""
    assert json.dumps(got.as_dict(), sort_keys=True) == json.dumps(want.as_dict(), sort_keys=True)
    if want.traces is None:
        assert got.traces is None and got.trace_t is None
    else:
        assert got.traces.shape == want.traces.shape
        assert got.trace_t.tobytes() == want.trace_t.tobytes()
        assert got.traces.tobytes() == want.traces.tobytes()


def dense_quadratic(dim):
    """A quadratic with a dense, well-conditioned Hessian."""
    A = np.random.default_rng(11).standard_normal((dim, dim))
    return quadratic(A @ A.T / dim + 0.5 * np.eye(dim))


def correlated_system(dim, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    return quadratic(A.T @ A / dim + 0.2 * np.eye(dim)), NoiseModel(A @ A.T / dim)


class TestReferenceStepper:
    SCHED = build_general_schedule(0.8, 0.5, 0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_non_diagonal_noise(self, algorithm, blocks):
        obj, noise = correlated_system(5)
        assert np.any(noise.root - np.diag(np.diag(noise.root)))
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=37, seed=4,
                        algorithm=algorithm, trap_eps=(0.01, 0.1))
        blocks(7, cfg, 5)
        assert_matches_reference(obj, noise, cfg)

    def test_adam_with_tracking(self, blocks):
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=40, seed=3,
                        algorithm="adam", c1=2.0, c2=3.0, x0=np.full(4, 1.3),
                        record_traces=True)
        noise = NoiseModel(np.diag([0.3, 0.05, 1.2, 0.7]))
        blocks(11, cfg, 4)
        rep = assert_matches_reference(double_well(4), noise, cfg)
        assert len(rep.traces) == 40

    @pytest.mark.parametrize("block", [1, 6, 13, 53, None])
    def test_odd_block_sizes(self, block, blocks):
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=53, seed=8,
                        record_traces=True, trap_eps=(0.5,))
        blocks(block, cfg, 4)
        assert_matches_reference(double_well(4), NoiseModel.isotropic(4, 0.1), cfg)

    @pytest.mark.parametrize("block", [1, 13])
    def test_two_word_seed(self, block, blocks):
        # the reference draws through path_rng, so this checks the per-path counters
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=29, seed=2**32 + 5,
                        trap_eps=(0.5,))
        blocks(block, cfg, 4)
        assert_matches_reference(double_well(4), NoiseModel.isotropic(4, 0.1), cfg)

    # the first two diverge first in the second block of 9 paths
    @pytest.mark.parametrize("algorithm, variance, eta0, c2, path, seed", [
        ("sgd", 10.0, 0.14, 1.0, 13, 28),
        ("adam", 0.5, 0.15, 1.0, 12, 28),
        ("adam", 0.1, 0.01, 400.0, 0, 0),  # v itself overflows
    ])
    def test_diverging_run_names_the_same_path(self, algorithm, variance, eta0, c2, path, seed,
                                                blocks):
        cfg = SdeConfig(schedule=constant_schedule(1.0, 10.0), eta0=eta0, n_paths=40,
                        seed=seed, algorithm=algorithm, c2=c2, x0=np.ones(3))
        noise = NoiseModel.isotropic(3, variance)
        blocks(9, cfg, 3)
        for run in (reference_simulate, simulate):
            with pytest.raises(SimulationDiverged) as err:
                run(double_well(3), noise, cfg)
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


class TestStepRates:
    @pytest.mark.parametrize("schedule", [
        build_general_schedule(0.9, 0.3, 0.5, 2.25, 4.0, 6.0),
        Schedule((Segment("linear", 0.0, 0.75, 0.0, 0.7), Segment("cosine", 0.75, 6.0, 0.7, 0.0)),
                 6.0, (0.75, 0.75, 0.75)),
    ])
    def test_rates_equal_pointwise_lookup(self, schedule):
        # step times land on every joint; the ensemble's eta weight sums the
        # same rates the scalar lookup gives
        cfg = SdeConfig(schedule=schedule, eta0=0.25, n_paths=2, seed=0)
        ts = np.minimum(np.arange(cfg.n_steps) * cfg.eta0, schedule.S)
        assert {seg.t0 for seg in schedule.segments} <= set(ts.tolist())
        pointwise = np.array([schedule.value(t) for t in ts])
        assert schedule.value(ts).tolist() == pointwise.tolist()
        rep = simulate(isotropic_quadratic(2), NoiseModel.isotropic(2, 0.05), cfg)
        assert rep.eta_weight == float(np.sum(pointwise)) * cfg.eta0

    def test_too_many_steps_refused_before_allocating(self):
        # a 512 MB noise row per path: refused before any step array exists
        dim = 16
        cfg = SdeConfig(schedule=constant_schedule(0.5, 4.0), eta0=1e-6, n_paths=2)
        assert cfg.n_steps * dim * 8 > DEFAULT_BLOCK_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n_steps = {cfg.n_steps}"):
                simulate(isotropic_quadratic(dim), NoiseModel.isotropic(dim, 0.05), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMemory:
    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_peak_allocation_is_one_noise_block(self, algorithm, blocks):
        dim, block = 16, 64
        cfg = SdeConfig(schedule=constant_schedule(0.5, 4.0), eta0=0.01, n_paths=3 * block,
                        seed=0, algorithm=algorithm, x0=np.full(dim, 1.2))
        obj, noise = double_well(dim), NoiseModel.isotropic(dim, 0.05)
        block_bytes = block * cfg.n_steps * dim * 8
        blocks(block, cfg, dim)
        simulate(obj, noise, cfg)  # warm caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate(obj, noise, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * block_bytes

    def test_stepping_arrays_start_on_a_cache_line(self, monkeypatch):
        # the heap aligns to 16 bytes only; a misaligned start slowed the
        # double-well Adam case by 7%
        real, made = simulate_module._cache_aligned_empty, []

        def spy(shape):
            made.append(real(shape))
            return made[-1]

        monkeypatch.setattr(simulate_module, "_cache_aligned_empty", spy)
        cfg = SdeConfig(schedule=constant_schedule(0.5, 1.0), eta0=0.01, n_paths=5, seed=0)
        simulate(double_well(3), NoiseModel.isotropic(3, 0.05), cfg)
        (arrays,) = made
        assert arrays.shape[::2] == (6, 3) and arrays.flags.c_contiguous  # (6, group, dim)
        assert arrays.ctypes.data % 64 == 0


class TestSimulateMany:
    SCHEDULES = (build_general_schedule(0.8, 0.5, 0.2, 0.4, 0.7, 1.0),
                 warmup_cosine_schedule(0.7, 0.3, 1.0))

    def mixed_cases(self, dim):
        """sgd and adam, quadratic and double well, two schedules, two x0 and
        traces, all on one seed, path count and step count."""
        a, b = self.SCHEDULES
        base = SdeConfig(schedule=a, eta0=0.01, n_paths=29, seed=6, trap_eps=(0.01, 0.1))
        return [
            (isotropic_quadratic(dim), replace(base, record_traces=True)),
            (double_well(dim), replace(base, schedule=b, algorithm="adam",
                                       x0=np.full(dim, 1.3))),
            (double_well(dim), replace(base, schedule=b, x0=np.full(dim, 1.3))),
            (isotropic_quadratic(dim), replace(base, algorithm="adam", c1=2.0, c2=3.0,
                                               x0=np.full(dim, 0.5), record_traces=True)),
        ]

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "correlated"])
    @pytest.mark.parametrize("block", [1, 13, None])  # None: all 29 paths in one block
    def test_each_case_equals_its_own_simulate(self, diagonal, block, blocks):
        dim = 4
        noise = NoiseModel(np.diag([0.3, 0.05, 1.2, 0.7])) if diagonal else correlated_system(dim)[1]
        cases = self.mixed_cases(dim)
        blocks(block, cases[0][1], dim)
        reports = simulate_many(cases, noise)
        assert len(reports) == len(cases)
        for (objective, config), got in zip(cases, reports):
            assert_same_report(got, simulate(objective, noise, config))
            assert_same_report(got, reference_simulate(objective, noise, config))

    @pytest.mark.parametrize("change", ["seed", "n_paths", "n_steps", "dim", "empty"])
    def test_mismatched_cases_refused_before_allocating(self, change):
        # 10k paths x 400 steps x dim 16: a single noise block is 64 MB
        dim = 16
        noise = NoiseModel.isotropic(dim, 0.05)
        first = (isotropic_quadratic(dim),
                 SdeConfig(schedule=constant_schedule(0.5, 4.0), eta0=0.01, n_paths=10_000,
                           seed=108))
        objective, config = first
        other, match = {
            "seed": ((objective, replace(config, seed=109)), "seed 109"),
            "n_paths": ((objective, replace(config, n_paths=9_999)), "n_paths 9999"),
            "n_steps": ((objective, replace(config, eta0=0.02)), "n_steps 200"),
            "dim": ((isotropic_quadratic(dim + 1), config), "objective dim 17"),
            "empty": (None, "at least one"),
        }[change]
        cases = [] if other is None else [first, first, other]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                simulate_many(cases, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # the first two diverge first in the second block of 9 paths
    @pytest.mark.parametrize("algorithm, variance, eta0, c2, path, seed", [
        ("sgd", 10.0, 0.14, 1.0, 13, 28),
        ("adam", 0.5, 0.15, 1.0, 12, 28),
        ("adam", 0.1, 0.01, 400.0, 0, 0),  # v itself overflows
    ])
    def test_diverging_case_names_its_own_path(self, algorithm, variance, eta0, c2, path, seed,
                                               blocks):
        noise = NoiseModel.isotropic(3, variance)
        bad = SdeConfig(schedule=constant_schedule(1.0, 10.0), eta0=eta0, n_paths=40, seed=seed,
                        algorithm=algorithm, c2=c2, x0=np.ones(3))
        calm = replace(bad, schedule=constant_schedule(0.0, 10.0))  # frozen: never diverges
        blocks(9, bad, 3)
        with pytest.raises(SimulationDiverged) as alone:
            simulate(double_well(3), noise, bad)
        with pytest.raises(SimulationDiverged) as err:
            simulate_many([(double_well(3), calm), (double_well(3), bad),
                           (double_well(3), calm)], noise)
        assert err.value.path_index == alone.value.path_index == path

    DIM, BLOCK = 16, 64
    BASE = SdeConfig(schedule=constant_schedule(0.5, 4.0), eta0=0.01, n_paths=3 * BLOCK,
                     seed=0, x0=np.full(DIM, 1.2))

    def assert_peak_is_one_noise_block(self, cases, blocks):
        dim, block = self.DIM, self.BLOCK
        noise = NoiseModel.isotropic(dim, 0.05)
        block_bytes = block * self.BASE.n_steps * dim * 8
        blocks(block, self.BASE, dim)
        simulate_many(cases, noise)  # warm caches outside the trace
        tracemalloc.start()
        try:
            base_mem = tracemalloc.get_traced_memory()[0]
            simulate_many(cases, noise)
            peak = tracemalloc.get_traced_memory()[1] - base_mem
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * block_bytes

    def test_peak_allocation_is_one_noise_block(self, blocks):
        dim, base = self.DIM, self.BASE
        self.assert_peak_is_one_noise_block([
            (double_well(dim), base),
            (double_well(dim), replace(base, algorithm="adam")),
            (isotropic_quadratic(dim), replace(base, schedule=warmup_cosine_schedule(0.5, 1.0, 4.0),
                                               algorithm="adam")),
        ], blocks)

    def test_peak_allocation_with_twelve_cases_is_one_noise_block(self, blocks):
        # criterion 08's mix of twelve cases over one fill
        dim, base = self.DIM, self.BASE
        schedules = (base.schedule, warmup_cosine_schedule(0.5, 1.0, 4.0),
                     build_general_schedule(0.6, 0.6, 0.5, 0.5, 2.5, 4.0))
        self.assert_peak_is_one_noise_block([
            (objective, replace(base, schedule=schedule, algorithm=algorithm))
            for objective in (isotropic_quadratic(dim), double_well(dim))
            for schedule in schedules for algorithm in ("sgd", "adam")
        ], blocks)


class TestFillThreads:
    """The noise is filled across threads, one group of paths while the
    group before is stepped, without moving a float."""

    SCHED = build_general_schedule(0.8, 0.5, 0.5, 1.0, 1.5, 2.0)

    @pytest.fixture(params=[1, 2, 3, 7])
    def threads(self, request, monkeypatch):
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("case", [
        "sgd", "adam_tracked_traced", "sgd_correlated", "adam_correlated", "partial_last_block",
        "one_path",
    ])
    def test_reports_match_reference(self, threads, case, blocks):
        dim = 4
        noise = NoiseModel(np.diag([0.3, 0.05, 1.2, 0.7]))
        objective = double_well(dim)
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=23, seed=5, trap_eps=(0.5,),
                        x0=np.full(dim, 1.3))
        block = 9  # blocks of 9, 9 and 5 paths
        if case == "adam_tracked_traced":
            cfg = replace(cfg, algorithm="adam", c1=2.0, c2=3.0, record_traces=True)
        elif case.endswith("correlated"):
            objective, noise = correlated_system(dim)
            cfg = replace(cfg, algorithm=case.split("_")[0], x0=None)
        elif case == "partial_last_block":
            cfg = replace(cfg, n_paths=12)  # the last block has 2 paths
            block = 5
        elif case == "one_path":
            cfg = replace(cfg, n_paths=1)
            block = None
        blocks(block, cfg, dim)
        assert_matches_reference(objective, noise, cfg)

    @pytest.mark.parametrize("n_fill", [1, 2])
    def test_dense_h_dim18_matches_reference(self, n_fill, monkeypatch, blocks):
        # dim 18, where a gemm row rounds by the number of rows in the
        # product: one fill thread steps groups of 9, two threads groups of 5
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: n_fill)
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=23, seed=5, trap_eps=(0.5,),
                        x0=np.full(18, 0.7), record_traces=True)
        blocks(9, cfg, 18)
        assert_matches_reference(dense_quadratic(18), NoiseModel.isotropic(18, 0.3), cfg)

    def test_diverging_run_names_the_same_path(self, threads):
        # path 36 of one 40-path block diverges first: a later share than
        # the calling thread's at every thread count above 1
        objective = double_well(3)
        cfg = SdeConfig(schedule=build_general_schedule(1.0, 1.0, 0.0, 0.0, 0.0, 10.0),
                        eta0=0.14, n_paths=40, seed=27, x0=objective.x_star + np.ones(3) / 3**0.5)
        noise = NoiseModel.isotropic(3, 9.0)
        for run in (reference_simulate, simulate):
            with pytest.raises(SimulationDiverged) as err:
                run(objective, noise, cfg)
            assert err.value.path_index == 36

    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    @pytest.mark.parametrize("case", ["sgd", "adam_tracked_traced", "correlated"])
    def test_step_counts_match_reference(self, threads, n_steps, case, blocks):
        dim = 3
        objective, noise = double_well(dim), NoiseModel(np.diag([0.3, 0.05, 1.2]))
        cfg = SdeConfig(schedule=constant_schedule(0.6, 0.01 * n_steps), eta0=0.01, n_paths=23,
                        seed=8, trap_eps=(0.5,), x0=np.full(dim, 1.3))
        assert cfg.n_steps == n_steps
        if case == "adam_tracked_traced":
            cfg = replace(cfg, algorithm="adam", c1=2.0, c2=3.0, record_traces=True)
        elif case == "correlated":
            objective, noise = correlated_system(dim)
            cfg = replace(cfg, algorithm="adam", x0=None)
        for block in (9, None):  # blocks of 9, 9 and 5 paths; one block
            blocks(block, cfg, dim)
            assert_matches_reference(objective, noise, cfg)

    def test_halves_longer_than_the_scale_rows_match_reference(self, threads, blocks):
        # 1,030 steps: rows past the 512 steps the scale is tiled to
        cfg = SdeConfig(schedule=constant_schedule(0.3, 10.3), eta0=0.01, n_paths=9, seed=3)
        assert cfg.n_steps == 1030
        blocks(4, cfg, 2)
        assert_matches_reference(isotropic_quadratic(2), NoiseModel(np.diag([0.4, 1.5])), cfg)

    @pytest.mark.parametrize("block", [None, 8])
    def test_path_diverging_in_the_second_half_is_named(self, threads, block, blocks):
        # the rate is zero until t = 4.95, so every path is still at x0 half
        # way through the 71 steps; path 36 is the first to diverge after
        # that, in the last of five blocks of 8
        objective = double_well(3)
        schedule = Schedule((Segment("constant", 0.0, 4.95, 0.0, 0.0),
                             Segment("linear", 4.95, 5.0, 0.0, 1.0),
                             Segment("constant", 5.0, 10.0, 1.0, 1.0)), 10.0, (5.0, 5.0, 5.0))
        cfg = SdeConfig(schedule=schedule, eta0=0.14, n_paths=40, seed=12,
                        x0=objective.x_star + np.ones(3) / 3**0.5)
        assert cfg.n_steps == 71 and not schedule.value(np.arange(35) * cfg.eta0).any()
        noise = NoiseModel.isotropic(3, 6.0)
        blocks(block, cfg, 3)
        for run in (reference_simulate, simulate):
            with pytest.raises(SimulationDiverged) as err:
                run(objective, noise, cfg)
            assert err.value.path_index == 36

    def test_a_second_fill_thread_halves_the_buffers(self, monkeypatch, blocks):
        # one buffer of the block's paths with one fill thread, else two of
        # half as many (rounded up): every share is a view of those buffers
        fill = simulate_module._PathFill.__call__
        shapes = set()

        def recording(self, z, keys):
            shapes.add(z.base.shape)
            fill(self, z, keys)

        monkeypatch.setattr(simulate_module._PathFill, "__call__", recording)
        cfg = SdeConfig(schedule=constant_schedule(0.5, 0.05), eta0=0.01, n_paths=23, seed=0)
        for cpus, block, buffers in ((1, 9, (1, 9)), (2, 9, (2, 5)), (2, 8, (2, 4)),
                                     (3, 1, (1, 1)), (7, 2, (2, 1))):
            monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: cpus)
            blocks(block, cfg, 2)
            shapes.clear()
            simulate(isotropic_quadratic(2), NoiseModel.isotropic(2, 0.1), cfg)
            assert shapes == {(*buffers, cfg.n_steps, 2)}, (cpus, block)

    def test_shares_survive_fast_thread_switching(self, monkeypatch, blocks):
        # seven fill threads on fewer cores, switching every microsecond: a
        # share drawn twice or lost, or drawn into the wrong buffer, would
        # move a float
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 7)
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=61, seed=12, algorithm="adam",
                        x0=np.full(3, 1.3))
        objective, noise = double_well(3), NoiseModel.isotropic(3, 0.2)
        want = reference_simulate(objective, noise, cfg)
        blocks(25, cfg, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate(objective, noise, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert_same_report(got, want)

    def test_worker_error_reaches_the_caller(self, monkeypatch, blocks):
        fill = simulate_module._PathFill.__call__

        def failing(self, z, keys):
            # path 17 fails, whichever thread draws it
            first = first_path(keys, seed=1, n_paths=30)
            if first <= 17 < first + len(z):
                raise OSError("fill failed at path 17")
            fill(self, z, keys)

        cfg = SdeConfig(schedule=self.SCHED, eta0=0.01, n_paths=30, seed=1)
        noise = NoiseModel.isotropic(2, 0.1)
        blocks(12, cfg, 2)
        before = threading.active_count()
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(simulate_module._PathFill, "__call__", fill)
            simulate(isotropic_quadratic(2), noise, cfg)
            assert threading.active_count() == before
            monkeypatch.setattr(simulate_module._PathFill, "__call__", failing)
            with pytest.raises(OSError, match="fill failed at path 17"):
                simulate(isotropic_quadratic(2), noise, cfg)
            assert threading.active_count() == before, cpus

    def test_divergence_during_a_fill_joins_the_pool(self, monkeypatch, blocks):
        # 23 paths in blocks of 9, so in groups of 5: group 0 diverges (path
        # 0) while the pool fills group 1, slowed down so it is still filling
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 3)
        fill = simulate_module._PathFill.__call__
        started = []

        def slow(self, z, keys):
            first = first_path(keys, seed=0, n_paths=23)
            if first >= 5:
                started.append(first)
                time.sleep(0.02)
            fill(self, z, keys)

        cfg = SdeConfig(schedule=constant_schedule(1.0, 2.0), eta0=0.3, n_paths=23, seed=0,
                        x0=np.full(3, 50.0))
        blocks(9, cfg, 3)
        before = threading.active_count()
        monkeypatch.setattr(simulate_module._PathFill, "__call__", slow)
        with pytest.raises(SimulationDiverged) as err:
            simulate(double_well(3), NoiseModel.isotropic(3, 0.1), cfg)
        assert err.value.path_index == 0 and started
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus, n_paths, want", [(64, 100, 8), (64, 5, 5), (2, 100, 2)])
    def test_thread_count(self, monkeypatch, cpus, n_paths, want):
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: cpus)
        built = []

        class Counted(simulate_module._PathFill):
            def __init__(self, seed_seq):
                built.append(self)
                super().__init__(seed_seq)

        monkeypatch.setattr(simulate_module, "_PathFill", Counted)
        cfg = SdeConfig(schedule=self.SCHED, eta0=0.1, n_paths=n_paths, seed=1)
        simulate(isotropic_quadratic(2), NoiseModel.isotropic(2, 0.1), cfg)
        assert len(built) == want
