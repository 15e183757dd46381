import dataclasses
import math

import numpy as np
import pytest

from optlaws.schedule import build_general_schedule
from optlaws.sde import (
    NoiseModel,
    SdeConfig,
    anti_concentration_bound,
    convergence_bound,
    escape_bounds,
    isotropic_quadratic,
    sigma0,
    simulate,
)
from util import constant_schedule


NOISELESS = NoiseModel(np.zeros((4, 4)))


def run_config(schedule, eta0=0.01, **kwargs):
    return SdeConfig(schedule=schedule, eta0=eta0, n_paths=1, **kwargs)


class TestConvergenceBound:
    def test_sgd_constant_schedule_instantiation(self):
        # bound = (f0 - fmin)/(eta t) + eta0 L sigma0^2 N eta / 2
        eta, t, eta0 = 0.2, 5.0, 0.01
        obj = isotropic_quadratic(4, 1.5)
        noise = NoiseModel.isotropic(4, 0.3, D=64)
        x0 = np.full(4, 0.8)
        f0 = float(obj.value(x0))
        got = convergence_bound(obj, noise, run_config(constant_schedule(eta, t), eta0,
                                                       x0=x0))["gradient"]
        s0 = sigma0(noise, 4)
        expected = f0 / (eta * t) + eta0 * obj.L * s0**2 * 4 * eta / 2.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_sgd_noiseless_reduction(self):
        eta, t = 0.2, 5.0
        obj = isotropic_quadratic(4)
        x0 = np.full(4, math.sqrt(1.5))  # f0 = 3
        got = convergence_bound(obj, NOISELESS,
                                run_config(constant_schedule(eta, t), x0=x0))["gradient"]
        assert got == pytest.approx(3.0 / (eta * t), rel=1e-12)

    def test_start_defaults_to_the_minimum(self):
        # no x0: paths start at x*, so f0 = f_min and only the noise term is left
        eta, t = 0.2, 5.0
        obj = isotropic_quadratic(4)
        got = convergence_bound(obj, NOISELESS,
                                run_config(constant_schedule(eta, t)))["gradient"]
        assert got == 0.0

    def test_sigma0_formula(self):
        noise = NoiseModel.isotropic(16, 2.0, D=64)
        expected = math.sqrt(2.0) * math.sqrt((1.0 + math.sqrt(64 / 16)) + 1.0 / 16 ** (2 / 3))
        assert sigma0(noise, 16) == pytest.approx(expected, rel=1e-12)

    def test_objective_without_f_min_rejected(self):
        obj = dataclasses.replace(isotropic_quadratic(4), f_min=None)
        config = run_config(constant_schedule(0.2, 5.0))
        with pytest.raises(ValueError, match="no f_min"):
            convergence_bound(obj, NOISELESS, config)

    def test_adam_gradient_bound_without_ell_rejected(self):
        obj = isotropic_quadratic(4)  # a quadratic names no gradient-norm bound
        config = run_config(constant_schedule(0.2, 5.0), algorithm="adam")
        assert "gradient" not in convergence_bound(obj, NOISELESS, config)
        with pytest.raises(ValueError, match="needs ell"):
            convergence_bound(obj, NOISELESS, config, M=1.0)

    def test_adam_c2_at_four_c1_rejected(self):
        obj = isotropic_quadratic(4)
        config = run_config(constant_schedule(0.2, 5.0), algorithm="adam", c1=0.5, c2=2.0)
        with pytest.raises(ValueError, match="c2"):  # 1 - c2/(4 c1) = 0
            convergence_bound(obj, NOISELESS, config)

    def test_adam_stability_condition(self):
        obj = isotropic_quadratic(4)
        config = run_config(constant_schedule(0.2, 5.0), algorithm="adam", c1=1.0, c2=5.0)
        with pytest.raises(ValueError, match="c2"):
            convergence_bound(obj, NOISELESS, config)

    def test_adam_momentum_and_gradient_bounds(self):
        obj = isotropic_quadratic(4)
        noise = NoiseModel.isotropic(4, 0.1, D=64)
        sched = constant_schedule(0.2, 5.0)
        config = run_config(sched, x0=np.ones(4) * 0.7, algorithm="adam", eps=1e-2,
                            c1=1.0, c2=1.0)
        out = convergence_bound(dataclasses.replace(obj, ell=4.0), noise, config, M=1.0)
        assert out["momentum"] > 0.0
        assert out["gradient"] > out["momentum"]  # head term plus factor > 1

    def test_sgd_bound_dominates_small_ensemble(self):
        obj = isotropic_quadratic(8)
        noise = NoiseModel.isotropic(8, 0.05, D=64)
        sched = build_general_schedule(0.5, 0.5, 1.0, 1.0, 1.0, 4.0)
        x0 = np.full(8, 0.5)
        cfg = SdeConfig(schedule=sched, eta0=0.01, n_paths=500, seed=7, x0=x0)
        rep = simulate(obj, noise, cfg)
        bound = convergence_bound(obj, noise, cfg)["gradient"]
        stat = rep.stats["weighted_avg_grad_sq"]
        assert stat.mean <= bound + 3.0 * stat.std_err

    @pytest.mark.parametrize("size", [1, 3])
    def test_x0_of_the_wrong_shape_refused(self, size):
        # numpy would broadcast a length-1 x0 to every coordinate of f0's point
        sched = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0)
        config = run_config(sched, x0=np.ones(size))
        with pytest.raises(ValueError, match=fr"^x0 has shape \({size},\), but objective"):
            convergence_bound(isotropic_quadratic(4), NOISELESS, config)


class TestEscapeBounds:
    def test_zero_radius(self):
        out = escape_bounds(np.eye(3), 0.0)
        assert out.escape_lower == 1.0
        assert out.trapped_upper == 0.0
        assert not out.vacuous

    def test_boundary_of_validity(self):
        P = np.diag([1.0, 2.0])
        out = escape_bounds(P, np.trace(P) / math.e)
        assert out.trapped_upper == pytest.approx(1.0, rel=1e-12)
        assert out.escape_lower == pytest.approx(0.0, abs=1e-12)

    def test_vacuous_clipped_and_flagged(self):
        out = escape_bounds(np.eye(2), 10.0)
        assert out.trapped_upper == 1.0
        assert out.escape_lower == 0.0
        assert out.vacuous

    def test_monotonicity(self):
        P_small = 0.5 * np.eye(4)
        P_large = 2.0 * np.eye(4)
        eps_grid = np.linspace(0.01, 0.5, 8)
        prev = -1.0
        for eps in eps_grid:
            cur = escape_bounds(P_large, eps).trapped_upper
            assert cur >= prev
            prev = cur
            # larger trace -> smaller trapping bound at fixed eps
            assert escape_bounds(P_large, eps).trapped_upper <= escape_bounds(
                P_small, eps
            ).trapped_upper

    def test_asymptotic_order_expression(self):
        sched = build_general_schedule(0.5, 0.5, 1.0, 1.0, 1.0, 4.0)
        noise = NoiseModel.isotropic(3, 2.0)
        out = escape_bounds(np.eye(3), 0.1, schedule=sched, noise=noise)
        energy = sched.integral(0.0, 4.0, "deta_sq")
        expected = math.sqrt(0.1 * energy / (0.5**4 * 6.0))
        assert out.asymptotic_order == pytest.approx(expected, rel=1e-12)

    def test_order_tracks_epsilon_half_power(self):
        sched = build_general_schedule(0.5, 0.5, 1.0, 1.0, 1.0, 4.0)
        noise = NoiseModel.isotropic(3, 1.0)
        vals = [
            escape_bounds(np.eye(3), eps, schedule=sched, noise=noise).asymptotic_order
            for eps in (0.01, 0.04, 0.16)
        ]
        assert vals[1] / vals[0] == pytest.approx(2.0, rel=1e-12)
        assert vals[2] / vals[1] == pytest.approx(2.0, rel=1e-12)

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            escape_bounds(np.zeros((2, 2)), 0.1)


class TestAntiConcentration:
    def test_bound_formula(self):
        assert anti_concentration_bound(1.0, math.e) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("eps, trace, match", [
        (0.1, 0.0, "^trace must be positive$"),
        (0.1, -1.0, "^trace must be positive$"),
        (-0.1, 1.0, "^eps must be nonnegative$"),
    ], ids=["zero-trace", "negative-trace", "negative-eps"])
    def test_bad_input_rejected(self, eps, trace, match):
        with pytest.raises(ValueError, match=match):
            anti_concentration_bound(eps, trace)

    def test_empirical_mass_below_bound(self):
        rng = np.random.default_rng(23)
        for dim in (1, 4, 16):
            variances = rng.uniform(0.3, 2.0, size=dim)
            tr = float(np.sum(variances))
            x = rng.standard_normal((200_000, dim)) * np.sqrt(variances)
            sq = np.sum(x * x, axis=1)
            for frac in (0.02, 0.2, 0.9):
                eps = frac * tr / math.e
                emp = float(np.mean(sq <= eps))
                assert emp <= anti_concentration_bound(eps, tr)
