"""Theory checks: the six suites of ``optlaws validate`` (:func:`run`) and
the checks of one ``simulate`` report (:func:`simulation_checks`).

SGD's weighted-average squared gradient is held against the gradient bound,
Adam's weighted-average squared momentum against the momentum bound, and a
Monte-Carlo mean (a frequency too, with its binomial standard error) passes
up to three standard errors above its bound.  Suite sizes depend only on
``quick`` and every draw on ``seed``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import sde
from .numerics import adaptive_simpson
from .schedule import build_general_schedule

__all__ = ["run", "simulation_checks"]


def _within_bound(stat, bound: float) -> bool:
    """A Monte-Carlo mean respects an upper bound up to three standard errors."""
    return bool(stat.mean <= bound + 3.0 * stat.std_err)


def _convergence_check(objective, noise, config, report):
    """(name, statistic, bound) of the convergence bound an ensemble must respect."""
    name, key = "gradient", "weighted_avg_grad_sq"
    if config.algorithm == "adam":
        name, key = "momentum", "weighted_avg_momentum_sq"
    return name, report.stats[key], sde.convergence_bound(objective, noise, config)[name]


def simulation_checks(objective, noise, config, report) -> tuple[dict, dict]:
    """The ``bounds`` and ``checks`` of a :func:`~optlaws.sde.simulate` report:
    its convergence bound by name, whether the ensemble respects it, and for
    Adam whether the second moment stayed nonnegative."""
    name, stat, bound = _convergence_check(objective, noise, config, report)
    checks = {f"{name}_bound_dominates": _within_bound(stat, bound)}
    if config.algorithm == "adam":
        checks["v_nonnegative"] = bool(report.v_min >= 0.0)
    return {name: bound}, checks


def run(seed: int, quick: bool) -> dict:
    """The six suites' results by name, and ``passed``: whether all passed."""
    rng = np.random.default_rng(seed)
    suites = {}

    # 1. closed-form integrals against adaptive Simpson on point evaluations
    n_sched = 8 if quick else 40
    worst = 0.0
    for _ in range(n_sched):
        S = float(rng.uniform(2.0, 50.0))
        a1, a2, a3 = np.sort(rng.uniform(0.0, S, size=3))
        h1, h2 = rng.uniform(0.05, 1.0, size=2)
        schedule = build_general_schedule(h1, h2, a1, a2, a3, S)
        # each segment's own rate: at a joint the schedule reads the next
        # segment, whose slope differs
        for functional, f in (
            ("eta", lambda seg, t: seg.value(t)),
            ("eta_sq", lambda seg, t: seg.value(t) ** 2),
            ("deta_sq", lambda seg, t: seg.derivative(t) ** 2),
        ):
            exact = schedule.integral(0.0, S, functional)
            approx = sum(
                adaptive_simpson(functools.partial(f, seg), seg.t0, seg.t1, tol=1e-12)
                for seg in schedule.segments
            )
            worst = max(worst, abs(exact - approx) / max(1.0, abs(exact)))
    suites["integral_consistency"] = {"max_rel_err": worst, "passed": bool(worst <= 1e-9)}

    # 2. Gaussian-approximation route agreement
    dim = 3
    A = rng.standard_normal((dim, dim))
    H = A @ A.T / dim + 0.3 * np.eye(dim)
    obj = sde.quadratic(H)
    noise = sde.NoiseModel(np.eye(dim) * 0.5, D=32)
    schedule = build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 5.0)
    grid = np.linspace(0.5, 5.0, 6)
    gaps = {algo: sde.gaussian_approx(obj, noise, schedule, np.zeros(dim), algo, grid,
                                      eta0=0.01).max_route_gap() for algo in ("sgd", "adam")}
    suites["gaussian_approx_routes"] = {
        "max_gap": max(gaps.values()),
        "per_algorithm": gaps,
        "passed": bool(max(gaps.values()) <= 1e-6),
    }

    # 3. convergence-bound domination on a quadratic
    dim = 8
    obj = sde.isotropic_quadratic(dim)
    noise = sde.NoiseModel.isotropic(dim, 0.05, D=64)
    x0 = np.full(dim, 1.0 / math.sqrt(dim))
    configs = {algo: sde.SdeConfig(schedule=schedule, eta0=0.01, n_paths=500 if quick else 2000,
                                   seed=seed, algorithm=algo, x0=x0) for algo in ("sgd", "adam")}
    reports = sde.simulate_many([(obj, config) for config in configs.values()], noise)
    detail = {}
    for (algo, config), rep in zip(configs.items(), reports):
        _, stat, bound = _convergence_check(obj, noise, config, rep)
        detail[algo] = {"empirical": stat.mean, "bound": bound,
                        "passed": _within_bound(stat, bound)}
    suites["bound_domination"] = {**detail, "passed": all(d["passed"] for d in detail.values())}

    # 4. anti-concentration: empirical mass near the mean stays under the bound
    samples = 10**4 if quick else 10**5
    ok = True
    cases = []
    for dim in (2, 8):
        variances = rng.uniform(0.2, 2.0, size=dim)
        tr = float(np.sum(variances))
        for frac in (0.05, 0.3):
            eps = frac * tr / math.e
            x = rng.standard_normal((samples, dim)) * np.sqrt(variances)
            emp = float(np.mean(np.sum(x * x, axis=1) <= eps))
            bound = sde.anti_concentration_bound(eps, tr)
            cases.append({"dim": dim, "eps": eps, "empirical": emp, "bound": bound})
            ok &= emp <= bound
    suites["anti_concentration"] = {"cases": cases, "passed": bool(ok)}

    # 5. trace concentration of the empirical covariance; each deviation
    # frequency is a binomial mean over the trials
    n_trials = 500 if quick else 2000
    rm = sde.random_matrix_checks(np.eye(32), D=32, N=32, n_trials=n_trials, seed=seed)
    freqs = [sde.StatSummary.binomial(f, n_trials) for f in rm.deviation_freq]
    passed = all(_within_bound(f, b) for f, b in zip(freqs, rm.bernstein))
    suites["random_matrix"] = {**rm.as_dict(), "passed": bool(passed)}

    # 6. trapping probability against the covariance-trace bound
    dim = 6
    obj = sde.isotropic_quadratic(dim)
    noise = sde.NoiseModel.isotropic(dim, 1.0, D=64)
    trap_sched = build_general_schedule(1.0, 1.0, 0.5, 0.5, 0.5, 2.0)
    P = sde.closed_form_covariance(obj.hessian_at(np.zeros(dim)), noise.Sigma_g, trap_sched,
                                   0.01, [2.0])
    trace = float(np.trace(P[0]))
    eps_list = tuple(f * trace for f in (0.01, 0.1, 0.5))
    config = sde.SdeConfig(schedule=trap_sched, eta0=0.01, n_paths=500 if quick else 2000,
                           seed=seed, algorithm="sgd", trap_eps=eps_list)
    rep = sde.simulate(obj, noise, config)
    cases = []
    for eps in eps_list:
        stat, bound = rep.trapping[eps], sde.anti_concentration_bound(eps, trace)
        cases.append({"eps": eps, "empirical": stat.mean, "bound": bound,
                      "passed": _within_bound(stat, bound)})
    suites["trapping_bound"] = {"cases": cases, "trace": trace,
                                "passed": all(c["passed"] for c in cases)}

    suites["passed"] = all(v["passed"] for k, v in suites.items() if k != "passed")
    return suites
