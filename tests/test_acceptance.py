"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion.  Tolerances are stated inline; timed criteria assert their
runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from optlaws.cli import main as cli_main
from optlaws.divergence import DEFAULT_PARAMS, criterion_R, critical_rate
from optlaws.features import collapsed_markers, compute_features, default_markers
from optlaws.law import (
    REFERENCE_COEFFICIENTS,
    RunConfig,
    fit,
    predict,
    prop1_gap,
    unit_simple_law,
)
from optlaws.numerics import adaptive_simpson
from optlaws.schedule import (
    FUNCTIONALS,
    build_general_schedule,
    warmup_cosine_schedule,
    warmup_const_cooldown_schedule,
)
from optlaws.sde import (
    NoiseModel,
    SdeConfig,
    anti_concentration_bound,
    closed_form_covariance,
    convergence_bound,
    double_well,
    gaussian_approx,
    integrate_covariance_ode,
    isotropic_quadratic,
    quadratic,
    random_matrix_checks,
    simulate,
    simulate_many,
)
from test_features import const_family_expected, linear_family_expected
from util import make_grid_records, random_four_phase


def report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_01_integral_algebra():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_quad = 0.0
    worst_add = 0.0
    for _ in range(200):
        s = random_four_phase(rng)
        fns = {
            "eta": s.value,
            "eta_sq": lambda t: s.value(t) ** 2,
            "deta_sq": lambda t: s.derivative(t) ** 2,
        }
        for functional in FUNCTIONALS:
            exact = s.integral(0.0, s.S, functional)
            approx = sum(
                adaptive_simpson(fns[functional], seg.t0, seg.t1, tol=1e-12)
                for seg in s.segments
            )
            worst_quad = max(worst_quad, abs(exact - approx) / max(1.0, abs(exact)))
        for _ in range(5):
            u, w = np.sort(rng.uniform(0.0, s.S, size=2))
            v = float(rng.uniform(u, w))
            for functional in FUNCTIONALS:
                whole = s.integral(u, w, functional)
                split = s.integral(u, v, functional) + s.integral(v, w, functional)
                worst_add = max(worst_add, abs(whole - split) / max(1.0, abs(whole)))
    elapsed = time.monotonic() - start
    assert worst_quad <= 1e-9
    assert worst_add <= 1e-12
    assert elapsed < 5.0
    report("01 integral-algebra",
           f"quad err {worst_quad:.2e}, additivity {worst_add:.2e}, {elapsed:.2f}s")


def test_criterion_02_reference_family_closed_forms():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        S = float(rng.uniform(2.0, 100.0))
        a = float(rng.uniform(0.02, 0.8)) * S
        h = float(rng.uniform(0.05, 1.0))
        N = float(rng.uniform(0.05, 8.0))
        sched = build_general_schedule(h, h, a, a, a, S)
        got = np.array(compute_features(sched, default_markers(sched), N).values)
        want = np.array(linear_family_expected(a, h, S, N))
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    for _ in range(20):
        S = float(rng.uniform(2.0, 100.0))
        a1 = float(rng.uniform(0.02, 0.4)) * S
        a2 = float(rng.uniform(a1 / S + 0.05, 0.9)) * S
        h = float(rng.uniform(0.05, 1.0))
        N = float(rng.uniform(0.05, 8.0))
        sched = warmup_const_cooldown_schedule(h, a1, a2, S)
        got = np.array(compute_features(sched, collapsed_markers(sched), N).values)
        want = np.array(const_family_expected(a1, a2, h, S, N))
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-12
    report("02 reference-family-closed-forms", f"max rel err {worst:.2e}")


def _nine_by_eight_grid(noise_rel, rng=None):
    return make_grid_records(
        warm_fracs=np.linspace(0.03, 0.6, 9),
        peak_rates=np.linspace(0.08, 0.9, 8),
        token_sizes=(3.0, 6.0, 10.0, 30.0),
        model_sizes=(0.58, 4.05),
        noise_rel=noise_rel,
        rng=rng,
    )


def test_criterion_03_fit_quality_reproduction():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    records = _nine_by_eight_grid(noise_rel=1e-3, rng=rng)
    assert len(records) == 9 * 8 * 4 * 2
    train = [r for i, r in enumerate(records) if i % 3 != 0]
    hold = [r for i, r in enumerate(records) if i % 3 == 0]
    law = fit(train)
    rels = []
    for r in hold:
        pred = predict(law, RunConfig(schedule=r.normalized_schedule(), N=r.model_B))["loss"]
        rels.append(abs(pred - r.loss) / r.loss)
    mean_rel = float(np.mean(rels))
    elapsed = time.monotonic() - start
    assert mean_rel <= 5e-3
    assert elapsed < 10.0
    report("03 fit-quality-reproduction",
           f"mean holdout rel err {mean_rel:.2e}, {elapsed:.2f}s")


def test_criterion_04_noiseless_oracle_recovery():
    records = _nine_by_eight_grid(noise_rel=0.0)
    law = fit(records)
    max_abs = float(np.max(np.abs(np.array(law.c) - REFERENCE_COEFFICIENTS)))
    assert max_abs <= 1e-6
    assert law.residual_rms <= 1e-10
    report("04 noiseless-oracle-recovery",
           f"max-abs coeff err {max_abs:.2e}, residual rms {law.residual_rms:.2e}")


def test_criterion_05_asymptotic_schedule_gap():
    law = unit_simple_law()
    svals = (1e2, 1e4, 1e6, 1e8)
    gaps = [prop1_gap(law, 0.01, 0.85, S) for S in svals]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2 * gaps[0]
    report("05 asymptotic-schedule-gap",
           "gaps " + ", ".join(f"{g:.3e}" for g in gaps))


def test_criterion_06_divergence_criterion():
    rng = np.random.default_rng(106)
    p = DEFAULT_PARAMS
    worst = 0.0
    for _ in range(100):
        eta = float(rng.uniform(0.01, 1.0))
        a1 = float(rng.uniform(0.05, 50.0))
        n = float(rng.uniform(0.02, 10.0))
        s = float(rng.uniform(1.0, 500.0))
        res = criterion_R(eta, a1, n, s)
        # independent arithmetic, written differently on purpose
        ssq, asq = s * s, a1 * a1
        thr = (p.c1_hat / p.c2_hat) * math.exp(
            p.alpha1_hat * math.log(ssq) - p.alpha2_hat * math.log(n)
        )
        eta_l = eta if eta < thr else thr
        r_oracle = ssq * (eta - eta_l) ** 2 / (p.c3_hat * asq * eta_l * eta_l)
        if r_oracle == 0.0:
            assert res.R == 0.0
        else:
            worst = max(worst, abs(res.R - r_oracle) / r_oracle)
    assert worst <= 1e-12

    # zero whenever the peak sits at or below the critical rate
    for _ in range(50):
        n = float(rng.uniform(0.1, 8.0))
        s = float(rng.uniform(2.0, 300.0))
        thr = critical_rate(n, s)
        eta = float(rng.uniform(0.0, 1.0)) * thr
        if eta > 0:
            assert criterion_R(eta, 1.0, n, s).R == 0.0

    etas = np.linspace(0.05, 1.0, 50)
    warms = np.linspace(0.2, 40.0, 50)
    grid = np.array([[criterion_R(e, a, 4.05, 100.0).R for e in etas] for a in warms])
    assert np.all(np.diff(grid, axis=1) >= -1e-15)  # non-decreasing in eta_max
    assert np.all(np.diff(grid, axis=0) <= 1e-15)  # non-increasing in warmup
    report("06 divergence-criterion", f"max oracle rel err {worst:.2e}")


def test_criterion_07_gaussian_approximation():
    start = time.monotonic()
    rng = np.random.default_rng(107)
    schedules = [
        build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 6.0),
        warmup_cosine_schedule(0.7, 0.8, 6.0),
        build_general_schedule(0.9, 0.4, 0.5, 2.0, 4.0, 6.0),
    ]
    grid = np.linspace(0.25, 6.0, 50)
    worst_sgd = 0.0
    H = np.stack([
        (lambda a: a @ a.T / 8 + 0.3 * np.eye(8))(rng.standard_normal((8, 8)))
        for _ in range(8)
    ])
    Sg = np.stack([
        (lambda a: a @ a.T / 8 + 0.1 * np.eye(8))(rng.standard_normal((8, 8)))
        for _ in range(8)
    ])
    for sched in schedules:
        po = integrate_covariance_ode(H, Sg, sched, 0.01, grid)
        pc = closed_form_covariance(H, Sg, sched, 0.01, grid)
        for a, b in zip(po, pc):
            worst_sgd = max(worst_sgd, float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))))
    assert worst_sgd <= 1e-6

    # scalar Ornstein-Uhlenbeck against the analytic covariance
    lam, eta, eta0, sigma2 = 1.3, 0.1, 0.01, 0.7
    from optlaws.schedule import Schedule, Segment

    ou_sched = Schedule((Segment("constant", 0.0, 40.0, eta, eta),), 40.0, (0, 0, 0))
    ga = gaussian_approx(
        quadratic(np.array([[lam]])), NoiseModel(np.array([[sigma2]])), ou_sched,
        np.zeros(1), "sgd", [5.0, 10.0, 20.0, 40.0], eta0=eta0,
    )
    worst_ou = 0.0
    for t, po_t, pc_t in zip(ga.t_grid, ga.P_ode, ga.P_closed):
        analytic = eta0 * eta**2 * sigma2 * (1 - math.exp(-2 * lam * eta * t)) / (2 * lam * eta)
        worst_ou = max(worst_ou, abs(po_t[0, 0] - analytic), abs(pc_t[0, 0] - analytic))
    assert worst_ou <= 1e-10

    # lifted 12x12 system for the momentum dynamics
    a4 = rng.standard_normal((4, 4))
    obj4 = quadratic(a4 @ a4.T / 4 + 0.4 * np.eye(4))
    s4 = rng.standard_normal((4, 4))
    noise4 = NoiseModel(s4 @ s4.T / 4 + 0.2 * np.eye(4))
    worst_adam = 0.0
    for sched in schedules:
        ga = gaussian_approx(obj4, noise4, sched, np.zeros(4), "adam",
                             np.linspace(0.5, 6.0, 12), eta0=0.01)
        worst_adam = max(worst_adam, ga.max_route_gap())
    assert worst_adam <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("07 gaussian-approximation",
           f"sgd gap {worst_sgd:.2e}, ou err {worst_ou:.2e}, "
           f"adam gap {worst_adam:.2e}, {elapsed:.1f}s")


def test_criterion_08_convergence_bound_domination():
    start = time.monotonic()
    dim, n_paths, eta0 = 16, 10_000, 0.01
    noise = NoiseModel.isotropic(dim, 0.05, D=64)
    schedules = [
        build_general_schedule(0.8, 0.8, 1.0, 1.0, 1.0, 4.0),
        warmup_cosine_schedule(0.7, 0.8, 4.0),
        build_general_schedule(0.6, 0.6, 0.5, 0.5, 2.5, 4.0),
    ]
    cases = [
        (isotropic_quadratic(dim), np.full(dim, 0.5)),
        (double_well(dim), np.full(dim, 1.2)),
    ]
    # every case shares seed 108, the paths, the steps and dim 16, so one
    # call fills each noise block once and steps all 12 runs over it
    runs = [
        (objective, SdeConfig(schedule=sched, eta0=eta0, n_paths=n_paths,
                              seed=108, algorithm=algo, x0=x0))
        for objective, x0 in cases
        for sched in schedules
        for algo in ("sgd", "adam")
    ]
    reports = simulate_many(runs, noise)
    assert len(reports) == 12
    margins = []
    for (objective, cfg), rep in zip(runs, reports):
        algo, sched = cfg.algorithm, cfg.schedule
        if objective.box is not None:
            assert rep.max_abs_coordinate <= objective.box
        if algo == "adam":
            assert rep.v_min >= 0.0
            stat = rep.stats["weighted_avg_momentum_sq"]
            bound = convergence_bound(objective, noise, cfg)["momentum"]
        else:
            stat = rep.stats["weighted_avg_grad_sq"]
            bound = convergence_bound(objective, noise, cfg)["gradient"]
        assert stat.mean <= bound + 3.0 * stat.std_err, (
            f"{objective.name}/{algo}/{sched.markers}: "
            f"{stat.mean} > {bound} + 3*{stat.std_err}"
        )
        margins.append(stat.mean / bound)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report("08 convergence-bound-domination",
           f"12 runs, worst empirical/bound {max(margins):.3f}, {elapsed:.1f}s")


def test_criterion_09_anti_concentration():
    rng = np.random.default_rng(109)
    n_samples = 1_000_000
    combos = []
    for dim in (1, 2, 4, 8, 16):
        for frac in (0.05, 0.25, 0.6, 0.95):
            variances = rng.uniform(0.2, 2.0, size=dim)
            combos.append((dim, variances, frac * float(np.sum(variances)) / math.e))
    assert len(combos) == 20
    worst_ratio = 0.0
    for dim, variances, eps in combos:
        tr = float(np.sum(variances))
        hits = 0
        chunk = 200_000
        for start in range(0, n_samples, chunk):
            n = min(chunk, n_samples - start)
            x = rng.standard_normal((n, dim)) * np.sqrt(variances)
            hits += int(np.sum(np.sum(x * x, axis=1) <= eps))
        emp = hits / n_samples
        bound = anti_concentration_bound(eps, tr)
        assert emp <= bound, f"dim={dim}, eps={eps}: {emp} > {bound}"
        worst_ratio = max(worst_ratio, emp / bound)
    report("09 anti-concentration", f"20 combos, worst empirical/bound {worst_ratio:.3f}")


def test_criterion_10_trapping_bound():
    dim, eta0 = 8, 0.005
    sched = build_general_schedule(0.8, 0.8, 0.5, 0.5, 0.5, 2.0)
    obj = isotropic_quadratic(dim)
    noise = NoiseModel.isotropic(dim, 1.0, D=64)
    ga = gaussian_approx(obj, noise, sched, np.zeros(dim), "sgd", [2.0], eta0=eta0)
    trace = float(np.trace(ga.P_closed[0]))
    eps_list = tuple(f * trace for f in (0.01, 0.1, 0.5))
    cfg = SdeConfig(schedule=sched, eta0=eta0, n_paths=4000, seed=110,
                    algorithm="sgd", trap_eps=eps_list)
    rep = simulate(obj, noise, cfg)
    details = []
    for eps in eps_list:
        stat = rep.trapping[eps]
        bound = anti_concentration_bound(eps, trace)
        assert stat.mean <= bound + 3.0 * stat.std_err, (
            f"eps={eps}: {stat.mean} > {bound}"
        )
        details.append(f"{stat.mean:.4f}<={bound:.4f}")
    report("10 trapping-bound", ", ".join(details))


def test_criterion_11_random_matrix_checks():
    rep = random_matrix_checks(np.eye(64), D=64, N=64, n_trials=10_000,
                               t_grid=np.linspace(1.0, 10.0, 10), seed=111)
    for freq, rhs in zip(rep.deviation_freq, rep.bernstein):
        assert freq <= rhs
    # top-eigenvalue scalings are informational: report, never assert
    assert rep.bound_one_plus_sqrt_DN == pytest.approx(2.0, rel=1e-12)
    assert rep.bound_mp_edge == pytest.approx(4.0, rel=1e-12)
    assert math.isfinite(rep.residual)
    report(
        "11 random-matrix-checks",
        f"mean lambda_max {rep.mean_lambda_max:.3f} vs candidates "
        f"{rep.bound_one_plus_sqrt_DN:.3f} / {rep.bound_mp_edge:.3f} "
        f"(residual {rep.residual:+.3f}, informational)",
    )


def test_criterion_12_cli_determinism_and_sweep(tmp_path, runs_csv, capsys, monkeypatch):
    outputs = []
    config = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 4.5e-3, "eta2": 4.5e-3,
              "a1_B": 1.5, "a2_B": 1.5, "a3_B": 1.5}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        monkeypatch.chdir(d)
        (d / "config.json").write_text(json.dumps(config))
        (d / "configs.json").write_text(json.dumps(
            [config, {**config, "eta1": 3e-3, "eta2": 3e-3}]
        ))
        assert cli_main(["fit", "--runs", str(runs_csv), "--out", "law.json"]) == 0
        assert cli_main(["predict", "--law", "law.json", "--config", "config.json",
                         "--out", "pred.json"]) == 0
        assert cli_main(["rank", "--law", "law.json", "--configs", "configs.json",
                         "--out", "rank.json"]) == 0
        assert cli_main(["sweep", "--law", "law.json",
                         "--eta-max-range", "0.05:0.8:6", "--warmup-range", "0.1:4.0:5",
                         "--model", "4.05", "--tokens", "10", "--out", "grid.csv"]) == 0
        outputs.append({
            name: (d / name).read_bytes()
            for name in ("law.json", "pred.json", "rank.json", "grid.csv")
        })
    capsys.readouterr()
    assert outputs[0] == outputs[1]

    import csv as csv_mod

    with (tmp_path / "one" / "grid.csv").open() as fh:
        rows = list(csv_mod.DictReader(fh))
    cells = {(float(r["eta_max"]), float(r["warmup_B"])): float(r["predicted_loss"])
             for r in rows}
    etas = sorted({k[0] for k in cells})
    warms = sorted({k[1] for k in cells})
    diverged = {k for k, v in cells.items() if v == 7.0}
    assert diverged
    assert (etas[-1], warms[0]) in diverged  # high peak, short warmup corner
    assert (etas[0], warms[-1]) not in diverged
    for h, a in diverged:  # contiguous monotone region
        for h2 in [e for e in etas if e >= h]:
            for a2 in [w for w in warms if w <= a]:
                assert (h2, a2) in diverged
    report("12 cli-determinism-and-sweep",
           f"byte-identical pipeline, {len(diverged)}/30 gated cells in hot corner")
