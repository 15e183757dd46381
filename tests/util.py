"""Shared helpers and independent oracles for the test suite.

The quadrature oracle here only touches ``Schedule.value`` and
``Schedule.derivative`` (plus scipy's adaptive Gauss-Kronrod rule), never
the closed-form ``integral`` path it is used to check.  The reference SDE
stepper shares only the per-path noise streams and the report container
with ``optlaws.sde.simulate``.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy.integrate import quad

from optlaws import RunRecord, compute_features, default_markers
from optlaws.law import REFERENCE_COEFFICIENTS
from optlaws.schedule import Schedule, build_general_schedule, warmup_cosine_schedule
from optlaws.sde import SimulationDiverged, SimulationReport, StatSummary, path_rng

LR_SCALE = 1.5e-2


def quad_oracle(schedule: Schedule, u: float, v: float, functional: str) -> float:
    """Adaptive quadrature of the pointwise functional, split per segment."""
    if functional == "eta":
        f = schedule.value
    elif functional == "eta_sq":
        f = lambda t: schedule.value(t) ** 2
    elif functional == "deta_sq":
        f = lambda t: schedule.derivative(t) ** 2
    else:
        raise ValueError(functional)
    total = 0.0
    for seg in schedule.segments:
        lo, hi = max(u, seg.t0), min(v, seg.t1)
        if lo < hi:
            val, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
            total += val
    return total


def random_four_phase(rng: np.random.Generator) -> Schedule:
    """Random warmup/decay/plateau/cooldown schedule (degenerate phases allowed)."""
    S = float(rng.uniform(1.0, 60.0))
    a1, a2, a3 = np.sort(rng.uniform(0.0, S, size=3))
    if rng.random() < 0.3:  # collapse some phases to exercise degenerate drops
        a2 = a1
    h1 = float(rng.uniform(0.05, 1.0))
    h2 = float(rng.uniform(0.05, 1.0)) if a2 > a1 else h1
    return build_general_schedule(h1, h2, a1, a2, a3, S)


def random_schedule(rng: np.random.Generator) -> Schedule:
    """Four-phase or warmup-cosine schedule, at random."""
    if rng.random() < 0.3:
        S = float(rng.uniform(1.0, 60.0))
        a = float(rng.uniform(0.01 * S, 0.8 * S))
        return warmup_cosine_schedule(float(rng.uniform(0.05, 1.0)), a, S)
    return random_four_phase(rng)


def planted_log_loss(record: RunRecord, c=REFERENCE_COEFFICIENTS) -> float:
    """Log loss a record would have under the planted coefficient vector."""
    schedule = record.normalized_schedule()
    f = compute_features(schedule, default_markers(schedule), record.N)
    return float(np.dot(c, f.values))


def make_grid_records(
    warm_fracs,
    peak_rates,
    token_sizes,
    model_sizes,
    c=REFERENCE_COEFFICIENTS,
    noise_rel: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[RunRecord]:
    """Linear warmup/cooldown run grid with losses from the planted law.

    ``noise_rel`` adds multiplicative loss noise loss*(1 + noise_rel*xi).
    """
    records = []
    for S in token_sizes:
        for N in model_sizes:
            for fa in warm_fracs:
                for h in peak_rates:
                    a = fa * S
                    raw = h * LR_SCALE
                    probe = RunRecord.from_billions(N, S, raw, raw, a, a, a, 1.0)
                    loss = float(np.exp(planted_log_loss(probe, c)))
                    if noise_rel > 0.0:
                        loss *= 1.0 + noise_rel * float(rng.standard_normal())
                    records.append(
                        RunRecord.from_billions(N, S, raw, raw, a, a, a, loss)
                    )
    return records


def records_to_csv(records: list[RunRecord]) -> str:
    """Serialize records in the run-log CSV layout (sizes in billions)."""
    buf = io.StringIO()
    buf.write("model_B,tokens_B,eta1,eta2,a1_B,a2_B,a3_B,loss,diverged\n")
    for r in records:
        fields = [
            repr(r.N),
            repr(r.S_steps / 1e9),
            repr(r.eta1),
            repr(r.eta2),
            repr(r.a1 / 1e9),
            repr(r.a2 / 1e9),
            repr(r.a3 / 1e9),
            repr(r.final_loss),
            "1" if r.diverged else "0",
        ]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()


def fixture_corpus() -> list[RunRecord]:
    """The deterministic corpus behind tests/fixtures/synthetic_runs.csv."""
    records = make_grid_records(
        warm_fracs=(0.05, 0.15, 0.3, 0.5),
        peak_rates=(0.1, 0.3, 0.55, 0.8),
        token_sizes=(3.0, 10.0),
        model_sizes=(0.58, 4.05),
    )
    # two divergent rows: high peak, short warmup (never used in fitting)
    records.append(
        RunRecord.from_billions(0.58, 10.0, 0.9 * LR_SCALE, 0.9 * LR_SCALE,
                                0.05, 0.05, 0.05, 7.0, diverged=True)
    )
    records.append(
        RunRecord.from_billions(4.05, 3.0, 1.0 * LR_SCALE, 1.0 * LR_SCALE,
                                0.02, 0.02, 0.02, 7.0, diverged=True)
    )
    return records


def _reference_summary(samples: np.ndarray) -> StatSummary:
    n = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return StatSummary(float(np.mean(samples)), se, n)


def reference_simulate(objective, noise, config, x_star=None, block_size=None):
    """Textbook Euler-Maruyama stepper, the oracle for ``optlaws.sde.simulate``.

    Every path carries its own Adam second moment ``v``; each block draws
    its noise as ``xi @ root`` and each step builds fresh arrays.  The
    arithmetic of every update is written out in the same order as in the
    optimized loop, so the two must agree bit for bit.  ``block_size``
    defaults to all paths at once; the across-path momentum sums depend on
    the blocking, so compare against a run with the same block size.
    """
    dim = objective.dim
    n_steps, n_paths = config.n_steps, config.n_paths
    ts = np.minimum(np.arange(n_steps) * config.eta0, config.schedule.S)
    etas = np.array([config.schedule.value(t) for t in ts])
    weight = float(np.sum(etas))
    if x_star is None:
        x_star = objective.x_star if objective.x_star is not None else np.zeros(dim)
    x_star = np.asarray(x_star, dtype=float)
    x0 = x_star if config.x0 is None else np.asarray(config.x0, dtype=float)
    block_size = n_paths if block_size is None else block_size
    adam = config.algorithm == "adam"
    track = adam and config.track_mean_momentum
    diag_sigma = np.diag(noise.Sigma_g)

    wgrad, wmom = np.empty(n_paths), np.empty(n_paths)
    final_sq, final_val = np.empty(n_paths), np.empty(n_paths)
    msum, msumsq = np.zeros((n_steps, dim)), np.zeros((n_steps, dim))
    traces = []
    max_abs, v_min = 0.0, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_paths, block_size):
            stop = min(start + block_size, n_paths)
            B = stop - start
            xi = np.stack([path_rng(config.seed, i).standard_normal((n_steps, dim))
                           for i in range(start, stop)])
            z = (xi.reshape(-1, dim) @ noise.root).reshape(B, n_steps, dim)
            x = np.tile(x0, (B, 1))
            m, v = np.zeros((B, dim)), np.zeros((B, dim))
            wg, wm = np.zeros(B), np.zeros(B)
            trace = np.empty((B, n_steps + 1, 2))
            for k in range(n_steps):
                eta_k = etas[k]
                step = config.eta0 * eta_k
                g = objective.gradient(x)
                trace[:, k, 0] = np.linalg.norm(x, axis=1)
                trace[:, k, 1] = np.linalg.norm(g, axis=1)
                wg = wg + eta_k * np.sum(g * g, axis=1)
                if adam:
                    wm = wm + eta_k * np.sum(m * m, axis=1)
                    if track:
                        msum[k] = msum[k] + m.sum(axis=0)
                        msumsq[k] = msumsq[k] + (m * m).sum(axis=0)
                    x = x - step * m / np.sqrt(v + config.eps)
                    noise_coef = config.c1_prime * eta_k * math.sqrt(config.eta0)
                    m = m - config.c1 * step * (m - g) + noise_coef * z[:, k, :]
                    v = v - config.c2 * step * (v - diag_sigma)
                    v_min = min(v_min, float(v.min()))
                else:
                    x = x - config.eta0 * eta_k * (g + z[:, k, :])
                max_abs = max(max_abs, float(np.max(np.abs(x))))
            trace[:, n_steps, 0] = np.linalg.norm(x, axis=1)
            trace[:, n_steps, 1] = np.linalg.norm(objective.gradient(x), axis=1)
            traces.append(trace)

            finite = np.isfinite(x).all(axis=1) & np.isfinite(wg)
            if adam:
                finite &= np.isfinite(m).all(axis=1) & np.isfinite(v).all(axis=1)
            if not finite.all():
                raise SimulationDiverged(start + int(np.argmin(finite)))
            diff = x - x_star
            final_sq[start:stop] = np.sum(diff * diff, axis=1)
            final_val[start:stop] = objective.value(x)
            wgrad[start:stop] = wg / weight if weight > 0 else 0.0
            wmom[start:stop] = wm / weight if weight > 0 else 0.0

    stats = {
        "weighted_avg_grad_sq": _reference_summary(wgrad),
        "final_value": _reference_summary(final_val),
        "final_sq_dist": _reference_summary(final_sq),
    }
    if adam:
        stats["weighted_avg_momentum_sq"] = _reference_summary(wmom)
    trapping = {}
    for eps in config.trap_eps:
        freq = float(np.mean(final_sq <= eps))
        se = math.sqrt(freq * (1.0 - freq) / n_paths) if n_paths > 1 else 0.0
        trapping[eps] = StatSummary(freq, se, n_paths)
    mean_m = None
    if track:
        mm = msum / n_paths
        var = msumsq / n_paths - mm * mm
        mean_m = {
            "t": ts,
            "norm": np.linalg.norm(mm, axis=1),
            "std_err": np.sqrt(np.sum(np.clip(var, 0.0, None), axis=1) / n_paths),
        }
    flat_traces = None
    if config.record_traces:
        t_grid = np.append(ts, min(n_steps * config.eta0, config.schedule.S))
        flat_traces = [(i, t_grid, row) for i, row in enumerate(np.concatenate(traces))]
    return SimulationReport(
        algorithm=config.algorithm, n_paths=n_paths, n_steps=n_steps, eta0=config.eta0,
        seed=config.seed, eta_weight=weight * config.eta0, stats=stats, trapping=trapping,
        v_min=v_min if adam else None, max_abs_coordinate=max_abs, mean_momentum=mean_m,
        traces=flat_traces,
    )
