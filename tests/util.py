"""Shared helpers and independent oracles for the test suite.

The quadrature oracle here only touches ``Schedule.value`` and
``Schedule.derivative`` (plus scipy's adaptive Gauss-Kronrod rule), never
the closed-form ``integral`` path it is used to check.  The reference SDE
stepper shares only the per-path noise streams and the report container
with ``optlaws.sde.simulate``.  The reference RK4 solver steps the
covariance ODE stage by stage, the form the folded solver rewrites, and the
reference closed form takes one matrix exponential per quadrature node, the
loop the batched call replaces.  The reference run-log reader builds one
``RunRecord`` per row, the loop ``read_runs_csv``'s columns replace.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np
from scipy.integrate import quad

from optlaws import Normalizer, RunRecord, compute_features
from optlaws.cli import RUNS_COLUMNS, DataError
from optlaws.law import REFERENCE_COEFFICIENTS, reference_law
from optlaws.schedule import Schedule, Segment, build_general_schedule, warmup_cosine_schedule
from optlaws.sde import SimulationDiverged, SimulationReport, StatSummary, path_rng
from optlaws.numerics import gauss_legendre_nodes
from optlaws.sde.gaussian import (
    ODE_BASE_STEPS,
    ODE_MAX_HALVINGS,
    ODE_TOL,
    QUAD_BASE_NODES,
    QUAD_MAX_DOUBLINGS,
    QUAD_TOL,
)

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


def constant_schedule(eta: float, T: float) -> Schedule:
    """The rate ``eta`` on [0, T], as one constant segment."""
    return Schedule((Segment("constant", 0.0, T, eta, eta),), T, (0.0, 0.0, 0.0))


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


def criterion_07_systems():
    """Criterion 07's systems: an 8x8 SGD batch ``(H, Sigma)`` of 8 systems,
    then the Hessian and noise matrix of its 4x4 Adam objective."""
    rng = np.random.default_rng(107)

    def spd(n, shift):
        a = rng.standard_normal((n, n))
        return a @ a.T / n + shift * np.eye(n)

    H = np.stack([spd(8, 0.3) for _ in range(8)])
    Sigma = np.stack([spd(8, 0.1) for _ in range(8)])
    return H, Sigma, spd(4, 0.4), spd(4, 0.2)


def count_per_config_calls(monkeypatch) -> dict:
    """Count Schedule constructions, ``Schedule.integral``, ``Schedule.value``,
    ``Segment.integral`` and ``compute_features`` calls from here on; returns
    the live counters."""
    import optlaws.features

    calls = {"schedule": 0, "integral": 0, "value": 0, "segment_integral": 0,
             "compute_features": 0}

    def count(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Schedule, "__post_init__", count("schedule", Schedule.__post_init__))
    monkeypatch.setattr(Schedule, "integral", count("integral", Schedule.integral))
    monkeypatch.setattr(Schedule, "value", count("value", Schedule.value))
    monkeypatch.setattr(Segment, "integral", count("segment_integral", Segment.integral))
    monkeypatch.setattr(optlaws.features, "compute_features",
                        count("compute_features", optlaws.features.compute_features))
    return calls


def planted_log_loss(record: RunRecord, c=REFERENCE_COEFFICIENTS) -> float:
    """Log loss a record would have under the planted coefficient vector."""
    schedule = record.normalized_schedule()
    f = compute_features(schedule, record.model_B)
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
                    probe = RunRecord(N, S, raw, raw, a, a, a, 1.0)
                    loss = float(np.exp(planted_log_loss(probe, c)))
                    if noise_rel > 0.0:
                        loss *= 1.0 + noise_rel * float(rng.standard_normal())
                    records.append(
                        RunRecord(N, S, raw, raw, a, a, a, loss)
                    )
    return records


def law_text(**changes) -> str:
    """The reference law's JSON with the given fields replaced."""
    return json.dumps({**json.loads(reference_law().to_json()), **changes})


def records_to_csv(records: list[RunRecord]) -> str:
    """Serialize records in the run-log CSV layout (sizes in billions)."""
    buf = io.StringIO()
    buf.write("model_B,tokens_B,eta1,eta2,a1_B,a2_B,a3_B,loss,diverged\n")
    for r in records:
        fields = [
            repr(r.model_B),
            repr(r.tokens_B),
            repr(r.eta1),
            repr(r.eta2),
            repr(r.a1_B),
            repr(r.a2_B),
            repr(r.a3_B),
            repr(r.loss),
            "1" if r.diverged else "0",
        ]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()


def reference_read_runs_csv(path: str, token_length=None, batch=None) -> list[RunRecord]:
    """Row-by-row run-log reader, the oracle for ``optlaws.cli.read_runs_csv``.

    Each row goes through a ``DictReader`` dict, a dict of floats and a
    ``RunRecord``, so rows are numbered as ``DictReader`` numbers them
    (blank lines skipped and not counted), a short row's missing cells are
    None and a long row's extra cells are ignored.  Once the stripped header
    matches, cells are named by position.
    """
    if (token_length is None) != (batch is None):
        raise DataError("--token-length and --batch go together: give both or neither")
    if token_length is not None and max(abs(token_length), abs(batch)) > sys.float_info.max:
        raise DataError("--token-length or --batch is too large for a float")
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != RUNS_COLUMNS:
            raise DataError(
                f"{path}: header must be {','.join(RUNS_COLUMNS)}, got {reader.fieldnames}"
            )
        reader.fieldnames = RUNS_COLUMNS
        for lineno, row in enumerate(reader, start=2):
            try:
                vals = {k: float(row[k]) for k in RUNS_COLUMNS[:-1]}
                if token_length is not None:
                    for key in ("tokens_B", "a1_B", "a2_B", "a3_B"):
                        vals[key] = Normalizer.tokens_billions(vals[key], token_length, batch)
                records.append(RunRecord(**vals, diverged=int(row["diverged"]) != 0))
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    return records


def table_row(runs, i: int) -> RunRecord:
    """Row ``i`` of a ``RunTable`` as a record."""
    return RunRecord(*(getattr(runs, name)[i].item() for name in RUNS_COLUMNS))


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
        RunRecord(0.58, 10.0, 0.9 * LR_SCALE, 0.9 * LR_SCALE,
                  0.05, 0.05, 0.05, 7.0, diverged=True)
    )
    records.append(
        RunRecord(4.05, 3.0, 1.0 * LR_SCALE, 1.0 * LR_SCALE,
                  0.02, 0.02, 0.02, 7.0, diverged=True)
    )
    return records


def _reference_summary(samples: np.ndarray) -> StatSummary:
    n = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return StatSummary(float(np.mean(samples)), se, n)


def reference_simulate(objective, noise, config):
    """Textbook Euler-Maruyama stepper, the oracle for ``optlaws.sde.simulate``.

    Every path carries its own Adam second moment ``v``; all paths are
    stepped as one block, whose noise is drawn as ``xi @ root``, and each
    step builds fresh arrays.  The noise product is written out as blocks
    of 32 rows, the last zero-padded.  The arithmetic of every update is written out
    in the same order as in the optimized loop, so the two must agree bit
    for bit however ``simulate`` groups the paths: the eta-weighted squares
    are summed per coordinate and each path's row once, after the last step.
    """
    dim = objective.dim
    n_steps, n_paths = config.n_steps, config.n_paths
    ts = np.minimum(np.arange(n_steps) * config.eta0, config.schedule.S)
    etas = np.array([config.schedule.value(t) for t in ts])
    weight = float(np.sum(etas))
    x_star = objective.x_star if objective.x_star is not None else np.zeros(dim)
    x_star = np.asarray(x_star, dtype=float)
    x0 = x_star if config.x0 is None else np.asarray(config.x0, dtype=float)
    adam = config.algorithm == "adam"
    diag_sigma = np.diag(noise.Sigma_g)

    max_abs, v_min = 0.0, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        xi = np.stack([path_rng(config.seed, i).standard_normal((n_steps, dim))
                       for i in range(n_paths)]).reshape(-1, dim)
        # the noise product 32 rows at a time, the last block zero-padded:
        # BLAS rounds a row by the shape of the product it falls in, so the
        # product keeps one shape
        rows = np.zeros((-(-len(xi) // 32), 32, dim))
        rows.reshape(-1, dim)[:len(xi)] = xi
        z = (rows @ noise.root).reshape(-1, dim)[:len(xi)].reshape(n_paths, n_steps, dim)
        x = np.tile(x0, (n_paths, 1))
        m, v = np.zeros((n_paths, dim)), np.zeros((n_paths, dim))
        acc_g, acc_m = np.zeros((n_paths, dim)), np.zeros((n_paths, dim))
        traces = np.empty((n_paths, n_steps + 1, 2))
        for k in range(n_steps):
            eta_k = etas[k]
            step = config.eta0 * eta_k
            g = objective.gradient(x)
            traces[:, k, 0] = np.linalg.norm(x, axis=1)
            traces[:, k, 1] = np.linalg.norm(g, axis=1)
            acc_g = acc_g + eta_k * (g * g)
            if adam:
                acc_m = acc_m + eta_k * (m * m)
                x = x - step * m / np.sqrt(v + config.eps)
                noise_coef = config.c1_prime * eta_k * math.sqrt(config.eta0)
                m = m - config.c1 * step * (m - g) + noise_coef * z[:, k, :]
                v = v - config.c2 * step * (v - diag_sigma)
                v_min = min(v_min, float(v.min()))
            else:
                x = x - config.eta0 * eta_k * (g + z[:, k, :])
            max_abs = max(max_abs, float(np.max(np.abs(x))))
        traces[:, n_steps, 0] = np.linalg.norm(x, axis=1)
        traces[:, n_steps, 1] = np.linalg.norm(objective.gradient(x), axis=1)

        wg, wm = np.sum(acc_g, axis=1), np.sum(acc_m, axis=1)
        finite = np.isfinite(x).all(axis=1) & np.isfinite(wg)
        if adam:
            finite &= np.isfinite(m).all(axis=1) & np.isfinite(v).all(axis=1)
        if not finite.all():
            raise SimulationDiverged(int(np.argmin(finite)))
        diff = x - x_star
        final_sq = np.sum(diff * diff, axis=1)
        final_val = objective.value(x)
        wgrad = wg / weight if weight > 0 else np.zeros(n_paths)
        wmom = wm / weight if weight > 0 else np.zeros(n_paths)

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
    trace_t = None
    if config.record_traces:
        trace_t = np.append(ts, min(n_steps * config.eta0, config.schedule.S))
    return SimulationReport(
        algorithm=config.algorithm, n_paths=n_paths, n_steps=n_steps, eta0=config.eta0,
        seed=config.seed, eta_weight=weight * config.eta0, stats=stats, trapping=trapping,
        v_min=v_min if adam else None, max_abs_coordinate=max_abs,
        traces=traces if config.record_traces else None, trace_t=trace_t,
    )


def reference_rk4(G, Sigma, schedule, scale, t_grid):
    """Stage-by-stage RK4, the oracle for ``optlaws.sde.integrate_covariance_ode``.

    Each step evaluates the four stages of dP/dt = -eta(GP + PG') +
    scale*eta^2*Sigma with fresh matrix products, on the same segment
    pieces, step sizes and halving rule as the folded route: halve until
    two solves agree to ODE_TOL * (1 + max|P|) for every system.  It starts
    at S/ODE_BASE_STEPS, as the folded route does on every system it is
    compared with here.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    GT = np.swapaxes(G, -1, -2)
    t_grid = [float(t) for t in t_grid]

    def rhs(eta, P):
        return -eta * (G @ P + P @ GT) + (scale * eta * eta) * Sigma

    def solve(step):
        P = np.zeros_like(Sigma)
        out = []
        t_cur = 0.0
        for t_next in t_grid:
            for seg in schedule.segments:
                lo, hi = max(t_cur, seg.t0), min(t_next, seg.t1)
                if not lo < hi:
                    continue
                n = max(1, math.ceil((hi - lo) / step))
                h = (hi - lo) / n
                t = lo
                for _ in range(n):
                    eta_mid = seg.value(t + 0.5 * h)
                    k1 = rhs(seg.value(t), P)
                    k2 = rhs(eta_mid, P + 0.5 * h * k1)
                    k3 = rhs(eta_mid, P + 0.5 * h * k2)
                    k4 = rhs(seg.value(t + h), P + h * k3)
                    P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    t += h
            out.append(P.copy())
            t_cur = t_next
        return out

    step = schedule.S / ODE_BASE_STEPS
    prev = solve(step)
    for _ in range(ODE_MAX_HALVINGS):
        step *= 0.5
        cur = solve(step)
        # per system: the largest change and entry over the grid times
        err = np.max(np.abs(np.asarray(cur) - np.asarray(prev)), axis=(0, -2, -1))
        size = np.max(np.abs(np.asarray(cur)), axis=(0, -2, -1))
        prev = cur
        if np.all(err <= ODE_TOL * (1.0 + size)):
            return cur
    return prev


def scipy_node_exponential(G, tau):
    """exp(-tau G) by ``scipy.linalg.expm``, a route the package never takes."""
    from scipy.linalg import expm

    return expm(-G * tau)


def reference_closed_form(G, Sigma, schedule, scale, t_grid,
                          node_exponential=scipy_node_exponential):
    """Node-by-node closed form, the oracle for a non-symmetric generator in
    ``optlaws.sde.closed_form_covariance``.

    The same nodes, weights and doubling rule, with one
    ``node_exponential(G, tau)`` call, exp(-tau G), and one product per
    quadrature node, added to P in node order.
    """
    G = np.asarray(G, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    zero = np.zeros(np.broadcast_shapes(G.shape, Sigma.shape))
    out = []
    for t in (float(t) for t in t_grid):
        pieces, phi_t = [], 0.0
        for seg in schedule.segments:
            if seg.t0 >= t:
                break
            hi = min(t, seg.t1)
            pieces.append((seg, hi, phi_t))
            phi_t += seg.integral(seg.t0, hi, "eta")

        def value(n_nodes):
            x, w = gauss_legendre_nodes(n_nodes)
            w_s, dphi = [], []
            for seg, hi, phi0 in pieces:
                half = 0.5 * (hi - seg.t0)
                nodes = half * (x + 1.0) + seg.t0
                w_s.append(scale * seg.value(nodes) ** 2 * (half * w))
                dphi.append(phi_t - (phi0 + seg.integral(seg.t0, nodes, "eta")))
            w_s, dphi = np.concatenate(w_s), np.concatenate(dphi)
            P = zero.copy()
            for q in np.flatnonzero(w_s):
                K = node_exponential(G, dphi[q])
                P += w_s[q] * (K @ Sigma @ np.swapaxes(K, -1, -2))
            return P

        if t == 0.0:
            out.append(zero.copy())
            continue
        n = QUAD_BASE_NODES
        prev = value(n)
        for _ in range(QUAD_MAX_DOUBLINGS):
            n *= 2
            cur = value(n)
            err = np.max(np.abs(cur - prev), axis=(-2, -1))
            prev = cur
            if np.all(err <= QUAD_TOL * (1.0 + np.max(np.abs(cur), axis=(-2, -1)))):
                break
        out.append(prev)
    return out
