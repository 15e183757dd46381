"""Euler-Maruyama simulation of the SGD and Adam diffusions.

The step size equals the rescaling parameter eta0, which makes one EM step
of the SDE coincide exactly with one update of the discrete optimizer:

    SGD   x <- x - eta0*eta_k*(grad f(x) + z),           z ~ N(0, Sigma)
    Adam  x <- x - eta0*eta_k * m / sqrt(v + eps)
          m <- (1 - c1*eta0*eta_k) m + c1*eta0*eta_k*(grad f(x) + z)
          v <- (1 - c2*eta0*eta_k) v + c2*eta0*eta_k * diag(Sigma)

i.e. the Adam averaging constants are beta1 = 1 - c1hat*eta_k and
beta2 = 1 - c2hat*eta_k with c1hat = c1*eta0, c2hat = c2*eta0, and the
momentum noise coefficient c1' = sqrt(c1*c1hat) of the SDE scales the same
Gaussian increments.

Each path owns a counter-based Philox stream derived from
(seed, path index), so ensembles are reproducible and independent of how
paths are grouped into blocks.

The noise does not depend on the state, so Adam's second moment v follows
the same deterministic recursion on every path (the deterministic v of the
Adam SDE in Malladi et al., arXiv 2205.10287).  It is run once per call;
its ``sqrt(v_k + eps)`` rows feed every path and its minimum is reported
exactly as ``v_min``.

Paths are stepped in blocks.  One noise buffer of block size is allocated
per call and refilled in place for every block, path by path from its own
stream.  When the noise root is diagonal (isotropic noise, which is all
the CLI uses) the buffer is scaled by that diagonal in place; otherwise it
is multiplied by the root and the product written back.  The per-step
updates run in place on preallocated ``(block, dim)`` arrays, in the same
operation order as the expressions above, so results are bit-identical to
stepping with fresh arrays and a per-path v.  Peak memory is about one
noise block (``DEFAULT_BLOCK_BYTES``) plus the ``(n_steps, dim)`` v table;
a non-diagonal root adds a second block, the copy numpy makes for the
product it writes back.

:func:`simulate_many` steps several cases, each an ``(objective, config)``
pair, over the same noise (common random numbers): each block is filled
and scaled once and every case is stepped over it in turn, reusing the
same state arrays, so peak memory stays at one block however many cases
there are.  A case's report is bit-identical to its own :func:`simulate`
run, which is the one-case call of :func:`simulate_many`.  Cases that
differ in seed, ``n_paths``, ``n_steps`` or objective dim draw different
noise, so they are refused with ValueError before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..schedule import Schedule
from .noise import NoiseModel
from .objectives import Objective

__all__ = [
    "SdeConfig",
    "StatSummary",
    "SimulationReport",
    "SimulationDiverged",
    "simulate",
    "simulate_many",
    "path_rng",
]

DEFAULT_BLOCK_BYTES = 64 * 2**20


class SimulationDiverged(RuntimeError):
    """A path produced non-finite values; shrink eta0."""

    def __init__(self, path_index: int):
        super().__init__(
            f"diverged path: path {path_index} produced non-finite values "
            "(reduce eta0 or the peak rate)"
        )
        self.path_index = path_index


@dataclass(frozen=True)
class SdeConfig:
    """Simulation parameters.

    ``eta0`` is both the SDE rescaling parameter and the EM step; a run
    covers the schedule's full span [0, S] in ``max(1, round(S / eta0))``
    steps.  The Adam drift constants c1, c2 translate to averaging factors
    via c1hat = c1*eta0 and c2hat = c2*eta0, and the momentum diffusion
    uses c1' = sqrt(c1*c1hat) = c1*sqrt(eta0).
    """

    schedule: Schedule
    eta0: float
    n_paths: int
    seed: int = 0
    algorithm: str = "sgd"  # "sgd" | "adam"
    c1: float = 1.0
    c2: float = 1.0
    eps: float = 1e-8
    trap_eps: tuple[float, ...] = ()
    x0: Optional[np.ndarray] = None
    track_mean_momentum: bool = False
    record_traces: bool = False

    def __post_init__(self):
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.algorithm not in ("sgd", "adam"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "adam" and self.eps <= 0:
            raise ValueError("adam needs eps > 0")
        for e in self.trap_eps:
            if not 0 < e < math.inf:
                raise ValueError(f"trapping radius must be positive and finite, got {e}")
        if self.x0 is not None and not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")
        if self.schedule.S / self.eta0 == math.inf:
            raise ValueError(f"n_steps = S/eta0 = {self.schedule.S}/{self.eta0} overflows")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.schedule.S / self.eta0)))

    @property
    def c1_hat(self) -> float:
        return self.c1 * self.eta0

    @property
    def c2_hat(self) -> float:
        return self.c2 * self.eta0

    @property
    def c1_prime(self) -> float:
        return math.sqrt(self.c1 * self.c1_hat)


@dataclass(frozen=True)
class StatSummary:
    mean: float
    std_err: float
    n: int

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_err": self.std_err, "n": self.n}


@dataclass
class SimulationReport:
    """Ensemble statistics of one simulation run."""

    algorithm: str
    n_paths: int
    n_steps: int
    eta0: float
    seed: int
    eta_weight: float  # discrete approximation of the area integral of eta
    stats: dict
    trapping: dict
    v_min: Optional[float] = None
    max_abs_coordinate: float = 0.0
    mean_momentum: Optional[dict] = None
    traces: Optional[list] = None

    def as_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "eta0": self.eta0,
            "seed": self.seed,
            "eta_weight": self.eta_weight,
            "stats": {k: v.as_dict() for k, v in self.stats.items()},
            "trapping": {
                str(eps): summ.as_dict() for eps, summ in self.trapping.items()
            },
            "max_abs_coordinate": self.max_abs_coordinate,
        }
        if self.v_min is not None:
            out["v_min"] = self.v_min
        return out


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path, derived from (seed, path index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def start_points(objective: Objective, config: SdeConfig) -> tuple[np.ndarray, np.ndarray]:
    """(x*, x0) of a run: the objective's minimum (the origin when it names
    none) and the start of every path, ``config.x0`` or else that minimum."""
    x_star = np.zeros(objective.dim) if objective.x_star is None else objective.x_star
    x_star = np.asarray(x_star, dtype=float)
    return x_star, x_star if config.x0 is None else np.asarray(config.x0, dtype=float)


def _summary(samples: np.ndarray) -> StatSummary:
    n = samples.size
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return StatSummary(mean, se, n)


def _diagonal(root: np.ndarray) -> Optional[np.ndarray]:
    """The diagonal of ``root`` if every off-diagonal entry is zero, else None."""
    d = np.diagonal(root)
    return d if np.array_equal(root, np.diag(d)) else None


def _adam_root_v(config: SdeConfig, etas: np.ndarray, diag_sigma: np.ndarray):
    """Run Adam's second-moment recursion once, for every path at once.

    Returns ``sqrt(v_k + eps)`` for the steps k = 0..n-1 as an
    ``(n_steps, dim)`` array, the smallest entry of v_1..v_n, and v_n.
    """
    root_v = np.empty((etas.size, diag_sigma.size))
    v = np.zeros(diag_sigma.size)
    v_min = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k, eta_k in enumerate(etas):
            np.sqrt(v + config.eps, out=root_v[k])
            step = config.eta0 * eta_k
            v = v - config.c2 * step * (v - diag_sigma)
            vm = float(v.min()) if v.size else 0.0
            if vm < v_min:
                v_min = vm
    return root_v, v_min, v


def simulate(
    objective: Objective,
    noise: NoiseModel,
    config: SdeConfig,
    block_size: Optional[int] = None,
) -> SimulationReport:
    """Run the ensemble and collect the eta-weighted time averages.

    Reports the weighted averages of ||grad f||^2 (and ||m||^2 for Adam)
    matching the convergence-bound quantities, plus the empirical
    frequency of ||X_T - x*||^2 <= eps for each requested trapping radius.
    Raises :class:`SimulationDiverged` naming the first offending path when
    eta0 is too large for the landscape, and ValueError, before allocating
    anything, when one path's noise row exceeds ``DEFAULT_BLOCK_BYTES`` or
    the step rates or their sum overflow.
    This is the one-case call of :func:`simulate_many`.
    """
    return simulate_many([(objective, config)], noise, block_size)[0]


def simulate_many(
    cases: Sequence[tuple[Objective, SdeConfig]],
    noise: NoiseModel,
    block_size: Optional[int] = None,
) -> list[SimulationReport]:
    """Run several ensembles on the same noise: one report per case, in order.

    Each case is an ``(objective, config)`` pair.  Every block of per-path
    noise is filled and scaled once and each case is stepped over it, so
    the cases see common random numbers and each report equals the one
    :func:`simulate` gives for its case alone, bit for bit.  The cases must
    agree on seed, ``n_paths``, ``n_steps`` and objective dim; otherwise,
    or for an empty list, ValueError is raised before anything is
    allocated.  A diverging case raises :class:`SimulationDiverged` naming
    the path its own :func:`simulate` names.
    """
    cases = list(cases)
    if not cases:
        raise ValueError("simulate_many needs at least one (objective, config) case")
    objective, config = cases[0]
    dim = objective.dim
    if noise.dim != dim:
        raise ValueError(f"noise dim {noise.dim} != objective dim {dim}")
    seed, n_paths, n_steps = config.seed, config.n_paths, config.n_steps
    for i, (obj, cfg) in enumerate(cases[1:], start=1):
        for name, got, want in (
            ("objective dim", obj.dim, dim),
            ("seed", cfg.seed, seed),
            ("n_paths", cfg.n_paths, n_paths),
            ("n_steps", cfg.n_steps, n_steps),
        ):
            if got != want:
                raise ValueError(
                    f"case {i} has {name} {got} but case 0 has {want}: cases share "
                    "noise only when seed, n_paths, n_steps and dim agree"
                )
    if n_steps * dim * 8 > DEFAULT_BLOCK_BYTES:
        raise ValueError(
            f"n_steps = {n_steps} is too many: one path's noise row needs "
            f"{n_steps * dim * 8} bytes, over DEFAULT_BLOCK_BYTES = {DEFAULT_BLOCK_BYTES} "
            "(raise eta0 or shorten the horizon)"
        )
    if block_size is None:
        per_path = max(n_steps * dim * 8, 1)
        block_size = max(1, min(n_paths, DEFAULT_BLOCK_BYTES // per_path))
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    block_size = min(block_size, n_paths)

    runs = [_Run(obj, noise, cfg) for obj, cfg in cases]
    root = noise.root
    scale = _diagonal(root)

    # One noise block and the per-step state, allocated once and reused by
    # every block and every case; a shorter last block uses leading views.
    noise_buf = np.empty((block_size, n_steps, dim))
    state = np.empty((4, block_size, dim))  # x, tmp, peak, m
    rows = np.empty((3, block_size))  # rowsum, wg, wm

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_paths, block_size):
            B = min(block_size, n_paths - start)
            z = noise_buf[:B]
            for j in range(B):
                path_rng(seed, start + j).standard_normal(out=z[j])
            if scale is not None:
                z *= scale
            else:
                flat = z.reshape(-1, dim)
                np.matmul(flat, root, out=flat)
            for run in runs:
                run.step(start, z, state[:, :B], rows[:, :B])
    return [run.report() for run in runs]


class _Run:
    """One case of :func:`simulate_many`: its step rates and the per-path
    results and running sums that its blocks fill in."""

    def __init__(self, objective: Objective, noise: NoiseModel, config: SdeConfig):
        n_steps, n_paths, dim = config.n_steps, config.n_paths, objective.dim
        self.objective, self.config = objective, config
        self.ts = np.minimum(np.arange(n_steps) * config.eta0, config.schedule.S)
        # a finite schedule can still overflow once its rates are multiplied out
        with np.errstate(over="ignore", invalid="ignore"):
            self.etas = config.schedule.value(self.ts)
            self.weight = float(np.sum(self.etas))
        if not math.isfinite(self.weight):
            bad = np.flatnonzero(~np.isfinite(self.etas))
            what = (
                f"step rate at t = {float(self.ts[bad[0]])!r} is {float(self.etas[bad[0]])!r}"
                if bad.size
                else f"step rates sum to {self.weight!r}"
            )
            raise ValueError(f"{what}: the schedule's rates overflow (lower the peak rate)")

        self.x_star, self.x0 = start_points(objective, config)

        self.adam = config.algorithm == "adam"
        self.v_min = None
        if self.adam:
            diag_sigma = np.diag(noise.Sigma_g).copy()
            self.root_v, self.v_min, v_last = _adam_root_v(config, self.etas, diag_sigma)
            if not np.isfinite(v_last).all():  # shared by every path: the first one fails
                raise SimulationDiverged(0)

        self.wgrad = np.empty(n_paths)
        self.wmom = np.empty(n_paths) if self.adam else None
        self.final_sq = np.empty(n_paths)
        self.final_val = np.empty(n_paths)
        self.max_abs = 0.0
        track = self.adam and config.track_mean_momentum
        self.msum = np.zeros((n_steps, dim)) if track else None
        self.msumsq = np.zeros((n_steps, dim)) if track else None
        self.col = np.empty(dim) if track else None
        self.traces = [] if config.record_traces else None

    def step(self, start: int, z: np.ndarray, state: np.ndarray, rows: np.ndarray):
        """Step the paths ``start, start + 1, ...`` over the noise block ``z``,
        using the ``(4, B, dim)`` and ``(3, B)`` scratch arrays given."""
        objective, config, etas = self.objective, self.config, self.etas
        adam, msum, msumsq, col = self.adam, self.msum, self.msumsq, self.col
        traces = self.traces
        B, n_steps, _ = z.shape
        x, tmp, peak, m = state
        rowsum, wg, wm = rows
        x[:] = self.x0
        wg.fill(0.0)
        peak.fill(0.0)
        if adam:
            m.fill(0.0)
            wm.fill(0.0)
            root_v = self.root_v
            c1_prime = config.c1_prime
            sqrt_eta0 = math.sqrt(config.eta0)
        if traces is not None:
            block_trace = np.empty((B, n_steps + 1, 2))

        # Each update keeps the operation order of the textbook
        # expression in its comment, so every float matches it.
        for k in range(n_steps):
            eta_k = etas[k]
            g = objective.gradient(x)
            # wg += eta_k * sum(g * g)
            np.multiply(g, g, out=tmp)
            np.sum(tmp, axis=1, out=rowsum)
            rowsum *= eta_k
            wg += rowsum
            if traces is not None:
                block_trace[:, k, 0] = np.linalg.norm(x, axis=1)
                block_trace[:, k, 1] = np.linalg.norm(g, axis=1)
            if adam:
                # wm += eta_k * sum(m * m)
                np.multiply(m, m, out=tmp)
                if msum is not None:
                    msum[k] += np.sum(m, axis=0, out=col)
                    msumsq[k] += np.sum(tmp, axis=0, out=col)
                np.sum(tmp, axis=1, out=rowsum)
                rowsum *= eta_k
                wm += rowsum
                step = config.eta0 * eta_k
                # x -= step * m / sqrt(v + eps)
                np.multiply(m, step, out=tmp)
                tmp /= root_v[k]
                x -= tmp
                # m = m - c1 * step * (m - g) + c1' * eta_k * sqrt(eta0) * z_k
                np.subtract(m, g, out=tmp)
                tmp *= config.c1 * step
                m -= tmp
                np.multiply(z[:, k, :], c1_prime * eta_k * sqrt_eta0, out=tmp)
                m += tmp
            else:
                # x -= eta0 * eta_k * (g + z_k)
                np.add(g, z[:, k, :], out=tmp)
                tmp *= config.eta0 * eta_k
                x -= tmp
            np.fmax(peak, np.abs(x, out=tmp), out=peak)

        if traces is not None:
            gT = objective.gradient(x)
            block_trace[:, n_steps, 0] = np.linalg.norm(x, axis=1)
            block_trace[:, n_steps, 1] = np.linalg.norm(gT, axis=1)
            traces.append(block_trace)

        bad = ~np.isfinite(x).all(axis=1) | ~np.isfinite(wg)
        if adam:
            bad |= ~np.isfinite(m).all(axis=1)
        if bad.any():
            raise SimulationDiverged(start + int(np.argmax(bad)))
        # every iterate was finite, so the running max ignored no NaN
        self.max_abs = max(self.max_abs, float(peak.max()))

        stop = start + B
        diff = x - self.x_star
        self.final_sq[start:stop] = np.sum(diff * diff, axis=1)
        self.final_val[start:stop] = objective.value(x)
        weight = self.weight
        self.wgrad[start:stop] = wg / weight if weight > 0 else 0.0
        if adam:
            self.wmom[start:stop] = wm / weight if weight > 0 else 0.0

    def report(self) -> SimulationReport:
        config, n_paths, ts = self.config, self.config.n_paths, self.ts
        stats = {
            "weighted_avg_grad_sq": _summary(self.wgrad),
            "final_value": _summary(self.final_val),
            "final_sq_dist": _summary(self.final_sq),
        }
        if self.adam:
            stats["weighted_avg_momentum_sq"] = _summary(self.wmom)

        trapping = {}
        for eps in config.trap_eps:
            hits = self.final_sq <= eps
            freq = float(np.mean(hits))
            se = math.sqrt(freq * (1.0 - freq) / n_paths) if n_paths > 1 else 0.0
            trapping[eps] = StatSummary(freq, se, n_paths)

        mean_m = None
        if self.msum is not None:
            mm = self.msum / n_paths
            var = self.msumsq / n_paths - mm * mm
            se_norm = np.sqrt(np.sum(np.clip(var, 0.0, None), axis=1) / n_paths)
            mean_m = {
                "t": ts,
                "norm": np.linalg.norm(mm, axis=1),
                "std_err": se_norm,
            }

        flat_traces = None
        if self.traces is not None:
            n_steps = ts.size
            t_grid = np.append(ts, min(n_steps * config.eta0, config.schedule.S))
            flat_traces = []
            offset = 0
            for block_trace in self.traces:
                for j in range(block_trace.shape[0]):
                    flat_traces.append((offset + j, t_grid, block_trace[j]))
                offset += block_trace.shape[0]

        return SimulationReport(
            algorithm=config.algorithm,
            n_paths=n_paths,
            n_steps=ts.size,
            eta0=config.eta0,
            seed=config.seed,
            eta_weight=self.weight * config.eta0,
            stats=stats,
            trapping=trapping,
            v_min=self.v_min,
            max_abs_coordinate=self.max_abs,
            mean_momentum=mean_m,
            traces=flat_traces,
        )
