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

Each path owns a noise stream derived from (seed, path index), and every
statistic is taken over per-path results, so ensembles are reproducible
and independent of how paths are grouped into blocks.  :func:`path_rng`
defines the streams: SFC64 (Doty-Humphrey's Small Fast Chaotic generator,
from PractRand) seeded by ``SeedSequence(seed, spawn_key=(i,))`` for path
i, numpy's own recipe for independent streams.  Distinct spawn keys give
distinct seeds: every step of the seed sequence's hashing and mixing is
invertible in the word it mixes in, so for a fixed seed the first 32-bit
word of a path's three seed words is a bijection of its index.  SFC64
seeds its 256-bit state with those words and a 64-bit counter of 1, then
discards 12 draws.  Each draw adds one to the counter, which gives every
cycle a minimum period of 2**64.  Every path starts at the same counter,
so a state that two paths' streams shared within 2**64 draws would be the
same draw of each, and since the step is invertible, stepping back would
give both the same seed.  No two paths' streams overlap, then, within
2**64 draws, far beyond a path's: one 64-bit word per normal, bar the
ziggurat's rare rejections, and at most 2**23 normals (its row fits
``DEFAULT_BLOCK_BYTES``).  The fill derives the seed words of a group's
paths in one numpy pass (:func:`_path_keys`, a port of numpy's seed
sequence), so one generator per fill thread draws any path's stream once
its state is set from them.

The noise does not depend on the state, so Adam's second moment v follows
the same deterministic recursion on every path (the deterministic v of the
Adam SDE in Malladi et al., arXiv 2205.10287).  It is one ``dim``-vector
recursion, run once per case before any step: its minimum is reported
exactly as ``v_min``, and its ``sqrt(v_k + eps)`` is kept as one
``(n_steps, dim)`` table, whose row k every path of every group reads at
step k.

Paths are stepped in groups.  A block holds as many paths' noise as
``DEFAULT_BLOCK_BYTES`` holds (at least one path, at most ``n_paths``);
that budget is the only setting that sizes it.  The block is allocated
once per call as two buffers of half its paths (rounded up), or as one
buffer of all of them when there is a single fill thread.  A buffer
holds its paths' whole rows, all ``n_steps`` steps.  The pool fills the
next group of paths into one buffer while the calling thread steps
every case over the other, from step 0 to the last; with one buffer, each
group is filled, then stepped.  A group's fill is cut into about
``_SHARES_PER_THREAD`` shares per fill thread, taken from one shared
iterator: by one pool thread per usable CPU but one (at most
``_MAX_FILL_THREADS`` threads in all, and never more than the block has
paths), and by the calling thread once it has stepped the group before.
The calling thread then waits for the pool before stepping what it
filled.  Each fill thread owns a generator built once per call, draws with
the GIL released, and scales its own share by the root's diagonal
(isotropic noise, which is all the CLI uses).  Which thread draws a path
never changes its numbers, so results do not depend on the thread count.
A correlated root is multiplied in once a buffer is filled, as one product
over the buffer in the calling thread, while the pool fills the other.
That product and a dense gradient are fixed-block products
(:func:`optlaws.numerics.row_product`), so a path's rows do not depend
on how many paths share its group or where it falls in it.
The per-step updates run in place on ``(group, dim)`` arrays that every
case shares, in the same operation order as the expressions above, so
results are bit-identical to stepping with fresh arrays and a per-path v.
The eta-weighted sums of ||grad f||^2 and ||m||^2 are accumulated per
coordinate, ``acc += eta_k * (g*g)``, and each path's row is summed once,
after its last step.
Peak memory is about one noise block (``DEFAULT_BLOCK_BYTES``) plus those
arrays, each case's per-path results and one ``(n_steps, dim)`` table of
``sqrt(v_k + eps)`` per Adam case; a non-diagonal root adds one buffer's
product before it is copied back, and ``record_traces`` adds the
``(n_paths, n_steps + 1, 2)`` trace array the stepper writes each group's
rows of in place.

:func:`simulate_many` steps several cases, each an ``(objective, config)``
pair, over the same noise (common random numbers): each buffer is filled
and scaled once and every case is stepped over it in turn, from its paths'
start to their results, so peak memory stays near one block however many
cases there are.  A case's report is bit-identical to its own
:func:`simulate` run, which is the one-case call of :func:`simulate_many`.
Cases that differ in seed, ``n_paths``, ``n_steps`` or objective dim draw
different noise, so they are refused with ValueError before anything is
allocated.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..numerics import row_product
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
_MAX_FILL_THREADS = 8
_SHARES_PER_THREAD = 8
# numpy's SeedSequence: pool size, hash and mix constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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

    ``eta0`` is both the SDE rescaling parameter and the EM step.  A run
    takes ``n_steps = max(1, round(S / eta0))`` steps, step k at time
    ``min(k*eta0, S)``: it spans [0, n_steps*eta0], not [0, S] (S = 1 and
    eta0 = 0.03 give 33 steps, ending at 0.99).  The Adam drift constants
    c1, c2 give averaging factors c1hat = c1*eta0 and c2hat = c2*eta0, and
    the momentum diffusion uses c1' = sqrt(c1*c1hat) (:func:`adam_c1_prime`).
    c1 and c2 must be non-negative and finite, and eps finite (positive for
    Adam); a value outside that is refused with ValueError naming its field.
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
    record_traces: bool = False

    def __post_init__(self):
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # 2**32 paths would need 32 GiB for each per-path result array alone
        if not _is_int(self.n_paths) or not 1 <= self.n_paths < 2**32:
            raise ValueError(f"n_paths must be an integer in [1, 2**32), got {self.n_paths!r}")
        if self.algorithm not in ("sgd", "adam"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name, value in (("c1", self.c1), ("c2", self.c2)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps}")
        if self.algorithm == "adam" and self.eps <= 0:
            raise ValueError("adam needs eps > 0")
        for e in self.trap_eps:
            if not 0 < e < math.inf:
                raise ValueError(f"trapping radius must be positive and finite, got {e}")
        if self.x0 is not None and not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")
        if self.schedule.S / self.eta0 == math.inf:
            raise ValueError(f"n_steps = S/eta0 = {self.schedule.S}/{self.eta0} overflows")
        # plain ints, so a numpy integer never reaches the JSON report
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_paths", int(self.n_paths))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.schedule.S / self.eta0)))

    @property
    def c1_hat(self) -> float:
        return self.c1 * self.eta0

    @property
    def c1_prime(self) -> float:
        return adam_c1_prime(self.c1, self.eta0)


def adam_c1_prime(c1: float, eta0: float) -> float:
    """Adam's momentum-noise coefficient c1' = sqrt(c1*c1hat), c1hat = c1*eta0."""
    return math.sqrt(c1 * (c1 * eta0))


@dataclass(frozen=True)
class StatSummary:
    mean: float
    std_err: float
    n: int

    @classmethod
    def binomial(cls, freq: float, n: int) -> "StatSummary":
        """A frequency over n trials, with its binomial standard error."""
        return cls(freq, math.sqrt(freq * (1.0 - freq) / n), n)

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
    traces: Optional[np.ndarray] = None  # (n_paths, n_steps + 1, 2): |x|, |grad f| per time
    trace_t: Optional[np.ndarray] = None  # the n_steps + 1 times of the traces

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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The noise stream of one path: SFC64 seeded by
    ``SeedSequence(seed, spawn_key=(path_index,))``."""
    seed_seq = np.random.SeedSequence(seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.SFC64(seed_seq))


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` with its own running hash constant.  The
    constants do not depend on the data, so every path shares them."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ out >> 16


def _path_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, 3)`` uint64 SFC64 seed words of paths
    start..stop-1.

    Row j is ``SeedSequence(seed, spawn_key=(start + j,))
    .generate_state(3, np.uint64)``, the words :func:`path_rng` seeds its
    SFC64 with, computed for every path at once on uint32 columns.  The
    seed's words are 1-element columns, so the pool mixing of the seed
    alone is done once and broadcast when the path index is mixed in.
    Needs ``seed >= 0`` and ``stop <= 2**32`` (one word per path index).
    """
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length() or 1, 32)]
    words += [0] * (_POOL - len(words))  # a spawn key pads the seed to the pool size
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # six 32-bit words, cycling through the pool, make three 64-bit ones
    hashmix = _hasher(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(6)]
    return np.stack([lo | hi << 32 for lo, hi in zip(half[::2], half[1::2])], axis=1)


def start_points(objective: Objective, config: SdeConfig) -> tuple[np.ndarray, np.ndarray]:
    """(x*, x0) of a run: the objective's minimum (the origin when it names
    none) and the start of every path, ``config.x0`` or else that minimum."""
    x_star = np.zeros(objective.dim) if objective.x_star is None else objective.x_star
    x_star = np.asarray(x_star, dtype=float)
    return x_star, x_star if config.x0 is None else np.asarray(config.x0, dtype=float)


def _summary(name: str, samples: np.ndarray) -> StatSummary:
    """Mean and standard error of finite samples; ValueError naming ``name``
    when either overflows a double."""
    n = samples.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    for what, value in (("mean", mean), ("std_err", se)):
        if not math.isfinite(value):
            raise ValueError(
                f"{name} {what} is {value!r}: the paths' values overflow a double "
                "(lower the noise variance or the peak rate)"
            )
    return StatSummary(mean, se, n)


def _diagonal(root: np.ndarray) -> Optional[np.ndarray]:
    """The diagonal of ``root`` if every off-diagonal entry is zero, else None."""
    d = np.diagonal(root)
    return d if np.array_equal(root, np.diag(d)) else None


def _adam_v(config: SdeConfig, etas: np.ndarray, diag_sigma: np.ndarray):
    """Run Adam's second-moment recursion, the same for every path.

    Returns ``(root_v, v_min, v)``: the ``(n_steps, dim)`` table whose row k
    is ``sqrt(v_k + eps)``, the smallest entry of ``v_1 .. v_n``, and the
    last ``v_n``.
    """
    v = np.zeros(diag_sigma.size)
    root_v, dv = np.empty((etas.size, v.size)), np.empty_like(v)
    for k, eta_k in enumerate(etas):
        root_v[k] = v
        # v <- v - c2 * step * (v - diag(Sigma)), step = eta0 * eta_k
        np.subtract(v, diag_sigma, out=dv)
        dv *= config.c2 * (config.eta0 * eta_k)
        v -= dv
    # v_1 .. v_n are the table's rows after the first, then the last v
    v_min = float(min(root_v[1:].min(initial=math.inf), v.min()))
    root_v += config.eps
    np.sqrt(root_v, out=root_v)
    return root_v, v_min, v


def simulate(objective: Objective, noise: NoiseModel, config: SdeConfig) -> SimulationReport:
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
    return simulate_many([(objective, config)], noise)[0]


def simulate_many(
    cases: Sequence[tuple[Objective, SdeConfig]], noise: NoiseModel
) -> list[SimulationReport]:
    """Run several ensembles on the same noise: one report per case, in order.

    Each case is an ``(objective, config)`` pair.  Every group of per-path
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
    block_size = max(1, min(n_paths, DEFAULT_BLOCK_BYTES // (n_steps * dim * 8)))

    runs = [_Run(obj, noise, cfg) for obj, cfg in cases]
    root = noise.root
    scale = _diagonal(root)
    n_fill = min(_usable_cpus(), _MAX_FILL_THREADS, block_size)
    # The block's noise as two buffers of half as many paths, one filled
    # while the other is stepped, or as one when nothing fills alongside;
    # a shorter last group uses a buffer's leading rows.
    n_buf = 2 if n_fill > 1 else 1
    group = -(-block_size // n_buf)
    buffers = np.empty((n_buf, group, n_steps, dim))
    starts = range(0, n_paths, group)
    # the stepping's arrays, shared by every case: x, m, tmp, peak and the
    # per-coordinate weighted sums wg and wm
    arrays = _cache_aligned_empty((6, group, dim))
    # the diagonal scale as up to 512 rows of steps, so that a share scales
    # without numpy buffering the broadcast operand
    scale_rows = None if scale is None else np.tile(scale, (min(n_steps, 512), 1))

    # One generator per fill thread, all built from one seed sequence; the
    # calling thread is one of them.  Imported here: concurrent.futures
    # (logging with it) takes about 4 ms to import, which `import
    # optlaws.sde` would otherwise pay for the Gaussian, bound and
    # random-matrix routes too.
    from concurrent.futures import ThreadPoolExecutor

    seed_seq = np.random.SeedSequence(seed)
    fills = [_PathFill(seed_seq) for _ in range(n_fill)]
    with ThreadPoolExecutor(max(n_fill - 1, 1)) as pool:

        def begin(j):
            """Start the pool filling group j into its buffer: the buffer's
            rows, the shares and the pool's futures.  The group's seed
            words are derived here, in one pass, and each share gets its
            rows of them."""
            z = buffers[j % n_buf, :min(group, n_paths - starts[j])]
            B = len(z)
            keys = _path_keys(seed, starts[j], starts[j] + B)
            n = min(B, _SHARES_PER_THREAD * n_fill)
            cuts = [B * i // n for i in range(n + 1)]
            # one list iterator, whose next() hands each share to one thread
            shares = iter([(z[lo:hi], keys[lo:hi]) for lo, hi in zip(cuts, cuts[1:])])
            return z, shares, [pool.submit(f.drain, shares, scale_rows) for f in fills[1:]]

        with np.errstate(over="ignore", invalid="ignore"):
            filling = None
            for j, start in enumerate(starts):
                z, shares, futures = filling or begin(j)
                fills[0].drain(shares, scale_rows)
                for future in futures:
                    future.result()
                # the other buffer's group was stepped before this one was
                # filled, so the pool refills it while this one is stepped
                filling = begin(j + 1) if n_buf == 2 and j + 1 < len(starts) else None
                if scale is None:
                    flat = z.reshape(-1, dim)
                    flat[:] = row_product(flat, root)
                for run in runs:
                    run.step(start, z, arrays[:, :len(z)])
    return [run.report() for run in runs]


def _cache_aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float array whose data starts on a 64-byte cache
    line.  The heap aligns a block to 16 bytes only, so its start depends
    on earlier allocations, and a dim-16 row that straddles three cache
    lines instead of two stepped up to 7% slower."""
    n = math.prod(shape)
    raw = np.empty(n + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + n].reshape(shape)


def _usable_cpus() -> int:
    """The CPUs this process may run on; each fills shares of a group."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _PathFill:
    """An SFC64 generator that draws any path's stream, the one path_rng
    builds, once its state is set from the path's seed words: the words
    and a counter of 1, then numpy's 12 discarded seeding draws.  Each fill
    thread owns one."""

    def __init__(self, seed_seq: np.random.SeedSequence):
        self.bitgen = np.random.SFC64(seed_seq)
        self.rng = np.random.Generator(self.bitgen)
        # the dict the state setter reads; only its seed words change, and
        # the counter stays at 1, where numpy's seeding starts it
        self.fresh = self.bitgen.state
        self.words = self.fresh["state"]["state"]
        self.words[3] = 1

    def __call__(self, z: np.ndarray, keys: np.ndarray):
        """Fill the rows of ``z`` with the streams of the paths whose seed
        words are the rows of ``keys``."""
        words, bitgen = self.words, self.bitgen
        for key, row in zip(keys, z):
            words[:3] = key
            bitgen.state = self.fresh
            bitgen.random_raw(12, output=False)
            self.rng.standard_normal(out=row)

    def drain(self, shares, scale_rows: Optional[np.ndarray]):
        """Fill ``(z, keys)`` shares from the shared iterator ``shares``
        until it runs dry, scaling each by the root's diagonal, given as
        ``scale_rows`` (a row per step), unless that is None."""
        # numpy's error state is per context: a pool thread does not
        # inherit the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            for z, keys in shares:
                self(z, keys)
                if scale_rows is None:
                    continue
                for k in range(0, z.shape[1], len(scale_rows)):
                    piece = z[:, k:k + len(scale_rows)]
                    np.multiply(piece, scale_rows[:piece.shape[1]], out=piece)


class _Run:
    """One case of :func:`simulate_many`: its step rates and the per-path
    results that its groups fill in."""

    def __init__(self, objective: Objective, noise: NoiseModel, config: SdeConfig):
        n_steps, n_paths = config.n_steps, config.n_paths
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
            # v is run once here, for v_min and the table every group's steps read
            with np.errstate(over="ignore", invalid="ignore"):
                self.root_v, self.v_min, v = _adam_v(config, self.etas, np.diag(noise.Sigma_g))
            if not np.isfinite(v).all():  # shared by every path: the first one fails
                raise SimulationDiverged(0)

        self.wgrad = np.empty(n_paths)
        self.wmom = np.empty(n_paths) if self.adam else None
        self.final_sq = np.empty(n_paths)
        self.final_val = np.empty(n_paths)
        self.max_abs = 0.0
        self.traces = np.empty((n_paths, n_steps + 1, 2)) if config.record_traces else None

    def step(self, start: int, z: np.ndarray, arrays: tuple):
        """Step the paths ``start, start + 1, ...`` from x0 through every step
        over the noise ``z``, check them for divergence and record their
        results.  ``arrays`` holds six ``(B, dim)`` arrays: x, m, tmp,
        peak, and wg and wm, the eta-weighted sums of g*g and m*m per
        coordinate, whose rows are summed once after the last step.  None of
        them carries anything from one call to the next."""
        objective, config, etas, adam = self.objective, self.config, self.etas, self.adam
        B, n_steps, _ = z.shape
        trace = None if self.traces is None else self.traces[start:start + B]
        x, m, tmp, peak, wg, wm = arrays
        x[:] = self.x0
        wg.fill(0.0)
        peak.fill(0.0)
        if adam:
            m.fill(0.0)
            wm.fill(0.0)
            root_v = self.root_v
            c1_prime = config.c1_prime
            sqrt_eta0 = math.sqrt(config.eta0)

        # Each update keeps the operation order of the textbook
        # expression in its comment, so every float matches it.
        for k in range(n_steps):
            eta_k = etas[k]
            g = objective.gradient(x)
            # wg += eta_k * (g * g)
            np.multiply(g, g, out=tmp)
            tmp *= eta_k
            wg += tmp
            if trace is not None:
                trace[:, k, 0] = np.linalg.norm(x, axis=1)
                trace[:, k, 1] = np.linalg.norm(g, axis=1)
            if adam:
                # wm += eta_k * (m * m)
                np.multiply(m, m, out=tmp)
                tmp *= eta_k
                wm += tmp
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

        if trace is not None:
            trace[:, n_steps, 0] = np.linalg.norm(x, axis=1)
            trace[:, n_steps, 1] = np.linalg.norm(objective.gradient(x), axis=1)

        wg_sum = np.sum(wg, axis=1)
        bad = ~np.isfinite(x).all(axis=1) | ~np.isfinite(wg_sum)
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
        self.wgrad[start:stop] = wg_sum / weight if weight > 0 else 0.0
        if adam:
            self.wmom[start:stop] = np.sum(wm, axis=1) / weight if weight > 0 else 0.0

    def report(self) -> SimulationReport:
        config, n_paths, ts = self.config, self.config.n_paths, self.ts
        samples = {"weighted_avg_grad_sq": self.wgrad, "final_value": self.final_val,
                   "final_sq_dist": self.final_sq}
        if self.adam:
            samples["weighted_avg_momentum_sq"] = self.wmom
        stats = {name: _summary(name, values) for name, values in samples.items()}

        trapping = {eps: StatSummary.binomial(float(np.mean(self.final_sq <= eps)), n_paths)
                    for eps in config.trap_eps}

        trace_t = None
        if self.traces is not None:
            trace_t = np.append(ts, min(ts.size * config.eta0, config.schedule.S))

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
            traces=self.traces,
            trace_t=trace_t,
        )
