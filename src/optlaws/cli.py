"""Command-line entry point: fit, predict, rank, check, sweep, simulate, validate.

All reports are JSON with sorted keys (UTF-8); grids are CSV with a header
row.  Identical inputs and seed produce byte-identical outputs.  Exit codes:
0 success, 1 usage or data errors, 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import sde
from .divergence import (
    DEFAULT_PARAMS,
    DivergenceParams,
    criterion_R,
    critical_rate,
    divergence_ratio,
    gated_criterion,
)
from .features import Normalizer
from .law import (
    DIVERGED_LOSS,
    FittedLaw,
    PretrainContext,
    RunConfig,
    RunRecord,
    fit,
    general_log_losses,
    predict,
    rank,
)
from .numerics import adaptive_simpson
from .schedule import Schedule, build_general_schedule
from .sde.objectives import CATALOG

__all__ = ["main", "sweep_grid", "read_runs_csv"]

RUNS_COLUMNS = ["model_B", "tokens_B", "eta1", "eta2", "a1_B", "a2_B", "a3_B", "loss", "diverged"]


class DataError(Exception):
    """Malformed input file; message carries the offending location."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _default_seed() -> int:
    return int(os.environ.get("OPTLAWS_SEED", "0"))


def _dump_json(payload, path=None) -> str:
    # NaN and infinities are not JSON; refuse them rather than print them
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_runs_csv(path: str, token_length=None, batch=None) -> list[RunRecord]:
    """Parse a run-log CSV into records.

    Default columns carry sizes pre-converted to billions of tokens; when
    ``token_length`` and ``batch`` are given, the size columns are raw step
    counts, converted to billions here and nowhere else.
    """
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != RUNS_COLUMNS:
            raise DataError(
                f"{path}: header must be {','.join(RUNS_COLUMNS)}, got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                vals = {k: float(row[k]) for k in RUNS_COLUMNS[:-1]}
                if token_length is not None and batch is not None:
                    for key in ("tokens_B", "a1_B", "a2_B", "a3_B"):
                        vals[key] = Normalizer.tokens_billions(vals[key], token_length, batch)
                records.append(RunRecord(**vals, diverged=int(row["diverged"]) != 0))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    return records


def _read_law(path: str) -> FittedLaw:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return FittedLaw.from_json(text)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _config_schedule(cfg: dict, normalizer: Normalizer) -> Schedule:
    return build_general_schedule(
        normalizer.normalize_lr(cfg["eta1"]),
        normalizer.normalize_lr(cfg["eta2"]),
        cfg["a1_B"],
        cfg["a2_B"],
        cfg["a3_B"],
        cfg["tokens_B"],
    )


def _load_config(cfg: dict, normalizer: Normalizer) -> RunConfig:
    try:
        schedule = _config_schedule(cfg, normalizer)
        pre = None
        if "pre" in cfg and cfg["pre"] is not None:
            pre = PretrainContext(_config_schedule(cfg["pre"], normalizer))
        return RunConfig(schedule=schedule, N=cfg["model_B"], pre=pre)
    except KeyError as exc:
        raise DataError(f"config is missing field {exc}") from None
    except TypeError as exc:  # not a JSON object, or a field of the wrong type
        raise DataError(f"malformed config: {exc}") from None


def _gate_from_args(args) -> DivergenceParams:
    if not getattr(args, "gate_overrides", None):
        return DEFAULT_PARAMS
    try:
        overrides = json.loads(args.gate_overrides)
    except json.JSONDecodeError as exc:
        raise DataError(f"--gate-overrides is not JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise DataError("--gate-overrides must be a JSON object")
    known = DEFAULT_PARAMS.__dict__
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise DataError(
            f"--gate-overrides: unknown parameter(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    return DivergenceParams(**{**known, **overrides})


def sweep_grid(
    law: FittedLaw,
    gate: DivergenceParams,
    eta_values,
    warmup_values,
    N: float,
    S: float,
    sentinel: float = DIVERGED_LOSS,
) -> list[tuple[float, float, float, float]]:
    """(eta_max, warmup, R, predicted loss) over a grid, warmup-major order.

    Cells the divergence criterion rejects (R > 1) carry the sentinel loss.
    Schedules are linear warmup to the peak rate followed by linear
    cooldown to zero.  The gate and the law price the whole grid in one
    numpy pass; R equals :func:`gated_criterion` on each cell exactly.
    """
    if len(eta_values) == 0 or len(warmup_values) == 0:
        raise ValueError("sweep ranges must be nonempty")
    # Input checks in cell order.  A cell fails through its warmup, its peak
    # rate, or N and S, so the scalar gate on the first row and the first
    # column raises the error the first failing cell would.
    for i, a in enumerate(warmup_values):
        if a <= 0 or a >= S:
            raise ValueError(f"warmup {a} outside (0, S={S})")
        for h in eta_values if i == 0 else eta_values[:1]:
            if h <= 0:
                raise ValueError(f"peak rate {h} must be positive")
            gated_criterion(h, a, N, S, gate)
    h = np.asarray(eta_values, dtype=float)
    a = np.asarray(warmup_values, dtype=float)[:, np.newaxis]
    threshold = critical_rate(N, S, gate)
    eta_l = np.where(threshold < h, threshold, h)  # min(h, threshold) as criterion_R takes it
    R = divergence_ratio(h, a * a, S * S, eta_l, gate)  # one row per warmup
    stable = ~(R > 1.0)
    loss = np.full(R.shape, float(sentinel))
    if stable.any():
        hs, ws = np.broadcast_to(h, R.shape)[stable], np.broadcast_to(a, R.shape)[stable]
        loss[stable] = np.exp(general_log_losses(law, hs, hs, ws, ws, ws, S, N))
    cells = itertools.product(a.ravel().tolist(), h.tolist())
    return [(h, a, r, l) for (a, h), r, l in zip(cells, R.ravel().tolist(), loss.ravel().tolist())]


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"range must be lo:hi:count, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise DataError(f"range count must be >= 1, got {n}")
    return np.linspace(lo, hi, n)


def _write_grid_csv(rows, path: str):
    # the bytes csv.writer gives: float reprs never need quoting, and "\r\n"
    # is its line ending
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("eta_max,warmup_B,R,predicted_loss\r\n")
        fh.write("".join(f"{h!r},{a!r},{r!r},{loss!r}\r\n" for h, a, r, loss in rows))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    records = read_runs_csv(args.runs, args.token_length, args.batch)
    law = fit(
        records,
        policy_rule=args.policy,
        include_escape=not args.no_escape_terms,
        normalizer=Normalizer(lr_scale=args.lr_scale),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(law.to_json())
    n_div = sum(1 for r in records if r.diverged)
    report = {
        "law": args.out,
        "n_records": len(records),
        "n_divergent_excluded": n_div,
        "residual_rms": law.residual_rms,
        "condition_number": law.condition_number,
    }
    sys.stdout.write(_dump_json(report, args.report))
    return 0


def _cmd_predict(args) -> int:
    law = _read_law(args.law)
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    pred = predict(law, _load_config(cfg, Normalizer(law.lr_scale)))
    sys.stdout.write(_dump_json(pred, args.out))
    return 0


def _cmd_rank(args) -> int:
    law = _read_law(args.law)
    with open(args.configs, encoding="utf-8") as fh:
        cfgs = json.load(fh)
    if not isinstance(cfgs, list) or not cfgs:
        raise DataError(f"{args.configs}: need a nonempty JSON list of configs")
    normalizer = Normalizer(law.lr_scale)
    configs = [_load_config(c, normalizer) for c in cfgs]
    ranked = rank(law, configs, gate=_gate_from_args(args))
    table = [
        {
            "rank": i + 1,
            "index": r.index,
            "verdict": r.verdict,
            "R": r.R if math.isfinite(r.R) else None,
            "eta_L": r.eta_L,
            "log_loss": r.log_loss,
            "loss": r.loss,
            "config": cfgs[r.index],
        }
        for i, r in enumerate(ranked)
    ]
    sys.stdout.write(_dump_json(table, args.out))
    return 0


def _cmd_check(args) -> int:
    eta_max = args.eta_max
    if args.raw_lr:
        eta_max = Normalizer(args.lr_scale).normalize_lr(eta_max)
    res = criterion_R(eta_max, args.warmup, args.model, args.tokens, _gate_from_args(args))
    sys.stdout.write(_dump_json(res.as_dict(), args.out))
    return 0


def _cmd_sweep(args) -> int:
    law = _read_law(args.law)
    rows = sweep_grid(
        law,
        _gate_from_args(args),
        _parse_range(args.eta_max_range),
        _parse_range(args.warmup_range),
        N=args.model,
        S=args.tokens,
        sentinel=args.sentinel,
    )
    _write_grid_csv(rows, args.out)
    sys.stdout.write(_dump_json({"grid": args.out, "rows": len(rows)}))
    return 0


def _convergence_check(objective, noise, config, report):
    """(name, statistic, bound) of the convergence bound an ensemble must respect.

    SGD's weighted-average squared gradient is held against the gradient
    bound, Adam's weighted-average squared momentum against the momentum
    bound.
    """
    name, key = "gradient", "weighted_avg_grad_sq"
    if config.algorithm == "adam":
        name, key = "momentum", "weighted_avg_momentum_sq"
    return name, report.stats[key], sde.convergence_bound(objective, noise, config)[name]


def _within_bound(stat, bound: float) -> bool:
    """A Monte-Carlo mean respects an upper bound up to three standard errors."""
    return bool(stat.mean <= bound + 3.0 * stat.std_err)


def _cmd_simulate(args) -> int:
    if args.dim < 1:
        raise DataError(f"--dim must be at least 1, got {args.dim}")
    objective = CATALOG[args.objective](args.dim)
    noise = sde.NoiseModel.isotropic(args.dim, args.sigma2, D=args.noise_samples)
    if args.schedule_json:
        with open(args.schedule_json, encoding="utf-8") as fh:
            schedule = Schedule.from_json(fh.read())
    else:
        schedule = build_general_schedule(
            args.peak, args.peak, args.warmup, args.warmup, args.warmup, args.horizon
        )
    x0 = objective.x_star + args.x0_offset * np.ones(args.dim) / math.sqrt(args.dim)
    config = sde.SdeConfig(
        schedule=schedule,
        eta0=args.eta0,
        n_paths=args.paths,
        seed=args.seed if args.seed is not None else _default_seed(),
        algorithm=args.algorithm,
        trap_eps=tuple(args.trap_eps or ()),
        x0=x0,
        record_traces=bool(args.trace_csv),
    )
    report = sde.simulate(objective, noise, config)

    name, stat, bound = _convergence_check(objective, noise, config, report)
    checks = {f"{name}_bound_dominates": _within_bound(stat, bound)}
    if args.algorithm == "adam":
        checks["v_nonnegative"] = bool(report.v_min >= 0.0)
    payload = {
        "config": {
            "objective": args.objective,
            "dim": args.dim,
            "algorithm": args.algorithm,
            "eta0": args.eta0,
            "paths": args.paths,
            "seed": config.seed,
            "schedule": json.loads(schedule.to_json()),
        },
        "report": report.as_dict(),
        "bounds": {name: bound},
        "checks": checks,
    }
    sys.stdout.write(_dump_json(payload, args.out))
    if args.trace_csv and report.traces is not None:
        with open(args.trace_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t", "x_norm", "grad_norm"])
            for path_idx, t_grid, tr in report.traces:
                for t, (xn, gn) in zip(t_grid, tr):
                    writer.writerow([path_idx, repr(float(t)), repr(float(xn)), repr(float(gn))])
    return 0


def _validate_suites(seed: int, quick: bool) -> dict:
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
    gaps = {}
    for algo in ("sgd", "adam"):
        ga = sde.gaussian_approx(obj, noise, schedule, np.zeros(dim), algo, grid, eta0=0.01)
        gaps[algo] = ga.max_route_gap()
    suites["gaussian_approx_routes"] = {
        "max_gap": max(gaps.values()),
        "per_algorithm": gaps,
        "passed": bool(max(gaps.values()) <= 1e-6),
    }

    # 3. convergence-bound domination on a quadratic
    dim = 8
    paths = 500 if quick else 2000
    obj = sde.isotropic_quadratic(dim)
    noise = sde.NoiseModel.isotropic(dim, 0.05, D=64)
    x0 = np.full(dim, 1.0 / math.sqrt(dim))
    ok = True
    detail = {}
    configs = {
        algo: sde.SdeConfig(
            schedule=schedule, eta0=0.01, n_paths=paths, seed=seed, algorithm=algo, x0=x0
        )
        for algo in ("sgd", "adam")
    }
    reports = sde.simulate_many([(obj, config) for config in configs.values()], noise)
    for (algo, config), rep in zip(configs.items(), reports):
        _, stat, bound = _convergence_check(obj, noise, config, rep)
        passed = _within_bound(stat, bound)
        detail[algo] = {"empirical": stat.mean, "bound": bound, "passed": passed}
        ok &= passed
    suites["bound_domination"] = {**detail, "passed": bool(ok)}

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

    # 5. trace concentration of the empirical covariance
    n_trials = 500 if quick else 2000
    rm = sde.random_matrix_checks(np.eye(32), D=32, N=32, n_trials=n_trials, seed=seed)
    passed = all(f <= b for f, b in zip(rm.deviation_freq, rm.bernstein))
    suites["random_matrix"] = {**rm.as_dict(), "passed": bool(passed)}

    # 6. trapping probability against the covariance-trace bound
    dim = 6
    obj = sde.isotropic_quadratic(dim)
    noise = sde.NoiseModel.isotropic(dim, 1.0, D=64)
    trap_sched = build_general_schedule(1.0, 1.0, 0.5, 0.5, 0.5, 2.0)
    ga = sde.gaussian_approx(obj, noise, trap_sched, np.zeros(dim), "sgd", [2.0], eta0=0.01)
    trace = float(np.trace(ga.P_closed[0]))
    eps_list = tuple(f * trace for f in (0.01, 0.1, 0.5))
    config = sde.SdeConfig(
        schedule=trap_sched, eta0=0.01, n_paths=500 if quick else 2000,
        seed=seed, algorithm="sgd", trap_eps=eps_list,
    )
    rep = sde.simulate(obj, noise, config)
    ok = True
    cases = []
    for eps in eps_list:
        stat = rep.trapping[eps]
        bound = sde.anti_concentration_bound(eps, trace)
        passed = _within_bound(stat, bound)
        cases.append({"eps": eps, "empirical": stat.mean, "bound": bound, "passed": passed})
        ok &= passed
    suites["trapping_bound"] = {"cases": cases, "trace": trace, "passed": bool(ok)}

    suites["passed"] = all(v["passed"] for k, v in suites.items() if k != "passed")
    return suites


def _cmd_validate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    suites = _validate_suites(seed, args.quick)
    sys.stdout.write(_dump_json(suites, args.out))
    return 0 if suites["passed"] else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``optlaws`` parser, built on the first call and shared by every later
    one: parsing stores nothing on it, so :func:`main` reuses it call after call."""
    parser = _Parser(prog="optlaws", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a law to a run-log CSV")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--policy", default="a1/a3/a2", choices=["a1/a3/a2", "all-a1"])
    p.add_argument("--lr-scale", type=float, default=1.5e-2)
    p.add_argument("--token-length", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--no-escape-terms", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict loss for one config")
    p.add_argument("--law", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("rank", help="rank candidate configs")
    p.add_argument("--law", required=True)
    p.add_argument("--configs", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--gate-overrides", default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("check", help="divergence criterion for one config")
    p.add_argument("--eta-max", type=float, required=True)
    p.add_argument("--warmup", type=float, required=True, help="warmup in billions of tokens")
    p.add_argument("--model", type=float, required=True, help="model size in billions")
    p.add_argument("--tokens", type=float, required=True, help="horizon in billions of tokens")
    p.add_argument("--raw-lr", action="store_true", help="eta-max is a raw LR; normalize it")
    p.add_argument("--lr-scale", type=float, default=1.5e-2)
    p.add_argument("--gate-overrides", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="predicted-loss grid over peak rate x warmup")
    p.add_argument("--law", required=True)
    p.add_argument("--eta-max-range", required=True, help="lo:hi:count (normalized)")
    p.add_argument("--warmup-range", required=True, help="lo:hi:count (billions)")
    p.add_argument("--model", type=float, required=True)
    p.add_argument("--tokens", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sentinel", type=float, default=DIVERGED_LOSS)
    p.add_argument("--gate-overrides", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Euler-Maruyama ensemble of SGD/Adam")
    p.add_argument("--objective", default="quadratic",
                   choices=list(CATALOG))
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--algorithm", default="sgd", choices=["sgd", "adam"])
    p.add_argument("--peak", type=float, default=0.5, help="normalized peak rate")
    p.add_argument("--warmup", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=4.0)
    p.add_argument("--schedule-json", default=None)
    p.add_argument("--eta0", type=float, default=0.01)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--sigma2", type=float, default=0.1, help="isotropic noise variance")
    p.add_argument("--noise-samples", type=int, default=64)
    p.add_argument("--x0-offset", type=float, default=1.0)
    p.add_argument("--trap-eps", type=float, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-csv", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="run the theory-validation suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one ``optlaws`` command line and return its exit code.

    Safe to call many times in one process; every call parses with the one
    parser :func:`build_parser` keeps.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DataError, ValueError, OSError, MemoryError, sde.SimulationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
