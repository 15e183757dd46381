"""Command-line entry point: fit, predict, rank, check, sweep, simulate, validate.

All reports are JSON with sorted keys (UTF-8); grids are CSV with a header
row.  Identical inputs and seed produce byte-identical outputs.  Exit codes:
0 success, 1 usage or data errors, 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sde
from .divergence import DEFAULT_PARAMS, DivergenceParams, criterion_R
from .features import FeatureError, Normalizer
from .law import (
    DIVERGED_LOSS,
    FittedLaw,
    LawFitError,
    PretrainContext,
    RunConfig,
    RunRecord,
    fit,
    predict,
    rank,
)
from .numerics import adaptive_simpson
from .schedule import Schedule, ScheduleError, build_general_schedule

__all__ = ["main", "sweep_grid", "read_runs_csv", "Workspace"]

RUNS_COLUMNS = ["model_B", "tokens_B", "eta1", "eta2", "a1_B", "a2_B", "a3_B", "loss", "diverged"]


class DataError(Exception):
    """Malformed input file; message carries the offending location."""


@dataclass
class Workspace:
    """On-disk layout for a batch of experiments.

    Laws live under ``laws/`` keyed by id; reports under ``reports/``.
    Saving then loading a law is byte-stable (the JSON form is canonical).
    """

    root: Path
    runs: Path = field(init=False)
    laws: Path = field(init=False)
    reports: Path = field(init=False)
    active_law: str | None = None

    def __post_init__(self):
        self.root = Path(self.root)
        self.runs = self.root / "runs.csv"
        self.laws = self.root / "laws"
        self.reports = self.root / "reports"
        self.laws.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(parents=True, exist_ok=True)

    def law_path(self, law_id: str) -> Path:
        return self.laws / f"{law_id}.json"

    def save_law(self, law_id: str, law: FittedLaw) -> Path:
        path = self.law_path(law_id)
        path.write_text(law.to_json(), encoding="utf-8")
        self.active_law = law_id
        return path

    def load_law(self, law_id: str | None = None) -> FittedLaw:
        law_id = law_id or self.active_law
        if law_id is None:
            raise DataError("workspace has no active law")
        return FittedLaw.from_json(self.law_path(law_id).read_text(encoding="utf-8"))


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
    counts converted once here.
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
                diverged = int(row["diverged"]) != 0
                if token_length is not None and batch is not None:
                    factor = token_length * batch / 1e9
                    for key in ("tokens_B", "a1_B", "a2_B", "a3_B"):
                        vals[key] *= factor
                records.append(
                    RunRecord.from_billions(
                        model_B=vals["model_B"],
                        tokens_B=vals["tokens_B"],
                        eta1=vals["eta1"],
                        eta2=vals["eta2"],
                        a1_B=vals["a1_B"],
                        a2_B=vals["a2_B"],
                        a3_B=vals["a3_B"],
                        loss=vals["loss"] if not diverged else DIVERGED_LOSS,
                        diverged=diverged,
                    )
                )
            except (KeyError, TypeError, ValueError, ScheduleError) as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    return records


def _config_schedule(cfg: dict, lr_scale: float) -> Schedule:
    return build_general_schedule(
        cfg["eta1"] / lr_scale,
        cfg["eta2"] / lr_scale,
        cfg["a1_B"],
        cfg["a2_B"],
        cfg["a3_B"],
        cfg["tokens_B"],
    )


def _load_config(cfg: dict, law: FittedLaw) -> RunConfig:
    try:
        schedule = _config_schedule(cfg, law.lr_scale)
        pre = None
        if "pre" in cfg and cfg["pre"] is not None:
            pre_sched = _config_schedule(cfg["pre"], law.lr_scale)
            pre = PretrainContext(pre_sched)
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
    cooldown to zero.
    """
    if len(eta_values) == 0 or len(warmup_values) == 0:
        raise ValueError("sweep ranges must be nonempty")
    rows = []
    for a in warmup_values:
        if a <= 0 or a >= S:
            raise ValueError(f"warmup {a} outside (0, S={S})")
        for h in eta_values:
            if h <= 0:
                raise ValueError(f"peak rate {h} must be positive")
            res = criterion_R(h, a, N, S, gate)
            if res.verdict == "diverge":
                rows.append((h, a, res.R, sentinel))
                continue
            schedule = build_general_schedule(h, h, a, a, a, S)
            pred = predict(law, RunConfig(schedule=schedule, N=N))
            rows.append((h, a, res.R, pred["loss"]))
    return rows


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"range must be lo:hi:count, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise DataError(f"range count must be >= 1, got {n}")
    return np.linspace(lo, hi, n)


def _write_grid_csv(rows, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eta_max", "warmup_B", "R", "predicted_loss"])
        for h, a, r, loss in rows:
            writer.writerow([repr(float(h)), repr(float(a)), repr(float(r)), repr(float(loss))])


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
    with open(args.law, encoding="utf-8") as fh:
        law = FittedLaw.from_json(fh.read())
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    pred = predict(law, _load_config(cfg, law))
    sys.stdout.write(_dump_json(pred, args.out))
    return 0


def _cmd_rank(args) -> int:
    with open(args.law, encoding="utf-8") as fh:
        law = FittedLaw.from_json(fh.read())
    with open(args.configs, encoding="utf-8") as fh:
        cfgs = json.load(fh)
    if not isinstance(cfgs, list) or not cfgs:
        raise DataError(f"{args.configs}: need a nonempty JSON list of configs")
    ranked = rank(law, [_load_config(c, law) for c in cfgs], gate=_gate_from_args(args))
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
    eta_max = args.eta_max / args.lr_scale if args.raw_lr else args.eta_max
    res = criterion_R(eta_max, args.warmup, args.model, args.tokens, _gate_from_args(args))
    sys.stdout.write(_dump_json(res.as_dict(), args.out))
    return 0


def _cmd_sweep(args) -> int:
    with open(args.law, encoding="utf-8") as fh:
        law = FittedLaw.from_json(fh.read())
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


def _make_objective(name: str, dim: int):
    if name == "quadratic":
        return sde.isotropic_quadratic(dim)
    if name == "double_well":
        return sde.double_well(dim)
    if name == "rosenbrock":
        return sde.rosenbrock(dim)
    raise DataError(f"unknown objective {name!r}")


def _cmd_simulate(args) -> int:
    if args.dim < 1:
        raise DataError(f"--dim must be at least 1, got {args.dim}")
    objective = _make_objective(args.objective, args.dim)
    noise = sde.NoiseModel.isotropic(args.dim, args.sigma2, D=args.noise_samples)
    if args.schedule_json:
        with open(args.schedule_json, encoding="utf-8") as fh:
            schedule = Schedule.from_json(fh.read())
    else:
        schedule = build_general_schedule(
            args.peak, args.peak, args.warmup, args.warmup, args.warmup, args.horizon
        )
    x_star = objective.x_star
    x0 = x_star + args.x0_offset * np.ones(args.dim) / math.sqrt(args.dim)
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
    report = sde.simulate(objective, noise, config, x_star=x_star)

    constants = {"x0": x0, "f0": float(objective.value(x0)), "eta0": args.eta0}
    if args.algorithm == "adam":
        constants.update(
            V=float(np.max(np.diag(noise.Sigma_g))) if np.any(noise.Sigma_g) else 0.0,
            eps=config.eps,
            c1=config.c1,
            c2=config.c2,
            c1_prime=config.c1_prime,
            sigma_bar=noise.sigma_g ** 2,
        )
    bounds = sde.convergence_bound(
        args.algorithm, objective, noise, schedule, config.T, constants
    )
    checks = {}
    if args.algorithm == "adam":
        checks["v_nonnegative"] = bool(report.v_min >= 0.0)
        stat = report.stats["weighted_avg_momentum_sq"]
        checks["momentum_bound_dominates"] = bool(
            stat.mean <= bounds["momentum"] + 3.0 * stat.std_err
        )
    else:
        stat = report.stats["weighted_avg_grad_sq"]
        checks["gradient_bound_dominates"] = bool(
            stat.mean <= bounds["gradient"] + 3.0 * stat.std_err
        )
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
        "bounds": bounds,
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
        for functional, f in (
            ("eta", schedule.value),
            ("eta_sq", lambda t: schedule.value(t) ** 2),
            ("deta_sq", lambda t: schedule.derivative(t) ** 2),
        ):
            exact = schedule.integral(0.0, S, functional)
            approx = sum(
                adaptive_simpson(f, seg.t0, seg.t1, tol=1e-12)
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
    for algo in ("sgd", "adam"):
        config = sde.SdeConfig(
            schedule=schedule, eta0=0.01, n_paths=paths, seed=seed, algorithm=algo, x0=x0
        )
        rep = sde.simulate(obj, noise, config)
        constants = {"x0": x0, "eta0": 0.01}
        if algo == "adam":
            constants.update(
                V=0.05, eps=config.eps, c1=1.0, c2=1.0,
                c1_prime=config.c1_prime, sigma_bar=noise.sigma_g ** 2,
            )
            stat = rep.stats["weighted_avg_momentum_sq"]
            bound = sde.convergence_bound(algo, obj, noise, schedule, config.T, constants)["momentum"]
        else:
            stat = rep.stats["weighted_avg_grad_sq"]
            bound = sde.convergence_bound(algo, obj, noise, schedule, config.T, constants)["gradient"]
        passed = stat.mean <= bound + 3.0 * stat.std_err
        detail[algo] = {"empirical": stat.mean, "bound": bound, "passed": bool(passed)}
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
        passed = stat.mean <= bound + 3.0 * stat.std_err
        cases.append({"eps": eps, "empirical": stat.mean, "bound": bound, "passed": bool(passed)})
        ok &= passed
    suites["trapping_bound"] = {"cases": cases, "trace": trace, "passed": bool(ok)}

    suites["passed"] = all(v["passed"] for k, v in suites.items() if k != "passed")
    return suites


def _cmd_validate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    suites = _validate_suites(seed, args.quick)
    sys.stdout.write(_dump_json(suites, args.out))
    return 0 if suites["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
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
                   choices=["quadratic", "double_well", "rosenbrock"])
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
    except (DataError, LawFitError, FeatureError, ScheduleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
