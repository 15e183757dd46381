"""Command-line entry point: fit, predict, rank, check, sweep, simulate, validate.

Identical inputs and seed produce byte-identical outputs, in these formats:

- Reports are JSON, the bytes of ``json.dumps(payload, sort_keys=True,
  indent=2, allow_nan=False)`` and a newline: sorted keys, a two-space
  indent, non-ASCII characters as ``\\u`` escapes, and floats as their
  ``repr``.  A NaN or infinity is refused with one ``error:`` line, and no
  ``--out`` file is written.
- Grids and traces are CSV with a header row, the bytes ``csv.writer``
  gives: floats as their ``repr`` and ``\\r\\n`` line endings.

Exit codes: 0 success, 1 usage or data errors, 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .divergence import (
    DEFAULT_PARAMS,
    DivergenceParams,
    criterion_R,
    gated_criteria,
    gated_criterion,
)
from .features import (
    DEFAULT_MARKER_RULE,
    LR_SCALE,
    MARKER_RULES,
    FeatureError,
    Normalizer,
    compute_features,
    marker_policy,
)
from .law import (
    DIVERGED_LOSS,
    ConfigBatch,
    FittedLaw,
    RunConfig,
    RunRecord,
    RunTable,
    fit,
    general_log_losses,
    predict,
    rank,
)
from .schedule import Schedule, ScheduleError, ScheduleTable, build_general_schedule, json_input

__all__ = ["main", "sweep_grid", "read_runs_csv"]

RUNS_COLUMNS = [f.name for f in dataclasses.fields(RunTable)]

# simulate's --objective choices, in the order argparse lists them, each the
# name of the optlaws.sde constructor that takes the dimension
OBJECTIVES = {"quadratic": "isotropic_quadratic", "double_well": "double_well",
              "rosenbrock": "rosenbrock"}


class DataError(Exception):
    """Malformed input file; message carries the offending location."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1 with one line, not argparse's 2
        raise SystemExit(f"error: {message}")


def _seed(args) -> int:
    """The run's seed: ``--seed``, else ``OPTLAWS_SEED``, else 0.  A value
    that is not a non-negative integer is refused by the name it came in."""
    if args.seed is not None:
        source, text = "--seed", args.seed
    else:
        source, text = "OPTLAWS_SEED", os.environ.get("OPTLAWS_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise DataError(f"{source} must be a non-negative integer, got {text!r}")
    return seed


def _float_text(value: float) -> str:
    if not math.isfinite(value):  # NaN and infinities are not JSON
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# how a leaf of each exact type is written; bool is tested before int
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2,
    allow_nan=False)`` writes it at ``indent``, with each container built by
    one join.  Keys must be str: encoding any other key raises TypeError.
    (The stdlib drops its C encoder when given an indent, and its pure-Python
    one yields every token through a chain of generators.)"""
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    for kind in (str, int, float):  # subclasses, np.float64 among them
        if isinstance(value, kind):
            return _JSON_LEAVES[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump_json(payload, path=None) -> str:
    """:func:`_json_text` of ``payload`` and a newline, also written to
    ``path`` if given.  The text is built first, so a refused payload (a
    NaN, say) leaves no file."""
    text = _json_text(payload, "") + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _run_table(cells, token_length, batch) -> RunTable:
    """The :class:`RunTable` of a run log's cells, one sequence per column of
    :data:`RUNS_COLUMNS`."""
    n = len(cells[-1])
    columns = {name: np.fromiter(map(float, col), float, n)
               for name, col in zip(RUNS_COLUMNS[:-1], cells)}
    if token_length is not None:
        for name in ("tokens_B", "a1_B", "a2_B", "a3_B"):
            columns[name] = Normalizer.tokens_billions(columns[name], float(token_length),
                                                       float(batch))
    diverged = np.array([int(cell) != 0 for cell in cells[-1]], dtype=bool)
    return RunTable(**columns, diverged=diverged)


def read_runs_csv(path: str, token_length=None, batch=None) -> RunTable:
    """Parse a run-log CSV into a :class:`RunTable`, reading cells by position.

    Default columns carry sizes pre-converted to billions of tokens; when
    ``token_length`` and ``batch`` are given (one alone is an error), the size
    columns are raw step counts, converted to billions here and nowhere else.
    Blank lines are skipped and not counted, a short row's missing cells are
    None and a long row's extra cells are ignored.  When the columns cannot be
    read, the rows are read again one at a time in order, and the error is the
    one the first bad row gives alone, named by its line.
    """
    if (token_length is None) != (batch is None):
        raise DataError("--token-length and --batch go together: give both or neither")
    if token_length is not None and max(abs(token_length), abs(batch)) > sys.float_info.max:
        raise DataError("--token-length or --batch is too large for a float")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != RUNS_COLUMNS:
                raise DataError(f"{path}: header must be {','.join(RUNS_COLUMNS)}, got {header}")
            rows = [row for row in reader if row]
        except csv.Error as exc:  # a cell over the csv module's field size limit
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    width = len(RUNS_COLUMNS)
    cells = list(itertools.zip_longest(*rows))[:width]
    cells += [(None,) * len(rows)] * (width - len(cells))
    try:
        return _run_table(cells, token_length, batch)
    except (TypeError, ValueError):  # replay the rows one at a time, in order
        for i in range(len(rows)):
            try:
                _run_table([col[i:i + 1] for col in cells], token_length, batch)
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path} line {i + 2}: {exc}") from None
        raise


def _read_json(path: str, parse=json.loads):
    """``parse`` of a JSON file's text; an error raised while decoding or
    parsing it (bytes that are not UTF-8, a syntax error, nesting too deep
    for the decoder, or a law or schedule field at fault) names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
        except RecursionError:
            raise DataError(f"{path}: JSON nested too deeply to read") from None


SCHEDULE_FIELDS = ("eta1", "eta2", "a1_B", "a2_B", "a3_B", "tokens_B")


def _read_fields(cfgs: list, fields) -> list[list]:
    """The named number fields of JSON configs, one list per field."""
    with json_input("config") as numbers:
        return [numbers([cfg[field] for cfg in cfgs], field) for field in fields]


def _schedule_columns(cfgs: list, normalizer: Normalizer) -> list[list]:
    """The :func:`build_general_schedule` arguments of JSON configs, one list
    per argument."""
    eta1, eta2, *rest = _read_fields(cfgs, SCHEDULE_FIELDS)
    lr = normalizer.normalize_lr
    return [[lr(x) for x in eta1], [lr(x) for x in eta2], *rest]


def _load_config(cfg, normalizer: Normalizer) -> RunConfig:
    """One JSON config: its schedule, the LR area of its pre block's schedule
    if it has one, then its model size, read in that order."""
    schedule = lambda block: build_general_schedule(
        *(col[0] for col in _schedule_columns([block], normalizer)))
    main = schedule(cfg)
    pre_area = math.nan
    if cfg.get("pre") is not None:
        pre = schedule(cfg["pre"])
        pre_area = pre.integral(0.0, pre.S, "eta")
    ((N,),) = _read_fields([cfg], ["model_B"])
    return RunConfig(main, N, pre_area)


def _load_candidates(cfgs: list, normalizer: Normalizer) -> ConfigBatch:
    """JSON configs as one batch, read field by field into columns: a table
    of their schedules, then the LR areas of their pre blocks (NaN for a
    config without one), from one table of the pre blocks present."""
    table = ScheduleTable.four_phase(*_schedule_columns(cfgs, normalizer))
    rows = [i for i, cfg in enumerate(cfgs) if cfg.get("pre") is not None]
    pre_area = np.full(len(cfgs), math.nan)
    if rows:
        pre = ScheduleTable.four_phase(*_schedule_columns([cfgs[i]["pre"] for i in rows], normalizer))
        pre_area[rows] = pre.integral(0.0, pre.S, "eta")
    (N,) = _read_fields(cfgs, ["model_B"])
    return ConfigBatch(table, np.array(N, dtype=float), pre_area)


def _gate_from_args(args) -> DivergenceParams:
    if not getattr(args, "gate_overrides", None):
        return DEFAULT_PARAMS
    try:
        overrides = json.loads(args.gate_overrides)
    except json.JSONDecodeError as exc:
        raise DataError(f"--gate-overrides is not JSON: {exc}") from None
    except RecursionError:
        raise DataError("--gate-overrides: JSON nested too deeply to read") from None
    if not isinstance(overrides, dict):
        raise DataError("--gate-overrides must be a JSON object")
    known = DEFAULT_PARAMS.__dict__
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise DataError(f"--gate-overrides: unknown parameter(s) {', '.join(unknown)}; "
                        f"known: {', '.join(known)}")
    with json_input("--gate-overrides") as numbers:
        return DivergenceParams(**{**known, **{k: numbers([v], k)[0] for k, v in overrides.items()}})


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
    cooldown to zero.  The ranges are checked first (every warmup in (0, S),
    then every peak rate positive); then :func:`gated_criteria` gates the
    whole grid, raising the first bad cell's error, and the law prices it,
    each in one numpy pass.
    """
    if len(eta_values) == 0 or len(warmup_values) == 0:
        raise ValueError("sweep ranges must be nonempty")
    for a in warmup_values:
        if a <= 0 or a >= S:
            raise ValueError(f"warmup {a} outside (0, S={S})")
    for h in eta_values:
        if h <= 0:
            raise ValueError(f"peak rate {h} must be positive")
    h, a = np.meshgrid(np.asarray(eta_values, dtype=float), np.asarray(warmup_values, dtype=float))
    R, _ = gated_criteria(h, a, N, S, gate)  # one row per warmup
    stable = ~(R > 1.0)
    loss = np.full(R.shape, float(sentinel))
    if stable.any():
        hs, ws = h[stable], a[stable]
        with np.errstate(over="ignore"):  # a loss too large for exp is inf, as CSV holds it
            loss[stable] = np.exp(general_log_losses(law, hs, hs, ws, ws, ws, S, N))
    return list(zip(h.ravel().tolist(), a.ravel().tolist(), R.ravel().tolist(),
                    loss.ravel().tolist()))


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"range must be lo:hi:count, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not math.isfinite(hi - lo):  # false for a NaN or infinite end too
        raise DataError(f"range ends and their span must be finite, got {text!r}")
    if n < 1:
        raise DataError(f"range count must be >= 1, got {n}")
    return np.linspace(lo, hi, n)


def _write_grid_csv(rows, eta_values, warmup_values, path: str):
    """Write :func:`sweep_grid`'s rows over these ranges as CSV.

    The bytes are the ones csv.writer gives: float reprs never need quoting,
    and ``\\r\\n`` is its line ending.  The rows are warmup-major, so each
    range value is formatted once and paired with the rows by position.
    """
    etas = [f"{h!r}," for h in np.asarray(eta_values, dtype=float).tolist()]
    warmups = [f"{a!r}," for a in np.asarray(warmup_values, dtype=float).tolist()]
    cells = zip(itertools.product(warmups, etas), rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("eta_max,warmup_B,R,predicted_loss\r\n")
        fh.write("".join(f"{h}{a}{r!r},{loss!r}\r\n" for (a, h), (_, _, r, loss) in cells))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    runs = read_runs_csv(args.runs, args.token_length, args.batch)
    normalizer = Normalizer(lr_scale=args.lr_scale)
    try:
        law = fit(runs, policy_rule=args.policy, include_escape=not args.no_escape_terms,
                  normalizer=normalizer)
    except (ScheduleError, FeatureError):
        # replay the one-row route over the fitted rows in order: the first
        # row that fails alone is named by its line, with its own error
        for i in np.flatnonzero(~runs.diverged).tolist():
            record = RunRecord(*(getattr(runs, name)[i].item() for name in RUNS_COLUMNS))
            try:
                schedule = record.normalized_schedule(normalizer)
                compute_features(schedule, marker_policy(args.policy, schedule), record.model_B)
            except (ScheduleError, FeatureError) as exc:
                raise DataError(f"{args.runs} line {i + 2}: {exc}") from None
        raise
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(law.to_json())
    report = {
        "law": args.out,
        "n_records": len(runs),
        "n_divergent_excluded": int(np.count_nonzero(runs.diverged)),
        "residual_rms": law.residual_rms,
        "condition_number": law.condition_number,
    }
    sys.stdout.write(_dump_json(report, args.report))
    return 0


def _cmd_predict(args) -> int:
    law = _read_json(args.law, FittedLaw.from_json)
    pred = predict(law, _load_config(_read_json(args.config), Normalizer(law.lr_scale)))
    sys.stdout.write(_dump_json(pred, args.out))
    return 0


def _cmd_rank(args) -> int:
    law = _read_json(args.law, FittedLaw.from_json)
    cfgs = _read_json(args.configs)
    if not isinstance(cfgs, list) or not cfgs:
        raise DataError(f"{args.configs}: need a nonempty JSON list of configs")
    normalizer = Normalizer(law.lr_scale)
    try:
        ranked = rank(law, _load_candidates(cfgs, normalizer), gate=_gate_from_args(args))
    except (DataError, ValueError):
        # Replay the one-config route in input order: each config, the gate
        # overrides, then the gate on each config.  It raises the error of the
        # first bad config, naming its numbers as the file writes them (the
        # columns hold floats: a horizon of 10 would read 10.0).
        configs = [_load_config(cfg, normalizer) for cfg in cfgs]
        gate = _gate_from_args(args)
        for c in configs:
            gated_criterion(c.schedule.eta_max, c.schedule.markers[0], c.N, c.schedule.S, gate)
        raise
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
    law = _read_json(args.law, FittedLaw.from_json)
    gate = _gate_from_args(args)
    etas, warmups = _parse_range(args.eta_max_range), _parse_range(args.warmup_range)
    rows = sweep_grid(law, gate, etas, warmups, N=args.model, S=args.tokens,
                      sentinel=args.sentinel)
    _write_grid_csv(rows, etas, warmups, args.out)
    sys.stdout.write(_dump_json({"grid": args.out, "rows": len(rows)}))
    return 0


def _cmd_simulate(args) -> int:
    # simulate and validate import the SDE laboratory when they run, so the
    # law-side commands start without it
    from . import sde, validate

    if args.dim < 1:
        raise DataError(f"--dim must be at least 1, got {args.dim}")
    if args.noise_samples < 1:
        raise DataError(f"--noise-samples must be at least 1, got {args.noise_samples}")
    objective = getattr(sde, OBJECTIVES[args.objective])(args.dim)
    noise = sde.NoiseModel.isotropic(args.dim, args.sigma2, D=args.noise_samples)
    if args.schedule_json:
        schedule = _read_json(args.schedule_json, Schedule.from_json)
    else:
        schedule = build_general_schedule(
            args.peak, args.peak, args.warmup, args.warmup, args.warmup, args.horizon
        )
    x0 = objective.x_star + args.x0_offset * np.ones(args.dim) / math.sqrt(args.dim)
    config = sde.SdeConfig(
        schedule=schedule,
        eta0=args.eta0,
        n_paths=args.paths,
        seed=_seed(args),
        algorithm=args.algorithm,
        trap_eps=tuple(args.trap_eps or ()),
        x0=x0,
        record_traces=bool(args.trace_csv),
    )
    try:
        report = sde.simulate(objective, noise, config)
    except sde.SimulationDiverged as exc:
        raise DataError(str(exc)) from None
    bounds, checks = validate.simulation_checks(objective, noise, config, report)
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
    if args.trace_csv:
        # the bytes csv.writer gives, as in _write_grid_csv; each time and
        # each path index is formatted once
        times = [f",{t!r}," for t in report.trace_t.tolist()]
        with open(args.trace_csv, "w", newline="", encoding="utf-8") as fh:
            fh.write("path,t,x_norm,grad_norm\r\n")
            for i, trace in enumerate(report.traces):
                path = str(i)
                fh.write("".join(f"{path}{t}{xn!r},{gn!r}\r\n"
                                 for t, (xn, gn) in zip(times, trace.tolist())))
    return 0


def _cmd_validate(args) -> int:
    from . import sde, validate

    try:
        suites = validate.run(_seed(args), args.quick)
    except sde.SimulationDiverged as exc:
        raise DataError(str(exc)) from None
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
    p.add_argument("--policy", default=DEFAULT_MARKER_RULE, choices=list(MARKER_RULES))
    p.add_argument("--lr-scale", type=float, default=LR_SCALE)
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
    p.add_argument("--lr-scale", type=float, default=LR_SCALE)
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
                   choices=list(OBJECTIVES))
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
    except (DataError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
