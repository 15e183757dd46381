"""The CLI contract under fuzzed JSON inputs.

Config, ``pre`` block, schedule and law files and ``--gate-overrides`` get
fields dropped or replaced by lists, objects, ``null``, strings, bools, NaN,
+-inf, 0, negatives, 1e308, 1e-320 and a 400-digit integer.  Whatever the
input, a command exits 0 with strict JSON on stdout, or 1 with exactly one
``error:`` line on stderr; a traceback or a RuntimeWarning fails the test.
The numeric flags of ``check``, ``sweep``, ``simulate`` and ``fit`` get
the same odd values as text (and ``-Infinity``, which argparse reads as a
flag).  Run-log CSVs get cells replaced by odd text, rows shortened or
lengthened and blank lines inserted; the reader must give the columns of the
row-by-row reference reader bit for bit, or its exact error.  Examples are
derandomized and capped in number, so the suite stays deterministic; sizes
stay small (at most 4 dimensions, 50 paths, ranges of at most 8 points, run
logs of 5 rows).
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlaws import cli
from optlaws.cli import RUNS_COLUMNS
from optlaws.law import RunTable, reference_law
from optlaws.schedule import build_general_schedule
from util import reference_read_runs_csv

DROP = object()  # a field left out
ODD = [DROP, [], [1.0], {}, None, "1", "x", True, False, math.nan, math.inf, -math.inf,
       0, 0.0, -1, -0.5, 1e308, 1e-320, 10**400]
odd = st.sampled_from(ODD)
# odd values, and good ones often enough that some commands get far
value = st.one_of(odd, st.sampled_from([0.5, 1, 2.0, 6e-3]))
CONTRACT = settings(max_examples=120, derandomize=True, database=None, deadline=None)

CONFIG = {"model_B": 0.58, "tokens_B": 10.0, "eta1": 6e-3, "eta2": 6e-3,
          "a1_B": 1.0, "a2_B": 2.0, "a3_B": 6.0}
LAW = json.loads(reference_law().to_json())
SCHEDULE = json.loads(build_general_schedule(0.5, 0.4, 0.5, 1.0, 1.5, 2.0).to_json())


def changed(obj, changes):
    """A copy of the JSON object with (key, value) changes; DROP deletes."""
    obj = dict(obj)
    for key, v in changes:
        if v is DROP:
            obj.pop(key, None)
        else:
            obj[key] = v
    return obj


def edits(keys):
    """Up to three (key, value) changes to a JSON object."""
    return st.lists(st.tuples(st.sampled_from(keys), value), max_size=3)


# numeric flag values as text: odd ones, and plain ones often enough that
# some commands get far
FLAG_ODD = ["nan", "inf", "-inf", "-Infinity", "0", "-0.0", "-1", "1e308", "1e-320",
            "1" + "0" * 400, "x", "", "true"]
real_flag = st.sampled_from(FLAG_ODD) | st.sampled_from(["0.5", "2", "4.05", "10"])


def size_flag(most, odd=()):
    """A count flag: odd text, or an integer from 1 to ``most``."""
    return st.sampled_from(["-1", "0", "1.5", "x", "", *odd]) | st.integers(1, most).map(str)


def flag_edits(flags: dict):
    """Up to three changes to a command's flags, each dropped (DROP) or given a value."""
    return st.lists(st.one_of(*(st.tuples(st.just(k), st.just(DROP) | v)
                                for k, v in flags.items())), max_size=3)


def flag_argv(defaults: dict, changes) -> list:
    return [x for k, v in changed(defaults, changes).items() for x in (k, v)]


def _strict(constant):
    raise AssertionError(f"stdout is not strict JSON: {constant}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def check_contract(argv):
    """Run one command line and hold it to the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in (0, 1), (code, argv)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
    else:
        json.loads(out.getvalue(), parse_constant=_strict)
    return code


@CONTRACT
@given(mode=st.sampled_from(["pretrain", "continual"]),
       configs=st.lists(st.tuples(edits([*CONFIG, "pre"]), st.none() | edits(list(CONFIG))),
                        min_size=1, max_size=3),
       listed=st.booleans())
def test_config_files(workdir, mode, configs, listed):
    law = write(workdir / "law.json", {**LAW, "mode": mode})
    cfgs = [changed(CONFIG, main) if pre is None
            else {**changed(CONFIG, main), "pre": changed(CONFIG, pre)} for main, pre in configs]
    if listed:
        check_contract(["rank", "--law", law, "--configs", write(workdir / "cfgs.json", cfgs)])
    else:
        check_contract(["predict", "--law", law, "--config", write(workdir / "cfg.json", cfgs[0])])


@CONTRACT
@given(top=edits(list(SCHEDULE)),
       segment=st.lists(st.tuples(st.integers(0, len(SCHEDULE["segments"]) - 1),
                                  st.sampled_from(["kind", "t0", "t1", "eta0", "eta1"]), value),
                        max_size=2),
       marker=st.none() | st.tuples(st.integers(0, 2), value),
       paths=st.integers(1, 50))
def test_schedule_files(workdir, top, segment, marker, paths):
    payload = json.loads(json.dumps(SCHEDULE))
    for i, key, v in segment:
        payload["segments"][i] = changed(payload["segments"][i], [(key, v)])
    if marker is not None and marker[1] is not DROP:
        payload["markers"][marker[0]] = marker[1]
    path = write(workdir / "schedule.json", changed(payload, top))
    check_contract(["simulate", "--schedule-json", path, "--dim", 2, "--paths", paths])


@CONTRACT
@given(top=edits(list(LAW)),
       term=st.none() | st.tuples(st.sampled_from(["c", "powers"]), st.integers(0, 15), value),
       command=st.sampled_from(["predict", "rank", "sweep"]))
def test_law_files(workdir, top, term, command):
    payload = json.loads(json.dumps(LAW))
    if term is not None and term[2] is not DROP:
        payload[term[0]][term[1]] = term[2]
    law = write(workdir / "law.json", changed(payload, top))
    argv = {
        "predict": ["--config", write(workdir / "cfg.json", CONFIG)],
        "rank": ["--configs", write(workdir / "cfgs.json", [CONFIG, CONFIG])],
        "sweep": ["--eta-max-range", "0.05:0.9:8", "--warmup-range", "0.1:3:8", "--model", 0.58,
                  "--tokens", 10, "--out", workdir / "grid.csv"],
    }[command]
    check_contract([command, "--law", law, *argv])


@CONTRACT
@given(overrides=st.one_of(
           st.dictionaries(st.sampled_from(["c1_hat", "c2_hat", "c3_hat", "alpha1_hat",
                                            "alpha2_hat", "bogus"]),
                           value.filter(lambda v: v is not DROP), max_size=2),
           odd.filter(lambda v: v is not DROP)),
       command=st.sampled_from(["check", "rank", "sweep"]))
def test_gate_overrides(workdir, overrides, command):
    law = write(workdir / "law.json", LAW)
    argv = {
        "check": ["--eta-max", 0.4, "--warmup", 1, "--model", 0.58, "--tokens", 10],
        "rank": ["--law", law, "--configs", write(workdir / "cfgs.json", [CONFIG])],
        "sweep": ["--law", law, "--eta-max-range", "0.05:0.9:4", "--warmup-range", "0.1:3:4",
                  "--model", 0.58, "--tokens", 10, "--out", workdir / "grid.csv"],
    }[command]
    # the = form: argparse takes a separate "-Infinity" for a flag
    check_contract([command, *argv, f"--gate-overrides={json.dumps(overrides)}"])


CHECK_FLAGS = {"--eta-max": "0.4", "--warmup": "1", "--model": "0.58", "--tokens": "10",
               "--lr-scale": "0.015"}
grid_range = st.builds(lambda lo, hi, n: f"{lo}:{hi}:{n}", real_flag, real_flag, size_flag(8))
SWEEP_FLAGS = {"--eta-max-range": "0.05:0.9:4", "--warmup-range": "0.1:3:4", "--model": "0.58",
               "--tokens": "10", "--sentinel": "7"}
SIMULATE_FLAGS = {"--dim": "2", "--paths": "8", "--peak": "0.5", "--warmup": "1",
                  "--horizon": "4", "--eta0": "0.01", "--sigma2": "0.1",
                  "--noise-samples": "64", "--x0-offset": "1", "--trap-eps": "0.1",
                  "--seed": "0"}
FIT_FLAGS = {"--lr-scale": "0.015", "--token-length": "2048", "--batch": "512"}


@CONTRACT
@given(changes=flag_edits(dict.fromkeys(CHECK_FLAGS, real_flag)), raw=st.booleans())
def test_check_flags(changes, raw):
    check_contract(["check", *flag_argv(CHECK_FLAGS, changes), *(["--raw-lr"] if raw else [])])


@CONTRACT
@given(changes=flag_edits({"--eta-max-range": grid_range, "--warmup-range": grid_range,
                           "--model": real_flag, "--tokens": real_flag,
                           "--sentinel": real_flag}))
def test_sweep_flags(workdir, changes):
    law = write(workdir / "law.json", LAW)
    check_contract(["sweep", "--law", law, "--out", workdir / "grid.csv",
                    *flag_argv(SWEEP_FLAGS, changes)])


@CONTRACT
@given(changes=flag_edits({**dict.fromkeys(SIMULATE_FLAGS, real_flag), "--dim": size_flag(4),
                           "--paths": size_flag(50), "--noise-samples": size_flag(64),
                           "--seed": size_flag(2**40, ["1" + "0" * 400])}),
       objective=st.sampled_from(["quadratic", "double_well"]),
       algorithm=st.sampled_from(["sgd", "adam"]))
def test_simulate_flags(changes, objective, algorithm):
    check_contract(["simulate", "--objective", objective, "--algorithm", algorithm,
                    *flag_argv(SIMULATE_FLAGS, changes)])


@CONTRACT
@given(changes=flag_edits({"--lr-scale": real_flag,
                           **dict.fromkeys(["--token-length", "--batch"],
                                           size_flag(4096, ["1" + "0" * 400, "-" + "9" * 400]))}))
def test_fit_flags(workdir, runs_csv, changes):
    check_contract(["fit", "--runs", runs_csv, "--out", workdir / "fitted.json",
                    *flag_argv(FIT_FLAGS, changes)])


# five rows of the fixture run log, the last one divergent
RUN_ROWS = [
    ["0.58", "3.0", "0.0015", "0.0015", "0.15", "0.15", "0.15", "2.949605755806549", "0"],
    ["0.58", "3.0", "0.0045", "0.0045", "0.15", "0.15", "0.15", "2.920112785904777", "0"],
    ["4.05", "10.0", "0.012", "0.012", "5.0", "5.0", "5.0", "2.432376437168733", "0"],
    ["0.58", "10.0", "0.00825", "0.00825", "1.5", "1.5", "1.5", "2.6", "0"],
    ["0.58", "10.0", "0.0135", "0.0135", "0.05", "0.05", "0.05", "7.0", "1"],
]
ODD_CELLS = ["", "x", "nan", "-inf", "1e400", "0", "-1", "1_0", " 2 "]
row_index = st.integers(0, len(RUN_ROWS) - 1)


@CONTRACT
@given(cells=st.lists(st.tuples(row_index, st.integers(0, len(RUNS_COLUMNS) - 1),
                                st.sampled_from(ODD_CELLS)), max_size=4),
       widths=st.lists(st.tuples(row_index, st.integers(1, len(RUNS_COLUMNS) + 2)), max_size=2),
       blanks=st.lists(st.integers(0, len(RUN_ROWS)), max_size=2),
       steps=st.booleans())
def test_run_logs(workdir, cells, widths, blanks, steps):
    rows = [list(row) for row in RUN_ROWS]
    for i, j, cell in cells:
        rows[i][j] = cell
    for i, width in widths:  # a long row gets odd extra cells, which are ignored
        rows[i] = (rows[i] + ODD_CELLS)[:width]
    lines = [",".join(row) for row in rows]
    for i in sorted(blanks, reverse=True):
        lines.insert(i, "")
    path = workdir / "runs.csv"
    path.write_text("\n".join([",".join(RUNS_COLUMNS), *lines]) + "\n", encoding="utf-8")
    args = (str(path), *((2048, 512) if steps else ()))
    try:
        want = RunTable.from_records(reference_read_runs_csv(*args))
    except cli.DataError as exc:
        with pytest.raises(cli.DataError) as got:
            cli.read_runs_csv(*args)
        assert str(got.value) == str(exc)
    else:
        got = cli.read_runs_csv(*args)
        for name in RUNS_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("algorithm", ["sgd", "adam"])
@pytest.mark.parametrize("sigma2", ["1e200", "1e250"])
def test_simulate_overflowing_statistics_refused(algorithm, sigma2):
    # the paths stay finite, but their statistics overflow a double
    assert check_contract(["simulate", "--algorithm", algorithm, "--paths", "3",
                           "--sigma2", sigma2]) == 1
