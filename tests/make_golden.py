"""Write tests/golden/manifest.json: the bytes the golden commands give.

    PYTHONPATH=src python tests/make_golden.py          # rewrite the manifest
    PYTHONPATH=src python tests/make_golden.py --check  # list moved entries

Each command runs in-process through ``optlaws.cli.main`` on the inputs
:func:`write_inputs` puts in a scratch directory.  For each one the manifest
records the argv (with ``{dir}`` for the input directory and ``{out}`` for
the ``--out`` file), the exit code, and the sha256 and length of stdout,
stderr and the ``--out`` file, with the input directory written as ``{dir}``
in stdout and stderr.  Any other file a command writes in the input
directory (a ``--trace-csv``, say) is recorded by name under ``files``, a
key left out when there is none.  ``tests/test_golden.py`` reruns the
commands and compares.  The manifest also records the numpy and scipy
versions, since numpy's elementwise powers can round differently from one
release to the next, and numpy's BLAS name and version, since its kernels
set the rounding of ``fit`` and of the SDE products.

A change that alters an output on purpose reruns this script and says which
entries moved and why.  ``--check`` prints the entries that differ from the
manifest, one a line, each with the recorded parts that moved (``argv``,
``exit``, ``stdout``, ``stderr``, ``out`` or ``files/<name>``), as in
``simulate_one_path: out``, or with ``new`` or ``gone`` for an entry only
this run or only the manifest has; it exits 1 if there are any, and writes
nothing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import scipy

from optlaws import cli
from optlaws.cli import RUNS_COLUMNS
from optlaws.divergence import critical_rate
from optlaws.law import reference_law

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden", "manifest.json")
RUNS_CSV = os.path.join(HERE, "fixtures", "synthetic_runs.csv")
LR_SCALE = 1.5e-2
# the run-log sizes of runs_steps.csv are step counts of this many tokens
TOKEN_LENGTH, BATCH = 2048, 512


def _config(model, tokens, eta1, eta2, a1, a2, a3, **extra) -> dict:
    """A JSON config; rates are given normalized and stored raw."""
    return {"model_B": model, "tokens_B": tokens, "eta1": eta1 * LR_SCALE,
            "eta2": eta2 * LR_SCALE, "a1_B": a1, "a2_B": a2, "a3_B": a3, **extra}


def _zero_warmup(model, tokens, eta) -> dict:
    return _config(model, tokens, eta, eta, 0.0, 0.2 * tokens, 0.6 * tokens)


def _candidates() -> list[dict]:
    """Four-phase candidates with every verdict, ties and zero warmups."""
    cfgs = []
    for i in range(24):
        S = (3.0, 10.0, 30.0)[i % 3]
        h1 = 0.1 + 0.035 * i
        a1 = S * (0.01 + 0.012 * i)
        a2 = a1 + S * 0.01 * (i % 5)
        a3 = a2 + (S - a2) * 0.1 * (i % 7)
        h2 = h1 * (1.0 - 0.05 * (i % 4)) if a2 > a1 else h1
        cfgs.append(_config((0.58, 4.05)[i % 2], S, h1, h2, a1, a2, a3))
    cfgs.append(dict(cfgs[4]))  # a tie with config 4: same loss, peak and warmup
    cfgs.append(_config(0.58, 10, 0.3, 0.3, 1, 1, 6))  # integer fields
    cfgs.append({**cfgs[7], "pre": _config(0.58, 20.0, 0.3, 0.3, 1.0, 1.0, 1.0)})
    thr = critical_rate(0.58, 10.0)
    cfgs.append(_zero_warmup(0.58, 10.0, thr))  # at the critical rate: R = 0, unpriced
    cfgs.append(_zero_warmup(0.58, 10.0, 0.5 * thr))  # below it: R = 0, unpriced
    cfgs.append(_zero_warmup(0.58, 10.0, math.nextafter(thr, math.inf)))  # above: R = inf
    cfgs.append(_config(0.58, 10.0, 0.9, 0.9, 0.01, 0.01, 0.01))  # short warmup, high peak
    return cfgs


def _continual_candidates() -> list[dict]:
    """Continual candidates: one gated config without a pre block (allowed,
    since only configs that pass the gate are priced), and one whose tail
    peak rate is zero (unpriced)."""
    pre = _config(0.58, 20.0, 0.3, 0.3, 1.0, 1.0, 1.0)
    cfgs = [{**c, "pre": pre} for c in _candidates()[:24:3]]
    cfgs.append(_config(0.58, 10.0, 0.9, 0.9, 0.01, 0.01, 0.01))
    cfgs.append({**_config(4.05, 10.0, 0.4, 0.0, 1.0, 3.0, 6.0), "pre": pre})
    return cfgs


def _many_candidates() -> list[dict]:
    """200 generated candidates at the size the report writer is tuned for:
    every verdict, and a pre block on every seventh config."""
    pre = _config(0.58, 20.0, 0.3, 0.3, 1.0, 1.0, 1.0)
    cfgs = []
    for i in range(200):
        S = (3.0, 10.0, 30.0)[i % 3]
        h1 = 0.05 + 0.9 * (i % 41) / 40
        a1 = S * (0.002 + 0.03 * (i % 11))
        a2 = a1 + S * 0.02 * (i % 3)
        a3 = a2 + (S - a2) * 0.1 * (i % 9)
        h2 = h1 * (1.0 - 0.1 * (i % 4)) if a2 > a1 else h1
        cfg = _config((0.58, 4.05)[i % 2], S, h1, h2, a1, a2, a3)
        cfgs.append({**cfg, "pre": pre} if i % 7 == 0 else cfg)
    return cfgs


def _runs_as_steps() -> str:
    """The fixture run log with its sizes given as steps of TOKEN_LENGTH x BATCH
    tokens, as ``fit --token-length --batch`` reads them."""
    with open(RUNS_CSV, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    per_step = TOKEN_LENGTH * BATCH / 1e9
    for row in rows:
        for key in ("tokens_B", "a1_B", "a2_B", "a3_B"):
            row[key] = repr(float(row[key]) / per_step)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _malformed_runs(runs: str) -> dict:
    """Copies of the fixture run log with a few cells or lines changed: logs
    the reader refuses, each naming the first bad row's line, one it reads,
    and one only the default marker rule refuses.  Row i of the log is line
    i + 2."""
    lines = runs.splitlines()

    def row(i, **cells) -> str:
        fields = lines[i + 1].split(",")
        for name, text in cells.items():
            fields[RUNS_COLUMNS.index(name)] = text
        return ",".join(fields)

    def log(changed: dict, blank_before=None) -> str:
        out = [row(i - 1, **changed[i - 1]) if i - 1 in changed else line
               for i, line in enumerate(lines)]
        if blank_before is not None:
            out[blank_before + 1:blank_before + 1] = ["", ""]
        return "\n".join(out) + "\n"

    short = lines[:5] + [",".join(lines[5].split(",")[:7])] + lines[6:]
    extra = lines[:5] + [lines[5] + ",1.0"] + lines[6:]
    return {
        "runs_bad_float_last_row.csv": log({65: {"eta1": "x"}}),
        "runs_short_row.csv": "\n".join(short) + "\n",
        "runs_extra_field.csv": "\n".join(extra) + "\n",
        # two blank lines ahead of row 6, which the reader does not count
        "runs_blank_lines_before_bad_row.csv": log({6: {"a2_B": "1e"}}, blank_before=3),
        "runs_diverged_1.0.csv": log({10: {"diverged": "1.0"}}),
        # row 7 breaks the loss rule before row 9's bad float
        "runs_zero_loss.csv": log({7: {"loss": "0"}, 9: {"model_B": "x"}}),
        "runs_bad_float_and_zero_loss.csv": log({7: {"model_B": "x", "loss": "0"}}),
        # row 8's schedule is refused when the fit prices it, not when it is read
        "runs_negative_rate_row.csv": log({8: {"eta1": "-0.001"}}),
        # a cell over the csv module's field size limit of 131,072 characters
        "runs_oversized_cell.csv": log({12: {"eta2": "1" * 131_073}}),
        # row 2 has no cooldown (a3_B = tokens_B): a zero tail area under the
        # default marker rule, which splits it at a3, but not under all-a1
        "runs_no_cooldown_row.csv": log(
            {2: {"a3_B": lines[3].split(",")[RUNS_COLUMNS.index("tokens_B")]}}),
    }


def write_inputs(directory: str) -> None:
    """Write the laws, configs and run logs the golden commands read."""
    law = reference_law()
    with open(RUNS_CSV, encoding="utf-8") as fh:
        runs = fh.read()
    files = {
        "runs.csv": runs,
        "runs_steps.csv": _runs_as_steps(),
        "law_pretrain.json": law.to_json(),
        "law_continual.json": law.as_continual().to_json(),
        "candidates.json": json.dumps(_candidates()),
        "continual_candidates.json": json.dumps(_continual_candidates()),
        "many_candidates.json": json.dumps(_many_candidates()),
        "candidates_no_pre.json": json.dumps([c for c in _candidates() if "pre" not in c]),
        "config.json": json.dumps(_candidates()[5]),
        "config_int.json": json.dumps(_candidates()[25]),
        "config_continual.json": json.dumps(_continual_candidates()[2]),
        # the first bad config has a bad pre block, the next a bad schedule
        "bad_order.json": json.dumps([
            _candidates()[0],
            {**_candidates()[1], "pre": _config(0.58, 20.0, 0.3, 0.3, 5.0, 1.0, 1.0)},
            _config(0.58, 10.0, 0.3, 0.3, 4.0, 2.0, 6.0),
        ]),
        # the first bad config fails the gate (zero rates), the next its critical rate
        "bad_gate.json": json.dumps([
            _candidates()[0], _config(0.58, 10.0, 0.0, 0.0, 1.0, 1.0, 1.0),
            _config(0.0, 10.0, 0.3, 0.3, 1.0, 1.0, 1.0),
        ]),
        # the gate refuses a negative model size, named as written (-1, 10)
        "bad_gate_int.json": json.dumps([
            _candidates()[0], _config(-1, 10, 0.3, 0.3, 0.0, 1.0, 1.0)]),
        # continual rescaling refuses a zero tail peak; integer horizon
        "config_refused.json": json.dumps({
            **_config(4.05, 10, 0.4, 0.0, 1.0, 3.0, 6.0),
            "pre": _config(0.58, 20.0, 0.3, 0.3, 1.0, 1.0, 1.0)}),
        # a pre block whose LR area overflows to inf
        "config_pre_area_overflows.json": json.dumps({
            **_config(0.58, 10, 0.4, 0.4, 1, 1, 1),
            "pre": {"eta1": 1e306, "eta2": 1e306, "a1_B": 5, "a2_B": 5, "a3_B": 8,
                    "tokens_B": 10}}),
        **_malformed_runs(runs),
    }
    # law files the reader refuses, each naming the file and the field
    payload = json.loads(law.to_json())
    for name, changes in {
        "law_c_strings.json": {"c": [str(x) for x in payload["c"]]},
        "law_lr_scale_bool.json": {"lr_scale": True},
        "law_c_nan.json": {"c": [math.nan] * 16},
        "law_lr_scale_400_digits.json": {"lr_scale": 10**400},
    }.items():
        files[name] = json.dumps({**payload, **changes})
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


COMMANDS = {
    "rank_pretrain": ["rank", "--law", "{dir}/law_pretrain.json",
                      "--configs", "{dir}/candidates.json", "--out", "{out}"],
    "rank_continual": ["rank", "--law", "{dir}/law_continual.json",
                       "--configs", "{dir}/continual_candidates.json", "--out", "{out}",
                       "--gate-overrides", '{"c3_hat": 3000.0, "c1_hat": 1.9}'],
    # configs without a pre block: priced from no pre-training by a pretrain
    # law, refused by a continual one
    **{f"rank_{mode}_no_pre": ["rank", "--law", f"{{dir}}/law_{mode}.json",
                               "--configs", "{dir}/candidates_no_pre.json", "--out", "{out}"]
       for mode in ("pretrain", "continual")},
    # the sizes the writers are tuned for: a 200-row rank report, a 64 x 64
    # grid, and a trace of 3 paths x 401 steps
    "rank_200_candidates": ["rank", "--law", "{dir}/law_pretrain.json",
                            "--configs", "{dir}/many_candidates.json", "--out", "{out}"],
    "sweep_64x64": ["sweep", "--law", "{dir}/law_pretrain.json", "--eta-max-range",
                    "0.02:1.2:64", "--warmup-range", "0.05:6:64", "--model", "4.05",
                    "--tokens", "10", "--out", "{out}"],
    "simulate_trace_3_paths_401_steps": [
        "simulate", "--paths", "3", "--horizon", "4.01", "--seed", "5",
        "--trace-csv", "{dir}/trace.csv", "--out", "{out}"],
    "predict_pretrain": ["predict", "--law", "{dir}/law_pretrain.json",
                         "--config", "{dir}/config.json", "--out", "{out}"],
    "predict_integer_fields": ["predict", "--law", "{dir}/law_pretrain.json",
                               "--config", "{dir}/config_int.json", "--out", "{out}"],
    "predict_continual": ["predict", "--law", "{dir}/law_continual.json",
                          "--config", "{dir}/config_continual.json", "--out", "{out}"],
    "rank_first_bad_config": ["rank", "--law", "{dir}/law_pretrain.json",
                              "--configs", "{dir}/bad_order.json"],
    "rank_first_bad_gate": ["rank", "--law", "{dir}/law_pretrain.json",
                            "--configs", "{dir}/bad_gate.json"],
    "rank_gate_error_integers": ["rank", "--law", "{dir}/law_pretrain.json",
                                 "--configs", "{dir}/bad_gate_int.json"],
    "predict_refused": ["predict", "--law", "{dir}/law_continual.json",
                        "--config", "{dir}/config_refused.json"],
    "predict_pre_area_overflows": ["predict", "--law", "{dir}/law_continual.json",
                                   "--config", "{dir}/config_pre_area_overflows.json"],
    "check": ["check", "--eta-max", "0.4", "--warmup", "8.39", "--model", "4.05",
              "--tokens", "100", "--out", "{out}"],
    "check_raw_lr": ["check", "--eta-max", "0.006", "--raw-lr", "--warmup", "0.5",
                     "--model", "0.58", "--tokens", "10", "--out", "{out}"],
    "check_gate_overrides": ["check", "--eta-max", "0.9", "--warmup", "0.5", "--model", "0.58",
                             "--tokens", "10", "--out", "{out}", "--gate-overrides",
                             '{"c3_hat": 3000.0, "alpha1_hat": 0.25}'],
    "sweep": ["sweep", "--law", "{dir}/law_pretrain.json", "--eta-max-range", "0.05:0.9:6",
              "--warmup-range", "0.1:3:5", "--model", "0.58", "--tokens", "10",
              "--out", "{out}"],
    "sweep_gate_overrides": ["sweep", "--law", "{dir}/law_pretrain.json",
                             "--eta-max-range", "0.05:0.9:6", "--warmup-range", "0.1:3:5",
                             "--model", "4.05", "--tokens", "30", "--out", "{out}",
                             "--gate-overrides", '{"c2_hat": 20.0, "c3_hat": 50.0}'],
    "sweep_sentinel": ["sweep", "--law", "{dir}/law_pretrain.json", "--eta-max-range",
                       "0.05:0.9:6", "--warmup-range", "0.01:0.5:3", "--model", "0.58",
                       "--tokens", "10", "--out", "{out}", "--sentinel", "9.5"],
    "fit": ["fit", "--runs", "{dir}/runs.csv", "--out", "{out}"],
    "fit_no_escape_terms": ["fit", "--runs", "{dir}/runs.csv", "--out", "{out}",
                            "--no-escape-terms"],
    "fit_token_length_batch": ["fit", "--runs", "{dir}/runs_steps.csv", "--out", "{out}",
                               "--token-length", str(TOKEN_LENGTH), "--batch", str(BATCH)],
    "predict_law_c_strings": ["predict", "--law", "{dir}/law_c_strings.json",
                              "--config", "{dir}/config.json"],
    "rank_law_lr_scale_bool": ["rank", "--law", "{dir}/law_lr_scale_bool.json",
                               "--configs", "{dir}/candidates.json"],
    "sweep_law_c_nan": ["sweep", "--law", "{dir}/law_c_nan.json", "--eta-max-range",
                        "0.05:0.9:6", "--warmup-range", "0.1:3:5", "--model", "0.58",
                        "--tokens", "10", "--out", "{out}"],
    "predict_law_lr_scale_400_digits": ["predict", "--law", "{dir}/law_lr_scale_400_digits.json",
                                        "--config", "{dir}/config.json"],
    "check_gate_override_bool": ["check", "--eta-max", "0.4", "--warmup", "1", "--model", "1",
                                 "--tokens", "10", "--gate-overrides", '{"c1_hat": true}'],
    "sweep_gate_override_400_digits": ["sweep", "--law", "{dir}/law_pretrain.json",
                                       "--eta-max-range", "0.05:0.9:6", "--warmup-range",
                                       "0.1:3:5", "--model", "0.58", "--tokens", "10",
                                       "--out", "{out}", "--gate-overrides",
                                       '{"c3_hat": 1' + "0" * 400 + "}"],
    # malformed run logs: each error names the first bad row's line, and a
    # row with one field too many is read
    **{f"fit_{name}": ["fit", "--runs", f"{{dir}}/runs_{name}.csv", "--out", "{out}"]
       for name in ("bad_float_last_row", "short_row", "extra_field",
                    "blank_lines_before_bad_row", "diverged_1.0", "zero_loss",
                    "bad_float_and_zero_loss", "oversized_cell", "negative_rate_row")},
    # the one row without a cooldown is named under the default marker rule
    # and fitted under the rule that splits at a1 only
    **{f"fit_no_cooldown_row_policy_{rule.replace('/', '_').replace('-', '_')}": [
        "fit", "--runs", "{dir}/runs_no_cooldown_row.csv", "--out", "{out}", "--policy", rule]
       for rule in ("a1/a3/a2", "all-a1")},
    "fit_token_length_alone": ["fit", "--runs", "{dir}/runs.csv", "--out", "{out}",
                               "--token-length", str(TOKEN_LENGTH)],
    **{f"simulate_{algorithm}_{objective}": [
        "simulate", "--objective", objective, "--algorithm", algorithm, "--paths", "200",
        "--seed", "3", "--trap-eps", "0.05", "0.5", "--trace-csv", "{dir}/trace.csv",
        "--out", "{out}"]
       for algorithm in ("sgd", "adam") for objective in ("quadratic", "double_well")},
    # a seed of two 32-bit words; 1,000 steps at dim 64 make noise blocks of
    # 131 paths, so the 140 paths span a full block and a partial one
    "simulate_two_word_seed_two_blocks": [
        "simulate", "--dim", "64", "--horizon", "10", "--paths", "140",
        "--seed", str(2**32 + 5), "--out", "{out}"],
    # 1,001 steps cut into halves of 500 and 501 steps, in noise blocks of
    # 130 paths and 10 paths, with Adam's traces written out
    "simulate_adam_uneven_halves_two_blocks": [
        "simulate", "--algorithm", "adam", "--dim", "64", "--horizon", "10.01", "--paths", "140",
        "--trace-csv", "{dir}/trace.csv", "--out", "{out}"],
    # a noise variance whose ensemble statistics overflow a double
    "simulate_sigma2_overflows_statistics": ["simulate", "--sigma2", "1e250"],
    # one path: a block with fewer paths than fill threads
    "simulate_one_path": ["simulate", "--paths", "1", "--seed", "3", "--out", "{out}"],
    # 40 paths in one block, and path 36, the first to diverge, lies in the
    # last rows: another thread's share of the fill whenever there are two
    "simulate_diverged_late_path": [
        "simulate", "--objective", "double_well", "--dim", "3", "--peak", "1", "--warmup", "0",
        "--horizon", "10", "--eta0", "0.14", "--paths", "40", "--sigma2", "9", "--seed", "27"],
    # an objective argparse does not list, and one whose default run diverges
    "simulate_objective_bogus": ["simulate", "--objective", "bogus"],
    "simulate_objective_rosenbrock_diverges": ["simulate", "--objective", "rosenbrock"],
    "validate_quick": ["validate", "--quick", "--seed", "0", "--out", "{out}"],
    # every suite at full size, so a change to the stepper or the fill that
    # moves any ensemble's bits moves this entry
    "validate_full_seed_41": ["validate", "--seed", "41", "--out", "{out}"],
    # flag errors that name the flag (or the n_paths field)
    "simulate_seed_negative": ["simulate", "--seed", "-1"],
    "validate_seed_negative": ["validate", "--quick", "--seed", "-1"],
    "simulate_noise_samples_zero": ["simulate", "--noise-samples", "0"],
    "simulate_paths_two_words": ["simulate", "--paths", str(2**32)],
    # sweep errors with one fault each
    **{f"sweep_{name}": ["sweep", "--law", "{dir}/law_pretrain.json", "--eta-max-range", eta,
                         "--warmup-range", warmup, "--model", model, "--tokens", "10",
                         "--out", "{out}"]
       for name, eta, warmup, model in [
           ("warmup_at_horizon", "0.05:0.9:6", "0.1:10:5", "0.58"),
           ("zero_peak", "0:0.9:6", "0.1:3:5", "0.58"),
           ("warmup_square_underflows", "0.05:0.9:6", "1e-200:3:5", "0.58"),
           ("zero_model", "0.05:0.9:6", "0.1:3:5", "0"),
       ]},
}


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(argv: list[str], directory: str) -> dict:
    """Run one templated argv and record its exit code and output digests.

    Every file the command writes in ``directory`` is removed afterwards, so
    each command sees the inputs alone."""
    out = os.path.join(directory, "out.json")
    inputs = set(os.listdir(directory))
    args = [a.replace("{dir}", directory).replace("{out}", out) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    written = {}
    for name in sorted(set(os.listdir(directory)) - inputs):
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            written[name] = _digest(fh.read())
        os.remove(path)
    # reports and messages that name an input or output file name it by {dir}
    text = lambda f: _digest(f.getvalue().replace(directory, "{dir}").encode())
    record = {"argv": argv, "exit": code, "stdout": text(stdout), "stderr": text(stderr),
              "out": written.pop("out.json", None)}
    if written:
        record["files"] = written
    return record


def moved_parts(old, new) -> str:
    """The parts of a command's record that differ, space-separated:
    ``argv``, ``exit``, ``stdout``, ``stderr``, ``out`` and ``files/<name>``;
    ``new`` or ``gone`` when only one side records the command."""
    if old is None or new is None:
        return "new" if old is None else "gone"
    parts = [key for key in ("argv", "exit", "stdout", "stderr", "out")
             if old.get(key) != new.get(key)]
    old_files, new_files = old.get("files", {}), new.get("files", {})
    parts += [f"files/{name}" for name in sorted(old_files.keys() | new_files.keys())
              if old_files.get(name) != new_files.get(name)]
    return " ".join(parts)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main(args=None) -> int:
    args = sys.argv[1:] if args is None else args
    if args not in ([], ["--check"]):
        print("usage: make_golden.py [--check]", file=sys.stderr)
        return 2
    check = args == ["--check"]
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        commands = {name: run(argv, directory) for name, argv in COMMANDS.items()}
    if check:
        with open(MANIFEST, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded["environment"] != environment():
            print(f"recorded under {recorded['environment']}, running {environment()}",
                  file=sys.stderr)
        old = recorded["commands"]
        moved = sorted(n for n in old.keys() | commands.keys() if old.get(n) != commands.get(n))
        print("".join(f"{n}: {moved_parts(old.get(n), commands.get(n))}\n" for n in moved),
              end="")
        return 1 if moved else 0
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "commands": commands}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(commands)} commands to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
