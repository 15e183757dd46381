"""Write tests/golden/manifest.json: the bytes the golden commands give.

    PYTHONPATH=src python tests/make_golden.py

Each command runs in-process through ``optlaws.cli.main`` on the inputs
:func:`write_inputs` puts in a scratch directory.  For each one the manifest
records the argv (with ``{dir}`` for the input directory and ``{out}`` for
the ``--out`` file), the exit code, and the sha256 and length of stdout,
stderr and the ``--out`` file; ``tests/test_golden.py`` reruns them and
compares.  It also records the numpy and scipy versions, since numpy's
elementwise powers can round differently from one release to the next.

A change that alters an output on purpose reruns this script and says which
entries moved and why.
"""

from __future__ import annotations

import contextlib
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
from optlaws.divergence import critical_rate
from optlaws.law import reference_law

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "manifest.json")
LR_SCALE = 1.5e-2


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


def write_inputs(directory: str) -> None:
    """Write the laws and configs the golden commands read."""
    law = reference_law()
    files = {
        "law_pretrain.json": law.to_json(),
        "law_continual.json": law.as_continual().to_json(),
        "candidates.json": json.dumps(_candidates()),
        "continual_candidates.json": json.dumps(_continual_candidates()),
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
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


COMMANDS = {
    "rank_pretrain": ["rank", "--law", "{dir}/law_pretrain.json",
                      "--configs", "{dir}/candidates.json", "--out", "{out}"],
    "rank_continual": ["rank", "--law", "{dir}/law_continual.json",
                       "--configs", "{dir}/continual_candidates.json", "--out", "{out}",
                       "--gate-overrides", '{"c3_hat": 3000.0, "c1_hat": 1.9}'],
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
}


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(argv: list[str], directory: str) -> dict:
    """Run one templated argv and record its exit code and output digests."""
    out = os.path.join(directory, "out.json")
    if os.path.exists(out):
        os.remove(out)
    args = [a.replace("{dir}", directory).replace("{out}", out) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    written = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            written = _digest(fh.read())
    return {"argv": argv, "exit": code, "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()), "out": written}


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        commands = {name: run(argv, directory) for name, argv in COMMANDS.items()}
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "commands": commands}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(commands)} commands to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
