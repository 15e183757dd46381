"""The three workloads: inputs from the seed, one pass of commands, and checks.

Each workload is a closed loop with one client: a pass runs its commands in
order, each starting when the previous one returns.  Every command is
timed into one of four slots (``cmd1_s`` .. ``cmd4_s``); ``slots`` names
what each slot holds on each workload, and ``py_weight`` is the share of
interpreter work used to weigh the machine-speed kernels (see speed.py),
chosen on the reference machine for the smallest run-to-run spread.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import gen


@dataclass
class Op:
    """One command of a pass: CLI argv, or a public-API call."""

    label: str
    slot: int
    argv: Optional[list] = None
    fn: Optional[Callable] = None
    outputs: tuple = ()


def _close(got: float, want: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(got - want) <= max(abs_, rel * abs(want))


def _json(res):
    return json.loads(res.stdout)


class Plan:
    """Law side of a planning session: fit, rank, sweep, then queries."""

    name = "plan"
    py_weight = 1.0
    slots = ("fit", "rank", "sweep", "query (one predict or check)")
    named = {"fit_s": ("pool", (1,)), "rank_s": ("pool", (2,)),
             "sweep_s": ("pool", (3,)), "query_s": ("pool", (4,))}
    N_ROWS, N_DIV, N_CAND, N_QUERIES, GRID = 2000, 40, 2000, 32, 128

    def __init__(self, seed: int, workdir: str, api):
        self.w = workdir
        self.inp = gen.write_plan_inputs(seed, workdir, self.N_ROWS, self.N_DIV,
                                         self.N_CAND, self.N_QUERIES, self.GRID)
        self.law = os.path.join(workdir, "law.json")
        self.c = gen.PLANTED  # replaced by the fitted coefficients once checked

    def _p(self, name):
        return os.path.join(self.w, name)

    def ops(self) -> list[Op]:
        inp, law = self.inp, self.law
        sw = inp["sweep"]
        ops = [
            Op("fit", 1, ["fit", "--runs", inp["runs"], "--out", law], outputs=(law,)),
            Op("rank", 2, ["rank", "--law", law, "--configs", inp["configs"],
                           "--out", self._p("rank.json")], outputs=(self._p("rank.json"),)),
            Op("sweep", 3, ["sweep", "--law", law, "--eta-max-range", sw["eta_range"],
                            "--warmup-range", sw["warmup_range"], "--model", repr(sw["model"]),
                            "--tokens", repr(sw["tokens"]), "--out", self._p("grid.csv")],
               outputs=(self._p("grid.csv"),)),
        ]
        for q, ((path, _), chk) in enumerate(zip(inp["predicts"], inp["checks"])):
            ops.append(Op(f"predict[{q}]", 4, ["predict", "--law", law, "--config", path]))
            ops.append(Op(f"check[{q}]", 4, [
                "check", "--eta-max", repr(chk["eta_max"]), "--warmup", repr(chk["warmup"]),
                "--model", repr(chk["model"]), "--tokens", repr(chk["tokens"])]))
        return ops

    def probes(self) -> list[tuple[str, list]]:
        chk = ["--warmup", "1.0", "--model", "1.0", "--tokens", "10.0"]
        return [
            ("check_eta_max_nan", ["check", "--eta-max", "nan", *chk]),
            ("predict_missing_eta1", ["predict", "--law", self.law,
                                      "--config", self.inp["missing_eta1"]]),
            ("check_gate_overrides_bogus", ["check", "--eta-max", "0.5", *chk,
                                            "--gate-overrides", '{"bogus": 1}']),
            ("check_zero_warmup", ["check", "--eta-max", "0.5", "--warmup", "0",
                                   "--model", "1.0", "--tokens", "10.0"]),
            ("fit_missing_runs", ["fit", "--runs", self._p("absent.csv"),
                                  "--out", self._p("absent.json")]),
        ]

    def verify(self, results) -> list[tuple[str, str]]:
        bad = []
        inp = self.inp
        fit = results["fit"]
        rep = _json(fit)
        if rep["n_records"] != inp["n_rows"] or rep["n_divergent_excluded"] != inp["n_div"]:
            bad.append(("fit", f"record counts {rep['n_records']}/{rep['n_divergent_excluded']}"))
        law = json.loads(fit.files[self.law])
        err = max(abs(a - b) for a, b in zip(law["c"], gen.PLANTED))
        if not (err <= 1e-6 and law["residual_rms"] <= 1e-10):
            bad.append(("fit", f"planted coefficients not recovered (max err {err:.3e})"))
        self.c = law["c"]
        scale = law["lr_scale"]

        table = json.loads(results["rank"].stdout)
        bad += [("rank", p) for p in self._check_rank(table, scale)]

        grid = list(csv.reader(io.StringIO(results["sweep"].files[self._p("grid.csv")].decode())))
        bad += [("sweep", p) for p in self._check_sweep(grid)]

        for q, ((_, cfg), chk) in enumerate(zip(inp["predicts"], inp["checks"])):
            pred = _json(results[f"predict[{q}]"])
            want = gen.log_loss(self.c, gen.config_features(cfg, scale))
            if not (_close(pred["log_loss"], want) and _close(pred["loss"], math.exp(want))):
                bad.append((f"predict[{q}]", f"log_loss {pred['log_loss']!r} != {want!r}"))
            got = _json(results[f"check[{q}]"])
            R, eta_l = gen.gate(chk["eta_max"], chk["warmup"], chk["model"], chk["tokens"])
            verdict = "diverge" if R > 1.0 else "stable"
            if not (_close(got["R"], R) and _close(got["eta_L"], eta_l)
                    and (got["verdict"] == verdict or abs(R - 1.0) < 1e-9)):
                bad.append((f"check[{q}]", f"R {got['R']!r} != {R!r}"))
        return bad

    def _check_rank(self, table, scale) -> list[str]:
        cands = self.inp["cands"]
        if sorted(r["index"] for r in table) != list(range(len(cands))):
            return ["indices are not a permutation of the candidates"]
        out, prev, seen_div = [], -math.inf, False
        for row in table:
            cfg = cands[row["index"]]
            h = max(cfg["eta1"], cfg["eta2"]) / scale
            R, _ = gen.gate(h, cfg["a1_B"], cfg["model_B"], cfg["tokens_B"])
            verdict = "diverge" if R > 1.0 else "ok"
            if row["config"] != cfg or not _close(row["R"], R):
                out.append(f"index {row['index']}: R {row['R']!r} != {R!r}")
            elif row["verdict"] != verdict and abs(R - 1.0) >= 1e-9:
                out.append(f"index {row['index']}: verdict {row['verdict']}, want {verdict}")
            elif row["verdict"] == "ok":
                want = gen.log_loss(self.c, gen.config_features(cfg, scale))
                if seen_div or row["log_loss"] < prev or not _close(row["log_loss"], want):
                    out.append(f"index {row['index']}: log_loss {row['log_loss']!r} "
                               f"out of order or != {want!r}")
                prev = row["log_loss"]
            else:
                seen_div = True
            if len(out) >= 5:
                break
        return out

    def _check_sweep(self, rows) -> list[str]:
        sw = self.inp["sweep"]
        N, S = sw["model"], sw["tokens"]
        etas = np.linspace(*(float(x) for x in sw["eta_range"].split(":")[:2]), self.GRID)
        warms = np.linspace(*(float(x) for x in sw["warmup_range"].split(":")[:2]), self.GRID)
        want = [(float(h), float(a)) for a in warms for h in etas]
        if rows[0] != ["eta_max", "warmup_B", "R", "predicted_loss"] or len(rows) != len(want) + 1:
            return [f"grid shape: header {rows[0]}, {len(rows) - 1} rows"]
        out = []
        for row, (h, a) in zip(rows[1:], want):
            eta, warm, r, loss = (float(x) for x in row)
            R, _ = gen.gate(h, a, N, S)
            if R > 1.0:
                ok = loss == 7.0 or abs(R - 1.0) < 1e-9
            else:
                ok = _close(loss, math.exp(gen.log_loss(self.c, gen.features16(h, h, a, a, a, S, N))))
            if not (eta == h and warm == a and _close(r, R) and ok):
                out.append(f"cell ({h!r}, {a!r}): R {r!r} loss {loss!r}")
                if len(out) >= 5:
                    break
        return out


class Ensemble:
    """Euler-Maruyama ensembles: dim 16, 10k paths, 400 steps, four cases."""

    name = "ensemble"
    py_weight = 0.5
    CASES = (("quadratic", "sgd"), ("quadratic", "adam"),
             ("double_well", "sgd"), ("double_well", "adam"))
    slots = tuple(f"simulate {o}/{a}" for o, a in CASES)
    named = {"simulate_s": ("pool", (1, 2, 3, 4))}
    DIM, PATHS, ETA0, HORIZON = 16, 10_000, 0.01, 4.0

    def __init__(self, seed: int, workdir: str, api):
        self.seed = seed
        self.w = workdir
        self.files = []
        for i, text in enumerate(gen.ensemble_schedules(seed, len(self.CASES), self.HORIZON)):
            path = os.path.join(workdir, f"schedule{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files.append(path)

    def _argv(self, objective, algorithm, schedule, out=None, dim=None, paths=None):
        argv = ["simulate", "--objective", objective, "--algorithm", algorithm,
                "--dim", str(self.DIM if dim is None else dim),
                "--paths", str(self.PATHS if paths is None else paths),
                "--schedule-json", schedule, "--eta0", repr(self.ETA0),
                "--sigma2", "0.05", "--seed", str(self.seed)]
        return argv + (["--out", out] if out else [])

    def ops(self) -> list[Op]:
        ops = []
        for i, ((obj, algo), sched) in enumerate(zip(self.CASES, self.files)):
            out = os.path.join(self.w, f"sim{i}.json")
            ops.append(Op(f"simulate {obj}/{algo}", i + 1, self._argv(obj, algo, sched, out),
                          outputs=(out,)))
        return ops

    def probes(self):
        return [
            ("simulate_dim_0", self._argv("quadratic", "sgd", self.files[0], dim=0)),
            ("simulate_zero_paths", self._argv("quadratic", "sgd", self.files[0], paths=0)),
        ]

    def verify(self, results):
        bad = []
        for op in self.ops():
            d = _json(results[op.label])
            rep = d["report"]
            if not (d["checks"] and all(d["checks"].values())):
                bad.append((op.label, f"checks {d['checks']}"))
            if (rep["n_paths"], rep["n_steps"], d["config"]["seed"]) != (
                    self.PATHS, round(self.HORIZON / self.ETA0), self.seed):
                bad.append((op.label, "paths, steps or seed differ from the request"))
        return bad


class Lab:
    """Full validation suite plus the covariance routes of criterion 07."""

    name = "lab"
    py_weight = 1.0
    slots = ("validate", "covariance ODE, batched 8x8 SGD",
             "closed-form covariance, batched 8x8 SGD", "gaussian_approx, lifted 12x12 Adam")
    named = {"validate_s": ("pool", (1,)), "gaussian_s": ("pass", (2, 3, 4))}

    def __init__(self, seed: int, workdir: str, api):
        self.seed = seed
        self.w = workdir
        self.sde = api.sde
        sysm = gen.lab_systems(seed)
        self.H, self.Sg = sysm["H"], sysm["Sg"]
        self.scheds = [api.Schedule.from_json(gen.schedule_json(*s)) for s in sysm["schedules"]]
        self.obj4 = api.sde.quadratic(sysm["H4"])
        self.noise4 = api.sde.NoiseModel(sysm["S4"])
        self.grid = np.linspace(0.25, 6.0, 50)
        self.grid4 = np.linspace(0.5, 6.0, 12)

    def ops(self) -> list[Op]:
        sde, H, Sg, grid = self.sde, self.H, self.Sg, self.grid
        out = os.path.join(self.w, "validation.json")
        ops = [Op("validate", 1, ["validate", "--seed", str(self.seed), "--out", out],
                  outputs=(out,))]
        for i, s in enumerate(self.scheds):
            ops.append(Op(f"ode[{i}]", 2, fn=lambda s=s: sde.integrate_covariance_ode(
                H, Sg, s, 0.01, grid)))
            ops.append(Op(f"closed_form[{i}]", 3, fn=lambda s=s: sde.closed_form_covariance(
                H, Sg, s, 0.01, grid)))
        for i, s in enumerate(self.scheds):
            ops.append(Op(f"adam[{i}]", 4, fn=lambda s=s: sde.gaussian_approx(
                self.obj4, self.noise4, s, np.zeros(4), "adam", self.grid4, eta0=0.01)))
        return ops

    def probes(self):
        return []

    def verify(self, results):
        bad = []
        if not _json(results["validate"])["passed"]:
            bad.append(("validate", "a suite did not pass"))
        for i in range(len(self.scheds)):
            po, pc = results[f"ode[{i}]"].value, results[f"closed_form[{i}]"].value
            if len(po) != len(self.grid) or po[0].shape != self.H.shape:
                bad.append((f"ode[{i}]", "wrong output shape"))
                continue
            gap = max(float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))
                      for a, b in zip(po, pc))
            if not gap <= 1e-6:
                bad.append((f"closed_form[{i}]", f"route gap {gap:.3e} > 1e-6"))
            gap = results[f"adam[{i}]"].value.max_route_gap()
            if not gap <= 1e-6:
                bad.append((f"adam[{i}]", f"route gap {gap:.3e} > 1e-6"))
        return bad


WORKLOADS = {w.name: w for w in (Plan, Ensemble, Lab)}
