"""Seeded inputs for the benchmark workloads, and independent oracles.

Everything here is written without calling optlaws: the feature map, the
divergence gate and the planted coefficients are re-derived from their
closed forms, so a defect in the program cannot hide itself by also
producing the expected answer.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

LR_SCALE = 1.5e-2

# Coefficient vector planted into the run log; a noiseless fit must give it back.
PLANTED = (
    -6.92e-4, -1.27e-3, -4.68e-2, 4.65e-2,
    9.62e-3, 1.92e-2, -5.05e-2, -1.82e-1,
    -4.68e-2, -4.18e-2, -1.19e-1, 2.18e-1,
    3.1e-1, 6.98e-1, 5.26e-2, 3.14e-1,
)

# Shipped divergence constants (c1, c2, c3, alpha1, alpha2).
GATE = (1.76, 33.21, 292.03, 0.218, 0.5)

RUN_COLUMNS = "model_B,tokens_B,eta1,eta2,a1_B,a2_B,a3_B,loss,diverged"


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, input stream)."""
    key = sum(ord(c) << (8 * i) for i, c in enumerate(stream[:7]))
    return np.random.default_rng([seed, key])


def features16(h1, h2, a1, a2, a3, S, N) -> list[float]:
    """Closed-form 16-term feature vector of a four-phase linear schedule.

    Normalized rates h1, h2; phase ends a1 <= a2 <= a3 < S in billions of
    tokens; markers a_c1 = a1, a_c2 = a3, a_e1 = a_e2 = a2.
    """
    iw = 0.5 * h1 * a1
    it = 0.5 * h2 * (S - a3)
    ew = h1 * h1 / a1 + ((h2 - h1) ** 2 / (a2 - a1) if a2 > a1 else 0.0)
    et = h2 * h2 / (S - a3)
    return [
        iw ** -1.0, it ** -1.0, (N / it) ** 0.25, (iw * it) ** -0.23,
        et, ew ** 0.25, et ** 0.25, (S * N) ** -0.25,
        (et / iw) ** 0.2, (et / it) ** 0.15, (N * et / iw) ** 0.15, (N * et / it) ** 0.15,
        N ** -0.25, S ** -0.25, max(h1, h2) ** 0.2, 1.0,
    ]


def config_features(cfg: dict, lr_scale: float = LR_SCALE) -> list[float]:
    return features16(
        cfg["eta1"] / lr_scale, cfg["eta2"] / lr_scale,
        cfg["a1_B"], cfg["a2_B"], cfg["a3_B"], cfg["tokens_B"], cfg["model_B"],
    )


def log_loss(c, feats) -> float:
    return math.fsum(ci * fi for ci, fi in zip(c, feats))


def gate(eta_max: float, a1: float, N: float, S: float) -> tuple[float, float]:
    """(R, eta_L) of the divergence criterion with the shipped constants."""
    c1, c2, c3, al1, al2 = GATE
    thr = (c1 / c2) * math.exp(al1 * math.log(S * S) - al2 * math.log(N))
    eta_l = min(eta_max, thr)
    return S * S * (eta_max - eta_l) ** 2 / (c3 * a1 * a1 * eta_l * eta_l), eta_l


def _four_phase(rng, S, warm_lo, warm_hi, h_lo=0.1) -> dict:
    h1 = float(rng.uniform(h_lo, 1.0))
    a1 = S * float(math.exp(rng.uniform(math.log(warm_lo), math.log(warm_hi))))
    if rng.random() < 0.3:  # no decay phase: a2 = a1 forces eta2 = eta1
        a2, h2 = a1, h1
    else:
        a2 = a1 + S * float(rng.uniform(0.0, 0.2))
        h2 = h1 * float(rng.uniform(0.3, 1.0))
    a3 = a2 + (S - a2) * float(rng.uniform(0.0, 0.7))
    return {"eta1": h1 * LR_SCALE, "eta2": h2 * LR_SCALE, "a1_B": a1, "a2_B": a2, "a3_B": a3}


def _random_config(rng, warm_lo=0.02, warm_hi=0.3, h_lo=0.1) -> dict:
    S = float(math.exp(rng.uniform(math.log(2.0), math.log(100.0))))
    N = float(math.exp(rng.uniform(math.log(0.05), math.log(8.0))))
    return {"model_B": N, "tokens_B": S, **_four_phase(rng, S, warm_lo, warm_hi, h_lo)}


def write_plan_inputs(seed: int, workdir: str, n_rows: int, n_div: int,
                      n_cand: int, n_queries: int, grid: int) -> dict:
    """Run log, candidate list, query configs and sweep settings for ``plan``."""
    rng = rng_for(seed, "runlog")
    lines = [RUN_COLUMNS]
    for i in range(n_rows):
        cfg = _random_config(rng)
        if i < n_div:  # divergent rows: flagged, loss at the plateau value
            loss, flag = 7.0, 1
        else:
            loss, flag = math.exp(log_loss(PLANTED, config_features(cfg))), 0
        lines.append(",".join(
            [repr(cfg[k]) for k in ("model_B", "tokens_B", "eta1", "eta2", "a1_B", "a2_B", "a3_B")]
            + [repr(loss), str(flag)]
        ))
    runs = os.path.join(workdir, "runs.csv")
    with open(runs, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    rng = rng_for(seed, "cands")
    cands = []
    for _ in range(n_cand):
        # short warmups and high peaks make part of the list fail the gate
        cfg = _random_config(rng, warm_lo=0.002, warm_hi=0.3, h_lo=0.05)
        if rng.random() < 0.1:
            cfg["pre"] = _random_config(rng)
        cands.append(cfg)
    configs = os.path.join(workdir, "configs.json")
    with open(configs, "w", encoding="utf-8") as fh:
        json.dump(cands, fh)

    rng = rng_for(seed, "queries")
    predicts, checks = [], []
    for q in range(n_queries):
        cfg = _random_config(rng)
        path = os.path.join(workdir, f"query{q}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        predicts.append((path, cfg))
        S = float(rng.uniform(10.0, 200.0))
        checks.append({
            "eta_max": float(rng.uniform(0.05, 1.0)),
            "warmup": S * float(rng.uniform(0.005, 0.3)),
            "model": float(math.exp(rng.uniform(math.log(0.05), math.log(8.0)))),
            "tokens": S,
        })
    bad = os.path.join(workdir, "missing_eta1.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in predicts[0][1].items() if k != "eta1"}, fh)

    # Fixed model and horizon keep the gated share of the grid, and so the
    # work, the same for every seed; the seed only nudges the grid edges.
    rng = rng_for(seed, "sweep")
    S = 30.0
    lo_eta, hi_eta, lo_warm, hi_warm = (float(x) for x in rng.uniform(0.0, 0.01, size=4))
    sweep = {
        "model": 4.05,
        "tokens": S,
        "eta_range": f"{0.05 + lo_eta!r}:{1.0 - hi_eta!r}:{grid}",
        "warmup_range": f"{0.1 + lo_warm!r}:{0.8 * S * (1.0 - hi_warm)!r}:{grid}",
    }
    return {"runs": runs, "n_rows": n_rows, "n_div": n_div, "configs": configs,
            "cands": cands, "predicts": predicts, "checks": checks,
            "missing_eta1": bad, "sweep": sweep}


def schedule_json(segments, S: float, markers) -> str:
    return json.dumps({
        "S": S, "markers": list(markers),
        "segments": [
            {"kind": k, "t0": t0, "t1": t1, "eta0": e0, "eta1": e1}
            for k, t0, t1, e0, e1 in segments
        ],
    })


def four_phase_segments(h1, h2, a1, a2, a3, S):
    pieces = [("linear", 0.0, a1, 0.0, h1), ("linear", a1, a2, h1, h2),
              ("constant", a2, a3, h2, h2), ("linear", a3, S, h2, 0.0)]
    return [p for p in pieces if p[2] > p[1]]


def ensemble_schedules(seed: int, n: int, S: float = 4.0) -> list[str]:
    """Schedule JSONs shaped like the bound-domination criterion (peak <= 0.8)."""
    rng = rng_for(seed, "ensemble")
    out = []
    for _ in range(n):
        h1 = float(rng.uniform(0.5, 0.8))
        h2 = h1 * float(rng.uniform(0.6, 1.0))
        a1 = float(rng.uniform(0.5, 1.0))
        a2 = a1 + float(rng.uniform(0.1, 0.5))
        a3 = a2 + float(rng.uniform(0.0, 1.5))
        out.append(schedule_json(four_phase_segments(h1, h2, a1, a2, a3, S), S, (a1, a2, a3)))
    return out


def lab_systems(seed: int):
    """Batched 8x8 SGD systems and a 4-dim Adam system; the three schedules of
    acceptance criterion 07.

    The schedules are fixed because the quadrature refinement they need sets
    the work of a covariance call; the seed draws the matrices.
    """
    rng = rng_for(seed, "lab")

    def spd(n, shift):
        a = rng.standard_normal((n, n))
        return a @ a.T / n + shift * np.eye(n)

    H = np.stack([spd(8, 0.3) for _ in range(8)])
    Sg = np.stack([spd(8, 0.1) for _ in range(8)])
    S = 6.0
    scheds = [
        (four_phase_segments(0.8, 0.8, 1.0, 1.0, 1.0, S), S, (1.0, 1.0, 1.0)),
        ([("linear", 0.0, 0.8, 0.0, 0.7), ("cosine", 0.8, S, 0.7, 0.0)], S, (0.8, 0.8, 0.8)),
        (four_phase_segments(0.9, 0.4, 0.5, 2.0, 4.0, S), S, (0.5, 2.0, 4.0)),
    ]
    return {"H": H, "Sg": Sg, "schedules": scheds, "H4": spd(4, 0.4), "S4": spd(4, 0.2)}
