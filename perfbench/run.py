"""optlaws benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                  # every workload

Run from the root of a source checkout; the program is imported from
``src/``.  Human-readable results come first, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record (raw samples, provenance, spans summary) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: one client, no worker threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speed import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = ("setup_s", "pass_s", "cmd1_s", "cmd2_s", "cmd3_s", "cmd4_s", "peak_rss_mb")
UNITS = {"peak_rss_mb": "MiB"}
PER_LAYER = (
    "schedule.integral.calls", "schedule.integral.self_s",
    "schedule.value.calls", "schedule.value.self_s",
    "features.compute_features.calls", "features.compute_features.self_s",
    "law.fit.self_s", "law.predict.calls", "law.predict.self_s", "law.rank.self_s",
    "divergence.criterion_R.calls", "divergence.criterion_R.self_s",
    "cli.read_runs_csv.self_s", "cli.sweep_grid.self_s", "cli.self_s",
    "numerics.adaptive_simpson.calls", "numerics.adaptive_simpson.self_s",
    "sde.simulate.calls", "sde.simulate.self_s",
    "sde.rng_fill_s", "sde.step_s", "sde.path_steps", "sde.noise_bytes_computed",
    "sde.integrate_covariance_ode.self_s", "sde.closed_form_covariance.self_s",
    "sde.random_matrix_checks.self_s", "sde.convergence_bound.self_s",
    "trace.uncovered_s", "trace_overhead_frac",
)
SETUP_REPEATS = 5
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import optlaws.cli; print(repr(time.perf_counter() - t)); print(optlaws.cli.__file__)"
)


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "sde.path_steps":
        return "count"
    if name == "sde.noise_bytes_computed":
        return "B"
    return "ratio" if name.endswith("_frac") else "s"


def load_program():
    """Import optlaws from this checkout's src/, or None if it is not there."""
    if not (SRC / "optlaws" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import optlaws.cli
    import optlaws.sde
    from optlaws.schedule import Schedule

    if Path(optlaws.cli.__file__).resolve().parents[1] != SRC.resolve():
        return None
    return types.SimpleNamespace(cli=optlaws.cli, sde=optlaws.sde, Schedule=Schedule)


def provenance(seed: int) -> dict:
    import scipy

    head, sha = ROOT / ".git" / "HEAD", "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = 0
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": int(BLAS_THREADS), "llc_bytes": llc,
    }


def measure_setup() -> tuple:
    """Cold ``import optlaws.cli`` in fresh interpreters, one at a time.

    Returns normalized and raw seconds per import, the kernel samples and
    the index of the sample taken before each import.
    """
    cal = Calibrator(py_weight=1.0)  # an import is interpreter work
    raw, idx = [], []
    for _ in range(SETUP_REPEATS):
        cal.measure()
        idx.append(len(cal.samples) - 1)
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        lines = done.stdout.split()
        if done.returncode != 0 or len(lines) != 2 or Path(lines[1]).resolve().parents[1] != SRC.resolve():
            raise RuntimeError(f"import optlaws.cli failed: {done.stderr.strip()[-300:]}")
        raw.append(float(lines[0]))
    cal.measure()
    return [t * cal.factor(i) for t, i in zip(raw, idx)], raw, cal.samples, idx


def tail(samples) -> tuple | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    return (100 * (n - 10)) // n, sorted(samples)[n - 11]


@dataclass
class Result:
    op: object
    dt: float  # raw wall-clock seconds
    value: object  # exit code of a CLI call, return value of an API call
    stdout: str
    stderr: str
    files: dict
    exc: Exception | None
    op_id: int = -1
    norm: float | None = None  # seconds at reference speed


def _blob(v) -> bytes:
    if isinstance(v, np.ndarray):
        return v.tobytes()
    if isinstance(v, (list, tuple)):
        return b"".join(_blob(x) for x in v)
    if hasattr(v, "__dict__"):
        return b"".join(_blob(x) for x in vars(v).values())
    return repr(v).encode()


def execute(api, op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    value = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            value = api.cli.main(op.argv) if op.argv is not None else op.fn()
        except Exception as e:  # counted as a failed operation, never dropped
            exc = e
        dt = time.perf_counter() - t0
    files = {p: Path(p).read_bytes() for p in op.outputs if Path(p).is_file()}
    return Result(op, dt, value, out.getvalue(), err.getvalue(), files, exc)


class Session:
    """Runs passes of one workload and keeps samples, failures and probes."""

    def __init__(self, api, workload):
        self.api, self.wl = api, workload
        self.ops = workload.ops()
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.failures: dict[str, int] = {}
        self.probe_attempted = 0
        self.probe_failures: dict[str, str] = {}
        # per pass: "slots" and "raw" map slot -> seconds at reference speed / wall clock;
        # "ops" lists (slot, wall seconds, index of the kernel sample before it)
        self.passes: list[dict] = []
        self.op_id = 0
        self.op_factor: dict[int, float] = {}  # op id -> latency normalization factor
        self.cal = Calibrator(workload.py_weight)

    def run_pass(self, tracer=None) -> dict:
        restore = tracer.install() if tracer is not None else None
        t_wall, cal_spent = time.perf_counter(), self.cal.spent
        results, before = {}, {}
        try:
            for op in self.ops:
                before[op.label] = self.cal.before()
                op_id, self.op_id = self.op_id, self.op_id + 1
                if tracer is not None:
                    tracer.op_id = op_id
                results[op.label] = execute(self.api, op)
                results[op.label].op_id = op_id
            self.cal.measure()
        finally:
            wall = time.perf_counter() - t_wall - (self.cal.spent - cal_spent)
            if restore is not None:
                restore()
        for label, r in results.items():
            self.op_factor[r.op_id] = self.cal.factor(before[label])
            r.norm = r.dt * self.op_factor[r.op_id]
        self._judge(results)
        self._probe()
        slots: dict[int, list] = {}
        raw: dict[int, list] = {}
        for r in results.values():
            slots.setdefault(r.op.slot, []).append(r.norm)
            raw.setdefault(r.op.slot, []).append(r.dt)
        rec = {"traced": tracer is not None, "slots": slots, "raw": raw,
               "total": sum(r.norm for r in results.values()), "wall": wall,
               "ops": [[r.op.slot, r.dt, before[label]] for label, r in results.items()]}
        self.passes.append(rec)
        return rec

    def _judge(self, results):
        problems: dict[str, str] = {}
        for label, r in results.items():
            if r.exc is not None:
                problems[label] = f"raised {type(r.exc).__name__}: {r.exc}"
            elif r.op.argv is not None and r.value != 0:
                problems[label] = f"exit {r.value}: {r.stderr.strip()[-200:]}"
        if not self.digests and not problems:  # first clean pass: full oracle check
            try:
                for label, why in self.wl.verify(results):
                    problems.setdefault(label, why)
            except Exception as e:  # a malformed output must fail, not crash the run
                problems.setdefault("verify", f"raised {type(e).__name__}: {e}")
            if not problems:
                self.digests = {label: self._digest(r) for label, r in results.items()}
        elif self.digests:
            for label, r in results.items():
                if label not in problems and self._digest(r) != self.digests[label]:
                    problems[label] = "output differs from the first pass"
        self.attempted += len(results)
        if "verify" in problems:
            self.failed += len(results)
        else:
            self.failed += sum(1 for label in results if label in problems)
        for label, why in problems.items():
            key = f"{label}: {why}"
            self.failures[key] = self.failures.get(key, 0) + 1

    @staticmethod
    def _digest(r: Result) -> str:
        h = hashlib.sha256(_blob(r.value))
        h.update(r.stdout.encode())
        for path in sorted(r.files):
            h.update(r.files[path])
        return h.hexdigest()

    def _probe(self):
        """Malformed inputs: the right outcome is exit 1 with a one-line message."""
        for name, argv in self.wl.probes():
            self.probe_attempted += 1
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.api.cli.main(argv)
                except Exception as e:
                    rc = f"raised {type(e).__name__}"
            lines = err.getvalue().strip().splitlines()
            if rc != 1:
                self.probe_failures[name] = rc if isinstance(rc, str) else f"exit {rc}"
            elif len(lines) != 1 or not lines[0].startswith("error:"):
                self.probe_failures[name] = f"stderr has {len(lines)} lines"


def time_rng_fill(api, calls, cal) -> dict:
    """Time the per-path noise fill of exactly the recorded simulate calls."""
    fill = 0.0
    steps = nbytes = 0
    for args, kwargs in calls:
        objective = kwargs.get("objective", args[0] if args else None)
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        n_steps, dim = config.n_steps, objective.dim
        cal.measure()
        t0 = time.perf_counter()
        for i in range(config.n_paths):
            api.sde.path_rng(config.seed, i).standard_normal((n_steps, dim))
        dt = time.perf_counter() - t0
        cal.measure()
        fill += dt * cal.factor(len(cal.samples) - 2)
        steps += config.n_paths * n_steps
        nbytes += config.n_paths * n_steps * dim * 8
    return {"fill_s": fill, "path_steps": steps, "noise_bytes": nbytes}


def samples_of(passes, how, slots, key="slots", traced=False) -> list[float]:
    """Latencies of the given slots: pooled per command, or summed per pass."""
    ps = [p for p in passes if p["traced"] == traced]
    if how == "pass":
        return [sum(sum(p[key].get(s, [])) for s in slots) for p in ps]
    return [dt for p in ps for s in slots for dt in p[key].get(s, [])]


def stat(samples, raw) -> dict:
    t = tail(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail_pct": t[0] if t else None, "tail": t[1] if t else None,
            "raw_median": statistics.median(raw)}


def run_workload(args, api) -> int:
    from spans import Tracer
    from workloads import WORKLOADS

    prov = provenance(args.seed)
    setup = measure_setup()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, str(workdir), api)
        sess = Session(api, wl)
        tracer = Tracer() if args.trace else None
        fills = []
        t_end = time.perf_counter() + args.seconds
        while True:
            sess.run_pass()
            if tracer is not None:
                sess.run_pass(tracer)
                fills.append(time_rng_fill(api, tracer.calls, sess.cal))
                tracer.calls.clear()
            if time.perf_counter() >= t_end:
                break
        return report(args, prov, setup, wl, sess, tracer, fills)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(sess, tracer, fills) -> dict:
    """Per traced pass: calls and normalized self time per span, and the RNG split."""
    traced = [p for p in sess.passes if p["traced"]]
    k = len(traced)
    agg = tracer.aggregate(sess.op_factor)
    layers = {}
    for span, v in agg["spans"].items():
        layers[f"{span}.calls"] = v["calls"] / k
        layers[f"{span}.self_s"] = v["self_s"] / k
    fill = sum(f["fill_s"] for f in fills) / k
    layers["sde.rng_fill_s"] = fill
    layers["sde.step_s"] = layers.get("sde.simulate.self_s", 0.0) - fill
    layers["sde.path_steps"] = sum(f["path_steps"] for f in fills) / k
    layers["sde.noise_bytes_computed"] = sum(f["noise_bytes"] for f in fills) / k
    layers["trace.uncovered_s"] = (sum(p["wall"] for p in traced) - agg["root_s"]) / k
    untraced = statistics.median(p["total"] for p in sess.passes if not p["traced"])
    layers["trace_overhead_frac"] = statistics.median(p["total"] for p in traced) / untraced - 1.0
    np.savez_compressed(OUT / f"spans-{sess.wl.name}.npz", **tracer.arrays())
    return layers


def report(args, prov, setup, wl, sess, tracer, fills) -> int:
    passes = sess.passes
    every = (1, 2, 3, 4)
    named = {"setup_s": stat(*setup[:2]),
             "pass_s": stat(samples_of(passes, "pass", every),
                            samples_of(passes, "pass", every, "raw"))}
    for name, (how, slots) in wl.named.items():
        named[name] = stat(samples_of(passes, how, slots), samples_of(passes, how, slots, "raw"))
    for s in every:
        named[f"cmd{s}_s"] = stat(samples_of(passes, "pool", (s,)),
                                  samples_of(passes, "pool", (s,), "raw"))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = layer_metrics(sess, tracer, fills) if tracer is not None else None

    print(f"optlaws benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"passes: {sum(not p['traced'] for p in passes)} untraced, "
          f"{sum(p['traced'] for p in passes)} traced; latencies in s at reference speed, "
          f"raw wall-clock medians in brackets")
    slot_names = {f"cmd{i}_s": what for i, what in enumerate(wl.slots, 1)}
    for name, s in named.items():
        t = f"p{s['tail_pct']} {s['tail']:.6g}" if s["tail"] is not None else "p- (n<=10)"
        what = f"  = {slot_names[name]}" if name in slot_names else ""
        print(f"  {name:<13} s      median {s['median']:.6g} [{s['raw_median']:.6g}]  "
              f"{t}  n={s['n']}{what}")
    print(f"  {'peak_rss_mb':<13} MiB    {rss:.1f}")
    print(f"  {'failed_frac':<13} ratio  {sess.failed / sess.attempted:.6g} "
          f"({sess.failed}/{sess.attempted})")
    for key, count in sorted(sess.failures.items()):
        print(f"  FAILED x{count}  {key}")
    pf = sess.probe_failures
    print(f"probes: {len(wl.probes())} malformed inputs per pass, {len(pf)} failing"
          + "".join(f"\n  PROBE FAILED  {n}: {why}" for n, why in sorted(pf.items())))
    if layers is not None:
        block = getattr(sys.modules["optlaws.sde.simulate"], "DEFAULT_BLOCK_BYTES", "n/a")
        print(f"noise: {layers['sde.noise_bytes_computed']:.0f} B computed per pass; "
              f"block {block} B; LLC {prov['llc_bytes']} B")
        if tracer.missing:
            print("trace targets not found: " + ", ".join(sorted(set(tracer.missing))))
        for name in PER_LAYER:
            print(f"  {name:<38} {layer_unit(name):<6} {layers.get(name, 0.0):.6g}")

    if layers is not None:
        metrics = {n: {"value": layers.get(n, 0.0), "unit": layer_unit(n)} for n in PER_LAYER}
    else:
        values = {n: named[n]["median"] for n in END_TO_END if n != "peak_rss_mb"}
        values["peak_rss_mb"] = rss
        metrics = {n: {"value": values[n], "unit": UNITS.get(n, "s")} for n in END_TO_END}
    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "named": named, "cal_samples": sess.cal.samples,
              "slot_names": slot_names, "peak_rss_mb": rss,
              "attempted": sess.attempted, "failed": sess.failed, "failures": sess.failures,
              "probe_attempted": sess.probe_attempted, "probe_failures": sess.probe_failures,
              "layers": layers, "passes": passes,
              "setup_samples": {"normalized": setup[0], "raw": setup[1],
                                "cal": setup[2], "before": setup[3]}}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": sess.failed == 0, "attempted": sess.attempted,
                      "failed": sess.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    results, rc = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"workload {name} failed with exit {done.returncode}")
            rc = 1
            continue
        results[name] = json.loads(lines[-1])
    names = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':<38} {'unit':<6}" + "".join(f" {w:>12}" for w in results))
    for n in names:
        unit = layer_unit(n) if args.trace else UNITS.get(n, "s")
        print(f"{n:<38} {unit:<6}" + "".join(
            f" {r['metrics'][n]['value']:>12.6g}" for r in results.values()))
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["plan", "ensemble", "lab", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    api = load_program()
    if api is None:
        print(f"error: no optlaws sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, api)


if __name__ == "__main__":
    sys.exit(main())
