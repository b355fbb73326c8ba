#!/usr/bin/env python3
"""latentcat benchmark: the CLI pipeline on seeded synthetic surveys.

Run from the repository root:

    python3 perfbench/run.py --workload survey-200k --seed 1 --seconds 10 --trace 0

Each CLI stage runs as its own process, the way a user runs it
(``python -m latentcat.cli ...`` with ``PYTHONPATH=src``), one after another:
a closed loop with one client, so the CLI's default ``--threads`` is the only
parallelism. Inputs come from ``simulate`` on a generator spec whose probit
section is drawn from the workload seed, so the true coefficients and cell
models are known and every run checks its answers against them.

``--trace 0`` sets up the workload several times (``setup_s`` is the median),
then repeats the timed stages until ``--seconds`` have passed (at least the
workload's ``passes``) and reports medians over passes. ``--trace 1`` sets up
once with tracing, runs one untraced and one traced pass, and reports per-layer
numbers from the traced pass (see tracer.py and layers.py); the difference
between the two passes is ``trace.overhead_s``.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 when every stage exits 0 and every
oracle check passes, 1 otherwise, 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# A run must end within 180 s; stages still running at this point are killed.
RUN_BUDGET_S = 170.0
# Every workload sets up by simulating its input; setup_s is the median of
# this many set-ups.
SETUP = ("simulate",)
SETUPS = 3
# Bootstrap replicates of `test` and CMLE starts per cell of `identify`.
TEST_B = 999
STARTS = 3
# Bound on the max-abs coefficient error of `estimate` fed the true cell
# models: the latent probit is then exactly specified, so only round-off and
# solver tolerance remain (about 1e-16 measured).
ORACLE_BETA_TOL = 1e-6

# The paper-scale generator: S=3, 32 covariate cells (5 binary covariates).
SURVEY = {
    "s_x": 3, "s_z": 3, "w_cells": 32, "strength": 0.4, "separation": 0.25,
    "ord_margin": 0.05, "min_singular_value": 0.08, "z_mix": 0.75,
    "latent_uniform_mix": 0.45,
}
# Acceptance criterion 8's two-cell generator, for the smoke test.
SMOKE = {
    "s_x": 3, "s_z": 3, "w_cells": 2, "strength": 0.3, "separation": 0.3,
    "ord_margin": 0.05, "min_singular_value": 0.1, "z_mix": 0.8,
    "latent_uniform_mix": 0.8,
}


@dataclass(frozen=True)
class Workload:
    generator: dict
    n_records: int
    timed: tuple[str, ...]
    latent_boot: int = 0
    reported_boot: int = 0
    # Timed passes at least, even when --seconds have passed; end-to-end
    # figures are medians over the passes.
    passes: int = 1
    # Bound on the max-abs latent coefficient error of the identified fit
    # (None: not checked); it is sampling error, so it scales with 1/sqrt(n).
    # At 200k records the error is 0.011-0.026 on most seeds but reaches
    # 0.056 on some (seed 106, the same with 10 starts per cell), so
    # acceptance criterion 7's 0.05 would fail on sampling error alone. At
    # 50k it was 0.020-0.095 over 20 seeds. The estimate layer itself is
    # checked tightly on the true cell models (ORACLE_BETA_TOL).
    beta_tol: float | None = None


WORKLOADS = {
    # Ingest dominates every stage; the bootstrap layers sit idle.
    "survey-200k": Workload(
        SURVEY, 200_000, ("test", "identify", "estimate-latent"),
        beta_tol=0.1),
    # Likelihood fits dominate (identify's starts, then every replicate's),
    # ingest is about 7%. Identify is timed, not set up: the two-thread
    # bootstrap alone swings by 20-26% across runs on a busy host, and the
    # single-threaded identify halves its share of the measured time.
    "latent-boot": Workload(
        SURVEY, 50_000, ("identify", "estimate-latent"),
        latent_boot=2, beta_tol=0.2),
    # Reported bootstrap: record redraws and the ordered ML benchmark, no fits.
    # One pass takes about 10 s and back-to-back passes differ by up to 30%,
    # most of it in the single-threaded CSV ingest, so one pass per run
    # swung by 16-29% (IQR/median over seeds) on a busy host. Over ten seeds
    # the run-to-run sd of log pipeline_s was 0.081 with one pass, 0.056 for
    # the median of two and 0.047 of three; B=40 with three passes (more
    # ingest per timed second) gave 0.11.
    "reported-boot": Workload(
        SURVEY, 200_000, ("estimate-reported",),
        reported_boot=100, passes=3),
    # Every stage on a tiny input; used by test_smoke.py, not by BENCHMARK.json.
    "smoke": Workload(
        SMOKE, 6_000,
        ("test", "identify", "estimate-latent", "estimate-reported"),
        latent_boot=2, reported_boot=5),
}

END_TO_END = ("pipeline_s", "cpu_s", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "data.ingest_s", "data.ingest_rows_per_s", "data.tabulate_calls",
    "data.tabulate_s", "citest.bootstrap_test_calls", "citest.bootstrap_test_s",
    "citest.replicates_per_s", "mle.fit_calls", "mle.fit_s", "mle.fit_ms_p50",
    "mle.fit_ms_tail", "mle.fit_tail_pct", "mle.starts", "mle.lbfgs_iters_mean",
    "mle.start_yield", "resampling.resample_calls", "resampling.resample_s",
    "resampling.run_plan_s", "resampling.replicates_dropped",
    "pipeline.fit_cells_calls", "pipeline.fit_cells_s",
    "pipeline.replicate_ms_p50", "pipeline.replicate_ms_p95", "ordered.calls",
    "ordered.s", "generate.make_model_s", "generate.draw_s", "cli.startup_s",
    "cli.exit_s", "cli.self_s", "data.self_s", "citest.self_s", "mle.self_s",
    "ordered.self_s", "resampling.self_s", "pipeline.self_s", "generate.self_s",
    "report.self_s", "trace.overhead_s", "trace.stage_wall_s", "trace.absent_names",
)

OUTPUTS = {
    "simulate": "data.csv",
    "test": "report.json",
    "identify": "models.json",
    "estimate-latent": "fit-latent.json",
    "estimate-reported": "fit-reported.json",
    "estimate-oracle": "fit-oracle.json",
}


def stage_args(stage: str, wl: Workload, seed: int) -> list[str]:
    """CLI arguments of one stage; only options the ROADMAP keeps."""
    data = ["--schema", "data.schema.cfg"]
    out = ["--out", OUTPUTS[stage]]
    if stage == "simulate":
        return ["simulate", "--spec", "gen.cfg", "--n", str(wl.n_records),
                "--seed", str(seed), *out]
    if stage == "test":
        return ["test", "--input", "data.csv", *data, "--by-cell",
                "--B", str(TEST_B), "--seed", str(seed + 1), *out]
    if stage == "identify":
        return ["identify", "--input", "data.csv", *data, "--by-cell",
                "--method", "cmle", "--starts", str(STARTS),
                "--seed", str(seed + 2), "--ord", "enforce", *out]
    if stage in ("estimate-latent", "estimate-oracle"):
        boot = ["--boot", str(wl.latent_boot)] if wl.latent_boot else []
        models = "models.json"
        if stage == "estimate-oracle":
            boot, models = [], "true-models.json"
        return ["estimate", "--models", models, "--data", "data.csv", *data,
                "--model", "hoprobit", "--target", "latent", *boot,
                "--seed", str(seed + 3), *out]
    if stage == "estimate-reported":
        return ["estimate", "--data", "data.csv", *data, "--model", "oprobit",
                "--target", "reported", "--boot", str(wl.reported_boot),
                "--seed", str(seed + 3), *out]
    raise ValueError(stage)


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    timings: dict = field(default_factory=dict)
    trace: dict | None = None


class Runner:
    """Runs CLI stages in the work directory under one deadline."""

    def __init__(self, work: Path, wl: Workload, seed: int, deadline: float):
        self.work, self.wl, self.seed, self.deadline = work, wl, seed, deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.runs: list[StageRun] = []

    def stage(self, stage: str, traced: bool = False) -> StageRun:
        args = stage_args(stage, self.wl, self.seed)
        spans = self.work / f"{stage}.spans.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            run = StageRun(stage, 0.0, 0.0, 0.0, -1)
            self.runs.append(run)
            return run
        with open(self.work / f"{stage}.stdout", "wb") as out, \
                open(self.work / f"{stage}.stderr", "wb") as err:
            t_spawn = time.monotonic()
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans),
                       repr(t_spawn), *args]
            else:
                cmd = [sys.executable, "-m", "latentcat.cli", *args]
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t_spawn
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        run = StageRun(stage, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, code)
        manifest = self.work / (OUTPUTS[stage] + ".manifest.json")
        if code == 0 and manifest.exists():
            run.timings = json.loads(manifest.read_text())["timings"]
        if traced and spans.exists():
            run.trace = json.loads(spans.read_text())
        if code != 0:
            tail = (self.work / f"{stage}.stderr").read_text(errors="replace")
            print(f"stage {stage} exited {code}: {tail[-2000:]}", file=sys.stderr)
        self.runs.append(run)
        return run

    def sequence(self, stages, traced: bool = False) -> list[StageRun]:
        done = []
        for stage in stages:
            done.append(self.stage(stage, traced))
            if done[-1].code != 0:
                break
        return done


# ---------------------------------------------------------------------------
# Inputs and the oracle
# ---------------------------------------------------------------------------


def write_generator(path: Path, wl: Workload, seed: int):
    """Write the generator spec; return the true probit parameters and models.

    The probit section is the first draw of ``random_probit_params`` from
    ``default_rng(seed)`` whose latent marginals the generator admits (a
    latent state too rare in some cell fails its singular-value gate), so
    every seed gives a workload on which no stage fails.
    """
    import numpy as np
    from latentcat.errors import GeneratorError
    from latentcat.generate import GeneratorSpec, make_model, random_probit_params

    g = wl.generator
    n_cov = g["w_cells"].bit_length() - 1
    rng = np.random.default_rng(seed)
    for _ in range(100):
        params = random_probit_params(rng, n_cov)
        spec = GeneratorSpec(
            s_x=g["s_x"], s_z=g["s_z"], n_w_cells=g["w_cells"],
            misclassification_strength=g["strength"],
            eigenvalue_separation=g["separation"], seed=seed, probit_params=params,
            ord_margin=g["ord_margin"], min_singular_value=g["min_singular_value"],
            z_mix=g["z_mix"], latent_uniform_mix=g["latent_uniform_mix"],
        )
        try:
            models = make_model(spec)
            break
        except GeneratorError:
            continue
    else:
        raise GeneratorError(f"no admissible probit draw for seed {seed}")

    def floats(values):
        return ", ".join(repr(float(v)) for v in values)

    path.write_text(
        "[generator]\n"
        + "".join(f"{k} = {v}\n" for k, v in g.items())
        + f"\n[probit]\nbeta = {floats(params.beta)}\n"
        f"sigma = {floats(params.sigma_by_cell)}\n"
        f"cutpoints = {floats(params.cutpoints)}\n"
    )
    return params, models


def cell_tables(csv_path: Path, s_x: int, s_z: int, n_cells: int):
    """(cell, x, y, z) counts straight from the simulated CSV."""
    import numpy as np

    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    x, y, z, w = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3:]
    cell = (w << np.arange(w.shape[1])).sum(axis=1)
    flat = ((cell * s_x + (x - 1)) * 2 + y) * s_z + (z - 1)
    counts = np.bincount(flat, minlength=n_cells * s_x * 2 * s_z)
    return counts.reshape(n_cells, s_x, 2, s_z)


def estimate_on_truth(runner: Runner, models) -> None:
    """Run `estimate --target latent` on the true cell models.

    The cell labels come from identify's models.json, in cell order. With
    the true models the latent probit is exactly specified, so the estimate
    layer alone decides how close the coefficients come to the truth.
    """
    work = runner.work
    if not (work / "models.json").exists():
        return
    cells = json.loads((work / "models.json").read_text())["cells"]
    truth = [{"w_cell": c["w_cell"], "model": {**m.to_dict(), "w_cell": c["w_cell"]}}
             for c, m in zip(cells, models)]
    (work / "true-models.json").write_text(json.dumps({"cells": truth}))
    runner.stage("estimate-oracle")


def true_loglik(model, counts) -> float:
    """Sum of count * log pmf under the true cell model."""
    import numpy as np

    fy = model.f_y_given_xstar
    pmf = np.einsum("xs,ys,zs,s->xyz", model.m_x_given_xstar,
                    np.stack([1.0 - fy, fy]), model.m_z_given_xstar, model.f_xstar)
    active = counts > 0
    return float(np.sum(counts[active] * np.log(pmf[active])))


class Checks:
    """Oracle checks and the accuracy and failure metrics read from artifacts."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, tuple[float, str, int]] = {}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)

    def stages(self, runs: list[StageRun]) -> None:
        bad = [f"{r.stage}={r.code}" for r in runs if r.code != 0]
        self.check("every stage exits 0", not bad, ", ".join(bad) or f"{len(runs)} stages")
        self.metrics["stages_failed_frac"] = (len(bad) / len(runs), "fraction", len(runs))

    def artifacts(self, work: Path, wl: Workload, params, models) -> None:
        import numpy as np

        if (work / "report.json").exists():
            report = json.loads((work / "report.json").read_text())
            p = report["pooled"]["p_value"]
            self.metrics["test_p_pooled"] = (p, "p", 1)
            # Every generator cell misclassifies, so nearly every test must
            # reject. The pooled test alone is not enough: pooling 32
            # different cells can hide the dependence (seed 6: pooled
            # p=0.057 while all 32 cells reject at p=0.001).
            tests = [p, *(c["p_value"] for c in report["cells"])]
            rejected = sum(v <= 0.01 for v in tests)
            self.check("at least 90% of tests (pooled and per cell) reject at 1%",
                       rejected >= 0.9 * len(tests),
                       f"{rejected} of {len(tests)}, pooled p={p}")
        if (work / "models.json").exists():
            self._models(work, wl, models)
        fit = work / "fit-latent.json"
        if fit.exists():
            payload = json.loads(fit.read_text())
            err = float(np.max(np.abs(np.asarray(payload["fit"]["beta"]) - params.beta)))
            self.metrics["latent_beta_err"] = (err, "abs", len(params.beta))
            if wl.beta_tol is not None:
                self.check(f"latent beta error <= {wl.beta_tol}",
                           err <= wl.beta_tol, f"{err:.4f}")
        oracle = work / "fit-oracle.json"
        if oracle.exists():
            beta = np.asarray(json.loads(oracle.read_text())["fit"]["beta"])
            err = float(np.max(np.abs(beta - params.beta)))
            self.check(f"latent beta error on the true cell models <= {ORACLE_BETA_TOL}",
                       err <= ORACLE_BETA_TOL, f"{err:.3g}")
        boots = [p for p in (work / "fit-latent.json", work / "fit-reported.json")
                 if p.exists() and json.loads(p.read_text())["boot"]]
        b_total = dropped = 0
        for path in boots:
            payload = json.loads(path.read_text())
            se = np.asarray(payload["fit"]["std_errors"], dtype=float)
            b, n_dropped = payload["boot"]["b"], payload["boot"]["n_dropped"]
            b_total += b
            dropped += n_dropped
            self.check(f"{path.stem} bootstrap SEs finite and positive, >= 2 kept",
                       bool(np.all(np.isfinite(se)) and np.all(se > 0))
                       and b - n_dropped >= 2,
                       f"kept {b - n_dropped} of {b}, min se {se.min():.3g}")
        if boots:
            self.metrics["boot_drop_frac"] = (dropped / b_total, "fraction", b_total)

    def _models(self, work: Path, wl: Workload, models) -> None:
        cells = json.loads((work / "models.json").read_text())["cells"]
        g = wl.generator
        tables = cell_tables(work / "data.csv", g["s_x"], g["s_z"], g["w_cells"])
        failed = sum("error" in c for c in cells)
        starts = [s for c in cells for s in c.get("starts", [])]
        unconverged = sum(not s["converged"] for s in starts)
        self.metrics["cells_failed_frac"] = (failed / len(cells), "fraction", len(cells))
        self.metrics["starts_unconverged_frac"] = (
            unconverged / len(starts) if starts else 0.0, "fraction", len(starts))
        excess = []
        for index, (cell, truth) in enumerate(zip(cells, models)):
            counts = tables[index]
            if "loglik" not in cell or cell["n"] != int(counts.sum()):
                continue
            excess.append(cell["loglik"] - true_loglik(truth, counts))
        self.check("every cell loglik >= true model loglik",
                   len(excess) == len(cells) and min(excess) >= 0.0,
                   f"{len(excess)} of {len(cells)} cells, "
                   f"min excess {min(excess, default=float('nan')):.3f}")
        self.metrics["loglik_excess"] = (sum(excess), "loglik", len(excess))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def pass_metrics(runs: list[StageRun], wl: Workload) -> dict[str, float]:
    """End-to-end figures of one pass over the timed stages."""
    def wall(prefix):
        return sum(r.wall_s for r in runs if r.stage.startswith(prefix))

    out = {
        "pipeline_s": sum(r.wall_s for r in runs),
        "estimate_s": wall("estimate"),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }
    if "test" in wl.timed:
        out["test_s"] = wall("test")
    if "identify" in wl.timed:
        out["identify_s"] = wall("identify")
    b = wl.latent_boot + wl.reported_boot
    if b:
        out["boot_rep_s"] = sum(r.timings.get("bootstrap", 0.0) for r in runs) / b
    return out


UNITS = {"pipeline_s": "s", "estimate_s": "s", "test_s": "s", "identify_s": "s",
         "boot_rep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def untraced(runner: Runner, wl: Workload, seconds: float):
    setups = [runner.sequence(SETUP) for _ in range(SETUPS)]
    passes = []
    ticks = cpu_ticks()
    if all(r.code == 0 for s in setups for r in s):
        t_start = time.monotonic()
        while True:
            runs = runner.sequence(wl.timed)
            if any(r.code != 0 for r in runs):
                break
            passes.append(pass_metrics(runs, wl))
            if len(passes) >= wl.passes and time.monotonic() - t_start >= seconds:
                break
    metrics = {"setup_s": (statistics.median(sum(r.wall_s for r in s) for s in setups),
                           "s", len(setups))}
    # Time the hypervisor gave to other guests: the main source of noise on
    # a shared virtual machine.
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        metrics["host_steal_frac"] = ((after[0] - ticks[0]) / (after[1] - ticks[1]),
                                      "fraction", after[1] - ticks[1])
    for name in (passes[0] if passes else ()):
        metrics[name] = (statistics.median(p[name] for p in passes),
                         UNITS[name], len(passes))
    return metrics, {
        "setups": len(setups),
        "passes": len(passes),
        "pipeline_s by pass": ", ".join(f"{p['pipeline_s']:.4f}" for p in passes),
    }


def traced(runner: Runner, wl: Workload):
    from layers import LAYERS, StageTraces

    setup = StageTraces()
    timed = StageTraces()
    ok = True
    for run in runner.sequence(SETUP, traced=True):
        ok = ok and run.code == 0 and run.trace is not None
        if run.trace:
            setup.add(run.trace, run.wall_s)
    plain = runner.sequence(wl.timed) if ok else []
    passes = runner.sequence(wl.timed, traced=True) if ok else []
    for run in passes:
        if run.trace:
            timed.add(run.trace, run.wall_s)
    metrics = timed.metrics()
    plain_s = sum(r.wall_s for r in plain)
    # A name is absent if no stage bound it, or if its result summary failed
    # (the counts read from it would otherwise read 0 without notice).
    absent = sorted((set(setup.absent()) & set(timed.absent()))
                    | setup.summary_failed | timed.summary_failed)
    metrics.update({
        "generate.make_model_s": (setup.inclusive["generate.make_model"], "s",
                                  setup.calls["generate.make_model"]),
        "generate.draw_s": (setup.inclusive["generate.draw"], "s",
                            setup.calls["generate.draw"]),
        "generate.self_s": (setup.self_by_layer["generate"], "s", setup.stages),
        "trace.overhead_s": (timed.wall_s - plain_s, "s", len(passes)),
        "trace.stage_wall_s": (timed.wall_s, "s", timed.stages),
        "trace.absent_names": (len(absent), "count", len(timed.wrapped)),
    })
    if absent:
        print(f"traced run: names absent or unsummarized: {', '.join(absent)}",
              file=sys.stderr)
    tail = metrics["mle.fit_tail_pct"][0]
    layer_s = sum(timed.self_by_layer[layer] for layer in LAYERS)
    notes = {
        "fit tail percentile": f"mle.fit_ms_tail is mle.fit_ms_p{tail}",
        "absent names": ", ".join(absent) or "none",
        "trace accounting": (
            f"cli.startup_s {timed.startup_s:.4f} + cli.exit_s {timed.exit_s:.4f}"
            f" + layer self {layer_s:.4f} = "
            f"{timed.startup_s + timed.exit_s + layer_s:.4f} s of "
            f"{timed.wall_s:.4f} s traced stage wall"),
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Facts and output
# ---------------------------------------------------------------------------


def machine_facts() -> dict[str, str]:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "latentcat").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    threads = {k: os.environ.get(k, "unset") for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": str(os.cpu_count()),
        "cpus usable": str(len(os.sched_getaffinity(0))),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas threads": ", ".join(f"{k}={v}" for k, v in threads.items()),
        "cli --threads": f"default ({os.cpu_count()}, not passed)",
        "git commit": commit,
        "src sha256": src.hexdigest(),
    }


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        print(f"  {name:<32} {value:>16.6g} {unit:<9} n={n}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "latentcat" / "cli.py").is_file():
        print(f"error: no latentcat source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        params, models = write_generator(work / "gen.cfg", wl, args.seed)
        runner = Runner(work, wl, args.seed, deadline)
        if args.trace:
            metrics, notes = traced(runner, wl)
            names = PER_LAYER
        else:
            metrics, notes = untraced(runner, wl, args.seconds)
            names = END_TO_END
        if "estimate-latent" in wl.timed and all(r.code == 0 for r in runner.runs):
            estimate_on_truth(runner, models)
        checks = Checks()
        checks.stages(runner.runs)
        if all(r.code == 0 for r in runner.runs):
            checks.artifacts(work, wl, params, models)
        facts = {
            **machine_facts(),
            "workload": args.workload,
            "seed": str(args.seed),
            "records": str(wl.n_records),
            "cells": str(wl.generator["w_cells"]),
            "B": f"test {TEST_B}, latent {wl.latent_boot}, "
                 f"reported {wl.reported_boot}",
            "input csv sha256": (sha256(work / "data.csv")
                                 if (work / "data.csv").exists() else "missing"),
            **{k: str(v) for k, v in notes.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# facts")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    print("# checks")
    for name, ok, detail in checks.results:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print_table("metrics", {**metrics, **checks.metrics})
    correct = checks.failed == 0 and all(n in metrics for n in names)
    result = {
        "correct": correct,
        "attempted": len(runner.runs) + len(checks.results),
        "failed": sum(r.code != 0 for r in runner.runs) + checks.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
