"""Command-line pipeline: simulate -> test -> identify -> estimate -> report.

Every run writes its outputs plus a run manifest (<out>.manifest.json)
recording the resolved configuration, explicit seed, package version,
per-stage timings, and content digests of all inputs. ``replay`` re-executes
a manifest (after verifying input digests) into a target directory and is
the mechanism behind the bit-for-bit reproducibility contract: artifact
JSON is written with sorted keys and repr-round-trip floats, so identical
configuration plus identical inputs yields identical bytes.

Exit codes: 0 success; 1 schema/data/configuration problems; 2 test,
identification, or estimation failures; 64 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .citest import DEFAULT_B, MIN_B, MIN_CELL_COUNT, bootstrap_test, conditional_test_suite
from .data import Dataset, cell_rows, frequency_pmf, ingest, load_schema, tabulate
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    EstimationError,
    GeneratorError,
    IdentificationError,
    LatentcatError,
    OptimizationError,
    SchemaError,
    IndependenceTestError,
)
from .generate import (
    GeneratorSpec, ProbitParams, SyntheticSample, draw, make_cell_weights, make_model
)
from .mle import CmleConfig, CmleResult, fit_tables
from .pipeline import SKEDASTIC, bootstrap_std_errors, model_std_errors, parametric_fit
from .report import render, render_csv, render_exclusions
from .spectral import MisclassificationModel, eigendecompose_identify

USAGE_EXIT = 64
INPUT_EXIT = 1
ESTIMATION_EXIT = 2

INPUT_ERRORS = (SchemaError, DataError, ConfigurationError, DomainError, GeneratorError)
ESTIMATION_ERRORS = (IndependenceTestError, IdentificationError, EstimationError, OptimizationError)


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int):
    """argparse type for an integer option (a seed or a count) of at least
    ``minimum``; anything smaller is a usage error, refused before ingest."""
    def integer(value: str) -> int:
        number = int(value)
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return number
    return integer


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc}") from exc
    return digest.hexdigest()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


class _Manifest:
    """Collects everything needed to reproduce one CLI run."""

    def __init__(self, command: str, options: dict):
        self.payload = {
            "schema_version": "1",
            "command": command,
            "options": {
                k: v
                for k, v in sorted(options.items())
                if k not in ("func", "command")
            },
            "version": __version__,
            "inputs": {},
            "outputs": [],
            "timings": {},
        }
        self._t0 = time.monotonic()
        self._stage_start = self._t0

    def add_input(self, path: str) -> None:
        self.payload["inputs"][path] = _sha256(path)

    def add_output(self, path: str) -> None:
        self.payload["outputs"].append(path)

    def stage(self, name: str) -> None:
        now = time.monotonic()
        self.payload["timings"][name] = round(now - self._stage_start, 6)
        self._stage_start = now

    def write(self, out_path: str) -> None:
        self.payload["timings"]["total"] = round(time.monotonic() - self._t0, 6)
        _write_json(out_path + ".manifest.json", self.payload)


def _load_data(input_path: str, schema_path: str, manifest: _Manifest) -> Dataset:
    schema = load_schema(schema_path)
    manifest.add_input(schema_path)
    manifest.add_input(input_path)
    data, exclusions = ingest(input_path, schema)
    print(render_exclusions(exclusions.to_dict()), file=sys.stderr, end="")
    manifest.stage("ingest")
    return data


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_generator_config(path: str) -> tuple[GeneratorSpec, np.ndarray | None]:
    import configparser

    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read generator spec: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed generator spec: {exc}") from exc
    if not parser.has_section("generator"):
        raise ConfigurationError("generator spec needs a [generator] section")
    g = parser["generator"]
    probit = None
    if parser.has_section("probit"):
        p = parser["probit"]
        try:
            probit = ProbitParams(
                beta=np.asarray([float(v) for v in p["beta"].split(",")]),
                sigma_by_cell=np.asarray([float(v) for v in p["sigma"].split(",")]),
                cutpoints=np.asarray([float(v) for v in p["cutpoints"].split(",")]),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"bad [probit] section: {exc}") from exc
    try:
        spec = GeneratorSpec(
            s_x=g.getint("s_x", 3),
            s_z=g.getint("s_z", 3),
            n_w_cells=g.getint("w_cells", 1),
            misclassification_strength=g.getfloat("strength", 0.5),
            eigenvalue_separation=g.getfloat("separation", 0.1),
            seed=0,
            probit_params=probit,
            ord_margin=g.getfloat("ord_margin", 0.05),
            min_singular_value=g.getfloat("min_singular_value", 0.05),
            z_mix=g.getfloat("z_mix", 0.6),
            latent_uniform_mix=g.getfloat("latent_uniform_mix", 0.45),
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad [generator] value: {exc}") from exc
    weights = None
    if parser.has_option("weights", "cells"):
        weights = np.asarray(
            [float(v) for v in parser["weights"]["cells"].split(",")]
        )
    return spec, weights


def _write_dataset_csv(path: str, sample: SyntheticSample) -> None:
    w_columns = sample.data.w_columns
    bits = cell_rows(len(w_columns))[:, 1:].astype(np.int64)
    records = np.column_stack([sample.x, sample.y, sample.z, bits[sample.w]])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        np.savetxt(handle, records, fmt="%d", delimiter=",",
                   header=",".join(["x", "y", "z", *w_columns]), comments="")


def _schema_sidecar(path: str, data: Dataset) -> None:
    s_x, _, s_z = data.support
    recode = " ".join(f"{k}:{k}" for k in range(1, s_x + 1))
    cuts = " ".join(str(k) for k in range(1, s_z))
    text = (
        "[columns]\n"
        "x = x\ny = y\nz = z\n"
        f"w = {', '.join(data.w_columns)}\n\n"
        "[recode]\n"
        f"x = {recode}\n\n"
        "[binning]\n"
        f"z = cuts {cuts}\n"
        "y = above 0.5\n"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_simulate(args) -> int:
    manifest = _Manifest("simulate", vars(args))
    spec, weights = _parse_generator_config(args.spec)
    manifest.add_input(args.spec)
    spec = dataclasses.replace(spec, seed=args.seed)
    models = make_model(spec)
    if weights is None:
        weights = make_cell_weights(spec.n_w_cells)
    manifest.stage("make_model")
    keep_truth = args.truth is not None
    sample = draw(models, weights, args.n, seed=args.seed, keep_truth=keep_truth)
    manifest.stage("draw")
    _write_dataset_csv(args.out, sample)
    if keep_truth:
        with open(args.truth, "w", encoding="utf-8", newline="") as handle:
            handle.write("x_latent\n")
            for v in sample.truth:
                handle.write(f"{int(v)}\n")
        manifest.add_output(args.truth)
    schema_path = os.path.splitext(args.out)[0] + ".schema.cfg"
    _schema_sidecar(schema_path, sample.data)
    manifest.add_output(args.out)
    manifest.add_output(schema_path)
    manifest.stage("write")
    manifest.write(args.out)
    return 0


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _cmd_test(args) -> int:
    manifest = _Manifest("test", vars(args))
    data = _load_data(args.input, args.schema, manifest)
    if args.by_cell:
        suite = conditional_test_suite(
            data, b=args.B, seed=args.seed, min_cell_count=args.min_cell
        )
        payload = {"schema_version": "1", **suite.to_dict()}
    else:
        rep = bootstrap_test(data, None, b=args.B, seed=args.seed)
        payload = {"schema_version": "1", **rep.to_dict()}
    manifest.stage("test")
    _write_json(args.out, payload)
    manifest.add_output(args.out)
    manifest.write(args.out)
    print(render(payload), end="")
    return 0


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------


def _identify_cell(table, fitted, args) -> dict:
    """One cell's entry: its spectral solution, or its cmle fit (``fitted``,
    a CmleResult or OptimizationError)."""
    entry: dict = {"w_cell": table.w_cell, "n": table.n}
    if args.method == "spectral":
        try:
            model, diag = eigendecompose_identify(frequency_pmf(table), tol=args.tol)
            entry["model"] = model.to_dict()
            entry["model"]["w_cell"] = table.w_cell
            entry["diagnostics"] = diag.to_dict()
        except (IdentificationError, DomainError, ConfigurationError) as exc:
            entry["error"] = str(exc)
            if getattr(exc, "diagnostics", None) is not None:
                entry["diagnostics"] = exc.diagnostics.to_dict()
        return entry
    if isinstance(fitted, OptimizationError):
        entry["error"] = str(fitted)
        return entry
    entry.update(fitted.to_dict())
    return entry


def _identify_fits(tables: list, seeds: list[int], args) -> list:
    """Per table, its cmle fit or OptimizationError, all fitted as one batch;
    None per table for the spectral method."""
    if args.method == "spectral":
        return [None] * len(tables)
    return fit_tables(tables, [
        CmleConfig(n_starts=args.starts, seed=seed, ord_constraint=args.ord)
        for seed in seeds
    ])


def _cmd_identify(args) -> int:
    if args.method == "spectral" and args.boot > 0:
        print("latentcat identify: error: --boot applies only to --method cmle",
              file=sys.stderr)
        return USAGE_EXIT
    manifest = _Manifest("identify", vars(args))
    data = _load_data(args.input, args.schema, manifest)
    counts = data.cell_counts()
    # Cell indices, or [None] for the pooled table; cell c fits at seed + c.
    indices = list(range(data.n_w_cells)) if args.by_cell else [None]
    populated = [c for c in indices if c is None or counts[c] > 0]
    tables = [tabulate(data, c) for c in populated]
    fitted = iter(zip(tables, _identify_fits(
        tables, [args.seed + (c or 0) for c in populated], args)))
    cells: list[dict] = []
    point_fits: list[tuple] = []  # (cell index, CmleResult, entry) per fitted cell
    for cell in indices:
        if cell is not None and counts[cell] == 0:
            cells.append({"w_cell": data.w_labels[cell], "n": 0, "error": "empty cell"})
            continue
        table, result = next(fitted)
        cells.append(_identify_cell(table, result, args))
        if isinstance(result, CmleResult):
            point_fits.append((cell, result, cells[-1]))
    if args.boot and point_fits:
        index, results, entries = zip(*point_fits)
        runs = model_std_errors(data, list(index), list(results), args.boot,
                                args.seed, args.boot_starts)
        for entry, result, run in zip(entries, results, runs):
            entry["std_errors"] = MisclassificationModel.unpack(
                run.se(), result.model.s_x, result.model.s_z)
            entry["boot"] = run.to_dict()
    payload = {
        "schema_version": "1",
        "method": args.method,
        "cells": cells,
    }
    manifest.stage("identify")
    _write_json(args.out, payload)
    manifest.add_output(args.out)
    manifest.write(args.out)
    n_failed = sum("error" in c for c in cells)
    if n_failed:
        print(f"{n_failed} of {len(cells)} cells failed identification",
              file=sys.stderr)
    return 0 if n_failed == 0 else ESTIMATION_EXIT


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _models_from_artifact(payload: dict, data: Dataset) -> list[MisclassificationModel]:
    """One model per covariate cell, refusing cells that fail the monotone
    ordering: the latent state labels feed the normal-quantile transforms.

    An unlabelled (pooled) entry is the model of the only cell of a
    one-cell dataset; a dataset with covariates needs one entry per cell.
    """
    labels = data.w_labels
    by_label: dict[str, dict] = {}
    for entry in payload.get("cells", []):
        if "model" in entry:
            label = entry.get("w_cell") or (labels[0] if len(labels) == 1 else "pooled")
            by_label[label] = entry["model"]
    missing = [label for label in labels if label not in by_label]
    if missing:
        raise ConfigurationError(f"models artifact lacks cells: {missing}")
    models = [MisclassificationModel.from_dict(by_label[label]) for label in labels]
    unordered = [label for label, m in zip(labels, models) if not m.ord_satisfied]
    if unordered:
        raise EstimationError(
            f"models artifact has cells failing the monotone-reporting check: "
            f"{unordered}; identify them with --ord enforce"
        )
    return models


def _cmd_estimate(args) -> int:
    if args.skedastic == "exponential" and (args.model, args.target) != (
        "hoprobit", "reported"
    ):
        print("latentcat estimate: error: --skedastic exponential applies only to "
              "--model hoprobit --target reported", file=sys.stderr)
        return USAGE_EXIT
    manifest = _Manifest("estimate", vars(args))
    data = _load_data(args.data, args.schema, manifest)
    config = CmleConfig(seed=args.seed, ord_constraint="enforce")
    models = None
    if args.target == "latent":
        if not args.models:
            raise ConfigurationError("--models is required for the latent target")
        artifact = _read_json(args.models)
        manifest.add_input(args.models)
        models = _models_from_artifact(artifact, data)
    point = parametric_fit(data, args.model, args.target, config, clamp=args.clamp,
                           models=models, skedastic_kind=args.skedastic)
    manifest.stage("point_fit")

    boot_meta = None
    if args.boot:
        point, run = bootstrap_std_errors(
            data,
            args.model,
            args.target,
            point,
            b=args.boot,
            seed=args.seed,
            config=config,
            replicate_starts=args.boot_starts,
            stratify=args.stratify,
            warm_models=models,
            clamp=args.clamp,
            skedastic_kind=args.skedastic,
        )
        boot_meta = {**run.to_dict(), "seed": args.seed}
        manifest.stage("bootstrap")

    payload = {"schema_version": "1", "fit": point.to_dict(), "boot": boot_meta}
    _write_json(args.out, payload)
    manifest.add_output(args.out)
    manifest.write(args.out)
    print(render(payload), end="")
    return 0


# ---------------------------------------------------------------------------
# report / replay
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    sections = []
    for path in args.inputs:
        payload = _read_json(path)
        sections.append(render_csv(payload) if args.format == "csv" else render(payload))
    text = "\n".join(sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_replay(args) -> int:
    manifest = _read_json(args.manifest)
    command = manifest["command"]
    # Options this version does not take are dropped. The retired ones (the
    # bootstrap worker count, estimate's start count) never changed an artifact.
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices.get(command)
    known = {action.dest for action in parser._actions} if parser else set()
    options = {k: v for k, v in manifest["options"].items() if k in known}
    if len(options) < len(manifest["options"]):
        ignored = sorted(set(manifest["options"]) - known)
        print(f"replay: ignoring options this version does not take: {ignored}",
              file=sys.stderr)
    for path, digest in manifest.get("inputs", {}).items():
        if not os.path.exists(path):
            raise DataError(f"replay input missing: {path}")
        if _sha256(path) != digest:
            raise DataError(f"replay input changed since the original run: {path}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        if "out" in options and options["out"]:
            options["out"] = os.path.join(
                args.out_dir, os.path.basename(options["out"])
            )
    argv = [command]
    skip = {"by_cell", "stratify"}
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if key in skip:
            if value:
                argv.append(flag)
            continue
        if key == "inputs":
            argv.extend(value)
            continue
        if value is None:
            continue
        argv.extend([flag, str(value)])
    return run(argv)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="latentcat", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    p_sim.add_argument("--spec", required=True, help="generator config file")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=_int_at_least(0), required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--truth", metavar="PATH",
                       help="also write the hidden latent codes to PATH")
    p_sim.set_defaults(func=_cmd_simulate)

    p_test = sub.add_parser("test", help="misclassification test")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--schema", required=True)
    p_test.add_argument("--by-cell", action="store_true", dest="by_cell")
    p_test.add_argument("--B", type=_int_at_least(MIN_B), default=DEFAULT_B)
    p_test.add_argument("--seed", type=_int_at_least(0), required=True)
    p_test.add_argument("--min-cell", type=_int_at_least(1), default=MIN_CELL_COUNT,
                        dest="min_cell")
    p_test.add_argument("--out", required=True)
    p_test.set_defaults(func=_cmd_test)

    p_id = sub.add_parser("identify", help="recover per-cell models")
    p_id.add_argument("--input", required=True)
    p_id.add_argument("--schema", required=True)
    p_id.add_argument("--by-cell", action="store_true", dest="by_cell")
    p_id.add_argument("--method", choices=["spectral", "cmle"], default="cmle")
    p_id.add_argument("--starts", type=_int_at_least(1), default=10)
    p_id.add_argument("--seed", type=_int_at_least(0), required=True)
    p_id.add_argument("--ord", choices=["check-only", "enforce"],
                      default="check-only")
    p_id.add_argument("--tol", type=float, default=1e-6,
                      help="spectral assumption-check tolerance")
    p_id.add_argument("--boot", type=_int_at_least(0), default=0,
                      help="bootstrap replicates for parameter standard errors")
    p_id.add_argument("--boot-starts", type=_int_at_least(1), default=3,
                      dest="boot_starts")
    p_id.add_argument("--out", required=True)
    p_id.set_defaults(func=_cmd_identify)

    p_est = sub.add_parser("estimate", help="parametric models of the outcome")
    p_est.add_argument("--models", help="models artifact (latent target)")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--schema", required=True)
    p_est.add_argument("--model", choices=["linear", "oprobit", "hoprobit"],
                       required=True)
    p_est.add_argument("--target", choices=["latent", "reported"], required=True)
    p_est.add_argument("--boot", type=_int_at_least(0), default=0)
    p_est.add_argument("--boot-starts", type=_int_at_least(1), default=3,
                       dest="boot_starts")
    p_est.add_argument("--seed", type=_int_at_least(0), required=True)
    p_est.add_argument("--clamp", type=float, default=1e-6)
    p_est.add_argument("--skedastic", choices=SKEDASTIC,
                       default="nonparametric",
                       help="reported-target heteroskedastic scale: closed-form "
                            "per-cell inversion or exponential-index ML benchmark")
    p_est.add_argument("--stratify", action="store_true",
                       help="stratify bootstrap redraws by covariate cell")
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=_cmd_estimate)

    p_rep = sub.add_parser("report", help="render artifacts as text tables")
    p_rep.add_argument("inputs", nargs="+", help="artifact JSON files")
    p_rep.add_argument("--format", choices=["text", "csv"], default="text")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)

    p_play = sub.add_parser("replay", help="re-run a manifest bit-for-bit")
    p_play.add_argument("manifest")
    p_play.add_argument("--out-dir", dest="out_dir")
    p_play.set_defaults(func=_cmd_replay)

    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except ESTIMATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ESTIMATION_EXIT
    except LatentcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
