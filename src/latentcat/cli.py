"""Command-line pipeline: simulate -> test -> identify -> estimate -> report.

Every run writes its outputs plus a run manifest (<out>.manifest.json)
recording the resolved configuration, explicit seed, package version,
per-stage timings (and a bootstrap's chunk counters), the rows each of
ingest's parsers read, and content digests of all inputs. ``replay``
re-executes a manifest (after verifying input digests) into a target
directory and is the mechanism behind the bit-for-bit reproducibility
contract: artifact JSON is written with sorted keys and repr-round-trip
floats, so identical configuration plus identical inputs yields identical
bytes.

Each command imports the modules it runs when it runs, so that a process
compiles no other: ``simulate`` loads the generator and no estimator, and
``test`` loads the test and neither. A command line whose outputs would
overwrite one of its inputs, or each other, is refused before anything is
read or written.

Exit codes: 0 success; 1 schema/data/configuration problems; 2 test,
identification, or estimation failures; 64 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    EstimationError,
    LatentcatError,
    OptimizationError,
)

if TYPE_CHECKING:
    from .data import Dataset
    from .generate import GeneratorSpec, SyntheticSample
    from .spectral import MisclassificationModel

USAGE_EXIT = 64


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


def _replicates(value: str) -> int:
    """argparse type for ``--boot``: 0 for no bootstrap, or at least the two
    replicates a standard error needs; refused before ingest."""
    number = int(value)
    if number < 2 and number != 0:
        raise argparse.ArgumentTypeError("must be at least 2, or 0 for none")
    return number


def _test_replicates(value: str) -> int:
    """argparse type for ``test --B``: at least ``citest.MIN_B``; refused
    before ingest. Left out, ``--B`` is ``citest.DEFAULT_B``."""
    from .citest import MIN_B

    return _int_at_least(MIN_B)(value)


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
            payload = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path} does not hold a JSON object")
    return payload


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
    from .data import ingest, load_schema
    from .report import render_exclusions

    schema = load_schema(schema_path)
    manifest.add_input(schema_path)
    manifest.add_input(input_path)
    data, exclusions = ingest(input_path, schema)
    print(render_exclusions(exclusions.to_dict()), file=sys.stderr, end="")
    manifest.stage("ingest")
    manifest.payload["rows_by_parser"] = exclusions.rows_by_parser
    return data


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


# The keys of a generator spec's [generator] section, by the GeneratorSpec
# field each sets; a key left out takes the field's default.
_GENERATOR_KEYS = {
    "s_x": "s_x", "s_z": "s_z", "w_cells": "n_w_cells",
    "strength": "misclassification_strength", "separation": "eigenvalue_separation",
    "ord_margin": "ord_margin", "min_singular_value": "min_singular_value",
    "z_mix": "z_mix", "latent_uniform_mix": "latent_uniform_mix",
}


def _parse_generator_config(path: str) -> tuple[GeneratorSpec, np.ndarray | None]:
    from .data import read_ini
    from .generate import GeneratorSpec, ProbitParams

    parser = read_ini(path, "generator spec", ConfigurationError)
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
    unknown = sorted(set(g) - set(_GENERATOR_KEYS))
    if unknown:
        raise ConfigurationError(
            f"unknown [generator] keys {unknown}; known: {list(_GENERATOR_KEYS)}")
    defaults = {f.name: f.default for f in dataclasses.fields(GeneratorSpec)}
    try:
        spec = GeneratorSpec(probit_params=probit, **{
            field: type(defaults[field])(g[key])
            for key, field in _GENERATOR_KEYS.items() if key in g
        })
    except ValueError as exc:
        raise ConfigurationError(f"bad [generator] value: {exc}") from exc
    weights = None
    if parser.has_option("weights", "cells"):
        try:
            weights = np.asarray(
                [float(v) for v in parser["weights"]["cells"].split(",")]
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad [weights] cells: {exc}") from exc
    return spec, weights


# Rows formatted per block by _write_int_csv; bounds its temporaries.
_CSV_BLOCK_ROWS = 1 << 16


def _write_int_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns of non-negative integers as CSV, the bytes
    ``np.savetxt(fmt="%d", delimiter=",", header=..., comments="")`` writes.

    A block of rows whose every value is one digit, as every record
    ``simulate`` writes is, is one uint8 array of digits, separators and
    line ends, written at once. A block with a wider field is written by
    ``np.savetxt``.
    """
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS] for c in columns]
            if max(int(c.max()) for c in block) > 9:
                np.savetxt(handle, np.column_stack(block), fmt="%d", delimiter=",")
                continue
            text = np.empty((len(block[0]), 2 * len(block)), dtype=np.uint8)
            for k, values in enumerate(block):
                np.add(values, ord("0"), out=text[:, 2 * k], casting="unsafe")
            text[:, 1::2] = ord(",")
            text[:, -1] = ord("\n")
            handle.write(text)


def _write_dataset_csv(path: str, sample: SyntheticSample) -> None:
    from .data import cell_rows

    w_columns = sample.data.w_columns
    bits = np.take(cell_rows(len(w_columns))[:, 1:].astype(np.uint8), sample.w, axis=0)
    _write_int_csv(path, ["x", "y", "z", *w_columns],
                   [sample.x, sample.y, sample.z, *bits.T])


def _schema_path(out: str) -> str:
    """Where ``simulate --out OUT`` writes the schema sidecar."""
    return os.path.splitext(out)[0] + ".schema.cfg"


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
    from .generate import draw, make_cell_weights, make_model

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
        _write_int_csv(args.truth, ["x_latent"], [sample.truth])
        manifest.add_output(args.truth)
    schema_path = _schema_path(args.out)
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
    from .citest import DEFAULT_B, bootstrap_test, conditional_test_suite
    from .report import render

    if args.B is None:  # the parser leaves citest unloaded
        args.B = DEFAULT_B
    manifest = _Manifest("test", vars(args))
    data = _load_data(args.input, args.schema, manifest)
    if args.by_cell:
        suite = conditional_test_suite(data, b=args.B, seed=args.seed)
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


def _identify_cell(label, counts, fitted) -> dict:
    """One cell's entry, under its ``label`` (None when pooled): its cmle
    fit (``fitted``, a CmleResult or OptimizationError) and the fit's
    ``saturation_gap``, the saturated log-likelihood minus the fit's."""
    from .mle import saturated_loglik

    entry: dict = {"w_cell": label, "n": int(counts.sum())}
    if isinstance(fitted, OptimizationError):
        entry["error"] = str(fitted)
        return entry
    entry.update(fitted.to_dict(), saturation_gap=saturated_loglik(counts) - fitted.loglik)
    entry["model"]["w_cell"] = label
    return entry


def _cmd_identify(args) -> int:
    from .data import tabulate
    from .mle import CmleResult
    from .pipeline import cell_configs, fit_cells, model_std_errors
    from .spectral import MisclassificationModel

    manifest = _Manifest("identify", vars(args))
    data = _load_data(args.input, args.schema, manifest)
    counts = data.cell_counts()
    # Cell indices, or [None] for the pooled table.
    indices = list(range(data.n_w_cells)) if args.by_cell else [None]
    populated = [c for c in indices if c is None or counts[c] > 0]
    [fits] = fit_cells([data], populated,
                       cell_configs(populated, args.seed, args.starts))
    fitted = iter(fits)
    cells: list[dict] = []
    point_fits: list[tuple] = []  # (cell index, CmleResult, entry) per fitted cell
    for cell in indices:
        if cell is not None and counts[cell] == 0:
            cells.append({"w_cell": data.w_labels[cell], "n": 0, "error": "empty cell"})
            continue
        result = next(fitted)
        label = None if cell is None else data.w_labels[cell]
        cells.append(_identify_cell(label, tabulate(data, cell), result))
        if isinstance(result, CmleResult):
            point_fits.append((cell, result, cells[-1]))
    if args.boot and point_fits:
        index, results, entries = zip(*point_fits)
        runs = model_std_errors(data, list(index), list(results), args.boot, args.seed)
        manifest.payload["bootstrap"] = runs[0].counters()
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
    return 0 if n_failed == 0 else OptimizationError.exit_code


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _models_from_artifact(payload: dict, data: Dataset) -> list[MisclassificationModel]:
    """One model per covariate cell, refusing a model that is not valid
    (``MisclassificationModel.validate``) or not of the data's support, and
    cells not in the labelling rule's order (``ord_satisfied``): the latent
    state labels feed the normal-quantile transforms.

    An unlabelled (pooled) entry is the model of the only cell of a
    one-cell dataset; a dataset with covariates needs one entry per cell.
    """
    from .spectral import MisclassificationModel

    labels = data.w_labels
    entries = payload.get("cells", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DataError("models artifact's cells are not a list of JSON objects")
    by_label: dict[str, dict] = {}
    for entry in entries:
        if "model" in entry:
            label = entry.get("w_cell") or (labels[0] if len(labels) == 1 else "pooled")
            by_label[label] = entry["model"]
    missing = [label for label in labels if label not in by_label]
    if missing:
        raise ConfigurationError(f"models artifact lacks cells: {missing}")
    models = []
    for label in labels:
        try:
            model = MisclassificationModel.from_dict(by_label[label])
            model.validate()
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise DataError(f"models artifact cell {label!r} is not a model: "
                            f"{type(exc).__name__} {exc}") from None
        if (model.s_x, 2, model.s_z) != data.support:
            raise DataError(f"models artifact cell {label!r} has support "
                            f"{(model.s_x, 2, model.s_z)}, the data {data.support}")
        models.append(model)
    unordered = [label for label, m in zip(labels, models) if not m.ord_satisfied]
    if unordered:
        raise EstimationError(
            f"models artifact has cells whose latent states are not sorted by the "
            f"last reporting row: {unordered}"
        )
    return models


def _cmd_estimate(args) -> int:
    from .pipeline import bootstrap_std_errors, parametric_fit
    from .report import render

    if (args.target == "latent") != (args.models is not None):
        print("error: --target latent needs --models, and no other target takes it",
              file=sys.stderr)
        return USAGE_EXIT
    manifest = _Manifest("estimate", vars(args))
    data = _load_data(args.data, args.schema, manifest)
    models = None
    if args.target == "latent":
        artifact = _read_json(args.models)
        manifest.add_input(args.models)
        models = _models_from_artifact(artifact, data)
    [point] = parametric_fit([data], args.model, args.target,
                             None if models is None else [models])
    if isinstance(point, LatentcatError):
        raise point
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
            models=models,
        )
        boot_meta = {**run.to_dict(), "seed": args.seed}
        manifest.stage("bootstrap")
        manifest.payload["bootstrap"] = run.counters()

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
    from .report import render, render_csv

    sections = []
    render_one = render_csv if args.format == "csv" else render
    for path in args.inputs:
        payload = _read_json(path)
        try:
            sections.append(render_one(payload))
        except (KeyError, TypeError, IndexError) as exc:
            raise DataError(f"{path} is not a well-formed artifact: "
                            f"{type(exc).__name__} {exc}") from None
    text = "\n".join(sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_replay(args) -> int:
    manifest = _read_json(args.manifest)
    if not (isinstance(manifest.get("command"), str)
            and isinstance(manifest.get("options"), dict)
            and isinstance(manifest.get("inputs", {}), dict)):
        raise DataError(f"{args.manifest} is not a run manifest")
    command = manifest["command"]
    # Options this version does not take are dropped with a note. Unlike
    # --threads, the retired bootstrap options changed artifacts: such a run
    # replays under the one replicate rule. --clamp and --min-cell are
    # constants: a run that set another value replays under them, and a run
    # under --ord check-only replays under the one labelling rule.
    # --skedastic nonparametric named the closed form, which is now the only
    # estimator; any other value named the retired parametric-scale ML fit,
    # which no estimator here reproduces, so that run is refused.
    scale_kind = manifest["options"].get("skedastic", "nonparametric")
    if command == "estimate" and scale_kind != "nonparametric":
        print(f"latentcat replay: error: the run's estimator, estimate --skedastic "
              f"{scale_kind}, is retired; the reported hoprobit has the closed form "
              "alone", file=sys.stderr)
        return USAGE_EXIT
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions if command in sub.choices else []
    known = {action.dest for action in actions}
    flags = {action.dest for action in actions
             if isinstance(action, argparse._StoreTrueAction)}
    options = {k: v for k, v in manifest["options"].items()
               if k in known and (k, v) != ("ord", "check-only")}
    if len(options) < len(manifest["options"]):
        ignored = sorted(set(manifest["options"]) - set(options))
        print(f"replay: ignoring options this version does not take: {ignored}",
              file=sys.stderr)
    for path, digest in manifest.get("inputs", {}).items():
        if not os.path.exists(path):
            raise DataError(f"replay input missing: {path}")
        if _sha256(path) != digest:
            raise DataError(f"replay input changed since the original run: {path}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for key in ("out", "truth"):
            if options.get(key):
                options[key] = os.path.join(args.out_dir, os.path.basename(options[key]))
    argv = [command]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if key in flags:
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
    p_sim.add_argument("--n", type=_int_at_least(1), required=True)
    p_sim.add_argument("--seed", type=_int_at_least(0), required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--truth", metavar="PATH",
                       help="also write the hidden latent codes to PATH")
    p_sim.set_defaults(func=_cmd_simulate)

    p_test = sub.add_parser("test", help="misclassification test")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--schema", required=True)
    p_test.add_argument("--by-cell", action="store_true", dest="by_cell")
    p_test.add_argument("--B", type=_test_replicates)
    p_test.add_argument("--seed", type=_int_at_least(0), required=True)
    p_test.add_argument("--out", required=True)
    p_test.set_defaults(func=_cmd_test)

    p_id = sub.add_parser("identify", help="recover per-cell models")
    p_id.add_argument("--input", required=True)
    p_id.add_argument("--schema", required=True)
    p_id.add_argument("--by-cell", action="store_true", dest="by_cell")
    p_id.add_argument("--method", choices=["cmle"], default="cmle")
    p_id.add_argument("--starts", type=_int_at_least(1), default=10)
    p_id.add_argument("--seed", type=_int_at_least(0), required=True)
    p_id.add_argument("--ord", choices=["enforce"], default="enforce")
    p_id.add_argument("--boot", type=_replicates, default=0,
                      help="bootstrap replicates for parameter standard errors")
    p_id.add_argument("--out", required=True)
    p_id.set_defaults(func=_cmd_identify)

    p_est = sub.add_parser("estimate", help="parametric models of the outcome")
    p_est.add_argument("--models", help="models artifact (latent target)")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--schema", required=True)
    p_est.add_argument("--model", choices=["linear", "oprobit", "hoprobit"],
                       required=True)
    p_est.add_argument("--target", choices=["latent", "reported"], required=True)
    p_est.add_argument("--boot", type=_replicates, default=0)
    p_est.add_argument("--seed", type=_int_at_least(0), required=True)
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


def _overwritten(args) -> str | None:
    """Why an output of the command line would overwrite one of its inputs
    or another of its outputs, or None; paths compare by their real path.
    ``replay`` is checked when it runs the recorded command line."""
    inputs = [(f"--{key}", getattr(args, key)) for key in
              ("input", "data", "schema", "models", "spec") if getattr(args, key, None)]
    inputs += [("an input", path) for path in getattr(args, "inputs", [])]
    outputs = [(f"--{key}", getattr(args, key)) for key in ("out", "truth")
               if getattr(args, key, None)]
    if args.command == "simulate":
        outputs.append(("the schema sidecar", _schema_path(args.out)))
    if args.command in ("simulate", "test", "identify", "estimate"):
        outputs.append(("the run manifest", args.out + ".manifest.json"))
    claimed = {os.path.realpath(path): name for name, path in inputs}
    for name, path in outputs:
        real = os.path.realpath(path)
        if real in claimed:
            return f"{name} {path} is the same file as {claimed[real]}"
        claimed[real] = name
    return None


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code. A command line
    whose outputs would overwrite its inputs or each other is a usage error,
    refused before any input is read."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    overwritten = _overwritten(args)
    if overwritten:
        print(f"error: {overwritten}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except LatentcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    code = run(sys.argv[1:])
    gc.freeze()  # every artifact is written; skip the full collection at shutdown
    sys.exit(code)


if __name__ == "__main__":
    main()
