import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentcat import cli
from latentcat.cli import run
from latentcat.data import ingest, load_schema
from latentcat.errors import SchemaError
from latentcat.generate import GeneratorSpec, draw, make_cell_weights, make_model

GEN_CFG = """\
[generator]
s_x = 3
s_z = 3
w_cells = 2
strength = 0.3
separation = 0.3
z_mix = 0.8
latent_uniform_mix = 0.8
min_singular_value = 0.1
"""

GOLDEN = Path(__file__).parent / "data" / "golden_report.txt"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full fixed-seed pipeline: simulate -> test -> identify -> estimate."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "gen.cfg"
    spec.write_text(GEN_CFG)
    paths = {
        "root": root,
        "spec": spec,
        "synth": root / "synth.csv",
        "schema": root / "synth.schema.cfg",
        "report": root / "report.json",
        "models": root / "models.json",
        "fit": root / "fit.json",
    }
    assert run(["simulate", "--spec", str(spec), "--n", "8000", "--seed", "3",
                "--out", str(paths["synth"])]) == 0
    assert run(["test", "--input", str(paths["synth"]), "--schema",
                str(paths["schema"]), "--by-cell", "--B", "199", "--seed", "42",
                "--out", str(paths["report"])]) == 0
    assert run(["identify", "--input", str(paths["synth"]), "--schema",
                str(paths["schema"]), "--by-cell", "--method", "cmle",
                "--starts", "4", "--seed", "7", "--ord", "enforce",
                "--out", str(paths["models"])]) == 0
    assert run(["estimate", "--models", str(paths["models"]), "--data",
                str(paths["synth"]), "--schema", str(paths["schema"]),
                "--model", "hoprobit", "--target", "latent", "--seed", "11",
                "--out", str(paths["fit"])]) == 0
    return paths


def test_pipeline_artifacts_and_manifests(pipeline):
    for key in ("synth", "report", "models", "fit"):
        path = pipeline[key]
        assert path.exists()
        manifest = Path(str(path) + ".manifest.json")
        assert manifest.exists()
        payload = json.loads(manifest.read_text())
        assert payload["command"] in {"simulate", "test", "identify", "estimate"}
        assert "options" in payload and "timings" in payload
        for input_path, digest in payload["inputs"].items():
            assert len(digest) == 64


def test_artifacts_have_schema_versions(pipeline):
    # Every artifact and manifest carries the one format number, and every
    # manifest records each output's digest.
    for key in ("synth", "report", "models", "fit"):
        manifest = json.loads(Path(f"{pipeline[key]}.manifest.json").read_text())
        assert manifest["schema_version"] == cli.FORMAT
        if key != "synth":
            assert json.loads(pipeline[key].read_text())["schema_version"] == cli.FORMAT
        expected = {pipeline[key], pipeline["schema"]} if key == "synth" else {pipeline[key]}
        assert set(manifest["outputs"]) == {str(path) for path in expected}
        for path, digest in manifest["outputs"].items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


def test_replay_refuses_a_manifest_of_another_format(pipeline, tmp_path, capsys):
    # A manifest of format 1 recorded options and artifacts that this
    # version may not reproduce: refused before anything is read or written.
    manifest = json.loads(Path(f"{pipeline['fit']}.manifest.json").read_text())
    manifest["schema_version"] = "1"
    old_manifest = tmp_path / "old.manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    out_dir = tmp_path / "replayed"
    capsys.readouterr()
    assert run(["replay", str(old_manifest), "--out-dir", str(out_dir)]) == 64
    [line] = capsys.readouterr().err.splitlines()
    assert "error:" in line and "format 1 manifest" in line
    assert f"replays format {cli.FORMAT}; re-run its command" in line
    assert not out_dir.exists()


def test_replay_names_an_output_that_differs_from_the_run(pipeline, tmp_path, capsys):
    # The manifest records the digest of an edited artifact: the replayed
    # bytes do not match it, and the file is named.
    manifest = json.loads(Path(f"{pipeline['fit']}.manifest.json").read_text())
    edited = pipeline["fit"].read_bytes().replace(b'"beta"', b'"betas"')
    manifest["outputs"][str(pipeline["fit"])] = hashlib.sha256(edited).hexdigest()
    edited_manifest = tmp_path / "edited.manifest.json"
    edited_manifest.write_text(json.dumps(manifest))
    out_dir = tmp_path / "replayed"
    capsys.readouterr()
    assert run(["replay", str(edited_manifest), "--out-dir", str(out_dir)]) == 1
    *_, line = capsys.readouterr().err.splitlines()
    assert line == (f"error: replayed output {out_dir / 'fit.json'} differs from the "
                    f"run's {pipeline['fit']}")


def test_report_and_estimate_refuse_an_artifact_of_another_format(pipeline, tmp_path,
                                                                  capsys):
    # An artifact of format 1 is refused with one line; one without the
    # field, as a hand-made models file is, is read as it stands.
    data = ["--data", str(pipeline["synth"]), "--schema", str(pipeline["schema"]),
            "--model", "linear", "--target", "latent", "--seed", "1"]
    for key in ("report", "models", "fit"):
        old = tmp_path / f"old-{key}.json"
        old.write_text(json.dumps({**json.loads(pipeline[key].read_text()),
                                   "schema_version": "1"}))
        argvs = [["report", str(old)], ["report", "--format", "csv", str(old)]]
        if key == "models":
            argvs.append(["estimate", "--models", str(old), *data,
                          "--out", str(tmp_path / "fit.json")])
        for argv in argvs:
            capsys.readouterr()
            assert run(argv) == 1
            *_, line = capsys.readouterr().err.splitlines()
            assert line == (f"error: {old} is of format 1, this version reads format "
                            f"{cli.FORMAT}; re-run the command that wrote it")
    assert not (tmp_path / "fit.json").exists()
    bare = tmp_path / "bare-models.json"
    models = json.loads(pipeline["models"].read_text())
    del models["schema_version"]
    bare.write_text(json.dumps(models))
    assert run(["report", str(bare)]) == 0
    assert run(["estimate", "--models", str(bare), *data,
                "--out", str(tmp_path / "fit.json")]) == 0


def test_test_reads_a_schema_path_that_contains_a_newline(pipeline, tmp_path):
    # Such a path was once parsed as INI text, and the command exited 1.
    schema = tmp_path / "synth\nschema.cfg"
    schema.write_bytes(pipeline["schema"].read_bytes())
    out = tmp_path / "report.json"
    assert run(["test", "--input", str(pipeline["synth"]), "--schema", str(schema),
                "--by-cell", "--B", "199", "--seed", "42", "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["report"].read_bytes()


def test_replay_reproduces_bytes(pipeline, tmp_path):
    out_dir = tmp_path / "replayed"
    code = run(["replay", str(pipeline["fit"]) + ".manifest.json",
                "--out-dir", str(out_dir)])
    assert code == 0
    original = pipeline["fit"].read_bytes()
    replayed = (out_dir / "fit.json").read_bytes()
    assert original == replayed


def test_option_inventory():
    """Every option of every subcommand, by dest, with its choices (None for
    a free value): a new knob, or a new value of one, is a visible edit
    here."""
    import argparse

    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    free = dict.fromkeys
    assert {name: {action.dest: action.choices for action in parser._actions
                   if action.dest != "help"}
            for name, parser in sub.choices.items()} == {
        "simulate": free(["spec", "n", "seed", "out", "truth"]),
        "test": free(["input", "schema", "by_cell", "B", "seed", "out"]),
        # --method and --ord take one value each, and --by-cell is true
        # whether given or not (below), since every test and identify works
        # per covariate cell. The benchmark's command lines still pass all
        # three; ROADMAP item 1 deletes them.
        "identify": {**free(["input", "schema", "by_cell", "starts", "seed", "boot",
                             "out"]),
                     "method": ["cmle"], "ord": ["enforce"]},
        "estimate": {**free(["models", "data", "schema", "boot", "seed", "out"]),
                     "model": ["linear", "oprobit", "hoprobit"],
                     "target": ["latent", "reported"]},
        "report": {**free(["inputs", "out"]), "format": ["text", "csv"]},
        "replay": free(["manifest", "out_dir"]),
    }
    for name in ("test", "identify"):
        assert sub.choices[name].get_default("by_cell") is True


def test_library_surface():
    """Every public function of the library's modules, by its parameters and
    their defaults: a new knob, or a new default, is a visible edit here."""
    import importlib
    import inspect

    def parameters(fn):
        signature = inspect.signature(fn)
        return str(signature.replace(
            parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
            return_annotation=signature.empty))

    modules = ("data", "spectral", "mle", "pipeline", "ordered", "citest", "resampling",
               "generate")
    surface = {}
    for name in modules:
        module = importlib.import_module(f"latentcat.{name}")
        functions = [getattr(module, n) for n in module.__all__]
        surface[name] = {fn.__name__: parameters(fn) for fn in functions
                         if inspect.isfunction(fn)}
    assert surface == {
        "data": {
            "read_ini": "(path, what, error)",
            "load_schema": "(path)",
            "ingest": "(path, schema)",
            "median_split": "(values)",
            "tercile_bin": "(values)",
            "tabulate": "(data, w_cell=None)",
            "nearest_rank": "(sorted_values, level)",
            "cell_rows": "(n_cols)",
            "design_columns": "(w_columns)",
            "cell_labels": "(n_cols, letters=None)",
        },
        "spectral": {
            "build_matrices": "(probs)",
            "check_rank": "(m_xz)",
            "order_by_last_row": "(values, vectors, tol=0.0)",
            "branch_operator": "(m_xz, m_y)",
            "closed_form": "(probs)",
            "population_pmf": "(model)",
        },
        "mle": {
            "param_count": "(s_x, s_y, s_z)",
            "loglik": "(model, counts)",
            "saturated_loglik": "(counts)",
            "fit": "(counts, config=CmleConfig(n_starts=10, seed=0), *, "
                   "warmed=None)",
            "fit_tables": "(tables, configs, warm_starts)",
        },
        "pipeline": {
            "fit_cells": "(datasets, cells, seed, n_starts=3, warm_starts=None)",
            "parametric_fit": "(datasets, model, target, models=None)",
            "bootstrap_std_errors": "(data, model, target, point, b, seed, models=None)",
            "model_std_errors": "(data, cells, results, b, seed)",
        },
        "ordered": {
            "latent_conditional": "(models, data)",
            "reported_conditional": "(data)",
            "linear_projection": "(lc, *, target='latent')",
            "skedastic": "(lc)",
            "hetero_ordered_probit": "(lc, *, target='latent')",
            "homo_ordered_probit": "(lc, *, target='latent')",
            "ordered_probit_mle": "(datasets)",
        },
        "citest": {
            "ts_statistic": "(probs)",
            "bootstrap_test": "(data, w_cell=None, b=999, seed=0)",
            "conditional_test_suite": "(data, b=999, seed=0)",
        },
        "resampling": {
            "resample": "(data, seed)",
            "boot_se": "(replicate_estimates)",
            "run_plan": "(data, estimator, b, seed)",
        },
        "generate": {
            "make_model": "(spec)",
            "make_cell_weights": "(n_cells)",
            "draw": "(models, cell_weights, n, seed, keep_truth=False)",
            "probit_population": "(params)",
            "random_probit_params": "(rng, n_covariates, n_levels=3)",
        },
    }


def test_default_identify_writes_the_enforce_artifact(tmp_path):
    # With S_X != S_Z there is no spectral start and random starts win, each
    # with its own labelling; the default labels them by the one rule, as
    # --ord enforce does.
    spec = tmp_path / "gen.cfg"
    one_cell = GEN_CFG.replace("w_cells = 2", "w_cells = 1")
    spec.write_text(one_cell.replace("s_z = 3", "s_z = 4"))
    synth, schema = tmp_path / "synth.csv", tmp_path / "synth.schema.cfg"
    assert run(["simulate", "--spec", str(spec), "--n", "5000", "--seed", "1",
                "--out", str(synth)]) == 0
    identify = ["identify", "--input", str(synth), "--schema", str(schema),
                "--starts", "3", "--seed", "1"]
    default, enforce = tmp_path / "default.json", tmp_path / "enforce.json"
    assert run([*identify, "--out", str(default)]) == 0
    assert run([*identify, "--ord", "enforce", "--out", str(enforce)]) == 0
    assert default.read_bytes() == enforce.read_bytes()
    [cell] = json.loads(default.read_text())["cells"]
    assert {start["kind"] for start in cell["starts"]} == {"random"}
    assert cell["model"]["ord_satisfied"]


@pytest.mark.parametrize("artifact", ["report", "models"])
def test_test_and_identify_without_by_cell_write_the_by_cell_bytes(pipeline, tmp_path,
                                                                   artifact):
    # The covariate cell is the only unit: --by-cell is accepted and changes
    # nothing, and every manifest records it as true.
    manifest = json.loads(Path(f"{pipeline[artifact]}.manifest.json").read_text())
    assert manifest["options"]["by_cell"] is True
    options = {k: v for k, v in manifest["options"].items() if k != "by_cell"}
    out = tmp_path / pipeline[artifact].name
    argv = [manifest["command"]]
    for key, value in {**options, "out": str(out)}.items():
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    assert run(argv) == 0
    assert out.read_bytes() == pipeline[artifact].read_bytes()
    assert json.loads(Path(f"{out}.manifest.json").read_text())["options"] == {
        **manifest["options"], "out": str(out)}


def test_one_degenerate_cell_is_skipped_not_fatal(tmp_path, capsys):
    # Cell W holds 150 records, all coded (2, 1, 3): its statistic is
    # identically zero, so it is skipped like a small cell and cell 0 is
    # still tested. A whole sample of one code is still a test failure.
    rng = np.random.default_rng(5)
    mixed = [f"{rng.integers(1, 4)},{rng.integers(0, 2)},{rng.integers(1, 4)},0"
             for _ in range(3000)]
    csv = tmp_path / "data.csv"
    csv.write_text("\n".join(["x,y,z,w1", *mixed, *["2,1,3,1"] * 150]) + "\n")
    schema = tmp_path / "data.schema.cfg"
    schema.write_text("[columns]\nx = x\ny = y\nz = z\nw = w1\n\n"
                      "[recode]\nx = 1:1 2:2 3:3\n\n[binning]\nz = cuts 1 2\n"
                      "y = above 0.5\n")
    out = tmp_path / "report.json"
    test = ["test", "--input", str(csv), "--schema", str(schema), "--B", "99",
            "--seed", "1", "--out", str(out)]
    assert run(test) == 0
    report = json.loads(out.read_text())
    assert [cell["w_cell"] for cell in report["cells"]] == ["0"]
    assert report["skipped"] == [
        {"w_cell": "W", "n": 150, "reason": "a single populated (x, y, z) cell"}]
    csv.write_text("\n".join(["x,y,z,w1", *["2,1,3,0"] * 150, *["2,1,3,1"] * 150])
                   + "\n")
    out.unlink()
    capsys.readouterr()
    assert run(test) == 2
    assert "error: degenerate (sub)sample: a single populated cell (w_cell=None)" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_replay_rejects_changed_inputs(pipeline, tmp_path):
    manifest = json.loads((str(pipeline["models"]) + ".manifest.json") and
                          Path(str(pipeline["models"]) + ".manifest.json").read_text())
    # point the manifest at a tampered copy of one input
    tampered_dir = tmp_path / "tampered"
    tampered_dir.mkdir()
    synth = pipeline["synth"].read_text()
    bad_input = tampered_dir / "synth.csv"
    bad_input.write_text(synth.replace("1", "2", 1))
    manifest["inputs"][str(bad_input)] = manifest["inputs"].pop(str(pipeline["synth"]))
    manifest["options"]["input"] = str(bad_input)
    bad_manifest = tampered_dir / "m.json"
    bad_manifest.write_text(json.dumps(manifest))
    assert run(["replay", str(bad_manifest)]) == 1


def test_report_text_stars_and_layout(pipeline, capsys):
    assert run(["report", str(pipeline["report"])]) == 0
    out = capsys.readouterr().out
    assert "90%" in out and "95%" in out and "99%" in out
    assert "* p<0.10, ** p<0.05, *** p<0.01" in out


def test_report_fit_mentions_median_scale(pipeline, capsys):
    assert run(["report", str(pipeline["fit"])]) == 0
    out = capsys.readouterr().out
    assert "median" in out
    assert "mean" not in out.split("median")[0]


def test_report_csv_export(pipeline, capsys):
    assert run(["report", str(pipeline["fit"]), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "term,estimate,std_error"


def test_report_golden_file(pipeline):
    rendered = pipeline["root"] / "rendered.txt"
    assert run(["report", str(pipeline["report"]), str(pipeline["fit"]),
                "--out", str(rendered)]) == 0
    assert rendered.read_bytes() == GOLDEN.read_bytes()


def test_report_models_artifact(pipeline, capsys):
    assert run(["report", str(pipeline["models"])]) == 0
    out = capsys.readouterr().out
    assert "P(reported | latent)" in out
    assert "latent marginal" in out
    assert "cell 0" in out
    assert "converged starts agree" in out


def test_estimate_latent_bootstrap_se(pipeline, tmp_path):
    out = tmp_path / "fit_se.json"
    assert run(["estimate", "--models", str(pipeline["models"]), "--data",
                str(pipeline["synth"]), "--schema", str(pipeline["schema"]),
                "--model", "linear", "--target", "latent", "--boot", "12",
                "--seed", "11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    se = payload["fit"]["std_errors"]
    assert se is not None and len(se) == 2
    assert all(v > 0 for v in se)
    assert payload["boot"]["b"] == 12


@pytest.mark.parametrize("command", ["estimate", "identify"])
def test_boot_artifacts_independent_of_the_chunk_size(pipeline, tmp_path, monkeypatch,
                                                     command):
    # The chunk size is a throughput setting: the artifact is the same byte
    # for byte, and only the manifest's counters see the chunks.
    import latentcat.resampling

    data = ["--schema", str(pipeline["schema"]), "--seed", "11", "--boot", "5"]
    if command == "estimate":
        args = ["estimate", "--models", str(pipeline["models"]), "--data",
                str(pipeline["synth"]), *data, "--model", "hoprobit",
                "--target", "latent"]
    else:
        args = ["identify", "--input", str(pipeline["synth"]), *data, "--by-cell",
                "--method", "cmle", "--starts", "2", "--ord", "enforce"]
    artifacts = []
    for chunk in (1, 3, 16):
        monkeypatch.setattr(latentcat.resampling, "BOOT_CHUNK", chunk)
        out = tmp_path / f"{command}-{chunk}.json"
        assert run([*args, "--out", str(out)]) == 0
        artifacts.append(out.read_bytes())
        counters = json.loads(Path(str(out) + ".manifest.json").read_text())["bootstrap"]
        assert counters["chunks"] == -(-5 // chunk)
        assert 0 < counters["chunk_s_p50"] <= counters["chunk_s_max"]
        assert counters["replicates_per_s"] > 0
    assert artifacts[0] == artifacts[1] == artifacts[2]
    assert b"chunk" not in artifacts[0]


def test_estimate_boot_telemetry_in_artifact_and_report(pipeline, tmp_path, capsys):
    out = tmp_path / "fit_boot.json"
    assert run(["estimate", "--models", str(pipeline["models"]), "--data",
                str(pipeline["synth"]), "--schema", str(pipeline["schema"]),
                "--model", "linear", "--target", "latent", "--boot", "4",
                "--seed", "11", "--out", str(out)]) == 0
    boot = json.loads(out.read_text())["boot"]
    assert set(boot["dropped"]) == {"estimator_failed"}
    assert boot["n_dropped"] == sum(boot["dropped"].values())
    hits = boot["boundary_hits"]
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"boundary_hits={hits}" in text
    assert f"dropped_estimator_failed={boot['dropped']['estimator_failed']}" in text
    assert run(["report", str(out), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert f"boundary_hits,{hits}" in rows
    assert f"dropped_estimator_failed,{boot['dropped']['estimator_failed']}" in rows


def test_identify_boot_telemetry_in_artifact_and_report(pipeline, tmp_path, capsys):
    out = tmp_path / "models_boot.json"
    assert run(["identify", "--input", str(pipeline["synth"]), "--schema",
                str(pipeline["schema"]), "--by-cell", "--method", "cmle",
                "--starts", "2", "--seed", "7", "--ord", "enforce", "--boot", "3",
                "--out", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert run(["report", str(out), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == ("w_cell,n,loglik,saturation_gap,b,n_dropped,"
                       "dropped_estimator_failed,boundary_hits")
    for entry, row in zip(cells, rows[1:]):
        boot = entry["boot"]
        assert set(boot["dropped"]) == {"estimator_failed"}
        assert f"boundary_hits={boot['boundary_hits']}" in text
        assert f"saturation gap {entry['saturation_gap']:.3g}" in text
        assert row.split(",")[0] == entry["w_cell"]
        assert row.split(",")[3] == repr(entry["saturation_gap"])
        assert row.split(",")[-1] == str(boot["boundary_hits"])
    out_dir = tmp_path / "replayed"
    assert run(["replay", str(out) + ".manifest.json", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / out.name).read_bytes() == out.read_bytes()


@pytest.mark.parametrize("chunk,batches", [(16, [6]), (2, [4, 2])],
                         ids=["chunk16", "chunk2"])
def test_identify_boot_fits_every_cell_of_a_chunk_in_one_batch(
        pipeline, tmp_path, monkeypatch, chunk, batches):
    import latentcat.mle
    import latentcat.resampling
    from latentcat.mle import fit_tables

    calls = []

    def counted(tables, *rest):
        calls.append(len(tables))
        return fit_tables(tables, *rest)

    monkeypatch.setattr(latentcat.mle, "fit_tables", counted)
    monkeypatch.setattr(latentcat.resampling, "BOOT_CHUNK", chunk)
    out = tmp_path / "models_boot.json"
    assert run(["identify", "--input", str(pipeline["synth"]), "--schema",
                str(pipeline["schema"]), "--by-cell", "--method", "cmle",
                "--starts", "2", "--seed", "7", "--ord", "enforce", "--boot", "3",
                "--out", str(out)]) == 0
    # The point fits, then one batch of both cells of every replicate in a chunk.
    assert calls == [2, *batches]


def test_simulate_malformed_spec_exit(tmp_path, capsys):
    spec = tmp_path / "bad.cfg"
    for text, message in (
        ("[generator]\nstrength = nine\n", "bad [generator] value"),
        ("[generator]\nstrength = 0.4%\n", "bad [generator] value"),
        ("just text, no sections\n", "malformed generator spec"),
        ("[generator]\nw_cels = 2\n", "unknown [generator] keys ['w_cels']"),
        ("[generator]\nw_cells = 2\n\n[weights]\ncells = 0.5, abc\n",
         "bad [weights] cells"),
        ("[generator]\nw_cells = 2\n\n[probit]\nbeta = 0.5, 0.1, 0.2\n"
         "sigma = 1, 1\ncutpoints = 0, 1\n",
         "beta and sigma_by_cell imply different cell counts"),
        # Non-finite numbers once ended in a traceback or switched a gate off.
        ("[generator]\nseparation = nan\n", "eigenvalue_separation must be finite"),
        ("[generator]\nz_mix = nan\n", "z_mix must be finite"),
        ("[generator]\nlatent_uniform_mix = nan\n", "latent_uniform_mix must be finite"),
        ("[generator]\nmin_singular_value = nan\n", "min_singular_value must be finite"),
        ("[generator]\nord_margin = nan\n", "ord_margin must be finite"),
        # Out-of-domain numbers once sampled models that fail validate.
        ("[generator]\nseparation = -0.1\n", "eigenvalue_separation must lie in [0, inf]"),
        ("[generator]\nord_margin = -0.01\n", "ord_margin must lie in [0, inf]"),
        ("[generator]\nmin_singular_value = -1\n", "min_singular_value must lie in [0, inf]"),
        ("[generator]\nw_cells = 1\nz_mix = 2\n", "z_mix must lie in [0, 1]"),
        ("[generator]\nz_mix = -0.5\n", "z_mix must lie in [0, 1]"),
        ("[generator]\nlatent_uniform_mix = 1.5\n", "latent_uniform_mix must lie in [0, 1]"),
        ("[generator]\nlatent_uniform_mix = -1\n", "latent_uniform_mix must lie in [0, 1]"),
        ("[generator]\nw_cells = 2\n\n[probit]\nbeta = 0.5, 0.1\n"
         "sigma = nan, 1\ncutpoints = 0, 1\n", "probit sigma_by_cell must be finite"),
        ("[generator]\nw_cells = 2\n\n[probit]\nbeta = nan, 0.1\n"
         "sigma = 1, 1\ncutpoints = 0, 1\n", "probit beta must be finite"),
        ("[generator]\nw_cells = 2\n\n[weights]\ncells = nan, 0.5\n",
         "cell weights must be a probability vector"),
    ):
        spec.write_text(text)
        assert run(["simulate", "--spec", str(spec), "--n", "10", "--seed", "1",
                    "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        if "sections" not in text:  # configparser's own message spans lines
            assert len(err.splitlines()) == 1
    assert not (tmp_path / "s.csv").exists()


def test_report_schema_mismatch_exit(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"mystery": 1}')
    assert run(["report", str(bogus)]) == 1


def test_json_input_of_the_wrong_shape_is_one_error_line(pipeline, tmp_path, capsys):
    def payload(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    model = json.loads(pipeline["models"].read_text())
    del model["cells"][1]["model"]["m_x_given_xstar"]
    # cell W's P(Z|latent) columns summing to 1/2, and cell W's model
    # replaced by one of four levels, for three-level data
    halved = json.loads(pipeline["models"].read_text())
    m_z = halved["cells"][1]["model"]["m_z_given_xstar"]
    m_z["data"] = [v / 2 for v in m_z["data"]]
    wider = json.loads(pipeline["models"].read_text())
    [four] = make_model(GeneratorSpec(s_x=4, s_z=4, seed=1))
    wider["cells"][1]["model"] = four.to_dict()
    unlabelled = json.loads(pipeline["models"].read_text())
    del unlabelled["cells"][1]["w_cell"]
    data = ["--data", str(pipeline["synth"]), "--schema", str(pipeline["schema"])]
    for argv, message in (
        (["report", payload("fit.json", '{"fit": {}}')],
         "is not a well-formed artifact: KeyError"),
        (["report", "--format", "csv", payload("fit.json", '{"fit": {}}')],
         "is not a well-formed artifact: KeyError"),
        (["replay", payload("m.json", json.dumps({"schema_version": cli.FORMAT,
                                                  "command": "test"}))],
         "is not a run manifest"),
        (["replay", payload("list.json", "[1, 2]")], "does not hold a JSON object"),
        (["estimate", "--models", payload("models.json", json.dumps(model)), *data,
          "--model", "linear", "--target", "latent", "--seed", "1",
          "--out", str(tmp_path / "out.json")],
         "models artifact cell 'W' is not a model: KeyError 'm_x_given_xstar'"),
        (["estimate", "--models", payload("halved.json", json.dumps(halved)), *data,
          "--model", "linear", "--target", "latent", "--seed", "1",
          "--out", str(tmp_path / "out.json")],
         "models artifact cell 'W' is not a model: DomainError m_z_given_xstar columns"),
        (["estimate", "--models", payload("wider.json", json.dumps(wider)), *data,
          "--model", "hoprobit", "--target", "latent", "--seed", "1", "--boot", "3",
          "--out", str(tmp_path / "out.json")],
         "models artifact cell 'W' has support (4, 2, 4), the data (3, 2, 3)"),
        (["estimate", "--models", payload("unlabelled.json", json.dumps(unlabelled)),
          *data, "--model", "linear", "--target", "latent", "--seed", "1",
          "--out", str(tmp_path / "out.json")],
         "models artifact's cells[1] has no w_cell label"),
        (["estimate", "--models", payload("cells.json", '{"cells": ["model"]}'), *data,
          "--model", "linear", "--target", "latent", "--seed", "1",
          "--out", str(tmp_path / "out.json")],
         "models artifact's cells are not a list of JSON objects"),
    ):
        assert run(argv) == 1
        # estimate summarizes ingest on stderr first
        *_, line = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
    assert not (tmp_path / "out.json").exists()


def test_exit_codes_subprocess():
    env = dict(os.environ)
    def code(args):
        return subprocess.run(
            [sys.executable, "-m", "latentcat.cli", *args],
            capture_output=True, env=env,
        ).returncode

    assert code(["test", "--help"]) == 0
    assert code(["--version"]) == 0
    assert code(["test", "--bogus"]) == 64
    assert code(["frobnicate"]) == 64
    assert code(["report"]) == 64


def test_cli_exit_keeps_output_and_artifacts(pipeline, tmp_path, capsys):
    # main freezes the garbage collector between run() and sys.exit: the
    # table, the artifact, the manifest and the error line all precede it.
    def cli_process(*args):
        return subprocess.run([sys.executable, "-m", "latentcat.cli", *args],
                              capture_output=True, text=True, env=dict(os.environ))

    out = tmp_path / "fit.json"
    data = ["--data", str(pipeline["synth"]), "--schema", str(pipeline["schema"])]
    proc = cli_process("estimate", *data, "--model", "oprobit", "--target", "reported",
                       "--boot", "5", "--seed", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["boot"]["b"] == 5
    assert json.loads(Path(str(out) + ".manifest.json").read_text())["command"] == "estimate"
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    assert proc.stdout == capsys.readouterr().out

    proc = cli_process("estimate", "--data", str(tmp_path / "missing.csv"), "--schema",
                       str(pipeline["schema"]), "--model", "oprobit", "--target",
                       "reported", "--seed", "2", "--out", str(tmp_path / "none.json"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")

    proc = cli_process("estimate", *data, "--model", "probit", "--target", "reported",
                       "--seed", "2", "--out", str(tmp_path / "none.json"))
    assert proc.returncode == 64
    assert "invalid choice" in proc.stderr
    assert not (tmp_path / "none.json").exists()


@pytest.mark.parametrize("preset,expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
])
def test_import_starts_openblas_single_threaded_unless_set(preset, expected):
    # ``import latentcat`` runs before numpy loads OpenBLAS, under ``python -m
    # latentcat.cli`` too; an explicit thread setting is left alone. The
    # package re-exports nothing, so importing it alone loads no numpy.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    probe = ("import os, sys, latentcat\n"
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**env, **preset}, check=True).stdout
    assert out.split() == [expected, "False"]


def test_every_public_definition_is_in_its_module_all():
    """Each name has one import path, its defining module, whose ``__all__``
    lists every function and class it defines without a leading underscore."""
    import importlib
    import inspect
    import pkgutil

    import latentcat

    for info in pkgutil.iter_modules(latentcat.__path__):
        module = importlib.import_module(f"latentcat.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        defined = {name for name, value in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(value) or inspect.isclass(value))
                   and value.__module__ == module.__name__}
        assert sorted(defined - set(module.__all__)) == [], module.__name__
        assert all(hasattr(module, name) for name in module.__all__), module.__name__


def modules_loaded(code: str, package: str) -> set[str]:
    """The modules of ``package`` (its name with a trailing dot) that a fresh
    interpreter holds after running ``code``."""
    probe = code + (f"\nprint(*sorted(m for m in sys.modules "
                    f"if m.startswith({package!r})))")
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe],
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_leaves_scipy_unloaded():
    """Each stage is its own process, so its imports are paid on every run.

    Importing scipy.stats alone took about 0.5 s, and the whole of scipy
    about 1 s. The package runs on numpy and the standard library alone.
    """
    assert modules_loaded("import latentcat, latentcat.cli", "scipy") == set()


def test_stages_load_only_the_scipy_they_call(pipeline, tmp_path):
    """No stage loads scipy: the linear algebra is numpy's, the normal cdf and
    quantile are the standard library's, and the ordered ML benchmarks are
    fitted by Fisher scoring in numpy."""
    synth, schema = str(pipeline["synth"]), str(pipeline["schema"])
    data = ["--schema", schema, "--seed", "1"]
    stage = ("from latentcat.cli import run\n"
             "assert run({!r}) == 0").format
    stages = {
        "simulate": ["simulate", "--spec", str(pipeline["spec"]), "--n", "2000",
                     "--seed", "1", "--out", str(tmp_path / "s.csv")],
        "test": ["test", "--input", synth, *data, "--B", "99",
                 "--out", str(tmp_path / "r.json")],
        "identify": ["identify", "--input", synth, *data, "--by-cell", "--method",
                     "cmle", "--starts", "2", "--out", str(tmp_path / "m.json")],
        "latent estimate --boot": [
            "estimate", "--models", str(pipeline["models"]), "--data", synth, *data,
            "--model", "hoprobit", "--target", "latent", "--boot", "2",
            "--out", str(tmp_path / "fl.json")],
        "reported estimate --boot": [
            "estimate", "--data", synth, *data, "--model", "oprobit",
            "--target", "reported", "--boot", "5", "--out", str(tmp_path / "fr.json")],
    }
    for name, args in stages.items():
        assert modules_loaded(stage(args), "scipy") == set(), name


def test_each_command_loads_only_the_modules_it_runs(pipeline, tmp_path):
    """Each command is its own process, which compiles every module it
    imports. ``simulate`` loads the generator and no estimator; ``test``
    loads the test and neither; ``identify`` loads no ordered model, and
    ``estimate`` no likelihood fit, except for a latent bootstrap; neither
    loads the bootstrap engine without ``--boot``."""
    synth, schema = str(pipeline["synth"]), str(pipeline["schema"])
    data = ["--schema", schema, "--seed", "1"]
    stage = ("from latentcat.cli import run\n"
             "assert run({!r}) == 0").format
    core = {"cli", "data", "errors", "report"}
    latent = ["estimate", "--models", str(pipeline["models"]), "--data", synth, *data,
              "--model", "hoprobit", "--target", "latent"]
    reported = ["estimate", "--data", synth, *data, "--model", "hoprobit",
                "--target", "reported"]
    identify = ["identify", "--input", synth, *data, "--by-cell", "--starts", "2"]
    commands = {
        "simulate": (["simulate", "--spec", str(pipeline["spec"]), "--n", "2000",
                      "--seed", "1", "--out", str(tmp_path / "s.csv")],
                     {"cli", "data", "errors", "generate", "ordered", "spectral"}),
        "test --by-cell": (["test", "--input", synth, *data, "--by-cell", "--B", "99",
                            "--out", str(tmp_path / "r.json")],
                           core | {"citest"}),
        "identify --by-cell": ([*identify, "--out", str(tmp_path / "m.json")],
                               core | {"mle", "pipeline", "spectral"}),
        "identify --boot": ([*identify, "--boot", "2", "--out", str(tmp_path / "mb.json")],
                            core | {"mle", "pipeline", "resampling", "spectral"}),
        "latent estimate": ([*latent, "--out", str(tmp_path / "fl.json")],
                            core | {"ordered", "pipeline", "spectral"}),
        "latent estimate --boot": (
            [*latent, "--boot", "2", "--out", str(tmp_path / "flb.json")],
            core | {"mle", "ordered", "pipeline", "resampling", "spectral"}),
        "reported estimate": ([*reported, "--out", str(tmp_path / "fr.json")],
                              core | {"ordered", "pipeline"}),
        "reported estimate --boot": (
            [*reported, "--boot", "2", "--out", str(tmp_path / "frb.json")],
            core | {"ordered", "pipeline", "resampling"}),
        "report": (["report", str(pipeline["report"]), str(pipeline["models"])],
                   {"cli", "errors", "report"}),
    }
    for name, (args, modules) in commands.items():
        assert modules_loaded(stage(args), "latentcat.") == {
            f"latentcat.{module}" for module in modules}, name


def test_input_that_is_not_utf8_is_one_error_line(tmp_path):
    schema = tmp_path / "s.cfg"
    schema.write_text("[columns]\nx=x\ny=y\nz=z\nw=w\n\n[recode]\nx = 1:1 2:2 3:3\n")
    head = b"x,y,z,w\n" + b"1,0.5,2,0\n" * 50 + b"2,0.1,3,"
    data = tmp_path / "d.csv"
    data.write_bytes(head + b"\xff\n" + b"3,0.2,1,1\n" * 50)
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "latentcat.cli", "test", "--input", str(data),
         "--schema", str(schema), "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: input is not UTF-8 text: byte 0xff at byte offset {len(head)} "
        "(invalid start byte)"]
    assert set(tmp_path.iterdir()) == {schema, data}  # no artifact, no manifest


def test_field_over_the_csv_limit_is_one_error_line(tmp_path):
    schema = tmp_path / "s.cfg"
    schema.write_text("[columns]\nx=x\ny=y\nz=z\nw=w\n\n[recode]\nx = 1:1 2:2 3:3\n")
    rows = ["x,y,z,w,note", *["1,0.5,2,0,"] * 150, '2,0.1,3,1,"quoted"',
            "3,0.2,1,1," + "a" * 140_000, *["3,0.2,1,1,"] * 150]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "latentcat.cli", "test", "--input", str(data),
         "--schema", str(schema), "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: cannot parse input as CSV: field larger than field limit (131072)"]
    assert set(tmp_path.iterdir()) == {schema, data}  # no artifact, no manifest


def test_reported_ml_fit_writes_only_the_exclusion_summary(tmp_path):
    # On these 500 records a line-search trial of the ordered-probit fit puts
    # a cutpoint near 1e181; the rejected trial must not print a warning.
    schema = tmp_path / "s.cfg"
    schema.write_text("[columns]\nx=x\ny=y\nz=z\nw=w\n\n[recode]\n"
                      "x = 1:1 2:2 3:3 4:4 5:5\n\n[binning]\nz = cuts 1 2\ny = above 0.5\n")
    levels = {0: [41, 88, 42, 25, 28], 1: [126, 62, 23, 13, 52]}
    data = tmp_path / "d.csv"
    data.write_text("x,y,z,w\n" + "".join(
        f"{x},{i % 2},{i % 3 + 1},{w}\n"
        for w, counts in levels.items() for x, n in enumerate(counts, 1) for i in range(n)))
    out = tmp_path / "fit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "latentcat.cli", "estimate", "--data", str(data),
         "--schema", str(schema), "--model", "oprobit", "--target", "reported",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == "records read: 500, kept: 500, excluded: 0\n"


DIGIT_SCHEMA = ("[columns]\nx=x\ny=y\nz=z\nw=w\n\n[recode]\nx = 1:1 2:2 3:3\n\n"
                "[binning]\nz = cuts 1 2\ny = above 0.5\n")


def test_a_header_naming_a_declared_column_twice_is_one_error_line(tmp_path, capsys):
    schema = tmp_path / "s.cfg"
    schema.write_text(DIGIT_SCHEMA)
    data = tmp_path / "d.csv"
    data.write_text("x,y,z,w,x\n1,0,1,0,3\n2,1,2,1,3\n3,0,3,0,3\n")
    out = tmp_path / "r.json"
    assert run(["test", "--input", str(data), "--schema", str(schema), "--seed", "1",
                "--out", str(out)]) == SchemaError.exit_code
    assert capsys.readouterr().err.splitlines() == [
        "error: input header names declared column 'x' more than once, at columns [1, 5]"]
    assert set(tmp_path.iterdir()) == {schema, data}  # no artifact, no manifest


def test_manifest_counts_the_rows_each_parser_read(tmp_path):
    # The same records twice: z written as one digit, then as two ("01").
    # Ingest reads the first file as a one-digit table and the second with
    # np.loadtxt; the artifacts are the same bytes.
    schema = tmp_path / "s.cfg"
    schema.write_text(DIGIT_SCHEMA)
    rng = np.random.default_rng(0)
    rows = rng.integers([1, 0, 1, 0], [4, 2, 4, 2], size=(400, 4))
    artifacts = {}
    for name, width, parser in (("one", 1, "one_digit"), ("two", 2, "loadtxt")):
        data = tmp_path / f"{name}.csv"
        data.write_text("x,y,z,w\n" + "".join(
            f"{x},{y},{str(z).zfill(width)},{w}\n" for x, y, z, w in rows))
        out = tmp_path / f"{name}.json"
        assert run(["test", "--input", str(data), "--schema", str(schema), "--B", "99",
                    "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["rows_by_parser"] == {
            "one_digit": 0, "loadtxt": 0, "csv_reader": 0, parser: 400}
        artifacts[name] = out.read_bytes()
    assert artifacts["one"] == artifacts["two"]


# perfbench's survey generator: S=3, 32 covariate cells.
SURVEY_CFG = """\
[generator]
s_x = 3
s_z = 3
w_cells = 32
strength = 0.4
separation = 0.25
ord_margin = 0.05
min_singular_value = 0.08
z_mix = 0.75
latent_uniform_mix = 0.45
"""


def test_simulated_input_is_read_as_a_one_digit_table(tmp_path):
    # The benchmark reads what simulate writes: every row must reach ingest's
    # fastest parser, so a change to the writer cannot quietly slow it.
    spec = tmp_path / "gen.cfg"
    spec.write_text(SURVEY_CFG)
    out = tmp_path / "d.csv"
    assert run(["simulate", "--spec", str(spec), "--n", "20000", "--seed", "1",
                "--out", str(out)]) == 0
    _, report = ingest(str(out), load_schema(str(tmp_path / "d.schema.cfg")))
    assert report.rows_by_parser == {"one_digit": 20000, "loadtxt": 0, "csv_reader": 0}


def test_missing_input_file_exit(tmp_path):
    schema = tmp_path / "s.cfg"
    schema.write_text(
        "[columns]\nx=x\ny=y\nz=z\nw=\n\n[recode]\nx = 1:1 2:2 3:3\n"
    )
    assert run(["test", "--input", str(tmp_path / "nope.csv"),
                "--schema", str(schema), "--seed", "1",
                "--out", str(tmp_path / "r.json")]) == 1


def test_estimate_latent_requires_models(tmp_path, capsys):
    # Refused before ingest: the input does not exist, and reading it would
    # exit 1, not 64.
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "f.json"
    assert run(["estimate", "--data", missing, "--schema", missing, "--model", "linear",
                "--target", "latent", "--seed", "1", "--out", str(out)]) == 64
    assert capsys.readouterr().err == (
        "error: --target latent needs --models, and no other target takes it\n")
    assert not out.exists()


def test_reported_estimate_refuses_models_before_ingest(tmp_path, capsys):
    # A models artifact the reported target would neither read nor hash.
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "f.json"
    assert run(["estimate", "--models", missing, "--data", missing, "--schema", missing,
                "--model", "oprobit", "--target", "reported", "--seed", "1",
                "--out", str(out)]) == 64
    assert capsys.readouterr().err == (
        "error: --target latent needs --models, and no other target takes it\n")
    assert not out.exists()


def test_simulate_truth_sidecar(tmp_path):
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG)
    out = tmp_path / "s.csv"
    truth = tmp_path / "truth.csv"
    assert run(["simulate", "--spec", str(spec), "--n", "500", "--seed", "5",
                "--out", str(out), "--truth", str(truth)]) == 0
    generator, _ = cli._parse_generator_config(str(spec))
    models = make_model(dataclasses.replace(generator, seed=5))
    codes = draw(models, make_cell_weights(generator.n_w_cells), 500, seed=5,
                 keep_truth=True).truth
    expected = "x_latent\n" + "".join(f"{int(v)}\n" for v in codes)
    assert truth.read_bytes() == expected.encode()


@pytest.mark.parametrize("argv", [
    ["simulate", "--spec", "g.cfg", "--n", "100", "--seed", "1", "--out", "h.csv",
     "--truth", "h.csv"],
    ["simulate", "--spec", "g.cfg", "--n", "100", "--seed", "1", "--out", "g.cfg"],
    ["simulate", "--spec", "g.cfg", "--n", "100", "--seed", "1", "--out", "h.csv",
     "--truth", "h.schema.cfg"],
    ["simulate", "--spec", "g.cfg", "--n", "100", "--seed", "1", "--out", "h.csv",
     "--truth", "h.csv.manifest.json"],
    ["test", "--input", "a.csv", "--schema", "a.schema.cfg", "--B", "99", "--seed", "1",
     "--out", "a.schema.cfg"],
    ["identify", "--input", "a.csv", "--schema", "a.schema.cfg", "--starts", "1",
     "--seed", "1", "--out", "a.csv"],
    ["estimate", "--models", "m.json", "--data", "a.csv", "--schema", "a.schema.cfg",
     "--model", "linear", "--target", "latent", "--seed", "1", "--out", "m.json"],
    ["report", "m.json", "r.json", "--out", "./r.json"],
    ["replay", "run/g.cfg.manifest.json", "--out-dir", "."],
], ids=["simulate-truth-is-out", "simulate-out-is-spec", "simulate-truth-is-sidecar",
        "simulate-truth-is-manifest", "test", "identify", "estimate", "report",
        "replay"])
def test_an_output_that_would_overwrite_an_input_or_output_is_refused(
        pipeline, tmp_path, capsys, monkeypatch, argv):
    # Checked on real paths before any input is read: nothing is written.
    monkeypatch.chdir(tmp_path)
    for name, key in (("g.cfg", "spec"), ("a.csv", "synth"), ("a.schema.cfg", "schema"),
                      ("m.json", "models"), ("r.json", "report")):
        (tmp_path / name).write_bytes(pipeline[key].read_bytes())
    if argv[0] == "replay":  # a run whose --out, replayed into ".", is its spec
        (tmp_path / "run").mkdir()
        assert run(["simulate", "--spec", "g.cfg", "--n", "100", "--seed", "1",
                    "--out", "run/g.cfg"]) == 0
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert run(argv) == 64
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "is the same file as" in line
    assert {path: path.read_bytes()
            for path in tmp_path.rglob("*") if path.is_file()} == before


def test_replay_out_dir_receives_the_truth_file(tmp_path):
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG)
    out = tmp_path / "s.csv"
    truth = tmp_path / "tr.csv"
    assert run(["simulate", "--spec", str(spec), "--n", "300", "--seed", "2",
                "--out", str(out), "--truth", str(truth)]) == 0
    original = truth.read_bytes()
    os.utime(truth, ns=(0, 0))  # a rewrite, even of the same bytes, moves the mtime
    replayed = tmp_path / "rp"
    assert run(["replay", str(out) + ".manifest.json",
                "--out-dir", str(replayed)]) == 0
    assert truth.read_bytes() == original
    assert truth.stat().st_mtime_ns == 0
    assert (replayed / "tr.csv").read_bytes() == original
    assert (replayed / "s.csv").read_bytes() == out.read_bytes()


# Values of every digit width an int64 holds, with the edges of the widths.
INT_VALUES = st.one_of(
    st.sampled_from([0, 9, 10, 10**18, 2**63 - 1]),
    st.integers(1, 19).flatmap(
        lambda d: st.integers(10 ** (d - 1), min(10**d - 1, 2**63 - 1))),
)


@st.composite
def int_matrices(draw_from):
    n_rows, n_cols = draw_from(st.integers(1, 40)), draw_from(st.integers(1, 9))
    values = draw_from(st.lists(INT_VALUES, min_size=n_rows * n_cols,
                                max_size=n_rows * n_cols))
    return np.array(values, dtype=np.int64).reshape(n_rows, n_cols)


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.integers(1, 41))
@example(np.arange(3 * (2 * cli._CSV_BLOCK_ROWS + 1)).reshape(-1, 3) * 7919,
         cli._CSV_BLOCK_ROWS)
# A block of single digits, written without the leading-zero mask, then a
# block holding wider fields.
@example(np.vstack([np.arange(3 * cli._CSV_BLOCK_ROWS).reshape(-1, 3) % 10,
                    [[0, 10, 5], [123456789, 0, 9]]]), cli._CSV_BLOCK_ROWS)
def test_int_csv_writer_matches_savetxt(matrix, block_rows):
    header = [f"c{k}" for k in range(matrix.shape[1])]
    reference = io.BytesIO()
    np.savetxt(reference, matrix, fmt="%d", delimiter=",", header=",".join(header),
               comments="")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "m.csv"
        cli._write_int_csv(str(path), header, list(matrix.T))
        assert path.read_bytes() == reference.getvalue()


def test_identify_spectral_method(tmp_path, capsys):
    # The spectral route is gone: cmle starts from the same closed form and
    # writes its certificate (saturation_gap). The inputs do not exist, so
    # reading one would exit 1, not 64.
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "spectral.json"
    assert run(["identify", "--input", missing, "--schema", missing, "--by-cell",
                "--method", "spectral", "--seed", "1", "--out", str(out)]) == 64
    assert "argument --method: invalid choice: 'spectral'" in capsys.readouterr().err
    assert not out.exists()


def test_identify_spectral_refuses_boot(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "spectral-boot.json"
    assert run(["identify", "--input", missing, "--schema", missing, "--by-cell",
                "--method", "spectral", "--boot", "3", "--seed", "1",
                "--out", str(out)]) == 64
    assert "invalid choice: 'spectral'" in capsys.readouterr().err
    assert not out.exists()


def test_identify_writes_each_cells_saturation_gap(pipeline):
    from latentcat.data import ingest, load_schema, tabulate
    from latentcat.mle import saturated_loglik

    data, _ = ingest(str(pipeline["synth"]), load_schema(str(pipeline["schema"])))
    for cell, entry in enumerate(json.loads(pipeline["models"].read_text())["cells"]):
        table = tabulate(data, cell)
        assert entry["saturation_gap"] == saturated_loglik(table) - entry["loglik"]
        assert entry["saturation_gap"] >= -1e-9 * abs(entry["loglik"])


IDENTIFY_CMLE = ["identify", "--by-cell", "--method", "cmle"]
IDENTIFY_POOLED = ["identify", "--method", "cmle"]
ESTIMATE_LATENT = ["estimate", "--model", "hoprobit", "--target", "latent"]
TEST_BY_CELL = ["test", "--by-cell"]
SIMULATE = ["simulate"]


@pytest.mark.parametrize("command,option,value", [
    *[(IDENTIFY_CMLE, option, value) for option, value in
      [("--boot", "-1"), ("--starts", "0"), ("--starts", "-1"), ("--seed", "-1")]],
    (IDENTIFY_POOLED, "--boot", "-1"),
    (ESTIMATE_LATENT, "--boot", "-1"),
    (ESTIMATE_LATENT, "--seed", "-1"),
    (TEST_BY_CELL, "--B", "98"),
    (TEST_BY_CELL, "--seed", "-1"),
    (SIMULATE, "--n", "0"),
    (SIMULATE, "--n", "-3"),
    (IDENTIFY_CMLE, "--boot", "1"),
    (ESTIMATE_LATENT, "--boot", "1"),
])
def test_counts_below_their_minimum_refused_before_ingest(tmp_path, capsys,
                                                          command, option, value):
    # The inputs do not exist: reading one would exit 1, not 64.
    missing = str(tmp_path / "missing.csv")
    inputs = {"identify": ["--input", missing, "--schema", missing],
              "test": ["--input", missing, "--schema", missing],
              "estimate": ["--models", missing, "--data", missing, "--schema", missing],
              "simulate": ["--spec", missing]}[command[0]]
    args = {"--seed": ["--seed", value]}.get(option, [option, value, "--seed", "1"])
    out = tmp_path / "out.json"
    assert run([*command, *inputs, *args, "--out", str(out)]) == 64
    assert f"argument {option}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,option", [
    (IDENTIFY_CMLE, ["--boot-starts", "2"]),
    (ESTIMATE_LATENT, ["--boot-starts", "2"]),
    (ESTIMATE_LATENT, ["--stratify"]),
    (ESTIMATE_LATENT, ["--clamp", "0.01"]),
    (TEST_BY_CELL, ["--min-cell", "50"]),
    (["estimate", "--model", "hoprobit", "--target", "reported"],
     ["--skedastic", "exponential"]),
    (ESTIMATE_LATENT, ["--threads", "2"]),
    (ESTIMATE_LATENT, ["--starts", "10"]),
])
def test_retired_bootstrap_options_refused_before_ingest(tmp_path, capsys, command,
                                                         option):
    # Every bootstrap redraws within cells and refits cells at a fixed start
    # count, so neither choice is taken any more; the inversion clamp and the
    # per-cell test's minimum size are constants; the reported hoprobit has
    # one estimator, the closed form. The program starts no threads, and the
    # latent point fit reads its cell models from the models artifact.
    missing = str(tmp_path / "missing.csv")
    inputs = {"identify": ["--input", missing, "--schema", missing, "--boot", "3"],
              "test": ["--input", missing, "--schema", missing],
              "estimate": ["--models", missing, "--data", missing, "--schema", missing,
                           "--boot", "3"]}
    out = tmp_path / "out.json"
    assert run([*command, *inputs[command[0]], *option, "--seed", "1",
                "--out", str(out)]) == 64
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


def test_latent_estimate_boot_on_data_with_an_empty_cell_is_one_error_line(tmp_path,
                                                                           capsys):
    # A redraw within cells cannot empty a cell, so a cell is empty only when
    # the data's is: a data error (exit 1) on the first chunk's cell refits,
    # not a run whose every replicate is dropped.
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG.replace("w_cells = 2", "w_cells = 4"))
    synth, schema = tmp_path / "synth.csv", tmp_path / "synth.schema.cfg"
    models = tmp_path / "models.json"
    assert run(["simulate", "--spec", str(spec), "--n", "4000", "--seed", "3",
                "--out", str(synth)]) == 0
    assert run(["identify", "--input", str(synth), "--schema", str(schema), "--by-cell",
                "--starts", "2", "--seed", "7", "--ord", "enforce",
                "--out", str(models)]) == 0
    lines = synth.read_text().splitlines()
    no_ab = tmp_path / "no-ab.csv"  # cell AB's records (w1 = w2 = 1) left out
    no_ab.write_text("\n".join(line for line in lines if not line.endswith(",1,1")) + "\n")
    capsys.readouterr()
    out = tmp_path / "fit.json"
    assert run(["estimate", "--models", str(models), "--data", str(no_ab), "--schema",
                str(schema), "--model", "linear", "--target", "latent", "--boot", "3",
                "--seed", "1", "--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error")]
    assert errors == ["error: covariate cell 'AB' has no records"]
    assert not out.exists()


@pytest.mark.parametrize("clamp", ["nan", "-1", "0", "0.5", "0.7", "inf"])
def test_clamp_outside_its_domain_refused_before_ingest(tmp_path, capsys, clamp):
    # The clamp is the constant ordered.CLAMP; no value of --clamp is taken now.
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "out.json"
    assert run([*ESTIMATE_LATENT, "--models", missing, "--data", missing,
                "--schema", missing, "--clamp", clamp, "--seed", "1",
                "--out", str(out)]) == 64
    assert f"unrecognized arguments: --clamp {clamp}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "0", "1", "nan", "inf"])
def test_tol_outside_its_domain_refused_before_ingest(tmp_path, capsys, tol):
    # --tol gated the deleted spectral route; no value of it is taken now.
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "out.json"
    assert run([*IDENTIFY_CMLE, "--input", missing, "--schema", missing,
                "--tol", tol, "--seed", "1", "--out", str(out)]) == 64
    assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
    assert not out.exists()


def test_identify_cmle_includes_start_diagnostics(pipeline):
    payload = json.loads(pipeline["models"].read_text())
    entry = payload["cells"][0]
    assert entry["n_starts_converged"] >= 1
    assert len(entry["starts"]) == 4
    assert {"index", "kind", "final_loglik", "converged"} <= set(entry["starts"][0])


def test_identify_boot_standard_errors(pipeline, tmp_path):
    out = tmp_path / "models_se.json"
    assert run(["identify", "--input", str(pipeline["synth"]), "--schema",
                str(pipeline["schema"]), "--method", "cmle", "--starts", "3",
                "--seed", "7", "--ord", "enforce", "--boot", "30",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    entry = payload["cells"][0]
    assert "std_errors" in entry
    se = entry["std_errors"]
    assert len(se["f_xstar"]) == 3
    assert all(v >= 0 for v in se["f_xstar"])
    assert entry["boot"]["b"] == 30


def test_exclusions_reported_on_stderr(pipeline, capsys):
    assert run(["test", "--input", str(pipeline["synth"]), "--schema",
                str(pipeline["schema"]), "--B", "99", "--seed", "1",
                "--out", str(pipeline["root"] / "tmp_report.json")]) == 0
    err = capsys.readouterr().err
    assert "records read: 8000" in err


def simulated(tmp_path, s_z, n, seed):
    """``simulate`` from a two-cell spec with S_X = 3 and the given S_Z:
    the CSV and its schema sidecar."""
    spec = tmp_path / f"gen-{s_z}.cfg"
    spec.write_text(f"[generator]\ns_x = 3\ns_z = {s_z}\nw_cells = 2\nstrength = 0.4\n")
    csv = tmp_path / f"synth-{s_z}.csv"
    assert run(["simulate", "--spec", str(spec), "--n", str(n), "--seed", str(seed),
                "--out", str(csv)]) == 0
    return csv, tmp_path / f"synth-{s_z}.schema.cfg"


def test_identify_refuses_a_support_that_is_not_identified(tmp_path, capsys):
    # With S_Z = 2 < S_X = 3 fits from seeds 1 and 2 once agreed in every
    # log-likelihood and saturation gap but not in the latent marginals.
    csv, schema = simulated(tmp_path, s_z=2, n=2000, seed=1)
    out = tmp_path / "models.json"
    for seed in ("1", "2"):
        capsys.readouterr()
        assert run(["identify", "--input", str(csv), "--schema", str(schema),
                    "--starts", "5", "--seed", seed, "--out", str(out)]) == 1
        *_, line = capsys.readouterr().err.splitlines()
        assert line == ("error: support (S_X, S_Y, S_Z) = (3, 2, 2) is not identified: "
                        "14 parameters per cell against 11 free probabilities; "
                        "bin z into at least 3 levels")
        assert not out.exists()


def test_schema_naming_a_covariate_twice_exits_1(tmp_path, capsys):
    csv, schema = simulated(tmp_path, s_z=3, n=200, seed=1)
    doubled = tmp_path / "doubled.schema.cfg"
    doubled.write_text(schema.read_text().replace("w = w1", "w = w1, w1"))
    assert "w = w1, w1" in doubled.read_text()
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["test", "--input", str(csv), "--schema", str(doubled), "--B", "99",
                "--seed", "1", "--out", str(out)]) == 1
    *_, line = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "column 'w1' is named for w, w" in line
    assert not out.exists()


def test_a_bootstrap_that_keeps_one_replicate_exits_2(tmp_path, capsys):
    # Twelve records: at this seed one of the two redraws misses an outcome
    # level, so its ML fit is dropped and one replicate is left.
    csv, schema = simulated(tmp_path, s_z=3, n=12, seed=3)
    out = tmp_path / "fit.json"
    capsys.readouterr()
    assert run(["estimate", "--data", str(csv), "--schema", str(schema), "--model",
                "oprobit", "--target", "reported", "--boot", "2", "--seed", "6",
                "--out", str(out)]) == 2
    *_, line = capsys.readouterr().err.splitlines()
    assert line == ("error: 1 of 2 bootstrap replicates kept, too few for a standard "
                    "error: dropped {'estimator_failed': 1}")
    assert not out.exists()
