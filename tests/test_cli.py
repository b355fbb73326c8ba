import dataclasses
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
    for key in ("report", "models", "fit"):
        payload = json.loads(pipeline[key].read_text())
        assert payload["schema_version"] == "1"


def test_replay_reproduces_bytes(pipeline, tmp_path):
    out_dir = tmp_path / "replayed"
    code = run(["replay", str(pipeline["fit"]) + ".manifest.json",
                "--out-dir", str(out_dir)])
    assert code == 0
    original = pipeline["fit"].read_bytes()
    replayed = (out_dir / "fit.json").read_bytes()
    assert original == replayed


def test_replay_drops_the_retired_threads_option(pipeline, tmp_path, capsys):
    out = tmp_path / "fit_boot.json"
    estimate = ["estimate", "--models", str(pipeline["models"]), "--data",
                str(pipeline["synth"]), "--schema", str(pipeline["schema"]),
                "--model", "linear", "--target", "latent", "--boot", "3",
                "--seed", "11", "--out", str(out)]
    for retired in (["--threads", "2"], ["--starts", "10"]):
        assert run([*estimate, *retired]) == 64
        assert f"unrecognized arguments: {' '.join(retired)}" in (
            capsys.readouterr().err)
    assert run(estimate) == 0
    # A manifest written while an option existed records it. Unlike --threads,
    # the retired bootstrap options changed artifacts; such a manifest replays
    # under the one replicate rule, with the same note. --clamp and --min-cell
    # recorded their defaults, which are now constants, and --skedastic
    # nonparametric the closed form, now the one estimator.
    for artifact, retired in ((out, {"threads": 2}), (out, {"starts": 10}),
                              (out, {"boot_starts": 2, "stratify": True}),
                              (out, {"clamp": 1e-06}),
                              (out, {"skedastic": "nonparametric"}),
                              (pipeline["report"], {"min_cell": 100})):
        manifest = json.loads(Path(str(artifact) + ".manifest.json").read_text())
        manifest["options"].update(retired)
        name = "-".join(retired)
        old_manifest = tmp_path / f"old-{name}.manifest.json"
        old_manifest.write_text(json.dumps(manifest))
        out_dir = tmp_path / f"replayed-{name}"
        assert run(["replay", str(old_manifest), "--out-dir", str(out_dir)]) == 0
        assert f"ignoring options this version does not take: {sorted(retired)}" in (
            capsys.readouterr().err)
        assert (out_dir / artifact.name).read_bytes() == artifact.read_bytes()


def test_option_inventory():
    """Every option of every subcommand, by dest: a new knob is a visible
    edit here."""
    import argparse

    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {name: {action.dest for action in parser._actions} - {"help"}
            for name, parser in sub.choices.items()} == {
        "simulate": {"spec", "n", "seed", "out", "truth"},
        "test": {"input", "schema", "by_cell", "B", "seed", "out"},
        "identify": {"input", "schema", "by_cell", "method", "starts", "seed", "ord",
                     "boot", "out"},
        "estimate": {"models", "data", "schema", "model", "target", "boot", "seed",
                     "out"},
        "report": {"inputs", "format", "out"},
        "replay": {"manifest", "out_dir"},
    }


def test_replay_of_a_spectral_manifest_exits_64(pipeline, tmp_path, capsys):
    # A manifest of the deleted spectral route: its --tol is dropped, and
    # --method spectral is refused before anything is written.
    manifest = json.loads(Path(str(pipeline["models"]) + ".manifest.json").read_text())
    manifest["options"].update(method="spectral", tol=1e-6)
    old_manifest = tmp_path / "spectral.manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    out_dir = tmp_path / "replayed"
    assert run(["replay", str(old_manifest), "--out-dir", str(out_dir)]) == 64
    err = capsys.readouterr().err
    assert "ignoring options this version does not take: ['tol']" in err
    assert "argument --method: invalid choice: 'spectral'" in err
    assert not (out_dir / pipeline["models"].name).exists()


def test_replay_of_an_exponential_skedastic_manifest_exits_64(pipeline, tmp_path,
                                                              capsys):
    # A manifest of the retired exponential-index ML fit names an estimator
    # this version does not have; replaying it under the closed form would
    # change the estimator, so it is refused before anything is written.
    manifest = json.loads(Path(str(pipeline["fit"]) + ".manifest.json").read_text())
    manifest["options"].update(model="hoprobit", target="reported",
                               skedastic="exponential")
    old_manifest = tmp_path / "exponential.manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    out_dir = tmp_path / "replayed"
    assert run(["replay", str(old_manifest), "--out-dir", str(out_dir)]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0]
    assert "--skedastic exponential, is retired" in err[0]
    assert not out_dir.exists()


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
    import latentcat.pipeline
    import latentcat.resampling
    from latentcat.mle import fit_tables

    calls = []

    def counted(tables, *rest):
        calls.append(len(tables))
        return fit_tables(tables, *rest)

    monkeypatch.setattr(latentcat.pipeline, "fit_tables", counted)
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
    data = ["--data", str(pipeline["synth"]), "--schema", str(pipeline["schema"])]
    for argv, message in (
        (["report", payload("fit.json", '{"fit": {}}')],
         "is not a well-formed artifact: KeyError"),
        (["report", "--format", "csv", payload("fit.json", '{"fit": {}}')],
         "is not a well-formed artifact: KeyError"),
        (["replay", payload("m.json", '{"command": "test"}')], "is not a run manifest"),
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


def scipy_loaded(code: str) -> set[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nprint(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe],
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_leaves_scipy_unloaded():
    """Each stage is its own process, so its imports are paid on every run.

    Importing scipy.stats alone took about 0.5 s, and the whole of scipy
    about 1 s. The package runs on numpy and the standard library alone.
    """
    assert scipy_loaded("import latentcat, latentcat.cli") == set()


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
        assert scipy_loaded(stage(args)) == set(), name


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


def test_missing_input_file_exit(tmp_path):
    schema = tmp_path / "s.cfg"
    schema.write_text(
        "[columns]\nx=x\ny=y\nz=z\nw=\n\n[recode]\nx = 1:1 2:2 3:3\n"
    )
    assert run(["test", "--input", str(tmp_path / "nope.csv"),
                "--schema", str(schema), "--seed", "1",
                "--out", str(tmp_path / "r.json")]) == 1


def test_estimate_latent_requires_models(pipeline, tmp_path):
    assert run(["estimate", "--data", str(pipeline["synth"]), "--schema",
                str(pipeline["schema"]), "--model", "linear", "--target",
                "latent", "--seed", "1", "--out", str(tmp_path / "f.json")]) == 1


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
])
def test_retired_bootstrap_options_refused_before_ingest(tmp_path, capsys, command,
                                                         option):
    # Every bootstrap redraws within cells and refits cells at a fixed start
    # count, so neither choice is taken any more; the inversion clamp and the
    # per-cell test's minimum size are constants; the reported hoprobit has
    # one estimator, the closed form.
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
