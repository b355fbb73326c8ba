"""`estimate` refuses models artifacts and data it cannot honour."""

import json

import numpy as np
import pytest

from latentcat.cli import run

GEN_CFG = """\
[generator]
s_x = 3
s_z = 3
w_cells = 4
strength = 0.3
separation = 0.3
z_mix = 0.8
latent_uniform_mix = 0.8
min_singular_value = 0.1
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("dispatch")
    (root / "gen.cfg").write_text(GEN_CFG)
    paths = {
        "root": root,
        "synth": root / "synth.csv",
        "schema": root / "synth.schema.cfg",
        "models": root / "models.json",
    }
    assert run(["simulate", "--spec", str(root / "gen.cfg"), "--n", "12000",
                "--seed", "3", "--out", str(paths["synth"])]) == 0
    assert run(["identify", "--input", str(paths["synth"]), "--schema",
                str(paths["schema"]), "--by-cell", "--method", "cmle",
                "--starts", "3", "--seed", "7", "--ord", "enforce",
                "--out", str(paths["models"])]) == 0
    return paths


def estimate(inputs, out, *options):
    return run(["estimate", "--data", str(inputs["synth"]), "--schema",
                str(inputs["schema"]), "--seed", "4", "--out",
                str(out), *options])


def test_latent_estimate_refuses_unordered_cells(inputs, capsys):
    artifact = json.loads(inputs["models"].read_text())
    cell = artifact["cells"][1]
    model = cell["model"]
    # Relabel the latent states in reverse: the same distribution, but the
    # last reporting row now decreases.
    for name in ("m_x_given_xstar", "m_z_given_xstar"):
        block = model[name]
        data = np.asarray(block["data"]).reshape(block["rows"], block["cols"])
        block["data"] = data[:, ::-1].ravel().tolist()
    for name in ("f_y_given_xstar", "f_xstar"):
        model[name] = model[name][::-1]
    edited = inputs["root"] / "models-unordered.json"
    edited.write_text(json.dumps(artifact))

    out = inputs["root"] / "fit-unordered.json"
    code = estimate(inputs, out, "--models", str(edited), "--model", "hoprobit",
                    "--target", "latent")
    assert code == 2
    err = capsys.readouterr().err
    assert repr(cell["w_cell"]) in err
    assert repr(artifact["cells"][0]["w_cell"]) not in err
    assert "--ord" not in err
    assert not out.exists()


def test_true_models_without_misclassification_are_in_the_labelling_order():
    # The identity's last row (0, 0, 1) ties in its first two states; the
    # labelling rule orders them by the row above, so the true models at
    # strength 0 pass, and a copy with those two states swapped is refused.
    from latentcat.cli import _models_from_artifact
    from latentcat.errors import EstimationError
    from latentcat.generate import GeneratorSpec, draw, make_model
    from latentcat.spectral import MisclassificationModel

    models = make_model(GeneratorSpec(n_w_cells=2, misclassification_strength=0.0,
                                      seed=1))
    data = draw(models, [0.5, 0.5], 2000, seed=1).data
    artifact = {"cells": [{"w_cell": label, "model": model.to_dict()}
                          for label, model in zip(data.w_labels, models)]}
    assert all(entry["model"]["ord_satisfied"] for entry in artifact["cells"])
    accepted = _models_from_artifact(artifact, data)
    assert [m.pack().tolist() for m in accepted] == [m.pack().tolist() for m in models]
    swap = [1, 0, 2]
    artifact["cells"][1]["model"] = MisclassificationModel(
        *(block[..., swap] for block in models[1].blocks)).to_dict()
    with pytest.raises(EstimationError) as refused:
        _models_from_artifact(artifact, data)
    assert repr(data.w_labels[1]) in str(refused.value)
    assert repr(data.w_labels[0]) not in str(refused.value)


ONE_CELL_CFG = GEN_CFG.replace("w_cells = 4", "w_cells = 1")


def test_latent_estimate_accepts_pooled_models_of_one_cell_data(tmp_path):
    (tmp_path / "gen.cfg").write_text(ONE_CELL_CFG)
    synth, schema = tmp_path / "synth.csv", tmp_path / "synth.schema.cfg"
    models = tmp_path / "models.json"
    assert run(["simulate", "--spec", str(tmp_path / "gen.cfg"), "--n", "5000",
                "--seed", "5", "--out", str(synth)]) == 0
    assert run(["identify", "--input", str(synth), "--schema", str(schema),
                "--method", "cmle", "--starts", "3", "--seed", "7",
                "--ord", "enforce", "--out", str(models)]) == 0
    assert json.loads(models.read_text())["cells"][0]["w_cell"] is None
    out = tmp_path / "fit.json"
    assert run(["estimate", "--models", str(models), "--data", str(synth),
                "--schema", str(schema), "--model", "hoprobit", "--target",
                "latent", "--seed", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["fit"]["column_names"] == ["const"]


def test_latent_estimate_refuses_pooled_models_of_multi_cell_data(inputs, capsys):
    pooled = inputs["root"] / "models-pooled.json"
    assert run(["identify", "--input", str(inputs["synth"]), "--schema",
                str(inputs["schema"]), "--method", "cmle", "--starts", "2",
                "--seed", "7", "--ord", "enforce", "--out", str(pooled)]) == 0
    out = inputs["root"] / "fit-pooled.json"
    code = estimate(inputs, out, "--models", str(pooled), "--model", "hoprobit",
                    "--target", "latent")
    assert code == 1
    assert "lacks cells" in capsys.readouterr().err
    assert not out.exists()


def test_reported_estimate_refuses_an_empty_cell(tmp_path, capsys):
    rows = ["x,y,z,w1"] + [f"{1 + i % 3},{i % 2},{1 + i % 3},0" for i in range(60)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "data.schema.cfg").write_text(
        "[columns]\nx = x\ny = y\nz = z\nw = w1\n\n[recode]\nx = 1:1 2:2 3:3\n\n"
        "[binning]\nz = cuts 1 2\ny = above 0.5\n"
    )
    code = run(["estimate", "--data", str(tmp_path / "data.csv"), "--schema",
                str(tmp_path / "data.schema.cfg"), "--model", "linear",
                "--target", "reported", "--seed", "1", "--boot", "5",
                "--out", str(tmp_path / "fit.json")])
    assert code == 1
    assert "empty covariate cells" in capsys.readouterr().err
