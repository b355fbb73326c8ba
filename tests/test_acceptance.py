"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s``), then
asserts. Tolerances and budgets are pinned here, not configurable.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from latentcat.citest import bootstrap_test, ts_statistic
from latentcat.cli import run
from latentcat.data import tabulate
from latentcat.generate import (
    GeneratorSpec,
    draw,
    make_cell_weights,
    make_model,
    probit_population,
    random_probit_params,
)
from latentcat.mle import CmleConfig, fit, param_count
from latentcat.ordered import hetero_ordered_probit, skedastic
from latentcat.pipeline import cell_configs, fit_cells, parametric_fit
from latentcat.spectral import closed_form, population_pmf

from conftest import (
    PUBLISHED_F_X,
    PUBLISHED_F_XSTAR,
    PUBLISHED_M_X_GIVEN_XSTAR,
    min_gap,
    model_distance,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_spectral_population_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        spec = GeneratorSpec(
            s_x=3, s_z=3, misclassification_strength=0.5,
            eigenvalue_separation=0.1, seed=seed,
        )
        [model] = make_model(spec)
        recovered = closed_form(population_pmf(model))
        assert min_gap(recovered.f_y_given_xstar) >= 0.1 - 1e-12
        worst = max(worst, model_distance(recovered, model))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        "1 spectral population oracle",
        ok,
        f"max-abs error {worst:.2e} over 20 models (tol 1e-8), {elapsed:.2f}s (< 5s)",
    )
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_cmle_finite_sample_recovery():
    t0 = time.monotonic()
    errors, agreements = [], []
    for seed in range(10):
        spec = GeneratorSpec(
            misclassification_strength=0.15,
            eigenvalue_separation=0.35,
            z_mix=0.85,
            latent_uniform_mix=0.85,
            min_singular_value=0.12,
            seed=seed,
        )
        [model] = make_model(spec)
        sample = draw([model], [1.0], 50_000, seed=1000 + seed).data
        result = fit(
            tabulate(sample),
            CmleConfig(n_starts=10, seed=seed),
        )
        errors.append(model_distance(result.model, model))
        agreements.append(result.n_starts_agreeing)
    elapsed = time.monotonic() - t0
    ok = max(errors) <= 0.02 and min(agreements) >= 8 and elapsed < 300
    _report(
        "2 CMLE finite-sample recovery",
        ok,
        f"max-abs error {max(errors):.4f} (tol 0.02), min starts agreeing "
        f"{min(agreements)}/10 (>= 8), {elapsed:.1f}s (< 300s)",
    )
    assert max(errors) <= 0.02
    assert min(agreements) >= 8
    assert elapsed < 300


def test_criterion_3_published_fixture_consistency():
    reconstructed = PUBLISHED_M_X_GIVEN_XSTAR @ PUBLISHED_F_XSTAR
    dev = float(np.abs(reconstructed - PUBLISHED_F_X).max())
    last_row = PUBLISHED_M_X_GIVEN_XSTAR[-1, :]
    ord_ok = bool(np.all(np.diff(last_row) > 0))
    ok = dev <= 5e-4 and ord_ok
    _report(
        "3 published fixture consistency",
        ok,
        f"reporting-matrix x latent marginal off the published reported "
        f"marginal by {dev:.2e} (tol 5e-4); last row "
        f"{last_row.tolist()} strictly increasing: {ord_ok}",
    )
    assert dev <= 5e-4
    assert ord_ok


def test_criterion_4_parameter_count():
    ok = param_count(3, 2, 3) == 17 and param_count(7, 2, 7) == 97
    _report(
        "4 parameter count",
        ok,
        f"(3,2,3) -> {param_count(3, 2, 3)} (expect 17); "
        f"(7,2,7) -> {param_count(7, 2, 7)} (expect 97)",
    )
    assert param_count(3, 2, 3) == 17
    assert param_count(7, 2, 7) == 97


def test_criterion_5_test_size_and_power():
    t0 = time.monotonic()
    runs, b = 500, 499

    [null_model] = make_model(
        GeneratorSpec(misclassification_strength=0.0, eigenvalue_separation=0.2,
                      seed=42)
    )
    size_rejections = 0
    for run_idx in range(runs):
        sample = draw([null_model], [1.0], 5000, seed=10_000 + run_idx).data
        rep = bootstrap_test(sample, b=b, seed=20_000 + run_idx)
        size_rejections += rep.statistic > rep.critical_values[0.95]
    size = size_rejections / runs

    [alt_model] = make_model(
        GeneratorSpec(misclassification_strength=0.5, eigenvalue_separation=0.2,
                      seed=43)
    )
    ts_pop, _ = ts_statistic(population_pmf(alt_model))
    assert ts_pop > 0.01  # the alternative genuinely breaks the factorization
    power_rejections = 0
    for run_idx in range(runs):
        sample = draw([alt_model], [1.0], 5000, seed=30_000 + run_idx).data
        rep = bootstrap_test(sample, b=b, seed=40_000 + run_idx)
        power_rejections += rep.statistic > rep.critical_values[0.95]
    power = power_rejections / runs

    elapsed = time.monotonic() - t0
    ok = 0.02 <= size <= 0.09 and power >= 0.90 and elapsed < 1800
    _report(
        "5 test size and power",
        ok,
        f"size at 5% level {size:.3f} (in [0.02, 0.09]), power {power:.3f} "
        f"(>= 0.90), 500 runs x B=499, {elapsed:.1f}s (< 1800s)",
    )
    assert 0.02 <= size <= 0.09
    assert power >= 0.90
    assert elapsed < 1800


def test_criterion_6_heteroskedastic_probit_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10):
        params = random_probit_params(rng, 5)
        lc = probit_population(params)
        sigma, _ = skedastic(lc)
        fit_ = hetero_ordered_probit(lc, sigma)
        worst = max(worst, float(np.abs(fit_.beta - params.beta).max()))
        worst = max(
            worst,
            max(
                abs(sigma[label] - params.sigma_by_cell[i])
                for i, label in enumerate(lc.labels)
            ),
        )
    unit = probit_population(
        random_probit_params(rng, 5)
    )
    # sigma == 1: rebuild with unit scales, the inversion must return 1 exactly
    p1 = random_probit_params(rng, 5)
    from latentcat.generate import ProbitParams

    unit_params = ProbitParams(
        beta=p1.beta, sigma_by_cell=np.ones(32), cutpoints=p1.cutpoints
    )
    sigma1, _ = skedastic(probit_population(unit_params))
    unit_dev = max(abs(v - 1.0) for v in sigma1.values())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and unit_dev <= 1e-12 and elapsed < 1.0
    _report(
        "6 heteroskedastic probit exactness",
        ok,
        f"worst round-trip error {worst:.2e} (tol 1e-8), unit-scale deviation "
        f"{unit_dev:.2e}, {elapsed:.3f}s (< 1s)",
    )
    assert worst <= 1e-8
    assert unit_dev <= 1e-12
    assert elapsed < 1.0


def test_criterion_7_end_to_end_latent_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    params = random_probit_params(rng, 5)
    spec = GeneratorSpec(
        n_w_cells=32,
        misclassification_strength=0.4,
        eigenvalue_separation=0.25,
        z_mix=0.75,
        latent_uniform_mix=0.85,
        min_singular_value=0.08,
        seed=7,
        probit_params=params,
    )
    models = make_model(spec)
    sample = draw(models, make_cell_weights(32), 100_000, seed=9).data
    cells = list(range(32))
    [fits] = fit_cells([sample], cells, cell_configs(cells, 5, n_starts=10))
    [latent] = parametric_fit([sample], "hoprobit", "latent", [[fit_.model for fit_ in fits]])
    [reported] = parametric_fit([sample], "hoprobit", "reported")
    err_latent = float(np.abs(latent.beta - params.beta).max())
    err_reported = float(np.abs(reported.beta - params.beta).max())
    elapsed = time.monotonic() - t0
    ok = err_latent <= 0.05 and err_reported > err_latent and elapsed < 600
    _report(
        "7 end-to-end latent recovery",
        ok,
        f"latent max-abs coefficient error {err_latent:.4f} (tol 0.05); "
        f"reported-outcome fit error {err_reported:.4f} (strictly larger); "
        f"{elapsed:.1f}s (< 600s)",
    )
    assert err_latent <= 0.05
    assert err_reported > err_latent
    assert elapsed < 600


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


def test_criterion_8_manifest_determinism(tmp_path):
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG)
    synth = tmp_path / "synth.csv"
    schema = tmp_path / "synth.schema.cfg"
    report = tmp_path / "report.json"
    models = tmp_path / "models.json"
    fit_out = tmp_path / "fit.json"
    assert run(["simulate", "--spec", str(spec), "--n", "6000", "--seed", "3",
                "--out", str(synth)]) == 0
    assert run(["test", "--input", str(synth), "--schema", str(schema),
                "--by-cell", "--B", "199", "--seed", "42",
                "--out", str(report)]) == 0
    assert run(["identify", "--input", str(synth), "--schema", str(schema),
                "--by-cell", "--method", "cmle", "--starts", "4", "--seed", "7",
                "--ord", "enforce", "--out", str(models)]) == 0
    assert run(["estimate", "--models", str(models), "--data", str(synth),
                "--schema", str(schema), "--model", "hoprobit", "--target",
                "latent", "--seed", "11", "--out", str(fit_out)]) == 0

    identical = True
    for artifact, outputs in ((synth, (synth, schema)), (report, (report,)),
                              (models, (models,)), (fit_out, (fit_out,))):
        out_dir = tmp_path / f"replay_{artifact.stem}"
        assert run(["replay", str(artifact) + ".manifest.json",
                    "--out-dir", str(out_dir)]) == 0
        for output in outputs:
            replayed = out_dir / output.name
            identical = identical and output.read_bytes() == replayed.read_bytes()
    _report(
        "8 manifest determinism",
        identical,
        "replayed simulate (data and schema sidecar) and test/identify/estimate "
        "artifacts byte-identical to originals",
    )
    assert identical
