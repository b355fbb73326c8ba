import numpy as np
import pytest
from scipy.stats import norm

from latentcat.errors import ConfigurationError, EstimationError
from latentcat.generate import (
    GeneratorSpec,
    ProbitParams,
    all_binary_cells,
    draw,
    make_model,
    probit_population,
    random_probit_params,
)
from latentcat.ordered import (
    CellConditional,
    LatentConditional,
    exponential_skedastic_probit,
    hetero_ordered_probit,
    homo_ordered_probit,
    latent_conditional,
    linear_projection,
    reported_conditional,
    skedastic,
)


def lc_from_probs(prob_rows, weights=None, dim_names=()):
    n = len(prob_rows)
    n_cols = max(n - 1, 0).bit_length()
    weights = [1.0 / n] * n if weights is None else weights
    cells = []
    for c, probs in enumerate(prob_rows):
        bits = [(c >> k) & 1 for k in range(n_cols)]
        cells.append(
            CellConditional(
                q_tilde=np.asarray([1.0, *bits]),
                weight=weights[c],
                probs=np.asarray(probs, dtype=float),
                label=str(c),
            )
        )
    return LatentConditional(cells=tuple(cells), column_names=dim_names)


# ---------------------------------------------------------------------------
# latent_conditional / reported_conditional
# ---------------------------------------------------------------------------


def test_latent_conditional_single_cell():
    [model] = make_model(GeneratorSpec(seed=1))
    lc = latent_conditional([model], [1.0])
    assert len(lc.cells) == 1
    assert lc.cells[0].weight == 1.0
    assert np.allclose(lc.cells[0].probs, model.f_xstar)


def test_latent_conditional_equal_cells_equal_means():
    from dataclasses import replace

    [model] = make_model(GeneratorSpec(seed=2))
    models = [replace(model, w_cell="0"), replace(model, w_cell="A")]
    lc = latent_conditional(models, [0.5, 0.5])
    levels = np.arange(1, 4)
    means = [c.probs @ levels for c in lc.cells]
    assert means[0] == pytest.approx(means[1])


def test_latent_conditional_missing_cell():
    [model] = make_model(GeneratorSpec(seed=3))
    with pytest.raises(ConfigurationError):
        latent_conditional([model, None], [0.5, 0.5])


def test_latent_conditional_weights_match_empirical():
    spec = GeneratorSpec(n_w_cells=32, seed=4)
    models = make_model(spec)
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.full(32, 12.0))
    sample = draw(models, weights, 60_000, seed=6).data
    empirical = sample.cell_counts() / sample.n
    lc = latent_conditional(models, empirical)
    assert len(lc.cells) == 32
    assert sum(c.weight for c in lc.cells) == pytest.approx(1.0)
    assert np.allclose([c.weight for c in lc.cells], empirical)


def test_reported_conditional_from_records():
    spec = GeneratorSpec(n_w_cells=2, seed=7)
    models = make_model(spec)
    sample = draw(models, [0.5, 0.5], 5000, seed=8)
    lc = reported_conditional(sample.data)
    assert len(lc.cells) == 2
    hist = np.bincount(sample.x[sample.w == 0] - 1, minlength=3)
    assert np.allclose(lc.cells[0].probs, hist / hist.sum())


# ---------------------------------------------------------------------------
# linear_projection
# ---------------------------------------------------------------------------


def test_linear_projection_constant_cells():
    probs = [[0.2, 0.3, 0.5]] * 4
    fit_ = linear_projection(lc_from_probs(probs))
    expected_mean = np.dot([0.2, 0.3, 0.5], [1, 2, 3])
    assert fit_.beta[0] == pytest.approx(expected_mean)
    assert np.allclose(fit_.beta[1:], 0.0, atol=1e-12)


def test_linear_projection_two_group_slope():
    probs = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]]
    weights = [0.4, 0.6]
    fit_ = linear_projection(lc_from_probs(probs, weights))
    m0 = np.dot(probs[0], [1, 2, 3])
    m1 = np.dot(probs[1], [1, 2, 3])
    assert fit_.beta[1] == pytest.approx(m1 - m0)
    assert fit_.beta[0] == pytest.approx(m0)


def test_linear_projection_residual_orthogonality():
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(3), size=8)
    weights = rng.dirichlet(np.full(8, 5.0))
    lc = lc_from_probs(list(probs), list(weights))
    fit_ = linear_projection(lc)
    q, w, p = lc.design()
    resid = p @ np.arange(1, 4) - q @ fit_.beta
    moment = (q * (w * resid)[:, None]).sum(axis=0)
    assert np.abs(moment).max() < 1e-10


def test_linear_projection_rank_deficiency_names_columns():
    probs = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]]
    cells = []
    for c, p in enumerate(probs):
        cells.append(
            CellConditional(
                q_tilde=np.asarray([1.0, c, c]),  # duplicated covariate
                weight=0.5,
                probs=np.asarray(p),
                label=str(c),
            )
        )
    lc = LatentConditional(cells=tuple(cells), column_names=("const", "dup1", "dup2"))
    with pytest.raises(EstimationError, match="dup"):
        linear_projection(lc)


# ---------------------------------------------------------------------------
# skedastic
# ---------------------------------------------------------------------------


def test_skedastic_unit_scale_exact():
    params = ProbitParams(
        beta=np.array([0.4, 0.15, -0.2]),
        sigma_by_cell=np.ones(4),
        cutpoints=np.array([0.0, 1.0]),
    )
    lc = probit_population(params, all_binary_cells(2))
    sigma, events = skedastic(lc)
    assert events == 0
    for value in sigma.values():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_skedastic_recovers_cell_scales():
    # scale 0.5 + 1.0 * q1 over one binary covariate
    params = ProbitParams(
        beta=np.array([0.5, 0.1]),
        sigma_by_cell=np.array([0.5, 1.5]),
        cutpoints=np.array([0.0, 1.0]),
    )
    lc = probit_population(params, all_binary_cells(1))
    sigma, _ = skedastic(lc)
    assert sigma["0"] == pytest.approx(0.5, abs=1e-10)
    assert sigma["A"] == pytest.approx(1.5, abs=1e-10)


def test_skedastic_clamps_boundary_cell():
    lc = lc_from_probs([[0.0, 0.6, 0.4], [0.2, 0.5, 0.3]])
    sigma, events = skedastic(lc, clamp=1e-6)
    assert events >= 1
    assert all(np.isfinite(v) and v > 0 for v in sigma.values())


def test_skedastic_nonpositive_scale_error():
    lc = lc_from_probs([[1.0 - 2e-10, 1e-10, 1e-10], [0.2, 0.5, 0.3]])
    with pytest.raises(EstimationError, match="cell"):
        skedastic(lc, clamp=1e-6)


def test_skedastic_needs_three_levels():
    cells = (
        CellConditional(q_tilde=np.array([1.0]), weight=1.0,
                        probs=np.array([0.4, 0.6]), label="0"),
    )
    with pytest.raises(ConfigurationError):
        skedastic(LatentConditional(cells=cells))


# ---------------------------------------------------------------------------
# hetero / homo ordered probit
# ---------------------------------------------------------------------------


def test_hetero_probit_round_trip():
    rng = np.random.default_rng(10)
    cells = all_binary_cells(5)
    for _ in range(5):
        params = random_probit_params(rng, 5)
        lc = probit_population(params, cells)
        sigma, _ = skedastic(lc)
        fit_ = hetero_ordered_probit(lc, sigma)
        assert np.abs(fit_.beta - params.beta).max() < 1e-10
        assert fit_.norm_identity_max_dev < 1e-10
        assert fit_.cutpoints.tolist() == [0.0, 1.0]


def test_hetero_probit_second_branch_equivalent():
    rng = np.random.default_rng(11)
    params = random_probit_params(rng, 3)
    lc = probit_population(params, all_binary_cells(3))
    sigma, _ = skedastic(lc)
    first = hetero_ordered_probit(lc, sigma, branch="first")
    second = hetero_ordered_probit(lc, sigma, branch="second")
    assert np.allclose(first.beta, second.beta, atol=1e-10)


def test_hetero_probit_recovers_extra_cutpoints():
    rng = np.random.default_rng(12)
    params = random_probit_params(rng, 3, n_levels=4)
    lc = probit_population(params, all_binary_cells(3))
    sigma, _ = skedastic(lc)
    fit_ = hetero_ordered_probit(lc, sigma)
    assert np.abs(fit_.beta - params.beta).max() < 1e-9
    assert fit_.cutpoints[2] == pytest.approx(params.cutpoints[2], abs=1e-9)
    assert fit_.cutpoint_spread < 1e-9


def test_hetero_with_unit_scale_equals_homo_closed_form():
    rng = np.random.default_rng(13)
    probs = rng.dirichlet(np.ones(3), size=4)
    lc = lc_from_probs(list(probs))
    unit = {c.label: 1.0 for c in lc.cells}
    hetero = hetero_ordered_probit(lc, unit)
    homo = homo_ordered_probit(lc)
    assert np.allclose(hetero.beta, homo.beta, atol=1e-12)


def test_homo_probit_closed_form_unit_scale():
    params = ProbitParams(
        beta=np.array([0.3, 0.12, -0.08]),
        sigma_by_cell=np.ones(4),
        cutpoints=np.array([0.0, 1.0]),
    )
    lc = probit_population(params, all_binary_cells(2))
    fit_ = homo_ordered_probit(lc)
    assert np.abs(fit_.beta - params.beta).max() < 1e-10
    assert fit_.kind == "ordered-probit-homoskedastic"
    assert fit_.scale == 1.0


def probit_dataset(params, n, seed, strength=0.0):
    n_cells = params.sigma_by_cell.size
    n_cols = (n_cells - 1).bit_length()
    spec = GeneratorSpec(
        n_w_cells=n_cells,
        misclassification_strength=strength,
        eigenvalue_separation=0.25,
        seed=seed,
        probit_params=params,
    )
    models = make_model(spec)
    return draw(models, np.full(n_cells, 1 / n_cells), n, seed=seed + 1).data


def test_homo_probit_mle_recovers_truth():
    params = ProbitParams(
        beta=np.array([0.45, 0.2, -0.15]),
        sigma_by_cell=np.full(4, 0.8),
        cutpoints=np.array([0.0, 1.0]),
    )
    data = probit_dataset(params, 20_000, seed=13)
    fit_ = homo_ordered_probit(data, target="reported")
    # se of a cell mean at n=5k scales like 0.02; allow 4 sigma
    assert np.abs(fit_.beta - params.beta).max() < 0.08
    assert fit_.scale == pytest.approx(0.8, abs=0.08)


def test_latent_and_reported_agree_without_misclassification():
    params = ProbitParams(
        beta=np.array([0.5, 0.15, -0.1]),
        sigma_by_cell=np.ones(4),
        cutpoints=np.array([0.0, 1.0]),
    )
    data = probit_dataset(params, 40_000, seed=14, strength=0.0)
    reported_mle = homo_ordered_probit(data, target="reported")
    lc = reported_conditional(data)
    latent_closed = homo_ordered_probit(lc, target="latent")
    assert np.abs(reported_mle.beta - latent_closed.beta).max() < 0.02


def test_homo_probit_mle_requires_reported_target():
    params = ProbitParams(
        beta=np.array([0.5, 0.1]), sigma_by_cell=np.ones(2),
        cutpoints=np.array([0.0, 1.0]),
    )
    data = probit_dataset(params, 1000, seed=15)
    with pytest.raises(ConfigurationError):
        homo_ordered_probit(data, target="latent")


def test_exponential_skedastic_probit_benchmark():
    gamma0, gamma1 = -0.2, 0.45
    sigma = np.exp(gamma0 + gamma1 * np.array([0.0, 1.0]))
    params = ProbitParams(
        beta=np.array([0.5, 0.25]),
        sigma_by_cell=sigma,
        cutpoints=np.array([0.0, 1.0]),
    )
    data = probit_dataset(params, 40_000, seed=16)
    fit_ = exponential_skedastic_probit(data)
    assert np.abs(fit_.beta - params.beta).max() < 0.08
    fitted_sigma = np.array([fit_.sigma_by_cell["0"], fit_.sigma_by_cell["A"]])
    assert np.abs(fitted_sigma - sigma).max() < 0.1


def test_effect_scale_labels():
    probs = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]]
    lc = lc_from_probs(probs)
    assert "mean" in linear_projection(lc).effect_scale
    sigma, _ = skedastic(lc)
    assert "median" in hetero_ordered_probit(lc, sigma).effect_scale
