import numpy as np
import pytest

from latentcat.citest import ts_statistic
from latentcat.data import tabulate
from latentcat.errors import ConfigurationError, GeneratorError
from latentcat.generate import (
    GeneratorSpec,
    ProbitParams,
    draw,
    make_cell_weights,
    make_model,
    probit_population,
)
from latentcat.spectral import population_pmf

from conftest import PUBLISHED_F_X, published_cell_model


def test_strength_zero_identity_matrix():
    [model] = make_model(GeneratorSpec(misclassification_strength=0.0, seed=1))
    assert np.array_equal(model.m_x_given_xstar, np.eye(3))


def test_strength_zero_truth_equals_reported():
    [model] = make_model(GeneratorSpec(misclassification_strength=0.0, seed=2))
    sample = draw([model], [1.0], 5000, seed=3, keep_truth=True)
    assert sample.truth is not None
    assert np.array_equal(sample.truth, sample.x)


def test_accepted_models_satisfy_assumptions():
    for seed in range(6):
        spec = GeneratorSpec(
            misclassification_strength=0.5,
            eigenvalue_separation=0.15,
            seed=seed,
        )
        [model] = make_model(spec)
        last = model.m_x_given_xstar[-1, :]
        assert np.all(np.diff(last) >= spec.ord_margin)
        gaps = np.diff(np.sort(model.f_y_given_xstar))
        assert gaps.min() >= spec.eigenvalue_separation - 1e-12
        m_xz = (
            model.m_x_given_xstar
            @ np.diag(model.f_xstar)
            @ model.m_z_given_xstar.T
        )
        assert np.linalg.svd(m_xz, compute_uv=False)[-1] > spec.min_singular_value


def test_model_columns_are_stochastic():
    models = make_model(GeneratorSpec(n_w_cells=8, seed=5))
    for model in models:
        model.validate()


def test_generator_error_on_impossible_separation():
    with pytest.raises(GeneratorError):
        make_model(GeneratorSpec(eigenvalue_separation=0.9, seed=6))


def test_draw_matches_population_pmf():
    [model] = make_model(GeneratorSpec(seed=7))
    sample = draw([model], [1.0], 1_000_000, seed=8).data
    emp = tabulate(sample) / sample.n
    pop = population_pmf(model)
    assert np.abs(emp - pop).max() < 0.002


def test_draw_published_model_reported_marginal():
    model = published_cell_model()
    sample = draw([model], [1.0], 50_000, seed=9).data
    f_x = sample.counts.sum(axis=(0, 2, 3)) / sample.n
    assert np.abs(f_x - PUBLISHED_F_X).max() < 0.01


def test_draw_validates_weights():
    [model] = make_model(GeneratorSpec(seed=10))
    with pytest.raises(ConfigurationError):
        draw([model], [0.7], 100, seed=1)
    with pytest.raises(ConfigurationError):
        draw([model], [0.5, 0.5], 100, seed=1)


def test_conditional_independence_given_latent_is_exact():
    # The population pmf of (latent, y, z) factorizes by construction, so the
    # factorization-gap statistic conditioned on the latent state is zero.
    [model] = make_model(GeneratorSpec(misclassification_strength=0.6, seed=11))
    b2 = np.stack([1 - model.f_y_given_xstar, model.f_y_given_xstar])
    probs = np.einsum("ys,zs,s->syz", b2, model.m_z_given_xstar, model.f_xstar)
    stat, _ = ts_statistic(probs)
    assert stat == pytest.approx(0.0, abs=1e-15)


def test_misclassification_rate_converges():
    [model] = make_model(GeneratorSpec(misclassification_strength=0.5, seed=12))
    expected = 1.0 - float(
        np.sum(np.diag(model.m_x_given_xstar) * model.f_xstar)
    )
    sample = draw([model], [1.0], 400_000, seed=13, keep_truth=True)
    rate = float(np.mean(sample.truth != sample.x))
    assert abs(rate - expected) < 0.005


def test_make_cell_weights():
    assert np.allclose(make_cell_weights(8), 1 / 8)


def test_probit_population_constant_beta_zero():
    params = ProbitParams(
        beta=np.array([0.5, 0.0, 0.0]),
        sigma_by_cell=np.ones(4),
        cutpoints=np.array([0.0, 1.0]),
    )
    lc = probit_population(params)
    assert np.allclose(lc.probs, lc.probs[0])


def test_probit_population_probs_sum_to_one():
    rng = np.random.default_rng(14)
    from latentcat.generate import random_probit_params

    params = random_probit_params(rng, 4, n_levels=5)
    lc = probit_population(params)
    assert np.allclose(lc.probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_probit_params_validation():
    with pytest.raises(ConfigurationError):
        ProbitParams(
            beta=np.array([0.5]), sigma_by_cell=np.ones(2),
            cutpoints=np.array([0.0, 0.9]),
        )
    with pytest.raises(ConfigurationError):
        ProbitParams(
            beta=np.array([0.5]), sigma_by_cell=np.array([1.0, -1.0]),
            cutpoints=np.array([0.0, 1.0]),
        )


def test_generator_spec_validation():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(misclassification_strength=1.5)
    with pytest.raises(ConfigurationError):
        GeneratorSpec(n_w_cells=3)
    params = ProbitParams(
        beta=np.array([0.5, 0.1]), sigma_by_cell=np.ones(2),
        cutpoints=np.array([0.0, 1.0]),
    )
    with pytest.raises(ConfigurationError):
        GeneratorSpec(n_w_cells=4, probit_params=params)


def test_probit_params_drive_latent_marginals():
    params = ProbitParams(
        beta=np.array([0.5, 0.3]),
        sigma_by_cell=np.array([1.0, 0.7]),
        cutpoints=np.array([0.0, 1.0]),
    )
    spec = GeneratorSpec(n_w_cells=2, seed=15, probit_params=params)
    models = make_model(spec)
    lc = probit_population(params)
    for model, probs in zip(models, lc.probs):
        assert np.allclose(model.f_xstar, probs, atol=1e-12)
