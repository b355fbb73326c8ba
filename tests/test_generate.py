import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcat.citest import ts_statistic
from latentcat.data import Dataset, cell_labels, tabulate
from latentcat.errors import ConfigurationError, GeneratorError
from latentcat.generate import (
    GeneratorSpec,
    ProbitParams,
    draw,
    make_cell_weights,
    make_model,
    probit_population,
)
from latentcat.spectral import MisclassificationModel, population_pmf

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


def reference_draw(models, cell_weights, n, seed, keep_truth=False):
    """``draw`` as it was before it grouped the records by cell: a boolean
    scan of all records per cell, and an (S, m) cdf table summed per code."""
    weights = np.asarray(cell_weights, dtype=float)
    n_cells = len(models)
    n_cols = max(n_cells - 1, 0).bit_length()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x647277)))
    w = rng.choice(n_cells, size=n, p=weights)
    xstar = np.empty(n, dtype=np.int64)
    x = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    z = np.empty(n, dtype=np.int64)

    def sample_codes(cdf_cols, states, u):
        cdf = cdf_cols.copy()
        cdf[-1, :] = 1.0
        picked = cdf[:, states]
        return 1 + (u[None, :] > picked).sum(axis=0)

    for cell, model in enumerate(models):
        mask = w == cell
        m = int(mask.sum())
        if m == 0:
            continue
        u_star = rng.uniform(size=m)
        cdf_star = np.cumsum(model.f_xstar)[:, None]
        cdf_star[-1, 0] = 1.0
        states = (u_star[None, :] > cdf_star).sum(axis=0)
        xstar[mask] = states + 1
        x[mask] = sample_codes(np.cumsum(model.m_x_given_xstar, axis=0), states,
                               rng.uniform(size=m))
        y[mask] = (rng.uniform(size=m) < model.f_y_given_xstar[states]).astype(np.int64)
        z[mask] = sample_codes(np.cumsum(model.m_z_given_xstar, axis=0), states,
                               rng.uniform(size=m))

    w = w.astype(np.int64)
    data = Dataset.from_records(
        x, y, z, w, support=(models[0].s_x, 2, models[0].s_z),
        w_columns=tuple(f"w{k + 1}" for k in range(n_cols)),
        w_labels=cell_labels(n_cols),
    )
    return data, x, y, z, w, (xstar if keep_truth else None)


@st.composite
def draw_inputs(draw_from):
    """Random cell models (not generator-admissible ones: ``draw`` reads only
    their pmfs), weights with some cells at zero, and a draw's arguments."""
    n_cells = draw_from(st.integers(1, 64))
    s_x, s_z = draw_from(st.integers(2, 5)), draw_from(st.integers(2, 5))
    rng = np.random.default_rng(draw_from(st.integers(0, 2**32 - 1)))
    models = [MisclassificationModel(
        m_x_given_xstar=rng.dirichlet(np.ones(s_x), size=s_x).T,
        f_y_given_xstar=rng.uniform(size=s_x),
        m_z_given_xstar=rng.dirichlet(np.ones(s_z), size=s_x).T,
        f_xstar=rng.dirichlet(np.ones(s_x)),
    ) for _ in range(n_cells)]
    weights = rng.uniform(size=n_cells) * (rng.uniform(size=n_cells) < 0.7)
    weights[rng.integers(n_cells)] += 1.0  # at least one cell is populated
    n = draw_from(st.one_of(st.integers(1, 50), st.integers(1, 20_000)))
    return models, weights / weights.sum(), n, draw_from(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(draw_inputs(), st.booleans())
def test_draw_equals_the_per_cell_scan_bit_for_bit(inputs, keep_truth):
    models, weights, n, seed = inputs
    sample = draw(models, weights, n, seed=seed, keep_truth=keep_truth)
    data, x, y, z, w, truth = reference_draw(models, weights, n, seed, keep_truth)
    for got, want in ((sample.x, x), (sample.y, y), (sample.z, z), (sample.w, w),
                      (sample.data.counts, data.counts)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if keep_truth:
        assert sample.truth.dtype == truth.dtype and np.array_equal(sample.truth, truth)
    else:
        assert sample.truth is None
    assert (sample.data.w_columns, sample.data.w_labels) == (data.w_columns,
                                                             data.w_labels)
