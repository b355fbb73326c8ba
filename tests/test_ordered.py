from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special
from scipy.stats import norm

from latentcat.data import Dataset, cell_rows
from latentcat.errors import ConfigurationError, DomainError, EstimationError
from latentcat.generate import (
    GeneratorSpec,
    ProbitParams,
    draw,
    make_model,
    probit_population,
    random_probit_params,
)
from latentcat.ordered import (
    LatentConditional,
    ParametricFit,
    _cell_design,
    _clamped_ppf,
    _norm_cdf,
    exponential_skedastic_probit,
    hetero_ordered_probit,
    homo_ordered_probit,
    latent_conditional,
    linear_projection,
    ordered_probit_mle,
    reported_conditional,
    skedastic,
)


def lc_from_probs(prob_rows, weights=None, dim_names=()):
    n = len(prob_rows)
    weights = [1.0 / n] * n if weights is None else weights
    return LatentConditional(q=cell_rows(max(n - 1, 0).bit_length())[:n],
                             weights=weights, probs=prob_rows,
                             labels=tuple(str(c) for c in range(n)),
                             column_names=dim_names)


# ---------------------------------------------------------------------------
# latent_conditional / reported_conditional
# ---------------------------------------------------------------------------


def test_latent_conditional_single_cell():
    [model] = make_model(GeneratorSpec(seed=1))
    lc = latent_conditional([model], [1.0])
    assert lc.labels == ("0",)
    assert lc.weights.tolist() == [1.0]
    assert np.allclose(lc.probs[0], model.f_xstar)


def test_latent_conditional_equal_cells_equal_means():
    [model] = make_model(GeneratorSpec(seed=2))
    lc = latent_conditional([model, model], [0.5, 0.5])
    levels = np.arange(1, 4)
    means = lc.probs @ levels
    assert means[0] == pytest.approx(means[1])


@pytest.mark.parametrize("change,message", [
    ({"q": np.empty((0, 2)), "weights": [], "probs": np.empty((0, 3)), "labels": ()},
     "no covariate cells"),
    ({"probs": [[0.2, 0.8], [0.2, 0.3, 0.5]]}, "ragged cell dimensions"),
    ({"probs": [[0.2, 0.8, 0.0, 0.0], [0.2, 0.3, 0.5]]}, "ragged cell dimensions"),
    ({"q": [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]}, "ragged cell dimensions"),
    ({"weights": [[0.5, 0.5]]}, "ragged cell dimensions"),
    ({"q": [[1.0, 0.0], [0.0, 1.0]]}, "intercept slot"),
    ({"probs": [[0.2, 0.3, 0.5], [0.2, 0.3, 0.6]]}, "cell 'A' pmf is invalid"),
    ({"probs": [[-0.1, 0.6, 0.5], [0.2, 0.3, 0.5]]}, "cell '0' pmf is invalid"),
    ({"weights": [0.5, 0.6]}, "cell weights sum to"),
    ({"labels": ("0", "0")}, "cell labels must be unique"),
    ({"column_names": ("const",)}, "column_names must match"),
])
def test_latent_conditional_refusals(change, message):
    arrays = {"q": [[1.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5],
              "probs": [[0.2, 0.3, 0.5], [0.1, 0.4, 0.5]], "labels": ("0", "A")}
    with pytest.raises(ConfigurationError, match=message):
        LatentConditional(**{**arrays, **change})


def test_latent_conditional_is_stacked_and_read_only():
    models = make_model(GeneratorSpec(n_w_cells=2, seed=3))
    lc = latent_conditional(models, [0.25, 0.75], column_names=("const", "w1"),
                            labels=("0", "A"))
    assert lc.q.tolist() == [[1.0, 0.0], [1.0, 1.0]]
    assert lc.weights.tolist() == [0.25, 0.75]
    assert np.array_equal(lc.probs, [m.f_xstar for m in models])
    assert lc.labels == ("0", "A")
    for arr in (lc.q, lc.weights, lc.probs):
        assert not arr.flags.writeable
    ragged = [models[0], replace(models[1], f_xstar=np.full(4, 0.25))]
    with pytest.raises(ConfigurationError, match="ragged cell dimensions"):
        latent_conditional(ragged, [0.5, 0.5])


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
    assert len(lc.labels) == 32
    assert lc.weights.sum() == pytest.approx(1.0)
    assert np.allclose(lc.weights, empirical)


def test_reported_conditional_from_records():
    spec = GeneratorSpec(n_w_cells=2, seed=7)
    models = make_model(spec)
    sample = draw(models, [0.5, 0.5], 5000, seed=8)
    lc = reported_conditional(sample.data)
    assert len(lc.labels) == 2
    hist = np.bincount(sample.x[sample.w == 0] - 1, minlength=3)
    assert np.allclose(lc.probs[0], hist / hist.sum())


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
    q, w, p = lc.q, lc.weights, lc.probs
    resid = p @ np.arange(1, 4) - q @ fit_.beta
    moment = (q * (w * resid)[:, None]).sum(axis=0)
    assert np.abs(moment).max() < 1e-10


def test_linear_projection_rank_deficiency_names_columns():
    lc = LatentConditional(
        q=[[1.0, 0, 0], [1.0, 1, 1]],  # duplicated covariate
        weights=[0.5, 0.5],
        probs=[[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]],
        labels=("0", "1"),
        column_names=("const", "dup1", "dup2"),
    )
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
    lc = probit_population(params)
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
    lc = probit_population(params)
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


@pytest.mark.parametrize("clamp", [float("nan"), -1.0, 0.0, 0.5, 0.7, float("inf")])
def test_clamp_outside_its_domain_is_refused(clamp):
    lc = lc_from_probs([[0.2, 0.5, 0.3], [0.3, 0.4, 0.3]])
    with pytest.raises(DomainError, match="clamp must lie in"):
        skedastic(lc, clamp=clamp)
    with pytest.raises(DomainError, match="clamp must lie in"):
        hetero_ordered_probit(lc, dict.fromkeys(lc.labels, 1.0), clamp=clamp)


def test_skedastic_needs_three_levels():
    lc = LatentConditional(q=[[1.0]], weights=[1.0], probs=[[0.4, 0.6]], labels=("0",))
    with pytest.raises(ConfigurationError):
        skedastic(lc)


# ---------------------------------------------------------------------------
# hetero / homo ordered probit
# ---------------------------------------------------------------------------


def test_hetero_probit_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(5):
        params = random_probit_params(rng, 5)
        lc = probit_population(params)
        sigma, _ = skedastic(lc)
        fit_ = hetero_ordered_probit(lc, sigma)
        assert np.abs(fit_.beta - params.beta).max() < 1e-10
        assert fit_.norm_identity_max_dev < 1e-10
        assert fit_.cutpoints.tolist() == [0.0, 1.0]


def test_hetero_probit_second_branch_equivalent():
    rng = np.random.default_rng(11)
    params = random_probit_params(rng, 3)
    lc = probit_population(params)
    sigma, _ = skedastic(lc)
    first = hetero_ordered_probit(lc, sigma)
    # The same coefficients solve the normal equations of the second
    # cutpoint's outcome 1 - sigma(q) * PhiInv(P[V<=2|q]).
    q, w, p = lc.q, lc.weights, lc.probs
    sig = np.asarray([sigma[label] for label in lc.labels])
    second = 1.0 - sig * norm.ppf(p[:, 0] + p[:, 1])
    beta = np.linalg.solve((q * w[:, None]).T @ q, (q * w[:, None]).T @ second)
    assert np.allclose(first.beta, beta, atol=1e-10)
    assert first.norm_identity_max_dev < 1e-10


def test_hetero_probit_recovers_extra_cutpoints():
    rng = np.random.default_rng(12)
    params = random_probit_params(rng, 3, n_levels=4)
    lc = probit_population(params)
    sigma, _ = skedastic(lc)
    fit_ = hetero_ordered_probit(lc, sigma)
    assert np.abs(fit_.beta - params.beta).max() < 1e-9
    assert fit_.cutpoints[2] == pytest.approx(params.cutpoints[2], abs=1e-9)
    assert fit_.cutpoint_spread < 1e-9


def test_hetero_with_unit_scale_equals_homo_closed_form():
    rng = np.random.default_rng(13)
    probs = rng.dirichlet(np.ones(3), size=4)
    lc = lc_from_probs(list(probs))
    unit = dict.fromkeys(lc.labels, 1.0)
    hetero = hetero_ordered_probit(lc, unit)
    homo = homo_ordered_probit(lc)
    assert np.allclose(hetero.beta, homo.beta, atol=1e-12)


def test_homo_probit_closed_form_unit_scale():
    params = ProbitParams(
        beta=np.array([0.3, 0.12, -0.08]),
        sigma_by_cell=np.ones(4),
        cutpoints=np.array([0.0, 1.0]),
    )
    lc = probit_population(params)
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
    fit_ = ordered_probit_mle(data)
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
    reported_mle = ordered_probit_mle(data)
    lc = reported_conditional(data)
    latent_closed = homo_ordered_probit(lc, target="latent")
    assert np.abs(reported_mle.beta - latent_closed.beta).max() < 0.02


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


# ---------------------------------------------------------------------------
# Fisher scoring against the L-BFGS-B fits it replaced
# ---------------------------------------------------------------------------


def test_normal_cdf_and_ppf_match_scipy():
    x = np.concatenate([np.linspace(-38.0, 38.0, 200_001), [-np.inf, np.inf]])
    assert np.abs(_norm_cdf(x) - special.ndtr(x)).max() <= 1e-14
    u = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 100_001),
                        np.geomspace(1e-6, 0.5, 10_001), 1 - np.geomspace(1e-6, 0.5, 10_001)])
    ppf, events = _clamped_ppf(u, 1e-6)
    assert events == 0
    assert np.abs(ppf - special.ndtri(u)).max() <= 1e-14


def _reference_nll(index, scale, cuts, counts):
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    z = (edges[None, :] - index[:, None]) / scale[:, None]
    probs = np.maximum(np.diff(special.ndtr(z), axis=1), 1e-300)
    return -float(np.sum(counts * np.log(probs)))


def lbfgs_ordered_probit_mle(data: Dataset) -> ParametricFit:
    """``ordered_probit_mle`` as fitted by scipy's L-BFGS-B (the reference)."""
    q, counts, names = _cell_design(data)
    n_levels = counts.shape[1]
    k = q.shape[1] - 1

    def unpack(theta):
        slopes = theta[:k]
        c1 = theta[k]
        cuts = c1 + np.concatenate(([0.0], np.cumsum(np.exp(theta[k + 1 :]))))
        return slopes, cuts

    def nll(theta):
        slopes, cuts = unpack(theta)
        index = q[:, 1:] @ slopes
        return _reference_nll(index, np.ones(q.shape[0]), cuts, counts)

    theta0 = np.zeros(k + n_levels - 1)
    theta0[k] = -0.5
    res = optimize.minimize(nll, theta0, method="L-BFGS-B",
                            options={"maxiter": 2000, "ftol": 1e-13})
    if not res.success:
        raise EstimationError(f"ordered-probit MLE did not converge: {res.message}")
    slopes, cuts = unpack(res.x)
    gap = cuts[1] - cuts[0]
    beta = np.concatenate(([-cuts[0] / gap], slopes / gap))
    norm_cuts = (cuts - cuts[0]) / gap
    return ParametricFit(
        kind="ordered-probit-homoskedastic",
        target="reported",
        beta=beta,
        column_names=names,
        cutpoints=norm_cuts,
        scale=1.0 / gap,
    )


def lbfgs_exponential_skedastic_probit(data: Dataset) -> ParametricFit:
    """``exponential_skedastic_probit`` as fitted by scipy's L-BFGS-B (the reference)."""
    q, counts, names = _cell_design(data)
    n_levels = counts.shape[1]
    dim = q.shape[1]

    def unpack(theta):
        beta = theta[:dim]
        gamma = theta[dim : 2 * dim]
        extra = np.exp(theta[2 * dim :])
        cuts = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(extra)))
        return beta, gamma, cuts

    def nll(theta):
        beta, gamma, cuts = unpack(theta)
        index = q @ beta
        scale = np.exp(np.clip(q @ gamma, -20, 20))
        return _reference_nll(index, scale, cuts, counts)

    theta0 = np.zeros(2 * dim + max(n_levels - 3, 0))
    theta0[0] = 0.5
    res = optimize.minimize(nll, theta0, method="L-BFGS-B",
                            options={"maxiter": 5000, "ftol": 1e-13})
    if not res.success:
        raise EstimationError(
            f"heteroskedastic probit MLE did not converge: {res.message}"
        )
    beta, gamma, cuts = unpack(res.x)
    rows = cell_rows(len(data.w_columns))
    sigma = {label: float(np.exp(row @ gamma))
             for label, row in zip(data.w_labels, rows)}
    return ParametricFit(
        kind="ordered-probit-heteroskedastic",
        target="reported",
        beta=beta,
        column_names=names,
        cutpoints=cuts,
        sigma_by_cell=sigma,
    )


def fit_loglik(fit_: ParametricFit, data: Dataset) -> float:
    """Log-likelihood of a reported-outcome ML fit on the populated cells."""
    q, counts, _ = _cell_design(data)
    if fit_.sigma_by_cell is None:
        scale = np.full(q.shape[0], fit_.scale)
    else:
        labels = np.asarray(data.w_labels)[data.cell_counts() > 0]
        scale = np.asarray([fit_.sigma_by_cell[label] for label in labels])
    return -_reference_nll(q @ fit_.beta, scale, fit_.cutpoints, counts)


def probit_counts(params, n: int, seed: int) -> Dataset:
    """n reported outcomes drawn from the probit's cell pmfs, as a Dataset."""
    n_cols = params.beta.size - 1
    lc = probit_population(params)
    rng = np.random.default_rng(seed)
    per_cell = rng.multinomial(n, lc.weights)
    counts = np.zeros((len(lc.labels), lc.n_levels, 2, 1), dtype=np.int64)
    for c, (m, probs) in enumerate(zip(per_cell, lc.probs)):
        counts[c, :, 0, 0] = rng.multinomial(m, probs)
    letters = tuple(chr(ord("A") + k) for k in range(n_cols))
    return Dataset(counts, w_columns=letters, w_labels=lc.labels)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(1, 5),
       n_levels=st.integers(3, 5), n=st.sampled_from([2_000, 20_000, 200_000]))
def test_fisher_scoring_matches_the_lbfgs_reference(seed, n_cols, n_levels, n):
    """Both ML benchmarks reach at least the reference's optimum, at its betas."""
    rng = np.random.default_rng(seed)
    data = probit_counts(random_probit_params(rng, n_cols, n_levels), n, seed)
    for fit_ml, reference in (
        (ordered_probit_mle, lbfgs_ordered_probit_mle),
        (exponential_skedastic_probit, lbfgs_exponential_skedastic_probit),
    ):
        got = fit_ml(data)
        try:
            ref = reference(data)
        except EstimationError:
            continue  # L-BFGS-B stopped abnormally (1 of 300 draws); scoring fitted
        ref_loglik = fit_loglik(ref, data)
        assert fit_loglik(got, data) >= ref_loglik - 1e-9 * abs(ref_loglik)
        assert np.abs(got.beta - ref.beta).max() <= 1e-5


def test_fisher_scoring_failures_are_estimation_errors(monkeypatch):
    from latentcat import ordered

    rng = np.random.default_rng(17)
    data = probit_counts(random_probit_params(rng, 2), 5_000, 17)
    # Covariate B is 0 in every populated cell, so its slope is not identified.
    lone_b = Dataset(data.counts * (cell_rows(2)[:, 2] == 0)[:, None, None, None],
                     data.w_columns, data.w_labels)
    for fit_ml in (ordered_probit_mle, exponential_skedastic_probit):
        with pytest.raises(EstimationError, match="singular information matrix"):
            fit_ml(lone_b)
        with monkeypatch.context() as patch:
            patch.setattr(ordered, "SCORING_MAX_ITERATIONS", 1)
            with pytest.raises(EstimationError, match="iteration cap of 1 reached"):
                fit_ml(data)
        with monkeypatch.context() as patch:
            patch.setattr(ordered, "SCORING_MAX_HALVINGS", 0)
            with pytest.raises(EstimationError, match="line search failed"):
                fit_ml(data)
