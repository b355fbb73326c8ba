import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special
from scipy.stats import norm

from latentcat.data import Dataset, cell_labels, cell_rows, design_columns
from latentcat.errors import ConfigurationError, EstimationError
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
    _chained_cuts,
    _clamped_ppf,
    _norm_cdf,
    _pmf_and_jacobian,
    _solve,
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


def cell_dataset(cell_counts, support=(3, 2, 3)):
    """A Dataset whose covariate cells hold ``cell_counts`` records, all at
    codes (1, 0, 1), over covariates w1, w2, ... labelled A, B, ..."""
    counts = np.zeros((len(cell_counts), *support), dtype=np.int64)
    counts[:, 0, 0, 0] = cell_counts
    n_cols = (len(cell_counts) - 1).bit_length()
    return Dataset(counts, tuple(f"w{k}" for k in range(1, n_cols + 1)), cell_labels(n_cols))


def test_latent_conditional_single_cell():
    [model] = make_model(GeneratorSpec(seed=1))
    lc = latent_conditional([model], cell_dataset([7]))
    assert lc.labels == ("0",)
    assert lc.column_names == ("const",)
    assert lc.weights.tolist() == [1.0]
    assert np.allclose(lc.probs[0], model.f_xstar)


def test_latent_conditional_equal_cells_equal_means():
    [model] = make_model(GeneratorSpec(seed=2))
    lc = latent_conditional([model, model], cell_dataset([5, 5]))
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
    data = cell_dataset([25, 75])
    lc = latent_conditional(models, data)
    assert lc.q.tolist() == [[1.0, 0.0], [1.0, 1.0]]
    assert lc.weights.tolist() == [0.25, 0.75]
    assert np.array_equal(lc.probs, [m.f_xstar for m in models])
    assert lc.labels == ("0", "A")
    assert lc.column_names == ("const", "w1")
    for arr in (lc.q, lc.weights, lc.probs):
        assert not arr.flags.writeable
    ragged = [models[0], replace(models[1], f_xstar=np.full(4, 0.25))]
    with pytest.raises(ConfigurationError, match="ragged cell dimensions"):
        latent_conditional(ragged, data)


def test_latent_conditional_missing_cell():
    [model] = make_model(GeneratorSpec(seed=3))
    data = cell_dataset([5, 5])
    with pytest.raises(ConfigurationError, match=r"missing identified model for cells \[1\]"):
        latent_conditional([model, None], data)
    for models in ([model], [model] * 4):
        with pytest.raises(ConfigurationError,
                           match=f"{len(models)} models for 2 covariate cells"):
            latent_conditional(models, data)


def test_latent_conditional_weights_match_empirical():
    spec = GeneratorSpec(n_w_cells=32, seed=4)
    models = make_model(spec)
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.full(32, 12.0))
    sample = draw(models, weights, 60_000, seed=6).data
    lc = latent_conditional(models, sample)
    assert lc.labels == sample.w_labels and len(lc.labels) == 32
    assert lc.column_names == design_columns(sample.w_columns)
    assert lc.q.tobytes() == cell_rows(5).tobytes()
    assert lc.weights.tobytes() == (sample.cell_counts() / sample.n).tobytes()
    assert lc.weights.sum() == pytest.approx(1.0)


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
    sigma, events = skedastic(lc)
    assert events >= 1
    assert all(np.isfinite(v) and v > 0 for v in sigma.values())
    # P[V<=1] = 0 in cell 0 is clamped to ordered.CLAMP = 1e-6.
    expected = 1.0 / (norm.ppf(0.6) - norm.ppf(1e-6))
    assert sigma["0"] == pytest.approx(expected, rel=1e-12)


def test_skedastic_nonpositive_scale_error():
    lc = lc_from_probs([[1.0 - 2e-10, 1e-10, 1e-10], [0.2, 0.5, 0.3]])
    with pytest.raises(EstimationError, match="cell"):
        skedastic(lc)


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
        fit_ = hetero_ordered_probit(lc)
        assert np.abs(fit_.beta - params.beta).max() < 1e-10
        assert fit_.sigma_by_cell == skedastic(lc)[0]
        assert fit_.norm_identity_max_dev < 1e-10
        assert fit_.cutpoints.tolist() == [0.0, 1.0]


def test_hetero_probit_second_branch_equivalent():
    rng = np.random.default_rng(11)
    params = random_probit_params(rng, 3)
    lc = probit_population(params)
    first = hetero_ordered_probit(lc)
    sigma = first.sigma_by_cell
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
    fit_ = hetero_ordered_probit(lc)
    assert np.abs(fit_.beta - params.beta).max() < 1e-9
    assert fit_.cutpoints[2] == pytest.approx(params.cutpoints[2], abs=1e-9)
    assert fit_.cutpoint_spread < 1e-9


def test_hetero_with_unit_scale_equals_homo_closed_form():
    # Where every cell's true scale is 1, hetero estimates scales of 1 up to
    # rounding, and so agrees with the closed form pinned at scale 1.
    params = random_probit_params(np.random.default_rng(13), 5)
    lc = probit_population(replace(params, sigma_by_cell=np.ones(32)))
    hetero = hetero_ordered_probit(lc)
    homo = homo_ordered_probit(lc)
    assert max(abs(v - 1.0) for v in hetero.sigma_by_cell.values()) < 1e-12
    assert np.allclose(hetero.beta, homo.beta, atol=1e-12)
    assert homo.sigma_by_cell is None and homo.scale == 1.0


def test_closed_forms_take_the_target_by_keyword_only():
    # A positional second argument (the retired scale map) is refused, not
    # bound to ``target``.
    lc = lc_from_probs([[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]])
    for closed_form in (linear_projection, homo_ordered_probit, hetero_ordered_probit):
        with pytest.raises(TypeError):
            closed_form(lc, dict.fromkeys(lc.labels, 1.0))
        assert closed_form(lc, target="reported").target == "reported"


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
    [fit_] = ordered_probit_mle([data])
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
    [reported_mle] = ordered_probit_mle([data])
    lc = reported_conditional(data)
    latent_closed = homo_ordered_probit(lc, target="latent")
    assert np.abs(reported_mle.beta - latent_closed.beta).max() < 0.02


def test_effect_scale_labels():
    probs = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]]
    lc = lc_from_probs(probs)
    assert "mean" in linear_projection(lc).effect_scale
    assert "median" in hetero_ordered_probit(lc).effect_scale


# ---------------------------------------------------------------------------
# Fisher scoring against the L-BFGS-B fits it replaced
# ---------------------------------------------------------------------------


def test_normal_cdf_and_ppf_match_scipy():
    x = np.concatenate([np.linspace(-38.0, 38.0, 200_001), [-np.inf, np.inf]])
    assert np.abs(_norm_cdf(x) - special.ndtr(x)).max() <= 1e-14
    u = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 100_001),
                        np.geomspace(1e-6, 0.5, 10_001), 1 - np.geomspace(1e-6, 0.5, 10_001)])
    ppf, events = _clamped_ppf(u)
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


def fit_loglik(fit_: ParametricFit, data: Dataset) -> float:
    """Log-likelihood of a reported-outcome ML fit on the populated cells."""
    q, counts, _ = _cell_design(data)
    return -_reference_nll(q @ fit_.beta, np.full(q.shape[0], fit_.scale),
                           fit_.cutpoints, counts)


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
@example(seed=178865, n_cols=1, n_levels=5, n=2_000)  # no record at level 5
def test_fisher_scoring_matches_the_lbfgs_reference(seed, n_cols, n_levels, n):
    """The ML benchmark reaches at least the reference's optimum, at its betas,
    and refuses a sample with no record at some outcome level (no maximum)."""
    rng = np.random.default_rng(seed)
    data = probit_counts(random_probit_params(rng, n_cols, n_levels), n, seed)
    [got] = ordered_probit_mle([data])
    if not data.outcome_counts().sum(axis=0).all():
        assert isinstance(got, EstimationError)
        return
    try:
        ref = lbfgs_ordered_probit_mle(data)
    except EstimationError:
        return  # L-BFGS-B stopped abnormally; scoring fitted
    ref_loglik = fit_loglik(ref, data)
    assert fit_loglik(got, data) >= ref_loglik - 1e-9 * abs(ref_loglik)
    assert np.abs(got.beta - ref.beta).max() <= 1e-5


# The serial Fisher scoring that the stacked kernel replaced, one dataset
# per call, kept as the reference for the stacked fits.


def serial_norm_cdf(x: np.ndarray) -> np.ndarray:
    return np.reshape([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(x).tolist()],
                      np.shape(x))


def serial_pmf_and_jacobian(index, log_scale, cuts, d_index, d_log_scale, d_cuts):
    scale = np.exp(log_scale)
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    probs = np.diff(serial_norm_cdf((edges[None, :] - index[:, None]) / scale[:, None]),
                    axis=1)
    z = (cuts[None, :] - index[:, None]) / scale[:, None]
    dz = ((d_cuts[None] - d_index[:, None]) / scale[:, None, None]
          - z[..., None] * d_log_scale[:, None])
    edge = np.clip(z, -40.0, 40.0)  # the pdf is 0.0 beyond |z| of 38.6; z * z may overflow
    d_cdf = (np.exp(-0.5 * edge * edge) / math.sqrt(2.0 * math.pi))[..., None] * dz
    tails = np.zeros_like(d_cdf[:, :1])
    return probs, np.diff(np.concatenate((tails, d_cdf, tails), axis=1), axis=1)


def serial_chained_cuts(anchor, log_gaps: np.ndarray):
    gaps = np.exp(log_gaps)
    cuts = anchor + np.concatenate(([0.0], np.cumsum(gaps)))
    below = np.tril(np.broadcast_to(gaps, (gaps.size, gaps.size)))
    return cuts, np.vstack((np.zeros(gaps.size), below))


def serial_loglik(probs: np.ndarray, counts: np.ndarray) -> float:
    return float(np.sum(counts * np.log(np.maximum(probs, 1e-300))))


def serial_fisher_scoring(model, theta: np.ndarray, counts: np.ndarray,
                          what: str) -> np.ndarray:
    from latentcat.ordered import SCORING_MAX_HALVINGS, SCORING_MAX_ITERATIONS, SCORING_TOL

    totals = counts.sum(axis=1)
    probs, jac = model(theta)
    loglik = serial_loglik(probs, counts)
    for _ in range(SCORING_MAX_ITERATIONS):
        safe = np.maximum(probs, 1e-300)
        score = np.einsum("rj,rjp->p", counts / safe, jac)
        info = np.einsum("r,rjp,rjq->pq", totals, jac / safe[..., None], jac)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.full_like(score, np.nan)
        if not np.isfinite(step).all():
            raise EstimationError(f"{what} did not converge: singular information matrix")
        if float(score @ step) < SCORING_TOL:
            return theta
        for halving in range(SCORING_MAX_HALVINGS):
            trial = theta + step / 2.0**halving
            trial_probs, trial_jac = model(trial)
            trial_loglik = serial_loglik(trial_probs, counts)
            if trial_loglik >= loglik:
                break
        else:
            raise EstimationError(f"{what} did not converge: line search failed")
        theta, probs, jac, loglik = trial, trial_probs, trial_jac, trial_loglik
    raise EstimationError(
        f"{what} did not converge: iteration cap of {SCORING_MAX_ITERATIONS} reached"
    )


def serial_ordered_probit_mle(data: Dataset) -> ParametricFit:
    q, counts, names = _cell_design(data)
    n_levels = counts.shape[1]
    k = q.shape[1] - 1
    n_cells, n_params = q.shape[0], k + n_levels - 1
    d_index = np.zeros((n_cells, n_params))
    d_index[:, :k] = q[:, 1:]
    d_cuts = np.zeros((n_levels - 1, n_params))
    d_cuts[:, k] = 1.0

    def unpack(theta):
        return theta[:k], serial_chained_cuts(theta[k], theta[k + 1 :])

    def model(theta):
        slopes, (cuts, d_gaps) = unpack(theta)
        d_cuts[:, k + 1 :] = d_gaps
        return serial_pmf_and_jacobian(q[:, 1:] @ slopes, np.zeros(n_cells), cuts,
                                       d_index, np.zeros((n_cells, n_params)), d_cuts)

    theta0 = np.zeros(n_params)
    theta0[k] = -0.5
    theta = serial_fisher_scoring(model, theta0, counts, "ordered-probit MLE")
    slopes, (cuts, _) = unpack(theta)
    gap = cuts[1] - cuts[0]
    return ParametricFit(kind="ordered-probit-homoskedastic", target="reported",
                         beta=np.concatenate(([-cuts[0] / gap], slopes / gap)),
                         column_names=names, cutpoints=(cuts - cuts[0]) / gap,
                         scale=1.0 / gap)


def serial_outcome(reference, data):
    try:
        return reference(data)
    except EstimationError as exc:
        return exc


def close_to(fit_, ref, rtol: float) -> bool:
    """Every vector of ``fit_`` within ``rtol`` of ``ref``'s, relative to
    the largest entry of that vector (a slope near 0 has no digits of its
    own to match)."""
    pairs = [(fit_.beta, ref.beta), (fit_.cutpoints, ref.cutpoints),
             ([fit_.scale], [ref.scale])]
    return all(np.abs(np.subtract(a, b)).max() <= rtol * np.abs(b).max() for a, b in pairs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(1, 4),
       n_levels=st.integers(3, 5), n=st.sampled_from([500, 5_000, 50_000]),
       n_items=st.integers(1, 16), emptied=st.lists(st.integers(0, 15), max_size=4))
# A line-search trial puts a cutpoint near 1e181, past where z * z overflows.
@example(seed=2776246, n_cols=1, n_levels=5, n=500, n_items=5, emptied=[])
def test_stacked_fits_equal_lone_fits_and_the_serial_reference(
        seed, n_cols, n_levels, n, n_items, emptied):
    """Redraws of one probit sample, some with a cell emptied: each stacked
    fit equals that dataset's fit alone bit for bit, and the serial
    reference's within 1e-12, failures included. Where an outcome level is
    never observed, a cutpoint has no finite maximizer, so that dataset is
    refused, stacked and alone."""
    rng = np.random.default_rng(seed)
    base = probit_counts(random_probit_params(rng, n_cols, n_levels), n, seed)
    stack = []
    for i in range(n_items):
        counts = rng.multinomial(n, base.counts.ravel() / n).reshape(base.counts.shape)
        if i in emptied:
            counts[rng.integers(len(counts))] = 0
        stack.append(Dataset(counts, base.w_columns, base.w_labels))
    fits = ordered_probit_mle(stack)
    assert [fit_bits(f) for f in fits] == [fit_bits(ordered_probit_mle([d])[0])
                                           for d in stack]
    for fit_, data in zip(fits, stack):
        if not data.outcome_counts().sum(axis=0).all():
            assert isinstance(fit_, EstimationError)
            assert "has no maximum: no record at outcome levels" in str(fit_)
            continue
        ref = serial_outcome(serial_ordered_probit_mle, data)
        if isinstance(ref, EstimationError):
            assert repr(fit_) == repr(ref)
        else:
            assert not isinstance(fit_, EstimationError), fit_
            assert close_to(fit_, ref, 1e-12)


def test_far_trial_cutpoints_evaluate_without_overflow():
    # A line-search trial may put a log gap past exp's range, or a cutpoint
    # near 1e181: the trial's pmf is what infinitely far cutpoints give, its
    # Jacobian is finite, and nothing overflows (the test configuration
    # turns latentcat's RuntimeWarnings into errors).
    cuts, gaps = _chained_cuts(np.array([0.0, 0.0]), np.array([[800.0, 0.0], [0.0, 0.0]]))
    assert np.isfinite(gaps).all() and np.isfinite(cuts).all()
    cuts[1, 1:] = [1e181, 2e181]
    d_index = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    d_cuts = np.zeros((2, 3, 3))
    probs, jac = _pmf_and_jacobian(np.array([[0.0, 0.5]] * 2), cuts, d_index, d_cuts)
    far = [[0.0, np.inf, np.inf], [0.0, 1e181, np.inf]]
    expected = [np.diff(_norm_cdf(np.concatenate(([-np.inf], c, [np.inf])) - i))
                for c in far for i in (0.0, 0.5)]
    assert np.array_equal(probs.reshape(4, 4), expected)
    assert np.isfinite(jac).all()


def test_ml_fit_refuses_an_unobserved_outcome_level():
    # With no record at a level, the cutpoints next to it run off (to the
    # outer edge, or together): the likelihood has no maximum, and the fit
    # is refused before scoring whatever rounding would make of it.
    rng = np.random.default_rng(19)
    data = probit_counts(random_probit_params(rng, 2, 4), 5_000, 19)
    for level in range(4):
        counts = data.counts.copy()
        counts[:, level] = 0
        unseen = Dataset(counts, data.w_columns, data.w_labels)
        [refused, kept] = ordered_probit_mle([unseen, data])
        assert isinstance(refused, EstimationError)
        assert f"no record at outcome levels [{level + 1}]" in str(refused)
        assert fit_bits(kept) == fit_bits(ordered_probit_mle([data])[0])


def test_fisher_scoring_failures_are_estimation_errors(monkeypatch):
    from latentcat import ordered

    rng = np.random.default_rng(17)
    data = probit_counts(random_probit_params(rng, 2), 5_000, 17)
    # Covariate B is 0 in every populated cell, so its slope is not identified.
    lone_b = Dataset(data.counts * (cell_rows(2)[:, 2] == 0)[:, None, None, None],
                     data.w_columns, data.w_labels)

    def failures(fits, message):
        assert all(isinstance(fit_, EstimationError) for fit_ in fits)
        assert all(message in str(fit_) for fit_ in fits)

    failures(ordered_probit_mle([lone_b]), "singular information matrix")
    with monkeypatch.context() as patch:
        patch.setattr(ordered, "SCORING_MAX_ITERATIONS", 1)
        failures(ordered_probit_mle([data, data]), "iteration cap of 1 reached")
    with monkeypatch.context() as patch:
        patch.setattr(ordered, "SCORING_MAX_HALVINGS", 0)
        failures(ordered_probit_mle([data]), "line search failed")


def fit_bits(fit_: ParametricFit | EstimationError):
    """Every number of a fit, bit for bit, or the message of its error."""
    if isinstance(fit_, EstimationError):
        return repr(fit_)
    return (fit_.beta.tobytes(), fit_.cutpoints.tobytes(), repr(fit_.scale),
            repr(fit_.sigma_by_cell), fit_.column_names)


def test_a_singular_item_fails_alone():
    # Among good datasets, lone_b's singular information matrix ends its fit
    # alone; the others fit as they do alone.
    rng = np.random.default_rng(17)
    data = probit_counts(random_probit_params(rng, 2), 5_000, 17)
    lone_b = Dataset(data.counts * (cell_rows(2)[:, 2] == 0)[:, None, None, None],
                     data.w_columns, data.w_labels)
    stack = [probit_counts(random_probit_params(rng, 2), 5_000, 1), lone_b, data]
    fits = ordered_probit_mle(stack)
    assert isinstance(fits[1], EstimationError)
    assert "singular information matrix" in str(fits[1])
    assert not isinstance(fits[0], EstimationError)
    assert [fit_bits(f) for f in fits] == [fit_bits(ordered_probit_mle([d])[0])
                                           for d in stack]


def test_solve_marks_a_singular_item_of_a_stack():
    # Items that share a design are one np.linalg.solve call, which raises
    # if any item is singular; that item alone gets a NaN step.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3, 3))
    info = a @ a.transpose(0, 2, 1) + np.eye(3)
    info[2] = 0.0
    score = rng.normal(size=(4, 3))
    step = _solve(info, score)
    assert np.isnan(step[2]).all()
    for i in (0, 1, 3):
        assert step[i].tobytes() == _solve(info[i : i + 1], score[i : i + 1])[0].tobytes()
        assert np.allclose(info[i] @ step[i], score[i])
