import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentcat import mle, spectral
from latentcat.data import tabulate
from latentcat.errors import DomainError, GeneratorError, OptimizationError
from latentcat.generate import GeneratorSpec, draw, make_model
from latentcat.mle import (
    AGREE_RTOL,
    BOUNDARY_TOL,
    EM_MAX_ITERATIONS,
    EM_RTOL,
    CmleConfig,
    _boundary_flags,
    _em_fit,
    _fitted_starts,
    _interior,
    _random_model,
    _spectral_start,
    fit,
    fit_tables,
    loglik,
    param_count,
    saturated_loglik,
)
from latentcat.spectral import (MisclassificationModel, branch_operator, build_matrices,
                                closed_form, order_by_last_row, population_pmf)

from conftest import (
    PUBLISHED_F_XSTAR,
    PUBLISHED_F_XSTAR_SE,
    min_gap,
    model_distance,
    population_table,
    published_cell_model,
)


def loglik_bruteforce(model, table):
    """Straight-loop mixture likelihood, independent of the array kernels."""
    total = 0.0
    s_x, _, s_z = table.shape
    for x in range(s_x):
        for y in range(2):
            for z in range(s_z):
                m = int(table[x, y, z])
                if m == 0:
                    continue
                p = 0.0
                for s in range(model.s_x):
                    fy = model.f_y_given_xstar[s] if y == 1 else 1 - model.f_y_given_xstar[s]
                    p += (
                        model.m_x_given_xstar[x, s]
                        * fy
                        * model.m_z_given_xstar[z, s]
                        * model.f_xstar[s]
                    )
                if p <= 0:
                    return -np.inf
                total += m * np.log(p)
    return total


# ---------------------------------------------------------------------------
# param_count / loglik
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "supports,expected", [((3, 2, 3), 17), ((7, 2, 7), 97), ((2, 2, 2), 7)]
)
def test_param_count(supports, expected):
    assert param_count(*supports) == expected


def test_param_count_requires_binary_minimum():
    with pytest.raises(DomainError):
        param_count(1, 2, 3)


def test_loglik_point_mass_is_zero(valid_model):
    # All observed mass on one cell and a model that puts mixture mass 1
    # there: two degenerate latent states both reporting (1, 0, 1).
    model = MisclassificationModel(
        m_x_given_xstar=np.array([[1.0, 1.0], [0.0, 0.0]]),
        f_y_given_xstar=np.array([0.0, 0.0]),
        m_z_given_xstar=np.array([[1.0, 1.0], [0.0, 0.0]]),
        f_xstar=np.array([0.5, 0.5]),
    )
    counts = np.zeros((2, 2, 2), dtype=int)
    counts[0, 0, 0] = 9
    assert loglik(model, counts) == pytest.approx(0.0)


def test_loglik_matches_bruteforce(valid_model):
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 40, size=(3, 2, 3))
    assert loglik(valid_model, counts) == pytest.approx(
        loglik_bruteforce(valid_model, counts), rel=1e-12
    )


def test_loglik_information_inequality(valid_model):
    table = population_table(valid_model, n=1_000_000)
    best = loglik(valid_model, table)
    rng = np.random.default_rng(1)
    for _ in range(5):
        noise = rng.normal(scale=0.03, size=(3, 3))
        m_x = np.clip(valid_model.m_x_given_xstar + noise, 1e-6, None)
        m_x /= m_x.sum(axis=0)
        perturbed = MisclassificationModel(
            m_x_given_xstar=m_x,
            f_y_given_xstar=valid_model.f_y_given_xstar,
            m_z_given_xstar=valid_model.m_z_given_xstar,
            f_xstar=valid_model.f_xstar,
        )
        assert loglik(perturbed, table) <= best + 1e-6


def test_loglik_rejects_invalid_bundle(valid_model):
    table = population_table(valid_model, n=1000)
    bad = MisclassificationModel(
        m_x_given_xstar=valid_model.m_x_given_xstar * 1.2,
        f_y_given_xstar=valid_model.f_y_given_xstar,
        m_z_given_xstar=valid_model.m_z_given_xstar,
        f_xstar=valid_model.f_xstar,
    )
    with pytest.raises(DomainError):
        loglik(bad, table)


def test_loglik_minus_inf_on_impossible_cell():
    model = MisclassificationModel(
        m_x_given_xstar=np.array([[1.0, 1.0], [0.0, 0.0]]),
        f_y_given_xstar=np.array([0.5, 0.5]),
        m_z_given_xstar=np.array([[1.0, 1.0], [0.0, 0.0]]),
        f_xstar=np.array([0.5, 0.5]),
    )
    counts = np.zeros((2, 2, 2), dtype=int)
    counts[1, 0, 0] = 3
    assert loglik(model, counts) == -np.inf


def test_loglik_invariant_to_cell_relabeling(valid_model):
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 30, size=(3, 2, 3))
    perm = [2, 0, 1]
    permuted_model = MisclassificationModel(
        m_x_given_xstar=valid_model.m_x_given_xstar,
        f_y_given_xstar=valid_model.f_y_given_xstar,
        m_z_given_xstar=valid_model.m_z_given_xstar[perm, :],
        f_xstar=valid_model.f_xstar,
    )
    assert loglik(valid_model, counts) == pytest.approx(
        loglik(permuted_model, counts[:, :, perm]), rel=1e-12
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def recovery_spec(seed):
    return GeneratorSpec(
        misclassification_strength=0.15,
        eigenvalue_separation=0.35,
        z_mix=0.85,
        latent_uniform_mix=0.85,
        min_singular_value=0.12,
        seed=seed,
    )


TINY = 2.0**-54
# Two reporting columns 2^-54 apart: LU factors the matrix without a zero
# pivot, but its 1-norm condition number is at least 1/eps.
NEAR_TWINS = np.array([[0.25, 0.25, 0.6], [0.25, 0.25 + TINY, 0.2],
                       [0.5, 0.5 - TINY, 0.2]])


def near_twins_order(vals, vecs, tol=0.0):
    """An ``order_by_last_row`` whose eigenvectors are NEAR_TWINS."""
    return vals, NEAR_TWINS


def reference_spectral_start(counts):
    """The projected spectral start computed on its own, without
    ``closed_form``: the reference ``_spectral_start`` must match bit for bit."""
    s_x, _, s_z = counts.shape
    if s_x != s_z:
        return None
    probs = counts / counts.sum()
    m_xz, m_per_y = build_matrices(probs)
    try:
        svals = np.linalg.svd(m_xz, compute_uv=False)
        if not (svals[0] > 0 and svals[-1] > 1e-10 * svals[0]):
            return None
        vals, vecs = np.linalg.eig(branch_operator(m_xz, m_per_y[1]))
    except np.linalg.LinAlgError:
        return None
    vals = vals.real
    vecs = vecs.real
    sums = vecs.sum(axis=0)
    if np.any(np.abs(sums) < 1e-12):
        return None
    vals, vecs = spectral.order_by_last_row(vals, vecs / sums, spectral.TIE_TOL)
    m_x = _interior(vecs)
    f_y = np.clip(vals, 1e-6, 1.0 - 1e-6)
    if np.linalg.cond(m_x, 1) * np.finfo(float).eps >= 1.0:
        return None
    f_xstar = np.linalg.solve(m_x, probs.sum(axis=(1, 2)))
    f_xstar = _interior(f_xstar[:, None]).ravel()
    m_z = _interior((np.linalg.solve(m_x, m_xz) / f_xstar[:, None]).T)
    return MisclassificationModel(m_x, f_y, m_z, f_xstar)


def assert_same_start(table):
    got, want = _spectral_start(table), reference_spectral_start(table)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.pack().tobytes() == want.pack().tobytes()
    return got


def test_spectral_start_fails_on_an_ill_conditioned_reporting_matrix(
        valid_model, monkeypatch):
    """An m_x whose 1-norm condition number is at least 1/eps is no start,
    though LU factors it without a zero pivot."""
    table = population_table(valid_model, n=100_000)
    assert assert_same_start(table) is not None
    m_x = _interior(NEAR_TWINS)
    assert np.linalg.cond(m_x, 1) * np.finfo(float).eps >= 1.0
    assert np.isfinite(np.linalg.solve(m_x, np.full(3, 1 / 3))).all()
    monkeypatch.setattr(spectral, "order_by_last_row", near_twins_order)
    assert closed_form(table / table.sum()) is not None
    assert assert_same_start(table) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), s=st.integers(2, 4),
       strength=st.sampled_from([0.0, 0.2, 0.5, 0.8]), n=st.integers(50, 50_000),
       kind=st.sampled_from(["sampled", "rank-deficient", "non-square"]))
# 50 records leave zero counts, so two states' last-row entries tie within
# TIE_TOL and the rows above order them.
@example(seed=579, s=3, strength=0.2, n=50, kind="sampled")
def test_spectral_start_is_the_projected_closed_form_bit_for_bit(seed, s, strength, n,
                                                                 kind):
    try:
        [model] = make_model(GeneratorSpec(
            s_x=s, s_z=s + (kind == "non-square"), misclassification_strength=strength,
            eigenvalue_separation=0.1, seed=seed))
    except GeneratorError:
        assume(False)
    table = tabulate(draw([model], [1.0], n, seed=seed + 1).data)
    if kind == "rank-deficient":  # two equal z columns
        table = np.concatenate([table[:, :, :1], table[:, :, :-1]], axis=2)
    start = assert_same_start(table)
    if kind != "sampled":
        assert start is None


def test_fit_recovers_single_model():
    [model] = make_model(recovery_spec(21))
    sample = draw([model], [1.0], 50_000, seed=22).data
    result = fit(
        tabulate(sample),
        CmleConfig(n_starts=10, seed=23),
    )
    assert model_distance(result.model, model) < 0.015
    assert result.n_starts_converged == 10


def test_fit_monotone_improvement():
    [model] = make_model(recovery_spec(24))
    sample = draw([model], [1.0], 10_000, seed=25).data
    result = fit(tabulate(sample), CmleConfig(n_starts=6, seed=26))
    for start in result.starts:
        assert result.loglik >= start.start_loglik - 1e-9
        if start.converged:
            assert start.final_loglik >= start.start_loglik - 1e-9


def test_fit_identity_data_boundary_flags():
    [model] = make_model(
        GeneratorSpec(misclassification_strength=0.0, eigenvalue_separation=0.25,
                      seed=27)
    )
    sample = draw([model], [1.0], 50_000, seed=28).data
    result = fit(
        tabulate(sample), CmleConfig(n_starts=8, seed=29)
    )
    assert np.abs(result.model.m_x_given_xstar - np.eye(3)).max() < 0.02
    assert result.boundary_flags


def nditer_boundary_flags(model):
    """The entry-by-entry scan that the vectorized flags replaced, kept as
    their reference."""
    flags = []

    def scan(name, arr):
        it = np.nditer(arr, flags=["multi_index"])
        for v in it:
            val = float(v)
            where = ",".join(str(i + 1) for i in it.multi_index)
            if val < BOUNDARY_TOL:
                flags.append(f"{name}[{where}] ~ 0")
            elif val > 1.0 - BOUNDARY_TOL:
                flags.append(f"{name}[{where}] ~ 1")

    scan("p_x_given_latent", model.m_x_given_xstar)
    scan("p_y_given_latent", model.f_y_given_xstar)
    scan("p_z_given_latent", model.m_z_given_xstar)
    scan("p_latent", model.f_xstar)
    last = model.m_x_given_xstar[-1, :]
    for j, gap in enumerate(np.diff(last)):
        if abs(gap) < BOUNDARY_TOL:
            flags.append(f"ord_gap[{j + 1},{j + 2}] ~ 0")
    return tuple(flags)


# Entries at, just under and just over both flag thresholds, and at 0 and 1.
EDGES = [v for t in (BOUNDARY_TOL, 1.0 - BOUNDARY_TOL)
         for v in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))] + [0.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(s_x=st.integers(2, 5), s_z=st.integers(2, 5), data=st.data())
def test_boundary_flags_match_the_nditer_scan(s_x, s_z, data):
    entries = st.sampled_from(EDGES) | st.floats(0.0, 1.0)
    shapes = [(s_x, s_x), (s_x,), (s_z, s_x), (s_x,)]
    blocks = [data.draw(arrays(float, shape, elements=entries)) for shape in shapes]
    # Tie some last-row entries exactly, or space them exactly BOUNDARY_TOL apart.
    last = blocks[0][-1]
    for j in range(1, s_x):
        tie = data.draw(st.sampled_from(["free", "tied", "tol apart"]))
        if tie != "free":
            last[j] = last[j - 1] + (BOUNDARY_TOL if tie == "tol apart" else 0.0)
    model = MisclassificationModel(*blocks)
    assert tuple(_boundary_flags(model)) == nditer_boundary_flags(model)


def test_fit_published_scale_recovery():
    # Simulate at the published group's sample size from its published
    # reporting matrix and latent marginal; the refit latent marginal must
    # sit within two published standard errors of the generator.
    model = published_cell_model()
    sample = draw([model], [1.0], 2615, seed=30).data
    result = fit(
        tabulate(sample), CmleConfig(n_starts=10, seed=31)
    )
    dev = np.abs(result.model.f_xstar - PUBLISHED_F_XSTAR)
    assert np.all(dev <= 2 * PUBLISHED_F_XSTAR_SE)


def test_fit_ord_enforce_orders_last_row():
    [model] = make_model(recovery_spec(32))
    sample = draw([model], [1.0], 20_000, seed=33).data
    result = fit(
        tabulate(sample), CmleConfig(n_starts=6, seed=34)
    )
    assert np.all(np.diff(result.model.m_x_given_xstar[-1, :]) >= 0)
    assert result.model.ord_satisfied


def test_fit_agreement_with_spectral_on_population():
    [model] = make_model(recovery_spec(38))
    table = population_table(model, n=10_000_000)
    spectral_model = closed_form(table / table.sum())
    assert min_gap(spectral_model.f_y_given_xstar) > 0.05
    result = fit(
        table, CmleConfig(n_starts=4, seed=39)
    )
    assert model_distance(result.model, spectral_model) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_saturation_gap_certifies_a_valid_closed_form(seed):
    # A population table reproduced by its own closed form: the fit reaches
    # the saturated log-likelihood.
    models = make_model(GeneratorSpec(misclassification_strength=0.4, n_w_cells=2,
                                      eigenvalue_separation=0.15, seed=seed))
    for model in models:
        table = population_pmf(model) * 1e6
        closed_form(table / table.sum()).validate()
        result = fit(table, CmleConfig(n_starts=2, seed=seed))
        assert abs(saturated_loglik(table) - result.loglik) <= 1e-9 * abs(result.loglik)


def test_saturation_gap_is_positive_where_the_closed_form_leaves_the_simplex():
    [model] = make_model(GeneratorSpec(misclassification_strength=0.6,
                                       eigenvalue_separation=0.2,
                                       min_singular_value=0.08, seed=11))
    table = tabulate(draw([model], [1.0], 400, seed=12).data)
    with pytest.raises(DomainError):
        closed_form(table / table.sum()).validate()
    result = fit(table, CmleConfig(n_starts=3, seed=1))
    assert saturated_loglik(table) - result.loglik > 1e-3


NEGATIVE_COUNT = np.ones((3, 2, 3), dtype=int)
NEGATIVE_COUNT[1, 0, 2] = -1


@pytest.mark.parametrize("table", [
    np.zeros((3, 2, 3), dtype=int),
    NEGATIVE_COUNT,
    np.ones((3, 6), dtype=int),
], ids=["all-zero", "negative-count", "2-d"])
def test_fit_empty_table_rejected(table):
    # The refusals of a malformed table, on both public fitting paths.
    with pytest.raises(DomainError):
        fit(table)
    with pytest.raises(DomainError):
        fit_tables([table], [CmleConfig()])


# ---------------------------------------------------------------------------
# Batched accelerated EM and fit_tables
# ---------------------------------------------------------------------------


def einsum_em_update(theta, counts, s_x, s_z):
    """One EM update of one packed start, from the gradient of the
    log-likelihood: the engine the posterior kernel replaced, kept as its
    reference. Returns the log-likelihood and F(theta)."""
    a, fy, c, pi = MisclassificationModel.split(theta, s_x, s_z)
    b2 = np.stack([1.0 - fy, fy])
    p_safe = np.maximum(np.einsum("xs,ys,zs,s->xyz", a, b2, c, pi), 1e-300)
    ll = float(np.sum(counts * np.log(p_safe)))
    g = counts / p_safe
    da = np.einsum("xyz,ys,zs,s->xs", g, b2, c, pi)
    db2 = np.einsum("xyz,xs,zs,s->ys", g, a, c, pi)
    dc = np.einsum("xyz,xs,ys,s->zs", g, a, b2, pi)
    weighted_a = a * da            # column s: posterior-weighted counts
    n_s = np.maximum(weighted_a.sum(axis=0), 1e-12)
    a = np.clip(weighted_a / n_s, 1e-12, None)
    a /= a.sum(axis=0)
    wb = b2 * db2
    fy = np.clip(wb[1] / np.maximum(wb.sum(axis=0), 1e-12), 1e-12, 1.0 - 1e-12)
    wc = c * dc
    c = np.clip(wc / np.maximum(wc.sum(axis=0), 1e-12), 1e-12, None)
    c /= c.sum(axis=0)
    pi = n_s / counts.sum()
    pi = pi / pi.sum()
    return ll, np.concatenate([a.ravel(), fy, c.ravel(), pi])


def serial_em_update(theta, counts, s_x, s_z):
    """One EM update of one packed start, from the posterior of the latent
    state in each cell, as straight code: its log-likelihood and F(theta)."""
    a, fy, c, pi = MisclassificationModel.split(theta, s_x, s_z)
    b2 = np.stack([1.0 - fy, fy])
    q = (a * pi)[:, None, None, :] * b2[None, :, None, :] * c[None, None, :, :]
    p_safe = np.maximum(q.sum(axis=-1), 1e-300)
    ll = float(np.sum(counts * np.log(p_safe)))
    post = (counts / p_safe)[..., None] * q
    n_s = np.maximum(post.sum(axis=(1, 2)).sum(axis=0), 1e-12)
    a = np.clip(post.sum(axis=(1, 2)) / n_s, 1e-12, None)
    a /= a.sum(axis=0)
    wb = post.sum(axis=(0, 2))
    fy = np.clip(wb[1] / np.maximum(wb.sum(axis=0), 1e-12), 1e-12, 1.0 - 1e-12)
    wc = post.sum(axis=(0, 1))
    c = np.clip(wc / np.maximum(wc.sum(axis=0), 1e-12), 1e-12, None)
    c /= c.sum(axis=0)
    pi = n_s / counts.sum()
    pi = pi / pi.sum()
    return ll, np.concatenate([a.ravel(), fy, c.ravel(), pi])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s_x=st.integers(2, 4),
    s_z=st.integers(2, 4),
    batch=st.integers(1, 8),
    scale=st.sampled_from([1, 60, 100_000]),
)
def test_em_map_matches_einsum_update(seed, s_x, s_z, batch, scale):
    # The posterior kernel against the gradient form it replaced, item by
    # item: tables with zero cells, flat random starts and starts with
    # entries at EM's 1e-12 floor.
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, scale + 1, size=(batch, s_x, 2, s_z)).astype(float)
    counts[:, 0, 0, 0] += 1.0
    theta = np.stack([_random_model(rng, s_x, s_z).pack() for _ in range(batch)])
    theta[rng.random(theta.shape) < 0.1] = 1e-12
    ll, f_theta = mle._em_map(theta.T, np.moveaxis(counts, 0, -1),
                              counts.reshape(batch, -1).sum(axis=1), s_x, s_z)
    for row, k, got_ll, got_f in zip(theta, counts, ll, f_theta.T):
        want_ll, want_f = einsum_em_update(row, k, s_x, s_z)
        assert abs(got_ll - want_ll) <= 1e-12 * abs(want_ll)
        assert np.max(np.abs(got_f - want_f)) <= 1e-12


def serial_em(model, counts):
    """One start's SQUAREM-accelerated EM (SqS3) as a straight loop; returns
    the fitted model, its start and final log-likelihoods, the accelerated
    iterations it took and whether its stop test fired before
    EM_MAX_ITERATIONS."""
    s_x, s_z = model.s_x, model.s_z

    def em(theta):
        return serial_em_update(theta, counts, s_x, s_z)

    theta = model.pack()
    ll, f_theta = em(theta)
    start_ll = ll
    iterations, converged = 0, False
    while iterations < EM_MAX_ITERATIONS and not converged:
        t1 = f_theta
        _, t2 = em(t1)
        r = t1 - theta
        v = t2 - t1 - r
        rr, vv = float((r * r).sum()), float((v * v).sum())
        alpha = min(-np.sqrt(rr / vv) if vv > 0 else -1.0, -1.0)
        while True:
            if alpha == -1.0:
                step = t2
                break
            step = theta - 2.0 * alpha * r + alpha * alpha * v
            if np.all((step > 0.0) & (step < 1.0)):
                break
            alpha = (alpha - 1.0) / 2.0
        _, t_new = em(step)
        ll_new, f_new = em(t_new)
        if ll_new < ll:
            t_new = t2
            ll_new, f_new = em(t2)
        converged = ll_new - ll <= EM_RTOL * max(1.0, abs(ll_new))
        theta, ll, f_theta = t_new, ll_new, f_new
        iterations += 1
    fitted = MisclassificationModel(*MisclassificationModel.split(theta, s_x, s_z))
    return fitted, start_ll, ll, iterations, converged


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s_x=st.integers(2, 4),
    s_z=st.integers(2, 4),
    batch=st.integers(1, 8),
)
def test_batched_em_equals_serial_em_item_by_item(seed, s_x, s_z, batch):
    rng = np.random.default_rng(seed)
    # Small random tables (zero cells included) and flat random starts: the
    # items stop after different numbers of iterations.
    counts = rng.integers(0, 60, size=(batch, s_x, 2, s_z)).astype(float)
    counts[:, 0, 0, 0] += 1.0
    starts = [_random_model(rng, s_x, s_z) for _ in range(batch)]
    serial = [serial_em(m, k) for m, k in zip(starts, counts)]
    assume(batch == 1 or len({n for *_, n, _ in serial}) > 1)
    batched = _em_fit(starts, counts)
    assert len(batched) == batch
    for (expected, *trace_expected), (got, *trace_got) in zip(serial, batched):
        assert trace_got == trace_expected
        for e, g in zip(expected.blocks, got.blocks):
            assert np.array_equal(e, g)


def outcome(result):
    if isinstance(result, OptimizationError):
        return ("error", str(result), [d.to_dict() for d in result.start_diagnostics])
    return result.to_dict()


def fit_alone(table, config, warm):
    try:
        return fit(table, config, warm).to_dict()
    except OptimizationError as exc:
        return outcome(exc)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), s=st.sampled_from([2, 3, 4]), data=st.data())
def test_fit_tables_independent_of_batch(seed, s, data):
    # A table's fit does not depend on what else is in the batch (warm and
    # cold starts, both orderings), nor on its position there. The batched
    # accelerated EM is the whole engine, so this covers every iterate.
    try:
        models = make_model(GeneratorSpec(
            s_x=s, s_z=s, n_w_cells=4, misclassification_strength=0.3,
            eigenvalue_separation=0.2, seed=seed,
        ))
    except GeneratorError:
        assume(False)
    sample = draw(models, np.full(4, 0.25), 40_000, seed=seed + 1).data
    picked = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tables = [tabulate(sample, cell) for cell in picked]
    configs = [
        CmleConfig(
            n_starts=data.draw(st.integers(1, 3)),
            seed=data.draw(st.integers(0, 1000)),
        )
        for _ in picked
    ]
    warms = [models[i] if data.draw(st.booleans()) else None for i in picked]
    alone = [fit_alone(t, c, w) for t, c, w in zip(tables, configs, warms)]
    assert [outcome(r) for r in fit_tables(tables, configs, warms)] == alone
    order = data.draw(st.permutations(range(len(picked))))
    permuted = fit_tables([tables[i] for i in order], [configs[i] for i in order],
                          [warms[i] for i in order])
    assert [outcome(r) for r in permuted] == [alone[i] for i in order]


def test_fit_tables_needs_one_support():
    small = np.ones((2, 2, 2), dtype=int)
    large = np.ones((3, 2, 3), dtype=int)
    with pytest.raises(DomainError):
        fit_tables([small, large], [CmleConfig(n_starts=1)] * 2)
    with pytest.raises(DomainError):
        fit_tables([], [])


def winning_index(starts):
    """The index of the start ``fit`` picks from (converged, final loglik)
    pairs: the lowest that ties the best converged value."""
    best = max(final for converged, final in starts if converged)
    tol = AGREE_RTOL * max(1.0, abs(best))
    return min(i for i, (converged, final) in enumerate(starts)
               if converged and best - final <= tol)


def sorted_states(model):
    order, _ = order_by_last_row(np.arange(model.s_x), model.m_x_given_xstar)
    return MisclassificationModel(
        m_x_given_xstar=model.m_x_given_xstar[:, order],
        f_y_given_xstar=model.f_y_given_xstar[order],
        m_z_given_xstar=model.m_z_given_xstar[:, order],
        f_xstar=model.f_xstar[order],
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), s=st.integers(2, 4),
       strength=st.sampled_from([0.0, 0.15, 0.3]), warm=st.booleans())
@example(seed=41, s=3, strength=0.0, warm=False)
def test_fit_is_the_em_winner_with_sorted_states(seed, s, strength, warm):
    # The likelihood does not see latent labels, so the monotone restriction
    # only sorts the winning start's states; the winner, its value and its
    # model are those of the raw EM fits. Strength 0 is the identity
    # reporting matrix, whose last row ties in all but one state.
    try:
        models = make_model(GeneratorSpec(
            s_x=s, s_z=s, n_w_cells=2, misclassification_strength=strength,
            eigenvalue_separation=0.2, seed=seed,
        ))
    except GeneratorError:
        assume(False)
    sample = draw(models, np.full(2, 0.5), 20_000, seed=seed + 1).data
    for cell, model in enumerate(models):
        table = tabulate(sample, cell)
        config, warm_start = CmleConfig(n_starts=3, seed=seed), model if warm else None
        [raw] = _fitted_starts([table], [config], [warm_start])
        result = fit(table, config, warm_start)
        index = winning_index([(start[5], start[3]) for start in raw])
        assert winning_index([(d.converged, d.final_loglik) for d in result.starts]) == index
        assert result.loglik == pytest.approx(raw[index][3], rel=1e-12)
        for fitted, expected in zip(result.model.blocks, sorted_states(raw[index][1]).blocks):
            assert np.array_equal(fitted, expected)
        assert result.model.ord_satisfied
