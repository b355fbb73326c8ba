import numpy as np
import pytest

from latentcat.citest import (
    SuiteReport,
    _factorization_gap,
    _replicate_stats,
    bootstrap_test,
    conditional_test_suite,
    ts_statistic,
)
from latentcat.data import Dataset, JointPmf, frequency_pmf, tabulate
from latentcat.errors import DomainError, IndependenceTestError
from latentcat.generate import GeneratorSpec, draw, make_model


def product_pmf(f_x, f_y, f_z):
    probs = np.einsum("x,y,z->xyz", f_x, f_y, f_z)
    return JointPmf(probs=probs, support=probs.shape)


def conditional_product_pmf(rng, s_x=3, s_z=3):
    """Independence of (y, z) within each x stratum, arbitrary across strata."""
    f_x = rng.dirichlet(np.ones(s_x))
    probs = np.empty((s_x, 2, s_z))
    for x in range(s_x):
        fy = rng.uniform(0.2, 0.8)
        fz = rng.dirichlet(np.ones(s_z))
        probs[x] = f_x[x] * np.outer([1 - fy, fy], fz)
    return JointPmf(probs=probs, support=(s_x, 2, s_z))


# ---------------------------------------------------------------------------
# ts_statistic
# ---------------------------------------------------------------------------


def test_ts_zero_on_product():
    rng = np.random.default_rng(0)
    pmf = product_pmf(
        rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))
    )
    stat, _ = ts_statistic(pmf)
    assert stat == pytest.approx(0.0, abs=1e-15)


def test_ts_zero_on_conditional_product():
    rng = np.random.default_rng(1)
    stat, _ = ts_statistic(conditional_product_pmf(rng))
    assert stat == pytest.approx(0.0, abs=1e-15)


def test_ts_single_x_hand_enumeration():
    # One x stratum; mass 1/2 on (y=1, z=1) and 1/2 on (y=0, z=3).
    # Hand enumeration of all six (y, z) cells gives max gap 0.25, attained
    # (among ties) first at (y=1, z=1) in the documented scan order.
    probs = np.zeros((1, 2, 3))
    probs[0, 1, 0] = 0.5
    probs[0, 0, 2] = 0.5
    stat, cell = ts_statistic(JointPmf(probs=probs, support=(1, 2, 3)))
    assert stat == pytest.approx(0.25)
    assert cell == (1, 1, 1)


def test_ts_skips_zero_mass_strata():
    probs = np.zeros((2, 2, 3))
    probs[0, 1, 0] = 0.5
    probs[0, 0, 2] = 0.5
    stat, cell = ts_statistic(JointPmf(probs=probs, support=(2, 2, 3)))
    assert stat == pytest.approx(0.25)
    assert cell[0] == 1


def test_ts_bounded_on_random_pmfs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
        stat, _ = ts_statistic(JointPmf(probs=probs, support=(3, 2, 3)))
        assert 0.0 <= stat <= 1.0


# ---------------------------------------------------------------------------
# bootstrap_test
# ---------------------------------------------------------------------------


def sample_records(strength, n, seed, n_cells=1, **kwargs):
    spec = GeneratorSpec(
        misclassification_strength=strength,
        eigenvalue_separation=0.2,
        n_w_cells=n_cells,
        seed=seed,
        **kwargs,
    )
    models = make_model(spec)
    weights = np.full(n_cells, 1.0 / n_cells)
    return draw(models, weights, n, seed=seed + 1)


def sample_dataset(strength, n, seed, n_cells=1, **kwargs):
    return sample_records(strength, n, seed, n_cells, **kwargs).data


def shuffled_dataset(sample, perm):
    data = sample.data
    return Dataset.from_records(
        x=sample.x[perm], y=sample.y[perm], z=sample.z[perm], w=sample.w[perm],
        support=data.support, w_columns=data.w_columns, w_labels=data.w_labels,
    )


def test_bootstrap_test_report_fields():
    data = sample_dataset(0.5, 4000, seed=5)
    rep = bootstrap_test(data, b=199, seed=9)
    assert rep.n == 4000
    assert rep.b_replicates == 199
    assert 0 < rep.p_value <= 1
    cvs = [rep.critical_values[lv] for lv in (0.90, 0.95, 0.99)]
    assert cvs == sorted(cvs)
    # p sits on the finite-sample grid (1 + k) / (B + 1), k in 0..B
    k = rep.p_value * 200 - 1
    assert k == pytest.approx(round(k), abs=1e-9)
    assert 0 <= round(k) <= 199
    # and equals the stated formula recomputed from the replicate stream
    table = tabulate(data)
    pmf = frequency_pmf(table)
    stat, _ = ts_statistic(pmf)
    center, _ = _factorization_gap(pmf.probs)
    rng = np.random.default_rng(np.random.SeedSequence((9, data.n_w_cells, 0x6369)))
    stats_b = _replicate_stats(table.counts, table.n, 199, rng, center)
    assert rep.p_value == (1 + int(np.count_nonzero(stats_b >= stat))) / 200
    assert rep.statistic == stat


def test_bootstrap_minimum_replicates():
    data = sample_dataset(0.5, 500, seed=6)
    with pytest.raises(DomainError):
        bootstrap_test(data, b=50, seed=1)


def test_bootstrap_degenerate_sample():
    data = Dataset.from_records(
        x=np.array([1, 1, 1]), y=np.array([0, 0, 0]), z=np.array([2, 2, 2]),
        w=np.zeros(3, dtype=int), support=(3, 2, 3),
    )
    with pytest.raises(IndependenceTestError):
        bootstrap_test(data, b=99, seed=0)


def test_bootstrap_record_order_invariance():
    sample = sample_records(0.5, 2000, seed=7)
    data = sample.data
    perm = np.random.default_rng(8).permutation(data.n)
    shuffled = shuffled_dataset(sample, perm)
    a = bootstrap_test(data, b=199, seed=11)
    b = bootstrap_test(shuffled, b=199, seed=11)
    assert a.to_dict() == b.to_dict()


def test_bootstrap_same_seed_identical():
    data = sample_dataset(0.5, 2000, seed=12)
    a = bootstrap_test(data, b=149, seed=3)
    b = bootstrap_test(data, b=149, seed=3)
    assert a.to_dict() == b.to_dict()


def test_centering_lowers_replicate_mean():
    # On a dependent sample the centered replicate statistics must sit below
    # the uncentered ones on average (the uncentered bootstrap re-estimates
    # the dependence itself instead of the null fluctuation).
    data = sample_dataset(0.6, 3000, seed=13)
    table = tabulate(data)
    pmf = frequency_pmf(table)
    center, _ = _factorization_gap(pmf.probs)
    rng1 = np.random.default_rng(21)
    rng2 = np.random.default_rng(21)
    centered = _replicate_stats(table.counts, table.n, 300, rng1, center)
    uncentered = _replicate_stats(table.counts, table.n, 300, rng2, None)
    assert centered.mean() < uncentered.mean()


def test_pvalue_monotone_in_dependence():
    # One-parameter family: mix a conditionally independent pmf with a
    # dependent one; median p-value across Monte Carlo runs must not rise.
    rng = np.random.default_rng(30)
    base = conditional_product_pmf(rng).probs
    dep = np.zeros_like(base)
    f_x = base.sum(axis=(1, 2))
    for x in range(3):
        dep[x, 1, 0] = 0.6 * f_x[x]
        dep[x, 0, 2] = 0.4 * f_x[x]
    medians = []
    for lam in (0.0, 0.5, 1.0):
        mix = (1 - lam) * base + lam * dep
        mix /= mix.sum()
        pvals = []
        for run in range(20):
            counts = np.random.default_rng(100 + run).multinomial(
                2000, mix.ravel()
            ).reshape(3, 2, 3)
            flat = np.repeat(np.arange(18), counts.ravel())
            x, y, z = np.unravel_index(flat, (3, 2, 3))
            data = Dataset.from_records(
                x=x + 1, y=y, z=z + 1, w=np.zeros(flat.size, dtype=int),
                support=(3, 2, 3),
            )
            pvals.append(bootstrap_test(data, b=199, seed=run).p_value)
        medians.append(np.median(pvals))
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] < 0.05


# ---------------------------------------------------------------------------
# conditional_test_suite
# ---------------------------------------------------------------------------


def test_suite_shapes_and_skips():
    data = sample_dataset(0.5, 3000, seed=14, n_cells=4)
    suite = conditional_test_suite(data, b=149, seed=2, min_cell_count=100)
    assert isinstance(suite, SuiteReport)
    assert suite.pooled.n == 3000
    assert len(suite.cells) + len(suite.skipped) == 4
    assert len(suite.cells) == 4  # ~750 records per cell


def test_suite_constant_covariate_skips_half():
    base = sample_records(0.5, 1200, seed=15)
    data = Dataset.from_records(
        x=base.x, y=base.y, z=base.z, w=np.zeros(base.data.n, dtype=int),
        support=base.data.support, w_columns=("c1", "c2"),
        w_labels=("0", "A", "B", "AB"),
    )
    suite = conditional_test_suite(data, b=149, seed=4)
    assert len(suite.cells) == 1
    empty = [s for s in suite.skipped if s.reason == "empty"]
    assert len(empty) == 3


@pytest.mark.parametrize("min_cell_count", [0, -1])
def test_suite_refuses_min_cell_count_below_one(min_cell_count):
    # Every cell is populated, so the refusal is the bound itself; with an
    # empty cell a bound below 1 would run a test on no records.
    data = sample_dataset(0.5, 1200, seed=14, n_cells=2)
    with pytest.raises(DomainError, match="min_cell_count must be at least 1"):
        conditional_test_suite(data, b=99, seed=2, min_cell_count=min_cell_count)


def test_suite_deterministic_under_permutation():
    sample = sample_records(0.5, 2400, seed=16, n_cells=2)
    data = sample.data
    perm = np.random.default_rng(17).permutation(data.n)
    shuffled = shuffled_dataset(sample, perm)
    a = conditional_test_suite(data, b=149, seed=5)
    b = conditional_test_suite(shuffled, b=149, seed=5)
    assert a.to_dict() == b.to_dict()


def test_suite_thirty_two_cells_plus_pooled():
    data = sample_dataset(0.5, 8000, seed=19, n_cells=32)
    suite = conditional_test_suite(data, b=99, seed=8)
    assert len(suite.cells) + len(suite.skipped) == 32
    assert suite.pooled.n == 8000
    labels = {r.w_cell for r in suite.cells} | {s.w_cell for s in suite.skipped}
    assert len(labels) == 32


def test_stars_follow_critical_values():
    data = sample_dataset(0.7, 5000, seed=18, z_mix=0.8)
    rep = bootstrap_test(data, b=199, seed=6)
    assert rep.statistic > rep.critical_values[0.99]
    assert rep.stars() == "***"
