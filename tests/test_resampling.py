import numpy as np
import pytest

from latentcat.data import Dataset, nearest_rank, tabulate
from latentcat.errors import DomainError, EstimationError
from latentcat.generate import GeneratorSpec, draw, make_model
from latentcat.mle import CmleConfig, fit_tables
from latentcat.ordered import linear_projection, reported_conditional
from latentcat.resampling import boot_se, resample, run_plan

from conftest import fitted, per_redraw


def small_sample(n=40, seed=0, n_cells=2):
    spec = GeneratorSpec(n_w_cells=n_cells, seed=seed)
    models = make_model(spec)
    return draw(models, np.full(n_cells, 1 / n_cells), n, seed=seed + 1)


def small_dataset(n=40, seed=0, n_cells=2):
    return small_sample(n, seed, n_cells).data


def mean_x(d):
    return float(d.counts.sum(axis=(0, 2, 3)) @ np.arange(1, d.support[0] + 1)) / d.n


def mean_y(d):
    return float(d.counts[:, :, 1].sum()) / d.n


def more_x1_than(data):
    # Replicate-level event with probability near 1/2: more x = 1 records
    # than the sample it was redrawn from.
    base = data.counts[:, 0].sum()
    return lambda d: bool(d.counts[:, 0].sum() > base)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


def test_resample_single_record():
    data = Dataset.from_records(
        x=np.array([2]), y=np.array([1]), z=np.array([3]), w=np.array([0]),
        support=(3, 2, 3),
    )
    redraw = resample(data, seed=5)
    assert redraw.n == 1
    assert redraw.counts[0, 2 - 1, 1, 3 - 1] == 1


def test_resample_same_seed_identical():
    data = small_dataset()
    a = resample(data, seed=7)
    b = resample(data, seed=7)
    assert np.array_equal(a.counts, b.counts)


def test_resample_stratified_preserves_cell_counts():
    data = small_dataset(n=200, seed=3, n_cells=4)
    redraw = resample(data, seed=11)
    assert np.array_equal(redraw.cell_counts(), data.cell_counts())


def test_resample_expected_record_frequency():
    # Record 0 appears Binomial(R*n, 1/n) times across R replicates of size n.
    sample = small_sample(n=10, seed=4, n_cells=1)
    data = sample.data
    marker = (0, sample.x[0] - 1, sample.y[0], sample.z[0] - 1)
    matches_record0 = np.flatnonzero(
        (sample.x == sample.x[0]) & (sample.y == sample.y[0])
        & (sample.z == sample.z[0])
    )
    r = 2000
    hits = 0
    for i in range(r):
        redraw = resample(data, seed=1000 + i)
        hits += int(redraw.counts[marker])
    mean = r * matches_record0.size  # each slot hits with prob k/n over n slots
    sd = np.sqrt(r * 10 * (matches_record0.size / 10) * (1 - matches_record0.size / 10))
    assert abs(hits - mean) <= 3 * sd


# ---------------------------------------------------------------------------
# nearest-rank percentile / boot_se
# ---------------------------------------------------------------------------


def test_percentile_order_statistic():
    assert nearest_rank(np.arange(1, 101), 0.95) == 95.0


def test_percentile_constant():
    assert nearest_rank(np.full(17, 3.5), 0.25) == 3.5
    assert nearest_rank(np.full(17, 3.5), 0.99) == 3.5


def test_percentile_normal_quantile():
    draws = np.sort(np.random.default_rng(6).normal(size=999))
    assert abs(nearest_rank(draws, 0.975) - 1.96) < 0.15


def test_percentile_monotone_in_level():
    rng = np.random.default_rng(8)
    values = np.sort(rng.normal(size=250))
    quantiles = [nearest_rank(values, lv) for lv in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    assert quantiles == sorted(quantiles)


def test_boot_se_identical_replicates():
    assert np.allclose(boot_se([np.ones(3)] * 9), 0.0)


def test_boot_se_two_point():
    v = np.array([0.5, -2.0, 3.0])
    se = boot_se([v, -v])
    assert np.allclose(se, np.abs(v) * np.sqrt(2))


def test_boot_se_needs_two():
    with pytest.raises(DomainError):
        boot_se([np.ones(2)])


# ---------------------------------------------------------------------------
# run_plan
# ---------------------------------------------------------------------------


def test_run_plan_domain():
    data = small_dataset()
    with pytest.raises(DomainError, match="at least one replicate"):
        run_plan(data, per_redraw(mean_x), b=0, seed=1)
    with pytest.raises(DomainError, match="master seed"):
        run_plan(data, per_redraw(mean_x), b=2, seed=-1)


def test_run_plan_rows_follow_replicate_seeds():
    # Row i is the estimator on the redraw keyed by (seed, i, 0x7273) alone,
    # however the replicates are scheduled.
    data = small_dataset(n=120, seed=9, n_cells=2)

    def estimator(d):
        return np.array([mean_x(d), mean_y(d), *d.cell_counts()])

    run = run_plan(data, per_redraw(estimator), b=24, seed=13)
    keyed = [estimator(resample(data, np.random.SeedSequence((13, i, 0x7273))))
             for i in range(24)]
    assert np.array_equal(run.estimates, np.vstack(keyed))


def test_run_plan_drops_failed_replicates():
    data = small_dataset(n=60, seed=10, n_cells=1)
    calls = {"n": 0}
    fails = more_x1_than(data)

    def estimator(d):
        calls["n"] += 1
        if fails(d):
            raise EstimationError("synthetic failure")
        return np.array([mean_x(d)])

    run = run_plan(data, per_redraw(estimator), b=40, seed=14)
    assert run.n_requested == 40
    assert run.n_dropped >= 1
    assert run.estimates.shape[0] == 40 - run.n_dropped


def test_run_plan_counts_boundary_flags():
    data = small_dataset(n=60, seed=11, n_cells=1)

    flagged = more_x1_than(data)

    def estimator(d):
        return np.array([mean_x(d)]), flagged(d)

    run = run_plan(data, per_redraw(estimator), b=30, seed=15)
    assert 0 < run.boundary_hits < 30
    # One flag per model: each model's hits are counted on their own.
    per_model = run_plan(data, per_redraw(
        lambda d: (np.array([mean_x(d)]), [flagged(d), True, False])), b=30, seed=15)
    assert per_model.boundary_hits == [run.boundary_hits, 30, 0]


def test_boot_se_matches_monte_carlo_sd():
    # Bootstrap standard error of the per-cell latent marginal from one
    # sample must approximate the Monte Carlo sd of the estimator across
    # independent datasets.
    spec = GeneratorSpec(
        misclassification_strength=0.2,
        eigenvalue_separation=0.3,
        z_mix=0.8,
        latent_uniform_mix=0.7,
        min_singular_value=0.1,
        seed=2024,
    )
    [model] = make_model(spec)
    config = CmleConfig(n_starts=2, seed=0)

    def estimator(d):
        [result] = fit_tables([tabulate(d)], [config], [model])
        return fitted(result).model.f_xstar

    base = draw([model], [1.0], 20_000, seed=1).data
    run = run_plan(base, per_redraw(estimator), b=199, seed=99)
    se = run.se()

    mc = []
    for k in range(200):
        d = draw([model], [1.0], 20_000, seed=500 + k).data
        mc.append(estimator(d))
    mc_sd = np.vstack(mc).std(axis=0, ddof=1)
    assert np.all(np.abs(se - mc_sd) <= 0.30 * mc_sd)


# ---------------------------------------------------------------------------
# count-table redraws against the record gather they replaced
# ---------------------------------------------------------------------------


def record_gather(sample, seed):
    """The former engine: draw each covariate cell's records with
    replacement, then count them."""
    rng = np.random.default_rng(seed)
    idx = np.empty(sample.x.size, dtype=np.int64)
    pos = 0
    for cell in range(sample.data.n_w_cells):
        members = np.flatnonzero(sample.w == cell)
        take = rng.integers(0, members.size, size=members.size)
        idx[pos : pos + members.size] = members[take]
        pos += members.size
    data = sample.data
    return Dataset.from_records(
        sample.x[idx], sample.y[idx], sample.z[idx], sample.w[idx],
        support=data.support, w_columns=data.w_columns, w_labels=data.w_labels,
    )


def test_count_redraws_match_record_redraws_in_distribution():
    # Bootstrap SEs of the reported linear-projection coefficients from
    # B = 2000 replicates of each engine. Each SE has a relative Monte Carlo
    # sd of about 1/sqrt(2(B-1)) = 1.6%, so the ratio of two independent
    # ones has sd of about 2.2%; the 10% bound is 4.5 sd, over 3
    # coefficients.
    sample = small_sample(n=400, seed=21, n_cells=4)
    data = sample.data

    def beta(d):
        return linear_projection(reported_conditional(d), target="reported").beta

    b = 2000
    counts = run_plan(data, per_redraw(beta), b=b, seed=31)
    assert counts.n_dropped == 0
    records = np.vstack([
        beta(record_gather(sample, np.random.SeedSequence((32, i))))
        for i in range(b)
    ])
    ratio = counts.se() / records.std(axis=0, ddof=1)
    assert np.all(np.abs(ratio - 1.0) < 0.10), ratio


def test_stratified_redraws_keep_every_cell_total():
    data = small_dataset(n=300, seed=22, n_cells=8)
    counts = data.counts.copy()
    counts[5] = 0  # an empty cell stays empty
    data = Dataset(counts, data.w_columns, data.w_labels)
    for i in range(50):
        redraw = resample(data, np.random.SeedSequence((5, i)))
        assert np.array_equal(redraw.cell_counts(), data.cell_counts())


def test_one_cell_redraw_is_the_whole_table_multinomial():
    # With one covariate cell, the redraw within cells is the redraw of all
    # n records: one Multinomial(n, counts / n) over the table, bit for bit.
    data = small_dataset(n=300, seed=23, n_cells=1)
    for i in range(50):
        seed = np.random.SeedSequence((6, i))
        whole = np.random.default_rng(seed).multinomial(data.n, data.counts.ravel() / data.n)
        assert np.array_equal(resample(data, seed).counts.ravel(), whole)


def test_run_plan_counts_drops_by_reason():
    data = small_dataset(n=60, seed=12, n_cells=2)
    fails = more_x1_than(data)

    def estimator(d):
        if fails(d):
            raise EstimationError("synthetic failure")
        return np.array([mean_x(d)])

    run = run_plan(data, per_redraw(estimator), b=40, seed=16)
    assert run.dropped["estimator_failed"] >= 1
    assert run.n_dropped == sum(run.dropped.values())
    assert run.to_dict()["dropped"] == run.dropped
    assert run.estimates.shape[0] == 40 - run.n_dropped

    def always_fails(d):
        raise EstimationError("synthetic failure")

    with pytest.raises(EstimationError, match="0 of 5 .*'estimator_failed': 5"):
        run_plan(data, per_redraw(always_fails), b=5, seed=16)

    def keeps_one(redraws):  # one kept replicate gives no standard error either
        return [np.array([1.0])] + [EstimationError("synthetic failure")] * (len(redraws) - 1)

    with pytest.raises(EstimationError, match="1 of 5 .*'estimator_failed': 4"):
        run_plan(data, keeps_one, b=5, seed=16)
