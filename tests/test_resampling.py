import numpy as np
import pytest

from latentcat.data import Dataset, tabulate
from latentcat.errors import DomainError, EmptyCellError, EstimationError
from latentcat.generate import GeneratorSpec, draw, make_model
from latentcat.mle import CmleConfig, fit
from latentcat.ordered import linear_projection, reported_conditional
from latentcat.resampling import (
    ResamplePlan,
    boot_se,
    percentile,
    resample,
    run_plan,
)


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
    redraw = resample(data, seed=11, stratify_by_cell=True)
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
# percentile / boot_se
# ---------------------------------------------------------------------------


def test_percentile_order_statistic():
    assert percentile(np.arange(1, 101), 0.95) == 95.0


def test_percentile_constant():
    assert percentile([3.5] * 17, 0.25) == 3.5
    assert percentile([3.5] * 17, 0.99) == 3.5


def test_percentile_normal_quantile():
    draws = np.random.default_rng(6).normal(size=999)
    assert abs(percentile(draws, 0.975) - 1.96) < 0.15


def test_percentile_monotone_in_level():
    rng = np.random.default_rng(8)
    values = rng.normal(size=250)
    quantiles = [percentile(values, lv) for lv in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    assert quantiles == sorted(quantiles)


def test_percentile_domain():
    with pytest.raises(DomainError):
        percentile([], 0.5)
    with pytest.raises(DomainError):
        percentile([1.0], 1.5)


def test_boot_se_identical_replicates():
    assert np.allclose(boot_se([np.ones(3)] * 9), 0.0)


def test_boot_se_two_point():
    v = np.array([0.5, -2.0, 3.0])
    se = boot_se([v, -v])
    assert np.allclose(se, np.abs(v) * np.sqrt(2))


def test_boot_se_boundary_warning():
    with pytest.warns(UserWarning, match="boundary"):
        boot_se([np.ones(2), np.zeros(2)], boundary_hits=1)


def test_boot_se_needs_two():
    with pytest.raises(DomainError):
        boot_se([np.ones(2)])


# ---------------------------------------------------------------------------
# run_plan
# ---------------------------------------------------------------------------


def test_run_plan_rows_follow_replicate_seeds():
    # Row i is the estimator on the redraw keyed by replicate_seed(i) alone,
    # however the replicates are scheduled.
    data = small_dataset(n=120, seed=9, n_cells=2)

    def estimator(d):
        return np.array([mean_x(d), mean_y(d), *d.cell_counts()])

    for stratify in (False, True):
        plan = ResamplePlan(b=24, master_seed=13, stratify_by_cell=stratify)
        run = run_plan(plan, data, estimator)
        keyed = [estimator(resample(data, plan.replicate_seed(i), stratify))
                 for i in range(plan.b)]
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

    plan = ResamplePlan(b=40, master_seed=14)
    run = run_plan(plan, data, estimator)
    assert run.n_requested == 40
    assert run.n_dropped >= 1
    assert run.estimates.shape[0] == 40 - run.n_dropped


def test_run_plan_counts_boundary_flags():
    data = small_dataset(n=60, seed=11, n_cells=1)

    flagged = more_x1_than(data)

    def estimator(d):
        return np.array([mean_x(d)]), flagged(d)

    run = run_plan(ResamplePlan(b=30, master_seed=15), data, estimator)
    assert 0 < run.boundary_hits < 30
    with pytest.warns(UserWarning):
        run.se()


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
    config = CmleConfig(n_starts=2, seed=0, ord_constraint="enforce")

    def estimator(d):
        result = fit(tabulate(d), config, warm_start=model)
        return result.model.f_xstar

    base = draw([model], [1.0], 20_000, seed=1).data
    run = run_plan(ResamplePlan(b=199, master_seed=99), base, estimator)
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


def record_gather(sample, seed, stratify_by_cell=False):
    """The former engine: draw n records with replacement (within each
    covariate cell when stratified), then count them."""
    rng = np.random.default_rng(seed)
    n = sample.x.size
    if not stratify_by_cell:
        idx = rng.integers(0, n, size=n)
    else:
        idx = np.empty(n, dtype=np.int64)
        pos = 0
        for cell in range(sample.data.n_w_cells):
            members = np.flatnonzero(sample.w == cell)
            if members.size == 0:
                continue
            take = rng.integers(0, members.size, size=members.size)
            idx[pos : pos + members.size] = members[take]
            pos += members.size
    data = sample.data
    return Dataset.from_records(
        sample.x[idx], sample.y[idx], sample.z[idx], sample.w[idx],
        support=data.support, w_columns=data.w_columns, w_labels=data.w_labels,
    )


@pytest.mark.parametrize("stratify", [False, True])
def test_count_redraws_match_record_redraws_in_distribution(stratify):
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
    counts = run_plan(ResamplePlan(b=b, master_seed=31, stratify_by_cell=stratify),
                      data, beta)
    assert counts.n_dropped == 0
    records = np.vstack([
        beta(record_gather(sample, np.random.SeedSequence((32, i)), stratify))
        for i in range(b)
    ])
    ratio = counts.se() / records.std(axis=0, ddof=1)
    assert np.all(np.abs(ratio - 1.0) < 0.10), ratio


def test_stratified_redraws_keep_every_cell_total():
    data = small_dataset(n=300, seed=22, n_cells=8)
    unstratified_moved = False
    for i in range(50):
        redraw = resample(data, np.random.SeedSequence((5, i)), stratify_by_cell=True)
        assert np.array_equal(redraw.cell_counts(), data.cell_counts())
        plain = resample(data, np.random.SeedSequence((5, i)))
        assert plain.n == data.n
        unstratified_moved |= not np.array_equal(plain.cell_counts(), data.cell_counts())
    assert unstratified_moved


def test_run_plan_counts_drops_by_reason():
    data = small_dataset(n=60, seed=12, n_cells=2)
    empties = more_x1_than(data)

    def estimator(d):
        if empties(d):
            raise EmptyCellError("synthetic empty cell")
        if d.counts[:, 1].sum() > data.counts[:, 1].sum():
            raise EstimationError("synthetic failure")
        return np.array([mean_x(d)])

    run = run_plan(ResamplePlan(b=40, master_seed=16), data, estimator)
    assert run.dropped["emptied_cell"] >= 1 and run.dropped["estimator_failed"] >= 1
    assert run.n_dropped == sum(run.dropped.values())
    assert run.to_dict()["dropped"] == run.dropped
    assert run.estimates.shape[0] == 40 - run.n_dropped

    def always_empty(d):
        raise EmptyCellError("synthetic empty cell")

    with pytest.raises(EstimationError, match="'emptied_cell': 5"):
        run_plan(ResamplePlan(b=5, master_seed=16), data, always_empty)
