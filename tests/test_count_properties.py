"""Property tests: every statistic reads the (cell, x, y, z) count table.

The references below count records with per-cell masks, the way the
statistics were computed before the count table existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcat.data import ContingencyTable, Dataset, tabulate
from latentcat.errors import ConfigurationError, DataError
from latentcat.mle import loglik
from latentcat.ordered import _cell_design, reported_conditional
from latentcat.spectral import MisclassificationModel, _joint_pmf

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def datasets(draw):
    n_cols = draw(st.integers(0, 2))
    s_x = draw(st.integers(2, 4))
    s_z = draw(st.integers(2, 4))
    n = draw(st.integers(1, 40))
    codes = st.tuples(
        st.integers(1, s_x), st.integers(0, 1), st.integers(1, s_z),
        st.integers(0, 2**n_cols - 1),
    )
    rows = np.asarray(draw(st.lists(codes, min_size=n, max_size=n)))
    order = np.asarray(draw(st.permutations(range(n))))
    return rows, order, (s_x, 2, s_z), n_cols


def make(rows, support, n_cols):
    return Dataset(
        x=rows[:, 0], y=rows[:, 1], z=rows[:, 2], w=rows[:, 3], support=support,
        w_columns=tuple(f"w{k + 1}" for k in range(n_cols)),
        w_labels=tuple(str(c) for c in range(2**n_cols)),
    )


def mask_table(data, cell):
    mask = np.ones(data.n, dtype=bool) if cell is None else data.w == cell
    s_x, _, s_z = data.support
    counts = np.zeros((s_x, 2, s_z), dtype=np.int64)
    for x, y, z in zip(data.x[mask], data.y[mask], data.z[mask]):
        counts[x - 1, y, z - 1] += 1
    return counts


def mask_x_hist(data):
    return np.asarray([
        np.bincount(data.x[data.w == c] - 1, minlength=data.support[0])
        for c in range(data.n_w_cells)
    ])


@SETTINGS
@given(datasets())
def test_tables_match_record_masks_and_ignore_order(case):
    rows, order, support, n_cols = case
    data = make(rows, support, n_cols)
    shuffled = make(rows[order], support, n_cols)
    assert np.array_equal(data.counts, shuffled.counts)
    sizes = [int((data.w == c).sum()) for c in range(data.n_w_cells)]
    assert data.cell_counts().tolist() == sizes
    assert shuffled.cell_counts().tolist() == sizes
    for cell in (None, *range(data.n_w_cells)):
        if cell is not None and sizes[cell] == 0:
            with pytest.raises(DataError):
                tabulate(data, cell)
            continue
        expected = mask_table(data, cell)
        for d in (data, shuffled):
            table = tabulate(d, cell)
            assert isinstance(table, ContingencyTable)
            assert np.array_equal(table.counts, expected)
            assert table.n == expected.sum()


@SETTINGS
@given(datasets())
def test_outcome_conditionals_match_record_masks(case):
    rows, order, support, n_cols = case
    data = make(rows, support, n_cols)
    shuffled = make(rows[order], support, n_cols)
    hist = mask_x_hist(data)
    populated = hist.sum(axis=1) > 0
    bits = [[1.0, *((c >> k) & 1 for k in range(n_cols))] for c in range(data.n_w_cells)]
    for d in (data, shuffled):
        if support[0] < 3:
            with pytest.raises(ConfigurationError):
                _cell_design(d)
            continue
        q, counts, _ = _cell_design(d)
        assert np.array_equal(q, np.asarray(bits)[populated])
        assert np.array_equal(counts, hist[populated].astype(float))
    if not populated.all():
        return
    for d in (data, shuffled):
        lc = reported_conditional(d)
        for c, cell in enumerate(lc.cells):
            assert np.array_equal(cell.probs, hist[c] / hist[c].sum())
            assert cell.weight == hist[c].sum() / data.n
            assert np.array_equal(cell.q_tilde, bits[c])


def random_model(rng, s_x, s_z):
    return MisclassificationModel(
        m_x_given_xstar=rng.dirichlet(np.ones(s_x), size=s_x).T,
        f_y_given_xstar=rng.uniform(0.05, 0.95, size=s_x),
        m_z_given_xstar=rng.dirichlet(np.ones(s_z), size=s_x).T,
        f_xstar=rng.dirichlet(np.ones(s_x)),
    )


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_loglik_invariant_to_latent_relabeling(seed, s_x, s_z):
    rng = np.random.default_rng(seed)
    model = random_model(rng, s_x, s_z)
    perm = rng.permutation(s_x)
    relabeled = MisclassificationModel(
        m_x_given_xstar=model.m_x_given_xstar[:, perm],
        f_y_given_xstar=model.f_y_given_xstar[perm],
        m_z_given_xstar=model.m_z_given_xstar[:, perm],
        f_xstar=model.f_xstar[perm],
    )
    counts = rng.integers(0, 50, size=(s_x, 2, s_z))
    table = ContingencyTable(counts=counts, n=int(counts.sum()))
    assert loglik(relabeled, table) == pytest.approx(loglik(model, table), rel=1e-12)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 4), st.integers(2, 4))
def test_batched_joint_pmf_equals_items(seed, batch, s_x, s_z):
    rng = np.random.default_rng(seed)
    models = [random_model(rng, s_x, s_z) for _ in range(batch)]
    items = [m.blocks() for m in models]
    stacked = [np.stack(parts) for parts in zip(*items)]
    batched = _joint_pmf(*stacked)
    assert batched.shape == (batch, s_x, 2, s_z)
    for got, blocks in zip(batched, items):
        assert np.array_equal(got, _joint_pmf(*blocks))
