from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latentcat.citest import ts_statistic
from latentcat.data import tabulate
from latentcat.errors import ConfigurationError, DomainError, GeneratorError
from latentcat.generate import GeneratorSpec, draw, make_model
from latentcat import spectral
from latentcat.mle import _random_model
from latentcat.spectral import (
    BLOCKS,
    MisclassificationModel,
    build_matrices,
    check_rank,
    closed_form,
    population_pmf,
)

from conftest import min_gap, model_distance


@pytest.mark.parametrize("entry", [ts_statistic, build_matrices, closed_form],
                         ids=["ts_statistic", "build_matrices", "closed_form"])
@pytest.mark.parametrize("probs", [
    np.full((3, 3), 1 / 9),
    np.random.default_rng(0).dirichlet(np.ones(27)).reshape(3, 3, 3),
], ids=["2-d", "3-level-y"])
def test_pmf_entry_points_refuse_a_table_not_sx_2_sz(entry, probs):
    # A 2-d array once failed with a bare IndexError or ValueError, and a
    # 3-level middle axis was read as y in {0, 1}, its last slice dropped.
    with pytest.raises(DomainError, match=r"a table is an \(S_X, 2, S_Z\) array"):
        entry(probs)


# ---------------------------------------------------------------------------
# The model's layout: BLOCKS, blocks, pack and split
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s_x=st.integers(2, 5), s_z=st.integers(2, 5),
       batch=st.integers(1, 8))
def test_split_of_stacked_columns_is_each_models_blocks(seed, s_x, s_z, batch):
    rng = np.random.default_rng(seed)
    models = [_random_model(rng, s_x, s_z) for _ in range(batch)]
    packed = np.stack([m.pack() for m in models], axis=1)
    split = MisclassificationModel.split(packed, s_x, s_z)
    assert list(BLOCKS) == [f.name for f in fields(MisclassificationModel)]
    for block in split:
        assert np.shares_memory(block, packed)
        assert block.shape[-1] == batch
    for i, model in enumerate(models):
        for got, want in zip(split, model.blocks):
            assert got[..., i].tobytes() == want.tobytes()
            assert got[..., i].shape == want.shape
        vector = model.pack()
        assert MisclassificationModel(*MisclassificationModel.split(
            vector, s_x, s_z)).pack().tobytes() == vector.tobytes()
        assert MisclassificationModel.from_dict(
            model.to_dict()).pack().tobytes() == vector.tobytes()


def spec_for(seed, **kwargs):
    defaults = dict(
        misclassification_strength=0.4,
        eigenvalue_separation=0.2,
        min_singular_value=0.08,
        seed=seed,
    )
    defaults.update(kwargs)
    return GeneratorSpec(**defaults)


# ---------------------------------------------------------------------------
# build_matrices
# ---------------------------------------------------------------------------


def test_build_matrices_product_is_rank_one():
    rng = np.random.default_rng(0)
    f_x = rng.dirichlet(np.ones(3))
    f_y = np.array([0.4, 0.6])
    f_z = rng.dirichlet(np.ones(3))
    probs = np.einsum("x,y,z->xyz", f_x, f_y, f_z)
    m_xz, _ = build_matrices(probs)
    assert np.linalg.matrix_rank(m_xz, tol=1e-12) == 1


def test_build_matrices_marginalization_identity():
    [model] = make_model(spec_for(1))
    m_xz, m_per_y = build_matrices(population_pmf(model))
    assert np.allclose(m_xz, m_per_y[0] + m_per_y[1])


def test_build_matrices_match_direct_factorization():
    # Both observable matrices must equal the model's factorized forms
    # computed straight from the blocks.
    [model] = make_model(spec_for(2))
    m_xz, m_per_y = build_matrices(population_pmf(model))
    d_pi = np.diag(model.f_xstar)
    direct_xz = model.m_x_given_xstar @ d_pi @ model.m_z_given_xstar.T
    assert np.allclose(m_xz, direct_xz, atol=1e-14)
    for y in (0, 1):
        fy = model.f_y_given_xstar if y == 1 else 1 - model.f_y_given_xstar
        direct = model.m_x_given_xstar @ np.diag(fy) @ d_pi @ model.m_z_given_xstar.T
        assert np.allclose(m_per_y[y], direct, atol=1e-14)


def test_build_matrices_rejects_nonsquare():
    probs = np.full((3, 2, 2), 1 / 12)
    with pytest.raises(ConfigurationError, match="coarsen"):
        build_matrices(probs)


# ---------------------------------------------------------------------------
# check_rank
# ---------------------------------------------------------------------------


def test_check_rank_scaled_identity(monkeypatch):
    # All three singular values are 1/3: the gate passes below a relative
    # floor of 1 and fails at 1.
    assert check_rank(np.eye(3) / 3)
    monkeypatch.setattr(spectral, "RANK_TOL", 1 - 1e-9)
    assert check_rank(np.eye(3) / 3)
    monkeypatch.setattr(spectral, "RANK_TOL", 1.0)
    assert not check_rank(np.eye(3) / 3)


def test_check_rank_rank_one():
    m = np.outer([0.2, 0.3, 0.5], [0.25, 0.35, 0.4])
    assert not check_rank(m)


def test_check_rank_sample_close_to_population(monkeypatch):
    # The sample's smallest singular value, relative to its largest, lies
    # within 10% of the population's.
    [model] = make_model(spec_for(3))
    pop_m, _ = build_matrices(population_pmf(model))
    svals = np.linalg.svd(pop_m, compute_uv=False)
    pop_ratio = svals[-1] / svals[0]
    sample = draw([model], [1.0], 50_000, seed=4).data
    emp_m, _ = build_matrices(tabulate(sample) / sample.n)
    assert check_rank(emp_m)
    monkeypatch.setattr(spectral, "RANK_TOL", 0.9 * pop_ratio)
    assert check_rank(emp_m)
    monkeypatch.setattr(spectral, "RANK_TOL", 1.1 * pop_ratio)
    assert not check_rank(emp_m)


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------


def test_identity_misclassification_exact():
    [model] = make_model(spec_for(5, misclassification_strength=0.0))
    assert np.array_equal(model.m_x_given_xstar, np.eye(3))
    rec = closed_form(population_pmf(model))
    assert np.allclose(rec.m_x_given_xstar, np.eye(3), atol=1e-12)
    assert np.allclose(rec.f_y_given_xstar, model.f_y_given_xstar, atol=1e-12)
    rec.validate()


def test_population_recovery_across_models():
    for seed in range(8):
        [model] = make_model(spec_for(40 + seed))
        pmf = population_pmf(model)
        rec = closed_form(pmf)
        assert model_distance(rec, model) < 1e-10
        assert rec.ord_satisfied
        assert min_gap(rec.f_y_given_xstar) >= 0.2 - 1e-9
        # Both y branches of the table, not only the decomposed y=1 one.
        assert np.abs(population_pmf(rec) - pmf).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    strength=st.floats(0.0, 1.0),
    separation=st.floats(0.05, 0.3),
    n_w_cells=st.sampled_from([1, 2, 4]),
)
# Strength 0 gives identity reporting matrices, whose last row ties in all
# but one state: ordering by the last row alone once swapped two states here.
@example(seed=0, strength=0.0, separation=0.168, n_w_cells=2)
@example(seed=0, strength=0.0, separation=0.25, n_w_cells=1)
def test_population_round_trip_on_random_specs(seed, strength, separation, n_w_cells):
    # ROADMAP item 4: every admissible generator draw is recovered from its
    # own population pmf, cell by cell.
    try:
        models = make_model(spec_for(
            seed, misclassification_strength=strength,
            eigenvalue_separation=separation, n_w_cells=n_w_cells,
        ))
    except GeneratorError:
        assume(False)
    for model in models:
        rec = closed_form(population_pmf(model))
        assert model_distance(rec, model) < 1e-8


def test_reconstruction_identity_both_branches():
    [model] = make_model(spec_for(6))
    pmf = population_pmf(model)
    rec = closed_form(pmf)
    d_pi = np.diag(rec.f_xstar)
    for y in (0, 1):
        fy = rec.f_y_given_xstar if y == 1 else 1 - rec.f_y_given_xstar
        recon = rec.m_x_given_xstar @ np.diag(fy) @ d_pi @ rec.m_z_given_xstar.T
        assert np.allclose(recon, pmf[:, y, :], atol=1e-10)


def test_marginal_identity():
    [model] = make_model(spec_for(7))
    pmf = population_pmf(model)
    rec = closed_form(pmf)
    f_x = pmf.sum(axis=(1, 2))
    assert np.allclose(rec.m_x_given_xstar @ rec.f_xstar, f_x, atol=1e-10)


def test_z_relabeling_only_permutes_z_rows():
    [model] = make_model(spec_for(8))
    pmf = population_pmf(model)
    perm = [2, 0, 1]
    permuted = pmf[:, :, perm]
    rec_a = closed_form(pmf)
    rec_b = closed_form(permuted)
    assert np.allclose(rec_a.m_x_given_xstar, rec_b.m_x_given_xstar, atol=1e-10)
    assert np.allclose(rec_a.f_xstar, rec_b.f_xstar, atol=1e-10)
    assert np.allclose(rec_a.m_z_given_xstar[perm, :], rec_b.m_z_given_xstar,
                       atol=1e-10)


def test_closed_form_is_none_without_a_real_solution():
    [model] = make_model(spec_for(10))
    # A second measure that ignores the latent state kills invertibility.
    flat = MisclassificationModel(
        m_x_given_xstar=model.m_x_given_xstar,
        f_y_given_xstar=model.f_y_given_xstar,
        m_z_given_xstar=np.full((3, 3), 1 / 3),
        f_xstar=model.f_xstar,
    )
    assert closed_form(population_pmf(flat)) is None
    assert closed_form(np.zeros((3, 2, 3))) is None
    assert closed_form(np.full((3, 2, 2), 1 / 12)) is None  # not square


def test_finite_sample_negative_entries_rejected_not_repaired():
    # At small n the decomposition produces materially negative entries;
    # the closed form keeps them, and the model they make is refused.
    [model] = make_model(spec_for(11, misclassification_strength=0.6))
    sample = draw([model], [1.0], 400, seed=12).data
    rec = closed_form(tabulate(sample) / sample.n)
    assert min(block.min() for block in rec.blocks) < -0.01
    with pytest.raises(DomainError, match="outside"):
        rec.validate()


def test_ord_flag_reports_not_reorders():
    [model] = make_model(spec_for(13))
    rec = closed_form(population_pmf(model))
    assert rec.ord_satisfied
    last = rec.m_x_given_xstar[-1, :]
    assert np.all(np.diff(last) >= 0)  # ordering device sorts ascending
