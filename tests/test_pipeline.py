from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latentcat import resampling
from latentcat.data import Dataset, tabulate
from latentcat.errors import (
    ConfigurationError, DomainError, EmptyCellError, EstimationError, OptimizationError
)
from latentcat.generate import GeneratorSpec, ProbitParams, draw, make_model
from latentcat.mle import CmleConfig, CmleResult, fit
from latentcat.ordered import hetero_ordered_probit, ordered_probit_mle, reported_conditional
from latentcat.pipeline import (
    bootstrap_std_errors,
    fit_cells,
    model_std_errors,
    parametric_fit,
)
from latentcat.spectral import MisclassificationModel

from conftest import fitted, per_redraw


@pytest.fixture(scope="module")
def probit_sample():
    params = ProbitParams(
        beta=np.array([0.5, 0.15, -0.2]),
        sigma_by_cell=np.array([0.8, 1.0, 1.2, 0.9]),
        cutpoints=np.array([0.0, 1.0]),
    )
    spec = GeneratorSpec(
        n_w_cells=4,
        misclassification_strength=0.3,
        eigenvalue_separation=0.3,
        z_mix=0.8,
        latent_uniform_mix=0.8,
        min_singular_value=0.1,
        seed=101,
        probit_params=params,
    )
    models = make_model(spec)
    data = draw(models, np.full(4, 0.25), 40_000, seed=102).data
    return params, models, data


def every_cell(data, n_starts, seed):
    """Fits of every cell of ``data`` at ``n_starts`` starts, cell c's
    seeded ``seed + c`` (``fit_cells``' rule); raises the first failing
    cell's error."""
    [fits] = fit_cells([data], list(range(data.n_w_cells)), seed, n_starts)
    for fit_ in fits:
        if isinstance(fit_, OptimizationError):
            raise fit_
    return fits


def test_fit_cells_covers_every_cell(probit_sample):
    _, models, data = probit_sample
    results = every_cell(data, 4, 1)
    assert len(results) == 4
    for result, truth in zip(results, models):
        assert np.abs(result.model.f_xstar - truth.f_xstar).max() < 0.05


def test_fit_cells_fits_each_table_as_fit_alone(probit_sample):
    _, _, data = probit_sample
    redraw = resampling.resample(data, 3)
    cells = [2, 3, 0]  # in any order, cell c's starts are seeded 7 + c
    fitted = fit_cells([data, redraw], cells, 7, n_starts=2)
    assert len(fitted) == 2
    for dataset, fits in zip([data, redraw], fitted):
        assert len(fits) == len(cells)
        for cell, result in zip(cells, fits):
            alone = fit(tabulate(dataset, cell), CmleConfig(n_starts=2, seed=7 + cell))
            assert result.model.pack().tobytes() == alone.model.pack().tobytes()
            assert result.loglik == alone.loglik


def test_fit_cells_raises_on_an_empty_listed_cell(probit_sample):
    # A redraw within cells keeps every cell's total, so a cell is empty
    # only when the data's is: that is a data error, not a dropped replicate.
    _, _, data = probit_sample
    counts = data.counts.copy()
    counts[1] = 0
    emptied = Dataset(counts, data.w_columns, data.w_labels)
    with pytest.raises(EmptyCellError, match=repr(data.w_labels[1])):
        fit_cells([data, emptied], [0, 1], 0, n_starts=1)
    [fits] = fit_cells([emptied], [0, 2], 0, n_starts=1)
    assert all(isinstance(fit_, CmleResult) for fit_ in fits)


def test_fit_cells_refuses_lists_that_are_not_one_per_cell(probit_sample):
    _, _, data = probit_sample
    for cells, warm in (([], None), ([0, 1], [None]), ([0], [None, None])):
        with pytest.raises(DomainError, match="one or more cells"):
            fit_cells([data], cells, 0, n_starts=1, warm_starts=warm)


def test_latent_fit_needs_cell_models(probit_sample):
    _, _, data = probit_sample
    with pytest.raises(ConfigurationError, match="needs cell models"):
        parametric_fit([data], "hoprobit", "latent")
    with pytest.raises(ConfigurationError, match="1 model lists for 2 datasets"):
        parametric_fit([data, data], "hoprobit", "latent", [None])


def test_model_std_errors_per_cell_independent_of_the_batch(probit_sample):
    # Stratified redraws give each cell the same counts whichever cells are
    # listed, and fit_tables fits each table as it would alone; so a cell's
    # s.e. and boundary count do not depend on the other cells.
    _, _, data = probit_sample
    results = every_cell(data, 2, 1)
    together = model_std_errors(data, [0, 1, 2, 3], results, b=3, seed=9)
    assert all(run.n_dropped == 0 for run in together)
    # At this seed only cell 3's fits touch a boundary, so a shared count
    # would show.
    assert [run.boundary_hits for run in together] == [0, 0, 0, 2]
    for cell in (0, 3):
        [alone] = model_std_errors(data, [cell], [results[cell]], b=3, seed=9)
        assert alone.n_dropped == 0
        assert np.array_equal(alone.estimates, together[cell].estimates)
        assert np.array_equal(alone.se(), together[cell].se())
        assert alone.boundary_hits == together[cell].boundary_hits
    # Cell 0's rows come first in the stratified stream, so they equal a
    # bootstrap of a dataset of that cell alone at the same seed.
    cell_0 = Dataset(data.counts[:1], w_labels=data.w_labels[:1])
    [only] = model_std_errors(cell_0, [0], results[:1], b=3, seed=9)
    assert np.array_equal(only.se(), together[0].se())
    assert only.boundary_hits == together[0].boundary_hits


def test_model_std_errors_refit_with_the_point_config():
    # With S_X != S_Z there is no spectral start, so random starts win, each
    # with its own labelling of the states. The point and every replicate
    # refitted with its config are sorted by the one labelling rule. A
    # replicate is not aligned to the point: where a redraw moves two states'
    # last-row entries past each other, sorting swaps them, and that label
    # switching is sampling variability.
    for seed in range(4):
        [model] = make_model(GeneratorSpec(s_x=3, s_z=4, seed=seed))
        data = draw([model], [1.0], 5000, seed=seed).data
        result = fit(tabulate(data), CmleConfig(n_starts=3, seed=seed))
        assert {start.kind for start in result.starts} == {"random"}
        assert result.model.ord_satisfied
        [run] = model_std_errors(data, [0], [result], b=10, seed=seed)
        assert run.n_dropped == 0
        for replicate in run.estimates:
            blocks = MisclassificationModel.split(replicate, 3, 4)
            assert MisclassificationModel(*blocks).ord_satisfied


def test_parametric_fit_routes_the_target(probit_sample):
    # One estimator per reported model: the hoprobit's closed form, and the
    # oprobit's ML benchmark.
    _, _, data = probit_sample
    [reported] = parametric_fit([data], "hoprobit", "reported")
    lc = reported_conditional(data)
    closed = hetero_ordered_probit(lc, target="reported")
    assert reported.to_dict() == closed.to_dict()
    assert reported.beta.tobytes() == closed.beta.tobytes()
    assert reported.target == "reported" and len(reported.sigma_by_cell) == 4
    [oprobit] = parametric_fit([data], "oprobit", "reported")
    [ml] = ordered_probit_mle([data])
    assert oprobit.scale is not None and oprobit.to_dict() == ml.to_dict()
    with pytest.raises(TypeError, match="skedastic_kind"):
        parametric_fit([data], "hoprobit", "reported", skedastic_kind="exponential")
    with pytest.raises(EstimationError, match="unknown target"):
        parametric_fit([data], "hoprobit", "unknown")
    with pytest.raises(ConfigurationError, match="the latent target needs cell models"):
        parametric_fit([data], "hoprobit", "latent")


def test_parametric_fit_latent_beats_reported(probit_sample):
    params, _, data = probit_sample
    models = [result.model for result in every_cell(data, 6, 2)]
    [latent] = parametric_fit([data], "hoprobit", "latent", [models])
    [reported] = parametric_fit([data], "hoprobit", "reported")
    err_latent = np.abs(latent.beta - params.beta).max()
    err_reported = np.abs(reported.beta - params.beta).max()
    assert err_latent < err_reported


def test_parametric_fit_linear_and_oprobit(probit_sample):
    _, _, data = probit_sample
    [linear] = parametric_fit([data], "linear", "reported")
    assert linear.kind == "linear"
    [oprobit] = parametric_fit([data], "oprobit", "reported")
    assert oprobit.kind == "ordered-probit-homoskedastic"
    assert oprobit.scale is not None
    with pytest.raises(EstimationError):
        parametric_fit([data], "mystery", "reported")


def test_reported_ml_refuses_quasi_complete_separation(probit_sample):
    # Cell B holds two records, both at outcome level 1, and cell AB none, so
    # covariate B alone predicts the lowest level and the likelihood rises
    # toward an infinite B slope. Scoring once stopped on that tail and
    # returned a "converged" B slope of -7.055.
    _, _, data = probit_sample
    counts = data.counts.copy()
    counts[2:] = 0
    counts[2, 0, 0, 0] = 2
    separated = Dataset(counts, data.w_columns, data.w_labels)
    [refused] = parametric_fit([separated], "oprobit", "reported")
    assert isinstance(refused, EstimationError)
    assert "has no maximum: quasi-complete separation" in str(refused)
    # Stacked beside a sample that fits, each keeps the outcome it has alone.
    fit_, again = ordered_probit_mle([data, separated])
    assert fit_.to_dict() == ordered_probit_mle([data])[0].to_dict()
    assert str(again) == str(refused)


def test_bootstrap_std_errors_linear_reported(probit_sample):
    _, _, data = probit_sample
    [point] = parametric_fit([data], "linear", "reported")
    updated, run = bootstrap_std_errors(data, "linear", "reported", point, b=60, seed=5)
    assert run.n_dropped == 0
    assert updated.std_errors is not None
    assert updated.std_errors.shape == point.beta.shape
    assert np.all(updated.std_errors > 0)
    # cell means at n=10k per cell put coefficient se around 0.01-0.03
    assert np.all(updated.std_errors < 0.1)


def test_reported_bootstrap_redraws_keep_a_two_record_cell():
    # 298 records in cell 0 and 2 in cell A. A redraw of all 300 records
    # would empty cell A with probability (298/300)^300, about 0.13; a
    # redraw within cells keeps its two records, so no replicate is lost.
    rng = np.random.default_rng(0)
    n = 300
    data = Dataset.from_records(
        x=rng.integers(1, 4, size=n), y=rng.integers(0, 2, size=n),
        z=rng.integers(1, 4, size=n), w=(np.arange(n) < 2).astype(int),
        support=(3, 2, 3), w_columns=("a",), w_labels=("0", "A"),
    )
    [point] = parametric_fit([data], "linear", "reported")
    updated, run = bootstrap_std_errors(data, "linear", "reported", point, b=50, seed=1)
    assert run.dropped == {"estimator_failed": 0}
    assert run.estimates.shape[0] == 50
    assert np.all(np.isfinite(updated.std_errors))


def run_fields(run):
    return (run.estimates.tolist(), run.n_requested, run.dropped, run.boundary_hits)


def outcome(call):
    """``call()``'s BootstrapRun fields (one run or a list of them), or the
    error it raised."""
    try:
        runs = call()
    except (DomainError, EstimationError) as exc:
        return repr(exc)
    return [run_fields(run) for run in runs]


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), b=st.integers(2, 20))
@example(seed=0, b=20)
def test_bootstraps_independent_of_the_chunk_size(probit_sample, seed, b):
    # Replicate i's redraw comes from its own seed and every fit is
    # independent of its batch, so how many redraws are fitted together
    # changes nothing. Cell 2 holds 3 records, so its refits fail now and
    # then, inside a chunk of redraws that fit.
    _, _, data = probit_sample
    counts = data.counts.copy()
    cell = counts[2].ravel() / counts[2].sum()
    counts[2] = np.random.default_rng(0).multinomial(3, cell).reshape(counts[2].shape)
    sparse = Dataset(counts, data.w_columns, data.w_labels)
    try:
        results = every_cell(sparse, 2, seed)
        models = [result.model for result in results]
        point = fitted(parametric_fit([sparse], "hoprobit", "latent", [models])[0])
    except EstimationError:
        assume(False)

    def latent():
        fitted, run = bootstrap_std_errors(sparse, "hoprobit", "latent", point, b=b,
                                           seed=seed, models=models)
        assert np.array_equal(fitted.std_errors, run.se())
        assert run.counters()["chunks"] == -(-b // resampling.BOOT_CHUNK)
        return [run]

    outcomes = []
    for chunk in (1, 3, 16):
        with mock.patch.object(resampling, "BOOT_CHUNK", chunk):
            outcomes.append((outcome(latent), outcome(lambda: model_std_errors(
                sparse, [0, 1, 2, 3], results, b=b, seed=seed))))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if (seed, b) == (0, 20):
        [(_, _, dropped, _)] = outcomes[0][0]
        assert dropped["estimator_failed"] > 0


def test_reported_ml_bootstrap_independent_of_the_chunk_size(probit_sample):
    # The reported ML benchmark fits a chunk of redraws as one stack; each
    # item's fit is the one it gets alone, so the chunk size changes nothing.
    _, _, data = probit_sample
    [point] = parametric_fit([data], "oprobit", "reported")
    runs = []
    for chunk in (1, 5, 16):
        with mock.patch.object(resampling, "BOOT_CHUNK", chunk):
            _, run = bootstrap_std_errors(data, "oprobit", "reported", point, b=20,
                                          seed=3)
        runs.append(run)
    assert all(run.n_dropped == 0 for run in runs)
    assert runs[0].estimates.tobytes() == runs[1].estimates.tobytes() == \
        runs[2].estimates.tobytes()


def test_reported_ml_bootstrap_drops_a_failed_fit_and_keeps_its_chunk(probit_sample):
    # One record, in cell AB, holds outcome level 3. A redraw that misses it
    # has no record at that level, so its ML fit is refused. At this seed
    # that happens to redraws 4, 8, 10 and 14 of 20, which share the first
    # chunk of 16 with 12 redraws that fit; those are kept as they fit alone.
    _, _, data = probit_sample
    counts = data.counts.copy()
    counts[:, 2] = 0
    counts[3, 2, 0, 0] = 1
    sparse = Dataset(counts, data.w_columns, data.w_labels)
    [point] = parametric_fit([sparse], "oprobit", "reported")
    _, run = bootstrap_std_errors(sparse, "oprobit", "reported", point, b=20, seed=1)
    assert resampling.BOOT_CHUNK == 16
    assert run.dropped == {"estimator_failed": 4}
    assert run.estimates.shape[0] == 16
    alone = resampling.run_plan(sparse, per_redraw(
        lambda redraw: fitted(ordered_probit_mle([redraw])[0]).beta), b=20, seed=1)
    assert alone.dropped == run.dropped
    assert alone.estimates.tobytes() == run.estimates.tobytes()


def test_both_latent_bootstraps_refit_the_same_replicate_cell_models(probit_sample,
                                                                     monkeypatch):
    # identify --by-cell --boot and latent estimate --boot on its models
    # draw the same redraws and refit each cell by one rule, so at one seed
    # they fit the same replicate cell models, bit for bit. The models reach
    # estimate through JSON, which round-trips them exactly.
    import json

    from latentcat import pipeline

    _, _, data = probit_sample
    cells = list(range(data.n_w_cells))
    results = every_cell(data, 2, 4)
    models = [MisclassificationModel.from_dict(json.loads(json.dumps(result.model.to_dict())))
              for result in results]
    fitted_packs = []

    def spy(*args, **kwargs):  # every start's trace too: a winning warm start hides the seeds
        fits = fit_cells(*args, **kwargs)
        fitted_packs.append([[(fit_.model.pack().tobytes(), repr(fit_.starts))
                              for fit_ in row] for row in fits])
        return fits

    monkeypatch.setattr(pipeline, "fit_cells", spy)
    b = resampling.BOOT_CHUNK + 2  # two chunks
    runs = model_std_errors(data, cells, results, b=b, seed=6)
    identify_packs = list(fitted_packs)
    fitted_packs.clear()
    [point] = parametric_fit([data], "linear", "latent", [models])
    _, run = bootstrap_std_errors(data, "linear", "latent", point, b=b, seed=6,
                                  models=models)
    assert len(identify_packs) == 2
    assert fitted_packs == identify_packs
    assert all(r.n_dropped == 0 for r in runs) and run.n_dropped == 0
    assert np.hstack([r.estimates for r in runs]).tobytes() == b"".join(
        pack for chunk in identify_packs for rep in chunk for pack, _ in rep)
