"""End-to-end estimation: per-cell likelihood fits feeding parametric models.

The latent pipeline is tabulate each covariate cell -> constrained ML fits
of all cells as one ``fit_tables`` batch (one vectorized, accelerated EM
over every cell and start) -> assemble the latent conditional with
empirical cell weights -> closed-form parametric layer.
Per-cell fits run with the monotone-reporting restriction enforced: the
parametric layer feeds latent-state labels into normal-quantile transforms,
so the ordering has to be guaranteed, not just checked. ``parametric_fit``
is the one dispatch from a (model, target, skedastic) choice to an
estimator; bootstrap standard errors re-run it per replicate (no analytic
sandwich), warm-starting each replicate's cell fits at the parent point
estimates. ``model_std_errors`` bootstraps the cell models themselves (the
s.e. of ``identify --boot``): every replicate refits all cells as one
``fit_tables`` batch. Both bootstraps go through ``resampling.run_plan``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, tabulate
from .errors import (ConfigurationError, EmptyCellError, EstimationError,
                     OptimizationError)
from .mle import CmleConfig, CmleResult, fit_tables
from .ordered import (
    LatentConditional,
    ParametricFit,
    exponential_skedastic_probit,
    hetero_ordered_probit,
    homo_ordered_probit,
    latent_conditional,
    linear_projection,
    ordered_probit_mle,
    reported_conditional,
    skedastic,
)
from .resampling import BootstrapRun, ResamplePlan, run_plan
from .spectral import MisclassificationModel

__all__ = [
    "fit_cells",
    "conditional_for_target",
    "parametric_fit",
    "bootstrap_std_errors",
    "model_std_errors",
]

PIPELINE_CONFIG = CmleConfig(ord_constraint="enforce")
SKEDASTIC = ("nonparametric", "exponential")


def fit_cells(
    data: Dataset,
    config: CmleConfig = PIPELINE_CONFIG,
    warm_starts: list[MisclassificationModel] | None = None,
) -> tuple[CmleResult, ...]:
    """Constrained ML fits of every cell (none may be empty), as one batch;
    raises the first failing cell's OptimizationError."""
    counts = data.cell_counts()
    if np.any(counts == 0):
        empty = [data.w_labels[i] for i in np.flatnonzero(counts == 0)]
        raise EmptyCellError(f"cannot fit empty covariate cells: {empty}")
    cells = range(data.n_w_cells)
    results = fit_tables(
        [tabulate(data, cell) for cell in cells],
        [replace(config, seed=config.seed + 7919 * cell) for cell in cells],
        warm_starts,
    )
    for result in results:
        if isinstance(result, OptimizationError):
            raise result
    return tuple(results)


def conditional_for_target(
    data: Dataset,
    target: str,
    config: CmleConfig = PIPELINE_CONFIG,
    models: list[MisclassificationModel] | None = None,
) -> LatentConditional:
    """Outcome conditional for either target.

    The latent target uses the given cell ``models``, else fits them.
    """
    names = ("const", *data.w_columns) if data.w_columns else ()
    if target == "reported":
        return reported_conditional(data)
    if target != "latent":
        raise EstimationError(f"unknown target {target!r}")
    if models is None:
        models = [result.model for result in fit_cells(data, config)]
    weights = data.cell_counts() / data.n
    return latent_conditional(models, weights, column_names=names)


def parametric_fit(
    data: Dataset,
    model: str,
    target: str,
    config: CmleConfig = PIPELINE_CONFIG,
    clamp: float = 1e-6,
    models: list[MisclassificationModel] | None = None,
    skedastic_kind: str = "nonparametric",
) -> ParametricFit:
    """One named fit: model in {linear, oprobit, hoprobit}, either target.

    The reported-target homoskedastic probit is the conventional ML
    benchmark on the counts; ``skedastic_kind="exponential"`` selects the
    exponential-index ML benchmark for the reported-target heteroskedastic
    probit. Everything else goes through the conditional representation
    and the closed forms, the latent target on the given cell ``models``
    (fitted here when None).
    """
    if skedastic_kind != "nonparametric":
        if (model, target, skedastic_kind) != ("hoprobit", "reported", "exponential"):
            raise ConfigurationError(
                f"skedastic kind {skedastic_kind!r} needs the reported hoprobit"
            )
        return exponential_skedastic_probit(data)
    if model == "oprobit" and target == "reported":
        return ordered_probit_mle(data)
    lc = conditional_for_target(data, target, config, models)
    if model == "linear":
        return linear_projection(lc, target=target)
    if model == "oprobit":
        return homo_ordered_probit(lc, target=target, clamp=clamp)
    if model == "hoprobit":
        sigma, _ = skedastic(lc, clamp=clamp)
        return hetero_ordered_probit(lc, sigma, target=target, clamp=clamp)
    raise EstimationError(f"unknown model {model!r}")


def bootstrap_std_errors(
    data: Dataset,
    model: str,
    target: str,
    point: ParametricFit,
    b: int,
    seed: int,
    config: CmleConfig = PIPELINE_CONFIG,
    replicate_starts: int = 3,
    stratify: bool = False,
    warm_models: list[MisclassificationModel] | None = None,
    clamp: float = 1e-6,
    skedastic_kind: str = "nonparametric",
) -> tuple[ParametricFit, BootstrapRun]:
    """Re-run the full pipeline per bootstrap replicate; attach s.e. vector.

    Every replicate calls ``parametric_fit`` with the point estimate's
    choices. Returns the fit with ``std_errors`` filled plus the run, which
    counts dropped replicates by reason and boundary hits. Replicate cell
    fits warm-start at the parent point estimates with a couple of fresh
    random starts.
    """
    rep_config = replace(config, n_starts=replicate_starts)

    def estimator(redraw: Dataset):
        models, flagged = None, False
        if target == "latent":
            fits = fit_cells(redraw, rep_config, warm_starts=warm_models)
            models = [result.model for result in fits]
            flagged = any(result.boundary_flags for result in fits)
        rep = parametric_fit(
            redraw, model, target, rep_config, clamp, models, skedastic_kind
        )
        return rep.beta, flagged

    plan = ResamplePlan(b=b, master_seed=seed, stratify_by_cell=stratify)
    run = run_plan(plan, data, estimator)
    return replace(point, std_errors=run.se()), run


def model_std_errors(
    data: Dataset,
    cells: list[int | None],
    results: list[CmleResult],
    b: int,
    seed: int,
    n_starts: int,
) -> list[BootstrapRun]:
    """Bootstrap every parameter of the listed cells' models, all cells at once.

    ``cells`` holds the cell indices of the point fits ``results``, or
    ``[None]`` for the pooled table. Replicate redraws are stratified by cell
    unless pooled. Each replicate refits every listed cell in one
    ``fit_tables`` batch, with the monotone restriction enforced, warm-started
    at the point models, cell c's starts seeded ``seed + c``; a replicate in
    which any cell's fit fails is dropped for every cell. Returns one run per
    cell: its columns of the replicate estimates (``MisclassificationModel.pack``
    order) and the kept replicates in which its own fit flagged a boundary.
    """
    configs = [CmleConfig(n_starts=n_starts, seed=seed + (cell or 0),
                          ord_constraint="enforce") for cell in cells]
    warm = [result.model for result in results]

    def estimator(redraw: Dataset):
        fits = fit_tables([tabulate(redraw, cell) for cell in cells], configs, warm)
        for fit in fits:
            if isinstance(fit, OptimizationError):
                raise fit
        return (np.concatenate([fit.model.pack() for fit in fits]),
                [bool(fit.boundary_flags) for fit in fits])

    plan = ResamplePlan(b=b, master_seed=seed, stratify_by_cell=cells != [None])
    run = run_plan(plan, data, estimator)
    # The cells share one support, so their vectors have one length.
    return [
        replace(run, estimates=block, boundary_hits=hits)
        for block, hits in zip(np.split(run.estimates, len(cells), axis=1),
                               run.boundary_hits)
    ]
