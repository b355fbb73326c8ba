"""End-to-end estimation: per-cell likelihood fits feeding parametric models.

The latent pipeline is tabulate each covariate cell -> constrained ML fits
of all cells as one ``fit_tables`` batch (one vectorized, accelerated EM
over every cell and start) -> assemble the latent conditional with
empirical cell weights -> closed-form parametric layer.
Per-cell fits run with the monotone-reporting restriction enforced: the
parametric layer feeds latent-state labels into normal-quantile transforms,
so the ordering has to be guaranteed, not just checked. ``parametric_fit``
is the one dispatch from a (model, target, skedastic) choice to an
estimator. Bootstrap standard errors come from refits on redraws (no
analytic sandwich), and both bootstraps go through ``resampling.run_plan``,
which hands them a chunk of redraws at a time. ``bootstrap_std_errors``
fits every cell of every redraw in a chunk as one ``fit_tables`` batch,
warm-started at the parent point estimates, then runs ``parametric_fit``
on each redraw. ``model_std_errors`` bootstraps the cell models themselves
(the s.e. of ``identify --boot``), a chunk's refits again in one batch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, design_columns, tabulate
from .errors import ConfigurationError, EmptyCellError, EstimationError
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


def _fit_redraws(
    redraws: list[Dataset],
    cells: list[int | None],
    configs: list[CmleConfig],
    warm_starts: list[MisclassificationModel | None] | None,
) -> list[list[CmleResult] | EmptyCellError | EstimationError]:
    """Per dataset, the fits of the listed cells (``None``: the pooled
    table), ``configs[j]`` and ``warm_starts[j]`` for ``cells[j]``; or the
    error that drops it: an ``EmptyCellError`` naming its empty listed
    cells, else its first failing cell's ``OptimizationError``. Every cell
    of every dataset is fitted in one ``fit_tables`` batch."""
    warm = warm_starts or [None] * len(cells)
    outcomes: list = []
    tables: list = []
    for redraw in redraws:
        counts = redraw.cell_counts()
        empty = [redraw.w_labels[c] for c in cells if c is not None and counts[c] == 0]
        if empty:
            outcomes.append(EmptyCellError(f"cannot fit empty covariate cells: {empty}"))
        else:
            outcomes.append(None)  # filled in from the batch below
            tables += [tabulate(redraw, c) for c in cells]
    n_fitted = len(tables) // len(cells)
    fits = iter(fit_tables(tables, configs * n_fitted, warm * n_fitted) if tables else ())
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            results = [next(fits) for _ in cells]
            outcomes[i] = next((r for r in results if isinstance(r, EstimationError)),
                               results)
    return outcomes


def fit_cells(
    data: Dataset,
    config: CmleConfig = PIPELINE_CONFIG,
    warm_starts: list[MisclassificationModel] | None = None,
) -> tuple[CmleResult, ...]:
    """Constrained ML fits of every cell (none may be empty), as one batch,
    cell c's starts seeded ``config.seed + 7919 * c``; raises the first
    failing cell's OptimizationError."""
    [fits] = _fit_redraws([data], *_cell_configs(data, config), warm_starts)
    if not isinstance(fits, list):
        raise fits
    return tuple(fits)


def _cell_configs(data: Dataset, config: CmleConfig):
    """Every cell index of ``data``, and ``fit_cells``' config for each."""
    cells = list(range(data.n_w_cells))
    return cells, [replace(config, seed=config.seed + 7919 * cell) for cell in cells]


def conditional_for_target(
    data: Dataset,
    target: str,
    config: CmleConfig = PIPELINE_CONFIG,
    models: list[MisclassificationModel] | None = None,
) -> LatentConditional:
    """Outcome conditional for either target.

    The latent target uses the given cell ``models``, else fits them.
    """
    if target == "reported":
        return reported_conditional(data)
    if target != "latent":
        raise EstimationError(f"unknown target {target!r}")
    if models is None:
        models = [result.model for result in fit_cells(data, config)]
    return latent_conditional(models, data.cell_counts() / data.n,
                              column_names=design_columns(data.w_columns),
                              labels=data.w_labels)


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
    """Re-run the full pipeline on every bootstrap redraw; attach s.e. vector.

    Every replicate calls ``parametric_fit`` with the point estimate's
    choices. Returns the fit with ``std_errors`` filled plus the run, which
    counts dropped replicates by reason and boundary hits. For the latent
    target, the cells of a chunk's redraws are fitted first, as in
    ``fit_cells`` but all in one batch, warm-started at the parent point
    estimates with a couple of fresh random starts.
    """
    rep_config = replace(config, n_starts=replicate_starts)
    cells, configs = _cell_configs(data, rep_config)

    def estimator(redraws: list[Dataset]):
        if target == "latent":
            fitted = _fit_redraws(redraws, cells, configs, warm_models)
        else:
            fitted = [None] * len(redraws)
        outcomes: list = []
        for redraw, fits in zip(redraws, fitted):
            if isinstance(fits, (EmptyCellError, EstimationError)):
                outcomes.append(fits)
                continue
            models = None if fits is None else [result.model for result in fits]
            try:
                rep = parametric_fit(redraw, model, target, rep_config, clamp, models,
                                     skedastic_kind)
            except (EmptyCellError, EstimationError) as exc:
                outcomes.append(exc)
                continue
            outcomes.append((rep.beta, fits is not None
                             and any(result.boundary_flags for result in fits)))
        return outcomes

    plan = ResamplePlan(b=b, master_seed=seed, stratify_by_cell=stratify)
    run = run_plan(plan, data, estimator)
    return replace(point, std_errors=run.se()), run


def model_std_errors(
    data: Dataset,
    cells: list[int | None],
    results: list[CmleResult],
    configs: list[CmleConfig],
    b: int,
    seed: int,
    n_starts: int,
) -> list[BootstrapRun]:
    """Bootstrap every parameter of the listed cells' models, all cells at once.

    ``cells`` holds the cell indices of the point fits ``results``, or
    ``[None]`` for the pooled table, and ``configs`` the config each point
    fit ran with. Replicate redraws are stratified by cell unless pooled.
    Every listed cell of every redraw in a chunk is refitted in one
    ``fit_tables`` batch, with its point fit's config at ``n_starts``
    starts (so its states are sorted only if the point's were),
    warm-started at the point models; a replicate in which any cell's fit
    fails is dropped for every cell. Returns one run per cell: its columns
    of the replicate estimates (``MisclassificationModel.pack`` order) and
    the kept replicates in which its own fit flagged a boundary.
    """
    configs = [replace(config, n_starts=n_starts) for config in configs]
    warm = [result.model for result in results]

    def estimator(redraws: list[Dataset]):
        return [
            fits if not isinstance(fits, list) else (
                np.concatenate([fit.model.pack() for fit in fits]),
                [bool(fit.boundary_flags) for fit in fits])
            for fits in _fit_redraws(redraws, cells, configs, warm)
        ]

    plan = ResamplePlan(b=b, master_seed=seed, stratify_by_cell=cells != [None])
    run = run_plan(plan, data, estimator)
    # The cells share one support, so their vectors have one length.
    return [
        replace(run, estimates=block, boundary_hits=hits)
        for block, hits in zip(np.split(run.estimates, len(cells), axis=1),
                               run.boundary_hits)
    ]
