"""End-to-end estimation: per-cell likelihood fits feeding parametric models.

``fit_cells`` is the one path from datasets to cell fits: it tabulates the
listed covariate cells of every dataset and fits them all in one
``fit_tables`` batch (one vectorized, accelerated EM over every cell and
start). ``identify``'s point fits and both bootstraps' refits go through
it, seeded by ``cell_configs``' one rule: cell c's starts at ``seed + c``.
The latent conditional is assembled from cell models identified with
``--ord enforce`` (the parametric layer feeds latent-state labels into
normal-quantile transforms, so the ordering has to be guaranteed), with
empirical cell weights. ``parametric_fit`` is the one dispatch from a
(model, target) choice to its one estimator, for a list of datasets at
once: the closed forms loop over it, and the reported ML benchmark fits it
as one stacked Fisher scoring. Both bootstraps get their redraws from
``resampling.run_plan``, a chunk at a time, and refit a replicate's cells
at ``BOOT_STARTS`` starts, start 0 warm at the point models:
``model_std_errors`` under the point fits' ``--ord`` (the s.e. of
``identify --boot``), and ``bootstrap_std_errors`` under ``enforce`` for
the latent target, before one ``parametric_fit`` per chunk. So at one seed
``identify --by-cell --ord enforce --boot`` and latent ``estimate --boot``
on its models refit the same replicate cell models.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, design_columns, tabulate
from .errors import ConfigurationError, DomainError, EstimationError, OptimizationError
from .mle import CmleConfig, CmleResult, fit_tables
from .ordered import (
    LatentConditional,
    ParametricFit,
    hetero_ordered_probit,
    homo_ordered_probit,
    latent_conditional,
    linear_projection,
    ordered_probit_mle,
    reported_conditional,
    skedastic,
)
from .resampling import BootstrapRun, run_plan
from .spectral import MisclassificationModel

__all__ = [
    "cell_configs",
    "fit_cells",
    "parametric_fit",
    "bootstrap_std_errors",
    "model_std_errors",
]

BOOT_STARTS = 3  # per cell refit of a replicate: the warm start and two random ones


def cell_configs(cells: list[int | None], seed: int, ord_constraint: str,
                 n_starts: int = BOOT_STARTS) -> list[CmleConfig]:
    """The config of each listed cell's fit: cell c's starts seeded
    ``seed + c`` (the pooled table, ``None``, at ``seed``). The one seed
    rule of ``identify``'s point fits and of every bootstrap replicate."""
    return [CmleConfig(n_starts=n_starts, ord_constraint=ord_constraint,
                       seed=seed + (cell or 0)) for cell in cells]


def fit_cells(
    datasets: list[Dataset],
    cells: list[int | None],
    configs: list[CmleConfig],
    warm_starts: list[MisclassificationModel | None] | None = None,
) -> list[list[CmleResult | OptimizationError]]:
    """Constrained ML fits of the listed cells of every dataset, all tables
    in one ``fit_tables`` batch.

    ``None`` in ``cells`` stands for the pooled table. ``configs`` and
    ``warm_starts`` hold one entry per cell, else DomainError, as for an
    empty ``cells``; an empty listed cell raises ``tabulate``'s
    EmptyCellError. Returns, per dataset, one entry per listed cell, a
    CmleResult or the OptimizationError that ``fit`` would raise on that
    table.
    """
    warm = warm_starts or [None] * len(cells)
    if not cells or not len(configs) == len(warm) == len(cells):
        raise DomainError("fit_cells needs one or more cells, a config and a warm start each")
    tables = [tabulate(data, c) for data in datasets for c in cells]
    fits = iter(fit_tables(tables, configs * len(datasets), warm * len(datasets)))
    return [[next(fits) for _ in cells] for _ in datasets]


def _first_failure(fits: list) -> OptimizationError | None:
    """What drops a bootstrap redraw: its first failing cell's
    OptimizationError; None when every cell fits."""
    return next((fit for fit in fits if isinstance(fit, OptimizationError)), None)


def parametric_fit(
    datasets: list[Dataset],
    model: str,
    target: str,
    models: list[list[MisclassificationModel]] | None = None,
) -> list[ParametricFit | EstimationError]:
    """One named fit of each dataset: model in {linear, oprobit, hoprobit},
    either target. Returns per dataset its fit, or the EstimationError that
    its fit alone raises.

    The reported-target homoskedastic probit is the conventional ML
    benchmark on the counts, every dataset in one stacked Fisher scoring.
    Everything else goes through the conditional representation and the
    closed forms, one dataset at a time, the latent target on the cell
    models ``models[i]`` of dataset i. An unknown model or target, a
    latent target without one model list per dataset, or an empty
    covariate cell under a reported closed form (``EmptyCellError``)
    raises for the whole call.
    """
    if target not in ("latent", "reported"):
        raise EstimationError(f"unknown target {target!r}")
    if model not in ("linear", "oprobit", "hoprobit"):
        raise EstimationError(f"unknown model {model!r}")
    if model == "oprobit" and target == "reported":
        return ordered_probit_mle(datasets)
    if target == "latent" and (models is None or len(models) != len(datasets)):
        raise ConfigurationError(f"the latent target needs cell models: {len(models or [])} "
                                 f"model lists for {len(datasets)} datasets")
    fits = []
    for i, data in enumerate(datasets):
        try:
            lc = (reported_conditional(data) if target == "reported" else
                  latent_conditional(models[i], data.cell_counts() / data.n,
                                     column_names=design_columns(data.w_columns),
                                     labels=data.w_labels))
            fits.append(_closed_form(lc, model, target))
        except EstimationError as exc:
            fits.append(exc)
    return fits


def _closed_form(lc: LatentConditional, model: str, target: str) -> ParametricFit:
    if model == "linear":
        return linear_projection(lc, target=target)
    if model == "oprobit":
        return homo_ordered_probit(lc, target=target)
    sigma, _ = skedastic(lc)
    return hetero_ordered_probit(lc, sigma, target=target)


def bootstrap_std_errors(
    data: Dataset,
    model: str,
    target: str,
    point: ParametricFit,
    b: int,
    seed: int,
    models: list[MisclassificationModel] | None = None,
) -> tuple[ParametricFit, BootstrapRun]:
    """Re-run the point fit on every bootstrap redraw; attach s.e. vector.

    Every chunk of redraws goes through one ``parametric_fit`` call with
    the point estimate's choices, so the reported ML benchmark fits a chunk
    as one stack. Returns the fit with ``std_errors`` filled plus the run,
    which counts dropped replicates and boundary hits. For the latent
    target, a chunk's cells are refitted first in one ``fit_cells`` call,
    under ``enforce`` by ``cell_configs``' rule, start 0 warm at the point
    ``models``; a redraw whose cell fits fail is dropped before the
    parametric fit.
    """
    cells = list(range(data.n_w_cells))
    configs = cell_configs(cells, seed, "enforce")

    def estimator(redraws: list[Dataset]):
        fitted = (fit_cells(redraws, cells, configs, models) if target == "latent"
                  else [[]] * len(redraws))
        outcomes = [_first_failure(fits) for fits in fitted]
        kept = [i for i, failure in enumerate(outcomes) if failure is None]
        reps = parametric_fit([redraws[i] for i in kept], model, target,
                              [[fit.model for fit in fitted[i]] for i in kept])
        for i, rep in zip(kept, reps):
            outcomes[i] = rep if isinstance(rep, EstimationError) else (
                rep.beta, any(fit.boundary_flags for fit in fitted[i]))
        return outcomes

    run = run_plan(data, estimator, b, seed)
    return replace(point, std_errors=run.se()), run


def model_std_errors(
    data: Dataset,
    cells: list[int | None],
    results: list[CmleResult],
    ord_constraint: str,
    b: int,
    seed: int,
) -> list[BootstrapRun]:
    """Bootstrap every parameter of the listed cells' models, all cells at once.

    ``cells`` holds the cell indices of the point fits ``results``, or
    ``[None]`` for the pooled table, and ``ord_constraint`` the point fits'
    ``--ord`` (so a replicate's states are sorted only if the point's
    were). Every listed cell of every redraw in a chunk is refitted in one
    ``fit_cells`` call by ``cell_configs``' rule, warm-started at the point
    models; a replicate in which any cell's fit fails is dropped for every
    cell. Returns one run per cell: its columns of the replicate estimates
    (``MisclassificationModel.pack`` order) and the kept replicates in
    which its own fit flagged a boundary.
    """
    configs = cell_configs(cells, seed, ord_constraint)
    warm = [result.model for result in results]

    def estimator(redraws: list[Dataset]):
        return [
            _first_failure(fits) or (
                np.concatenate([fit.model.pack() for fit in fits]),
                [bool(fit.boundary_flags) for fit in fits])
            for fits in fit_cells(redraws, cells, configs, warm)
        ]

    run = run_plan(data, estimator, b, seed)
    # The cells share one support, so their vectors have one length.
    return [
        replace(run, estimates=block, boundary_hits=hits)
        for block, hits in zip(np.split(run.estimates, len(cells), axis=1),
                               run.boundary_hits)
    ]
