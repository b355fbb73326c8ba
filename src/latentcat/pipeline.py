"""End-to-end estimation: per-cell likelihood fits feeding parametric models.

``fit_cells`` is the one path from datasets to cell fits: it tabulates the
listed covariate cells of every dataset and fits them all in one
``fit_tables`` batch (one vectorized, accelerated EM over every cell and
start). ``identify``'s point fits and both bootstraps' refits go through
it, seeded by one rule: cell c's starts at ``seed + c``.
Every cell fit sorts its latent states by the last reporting row
(``mle.fit``), so the latent conditional, which feeds latent-state labels
into normal-quantile transforms, is assembled from cell models labelled by
one rule, with empirical cell weights. ``parametric_fit`` is the one
dispatch from a (model, target) choice to its one estimator, for a list of
datasets at once: the closed forms loop over it, and the reported ML
benchmark fits it as one stacked Fisher scoring. Both bootstraps get their
redraws from ``resampling.run_plan``, a chunk at a time, and refit a
replicate's cells at ``BOOT_STARTS`` starts, start 0 warm at the point
models: ``model_std_errors`` (the s.e. of ``identify --boot``), and
``bootstrap_std_errors`` for the latent target, before one
``parametric_fit`` per chunk. So at one seed ``identify --boot`` and latent
``estimate --boot`` on its models refit the same replicate cell models.

Each function imports the estimators it calls when it runs, so that a
command loads none it does not run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, tabulate
from .errors import ConfigurationError, DomainError, EstimationError, OptimizationError

if TYPE_CHECKING:
    from .mle import CmleResult
    from .ordered import ParametricFit
    from .resampling import BootstrapRun
    from .spectral import MisclassificationModel

__all__ = [
    "fit_cells",
    "parametric_fit",
    "bootstrap_std_errors",
    "model_std_errors",
]

BOOT_STARTS = 3  # per cell refit of a replicate: the warm start and two random ones


def fit_cells(
    datasets: list[Dataset],
    cells: list[int],
    seed: int,
    n_starts: int = BOOT_STARTS,
    warm_starts: list[MisclassificationModel | None] | None = None,
) -> list[list[CmleResult | OptimizationError]]:
    """Constrained ML fits of the listed cells of every dataset, all tables
    in one ``fit_tables`` batch.

    Cell c's fit runs ``n_starts`` starts seeded ``seed + c``: the one seed
    rule of ``identify``'s point fits and of every bootstrap replicate.
    ``warm_starts`` holds one entry per cell, else DomainError, as for an
    empty ``cells``; an empty listed cell raises ``tabulate``'s
    EmptyCellError. Returns, per dataset, one entry per listed cell, a
    CmleResult or the OptimizationError that ``fit`` would raise on that
    table.
    """
    from .mle import CmleConfig, fit_tables

    warm = warm_starts or [None] * len(cells)
    if not cells or len(warm) != len(cells):
        raise DomainError("fit_cells needs one or more cells, and a warm start each")
    configs = [CmleConfig(n_starts=n_starts, seed=seed + cell) for cell in cells]
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
    from . import ordered

    if target not in ("latent", "reported"):
        raise EstimationError(f"unknown target {target!r}")
    closed_form = {"linear": ordered.linear_projection,
                   "oprobit": ordered.homo_ordered_probit,
                   "hoprobit": ordered.hetero_ordered_probit}.get(model)
    if closed_form is None:
        raise EstimationError(f"unknown model {model!r}")
    if model == "oprobit" and target == "reported":
        return ordered.ordered_probit_mle(datasets)
    if target == "latent" and (models is None or len(models) != len(datasets)):
        raise ConfigurationError(f"the latent target needs cell models: {len(models or [])} "
                                 f"model lists for {len(datasets)} datasets")
    fits = []
    for i, data in enumerate(datasets):
        try:
            lc = (ordered.reported_conditional(data) if target == "reported"
                  else ordered.latent_conditional(models[i], data))
            fits.append(closed_form(lc, target=target))
        except EstimationError as exc:
            fits.append(exc)
    return fits


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
    start 0 warm at the point ``models``; a redraw whose cell fits fail is
    dropped before the parametric fit.
    """
    from .resampling import run_plan

    cells = list(range(data.n_w_cells))

    def estimator(redraws: list[Dataset]):
        fitted = (fit_cells(redraws, cells, seed, warm_starts=models)
                  if target == "latent" else [[]] * len(redraws))
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
    cells: list[int],
    results: list[CmleResult],
    b: int,
    seed: int,
) -> list[BootstrapRun]:
    """Bootstrap every parameter of the listed cells' models, all cells at once.

    ``cells`` holds the cell indices of the point fits ``results``. Every
    listed cell of every redraw in a chunk is refitted in one ``fit_cells``
    call, warm-started at the point models; a replicate in which any cell's
    fit fails is dropped for every cell.
    Returns one run per cell: its columns of the replicate estimates
    (``MisclassificationModel.pack`` order) and the kept replicates in
    which its own fit flagged a boundary.
    """
    from .resampling import run_plan

    warm = [result.model for result in results]

    def estimator(redraws: list[Dataset]):
        return [
            _first_failure(fits) or (
                np.concatenate([fit.model.pack() for fit in fits]),
                [bool(fit.boundary_flags) for fit in fits])
            for fits in fit_cells(redraws, cells, seed, warm_starts=warm)
        ]

    run = run_plan(data, estimator, b, seed)
    # The cells share one support, so their vectors have one length.
    return [
        replace(run, estimates=block, boundary_hits=hits)
        for block, hits in zip(np.split(run.estimates, len(cells), axis=1),
                               run.boundary_hits)
    ]
