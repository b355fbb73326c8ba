"""End-to-end estimation: per-cell likelihood fits feeding parametric models.

``fit_cells`` is the one path from datasets to cell fits: it tabulates the
listed covariate cells of every dataset and fits them all in one
``fit_tables`` batch (one vectorized, accelerated EM over every cell and
start); ``identify``'s point fits and both bootstraps' refits go through
it. The latent conditional is assembled from cell models identified with
``--ord enforce`` (the parametric layer feeds latent-state labels into
normal-quantile transforms, so the ordering has to be guaranteed), with
empirical cell weights. ``parametric_fit`` is the one dispatch from a
(model, target, skedastic) choice to an estimator. Bootstrap standard
errors come from refits on redraws (no analytic sandwich), and both
bootstraps go through ``resampling.run_plan``, which hands them a chunk of
redraws at a time: ``bootstrap_std_errors`` refits the chunk's cells in
one ``fit_cells`` call, then runs ``parametric_fit`` on each redraw, and
``model_std_errors`` bootstraps the cell models themselves (the s.e. of
``identify --boot``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, design_columns, tabulate
from .errors import (
    ConfigurationError, DomainError, EmptyCellError, EstimationError, OptimizationError
)
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
from .resampling import BootstrapRun, run_plan
from .spectral import MisclassificationModel

__all__ = [
    "fit_cells",
    "conditional_for_target",
    "parametric_fit",
    "bootstrap_std_errors",
    "model_std_errors",
]

SKEDASTIC = ("nonparametric", "exponential")


def fit_cells(
    datasets: list[Dataset],
    cells: list[int | None],
    configs: list[CmleConfig],
    warm_starts: list[MisclassificationModel | None] | None = None,
) -> list[list[CmleResult | OptimizationError] | EmptyCellError]:
    """Constrained ML fits of the listed cells of every dataset, all tables
    in one ``fit_tables`` batch.

    ``None`` in ``cells`` stands for the pooled table. ``configs`` and
    ``warm_starts`` hold one entry per cell, else DomainError, as for an
    empty ``cells``. Returns, per dataset, one entry per listed cell, a
    CmleResult or the OptimizationError that ``fit`` would raise on that
    table; or an EmptyCellError naming the dataset's empty listed cells.
    """
    warm = warm_starts or [None] * len(cells)
    if not cells or not len(configs) == len(warm) == len(cells):
        raise DomainError("fit_cells needs one or more cells, a config and a warm start each")
    empty = [[data.w_labels[c] for c in cells if c is not None and counts[c] == 0]
             for data, counts in zip(datasets, map(Dataset.cell_counts, datasets))]
    tables = [tabulate(data, c) for data, labels in zip(datasets, empty) if not labels
              for c in cells]
    n_fitted = len(tables) // len(cells)
    fits = iter(fit_tables(tables, configs * n_fitted, warm * n_fitted) if tables else ())
    return [EmptyCellError(f"cannot fit empty covariate cells: {labels}") if labels
            else [next(fits) for _ in cells] for labels in empty]


def _first_failure(fits: list | EmptyCellError) -> OptimizationError | EmptyCellError | None:
    """What drops a bootstrap redraw: its ``fit_cells`` EmptyCellError, else
    its first failing cell's OptimizationError; None when nothing does."""
    if isinstance(fits, EmptyCellError):
        return fits
    return next((fit for fit in fits if isinstance(fit, OptimizationError)), None)


def conditional_for_target(
    data: Dataset,
    target: str,
    models: list[MisclassificationModel] | None = None,
) -> LatentConditional:
    """Outcome conditional for either target, the latent one on the given
    cell ``models`` (ConfigurationError without them)."""
    if target == "reported":
        return reported_conditional(data)
    if target != "latent":
        raise EstimationError(f"unknown target {target!r}")
    if models is None:
        raise ConfigurationError("the latent target needs cell models")
    return latent_conditional(models, data.cell_counts() / data.n,
                              column_names=design_columns(data.w_columns),
                              labels=data.w_labels)


def parametric_fit(
    data: Dataset,
    model: str,
    target: str,
    models: list[MisclassificationModel] | None = None,
    clamp: float = 1e-6,
    skedastic_kind: str = "nonparametric",
) -> ParametricFit:
    """One named fit: model in {linear, oprobit, hoprobit}, either target.

    The reported-target homoskedastic probit is the conventional ML
    benchmark on the counts; ``skedastic_kind="exponential"`` selects the
    exponential-index ML benchmark for the reported-target heteroskedastic
    probit. Everything else goes through the conditional representation
    and the closed forms, the latent target on the given cell ``models``.
    """
    if skedastic_kind != "nonparametric":
        if (model, target, skedastic_kind) != ("hoprobit", "reported", "exponential"):
            raise ConfigurationError(
                f"skedastic kind {skedastic_kind!r} needs the reported hoprobit"
            )
        return exponential_skedastic_probit(data)
    if model == "oprobit" and target == "reported":
        return ordered_probit_mle(data)
    lc = conditional_for_target(data, target, models)
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
    models: list[MisclassificationModel] | None = None,
    replicate_starts: int = 3,
    stratify: bool = False,
    clamp: float = 1e-6,
    skedastic_kind: str = "nonparametric",
) -> tuple[ParametricFit, BootstrapRun]:
    """Re-run the point fit on every bootstrap redraw; attach s.e. vector.

    Every replicate calls ``parametric_fit`` with the point estimate's
    choices. Returns the fit with ``std_errors`` filled plus the run, which
    counts dropped replicates by reason and boundary hits. For the latent
    target, a chunk's cells are refitted first in one ``fit_cells`` call:
    cell c under ``enforce`` at ``replicate_starts`` starts seeded
    ``seed + 7919 * c``, start 0 warm at the point ``models``.
    """
    cells = list(range(data.n_w_cells))
    configs = [CmleConfig(n_starts=replicate_starts, ord_constraint="enforce",
                          seed=seed + 7919 * cell) for cell in cells]

    def replicate(redraw: Dataset, fits):
        """One redraw's (beta, boundary flagged), or the error that drops it;
        ``fits`` are its cell fits, none for the reported target."""
        if failure := _first_failure(fits):
            return failure
        try:
            rep = parametric_fit(redraw, model, target, [fit.model for fit in fits] or None,
                                 clamp, skedastic_kind)
        except (EmptyCellError, EstimationError) as exc:
            return exc
        return rep.beta, any(fit.boundary_flags for fit in fits)

    def estimator(redraws: list[Dataset]):
        fitted = (fit_cells(redraws, cells, configs, models) if target == "latent"
                  else [[]] * len(redraws))
        return [replicate(redraw, fits) for redraw, fits in zip(redraws, fitted)]

    run = run_plan(data, estimator, b, seed, stratify_by_cell=stratify)
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
    ``fit_cells`` call, with its point fit's config at ``n_starts``
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
            _first_failure(fits) or (
                np.concatenate([fit.model.pack() for fit in fits]),
                [bool(fit.boundary_flags) for fit in fits])
            for fits in fit_cells(redraws, cells, configs, warm)
        ]

    run = run_plan(data, estimator, b, seed, stratify_by_cell=cells != [None])
    # The cells share one support, so their vectors have one length.
    return [
        replace(run, estimates=block, boundary_hits=hits)
        for block, hits in zip(np.split(run.estimates, len(cells), axis=1),
                               run.boundary_hits)
    ]
