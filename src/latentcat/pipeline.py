"""End-to-end estimation: per-cell likelihood fits feeding parametric models.

The latent pipeline is tabulate each covariate cell -> constrained ML fits
of all cells as one ``fit_tables`` batch (one vectorized EM warm-up for
every cell and start, then L-BFGS per start) -> assemble the latent
conditional with empirical cell weights -> closed-form parametric layer.
Per-cell fits run with the monotone-reporting restriction enforced: the
parametric layer feeds latent-state labels into normal-quantile transforms,
so the ordering has to be guaranteed, not just checked. ``parametric_fit``
is the one dispatch from a (model, target, skedastic) choice to an
estimator; bootstrap standard errors re-run it per replicate (no analytic
sandwich), warm-starting each replicate's cell fits at the parent point
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    "CellFits",
    "fit_cells",
    "conditional_for_target",
    "parametric_fit",
    "bootstrap_std_errors",
]

PIPELINE_CONFIG = CmleConfig(ord_constraint="enforce")
SKEDASTIC = ("nonparametric", "exponential")


@dataclass(frozen=True)
class CellFits:
    """Per-cell likelihood fits plus the empirical cell weights."""

    results: tuple[CmleResult, ...]
    weights: np.ndarray

    @property
    def models(self) -> list[MisclassificationModel]:
        return [r.model for r in self.results]

    def any_boundary(self) -> bool:
        return any(r.boundary_flags for r in self.results)


def fit_cells(
    data: Dataset,
    config: CmleConfig = PIPELINE_CONFIG,
    warm_starts: list[MisclassificationModel] | None = None,
) -> CellFits:
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
    return CellFits(results=tuple(results), weights=counts / data.n)


def conditional_for_target(
    data: Dataset,
    target: str,
    config: CmleConfig = PIPELINE_CONFIG,
    models: list[MisclassificationModel] | None = None,
) -> tuple[LatentConditional, CellFits | None]:
    """Outcome conditional for either target.

    The latent target uses the given cell ``models``, else runs the cell
    fits and returns them too.
    """
    names = ("const", *data.w_columns) if data.w_columns else ()
    if target == "reported":
        return reported_conditional(data), None
    if target != "latent":
        raise EstimationError(f"unknown target {target!r}")
    fits = None
    if models is None:
        fits = fit_cells(data, config)
        models = fits.models
    weights = data.cell_counts() / data.n
    return latent_conditional(models, weights, column_names=names), fits


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
    lc, _ = conditional_for_target(data, target, config, models)
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
            models, flagged = fits.models, fits.any_boundary()
        rep = parametric_fit(
            redraw, model, target, rep_config, clamp, models, skedastic_kind
        )
        return rep.beta, flagged

    plan = ResamplePlan(b=b, master_seed=seed, stratify_by_cell=stratify)
    run = run_plan(plan, data, estimator)
    return replace(point, std_errors=run.se()), run
