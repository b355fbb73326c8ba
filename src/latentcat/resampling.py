"""Shared nonparametric bootstrap engine.

Every statistic depends on the sample only through its (cell, x, y, z)
count table, so a replicate redraws that table: one multinomial over all
entries, or one per covariate cell when stratified (preserving cell counts
exactly). This has the same distribution as redrawing n records with
replacement. Each replicate has its own random stream, derived as
SeedSequence((master_seed, replicate_index)), so replicate i's estimate
depends only on the data, the plan and i; replicates run serially in index
order. Replicates whose estimator fails are dropped and counted by reason
(an emptied covariate cell, or an estimation error) rather than poisoning
the aggregate; boundary-flagged replicates are counted too and trigger a
warning, because interior-solution asymptotics are in doubt there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, nearest_rank
from .errors import DomainError, EmptyCellError, EstimationError

__all__ = [
    "ResamplePlan",
    "BootstrapRun",
    "resample",
    "percentile",
    "boot_se",
    "run_plan",
]


@dataclass(frozen=True)
class ResamplePlan:
    """How many replicates, from which master seed, stratified or not."""

    b: int
    master_seed: int
    stratify_by_cell: bool = False

    def __post_init__(self):
        if self.b < 1:
            raise DomainError("need at least one replicate")
        if self.master_seed < 0:
            raise DomainError("master seed must be non-negative")

    def replicate_seed(self, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.master_seed, index, 0x7273))


def resample(data: Dataset, seed, stratify_by_cell: bool = False) -> Dataset:
    """One bootstrap redraw of the n records, as a redraw of the count table.

    ``seed`` may be an int or a SeedSequence. Unstratified, the table is one
    Multinomial(n, counts / n) draw over all (cell, x, y, z) entries; with
    stratification, each covariate cell is its own multinomial at the
    cell's total, so per-cell counts are preserved exactly.
    """
    rng = np.random.default_rng(seed)
    counts = data.counts
    if stratify_by_cell:
        cells = counts.reshape(counts.shape[0], -1)
        totals = cells.sum(axis=1)
        redraw = rng.multinomial(totals, cells / np.maximum(totals, 1)[:, None])
    else:
        redraw = rng.multinomial(data.n, counts.ravel() / data.n)
    return replace(data, counts=redraw.reshape(counts.shape))


def percentile(replicate_values, level: float) -> float:
    """Empirical quantile as the order statistic at ceil(level * B)."""
    arr = np.sort(np.asarray(replicate_values, dtype=float))
    if arr.size == 0:
        raise DomainError("no replicate values")
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    return nearest_rank(arr, level)


def boot_se(replicate_estimates, boundary_hits: int = 0) -> np.ndarray:
    """Componentwise sample standard deviation across replicate estimates.

    ``boundary_hits`` is the number of replicates that flagged a boundary
    parameter; any positive count emits a warning since the bootstrap is
    untrustworthy without an interior solution.
    """
    stack = np.asarray(replicate_estimates, dtype=float)
    if stack.ndim == 1:
        stack = stack[:, None]
    if stack.shape[0] < 2:
        raise DomainError("need at least two replicates for a standard error")
    if boundary_hits > 0:
        warnings.warn(
            f"{boundary_hits} bootstrap replicate(s) hit a parameter boundary; "
            "interior-solution asymptotics may not apply",
            stacklevel=2,
        )
    return stack.std(axis=0, ddof=1)


# Why a replicate was dropped: its redraw emptied a covariate cell the
# estimator needs, or the estimator failed on it.
DROP_REASONS = ("emptied_cell", "estimator_failed")


@dataclass(frozen=True)
class BootstrapRun:
    """Replicate estimates (survivors only), drops by reason, boundary hits."""

    estimates: np.ndarray
    n_requested: int
    dropped: dict[str, int]
    boundary_hits: int

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def n_kept(self) -> int:
        return self.n_requested - self.n_dropped

    def se(self) -> np.ndarray:
        return boot_se(self.estimates, boundary_hits=self.boundary_hits)

    def to_dict(self) -> dict:
        return {
            "b": self.n_requested,
            "n_dropped": self.n_dropped,
            "dropped": dict(self.dropped),
            "boundary_hits": self.boundary_hits,
        }


def run_plan(plan: ResamplePlan, data: Dataset, estimator) -> BootstrapRun:
    """Apply a pure estimator to every replicate of the plan, in replicate order.

    ``estimator(dataset)`` returns either a 1-d parameter vector or a
    ``(vector, boundary_flagged: bool)`` pair. An ``EmptyCellError`` or an
    estimation error drops the replicate.
    """

    def one(index: int):
        redraw = resample(
            data, plan.replicate_seed(index), stratify_by_cell=plan.stratify_by_cell
        )
        try:
            out = estimator(redraw)
        except EmptyCellError:
            return "emptied_cell"
        except EstimationError:
            return "estimator_failed"
        if isinstance(out, tuple):
            vec, flagged = out
            return np.asarray(vec, dtype=float), bool(flagged)
        return np.asarray(out, dtype=float), False

    results = [one(i) for i in range(plan.b)]
    kept = [r for r in results if not isinstance(r, str)]
    dropped = {reason: results.count(reason) for reason in DROP_REASONS}
    if not kept:
        raise EstimationError(f"every bootstrap replicate was dropped: {dropped}")
    return BootstrapRun(
        estimates=np.vstack([vec for vec, _ in kept]),
        n_requested=plan.b,
        dropped=dropped,
        boundary_hits=sum(1 for _, flagged in kept if flagged),
    )
