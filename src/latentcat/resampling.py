"""Shared nonparametric bootstrap engine.

Replicates draw records with replacement (optionally within covariate
cells, preserving cell counts exactly) from independent random streams
derived as SeedSequence((master_seed, replicate_index[, cell_index])), so
results are identical under any execution order or thread count. Replicates
whose estimator raises an estimation error are dropped and counted rather
than poisoning the aggregate, and boundary-flagged replicates trigger a
warning because interior-solution asymptotics are in doubt there.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, nearest_rank
from .errors import DataError, DomainError, EstimationError

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
    """One bootstrap redraw of n records with replacement.

    ``seed`` may be an int or a SeedSequence. With stratification, records
    are redrawn within each covariate cell, so per-cell counts are
    preserved exactly.
    """
    if data.n == 0:
        raise DataError("cannot resample an empty dataset")
    rng = np.random.default_rng(seed)
    if not stratify_by_cell:
        idx = rng.integers(0, data.n, size=data.n)
    else:
        idx = np.empty(data.n, dtype=np.int64)
        pos = 0
        for cell in range(data.n_w_cells):
            members = np.flatnonzero(data.w == cell)
            if members.size == 0:
                continue
            take = rng.integers(0, members.size, size=members.size)
            idx[pos : pos + members.size] = members[take]
            pos += members.size
    return Dataset(
        x=data.x[idx],
        y=data.y[idx],
        z=data.z[idx],
        w=data.w[idx],
        support=data.support,
        w_columns=data.w_columns,
        w_labels=data.w_labels,
    )


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


@dataclass(frozen=True)
class BootstrapRun:
    """Replicate estimates (survivors only) and the drop/boundary tallies."""

    estimates: np.ndarray
    n_requested: int
    n_dropped: int
    boundary_hits: int

    @property
    def n_kept(self) -> int:
        return self.n_requested - self.n_dropped

    def se(self) -> np.ndarray:
        return boot_se(self.estimates, boundary_hits=self.boundary_hits)


def run_plan(plan: ResamplePlan, data: Dataset, estimator, threads: int = 1) -> BootstrapRun:
    """Apply a pure estimator to every replicate of the plan.

    ``estimator(dataset)`` returns either a 1-d parameter vector or a
    ``(vector, boundary_flagged: bool)`` pair. Estimation errors drop the
    replicate. The aggregation is a deterministic fold in replicate order,
    so thread count cannot change the result.
    """

    def one(index: int):
        redraw = resample(
            data, plan.replicate_seed(index), stratify_by_cell=plan.stratify_by_cell
        )
        try:
            out = estimator(redraw)
        except EstimationError:
            return None
        if isinstance(out, tuple):
            vec, flagged = out
            return np.asarray(vec, dtype=float), bool(flagged)
        return np.asarray(out, dtype=float), False

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(plan.b)))
    else:
        results = [one(i) for i in range(plan.b)]

    kept = [r for r in results if r is not None]
    if not kept:
        raise EstimationError("every bootstrap replicate failed")
    estimates = np.vstack([vec for vec, _ in kept])
    boundary_hits = sum(1 for _, flagged in kept if flagged)
    return BootstrapRun(
        estimates=estimates,
        n_requested=plan.b,
        n_dropped=plan.b - len(kept),
        boundary_hits=boundary_hits,
    )
