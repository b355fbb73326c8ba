"""Bootstrap conditional-independence test for misclassification.

Under no reporting error the auxiliary pair (Y, Z) is independent given the
reported outcome X, so the max-abs factorization gap of the empirical
conditionals,

    TS = max_{x,y,z} | f(y,z|x) - f(y|x) f(z|x) |,

is a one-sided signal: a significant TS implies reporting error (the
converse is not claimed). Critical values come from a centered bootstrap:
each replicate redraws the contingency counts multinomially from the
empirical pmf and computes the max-abs of (replicate gap - sample gap),
cell by cell before the max.

Both read ``tabulate``'s count array; the empirical pmf is counts / n.
Resampling happens at the count level, which is distributionally identical
to record-level resampling (the statistic is a function of counts only) and
makes reports invariant to record order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, nearest_rank, tabulate
from .errors import DomainError, IndependenceTestError
from .spectral import _check_table

__all__ = [
    "TestReport",
    "SkippedCell",
    "SuiteReport",
    "ts_statistic",
    "bootstrap_test",
    "conditional_test_suite",
    "DEFAULT_B",
    "MIN_B",
    "MIN_CELL_COUNT",
]

DEFAULT_B = 999
MIN_B = 99
MIN_CELL_COUNT = 100
LEVELS = (0.90, 0.95, 0.99)


@dataclass(frozen=True)
class TestReport:
    """One test outcome: statistic, bootstrap critical values, p-value."""

    statistic: float
    critical_values: dict[float, float]
    p_value: float
    n: int
    b_replicates: int
    argmax_cell: tuple[int, int, int]
    w_cell: str | None = None

    def __post_init__(self):
        cvs = [self.critical_values[lv] for lv in sorted(self.critical_values)]
        if any(a > b for a, b in zip(cvs, cvs[1:])):
            raise IndependenceTestError("critical values are not monotone in level")

    def stars(self) -> str:
        """Significance stars by critical-value comparison (10/5/1%)."""
        if self.statistic > self.critical_values[0.99]:
            return "***"
        if self.statistic > self.critical_values[0.95]:
            return "**"
        if self.statistic > self.critical_values[0.90]:
            return "*"
        return ""

    def to_dict(self) -> dict:
        return {
            "w_cell": self.w_cell,
            "statistic": self.statistic,
            "critical_values": {f"{lv:.2f}": v for lv, v in
                                sorted(self.critical_values.items())},
            "p_value": self.p_value,
            "n": self.n,
            "b_replicates": self.b_replicates,
            "argmax_cell": list(self.argmax_cell),
            "stars": self.stars(),
        }


@dataclass(frozen=True)
class SkippedCell:
    """A covariate cell left untested, with the reason."""

    w_cell: str
    n: int
    reason: str

    def to_dict(self) -> dict:
        return {"w_cell": self.w_cell, "n": self.n, "reason": self.reason}


@dataclass(frozen=True)
class SuiteReport:
    """Pooled report plus one report per sufficiently large covariate cell."""

    pooled: TestReport
    cells: tuple[TestReport, ...]
    skipped: tuple[SkippedCell, ...]

    def to_dict(self) -> dict:
        return {
            "pooled": self.pooled.to_dict(),
            "cells": [r.to_dict() for r in self.cells],
            "skipped": [s.to_dict() for s in self.skipped],
        }


def _factorization_gap(probs: np.ndarray):
    """Signed gap f(y,z|x) - f(y|x) f(z|x) and the positive-mass x mask.

    ``probs`` may carry a leading replicate axis; conditioning and the gap
    are computed per x stratum, with zero-mass strata masked out.
    """
    f_x = probs.sum(axis=(-2, -1))
    mask = f_x > 0
    safe = np.where(mask, f_x, 1.0)[..., None, None]
    f_yz = probs / safe
    f_y = f_yz.sum(axis=-1)
    f_z = f_yz.sum(axis=-2)
    gap = f_yz - f_y[..., :, None] * f_z[..., None, :]
    return gap, mask


def ts_statistic(probs: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Max-abs conditional factorization gap of an (S_X, 2, S_Z) pmf array,
    and its attaining cell.

    Strata with zero reported-outcome mass contribute nothing. The attaining
    cell is reported as 1-based (x, y, z) codes with y in {0,1}; ties go to
    the first maximal cell scanning x ascending, y=1 before y=0, z ascending.
    Any other shape, or an all-zero pmf, raises DomainError.
    """
    if float(_check_table(probs).sum()) <= 0:
        raise DomainError("all-zero pmf")
    gap, mask = _factorization_gap(probs)
    agap = np.abs(gap)
    agap[~mask, :, :] = -1.0
    # Scan order for the argmax: x ascending, y descending, z ascending.
    scan = agap[:, ::-1, :]
    flat = int(np.argmax(scan))
    x_i, y_i, z_i = np.unravel_index(flat, scan.shape)
    value = float(scan[x_i, y_i, z_i])
    return value, (int(x_i) + 1, 1 - int(y_i), int(z_i) + 1)


def _replicate_stats(
    counts: np.ndarray, n: int, b: int, rng: np.random.Generator,
    center: np.ndarray,
) -> np.ndarray:
    """Bootstrap statistics from multinomial count redraws.

    ``center`` is the sample gap array to subtract cell-wise. Replicate
    x-strata with zero mass are skipped in that replicate's max.
    """
    shape = counts.shape
    p_hat = (counts / n).ravel()
    reps = rng.multinomial(n, p_hat, size=b).reshape(b, *shape)
    gap, mask = _factorization_gap(reps.astype(float))
    agap = np.abs(gap - center[None, ...])
    agap[~mask, :, :] = -np.inf
    stats = agap.max(axis=(1, 2, 3))
    if np.any(~np.isfinite(stats)):
        raise IndependenceTestError("a bootstrap replicate had no populated stratum")
    return stats


def bootstrap_test(
    data: Dataset,
    w_cell: int | None = None,
    b: int = DEFAULT_B,
    seed: int = 0,
) -> TestReport:
    """Run the centered-bootstrap independence test on a (sub)sample.

    ``b`` must be at least 99 so the reported quantile levels are
    meaningful. Deterministic given ``seed`` and invariant to record order.
    """
    if b < MIN_B:
        raise DomainError(f"need at least {MIN_B} bootstrap replicates, got {b}")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    counts = tabulate(data, w_cell)
    label = None if w_cell is None else data.w_labels[w_cell]
    if np.count_nonzero(counts) < 2:
        raise IndependenceTestError(
            f"degenerate (sub)sample: a single populated cell "
            f"(w_cell={label!r}); the statistic is identically zero"
        )
    n = int(counts.sum())
    probs = counts / n
    stat, arg = ts_statistic(probs)
    center, _ = _factorization_gap(probs)
    cell_index = data.n_w_cells if w_cell is None else w_cell
    rng = np.random.default_rng(np.random.SeedSequence((seed, cell_index, 0x6369)))
    stats_b = np.sort(_replicate_stats(counts, n, b, rng, center))
    return TestReport(
        statistic=stat,
        critical_values={lv: nearest_rank(stats_b, lv) for lv in LEVELS},
        p_value=(1 + int(np.count_nonzero(stats_b >= stat))) / (b + 1),
        n=n,
        b_replicates=b,
        argmax_cell=arg,
        w_cell=label,
    )


def conditional_test_suite(
    data: Dataset,
    b: int = DEFAULT_B,
    seed: int = 0,
) -> SuiteReport:
    """Pooled test plus one per-cell test for every cell of at least
    ``MIN_CELL_COUNT`` records; smaller cells, empty ones included, are
    reported as skipped. Per-cell seeds derive from the master seed and the
    cell index, so reports do not depend on evaluation order.
    """
    pooled = bootstrap_test(data, None, b, seed)
    counts = data.cell_counts()
    reports: list[TestReport] = []
    skipped: list[SkippedCell] = []
    for cell in range(data.n_w_cells):
        n_cell = int(counts[cell])
        if n_cell < MIN_CELL_COUNT:
            reason = "empty" if n_cell == 0 else f"fewer than {MIN_CELL_COUNT} records"
            skipped.append(
                SkippedCell(w_cell=data.w_labels[cell], n=n_cell, reason=reason)
            )
            continue
        reports.append(bootstrap_test(data, cell, b, seed))
    return SuiteReport(pooled=pooled, cells=tuple(reports), skipped=tuple(skipped))
