"""Shared nonparametric bootstrap engine.

Every statistic depends on the sample only through its (cell, x, y, z)
count table, so a replicate redraws that table: one multinomial over all
entries, or one per covariate cell when stratified (preserving cell counts
exactly). This has the same distribution as redrawing n records with
replacement. ``run_plan(data, estimator, b, seed)`` runs b replicates.
Replicate i has its own random stream, keyed SeedSequence((seed, i,
0x7273)), so its estimate depends only on the data, the seed, the
stratification and i. The replicates are handed to the estimator
``BOOT_CHUNK`` at a time, in index order, so that it can fit a whole chunk
as one batch. Replicates whose estimator fails are dropped and
counted by reason (an emptied covariate cell, or an estimation error)
rather than poisoning the aggregate; boundary-flagged replicates are
counted too, because interior-solution asymptotics are in doubt there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, nearest_rank
from .errors import DomainError, EmptyCellError, EstimationError

__all__ = [
    "BootstrapRun",
    "resample",
    "boot_se",
    "run_plan",
]

# Replicates per estimator call. Results do not depend on it: each redraw
# has its own seed, and the estimators fit every item independently of the
# batch around it.
BOOT_CHUNK = 16


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


def boot_se(replicate_estimates) -> np.ndarray:
    """Componentwise sample standard deviation across replicate estimates."""
    stack = np.asarray(replicate_estimates, dtype=float)
    if stack.ndim == 1:
        stack = stack[:, None]
    if stack.shape[0] < 2:
        raise DomainError("need at least two replicates for a standard error")
    return stack.std(axis=0, ddof=1)


@dataclass(frozen=True)
class BootstrapRun:
    """Replicate estimates (survivors only), drops by reason, boundary hits:
    a count of kept replicates, or one count per model when the estimator
    flags several. ``chunk_s`` is the wall time of each chunk, which
    ``counters`` summarizes for the run manifest; it never enters
    ``to_dict``, so artifacts stay deterministic."""

    estimates: np.ndarray
    n_requested: int
    dropped: dict[str, int]
    boundary_hits: int | list[int]
    chunk_s: tuple[float, ...] = ()

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    def se(self) -> np.ndarray:
        return boot_se(self.estimates)

    def to_dict(self) -> dict:
        return {
            "b": self.n_requested,
            "n_dropped": self.n_dropped,
            "dropped": dict(self.dropped),
            "boundary_hits": self.boundary_hits,
        }

    def counters(self) -> dict:
        """Chunks, the median (nearest rank) and largest wall time of one,
        and replicates per second of chunk time."""
        chunk_s = np.sort(self.chunk_s)
        return {
            "chunks": len(chunk_s),
            "chunk_s_p50": round(nearest_rank(chunk_s, 0.5), 6),
            "chunk_s_max": round(float(chunk_s[-1]), 6),
            "replicates_per_s": round(self.n_requested / chunk_s.sum(), 3),
        }


def run_plan(data: Dataset, estimator, b: int, seed: int,
             stratify_by_cell: bool = False) -> BootstrapRun:
    """Apply a pure estimator to ``b`` replicates, ``BOOT_CHUNK`` at a time.

    ``estimator(redraws)`` gets a list of consecutive replicates' redraws
    (``resample``, stratified or not), replicate i's keyed by
    SeedSequence((seed, i, 0x7273)), and returns one outcome per redraw:
    a 1-d parameter vector, a ``(vector, flagged)`` pair with ``flagged``
    one bool or one bool per model (summed elementwise into the boundary
    hits), or the ``EmptyCellError`` or ``EstimationError`` that drops that
    replicate alone. ``b < 1`` and a negative ``seed`` raise DomainError.
    """
    if b < 1:
        raise DomainError("need at least one replicate")
    if seed < 0:
        raise DomainError("master seed must be non-negative")
    outcomes: list = []
    chunk_s: list[float] = []
    for lo in range(0, b, BOOT_CHUNK):
        t0 = time.perf_counter()
        redraws = [resample(data, np.random.SeedSequence((seed, i, 0x7273)),
                            stratify_by_cell) for i in range(lo, min(lo + BOOT_CHUNK, b))]
        outcomes += estimator(redraws)
        chunk_s.append(time.perf_counter() - t0)
    # Why a replicate was dropped: its redraw emptied a covariate cell the
    # estimator needs, or the estimator failed on it.
    dropped = {
        "emptied_cell": sum(isinstance(o, EmptyCellError) for o in outcomes),
        "estimator_failed": sum(isinstance(o, EstimationError) for o in outcomes),
    }
    kept = [o if isinstance(o, tuple) else (o, False) for o in outcomes
            if not isinstance(o, (EmptyCellError, EstimationError))]
    if not kept:
        raise EstimationError(f"every bootstrap replicate was dropped: {dropped}")
    return BootstrapRun(
        estimates=np.vstack([np.asarray(vec, dtype=float) for vec, _ in kept]),
        n_requested=b,
        dropped=dropped,
        boundary_hits=np.sum([np.asarray(flagged, dtype=bool) for _, flagged in kept],
                             axis=0).tolist(),
        chunk_s=tuple(chunk_s),
    )
