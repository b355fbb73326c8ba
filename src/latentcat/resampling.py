"""Shared nonparametric bootstrap engine.

Every statistic depends on the sample only through its (cell, x, y, z)
count table, so a replicate redraws that table: one multinomial per
covariate cell at the cell's total, which keeps every cell's count and so
can empty none. This has the same distribution as redrawing each cell's
records with replacement; with one cell, it is the plain n-record redraw.
``run_plan(data, estimator, b, seed)`` runs b replicates. Replicate i has
its own random stream, keyed SeedSequence((seed, i, 0x7273)), so its
estimate depends only on the data, the seed and i. The replicates are
handed to the estimator ``BOOT_CHUNK`` at a time, in index order, so that
it can fit a whole chunk as one batch: one EM over every cell of every
redraw for the latent target and ``identify --boot``, one stacked Fisher
scoring for the reported ML benchmarks. Replicates whose estimator fails
are dropped and counted (``estimator_failed``) rather than poisoning the
aggregate; boundary-flagged replicates are counted too, because
interior-solution asymptotics are in doubt there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, nearest_rank
from .errors import DomainError, EstimationError

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


def resample(data: Dataset, seed) -> Dataset:
    """One bootstrap redraw of the records within each covariate cell, as a
    redraw of the count table.

    ``seed`` may be an int or a SeedSequence. Each cell's (x, y, z) table is
    its own Multinomial(total, counts / total) draw, so per-cell counts are
    preserved exactly.
    """
    cells = data.counts.reshape(data.counts.shape[0], -1)
    totals = cells.sum(axis=1)
    redraw = np.random.default_rng(seed).multinomial(
        totals, cells / np.maximum(totals, 1)[:, None])
    return replace(data, counts=redraw.reshape(data.counts.shape))


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


def run_plan(data: Dataset, estimator, b: int, seed: int) -> BootstrapRun:
    """Apply a pure estimator to ``b`` replicates, ``BOOT_CHUNK`` at a time.

    ``estimator(redraws)`` gets a list of consecutive replicates' redraws
    (``resample``), replicate i's keyed by SeedSequence((seed, i, 0x7273)),
    and returns one outcome per redraw: a 1-d parameter vector, a
    ``(vector, flagged)`` pair with ``flagged`` one bool or one bool per
    model (summed elementwise into the boundary hits), or the
    ``EstimationError`` that drops that replicate alone. ``b < 1`` and a
    negative ``seed`` raise DomainError.
    """
    if b < 1:
        raise DomainError("need at least one replicate")
    if seed < 0:
        raise DomainError("master seed must be non-negative")
    outcomes: list = []
    chunk_s: list[float] = []
    for lo in range(0, b, BOOT_CHUNK):
        t0 = time.perf_counter()
        redraws = [resample(data, np.random.SeedSequence((seed, i, 0x7273)))
                   for i in range(lo, min(lo + BOOT_CHUNK, b))]
        outcomes += estimator(redraws)
        chunk_s.append(time.perf_counter() - t0)
    dropped = {"estimator_failed": sum(isinstance(o, EstimationError) for o in outcomes)}
    kept = [o if isinstance(o, tuple) else (o, False) for o in outcomes
            if not isinstance(o, EstimationError)]
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
