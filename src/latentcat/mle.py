"""Constrained maximum likelihood for the misclassification model.

In each covariate cell the free parameters are the reporting matrix
P(X|latent), the auxiliary probabilities P(Y=1|latent), the second-measure
matrix P(Z|latent), and the latent marginal. The conditional log-likelihood
of the cell's (S_X, 2, S_Z) count array m (``data.tabulate``) is

    sum_j m_j * log sum_s P(x_j|s) P(y_j|s) P(z_j|s) P(s),

a non-concave mixture objective, so fits are multi-start. Every start runs
EM to convergence, accelerated by SQUAREM (Varadhan & Roland 2008), in one
batched loop over every cell and start (and, in a bootstrap, every
replicate of a chunk). Each EM map reads the log-likelihood and every
block's update off one posterior tensor (the per-state terms of the joint
pmf), with the batch on the last axis so that each op walks contiguous runs
of items; ``MisclassificationModel.split`` cuts out the blocks. No item's
numbers depend on the batch around it. EM keeps each probability block on
its simplex, so the fit needs no parameterization. The likelihood does not
change when the latent states are relabelled, so the monotone-reporting
restriction (last reporting row increasing in the latent state) is
enforced, when asked, by sorting the winning start's states. The default
only checks it and flags a violation, which sorting would hide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, OptimizationError
from .spectral import (
    MisclassificationModel,
    _check_table,
    _state_terms,
    branch_operator,
    build_matrices,
    check_rank,
    order_by_last_row,
)

__all__ = [
    "CmleConfig",
    "CmleResult",
    "StartDiagnostics",
    "param_count",
    "loglik",
    "fit",
    "fit_tables",
]

P_FLOOR = 1e-300
# Accelerated-EM iteration cap and relative log-likelihood stop tolerance per start.
EM_MAX_ITERATIONS = 5000
EM_RTOL = 1e-13
# Starts agree when their log-likelihoods tie the best within this (relative).
AGREE_RTOL = 1e-6
# A probability (or last-row gap) this close to 0 or 1 is a boundary flag.
BOUNDARY_TOL = 1e-2
# The boundary flags' name of each block, in ``spectral.BLOCKS`` order.
FLAG_NAMES = ("p_x_given_latent", "p_y_given_latent", "p_z_given_latent", "p_latent")


def param_count(s_x: int, s_y: int, s_z: int) -> int:
    """Free parameters per covariate cell: S_X(S_X + S_Y + S_Z - 3) + S_X - 1."""
    if min(s_x, s_y, s_z) < 2:
        raise DomainError("all support sizes must be at least 2")
    return s_x * (s_x + s_y + s_z - 3) + s_x - 1


@dataclass(frozen=True)
class CmleConfig:
    """The multi-start choices a caller makes.

    ``ord_constraint`` is "check-only" (fit unrestricted, flag violations)
    or "enforce" (sort the winning start's latent states by the last
    reporting row). ``n_starts`` counts total optimizations; start 0 is the
    closed-form spectral solution when it exists, the rest are flat draws
    from the simplex interior seeded by ``seed``. Iteration limits and
    tolerances are the module constants.
    """

    n_starts: int = 10
    ord_constraint: str = "check-only"
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise DomainError("need at least one start")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if self.ord_constraint not in ("check-only", "enforce"):
            raise DomainError(f"unknown ord_constraint {self.ord_constraint!r}")


@dataclass(frozen=True)
class StartDiagnostics:
    """Per-start trace: where it began, where it ended, and how."""

    index: int
    kind: str
    start_loglik: float
    final_loglik: float
    converged: bool
    n_iterations: int
    message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CmleResult:
    """Best fit plus the multi-start evidence behind it."""

    model: MisclassificationModel
    loglik: float
    n_starts_converged: int
    n_starts_agreeing: int
    boundary_flags: tuple[str, ...]
    starts: tuple[StartDiagnostics, ...] = ()

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "loglik": self.loglik,
            "n_starts_converged": self.n_starts_converged,
            "n_starts_agreeing": self.n_starts_agreeing,
            "boundary_flags": list(self.boundary_flags),
            "starts": [s.to_dict() for s in self.starts],
        }


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def loglik(model: MisclassificationModel, counts: np.ndarray) -> float:
    """Conditional log-likelihood of an (S_X, 2, S_Z) count array under a
    parameter bundle.

    Zero-count cells contribute nothing; a zero mixture probability under a
    positive count yields -inf. Parameters outside the simplex-product space
    raise DomainError.
    """
    model.validate()
    if np.shape(counts) != (model.s_x, 2, model.s_z):
        raise DomainError("model support does not match the table")
    p = _state_terms(model.pack()[:, None], model.s_x, model.s_z).sum(axis=3)[..., 0]
    active = counts > 0
    if np.any(p[active] <= 0):
        return -np.inf
    return float(np.sum(counts[active] * np.log(p[active])))


# ---------------------------------------------------------------------------
# Accelerated EM
# ---------------------------------------------------------------------------


def _interior(p: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Columns (axis -2) clipped to ``floor`` and renormalized to sum to 1."""
    p = np.clip(p, floor, None)
    return p / p.sum(axis=-2, keepdims=True)


# ``ndarray.sum`` without its Python wrapper: EM's map is mostly fixed
# per-call overhead once few items are left running.
_add = np.add.reduce


def _item_sums(x: np.ndarray) -> np.ndarray:
    """Per-item sums of a batch-last array over all its other axes.

    Each item's terms are summed as one contiguous row, so numpy rounds the
    sum the same way at every batch size (a one-item column would be
    contiguous, and summed pairwise, where a wider batch is not).
    """
    return _add(np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T), axis=1)


def _em_map(theta: np.ndarray, counts: np.ndarray, totals: np.ndarray,
            s_x: int, s_z: int, with_loglik: bool = True):
    """Log-likelihood of each packed column of ``theta`` on its table (None
    unless ``with_loglik``), and the EM update F of that column.

    The batch is the last axis throughout: ``theta`` is (P, n), ``counts``
    (S_X, 2, S_Z, n) and ``totals`` (n,) their sums, so every elementwise
    op and every sum over x, y, z or s walks contiguous runs of items. Both
    come from the per-state terms q[x, y, z, s] = P(x|s) P(y|s) P(z|s) P(s)
    of the joint pmf (``spectral._state_terms``): the posterior count of
    latent state s in cell (x, y, z) is counts / p * q, and F sets every
    block to those counts summed over the other axes, normalized (each
    clipped at 1e-12 first, as ``_interior`` does). F keeps its output
    strictly inside the simplex. Each item's numbers do not depend on the
    rest of the batch.
    """
    q = _state_terms(theta, s_x, s_z)
    p = np.maximum(_add(q, axis=3), P_FLOOR)
    ll = _item_sums(counts * np.log(p)) if with_loglik else None
    post = (counts / p)[:, :, :, None] * q
    wa, wb, wc = _add(post, axis=(1, 2)), _add(post, axis=(0, 2)), _add(post, axis=(0, 1))
    out = np.empty_like(theta)
    a, fy, c, pi = MisclassificationModel.split(out, s_x, s_z)
    n_s = np.maximum(_add(wa, axis=0), 1e-12)
    np.maximum(np.divide(wa, n_s, out=a), 1e-12, out=a)
    a /= _add(a, axis=0)
    np.divide(wb[1], np.maximum(wb[0] + wb[1], 1e-12), out=fy)
    np.minimum(np.maximum(fy, 1e-12, out=fy), 1.0 - 1e-12, out=fy)
    np.maximum(np.divide(wc, np.maximum(_add(wc, axis=0), 1e-12), out=c), 1e-12, out=c)
    c /= _add(c, axis=0)
    np.divide(n_s, totals, out=pi)
    pi /= _add(pi, axis=0)
    return ll, out


def _take(keep: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The items ``keep`` of a batch-last array, still batch-last in memory
    (``x[..., keep]`` would put the batch first)."""
    return np.compress(keep, x, axis=-1)


def _em_fit(starts: list[MisclassificationModel], counts: np.ndarray):
    """EM to convergence for a batch of latent-class mixtures, item i from
    ``starts[i]`` on the table ``counts[i]`` (one support for all), as
    (fitted model, start loglik, final loglik, iterations, converged) per
    item. Both log-likelihoods are floored at P_FLOOR per cell, never -inf,
    and come from the first and last EM maps of the item.

    Each iteration is one SQUAREM step (SqS3, Varadhan & Roland 2008): with
    r = F(t) - t and v = F(F(t)) - F(t) - r, the extrapolation
    t - 2 a r + a^2 v, a = min(-|r|/|v|, -1), keeps columns summing to 1.
    While it leaves the open simplex, a moves halfway to -1, where the step
    is F(F(t)). The step is then stabilised by one more F, and replaced by
    F(F(t)) if that lowers the log-likelihood, so every step is monotone.
    An item stops when its log-likelihood gains at most EM_RTOL (relative)
    in one step; ``converged`` is False if EM_MAX_ITERATIONS came first.
    Every item keeps its own step, backtracking and stop test, so its
    iterates do not depend on the batch. The loop works on the running
    items only, batch-last (see ``_em_map``); a stopped item leaves it.
    """
    s_x, s_z = starts[0].s_x, starts[0].s_z
    n_items = len(starts)
    theta = np.stack([m.pack() for m in starts], axis=1)
    totals = counts.reshape(n_items, -1).sum(axis=1)
    k = np.ascontiguousarray(np.moveaxis(counts, 0, -1))
    ll, f_theta = _em_map(theta, k, totals, s_x, s_z)
    start_ll = ll.copy()
    fitted, final_ll = np.empty_like(theta), np.empty_like(ll)
    n_iter = np.full(n_items, EM_MAX_ITERATIONS)
    converged = np.zeros(n_items, dtype=bool)
    items = np.arange(n_items)  # the running items, in batch order
    for iteration in range(1, EM_MAX_ITERATIONS + 1):
        t0, t1 = theta, f_theta
        _, t2 = _em_map(t1, k, totals, s_x, s_z, with_loglik=False)
        r = t1 - t0
        v = t2 - t1 - r
        rr, vv = _item_sums(r * r), _item_sums(v * v)
        alpha = np.minimum(-np.sqrt(np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0)),
                           -1.0)
        flat = alpha == -1.0
        step = np.where(flat, t2, t0 - 2.0 * alpha * r + alpha * alpha * v)
        outside = ~(((step > 0.0) & (step < 1.0)).all(axis=0) | flat)
        while outside.any():
            alpha[outside] = al = (alpha[outside] - 1.0) / 2.0
            step[:, outside] = np.where(
                al == -1.0, t2[:, outside],
                t0[:, outside] - 2.0 * al * r[:, outside] + al * al * v[:, outside])
            outside &= ~(((step > 0.0) & (step < 1.0)).all(axis=0) | (alpha == -1.0))
        _, theta = _em_map(step, k, totals, s_x, s_z, with_loglik=False)
        ll_new, f_theta = _em_map(theta, k, totals, s_x, s_z)
        worse = ll_new < ll
        if worse.any():
            t2 = _take(worse, t2)
            theta[:, worse] = t2
            ll_new[worse], f_theta[:, worse] = _em_map(t2, _take(worse, k),
                                                       totals[worse], s_x, s_z)
        done = ll_new - ll <= EM_RTOL * np.maximum(1.0, np.abs(ll_new))
        ll = ll_new
        if done.any():
            stopped = items[done]
            fitted[:, stopped], final_ll[stopped] = theta[:, done], ll[done]
            n_iter[stopped], converged[stopped] = iteration, True
            running = ~done
            items, theta, f_theta, ll, k, totals = (
                _take(running, x) for x in (items, theta, f_theta, ll, k, totals))
            if not items.size:
                break
    fitted[:, items], final_ll[items] = theta, ll
    models = (MisclassificationModel(*MisclassificationModel.split(column, s_x, s_z))
              for column in np.ascontiguousarray(fitted.T))
    return list(zip(models, start_ll.tolist(), final_ll.tolist(), n_iter.tolist(),
                    converged.tolist()))


# ---------------------------------------------------------------------------
# Multi-start fit
# ---------------------------------------------------------------------------


def _random_model(rng, s_x: int, s_z: int) -> MisclassificationModel:
    return MisclassificationModel(
        m_x_given_xstar=rng.dirichlet(np.ones(s_x), size=s_x).T,
        f_y_given_xstar=rng.uniform(0.05, 0.95, size=s_x),
        m_z_given_xstar=rng.dirichlet(np.ones(s_z), size=s_x).T,
        f_xstar=rng.dirichlet(np.ones(s_x)),
    )


def _projected_spectral_start(counts: np.ndarray) -> MisclassificationModel | None:
    """Eigendecomposition start, projected into the open simplex.

    Unlike the identification routine this never rejects: real parts are
    taken, entries clipped interior, columns renormalized. The result only
    has to land in the right basin with the right latent-state ordering.
    """
    s_x, _, s_z = counts.shape
    if s_x != s_z:
        return None
    probs = counts / counts.sum()
    m_xz, m_per_y = build_matrices(probs)
    try:
        if not check_rank(m_xz, tol=1e-10).rank_ok:
            return None
        vals, vecs = np.linalg.eig(branch_operator(m_xz, m_per_y[1]))
    except np.linalg.LinAlgError:
        return None
    vals = vals.real
    vecs = vecs.real
    sums = vecs.sum(axis=0)
    if np.any(np.abs(sums) < 1e-12):
        return None
    vals, vecs = order_by_last_row(vals, vecs / sums)
    m_x = _interior(vecs, 1e-6)
    f_y = np.clip(vals, 1e-6, 1.0 - 1e-6)
    # A singular m_x has an infinite condition number; an ill-conditioned one
    # fails the start as well.
    if np.linalg.cond(m_x, 1) * np.finfo(float).eps >= 1.0:
        return None
    f_xstar = np.linalg.solve(m_x, probs.sum(axis=(1, 2)))
    f_xstar = _interior(f_xstar[:, None], 1e-6).ravel()
    m_z = _interior((np.linalg.solve(m_x, m_xz) / f_xstar[:, None]).T, 1e-6)
    return MisclassificationModel(m_x, f_y, m_z, f_xstar)


def _boundary_flags(model: MisclassificationModel):
    """Entries within BOUNDARY_TOL of 0 or 1, row-major by block, then near-tied gaps."""
    for name, block in zip(FLAG_NAMES, model.blocks):
        near_0 = block < BOUNDARY_TOL
        near_1 = block > 1.0 - BOUNDARY_TOL
        for index in zip(*np.nonzero(near_0 | near_1)):
            where = ",".join(str(i + 1) for i in index)
            yield f"{name}[{where}] ~ {0 if near_0[index] else 1}"
    gaps = np.abs(np.diff(model.m_x_given_xstar[-1, :]))
    for j in np.nonzero(gaps < BOUNDARY_TOL)[0]:
        yield f"ord_gap[{j + 1},{j + 2}] ~ 0"


def _starts(counts: np.ndarray, config: CmleConfig,
            warm_start: MisclassificationModel | None):
    """(kind, model) per start: the warm or projected spectral start, then
    seeded flat draws from the simplex interior."""
    counts = _check_table(counts)
    if (counts < 0).any():
        raise DomainError("negative cell count")
    if not counts.any():
        raise DomainError("empty table")
    if warm_start is not None:
        starts = [("warm", warm_start)]
    else:
        projected = _projected_spectral_start(counts)
        starts = [] if projected is None else [("spectral", projected)]
    s_x, _, s_z = counts.shape
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x636D6C65)))
    while len(starts) < config.n_starts:
        starts.append(("random", _random_model(rng, s_x, s_z)))
    return starts


def _fitted_starts(tables: list[np.ndarray], configs: list[CmleConfig],
                   warm_starts: list[MisclassificationModel | None]):
    """Per table, its starts as (kind, fitted model, start loglik, final
    loglik, iterations, converged) tuples; one accelerated EM runs over
    every start of every table."""
    starts = [_starts(*args) for args in zip(tables, configs, warm_starts, strict=True)]
    counts = np.stack([t for t, ts in zip(tables, starts) for _ in ts])
    fitted = iter(_em_fit([m for ts in starts for _, m in ts], counts.astype(float)))
    return [[(kind, *next(fitted)) for kind, _ in ts] for ts in starts]


def _relabelled(model: MisclassificationModel) -> MisclassificationModel:
    """``model`` with its latent states sorted by the last reporting row,
    ties ordered by the rows above (``order_by_last_row``)."""
    order, _ = order_by_last_row(np.arange(model.s_x), model.m_x_given_xstar)
    return MisclassificationModel(*(block[..., order] for block in model.blocks))


def fit_tables(
    tables: list[np.ndarray],
    configs: list[CmleConfig],
    warm_starts: list[MisclassificationModel | None] | None = None,
) -> list[CmleResult | OptimizationError]:
    """``fit`` on one or more count arrays of one shape: per table, the
    result or the OptimizationError that ``fit`` would raise on it alone.

    Every start of every table runs in one batched, accelerated EM; then
    ``fit`` builds each table's result from its fitted starts.
    ``pipeline.fit_cells`` makes one call for ``identify``'s point fits and
    one for the cell refits of each chunk of bootstrap replicates. An empty
    list or mixed shapes raise DomainError.
    """
    if len({np.shape(table) for table in tables}) != 1:
        raise DomainError("fit_tables needs one or more tables of one support")
    if warm_starts is None:
        warm_starts = [None] * len(tables)
    results: list[CmleResult | OptimizationError] = []
    for table, config, warmed in zip(tables, configs,
                                     _fitted_starts(tables, configs, warm_starts)):
        try:
            results.append(fit(table, config, warmed=warmed))
        except OptimizationError as exc:
            results.append(exc)
    return results


def fit(
    counts: np.ndarray,
    config: CmleConfig = CmleConfig(),
    warm_start: MisclassificationModel | None = None,
    *,
    warmed: list[tuple] | None = None,
) -> CmleResult:
    """Maximize the conditional log-likelihood of an (S_X, 2, S_Z) count
    array, such as ``data.tabulate``'s, with multiple seeded starts.

    Start 0 is (in order of preference) the caller's ``warm_start``, else
    the closed-form spectral solution on the pmf ``counts / counts.sum()``
    when it exists; remaining starts are flat draws from the simplex
    interior. Each start runs SQUAREM-accelerated EM to convergence. The
    winner is the lowest-indexed start whose value ties the best within
    ``AGREE_RTOL`` (relative), so a well-ordered warm start beats permuted
    copies of the same optimum. Under ``ord_constraint="enforce"`` the
    winner's latent states are then sorted by the last reporting row, which
    leaves the likelihood unchanged. Raises OptimizationError when no start
    converges.

    Alone, ``fit`` fits its starts as a batch of one. ``fit_tables`` fits
    the starts of many tables in one batch and passes each table's as
    ``warmed``, (kind, fitted model, start loglik, final loglik, iterations,
    converged) per start; ``warm_start`` is then unused. The log-likelihoods
    are the EM's own, floored at P_FLOOR per cell. A table that is not 3-d,
    has a negative count or is empty raises DomainError.
    """
    if warmed is None:
        [warmed] = _fitted_starts([counts], [config], [warm_start])
    records: list[StartDiagnostics] = []
    for idx, (kind, _, start_ll, final_ll, n_iter, converged) in enumerate(warmed):
        records.append(
            StartDiagnostics(
                index=idx,
                kind=kind,
                start_loglik=start_ll,
                final_loglik=final_ll,
                converged=converged,
                n_iterations=n_iter,
                message=("log-likelihood gain below EM_RTOL" if converged
                         else "stopped at EM_MAX_ITERATIONS"),
            )
        )

    converged = [r for r in records if r.converged]
    if not converged:
        raise OptimizationError(
            f"none of {config.n_starts} starts converged", start_diagnostics=records
        )
    best_ll = max(r.final_loglik for r in converged)
    tol = AGREE_RTOL * max(1.0, abs(best_ll))
    agreeing = [r for r in converged if best_ll - r.final_loglik <= tol]
    winner = min(agreeing, key=lambda r: r.index)
    model = warmed[winner.index][1]
    if config.ord_constraint == "enforce":
        model = _relabelled(model)
    return CmleResult(
        model=model,
        loglik=winner.final_loglik,
        n_starts_converged=len(converged),
        n_starts_agreeing=len(agreeing),
        boundary_flags=tuple(_boundary_flags(model)),
        starts=tuple(records),
    )
