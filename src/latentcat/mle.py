"""Constrained maximum likelihood for the misclassification model.

In each covariate cell the free parameters are the reporting matrix
P(X|latent), the auxiliary probabilities P(Y=1|latent), the second-measure
matrix P(Z|latent), and the latent marginal. The conditional log-likelihood
of the cell's (x, y, z) contingency counts is

    sum_j m_j * log sum_s P(x_j|s) P(y_j|s) P(z_j|s) P(s),

a non-concave mixture objective, so fits are multi-start. Every start runs
EM to convergence, accelerated by SQUAREM (Varadhan & Roland 2008), in one
batched loop over every cell and start. Each EM map reads the
log-likelihood and every block's update off one posterior tensor (the
per-state terms of the joint pmf). EM keeps each probability block on its
simplex, so the fit needs no parameterization. The likelihood does not
change when the latent states are relabelled, so the monotone-reporting
restriction (last reporting row increasing in the latent state) is enforced,
when asked, by sorting each fitted start's states. The default only checks
it and flags a violation, which sorting would hide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import ContingencyTable, frequency_pmf
from .errors import DomainError, OptimizationError
from .spectral import (
    MisclassificationModel,
    _joint_pmf,
    _joint_terms,
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


def param_count(s_x: int, s_y: int, s_z: int) -> int:
    """Free parameters per covariate cell: S_X(S_X + S_Y + S_Z - 3) + S_X - 1."""
    if min(s_x, s_y, s_z) < 2:
        raise DomainError("all support sizes must be at least 2")
    return s_x * (s_x + s_y + s_z - 3) + s_x - 1


@dataclass(frozen=True)
class CmleConfig:
    """The multi-start choices a caller makes.

    ``ord_constraint`` is "check-only" (fit unrestricted, flag violations)
    or "enforce" (sort each fitted start's latent states by the last
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


def loglik(model: MisclassificationModel, table: ContingencyTable) -> float:
    """Conditional log-likelihood of the counts under a parameter bundle.

    Zero-count cells contribute nothing; a zero mixture probability under a
    positive count yields -inf. Parameters outside the simplex-product space
    raise DomainError.
    """
    model.validate()
    if model.s_x != table.support[0] or model.s_z != table.support[2]:
        raise DomainError("model support does not match the table")
    p = _joint_pmf(*model.blocks())
    m = table.counts
    active = m > 0
    if np.any(p[active] <= 0):
        return -np.inf
    return float(np.sum(m[active] * np.log(p[active])))


# ---------------------------------------------------------------------------
# Accelerated EM
# ---------------------------------------------------------------------------


def _interior(p: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Columns (axis -2) clipped to ``floor`` and renormalized to sum to 1."""
    p = np.clip(p, floor, None)
    return p / p.sum(axis=-2, keepdims=True)


def _em_map(theta: np.ndarray, counts: np.ndarray, s_x: int, s_z: int):
    """Log-likelihood of each packed row of ``theta`` on its table, and the
    EM update F of that row.

    Both come from the per-state terms q of the joint pmf: the posterior
    count of latent state s in cell (x, y, z) is counts / p * q, and F sets
    every block to those counts summed over the other axes, normalized. F
    keeps its output strictly inside the simplex.
    """
    a, fy, c, pi = MisclassificationModel.split(theta, s_x, s_z)
    q = _joint_terms(a, np.stack([1.0 - fy, fy], axis=1), c, pi)
    p = np.maximum(q.sum(axis=-1), P_FLOOR)
    ll = np.sum(counts * np.log(p), axis=(1, 2, 3))
    post = (counts / p)[..., None] * q
    wa, wb, wc = post.sum(axis=(2, 3)), post.sum(axis=(1, 3)), post.sum(axis=(1, 2))
    n_s = np.maximum(wa.sum(axis=1, keepdims=True), 1e-12)
    a = _interior(wa / n_s)
    fy = np.clip(wb[:, 1] / np.maximum(wb.sum(axis=1), 1e-12), 1e-12, 1.0 - 1e-12)
    c = _interior(wc / np.maximum(wc.sum(axis=1, keepdims=True), 1e-12))
    pi = n_s[:, 0] / counts.sum(axis=(1, 2, 3))[:, None]
    pi = pi / pi.sum(axis=1, keepdims=True)
    rows = len(theta)
    return ll, np.concatenate([a.reshape(rows, -1), fy, c.reshape(rows, -1), pi], axis=1)


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
    iterates do not depend on the batch.
    """
    s_x, s_z = starts[0].s_x, starts[0].s_z
    theta = np.stack([m.pack() for m in starts])
    ll, f_theta = _em_map(theta, counts, s_x, s_z)
    start_ll = ll.copy()
    n_iter = np.zeros(len(starts), dtype=int)
    converged = np.zeros(len(starts), dtype=bool)
    active = np.arange(len(starts))
    for _ in range(EM_MAX_ITERATIONS):
        if not active.size:
            break
        k, t0, t1 = counts[active], theta[active], f_theta[active]
        _, t2 = _em_map(t1, k, s_x, s_z)
        r = t1 - t0
        v = t2 - t1 - r
        rr, vv = (r * r).sum(axis=1), (v * v).sum(axis=1)
        alpha = np.minimum(-np.sqrt(np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0)),
                           -1.0)
        step = np.empty_like(t0)
        pending = np.ones(len(active), dtype=bool)
        while pending.any():
            al = alpha[pending, None]
            step[pending] = np.where(al == -1.0, t2[pending],
                                     t0[pending] - 2.0 * al * r[pending] + al * al * v[pending])
            inside = ((step > 0.0) & (step < 1.0)).all(axis=1) | (alpha == -1.0)
            pending &= ~inside
            alpha[pending] = (alpha[pending] - 1.0) / 2.0
        _, t_new = _em_map(step, k, s_x, s_z)
        ll_new, f_new = _em_map(t_new, k, s_x, s_z)
        worse = ll_new < ll[active]
        if worse.any():
            t_new[worse] = t2[worse]
            ll_new[worse], f_new[worse] = _em_map(t2[worse], k[worse], s_x, s_z)
        done = ll_new - ll[active] <= EM_RTOL * np.maximum(1.0, np.abs(ll_new))
        theta[active], ll[active], f_theta[active] = t_new, ll_new, f_new
        n_iter[active] += 1
        converged[active[done]] = True
        active = active[~done]
    models = (MisclassificationModel(*MisclassificationModel.split(row, s_x, s_z))
              for row in theta)
    return list(zip(models, start_ll.tolist(), ll.tolist(), n_iter.tolist(),
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


def _projected_spectral_start(table: ContingencyTable) -> MisclassificationModel | None:
    """Eigendecomposition start, projected into the open simplex.

    Unlike the identification routine this never rejects: real parts are
    taken, entries clipped interior, columns renormalized. The result only
    has to land in the right basin with the right latent-state ordering.
    """
    s_x, _, s_z = table.support
    if s_x != s_z:
        return None
    pmf = frequency_pmf(table)
    m_xz, m_per_y = build_matrices(pmf)
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
    f_xstar = np.linalg.solve(m_x, pmf.probs.sum(axis=(1, 2)))
    f_xstar = _interior(f_xstar[:, None], 1e-6).ravel()
    m_z = _interior((np.linalg.solve(m_x, m_xz) / f_xstar[:, None]).T, 1e-6)
    return MisclassificationModel(
        m_x_given_xstar=m_x, f_y_given_xstar=f_y,
        m_z_given_xstar=m_z, f_xstar=f_xstar,
    )


def _boundary_flags(model: MisclassificationModel) -> tuple[str, ...]:
    flags: list[str] = []

    def scan(name: str, arr: np.ndarray):
        it = np.nditer(arr, flags=["multi_index"])
        for v in it:
            val = float(v)
            where = ",".join(str(i + 1) for i in it.multi_index)
            if val < BOUNDARY_TOL:
                flags.append(f"{name}[{where}] ~ 0")
            elif val > 1.0 - BOUNDARY_TOL:
                flags.append(f"{name}[{where}] ~ 1")

    scan("p_x_given_latent", model.m_x_given_xstar)
    scan("p_y_given_latent", model.f_y_given_xstar)
    scan("p_z_given_latent", model.m_z_given_xstar)
    scan("p_latent", model.f_xstar)
    last = model.m_x_given_xstar[-1, :]
    for j, gap in enumerate(np.diff(last)):
        if abs(gap) < BOUNDARY_TOL:
            flags.append(f"ord_gap[{j + 1},{j + 2}] ~ 0")
    return tuple(flags)


def _starts(table: ContingencyTable, config: CmleConfig,
            warm_start: MisclassificationModel | None):
    """(kind, model) per start: the warm or projected spectral start, then
    seeded flat draws from the simplex interior."""
    if table.n <= 0:
        raise DomainError("empty table")
    if warm_start is not None:
        starts = [("warm", warm_start)]
    else:
        projected = _projected_spectral_start(table)
        starts = [] if projected is None else [("spectral", projected)]
    s_x, _, s_z = table.support
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x636D6C65)))
    while len(starts) < config.n_starts:
        starts.append(("random", _random_model(rng, s_x, s_z)))
    return starts


def _fitted_starts(tables: list[ContingencyTable], configs: list[CmleConfig],
                   warm_starts: list[MisclassificationModel | None]):
    """Per table, its starts as (kind, fitted model, start loglik, final
    loglik, iterations, converged) tuples; one accelerated EM runs over
    every start of every table."""
    starts = [_starts(*args) for args in zip(tables, configs, warm_starts, strict=True)]
    counts = np.stack([t.counts for t, ts in zip(tables, starts) for _ in ts])
    fitted = iter(_em_fit([m for ts in starts for _, m in ts], counts.astype(float)))
    return [[(kind, *next(fitted)) for kind, _ in ts] for ts in starts]


def _relabelled(model: MisclassificationModel) -> MisclassificationModel:
    """``model`` with its latent states sorted by the last reporting row,
    ties ordered by the rows above (``order_by_last_row``)."""
    order, _ = order_by_last_row(np.arange(model.s_x), model.m_x_given_xstar)
    return MisclassificationModel(
        m_x_given_xstar=model.m_x_given_xstar[:, order],
        f_y_given_xstar=model.f_y_given_xstar[order],
        m_z_given_xstar=model.m_z_given_xstar[:, order],
        f_xstar=model.f_xstar[order],
    )


def fit_tables(
    tables: list[ContingencyTable],
    configs: list[CmleConfig],
    warm_starts: list[MisclassificationModel | None] | None = None,
) -> list[CmleResult | OptimizationError]:
    """``fit`` on one or more tables of one support: per table, the result or
    the OptimizationError that ``fit`` would raise on it alone.

    Every start of every table runs in one batched, accelerated EM; then
    ``fit`` builds each table's result from its fitted starts. The
    pipeline's cell fits, ``identify``'s point fits and each replicate of
    ``pipeline.model_std_errors`` are one call each. An empty list or mixed
    supports raise DomainError.
    """
    if len({table.support for table in tables}) != 1:
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
    table: ContingencyTable,
    config: CmleConfig = CmleConfig(),
    warm_start: MisclassificationModel | None = None,
    *,
    warmed: list[tuple] | None = None,
) -> CmleResult:
    """Maximize the conditional log-likelihood with multiple seeded starts.

    Start 0 is (in order of preference) the caller's ``warm_start``, else
    the closed-form spectral solution on this table's frequency pmf when it
    exists; remaining starts are flat draws from the simplex interior. Each
    start runs SQUAREM-accelerated EM to convergence. Under
    ``ord_constraint="enforce"`` each fitted start's latent states are then
    sorted by the last reporting row, which leaves the likelihood unchanged.
    The winner is the lowest-indexed start whose value ties the best within
    ``AGREE_RTOL`` (relative), so a well-ordered warm start beats permuted
    copies of the same optimum. Raises OptimizationError when no start
    converges.

    Alone, ``fit`` fits its starts as a batch of one. ``fit_tables`` fits
    the starts of many tables in one batch and passes each table's as
    ``warmed``, (kind, fitted model, start loglik, final loglik, iterations,
    converged) per start; ``warm_start`` is then unused. The log-likelihoods
    are the EM's own, floored at P_FLOOR per cell.
    """
    if warmed is None:
        [warmed] = _fitted_starts([table], [config], [warm_start])
    records: list[StartDiagnostics] = []
    models: list[MisclassificationModel] = []
    for idx, (kind, model, start_ll, final_ll, n_iter, converged) in enumerate(warmed):
        if config.ord_constraint == "enforce":
            model = _relabelled(model)
        models.append(model)
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
    model = replace(models[winner.index], w_cell=table.w_cell)
    return CmleResult(
        model=model,
        loglik=winner.final_loglik,
        n_starts_converged=len(converged),
        n_starts_agreeing=len(agreeing),
        boundary_flags=_boundary_flags(model),
        starts=tuple(records),
    )
