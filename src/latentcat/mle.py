"""Constrained maximum likelihood for the misclassification model.

One covariate cell at a time, the sampler's free parameters are the
reporting matrix P(X|latent), the auxiliary probabilities P(Y=1|latent),
the second-measure matrix P(Z|latent), and the latent marginal. The
conditional log-likelihood of the (x, y, z) contingency counts is

    sum_j m_j * log sum_s P(x_j|s) P(y_j|s) P(z_j|s) P(s),

a non-concave mixture objective, so fits are multi-start by default.

Simplex constraints are not handled by projection: every probability block
is expressed through a smooth bijection onto the open simplex (softmax with
a fixed gauge), which keeps quasi-Newton optimizers usable. The monotone-
reporting restriction (last reporting row increasing in the latent state)
can additionally be enforced through a stick-breaking parameterization of
that row; the default only checks it after the fit, because imposing it a
priori can mask conflicts with the data.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import linalg, optimize

from .data import ContingencyTable, frequency_pmf
from .errors import DomainError, OptimizationError
from .spectral import (
    MisclassificationModel,
    _joint_pmf,
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
]

LOGIT_MAX = 30.0
P_FLOOR = 1e-300
# L-BFGS-B iteration cap and projected-gradient tolerance per start.
MAX_ITERATIONS = 3000
GRADIENT_TOLERANCE = 1e-9
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
    or "enforce" (reparameterize the last reporting row as strictly
    increasing). ``n_starts`` counts total optimizations; start 0 is the
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


def loglik_unchecked(model: MisclassificationModel, counts: np.ndarray) -> float:
    """loglik without domain validation (floored, never -inf); optimizer use."""
    p = np.maximum(_joint_pmf(*model.blocks()), P_FLOOR)
    return float(np.sum(counts * np.log(p)))


# ---------------------------------------------------------------------------
# Unconstrained parameterizations
# ---------------------------------------------------------------------------


def _softmax_gauged(logits: np.ndarray) -> np.ndarray:
    """Columnwise softmax of [0; logits]: a bijection onto the open simplex."""
    full = np.vstack([np.zeros((1, logits.shape[1])), logits])
    full = full - full.max(axis=0)
    e = np.exp(full)
    return e / e.sum(axis=0)


def _logits_from_probs(p: np.ndarray) -> np.ndarray:
    safe = np.clip(p, 1e-13, None)
    logits = np.log(safe[1:, :]) - np.log(safe[0:1, :])
    return np.clip(logits, -LOGIT_MAX, LOGIT_MAX)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logit(p: np.ndarray) -> np.ndarray:
    safe = np.clip(p, 1e-13, 1.0 - 1e-13)
    return np.clip(np.log(safe) - np.log1p(-safe), -LOGIT_MAX, LOGIT_MAX)


class _Parameterization:
    """Packs/unpacks the four probability blocks into one flat vector."""

    def __init__(self, s_x: int, s_z: int, enforce_ord: bool):
        self.s_x = s_x
        self.s_z = s_z
        self.enforce_ord = enforce_ord
        self.n_a = (s_x - 1) * s_x
        self.n_b = s_x
        self.n_c = (s_z - 1) * s_x
        self.n_pi = s_x - 1
        self.size = self.n_a + self.n_b + self.n_c + self.n_pi

    def split(self, theta: np.ndarray):
        i0 = self.n_a
        i1 = i0 + self.n_b
        i2 = i1 + self.n_c
        ta = theta[:i0].reshape(self.s_x - 1, self.s_x)
        tb = theta[i0:i1]
        tc = theta[i1:i2].reshape(self.s_z - 1, self.s_x)
        tpi = theta[i2:]
        return ta, tb, tc, tpi

    # -- reporting-matrix block ------------------------------------------

    def _stick_breaking(self, ta: np.ndarray):
        """Reporting matrix with a strictly increasing last row, plus the
        stick fractions ``s``, last row ``r`` and column ``rest`` that the
        gradient's chain rule needs.

        Row ta[0] drives the stick-breaking of the last row; rows ta[1:]
        are gauged softmax logits for the rest of each column, scaled to
        the leftover mass.
        """
        s = _sigmoid(ta[0])
        r = np.empty(self.s_x)
        acc = 0.0
        for j in range(self.s_x):
            acc = acc + (1.0 - acc) * s[j]
            r[j] = acc
        rest = _softmax_gauged(ta[1:, :]) if self.s_x > 2 else np.ones((1, self.s_x))
        a = np.empty((self.s_x, self.s_x))
        a[: self.s_x - 1, :] = rest * (1.0 - r)[None, :]
        a[-1, :] = r
        return a, (s, r, rest)

    def _block_from_a(self, a: np.ndarray) -> np.ndarray:
        if not self.enforce_ord:
            return _logits_from_probs(a)
        r = np.clip(a[-1, :], 1e-12, 1.0 - 1e-12)
        s = np.empty(self.s_x)
        prev = 0.0
        for j in range(self.s_x):
            s[j] = (r[j] - prev) / (1.0 - prev)
            prev = r[j]
        ta = np.empty((self.s_x - 1, self.s_x))
        ta[0] = _logit(np.clip(s, 1e-12, 1.0 - 1e-12))
        if self.s_x > 2:
            rest = a[: self.s_x - 1, :] / np.clip(1.0 - r, 1e-12, None)[None, :]
            ta[1:, :] = _logits_from_probs(rest)
        return ta

    # -- full bundle ------------------------------------------------------

    def blocks(self, theta: np.ndarray):
        """``_joint_pmf``'s (a, b2, c, pi) at ``theta``, plus the stick-breaking
        intermediates (None unless the ordering is enforced)."""
        ta, tb, tc, tpi = self.split(theta)
        if self.enforce_ord:
            a, sticks = self._stick_breaking(ta)
        else:
            a, sticks = _softmax_gauged(ta), None
        fy = _sigmoid(tb)
        b2 = np.stack([1.0 - fy, fy])
        pi = _softmax_gauged(tpi[:, None]).ravel()
        return (a, b2, _softmax_gauged(tc), pi), sticks

    def model(self, theta: np.ndarray) -> MisclassificationModel:
        (a, b2, c, pi), _ = self.blocks(theta)
        return MisclassificationModel(
            m_x_given_xstar=a, f_y_given_xstar=b2[1], m_z_given_xstar=c, f_xstar=pi
        )

    def theta(self, model: MisclassificationModel) -> np.ndarray:
        a, f_y = model.m_x_given_xstar, model.f_y_given_xstar
        c, pi = model.m_z_given_xstar, model.f_xstar
        if self.enforce_ord and np.any(np.diff(a[-1, :]) <= 0):
            order = np.argsort(a[-1, :], kind="stable")
            a, f_y, c, pi = a[:, order], f_y[order], c[:, order], pi[order]
        parts = [
            self._block_from_a(a).ravel(),
            _logit(f_y),
            _logits_from_probs(c).ravel(),
            _logits_from_probs(pi[:, None]).ravel(),
        ]
        return np.concatenate(parts)


def _block_grads(a, b2, c, pi, counts):
    """Log-likelihood value and its gradient w.r.t. the probability blocks."""
    p = _joint_pmf(a, b2, c, pi)
    p_safe = np.maximum(p, P_FLOOR)
    ll = float(np.sum(counts * np.log(p_safe)))
    g = counts / p_safe
    da = np.einsum("xyz,ys,zs,s->xs", g, b2, c, pi)
    db2 = np.einsum("xyz,xs,zs,s->ys", g, a, c, pi)
    dc = np.einsum("xyz,xs,ys,s->zs", g, a, b2, pi)
    dpi = np.einsum("xyz,xs,ys,zs->s", g, a, b2, c)
    return ll, da, db2, dc, dpi


def _softmax_chain(dp: np.ndarray, p_col: np.ndarray) -> np.ndarray:
    inner = (p_col * dp).sum(axis=0, keepdims=True)
    return (p_col * (dp - inner))[1:, :]


def _nll_and_grad(theta: np.ndarray, par: _Parameterization, counts: np.ndarray):
    """Negative log-likelihood and gradient through the chosen bijection."""
    (a, b2, c, pi), sticks = par.blocks(theta)
    ll, da, db2, dc, dpi = _block_grads(a, b2, c, pi, counts)
    if sticks is None:
        ga = _softmax_chain(da, a).ravel()
    else:
        s_x = par.s_x
        s, r, rest = sticks
        # Chain rule through the scaled softmax rows and the stick-breaking
        # recursion r_j = r_{j-1} + (1 - r_{j-1}) s_j.
        d_rest = da[: s_x - 1, :] * (1.0 - r)[None, :]
        d_r = da[-1, :] - (da[: s_x - 1, :] * rest).sum(axis=0)
        d_s = np.empty(s_x)
        carry = 0.0
        for j in range(s_x - 1, -1, -1):
            total = d_r[j] + carry
            prev_r = r[j - 1] if j > 0 else 0.0
            d_s[j] = total * (1.0 - prev_r)
            carry = total * (1.0 - s[j])
        ga_top = s * (1.0 - s) * d_s
        if s_x > 2:
            ga = np.vstack([ga_top[None, :], _softmax_chain(d_rest, rest)]).ravel()
        else:
            ga = ga_top

    fy = b2[1]
    grad = np.concatenate(
        [
            np.asarray(ga).ravel(),
            (fy * (1.0 - fy) * (db2[1] - db2[0])).ravel(),
            _softmax_chain(dc, c).ravel(),
            _softmax_chain(dpi[:, None], pi[:, None]).ravel(),
        ]
    )
    return -ll, -grad


# ---------------------------------------------------------------------------
# EM warm-up
# ---------------------------------------------------------------------------


def _em_polish(model: MisclassificationModel, counts: np.ndarray,
               max_iter: int = 500, rtol: float = 1e-10) -> MisclassificationModel:
    """Multiplicative EM updates for the latent-class mixture.

    Monotone in the likelihood and cheap on a contingency table; used to
    pull every start into a good basin before the quasi-Newton polish.
    """
    a = model.m_x_given_xstar.copy()
    fy = model.f_y_given_xstar.copy()
    c = model.m_z_given_xstar.copy()
    pi = model.f_xstar.copy()
    n = counts.sum()
    last = -np.inf
    for _ in range(max_iter):
        b2 = np.stack([1.0 - fy, fy])
        ll, da, db2, dc, dpi = _block_grads(a, b2, c, pi, counts)
        if ll - last <= rtol * max(1.0, abs(ll)):
            break
        last = ll
        weighted_a = a * da            # column s: posterior-weighted counts
        n_s = weighted_a.sum(axis=0)
        n_s = np.maximum(n_s, 1e-12)
        a = weighted_a / n_s
        wb = b2 * db2
        fy = wb[1] / np.maximum(wb.sum(axis=0), 1e-12)
        wc = c * dc
        c = wc / np.maximum(wc.sum(axis=0), 1e-12)
        pi = n_s / n
        pi = pi / pi.sum()
        # Keep strictly interior so the logit maps stay finite.
        a = np.clip(a, 1e-12, None)
        a /= a.sum(axis=0)
        c = np.clip(c, 1e-12, None)
        c /= c.sum(axis=0)
        fy = np.clip(fy, 1e-12, 1.0 - 1e-12)
    return MisclassificationModel(
        m_x_given_xstar=a, f_y_given_xstar=fy, m_z_given_xstar=c, f_xstar=pi
    )


# ---------------------------------------------------------------------------
# Multi-start fit
# ---------------------------------------------------------------------------


def _random_model(rng, s_x: int, s_z: int, enforce_ord: bool) -> MisclassificationModel:
    a = rng.dirichlet(np.ones(s_x), size=s_x).T
    if enforce_ord:
        a = a[:, np.argsort(a[-1, :])]
    return MisclassificationModel(
        m_x_given_xstar=a,
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
        vals, vecs = linalg.eig(branch_operator(m_xz, m_per_y[1]))
    except linalg.LinAlgError:
        return None
    vals = vals.real
    vecs = vecs.real
    sums = vecs.sum(axis=0)
    if np.any(np.abs(sums) < 1e-12):
        return None
    vals, vecs = order_by_last_row(vals, vecs / sums)

    def interior_cols(m):
        m = np.clip(m, 1e-6, None)
        return m / m.sum(axis=0)

    m_x = interior_cols(vecs)
    f_y = np.clip(vals, 1e-6, 1.0 - 1e-6)
    try:
        with warnings.catch_warnings():
            # An ill-conditioned m_x fails the start, as a singular one does.
            warnings.simplefilter("error", linalg.LinAlgWarning)
            f_xstar = linalg.solve(m_x, pmf.probs.sum(axis=(1, 2)))
            f_xstar = interior_cols(f_xstar[:, None]).ravel()
            m_z = interior_cols((linalg.solve(m_x, m_xz) / f_xstar[:, None]).T)
    except (linalg.LinAlgError, linalg.LinAlgWarning):
        return None
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


def fit(
    table: ContingencyTable,
    config: CmleConfig = CmleConfig(),
    warm_start: MisclassificationModel | None = None,
) -> CmleResult:
    """Maximize the conditional log-likelihood with multiple seeded starts.

    Start 0 is (in order of preference) the caller's ``warm_start``, else
    the closed-form spectral solution on this table's frequency pmf when it
    exists; remaining starts are flat draws from the simplex interior. The
    winner is the lowest-indexed start whose value ties the best within
    ``AGREE_RTOL`` (relative), so a well-ordered warm start beats permuted
    copies of the same optimum. Raises OptimizationError when no start
    converges.
    """
    if table.n <= 0:
        raise DomainError("empty table")
    s_x, _, s_z = table.support
    par = _Parameterization(s_x, s_z, config.ord_constraint == "enforce")
    assert par.size == param_count(s_x, 2, s_z)
    counts = table.counts.astype(float)

    starts: list[tuple[str, MisclassificationModel]] = []
    if warm_start is not None:
        starts.append(("warm", warm_start))
    else:
        projected = _projected_spectral_start(table)
        if projected is not None:
            starts.append(("spectral", projected))
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x636D6C65)))
    while len(starts) < config.n_starts:
        starts.append(("random", _random_model(rng, s_x, s_z, par.enforce_ord)))

    bounds = [(-LOGIT_MAX - 5.0, LOGIT_MAX + 5.0)] * par.size
    records: list[StartDiagnostics] = []
    thetas: list[np.ndarray | None] = []
    for idx, (kind, start_model) in enumerate(starts):
        start_ll = loglik_unchecked(start_model, counts)
        warmed = _em_polish(start_model, counts)
        theta0 = par.theta(warmed)
        res = optimize.minimize(
            _nll_and_grad,
            theta0,
            args=(par, counts),
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options={
                "maxiter": MAX_ITERATIONS,
                "gtol": GRADIENT_TOLERANCE,
                "ftol": 1e-13,
            },
        )
        records.append(
            StartDiagnostics(
                index=idx,
                kind=kind,
                start_loglik=float(start_ll),
                final_loglik=float(-res.fun),
                converged=bool(res.success),
                n_iterations=int(res.nit),
                message=str(res.message),
            )
        )
        thetas.append(res.x if res.success else None)

    converged = [r for r in records if r.converged]
    if not converged:
        raise OptimizationError(
            f"none of {config.n_starts} starts converged", start_diagnostics=records
        )
    best_ll = max(r.final_loglik for r in converged)
    tol = AGREE_RTOL * max(1.0, abs(best_ll))
    agreeing = [r for r in converged if best_ll - r.final_loglik <= tol]
    winner = min(agreeing, key=lambda r: r.index)
    model = replace(par.model(thetas[winner.index]), w_cell=table.w_cell)
    return CmleResult(
        model=model,
        loglik=winner.final_loglik,
        n_starts_converged=len(converged),
        n_starts_agreeing=len(agreeing),
        boundary_flags=_boundary_flags(model),
        starts=tuple(records),
    )
