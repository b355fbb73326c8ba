"""Parametric models of the latent (or reported) outcome over covariate cells.

Everything here consumes a ``LatentConditional``: the arrays the closed
forms solve with, stacked over covariate cells, one row per cell. ``q``
holds the extended covariate vectors (1, W), ``weights`` the cell weights,
``probs`` the pmfs over outcome levels {1..I}, and ``labels`` the cell
labels that key the per-cell scales. It is validated once, when built.
Built from identified per-cell models it describes the latent outcome;
built from the reported counts it describes the reported one, and every
closed form below applies to either target unchanged.

Under the ordered-response normalization that pins the first two interior
cutpoints at 0 and 1, the disturbance scale per cell is

    sigma(q) = 1 / (PhiInv(P[V<=2|q]) - PhiInv(P[V<=1|q])),

and the coefficient vector solves a weighted least-squares system in the
transformed outcome -sigma(q) * PhiInv(P[V=1|q]). No optimization is
involved; these are exact inversions of the model's cell probabilities.
The homoskedastic ordered probit by maximum likelihood on the reported
outcome (the conventional benchmark) is also provided, fitted by Fisher
scoring on the analytic derivatives of the cell pmf and re-normalized into
the same (0, 1) cutpoint scheme so coefficient vectors are directly
comparable. It takes a list of datasets and fits those that share a design
as one stacked Fisher scoring, with a leading batch axis; each item's
iterates are those it gets alone, and a failure ends that item's fit alone.
The normal cdf and quantile come from the standard library (``math.erfc``,
``statistics.NormalDist``), so this module needs numpy alone.

Probit coefficients are statements about the conditional *median* of the
underlying continuous index; with a non-constant scale they say nothing
about mean rankings, and reports label them accordingly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, cell_rows, design_columns
from .errors import ConfigurationError, EmptyCellError, EstimationError
from .spectral import MisclassificationModel

__all__ = [
    "LatentConditional",
    "ParametricFit",
    "latent_conditional",
    "reported_conditional",
    "linear_projection",
    "skedastic",
    "hetero_ordered_probit",
    "homo_ordered_probit",
    "ordered_probit_mle",
]

CLAMP = 1e-6  # cumulative probabilities are clipped into [CLAMP, 1-CLAMP] before inversion
EFFECT_SCALE_NOTE = "conditional-median scale"

# Fisher scoring stops once the decrement score' inv(information) score falls
# below SCORING_TOL; each step is halved at most SCORING_MAX_HALVINGS times.
SCORING_TOL = 1e-10
SCORING_MAX_ITERATIONS = 100
SCORING_MAX_HALVINGS = 50

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = statistics.NormalDist()


@dataclass(frozen=True)
class LatentConditional:
    """Weighted family of per-cell outcome pmfs, one row per cell: covariate
    rows (1, W) in ``q``, pmfs in ``probs``, ``weights`` summing to 1 and
    unique ``labels``, which key the per-cell scales. ``column_names`` name
    the columns of ``q``, by default "const", "q1", "q2", ..."""

    q: np.ndarray
    weights: np.ndarray
    probs: np.ndarray
    labels: tuple[str, ...]
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        try:
            q, weights, probs = (np.array(a, dtype=float)
                                 for a in (self.q, self.weights, self.probs))
        except ValueError:  # numpy refuses a ragged stack of rows
            raise ConfigurationError("ragged cell dimensions") from None
        labels = self.labels
        if not labels:
            raise ConfigurationError("no covariate cells")
        if (q.ndim, probs.ndim) != (2, 2) or not (
                len(q) == len(probs) == len(labels) and weights.shape == (len(labels),)):
            raise ConfigurationError("ragged cell dimensions")
        if not q.shape[1] or (q[:, 0] != 1.0).any():
            raise ConfigurationError("q_tilde must start with the intercept slot 1")
        invalid = (np.abs(probs.sum(axis=1) - 1.0) > 1e-9) | (probs < 0).any(axis=1)
        if invalid.any():
            label = labels[np.argmax(invalid)]
            raise ConfigurationError(f"cell {label!r} pmf is invalid")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"cell weights sum to {total!r}, not 1")
        if len(set(labels)) != len(labels):
            raise ConfigurationError("cell labels must be unique (they key scales)")
        names = self.column_names or design_columns(
            tuple(f"q{k}" for k in range(1, q.shape[1])))
        if len(names) != q.shape[1]:
            raise ConfigurationError("column_names must match q_tilde length")
        for name, value in (("q", q), ("weights", weights), ("probs", probs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "column_names", tuple(names))

    @property
    def n_levels(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class ParametricFit:
    """Coefficients under the (0, 1) cutpoint normalization.

    ``beta`` is aligned to ``column_names`` (intercept first).
    ``cutpoints`` always starts (0, 1); entries past the second are
    estimated when the outcome has more than three levels.
    ``sigma_by_cell`` maps cell label -> disturbance scale (heteroskedastic
    fits only); ``scale`` is the constant disturbance scale of re-normalized
    homoskedastic ML fits. ``effect_scale`` records that ordered-response
    coefficients are conditional-median statements.
    """

    kind: str
    target: str
    beta: np.ndarray
    column_names: tuple[str, ...]
    cutpoints: np.ndarray
    sigma_by_cell: dict[str, float] | None = None
    std_errors: np.ndarray | None = None
    clamp_events: int = 0
    scale: float | None = None
    norm_identity_max_dev: float | None = None
    cutpoint_spread: float | None = None
    effect_scale: str = EFFECT_SCALE_NOTE

    def __post_init__(self):
        beta = np.ascontiguousarray(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        cuts = np.ascontiguousarray(self.cutpoints, dtype=float)
        cuts.setflags(write=False)
        object.__setattr__(self, "cutpoints", cuts)
        if cuts.size >= 2 and np.any(np.diff(cuts) <= 0):
            raise EstimationError("cutpoints are not strictly increasing")
        if self.sigma_by_cell is not None and any(
            v <= 0 for v in self.sigma_by_cell.values()
        ):
            raise EstimationError("a fitted cell scale is not positive")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "effect_scale": self.effect_scale,
            "column_names": list(self.column_names),
            "beta": self.beta.tolist(),
            "cutpoints": self.cutpoints.tolist(),
            "sigma_by_cell": self.sigma_by_cell,
            "std_errors": None if self.std_errors is None else self.std_errors.tolist(),
            "clamp_events": self.clamp_events,
            "scale": self.scale,
            "norm_identity_max_dev": self.norm_identity_max_dev,
            "cutpoint_spread": self.cutpoint_spread,
        }


# ---------------------------------------------------------------------------
# Building conditionals
# ---------------------------------------------------------------------------


def latent_conditional(
    models: list[MisclassificationModel],
    cell_weights,
    column_names: tuple[str, ...] = (),
    labels: tuple[str, ...] = (),
) -> LatentConditional:
    """Assemble the latent-outcome conditional from per-cell identified models.

    One model per covariate cell in little-endian cell order; the covariate
    vector of cell c is its bit pattern with an intercept prepended, and its
    label is ``labels[c]`` (by default ``str(c)``).
    """
    weights = np.asarray(cell_weights, dtype=float)
    n_cells = weights.size
    if len(models) != n_cells:
        raise ConfigurationError(
            f"{len(models)} models for {n_cells} covariate cells"
        )
    missing = [i for i, m in enumerate(models) if m is None]
    if missing:
        raise ConfigurationError(f"missing identified model for cells {missing}")
    return LatentConditional(
        q=cell_rows(max(n_cells - 1, 0).bit_length())[:n_cells],
        weights=weights,
        probs=[model.f_xstar for model in models],
        labels=tuple(labels) or tuple(map(str, range(n_cells))),
        column_names=tuple(column_names),
    )


def reported_conditional(data: Dataset) -> LatentConditional:
    """Empirical reported-outcome analogue: f(X | W-cell) with cell frequencies."""
    counts = data.cell_counts()
    if np.any(counts == 0):
        empty = [data.w_labels[i] for i in np.flatnonzero(counts == 0)]
        raise EmptyCellError(f"empty covariate cells: {empty}")
    hist = data.outcome_counts().astype(float)
    return LatentConditional(
        q=cell_rows(len(data.w_columns)),
        weights=counts / data.n,
        probs=hist / hist.sum(axis=1, keepdims=True),
        labels=data.w_labels,
        column_names=design_columns(data.w_columns),
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _weighted_solve(q: np.ndarray, w: np.ndarray, t: np.ndarray,
                    names: tuple[str, ...]) -> np.ndarray:
    gram = (q * w[:, None]).T @ q
    rhs = (q * w[:, None]).T @ t
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[-1] <= 1e-10 * svals[0]:
        _, _, vt = np.linalg.svd(gram)
        null = np.abs(vt[-1])
        guilty = [names[i] for i in np.flatnonzero(null > 0.1 * null.max())]
        raise EstimationError(
            f"covariate design is rank deficient; collinear columns: {guilty}"
        )
    return np.linalg.solve(gram, rhs)


def linear_projection(lc: LatentConditional, target: str = "latent") -> ParametricFit:
    """Least-squares projection of the conditional outcome mean on (1, W)."""
    levels = np.arange(1, lc.n_levels + 1, dtype=float)
    beta = _weighted_solve(lc.q, lc.weights, lc.probs @ levels, lc.column_names)
    return ParametricFit(
        kind="linear",
        target=target,
        beta=beta,
        column_names=lc.column_names,
        cutpoints=np.asarray([]),
        effect_scale="conditional-mean scale",
    )


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf, elementwise: 0.5 * erfc(-x / sqrt(2))."""
    x = np.asarray(x, dtype=float)
    erfc = np.fromiter(map(math.erfc, (-x / _SQRT2).ravel().tolist()), float, x.size)
    return 0.5 * erfc.reshape(x.shape)


def _norm_ppf(u: float) -> float:
    """Standard normal quantile (AS241); -inf at 0 and +inf at 1."""
    if 0.0 < u < 1.0:
        return _STANDARD_NORMAL.inv_cdf(u)
    return -math.inf if u <= 0.0 else math.inf


def _clamped_ppf(cum: np.ndarray) -> tuple[np.ndarray, int]:
    clipped = np.clip(cum, CLAMP, 1.0 - CLAMP)
    events = int(np.count_nonzero(clipped != cum))
    return np.asarray([_norm_ppf(u) for u in clipped.tolist()]), events


def skedastic(lc: LatentConditional) -> tuple[dict[str, float], int]:
    """Per-cell disturbance scale from the two pinned cutpoints.

    Cumulative probabilities are clamped into [CLAMP, 1-CLAMP] before
    inversion; the clamp-event count comes back with the map. A
    non-positive scale (possible only after clamping) is an estimation
    error naming the cell.
    """
    if lc.n_levels < 3:
        raise ConfigurationError("need at least three outcome levels")
    p = lc.probs
    ppf1, e1 = _clamped_ppf(p[:, 0])
    ppf2, e2 = _clamped_ppf(p[:, 0] + p[:, 1])
    denom = ppf2 - ppf1
    if (denom <= 0).any():
        label = lc.labels[np.argmax(denom <= 0)]
        raise EstimationError(f"cell {label!r}: non-positive scale after clamping")
    return dict(zip(lc.labels, (1.0 / denom).tolist())), e1 + e2


def _sigma_vector(lc: LatentConditional, sigma: dict[str, float]) -> np.ndarray:
    try:
        return np.asarray([sigma[label] for label in lc.labels])
    except KeyError as exc:
        raise ConfigurationError(f"no scale supplied for cell {exc}") from exc


def hetero_ordered_probit(
    lc: LatentConditional,
    sigma: dict[str, float],
    target: str = "latent",
) -> ParametricFit:
    """Heteroskedastic ordered-probit coefficients by exact inversion.

    The transformed outcome is -sigma(q) * PhiInv(P[V=1|q]); coefficients
    solve the weighted normal equations. Extra cutpoints (more than three
    levels) are weight-averaged across cells with their spread reported.
    ``norm_identity_max_dev`` is the worst per-cell deviation between that
    outcome and the second cutpoint's form 1 - sigma(q) * PhiInv(P[V<=2|q]).
    Cumulative probabilities are clamped into [CLAMP, 1-CLAMP] as in
    ``skedastic``.
    """
    sig = _sigma_vector(lc, sigma)
    cum = np.cumsum(lc.probs, axis=1)
    ppf1, e1 = _clamped_ppf(cum[:, 0])
    ppf2, e2 = _clamped_ppf(cum[:, 1])
    beta = _weighted_solve(lc.q, lc.weights, -sig * ppf1, lc.column_names)

    norm_dev = float(np.max(np.abs(sig * ppf1 - (sig * ppf2 - 1.0))))

    n_levels = lc.n_levels
    cuts = [0.0, 1.0]
    spread = None
    clamp_events = e1 + e2
    if n_levels > 3:
        index = lc.q @ beta
        spreads = []
        for i in range(3, n_levels):
            ppf_i, e_i = _clamped_ppf(cum[:, i - 1])
            clamp_events += e_i
            per_cell = index + sig * ppf_i
            mean = float(np.sum(lc.weights * per_cell))
            spreads.append(float(np.sqrt(np.sum(lc.weights * (per_cell - mean) ** 2))))
            cuts.append(mean)
        spread = max(spreads)
    return ParametricFit(
        kind="ordered-probit-heteroskedastic",
        target=target,
        beta=beta,
        column_names=lc.column_names,
        cutpoints=np.asarray(cuts),
        sigma_by_cell=dict(sigma),
        clamp_events=clamp_events,
        norm_identity_max_dev=norm_dev,
        cutpoint_spread=spread,
    )


def homo_ordered_probit(lc: LatentConditional, target: str = "latent") -> ParametricFit:
    """Homoskedastic ordered probit by exact inversion, scale pinned to 1.

    Applies to either target's conditional; ``ordered_probit_mle`` is the
    maximum-likelihood benchmark on the reported counts.
    """
    unit = dict.fromkeys(lc.labels, 1.0)
    fit_ = hetero_ordered_probit(lc, unit, target=target)
    return replace(fit_, kind="ordered-probit-homoskedastic", sigma_by_cell=None,
                   scale=1.0)


# ---------------------------------------------------------------------------
# Maximum-likelihood benchmark on the reported outcome
# ---------------------------------------------------------------------------


def _cell_design(data: Dataset) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Covariate rows and outcome count matrix of the populated cells."""
    if data.support[0] < 3:
        raise ConfigurationError("need at least three outcome levels")
    hist = data.outcome_counts()
    populated = hist.sum(axis=1) > 0
    rows = cell_rows(len(data.w_columns))[populated]
    return rows, hist[populated].astype(float), design_columns(data.w_columns)


def _masses(cdf: np.ndarray, top: float) -> np.ndarray:
    """Differences of (0, cdf, top) along the second-last axis: the mass of
    each level, given the cdf (or a derivative of it) at the cutpoints."""
    return np.concatenate((cdf[..., :1, :], cdf[..., 1:, :] - cdf[..., :-1, :],
                           top - cdf[..., -1:, :]), axis=-2)


def _cell_probs(index: np.ndarray, scale: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Ordered-probit pmf over outcome levels, one row per (index, scale).

    ``index`` and ``scale`` are (..., cells) and ``cuts`` (..., cutpoints).
    """
    z = (cuts[..., None, :] - index[..., None]) / scale[..., None]
    return _masses(_norm_cdf(z)[..., None], 1.0)[..., 0]


def _pmf_and_jacobian(index, cuts, d_index, d_cuts):
    """Cell pmf rows and their derivatives in the parameters, for a stack of
    parameter vectors: (items, cells, levels) and (items, cells, levels, p).

    ``index`` is (items, cells), ``cuts`` (items, cutpoints), ``d_index``
    (cells, p) and ``d_cuts`` (items, cutpoints, p); every scale is 1. At an
    interior edge z = cut - index, so dz = d_cut - d_index, and each level's
    probability moves by the difference of pdf(z) * dz across its edges.
    The pdf is exactly 0.0 beyond |z| of about 38.6, so z is clipped to
    +-40 before it is squared: a line-search trial may put a cutpoint far
    enough out that z * z would overflow.
    """
    z = cuts[:, None, :] - index[..., None]
    dz = d_cuts[:, None] - d_index[:, None]
    edge = np.clip(z, -40.0, 40.0)
    d_cdf = (np.exp(-0.5 * edge * edge) / _SQRT_2PI)[..., None] * dz
    return _masses(_norm_cdf(z)[..., None], 1.0)[..., 0], _masses(d_cdf, 0.0)


def _chained_cuts(anchor: np.ndarray, log_gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, anchor + (0, cumsum(gaps)) with gaps = exp(log_gaps), and the
    gaps: cutpoint i moves by gap j in log gap j < i. A log gap is capped at
    700 so that exp does not overflow on a line-search trial; a gap of
    exp(700), about 1e304, already puts the cdf at the next cutpoint at 1.0."""
    gaps = np.exp(np.minimum(log_gaps, 700.0))
    zero = np.zeros((len(gaps), 1))
    return anchor[:, None] + np.concatenate((zero, np.cumsum(gaps, axis=1)), axis=1), gaps


def _loglik(probs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return np.sum(counts * np.log(np.maximum(probs, 1e-300)), axis=(1, 2))


def _solve(info: np.ndarray, score: np.ndarray) -> np.ndarray:
    """inv(info) score per item; NaN where an item's information is singular."""
    try:
        return np.linalg.solve(info, score[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular item fails the whole stack
        step = np.full_like(score, np.nan)
        for i, (a, b) in enumerate(zip(info, score)):
            try:
                step[i] = np.linalg.solve(a, b[:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return step


def _fisher_scoring(model, theta0: np.ndarray, counts: np.ndarray,
                    what: str) -> list[np.ndarray | EstimationError]:
    """Maximize sum(counts * log P(theta)) by Fisher scoring from ``theta0``,
    for a stack of items: counts (items, cells, levels).

    ``model(theta)`` returns the cell pmf rows P and their Jacobian dP of any
    stack of parameter vectors. Per item, the score is sum(n / P * dP) and
    the information sum(N_r / P * dP dP'), which is positive semi-definite.
    Each step is halved until the item's log-likelihood does not fall; the
    item stops when its decrement score' step drops below ``SCORING_TOL``.
    Items leave the stack as they stop or fail, and every operation acts on
    each item alone, so an item's iterates do not depend on the stack.
    Returns per item its maximizer or the EstimationError that ends it.
    """
    n = len(counts)
    results: list = [None] * n
    items = np.arange(n)  # the items still iterating
    totals = counts.sum(axis=2)
    theta = np.tile(theta0, (n, 1))
    # Every item starts at theta0, so one evaluation serves them all.
    probs, jac = (np.repeat(a, n, axis=0) for a in model(theta0[None]))
    loglik = _loglik(probs, counts)
    for _ in range(SCORING_MAX_ITERATIONS):
        safe = np.maximum(probs, 1e-300)
        flat = jac.reshape(len(items), -1, jac.shape[-1])  # per item, (cells * levels, p)
        score = np.matmul((counts[items] / safe).reshape(len(items), 1, -1), flat)[:, 0]
        weighted = jac / safe[..., None] * totals[items][..., None, None]
        info = np.matmul(weighted.reshape(flat.shape).transpose(0, 2, 1), flat)
        step = _solve(info, score)
        singular = ~np.isfinite(step).all(axis=1)
        for i in items[singular]:
            results[i] = EstimationError(f"{what} did not converge: "
                                         "singular information matrix")
        done = ~singular & (np.sum(score * step, axis=1) < SCORING_TOL)
        for i, best in zip(items[done], theta[done]):
            results[i] = best
        go = ~(singular | done)
        if not go.all():
            items, theta, step, loglik, probs, jac = (
                a[go] for a in (items, theta, step, loglik, probs, jac))
        pending = np.arange(len(items))  # the items whose line search goes on
        for halving in range(SCORING_MAX_HALVINGS):
            if not pending.size:
                break
            trial = theta[pending] + step[pending] / 2.0**halving
            trial_probs, trial_jac = model(trial)
            trial_loglik = _loglik(trial_probs, counts[items[pending]])
            up = trial_loglik >= loglik[pending]
            accepted = pending[up]
            theta[accepted], probs[accepted], jac[accepted], loglik[accepted] = (
                trial[up], trial_probs[up], trial_jac[up], trial_loglik[up])
            pending = pending[~up]
        if pending.size:
            for i in items[pending]:
                results[i] = EstimationError(f"{what} did not converge: line search failed")
            kept = np.ones(len(items), dtype=bool)
            kept[pending] = False
            items, theta, probs, jac, loglik = (
                a[kept] for a in (items, theta, probs, jac, loglik))
        if not items.size:
            return results
    for i in items:
        results[i] = EstimationError(f"{what} did not converge: iteration cap of "
                                     f"{SCORING_MAX_ITERATIONS} reached")
    return results


def ordered_probit_mle(datasets: list[Dataset]) -> list[ParametricFit | EstimationError]:
    """Homoskedastic ordered-probit ML benchmark on the reported counts of
    each dataset: its fit, or the EstimationError that ended or refused it.

    Conventional maximum likelihood, re-normalized to the (0, 1) cutpoint
    scheme with the constant disturbance scale in ``scale``. The parameters
    are the slopes, the first cutpoint and the log gaps between cutpoints.
    A dataset in which an outcome level holds no record is refused before
    scoring: a cutpoint next to that level runs off, so the likelihood has
    no maximum. The other datasets that share a design (populated cells and
    outcome levels) are fitted as one stacked Fisher scoring. Grouping, not
    padding with unpopulated rows, keeps each item's rows those it has when
    fitted alone.
    """
    what = "ordered-probit MLE"
    designs = [_cell_design(data) for data in datasets]
    fits: list = [None] * len(datasets)
    groups: dict[tuple, list[int]] = {}
    for i, (q, counts, _) in enumerate(designs):
        unseen = np.flatnonzero(counts.sum(axis=0) == 0) + 1
        if unseen.size:
            fits[i] = EstimationError(
                f"{what} has no maximum: no record at outcome levels {unseen.tolist()}")
        else:
            groups.setdefault((q.shape, q.tobytes(), counts.shape[1]), []).append(i)
    for members in groups.values():
        q, counts, _ = designs[members[0]]
        k, n_levels = q.shape[1] - 1, counts.shape[1]
        n_params = k + n_levels - 1
        d_index = np.zeros((len(q), n_params))
        d_index[:, :k] = q[:, 1:]
        below = np.tri(n_levels - 1, n_levels - 2, k=-1)

        def model(theta):
            cuts, gaps = _chained_cuts(theta[:, k], theta[:, k + 1 :])
            d_cuts = np.zeros((len(theta), n_levels - 1, n_params))
            d_cuts[..., k] = 1.0
            d_cuts[..., k + 1 :] = gaps[:, None] * below
            # One matrix-vector product per item, so each item's index rounds
            # as it does alone (a product of the stack with q.T would not).
            index = np.matmul(q[:, 1:], theta[:, :k, None])[..., 0]
            return _pmf_and_jacobian(index, cuts, d_index, d_cuts)

        theta0 = np.zeros(n_params)
        theta0[k] = -0.5
        stack = np.stack([designs[i][1] for i in members])
        for i, theta in zip(members, _fisher_scoring(model, theta0, stack, what)):
            if isinstance(theta, EstimationError):
                fits[i] = theta
                continue
            [cuts], _ = _chained_cuts(theta[k : k + 1], theta[None, k + 1 :])
            gap = cuts[1] - cuts[0]
            fits[i] = ParametricFit(
                kind="ordered-probit-homoskedastic",
                target="reported",
                beta=np.concatenate(([-cuts[0] / gap], theta[:k] / gap)),
                column_names=designs[i][2],
                cutpoints=(cuts - cuts[0]) / gap,
                scale=1.0 / gap,
            )
    return fits
