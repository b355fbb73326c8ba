"""Parametric models of the latent (or reported) outcome over covariate cells.

Everything here consumes a ``LatentConditional``: per covariate cell, the
extended covariate vector (1, W), a cell weight, and a pmf over outcome
levels {1..I}. Built from identified per-cell models it describes the
latent outcome; built from the reported counts it describes the reported
one, and every closed form below applies to either target unchanged.

Under the ordered-response normalization that pins the first two interior
cutpoints at 0 and 1, the disturbance scale per cell is

    sigma(q) = 1 / (PhiInv(P[V<=2|q]) - PhiInv(P[V<=1|q])),

and the coefficient vector solves a weighted least-squares system in the
transformed outcome -sigma(q) * PhiInv(P[V=1|q]). No optimization is
involved; these are exact inversions of the model's cell probabilities.
Maximum-likelihood fits on the reported outcome (the conventional
benchmarks) are also provided, re-normalized into the same (0, 1) cutpoint
scheme so coefficient vectors are directly comparable.

Probit coefficients are statements about the conditional *median* of the
underlying continuous index; with a non-constant scale they say nothing
about mean rankings, and reports label them accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, cell_rows
from .errors import ConfigurationError, EmptyCellError, EstimationError
from .spectral import MisclassificationModel

__all__ = [
    "CellConditional",
    "LatentConditional",
    "ParametricFit",
    "latent_conditional",
    "reported_conditional",
    "linear_projection",
    "skedastic",
    "hetero_ordered_probit",
    "homo_ordered_probit",
    "ordered_probit_mle",
    "exponential_skedastic_probit",
]

DEFAULT_CLAMP = 1e-6
EFFECT_SCALE_NOTE = "conditional-median scale"


@dataclass(frozen=True)
class CellConditional:
    """One covariate cell: extended covariates, weight, outcome pmf."""

    q_tilde: np.ndarray
    weight: float
    probs: np.ndarray
    label: str = ""

    def __post_init__(self):
        for name in ("q_tilde", "probs"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.q_tilde[0] != 1.0:
            raise ConfigurationError("q_tilde must start with the intercept slot 1")
        if abs(self.probs.sum() - 1.0) > 1e-9 or (self.probs < 0).any():
            raise ConfigurationError(f"cell {self.label!r} pmf is invalid")


@dataclass(frozen=True)
class LatentConditional:
    """Weighted family of per-cell outcome pmfs; weights sum to 1."""

    cells: tuple[CellConditional, ...]
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.cells:
            raise ConfigurationError("no covariate cells")
        total = sum(c.weight for c in self.cells)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"cell weights sum to {total!r}, not 1")
        dim = self.cells[0].q_tilde.size
        levels = self.cells[0].probs.size
        if any(c.q_tilde.size != dim or c.probs.size != levels for c in self.cells):
            raise ConfigurationError("ragged cell dimensions")
        labels = [c.label for c in self.cells]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("cell labels must be unique (they key scales)")
        if not self.column_names:
            names = ["const"] + [f"q{k}" for k in range(1, dim)]
            object.__setattr__(self, "column_names", tuple(names))
        elif len(self.column_names) != dim:
            raise ConfigurationError("column_names must match q_tilde length")

    @property
    def n_levels(self) -> int:
        return self.cells[0].probs.size

    def design(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q matrix, weights, probs matrix) stacked over cells."""
        q = np.vstack([c.q_tilde for c in self.cells])
        w = np.asarray([c.weight for c in self.cells])
        p = np.vstack([c.probs for c in self.cells])
        return q, w, p


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
) -> LatentConditional:
    """Assemble the latent-outcome conditional from per-cell identified models.

    One model per covariate cell in little-endian cell order; the covariate
    vector of cell c is its bit pattern with an intercept prepended.
    """
    weights = np.asarray(cell_weights, dtype=float)
    n_cells = weights.size
    if len(models) != n_cells:
        raise ConfigurationError(
            f"{len(models)} models for {n_cells} covariate cells"
        )
    if any(m is None for m in models):
        missing = [i for i, m in enumerate(models) if m is None]
        raise ConfigurationError(f"missing identified model for cells {missing}")
    rows = cell_rows(max(n_cells - 1, 0).bit_length())
    cells = tuple(
        CellConditional(
            q_tilde=rows[c],
            weight=float(weights[c]),
            probs=model.f_xstar,
            label=model.w_cell or str(c),
        )
        for c, model in enumerate(models)
    )
    return LatentConditional(cells=cells, column_names=tuple(column_names))


def reported_conditional(data: Dataset) -> LatentConditional:
    """Empirical reported-outcome analogue: f(X | W-cell) with cell frequencies."""
    counts = data.cell_counts()
    if np.any(counts == 0):
        empty = [data.w_labels[i] for i in np.flatnonzero(counts == 0)]
        raise EmptyCellError(f"empty covariate cells: {empty}")
    hist = data.counts.sum(axis=(2, 3)).astype(float)
    rows = cell_rows(len(data.w_columns))
    cells = tuple(
        CellConditional(
            q_tilde=rows[c],
            weight=float(counts[c] / data.n),
            probs=hist[c] / hist[c].sum(),
            label=data.w_labels[c],
        )
        for c in range(data.n_w_cells)
    )
    names = ("const", *data.w_columns) if data.w_columns else ()
    return LatentConditional(cells=cells, column_names=names)


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
    q, w, p = lc.design()
    levels = np.arange(1, lc.n_levels + 1, dtype=float)
    cond_mean = p @ levels
    beta = _weighted_solve(q, w, cond_mean, lc.column_names)
    return ParametricFit(
        kind="linear",
        target=target,
        beta=beta,
        column_names=lc.column_names,
        cutpoints=np.asarray([]),
        effect_scale="conditional-mean scale",
    )


def _clamped_ppf(cum: np.ndarray, clamp: float) -> tuple[np.ndarray, int]:
    from scipy import special

    clipped = np.clip(cum, clamp, 1.0 - clamp)
    events = int(np.count_nonzero(clipped != cum))
    return special.ndtri(clipped), events


def skedastic(
    lc: LatentConditional, clamp: float = DEFAULT_CLAMP
) -> tuple[dict[str, float], int]:
    """Per-cell disturbance scale from the two pinned cutpoints.

    Cumulative probabilities are clamped into [clamp, 1-clamp] before
    inversion; the clamp-event count comes back with the map. A
    non-positive scale (possible only after clamping) is an estimation
    error naming the cell.
    """
    if lc.n_levels < 3:
        raise ConfigurationError("need at least three outcome levels")
    _, _, p = lc.design()
    cum1 = p[:, 0]
    cum2 = p[:, 0] + p[:, 1]
    ppf1, e1 = _clamped_ppf(cum1, clamp)
    ppf2, e2 = _clamped_ppf(cum2, clamp)
    denom = ppf2 - ppf1
    sigma: dict[str, float] = {}
    for cell, d in zip(lc.cells, denom):
        if d <= 0:
            raise EstimationError(
                f"cell {cell.label!r}: non-positive scale after clamping"
            )
        sigma[cell.label] = float(1.0 / d)
    return sigma, e1 + e2


def _sigma_vector(lc: LatentConditional, sigma: dict[str, float]) -> np.ndarray:
    try:
        return np.asarray([sigma[c.label] for c in lc.cells])
    except KeyError as exc:
        raise ConfigurationError(f"no scale supplied for cell {exc}") from exc


def hetero_ordered_probit(
    lc: LatentConditional,
    sigma: dict[str, float],
    target: str = "latent",
    clamp: float = DEFAULT_CLAMP,
) -> ParametricFit:
    """Heteroskedastic ordered-probit coefficients by exact inversion.

    The transformed outcome is -sigma(q) * PhiInv(P[V=1|q]); coefficients
    solve the weighted normal equations. Extra cutpoints (more than three
    levels) are weight-averaged across cells with their spread reported.
    ``norm_identity_max_dev`` is the worst per-cell deviation between that
    outcome and the second cutpoint's form 1 - sigma(q) * PhiInv(P[V<=2|q]).
    """
    q, w, p = lc.design()
    sig = _sigma_vector(lc, sigma)
    cum = np.cumsum(p, axis=1)
    ppf1, e1 = _clamped_ppf(cum[:, 0], clamp)
    ppf2, e2 = _clamped_ppf(cum[:, 1], clamp)
    beta = _weighted_solve(q, w, -sig * ppf1, lc.column_names)

    norm_dev = float(np.max(np.abs(sig * ppf1 - (sig * ppf2 - 1.0))))

    n_levels = lc.n_levels
    cuts = [0.0, 1.0]
    spread = None
    clamp_events = e1 + e2
    if n_levels > 3:
        index = q @ beta
        spreads = []
        for i in range(3, n_levels):
            ppf_i, e_i = _clamped_ppf(cum[:, i - 1], clamp)
            clamp_events += e_i
            per_cell = index + sig * ppf_i
            mean = float(np.sum(w * per_cell))
            spreads.append(float(np.sqrt(np.sum(w * (per_cell - mean) ** 2))))
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


def homo_ordered_probit(lc: LatentConditional, target: str = "latent",
                        clamp: float = DEFAULT_CLAMP) -> ParametricFit:
    """Homoskedastic ordered probit by exact inversion, scale pinned to 1.

    Applies to either target's conditional; ``ordered_probit_mle`` is the
    maximum-likelihood benchmark on the reported counts.
    """
    unit = {c.label: 1.0 for c in lc.cells}
    fit_ = hetero_ordered_probit(lc, unit, target=target, clamp=clamp)
    return replace(fit_, kind="ordered-probit-homoskedastic", sigma_by_cell=None,
                   scale=1.0)


# ---------------------------------------------------------------------------
# Maximum-likelihood benchmarks on the reported outcome
# ---------------------------------------------------------------------------


def _cell_design(data: Dataset) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Covariate rows and outcome count matrix of the populated cells."""
    if data.support[0] < 3:
        raise ConfigurationError("need at least three outcome levels")
    hist = data.counts.sum(axis=(2, 3))
    populated = hist.sum(axis=1) > 0
    rows = cell_rows(len(data.w_columns))[populated]
    names = ("const", *data.w_columns) if data.w_columns else ("const",)
    return rows, hist[populated].astype(float), names


def _cell_probs(index: np.ndarray, scale: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Ordered-probit pmf over outcome levels, one row per (index, scale)."""
    from scipy import special

    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    z = (edges[None, :] - index[:, None]) / scale[:, None]
    return np.diff(special.ndtr(z), axis=1)


def _ordered_nll(index: np.ndarray, scale: np.ndarray, cuts: np.ndarray,
                 counts: np.ndarray) -> float:
    probs = np.maximum(_cell_probs(index, scale, cuts), 1e-300)
    return -float(np.sum(counts * np.log(probs)))


def ordered_probit_mle(data: Dataset) -> ParametricFit:
    """Homoskedastic ordered-probit ML benchmark on the reported counts.

    Conventional maximum likelihood, re-normalized to the (0, 1) cutpoint
    scheme with the constant disturbance scale in ``scale``.
    """
    q, counts, names = _cell_design(data)
    n_levels = counts.shape[1]
    k = q.shape[1] - 1

    def unpack(theta):
        slopes = theta[:k]
        c1 = theta[k]
        cuts = c1 + np.concatenate(([0.0], np.cumsum(np.exp(theta[k + 1 :]))))
        return slopes, cuts

    def nll(theta):
        slopes, cuts = unpack(theta)
        index = q[:, 1:] @ slopes
        return _ordered_nll(index, np.ones(q.shape[0]), cuts, counts)

    from scipy import optimize

    theta0 = np.zeros(k + n_levels - 1)
    theta0[k] = -0.5
    res = optimize.minimize(nll, theta0, method="L-BFGS-B",
                            options={"maxiter": 2000, "ftol": 1e-13})
    if not res.success:
        raise EstimationError(f"ordered-probit MLE did not converge: {res.message}")
    slopes, cuts = unpack(res.x)
    gap = cuts[1] - cuts[0]
    beta = np.concatenate(([-cuts[0] / gap], slopes / gap))
    norm_cuts = (cuts - cuts[0]) / gap
    return ParametricFit(
        kind="ordered-probit-homoskedastic",
        target="reported",
        beta=beta,
        column_names=names,
        cutpoints=norm_cuts,
        scale=1.0 / gap,
    )


def exponential_skedastic_probit(data: Dataset) -> ParametricFit:
    """Parametric heteroskedastic benchmark on the reported outcome.

    Scale specified as exp(gamma0 + W' gamma) with the (0, 1) cutpoint
    normalization, which identifies the whole parameter vector. Fully
    parametric ML; the nonparametric route is the closed-form estimator.
    """
    q, counts, names = _cell_design(data)
    n_levels = counts.shape[1]
    dim = q.shape[1]

    def unpack(theta):
        beta = theta[:dim]
        gamma = theta[dim : 2 * dim]
        extra = np.exp(theta[2 * dim :])
        cuts = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(extra)))
        return beta, gamma, cuts

    def nll(theta):
        beta, gamma, cuts = unpack(theta)
        index = q @ beta
        scale = np.exp(np.clip(q @ gamma, -20, 20))
        return _ordered_nll(index, scale, cuts, counts)

    from scipy import optimize

    theta0 = np.zeros(2 * dim + max(n_levels - 3, 0))
    theta0[0] = 0.5
    res = optimize.minimize(nll, theta0, method="L-BFGS-B",
                            options={"maxiter": 5000, "ftol": 1e-13})
    if not res.success:
        raise EstimationError(
            f"heteroskedastic probit MLE did not converge: {res.message}"
        )
    beta, gamma, cuts = unpack(res.x)
    rows = cell_rows(len(data.w_columns))
    sigma = {label: float(np.exp(row @ gamma))
             for label, row in zip(data.w_labels, rows)}
    return ParametricFit(
        kind="ordered-probit-heteroskedastic",
        target="reported",
        beta=beta,
        column_names=names,
        cutpoints=cuts,
        sigma_by_cell=sigma,
    )
