"""Synthetic-model generator and sampler for oracle-based testing.

Models are drawn to satisfy the identification conditions by construction
(full-rank observable matrix, separated P(Y=1 | latent) values, strictly
monotone last reporting row), with rejection resampling and a retry cap.
``draw`` then samples records whose population pmf is known exactly, which
is what makes every estimator in this package testable without survey data.

The ordered-probit helpers forward-generate exact cell probabilities from
(beta, per-cell scale, cutpoints), serving as the oracle for the parametric
layer's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, cell_labels, cell_rows
from .errors import ConfigurationError, GeneratorError
from .ordered import LatentConditional, _cell_probs
from .spectral import MisclassificationModel

__all__ = [
    "ProbitParams",
    "GeneratorSpec",
    "SyntheticSample",
    "make_model",
    "make_cell_weights",
    "draw",
    "probit_population",
    "random_probit_params",
]

RETRY_CAP = 1000

# Entry floor inside random stochastic columns, so generated models stay
# interior (boundary flags then indicate real degeneracy, not generator luck).
COLUMN_FLOOR = 0.12


@dataclass(frozen=True)
class ProbitParams:
    """Ordered-response parameters: coefficients over (1, W), per-cell scale,
    interior cutpoints with the first two pinned at 0 and 1."""

    beta: np.ndarray
    sigma_by_cell: np.ndarray
    cutpoints: np.ndarray

    def __post_init__(self):
        for name in ("beta", "sigma_by_cell", "cutpoints"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ConfigurationError(f"probit {name} must be finite, got {arr}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        cuts = self.cutpoints
        if cuts.size < 2 or cuts[0] != 0.0 or cuts[1] != 1.0:
            raise ConfigurationError("cutpoints must start (0, 1)")
        if np.any(np.diff(cuts) <= 0):
            raise ConfigurationError("cutpoints must be strictly increasing")
        if np.any(self.sigma_by_cell <= 0):
            raise ConfigurationError("every cell scale must be positive")

    @property
    def n_levels(self) -> int:
        return self.cutpoints.size + 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Controls for one synthetic draw of per-cell misclassification models."""

    s_x: int = 3
    s_z: int = 3
    n_w_cells: int = 1
    misclassification_strength: float = 0.5
    eigenvalue_separation: float = 0.1
    seed: int = 0
    probit_params: ProbitParams | None = None
    # Minimum increment between consecutive last-row reporting probabilities:
    # keeps the monotone-reporting ordering device effective at sample sizes
    # where near-ties would let estimators swap adjacent latent labels.
    ord_margin: float = 0.05
    # Reject candidates whose population observable matrix has a smaller
    # smallest singular value: the quantitative version of the full-rank
    # condition, controlling how much sampling noise inflates into
    # parameter noise.
    min_singular_value: float = 0.05
    # Weight pulling the second-measure matrix toward the identity: how
    # informative Z is about the latent state. Only the X channel is
    # strength-parameterized; Z is an instrument, not a misreport.
    z_mix: float = 0.6
    # Uniform mass mixed into random latent marginals, keeping every latent
    # state common enough to inform its own reporting columns.
    latent_uniform_mix: float = 0.45

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not 0.0 <= self.misclassification_strength <= 1.0:
            raise ConfigurationError("misclassification strength must be in [0,1]")
        if self.s_x < 2 or self.s_z < 2:
            raise ConfigurationError("supports must have at least 2 points")
        if self.n_w_cells < 1 or (self.n_w_cells & (self.n_w_cells - 1)):
            raise ConfigurationError("n_w_cells must be a power of two")
        if self.probit_params is not None:
            if self.probit_params.n_levels != self.s_x:
                raise ConfigurationError(
                    "probit cutpoints imply a different latent support size"
                )
            if self.probit_params.sigma_by_cell.size != self.n_w_cells:
                raise ConfigurationError("one scale per covariate cell required")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        for name, high in (("eigenvalue_separation", np.inf), ("ord_margin", np.inf),
                           ("min_singular_value", np.inf), ("z_mix", 1.0),
                           ("latent_uniform_mix", 1.0)):
            value = getattr(self, name)
            if not 0.0 <= value <= high:
                raise ConfigurationError(f"{name} must lie in [0, {high:g}], got {value}")


@dataclass(frozen=True)
class SyntheticSample:
    """A drawn dataset, its record codes (for writing the records out), and
    (opt-in) the hidden true latent codes.

    ``truth`` is never part of the Dataset, so no estimator can read it.
    """

    data: Dataset
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    truth: np.ndarray | None = None


def _random_stochastic_columns(rng, rows: int, cols: int) -> np.ndarray:
    raw = rng.dirichlet(np.ones(rows), size=cols).T
    floored = COLUMN_FLOOR / rows + (1.0 - COLUMN_FLOOR) * raw
    return floored / floored.sum(axis=0)


def _separated_uniform(rng, k: int, lo: float, hi: float, gap: float) -> np.ndarray:
    """k sorted draws on [lo, hi] with consecutive gaps of at least ``gap``."""
    slack = (hi - lo) - (k - 1) * gap
    if slack <= 0:
        raise GeneratorError(
            f"cannot place {k} values in [{lo}, {hi}] with pairwise gap {gap}"
        )
    base = np.sort(rng.uniform(0.0, slack, size=k))
    return lo + base + gap * np.arange(k)


def make_model(spec: GeneratorSpec) -> list[MisclassificationModel]:
    """Draw one valid misclassification model per covariate cell.

    The reporting matrix mixes the identity with random stochastic columns
    at the requested strength (strength 0 returns the identity exactly,
    whose tied last row the labelling rule orders by the rows above).
    Candidate draws are rejected until P(Y=1 | latent) gaps meet the
    separation target, the last reporting row is strictly increasing, and
    the implied observable matrix is numerically full rank.
    """
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x6D6F64)))
    s = spec.misclassification_strength
    models: list[MisclassificationModel] = []
    if spec.probit_params is not None:
        probit = probit_population(spec.probit_params).probs
    for cell in range(spec.n_w_cells):
        for attempt in range(RETRY_CAP):
            if s == 0.0:
                m_x = np.eye(spec.s_x)
            else:
                m_x = (1.0 - s) * np.eye(spec.s_x) + s * _random_stochastic_columns(
                    rng, spec.s_x, spec.s_x
                )
                if np.any(np.diff(m_x[-1, :]) < spec.ord_margin):
                    continue
            f_y = _separated_uniform(
                rng, spec.s_x, 0.08, 0.92, spec.eigenvalue_separation
            )
            if rng.uniform() < 0.5:
                f_y = f_y[::-1].copy()
            m_z = spec.z_mix * np.eye(spec.s_z, spec.s_x) + (
                1.0 - spec.z_mix
            ) * _random_stochastic_columns(rng, spec.s_z, spec.s_x)
            m_z = m_z / m_z.sum(axis=0)
            if spec.probit_params is not None:
                f_xstar = probit[cell]
            else:
                raw = rng.dirichlet(np.ones(spec.s_x))
                f_xstar = (
                    spec.latent_uniform_mix / spec.s_x
                    + (1.0 - spec.latent_uniform_mix) * raw
                )
                f_xstar = f_xstar / f_xstar.sum()
            m_xz = m_x @ np.diag(f_xstar) @ m_z.T
            svals = np.linalg.svd(m_xz, compute_uv=False)
            if svals[-1] <= spec.min_singular_value:
                continue
            models.append(
                MisclassificationModel(
                    m_x_given_xstar=m_x,
                    f_y_given_xstar=f_y,
                    m_z_given_xstar=m_z,
                    f_xstar=f_xstar,
                )
            )
            break
        else:
            raise GeneratorError(
                f"no admissible model for cell {cell} in {RETRY_CAP} draws; "
                "try a smaller eigenvalue separation or singular-value target"
            )
    return models


def make_cell_weights(n_cells: int) -> np.ndarray:
    """Uniform covariate-cell weights."""
    return np.full(n_cells, 1.0 / n_cells)


def draw(
    models: list[MisclassificationModel],
    cell_weights,
    n: int,
    seed: int,
    keep_truth: bool = False,
) -> SyntheticSample:
    """Sample n records from per-cell models.

    Each record draws its covariate cell from ``cell_weights``, a latent
    state from that cell's latent marginal, then (x, y, z) independently
    given the latent state; conditional independence holds by construction.

    The records are grouped by cell once, by a stable sort of the cell
    draws, so that cell c's m records keep their order. Cell by cell, in
    cell order, they take the next 4m uniforms of the stream: m each for the
    latent state, x, y and z. A code is 1 plus the number of the first S-1
    levels of its cdf below its uniform; a cell's codes are scattered to
    its records' rows.
    """
    if n < 1:
        raise ConfigurationError("need at least one record")
    weights = np.asarray(cell_weights, dtype=float)
    if weights.size != len(models):
        raise ConfigurationError("one weight per cell model required")
    if not (abs(weights.sum() - 1.0) <= 1e-9 and (weights >= 0).all()):  # NaN fails too
        raise ConfigurationError("cell weights must be a probability vector")
    n_cells = len(models)
    n_cols = max(n_cells - 1, 0).bit_length()
    s_x = models[0].s_x
    s_z = models[0].s_z

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x647277)))
    w = rng.choice(n_cells, size=n, p=weights)
    # Cell c's records are order[bounds[c]:bounds[c + 1]], in record order;
    # numpy sorts keys of 16 bits or fewer by radix sort.
    order = np.argsort(w.astype(np.min_scalar_type(n_cells - 1)), kind="stable")
    sizes = np.bincount(w, minlength=n_cells)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    # Buffers reused by every cell; random() draws uniform()'s doubles.
    uniforms = np.empty(4 * sizes.max())
    cell_codes = np.empty((4, sizes.max()), dtype=np.int64)
    # xstar, x, y and z by record, in the smallest type that holds them.
    codes = np.empty((4, n), dtype=np.min_scalar_type(max(s_x, s_z)))

    def sample_codes(cdf: np.ndarray, u: np.ndarray, states=None) -> np.ndarray:
        # cdf[k] is the k-th cdf level, or with states cdf[k, s] that of the
        # code distribution given state s. The last level counts as 1, which
        # no uniform reaches, so cumsum slack cannot leak a code past S.
        picked = np.ones(u.size, dtype=np.int64)
        for level in cdf[:-1]:
            picked += u > (level if states is None else level[states])
        return picked

    for cell, model in enumerate(models):
        m = sizes[cell]
        if m == 0:
            continue
        u_star, u_x, u_y, u_z = rng.random(out=uniforms[:4 * m]).reshape(4, m)
        block = cell_codes[:, :m]
        block[0] = sample_codes(np.cumsum(model.f_xstar), u_star)
        states = block[0] - 1
        block[1] = sample_codes(np.cumsum(model.m_x_given_xstar, axis=0), u_x, states)
        block[2] = u_y < model.f_y_given_xstar[states]
        block[3] = sample_codes(np.cumsum(model.m_z_given_xstar, axis=0), u_z, states)
        codes[:, order[bounds[cell]:bounds[cell + 1]]] = block

    xstar, x, y, z = codes.astype(np.int64)
    w = w.astype(np.int64)
    data = Dataset.from_records(
        x, y, z, w,
        support=(s_x, 2, s_z),
        w_columns=tuple(f"w{k + 1}" for k in range(n_cols)),
        w_labels=cell_labels(n_cols),
    )
    return SyntheticSample(data, x, y, z, w, truth=xstar if keep_truth else None)


def probit_population(params: ProbitParams) -> LatentConditional:
    """Exact latent cell pmfs from the ordered-response formula (no sampling).

    Returns a LatentConditional over all 2^k cells of the k covariates that
    follow the intercept in ``params.beta``, with uniform weights.
    """
    n_cols = params.beta.size - 1
    q = cell_rows(n_cols)
    if params.sigma_by_cell.size != len(q):
        raise ConfigurationError("beta and sigma_by_cell imply different cell counts")
    return LatentConditional(
        q=q,
        weights=make_cell_weights(len(q)),
        # Per-row dot products: q @ beta rounds differently, and make_model's
        # latent marginals (so simulated records) rest on these bits.
        probs=_cell_probs(np.array([row @ params.beta for row in q]),
                          params.sigma_by_cell, params.cutpoints),
        labels=cell_labels(n_cols),
    )


def random_probit_params(
    rng, n_covariates: int, n_levels: int = 3
) -> ProbitParams:
    """Draw ordered-probit parameters that keep every cell probability interior.

    Slopes and scales are bounded so that no cumulative probability comes
    near ``ordered.CLAMP``, preserving exact closed-form round trips.
    """
    n_cells = 2**n_covariates
    beta = np.concatenate(
        ([rng.uniform(0.25, 0.75)], rng.uniform(-0.12, 0.12, size=n_covariates))
    )
    sigma = rng.uniform(0.6, 1.4, size=n_cells)
    if n_levels == 3:
        cuts = np.array([0.0, 1.0])
    else:
        extra = 1.0 + np.cumsum(rng.uniform(0.4, 0.8, size=n_levels - 3))
        cuts = np.concatenate(([0.0, 1.0], extra))
    return ProbitParams(beta=beta, sigma_by_cell=sigma, cutpoints=cuts)
