"""Closed-form identification of the misclassification model.

Stack the (S_X, 2, S_Z) joint pmf array (on a sample, ``tabulate``'s counts
over their total) into the observable matrices

    M_xz[i, j]      = P(X = x_i, Z = z_j)
    M_xyz[y][i, j]  = P(X = x_i, Y = y, Z = z_j)

Under conditional independence of (X, Y, Z) given the latent state, these
factor through the model matrices, and the product M_xyz[1] @ inv(M_xz) is
similar to a diagonal matrix: its eigenvalues are P(Y=1 | latent state) and
its eigenvectors, normalized to sum 1, are the columns of the reporting
matrix P(X | latent state). Eigenpairs are ordered by the monotone-reporting
restriction (last row of the reporting matrix increasing in the latent
state; states whose last-row entries tie are ordered by the row above); the
latent marginal and the Z matrix then follow by linear solves.

The decomposition is exact on population pmfs. On finite samples it can
produce complex pairs or negative entries; those are tolerance-gated errors
here, never silently repaired, because estimation is the job of the
likelihood module.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, IdentificationError

__all__ = [
    "MisclassificationModel",
    "IdentificationDiagnostics",
    "build_matrices",
    "check_rank",
    "order_by_last_row",
    "branch_operator",
    "eigendecompose_identify",
    "population_pmf",
]

STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class MisclassificationModel:
    """Distribution bundle for one covariate cell.

    ``m_x_given_xstar`` is column-stochastic S_X x S_X (column j is the
    reporting pmf of X given latent state j); ``f_y_given_xstar`` is the
    length-S_X vector of P(Y=1 | latent state); ``m_z_given_xstar`` is
    column-stochastic S_Z x S_X; ``f_xstar`` is the latent marginal.
    ``ord_satisfied`` records whether the last row of the reporting matrix
    is strictly increasing (the monotone-reporting check); a diagnostic,
    never an enforced repair.
    """

    m_x_given_xstar: np.ndarray
    f_y_given_xstar: np.ndarray
    m_z_given_xstar: np.ndarray
    f_xstar: np.ndarray

    def __post_init__(self):
        for name in ("m_x_given_xstar", "f_y_given_xstar", "m_z_given_xstar", "f_xstar"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def s_x(self) -> int:
        return self.m_x_given_xstar.shape[0]

    @property
    def s_z(self) -> int:
        return self.m_z_given_xstar.shape[0]

    @property
    def ord_satisfied(self) -> bool:
        last = self.m_x_given_xstar[-1, :]
        return bool(np.all(np.diff(last) > 0))

    def validate(self, tol: float = STOCHASTIC_TOL) -> None:
        """Raise DomainError unless the blocks fit one model and all are valid
        probability objects."""
        shapes = tuple(np.shape(block) for block in (
            self.m_x_given_xstar, self.f_y_given_xstar, self.m_z_given_xstar, self.f_xstar))
        s_x, s_z = self.s_x, self.s_z
        if shapes != ((s_x, s_x), (s_x,), (s_z, s_x), (s_x,)):
            raise DomainError(f"block shapes {shapes} do not fit one model")
        mats = {
            "m_x_given_xstar": self.m_x_given_xstar,
            "m_z_given_xstar": self.m_z_given_xstar,
        }
        for name, mat in mats.items():
            if (mat < -tol).any() or (mat > 1 + tol).any():
                raise DomainError(f"{name} entries outside [0,1]")
            dev = np.abs(mat.sum(axis=0) - 1.0).max()
            if dev > tol:
                raise DomainError(f"{name} columns sum to 1 +/- {dev:.2e}")
        for name, vec, in (("f_y_given_xstar", self.f_y_given_xstar),
                           ("f_xstar", self.f_xstar)):
            if (vec < -tol).any() or (vec > 1 + tol).any():
                raise DomainError(f"{name} entries outside [0,1]")
        if abs(self.f_xstar.sum() - 1.0) > tol:
            raise DomainError("f_xstar does not sum to 1")

    def pack(self) -> np.ndarray:
        """Every parameter in one vector, block by block in ``unpack`` order."""
        return np.concatenate([self.m_x_given_xstar.ravel(), self.f_y_given_xstar,
                               self.m_z_given_xstar.ravel(), self.f_xstar])

    @staticmethod
    def split(vector: np.ndarray, s_x: int, s_z: int):
        """The four blocks of ``pack``-ordered vectors (last axis; leading axes
        are a batch): P(X|s) as S_X x S_X, P(Y=1|s), P(Z|s) as S_Z x S_X, P(s)."""
        i0 = s_x * s_x
        i1 = i0 + s_x
        i2 = i1 + s_z * s_x
        lead = vector.shape[:-1]
        return (vector[..., :i0].reshape(*lead, s_x, s_x), vector[..., i0:i1],
                vector[..., i1:i2].reshape(*lead, s_z, s_x), vector[..., i2:])

    @staticmethod
    def unpack(vector: np.ndarray, s_x: int, s_z: int) -> dict:
        """The JSON blocks of a ``pack``-ordered vector: a model's parameters
        or their standard errors."""
        m_x, f_y, m_z, f_xstar = MisclassificationModel.split(vector, s_x, s_z)
        return {
            "m_x_given_xstar": {"rows": s_x, "cols": s_x, "data": m_x.ravel().tolist()},
            "f_y_given_xstar": f_y.tolist(),
            "m_z_given_xstar": {"rows": s_z, "cols": s_x, "data": m_z.ravel().tolist()},
            "f_xstar": f_xstar.tolist(),
        }

    def to_dict(self) -> dict:
        return {
            **self.unpack(self.pack(), self.s_x, self.s_z),
            "ord_satisfied": self.ord_satisfied,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> MisclassificationModel:
        def unmat(m):
            return np.asarray(m["data"], dtype=float).reshape(m["rows"], m["cols"])

        return cls(
            m_x_given_xstar=unmat(payload["m_x_given_xstar"]),
            f_y_given_xstar=np.asarray(payload["f_y_given_xstar"], dtype=float),
            m_z_given_xstar=unmat(payload["m_z_given_xstar"]),
            f_xstar=np.asarray(payload["f_xstar"], dtype=float),
        )


@dataclass(frozen=True)
class IdentificationDiagnostics:
    """Assumption checks gathered while identifying one cell."""

    rank_ok: bool
    min_singular_value: float
    eigenvalue_gap: float = np.nan
    complex_discarded: float = np.nan
    ord_satisfied: bool = False
    clipped_mass: float = 0.0
    condition_number: float = np.nan
    y_branch_max_dev: float = np.nan

    def to_dict(self) -> dict:
        return asdict(self)


def _check_table(table) -> np.ndarray:
    """``table`` as an array, refused (DomainError) unless it is (S_X, 2, S_Z)."""
    table = np.asarray(table)
    if table.ndim != 3 or table.shape[1] != 2:
        raise DomainError(f"a table is an (S_X, 2, S_Z) array, not {table.shape}")
    return table


def build_matrices(probs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Observable matrices (M_xz, [M_xyz for y=0, y=1]) from an (S_X, 2, S_Z)
    joint pmf array; any other shape raises DomainError.

    Requires a square support (S_X == S_Z); coarsen the finer variable
    upstream if the raw supports differ.
    """
    s_x, _, s_z = _check_table(probs).shape
    if s_x != s_z:
        raise ConfigurationError(
            f"support is {s_x}x{s_z}; the reported outcome and the second "
            "measure must share a cardinality; coarsen the finer one"
        )
    m_per_y = [np.ascontiguousarray(probs[:, y, :]) for y in (0, 1)]
    return m_per_y[0] + m_per_y[1], m_per_y


def check_rank(m_xz: np.ndarray, tol: float = 1e-8) -> IdentificationDiagnostics:
    """Relative singular-value gate for the invertibility condition.

    ``rank_ok`` iff the smallest singular value exceeds ``tol`` times the
    largest. Failure is reported, not raised: the condition is on
    observables and the caller decides what to do with a deficient cell.
    """
    m = np.asarray(m_xz, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("rank check needs a square matrix")
    svals = np.linalg.svd(m, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    ok = smax > 0 and smin > tol * smax
    cond = smax / smin if smin > 0 else np.inf
    return IdentificationDiagnostics(
        rank_ok=bool(ok), min_singular_value=smin, condition_number=cond
    )


def _normalize_columns(vectors: np.ndarray) -> np.ndarray:
    sums = vectors.sum(axis=0)
    if np.any(np.abs(sums) < 1e-14):
        raise IdentificationError("an eigenvector has (near) zero column sum")
    return vectors / sums


def order_by_last_row(values: np.ndarray, vectors: np.ndarray, tol: float = 0.0):
    """Reorder eigenpairs so the vectors' last row increases (monotone reporting).

    Columns whose last-row entries tie within ``tol`` are ordered by the row
    above, and so on up: without misclassification the reporting matrix is
    the identity, whose last row ties in all but one state.
    """
    def compare(i: int, j: int) -> int:
        for a, b in zip(vectors[::-1, i], vectors[::-1, j]):
            if abs(a - b) > tol:
                return -1 if a < b else 1
        return 0

    order = sorted(range(vectors.shape[1]), key=functools.cmp_to_key(compare))
    return values[order], vectors[:, order]


def branch_operator(m_xz: np.ndarray, m_y: np.ndarray) -> np.ndarray:
    """M_xyz[y] @ inv(M_xz), by a right solve against M_xz (LU, no explicit inverse)."""
    return np.linalg.solve(m_xz.T, m_y.T).T


def _decompose_branch(a: np.ndarray, tol: float):
    """Eigendecompose one branch operator; returns ordered real (values, columns)."""
    eigvals, eigvecs = np.linalg.eig(a)
    complex_mag = max(
        float(np.abs(eigvals.imag).max()), float(np.abs(eigvecs.imag).max())
    )
    if complex_mag > tol:
        raise IdentificationError(
            f"complex eigenstructure (imaginary magnitude {complex_mag:.3e} "
            f"> tol {tol:.1e}); the conditional-independence factorization "
            "does not hold at this tolerance"
        )
    vals = eigvals.real.copy()
    vecs = _normalize_columns(eigvecs.real.copy())
    vals, vecs = order_by_last_row(vals, vecs, tol)
    return vals, vecs, complex_mag


def _clip_unit(
    arr: np.ndarray, tol: float, what: str, upper: float | None = None
) -> tuple[np.ndarray, float]:
    low = float(arr.min())
    if low < -tol:
        raise IdentificationError(
            f"{what} has entry {low:.3e} below -tol; identification rejected"
        )
    if upper is not None and float(arr.max()) > upper + tol:
        raise IdentificationError(
            f"{what} has entry {float(arr.max()):.3e} above {upper} + tol"
        )
    clipped = float(np.abs(np.minimum(arr, 0.0)).sum())
    out = np.clip(arr, 0.0, upper)
    if upper is not None:
        clipped += float(np.maximum(arr - upper, 0.0).sum())
    return out, clipped


def eigendecompose_identify(
    probs: np.ndarray, tol: float = 1e-8
) -> tuple[MisclassificationModel, IdentificationDiagnostics]:
    """Recover the misclassification model from a (population-grade)
    (S_X, 2, S_Z) pmf array.

    Pipeline: rank gate on M_xz; eigendecomposition of the y=1 branch
    operator; column normalization and monotone-reporting ordering; latent
    marginal and Z matrix by linear solves; cross-validation against an
    independent decomposition of the y=0 branch (eigenvalues must complement
    to 1, eigenvectors must match).

    ``tol`` gates the rank check, the complex-part rejection, the minimum
    eigenvalue gap, and negative-entry clipping. Diagnostic-grade output:
    prefer the likelihood estimator for finite-sample work.
    """
    if float(probs.sum()) <= 0:
        raise DomainError("all-zero pmf")
    m_xz, m_per_y = build_matrices(probs)
    diag = check_rank(m_xz, tol=tol)
    if not diag.rank_ok:
        raise IdentificationError(
            f"observable matrix fails the rank gate (min singular value "
            f"{diag.min_singular_value:.3e}); cannot invert",
            diagnostics=diag,
        )

    a1 = branch_operator(m_xz, m_per_y[1])
    vals1, vecs1, cmag1 = _decompose_branch(a1, tol)

    gap = float(np.min(np.abs(np.subtract.outer(vals1, vals1))
                       [~np.eye(vals1.size, dtype=bool)])) if vals1.size > 1 else np.inf
    if gap < tol:
        raise IdentificationError(
            f"eigenvalue gap {gap:.3e} below tol; the auxiliary indicator "
            "does not separate the latent states",
            diagnostics=replace(diag, eigenvalue_gap=gap, complex_discarded=cmag1),
        )

    # Cross-validate on the y=0 branch: an independent decomposition must give
    # the complementary eigenvalues and the same ordered eigenvectors.
    a0 = branch_operator(m_xz, m_per_y[0])
    vals0, vecs0, cmag0 = _decompose_branch(a0, tol)
    # Both branches share the last-row ordering, so the comparison is slotwise.
    y_dev = max(
        float(np.abs((1.0 - vals0) - vals1).max()),
        float(np.abs(vecs0 - vecs1).max()),
    )
    if y_dev > max(100 * tol, 1e-6):
        raise IdentificationError(
            f"y-branch cross-check deviates by {y_dev:.3e}; the two auxiliary "
            "branches disagree about the latent structure",
            diagnostics=replace(diag, eigenvalue_gap=gap, y_branch_max_dev=y_dev),
        )

    m_x, clip_x = _clip_unit(vecs1, tol, "reporting matrix")
    m_x = m_x / m_x.sum(axis=0)
    f_y, clip_y = _clip_unit(vals1, tol, "P(Y=1 | latent)", upper=1.0)

    f_x = probs.sum(axis=(1, 2))
    f_xstar = np.linalg.solve(m_x, f_x)
    f_xstar, clip_s = _clip_unit(f_xstar, max(tol, 1e-7), "latent marginal")
    total = f_xstar.sum()
    if total <= 0:
        raise IdentificationError("latent marginal sums to zero after clipping")
    f_xstar = f_xstar / total

    # Z matrix from the marginal system: M_xz = M_x diag(f_xstar) M_z^T.
    if np.any(f_xstar < 1e-12):
        raise IdentificationError("a latent state has (near) zero mass")
    m_z_t = np.linalg.solve(m_x, m_xz) / f_xstar[:, None]
    m_z, clip_z = _clip_unit(m_z_t.T, max(tol, 1e-7), "second-measure matrix")
    m_z = m_z / m_z.sum(axis=0)

    model = MisclassificationModel(
        m_x_given_xstar=m_x,
        f_y_given_xstar=f_y,
        m_z_given_xstar=m_z,
        f_xstar=f_xstar,
    )
    diag = replace(
        diag,
        eigenvalue_gap=gap,
        complex_discarded=max(cmag1, cmag0),
        ord_satisfied=model.ord_satisfied,
        clipped_mass=clip_x + clip_y + clip_s + clip_z,
        y_branch_max_dev=y_dev,
    )
    return model, diag


def _state_terms(theta: np.ndarray, s_x: int, s_z: int) -> np.ndarray:
    """Per-state terms q[x, y, z, s, i] = P(x|s) P(y|s) P(z|s) P(s) of the
    joint pmf of each ``pack``-ordered column i of ``theta`` (P, n); their
    sum over s is the pmf. The batch is the last axis, so each elementwise
    op walks contiguous runs of items, and no item's numbers depend on the
    batch around it."""
    n = theta.shape[1]
    i0, i1, i2 = s_x * s_x, s_x * s_x + s_x, s_x * (s_x + 1 + s_z)
    b2 = np.empty((2, s_x, n))
    np.subtract(1.0, theta[i0:i1], out=b2[0])
    b2[1] = theta[i0:i1]
    return ((theta[:i0].reshape(s_x, s_x, n) * theta[i2:])[:, None, None]
            * b2[:, None] * theta[i1:i2].reshape(s_z, s_x, n))


def population_pmf(model: MisclassificationModel) -> np.ndarray:
    """Exact (S_X, 2, S_Z) joint pmf array implied by a model (law of total
    probability)."""
    probs = _state_terms(model.pack()[:, None], model.s_x, model.s_z).sum(axis=3)[..., 0]
    return probs / float(probs.sum())
