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
latent marginal and the Z matrix then follow by linear solves. This is Hu's
(2008) identification argument.

``closed_form`` is that solution, exact and unprojected, and the package's
one eigendecomposition. On a population pmf it recovers the model. With
S_X = S_Z the model is just-identified, so where the solution lies in the
simplex it reproduces the table and is the maximum-likelihood fit. On a
sample it can leave the simplex; the likelihood module projects it into
the open simplex as EM's first start either way.

``BLOCKS`` names the cell model's four blocks in pack order. With
``MisclassificationModel.blocks``, ``pack`` and ``split`` (pack-ordered
parameters, batch last, to views of the blocks) it states that layout
once; the EM kernel and every other reader go through them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "MisclassificationModel",
    "build_matrices",
    "check_rank",
    "order_by_last_row",
    "branch_operator",
    "closed_form",
    "population_pmf",
]

STOCHASTIC_TOL = 1e-9
# ``check_rank``'s floor on M_xz's smallest singular value, relative to its largest.
RANK_TOL = 1e-10
# Eigenvector columns whose last-row entries lie this close tie, and are
# ordered by the rows above (``order_by_last_row``).
TIE_TOL = 1e-8

# P(X|s), P(Y=1|s), P(Z|s) and P(s), in pack order; matrices are named m_*.
BLOCKS = ("m_x_given_xstar", "f_y_given_xstar", "m_z_given_xstar", "f_xstar")


@dataclass(frozen=True)
class MisclassificationModel:
    """Distribution bundle for one covariate cell.

    ``m_x_given_xstar`` is column-stochastic S_X x S_X (column j is the
    reporting pmf of X given latent state j); ``f_y_given_xstar`` is the
    length-S_X vector of P(Y=1 | latent state); ``m_z_given_xstar`` is
    column-stochastic S_Z x S_X; ``f_xstar`` is the latent marginal.
    ``ord_satisfied`` records whether the states are in the labelling
    rule's order, which ``order_by_last_row`` leaves in place; every
    ``mle.fit`` result is.
    """

    m_x_given_xstar: np.ndarray
    f_y_given_xstar: np.ndarray
    m_z_given_xstar: np.ndarray
    f_xstar: np.ndarray

    def __post_init__(self):
        for name in BLOCKS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The four blocks, in ``BLOCKS`` order."""
        return tuple(getattr(self, name) for name in BLOCKS)

    @property
    def s_x(self) -> int:
        return self.m_x_given_xstar.shape[0]

    @property
    def s_z(self) -> int:
        return self.m_z_given_xstar.shape[0]

    @property
    def ord_satisfied(self) -> bool:
        order, _ = order_by_last_row(np.arange(self.s_x), self.m_x_given_xstar)
        return bool(np.array_equal(order, np.arange(self.s_x)))

    def validate(self) -> None:
        """Raise DomainError unless the blocks fit one model and all are valid
        probability objects."""
        shapes = tuple(np.shape(block) for block in self.blocks)
        s_x, s_z = self.s_x, self.s_z
        if shapes != ((s_x, s_x), (s_x,), (s_z, s_x), (s_x,)):
            raise DomainError(f"block shapes {shapes} do not fit one model")
        # The matrices first, then the vectors, each in pack order.
        for name in sorted(BLOCKS, key=lambda name: -getattr(self, name).ndim):
            block = getattr(self, name)
            if (block < -STOCHASTIC_TOL).any() or (block > 1 + STOCHASTIC_TOL).any():
                raise DomainError(f"{name} entries outside [0,1]")
            if block.ndim == 2:
                dev = np.abs(block.sum(axis=0) - 1.0).max()
                if dev > STOCHASTIC_TOL:
                    raise DomainError(f"{name} columns sum to 1 +/- {dev:.2e}")
        if abs(self.f_xstar.sum() - 1.0) > STOCHASTIC_TOL:
            raise DomainError("f_xstar does not sum to 1")

    def pack(self) -> np.ndarray:
        """Every parameter in one vector, block by block in ``BLOCKS`` order."""
        return np.concatenate([block.ravel() for block in self.blocks])

    @staticmethod
    def split(packed: np.ndarray, s_x: int, s_z: int) -> tuple[np.ndarray, ...]:
        """Views of the four blocks of ``pack``-ordered parameters, in ``BLOCKS``
        order: P(X|s) as S_X x S_X, P(Y=1|s), P(Z|s) as S_Z x S_X, P(s). The
        parameter axis is first; trailing axes are a batch and stay last."""
        i0 = s_x * s_x
        i1 = i0 + s_x
        i2 = i1 + s_z * s_x
        batch = packed.shape[1:]
        return (packed[:i0].reshape(s_x, s_x, *batch), packed[i0:i1],
                packed[i1:i2].reshape(s_z, s_x, *batch), packed[i2:])

    @staticmethod
    def unpack(vector: np.ndarray, s_x: int, s_z: int) -> dict:
        """The JSON blocks of a ``pack``-ordered vector: a model's parameters
        or their standard errors."""
        payload = {}
        for name, block in zip(BLOCKS, MisclassificationModel.split(vector, s_x, s_z)):
            if block.ndim == 2:
                rows, cols = block.shape
                payload[name] = {"rows": rows, "cols": cols, "data": block.ravel().tolist()}
            else:
                payload[name] = block.tolist()
        return payload

    def to_dict(self) -> dict:
        return {
            **self.unpack(self.pack(), self.s_x, self.s_z),
            "ord_satisfied": self.ord_satisfied,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> MisclassificationModel:
        def block(name):
            entry = payload[name]
            if not name.startswith("m_"):
                return np.asarray(entry, dtype=float)
            return np.asarray(entry["data"], dtype=float).reshape(entry["rows"], entry["cols"])

        return cls(**{name: block(name) for name in BLOCKS})


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


def check_rank(m_xz: np.ndarray, tol: float = RANK_TOL) -> bool:
    """The invertibility condition: whether the smallest singular value of
    the square ``m_xz`` exceeds ``tol`` times the largest."""
    svals = np.linalg.svd(m_xz, compute_uv=False)
    return bool(svals[0] > 0 and svals[-1] > tol * svals[0])


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


def closed_form(probs: np.ndarray) -> MisclassificationModel | None:
    """The exact solution of an (S_X, 2, S_Z) pmf array, unprojected; None
    where it has no real one: a support that is not square, an M_xz that
    fails ``check_rank``, a failed eigendecomposition or solve, or an
    eigenvector summing to (near) 0. Any other array shape raises
    DomainError.

    The eigenpairs keep only their real parts and nothing is clipped: on a
    sample the solution can have a negative entry, which ``validate``
    refuses, and the real parts of a complex pair do not reproduce the
    table. On a population pmf it is the model behind it, states in
    monotone-reporting order.
    """
    s_x, _, s_z = _check_table(probs).shape
    if s_x != s_z:
        return None
    m_xz, m_per_y = build_matrices(probs)
    try:
        if not check_rank(m_xz):
            return None
        vals, vecs = np.linalg.eig(branch_operator(m_xz, m_per_y[1]))
        vals, vecs = vals.real, vecs.real
        sums = vecs.sum(axis=0)
        if np.any(np.abs(sums) < 1e-12):
            return None
        f_y, m_x = order_by_last_row(vals, vecs / sums, TIE_TOL)
        # P(X) = M_x P(s), and M_xz = M_x diag(P(s)) M_z^T.
        f_xstar = np.linalg.solve(m_x, probs.sum(axis=(1, 2)))
        m_z = (np.linalg.solve(m_x, m_xz) / f_xstar[:, None]).T
    except np.linalg.LinAlgError:
        return None
    return MisclassificationModel(m_x, f_y, m_z, f_xstar)


def _state_terms(theta: np.ndarray, s_x: int, s_z: int) -> np.ndarray:
    """Per-state terms q[x, y, z, s, i] = P(x|s) P(y|s) P(z|s) P(s) of the
    joint pmf of each ``pack``-ordered column i of ``theta`` (P, n); their
    sum over s is the pmf. The batch is the last axis, so each elementwise
    op walks contiguous runs of items, and no item's numbers depend on the
    batch around it."""
    a, f_y, c, pi = MisclassificationModel.split(theta, s_x, s_z)
    b2 = np.empty((2, *f_y.shape))
    np.subtract(1.0, f_y, out=b2[0])
    b2[1] = f_y
    return (a * pi)[:, None, None] * b2[:, None] * c


def population_pmf(model: MisclassificationModel) -> np.ndarray:
    """Exact (S_X, 2, S_Z) joint pmf array implied by a model (law of total
    probability)."""
    probs = _state_terms(model.pack()[:, None], model.s_x, model.s_z).sum(axis=3)[..., 0]
    return probs / float(probs.sum())
