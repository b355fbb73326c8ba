import io

import numpy as np
import pytest

from latentcat.data import Schema, ingest
from latentcat.errors import EstimationError
from latentcat.generate import GeneratorSpec, make_model
from latentcat.spectral import MisclassificationModel


@pytest.fixture(scope="session")
def basic_schema():
    return Schema(
        x_column="ls",
        y_column="neuro",
        z_column="ghq",
        w_columns=("female", "married"),
        x_recode={1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3},
        z_binning="tercile",
        y_binning="median",
    )


def ingest_text(text: str, schema: Schema):
    return ingest(io.StringIO(text), schema)


def per_redraw(estimator):
    """A chunk estimator for ``run_plan`` from a function of one redraw: its
    value on each redraw of the chunk, or the EstimationError it raised
    there."""

    def chunk(redraws):
        outcomes = []
        for redraw in redraws:
            try:
                outcomes.append(estimator(redraw))
            except EstimationError as exc:
                outcomes.append(exc)
        return outcomes

    return chunk


def fitted(outcome):
    """One outcome of a stacked fit (``parametric_fit``, the ML benchmarks):
    the fit, or raise the error that ended it."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@pytest.fixture(scope="session")
def valid_model() -> MisclassificationModel:
    [model] = make_model(
        GeneratorSpec(
            misclassification_strength=0.4,
            eigenvalue_separation=0.2,
            seed=314,
            min_singular_value=0.08,
        )
    )
    return model


def population_table(model: MisclassificationModel, n: int = 10_000_000):
    """Integer count array proportional to the model's population pmf.

    Largest-remainder rounding keeps the total exactly n, so the empirical
    pmf differs from the population pmf by at most 1/n per cell.
    """
    from latentcat.spectral import population_pmf

    probs = population_pmf(model)
    raw = probs * n
    base = np.floor(raw).astype(np.int64)
    short = n - int(base.sum())
    order = np.argsort((raw - base).ravel())[::-1]
    flat = base.ravel()
    flat[order[:short]] += 1
    return flat.reshape(probs.shape)


def model_distance(a: MisclassificationModel, b: MisclassificationModel) -> float:
    return max(
        float(np.abs(a.m_x_given_xstar - b.m_x_given_xstar).max()),
        float(np.abs(a.f_y_given_xstar - b.f_y_given_xstar).max()),
        float(np.abs(a.m_z_given_xstar - b.m_z_given_xstar).max()),
        float(np.abs(a.f_xstar - b.f_xstar).max()),
    )


def min_gap(values: np.ndarray) -> float:
    """Smallest distance between two entries of ``values``: for P(Y=1 | latent),
    the closed form's eigenvalue gap."""
    return float(np.min(np.abs(np.subtract.outer(values, values))
                        [~np.eye(values.size, dtype=bool)]))


# Published group-"0" distribution fixture (reporting matrix columns, latent
# marginal, reported marginal). The auxiliary blocks below are NOT published;
# they are filled with plausible values wherever a complete generating model
# is needed.
PUBLISHED_M_X_GIVEN_XSTAR = np.array(
    [
        [0.2395, 0.0617, 0.0720],
        [0.6915, 0.4945, 0.1460],
        [0.0691, 0.4437, 0.7819],
    ]
)
PUBLISHED_F_XSTAR = np.array([0.1254, 0.4195, 0.4551])
PUBLISHED_F_X = np.array([0.0887, 0.3606, 0.5507])
PUBLISHED_F_XSTAR_SE = np.array([0.0347, 0.0516, 0.0459])


def published_cell_model() -> MisclassificationModel:
    f_y = np.array([0.75, 0.5, 0.3])
    m_z = 0.6 * np.eye(3) + 0.4 * np.array(
        [
            [0.5, 0.3, 0.2],
            [0.3, 0.45, 0.3],
            [0.2, 0.25, 0.5],
        ]
    )
    m_z = m_z / m_z.sum(axis=0)
    return MisclassificationModel(
        m_x_given_xstar=PUBLISHED_M_X_GIVEN_XSTAR,
        f_y_given_xstar=f_y,
        m_z_given_xstar=m_z,
        f_xstar=PUBLISHED_F_XSTAR,
    )
