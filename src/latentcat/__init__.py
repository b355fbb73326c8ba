"""Misclassification testing and latent-category identification for
discrete survey outcomes.

Subpackages by stage: ``data`` (ingest/discretize/tabulate), ``citest``
(bootstrap conditional-independence test), ``spectral`` (closed-form
identification), ``mle`` (constrained maximum likelihood), ``ordered``
(linear and ordered-response models of the latent outcome), ``resampling``
(bootstrap engine), ``generate`` (synthetic oracles), ``pipeline`` and
``cli`` (wiring).
"""

import os

# OpenBLAS starts a thread per core when numpy loads it, which costs every
# process tens of milliseconds; no linear algebra here is large enough for
# threads to pay. This runs before any module imports numpy (``python -m
# latentcat.cli`` runs it first), and an explicit setting wins.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .citest import bootstrap_test, conditional_test_suite, ts_statistic
from .data import (
    ContingencyTable,
    Dataset,
    JointPmf,
    Schema,
    frequency_pmf,
    ingest,
    load_schema,
    median_split,
    tabulate,
    tercile_bin,
)
from .errors import LatentcatError
from .generate import GeneratorSpec, ProbitParams, draw, make_model, probit_population
from .mle import CmleConfig, CmleResult, fit, loglik, param_count
from .ordered import (
    LatentConditional,
    ParametricFit,
    hetero_ordered_probit,
    homo_ordered_probit,
    latent_conditional,
    linear_projection,
    ordered_probit_mle,
    skedastic,
)
from .resampling import ResamplePlan, boot_se, percentile, resample
from .spectral import (
    IdentificationDiagnostics,
    MisclassificationModel,
    build_matrices,
    check_rank,
    eigendecompose_identify,
    population_pmf,
)

__all__ = [
    "__version__",
    "LatentcatError",
    "Schema",
    "Dataset",
    "ContingencyTable",
    "JointPmf",
    "load_schema",
    "ingest",
    "median_split",
    "tercile_bin",
    "tabulate",
    "frequency_pmf",
    "ts_statistic",
    "bootstrap_test",
    "conditional_test_suite",
    "MisclassificationModel",
    "IdentificationDiagnostics",
    "build_matrices",
    "check_rank",
    "eigendecompose_identify",
    "population_pmf",
    "CmleConfig",
    "CmleResult",
    "param_count",
    "loglik",
    "fit",
    "LatentConditional",
    "ParametricFit",
    "latent_conditional",
    "linear_projection",
    "skedastic",
    "hetero_ordered_probit",
    "homo_ordered_probit",
    "ordered_probit_mle",
    "ResamplePlan",
    "resample",
    "percentile",
    "boot_se",
    "GeneratorSpec",
    "ProbitParams",
    "make_model",
    "draw",
    "probit_population",
]
