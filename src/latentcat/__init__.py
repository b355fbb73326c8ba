"""Misclassification testing and latent-category identification for
discrete survey outcomes.

Modules by stage: ``data`` (ingest/discretize/tabulate), ``citest``
(bootstrap conditional-independence test), ``spectral`` (closed-form
identification), ``mle`` (constrained maximum likelihood), ``ordered``
(linear and ordered-response models of the latent outcome), ``resampling``
(bootstrap engine), ``generate`` (synthetic oracles), ``pipeline`` and
``cli`` (wiring). Names are imported from the module that defines them,
as in ``from latentcat.mle import fit``; the package re-exports none.
"""

import os

# OpenBLAS starts a thread per core when numpy loads it, which costs every
# process tens of milliseconds; no linear algebra here is large enough for
# threads to pay. This runs before any module imports numpy (``python -m
# latentcat.cli`` runs it first), and an explicit setting wins.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
