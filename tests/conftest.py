"""Pin BLAS to one thread before anything imports numpy.

The DP core runs many small matmuls; a multi-threaded BLAS on a shared
machine can make one of them a hundred times slower.  Subprocesses that the
tests start (the demos) inherit the setting.

Hypothesis reports a failing example through ``hypothesis.extra._patching``,
which imports libcst when it is installed; libcst raises a
DeprecationWarning on import.  Under ``-W error`` that warning, raised
inside pytest's report hook, ends the session with an INTERNALERROR after
the first failing property test, so the module is imported here once with
only that warning category ignored.
"""

import os
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
