"""Pin BLAS to one thread before anything imports numpy.

The DP core runs many small matmuls; a multi-threaded BLAS on a shared
machine can make one of them a hundred times slower.  Subprocesses that the
tests start (the demos) inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
