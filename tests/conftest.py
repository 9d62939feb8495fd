"""Pin BLAS to one thread before any test module imports numpy.

``reachcast.cli`` pins the same variables, but the test modules import
numpy first, and a BLAS thread pool is sized when numpy loads. Pinning
here gives the tests the single-threaded BLAS that the CLI runs under.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# what numpy sees when a test module first imports it
NUMPY_LOADED_FIRST = "numpy" in sys.modules
BLAS_ENV = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
