"""Suite-wide set-up, run before any test module imports numpy.

BLAS is pinned to one thread: the nets' matrices are small, so more
threads buy no speed, and the acceptance numbers are stated for one
thread (float order moves with the thread count).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
