"""Suite-wide set-up, run before any test module imports numpy.

BLAS is pinned to one thread: the nets' matrices are small, so more
threads buy no speed, and the acceptance numbers are stated for one
thread (float order moves with the thread count).

Hypothesis draws the same examples on every run (derandomize, no example
database), so a pass count moves only with the code.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402 - after the BLAS pin

settings.register_profile("fedfog", derandomize=True, database=None)
settings.load_profile("fedfog")
