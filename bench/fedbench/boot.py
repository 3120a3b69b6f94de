"""Process set-up that must happen before numpy is imported.

Kept free of numpy and fedfog imports so the entry scripts can call it first.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads(n: int) -> None:
    """Fix the BLAS thread count; only effective before numpy loads BLAS."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy loads")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)


def use_checkout_source(root: Path) -> None:
    """Import fedfog from `root`/src, and from nowhere else.

    Raises ImportError when the checkout holds no package source, so the
    benchmark fails instead of measuring some other installed copy.
    """
    src = (root / "src").resolve()
    if not (src / "fedfog" / "__init__.py").is_file():
        raise ImportError(f"no fedfog package source under {src}")
    sys.path.insert(0, str(src))
    import fedfog
    if Path(fedfog.__file__).resolve().parent != src / "fedfog":
        raise ImportError(f"fedfog imported from {fedfog.__file__}, "
                          f"not from {src}")
