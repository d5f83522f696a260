"""Locate the package under test in the checkout that holds this benchmark.

The benchmark always measures the source tree next to it, never an
installed copy, so a checkout without `src/cubicmaps` is an error.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS threads are pinned before numpy is first imported; one thread is
# within every machine's core count and keeps checkpoints byte-stable.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(environ):
    for name in BLAS_THREAD_VARIABLES:
        environ[name] = str(BLAS_THREADS)


def use_checkout_source():
    """Put the checkout's `src` first on sys.path and import cubicmaps from it."""
    if not (SRC / "cubicmaps" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'cubicmaps'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cubicmaps

    if Path(cubicmaps.__file__).resolve().parent != SRC / "cubicmaps":
        raise ImportError(f"cubicmaps was imported from {cubicmaps.__file__}, not {SRC}")
    return cubicmaps
