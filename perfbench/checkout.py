"""Locate the checkout's ``repro`` sources and pin the host to one thread.

Imported first by every benchmark entry point, before numpy loads: BLAS
pools read their thread count once, at import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin numpy's BLAS pool to one thread and put ``src`` first on the path.

    Exits with an error when the checkout holds no ``repro`` sources, so the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
