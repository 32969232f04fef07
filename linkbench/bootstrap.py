"""Locate the package source and pin native thread pools before numpy loads.

Stdlib only: this module runs before ``mcfc`` (and so numpy and scipy) is
imported, so that thread-pool variables take effect and a checkout without
the package source fails early instead of importing some other copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for the capture-scan files and the per-run record.
WORK_DIR = ROOT / ".linkbench"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/mcfc`` to benchmark."""


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` reports them."""
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict[str, int]:
    """Cap every native thread pool at ``nproc`` and return the limits set.

    A limit already in the environment is kept when it is lower.
    """
    cap = nproc()
    limits = {}
    for var in _THREAD_VARS:
        try:
            value = min(int(os.environ[var]), cap)
        except (KeyError, ValueError):
            value = cap
        os.environ[var] = str(max(value, 1))
        limits[var] = max(value, 1)
    return limits


def use_source_tree() -> None:
    """Put ``src`` first on ``sys.path`` so ``import mcfc`` loads this checkout."""
    if not (SRC / "mcfc" / "__init__.py").is_file():
        raise MissingSourceError(f"no package source at {SRC / 'mcfc'}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse a ``mcfc`` that was imported from anywhere but ``src``."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSourceError(f"mcfc was imported from {origin}, not from {SRC}")
