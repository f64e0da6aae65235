"""The scheduling kernels in use.

Callers reach them as ``_backend.kernels.<name>`` at call time, so a
harness can swap in a wrapped module for the length of a run.
"""

from __future__ import annotations

from . import _kernels_py

kernels = _kernels_py


def backend_name() -> str:
    """Name of the active kernel backend."""
    return kernels.BACKEND
