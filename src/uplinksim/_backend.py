"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python kernels
are the always-available fallback, and ``use()`` switches at runtime
(benchmarks, tests).
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels as _compiled  # type: ignore[attr-defined]
except ImportError:
    _compiled = None

kernels = _compiled or _kernels_py


def backend_name() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return kernels.BACKEND


def available_backends() -> list[str]:
    names = ["python"]
    if _compiled is not None:
        names.insert(0, "compiled")
    return names


def get(name: str):
    """Return a kernel module by backend name without activating it."""
    if name == "python":
        return _kernels_py
    if name == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernels are not available")
        return _compiled
    raise ValueError(f"unknown backend {name!r}")


def use(name: str) -> None:
    """Switch the active backend ('compiled' or 'python')."""
    global kernels
    kernels = get(name)
