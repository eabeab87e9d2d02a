"""Symplectic tomograms of one-dimensional wavefunctions.

Simulation of tomogram slices along arbitrary phase-space directions,
phase reconstruction from incomplete slice sets, classical oscillator
dynamics with initial-state recovery, and information-completeness
reports for Gaussian states.
"""

import importlib

from .errors import TomokitError

__version__ = "0.1.0"

_SUBMODULES = ("completeness", "core", "dynamics", "io", "reconstruct", "transform")
__all__ = [*_SUBMODULES, "TomokitError", "__version__"]


def __getattr__(name):
    """Import a submodule on first access, so a verb loads only what it runs."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
