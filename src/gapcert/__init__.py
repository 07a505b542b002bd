"""Certified spectral enclosures for relatively bounded perturbations.

The package root re-exports the public names (each module's ``__all__``)
of the certificate modules.  Those modules need no numpy and load with
the package, so code that rebinds their functions module by module (such
as perfbench/tracer.py) finds every one of them loaded.  matrix_lab needs
numpy; its names are looked up on first use (PEP 562), so the scalar
certificates and the CLI commands built on them never import numpy.
"""

import importlib

from .applications import *  # noqa: F401,F403
from .blocks import *  # noqa: F401,F403
from .enclosures import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .gap_sequences import *  # noqa: F401,F403

__version__ = "0.1.0"


def __getattr__(name: str):
    if not name.startswith("_"):
        matrix_lab = importlib.import_module(".matrix_lab", __name__)
        if name in matrix_lab.__all__:
            value = globals()[name] = getattr(matrix_lab, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
