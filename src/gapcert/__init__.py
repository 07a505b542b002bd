"""Certified spectral enclosures for relatively bounded perturbations.

The package root loads none of its modules.  A submodule name imports
that submodule alone; any other public name (each module's ``__all__``)
is looked up on first use (PEP 562) in the module that exports it, so
``from gapcert import perturbed_strip`` loads enclosures and errors only;
numpy loads with matrix_lab alone.  The root keeps no copies: a
lookup returns the module's current binding, so code that rebinds a
module's functions (such as perfbench/tracer.py) is seen through it too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# modules whose __all__ the root exports, cheapest first: a name lookup
# imports them in this order until one exports the name
_EXPORTERS = ("errors", "enclosures", "gap_sequences", "blocks", "applications", "matrix_lab")
_SUBMODULES = frozenset(_EXPORTERS + ("cli", "regions"))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    exporters = (_import_module(f"{__name__}.{module}") for module in _EXPORTERS)
    if name == "__all__":
        return [public for module in exporters for public in module.__all__]
    if not name.startswith("_"):
        for module in exporters:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
