"""Seifert invariants of spherical 3-orbifold quotients of the 3-sphere.

The package maps a finite fibration-preserving subgroup of SO(4), given
by family identifier and integer parameters, to the invariants of the
Seifert fibered quotient orbifold, and checks every closed form against
a brute-force geometric recomputation.
"""

from .engine import (
    BaseSignature,
    EngineReport,
    LocalInvariant,
    SeifertData,
    TopologyReport,
    evaluate,
    flip_orientation,
    normalize,
    somma_residue,
)
from .groups import FamilySpec, enumerate_specs, validate
from .verify import compare_spec, run_sweep, sweep_specs

__version__ = "0.1.0"

__all__ = [
    "BaseSignature", "EngineReport", "FamilySpec", "LocalInvariant",
    "SeifertData", "TopologyReport", "compare_spec", "enumerate_specs",
    "evaluate", "flip_orientation", "goursat_group", "normalize",
    "oracle_report", "phi_order", "run_sweep", "somma_residue",
    "sweep_specs", "validate",
]


# names whose module only a comparison needs, loaded with their first read
_LOADED_ON_READ = {"goursat_group": "build", "phi_order": "build",
                   "oracle_report": "oracle"}


def __getattr__(name):
    if name not in _LOADED_ON_READ:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LOADED_ON_READ[name]}"), name)
