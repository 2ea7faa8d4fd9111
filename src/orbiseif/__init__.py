"""Seifert invariants of spherical 3-orbifold quotients of the 3-sphere.

The package maps a finite fibration-preserving subgroup of SO(4), given
by family identifier and integer parameters, to the invariants of the
Seifert fibered quotient orbifold, and checks every closed form against
a brute-force geometric recomputation.
"""


# Defined before the submodules are imported, since they import it.
class _OnFirstUse:
    """Stands in for `target`, the submodule "module" of this package or
    its attribute "module.attr", under `name` in the namespace `into`.
    The first call or attribute read imports the module and binds `name`
    in `into` to the target, if `name` still holds this stand-in, so a
    wrapper put in its place sees every call; each use forwards."""

    __slots__ = ("_into", "_name", "_target")

    def __init__(self, into: dict, name: str, target: str):
        self._into, self._name, self._target = into, name, target

    def _load(self):
        module, _, attr = self._target.partition(".")
        # with a fromlist __import__ returns the submodule, and a loaded
        # one costs no Python-level call
        found = __import__(f"{__package__}.{module}", fromlist=[module])
        if attr:
            found = getattr(found, attr)
        if self._into.get(self._name) is self:
            self._into[self._name] = found
        return found

    def __getattr__(self, attr):
        return getattr(self._load(), attr)

    def __call__(self, *args):
        return self._load()(*args)


from .engine import (  # noqa: E402
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
from .groups import FamilySpec, enumerate_specs, validate  # noqa: E402
from .verify import compare_spec, run_sweep, sweep_specs  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "BaseSignature", "EngineReport", "FamilySpec", "LocalInvariant",
    "SeifertData", "TopologyReport", "compare_spec", "enumerate_specs",
    "evaluate", "flip_orientation", "goursat_group", "normalize",
    "oracle_report", "phi_order", "run_sweep", "somma_residue",
    "sweep_specs", "validate",
]

# only a comparison needs these
goursat_group = _OnFirstUse(globals(), "goursat_group", "build.goursat_group")
phi_order = _OnFirstUse(globals(), "phi_order", "build.phi_order")
oracle_report = _OnFirstUse(globals(), "oracle_report", "oracle.oracle_report")
