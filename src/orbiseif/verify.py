"""Engine-versus-oracle comparison and the parameter sweep driver.

A spec passes when the closed-form evaluator and the brute-force
recomputation agree on the base signature, the Euler number, the
multiset of (normalized invariant, singularity index) pairs at cone
points and corner reflectors, the boundary invariant, the invariant-sum
congruence, and (for the abelian families) the underlying lens space up
to homeomorphism.  Invariant lists are compared as multisets: which
printed invariant sits at which equal-index cone point is not part of
the data.

A sweep maps compare_spec over the specs, in this process or over a
pool of `workers` processes; both return the same ComparisonResult list.
"""

from __future__ import annotations

from .engine import _fiber_sum, evaluate, somma_residue
from .groups import (
    ABELIAN_FAMILIES,
    DIHEDRAL_FAMILIES,
    FIBERED_FAMILIES,
    TABLE4_FAMILIES,
    FamilySpec,
    enumerate_specs,
    get_family,
    goursat_group,
    phi_order,
)
from .oracle import oracle_report
from .record import Record


class ComparisonResult(Record):
    __slots__ = ("spec", "differences")
    __hash__ = None

    def __init__(self, spec: FamilySpec, differences: list):
        self.spec, self.differences = spec, differences

    @property
    def ok(self) -> bool:
        return not self.differences


def invariant_multiset(seifert):
    """Sorted (location, denominator, normalized numerator, index) tuples,
    dropping the trivial denominator-1 entries over smooth base points."""
    return tuple(sorted((v.location, v.den, v.normalized_num, v.index)
                        for v in seifert.invariants if v.den > 1))


def _invariant_keys(invariants) -> list:
    """The sorted (location, denominator, normalized numerator) keys of
    the invariants with denominator above 1: equal exactly when the
    invariant multisets are, since the index is a function of the
    denominator and the normalized numerator."""
    return sorted([(v.location, v.den, v.num % v.den) for v in invariants
                   if v.den > 1])


def compare_spec(spec: FamilySpec) -> ComparisonResult:
    """Build the group, run both paths, and list every disagreement."""
    diffs = []
    eng = evaluate(spec)
    group = goursat_group(spec)
    orc = oracle_report(group)

    formula_order = get_family(spec.family).phi_order(spec)
    order = phi_order(group)
    if order != formula_order:
        diffs.append(f"group order {2 * order} != "
                     f"2 * {formula_order} from the order formula")

    base_e, base_o = eng.seifert.base, orc.seifert.base
    if base_e.canonical() != base_o.canonical():
        diffs.append(f"base signature: engine {base_e.normalized()}, "
                     f"oracle {base_o.normalized()}")

    if eng.seifert.euler != orc.seifert.euler:
        diffs.append(f"euler: engine {eng.seifert.euler}, "
                     f"oracle {orc.seifert.euler}")

    if _invariant_keys(eng.seifert.invariants) != _invariant_keys(orc.seifert.invariants):
        diffs.append(f"invariants: engine {invariant_multiset(eng.seifert)}, "
                     f"oracle {invariant_multiset(orc.seifert)}")

    if eng.seifert.xi != orc.seifert.xi:
        diffs.append(f"xi: engine {eng.seifert.xi}, oracle {orc.seifert.xi}")

    # tested on the integer pair; the Fraction is built for the text only
    for name, data in (("engine", eng.seifert), ("oracle", orc.seifert)):
        total, den = _fiber_sum(data.euler, data.invariants, data.xi or 0)
        if total % den:
            diffs.append(f"{name} invariant sum {somma_residue(data)} "
                         "is not an integer")

    top_e, top_o = eng.topology, orc.topology
    if top_o is not None:
        if ((top_e.underlying, top_e.p, top_e.q)
                != (top_o.underlying, top_o.p, top_o.q)):
            diffs.append(f"underlying space: engine {top_e}, oracle {top_o}")
        comp_e, comp_o = top_e.singular_components, top_o.singular_components
        if comp_e != comp_o:
            diffs.append(f"singular components: engine {comp_e}, "
                         f"oracle {comp_o}")

    return ComparisonResult(spec, diffs)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def resolve_families(tokens) -> list:
    """Family id list from command-line tokens, expanding the aliases."""
    names = []
    for token in tokens:
        token = token.strip()
        if token == "table4":
            names.extend(TABLE4_FAMILIES)
        elif token == "abelian":
            names.extend(ABELIAN_FAMILIES)
        elif token == "dihedral":
            names.extend(DIHEDRAL_FAMILIES)
        elif token == "all":
            names.extend(FIBERED_FAMILIES)
        else:
            get_family(token)
            names.append(token)
    return list(dict.fromkeys(names))


def sweep_specs(max_order: int, families=None) -> list:
    """Every buildable spec of the given fibered families (all of them
    when `families` is None) below the bound."""
    if families is None:
        families = FIBERED_FAMILIES
    names = [f for f in families if get_family(f).fibered]
    return [row.spec for row in enumerate_specs(max_order, names)]


def run_sweep(specs, workers: int = 1):
    """Compare every spec; deterministic result order regardless of pool."""
    if workers <= 1:
        return [compare_spec(spec) for spec in specs]
    # imported here: the pool machinery costs every import of the package
    # about 20 ms, and a single-process sweep never uses it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(specs) // (workers * 8))
        return list(pool.map(compare_spec, specs, chunksize=chunk))
