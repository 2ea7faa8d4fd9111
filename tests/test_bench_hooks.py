"""The benchmark's tracer (`perfbench/tracing.py`) wraps functions by name
where their callers bind them; every name it wraps must still exist, or
`perfbench/run.py --trace 1` breaks without any other test noticing.
Tier-1 does not run `perfbench/test_perfbench.py`, so what the benchmark
reads of the result records is pinned here too."""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from orbiseif import engine, groups, oracle, verify
from orbiseif.groups import FamilySpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_trace_hooks_exist():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path[:] = saved
    for owner, attr, name in tracing.SPANS:
        assert attr in vars(owner), name
    for owner, attrs, name in tracing.COUNTERS:
        for attr in attrs:
            assert attr in vars(owner), name
    assert callable(engine._derived_quantities_cached.cache_info)
    assert callable(engine._derived_quantities_cached.cache_clear)


# ---------------------------------------------------------------------------
# what perfbench/run.py and perfbench/test_perfbench.py read of the records
# ---------------------------------------------------------------------------

def test_enumerate_specs_is_a_list_of_rows_with_a_spec():
    """`run.py` takes `len` of the rows and indexes them by position."""
    rows = groups.enumerate_specs(24, groups.FIBERED_FAMILIES)
    assert type(rows) is list and len(rows) > 100
    assert all(isinstance(row.spec, FamilySpec) for row in rows)
    again = groups.enumerate_specs(24, groups.FIBERED_FAMILIES)
    assert rows[7] is not again[7] and rows[7] == again[7]
    assert hash(rows[7]) == hash(again[7])


def test_reports_take_dataclasses_replace():
    """The benchmark's self-test injects a wrong engine result with
    `dataclasses.replace`, which also runs the construction checks."""
    report = engine.evaluate(FamilySpec("11", m=1, n=3, r=4, s=1))
    seifert = dataclasses.replace(report.seifert, euler=report.seifert.euler + 1)
    wrong = dataclasses.replace(report, seifert=seifert)
    assert wrong.seifert.euler == report.seifert.euler + 1
    assert (wrong.spec, wrong.topology) == (report.spec, report.topology)
    assert wrong != report
    with pytest.raises(ValueError):
        dataclasses.replace(report.seifert, xi=None)


SPECS = [FamilySpec("1", m=1, n=3, r=4, s=1),       # sphere, lens
         FamilySpec("11p", m=1, n=3, r=4, s=1),     # disc, corners
         FamilySpec("2bis", m=1, n=3),              # projective
         FamilySpec("13", m=2, n=3),                # disc, cone and corner
         FamilySpec("8", m=1)]                      # O* right factor


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_records_are_equal_and_hashed_by_value(spec):
    """Two builds of a spec give distinct records that are equal and hash
    alike, down to every nested record."""
    first, second = engine.evaluate(spec), engine.evaluate(spec)
    pairs = [(first, second), (first.seifert, second.seifert),
             (first.seifert.base, second.seifert.base),
             (first.topology, second.topology),
             *zip(first.seifert.invariants, second.seifert.invariants)]
    group_a, group_b = groups.goursat_group(spec), groups.goursat_group(spec)
    data_a, data_b = oracle.oracle_report(group_a), oracle.oracle_report(group_b)
    pairs += [(data_a, data_b), (data_a.seifert, data_b.seifert),
              (group_a.lattice or group_a.gluing, group_b.lattice or group_b.gluing),
              (groups.get_family(spec.family).goursat(spec),
               groups.get_family(spec.family).goursat(spec))]
    pairs += zip(oracle.base_group(group_a).orbits, oracle.base_group(group_b).orbits)
    if spec.family == "1":
        pairs.append((engine._derived_quantities_cached.__wrapped__(spec),
                      engine._derived_quantities_cached.__wrapped__(spec)))
    for a, b in pairs:
        assert a is not b and a == b, type(a).__name__
        assert hash(a) == hash(b), type(a).__name__


def test_mutable_results_stay_unhashable():
    group = groups.goursat_group(SPECS[0])
    for record in (oracle.base_group(group), verify.compare_spec(SPECS[0])):
        with pytest.raises(TypeError):
            hash(record)
