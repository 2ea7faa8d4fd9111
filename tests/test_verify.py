"""Sweep driver: family aliases, parallel determinism, mismatch reporting."""

import dataclasses
import itertools
import math
import os
import sys
from fractions import Fraction

import pytest

import orbiseif
from orbiseif import engine, oracle, verify
from orbiseif.engine import DISC, BaseSignature, LocalInvariant, evaluate
from orbiseif.groups import (
    DIHEDRAL_FAMILIES,
    FIBERED_FAMILIES,
    TABLE4_FAMILIES,
    FamilySpec,
    UnsupportedFamilyError,
    get_family,
    validate,
)
from orbiseif.verify import (
    ComparisonResult,
    compare_spec,
    resolve_families,
    run_sweep,
    sweep_specs,
)


def test_resolve_families_aliases_and_dedup():
    assert resolve_families(["abelian"]) == ["1", "1p"]
    assert resolve_families(["dihedral", "11"]) == ["11", "11p"]
    assert "9" in resolve_families(["table4"])
    assert "1" in resolve_families(["all"])
    assert resolve_families(["11p", "dihedral", "1p", "abelian"]) \
        == ["11p", "11", "1p", "1"]
    with pytest.raises(UnsupportedFamilyError):
        resolve_families(["nope"])


def test_sweep_specs_only_lists_buildable_groups():
    specs = sweep_specs(12, ["1", "9"])
    assert all(sp.family in ("1", "9") for sp in specs)
    assert all(sp.family != "9" for sp in specs)   # order 120 exceeds bound


def test_sweep_specs_of_no_family_is_empty():
    """An empty family list sweeps nothing, as `enumerate_specs` does;
    only None means every fibered family."""
    assert sweep_specs(30, []) == []
    assert sweep_specs(30) == sweep_specs(30, FIBERED_FAMILIES)
    assert len(sweep_specs(30)) == 1079


def test_parallel_sweep_matches_serial():
    specs = sweep_specs(24, ["1", "2", "11p"])
    serial = run_sweep(specs, workers=1)
    parallel = run_sweep(specs, workers=2)
    assert serial == parallel
    assert all(r.ok for r in serial)


def test_verify_command_reports_mismatch_with_exit_2(monkeypatch, capsys):
    from orbiseif import cli

    def fake_compare(spec):
        return ComparisonResult(spec, ["synthetic difference"])

    monkeypatch.setattr(cli.verify_mod, "compare_spec", fake_compare)
    code = cli.main(["verify", "--max-order", "4", "--families", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "MISMATCH" in out and "synthetic difference" in out

    code = cli.main(["compute", "--family", "1", "-m", "1", "-n", "1",
                     "-r", "1", "-s", "1", "--verify"])
    out = capsys.readouterr().out
    assert code == 2
    assert "DISAGREES" in out


@pytest.mark.parametrize("kind, cones, corners, difference", [
    ("sphere", (3, 1, 2, 2), (), None),
    ("sphere", (3, 1, 2), (), "base signature: engine S2(2,3), oracle S2(2,2,3)"),
    ("disc", (2, 2, 3), (), "base signature: engine D2(2,2,3;), oracle S2(2,2,3)"),
])
def test_base_signatures_compare_up_to_order_and_index_one(
        monkeypatch, kind, cones, corners, difference):
    """The bases are compared as `normalized()` leaves them, and a
    mismatch is worded with the normalized signatures."""
    spec = FamilySpec("2", m=1, n=3)
    report = evaluate(spec)
    base = BaseSignature(kind, cones, corners)
    seifert = dataclasses.replace(report.seifert, base=base,
                                  xi=0 if kind == DISC else None)
    monkeypatch.setattr(verify, "evaluate",
                        lambda _: dataclasses.replace(report, seifert=seifert))
    found = [d for d in compare_spec(spec).differences if d.startswith("base")]
    assert found == ([difference] if difference else [])


def test_large_circle_groups_are_checked_without_rows(monkeypatch):
    """Groups of a million elements and more pass compare_spec from their
    lattice or coset data alone, which list no rows."""
    built = []
    build = verify.goursat_group

    def keep(spec):
        built.append(build(spec))
        return built[-1]

    monkeypatch.setattr(verify, "goursat_group", keep)
    specs = [FamilySpec("1", m=1, n=1, r=250_001, s=3),        # sphere, lens
             FamilySpec("11", m=1, n=1, r=250_001, s=7),       # disc
             FamilySpec("2", m=1, n=125_000),                  # equator orbits
             FamilySpec("13", m=1, n=62_500),                  # corners on a disc
             FamilySpec("19", m=2_084)]                        # I* right factor
    for spec in specs:
        assert compare_spec(spec).ok, spec
    assert [group.order >= 10 ** 6 for group in built] == [True] * len(specs)


def test_invariant_sum_check_catches_a_wrong_xi_on_both_sides(monkeypatch):
    """Engine and oracle both take xi from `derive_xi`, so a fault there
    gives both sides the same wrong xi and the xi comparison agrees; the
    invariant-sum check is what reports it, on every disc row of the
    dihedral and table-4 families."""
    specs = [spec for spec in sweep_specs(60, DIHEDRAL_FAMILIES + TABLE4_FAMILIES)
             if evaluate(spec).seifert.base.kind == DISC]
    assert {"11", "11p"} <= {spec.family for spec in specs}
    assert {spec.family for spec in specs} & set(TABLE4_FAMILIES)
    derive_xi = engine.derive_xi

    def other_xi(invariants, euler):
        return 1 - derive_xi(invariants, euler)

    monkeypatch.setattr(engine, "derive_xi", other_xi)
    monkeypatch.setattr(oracle, "derive_xi", other_xi)
    for spec in specs:
        differences = compare_spec(spec).differences
        for side in ("engine", "oracle"):
            assert any(d.startswith(f"{side} invariant sum ")
                       and d.endswith(" is not an integer")
                       for d in differences), (spec, differences)
        assert not any(d.startswith("xi:") for d in differences), spec


def test_invariant_sum_mismatch_text_names_the_sum(monkeypatch):
    """The integrality test runs on integers; a failing sum is still
    printed as its reduced fraction."""
    spec = FamilySpec("1", m=1, n=3, r=4, s=1)
    evaluate_spec = verify.evaluate

    def half_off(spec):
        report = evaluate_spec(spec)
        seifert = report.seifert
        euler = seifert.euler - engine.somma_residue(seifert) + Fraction(1, 2)
        return dataclasses.replace(
            report, seifert=dataclasses.replace(seifert, euler=euler))

    monkeypatch.setattr(verify, "evaluate", half_off)
    differences = compare_spec(spec).differences
    assert "engine invariant sum 1/2 is not an integer" in differences
    assert not any(d.startswith("oracle invariant sum") for d in differences)


@pytest.mark.parametrize("spec", [
    FamilySpec("1", m=1, n=3, r=4, s=1),      # sphere, lens
    FamilySpec("11p", m=1, n=3, r=4, s=1),    # disc, corners
    FamilySpec("12", m=1, n=9),               # disc, equator orbits
    FamilySpec("8", m=1),                     # O* right factor
], ids=str)
def test_agreeing_comparison_builds_only_the_euler_numbers(monkeypatch, spec):
    """A warm compare_spec that agrees builds two Fractions, the Euler
    numbers of the engine and the oracle: xi and the invariant sums are
    read off integer pairs."""
    assert compare_spec(spec).ok
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert compare_spec(spec).ok
    assert len(built) == 2, built


def package_calls(work):
    """(work(), the Python functions of the package it entered), counted
    as profiler call events: each comprehension call and each generator
    resumption counts."""
    package = os.path.dirname(orbiseif.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.mark.parametrize("spec, bound", [
    (FamilySpec("1", m=1, n=3, r=4, s=1), 129),
    (FamilySpec("11p", m=1, n=3, r=4, s=1), 139),
    (FamilySpec("12", m=1, n=9), 173),
    (FamilySpec("8", m=1), 150),
], ids=str)
def test_agreeing_comparison_enters_a_bounded_number_of_functions(spec, bound):
    """A warm agreeing compare_spec enters at most `bound` Python
    functions of the package, so per-spec work that was removed stays
    removed without timing anything."""
    assert compare_spec(spec).ok
    result, calls = package_calls(lambda: compare_spec(spec))
    assert result.ok
    assert calls <= bound, calls


@pytest.mark.parametrize("spec, text", [
    (FamilySpec("1", m=1, n=3, r=4, s=1),
     "invariants: engine (('cone', 12, 5, 1), ('cone', 12, 10, 2)), "
     "oracle (('cone', 12, 4, 4), ('cone', 12, 10, 2))"),
    (FamilySpec("11p", m=1, n=3, r=4, s=1),
     "invariants: engine (('corner', 6, 3, 3), ('corner', 6, 5, 1)), "
     "oracle (('corner', 6, 2, 2), ('corner', 6, 5, 1))"),
], ids=str)
def test_invariant_mismatch_is_worded_from_the_full_multisets(monkeypatch, spec, text):
    """The invariants are compared on integer keys and worded from
    invariant_multiset: a first engine numerator off by one gives the
    full (location, denominator, normalized numerator, index) text, and
    one shifted by its denominator normalizes to the same invariant, so
    the comparison agrees."""
    evaluate_spec = verify.evaluate
    shift = 0

    def shifted(spec):
        report = evaluate_spec(spec)
        first, *rest = report.seifert.invariants
        moved = LocalInvariant(first.num + shift, first.den, first.location)
        return dataclasses.replace(report, seifert=dataclasses.replace(
            report.seifert, invariants=(moved, *rest)))

    monkeypatch.setattr(verify, "evaluate", shifted)
    shift = 1
    found = [d for d in compare_spec(spec).differences if d.startswith("invariants")]
    assert found == [text]
    shift = evaluate_spec(spec).seifert.invariants[0].den
    assert compare_spec(spec).ok


def _specs_near_10_18(name):
    """The valid specs of a family whose parameters other than s are
    10^18 - 1 or 10^18, with s the first unit of r from r - 7 down in
    steps of 2."""
    fam = get_family(name)
    names = fam.params[:3]
    for values in itertools.product((10 ** 18 - 1, 10 ** 18), repeat=len(names)):
        params = dict(zip(names, values))
        if "s" in fam.params:
            r = params["r"]
            params["s"] = next(s for s in range(r - 7, 0, -2) if math.gcd(s, r) == 1)
        spec = FamilySpec(name, **params)
        if not validate(spec)[0]:
            yield spec


def test_every_fibered_family_agrees_near_10_18():
    """Group orders up to about 10^55: the oracle counts its angle
    progressions instead of taking len() of them, which stops at
    sys.maxsize, and every family agrees."""
    checked = {}
    for name in FIBERED_FAMILIES:
        for spec in _specs_near_10_18(name):
            result = compare_spec(spec)
            assert result.ok, (spec, result.differences)
            checked[name] = checked.get(name, 0) + 1
    assert len(checked) == len(FIBERED_FAMILIES) == 29
    assert sum(checked.values()) == 87
