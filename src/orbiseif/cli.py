"""Command-line front end.

Three subcommands: `compute` evaluates the invariants of one group,
`enumerate` lists all groups below a rotation-order bound, and `verify`
runs the closed-form/brute-force comparison sweep.  Output is plain
text or JSON (`--json`); JSON is deterministic (stable key order and
invariant ordering) and round-trips through the reader in this module.

The JSON writer (`report_json` and the `--json` branches of `enumerate`
and `verify`) builds the text directly from the result objects with two
helpers: `_array` indents a list of already-encoded texts and `_object`
a list of (key, text) pairs in sorted key order; a fixed-key object, and
a report per shape, is laid out once by them as a %s template.  Strings
go through `_json.encode_basestring_ascii`, the C escaper that CPython's
`json.encoder` uses as well, and ints through `int.__repr__`.  The text
is byte for byte what `json.dumps` gives for the same document with a
two-space indent and sorted keys, but no output goes through
`json.dumps`'s pure-Python indenting encoder.  `argparse` and `json` are
imported only by the functions that use them (`_build_parser` and
`report_from_dict`), so importing this module loads neither.

Exit codes: 0 success, 1 invalid parameters or arguments, 2 a
verification mismatch, 3 unsupported family.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii as _str
from fractions import Fraction
from functools import cache
from math import gcd

from .engine import (
    DISC,
    LENS,
    NOT_COMPUTED,
    PROJECTIVE,
    SPHERE,
    THREE_SPHERE,
    EngineReport,
    _row,
    evaluate,
    flip_orientation,
    normalize,
    somma_residue,
    underlying_space,
)
from .groups import (
    FamilySpec,
    FAMILY_ORDER,
    UnsupportedFamilyError,
    enumerate_specs,
    fibered_family,
    get_family,
    require_fibered,
    validate,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_UNSUPPORTED = 3

# Largest rotation order `verify --max-order` and `enumerate --max-order`
# take; a sweep has 949,019 specs at 960, and its count grows as the bound
# squared.  `compute --verify` takes any order: one comparison costs the
# same at every order.
MAX_VERIFY_ORDER = 960
# Largest value `compute` takes for each of m, n, r and s, so that every
# printed number stays far inside Python's int-to-str digit limit.
MAX_PARAMETER = 10 ** 18

_BASE_KIND_NAMES = {SPHERE: "Sphere", DISC: "Disc", PROJECTIVE: "ProjectivePlane"}
_BASE_KIND_FROM_NAME = {v: k for k, v in _BASE_KIND_NAMES.items()}
_TOP_KIND_NAMES = {THREE_SPHERE: "ThreeSphere", LENS: "LensSpace",
                   NOT_COMPUTED: "NotComputed"}
_int = int.__repr__


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def report_from_dict(doc: dict) -> EngineReport:
    """Inverse of `json.loads(report_json(r))` (the round-trip guarantee).

    The engine's one builder, `_row`, rebuilds the Seifert data from the
    base kind, Euler number and invariants, `underlying_space` the
    topology.  A ValueError rejects an invalid or non-fibered spec, a
    fractional invariant sum and a document (its `verification` member
    aside) that differs from the rebuilt report's.
    """
    import json

    try:
        spec = FamilySpec(doc["family"],
                          **{k: int(v) for k, v in doc["params"].items()})
        require_fibered(spec)
        seifert = _row(_BASE_KIND_FROM_NAME[doc["base"]["kind"]],
                       Fraction(doc["euler"]["num"], doc["euler"]["den"]),
                       [(v["num"], v["den"], v["location"])
                        for v in doc["invariants"]])
        if somma_residue(seifert).denominator != 1:
            raise ValueError(f"the invariant sum of {spec} is not an integer")
        report = EngineReport(spec, seifert, underlying_space(seifert),
                              doc["provenance"])
        rebuilt = json.loads(report_json(report))
    except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from exc
    fields = sorted(doc.keys() - rebuilt.keys() - {"verification"}) + [
        k for k in sorted(rebuilt) if doc.get(k) != rebuilt[k]]
    if fields:
        raise ValueError(f"report of {spec} differs from its rebuild in {fields}")
    return report


# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------
# Every JSON output is built here, straight from the result objects, in
# the stdlib's sorted two-space layout.  Members go in sorted key order,
# and each nested text is built with the padding of its depth.  An object
# whose keys are fixed, and a report of a given shape, is laid out once
# with a %s slot per value and filled per result with the % operator,
# which does not rescan the inserted texts.

def _array(texts, pad: str) -> str:
    """Indented JSON array of already-encoded `texts`, closed at `pad`."""
    if not texts:
        return "[]"
    inner = "\n  " + pad
    return f"[{inner}{(',' + inner).join(texts)}\n{pad}]"


def _object(pairs, pad: str) -> str:
    """Indented JSON object of (key, encoded text) pairs, closed at `pad`.
    The keys are plain ASCII names and are written as they are."""
    if not pairs:
        return "{}"
    inner = "\n  " + pad
    members = (',' + inner).join([f'"{k}": {v}' for k, v in pairs])
    return f"{{{inner}{members}\n{pad}}}"


@cache
def _template(keys, pad: str) -> str:
    return _object([(k, "%s") for k in keys], pad)


_EULER = _template(("den", "num"), "  ")
_INVARIANT = _template(("den", "index", "location", "normalizedNum", "num"),
                       "    ")
_UNDERLYING = _template(("kind", "p", "q", "reason"), "  ")
_VERIFICATION = _template(("differences", "ok"), "  ")
_ENUMERATED = _template(("family", "fibered", "params", "phiOrder"), "  ")
_SWEEP = _template(("checked", "mismatches"), "")
_MISMATCH = _template(("differences", "spec"), "    ")


def _scalar(value) -> str:
    """JSON text of None, a bool, a str or an int."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _str(value)
    return _int(value)


def _strs(values, pad: str) -> str:
    return _array(list(map(_str, values)), pad)


def _params(spec: FamilySpec, pad: str) -> str:
    params = get_family(spec.family).params
    return _template(params, pad) % tuple([_int(getattr(spec, p)) for p in params])


@cache
def _report_template(cones, corners, invariants, components, params,
                     verified) -> str:
    """The report layout of one shape: list lengths, parameter names and
    whether a verification payload follows, each built on first use."""
    base = _object([("cones", _array(["%s"] * cones, "    ")),
                    ("corners", _array(["%s"] * corners, "    ")),
                    ("kind", "%s"), ("xi", "%s")], "  ")
    members = [("base", base), ("euler", _EULER), ("family", "%s"),
               ("invariants", _array([_INVARIANT] * invariants, "  ")),
               ("params", _template(params, "  ")), ("provenance", "%s"),
               ("singularComponents", _array(["%s"] * components, "  ")),
               ("underlying", _UNDERLYING)]
    if verified:
        members.append(("verification", "%s"))
    return _object(members, "")


def report_json(report: EngineReport, verification=None) -> str:
    """The JSON document of `report`, with the optional `verification`
    payload {"ok": bool, "differences": [str, ...]}, lists in the report's
    order: `evaluate`, `normalize` and `flip_orientation` give invariants
    by (location, den, normalized num, num) and the other lists ascending."""
    # ints go into the %s slots as they are: "%s" % i is int.__repr__(i)
    spec, seifert, top = report.spec, report.seifert, report.topology
    base, invariants = seifert.base, seifert.invariants
    params = get_family(spec.family).params
    template = _report_template(
        len(base.cones), len(base.corners), len(invariants),
        len(top.singular_components), params, verification is not None)
    xi, euler = seifert.xi, seifert.euler
    values = [*base.cones, *base.corners, _str(_BASE_KIND_NAMES[base.kind]),
              "null" if xi is None else xi, euler.denominator, euler.numerator,
              _str(spec.family)]
    for v in invariants:
        num, den = v.num, v.den
        normalized = num % den
        values += (den, gcd(normalized, den), _str(v.location), normalized, num)
    # every signature is a prefix of (m, n, r, s)
    values += (spec.m, spec.n, spec.r, spec.s)[:len(params)]
    p, q, reason = top.p, top.q, top.reason
    values += (_str(report.provenance), *top.singular_components,
               _str(_TOP_KIND_NAMES[top.underlying]),
               "null" if p is None else p, "null" if q is None else q,
               "null" if reason is None else _str(reason))
    if verification is not None:
        values.append(_VERIFICATION % (
            _strs(verification["differences"], "    "),
            _scalar(verification["ok"])))
    return template % tuple(values)


def _print_text_report(report: EngineReport, notes, out):
    seifert = report.seifert
    spec = report.spec
    fam = get_family(spec.family)
    print(f"family {spec}   {fam.label}", file=out)
    print(f"  rotation group order: {fam.phi_order(spec)}", file=out)
    for note in notes:
        print(f"  note: {note}", file=out)
    print(f"  base orbifold: {seifert.base}", file=out)
    invs = ", ".join(
        f"{v} ({v.location}, index {v.index})"
        for v in seifert.invariants)
    print(f"  local invariants: {invs if invs else 'none'}", file=out)
    if seifert.xi is not None:
        print(f"  boundary invariant xi: {seifert.xi}", file=out)
    print(f"  euler number: {seifert.euler}", file=out)
    print(f"  underlying space: {report.topology}", file=out)
    comps = ", ".join(str(c) for c in report.topology.singular_components)
    print(f"  singular components: {comps if comps else 'none'}", file=out)
    print(f"  provenance: {report.provenance}", file=out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="orbiseif",
        description="Seifert invariants of spherical 3-orbifold quotients")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="invariants of one group")
    comp.add_argument("--family", required=True)
    comp.add_argument("-m", type=int)
    comp.add_argument("-n", type=int)
    comp.add_argument("-r", type=int)
    comp.add_argument("-s", type=int)
    comp.add_argument("--json", action="store_true")
    comp.add_argument("--normalized", action="store_true",
                      help="normalize the local invariants into [0, den)")
    comp.add_argument("--mirror", action="store_true",
                      help="report the data of the mirror fibration")
    comp.add_argument("--verify", action="store_true",
                      help="also run the brute-force recomputation")

    enum = sub.add_parser("enumerate", help="groups below an order bound")
    enum.add_argument("--max-order", type=int, required=True)
    enum.add_argument("--families", default=None,
                      help="comma list of ids or aliases (all, abelian, "
                           "dihedral, table4)")
    enum.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="closed form against brute force")
    ver.add_argument("--max-order", type=int, required=True)
    ver.add_argument("--families", default="all")
    ver.add_argument("--workers", type=int, default=1,
                     help="worker processes, from 1 to the CPU count")
    ver.add_argument("--json", action="store_true")
    return parser


def _cmd_compute(args, out) -> int:
    try:
        fibered_family(args.family)
    except UnsupportedFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    spec = FamilySpec(args.family, m=args.m, n=args.n, r=args.r, s=args.s)
    too_large = [p for p, v in spec.params().items() if v > MAX_PARAMETER]
    if too_large:
        print(f"invalid: {', '.join(too_large)} must be at most 10^18",
              file=sys.stderr)
        return EXIT_INVALID
    violations, notes = validate(spec)
    if violations:
        for v in violations:
            print(f"invalid: {v}", file=sys.stderr)
        return EXIT_INVALID

    report = evaluate(spec)
    if args.mirror:
        seifert = flip_orientation(report.seifert)
        report = EngineReport(report.spec, seifert, report.topology,
                              report.provenance + ", mirror orientation")
    if args.normalized:
        report = EngineReport(report.spec, normalize(report.seifert),
                              report.topology, report.provenance)

    verification = None
    exit_code = EXIT_OK
    if args.verify:
        result = verify_mod.compare_spec(spec)
        verification = {"ok": result.ok, "differences": result.differences}
        if not result.ok:
            exit_code = EXIT_MISMATCH

    if args.json:
        print(report_json(report, verification), file=out)
    else:
        _print_text_report(report, notes, out)
        if verification is not None:
            status = "agrees" if verification["ok"] else "DISAGREES"
            print(f"  oracle: {status}", file=out)
            for diff in verification["differences"]:
                print(f"    {diff}", file=out)
    return exit_code


def _selected_families(args):
    """The families `--families` names, every family when it is absent,
    once `--max-order` is in range; None after an error on stderr."""
    if not 1 <= args.max_order <= MAX_VERIFY_ORDER:
        print(f"error: --max-order must lie in 1..{MAX_VERIFY_ORDER}",
              file=sys.stderr)
        return None
    if args.families is None:
        return FAMILY_ORDER
    try:
        return verify_mod.resolve_families(args.families.split(","))
    except UnsupportedFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


_ENUMERATED_HEAD = "%8s %-28s %9s  fibered\n" % ("family", "parameters", "|Phi(G)|")
_ENUMERATED_TEXT = "%8s %-28s %9d  %s\n"


@cache
def _params_text(params) -> str:
    """The `enumerate` text of a parameter signature, "m=%d,n=%d" and so
    on; every signature is a prefix of (m, n, r, s)."""
    return ",".join([f"{p}=%d" for p in params])


def _cmd_enumerate(args, out) -> int:
    families = _selected_families(args)
    if families is None:
        return EXIT_INVALID
    rows = enumerate_specs(args.max_order, families)
    if args.json:
        # the text of _array(items, ""), written one item at a time
        if not rows:
            print("[]", file=out)
            return EXIT_OK
        lead = "[\n  "
        for row in rows:
            out.write(lead + _ENUMERATED % (
                _str(row.spec.family), _scalar(row.fibered),
                _params(row.spec, "    "), _int(row.phi_order)))
            lead = ",\n  "
        out.write("\n]\n")
        return EXIT_OK
    write = out.write
    write(_ENUMERATED_HEAD)
    for row in rows:
        spec = row.spec
        params = get_family(spec.family).params
        write(_ENUMERATED_TEXT % (
            spec.family,
            _params_text(params) % (spec.m, spec.n, spec.r, spec.s)[:len(params)],
            row.phi_order, "yes" if row.fibered else "no"))
    write(f"total: {len(rows)} groups\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    families = _selected_families(args)
    if families is None:
        return EXIT_INVALID
    families = [f for f in families if get_family(f).fibered]
    if not families:
        print("error: no fibered family selected", file=sys.stderr)
        return EXIT_INVALID
    if args.workers < 1:
        print(f"error: --workers must be at least 1, not {args.workers}",
              file=sys.stderr)
        return EXIT_INVALID
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        print(f"error: {args.workers} workers requested, but only {cpus} "
              "CPUs are available", file=sys.stderr)
        return EXIT_INVALID
    specs = verify_mod.sweep_specs(args.max_order, families)
    results = verify_mod.run_sweep(specs, workers=args.workers)
    mismatches = [res for res in results if not res.ok]
    if args.json:
        items = [_MISMATCH % (_strs(res.differences, "      "),
                              _str(str(res.spec)))
                 for res in mismatches]
        print(_SWEEP % (_int(len(results)), _array(items, "  ")), file=out)
    else:
        for res in mismatches:
            print(f"MISMATCH {res.spec}", file=out)
            for diff in res.differences:
                print(f"  {diff}", file=out)
        print(f"checked {len(results)} groups with rotation order <= "
              f"{args.max_order}: "
              f"{'all agree' if not mismatches else f'{len(mismatches)} mismatches'}",
              file=out)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    out = sys.stdout
    try:
        if args.command == "compute":
            return _cmd_compute(args, out)
        if args.command == "enumerate":
            return _cmd_enumerate(args, out)
        return _cmd_verify(args, out)
    except BrokenPipeError:
        # output truncated by the consumer (e.g. piped through head)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
