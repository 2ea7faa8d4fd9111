"""Reference builder for the JSON report document.

`cli.report_json` writes its text directly from an `EngineReport`.  The
function here builds the same document as plain dicts and lists, so the
tests can check that `report_json(r)` equals
`json.dumps(reference_to_dict(r), indent=2, sort_keys=True)` byte for
byte.  The order of every list is spelled out here: the writer keeps the
report's order, so the comparison also checks that the engine returns
the invariants in document order and the other lists ascending.
"""

from orbiseif.cli import _BASE_KIND_NAMES, _TOP_KIND_NAMES


def reference_to_dict(report, verification=None) -> dict:
    seifert = report.seifert
    invariants = sorted(seifert.invariants,
                        key=lambda v: (v.location, v.den, v.normalized_num,
                                       v.num))
    doc = {
        "family": report.spec.family,
        "params": report.spec.params(),
        "base": {
            "kind": _BASE_KIND_NAMES[seifert.base.kind],
            "cones": sorted(seifert.base.cones),
            "corners": sorted(seifert.base.corners),
            "xi": seifert.xi,
        },
        "euler": {"num": seifert.euler.numerator,
                  "den": seifert.euler.denominator},
        "invariants": [
            {"num": v.num, "den": v.den, "normalizedNum": v.normalized_num,
             "index": v.index, "location": v.location}
            for v in invariants
        ],
        "underlying": {
            "kind": _TOP_KIND_NAMES[report.topology.underlying],
            "p": report.topology.p,
            "q": report.topology.q,
            "reason": report.topology.reason,
        },
        "singularComponents": sorted(report.topology.singular_components),
        "provenance": report.provenance,
    }
    if verification is not None:
        doc["verification"] = verification
    return doc
