"""The JSON text of every `--json` output.

`cli` writes its JSON directly, without `json.dumps`.  These tests hold
it to the stdlib's text: `report_json` against the reference document of
`json_reference.py` on every fibered spec of order <= 120, with a digest
of all those texts pinned; the `enumerate` and `verify` documents and
every `compute --json` variant against their own re-encoding.
"""

import hashlib
import json

import pytest

from orbiseif import verify
from orbiseif.cli import main, report_from_dict, report_json
from orbiseif.engine import (
    EngineReport,
    evaluate,
    flip_orientation,
    normalize,
)
from orbiseif.verify import ComparisonResult, sweep_specs
from json_reference import reference_to_dict

# sha256 of the texts `_pinned_texts` lists, joined by newlines, as the
# stdlib encoder wrote them from the reference document
PINNED_DIGEST = "d7eee1f1c8793903758da1eca6bc556df7dfb287d4f0445980d862cb30e0e790"

AWKWARD = ['xi: engine "0", oracle "1"', "C:\\fibers", "two\nlines",
           "\u03c7 \u2260 2 at \u00f6", ""]
VERIFICATIONS = ({"ok": True, "differences": []},
                 {"ok": False, "differences": AWKWARD})


@pytest.fixture(scope="module")
def reports():
    return [evaluate(spec) for spec in sweep_specs(120)]


# the report as `compute --json` prints it plain, with `--mirror` and
# with `--normalized`
VARIANTS = {
    "plain": lambda report: report,
    "mirror": lambda report: EngineReport(
        report.spec, flip_orientation(report.seifert), report.topology,
        report.provenance + ", mirror orientation"),
    "normalized": lambda report: EngineReport(
        report.spec, normalize(report.seifert), report.topology,
        report.provenance),
}


def _stdlib_text(report, verification=None):
    return json.dumps(reference_to_dict(report, verification),
                      indent=2, sort_keys=True)


def _check_round_trip(report, text, verification=None):
    back = report_from_dict(json.loads(text))
    assert back == report, text
    assert report_json(back, verification) == text


@pytest.mark.parametrize("variant", VARIANTS)
def test_report_text_is_the_stdlib_text(reports, variant):
    """On all 15,887 fibered specs of order <= 120 the direct writer gives
    the stdlib's text of the reference document, and the text reads back
    to the same report."""
    for report in map(VARIANTS[variant], reports):
        text = report_json(report)
        assert text == _stdlib_text(report), report.spec
        _check_round_trip(report, text)


@pytest.mark.parametrize("verification", VERIFICATIONS,
                         ids=["agrees", "disagrees"])
def test_verification_payload_text(reports, verification):
    """The `verification` member, with quotes, a backslash, a newline,
    non-ASCII text and an empty string among the differences."""
    for report in reports[::997]:
        text = report_json(report, verification)
        assert text == _stdlib_text(report, verification), report.spec
        assert json.loads(text)["verification"] == verification
        _check_round_trip(report, text, verification)


def _pinned_texts(reports):
    texts = []
    for report in reports:
        texts += [report_json(variant(report))
                  for variant in VARIANTS.values()]
    for verification in VERIFICATIONS:
        texts += [report_json(report, verification)
                  for report in reports[::997]]
    return texts


def test_report_texts_match_the_pinned_digest(reports):
    texts = _pinned_texts(reports)
    assert len(texts) == 47_693
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == PINNED_DIGEST


def _stdout(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    assert code == 0, args
    return out


def _assert_stdlib_layout(out):
    expected = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    if out != expected:
        # the first differing line; a diff of megabyte texts takes minutes
        got, want = out.splitlines(True), expected.splitlines(True)
        line = next((i for i, pair in enumerate(zip(got, want))
                     if pair[0] != pair[1]), min(len(got), len(want)))
        pytest.fail(f"line {line + 1}: {got[line:line + 1]} != "
                    f"{want[line:line + 1]}")


@pytest.mark.parametrize("args", [
    ("enumerate", "--max-order", "120", "--json"),
    ("enumerate", "--max-order", "24", "--families", "9", "--json"),
    ("verify", "--max-order", "24", "--families", "all", "--json"),
], ids=["enumerate-120", "enumerate-empty", "verify-24"])
def test_enumerate_and_verify_json_layout(capsys, args):
    _assert_stdlib_layout(_stdout(capsys, *args))


def test_verify_json_layout_with_mismatches(monkeypatch, capsys):
    """The mismatch list, which a passing sweep leaves empty."""
    def fake_sweep(specs, workers=1):
        return [ComparisonResult(spec, AWKWARD if i % 2 else [])
                for i, spec in enumerate(specs)]

    monkeypatch.setattr(verify, "run_sweep", fake_sweep)
    code = main(["verify", "--max-order", "6", "--families", "1", "--json"])
    out = capsys.readouterr().out
    assert code == 2
    doc = json.loads(out)
    assert doc["mismatches"] and all(
        m["differences"] == AWKWARD for m in doc["mismatches"])
    _assert_stdlib_layout(out)


@pytest.mark.parametrize("flag", [None, "--mirror", "--normalized",
                                  "--verify"])
@pytest.mark.parametrize("spec", [
    ("1p", "-m", "3", "-n", "1", "-r", "2", "-s", "1"),
    ("9", "-m", "1"),
    ("10", "-m", "2", "-n", "3"),
    ("34", "-m", "3", "-n", "5"),
], ids=["1p(3,1,2,1)", "9(1)", "10(2,3)", "34(3,5)"])
def test_compute_json_is_a_fixed_point(capsys, spec, flag):
    family, *params = spec
    args = ["compute", "--family", family, *params, "--json"]
    _assert_stdlib_layout(_stdout(capsys, *args, *([flag] if flag else [])))
