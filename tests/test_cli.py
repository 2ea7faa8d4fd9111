"""Command-line interface: output formats, round trips, exit codes."""

import ast
import concurrent.futures
import gc
import json
import os
import pathlib
import sys
import tracemalloc

import pytest

from orbiseif import cli, verify
from orbiseif.cli import MAX_VERIFY_ORDER, main, report_from_dict, report_json
from orbiseif.engine import evaluate
from orbiseif.groups import FamilySpec, UnsupportedFamilyError, require_fibered
from enumerate_reference import enumerate_text, reference_enumerate
from test_oracle import _run_optimized, _run_python


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_icosahedral(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "9", "-m", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["euler"] == {"num": -1, "den": 30}
    assert doc["base"]["kind"] == "Sphere"
    assert doc["base"]["cones"] == [2, 3, 5]
    assert doc["underlying"]["kind"] == "NotComputed"


def test_compute_text_projective_space(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "1",
                           "-m", "1", "-n", "1", "-r", "1", "-s", "1")
    assert code == 0
    assert "L(2,1)" in out


def test_compute_invalid_parameters_exit_1(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "1p",
                           "-m", "2", "-n", "1", "-r", "2", "-s", "1")
    assert code == 1
    assert "m must be odd" in err


@pytest.mark.parametrize("r, s", [(1, 2), (3, 4), (4, 5)])
def test_compute_s_outside_catalog_range_exit_1(capsys, r, s):
    """s runs over 1..r-1, and is 1 when r = 1, as in the catalog: a
    larger s is refused rather than read through a negative conjugate
    representative or printed with invariants off its range."""
    code, out, err = run_cli(capsys, "compute", "--family", "1", "-m", "1",
                             "-n", "3", "-r", str(r), "-s", str(s))
    assert (code, out) == (1, "")
    assert err == f"invalid: s must lie in 1..{max(r - 1, 1)}\n"


def test_compute_unsupported_family_exit_3(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "20")
    assert code == 3
    assert "no fibration" in err
    code, _, _ = run_cli(capsys, "compute", "--family", "nonsense")
    assert code == 3


def test_compute_non_fibered_family_uses_the_entry_check_wording(capsys):
    """compute words a non-fibered family as the engine's entry check
    does, and exits 3."""
    code, _, err = run_cli(capsys, "compute", "--family", "20")
    assert (code, err) == (3, "error: family 20 preserves no fibration\n")
    try:
        require_fibered(FamilySpec("20"))
    except UnsupportedFamilyError as exc:
        assert err == f"error: {exc}\n"
    else:
        raise AssertionError("family 20 passed the entry check")


def test_compute_with_verification(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "2",
                           "-m", "2", "-n", "3", "--verify")
    assert code == 0
    assert "agrees" in out


def test_json_round_trip_and_determinism(capsys):
    report = evaluate(FamilySpec("10", m=2, n=3))
    text = report_json(report)
    assert report_from_dict(json.loads(text)) == report
    assert report_json(report) == text
    code1, out1, _ = run_cli(capsys, "compute", "--family", "34",
                             "-m", "3", "-n", "5", "--json")
    code2, out2, _ = run_cli(capsys, "compute", "--family", "34",
                             "-m", "3", "-n", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_malformed_report_rejected_under_python_optimize():
    """The reader rebuilds every derived field and checks the spec with
    raised errors, not asserts, so python -O still rejects, as a
    ValueError, each of these reports: xi out of range or flipped, a zero
    invariant denominator, base cones that are not the invariant
    denominators, missing or empty params, a non-fibered family,
    invariants out of document order, a wrong index, and an Euler number
    that leaves the invariant sum fractional on a disc and on a sphere."""
    script = (
        "import sys\n"
        "import json\n"
        "from orbiseif.cli import report_from_dict, report_json\n"
        "from orbiseif.engine import evaluate\n"
        "from orbiseif.groups import FamilySpec\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "def disc_doc():\n"
        "    doc = json.loads(report_json(evaluate(FamilySpec('10', m=1, n=3))))\n"
        "    if doc['base']['kind'] != 'Disc' or len(doc['invariants']) != 2:\n"
        "        sys.exit('family 10 no longer has two invariants on a disc')\n"
        "    return doc\n"
        "def sphere_doc():\n"
        "    return json.loads(report_json(evaluate(FamilySpec('9', m=1))))\n"
        "cases = {}\n"
        "cases['xi 2'] = doc = disc_doc()\n"
        "doc['base']['xi'] = 2\n"
        "cases['xi flipped'] = doc = disc_doc()\n"
        "doc['base']['xi'] = 1 - doc['base']['xi']\n"
        "cases['den 0'] = doc = disc_doc()\n"
        "doc['invariants'][0]['den'] = 0\n"
        "cases['cones'] = doc = disc_doc()\n"
        "doc['base']['cones'] = [7]\n"
        "cases['no params'] = doc = disc_doc()\n"
        "del doc['params']\n"
        "cases['empty params'] = doc = disc_doc()\n"
        "doc['params'] = {}\n"
        "cases['non-fibered'] = doc = disc_doc()\n"
        "doc['family'], doc['params'] = '20', {}\n"
        "cases['order'] = doc = disc_doc()\n"
        "doc['invariants'].reverse()\n"
        "cases['index'] = doc = disc_doc()\n"
        "doc['invariants'][0]['index'] += 1\n"
        "cases['disc euler'] = doc = disc_doc()\n"
        "doc['euler'] = {'num': 1, 'den': 7}\n"
        "cases['sphere euler'] = doc = sphere_doc()\n"
        "doc['euler'] = {'num': -1, 'den': 29}\n"
        "for name, doc in cases.items():\n"
        "    try:\n"
        "        report_from_dict(doc)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit(f'the malformed report {name!r} was accepted')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mirror_and_normalized_flags(capsys):
    _, plain, _ = run_cli(capsys, "compute", "--family", "9", "-m", "1", "--json")
    _, mirrored, _ = run_cli(capsys, "compute", "--family", "9", "-m", "1",
                             "--json", "--mirror")
    assert json.loads(mirrored)["euler"] == {"num": 1, "den": 30}
    nums = sorted((v["num"], v["den"])
                  for v in json.loads(mirrored)["invariants"])
    assert nums == [(1, 2), (2, 3), (4, 5)]
    _, normalized, _ = run_cli(capsys, "compute", "--family", "1", "-m", "1",
                               "-n", "1", "-r", "2", "-s", "1",
                               "--json", "--normalized")
    assert all(v["num"] == v["normalizedNum"]
               for v in json.loads(normalized)["invariants"])


def test_enumerate_bounds_and_fibered_flags(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "24",
                           "--families", "9")
    assert code == 0
    assert "total: 0 groups" in out

    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "120",
                           "--families", "30,31", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"family": "31", "params": {}, "phiOrder": 120,
                     "fibered": False}]

    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "8",
                           "--families", "1", "--json")
    rows = json.loads(out)
    assert all(row["phiOrder"] <= 8 for row in rows)
    assert {tuple(sorted(r["params"].items())) for r in rows} >= \
        {(("m", 1), ("n", 1), ("r", 2), ("s", 1))}


class _Discard:
    def write(self, text):
        return len(text)


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_enumerate_text_is_written_one_line_at_a_time(monkeypatch):
    """`enumerate` writes each line of its text, header and total
    included, with one write, and the lines are those of the f-string
    layout, over every family at order 60, non-fibered rows included."""
    rows = reference_enumerate(60)
    assert {row.fibered for row in rows} == {True, False}
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--max-order", "60"]) == 0
    assert "".join(out.writes) == enumerate_text(rows)
    assert len(out.writes) == len(rows) + 2


def test_enumerate_json_keeps_nothing_behind():
    """`enumerate --json` writes each row as it is formatted.  A warm-up
    call at order 24 meets every parameter signature, so it fills the
    per-shape templates; the call at order 120 after it then leaves
    about 0.001 MB allocated, while a cache on the per-row formatting
    keeps about 5 MB of rows the warm-up did not see."""
    def enumerate_json(order):
        args = cli._build_parser().parse_args(
            ["enumerate", "--max-order", str(order), "--json"])
        assert cli._cmd_enumerate(args, _Discard()) == 0

    enumerate_json(24)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        enumerate_json(120)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 1_000_000, f"{left / 1e6:.3f} MB left behind"


def test_enumerate_invalid_bound(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--max-order", "0")
    assert code == 1


def test_empty_family_selection_is_rejected(capsys):
    """An empty --families names no family: enumerate and verify both
    reject it instead of falling back to every family."""
    for command in ("enumerate", "verify"):
        code, out, err = run_cli(capsys, command, "--max-order", "10",
                                 "--families", "")
        assert code == 1, command
        assert out == "", command
        assert "unknown family identifier ''" in err, command


def test_verify_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "16",
                           "--families", "abelian,dihedral")
    assert code == 0
    assert "all agree" in out


def test_verify_bad_arguments(capsys):
    code, _, _ = run_cli(capsys, "verify", "--max-order", "0")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--max-order", "10",
                         "--families", "bogus")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--max-order", "10",
                         "--families", "20")
    assert code == 1


def test_verify_json_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "12",
                           "--families", "2,34", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []
    assert doc["checked"] > 0


def test_usage_error_exit_code(capsys):
    assert main(["compute"]) == 1
    assert main(["bogus-command"]) == 1


def test_verify_rejects_more_workers_than_cpus(monkeypatch, capsys):
    """A worker count above the CPU count exits with code 1 before any
    pool is created."""
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, err = run_cli(capsys, "verify", "--max-order", "8",
                           "--workers", "3")
    assert code == 1 and "3 workers requested" in err
    # at the cap the sweep runs; one worker needs no pool
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out, _ = run_cli(capsys, "verify", "--max-order", "8",
                           "--workers", "1")
    assert code == 0 and "all agree" in out


def test_import_leaves_the_process_pool_unloaded():
    """The pool machinery is imported only by a sweep with workers."""
    proc = _run_python("-c", "import sys, orbiseif.cli\n"
                       "sys.exit('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_argparse_and_json_unloaded():
    """`argparse` is imported only to parse a command line and `json` only
    to read a report back; the writer needs neither."""
    proc = _run_python("-c", "import sys, orbiseif, orbiseif.cli, orbiseif.verify\n"
                       "print(sorted({'argparse', 'json'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_writer_escapes_strings_as_the_json_module_does():
    assert cli._str is json.encoder.encode_basestring_ascii


def test_verify_rejects_fewer_than_one_worker(monkeypatch, capsys):
    """--workers below 1 exits with code 1 before anything is enumerated,
    like a count above the CPU cap."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started with fewer than one worker")

    monkeypatch.setattr(verify, "sweep_specs", refuse)
    monkeypatch.setattr(verify, "run_sweep", refuse)
    for count in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--max-order", "8",
                                 "--workers", count)
        assert code == 1 and out == "", count
        assert f"at least 1, not {count}" in err


def test_verify_order_limit_fails_before_any_build(monkeypatch, capsys):
    """A bound above MAX_VERIFY_ORDER, for `verify --max-order`,
    `enumerate --max-order` or the group of `compute --verify`, exits with
    code 1 during argument validation: nothing is enumerated, evaluated
    or built."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started for an oversized order")

    for owner, name in ((verify, "sweep_specs"), (verify, "run_sweep"),
                        (verify, "compare_spec"), (cli, "enumerate_specs"),
                        (cli, "evaluate")):
        monkeypatch.setattr(owner, name, refuse)
    too_big = str(MAX_VERIFY_ORDER + 1)
    for command in ("verify", "enumerate"):
        code, out, err = run_cli(capsys, command, "--max-order", too_big)
        assert code == 1 and out == "" and str(MAX_VERIFY_ORDER) in err
    # family 1 has rotation order 2*m*n*r
    code, _, err = run_cli(capsys, "compute", "--family", "1", "-m", "1",
                           "-n", "1", "-r", str(MAX_VERIFY_ORDER // 2 + 1),
                           "-s", "1", "--verify")
    assert code == 1 and str(MAX_VERIFY_ORDER) in err


def test_compute_huge_parameter_returns_promptly():
    """nu of the abelian box is read in closed form, not searched up to
    n: a family-1 spec with n = 3**40 evaluates well inside 30 s."""
    proc = _run_python("-m", "orbiseif.cli", "compute", "--family", "1",
                       "-m", "1", "-n", str(3 ** 40), "-r", "4", "-s", "3",
                       "--json", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["params"]["n"] == 3 ** 40


def test_no_module_reads_the_environment():
    """Configuration comes from the command line only: no module of the
    package reads os.environ or os.getenv."""
    package = pathlib.Path(cli.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            readers += [(path.name, name) for name in names
                        if name in ("environ", "environb", "getenv", "getenvb")]
    assert readers == []


def test_seifert_data_has_one_builder():
    """In the engine and the command line, SeifertData is constructed in
    `engine._row` only."""
    package = pathlib.Path(cli.__file__).parent
    sites = []
    for path in (package / "engine.py", package / "cli.py"):
        tree = ast.parse(path.read_text(), str(path))
        builder = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_row"]
        inside = {id(node) for def_ in builder for node in ast.walk(def_)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "SeifertData" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                sites.append((path.name, node.lineno, id(node) in inside))
    assert [site for site in sites if not site[2]] == []
    assert [name for name, _, _ in sites] == ["engine.py"]
