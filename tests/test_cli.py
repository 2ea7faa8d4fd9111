"""Command-line interface: output formats, round trips, exit codes."""

import ast
import json
import os
import pathlib

from orbiseif import cli, verify
from orbiseif.cli import MAX_VERIFY_ORDER, main, report_from_dict, report_json
from orbiseif.engine import evaluate
from orbiseif.groups import FamilySpec
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


def test_compute_unsupported_family_exit_3(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "20")
    assert code == 3
    assert "no fibration" in err
    code, _, _ = run_cli(capsys, "compute", "--family", "nonsense")
    assert code == 3


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
    """The data-model checks on a JSON report are raised errors, not
    asserts, so python -O still rejects an out-of-range xi or a zero
    invariant denominator."""
    script = (
        "import sys\n"
        "from orbiseif.cli import report_from_dict, report_to_dict\n"
        "from orbiseif.engine import evaluate\n"
        "from orbiseif.groups import FamilySpec\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "def disc_doc():\n"
        "    doc = report_to_dict(evaluate(FamilySpec('10', m=1, n=3)))\n"
        "    assert doc['base']['kind'] == 'Disc'\n"
        "    return doc\n"
        "bad_xi = disc_doc()\n"
        "bad_xi['base']['xi'] = 2\n"
        "zero_den = disc_doc()\n"
        "zero_den['invariants'][0]['den'] = 0\n"
        "for doc in (bad_xi, zero_den):\n"
        "    try:\n"
        "        report_from_dict(doc)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit('a malformed report was accepted')\n")
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


def test_enumerate_invalid_bound(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--max-order", "0")
    assert code == 1


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

    monkeypatch.setattr(verify, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, _, err = run_cli(capsys, "verify", "--max-order", "8",
                           "--workers", "3")
    assert code == 1 and "3 workers requested" in err
    # at the cap the sweep runs; one worker needs no pool
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out, _ = run_cli(capsys, "verify", "--max-order", "8",
                           "--workers", "1")
    assert code == 0 and "all agree" in out


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
