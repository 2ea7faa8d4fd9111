"""Self-test of the benchmark at tiny order bounds.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads
from workloads import Workload

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "tiny-circle": Workload("tiny-circle", "sweep", workloads.CIRCLE_FAMILIES,
                            12, 160),
    "tiny-table4": Workload("tiny-table4", "sweep",
                            tuple(workloads.groups.TABLE4_FAMILIES), 24, 108),
    "tiny-tabulate": Workload(
        "tiny-tabulate", "tabulate",
        tuple(workloads.groups.FIBERED_FAMILIES), 24, 726, {
            "1": "2168f5ce7cc4ad3d", "1p": "e0a5b3123ef532e0",
            "11": "51b457e78b437edb", "11p": "132810f2a45b9801",
            "2": "dc9deb78a8b9ca10", "3": "aaa1bed692ea8770",
            "4": "30431a751d1d74b3", "5": "c1d73ae01ec7bb91",
            "6": "b0ae7c380cb2c502", "10": "ecdc10c73770986d",
            "12": "b8da34a8dcbc7ffe", "13": "b64cb96291a341fd",
            "34": "fa742295f2f592a8", "2bis": "b7ca9dc26446ee8e",
            "3bis": "818cf0607e71dd19", "4bis": "3b02e8b77e180004",
            "13bis": "611f7606b1bb2323", "34bis": "a74cabdd1478a516"}),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "OUT", tmp_path)


def bench(capsys, name, trace=0):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def wrong_euler(evaluate):
    def wrong(spec, *args, **kwargs):
        report = evaluate(spec, *args, **kwargs)
        seifert = dataclasses.replace(report.seifert,
                                      euler=report.seifert.euler + 1)
        return dataclasses.replace(report, seifert=seifert)
    return wrong


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, name,
                                                     trace):
    code, result = bench(capsys, name, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY[name].expected_specs
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_traced_counts_repeat_exactly(tiny, capsys):
    counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    first = bench(capsys, "tiny-table4", 1)[1]["metrics"]
    second = bench(capsys, "tiny-table4", 1)[1]["metrics"]
    assert [first[k] for k in counts] == [second[k] for k in counts]
    assert first["fractions.Fraction.new.calls"]["value"] > 0


def test_reference_scale_follows_the_local_loop_time():
    ref = reference.Reference()
    quiet = reference.REFERENCE_NS
    ref.bursts = [quiet] * 60 + [2 * quiet] * 60
    scales = ref.scales()
    assert scales[0] == 1.0 and scales[-1] == 0.5


def test_wrong_engine_result_fails_a_sweep(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads.verify, "evaluate",
                        wrong_euler(workloads.verify.evaluate))
    code, result = bench(capsys, "tiny-circle")
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"]


def test_wrong_engine_result_fails_tabulate(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads.engine, "evaluate",
                        wrong_euler(workloads.engine.evaluate))
    code, result = bench(capsys, "tiny-tabulate")
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "circle-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
