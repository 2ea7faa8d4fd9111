"""Benchmark of orbiseif: sweep throughput, per-spec latency and per-layer time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each of
them in a fresh interpreter.  The load is a closed loop with one caller:
one spec at a time, the next only after the previous returns.  With
`--trace 0` the run repeats whole passes over the workload's specs (each
in a new seeded order) for about S seconds and reports the end-to-end
metrics, with every time scaled by the reference loop of reference.py.  With `--trace 1` it makes one untraced and one traced pass
in catalog order and reports the per-layer metrics; the spans are
written to .perfbench-out/<workload>.spans.json.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

try:
    import reference
    import tracing
    import workloads as wl
except ImportError as exc:  # no orbiseif sources next to the benchmark
    reference = tracing = wl = None
    IMPORT_ERROR = exc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 15
SLOWEST = 10
SPAN_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}

END_TO_END = {
    "specs_per_s": "1/s",
    "spec_p50_ms": "ms",
    "spec_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "groups.goursat_group.calls": "count",
    "groups.goursat_group.busy_s": "s",
    "groups.goursat_group.self_s": "s",
    "groups.standard_group.calls": "count",
    "groups.standard_group.busy_s": "s",
    "groups.elements_built": "count",
    "groups.enumerate_specs.busy_s": "s",
    "oracle.oracle_report.busy_s": "s",
    "oracle.oracle_report.self_s": "s",
    "oracle.base_group.busy_s": "s",
    "oracle.euler_oracle.busy_s": "s",
    "oracle.exceptional_fibers_oracle.busy_s": "s",
    "oracle.lens_oracle.busy_s": "s",
    "engine.evaluate.calls": "count",
    "engine.evaluate.busy_s": "s",
    "engine.derived_quantities.hit_ratio": "ratio",
    "engine.derived_quantities.hits": "count",
    "engine.derived_quantities.misses": "count",
    "cli.report_json.busy_s": "s",
    "verify.compare_spec.self_s": "s",
    "fractions.Fraction.new.calls": "count",
    "exactfield.QuadFieldElement.mul.calls": "count",
    "quaternions.PairElement.multiply.calls": "count",
    "quaternions.multiply.calls": "count",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(),
            "workload": workload.name, "families": list(workload.families),
            "max_order": workload.max_order, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds(workload, seed) -> tuple:
    """Import plus enumeration up to the first spec, in a fresh interpreter;
    the reference scale measured there just after; the probe's wall time."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(workload.max_order),
         str(seed), ",".join(workload.families)],
        capture_output=True, text=True, check=True, timeout=120)
    elapsed, scale = done.stdout.split()[-2:]
    return float(elapsed), float(scale), perf_counter() - start


class Pass:
    """One closed-loop pass over the workload's specs in a given order.

    `took[i]` is spec i's time in nanoseconds and `burst[i]` the index of
    the reference run just before it (-1 without a `ref`).  Both are flat
    arrays, so that the samples hardly move `peak_rss_mb`.
    """

    def __init__(self, workload, rows, order, ref=None, tracer=None):
        # every pass starts with the engine's cache as a fresh process has it
        wl.engine._derived_quantities_cached.cache_clear()
        work = wl.WORK[workload.kind]
        checker = wl.PassChecker(workload)
        self.took = array("q", [0]) * len(rows)
        self.burst = array("q", [-1]) * len(rows)
        for index in order:
            spec = rows[index].spec
            if ref is not None:
                self.burst[index] = ref.tick()
            if tracer is not None:
                tracer.spec = index
            start = perf_counter_ns()
            try:
                output = work(spec)
            except Exception as exc:  # counted as failed; the loop goes on
                output = exc
            self.took[index] = perf_counter_ns() - start
            if isinstance(output, Exception):
                checker.raised(index, spec, output)
            else:
                checker.check(index, spec, output)
        self.ns = sum(self.took)
        self.attempted = len(order)
        self.cache = wl.engine._derived_quantities_cached.cache_info()
        self.failed = len(checker.finish(rows))
        self.errors = checker.errors


def p99_ms(sorted_ns):
    """Nearest-rank 99th percentile, lowered where needed so that ten
    samples lie above it, and the number of samples above it."""
    n = len(sorted_ns)
    rank = max(1, min(math.ceil(0.99 * n), n - 10))
    return sorted_ns[rank - 1] / 1e6, n - rank


def end_to_end(workload, rows, args):
    """Whole passes, each after one set-up probe, for about `seconds`,
    then the rest of the `SETUPS` probes.

    Every time is scaled by the reference loop around it (reference.py),
    which removes most of the shared host's phases of slower and faster
    cores.  A spec's latency is then its median over the passes, and
    `setup_s` the median over the probes.
    """
    ref = reference.Reference()
    probes, passes = [], []
    start = perf_counter()
    while True:
        probes.append(setup_seconds(workload, args.seed))
        order = wl.processing_order(len(rows), args.seed, len(passes))
        passes.append(Pass(workload, rows, order, ref))
        elapsed = perf_counter() - start
        probe_s = statistics.mean(wall for *_, wall in probes)
        rest = max(0, SETUPS - len(probes) - 1) * probe_s
        if elapsed * (len(passes) + 1) / len(passes) + rest > args.seconds:
            break
    while len(probes) < SETUPS:
        probes.append(setup_seconds(workload, args.seed))
    scales = ref.scales()
    scaled = [array("d", (ns * scales[b] for ns, b in zip(p.took, p.burst)))
              for p in passes]
    latency = sorted(statistics.median([ns[i] for ns in scaled])
                     for i in range(len(rows)))
    p99, above = p99_ms(latency)
    metrics = {
        "specs_per_s": len(latency) / (sum(latency) / 1e9),
        "spec_p50_ms": statistics.median(latency) / 1e6,
        "spec_p99_ms": p99,
        "setup_s": statistics.median(s * scale for s, scale, _ in probes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(passes),
              "setup_probes_s": [s for s, *_ in probes],
              "setup_probe_scales": [scale for _, scale, _ in probes],
              "setup_s_unscaled": statistics.median(s for s, *_ in probes),
              "samples_above_p99": above,
              "reference_scale_median": statistics.median(scales),
              "pass_specs_per_s_unscaled":
                  [p.attempted / (p.ns / 1e9) for p in passes]}
    return metrics, END_TO_END, passes, detail


def per_layer(workload, rows, args):
    """One untraced and one traced pass, both in catalog order.

    Catalog order is the order `orbiseif verify` uses, and it makes every
    count, the engine cache's hits and misses too, the same for any seed.
    """
    tracer = tracing.Tracer()
    with tracer:
        wl.enumerate_rows(workload.families, workload.max_order)
    order = range(len(rows))
    plain = Pass(workload, rows, order)
    with tracer:
        traced = Pass(workload, rows, order, tracer=tracer)
    layers = tracer.layer_times()
    span_names = {name for _, _, name in tracing.SPANS}
    metrics = {}
    for key in PER_LAYER:
        span, what = key.rsplit(".", 1)
        if span in span_names:
            metrics[key] = layers.get(span, (0, 0.0, 0.0))[SPAN_FIELDS[what]]
        else:
            metrics[key] = tracer.counts[key]
    hits, misses = traced.cache.hits, traced.cache.misses
    metrics.update({
        "engine.derived_quantities.hits": hits,
        "engine.derived_quantities.misses": misses,
        "engine.derived_quantities.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead_frac": traced.ns / plain.ns - 1,
    })

    slowest = sorted(zip(plain.took, range(len(rows))),
                     reverse=True)[:SLOWEST]
    detail = {"slowest": [
        {"spec": str(rows[i].spec), "family": rows[i].spec.family,
         "params": rows[i].spec.params(), "group_order": 2 * rows[i].phi_order,
         "ms": ns / 1e6} for ns, i in slowest]}
    path = OUT / f"{workload.name}.spans.json"
    tracer.write(path, [str(row.spec) for row in rows])
    detail["spans_file"] = str(path)
    return metrics, PER_LAYER, [plain, traced], detail


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_workload(workload, args) -> int:
    rows = wl.enumerate_rows(workload.families, workload.max_order)
    measure = per_layer if args.trace else end_to_end
    values, units, passes, detail = measure(workload, rows, args)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors][:SLOWEST]
    if len(rows) != workload.expected_specs:
        failed += abs(len(rows) - workload.expected_specs)
        errors.insert(0, f"{len(rows)} specs, expected "
                         f"{workload.expected_specs}")
    correct = failed == 0

    print(f"workload {workload.name}: {len(rows)} specs, order <= "
          f"{workload.max_order}, seed {args.seed}, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<42} {failed / attempted:>14.6g} "
          f"({failed} of {attempted})")
    for entry in detail.get("slowest", ()):
        print(f"  slow {entry['ms']:10.2f} ms  |G|={entry['group_order']:<6} "
              f"{entry['spec']}")
    for error in errors:
        print(f"  FAILED {error}")
    info = {"environment": environment(workload, args),
            "failed_frac": failed / attempted, "errors": errors, **detail}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


def run_all(names, args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 and not lines:
            return done.returncode
        result = json.loads(lines[-1])
        code = code or done.returncode
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    if wl is None:
        print(f"error: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    args = parse_args(argv, wl.WORKLOADS)
    if args.workload == "all":
        return run_all(list(wl.WORKLOADS), args)
    return run_workload(wl.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
