"""Workload definitions, per-spec work and output checks of the benchmark.

Each workload is the exhaustive list of specs below an order bound, as in
the paper's sweeps; the seed permutes only the processing order.  The
orbiseif package is imported from the `src/` directory of the checkout
this file sits in, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "orbiseif" / "__init__.py").is_file():
    raise ImportError(f"orbiseif sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from orbiseif import cli, engine, groups, verify  # noqa: E402

CIRCLE_FAMILIES = ("1", "1p", "11", "11p")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" (verify.compare_spec) or "tabulate"
    families: tuple
    max_order: int
    expected_specs: int
    # tabulate only: family -> digest of the canonical engine fields
    digests: dict = field(default_factory=dict)


# Per-family digests of the canonical engine fields at order <= 120,
# recorded from the engine that the oracle sweeps verified.  Family 19
# has no group of rotation order below 240, so it has no entry.
TABULATE_DIGESTS = {
    "1": "7e5cdae0c65bb6b0", "1p": "929da08e12f8d76c", "11": "ec918e9f2e232c99",
    "11p": "844f41e2d71c4fb6", "2": "e6641809b2d48d82", "3": "e9f4e573e190f63f",
    "4": "71f44cfb0ecfe501", "5": "0560005cb049033f", "6": "7b53ad9dd5a656cd",
    "7": "2bcf51d5b76485ac", "8": "b4bea52f2b85bc5b", "9": "eb6be9fa327c9167",
    "10": "dcb8a15a9b7063ba", "12": "65989db818027896", "13": "01afc611739c310e",
    "14": "3a0618927a186ff6", "15": "96b99bf6aae99b1f", "16": "e93951ae03916560",
    "17": "2af9d85066b190ab", "18": "a39562494be071e1", "33": "c9548e9b792741b1",
    "33p": "3a3e3167531b810e", "34": "667db0bb34aefc3b", "2bis": "5e3dc29a02251009",
    "3bis": "4bfe4155addcad92", "4bis": "8923d9ae3a622fa5", "13bis": "1805b04c7c6dcd37",
    "34bis": "594dfeb36ee882e7",
}

WORKLOADS = {
    # Element-grid build and the exact circle oracle; sphere and disc
    # bases both occur.
    "circle-sweep": Workload("circle-sweep", "sweep", CIRCLE_FAMILIES, 60,
                             3776),
    # Q(sqrt2, sqrt5) arithmetic, rebuilds of T*, O*, I* and the float
    # oracle path.  A few large polyhedral groups set the tail; order 150
    # leaves 11 specs above the 99th percentile.
    "table4-sweep": Workload("table4-sweep", "sweep",
                             tuple(groups.TABLE4_FAMILIES), 150, 1170),
    # evaluate + report_json without verification: engine, cli and
    # enumeration dominate while groups and oracle sit idle.
    "tabulate": Workload("tabulate", "tabulate",
                         tuple(groups.FIBERED_FAMILIES), 120, 15887,
                         TABULATE_DIGESTS),
}

# The bounds keep one pass at 2-5 s on one core, so that a run repeats
# it often enough for each spec's minimum latency to settle.


def enumerate_rows(families, max_order):
    """Enumerated rows of the fibered families, as `verify.sweep_specs`
    selects them; called through the module so a tracer sees it."""
    names = [f for f in families if groups.get_family(f).fibered]
    return groups.enumerate_specs(max_order, names)


def processing_order(count: int, seed: int, pass_no: int) -> list:
    """Spec indices in the order of one pass; each pass reshuffles."""
    order = list(range(count))
    random.Random(f"{seed}:{pass_no}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# per-spec work, timed by the caller
# ---------------------------------------------------------------------------

def sweep_work(spec):
    return verify.compare_spec(spec)


def tabulate_work(spec):
    report = engine.evaluate(spec)
    return report, cli.report_json(report)


WORK = {"sweep": sweep_work, "tabulate": tabulate_work}


# ---------------------------------------------------------------------------
# output checks, outside the timed region
# ---------------------------------------------------------------------------

def canonical_fields(report) -> str:
    """The engine fields the tabulate digest covers: normalized base,
    Euler number, invariant multiset, xi and lens class.  The JSON text
    is left out so that added output fields keep the digest valid."""
    seifert, top = report.seifert, report.topology
    base = seifert.base.normalized()
    return repr((str(report.spec), base.kind, tuple(base.cones),
                 tuple(base.corners), seifert.euler.numerator,
                 seifert.euler.denominator,
                 verify.invariant_multiset(seifert), seifert.xi,
                 top.underlying, top.p, top.q))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


class PassChecker:
    """Collects the failures of one pass over a workload's specs."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.failed = set()        # spec indices
        self.errors = []           # first few failure descriptions
        self.lines = {}            # family -> canonical lines (tabulate)

    def _fail(self, index, spec, what):
        self.failed.add(index)
        if len(self.errors) < 10:
            self.errors.append(f"{spec}: {what}")

    def raised(self, index, spec, exc):
        self._fail(index, spec, f"raised {type(exc).__name__}: {exc}")

    def check(self, index, spec, output):
        if self.workload.kind == "sweep":
            if not output.ok:
                self._fail(index, spec, "; ".join(output.differences))
            return
        report, _ = output
        residue = engine.somma_residue(report.seifert)
        if residue.denominator != 1:
            self._fail(index, spec, f"invariant sum {residue} not integral")
        self.lines.setdefault(spec.family, []).append(canonical_fields(report))

    def finish(self, rows) -> set:
        """Failed spec indices once per-family digests are compared."""
        if self.workload.kind == "tabulate":
            digests = self.workload.digests
            for family in sorted(set(digests) | set(self.lines)):
                got = digest(self.lines.get(family, ()))
                expected = digests.get(family)
                if got != expected:
                    bad = [i for i, row in enumerate(rows)
                           if row.spec.family == family]
                    self.failed.update(bad)
                    if len(self.errors) < 10:
                        self.errors.append(f"family {family}: digest {got}, "
                                           f"recorded {expected}")
        return self.failed
