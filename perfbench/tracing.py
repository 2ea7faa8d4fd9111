"""Spans and counters around the public functions of orbiseif's layers.

Each traced function is replaced where its caller binds it (for example
`verify.goursat_group`, the name `compare_spec` calls), so the program
itself is unchanged.  A span records its name, the span open when it
started, the spec being processed, and start and end in nanoseconds.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter_ns

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from orbiseif import (cli, engine, exactfield, groups, oracle, quaternions,
                      verify)

# (owner, attribute, span name): the owner is the namespace the caller
# reads the function from.
SPANS = (
    (verify, "compare_spec", "verify.compare_spec"),
    (verify, "evaluate", "engine.evaluate"),
    (engine, "evaluate", "engine.evaluate"),
    (verify, "goursat_group", "groups.goursat_group"),
    (groups, "standard_group", "groups.standard_group"),
    (groups, "enumerate_specs", "groups.enumerate_specs"),
    (verify, "oracle_report", "oracle.oracle_report"),
    (oracle, "base_group", "oracle.base_group"),
    (oracle, "euler_oracle", "oracle.euler_oracle"),
    (oracle, "exceptional_fibers_oracle", "oracle.exceptional_fibers_oracle"),
    (oracle, "lens_oracle", "oracle.lens_oracle"),
    (cli, "report_json", "cli.report_json"),
)

# (owner, attributes, counter name): every attribute shares one counter.
COUNTERS = (
    (Fraction, ("__new__",), "fractions.Fraction.new.calls"),
    (exactfield.QuadFieldElement, ("__mul__", "__rmul__"),
     "exactfield.QuadFieldElement.mul.calls"),
    (quaternions.PairElement, ("multiply",),
     "quaternions.PairElement.multiply.calls"),
    (groups, ("multiply",), "quaternions.multiply.calls"),
)


class Tracer:
    """Installs the wrappers on `__enter__` and removes them on exit."""

    def __init__(self):
        self.spans = []          # [name, parent id, spec id, start, end]
        self.stack = []
        self.spec = -1
        self.counts = Counter()
        self._saved = []

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.spec,
                      perf_counter_ns(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter_ns()
                stack.pop()
            if name == "groups.goursat_group":
                counts["groups.elements_built"] += result.order
            return result
        return traced

    def _count_wrapper(self, name, fn, static):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return staticmethod(counted) if static else counted

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr,
                          self._span_wrapper(name, getattr(owner, attr)))
        for owner, attrs, name in COUNTERS:
            for attr in attrs:
                static = isinstance(vars(owner)[attr], staticmethod)
                self._replace(owner, attr, self._count_wrapper(
                    name, getattr(owner, attr), static))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    # -- aggregation -------------------------------------------------------

    def layer_times(self):
        """name -> (calls, busy seconds, self seconds)."""
        child = [0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for i, (name, _, _, start, end) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return {name: (c, busy / 1e9, own / 1e9)
                for name, (c, busy, own) in out.items()}

    def write(self, path, spec_names):
        """Spans as columns: names are indexed, specs by their id."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "specs": spec_names,
               "columns": ["name", "parent", "spec", "start_ns", "end_ns"],
               "spans": [[index[s[0]], *s[1:]] for s in self.spans],
               "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
