"""Spans and counts recorded from outside the program, at its module boundaries.

`Tracer.install` replaces each public function where one ringgraph module
calls another with a wrapper that records a span (name, start, end,
parent) and bumps counts; `uninstall` puts the originals back.  Every
module binding of a wrapped function is replaced, so calls through
`from .autsearch import isomorphism` are caught as well.  Spans stay in
memory until the pass ends.

Self time is a span's duration minus the time its child spans cover.  A
stabilizer chain is cached on its ring, so the chain's cost lands in
whichever of `aut_group_order` and `aut_orbits` first needs it.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import Counter, defaultdict

import ringgraph
from ringgraph import autsearch, classify, cli, orbitgraph, rings

_MODULES = (ringgraph, rings, autsearch, orbitgraph, classify, cli)

# sweep function -> theorem id, for the classify.verify.<theorem> spans
VERIFY_SWEEPS = {
    "verify_trivial_aut_classification": "trivial-aut",
    "verify_units_connected_classification": "units-connected",
    "verify_m_connected_classification": "m-connected",
    "verify_type_formulas": "type-formulas",
    "verify_involution_and_order_bounds": "involution",
    "verify_field_extension_connectivity": "field-ext",
    "verify_residue_field_remark": "residue-remark",
}


def _count_table_bytes(counts, ring):
    counts["rings.table_bytes"] += ring.add_table.nbytes + ring.mul_table.nbytes


def _count_found(counts, iso):
    counts["autsearch.isomorphism.found"] += iso is not None


def _count_elements(counts, group):
    counts["autsearch.automorphisms.elements"] += len(group)


def _count_entries(counts, catalog):
    counts["classify.catalog.entries"] += len(catalog.entries)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, func, args, kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()
            self.counts[name + ".calls"] += 1

    def _wrap(self, func, name, on_result=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = self._span(name, func, args, kwargs)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, func))

    def _wrap_fingerprints(self):
        """Span the first access of FiniteRing.fingerprints on each ring."""
        prop = rings.FiniteRing.__dict__["fingerprints"]
        seen = weakref.WeakSet()
        tracer = self

        def fget(ring):
            if ring in seen:
                return prop.fget(ring)
            seen.add(ring)
            return tracer._span("rings.fingerprints", prop.fget, (ring,), {})

        rings.FiniteRing.fingerprints = property(fget, doc=prop.__doc__)
        self._undo.append((rings.FiniteRing, "fingerprints", prop))

    def install(self):
        self._wrap(rings.make_ring, "rings.make_ring", _count_table_bytes)
        self._wrap(rings.decompose_local, "rings.decompose_local")
        self._wrap_fingerprints()
        self._wrap(autsearch.isomorphism, "autsearch.isomorphism", _count_found)
        self._wrap(autsearch.aut_group_order, "autsearch.aut_group_order")
        self._wrap(autsearch.aut_orbits, "autsearch.aut_orbits")
        self._wrap(autsearch.automorphisms, "autsearch.automorphisms", _count_elements)
        self._wrap(orbitgraph.aut_orbit_graph, "orbitgraph.aut_orbit_graph")
        self._wrap(cli.ring_summary, "cli.ring_summary")
        self._wrap(classify.build_catalog, "classify.build_catalog", _count_entries)
        for func_name, theorem in VERIFY_SWEEPS.items():
            self._wrap(getattr(classify, func_name), "classify.verify." + theorem)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), kids in zip(self.spans, child_ns):
            out[name] += (end - start - kids) / 1e9
        return dict(out)

    def covered_s(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e9

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


# per-layer metric name -> unit, reported for every workload (0 where a
# workload never enters the layer); run.py adds bench.trace_overhead_s
LAYER_UNITS = {
    "rings.make_ring.calls": "count",
    "rings.make_ring.s": "s",
    "rings.table_bytes": "bytes",
    "rings.fingerprints.calls": "count",
    "rings.fingerprints.s": "s",
    "rings.decompose_local.calls": "count",
    "rings.decompose_local.s": "s",
    "autsearch.isomorphism.calls": "count",
    "autsearch.isomorphism.s": "s",
    "autsearch.isomorphism.found_ratio": "ratio",
    "autsearch.aut_group_order.calls": "count",
    "autsearch.aut_group_order.s": "s",
    "autsearch.aut_orbits.calls": "count",
    "autsearch.aut_orbits.s": "s",
    "autsearch.automorphisms.calls": "count",
    "autsearch.automorphisms.s": "s",
    "autsearch.automorphisms.elements": "count",
    "orbitgraph.aut_orbit_graph.s": "s",
    "classify.build_catalog.s": "s",
    "classify.catalog.entries": "count",
    **{f"classify.verify.{t}.s": "s" for t in VERIFY_SWEEPS.values()},
    "bench.uncovered_s": "s",
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name.endswith(".s"):
            out[name] = selfs.get(name[: -len(".s")], 0.0)
        elif unit in ("count", "bytes"):
            out[name] = counts.get(name, 0)
    calls = counts.get("autsearch.isomorphism.calls", 0)
    out["autsearch.isomorphism.found_ratio"] = (
        counts.get("autsearch.isomorphism.found", 0) / calls if calls else 0.0
    )
    out["bench.uncovered_s"] = wall_s - tracer.covered_s()
    return out
