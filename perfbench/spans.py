"""Spans and counters recorded around the public entry points of d1ring.

The tracer patches each entry point where its caller looks the name up
(a class attribute for methods and operators, a module attribute for
functions imported by name), keeps spans and counters in memory, and
restores every original on `uninstall`.  Nothing under src/ knows about
it; the benchmark installs it only for the traced pass.

Self time of a span is its duration minus the durations of the spans it
directly encloses.  Layers called hundreds of thousands of times per run
(`HOT`) are aggregated only; every other span is also kept as a record
(id, name, start, end, parent id, op id) and written out as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import d1ring.envelope as envelope
import d1ring.experiments as experiments
import d1ring.invert as invert
from d1ring.exactalg import Subspace
from d1ring.groupring import GroupRingElement
from d1ring.groups import GroupSpec
from d1ring.nuca import Nuca
from d1ring.twisted import TwistedElement, TwistedMatrix

HOT = frozenset(
    {"groups.ball", "groupring.mul", "twisted.mul", "twisted.add", "twisted.matmul"}
)
MAX_RECORDS = 250_000

# (name, per-layer quantities derived from spans and counters) in report order.
# "calls" and "self_s" come from the span statistics; the rest are counters.
LAYERS = (
    ("groups.ball", ("calls", "self_s")),
    ("groups.compose", ("calls",)),
    ("groupring.mul", ("calls", "self_s", "term_pairs")),
    ("twisted.mul", ("calls", "self_s")),
    ("twisted.add", ("calls", "self_s")),
    ("twisted.matmul", ("calls", "self_s")),
    ("exactalg.solve", ("calls", "self_s", "cells", "peak_cells", "infeasible")),
    ("exactalg.kernel_basis", ("calls", "self_s", "cells")),
    ("exactalg.subspace", ("calls", "self_s")),
    ("nuca.induced_local_map", ("calls", "self_s", "cells")),
    ("nuca.apply", ("calls", "self_s")),
    ("invert.solve_one_sided_inverse", ("calls", "self_s", "unknowns", "hit_ratio")),
    ("invert.verify_identity", ("calls", "self_s")),
    ("invert.finitely_supported_kernel", ("calls", "self_s", "hit_ratio")),
    ("invert.kernel_tower", ("calls", "self_s")),
    ("invert.verdict", ("calls", "self_s")),
    ("experiments.gen_unit", ("calls", "self_s")),
    ("experiments.suite", ("self_s",)),
    ("envelope.parse", ("calls", "self_s")),
    ("envelope.serialize", ("calls", "self_s", "bytes")),
)

UNITS = {"self_s": "s", "hit_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order; the
    trace.* metrics compare the traced pass with the untraced one."""
    units = {
        f"{layer}.{q}": UNITS.get(q, "count") for layer, quantities in LAYERS for q in quantities
    }
    return units | {
        "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
        "trace.overhead_ratio": "ratio", "trace.spans": "count",
    }


class Tracer:
    def __init__(self) -> None:
        self.op_id = None
        self._stack: list[list] = []  # [child time, span id] per open span
        self._stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self time
        self.counters: dict[str, float] = defaultdict(int)
        self.records: list[tuple] = []
        self.dropped = 0
        self.spans = 0
        self._compose_calls = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span named `name`; `after(args, result)` updates counters."""
        stack, stats, records = self._stack, self._stats[name], self.records
        keep = name not in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.spans += 1
            span_id = self.spans
            frame = [0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep:
                    if len(records) < MAX_RECORDS:
                        records.append(
                            (span_id, name, start, end, parent and parent[1], self.op_id)
                        )
                    else:
                        self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_compose(self, fn):
        calls = self._compose_calls

        def counted(*args):
            calls[0] += 1
            return fn(*args)

        return counted

    def wrap_op(self, fn):
        """`fn` as the root span of one op, traced only while it runs, so
        that whatever the caller does between ops is not counted.  Ops are
        numbered from 0."""
        traced = self.wrap("op", fn)

        def op(item):
            self.op_id = 0 if self.op_id is None else self.op_id + 1
            self.install()
            try:
                return traced(item)
            finally:
                self.uninstall()

        return op

    # -- counters --------------------------------------------------------------

    def _term_pairs(self, args, result):
        self.counters["groupring.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _solve(self, args, result):
        cells = args[0].rows * args[0].cols
        c = self.counters
        c["exactalg.solve.cells"] += cells
        c["exactalg.solve.peak_cells"] = max(c["exactalg.solve.peak_cells"], cells)
        c["exactalg.solve.infeasible"] += result is None

    def _kernel_basis(self, args, result):
        self.counters["exactalg.kernel_basis.cells"] += args[0].rows * args[0].cols

    def _local_map(self, args, result):
        self.counters["nuca.induced_local_map.cells"] += result.matrix.rows * result.matrix.cols

    def _inverse(self, args, result):
        t, params = args
        unknowns = len(params.memory_set) * t.n * t.n * (1 + len(params.exceptional_set))
        self.counters["invert.solve_one_sided_inverse.unknowns"] += unknowns
        self.counters["invert.solve_one_sided_inverse.hits"] += result is not None

    def _kernel(self, args, result):
        self.counters["invert.finitely_supported_kernel.hits"] += result is not None

    def _serialize(self, args, result):
        self.counters["envelope.serialize.bytes"] += len(result.encode("utf-8"))

    # -- install / report --------------------------------------------------------

    def install(self) -> None:
        def patch(owner, attr, make):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            self._patches.append((owner, attr, raw))

        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        patch(GroupSpec, "ball", span("groups.ball"))
        patch(GroupSpec, "compose", self._count_compose)
        patch(GroupRingElement, "__mul__", span("groupring.mul", self._term_pairs))
        patch(TwistedElement, "__mul__", span("twisted.mul"))
        patch(TwistedElement, "__add__", span("twisted.add"))
        patch(TwistedMatrix, "__matmul__", span("twisted.matmul"))
        patch(invert, "solve", span("exactalg.solve", self._solve))
        patch(invert, "kernel_basis", span("exactalg.kernel_basis", self._kernel_basis))
        patch(Subspace, "from_vectors", span("exactalg.subspace"))
        patch(Nuca, "induced_local_map", span("nuca.induced_local_map", self._local_map))
        patch(Nuca, "apply", span("nuca.apply"))
        patch(invert, "solve_one_sided_inverse", span("invert.solve_one_sided_inverse", self._inverse))
        patch(invert, "verify_identity", span("invert.verify_identity"))
        patch(experiments, "verify_identity", span("invert.verify_identity"))
        patch(invert, "finitely_supported_kernel", span("invert.finitely_supported_kernel", self._kernel))
        patch(invert, "kernel_tower", span("invert.kernel_tower"))
        patch(invert, "stable_injectivity_verdict", span("invert.verdict"))
        patch(experiments, "gen_unit", span("experiments.gen_unit"))
        patch(experiments, "run_surjunctivity_pipeline", span("experiments.suite"))
        patch(experiments, "run_direct_finiteness", span("experiments.suite"))
        patch(envelope, "parse_envelope", span("envelope.parse"))
        patch(envelope, "serialize_envelope", span("envelope.serialize", self._serialize))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a layer that was never called reports zeros."""
        c = dict(self.counters)
        c["groups.compose.calls"] = self._compose_calls[0]
        out: dict[str, float] = {}
        for layer, quantities in LAYERS:
            calls, self_s = self._stats[layer] if layer in self._stats else (0, 0.0)
            for q in quantities:
                name = f"{layer}.{q}"
                if q == "calls" and name not in c:
                    out[name] = calls
                elif q == "self_s":
                    out[name] = self_s
                elif q == "hit_ratio":
                    out[name] = c.get(f"{layer}.hits", 0) / calls if calls else 0.0
                else:
                    out[name] = c.get(name, 0)
        return out

    def write(self, path) -> None:
        """Span records, then aggregated statistics and counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), rec))))
                fh.write("\n")
            summary = {
                "spans": self.spans,
                "records": len(self.records),
                "dropped": self.dropped,
                "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(self._stats.items())},
                "counters": dict(sorted(self.counters.items()))
                | {"groups.compose.calls": self._compose_calls[0]},
            }
            fh.write(json.dumps(summary) + "\n")
