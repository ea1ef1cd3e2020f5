"""Span tracing around edgepir's public functions, installed from outside.

The tracer replaces module attributes and class methods of the library with
thin wrappers, so nothing in ``src/`` knows it is being traced.  While
``Tracer.op`` is not None every wrapped call records one span
``[op, name, start_ns, end_ns, parent_index]``; with ``op`` None the
wrappers call straight through.  ``ExtField.mul``/``add`` get no span (they
run millions of times per session) but a call counter keyed by field order,
so symbol-field and base-field work are counted apart.

Spans stay in memory and are written out by :meth:`Tracer.write` when the
run ends.  A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

from edgepir import cache, codes, gf, optimizer, pirproto, rates, simnet, topology

# (owner, attribute, span name); owners are modules or classes
SPANNED = [
    (gf, "make_field", "gf.make_field"),
    (gf, "embed", "gf.embed"),
    (gf, "project", "gf.project"),
    (gf, "solve", "gf.solve"),
    (gf, "mat_vec", "gf.mat_vec"),
    (codes.LinearCode, "__init__", "codes.LinearCode"),
    (codes, "hadamard", "codes.hadamard"),
    (codes, "sum_code", "codes.sum_code"),
    (codes, "puncture", "codes.puncture"),
    (codes, "erasure_decode", "codes.erasure_decode"),
    (codes, "correctable", "codes.correctable"),
    (cache.EncodedCache, "__init__", "cache.EncodedCache"),
    (cache.EncodedCache, "cache_column", "cache.cache_column"),
    (cache.EncodedCache, "mbs_column", "cache.mbs_column"),
    (cache, "save_snapshot", "cache.save_snapshot"),
    (cache, "load_snapshot", "cache.load_snapshot"),
    (pirproto, "plan_protocol", "pirproto.plan_protocol"),
    (pirproto, "build_erasure_matrix", "pirproto.build_erasure_matrix"),
    (pirproto, "generate_queries", "pirproto.generate_queries"),
    (pirproto, "respond", "pirproto.respond"),
    (pirproto, "recover", "pirproto.recover"),
    (simnet, "run_retrieval", "simnet.run_retrieval"),
    (topology, "grid_gamma", "topology.grid_gamma"),
    (topology, "ppp_gamma", "topology.ppp_gamma"),
    (optimizer, "optimize_pir", "optimizer.optimize_pir"),
    (optimizer, "optimize_nopir", "optimizer.optimize_nopir"),
    (optimizer, "sweep_cache_size", "optimizer.sweep_cache_size"),
    (optimizer, "sweep_density", "optimizer.sweep_density"),
    (rates, "backhaul_pir", "rates.closed_forms"),
    (rates, "sbs_rate_pir", "rates.closed_forms"),
    (rates, "backhaul_nopir", "rates.closed_forms"),
]
COUNTED = [(gf.ExtField, "mul"), (gf.ExtField, "add")]
SETUP = "setup"  # op id of spans recorded while the workload is set up


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.field_calls = defaultdict(int)  # (op, "mul"/"add", order) -> calls
        self.plan_keys: set = set()
        self.plan_repeats = 0
        self.mbs_encoded = 0   # symbols out of gf.mat_vec inside mbs_column
        self.mbs_returned = 0  # symbols returned by mbs_column
        self._originals = {(owner, attr): owner.__dict__[attr]
                           for owner, attr, *_ in SPANNED + COUNTED}

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for owner, attr, name in SPANNED:
            setattr(owner, attr, self._span(name, self._originals[owner, attr]))
        for owner, attr in COUNTED:
            setattr(owner, attr, self._count(attr, self._originals[owner, attr]))

    def uninstall(self) -> None:
        for (owner, attr), fn in self._originals.items():
            setattr(owner, attr, fn)

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [op, name, perf_counter_ns(), 0, parent]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter_ns()
            self._observe(name, args, out, parent)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe(self, name, args, out, parent) -> None:
        """Counts taken at the boundary where the work happens (ops only)."""
        if self.op == SETUP:
            return
        if name == "pirproto.plan_protocol":
            cache_, T, n = args[:3]
            coords = tuple(args[3]) if len(args) > 3 and args[3] is not None \
                else tuple(range(n))
            key = (id(cache_), T, n, coords)
            self.plan_repeats += key in self.plan_keys
            self.plan_keys.add(key)
        elif name == "cache.mbs_column":
            self.mbs_returned += len(out)
        elif name == "gf.mat_vec" and parent >= 0 \
                and self.spans[parent][1] == "cache.mbs_column":
            self.mbs_encoded += len(out)

    def _count(self, kind, fn):
        calls = self.field_calls

        def wrapped(field, a, b):
            op = self.op
            if op is not None:
                calls[(op, kind, field.order)] += 1
            return fn(field, a, b)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- results --------------------------------------------------------
    def self_times(self) -> list[int]:
        """Self time (ns) of every span: duration minus direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i] + s) + "\n")

    def summary(self, op_seconds: float, n_ops: int, q: int,
                symbol_order: int) -> dict:
        """Per-layer metrics: per-op means over the traced ops, plus setup
        totals.  ``q`` and ``symbol_order`` identify the base and symbol
        fields for the field-call counters (0 when no field is used)."""
        own = self.self_times()
        per_op = defaultdict(float)
        setup = defaultdict(float)
        root_ns = 0
        for s, self_ns in zip(self.spans, own):
            op, name, t0, t1, parent = s
            if op == SETUP:
                setup[name] += (t1 - t0) / 1e6
                continue
            layer = name.split(".")[0]
            per_op[name + ".calls"] += 1
            per_op[name + ".ms"] += (t1 - t0) / 1e6
            per_op[name + ".self_ms"] += self_ns / 1e6
            per_op[layer + ".self_ms"] += self_ns / 1e6
            if parent < 0:
                root_ns += t1 - t0
        for (op, kind, order), calls in self.field_calls.items():
            if op == SETUP:
                continue
            if order == symbol_order:
                per_op[f"gf.{kind}.symbol_field.calls"] += calls
            elif order == q:
                per_op[f"gf.{kind}.base_field.calls"] += calls
        out = {name: value / n_ops for name, value in per_op.items()}
        plan_calls = per_op["pirproto.plan_protocol.calls"]
        out["pirproto.plan_protocol.repeat_share"] = (
            self.plan_repeats / plan_calls if plan_calls else 0.0)
        out["cache.mbs_column.encoded_per_returned"] = (
            self.mbs_encoded / self.mbs_returned if self.mbs_returned else 0.0)
        for name in ("gf.make_field", "gf.embed", "cache.EncodedCache"):
            out[name + ".setup_ms"] = setup[name]
        # an op's time not explained by a layer below its entry point: time
        # outside every span, plus run_retrieval's own code
        op_ns = op_seconds * 1e9
        uncovered = op_ns - root_ns + per_op["simnet.run_retrieval.self_ms"] * 1e6
        out["trace.covered_share"] = 1.0 - uncovered / op_ns if op_ns else 0.0
        return out
