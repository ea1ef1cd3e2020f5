"""One benchmark process: set up one workload, then measure or trace it.

run.py starts this script; it is not meant to be run by hand.  Modes:

* ``setup``: set up (imports, fields, cache, one warm-up op) and stop;
* ``measure``: set up, then run ops in a closed loop for ``--seconds``;
* ``trace``: set up with spans on (for the set-up stats), run ops untraced
  for half of ``--seconds``, then replay exactly those ops traced.

The last line on stdout is one JSON object; ``setup_done`` in it is the
``time.monotonic()`` reading when set-up ended, which run.py subtracts from
its own reading at process start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import spans
import workloads


class Loop:
    """Outcome of a closed loop with one client."""

    def __init__(self):
        self.attempted = 0
        self.durations: list[float] = []  # seconds, ops that passed their check
        self.op_seconds = 0.0             # time in every attempted op
        self.failures: Counter = Counter()
        self.totals: Counter = Counter()


def run_ops(wl, seconds=None, count=None, tracer=None) -> Loop:
    """Run ops 0, 1, ... until ``seconds`` have passed or ``count`` ops ran.
    Only ``wl.op`` is timed; each op and its check run under their own
    catch, and an exception or a wrong output is one failure."""
    res = Loop()
    end = time.perf_counter() + seconds if seconds is not None else None
    i = 0
    while count is None or i < count:
        failed = None
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:
            failed = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if failed is None:
            try:
                res.totals.update(wl.check(i, out))
            except Exception as exc:
                failed = exc
        if failed is None:
            res.durations.append(dt)
        else:
            kind = type(failed).__name__
            if not res.failures[kind]:
                traceback.print_exception(failed, file=sys.stderr)
            res.failures[kind] += 1
        res.op_seconds += dt
        i += 1
        if end is not None and time.perf_counter() >= end:
            break
    res.attempted = i
    return res


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten ops
    beyond it.  Below 20 ops no percentile at or above the median has ten
    ops beyond it, so the maximum (p100) is reported instead."""
    xs = sorted(durations)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def end_to_end(res: Loop) -> dict:
    ms = [d * 1e3 for d in res.durations]
    pct, tail_ms = tail(ms) if ms else (100.0, 0.0)
    t = res.totals
    out = {
        "ops_per_s": len(ms) / res.op_seconds if res.op_seconds else 0.0,
        "op_p50_ms": statistics.median(ms) if ms else 0.0,
        "op_tail_ms": tail_ms,
        "failed_frac": sum(res.failures.values()) / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if t["payload_bits"]:
        out["payload_bits_per_s"] = t["payload_bits"] / res.op_seconds
    if t["file_bits"]:
        out["R_measured"] = t["mbs_bits"] / t["file_bits"]
        out["D_measured"] = t["sbs_bits"] / t["file_bits"]
    return {"metrics": out, "tail_percentile": pct, "ops": len(ms), "op_ms": ms,
            "upload_bits_per_op": t["upload_bits"] / res.attempted}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
        tracer.op = spans.SETUP
    try:
        wl.setup(args.workdir)
        result = {"setup_done": time.monotonic()}
        if args.mode == "measure":
            wl.reset()
            res = run_ops(wl, seconds=args.seconds)
            result.update(end_to_end(res), attempted=res.attempted,
                          failures=dict(res.failures))
        elif args.mode == "trace":
            tracer.op = None
            tracer.uninstall()
            wl.reset()
            plain = run_ops(wl, seconds=args.seconds / 2)
            tracer.install()
            wl.reset()
            traced = run_ops(wl, count=plain.attempted, tracer=tracer)
            tracer.uninstall()
            layers = tracer.summary(traced.op_seconds, traced.attempted,
                                    wl.q, wl.symbol_order)
            plain_rate = plain.attempted / plain.op_seconds
            traced_rate = traced.attempted / traced.op_seconds
            layers.update({
                "trace.ops": traced.attempted,
                "trace.untraced_ops_per_s": plain_rate,
                "trace.traced_ops_per_s": traced_rate,
                "trace.overhead": 1.0 - traced_rate / plain_rate,
            })
            path = os.path.join(args.workdir,
                                f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(path)
            result.update(per_layer=layers, spans=len(tracer.spans), spans_file=path,
                          attempted=plain.attempted + traced.attempted,
                          failures=dict(plain.failures + traced.failures))
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
