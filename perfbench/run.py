"""edgepir benchmark: one seeded workload, measured or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload medium --seed 1 --seconds 15 --trace 0

Workloads: medium, multirate, ingest, analytics (see README.md here);
BENCHMARK.json gates all but medium.
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
the per-layer metrics of a traced run.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
metrics that BENCHMARK.json declares; the lines before it are the report.

Each workload runs in a fresh worker process (worker.py) as a closed loop
with one client.  For ``--trace 0``, set-up is also timed in
SETUP_RUNS - 1 further fresh processes that stop after set-up, and
``setup_s`` is the median.  Results with machine info are also written to
``perfbench/out/BENCH_<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 3
DEADLINE_S = 170  # a run must end within 180 s
# end-to-end metrics printed where they apply but not declared in
# BENCHMARK.json, which needs every metric on every workload and never 0
EXTRA_UNITS = {"payload_bits_per_s": "bit/s", "R_measured": "bit/bit",
               "D_measured": "bit/bit", "failed_frac": "ratio"}


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


class WorkerFailed(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion; its set-up time is measured
    from just before the process starts."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", OUT]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not os.path.isdir(os.path.join(ROOT, "src", "edgepir")):
        print("no edgepir sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    try:
        if args.trace:
            runs = [spawn(args, "trace", deadline)]
        else:
            runs = [spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
            runs.append(spawn(args, "measure", deadline))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    res = runs[-1]
    failed = sum(res["failures"].values())
    attempted = res["attempted"]

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values = res["per_layer"]
    else:
        values = dict(res["metrics"], setup_s=statistics.median(r["setup_s"] for r in runs))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}

    info = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"ops attempted {attempted}  failed {failed}"
          + "".join(f"  {k}={v}" for k, v in sorted(res["failures"].items())))
    report = {}
    if args.trace:
        print(f"spans {res['spans']} written to {os.path.relpath(res['spans_file'], ROOT)}")
        print(f"{'per traced op':<34}{'calls':>12}{'ms':>12}{'self_ms':>12}{'ms/call':>12}")
        for call_key in sorted(k for k in values if k.endswith(".calls")):
            fn = call_key[:-len(".calls")]
            if fn + ".ms" in values:
                calls, ms = values[call_key], values[fn + ".ms"]
                print(f"  {fn:<32}{calls:>12.6g}{ms:>12.6g}"
                      f"{values[fn + '.self_ms']:>12.6g}{ms / calls:>12.6g}")
    else:
        print(f"setup_s samples {[round(r['setup_s'], 4) for r in runs]} (median reported)")
        print(f"op_tail_ms is p{res['tail_percentile']:.4g} over N={res['ops']} ops")
        print(f"upload bits per op {res['upload_bits_per_op']:.6g}")
        report = {k: {"value": v, "unit": EXTRA_UNITS[k]}
                  for k, v in res["metrics"].items() if k in EXTRA_UNITS}
    for name, m in list(metrics.items()) + list(report.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"BENCH_{label}.json"), "w") as fh:
        json.dump(dict(summary, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, machine=info, report=report,
                       failures=res["failures"], tail_percentile=res.get("tail_percentile"),
                       op_ms=res.get("op_ms"),
                       setup_samples=[r["setup_s"] for r in runs]), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
