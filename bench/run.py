"""One-command benchmark of collsim.

    python3 bench/run.py --workload forecast_large --seed 1 --seconds 10 --trace 0

Run from the root of a collsim checkout.  Each workload runs in child
processes (``worker.py``), one at a time: a few that only set up, for the
set-up time, then one that sets up and runs whole rounds of ops for
``--seconds`` seconds.  This process then checks every op's outputs, removes
them, and prints the metrics as the last line of standard output:

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the child also runs traced rounds and the metrics are the per-layer ones.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads
from worker import import_collsim

BENCH_DIR = Path(__file__).resolve().parent
SETUP_ONLY_CHILDREN = 4  # set-up time is the median over these and the measured child
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "paths_per_s": "paths/s", "peak_rss_mb": "MB"}


def spawn(worker_args, tmp, deadline):
    """Run a worker; returns its result and the monotonic time it was started."""
    with tempfile.TemporaryDirectory(dir=tmp) as d:
        result_path = Path(d) / "result.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *worker_args, "--result", str(result_path)]
        t_spawn = time.monotonic()
        # the child's chatter goes to stderr so that stdout ends with the result
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(deadline - t_spawn, 1.0))
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text()), t_spawn


def layer_metrics(result, op_s):
    """Per-op medians of the traced rounds' layer metrics, with units."""
    rows = result["layer_rows"]
    traced = [t for rec in result["records"] if rec["phase"] == "traced" for t in rec["op_s"]]
    values = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    values["simulator.run_plan_peak_mb"] = result["run_plan_peak_mb"]
    values["trace.overhead_s"] = statistics.median(traced) - op_s
    if result["missing"]:
        print(f"traced names no longer in collsim: {', '.join(result['missing'])}", file=sys.stderr)
    available = set(result["available"])
    return {
        m: {"value": values[m], "unit": unit}
        for m, (unit, _) in tracing.LAYER_METRICS.items()
        if tracing.metric_available(m, available)
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    import_collsim()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    tmp_root = BENCH_DIR / "tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        setups = []
        for _ in range(SETUP_ONLY_CHILDREN):
            res, t0 = spawn(base + ["--setup-only", "--out", str(run_dir)], run_dir, deadline)
            setups.append(res["ready"] - t0)
        worker_args = base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(run_dir / "ops")]
        if args.trace:
            results_dir = BENCH_DIR / "results"
            results_dir.mkdir(exist_ok=True)
            worker_args += ["--spans", str(results_dir / f"{args.workload}-seed{args.seed}-spans.json")]
        result, t0 = spawn(worker_args, run_dir, deadline)
        setups.append(result["ready"] - t0)

        records = result["records"]
        plain = [r for r in records if r["phase"] == "plain"]
        # an op that fails fast must not read as a faster op
        done = [r for r in plain if not r["failed"]]
        op_s = statistics.median(t for r in (done or plain) for t in r["op_s"])
        paths = sum(workload.paths(r) for r in done)
        busy = sum(t for r in done for t in r["op_s"])
        attempted = workload.ops_per_round * len(records)
        failed = sum(r["failed"] for r in records)
        results = workload.check(records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for c in results:
        print(f"{args.workload} check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(result, op_s)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": op_s,
            "paths_per_s": paths / busy if busy else 0.0,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    for m, v in metrics.items():
        print(f"{args.workload} {m} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps({
        # the checks cover the ops that completed; a run whose ops all failed
        # has nothing checked and is not correct
        "correct": bool(results) and all(c.ok for c in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
