"""Child process of the benchmark: set up one workload and run its ops.

Started by ``run.py``.  It imports collsim from ``src/`` of the current
directory, builds the workload's inputs, notes the moment it is ready, warms
up (``coverage_small`` only), runs whole rounds of ops for the given number
of seconds and writes a JSON record of the rounds.  With ``--trace 1`` it
then runs rounds for as long again under the tracer, and one more round that
measures the ``tracemalloc`` peak inside ``run_plan``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


def import_collsim():
    """Import collsim from ``src/`` of the current directory, and nowhere else."""
    src = Path.cwd() / "src"
    if not (src / "collsim" / "__init__.py").is_file():
        raise SystemExit(f"no collsim sources under {src}: run from the root of a collsim checkout")
    sys.path.insert(0, str(src))
    import collsim

    if Path(collsim.__file__).resolve().parent != (src / "collsim").resolve():
        raise SystemExit(f"collsim imported from {collsim.__file__}, not from {src}")
    return collsim


def cpu_s():
    """User plus system CPU seconds of this process, all threads."""
    t = os.times()
    return t.user + t.system


def run_rounds(seconds, out_dir, phase, first_index, call):
    """Whole rounds of ops until ``seconds`` have passed (at least one)."""
    records = []
    t_start = time.perf_counter()
    while not records or time.perf_counter() - t_start < seconds:
        index = first_index + len(records)
        out = out_dir / f"{phase}-{index}"
        out.mkdir(parents=True)
        c0 = cpu_s()
        rec = call(index, out)
        rec.update(phase=phase, cpu_s=cpu_s() - c0)
        records.append(rec)
    return records


def traced_rounds(workload, seconds, out_dir, first_index, spans_path):
    """Rounds under the tracer: their records and per-op layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    traced = []  # (spans, counters, output directory) per round
    k = workload.ops_per_round

    def call(index, out):
        tracer.reset()
        rec = tracer.span_call(tracing.ROOT, workload.run_round, index, out)
        traced.append((list(tracer.spans), dict(tracer.counters), out))
        return rec

    try:
        records = run_rounds(seconds, out_dir, "traced", first_index, call)
    finally:
        tracer.restore()
    rows = []
    for rec, (spans, counters, out) in zip(records, traced):
        row = tracing.op_metrics(spans, counters, k)
        row["experiments.bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / k
        row["process.cpu_s"] = rec["cpu_s"] / k
        rows.append(row)
    kept = [s for spans, _, _ in traced for s in spans]
    names = sorted({s[1] for s in kept})
    name_index = {n: i for i, n in enumerate(names)}
    spans_path.write_text(json.dumps({
        "fields": ["id", "name", "start_s", "end_s", "parent"],
        "names": names,
        "spans": [[s[0], name_index[s[1]], s[2], s[3], s[4]] for s in kept],
    }))
    return records, rows, tracer.available, sorted(tracer.missing)


def memory_round(workload, out_dir, index):
    """One round with ``tracemalloc`` on inside ``run_plan``; its time is not used."""
    out = out_dir / f"memory-{index}"
    out.mkdir(parents=True)
    rec = {}
    c0 = cpu_s()
    peak = tracing.run_plan_peak_mb(lambda: rec.update(workload.run_round(index, out)))
    rec.update(phase="memory", cpu_s=cpu_s() - c0)
    return rec, peak


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_collsim()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        workload.warm_up()
        records = run_rounds(args.seconds, args.out, "plain", 0, workload.run_round)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if args.trace:
            traced, rows, available, missing = traced_rounds(
                workload, args.seconds, args.out, len(records), args.spans
            )
            records += traced
            rec, peak = memory_round(workload, args.out, len(records))
            records.append(rec)
            result.update(layer_rows=rows, available=sorted(available), missing=missing, run_plan_peak_mb=peak)
        result["records"] = records
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
