#!/usr/bin/env python3
"""lrsc benchmark: one workload per call, in one process, one caller.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run prints every metric by name with its unit, appends one record
(metrics, details, environment, sizes) to --out, and prints as its last line
a JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, and a traced run also writes its spans
next to --out.  The lrsc sources are imported from src/ beside this
directory; without them the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha(root: Path):
    """HEAD's commit read from .git without running git; None outside a
    repository."""
    git = root / ".git"
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
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def load_bench():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lrsc benchmark")
    ap.add_argument("--workload", help="sim-paper, sim-stress or verify-battery")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "results" / "runs.jsonl",
                    help="JSON-lines file the run record is appended to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                    help="compare two run files instead of running")
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare
        print("\n".join(compare(*args.compare, load_bench())))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    src = ROOT / "src"
    if not (src / "lrsc" / "__init__.py").is_file():
        print(f"error: the lrsc sources are missing: {src / 'lrsc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    record = run_and_record(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                            load_bench(), args.out)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_and_record(w, seed, seconds, trace, bench, out: Path):
    """Run one workload, print its metrics and append the record to ``out``.
    Returns the record."""
    from measure import timed_run, traced_run
    from spans import write_spans

    declared = bench["per_layer" if trace else "end_to_end"]
    started = time.time()
    values, details, book, tracers = (traced_run if trace else timed_run)(w, seed, seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "started": started, "wall_s": time.time() - started,
        "correct": book.failed == 0, "attempted": book.attempted, "failed": book.failed,
        "error_rate": book.failed / book.attempted if book.attempted else 1.0,
        "problems": book.problems, "metrics": metrics, "details": details,
        "sizes": w.sizes(), "env": environment(),
    }
    print(f"workload {w.name} seed {seed} trace {trace} "
          f"python {record['env']['python']} nproc {record['env']['nproc']} "
          f"cpu {record['env']['cpu_model']} git {record['env']['git_sha']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {record['error_rate']:.6g} "
          f"({book.failed} of {book.attempted} failed)")
    for k, v in details.items():
        print(f"  [{k}] {json.dumps(v) if isinstance(v, dict) else v}")
    for p in book.problems:
        print(f"  FAILED: {p}")
    out.parent.mkdir(parents=True, exist_ok=True)
    if tracers:
        spans_path = out.parent / f"spans-{w.name}-s{seed}.jsonl.gz"
        write_spans(spans_path, tracers)
        record["spans_file"] = spans_path.name
    with open(out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


if __name__ == "__main__":
    sys.exit(main())
