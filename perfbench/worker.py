"""One set-up or one body run of a workload, in a fresh process.

run.py starts this once per repetition, so every timed body begins in a new
interpreter and its peak RSS is its own. The last line of standard output is
one JSON object with the measurements.

    python3 perfbench/worker.py setup --workload W --seed N --src SRC --dir D
    python3 perfbench/worker.py body --workload W --seed N --src SRC --dir D --out O [--spans F]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import envinfo
import spans


def _rusage_cpu(usage):
    return usage.ru_utime + usage.ru_stime


def run_setup(args, workloads):
    directory = Path(args.dir)
    start = time.perf_counter()
    workloads.setup(args.workload, directory, args.seed, args.scale)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "input_sha256": workloads.input_digest(directory),
            "environment": envinfo.environment(),
            "ops_per_body": workloads.ops_per_body(args.workload, args.scale),
            "largest_arrays": workloads.largest_arrays(args.workload, args.scale)}


def run_body(args, workloads):
    inputs, out = Path(args.dir), Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.spans:
        tracer = spans.Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        calls = workloads.body(args.workload, inputs, out, args.seed, args.scale)
    finally:
        wall_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
    result = {
        "wall_s": wall_s,
        "cpu_util": (_rusage_cpu(after) - _rusage_cpu(before)) / wall_s,
        "peak_rss_mb": after.ru_maxrss / 1024.0,   # Linux reports KiB
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = spans.layer_metrics(tracer.spans)
    outcome = workloads.judge(args.workload, calls, inputs, out, args.seed, args.scale)
    result.update(ops=outcome.ops, final_loss_ratio=outcome.final_loss_ratio,
                  test_accuracy=outcome.test_accuracy, sha256=outcome.sha256)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "body"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--dir", required=True, help="set-up directory")
    parser.add_argument("--out", help="output directory of a body run")
    parser.add_argument("--spans", help="trace the body run and write its spans here")
    parser.add_argument("--src", required=True, help="directory holding the redense package")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import workloads   # imports redense, so only once its directory is on the path

    if args.mode == "setup":
        result = run_setup(args, workloads)
    else:
        result = run_body(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
