#!/usr/bin/env python3
"""redense benchmark: one workload, measured end to end or traced per module.

    python3 perfbench/run.py --workload head_wide --seed 1 --seconds 30 --trace 0

Run it from the root of a redense checkout. Set-up (corpus, base network and
feature bundles, all generated from --seed) runs several times, each in a
fresh process, and setup_s is their median. The timed body then runs again
and again in fresh processes until --seconds have passed; every end-to-end
figure is a median over those runs. With --trace 1, untraced and traced body
runs alternate and the per-module metrics come from the traced ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it give every metric by name and unit,
the environment, every failed operation, and the output checksums; a fuller
record goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("digits_pipeline", "head_wide", "sweep_wide")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2

SETUP_RUNS = 5
MIN_BODY_RUNS = 3        # untraced runs; a traced run needs this many of each kind
RUN_LIMIT_S = 170.0      # no run may take 180 s, however slow the machine

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "final_loss_ratio": "ratio",
    "test_accuracy": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long to keep repeating the timed body")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shapes exist only for the smoke test")
    return parser.parse_args(argv)


class Runner:
    """Starts worker processes for one benchmark run and keeps to its time limit."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
        self.env = dict(os.environ, **{var: threads for var in THREAD_VARS})
        self.base_cmd = [sys.executable, str(HERE / "worker.py")]
        self.common = ["--workload", args.workload, "--seed", str(args.seed),
                       "--scale", args.scale, "--src", str(root / "src")]

    def worker(self, mode, *extra):
        """Run worker.py to completion; its JSON result, or None if it failed."""
        cmd = [*self.base_cmd, mode, *self.common, *map(str, extra)]
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: {mode} run did not finish within the run's time limit",
                  file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"error: {mode} run exited {proc.returncode}:\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])


def run_setups(runner):
    results = []
    for k in range(SETUP_RUNS):
        directory = runner.work / f"setup{k}"
        result = runner.worker("setup", "--dir", directory)
        if result is None:
            return None
        results.append(result)
        if k:
            shutil.rmtree(directory)
    return results


def run_bodies(runner, inputs: Path, spans_path: Path):
    """Repeat the body until --seconds pass; returns (untraced, traced, crashed)."""
    args = runner.args
    end = time.perf_counter() + args.seconds
    plain, traced, crashed, durations = [], [], 0, []
    for k in range(10_000):
        typical = statistics.median(durations) if durations else 0.0
        now = time.perf_counter()
        enough = len(plain) >= MIN_BODY_RUNS and (not args.trace or len(traced) >= MIN_BODY_RUNS)
        if (enough and now + typical > end) or now + typical > runner.deadline:
            break
        trace_this = bool(args.trace) and k % 2 == 1
        out = runner.work / f"body{k}"
        extra = ["--spans", spans_path] if trace_this else []
        result = runner.worker("body", "--dir", inputs, "--out", out, *extra)
        durations.append(time.perf_counter() - now)
        shutil.rmtree(out, ignore_errors=True)
        if result is None:
            crashed += 1
        else:
            (traced if trace_this else plain).append(result)
    return plain, traced, crashed


def count_operations(ops_per_body, results, crashed):
    """(attempted, failed, failures) over the distinct operations of a run.

    Every body run repeats the same operations on the same inputs, so each is
    counted once, however many repetitions fit in --seconds: it fails if any
    repetition failed, and a crashed body fails them all. failures counts
    the body runs behind each (operation, reason).
    """
    failures = Counter((op["op"], op["reason"]) for r in results for op in r["ops"]
                       if not op["ok"])
    failed_ops = {op for op, _ in failures}
    failed = ops_per_body if crashed else min(len(failed_ops), ops_per_body)
    return ops_per_body, failed, failures


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def spread(values):
    return f"median of {len(values)}, range {min(values):.6g}..{max(values):.6g}"


def report_environment(setup):
    env = setup["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    llc = env["llc_bytes"]
    for name, size in setup["largest_arrays"].items():
        line = f"array {name} {size / 2**20:.1f} MiB (computed from shapes)"
        if llc:
            line += f", {size / llc:.2f} x last-level cache of {llc / 2**20:.1f} MiB"
            if size < 4 * llc:
                line += "; under 4 x LLC, so not a pure DRAM-bandwidth figure"
        print(line)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "redense" / "__init__.py").is_file():
        print("error: run from the root of a redense checkout; src/redense is missing",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        return measure(args, Runner(args, root, work), out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, runner, out_dir):
    tag = f"{args.workload}_seed{args.seed}_{args.scale}"
    setups = run_setups(runner)
    if setups is None:
        print("error: set-up failed; nothing was measured", file=sys.stderr)
        return 1
    spans_path = out_dir / f"{tag}.spans.jsonl"
    plain, traced, crashed = run_bodies(runner, runner.work / "setup0", spans_path)
    if not plain or (args.trace and not traced):
        print("error: no body run finished; nothing was measured", file=sys.stderr)
        return 1

    attempted, failed, failures = count_operations(setups[0]["ops_per_body"],
                                                   plain + traced, crashed)
    reproducible = len({s["input_sha256"] for s in setups}) == 1

    setup_s = [s["setup_s"] for s in setups]
    end_to_end = {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "final_loss_ratio": median_of(plain, "final_loss_ratio"),
        "test_accuracy": median_of(plain, "test_accuracy"),
    }
    correct = (reproducible and crashed == 0
               and all(math.isfinite(v) for v in end_to_end.values()))

    print(f"perfbench workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {len(setups)} set-ups, {len(plain)} untraced and "
          f"{len(traced)} traced body runs, {crashed} crashed")
    report_environment(setups[0])
    print(f"inputs reproducible from the seed: {'yes' if reproducible else 'NO'}")
    for name, unit in END_TO_END.items():
        values = setup_s if name == "setup_s" else [r[name] for r in plain]
        print(f"{name} = {end_to_end[name]!r} {unit} ({spread(values)})")
    body_runs = len(plain) + len(traced) + crashed
    print(f"error_rate = {failed / attempted!r} ratio ({failed} of {attempted} operations "
          f"failed in at least one of {body_runs} body runs)")
    for (op, reason), count in sorted(failures.items()):
        print(f"failed {op}: {reason} (in {count} of {body_runs} body runs)")
    checksums = {json.dumps(r["sha256"], sort_keys=True) for r in plain + traced}
    print(f"sha256 {json.dumps(plain[0]['sha256'])} (same in every body run: "
          f"{'yes' if len(checksums) == 1 else 'no'})")

    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["proc.cpu_util"] = median_of(plain, "cpu_util")
        layers["trace.overhead_s"] = median_of(traced, "wall_s") - end_to_end["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']}")
        print(f"spans of the last traced run: {spans_path}")

    record = {"args": vars(args), "setups": setups, "untraced": plain, "traced": traced,
              "crashed": crashed, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(out_dir / f"{tag}_trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
