"""gapcert benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload {suite,gate,certs,cli,all} --seed N \
        --seconds S --trace {0,1} [--holdout-seed M]

Run from the root of a source checkout; the library is imported from
``src/``.  Each run spawns the measured process (perfbench/worker.py) with
BLAS pinned to one thread, plus extra set-up-only processes so that
``setup_s`` is a median.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when ``--trace 0`` and its
per-layer metrics when ``--trace 1``.  The line before it carries the run
context (machine, versions, BLAS threads, commit, seeds) and the figures
that have no place among the metrics, such as ``fail_ratio``, the
failures by label and the suite CSV digest.  ``correct`` is false when a
failure is not one of the workload's known defects.  ``--holdout-seed``
builds the inputs from a second seed, kept apart from the seeds a change
was tuned on, and records both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suite", "gate", "certs", "cli")
# Plain single-threaded baseline: BLAS threading would make the oracle's
# time depend on what else the machine runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6
DEADLINE_S = 170.0


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class BenchError(RuntimeError):
    pass


def spawn(args, seed: int, extra: list[str], started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED_ENV)
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)] + extra, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> tuple[dict, dict]:
    started = time.monotonic()
    seed = args.seed if args.holdout_seed is None else args.holdout_seed
    probes = [spawn(args, seed, ["--setup-only"], started) for _ in range(0 if args.trace else SETUP_PROBES)]
    res = spawn(args, seed, [], started)
    probes.append(res)
    setups = [p["setup_s"] for p in probes]
    attempted, failed = res["attempted"], res["failed"]
    values = res["per_layer"] if args.trace else dict(res, setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units(args.trace).items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.holdout_seed,
        "inputs_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fail_ratio": failed / attempted,
        "failures": res["failures"],
        "unexpected_failures": res["unexpected_failures"],
        "setup_samples_s": setups,
        "raw": dict(res["raw"], setup_s=statistics.median(p["raw"]["setup_s"] for p in probes)),
        "latency_samples": res["latency_samples"],
        "samples_above_p90": res["samples_above_p90"],
        **res["notes"],
        "context": res["context"],
    }
    result = {"correct": not res["unexpected_failures"], "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int, default=None,
                        help="build inputs from this seed instead of --seed and record both")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            report, result = run_one(args)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report))
        if len(names) > 1:
            for metric, m in result["metrics"].items():
                print(f"{name:6s} {metric:48s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
