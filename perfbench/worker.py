"""Measured process: set up one workload, run it, print one JSON line.

Started by run.py with BLAS pinned to one thread.  ``--spawned`` is the
parent's CLOCK_MONOTONIC reading just before the spawn, so set-up time
covers interpreter start, ``import gapcert`` (through the workload's
module, which imports only the gapcert modules it calls) and building the
first inputs.  Nothing else is imported before: the benchmark's own
numpy, for the reference kernel below, comes after.  With
``--setup-only`` the process stops there.

Untraced, the workload runs in a closed loop for ``--seconds``.  Traced,
it runs untraced for half that time, then runs a fixed amount of work
(the same for every run of a seed, so counts repeat exactly) with the
tracer installed; the ratio of the two throughputs is the tracing
overhead.

Speed normalization.  The shared machines this runs on change speed by
up to 2x from one second to the next, and their average over a run by
15-20 % from run to run.  A fixed reference kernel (interpreter loop plus
a small batched SVD) is therefore timed between segments of at least
SEGMENT_S of timed work, and every time in a segment is multiplied by
REF_NOMINAL_S / r, with r the mean of the reference timings taken within
REF_WINDOW_S of the segment.  A time then reads as it would on a machine
that runs the reference in REF_NOMINAL_S.  The raw figures are reported
alongside.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads
from tracer import LAYER_FUNCTIONS, Tracer

# Fixed traced work per workload, in batches.
TRACE_BATCHES = {"suite": 1, "gate": 1, "certs": 1000, "cli": 1}
# Layers a traced run of the workload must reach; zero calls there means a
# refactor moved the work out of sight of the tracer.
MUST_CALL = {
    "suite": ["matrix_lab." + f for f in ("run_suite", "gen_instance", "verify_instance",
                                          "svd", "eigvals", "eigvalsh")],
    "certs": [f"{layer}.{f}" for layer, fns in LAYER_FUNCTIONS.items() if layer != "matrix_lab" for f in fns],
}
MUST_CALL["gate"] = MUST_CALL["suite"]
# Latency samples a run must leave above its p90 where latency is per
# operation; on a slow machine the run goes on past --seconds to get them.
# On suite and gate a sample is a whole run_suite call, and a run holds
# about 70.
MIN_ABOVE_P90 = {"certs": 10, "cli": 10}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SEGMENT_S = 0.02
REF_WINDOW_S = 1.0
REF_NOMINAL_S = 0.0015
# (svd, matrices) of the reference kernel; bound after set-up is timed, so
# that the benchmark's own numpy import is not part of setup_s, and before
# any tracing rebinds np.linalg
_REF: tuple = ()


def bind_reference() -> None:
    global _REF
    import numpy as np

    _REF = (np.linalg.svd, np.random.default_rng(0).standard_normal((16, 24, 24)))


def reference_time() -> float:
    """Wall time of the fixed reference kernel, about 1.5 ms on a 2.1 GHz Xeon."""
    svd, mats = _REF
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(12000):
        acc += math.sqrt(i + 0.5)
    svd(mats, compute_uv=False)
    return time.perf_counter() - t0


class Phase:
    """Outcome of running a sequence of items, raw and speed-normalized."""

    def __init__(self, normalize: bool = False) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.ops = 0
        self.failed = 0
        self.failures: Counter = Counter()  # problem label -> times seen
        self.normalize = normalize
        self.refs: list[tuple[float, float]] = []  # (taken at, duration)
        self.segments: list[tuple[float, float, list[tuple[float, bool]]]] = []
        self._pending: list[tuple[float, bool]] = []
        self._pending_s = 0.0
        self._segment_start = 0.0
        if normalize:
            self._reference()

    def _reference(self) -> None:
        self.refs.append((time.perf_counter(), reference_time()))

    def run_item(self, item):
        t0 = time.perf_counter()
        if not self._pending:
            self._segment_start = t0
        try:
            result = item.run()
        except Exception as exc:  # any error besides a domain answer fails the item
            self._record(time.perf_counter() - t0, item.ops, False)
            self.failed += item.ops
            self.failures[f"{type(exc).__name__}: {exc}"[:200]] += 1
            return None
        self._record(time.perf_counter() - t0, item.ops, True)
        return result

    def _record(self, dt: float, ops: int, ok: bool) -> None:
        self.busy += dt
        self.ops += ops
        if ok:
            self.latencies.append(dt)
        if self.normalize:
            self._pending.append((dt, ok))
            self._pending_s += dt
            if self._pending_s >= SEGMENT_S:
                self.close_segment()

    def close_segment(self) -> None:
        if self._pending:
            self.segments.append((self._segment_start, time.perf_counter(), self._pending))
            self._reference()
            self._pending, self._pending_s = [], 0.0

    def scaled(self) -> tuple[list[float], float]:
        """Normalized latencies and busy time: each segment's times scaled by
        REF_NOMINAL_S over the mean reference timing within REF_WINDOW_S of it."""
        stamps = [t for t, _ in self.refs]
        latencies, busy = [], 0.0
        for start, end, items in self.segments:
            window = self.refs[bisect.bisect_left(stamps, start - REF_WINDOW_S):
                               bisect.bisect_right(stamps, end + REF_WINDOW_S)]
            factor = REF_NOMINAL_S / statistics.fmean(d for _, d in window)
            for dt, ok in items:
                busy += dt * factor
                if ok:
                    latencies.append(dt * factor)
        return latencies, busy

    def check(self, item, result) -> None:
        """Count the item's problems; each fails one of its operations, at most all."""
        if result is not None:
            problems = item.check(result)
            self.failed += min(item.ops, len(problems))
            self.failures.update(problems)


def run_closed_loop(wl, rng, seconds: float, first_batch, min_above_p90: int = 0) -> Phase:
    """Run whole batches until the deadline is nearer than half a batch and
    at least ``min_above_p90`` latency samples lie above their p90."""
    phase = Phase(normalize=True)
    t0 = time.perf_counter()
    batch, batches = first_batch, 0
    while True:
        for item in batch:
            phase.check(item, phase.run_item(item))
        batches += 1
        wall = time.perf_counter() - t0
        if wall + 0.5 * wall / batches >= seconds and (
                not min_above_p90 or latency_stats(phase.latencies)["samples_above_p90"] >= min_above_p90):
            phase.close_segment()
            return phase
        batch = wl.batch(rng)


def run_traced(wl, rng, name: str) -> tuple[Phase, dict]:
    """Run the fixed traced work; inputs are built before the tracer goes in."""
    items = [item for _ in range(TRACE_BATCHES[name]) for item in wl.batch(rng)]
    phase = Phase()
    tracer = Tracer()
    if name == "cli":
        results = [phase.run_item(item) for item in items]
    else:
        tracer.install()
        try:
            results = [phase.run_item(item) for item in items]
        finally:
            tracer.uninstall()
    for item, result in zip(items, results):
        phase.check(item, result)
    return phase, tracer.summary()


def layer_metrics(name: str, summary: dict, traced: Phase, untraced: Phase, wl) -> dict:
    def get(span: str, key: str):
        return summary.get(span, {}).get(key, 0)

    missing = [span for span in MUST_CALL.get(name, ()) if get(span, "calls") == 0]
    if missing:
        raise RuntimeError(f"traced {name} run never reached: {', '.join(missing)}")
    out = {}
    for oracle in ("svd", "eigvals"):
        for key in ("calls", "matrices", "work_n3", "busy_s"):
            out[f"matrix_lab.{oracle}.{key}"] = get(f"matrix_lab.{oracle}", key)
    verifications = traced.ops if name in ("suite", "gate") else 0
    matrices = get("matrix_lab.svd", "matrices") + get("matrix_lab.eigvals", "matrices")
    out["matrix_lab.oracle_matrices_per_verification"] = matrices / verifications if verifications else 0.0
    for key in ("calls", "busy_s", "self_s"):
        out[f"matrix_lab.verify_instance.{key}"] = get("matrix_lab.verify_instance", key)
    for span in ("gen_instance", "eigvalsh"):
        for key in ("calls", "busy_s"):
            out[f"matrix_lab.{span}.{key}"] = get(f"matrix_lab.{span}", key)
    out["matrix_lab.run_suite.busy_s"] = get("matrix_lab.run_suite", "busy_s")
    for layer, functions in LAYER_FUNCTIONS.items():
        if layer == "matrix_lab":
            continue
        for fn in functions:
            for key in ("calls", "self_s"):
                out[f"{layer}.{fn}.{key}"] = get(f"{layer}.{fn}", key)
    phases = getattr(wl, "phases", [])
    if phases:
        out["cli.interpreter_ms"] = 1e3 * statistics.median(p["start"] - p["spawned"] for p in phases)
        out["cli.import_ms"] = 1e3 * statistics.median(p["imported"] - p["start"] for p in phases)
        out["cli.main_ms"] = 1e3 * statistics.median(p["done"] - p["imported"] for p in phases)
        out["cli.modules_loaded"] = statistics.mean(p["modules"] for p in phases)
        out["cli.numpy_loaded"] = sum(1 for p in phases if p["numpy"])
    else:
        for key in ("interpreter_ms", "import_ms", "main_ms", "modules_loaded", "numpy_loaded"):
            out[f"cli.{key}"] = 0
    out["trace.overhead_ratio"] = (traced.ops / traced.busy) / (untraced.ops / untraced.busy)
    return out


def latency_stats(latencies: list[float]) -> dict:
    ms = [1e3 * x for x in latencies]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "latency_samples": len(ms),
        "samples_above_p90": sum(1 for x in ms if x > p90),
    }


def context() -> dict:
    import numpy as np

    root = workloads.ROOT
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "gapcert", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    name = args.workload
    wl = workloads.load(name)
    rng = random.Random(f"{args.seed}:{name}:main")
    first_batch = wl.batch(rng, record=True)
    setup_s = time.monotonic() - args.spawned
    bind_reference()
    ref = statistics.median(reference_time() for _ in range(5))
    out = {"setup_s": setup_s * REF_NOMINAL_S / ref, "raw": {"setup_s": setup_s}}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if name == "cli" and hasattr(os, "sched_setaffinity"):
        # the CLI processes inherit this CPU, so the reference kernel that
        # normalizes their times runs where they run
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        untraced = run_closed_loop(wl, rng, args.seconds / 2, first_batch)
    else:
        untraced = run_closed_loop(wl, rng, args.seconds, first_batch, MIN_ABOVE_P90.get(name, 0))
    rss_who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(rss_who).ru_maxrss / 1024.0
    scaled, scaled_busy = untraced.scaled()
    out["ops_per_s"] = untraced.ops / scaled_busy
    out.update(latency_stats(scaled))
    raw = latency_stats(untraced.latencies)
    out["raw"].update(
        ops_per_s=untraced.ops / untraced.busy,
        latency_p50_ms=raw["latency_p50_ms"],
        latency_p90_ms=raw["latency_p90_ms"],
        reference_ms=1e3 * statistics.median(d for _, d in untraced.refs),
    )
    attempted, failed, failures = untraced.ops, untraced.failed, untraced.failures
    if args.trace:
        if name == "cli":
            wl.traced = True
        traced, summary = run_traced(wl, random.Random(f"{args.seed}:{name}:trace"), name)
        out["per_layer"] = layer_metrics(name, summary, traced, untraced, wl)
        attempted += traced.ops
        failed += traced.failed
        failures = failures + traced.failures
    unexpected = {label: n for label, n in failures.items() if label not in wl.known_defects}
    out.update(attempted=attempted, failed=failed, failures=dict(failures), unexpected_failures=unexpected)
    out["notes"] = wl.notes()
    out["context"] = context()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
