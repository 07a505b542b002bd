"""Self-test of the benchmark: short runs of every workload, traced and untraced.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed; that the tracer rebinds every
traced name and restores it; that a 1 s run of each workload ends with
exactly the result keys, no failure outside the workload's known
defects, and every end-to-end metric (untraced) or every per-layer
metric (traced) with its unit; and that the runner refuses to run,
printing no result, where the gapcert sources are missing.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_SECONDS = 1


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric entry {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def check_tracer() -> list[str]:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import gapcert
    import gapcert.cli  # noqa: F401  (holds imported names too)
    from gapcert import enclosures, matrix_lab
    from tracer import Tracer

    originals = (matrix_lab.resolvent_bound_strip, enclosures.resolvent_bound_strip,
                 gapcert.resolvent_bound_strip, matrix_lab.np.linalg.svd)
    tracer = Tracer()
    tracer.install()
    try:
        now = (matrix_lab.resolvent_bound_strip, enclosures.resolvent_bound_strip,
               gapcert.resolvent_bound_strip, matrix_lab.np.linalg.svd)
        rebound = all(a is not b for a, b in zip(originals, now))
    finally:
        tracer.uninstall()
    restored = originals == (matrix_lab.resolvent_bound_strip, enclosures.resolvent_bound_strip,
                             gapcert.resolvent_bound_strip, matrix_lab.np.linalg.svd)
    return ([] if rebound else ["tracer left a caller's binding untouched"]) + (
        [] if restored else ["tracer did not restore the original bindings"])


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metric names or units differ: {sorted(set(got) ^ set(wanted))}")
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        problems.append(f"{where}: an end-to-end metric is not positive")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "certs", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["runner did not refuse to run without the gapcert sources"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec) + check_tracer()
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
    problems += check_refuses_without_sources()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
