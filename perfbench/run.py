#!/usr/bin/env python3
"""Repository benchmark: build the engine and the harness, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles the engine
from src/ with the repository's own CMake definition) into
.bench_build/perfbench, runs the noc_perfbench harness, checks that the
metric names and units it printed are the ones BENCHMARK.json declares, and
prints as the last line of standard output one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones plus the tracing overhead.

Every run also writes its full record -- all samples, check failures, the
machine and build fingerprint -- to .bench_out/<workload>-seed<n>-trace<t>.json,
and traced runs their spans to .bench_out/spans-<workload>-seed<n>.json.
Exits nonzero when any op failed its output check or anything else went
wrong; in the latter case no result line is printed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "noc_perfbench"
# A run, build included, must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "noc_perfbench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the sources the benchmark builds from (works without git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the repository at ROOT; None when ROOT is not a git work tree
    of its own (an exported checkout, even one nested in another repo)."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    out = res.stdout.split()
    if res.returncode != 0 or len(out) != 2 or Path(out[0]) != ROOT:
        return None
    return out[1]


def check_names(metrics, declared):
    printed = [(name, m.get("unit")) for name, m in metrics.items()]
    wanted = [(d["name"], d["unit"]) for d in declared]
    if sorted(printed) != sorted(wanted):
        fail(f"metric names/units {sorted(printed)} do not match "
             f"BENCHMARK.json {sorted(wanted)}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tamper-reference", action="store_true",
                    help="corrupt the reference fingerprint (tests the check)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    load_start = os.getloadavg()[0]
    build()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{stem}.json")]
    if args.tamper_reference:
        cmd.append("--tamper-reference")
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"harness exited {res.returncode} without a result record")
    for line in lines[:-1]:
        print(line)

    check_names(record["metrics"],
                spec["per_layer" if args.trace else "end_to_end"])

    build_info = record.pop("build", {})
    record["fingerprint"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": build_info.get("compiler"),
        "cxx_flags": build_info.get("cxx_flags"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    record["command"] = cmd[1:]
    record["recorded_at_unix"] = time.time()
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    ok = res.returncode == 0 and record["correct"] and record["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
