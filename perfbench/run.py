#!/usr/bin/env python3
"""The repo benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload offline_digits --seed 1 \
        --seconds 10 --trace 0

builds the SUSHI libraries and the benchmark binary from source
(CMake, Release) into .bench_build/, runs the named workload, checks
its metrics against BENCHMARK.json and prints, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run, whose spans go to
.bench_out/trace-<workload>.json (Chrome trace-event format). Every run
also writes its full record, with the common envelope, to
.bench_out/<workload>-seed<seed>-trace<t>.json.

Compare mode prints per-metric deltas between two sets of records:

    python3 perfbench/run.py --compare BEFORE_DIR AFTER_DIR

Exit status: 0 when the run is correct, 1 when a correctness gate
fails or the build or run breaks, 2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA_VERSION = 1
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the benchmark binary (incrementally after
    the first run); return its path."""
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(out), "--target",
              "sushi_perfbench", "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "sushi_perfbench"


def source_version():
    """The git commit, or a hash of the sources when not in git."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def conform(result, contract, trace):
    """Check the binary's metrics against the contract. Per-layer
    metrics a workload does not exercise are reported as 0."""
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    errors = []
    for name, m in metrics.items():
        if name not in units:
            errors.append(f"metric {name} is not in BENCHMARK.json")
        elif m["unit"] != units[name]:
            errors.append(f"metric {name} has unit {m['unit']}, "
                          f"BENCHMARK.json says {units[name]}")
        elif not isinstance(m["value"], (int, float)):
            errors.append(f"metric {name} is not a number")
    out = {}
    for name, unit in units.items():
        if name in metrics:
            out[name] = metrics[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            errors.append(f"end-to-end metric {name} is missing")
    return out, errors


def run(args):
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; choose from {names}")
        return 2
    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}.json"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"the benchmark binary printed nothing (exit "
            f"{proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    metrics, errors = conform(result, contract, args.trace)
    for e in errors:
        log(e)
    correct = bool(result["correct"]) and not errors and \
        proc.returncode == 0

    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "build_type": BUILD_TYPE,
        "host_threads": os.cpu_count(),
        "git_commit": source_version(),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "detail": result.get("detail", {}),
        "errors": result.get("errors", []) + errors,
    }
    record_path = out_dir / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def load_records(path):
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() \
        else [Path(path)]
    groups = {}
    for f in files:
        try:
            rec = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(rec, dict) or "schema_version" not in rec:
            continue
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def compare(before, after):
    """Per workload and metric: median of each record set, and the
    change, signed so that + is better."""
    contract = load_contract()
    better = {m["name"]: m.get("better", "")
              for m in contract["end_to_end"] + contract["per_layer"]}
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    a, b = load_records(before), load_records(after)
    print(f"{'workload':<18} {'metric':<38} {'unit':<6} "
          f"{'before':>13} {'after':>13} {'change':>8}  n")
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        for name in sorted(ra[0]["metrics"]):
            va = [r["metrics"][name]["value"] for r in ra
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb
                  if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = ""
            if ma != 0:
                d = (mb - ma) / abs(ma)
                if better.get(name) == "lower":
                    d = -d
                change = f"{100 * d:+7.2f}%"
                if name in bound and -d > bound[name]:
                    change += " REGRESSED"
            print(f"{key[0]:<18} {name:<38} "
                  f"{ra[0]['metrics'][name]['unit']:<6} {ma:>13.6g} "
                  f"{mb:>13.6g} {change:>8}  {len(va)}/{len(vb)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    try:
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
