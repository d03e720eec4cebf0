#!/usr/bin/env python3
"""DeepCAM benchmark: builds deepcam_perfbench from this checkout, runs one
workload (or all of them), checks its outputs and prints its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
a traced run (obs::TraceRecorder at TraceLevel::kFull). Both names and
units come from BENCHMARK.json at the repository root. Output: a metric
table, one JSON schema line (context block plus one entry per metric with
median, best-supported tail percentile and n), and last a one-line result
{"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the checkout or the build is unusable (no result is printed then).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = tuple(analysis.WORKLOAD_METRICS)
RUN_TIMEOUT_S = 170
SCHEMA = "deepcam-perfbench/1"


class SetupError(Exception):
    pass


def build_binary():
    """Configures and builds deepcam_perfbench; returns its path."""
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            raise SetupError(f"{ROOT / needed} is missing: run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "deepcam_perfbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SetupError("building deepcam_perfbench failed: " + " ".join(cmd))
    return build_dir / "deepcam_perfbench"


def host_context():
    ctx = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0))}
    quota = "unlimited"
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    cfs_quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    if cpu_max.exists():
        quota = cpu_max.read_text().strip()
    elif cfs_quota.exists():
        period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
        quota = cfs_quota.read_text().strip() + " " + period
    ctx["cgroup_cpu_quota"] = quota
    return ctx


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SetupError(f"{workload}: deepcam_perfbench exited {proc.returncode}")
    return json.loads(proc.stdout)


def python_checks(doc, metrics):
    """Checks on the analysed numbers; the binary's own checks come first."""
    checks = list(doc["checks"])
    if doc["trace"]:
        dropped = metrics.median("obs.spans_dropped")
        checks.append({"name": "spans_dropped", "ok": dropped == 0,
                       "detail": f"{dropped} spans dropped to ring overflow"})
        residual = metrics.median("core.ledger_residual_ms")
        checks.append({"name": "ledger_sums", "ok": residual == 0,
                       "detail": f"stage self times + other - sample = {residual} ms/sample"})
    return checks


def report(doc, declared, context):
    metrics = analysis.WORKLOAD_METRICS[doc["workload"]](doc)
    checks = python_checks(doc, metrics)
    extra = checks[len(doc["checks"]):]
    attempted = doc["attempted"] + len(extra)
    failed = doc["failed"] + sum(1 for c in extra if not c["ok"])

    print(f"== {doc['workload']} (seed {doc['seed']}, {doc['seconds']} s, "
          f"trace {int(doc['trace'])})")
    for e in metrics.entries.values():
        tail = "" if e["tail_pct"] is None else f"  p{e['tail_pct']:g}={e['tail']:.6g}"
        print(f"  {e['name']:<44} {e['median']:>14.6g} {e['unit']:<7} n={e['n']}{tail}")
    for c in checks:
        print(f"  check {c['name']:<24} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    print(json.dumps({"schema": SCHEMA, "workload": doc["workload"], "seed": doc["seed"],
                      "seconds": doc["seconds"], "trace": int(doc["trace"]),
                      "context": {**doc["context"], **context, "seed": doc["seed"]},
                      "metrics": list(metrics.entries.values()), "checks": checks}))

    values = {}
    for d in declared:
        entry = metrics.entries.get(d["name"])
        # A per-layer metric of a layer this workload does not exercise
        # (serve.* offline, plan.* outside the paper path) reads 0.
        values[d["name"]] = {"value": 0 if entry is None else entry["median"],
                             "unit": d["unit"]}
    return failed == 0, attempted, failed, values


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        binary = build_binary()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        context = host_context()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        docs = [run_workload(binary, w, args.seed, args.seconds, args.trace)
                for w in workloads]
    except (SetupError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    correct, attempted, failed, metrics = True, 0, 0, {}
    for doc in docs:
        ok, att, fail, values = report(doc, declared, context)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        if len(docs) == 1:
            metrics = values
        else:
            metrics.update({f"{doc['workload']}/{k}": v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
