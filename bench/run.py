"""heiscurve benchmark: seeded closed-loop job streams with oracle-checked output.

One run:

    python3 bench/run.py --workload c3_pipeline --seed 1 --seconds 20 --trace 0

prints human-readable lines, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics.  `--workload all` runs every workload; `--repeat K` runs seeds
seed .. seed+K-1 and prints each metric's median, quartiles and spread.

The workload runs in a child process (worker.py), the only process that
imports heiscurve; this process checks every output with oracle.py.  A wrong
answer, a changed answer on a later pass or an undocumented exception ends
the run with a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

# set-up-only processes; the measuring worker adds one more.  One set-up
# sample spreads by up to 0.17 over ten seeds, the median of seven by 0.065.
SETUP_TRIALS = 6
RUN_LIMIT_S = 170  # a run must end within 180 s

import metrics  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"jobs_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "ok_share": "share", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha, "seed": seed}


def _worker(args, timeout):
    cmd = [sys.executable, str(WORKER)] + [str(a) for a in args]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out" % " ".join(map(str, args)))
    if done.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s"
                         % (done.returncode, done.stderr[-4000:]))
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def run_once(workload, seed, seconds, trace, deadline):
    """One run; returns (report dict, problems list)."""
    setups = []

    def setup_trials(count):
        for _ in range(count):
            lines = _worker(["--workload", workload, "--seed", seed, "--setup-only"],
                            deadline - time.monotonic())
            setups.append(lines[-1]["setup_s"])

    # set-up trials before and after the measuring worker, so that one burst
    # of load on a shared machine does not slow all of them
    if not trace:
        setup_trials(SETUP_TRIALS // 2)
    lines = _worker(["--workload", workload, "--seed", seed, "--seconds", seconds,
                     "--trace", int(trace)], deadline - time.monotonic())
    if not trace:
        setup_trials(SETUP_TRIALS - SETUP_TRIALS // 2)
    summary = lines[-1]
    if summary.get("type") != "summary":
        raise BenchError("worker ended without a summary")
    setups.append(summary["setup_s"])

    pool = workloads.make_pool(workload, seed)
    problems = []
    seen = set()
    import oracle  # sympy is imported only after the workload has run
    for line in lines[:-1]:
        if line["type"] == "mismatch":
            problems.append("job %d changed its output on pass %d: %s -> %s"
                            % (line["index"], line["pass"], line["first"], line["now"]))
            continue
        job = pool.jobs[line["index"]]
        seen.add(line["index"])
        try:
            oracle.check(job, line["output"])
        except oracle.OracleError as exc:
            problems.append("job %d (%s): %s" % (line["index"], job["kind"], exc))
    if len(seen) != len(pool.jobs):
        problems.append("worker reported %d of %d jobs" % (len(seen), len(pool.jobs)))

    m = summary["metrics"]
    report = {
        "workload": workload,
        "seed": seed,
        "passes": summary["passes"],
        "pool_size": summary["pool_size"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "error_share": m["failed"] / m["attempted"],
        "failures": summary["failures"],
        "label_time_s": summary["label_time_s"],
        "raw_jobs_per_s": summary["raw_jobs_per_s"],
        "slowness": summary["slowness"],
        "end_to_end": {
            "jobs_per_s": m["jobs_per_s"],
            "latency_p50_ms": m["latency_p50_ms"],
            "latency_p90_ms": m["latency_p90_ms"],
            "ok_share": m["ok_share"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_mb"],
        },
    }
    if trace:
        layers = dict(summary["layers"])
        report["trace_spans"] = layers.pop("trace.spans")
        report["missing_hooks"] = layers.pop("trace.missing_hooks")
        report["per_layer"] = layers
    return report, problems


def print_report(report, trace):
    print("workload %s  seed %d  passes %d  pool %d  jobs %d  failed %d  error_share %.4f"
          % (report["workload"], report["seed"], report["passes"], report["pool_size"],
             report["attempted"], report["failed"], report["error_share"]))
    print("  machine slowness %.3f (probe time / reference)  unscaled jobs_per_s %.4f"
          % (report["slowness"], report["raw_jobs_per_s"]))
    for label, per in sorted(report["failures"].items()):
        for exc, count in sorted(per.items()):
            print("  failed  %-32s %-26s %d" % (label, exc, count))
    total = sum(report["label_time_s"].values())
    shares = sorted(report["label_time_s"].items(), key=lambda kv: -kv[1])
    print("  time share by kind/family: " + ", ".join(
        "%s %.1f%%" % (k, 100 * v / total) for k, v in shares))
    if trace:
        print("  trace spans %d  missing hooks %s"
              % (report["trace_spans"], report["missing_hooks"] or "none"))
        for name, value in sorted(report["per_layer"].items()):
            print("  %-44s %14.4f %s" % (name, value, layer_unit(name)))
    else:
        for name, value in report["end_to_end"].items():
            print("  %-16s %12.4f %s" % (name, value, E2E_UNITS[name]))


def result_line(report, trace, correct):
    if trace:
        values = {k: {"value": v, "unit": layer_unit(k)}
                  for k, v in report["per_layer"].items()}
    else:
        values = {k: {"value": v, "unit": E2E_UNITS[k]}
                  for k, v in report["end_to_end"].items()}
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": values}


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def repeat(workload_names, seed, seconds, count):
    """Run each workload on `count` seeds and print median, quartiles and
    spread ((q3 - q1) / median) of every end-to-end metric."""
    bounds = load_benchmark()
    summary = {}
    ok = True
    for workload in workload_names:
        values = {}
        for s in range(seed, seed + count):
            report, problems = run_once(workload, s, seconds, False,
                                        time.monotonic() + RUN_LIMIT_S)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                ok = False
            for name, value in report["end_to_end"].items():
                values.setdefault(name, []).append(value)
            print("%s seed %d: %s" % (workload, s, json.dumps(
                {k: round(v, 4) for k, v in report["end_to_end"].items()})), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median, q1, q3, spread = metrics.spread(vals)
            bound = bounds[name]["bound"]
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  bound %g%s"
                  % (name, median, q1, q3, spread, bound, flag))
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
    print(json.dumps({"repeat": count, "seconds": seconds, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and print medians and quartiles")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heiscurve" / "__init__.py").is_file():
        print("error: no heiscurve sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"env": environment(args.seed)}))
    try:
        if args.repeat:
            return repeat(names, args.seed, args.seconds, args.repeat)
        results = {}
        correct = True
        for workload in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            report, problems = run_once(workload, args.seed, args.seconds,
                                        args.trace, deadline)
            print_report(report, args.trace)
            for problem in problems:
                print("WRONG: " + problem, file=sys.stderr)
            correct = correct and not problems
            results[workload] = result_line(report, args.trace, not problems)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
