"""The process that runs one workload: the only process that imports heiscurve.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace 0|1]
    python3 bench/worker.py --workload NAME --seed N --setup-only

It writes JSON lines to stdout: one {"type": "job"} line per pool job with
the job's canonical output from the first pass, a {"type": "mismatch"} line
whenever a later pass returns something else, and a final
{"type": "summary"} line.  A job that raises an exception outside
heiscurve.cli._MATH_ERRORS is a benchmark failure: the worker dies with the
traceback and a non-zero exit.

One client, one thread, closed loop: each job starts when the previous one
has returned.  Passes over the pool repeat while one more pass fits in
--seconds of summed job time; only whole passes are measured, so every run
sees the same job mix.  Job times are scaled to a reference machine speed
by an interleaved probe (see calibration.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

import calibration

_SLOWNESS_BEFORE_SETUP = calibration.slowness_samples()
_T0 = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import heiscurve  # noqa: E402
from heiscurve import cli, covers, elliptic, heisenberg, quadfield, words  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MATH_ERRORS = cli._MATH_ERRORS


# ---------------------------------------------------------------------------
# Building library inputs from plain job data.  Runs during set-up.
# ---------------------------------------------------------------------------

def qn(u, d):
    return quadfield.QuadNum(u[0], u[1], d)


def curve(A, B, d):
    return elliptic.Curve(qn(A, d), qn(B, d))


def _cli_c3():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["c3", "--format", "json"])
    return code, buf.getvalue()


def build(job):
    """A zero-argument callable running the job.  Functions are looked up
    on their modules at call time, so the tracer's wrappers see them."""
    kind = job["kind"]
    if kind == "derive":
        d = job["d"]
        return lambda: elliptic.derive_isogenous_curves(d)
    if kind == "cli_c3":
        return _cli_c3
    if kind == "three_torsion":
        E = curve(job["A"], job["B"], job["d"])
        return lambda: elliptic.three_torsion(E)
    if kind == "velu3":
        E = curve(job["A"], job["B"], job["d"])
        P = E.point(qn(job["x"], job["d"]), qn(job["y"], job["d"]))
        return lambda: elliptic.velu3(E, P)
    if kind == "j_invariant":
        E = curve(job["A"], job["B"], job["d"])
        return lambda: elliptic.j_invariant(E)
    if kind == "classify_pair":
        E1 = curve(job["A1"], job["B1"], job["d"])
        E2 = curve(job["A2"], job["B2"], job["d"])
        return lambda: elliptic.classify_pair(E1, E2)
    if kind == "scalar_mul":
        E = curve(job["A"], job["B"], job["d"])
        P = E.point(qn(job["x"], job["d"]), qn(job["y"], job["d"]))
        k = job["k"]
        return lambda: elliptic.scalar_mul(P, k)
    if kind == "hessian":
        C = elliptic.Cubic(job["coeffs"])
        return lambda: elliptic.hessian(C)
    if kind == "lifts":
        endo, n = words.S3_ENDOS[job["endo"]], job["n"]
        return lambda: words.lifts_to_heisenberg_cover(endo, n)
    if kind == "order":
        g = heisenberg.HeisenbergElement(job["n"], *job["g"])
        return lambda: g.order()
    if kind == "pow":
        g = heisenberg.HeisenbergElement(job["n"], *job["g"])
        k = job["k"]
        return lambda: g ** k
    if kind == "eval_word":
        w, n = words.Word(job["word"]), job["n"]
        return lambda: words.eval_in_heisenberg(w, n)
    if kind == "word_pow":
        w, k = words.Word(job["word"]), job["k"]
        return lambda: w ** k
    if kind == "witness":
        images = job["images"]
        endo = words.Endo(words.Word(images["a"]), words.Word(images["b"]))
        return lambda: words.commutator_conjugacy_witness(endo)
    if kind in ("stabilizer", "orbit"):
        point, n = covers.PointClass(job["family"], job["k"]), job["n"]
        if kind == "stabilizer":
            return lambda: covers.stabilizer_generator(point, n)
        return lambda: covers.orbit_size(point, n)
    if kind == "fermat_aut":
        n = job["n"]
        return lambda: covers.build_fermat_aut(n, verify=True)
    if kind == "audit":
        n_max = job["n_max"]
        return lambda: covers.audit_signature_claims(n_max)
    if kind == "heisenberg_genus":
        n = job["n"]
        return lambda: covers.heisenberg_genus(n)
    if kind == "rh_genus":
        data = covers.RamificationData(job["base_genus"], job["order"], job["indices"])
        return lambda: covers.rh_genus(data)
    raise ValueError("unknown job kind %r" % (kind,))


# ---------------------------------------------------------------------------
# Canonical plain-data form of each result, for the oracle.  Runs outside
# the timed region.
# ---------------------------------------------------------------------------

def _point(p):
    if p.at_infinity:
        return None
    return [p.x.to_json_dict(), p.y.to_json_dict()]


def _syllables(word):
    return [[g, e] for g, e in word.syllables]


def canonical(kind, result):
    if kind == "derive":
        return result.to_json_dict()
    if kind == "cli_c3":
        code, out = result
        return {"code": code, "stdout": out}
    if kind == "three_torsion":
        return {"points": [_point(p) for p in result.points],
                "x_roots": [x.to_json_dict() for x in result.x_roots],
                "missing_y": result.missing_y, "missing_x": result.missing_x}
    if kind == "velu3":
        return result.to_json_dict()
    if kind == "j_invariant":
        return result.to_json_dict()
    if kind == "classify_pair":
        return result.to_json_dict()
    if kind == "scalar_mul":
        return _point(result)
    if kind == "hessian":
        return [[list(m), [c.numerator, c.denominator]] for m, c in result.coeffs]
    if kind in ("lifts", "order", "orbit", "heisenberg_genus", "rh_genus"):
        return result
    if kind in ("pow", "eval_word"):
        return [result.n, result.x, result.y, result.z]
    if kind == "word_pow":
        return _syllables(result)
    if kind == "witness":
        if result is None:
            return None
        conj, sign = result
        return {"T": _syllables(conj), "sign": sign}
    if kind == "stabilizer":
        return list(result)
    if kind == "fermat_aut":
        return {"n": result.n, "order": result.order}
    if kind == "audit":
        return [v.to_json_dict() for v in result]
    raise ValueError("unknown job kind %r" % (kind,))


def label(job):
    """Job kind plus input family, as failures are reported."""
    family = job.get("family")
    return "%s/%s" % (job["kind"], family) if family else job["kind"]


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def peak_rss_kb():
    """High-water resident set of this process image.  getrusage's
    ru_maxrss is not used: after exec it still carries the parent's peak."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def run_pass(calls, record, timer, tracer=None):
    """One pass over the pool.  record(i, seconds, outcome, probe_position)
    is called after the clock has stopped; outcome is the result or the
    math error."""
    clock = time.perf_counter
    for i, call in enumerate(calls):
        timer.maybe_probe()
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            outcome = call()
        except MATH_ERRORS as exc:
            outcome = exc
        finally:
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
        record(i, elapsed, outcome, timer.position())
    timer.maybe_probe(force=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(heiscurve.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit("heiscurve was imported from %s, not from %s"
                         % (heiscurve.__file__, SRC_DIR))

    pool = workloads.make_pool(args.workload, args.seed)
    jobs = pool.jobs
    calls = [build(job) for job in jobs]
    setup_raw = time.perf_counter() - _T0
    slowness = statistics.median(_SLOWNESS_BEFORE_SETUP + calibration.slowness_samples())
    setup_s = setup_raw / slowness
    if args.setup_only:
        emit({"type": "setup", "setup_s": setup_s})
        return 0

    kinds = [job["kind"] for job in jobs]
    labels = [label(job) for job in jobs]
    first = [None] * len(jobs)
    times = array("d")  # scaled seconds, one entry per job execution
    oks = bytearray()  # 1 where the execution returned, 0 on a math error
    label_time = {}
    failures = {}  # label -> {exception type: count}
    timer = calibration.Calibration()
    state = {"pass": 0}

    def record(i, elapsed, outcome, position):
        failed = isinstance(outcome, MATH_ERRORS)
        pass_runs.append((i, elapsed, position))
        oks.append(not failed)
        if failed:
            per = failures.setdefault(labels[i], {})
            name = type(outcome).__name__
            per[name] = per.get(name, 0) + 1
            out = {"error": name}
        else:
            out = canonical(kinds[i], outcome)
        text = json.dumps(out, sort_keys=True)
        if state["pass"] == 0:
            first[i] = text
            emit({"type": "job", "index": i, "output": out})
        elif text != first[i]:
            emit({"type": "mismatch", "index": i, "pass": state["pass"],
                  "first": first[i], "now": text})

    # whole passes only, while one more pass fits in --seconds of job time
    busy = 0.0
    while True:
        pass_runs = []
        run_pass(calls, record, timer)
        state["pass"] += 1
        for i, raw, position in pass_runs:
            t = timer.scale(raw, position)
            times.append(t)
            label_time[labels[i]] = label_time.get(labels[i], 0.0) + t
            busy += raw
        if busy + busy / state["pass"] > args.seconds:
            break
    summary = {
        "type": "summary",
        "workload": args.workload,
        "seed": args.seed,
        "passes": state["pass"],
        "pool_size": len(jobs),
        "setup_s": setup_s,
        "metrics": metrics.end_to_end(times, oks),
        "raw_jobs_per_s": sum(oks) / busy,
        "slowness": timer.median_factor(),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
        "failures": failures,
        "label_time_s": label_time,
    }
    if args.trace:
        summary["layers"] = traced_pass(calls, sum(times) / state["pass"])
    emit(summary)
    return 0


def traced_pass(calls, untraced_pass_s):
    """One more pass with the tracer's wrappers installed.  The overhead
    ratio compares it with the mean untraced pass."""
    tracer = Tracer()
    timer = calibration.Calibration()
    runs = []

    def record(i, elapsed, outcome, position):
        runs.append((elapsed, position))

    uninstall = tracer.install()
    try:
        run_pass(calls, record, timer, tracer)
    finally:
        uninstall()
    layers = tracer.layer_metrics()
    traced = sum(timer.scale(raw, pos) for raw, pos in runs)
    layers["trace.overhead_ratio"] = traced / untraced_pass_s
    layers["trace.spans"] = len(tracer.starts)
    layers["trace.missing_hooks"] = tracer.missing
    return layers


if __name__ == "__main__":
    sys.exit(main())
