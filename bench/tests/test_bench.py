"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibration  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_is_deterministic_per_seed(workload):
    assert workloads.make_pool(workload, 7) == workloads.make_pool(workload, 7)
    assert workloads.make_pool(workload, 7).jobs != workloads.make_pool(workload, 8).jobs


def _first(workload, kind, family=None):
    for job in workloads.make_pool(workload, 3).jobs:
        if job["kind"] == kind and job.get("family", family) == family:
            return job
    raise LookupError(kind)


def _output(job):
    try:
        out = worker.canonical(job["kind"], worker.build(job)())
    except worker.MATH_ERRORS as exc:
        out = {"error": type(exc).__name__}
    return json.loads(json.dumps(out))


def _bump(quad):
    return dict(quad, p_num=quad["p_num"] + 1)


WRONG = {
    "velu3": lambda out: dict(out, A=_bump(out["A"])),
    "j_invariant": _bump,
    "scalar_mul": lambda out: [out[0], _bump(out[1])],
    "hessian": lambda out: [[m, [n + 1, d]] for m, (n, d) in out],
    "derive": lambda out: dict(out, rows=out["rows"][:-1]),
    "lifts": lambda out: not out,
    "order": lambda out: out * 2,
    "pow": lambda out: out[:3] + [out[3] + 1],
    "eval_word": lambda out: out[:3] + [out[3] + 1],
    "word_pow": lambda out: out[:-1],
    "stabilizer": lambda out: [out[1], out[0]],
    "orbit": lambda out: out + 1,
    "audit": lambda out: [dict(out[0], consistent=not out[0]["consistent"])] + out[1:],
    "heisenberg_genus": lambda out: out + 1,
}


@pytest.mark.parametrize("workload,kind", [
    ("c3_pipeline", "velu3"), ("c3_pipeline", "j_invariant"),
    ("c3_pipeline", "scalar_mul"), ("c3_pipeline", "hessian"),
    ("c3_pipeline", "derive"), ("tower_queries", "lifts"),
    ("tower_queries", "order"), ("tower_queries", "pow"),
    ("tower_queries", "eval_word"), ("tower_queries", "word_pow"),
    ("tower_queries", "stabilizer"), ("tower_queries", "orbit"),
    ("tower_queries", "audit"), ("tower_queries", "heisenberg_genus"),
])
def test_oracle_accepts_the_answer_and_catches_a_planted_wrong_one(workload, kind):
    job = _first(workload, kind, job_family(kind))
    out = _output(job)
    oracle.check(job, out)
    with pytest.raises(oracle.OracleError):
        oracle.check(job, WRONG[kind](out))


def job_family(kind):
    return {"stabilizer": "P", "orbit": "P"}.get(kind)


@pytest.mark.parametrize("workload,family", [
    ("torsion_scan", "planted"), ("c3_pipeline", "c3_row0"), ("c3_pipeline", "c3_row3"),
])
def test_oracle_catches_a_dropped_torsion_root(workload, family):
    job = _first(workload, "three_torsion", family)
    out = _output(job)
    oracle.check(job, out)
    field = oracle.Field(job["d"])
    dropped = field.json(out["x_roots"][0])
    wrong = dict(out, x_roots=out["x_roots"][1:],
                 points=[p for p in out["points"] if field.json(p[0]) != dropped])
    with pytest.raises(oracle.OracleError, match="missing"):
        oracle.check(job, wrong)
    # counting the dropped root as one without a point does not hide it
    with pytest.raises(oracle.OracleError, match="missing"):
        oracle.check(job, dict(wrong, missing_y=out["missing_y"] + 1))
    with pytest.raises(oracle.OracleError, match="missing_x"):
        oracle.check(job, dict(out, missing_x=out["missing_x"] + 1))
    # one of the pair (x, +-y) left out
    with pytest.raises(oracle.OracleError, match="two torsion points"):
        oracle.check(job, dict(out, points=out["points"][1:]))


def test_oracle_accepts_a_math_error_only_from_the_rejected_families():
    for workload, kind, family in [("torsion_scan", "three_torsion", "irrational"),
                                   ("torsion_scan", "three_torsion", "random"),
                                   ("c3_pipeline", "three_torsion", "c3_row1")]:
        job = _first(workload, kind, family)
        assert _output(job) == {"error": "UnsupportedFactorization"}
        oracle.check(job, {"error": "UnsupportedFactorization"})
        with pytest.raises(oracle.OracleError):
            oracle.check(job, {"error": "PointNotOnCurve"})
    for workload, kind, family, error in [
            ("tower_queries", "fermat_aut", None, "GroupBoundExceeded"),
            ("tower_queries", "lifts", None, "NonIntegerGenus"),
            ("torsion_scan", "three_torsion", "planted", "UnsupportedFactorization"),
            ("torsion_scan", "three_torsion", "many_prime", "UnsupportedFactorization"),
            ("c3_pipeline", "three_torsion", "c3_row0", "UnsupportedFactorization"),
            ("c3_pipeline", "scalar_mul", None, "PointNotOnCurve")]:
        with pytest.raises(oracle.OracleError, match="failed with"):
            oracle.check(_first(workload, kind, family), {"error": error})


def test_oracle_rejects_a_point_off_the_curve():
    job = _first("torsion_scan", "three_torsion", "planted")
    out = _output(job)
    x, y = out["points"][0]
    with pytest.raises(oracle.OracleError):
        oracle.check(job, dict(out, points=[[x, _bump(y)]] + out["points"][1:]))


def test_failed_jobs_rank_as_infinitely_slow():
    inf = metrics.INF
    lat = [0.001] * 8 + [inf, inf]
    assert metrics.percentile(lat, 0.5) == 0.001
    assert metrics.percentile(lat, 0.9) == inf
    e2e = metrics.end_to_end([0.001] * 9 + [0.011], [1] * 9 + [0])
    assert e2e["attempted"] == 10 and e2e["failed"] == 1 and e2e["ok_share"] == 0.9
    assert e2e["latency_p90_ms"] == pytest.approx(1.0)
    assert e2e["latency_p50_ms"] == pytest.approx(1.0)
    # the failed job's time is busy time: 9 jobs in 0.02 s
    assert e2e["jobs_per_s"] == pytest.approx(450.0)
    all_failed = metrics.end_to_end([0.001] * 10, [1] * 8 + [0] * 2)
    assert all_failed["latency_p90_ms"] == inf
    # fixing a failure cannot raise a percentile, however slow the fix
    fixed = metrics.end_to_end([0.001] * 8 + [5.0, 5.0], [1] * 10)
    assert fixed["latency_p90_ms"] <= all_failed["latency_p90_ms"]
    assert metrics.percentile([inf] * 3, 0.5) == inf


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 0.5) == 50
    assert metrics.percentile(values, 0.9) == 90
    assert metrics.percentile([3.0], 0.9) == 3.0


def test_self_time_of_a_synthetic_nested_trace():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    names = ["root", "a", "b", "c"]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    got = tracing.self_times(names, parents, starts, ends)
    assert got == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    # spans sharing a name add up; recursion does not double count
    got = tracing.self_times(["f", "f"], [-1, 0], [0.0, 1.0], [4.0, 3.0])
    assert got == {"f": 4.0}


def test_tracer_counts_calls_through_rebound_names_and_uninstalls():
    from heiscurve import elliptic, quadfield
    original = quadfield.find_field_roots
    assert elliptic.find_field_roots is original
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        assert elliptic.find_field_roots is not original
        tracer.active = True
        elliptic.three_torsion(elliptic.Curve.of(0, 11664))
        tracer.active = False
    finally:
        uninstall()
    assert elliptic.find_field_roots is original
    assert quadfield.find_field_roots is original
    layers = tracer.layer_metrics()
    assert tracer.missing == []
    assert layers["quadfield.find_field_roots.calls"] == 1
    assert layers["elliptic.point_new.calls"] > 0
    assert layers["quadfield.mul.calls"] > 0
    assert layers["elliptic.three_torsion.self_ms"] > 0
    assert layers["words.word_new.calls"] == 0
    assert set(layers) >= {m["name"] for m in benchmark_per_layer()} - {"trace.overhead_ratio"}


def benchmark_per_layer():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    return spec["per_layer"]


def test_calibration_scales_by_the_probes_around_a_job():
    timer = calibration.Calibration()
    ref = calibration.REFERENCE_PROBE_S
    timer.probes = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    # a job between probes 3 and 4 sees probes 2..5: all twice the reference
    assert timer.scale(0.010, 4) == pytest.approx(0.005)
    # a job after the first probe sees probes 0..2: median is the reference
    assert timer.scale(0.010, 1) == pytest.approx(0.010)
    assert timer.median_factor() == pytest.approx(2.0)


def test_spread_is_interquartile_range_over_median():
    median, q1, q3, spread = metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0 and spread == pytest.approx((q3 - q1) / 3.0)
    assert math.isinf(metrics.spread([0.0, 0.0, 0.0])[3])
