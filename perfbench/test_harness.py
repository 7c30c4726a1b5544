"""Tests of the benchmark's own logic: tail percentile choice, failure
accounting, digest comparison and span self time.

    python3 -m pytest perfbench
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 26))  # 25 samples, shuffled order must not matter
    t = harness.tail_percentile(values[::-1])
    assert t == {"value": 15.0, "percentile": 60.0, "rank": 15, "beyond": 10, "samples": 25}


def test_tail_is_highest_qualifying_percentile():
    for n in range(11, 60):
        t = harness.tail_percentile(range(n))
        assert t["beyond"] == 10
        # One rank higher would leave only nine samples beyond.
        assert t["rank"] == n - 10


def test_tail_with_too_few_samples_reports_max_and_zero_beyond():
    t = harness.tail_percentile([3.0, 1.0, 2.0])
    assert t == {"value": 3.0, "percentile": 100.0, "rank": 3, "beyond": 0, "samples": 3}
    assert harness.tail_percentile([5.0])["value"] == 5.0
    assert harness.tail_percentile(range(10))["beyond"] == 0
    assert harness.tail_percentile(range(11))["value"] == 0.0


def test_tail_and_median_reject_empty():
    with pytest.raises(ValueError):
        harness.tail_percentile([])
    with pytest.raises(ValueError):
        harness.median([])


def test_median_even_and_odd():
    assert harness.median([3, 1, 2]) == 2.0
    assert harness.median([4, 1, 3, 2]) == 2.5


def test_quartile_spread_matches_statistics_quantiles():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.quartile_spread(values) == (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------

def _ok_check(result):
    if result != "good":
        raise AssertionError(f"bad output {result!r}")
    return harness.sha256(result.encode()), {}


def test_run_op_counts_raise_bad_output_and_success():
    def boom():
        raise RuntimeError("kernel crashed")

    recs = [
        harness.run_op(0, lambda: "good", _ok_check),
        harness.run_op(1, boom, _ok_check),
        harness.run_op(2, lambda: "bad", _ok_check),
        harness.run_op(3, lambda: "good", _ok_check),
    ]
    assert [r.ok for r in recs] == [True, False, False, True]
    assert "RuntimeError" in recs[1].error and recs[1].digest is None
    assert recs[2].error.startswith("check failed")
    assert recs[0].digest == recs[3].digest == harness.sha256(b"good")

    s = harness.summarize_ops(recs)
    assert (s["attempted"], s["failed"], s["failed_frac"]) == (4, 2, 0.5)
    # Throughput and times count successful ops only.
    assert s["ops_per_s"] == 2 / (recs[0].seconds + recs[3].seconds)
    assert s["tail"]["samples"] == 2


def test_nonzero_exit_is_a_failed_op():
    def check(rc):
        if rc != 0:
            raise AssertionError(f"exit code {rc}")
        return "d", {}

    rec = harness.run_op(0, lambda: 2, check)
    assert not rec.ok and "exit code 2" in rec.error


def test_all_failed_run_has_no_times():
    rec = harness.run_op(0, lambda: "bad", _ok_check)
    s = harness.summarize_ops([rec])
    assert s["failed_frac"] == 1.0 and "op_p50_s" not in s


def test_normalize_scales_by_reference_around_each_op():
    recs = [harness.OpRecord(0, 2.0, True), harness.OpRecord(1, 3.0, True)]
    # The machine ran at half speed around op 0, at nominal speed around op 1.
    harness.normalize(recs, [0.2, 0.2, 0.1], nominal=0.1)
    assert [r.info["norm_s"] for r in recs] == pytest.approx([1.0, 2.0], rel=1e-12)
    s = harness.summarize_ops(recs, normalized=True)
    assert s["op_p50_s"] == pytest.approx(1.5, rel=1e-12)
    assert harness.summarize_ops(recs)["op_p50_s"] == 2.5


# ---------------------------------------------------------------------------
# Digest comparison
# ---------------------------------------------------------------------------

def _record(seed, digests, workload="heatmap"):
    return {"workload": workload, "seed": seed,
            "ops": [{"op": i, "digest": d} for i, d in enumerate(digests)]}


def test_compare_digests_matches_ops_by_index():
    a = _record(1, ["x", "y", "z"])
    b = _record(1, ["x", "y"])  # a shorter run still compares on shared ops
    assert harness.compare_digests(a, b) == {"compared": 2, "mismatched": []}
    c = _record(1, ["x", "Y", "z", "w"])
    assert harness.compare_digests(a, c) == {"compared": 3, "mismatched": [1]}


def test_compare_digests_skips_failed_ops():
    a = _record(1, ["x", None])
    b = _record(1, ["x", "y"])
    assert harness.compare_digests(a, b) == {"compared": 1, "mismatched": []}


def test_compare_digests_refuses_different_inputs():
    with pytest.raises(ValueError):
        harness.compare_digests(_record(1, ["x"]), _record(2, ["x"]))
    with pytest.raises(ValueError):
        harness.compare_digests(_record(1, ["x"]), _record(1, ["x"], workload="point_train"))


# ---------------------------------------------------------------------------
# Spans and seeds
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps a
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},  # grandchild
        {"name": "d", "start": 8.0, "end": 9.0, "parent": 0},
    ]
    assert harness.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 1.0]


def test_tracer_nests_and_tags_op():
    tr = harness.Tracer()
    tr.op = 7
    calls = []
    wrapped = tr.wrap("inner", lambda x: x + 1, calls)
    with tr.span("outer"):
        assert wrapped(1) == 2
    outer, inner = tr.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    assert outer["op"] == inner["op"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert calls == [("inner", (1,), {}, 2)]


def test_held_out_seed():
    assert harness.parse_seed("12") == 12
    assert harness.parse_seed("held-out") == harness.HELD_OUT_SEED >= harness.HELD_OUT_MIN
    with pytest.raises(ValueError):
        harness.parse_seed("-1")
