"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest bench/tests -q
"""

import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, start, end, parent=None, name="x"):
    return (sid, name, start, end, parent, None, {})


def test_self_time_nested_spans():
    spans = [span(0, 0, 10), span(1, 2, 5, 0), span(2, 3, 4, 1), span(3, 6, 7, 0)]
    own = tracing.self_times(spans)
    assert own == {0: 6, 1: 2, 2: 1, 3: 1}


def test_self_time_overlapping_siblings_counts_their_union():
    spans = [span(0, 0, 10), span(1, 1, 6, 0), span(2, 4, 8, 0)]
    assert tracing.self_times(spans)[0] == 3


def test_self_time_clips_children_to_parent():
    spans = [span(0, 0, 10), span(1, 8, 12, 0)]
    assert tracing.self_times(spans)[0] == 8


def test_sibling_spans_from_two_threads():
    tracer = tracing.Tracer()
    child = tracer.wrap(lambda: time.sleep(0.2), "m.child")

    def fan_out():
        threads = [threading.Thread(target=child) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.activate()
    tracer.wrap(fan_out, "m.parent")()
    tracer.deactivate()

    (parent,) = [s for s in tracer.spans if s[tracing.NAME] == "m.parent"]
    kids = [s for s in tracer.spans if s[tracing.NAME] == "m.child"]
    assert len(kids) == 2
    assert all(k[tracing.PARENT] == parent[tracing.ID] for k in kids)
    union = tracing.union_length([(k[tracing.START], k[tracing.END]) for k in kids])
    assert union < sum(k[tracing.END] - k[tracing.START] for k in kids)
    duration = parent[tracing.END] - parent[tracing.START]
    own = tracing.self_times(tracer.spans)[parent[tracing.ID]]
    assert abs(own - (duration - union)) < 1e-9
    assert 0 <= own < 0.15


def test_outermost_counts_recursive_calls_once():
    spans = [span(0, 0, 10, name="a"), span(1, 1, 4, 0, "b"),
             span(2, 2, 3, 1, "a"), span(3, 5, 6, None, "a")]
    assert [s[0] for s in tracing.outermost(spans, ["a"])] == [0, 3]


def test_tail_percentile_leaves_ten_units_beyond():
    assert run.tail_percentile(81) == 87
    assert run.tail_percentile(113) == 91
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(10) == 100
    assert run.tail_percentile(2) == 100


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank(values, 87) == 87
    assert run.nearest_rank([3.0, 1.0], 50) == 1.0
    assert run.nearest_rank([3.0, 1.0], 100) == 3.0


def test_end_to_end_pools_unit_latencies_over_passes():
    # 11 units, so p9 is the tail; 3 passes give 33 pooled latencies
    fast = {f"u{i}": 0.001 * (i + 1) for i in range(11)}
    slow = {k: 2 * v for k, v in fast.items()}
    metrics, pct = run.end_to_end([fast, slow, fast], [0.3, 0.1, 0.2], 12.5)
    assert pct == 9
    assert abs(metrics["wall_s"][0] - sum(fast.values())) < 1e-12
    pooled = sorted(list(fast.values()) * 2 + list(slow.values()))
    assert metrics["unit_ms_p50"][0] == 1000 * pooled[16]
    assert metrics["unit_ms_tail"][0] == 1000 * pooled[2]
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["peak_rss_mb"] == (12.5, "MB")


def test_end_to_end_tail_of_few_units_is_slowest_unit_median():
    # two units: no percentile leaves ten beyond, so the tail is the
    # slowest unit's median over passes, not its slowest single run
    passes = [{"a": 1.0, "b": 4.0}, {"a": 2.0, "b": 6.0}, {"a": 1.0, "b": 5.0}]
    metrics, pct = run.end_to_end(passes, [0.1], 1.0)
    assert pct == 100
    assert metrics["unit_ms_tail"] == (5000.0, "ms")
    assert metrics["unit_ms_p50"] == (3000.0, "ms")


def _small_content_units():
    keep = {"dm zmod:2 deg=1", "gaussian zmod:3", "certify zmod:2 gen:none"}
    return [u for u in workloads.content_units(0) if u.key in keep]


def test_output_check_passes_on_true_records():
    units = _small_content_units()
    expected = {u.key: u.record(u.run()) for u in units}
    _, attempted, failed, problems = run._run_pass(workloads, units, expected, True)
    assert (attempted, failed, problems) == (3, 0, [])


def test_output_check_flags_tampered_record():
    units = _small_content_units()
    expected = {u.key: u.record(u.run()) for u in units}
    expected["gaussian zmod:3"][2] += 1  # the checked count
    _, attempted, failed, problems = run._run_pass(workloads, units, expected, True)
    assert (attempted, failed) == (3, 1)
    assert problems == ["gaussian zmod:3: 1 item(s) differ from expected"]


def test_campaign_check_flags_tampered_record_and_report():
    want = {"sha256": "a", "records": {"r - c": ["exact", "pass", "x=1", None]}}
    same = {"sha256": "a", "records": {"r - c": ["exact", "pass", "x=1", None]}}
    assert workloads.campaign_mismatches(same, want, exact=True) == 0
    result = {"sha256": "a", "records": {"r - c": ["exact", "pass", "x=2", None]}}
    assert workloads.campaign_mismatches(result, want, exact=True) == 1
    # another seed changes results but must keep the statuses
    assert workloads.campaign_mismatches(result, want, exact=False) == 0
    status = {"sha256": "b", "records": {"r - c": ["exact", "error", "x=1", None]}}
    assert workloads.campaign_mismatches(status, want, exact=False) == 1
    report = {"sha256": "b", "records": same["records"]}
    assert workloads.campaign_mismatches(report, want, exact=True) == 1


def test_at_reference_speed_divides_by_mean_slowdown():
    r = run.REFERENCE_S
    assert abs(run.at_reference_speed(3.0, r, r) - 3.0) < 1e-12
    # the machine ran the reference loop 1.5 times slower on average
    assert abs(run.at_reference_speed(3.0, r, 2 * r) - 2.0) < 1e-12


def test_pass_brackets_each_unit_with_idle_reference_times():
    units = _small_content_units()
    expected = {u.key: u.record(u.run()) for u in units}
    spans, *_ = run._run_pass(workloads, units, expected, True)
    assert set(spans) == {u.key for u in units}
    for raw, before, after in spans.values():
        assert raw > 0 and 0 < before < 0.1 and 0 < after < 0.1
