"""Tests of the benchmark's own helpers.

Named ``check_*`` so the repository's test suite does not collect them;
run them explicitly from the repository root::

    python3 -m pytest -q perfbench/tests/check_helpers.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
import stats  # noqa: E402


# -- percentile helper ---------------------------------------------------------


@pytest.mark.parametrize("q, need", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, need):
    assert stats.min_samples(q) == need
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(need - 1)), q)
    stats.percentile(list(range(need)), q)


def test_percentile_interpolates_linearly():
    samples = [float(x) for x in range(100, 0, -1)]  # unsorted input
    assert stats.percentile(samples, 50) == pytest.approx(50.5)
    assert stats.percentile(samples, 90) == pytest.approx(90.1)


def test_report_notes_refused_percentile():
    report = stats.Report()
    report.add_percentile("p90", [1.0] * 99, 90, "ms")
    assert "p90" not in report.metrics
    assert any("p90" in note for note in report.notes)


def test_report_omits_percentile_reached_by_failed_jobs():
    report = stats.Report()
    latencies = stats.open_loop_latencies([0.0] * 20, [1.0] * 5 + [None] * 15)
    report.add_percentile("p50", latencies, 50, "ms")
    assert "p50" not in report.metrics
    assert any("failed jobs" in note for note in report.notes)


def test_fastest_per_position_takes_each_positions_minimum():
    replays = [[3.0, 1.0, 5.0, 9.0], [2.0, 4.0, 6.0], [4.0, 2.0, 1.0]]
    # Positions past the shortest replay are dropped.
    assert stats.fastest_per_position(replays) == [2.0, 1.0, 1.0]
    with pytest.raises(stats.TooFewSamples):
        stats.fastest_per_position([])


# -- open-loop accounting --------------------------------------------------------


class FakeClock:
    """Time that moves only when the open loop sleeps or a submit stalls."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_stalled_submission_charges_jobs_due_after_it():
    clock = FakeClock()
    offsets = [0.00, 0.01, 0.02, 0.03, 0.04]
    stall_s = 0.1

    def submit(index: int) -> None:
        if index == 1:
            clock.now += stall_s  # this submission blocks the loop

    due, sent = stats.drive_open_loop(
        offsets, submit, clock=clock, sleep=clock.sleep
    )
    # The schedule is not shifted by the stall ...
    assert due == pytest.approx([100.0 + o for o in offsets])
    # ... so the jobs due during it are sent late, when it ends.
    assert sent[:2] == pytest.approx([100.00, 100.01])
    assert sent[2:] == pytest.approx([100.11] * 3)

    service_s = 0.002
    done = [s + service_s for s in sent]
    latencies = stats.open_loop_latencies(due, done)
    assert latencies[0] == pytest.approx(service_s)
    # Each later job's latency carries the part of the stall it waited.
    for index in (2, 3, 4):
        waited = 100.11 - due[index]
        assert latencies[index] == pytest.approx(waited + service_s)
        assert latencies[index] > service_s


def test_open_loop_sends_on_time_when_nothing_stalls():
    clock = FakeClock()
    due, sent = stats.drive_open_loop(
        [0.0, 0.5, 0.75], lambda index: None, clock=clock, sleep=clock.sleep
    )
    assert sent == pytest.approx(due)


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()

    def at(t: float) -> None:
        clock.now = 100.0 + t

    at(0)
    tracer.begin("step")
    at(1)
    tracer.begin("build")
    at(2)
    tracer.begin("stack")  # grandchild: charged to build, not step
    at(2.5)
    tracer.end()
    at(3)
    tracer.end()
    at(4)
    tracer.begin("run")
    at(6)
    tracer.end()
    at(10)
    tracer.end()

    self_s = tracer.self_seconds("step")
    assert self_s == pytest.approx(
        {"step": 10 - 2 - 2, "build": 2 - 0.5, "stack": 0.5, "run": 2}
    )
    assert sum(self_s.values()) == pytest.approx(10)
    (root,) = tracer.roots("step")
    assert root[5] - root[4] == pytest.approx(10)


def test_wrap_records_spans_and_remove_restores():
    class Layer:
        def work(self, items):
            return len(items)

    original = Layer.work
    tracer = spans.Tracer()
    tracer.wrap(Layer, "work", "layer.work", count=lambda args: len(args[1]))
    assert Layer().work([1, 2, 3]) == 3
    assert tracer.counts("layer.work") == [3]
    tracer.remove()
    assert Layer.work is original
    Layer().work([])
    assert len(tracer.spans) == 1
