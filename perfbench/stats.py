"""Summary statistics and open-loop accounting for the benchmark.

Every timing the benchmark reports is a statistic over many samples.
:func:`percentile` refuses a percentile that fewer than
:data:`MIN_BEYOND` samples lie beyond, so a reported tail is never one
or two unlucky samples.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from fractions import Fraction

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Failed checks described individually in a run's notes.
MAX_FAILURE_NOTES = 20


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples(q: float) -> int:
    """Smallest sample count that supports percentile ``q`` (0 < q < 100).

    ``n`` supports ``q`` when ``n * (100 - q) / 100 >= MIN_BEYOND``:
    p50 needs 20 samples, p90 100 and p99 1000.
    """
    tail = (Fraction(100) - Fraction(str(q))) / 100
    if not 0 < tail < 1:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND / tail)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile of ``samples``.

    Raises:
        TooFewSamples: fewer than :data:`MIN_BEYOND` samples lie beyond
            ``q`` (see :func:`min_samples`).
    """
    need = min_samples(q)
    if len(samples) < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples, got {len(samples)}"
        )
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("mean of an empty sample")
    return math.fsum(samples) / len(samples)


def fastest_per_position(replays: Sequence[Sequence[float]]) -> list[float]:
    """Per position, the fastest time any replay measured there.

    Replays of identical work differ only by what the host added to
    each; the fastest of them is the work's own time.  Positions past
    the shortest replay are dropped.
    """
    if not replays:
        raise TooFewSamples("no replays")
    return [min(times) for times in zip(*replays)]


def drive_open_loop(
    offsets: Sequence[float],
    submit: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[float], list[float]]:
    """Send job ``i`` at ``start + offsets[i]``, whatever happened before.

    The schedule is fixed up front: a submission that stalls delays the
    jobs due after it, and they are sent late rather than rescheduled.
    Latency must therefore be measured from each job's *due* time (see
    :func:`open_loop_latencies`), so the stall is charged to every job
    that waited behind it.

    Args:
        offsets: Non-decreasing due times in seconds from the start.
        submit: Called with the job index when the job is sent.
        clock / sleep: Time source and sleeper (replaceable in tests).

    Returns:
        ``(due, sent)`` absolute times per job, on ``clock``'s scale.
    """
    start = clock()
    due: list[float] = []
    sent: list[float] = []
    for index, offset in enumerate(offsets):
        due_at = start + offset
        now = clock()
        if now < due_at:
            sleep(due_at - now)
            now = clock()
        due.append(due_at)
        sent.append(now)
        submit(index)
    return due, sent


def open_loop_latencies(
    due: Sequence[float], done: Sequence[float | None]
) -> list[float]:
    """Per-job latency from when the job was due to when it completed.

    A job that never completed (``done`` is ``None``) misses every
    latency limit: its latency is infinite.
    """
    if len(due) != len(done):
        raise ValueError("due and done must have one entry per job")
    return [
        math.inf if finish is None else finish - start
        for start, finish in zip(due, done)
    ]


class Report:
    """Metrics of one run plus its operation and check accounting."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, int]] = {}
        #: Diagnostics printed and kept with the run but left out of the
        #: result line: figures only some workloads can measure.
        self.details: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(
        self, name: str, value: float, unit: str, samples: int,
        detail: bool = False,
    ) -> None:
        """Record ``name``; ``samples`` is how many values it summarizes.

        ``detail`` files it under :attr:`details` instead of the metrics.
        """
        target = self.details if detail else self.metrics
        target[name] = (float(value), unit, int(samples))

    def add_percentile(
        self, name: str, samples: Sequence[float], q: float, unit: str,
        scale: float = 1.0, detail: bool = False,
    ) -> None:
        """Record a percentile, or a note when the sample cannot support it."""
        try:
            value = percentile(samples, q)
        except TooFewSamples as exc:
            self.notes.append(f"{name} omitted: {exc}")
            return
        if not math.isfinite(value):  # failed jobs reach the percentile
            self.notes.append(f"{name} omitted: failed jobs reach it")
            return
        self.add(name, value * scale, unit, len(samples), detail)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; a failure is noted and counted."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_FAILURE_NOTES:
                self.notes.append(f"check failed: {what}")

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)
