"""Workload ``serve_open``: seeded Poisson arrivals into an ExecutionService.

One submitting thread sends jobs on a schedule fixed before the run
(an open loop) and one collecting thread consumes their results.  The
traffic mixes the five task architectures:

* inference jobs, one circuit each, a third of them drawn from a small
  hot pool (repeats that the service's ``ResultCache`` serves) and the
  rest on fresh inputs;
* parameter-shift gradient jobs carrying the shifted clones of a
  randomly pruned parameter subset, on fresh parameters (never repeat).

Latency runs from when each job was *due* to when the service completed
it, so a stalled submission is charged to every job queued behind it.
Each replay offers fresh job sets from the seeded generator, and the
latencies of all replays are pooled.
"""

from __future__ import annotations

import gc
import math
import queue
import statistics
import threading
import time

import numpy as np

import spans
import stats

TASKS = ("mnist2", "fashion2", "mnist4", "fashion4", "vowel4")
HOT_PER_TASK = 16
#: Job mix: hot-pool inference, fresh inference, gradient.
MIX = (0.3, 0.6, 0.1)
#: Offered rates (jobs/s) of the two measured levels.  Both stay far
#: below the knee (about 1000 jobs/s on an unloaded 2-core host, half
#: that when the host is loaded), where the tail does not swing with load.
RATES = {"low": 100.0, "high": 200.0}
PRUNE_RATIO = 0.5
RESULT_TIMEOUT_S = 60.0


class JobSet:
    """Pre-built jobs of one traffic segment plus their arrival offsets."""

    def __init__(self, kinds, circuits, offsets):
        self.kinds = kinds
        self.circuits = circuits
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.kinds)


class Traffic:
    """Seeded job generator: fixed model weights, hot pool, fresh inputs."""

    def __init__(self, seed: int):
        from repro.circuits import get_architecture

        self.rng = np.random.default_rng(seed)
        self.archs = [get_architecture(name) for name in TASKS]
        self.weights = [
            a.init_parameters(self.rng, scale=np.pi) for a in self.archs
        ]
        self.hot = [
            [self._inference(t) for _ in range(HOT_PER_TASK)]
            for t in range(len(TASKS))
        ]
        #: Parameter gradients the segments' gradient jobs could carry,
        #: and those they do carry (two shifted circuits each).
        self.possible = 0
        self.evaluated = 0

    def _inputs(self, task: int) -> np.ndarray:
        arch = self.archs[task]
        return self.rng.uniform(0.0, np.pi, arch.n_features)

    def _inference(self, task: int):
        return self.archs[task].full_circuit(
            self._inputs(task), self.weights[task]
        )

    def _gradient(self, task: int) -> list:
        from repro.gradients.parameter_shift import build_shifted_circuits

        arch = self.archs[task]
        theta = arch.init_parameters(self.rng, scale=np.pi)
        circuit = arch.full_circuit(self._inputs(task), theta)
        n_keep = max(1, round(arch.num_parameters * (1 - PRUNE_RATIO)))
        keep = np.sort(
            self.rng.choice(arch.num_parameters, n_keep, replace=False)
        )
        shifted, _ = build_shifted_circuits(circuit, keep)
        return shifted

    def warmup_jobs(self) -> list[tuple[str, list]]:
        """Every hot circuit once, plus one gradient job per task."""
        jobs = [
            ("inference", [c]) for pool in self.hot for c in pool
        ]
        jobs += [("gradient", self._gradient(t)) for t in range(len(TASKS))]
        return jobs

    def segment(self, rate: float, n_jobs: int) -> JobSet:
        """Poisson arrivals at ``rate``; the mix is exact, in random order.

        Drawing each job's kind and task independently would let the
        share of heavy gradient jobs swing from seed to seed; fixing the
        counts and shuffling keeps every segment's work the same.
        """
        gaps = self.rng.exponential(1.0 / rate, n_jobs)
        offsets = np.cumsum(gaps) - gaps[0]
        counts = [round(share * n_jobs) for share in MIX[:2]]
        counts.append(n_jobs - sum(counts))
        plan = [
            (kind, index % len(TASKS))
            for kind, count in enumerate(counts)
            for index in range(count)
        ]
        order = self.rng.permutation(n_jobs)
        kinds, circuits = [], []
        for position in order:
            kind, task = plan[position]
            if kind == 0:
                hot = self.hot[task]
                kinds.append("inference")
                circuits.append([hot[int(self.rng.integers(len(hot)))]])
            elif kind == 1:
                kinds.append("inference")
                circuits.append([self._inference(task)])
            else:
                kinds.append("gradient")
                circuits.append(self._gradient(task))
                self.possible += self.archs[task].num_parameters
                self.evaluated += len(circuits[-1]) // 2
        return JobSet(kinds, circuits, offsets.tolist())


class _StampedEvent(threading.Event):
    """An Event that records when it was first set."""

    finished_at: float | None = None

    def set(self) -> None:
        if self.finished_at is None:
            self.finished_at = time.perf_counter()
        super().set()


def stamp_completions():
    """Make every new ServiceJob record when it resolves.

    ``ServiceJob`` offers no completion callback, so the benchmark gives
    each job an Event that stamps the time it is set (the job's
    ``done`` signal); the stamp is written before any waiter wakes.
    Returns an undo function.
    """
    from repro.serving.service import ServiceJob

    original = vars(ServiceJob)["__init__"]

    def init(job, *args, **kwargs):
        original(job, *args, **kwargs)
        job._done = _StampedEvent()

    ServiceJob.__init__ = init

    def undo():
        ServiceJob.__init__ = original

    return undo


def make_service(seed: int):
    from repro.hardware import IdealBackend
    from repro.serving import ExecutionService

    backends = [
        IdealBackend(exact=True, seed=seed),
        IdealBackend(exact=True, seed=seed + 1),
    ]
    return ExecutionService(backends, policy="round_robin", workers=0)


def cold_setup(traffic: Traffic, seed: int):
    """Fresh service with empty plan caches, warmed on every structure.

    Each task's first two hot circuits run one after the other, so the
    round-robin router compiles every structure on both backends and
    the number of plans compiled does not depend on timing.
    """
    service = make_service(seed).start()
    for pool in traffic.hot:
        for circuit in pool[:2]:
            service.run([circuit], shots=0, purpose="inference")
    jobs = [
        service.submit(circuits, shots=0, purpose=kind)
        for kind, circuits in traffic.warmup_jobs()
    ]
    for job in jobs:
        job.result(timeout=RESULT_TIMEOUT_S)
    return service


class SegmentResult:
    """Per-job latencies (in submission order) and counts of a segment."""

    def __init__(self):
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.failed = 0
        self.attempted = 0
        self.samples: list[tuple[list, list]] = []


def run_segment(
    service, jobs: JobSet, check_every: int = 0
) -> SegmentResult:
    """Drive one open-loop segment to completion.

    The collector keeps only each job's completion time (and every
    ``check_every``-th job's results for the bit-identity check, 0 for
    none), so finished jobs do not pile up in the heap.
    """
    out = SegmentResult()
    handoff: queue.Queue = queue.Queue()
    done: list[float | None] = [None] * len(jobs)

    def submit(index: int) -> None:
        try:
            job = service.submit(
                jobs.circuits[index], shots=0, purpose=jobs.kinds[index]
            )
        except Exception:  # counted as a failed job
            return
        handoff.put((index, job))

    def collect() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            index, job = item
            try:
                result = job.result(timeout=RESULT_TIMEOUT_S)
            except Exception:  # counted as a failed job
                continue
            done[index] = job._done.finished_at
            if check_every and index % check_every == 0:
                out.samples.append((jobs.circuits[index], result))

    collector = threading.Thread(target=collect, name="perfbench-collect")
    # Pre-built inputs are the load generator's, not the service's:
    # freeze them (and earlier garbage) out of the collector's scans,
    # as if the clients lived in other processes.
    gc.collect()
    gc.freeze()
    collector.start()
    try:
        due, sent = stats.drive_open_loop(jobs.offsets, submit)
    finally:
        handoff.put(None)
        collector.join()
        gc.unfreeze()

    out.attempted = len(jobs)
    out.failed = done.count(None)
    out.latencies = stats.open_loop_latencies(due, done)
    out.lateness = [s - d for d, s in zip(due, sent)]
    return out


def bit_identical(samples) -> tuple[int, int]:
    """Re-run sampled jobs directly on a fresh exact backend.

    Returns ``(checked, mismatched)`` job counts.
    """
    from repro.hardware import IdealBackend

    direct = IdealBackend(exact=True)
    mismatched = 0
    for circuits, served in samples:
        expected = direct.run(circuits, shots=0)
        if not all(
            np.array_equal(a.expectations, b.expectations)
            for a, b in zip(expected, served)
        ) or len(expected) != len(served):
            mismatched += 1
    return len(samples), mismatched


#: Replays of a run.  Each starts from cold set-ups (so from an empty
#: result cache) and offers the low and then the high rate; latencies
#: are pooled over the replays.  A traced run replays four times and
#: traces every other.
REPLAYS = 2
TRACED_REPLAYS = 4
#: Cold set-ups per replay; the last one's service carries the replay.
SETUPS_PER_REPLAY = 4
#: Seconds each replay offers each rate, as shares of ``--seconds``.  At
#: 25 s the low rate gets 1500 jobs pooled over the replays and the high
#: rate 2000: a p99 is decided by whether a host stall falls in its
#: window, and a longer window averages over more of them.
RATE_SHARES = {"low": 0.3, "high": 0.2}
#: Every n-th job's results are re-run directly for the bit-identity check.
CHECK_EVERY = 25


class Level:
    """One offered rate, with what its segments measured pooled."""

    def __init__(self, name: str, rate: float, n_jobs: int):
        self.name = name
        self.rate = rate
        self.n_jobs = n_jobs
        self.latencies: list[float] = []
        self.lateness: list[float] = []


def _plan_counts(service) -> tuple[int, int]:
    """(misses, hits) summed over the service's routed backends."""
    misses = hits = 0
    for backend in service.router.backends:
        plan_stats = backend.plan_cache.stats()
        misses += plan_stats["misses"]
        hits += plan_stats["hits"]
    return misses, hits


def _offer(service, traffic, level: Level, report, samples) -> None:
    """Offer a fresh job set at the level's rate and pool what it measured."""
    jobs = traffic.segment(level.rate, level.n_jobs)
    before = _plan_counts(service)
    out = run_segment(service, jobs, CHECK_EVERY)
    after = _plan_counts(service)
    report.attempted += out.attempted
    report.failed += out.failed
    if out.failed:
        report.notes.append(f"{out.failed} of {out.attempted} jobs failed")
    report.check(
        after[0] == before[0],
        f"{after[0] - before[0]} plans compiled while timed",
    )
    level.latencies += out.latencies
    level.lateness += out.lateness
    samples["lookups"] += (after[0] - before[0]) + (after[1] - before[1])
    samples["hits"] += after[1] - before[1]
    samples["checks"] += out.samples


def run(seed: int, seconds: float, trace: bool):
    """One run of ``serve_open``; returns ``(report, tracer or None)``.

    A traced run wraps every layer in its odd replays and nothing in its
    even ones, which give ``trace.overhead_frac``.
    """
    report = stats.Report()
    traffic = Traffic(seed)
    tracer = spans.Tracer() if trace else None
    levels = {
        tracing: [
            Level(name, rate, math.ceil(seconds * RATE_SHARES[name] * rate))
            for name, rate in RATES.items()
        ]
        for tracing in (False, True)
    }
    samples = {"lookups": 0, "hits": 0, "checks": []}
    setup_s: list[float] = []
    setup_compiles: list[int] = []
    service_stats = []
    compile_s = 0.0
    undo = stamp_completions()
    service = None
    try:
        for index in range(TRACED_REPLAYS if trace else REPLAYS):
            tracing = tracer is not None and index % 2 == 1
            if tracing:
                spans.install_layer_spans(tracer)
                mark = tracer.mark()
            for _ in range(SETUPS_PER_REPLAY):
                if service is not None:
                    service.stop()
                began = time.perf_counter()
                service = cold_setup(traffic, seed)
                setup_s.append(time.perf_counter() - began)
                setup_compiles.append(_plan_counts(service)[0])
            if tracing:
                # Keep only the timed segments' spans and counters.
                setup_spans = tracer.take_since(mark)
                compile_s += math.fsum(
                    tracer.durations("sim.compile", setup_spans)
                )
                before = service.stats()
            for level in levels[tracing]:
                _offer(service, traffic, level, report, samples)
            if tracing:
                service_stats.append((before, service.stats()))
                tracer.remove()
    finally:
        if tracer is not None:
            tracer.remove()
        if service is not None:
            service.stop()
        undo()

    checked, mismatched = bit_identical(samples["checks"])
    report.check(
        checked > 0 and mismatched == 0,
        f"{mismatched} of {checked} served jobs differ from direct runs",
    )
    report.check(
        len(set(setup_compiles)) == 1,
        f"set-ups compiled {setup_compiles} plans",
    )
    if tracer is None:
        _end_to_end(report, levels[False], setup_s)
    else:
        _per_layer(report, tracer, traffic, levels, samples, setup_compiles,
                   service_stats, compile_s)
    return report, tracer


def _end_to_end(report, levels: list[Level], setup_s: list[float]) -> None:
    report.add("setup_s", statistics.median(setup_s), "s", len(setup_s))
    pooled = [latency for level in levels for latency in level.latencies]
    report.add_percentile("op_ms_p50", pooled, 50, "ms", 1e3)
    report.add_percentile("op_ms_p90", pooled, 90, "ms", 1e3)
    for level in levels:
        for q in (50, 99):
            report.add_percentile(
                f"latency_ms_p{q}.{level.name}", level.latencies, q,
                "ms", 1e3, detail=True,
            )


def _per_layer(report, tracer, traffic, levels, samples, setup_compiles,
               service_stats, compile_s) -> None:
    traced_setups = SETUPS_PER_REPLAY * len(service_stats)
    latencies = [lat for level in levels[True] for lat in level.latencies]
    n_jobs = len(latencies)
    # A job's work runs under two roots: its submission on the sending
    # thread and the flushes that execute it on the service's thread.
    self_s: dict[str, float] = {}
    for root in ("serving.submit", "serving.flush"):
        for name, seconds in tracer.self_seconds(root).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    groups = dict.fromkeys(spans.LAYER_GROUPS, 0.0)
    for name, seconds in self_s.items():
        groups[spans.layer_group(name)] += seconds
        report.add(f"{name}_ms", 1e3 * seconds / n_jobs, "ms", n_jobs,
                   detail=True)
    for group, seconds in groups.items():
        report.add(f"{group}.self_ms", 1e3 * seconds / n_jobs, "ms", n_jobs)
    finite = [lat for lat in latencies if math.isfinite(lat)]
    report.add(
        "trace.op_ms_mean", 1e3 * stats.mean(finite), "ms", len(finite)
    )
    report.add(
        "trace.self_sum_ms", 1e3 * math.fsum(self_s.values()) / n_jobs,
        "ms", n_jobs,
    )
    plain = [lat for level in levels[False] for lat in level.latencies]
    report.add(
        "trace.overhead_frac",
        stats.percentile(latencies, 50) / stats.percentile(plain, 50) - 1.0,
        "frac", n_jobs,
    )

    flush_counts = tracer.counts("serving.flush")
    report.add(
        "hardware.circuits_per_op", sum(flush_counts) / n_jobs, "count",
        n_jobs,
    )
    report.add(
        "hardware.circuits_per_run", stats.mean(flush_counts), "count",
        len(flush_counts),
    )
    report.add(
        "pruning.skipped_frac",
        (traffic.possible - traffic.evaluated) / traffic.possible, "frac",
        traffic.possible,
    )
    report.add(
        "sim.compile_ms", 1e3 * compile_s / traced_setups, "ms",
        traced_setups,
    )
    report.add(
        "sim.plans_compiled", max(setup_compiles), "count",
        len(setup_compiles),
    )
    report.add(
        "sim.plan_hit_rate", samples["hits"] / samples["lookups"], "frac",
        samples["lookups"],
    )

    report.add_percentile(
        "serving.submit_ms_p50", tracer.durations("serving.submit"), 50,
        "ms", 1e3, detail=True,
    )
    flush_s = tracer.durations("serving.flush")
    report.add_percentile(
        "serving.flush_ms_p50", flush_s, 50, "ms", 1e3, detail=True
    )
    report.add_percentile(
        "serving.flush_ms_p99", flush_s, 99, "ms", 1e3, detail=True
    )

    def delta(group: str, key: str) -> int:
        return sum(
            after[group][key] - before[group][key]
            for before, after in service_stats
        )

    hits = delta("cache", "hits")
    lookups = hits + delta("cache", "misses")
    report.add(
        "serving.cache_hit_rate", hits / lookups, "frac", lookups,
        detail=True,
    )
    flushes = delta("scheduler", "flushes")
    report.add(
        "serving.deadline_flush_frac",
        delta("scheduler", "deadline_flushes") / flushes, "frac", flushes,
        detail=True,
    )
    lateness = [late for level in levels[False] for late in level.lateness]
    report.add_percentile(
        "loadgen.late_ms_p99", lateness, 99, "ms", 1e3, detail=True
    )
