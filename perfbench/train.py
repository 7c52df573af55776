"""Workload ``train_sampled``: timed Alg. 1 steps of QOC on MNIST-4.

QC-Train-PGP (parameter shift with probabilistic gradient pruning,
w_a=1, w_p=2, r=0.5) on a shot-sampled ideal device.

A run is a fixed number of identical *replays* (see :func:`replay_count`).
Each replay sets up from cold (fresh backend with empty plan caches,
engine and data, one warm-up PGP stage) and then times the same
:data:`STEPS` training steps, with a validation pass after every PGP
stage.  Every replay starts from the same seed, so step ``k`` does the
same work in every replay (checked: all replays end on bit-identical
parameters).  A step's time is the fastest of its replays, which
removes the slowdowns a shared host adds to some replays and not
others; percentiles are then taken over the step positions.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

import spans
import stats

TASK = "mnist4"
BATCH = 8
SHOTS = 1024
#: Steps per PGP stage (w_a + w_p).  Warm-up and timing use whole
#: stages, so the share of pruned gradients is exactly r * w_p / STAGE.
STAGE = 3
#: Timed steps per replay: 34 whole stages, enough positions for p90.
STEPS = 102
#: Cold set-ups per replay; the last one's engine is timed.
SETUPS_PER_REPLAY = 2
MIN_REPLAYS = 2
#: Seconds one replay takes on an unloaded 2-core host.
REPLAY_S = 4.5
#: A run starts no replay after this many times ``--seconds``, so a
#: heavily loaded host cannot stretch it without limit.
MAX_STRETCH = 1.3
EVAL_SIZE = 32
ADJOINT_TOLERANCE = 1e-8
#: Shot-noise bound on one parameter-shift Jacobian entry,
#: (f+ - f-) / 2 with Var(f) <= 1 / shots: sigma <= 1 / sqrt(2 * shots).
SHOT_SIGMA = 1.0 / math.sqrt(2 * SHOTS)
MAX_ABS_SIGMAS = 6.0
MAX_RMS_SIGMAS = 1.25

#: Span names whose self times make up a traced training step.
STEP_LAYERS = (
    "circuits.build",
    "circuits.group",
    "circuits.stack",
    "gradients.shift_build",
    "gradients.shift_combine",
    "pruning",
    "hardware.run_self",
    "sim.evolve",
    "sim.readout",
    "training.classical",
)


def replay_count(seconds: float) -> int:
    """Replays of a run: as many as fit ``seconds`` on an unloaded host.

    The count depends on the arguments alone.  Stopping at a deadline
    instead would give a loaded host fewer replays, and so fewer chances
    at a fast time, which would magnify the host's slowdown.
    """
    return max(MIN_REPLAYS, int(seconds // REPLAY_S))


def _config(seed: int):
    from repro.pruning import PruningHyperparams
    from repro.training import TrainingConfig

    return TrainingConfig(
        task=TASK,
        steps=1_000_000,
        batch_size=BATCH,
        shots=SHOTS,
        gradient_engine="parameter_shift",
        pruning=PruningHyperparams(
            accumulation_window=1, pruning_window=2, ratio=0.5
        ),
        seed=seed,
        eval_every=0,
        eval_size=EVAL_SIZE,
        eval_shots=SHOTS,
    )


def cold_setup(seed: int):
    """Backend, engine and data from scratch, warmed by one PGP stage."""
    from repro.hardware import IdealBackend
    from repro.training import TrainingEngine

    backend = IdealBackend(exact=False, seed=seed)
    engine = TrainingEngine(_config(seed), backend)
    for _ in range(STAGE):
        engine.train_step()
    engine.evaluate()
    return engine


def first_batch_checks(seed: int, report: stats.Report) -> None:
    """Gradient correctness on the first mini-batch, off the clock.

    The sampled parameter-shift Jacobian must lie within shot noise of
    the exact one, and the adjoint engine's Jacobian must match exact
    parameter shift.
    """
    from repro.gradients.adjoint_engine import (
        adjoint_forward_and_jacobian_batch,
    )
    from repro.gradients.parameter_shift import (
        parameter_shift_jacobian_batch,
    )
    from repro.hardware import IdealBackend
    from repro.training import TrainingEngine

    engine = TrainingEngine(_config(seed), IdealBackend(exact=True))
    features, _ = engine.sampler.sample()
    circuits = [
        engine.architecture.full_circuit(row, engine.theta)
        for row in features
    ]
    exact = np.stack(
        parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=True), shots=SHOTS
        )
    )
    _, jacobians = adjoint_forward_and_jacobian_batch(
        circuits, backend=IdealBackend(exact=True)
    )
    error = float(np.max(np.abs(np.stack(jacobians) - exact)))
    report.check(
        error <= ADJOINT_TOLERANCE,
        f"adjoint Jacobian off parameter shift by {error:.3g}",
    )
    sampled = np.stack(
        parameter_shift_jacobian_batch(
            circuits, IdealBackend(exact=False, seed=seed), shots=SHOTS
        )
    )
    sigmas = np.abs(sampled - exact) / SHOT_SIGMA
    worst = float(sigmas.max())
    rms = float(np.sqrt(np.mean(sigmas**2)))
    report.check(
        worst <= MAX_ABS_SIGMAS and rms <= MAX_RMS_SIGMAS,
        f"sampled Jacobian off exact by {worst:.2f} sigma max, "
        f"{rms:.2f} sigma rms",
    )


@dataclasses.dataclass
class Replay:
    """What one replay measured and counted."""

    setup_s: list[float]
    plans_compiled: int
    step_s: list[float] = dataclasses.field(default_factory=list)
    eval_s: list[float] = dataclasses.field(default_factory=list)
    #: Circuits metered per step, by PGP phase ("full" / "prune").
    per_step: dict = dataclasses.field(
        default_factory=lambda: {"full": set(), "prune": set()}
    )
    step_circuits: int = 0
    evaluated: int = 0
    possible: int = 0
    timed_compiles: int = 0
    timed_hits: int = 0
    theta: np.ndarray | None = None
    compile_s: float = 0.0


def run_replay(seed: int, report: stats.Report,
               tracer: spans.Tracer | None) -> Replay:
    """Cold set-ups, then the timed steps of one replay."""
    setup_s = []
    mark = tracer.mark() if tracer is not None else 0
    for _ in range(SETUPS_PER_REPLAY):
        began = time.perf_counter()
        engine = cold_setup(seed)
        setup_s.append(time.perf_counter() - began)
    backend = engine.backend
    out = Replay(setup_s, backend.plan_cache.stats()["misses"])
    if tracer is not None:
        # Keep only the timed steps' spans, after noting set-up cost.
        setup_spans = tracer.take_since(mark)
        out.compile_s = math.fsum(
            tracer.durations("sim.compile", setup_spans)
        ) / SETUPS_PER_REPLAY

    meter = backend.meter
    pruner = engine.pruner
    plans_before = backend.plan_cache.stats()
    pruner_before = (pruner.evaluated_gradients, pruner.possible_gradients)
    for position in range(STEPS):
        before = meter.circuits
        began = time.perf_counter()
        try:
            record = engine.train_step()
        except Exception as exc:  # counted; the replay cannot go on
            report.check(False, f"train_step raised {exc!r}")
            return out
        out.step_s.append(time.perf_counter() - began)
        delta = meter.circuits - before
        expected = BATCH * (1 + 2 * record.n_selected)
        report.check(
            delta == expected and math.isfinite(record.loss),
            f"step metered {delta} circuits (expected {expected}), "
            f"loss {record.loss}",
        )
        out.per_step[record.phase].add(delta)
        out.step_circuits += delta
        if (position + 1) % STAGE == 0:
            began = time.perf_counter()
            accuracy = engine.evaluate()
            out.eval_s.append(time.perf_counter() - began)
            report.check(0.0 <= accuracy <= 1.0, f"accuracy {accuracy}")
    plans_after = backend.plan_cache.stats()
    out.timed_compiles = plans_after["misses"] - plans_before["misses"]
    out.timed_hits = plans_after["hits"] - plans_before["hits"]
    out.evaluated = pruner.evaluated_gradients - pruner_before[0]
    out.possible = pruner.possible_gradients - pruner_before[1]
    out.theta = engine.theta.copy()
    report.check(
        out.timed_compiles == 0,
        f"{out.timed_compiles} plans compiled while timed",
    )
    return out


def run(seed: int, seconds: float, trace: bool):
    """One run of ``train_sampled``; returns ``(report, tracer or None)``."""
    report = stats.Report()
    first_batch_checks(seed, report)

    tracer = spans.Tracer() if trace else None
    plain: list[Replay] = []
    traced: list[Replay] = []
    cutoff = time.perf_counter() + MAX_STRETCH * seconds
    replays_wanted = replay_count(seconds)
    for index in range(replays_wanted):
        if index >= MIN_REPLAYS and time.perf_counter() > cutoff:
            report.notes.append(
                f"stopped after {index} of {replays_wanted} replays: "
                f"the host ran slower than {MAX_STRETCH} times nominal"
            )
            break
        # A traced run traces every other replay, so the tracing
        # overhead is measured within the same run.
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            spans.install_layer_spans(tracer)
            try:
                traced.append(run_replay(seed, report, tracer))
            finally:
                tracer.remove()
        else:
            plain.append(run_replay(seed, report, None))

    replays = plain + traced
    complete = all(len(r.step_s) == STEPS for r in replays)
    report.check(
        complete and all(
            np.array_equal(r.theta, replays[0].theta) for r in replays
        ),
        "replays did not end on identical parameters",
    )
    report.check(
        len({r.plans_compiled for r in replays}) == 1,
        f"set-ups compiled {[r.plans_compiled for r in replays]} plans",
    )
    if complete:
        if tracer is None:
            _end_to_end(report, plain)
        else:
            _per_layer(report, tracer, plain, traced)
    return report, tracer


def _best(replays: list[Replay], field: str) -> list[float]:
    return stats.fastest_per_position([getattr(r, field) for r in replays])


def _end_to_end(report: stats.Report, replays: list[Replay]) -> None:
    setup_s = [s for r in replays for s in r.setup_s]
    report.add("setup_s", statistics.median(setup_s), "s", len(setup_s))
    steps = _best(replays, "step_s")
    report.add_percentile("op_ms_p50", steps, 50, "ms", 1e3)
    report.add_percentile("op_ms_p90", steps, 90, "ms", 1e3)
    report.add(
        "circuits_per_s", replays[0].step_circuits / math.fsum(steps),
        "1/s", len(steps), detail=True,
    )
    report.add_percentile(
        "eval_ms_p50", _best(replays, "eval_s"), 50, "ms", 1e3, detail=True
    )


def _per_layer(report: stats.Report, tracer: spans.Tracer,
               plain: list[Replay], traced: list[Replay]) -> None:
    steps = tracer.roots("training.classical")
    n_steps = len(steps)
    self_s = tracer.self_seconds("training.classical")
    groups = dict.fromkeys(spans.LAYER_GROUPS, 0.0)
    for layer in STEP_LAYERS:
        seconds = self_s.get(layer, 0.0)
        groups[spans.layer_group(layer)] += seconds
        report.add(
            "pruning.ms" if layer == "pruning" else f"{layer}_ms",
            1e3 * seconds / n_steps, "ms", n_steps, detail=True,
        )
    for group, seconds in groups.items():
        report.add(f"{group}.self_ms", 1e3 * seconds / n_steps, "ms", n_steps)
    step_ms = 1e3 * math.fsum(s[5] - s[4] for s in steps) / n_steps
    self_sum_ms = 1e3 * math.fsum(self_s.values()) / n_steps
    report.add("trace.op_ms_mean", step_ms, "ms", n_steps)
    report.add("trace.self_sum_ms", self_sum_ms, "ms", n_steps)
    report.check(
        abs(self_sum_ms - step_ms) <= 1e-6 * step_ms,
        f"layer self times sum to {self_sum_ms} ms, steps {step_ms} ms",
    )
    traced_p50 = stats.percentile(_best(traced, "step_s"), 50)
    plain_p50 = stats.percentile(_best(plain, "step_s"), 50)
    report.add(
        "trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "frac", n_steps
    )

    replays = plain + traced
    for phase, label in (("full", "full"), ("prune", "pruned")):
        counts = set().union(*(r.per_step[phase] for r in replays))
        report.check(
            len(counts) == 1, f"{label} steps metered {sorted(counts)}"
        )
        report.add(
            f"hardware.circuits_per_step.{label}", max(counts), "count",
            n_steps, detail=True,
        )
    report.add(
        "hardware.circuits_per_op", replays[0].step_circuits / STEPS,
        "count", STEPS,
    )
    step_ids = {s[0] for s in steps}
    runs = len([
        s for s in tracer.spans
        if s[3] == "hardware.run_self" and s[2] in step_ids
    ])
    report.add(
        "hardware.circuits_per_run",
        sum(r.step_circuits for r in traced) / runs, "count", runs,
    )
    possible = sum(r.possible for r in replays)
    evaluated = sum(r.evaluated for r in replays)
    report.add(
        "pruning.skipped_frac", (possible - evaluated) / possible, "frac",
        possible,
    )
    report.add(
        "sim.compile_ms",
        1e3 * math.fsum(r.compile_s for r in traced) / len(traced),
        "ms", len(traced),
    )
    report.add(
        "sim.plans_compiled", replays[0].plans_compiled, "count",
        len(replays),
    )
    hits = sum(r.timed_hits for r in replays)
    lookups = hits + sum(r.timed_compiles for r in replays)
    report.add("sim.plan_hit_rate", hits / lookups, "frac", lookups)
