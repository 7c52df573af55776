"""In-memory spans around calls into the program's layers.

The program carries no instrumentation of its own, so the benchmark
wraps the public functions each layer exposes (see
:func:`install_layer_spans`) and records one span per call: its name,
start, end, the span that caused it, and the root span of its thread's
call stack.  A span's *self time* is its duration minus the time its
child spans cover; summed over every span under one root, self times
add up to the root's duration.

Spans are thread-local stacks: a call on a service thread never becomes
the child of a call on another thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections.abc import Callable


class Tracer:
    """Collects spans from wrapped functions until :meth:`remove` is called.

    Each finished span is a tuple ``(span_id, parent_id, root_id, name,
    start, end, self_s, count)``; ``count`` is an optional size the
    wrapper measured from the call's arguments (circuits per flush).
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        """Open a span on this thread's stack."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        # [id, parent_id, root_id, name, start, child_seconds]
        stack.append([
            span_id,
            parent[0] if parent else 0,
            parent[2] if parent else span_id,
            name,
            time.perf_counter(),
            0.0,
        ])

    def end(self, count: int | None = None) -> float:
        """Close this thread's innermost span; returns its duration."""
        end = time.perf_counter()
        stack = self._stack()
        span_id, parent_id, root_id, name, start, children = stack.pop()
        duration = end - start
        if stack:
            stack[-1][5] += duration
        record = (
            span_id, parent_id, root_id, name, start, end,
            duration - children, count,
        )
        with self._lock:
            self.spans.append(record)
        return duration

    def mark(self) -> int:
        """Position to pass to :meth:`take_since`."""
        with self._lock:
            return len(self.spans)

    def take_since(self, mark: int) -> list[tuple]:
        """Remove and return the spans finished after :meth:`mark`."""
        with self._lock:
            taken = self.spans[mark:]
            del self.spans[mark:]
        return taken

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Callable[[tuple], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``owner`` is a class or module that defines ``attr`` itself.
        ``count``, when given, maps the call's positional arguments to
        a size stored with the span.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(count(args) if count is not None else None)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def remove(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def roots(self, name: str) -> list[tuple]:
        """Finished spans called ``name`` that have no parent."""
        return [s for s in self.spans if s[3] == name and s[1] == 0]

    def self_seconds(self, root_name: str) -> dict[str, float]:
        """Total self time per span name under roots called ``root_name``."""
        root_ids = {s[0] for s in self.roots(root_name)}
        totals: dict[str, float] = {}
        for span in self.spans:
            if span[2] in root_ids:
                totals[span[3]] = totals.get(span[3], 0.0) + span[6]
        return totals

    def durations(self, name: str, spans=None) -> list[float]:
        """Durations of every span called ``name`` (in ``spans``, if given)."""
        spans = self.spans if spans is None else spans
        return [s[5] - s[4] for s in spans if s[3] == name]

    def counts(self, name: str) -> list[int]:
        return [s[7] for s in self.spans if s[3] == name]


#: Groups the per-layer self times are reported under.  ``top`` holds the
#: layers above the device that issue its work: training, gradients and
#: pruning on a training step; serving on a served job.
LAYER_GROUPS = ("circuits", "top", "hardware", "sim")
TOP_LAYERS = ("training", "gradients", "pruning", "serving")


def layer_group(span_name: str) -> str:
    """The group of :data:`LAYER_GROUPS` a span's self time counts under."""
    layer = span_name.split(".")[0]
    return "top" if layer in TOP_LAYERS else layer


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured ``repro`` layer.

    Span names are the per-layer metric names they feed.  Functions that
    are imported by name into another module are wrapped where the
    caller looks them up.
    """
    from repro.circuits import batch as circuits_batch
    from repro.circuits.ansatz import QnnArchitecture
    from repro.gradients import parameter_shift
    from repro.hardware import backend as hw_backend
    from repro.pruning.pruner import GradientPruner
    from repro.serving.router import Router
    from repro.serving.service import ExecutionService
    from repro.sim import compile as sim_compile
    from repro.sim import measurement
    from repro.sim.batched import BatchedStatevector
    from repro.training import engine as training_engine
    from repro.training.engine import TrainingEngine

    tracer.wrap(TrainingEngine, "train_step", "training.classical")
    tracer.wrap(TrainingEngine, "evaluate", "training.evaluate")
    tracer.wrap(QnnArchitecture, "full_circuit", "circuits.build")
    tracer.wrap(circuits_batch.CircuitBatch, "__init__", "circuits.stack")
    for module in (circuits_batch, hw_backend):
        tracer.wrap(module, "group_by_structure", "circuits.group")
    tracer.wrap(
        parameter_shift, "build_shifted_circuits", "gradients.shift_build"
    )
    tracer.wrap(
        training_engine, "parameter_shift_jacobian_batch",
        "gradients.shift_combine",
    )
    tracer.wrap(GradientPruner, "select", "pruning")
    tracer.wrap(GradientPruner, "observe", "pruning")
    tracer.wrap(hw_backend.Backend, "run", "hardware.run_self")
    tracer.wrap(BatchedStatevector, "evolve", "sim.evolve")
    for attr in (
        "sample_outcome_matrix",
        "outcome_matrix_to_counts",
        "expectation_z_from_outcome_matrix",
    ):
        tracer.wrap(measurement, attr, "sim.readout")
    tracer.wrap(sim_compile, "compile_circuit", "sim.compile")
    tracer.wrap(ExecutionService, "submit", "serving.submit")
    tracer.wrap(
        Router, "execute", "serving.flush", count=lambda args: len(args[1])
    )
