"""Throughput of compiled (fused) execution plans vs the batched path.

Deep-circuit parameter-shift sweeps at two scales, both 64 shifted
clones (4 re-encoded examples x 8 differentiated parameters x 2
shifts) of a 16-layer ``ry / rzz / rz / cz`` ansatz — the paper's layer
vocabulary, deep enough that per-gate dispatch dominates the unfused
path:

* **ideal**: exact statevector at 10 qubits, where fusion's fewer /
  fatter GEMMs and diagonal passes also cut memory traffic over the
  1024-amplitude states;
* **noisy**: density-matrix emulation at the paper's 4-qubit scale,
  where per-wire superoperator chains collapse each
  ``gate, channel, gate, channel`` run into one contraction.

Both compare against the same backend with ``fused=False`` — exactly
the PR-1/PR-3 batched engines.  Target: >= 2x (typically ~2.6x on
commodity CPUs), with fused observed distributions within 1e-10 of
unfused and sampled counts deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from harness import format_table, interleaved_best_of, smoke_scaled
from repro.circuits import QuantumCircuit
from repro.circuits.layers import build_layered_ansatz
from repro.gradients.parameter_shift import parameter_shift_jacobian_batch
from repro.hardware import IdealBackend, NoisyBackend

LAYERS = ["ry", "rzz", "rz", "cz"] * 4  # 16 layers
N_EXAMPLES = 4
PARAM_INDICES = tuple(range(8))  # 4 x 8 x 2 = 64 shifted clones
IDEAL_QUBITS = 10
NOISY_QUBITS = 4
DEVICE = "ibmq_lima"
SHOTS = 1024
ROUNDS = smoke_scaled(5, 2)
TARGET_SPEEDUP = 2.0


def build_sweep_circuits(n_qubits: int) -> list[QuantumCircuit]:
    """4 re-encoded examples of one deep layered model."""
    rng = np.random.default_rng(11)
    ansatz = build_layered_ansatz(n_qubits, LAYERS)
    theta = rng.uniform(-1, 1, ansatz.num_parameters)
    circuits = []
    for _ in range(N_EXAMPLES):
        encoder = QuantumCircuit(n_qubits)
        for wire in range(n_qubits):
            encoder.add("ry", wire, float(rng.uniform(0, np.pi)))
        circuits.append(encoder.compose(ansatz.bound(theta)))
    return circuits


def run_pair(make_backend, circuits, label, **kwargs) -> float:
    """Speed-up of fused over unfused, best-of-ROUNDS interleaved.

    Both backends are built here, so both start from empty plan
    caches; see :func:`harness.interleaved_best_of` for the timing.
    """
    backends = {fused: make_backend(fused) for fused in (False, True)}
    timings = interleaved_best_of(
        {
            fused: lambda backend=backend: parameter_shift_jacobian_batch(
                circuits, backend, param_indices=PARAM_INDICES, **kwargs
            )
            for fused, backend in backends.items()
        },
        ROUNDS,
    )
    unfused_s, fused_s = timings[False][0], timings[True][0]
    for backend in backends.values():
        assert backend.meter.circuits == (ROUNDS + 1) * N_EXAMPLES * 8 * 2
    fused_backend = backends[True]

    n_circuits = N_EXAMPLES * 8 * 2
    speedup = unfused_s / fused_s
    print()
    print(format_table(
        ["path", "sweep_s", "circuits", "circuits_per_s"],
        [
            ["unfused (PR-1 batched)", unfused_s, n_circuits,
             int(n_circuits / unfused_s)],
            ["fused plan", fused_s, n_circuits,
             int(n_circuits / fused_s)],
        ],
        title=label,
    ))
    cache = fused_backend.plan_cache.stats()
    print(f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
          f"({cache['size']} plans)")
    print(f"speedup: {speedup:.1f}x (target: >= {TARGET_SPEEDUP:.0f}x)")
    return speedup


def test_fused_ideal_parameter_shift_sweep_speedup(benchmark):
    circuits = build_sweep_circuits(IDEAL_QUBITS)

    def run() -> float:
        return run_pair(
            lambda fused: IdealBackend(exact=True, fused=fused),
            circuits,
            f"Fused ideal sweep: {IDEAL_QUBITS}-qubit, "
            f"{len(LAYERS)}-layer, 64-clone parameter shift",
        )

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert speedup >= TARGET_SPEEDUP


def test_fused_noisy_parameter_shift_sweep_speedup(benchmark):
    circuits = build_sweep_circuits(NOISY_QUBITS)

    def run() -> float:
        return run_pair(
            lambda fused: NoisyBackend.from_device_name(
                DEVICE, seed=0, fused=fused
            ),
            circuits,
            f"Fused noisy sweep: {NOISY_QUBITS}-qubit, "
            f"{len(LAYERS)}-layer, 64-clone parameter shift on {DEVICE}",
            shots=SHOTS,
        )

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert speedup >= TARGET_SPEEDUP


def test_fused_distributions_match_unfused():
    """Observed distributions within 1e-10 of the unfused path."""
    circuits = build_sweep_circuits(NOISY_QUBITS)

    fused = IdealBackend(exact=True, fused=True)
    unfused = IdealBackend(exact=True, fused=False)
    gap = np.abs(
        fused.expectations(circuits) - unfused.expectations(circuits)
    )
    assert np.max(gap) <= 1e-10

    fused_noisy = NoisyBackend.from_device_name(DEVICE, seed=0, fused=True)
    unfused_noisy = NoisyBackend.from_device_name(
        DEVICE, seed=0, fused=False
    )
    stacked = fused_noisy.observed_probabilities_batch(circuits)
    for row, circuit in zip(stacked, circuits):
        reference = unfused_noisy.observed_probabilities(circuit)
        assert np.max(np.abs(row - reference)) <= 1e-10


def test_fused_counts_deterministic_per_seed():
    """Same plan + same seed -> bit-identical sampled counts."""
    circuits = build_sweep_circuits(NOISY_QUBITS)
    runs = []
    for _ in range(2):
        backend = NoisyBackend.from_device_name(DEVICE, seed=7, fused=True)
        runs.append(backend.run(circuits, shots=SHOTS))
    for a, b in zip(*runs):
        assert a.counts == b.counts
        assert np.array_equal(a.expectations, b.expectations)
