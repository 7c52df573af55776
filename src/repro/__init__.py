"""QOC: Quantum On-Chip Training with Parameter Shift and Gradient Pruning.

A from-scratch reproduction of the DAC 2022 paper.  The public API
re-exports the pieces a downstream user composes:

>>> from repro import (
...     TrainingConfig, TrainingEngine, PruningHyperparams, QuantumProvider,
... )
>>> provider = QuantumProvider(seed=0)
>>> config = TrainingConfig(
...     task="mnist2", steps=30, pruning=PruningHyperparams(1, 2, 0.5),
... )
>>> engine = TrainingEngine(config, provider.get_backend("ibmq_santiago"))
>>> history = engine.train()

Subpackages
-----------
``repro.sim``        statevector / density-matrix simulators, adjoint grads
``repro.circuits``   circuit IR, layers, encoders, per-task ansatze, transpiler
``repro.noise``      Kraus channels, device calibrations, noise models
``repro.hardware``   backends, jobs, provider, runtime models
``repro.gradients``  parameter shift + finite-difference / SPSA / adjoint
``repro.pruning``    probabilistic gradient pruning (Alg. 1)
``repro.ml``         softmax/CE head, optimizers, schedulers, PCA, metrics
``repro.training``   the TrainingEngine and evaluation helpers
``repro.serving``    async ExecutionService: coalescing, caching, routing
``repro.parallel``   multi-process sharded execution (worker pools)
``repro.resilience`` fault injection, retries, breakers, deadlines
``repro.data``       synthetic datasets + preprocessing pipelines
``repro.scaling``    Fig. 2a / Fig. 8 cost and runtime models
``repro.analysis``   Fig. 2b / Fig. 2c noise analyses + gradient variance
``repro.vqe``        the VQE extension (PGP beyond classification)
``repro.mitigation`` readout calibration / RB characterization
``repro.interop``    OpenQASM 2.0 + JSON run serialization
``repro.cli``        ``python -m repro`` command line
"""

from repro.circuits import (
    InvalidCircuitError,
    QnnArchitecture,
    QuantumCircuit,
    get_architecture,
)
from repro.data import Dataset, load_task
from repro.gradients import parameter_shift_jacobian
from repro.hardware import IdealBackend, NoisyBackend, QuantumProvider
from repro.interop import from_qasm, load_run, save_run, to_qasm
from repro.noise import NoiseModel, get_calibration
from repro.parallel import BackendSpec, ShardedBackend
from repro.pruning import GradientPruner, PruningHyperparams
from repro.resilience import CircuitBreaker, FaultPlan, RetryPolicy
from repro.serving import ExecutionService, ServiceExecutor
from repro.sim import DensityMatrix, Statevector
from repro.training import TrainingConfig, TrainingEngine, evaluate_accuracy
from repro.version import __version__

__all__ = [
    "BackendSpec",
    "CircuitBreaker",
    "Dataset",
    "DensityMatrix",
    "ExecutionService",
    "FaultPlan",
    "GradientPruner",
    "IdealBackend",
    "InvalidCircuitError",
    "NoiseModel",
    "NoisyBackend",
    "PruningHyperparams",
    "QnnArchitecture",
    "QuantumCircuit",
    "QuantumProvider",
    "RetryPolicy",
    "ServiceExecutor",
    "ShardedBackend",
    "Statevector",
    "TrainingConfig",
    "TrainingEngine",
    "__version__",
    "evaluate_accuracy",
    "from_qasm",
    "get_architecture",
    "get_calibration",
    "load_run",
    "load_task",
    "parameter_shift_jacobian",
    "save_run",
    "to_qasm",
]
