"""Counter exactness: two traced runs with one seed give identical counts.

The counts named here depend only on the seed, never on timing: circuits
metered per full and per pruned step, plans compiled per cold set-up and
the share of gradients pruning skipped.  Counts that depend on timing,
such as cache hits under concurrency, are left out.  Run from the
repository root (about two minutes)::

    python3 -m pytest -q perfbench/tests/check_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXACT = {
    "train_sampled": (
        "hardware.circuits_per_step.full",
        "hardware.circuits_per_step.pruned",
        "hardware.circuits_per_op",
        "sim.plans_compiled",
        "pruning.skipped_frac",
    ),
    "serve_open": ("sim.plans_compiled", "pruning.skipped_frac"),
}


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    """The ``EXACT`` counts of one traced run, from its written copy."""
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"]
    copy = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace1.json"
    record = json.loads(copy.read_text())
    figures = {**record["details"], **record["metrics"]}
    return {name: figures[name]["value"] for name in EXACT[workload]}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_same_seed_gives_identical_counts(workload):
    first = traced_counts(workload, seed=5, seconds=3)
    second = traced_counts(workload, seed=5, seconds=3)
    assert first == second
    if workload == "train_sampled":
        assert first["pruning.skipped_frac"] == 1 / 3
