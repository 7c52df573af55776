"""Host-speed probe and environment record for every benchmark result.

The machine may be shared: a slower run can mean a busier host rather
than a slower program.  :func:`ref_ms` times a fixed reference
computation (pure Python plus small NumPy operations, the mix the
program's hot path runs) at the start and end of each run, so drift of
the host can be told apart from a change in the program.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

REF_REPEATS = 5


def _reference_work() -> float:
    import numpy as np

    total = 0
    for i in range(60_000):
        total += (i * i) % 7
    matrix = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    vector = np.ones((16, 16))
    for _ in range(2_000):
        vector = np.tanh(matrix @ vector)
    return total + float(vector.sum())


def ref_ms() -> float:
    """Median wall time of the reference computation, in ms."""
    times = []
    for _ in range(REF_REPEATS):
        began = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - began)
    return 1e3 * statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = {
        var: os.environ.get(var, "unset")
        for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        )
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": git_commit(root),
        "executable": os.path.basename(sys.executable),
    }
