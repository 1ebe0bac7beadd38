"""Shared pieces of the benchmark: workload table, paths, statistics.

Every setting a workload depends on is pinned here, so a change to a
library default does not move the benchmark's numbers by accident.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
"""Scratch space of a run (data files, server state); removed when it ends."""
OUT_DIR = ROOT / ".perfbench-out"
"""Span files of traced runs, written when the run ends and kept."""

THRESHOLD = 0.5
REPETITIONS = 10
HASH_SEED = 42
"""CPSJOIN's own hash seed (MinHash, sketches, Chosen Path tree), pinned.

``--seed`` draws the data and the traffic.  CPSJOIN's work varies far more
with its own seed (pre-candidates on 10k UNIFORM005 range 5.6M-10.8M over
24 seeds) than with the data draw (7.45M-7.88M over 8 draws at one join
seed), so a pinned join seed keeps the work of a run fixed and the metrics
measure speed rather than the luck of the draw."""
BACKEND = "numpy"
EXECUTOR = "serial"
MIN_JOIN_ITERATIONS = 3
SETUP_SPAWNS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "join" or "serve"
    profile: str
    scale: float
    traffic: Optional[str] = None  # "open" or "closed" for serve workloads


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("join-uniform", "join", "UNIFORM005", 4.0),
        Workload("join-netflix", "join", "NETFLIX", 4.0),
        Workload("serve-mixed", "serve", "UNIFORM005", 4.0, traffic="open"),
        Workload("serve-saturate", "serve", "UNIFORM005", 4.0, traffic="closed"),
    )
}

# Serving traffic.
BASE_SHARE = 0.8
OPEN_RATE = 300.0
INSERT_SHARE = 0.1
CONNECTIONS = 2
CLOSED_DEPTH = 32
SERVER_ARGS = [
    "--threshold", str(THRESHOLD),
    "--candidates", "exact",
    "--backend", BACKEND,
    "--executor", EXECUTOR,
    "--max-batch", "64",
    "--max-linger-ms", "2.0",
    "--snapshot-every", "512",
    "--max-inflight", "64",
    "--max-queue", "256",
    "--max-conn-inflight", "32",
]
CHECK_SAMPLE = 200
"""Records re-queried after a serve run and compared with an offline index."""


def require_source() -> None:
    """Exit non-zero when the checkout holds no library to benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for the benchmark's child processes (library on the path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the benchmark pins its executor to serial, and a
    # BLAS pool competing for the machine's few cores only adds noise.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    return env


def generate_records(workload: Workload, seed: int) -> List[tuple]:
    from repro.datasets.profiles import generate_profile_dataset

    return list(generate_profile_dataset(workload.profile, scale=workload.scale, seed=seed).records)


def jaccard(first: Sequence[int], second: Sequence[int]) -> float:
    first_set, second_set = set(first), set(second)
    union = len(first_set | second_set)
    return len(first_set & second_set) / union if union else 0.0


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); ``inf`` entries rank last."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def cpu_record() -> Dict[str, int]:
    """CPU count recorded with every result."""
    return {
        "cpu_count": os.cpu_count() or 0,
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0,
    }
