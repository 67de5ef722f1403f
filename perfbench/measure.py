"""Small measurement helpers: percentiles, memory, sizes, provenance."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def _status_kib(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                found.extend(int(item) for item in handle.read().split())
        except OSError:
            continue
    return found


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live descendants, in MB."""
    total = 0
    pending = [os.getpid()]
    while pending:
        pid = pending.pop()
        total += _status_kib(pid, "VmHWM")
        pending.extend(_children(pid))
    return total / 1024.0


def directory_mb(path: str | os.PathLike[str]) -> float:
    """Total size of the regular files under ``path``, in MB."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    return total / (1024.0 * 1024.0)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def provenance(root: Path, *, seed: int, runs: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "commit": git_commit(root),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "runs": runs,
    }
