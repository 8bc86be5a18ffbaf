"""Helpers shared by the benchmark's processes (no ``repro`` imports here).

Every benchmark child process reports one JSON object on its original
standard output and nothing else: :func:`claim_stdout` moves file
descriptor 1 onto standard error first, so solver chatter printed from
native code (HiGHS writes ``HighsMipSolverData::…`` lines straight to
fd 1) can never interleave with a result.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys

#: Where runs leave their artifacts, relative to the checkout root.
OUT_DIR = ".perfbench"


def claim_stdout():
    """Reserve the real stdout for results; route fd 1 to stderr.

    Returns a text stream on the original stdout.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return os.fdopen(saved, "w", buffering=1, encoding="utf-8")


def emit(stream, payload: dict) -> None:
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sample")
    return float(sum(values) / len(values))


def instance_seed(seed: int, index: int) -> int:
    """The workload seed of a run's ``index``-th instance."""
    return seed * 100_003 + index
