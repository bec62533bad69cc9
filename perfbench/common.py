"""Shared pieces of the benchmark: seeded inputs, statistics, results.

Everything here runs after :mod:`run` has pinned the BLAS pools, so it
may import numpy freely.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.data import SyntheticCIFAR10, SyntheticMNIST
from repro.data.batch_source import ArrayBatchSource
from repro.framework.layers.data import register_source

#: Rendered samples per source.  Batches cycle through them; the count
#: only has to cover a few distinct batches, and rendering is excluded
#: from ``setup_s`` but still costs wall time in every run.
MNIST_SAMPLES = 256
CIFAR_SAMPLES = 400


def register_inputs(net: str, seed: int) -> Dict[str, np.ndarray]:
    """Render ``net``'s synthetic train and test sets from ``seed`` and
    register them under the source names the zoo prototxts use.

    Returns the rendered image arrays by source name (the serving
    workload sends the test images as request payloads).
    """
    if net == "lenet":
        render, count, prefix = SyntheticMNIST, MNIST_SAMPLES, "synth_mnist"
    else:
        render, count, prefix = SyntheticCIFAR10, CIFAR_SAMPLES, "synth_cifar"
    datasets = {
        f"{prefix}_train": render(n_samples=count, seed=seed),
        f"{prefix}_test": render(n_samples=count // 4, seed=seed + 1),
    }
    for name, data in datasets.items():
        register_source(
            name,
            lambda data=data: ArrayBatchSource(data.images, data.labels),
            shape=data.images.shape[1:],
        )
    return {name: data.images for name, data in datasets.items()}


def cpu_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's vCPUs since
    boot, summed over them, in seconds (0 where ``/proc/stat`` has no
    steal column)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def timed(fn: Callable[[], object]) -> Tuple[float, float]:
    """Run ``fn``; return its wall time and that time less the CPU steal
    per vCPU that fell inside it, both in seconds.

    On a shared host the hypervisor takes time from the vCPUs at rates
    that change from minute to minute, and a run that keeps every vCPU
    busy (the ``par`` arm) loses wall time to it.  Subtracting the mean
    steal per vCPU removes the host's share without over-correcting: a
    ready thread loses all of its vCPU's steal, and a parallel region
    waits for its slowest thread, so the true loss is at least that
    mean.  The granularity is one clock tick (10 ms) per vCPU.
    """
    steal0 = cpu_steal_s()
    t0 = perf_counter()
    fn()
    wall = perf_counter() - t0
    stolen = (cpu_steal_s() - steal0) / (os.cpu_count() or 1)
    return wall, wall - stolen


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def upper_percentile(values: Sequence[float], q: float,
                     min_beyond: int = 10) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    ``min_beyond`` samples lie above it (the tail is not resolved)."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return float(ordered[rank - 1])


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class Result:
    """Accumulates metrics and the attempted/failed tally of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float | str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, problem: str, wrong: bool = True) -> None:
        """Count one attempted operation; a failed one is kept by name.

        ``wrong`` marks a failure as an incorrect output (a bitwise
        mismatch, a lost or duplicated response, a counter that is not
        exact), which makes the run ``correct: false``; other failures
        (a request that timed out at the nominal rate) only count.
        """
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            self.problems.append(problem)

    def as_json(self) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }
