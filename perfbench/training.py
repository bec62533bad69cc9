"""Training workloads: the ``seq`` arm against the ``par`` arm.

``seq`` is a zoo ``Solver`` with its default ``SequentialExecutor`` (what
``repro.tools.train --threads 1`` runs, the paper's one-thread baseline).
``par`` is the same solver driven by ``ParallelExecutor(num_threads=
nproc, reduction="blockwise")`` with the default static schedule; the
blockwise merge is ``bitwise_invariant``, so every ``par`` iteration must
reproduce the ``seq`` loss bit for bit, and the final parameters must be
byte-identical.

Both arms start from the same weights (fillers are seeded by layer name)
and read the same rendered batches.  They run in alternating blocks
within one process, the first arm of each round alternating, so slow
drifts of a shared host hit both arms alike.  A block is a fixed number
of ``Solver.step(1)`` calls and, where the workload checkpoints, one
``Solver.save_state`` at its end (``train.py --checkpoint-every``), so
the checkpoint stall is inside the measured time.  A block's time is its
wall time less the CPU steal per vCPU inside it (:func:`common.timed`);
the wall-time medians are printed beside the result.
"""

from __future__ import annotations

import os
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.core import ParallelExecutor
from repro.framework.net import Net
from repro.framework.solvers import create_solver
from repro.zoo import (
    cifar10_solver_params,
    cifar10_spec,
    lenet_solver_params,
    lenet_spec,
)

import serving
from common import (
    Result,
    median,
    peak_rss_mb,
    register_inputs,
    same_bits,
    timed,
)
from spans import Recorder, SpanTeam, export, instrument_solver

#: Independent builds timed for ``setup_s`` (one build is 12-50 ms and
#: not steady on a shared host; the median of several is).
SETUP_REPEATS = 41


#: ``save_state`` calls timed after the blocks of a traced run whose
#: workload does not checkpoint, so ``ckpt.*`` exists on every workload.
EXTRA_SAVES = 3

#: Layers whose per-pass times the traced run reports: the union of the
#: two nets' compute layers.  Every traced run reports all of them, a
#: layer its net lacks as 0 ms; the net's Data layer is reported as
#: ``layer.data``.
REPORTED_LAYERS = ("conv1", "pool1", "relu1", "norm1", "conv2", "relu2",
                   "pool2", "norm2", "conv3", "relu3", "pool3", "ip1",
                   "ip2", "loss")


@dataclass(frozen=True)
class TrainConfig:
    net: str
    spec: Callable
    params: Callable
    block_iters: int
    checkpoint: bool


WORKLOADS = {
    "train-lenet": TrainConfig("lenet", lenet_spec, lenet_solver_params,
                               block_iters=4, checkpoint=True),
    "train-cifar10": TrainConfig("cifar10", cifar10_spec,
                                 cifar10_solver_params,
                                 block_iters=1, checkpoint=False),
}


def _solver(cfg: TrainConfig, executor=None):
    solver = create_solver(cfg.params(), Net(cfg.spec(), phase="TRAIN"))
    if executor is not None:
        solver.executor = executor
    return solver


def _par(threads: int, team=None) -> ParallelExecutor:
    """The par arm's executor; ``team`` (when given) replaces the team
    it would own."""
    return ParallelExecutor(num_threads=threads, team=team,
                            reduction="blockwise")


def _close(solver) -> None:
    executor = solver.executor
    if isinstance(executor, ParallelExecutor):
        executor.close()
        executor.team.shutdown()  # a handed-in team outlives close()


def _measure_setup(cfg: TrainConfig, threads: int) -> float:
    """Median time, less CPU steal, to build both arms up to their first
    iteration: two TRAIN nets, two solvers, the executor and its thread
    team."""
    times = []
    for _ in range(SETUP_REPEATS):
        arms = []
        _, net_time = timed(lambda: arms.extend(
            (_solver(cfg), _solver(cfg, _par(threads)))))
        times.append(net_time)
        for solver in arms:
            _close(solver)
    return median(times)


def _run_blocks(cfg: TrainConfig, arms: List[Tuple[str, object]],
                seconds: float, ckpt_path: str
                ) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """Alternate blocks of the arms for ``seconds``.  Returns each arm's
    block times less CPU steal, and their wall times."""

    def block(solver) -> None:
        for _ in range(cfg.block_iters):
            solver.step(1)
        if cfg.checkpoint:
            solver.save_state(ckpt_path)

    for _, solver in arms:  # warm-up: first-touch buffers, file cache
        block(solver)
    times: Dict[str, List[float]] = defaultdict(list)
    walls: Dict[str, List[float]] = defaultdict(list)
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        shift = rounds % len(arms)
        for name, solver in arms[shift:] + arms[:shift]:
            wall, net_time = timed(lambda: block(solver))
            times[name].append(net_time)
            walls[name].append(wall)
        rounds += 1
    return times, walls


def _check_bitwise(result: Result, ref, other, arm: str) -> None:
    """Every loss and the final parameters of ``other`` must equal the
    ``seq`` arm's bit for bit."""
    for i, (a, b) in enumerate(zip(ref.loss_history, other.loss_history)):
        result.check(same_bits(a, b),
                     f"{arm} iteration {i}: loss {b!r} != seq {a!r}")
    result.check(len(ref.loss_history) == len(other.loss_history),
                 f"{arm} ran {len(other.loss_history)} iterations, seq "
                 f"ran {len(ref.loss_history)}")
    same = all(
        p.flat_data.tobytes() == q.flat_data.tobytes()
        for p, q in zip(ref.net.learnable_params, other.net.learnable_params)
    )
    result.check(same, f"{arm}: final parameters differ from seq")


def run(workload: str, seed: int, seconds: float, traced: bool,
        out_dir: str) -> Result:
    cfg = WORKLOADS[workload]
    threads = os.cpu_count() or 1
    inputs = register_inputs(cfg.net, seed)
    result = Result()
    if not traced:
        result.add("setup_s", _measure_setup(cfg, threads), "s")
    rec = Recorder()
    team = SpanTeam(threads, rec) if traced else None
    arms = [("seq", _solver(cfg)),
            ("par", _solver(cfg, _par(threads, team)))]
    if traced:
        for name, solver in arms:
            instrument_solver(rec, solver, name)
        # An untraced par arm in the same rounds prices the tracing.
        arms.append(("par_plain", _solver(cfg, _par(threads))))
    batch = arms[0][1].net.blob("data").shape[0]
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            ckpt_path = os.path.join(tmp, "state.rckp")
            times, walls = _run_blocks(cfg, arms, seconds, ckpt_path)
            if traced and not cfg.checkpoint:
                for _ in range(EXTRA_SAVES):
                    arms[1][1].save_state(ckpt_path)
            ckpt_bytes = (os.path.getsize(ckpt_path) if traced else 0)
    finally:
        for _, solver in arms:
            _close(solver)
    seq = arms[0][1]
    for name, solver in arms[1:]:
        _check_bitwise(result, seq, solver, name)
    per_block = batch * cfg.block_iters
    sps = {name: per_block / median(t) for name, t in times.items()}
    for name, t in times.items():
        wall = median(walls[name])
        print(f"{name}: {len(t)} blocks of {cfg.block_iters} "
              f"iteration(s), median {median(t) * 1e3:.1f} ms less steal, "
              f"{wall * 1e3:.1f} ms wall, steal "
              f"{100 * (1 - sum(t) / sum(walls[name])):.1f}% per vCPU")
    if not traced:
        result.add("train_sps", sps["par"], "samples/s")
        result.add("seq_sps", sps["seq"], "samples/s")
        result.add("speedup_vs_seq", sps["par"] / sps["seq"], "ratio")
        result.add("peak_rss_mb", peak_rss_mb(), "MB")
        return result
    trace_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}")
    export(rec, f"{trace_path}.json")
    _layer_metrics(result, rec, arms, threads, ckpt_bytes)
    result.add("trace.overhead_pct",
               100.0 * (sps["par_plain"] / sps["par"] - 1.0), "%")
    # Serving runs the LeNet TEST net whatever the workload trains.
    mnist = inputs if cfg.net == "lenet" else register_inputs("lenet", seed)
    serving.run_session(result, seed, mnist["synth_mnist_test"],
                        f"{trace_path}-serve.json")
    return result


def _per_iteration(rec: Recorder) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Fold the spans into per-(arm, iteration) sums.  Iteration 0 is
    the warm-up and is dropped."""
    rows: Dict[Tuple[str, int], Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    busy: Dict[Tuple[str, int], Dict[int, float]] = defaultdict(
        lambda: defaultdict(float))
    for cat, name, arm, it, thread, t0, t1 in rec.spans:
        if it < 1:
            continue
        row = rows[(arm, it)]
        ms = (t1 - t0) * 1e3
        if cat == "layer":
            row[f"layer.{name}"] += ms
            row["layers"] += ms
        elif cat in ("pass", "solver", "step"):
            row[name] += ms
        elif cat == "region":
            row["regions"] += 1
            row["region_ms"] += ms
        elif cat == "busy":
            busy[(arm, it)][thread] += ms
        elif cat == "chunk":
            row["chunks"] += 1
    for key, per_thread in busy.items():
        rows[key]["busy_ms"] = sum(per_thread.values())
        rows[key]["busy_max_ms"] = max(per_thread.values())
        rows[key]["busy_threads"] = len(per_thread)
    return rows


def _layer_metrics(result: Result, rec: Recorder, arms, threads: int,
                   ckpt_bytes: int) -> None:
    rows = _per_iteration(rec)
    by_arm: Dict[str, List[Dict[str, float]]] = defaultdict(list)
    for (arm, _), row in sorted(rows.items()):
        by_arm[arm].append(row)

    def med(arm: str, fn) -> float:
        return median([fn(row) for row in by_arm[arm]])

    data_layer = next(layer.name for layer in dict(arms)["par"].net.layers
                      if layer.type == "Data")

    for arm in ("seq", "par"):
        for part in ("fwd", "bwd", "update"):
            result.add(f"solver.{part}_ms.{arm}",
                       med(arm, lambda r: r[part]), "ms")
        present = {layer.name for layer in dict(arms)[arm].net.layers}
        reported = [("data", data_layer, ("fwd",))] + [
            (name, name, ("fwd", "bwd")) for name in REPORTED_LAYERS]
        for label, name, directions in reported:
            for direction in directions:
                key = f"layer.{name}.{direction}"
                value = (med(arm, lambda r: r[key]) if name in present
                         else 0.0)
                result.add(f"layer.{label}.{direction}_ms.{arm}", value,
                           "ms")

    result.add("core.busy_ms", med("par", lambda r: r["busy_ms"]), "ms")
    result.add("core.wait_ms", med(
        "par", lambda r: r["region_ms"] * threads - r["busy_ms"]), "ms")
    result.add("core.imbalance", med(
        "par", lambda r: r["busy_max_ms"] * r["busy_threads"] / r["busy_ms"]),
        "ratio")
    result.add("core.serial_ms", med(
        "par", lambda r: r["fwd"] + r["bwd"] - r["region_ms"]), "ms")
    par_executor = dict(arms)["par"].executor
    result.add("core.priv_peak_mb",
               par_executor.privatization_high_water_bytes / 2 ** 20, "MB")
    result.add("data.batch_ms",
               med("par", lambda r: r[f"layer.{data_layer}.fwd"]), "ms")
    result.add("trace.coverage", med(
        "par", lambda r: (r["layers"] + r["update"]) / r["step"]), "ratio")
    saves = [(t1 - t0) * 1e3 for cat, name, arm, it, _, t0, t1
             in rec.spans if name == "ckpt" and it >= 1]
    result.add("ckpt.save_ms", median(saves), "ms")
    result.add("ckpt.mb", ckpt_bytes / 2 ** 20, "MB")

    # Exact counters: BLAS from the seq arm (op_counter is thread-local,
    # so in par it only sees the master's share), scratch traffic and
    # team counts from par.  Each must repeat identically every
    # iteration; a drift is a failed check, not a silent median.
    exact = {
        "blas.calls": lambda it: rec.counts[("seq", it)]["blas.calls"],
        "blas.gflop": lambda it: rec.counts[("seq", it)]["blas.flop"] / 1e9,
        "scratch.hits": lambda it: rec.counts[("par", it)]["scratch.hits"],
        "scratch.misses":
            lambda it: rec.counts[("par", it)]["scratch.misses"],
        "core.regions": lambda it: rows[("par", it)]["regions"],
        "core.chunks": lambda it: rows[("par", it)]["chunks"],
    }
    iterations = sorted(it for arm, it in rows if arm == "seq")
    for name, value in exact.items():
        values = [value(it) for it in iterations]
        result.check(len(set(values)) == 1,
                     f"{name} is not exact: {sorted(set(values))}")
        unit = "GFLOP" if name == "blas.gflop" else "count"
        result.add(name, values[0], unit)
    fwd_bwd_s = med("seq", lambda r: r["fwd"] + r["bwd"]) / 1e3
    result.add("blas.gflops", result.metrics["blas.gflop"]["value"]
               / fwd_bwd_s, "GFLOP/s")
