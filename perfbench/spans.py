"""Tracing from outside the program: wrap public calls, record spans.

The traced run installs per-instance wrappers around the program's
public entry points and keeps every span in memory; :func:`export`
writes them as Chrome trace-event JSON (chrome://tracing, Perfetto)
when the run ends.  Nothing under ``src/`` is modified.

Span categories (``cat``):

* ``step`` — one ``Solver.step(1)`` call, the iteration;
* ``pass`` — the executor's ``forward`` / ``backward`` (``fwd``/``bwd``);
* ``solver`` — ``Solver.apply_update`` (``update``) and
  ``Solver.save_state`` (``ckpt``);
* ``layer`` — one layer's share of a pass on the master thread.  A
  layer's span opens at its first call from the pass (``reshape`` going
  forward, ``backward_loops`` going backward) and closes where the next
  layer's opens or the pass returns, so the layer spans of a pass tile it
  and its merges, reshapes and finalizers are charged to their layer;
* ``region`` — one ``ThreadTeam.parallel`` region, master wall time;
* ``busy`` — one team thread's time inside that region's function;
* ``chunk`` — one ``Layer.forward_chunk`` or ``LoopSpec.body`` call.

Spans carry the arm (``seq``/``par``/...) and the solver iteration they
belong to; the master sets both before each step, and workers read them
while the master waits in the region.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.blaslib import op_counter
from repro.compiler import pool_stats
from repro.core.team import ThreadTeam
from repro.framework.layer import LoopSpec

#: (cat, name, arm, iteration, thread, t0, t1)
Span = Tuple[str, str, str, int, int, float, float]


class Recorder:
    """In-memory span log plus exact per-iteration counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (arm, iteration) -> counter name -> value
        self.counts: Dict[Tuple[str, int], Dict[str, float]] = \
            defaultdict(dict)
        self.arm = ""
        self.iteration = -1
        self._open: Optional[Tuple[str, float]] = None
        self._threads: Dict[int, int] = {}
        self._threads_lock = threading.Lock()
        self.thread()  # the creating (master) thread is thread 0

    def add(self, cat: str, name: str, t0: float, t1: float) -> None:
        """Record a span of the calling thread."""
        # list.append is atomic, so worker threads record without a lock.
        self.spans.append((cat, name, self.arm, self.iteration,
                           self.thread(), t0, t1))

    def thread(self) -> int:
        """Small stable id of the calling thread."""
        ident = threading.get_ident()
        tid = self._threads.get(ident)
        if tid is None:
            with self._threads_lock:
                tid = self._threads.setdefault(ident, len(self._threads))
        return tid

    def timed(self, cat: str, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(cat, name, t0, perf_counter())
        return wrapper

    # -- layer spans: opened by marks, tiled across a pass -------------
    def mark(self, name: str) -> None:
        now = perf_counter()
        self.close_layer(now)
        self._open = (name, now)

    def close_layer(self, now: float) -> None:
        if self._open is not None:
            name, t0 = self._open
            self.add("layer", name, t0, now)
            self._open = None

    def count(self, name: str, value: float) -> None:
        self.counts[(self.arm, self.iteration)][name] = value


class SpanTeam(ThreadTeam):
    """A ThreadTeam that records region wall and per-thread busy time.

    Handed to ``ParallelExecutor(team=...)``; ``parallel_for`` opens its
    regions through :meth:`parallel`, so timing that one call covers
    both.
    """

    def __init__(self, num_threads: int, recorder: Recorder) -> None:
        super().__init__(num_threads)
        self.recorder = recorder

    def parallel(self, fn) -> None:
        rec = self.recorder

        def timed(ctx) -> None:
            t0 = perf_counter()
            try:
                fn(ctx)
            finally:
                rec.add("busy", "", t0, perf_counter())

        t0 = perf_counter()
        try:
            super().parallel(timed)
        finally:
            rec.add("region", "", t0, perf_counter())


def instrument_layers(rec: Recorder, net) -> None:
    """Wrap each layer's pass-opening calls and chunk bodies."""
    for layer in net.layers:
        name = layer.name

        def reshape(bottom, top, _fn=layer.reshape, _name=f"{name}.fwd"):
            rec.mark(_name)
            return _fn(bottom, top)

        def forward_chunk(bottom, top, lo, hi, _fn=layer.forward_chunk,
                          _name=f"{name}.fwd"):
            t0 = perf_counter()
            try:
                _fn(bottom, top, lo, hi)
            finally:
                rec.add("chunk", _name, t0, perf_counter())

        def backward_loops(top, propagate_down, bottom,
                           _fn=layer.backward_loops, _name=f"{name}.bwd"):
            rec.mark(_name)
            return [_timed_loop(rec, loop, _name)
                    for loop in _fn(top, propagate_down, bottom)]

        layer.reshape = reshape
        layer.forward_chunk = forward_chunk
        layer.backward_loops = backward_loops


def _timed_loop(rec: Recorder, loop: LoopSpec, name: str) -> LoopSpec:
    body = loop.body

    def timed_body(lo, hi, grads):
        t0 = perf_counter()
        try:
            body(lo, hi, grads)
        finally:
            rec.add("chunk", name, t0, perf_counter())

    return LoopSpec(space=loop.space, body=timed_body,
                    reduction=loop.reduction,
                    grad_targets=loop.grad_targets, block=loop.block)


def instrument_executor(rec: Recorder, executor) -> None:
    """Record the executor's ``forward``/``backward`` as ``pass`` spans;
    a pass's end also closes its last layer span."""

    def pass_wrapper(name: str, fn: Callable) -> Callable:
        def wrapper(net):
            t0 = perf_counter()
            try:
                return fn(net)
            finally:
                now = perf_counter()
                rec.close_layer(now)
                rec.add("pass", name, t0, now)
        return wrapper

    executor.forward = pass_wrapper("fwd", executor.forward)
    executor.backward = pass_wrapper("bwd", executor.backward)


def instrument_solver(rec: Recorder, solver, arm: str) -> None:
    """Trace one training arm: its steps, passes, update, checkpoints
    and layers.  Each step also counts the BLAS work issued from the
    calling thread (``repro.blaslib.op_counter`` is thread-local) and the
    scratch-pool traffic of the whole process."""
    instrument_executor(rec, solver.executor)
    solver.apply_update = rec.timed("solver", "update", solver.apply_update)
    solver.save_state = rec.timed("solver", "ckpt", solver.save_state)
    instrument_layers(rec, solver.net)
    step = solver.step

    def traced_step(iters: int) -> float:
        rec.arm, rec.iteration = arm, solver.iteration
        pool_before = pool_stats()
        with op_counter() as ops:
            t0 = perf_counter()
            loss = step(iters)
            t1 = perf_counter()
        pool_after = pool_stats()
        rec.add("step", "step", t0, t1)
        rec.count("blas.calls", ops.total_calls())
        rec.count("blas.flop", ops.total_flops())
        rec.count("scratch.hits", pool_after["hits"] - pool_before["hits"])
        rec.count("scratch.misses",
                  pool_after["misses"] - pool_before["misses"])
        return loss

    solver.step = traced_step


def export(rec: Recorder, path: str) -> None:
    """Write the spans as Chrome trace-event JSON (one process per arm)."""
    origin = min(span[5] for span in rec.spans)
    arms: Dict[str, int] = {}
    events = []
    for cat, name, arm, iteration, thread, t0, t1 in rec.spans:
        events.append({
            "name": name or cat, "cat": cat, "ph": "X",
            "pid": arms.setdefault(arm, len(arms)), "tid": thread,
            "ts": round((t0 - origin) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "args": {"arm": arm, "iteration": iteration},
        })
    for arm, pid in arms.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": arm}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
