"""ParallelExecutor: coarse-grain parallel forward/backward for any Net.

This is the paper's transformation applied end to end.  The layer walk
stays the net's own (:meth:`Net.forward`/:meth:`Net.backward` — the
passes themselves are inherently sequential, Algorithm 1); the executor
only supplies the per-layer passes :meth:`ParallelExecutor.forward_layer`
and :meth:`ParallelExecutor.backward_layer`, which distribute the layer's
coalesced iteration space over the thread team (Algorithm 4 for forward,
Algorithm 5 for backward).  It is **network-agnostic**: it only touches
the generic chunk protocol every layer inherits, never the layer's
computation.  Every chunk loop goes through one dispatcher, which runs a
planned single-thread layer inline, picks the layer's schedule, announces
chunks to a sync backend that observes them, and opens the region.

Gradient reductions honour the configured mode:

* ``"ordered"`` (paper default) — one private buffer per thread, merged
  via the team's ordered construct in thread-id order.  Deterministic for
  a fixed thread count; bitwise equal to the sequential pass at 1 thread.
* ``"atomic"`` — merged under the critical lock in completion order
  (the paper's "reduction-based solution": values agree only up to
  floating-point reassociation).
* ``"tree"`` — per-thread buffers combined pairwise by the master after
  the loop; deterministic per thread count.
* ``"blockwise"`` — accumulation in fixed sample blocks, merged in block
  order through a window of :data:`BLOCK_WINDOW` block buffers; **bitwise
  identical for every thread count**, which makes the whole training trajectory
  thread-count invariant (the strongest reading of the paper's
  convergence-invariance claim; see DESIGN.md).

Usage::

    executor = ParallelExecutor(num_threads=8, reduction="ordered")
    solver = SGDSolver(params, net, executor=executor)
    solver.step(100)
    executor.close()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.core.plan import (
    ExecutionPlan,
    LayerPlan,
    PlannedSchedule,
    plan_schedule_for,
)
from repro.core.privatization import PrivatePool
from repro.core.reduction import (
    REDUCTION_MODES,
    TIER_ORDER,
    add_into,
    invariance_tier,
    tree_combine,
)
from repro.core.scheduling import Schedule, StaticSchedule, make_schedule
from repro.core.team import RegionContext, ThreadTeam, WorkerError
from repro.framework.blob import Blob
from repro.framework.layer import Layer, LoopSpec
from repro.framework.net import Net

#: Blockwise reduction: block buffers alive at once, which bounds its
#: extra memory to ``BLOCK_WINDOW x sum(target sizes)``.
BLOCK_WINDOW = 8


def iteration_owners(
    space: int, num_threads: int, schedule: Optional[Schedule] = None
) -> np.ndarray:
    """Owner thread of every coalesced iteration, ``shape (space,)``.

    For static schedules this is exactly the runtime's chunk plan.  For
    dynamic/guided schedules real ownership depends on timing; the
    returned tagging is the *simulated* one used by the race detector —
    chunks are dealt to threads round-robin in dispatch order, which is a
    legal (and for overlap purposes representative) assignment.
    """
    if space < 0:
        raise ValueError(f"space must be non-negative, got {space}")
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    chunks = (schedule or StaticSchedule()).chunk_source(space, num_threads)
    # Threads take one chunk each in turn until every source is dry: a
    # static thread walks its own plan row, and threads sharing a dynamic
    # server receive its chunks round-robin.
    live = {tid: chunks(tid) for tid in range(num_threads)}
    owners = np.full(space, -1, dtype=np.int32)
    while live:
        for tid, source in list(live.items()):
            chunk = next(source, None)
            if chunk is None:
                del live[tid]
            else:
                owners[chunk[0]:chunk[1]] = tid
    return owners


@contextmanager
def _naming_failures(layer: str, phase: str) -> Iterator[None]:
    """Name the layer/phase whose region failed on a :class:`WorkerError`
    before it unwinds to the solver."""
    try:
        yield
    except WorkerError as exc:
        exc.layer = layer
        exc.phase = phase
        raise


class ParallelExecutor:
    """Drives a framework :class:`~repro.framework.net.Net` with
    batch-level parallelism.

    Parameters
    ----------
    num_threads:
        Team size (1 = sequential semantics through the same code path).
    schedule:
        Loop schedule; defaults to OpenMP static, the paper's choice.
    reduction:
        One of :data:`~repro.core.reduction.REDUCTION_MODES`.
    team:
        Optionally share an existing :class:`ThreadTeam`.
    plan:
        Optional per-layer :class:`~repro.core.plan.ExecutionPlan`
        (typically produced by ``repro.analysis plancheck``).  Layers
        with a plan entry run with their own thread count, chunk
        granularity, schedule and reduction mode; a single-thread entry
        executes inline on the master with no parallel region (bitwise
        equal to the sequential pass).  Layers without an entry fall
        back to the executor-wide settings above.
    """

    def __init__(
        self,
        num_threads: int = 1,
        schedule: Optional[Schedule] = None,
        reduction: str = "ordered",
        team: Optional[ThreadTeam] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        if team is None and num_threads < 1:
            raise ValueError(
                f"ParallelExecutor needs num_threads >= 1, got {num_threads} "
                "(a team of zero threads cannot execute any chunk)"
            )
        if reduction not in REDUCTION_MODES:
            raise ValueError(
                f"unknown reduction mode {reduction!r}; expected one of "
                f"{REDUCTION_MODES}"
            )
        if reduction == "ordered" and schedule is not None and not schedule.is_static:
            raise ValueError(
                "the ordered reduction requires a static schedule to be "
                "deterministic; use reduction='atomic' with dynamic/guided"
            )
        self.schedule = schedule or StaticSchedule()
        self.reduction = reduction
        self._own_team = team is None
        self.team = team or ThreadTeam(num_threads)
        self.pool = PrivatePool()
        self.plan = plan

    @property
    def num_threads(self) -> int:
        return self.team.num_threads

    @property
    def invariance_tier(self) -> str:
        """Strongest invariance tier this configuration can promise
        (see :mod:`repro.core.reduction`); the determinism certifier
        verifies the promise dynamically.

        With a per-layer plan the promise is the weakest tier across
        the executor-wide settings and every planned layer (layers
        without a plan entry run with the executor-wide settings, so
        those stay in the minimum).
        """
        static = self.schedule.is_static
        tiers = [invariance_tier(self.reduction, static)]
        if self.plan is not None:
            tiers += [layer_plan.tier(self.reduction, static)
                      for layer_plan in self.plan.layers.values()]
        return min(tiers, key=TIER_ORDER.__getitem__)

    def _layer_plan(self, layer_name: str) -> Optional[LayerPlan]:
        if self.plan is None:
            return None
        return self.plan.for_layer(layer_name)

    # ------------------------------------------------------------------
    # the net's walk, with this executor's per-layer passes
    # ------------------------------------------------------------------
    def forward(self, net: Net) -> float:
        return net.forward(self.forward_layer)

    def backward(self, net: Net) -> None:
        net.backward(self.backward_layer)

    def forward_layer(
        self, layer: Layer, bottom: Sequence[Blob], top: Sequence[Blob]
    ) -> None:
        """Algorithm 4 for one layer: its forward chunks over the team."""
        layer.reshape(bottom, top)  # sequential, as in Caffe
        space = layer.forward_space(bottom, top)
        if space <= 0:
            raise ValueError(
                f"layer {layer.name!r} ({type(layer).__name__}) has an "
                f"empty coalesced forward space ({space}); check its "
                "batch size / bottom shapes"
            )
        with _naming_failures(layer.name, "forward"):
            self._dispatch(
                layer.name, "forward", space,
                lambda lo, hi, tid: layer.forward_chunk(bottom, top, lo, hi),
            )
        layer.forward_finalize(bottom, top)

    def backward_layer(
        self,
        layer: Layer,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
    ) -> None:
        """Algorithm 5 for one layer: each backward loop over the team."""
        loops = layer.backward_loops(top, propagate_down, bottom)
        with _naming_failures(layer.name, "backward"):
            for loop in loops:
                self._run_backward_loop(loop, layer.name)

    def _run_backward_loop(self, loop: LoopSpec, layer_name: str = "?") -> None:
        if loop.space <= 0:
            raise ValueError(
                f"layer {layer_name!r} produced a backward loop with an "
                f"empty iteration space ({loop.space}); a LoopSpec must "
                "cover at least one coalesced iteration"
            )
        layer_plan = self._layer_plan(layer_name)
        mode = self.reduction
        if layer_plan is not None and layer_plan.reduction is not None:
            mode = layer_plan.reduction
        targets = loop.grad_targets
        if not loop.reduction or (
            layer_plan is not None and layer_plan.threads <= 1
        ):
            # Disjoint writes, or a planned single-thread loop that
            # accumulates straight into the shared targets exactly like
            # the sequential pass.
            self._dispatch(
                layer_name, "backward", loop.space,
                lambda lo, hi, tid: loop.body(lo, hi, targets),
            )
        elif mode == "blockwise":
            self._blockwise_loop(loop, layer_name, layer_plan)
        elif self.num_threads == 1:
            # A one-thread team accumulates straight into the targets,
            # bitwise like the sequential pass.
            loop.body(0, loop.space, targets)
        else:
            self._privatized_loop(loop, layer_name, mode)

    # ------------------------------------------------------------------
    # chunk dispatch
    # ------------------------------------------------------------------
    def _announced(
        self, layer_name: str, phase: str, body: Callable[[int, int, int], None]
    ) -> Callable[[int, int, int], None]:
        """``body``, announcing each chunk first when the team's sync
        backend observes chunks (the model checker's preemption points)."""
        sync = self.team.sync
        if not sync.observes_chunks:
            return body

        def announced(lo: int, hi: int, tid: int) -> None:
            sync.chunk_point(self.team, tid, layer_name, phase, lo, hi)
            body(lo, hi, tid)

        return announced

    def _dispatch(
        self,
        layer_name: str,
        phase: str,
        space: int,
        body: Callable[[int, int, int], None],
        merge: Optional[Callable[[RegionContext], None]] = None,
    ) -> None:
        """Run ``body(lo, hi, tid)`` over ``[0, space)`` as the layer's
        plan entry (or the executor-wide setting) says.

        A single-thread plan entry runs inline on the master, with no
        parallel region; otherwise the chunks of the layer's schedule
        are dealt over the team.  ``merge(ctx)``, when given, ends each
        thread's share of the region (the privatized reductions'
        ordered/critical merge).
        """
        body = self._announced(layer_name, phase, body)
        layer_plan = self._layer_plan(layer_name)
        if layer_plan is not None and layer_plan.threads <= 1:
            body(0, space, 0)
            return
        schedule = (
            self.schedule if layer_plan is None
            else plan_schedule_for(layer_plan, space)
        )
        if merge is None:
            self.team.parallel_for(space, body, schedule)
            return
        chunks = schedule.chunk_source(space, self.num_threads)

        def region(ctx: RegionContext) -> None:
            for lo, hi in chunks(ctx.thread_id):
                body(lo, hi, ctx.thread_id)
            merge(ctx)

        self.team.parallel(region)

    def _privatized_loop(
        self, loop: LoopSpec, layer_name: str, mode: str
    ) -> None:
        """Algorithm 5: one private buffer per thread, merged in thread
        order by the team's ordered construct (``ordered``), in
        completion order under the critical lock (``atomic``), or
        pairwise by the master after the region (``tree``)."""
        targets = loop.grad_targets
        sizes = [t.size for t in targets]
        # Requested on the master before the region opens: the pool's
        # bookkeeping is not thread-safe.
        private = [
            self.pool.request(tid, sizes) for tid in range(self.num_threads)
        ]
        merge = None
        if mode != "tree":
            def merge(ctx: RegionContext) -> None:
                add = lambda: add_into(targets, private[ctx.thread_id])
                (ctx.ordered if mode == "ordered" else ctx.critical)(add)

        self._dispatch(
            layer_name, "backward", loop.space,
            lambda lo, hi, tid: loop.body(lo, hi, private[tid]), merge,
        )
        if mode == "tree":
            add_into(targets, tree_combine(private))

    def _blockwise_loop(
        self, loop: LoopSpec, layer_name: str,
        layer_plan: Optional[LayerPlan],
    ) -> None:
        """Fixed-block accumulation: bitwise thread-count invariant.

        The space is cut at multiples of ``loop.block`` (block boundaries
        never depend on the thread count); a window of
        :data:`BLOCK_WINDOW` blocks is computed in parallel — one private
        buffer per block — then merged in block order by the master.
        """
        block = max(loop.block, 1)
        nblocks = -(-loop.space // block)
        sizes = [t.size for t in loop.grad_targets]
        # The window loop iterates over *block indices*, not civ
        # iterations, so a plan's civ granularity must not rescale its
        # chunks — keep the thread limit only.
        schedule = (
            self.schedule if layer_plan is None
            else PlannedSchedule(
                make_schedule(layer_plan.schedule), layer_plan.threads
            )
        )
        for first in range(0, nblocks, BLOCK_WINDOW):
            count = min(BLOCK_WINDOW, nblocks - first)
            buffers = [self.pool.request(slot, sizes) for slot in range(count)]
            block_body = self._announced(
                layer_name, "backward",
                lambda lo, hi, tid: loop.body(
                    lo, hi, buffers[lo // block - first]
                ),
            )

            def window_body(b_lo: int, b_hi: int, tid: int) -> None:
                for index in range(first + b_lo, first + b_hi):
                    lo = index * block
                    block_body(lo, min(lo + block, loop.space), tid)

            self.team.parallel_for(count, window_body, schedule)
            for buffer in buffers:  # fixed block order
                add_into(loop.grad_targets, buffer)

    # ------------------------------------------------------------------
    # memory accounting & lifecycle
    # ------------------------------------------------------------------
    @property
    def privatization_high_water_bytes(self) -> int:
        """Extra memory attributable to privatization (Section 3.2.1)."""
        return self.pool.high_water_bytes

    def close(self) -> None:
        """Shut the thread team down (if owned) and drop pool storage."""
        if self._own_team:
            self.team.shutdown()
        self.pool.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
