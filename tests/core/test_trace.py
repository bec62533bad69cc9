"""Tests for the execution tracer."""

import dataclasses

import numpy as np
import pytest

from repro.core import ParallelExecutor, Trace, TracingExecutor
from repro.core.plan import uniform_plan
from repro.core.team import ThreadTeam, WorkerError
from repro.framework.solvers.base import SequentialExecutor
from repro.zoo import build_net


class TestTrace:
    def test_totals_aggregate(self):
        trace = Trace()
        trace.record("conv1", "forward", 0.5, 1)
        trace.record("conv1", "forward", 0.25, 1)
        trace.record("conv1", "backward", 1.0, 1)
        assert trace.totals() == {("conv1", "forward"): 0.75,
                                  ("conv1", "backward"): 1.0}

    def test_shares_sum_to_one(self):
        trace = Trace()
        trace.record("a", "forward", 3.0, 1)
        trace.record("b", "forward", 1.0, 1)
        shares = trace.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[("a", "forward")] == pytest.approx(0.75)

    def test_table_renders(self):
        trace = Trace()
        trace.record("conv1", "forward", 0.001, 4)
        table = trace.table()
        assert "conv1" in table and "%" in table

    def test_clear(self):
        trace = Trace()
        trace.record("x", "forward", 1.0, 1)
        trace.clear()
        assert not trace.events


class TestTracingExecutor:
    def test_sequential_semantics_preserved(self):
        net = build_net("lenet")
        state = net.state_dict()
        ref_loss = net.forward()

        net2 = build_net("lenet")
        net2.load_state_dict(state)
        tracer = TracingExecutor(SequentialExecutor())
        loss = tracer.forward(net2)
        assert loss == ref_loss

    def test_events_per_layer(self):
        net = build_net("lenet")
        tracer = TracingExecutor(SequentialExecutor())
        tracer.forward(net)
        tracer.backward(net)
        layers = {e.layer for e in tracer.trace.events}
        assert "conv1" in layers and "loss" in layers
        passes = {e.pass_ for e in tracer.trace.events}
        assert passes == {"forward", "backward"}

    def test_parallel_semantics_preserved(self):
        net = build_net("lenet")
        state = net.state_dict()
        net.clear_param_diffs()
        net.forward()
        net.backward()
        ref = np.concatenate([b.flat_diff.copy()
                              for b in net.learnable_params])

        net2 = build_net("lenet")
        net2.load_state_dict(state)
        with ParallelExecutor(num_threads=3, reduction="blockwise") as inner:
            tracer = TracingExecutor(inner)
            net2.clear_param_diffs()
            tracer.forward(net2)
            tracer.backward(net2)
        grads = np.concatenate([b.flat_diff.copy()
                                for b in net2.learnable_params])
        assert np.array_equal(grads, ref)  # blockwise: bitwise invariant

    def test_conv_dominates_real_time(self):
        """The real measured breakdown shows the paper's Figure 4 story:
        convolutions dominate the iteration."""
        net = build_net("lenet")
        tracer = TracingExecutor(SequentialExecutor())
        for _ in range(2):
            net.clear_param_diffs()
            tracer.forward(net)
            tracer.backward(net)
        shares = tracer.trace.shares()
        conv_share = sum(v for (layer, _), v in shares.items()
                         if layer.startswith("conv"))
        assert conv_share > 0.4

    def test_thread_count_recorded(self):
        net = build_net("lenet")
        with ParallelExecutor(num_threads=2) as inner:
            tracer = TracingExecutor(inner)
            tracer.forward(net)
        assert all(e.threads == 2 for e in tracer.trace.events)


class CountingTeam(ThreadTeam):
    """A team that counts the parallel regions it opens."""

    def __init__(self, num_threads):
        super().__init__(num_threads)
        self.regions = 0

    def parallel(self, fn):
        self.regions += 1
        super().parallel(fn)


def _inline_plan(net):
    spaces = []
    for layer, bottom, top in zip(net.layers, net.bottoms, net.tops):
        layer.reshape(bottom, top)
        spaces.append((layer.name, layer.forward_space(bottom, top)))
    return uniform_plan(net.name, 0, 1, "blockwise", spaces)


class TestTracerRunsWhatTrains:
    """The tracer times the wrapped executor's own per-layer passes, so a
    traced run executes exactly what an untraced one does."""

    def _run(self, state, plan, traced):
        net = build_net("lenet")
        net.load_state_dict(state)
        with CountingTeam(2) as team:
            executor = ParallelExecutor(team=team, reduction="blockwise",
                                        plan=plan)
            runner = TracingExecutor(executor) if traced else executor
            net.clear_param_diffs()
            loss = runner.forward(net)
            runner.backward(net)
            executor.close()
            grads = [b.flat_diff.copy() for b in net.learnable_params]
            return loss, grads, team.regions

    def test_traced_run_follows_the_plan(self):
        probe = build_net("lenet")
        state = probe.state_dict()
        plan = _inline_plan(probe)
        loss, grads, regions = self._run(state, plan, traced=False)
        traced_loss, traced_grads, traced_regions = self._run(
            state, plan, traced=True
        )
        assert regions == 0  # every layer planned inline on the master
        assert traced_regions == regions
        assert traced_loss == loss
        assert all(np.array_equal(a, b)
                   for a, b in zip(traced_grads, grads))

    def test_traced_failure_names_layer_and_phase(self):
        net = build_net("lenet")
        layer = net.layer("pool1")
        own_loops = layer.backward_loops

        def boom(lo, hi, grads):
            raise RuntimeError("chunk failed")

        def failing_loops(top, propagate_down, bottom):
            return [dataclasses.replace(loop, body=boom)
                    for loop in own_loops(top, propagate_down, bottom)]

        layer.backward_loops = failing_loops
        with ParallelExecutor(num_threads=2, reduction="blockwise") as inner:
            tracer = TracingExecutor(inner)
            tracer.forward(net)
            with pytest.raises(WorkerError) as info:
                tracer.backward(net)
        assert info.value.layer == "pool1"
        assert info.value.phase == "backward"
