"""Serving session: open-loop LeNet inference through ``repro.serve``.

Part of every traced run; it yields the ``serve.*`` per-layer metrics.
Serving has no end-to-end metric: on a 2-vCPU host with varying CPU
steal, the engine's per-batch time at 2 threads moved between about 12
and 28 ms from run to run, and near the saturation knee that swung
p50/p99 latency, capacity and goodput by 2x or more, too much to bound.

One generator thread (the caller) sends single-sample requests on the
schedule of a seeded ``RequestTrace`` into an ``InferenceServer`` whose
background dispatcher batches them onto an ``InferenceEngine`` (LeNet
TEST net, ``nproc`` threads, ``max_batch`` 8, admission capacity 64).
Payloads are the rendered MNIST test images.  Each request's deadline is
its *scheduled* send time plus a 100 ms budget, and waits are counted
from that scheduled time, so a generator stall is charged to the
requests it delays.  A phase whose generator ran, on average, more than
one mean inter-arrival gap behind its schedule is invalid: its figures
are dropped and the phase is run again, up to ``ATTEMPTS`` times.  If
no attempt is valid, the last one's figures are reported and the phase
counts as a failed operation.

Phases, each drained before the next: a warm-up, the nominal rate and an
overload phase at about twice the engine's capacity.

Correctness: every request gets exactly one response, and every ``ok``
output equals, bit for bit, the same row of a sequential ``Net.forward``
of a batch holding that sample at that row.  The engine's batch log says
which row served a request and must hold the request's own sample bytes
there.  In the warm-up and at the nominal rate any response other than
``ok`` is a failed operation; under overload, shed and timed-out
requests are the measured outcome.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Dict, List, Tuple

import numpy as np

from repro.core import ParallelExecutor
from repro.framework.net import Net
from repro.serve import (
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    InferenceEngine,
    InferenceServer,
    RequestTrace,
    StagedSource,
)
from repro.zoo import lenet_spec

from common import Result, median, upper_percentile
from spans import (
    Recorder,
    SpanTeam,
    export,
    instrument_executor,
    instrument_layers,
)

MAX_BATCH = 8
CAPACITY = 64
BUDGET_S = 0.100

#: (name, offered requests/s, seconds).  The nominal phase is long enough
#: for a p99 with at least ten samples beyond it.
PHASES = (("warmup", 200.0, 0.5), ("nominal", 200.0, 8.0),
          ("overload", 900.0, 2.0))
ATTEMPTS = 3
DRAIN_TIMEOUT_S = 5.0


@dataclass
class Phase:
    kind: str
    rate: float
    seconds: float
    attempt: int = 0
    #: request id -> (scheduled send time, payload index)
    due: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    late: List[float] = field(default_factory=list)
    statuses: Counter = field(default_factory=Counter)
    #: (run_batch start, end, request ids)
    batches: List[Tuple[float, float, Tuple]] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return 1.0 / self.rate

    @property
    def name(self) -> str:
        """Unique per attempt; prefixes the phase's request ids."""
        return f"{self.kind}.{self.attempt}"

    def mean_late(self) -> float:
        return sum(self.late) / len(self.late)

    def valid(self) -> bool:
        return self.mean_late() <= self.gap


class Deliveries:
    """Every response the server delivers, by request id."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.responses: Dict[str, object] = {}
        self.count: Counter = Counter()

    def __call__(self, response) -> None:
        with self._lock:
            self.count[response.request_id] += 1
            self.responses.setdefault(response.request_id, response)


def reference_rows(images: np.ndarray
                   ) -> Tuple[Dict[Tuple[int, int], bytes], Net]:
    """Sequential ``Net.forward`` output bytes of every payload at every
    batch row, keyed ``(payload index, row)``.

    Rows of a batch are computed independently, so a served row must
    match the reference row of its payload at the same position whatever
    its batch-mates were; each forward fills ``MAX_BATCH`` entries.
    """
    net = Net(lenet_spec(), phase="TEST")
    source = StagedSource(images.shape[1:])
    for layer in net.layers:
        if layer.type == "Data":
            layer.source = source
            layer.batch_size = MAX_BATCH
    output = net.blob("ip2")
    count = len(images)
    rows: Dict[Tuple[int, int], bytes] = {}
    for shift in range(MAX_BATCH):
        for first in range(0, count, MAX_BATCH):
            picks = [(first + (row + shift) % MAX_BATCH) % count
                     for row in range(MAX_BATCH)]
            source.stage(images[picks])
            net.forward()
            for row, index in enumerate(picks):
                rows[(index, row)] = output.data[row].tobytes()
    return rows, net


def _drive(server: InferenceServer, phase: Phase, trace: RequestTrace,
           images: np.ndarray) -> None:
    """Send ``trace`` open-loop, then wait for every response."""
    start = monotonic() + 0.005
    for event in trace.events:
        due = start + event.offset
        delay = due - monotonic()
        if delay > 0:
            sleep(delay)
        phase.late.append(max(0.0, monotonic() - due))
        rid = f"{phase.name}-{event.index}"
        index = event.sample_seed % len(images)
        phase.due[rid] = (due, index)
        server.submit(images[index], deadline=due + BUDGET_S,
                      request_id=rid)
    limit = monotonic() + DRAIN_TIMEOUT_S
    while server.stats()["pending"] and monotonic() < limit:
        sleep(0.002)


def _audit(result: Result, phase: Phase, deliveries: Deliveries,
           engine: InferenceEngine, images: np.ndarray,
           reference: Dict[Tuple[int, int], bytes]) -> None:
    """Exactly-once delivery, allowed statuses and bitwise outputs for
    every request of ``phase``; then forget the phase's batch log."""
    batches = {record.batch_index: record for record in engine.batch_log}
    engine.batch_log.clear()
    for rid, (_, index) in phase.due.items():
        copies = deliveries.count[rid]
        if copies != 1:
            result.check(False, f"{rid}: delivered {copies} times")
            continue
        response = deliveries.responses[rid]
        phase.statuses[response.status] += 1
        if response.status != STATUS_OK:
            expected = response.status in (STATUS_SHED, STATUS_TIMEOUT)
            result.check(expected and phase.kind == "overload",
                         f"{rid}: {response.status} ({response.detail})",
                         wrong=not expected)
            continue
        record = batches[response.batch_index]
        row = record.request_ids.index(rid)
        result.check(
            record.images[row].tobytes() == images[index].tobytes()
            and response.output.tobytes() == reference[(index, row)],
            f"{rid}: ok output differs from sequential Net.forward")


def _instrument(rec: Recorder, engine: InferenceEngine, threads: int,
                batches: List) -> None:
    """Give the engine an executor on a span-recording team, trace its
    layers, and time ``run_batch`` on the serve clock's axis."""
    engine.executor.close()
    engine.executor = ParallelExecutor(team=SpanTeam(threads, rec),
                                       reduction="blockwise")
    instrument_executor(rec, engine.executor)
    instrument_layers(rec, engine.net)
    run_batch = engine.run_batch

    def traced_run_batch(samples, request_ids=None):
        rec.iteration = len(batches)
        start = monotonic()
        try:
            return run_batch(samples, request_ids)
        finally:
            batches.append((start, monotonic(), tuple(request_ids or ())))

    engine.run_batch = traced_run_batch


def run_session(result: Result, seed: int, images: np.ndarray,
                trace_path: str) -> None:
    """Serve ``images`` open-loop, add the ``serve.*`` metrics and the
    per-batch team counts to ``result``, and write the session's spans to
    ``trace_path``."""
    threads = os.cpu_count() or 1
    deliveries = Deliveries()
    engine = InferenceEngine(lambda: Net(lenet_spec(), phase="TEST"),
                             num_threads=threads, max_batch=MAX_BATCH)
    server = InferenceServer(engine, capacity=CAPACITY,
                             default_budget=BUDGET_S, on_deliver=deliveries)
    reference, reference_net = reference_rows(images)
    result.check(all(
        a.flat_data.tobytes() == b.flat_data.tobytes()
        for a, b in zip(engine.net.learnable_params,
                        reference_net.learnable_params)
    ), "reference net weights differ from the served net")
    rec = Recorder()
    rec.arm = "serve"
    batches: List[Tuple[float, float, Tuple]] = []
    _instrument(rec, engine, threads, batches)
    phases: Dict[str, Phase] = {}
    server.start()
    try:
        for index, (kind, rate, seconds) in enumerate(PHASES):
            for attempt in range(ATTEMPTS):
                phase = Phase(kind, rate, seconds, attempt)
                trace = RequestTrace.generate(
                    n=int(rate * seconds), sample_shape=images.shape[1:],
                    seed=seed * 100 + index * ATTEMPTS + attempt,
                    mean_interarrival=phase.gap, budget=BUDGET_S)
                first_batch = len(batches)
                _drive(server, phase, trace, images)
                phase.batches = batches[first_batch:]
                _audit(result, phase, deliveries, engine, images,
                       reference)
                phases[kind] = phase
                print(f"serve {phase.name}: {rate:g}/s offered, "
                      f"{dict(phase.statuses)}, generator "
                      f"{phase.mean_late() * 1e3:.2f} ms late on average"
                      + ("" if phase.valid() else "; invalid"))
                if phase.valid():
                    break
        queue_high_water = server.stats()["queue_high_water"]
    finally:
        server.stop()
        engine.close()
    export(rec, trace_path)

    nominal, overload = phases["nominal"], phases["overload"]
    for phase in (nominal, overload):
        result.check(phase.valid(),
                     f"serve {phase.kind}: generator ran "
                     f"{phase.mean_late() * 1e3:.2f} ms late on average "
                     f"in all {ATTEMPTS} attempts, more than the "
                     f"{phase.gap * 1e3:.2f} ms mean gap; reported anyway",
                     wrong=False)
    waits = [start - nominal.due[rid][0]
             for start, _, ids in nominal.batches for rid in ids]
    wait_p99 = upper_percentile(waits, 99)
    if wait_p99 is None:
        print(f"serve: {len(waits)} waits do not resolve a p99; "
              f"reporting their maximum")
        wait_p99 = max(waits)
    result.add("serve.queue_wait_p99_ms", wait_p99 * 1e3, "ms")
    result.add("serve.engine_ms", median(
        [(end - start) * 1e3 for start, end, _ in nominal.batches]), "ms")
    result.add("serve.batch_size", len(waits) / len(nominal.batches),
               "count")
    result.add("serve.gen_late_p99_ms",
               upper_percentile(nominal.late, 99, min_beyond=1) * 1e3, "ms")
    sent = len(overload.due)
    result.add("serve.queue_high_water", queue_high_water, "count")
    result.add("serve.shed_frac", overload.statuses[STATUS_SHED] / sent,
               "ratio")
    result.add("serve.timeout_frac",
               overload.statuses[STATUS_TIMEOUT] / sent, "ratio")
    # Team counts per served batch: every batch is padded to MAX_BATCH,
    # so they must repeat exactly.
    regions: Counter = Counter()
    chunks: Counter = Counter()
    for cat, _, _, batch, _, _, _ in rec.spans:
        if cat == "region":
            regions[batch] += 1
        elif cat == "chunk":
            chunks[batch] += 1
    for name, counter in (("core.regions.serve", regions),
                          ("core.chunks.serve", chunks)):
        values = {counter[batch] for batch in range(len(batches))}
        result.check(len(values) == 1, f"{name} is not exact: {values}")
        result.add(name, min(values), "count")
