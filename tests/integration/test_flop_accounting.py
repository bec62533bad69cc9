"""BLAS work accounting of one training iteration, pinned exactly.

Batching the layer kernels must not change the arithmetic, only the
number of calls: ``op_counter`` around one TRAIN forward+backward of
lenet (batch 64) and cifar10 (batch 100) records the same FLOP totals
as the per-sample kernels did.  A batched call that bypassed the
``repro.blaslib`` accounting would drop FLOPs here.
"""

import pytest

from repro.blaslib import op_counter
from repro.zoo import build_net

#: FLOPs of one TRAIN forward+backward (multiply-add counted as 2).
PINNED_FLOPS = {
    "lenet": 845_696_000,     # ~0.8457 GFLOP
    "cifar10": 6_913_024_000,  # ~6.913 GFLOP
}


@pytest.mark.parametrize("name", sorted(PINNED_FLOPS))
def test_train_iteration_flops_are_pinned(name):
    net = build_net(name)
    with op_counter() as ops:
        net.forward()
        net.backward()
    assert ops.total_flops() == PINNED_FLOPS[name]
    assert ops.flops["im2col"] == 0
