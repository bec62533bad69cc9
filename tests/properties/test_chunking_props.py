"""Chunking invariance of the block-batched layer kernels (hypothesis).

The coarse-grain runtime may cut a layer's coalesced iteration space
anywhere (and a reduction loop anywhere on a multiple of its
``LoopSpec.block``); the sequential pass is the one full-range call.
For the layers whose inner loops run one BLAS call per sample block —
Convolution, InnerProduct, MAX/AVE Pooling and the fused convolution —
every such partition must reproduce the full-range tops, bottom diffs
and parameter gradients byte for byte.  Pooling is also checked against
the exact reference (``repro.testing.reference_pool``) over random
geometries and special values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ParallelExecutor
from repro.framework.blob import Blob
from repro.framework.layer import aligned_blocks, create_layer
from repro.framework.layers.pooling import pool_out_size
from repro.framework.net_spec import LayerSpec
from repro.testing import reference_pool
from repro.zoo import build_solver

FILLERS = dict(weight_filler={"type": "gaussian", "std": 0.5},
               bias_filler={"type": "gaussian", "std": 0.5})

#: name -> (layer type, params, bottom shape).  The conv batch of 19
#: spans two full blocks of 8 and a short last block of 3.
CASES = {
    "conv": ("Convolution",
             dict(num_output=6, kernel_h=3, kernel_w=2, pad=1, stride=2,
                  group=2, filler_seed=3, **FILLERS),
             (19, 4, 7, 6)),
    "ip": ("InnerProduct", dict(num_output=5, filler_seed=4, **FILLERS),
           (9, 3, 2, 2)),
    "pool_max": ("Pooling", dict(pool="MAX", kernel_size=3, stride=2,
                                 pad=1), (5, 3, 7, 7)),
    "pool_ave": ("Pooling", dict(pool="AVE", kernel_size=3, stride=2,
                                 pad=1), (5, 3, 7, 7)),
    "fused_conv": ("FusedConv",
                   dict(num_output=4, kernel_size=3, pad=1, filler_seed=5,
                        fused_relu=True,
                        fused_middle={"name": "sc", "type": "Scale",
                                      "params": {"filler": {
                                          "type": "gaussian", "std": 1.0},
                                          "filler_seed": 6}},
                        **FILLERS),
                   (11, 2, 5, 5)),
}


def _partition(data, space, step):
    """Random cut points of ``[0, space)`` on multiples of ``step``."""
    candidates = list(range(step, space, step))
    cuts = data.draw(st.lists(st.sampled_from(candidates), unique=True,
                              max_size=6) if candidates else st.just([]))
    edges = [0] + sorted(cuts) + [space]
    return list(zip(edges[:-1], edges[1:]))


def _build(case, seed):
    type_, params, shape = CASES[case]
    layer = create_layer(LayerSpec(name=case, type=type_, bottoms=["x"],
                                   tops=["t"], params=params))
    rng = np.random.default_rng(seed)
    bottom = [Blob(shape, name="x")]
    bottom[0].set_data(rng.standard_normal(bottom[0].count)
                       .astype(np.float32))
    top = [Blob(name="t")]
    layer.setup(bottom, top)
    return layer, bottom, top, rng


def _snapshot(layer, bottom, top):
    return ([top[0].flat_data.tobytes(), bottom[0].flat_diff.tobytes()]
            + [blob.flat_diff.tobytes() for blob in layer.blobs])


def _run(case, seed, data=None):
    """Forward then backward, chunked by ``data`` (or full-range when
    ``data`` is None); returns the byte snapshot."""
    layer, bottom, top, rng = _build(case, seed)
    layer.reshape(bottom, top)
    space = layer.forward_space(bottom, top)
    for lo, hi in ([(0, space)] if data is None
                   else _partition(data, space, 1)):
        layer.forward_chunk(bottom, top, lo, hi)
    layer.forward_finalize(bottom, top)
    top[0].flat_diff[:] = rng.standard_normal(top[0].count)
    bottom[0].zero_diff()
    for blob in layer.blobs:  # a nonzero start: accumulation must add on
        blob.flat_diff[:] = rng.standard_normal(blob.count)
    for loop in layer.backward_loops(top, [True], bottom):
        step = loop.block if loop.reduction else 1
        for lo, hi in ([(0, loop.space)] if data is None
                       else _partition(data, loop.space, step)):
            loop.body(lo, hi, loop.grad_targets)
    return _snapshot(layer, bottom, top)


class TestChunkingInvariance:
    @pytest.mark.parametrize("case", sorted(CASES))
    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_any_partition_matches_full_range(self, case, seed, data):
        assert _run(case, seed, data) == _run(case, seed)

    def test_conv_blocks_follow_geometry_only(self):
        layer, bottom, top, _ = _build("conv", 0)
        assert layer.grad_block(19, 19) == 8
        # A 1 MiB column budget caps the block on large images.
        big = create_layer(LayerSpec(
            name="big", type="Convolution", bottoms=["x"], tops=["t"],
            params=dict(num_output=2, kernel_size=5, pad=2)))
        big.setup([Blob((2, 32, 32, 32))], [Blob()])
        assert big.grad_block(2, 2) == 1

    @given(lo=st.integers(0, 40), size=st.integers(0, 40),
           block=st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_aligned_blocks_cut_on_multiples(self, lo, size, block):
        hi = lo + size
        pieces = list(aligned_blocks(lo, hi, block))
        assert [p for piece in pieces for p in range(*piece)] == list(
            range(lo, hi))
        for start, stop in pieces:
            assert start // block == (stop - 1) // block
            assert stop == hi or stop % block == 0


@st.composite
def pool_geometries(draw):
    """Kernel 1-4, stride 1-3 and pad < kernel per axis, on images from
    barely one window (ceil overhang, stride > kernel included) to 9."""
    kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    pad = tuple(draw(st.integers(0, k - 1)) for k in kernel)
    size = tuple(draw(st.integers(max(1, k - 2 * p), 9))
                 for k, p in zip(kernel, pad))
    planes = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return kernel, stride, pad, planes + size


#: Special values a pooling input may hold besides quantized normals.
SPECIALS = {"zero": (0.0, -0.0), "inf": (np.inf, -np.inf),
            "nan": (np.nan, -np.nan)}


def _pool_input(shape, seed, specials):
    """Half-step values (many ties), with a share of each special."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal(shape) * 2) / 2
    for name in sorted(specials):
        hit = rng.random(shape) < 0.15
        x[hit] = rng.choice(SPECIALS[name], size=int(hit.sum()))
    return x.astype(np.float32)


def _bits_or_both_nan(got, want):
    """Equal bits, except that two NaNs match whatever their payloads."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def _pool_run(method, geometry, x, top_diff, chunks):
    """Forward then backward over ``chunks``; (top, MAX index, bottom
    diff) as arrays."""
    kernel, stride, pad, shape = geometry
    layer = create_layer(LayerSpec(
        name="pool", type="Pooling", bottoms=["x"], tops=["t"],
        params=dict(pool=method, kernel_h=kernel[0], kernel_w=kernel[1],
                    stride_h=stride[0], stride_w=stride[1],
                    pad_h=pad[0], pad_w=pad[1])))
    bottom = [Blob(shape, name="x")]
    bottom[0].set_data(x)
    top = [Blob(name="t")]
    layer.setup(bottom, top)
    for lo, hi in chunks:
        layer.forward_chunk(bottom, top, lo, hi)
    top[0].diff[...] = top_diff
    bottom[0].zero_diff()
    for lo, hi in chunks:
        layer.backward_chunk(top, [True], bottom, lo, hi, [])
    idx = (layer._max_idx.reshape(top[0].shape) if method == "MAX"
           else None)
    return top[0].data.copy(), idx, bottom[0].diff.copy()


class TestPoolingReference:
    @pytest.mark.parametrize("method", ["MAX", "AVE"])
    @given(geometry=pool_geometries(), seed=st.integers(0, 2**16),
           specials=st.sets(st.sampled_from(sorted(SPECIALS))),
           data=st.data())
    @example(geometry=((3, 3), (2, 2), (0, 0), (2, 2, 6, 6)), seed=0,
             specials={"zero"}, data=None)
    @example(geometry=((2, 1), (3, 3), (1, 0), (1, 2, 7, 8)), seed=1,
             specials={"inf", "nan"}, data=None)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_any_partition_matches_reference(self, method, geometry, seed,
                                             specials, data):
        """Any chunking reproduces the full-range top, MAX index and
        bottom diff byte for byte (NaN payloads included), and those
        equal the reference's bits.  An AVE window holding two NaNs may
        return either payload (IEEE 754 leaves NaN propagation open), so
        AVE NaNs only have to sit where the reference's do."""
        kernel, stride, pad, shape = geometry
        x = _pool_input(shape, seed, specials)
        top_shape = shape[:2] + tuple(
            pool_out_size(*args) for args in zip(shape[2:], kernel, pad,
                                                 stride))
        top_diff = np.random.default_rng(seed).standard_normal(
            top_shape).astype(np.float32)
        space = shape[0] * shape[1]
        chunks = ([(0, 1), (1, space)] if data is None
                  else _partition(data, space, 1))
        full = _pool_run(method, geometry, x, top_diff, [(0, space)])
        top, idx, diff = _pool_run(method, geometry, x, top_diff, chunks)
        assert top.tobytes() == full[0].tobytes()
        assert diff.tobytes() == full[2].tobytes()

        want, want_idx, want_diff = reference_pool(
            x, method, kernel, stride, pad, top_diff=top_diff)
        if method == "MAX":
            assert top.tobytes() == want.tobytes()
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(full[1], want_idx)
        else:
            assert _bits_or_both_nan(top, want)
        assert diff.tobytes() == want_diff.tobytes()


def test_blockwise_three_threads_matches_sequential_lenet():
    """T=3 divides neither the batch of 64 nor lenet's 8 conv blocks."""
    seq = build_solver("lenet", max_iter=2)
    seq.step(2)
    with ParallelExecutor(num_threads=3, reduction="blockwise") as executor:
        par = build_solver("lenet", max_iter=2, executor=executor)
        par.step(2)
    assert par.loss_history == seq.loss_history
    for p, q in zip(seq.net.learnable_params, par.net.learnable_params):
        assert p.flat_data.tobytes() == q.flat_data.tobytes()
        assert p.flat_diff.tobytes() == q.flat_diff.tobytes()
