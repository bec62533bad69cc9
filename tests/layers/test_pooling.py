"""Unit tests for the Pooling layer (MAX and AVE)."""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.layers.pooling import pool_out_size
from repro.testing import make_blob, spec


def pool_layer(**params):
    defaults = dict(pool="MAX", kernel_size=2, stride=2)
    defaults.update(params)
    return create_layer(spec("pool", "Pooling", **defaults))


def reference_pool(x, kernel, stride, pad, method):
    n, c, h, w = x.shape
    oh = pool_out_size(h, kernel, pad, stride)
    ow = pool_out_size(w, kernel, pad, stride)
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for s in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    h0, w0 = i * stride - pad, j * stride - pad
                    h1, w1 = min(h0 + kernel, h), min(w0 + kernel, w)
                    h0c, w0c = max(h0, 0), max(w0, 0)
                    window = x[s, ch, h0c:h1, w0c:w1]
                    if method == "MAX":
                        out[s, ch, i, j] = window.max()
                    else:
                        # Caffe divisor: clipped to the padded image
                        h1p = min(h0 + kernel, h + pad)
                        w1p = min(w0 + kernel, w + pad)
                        out[s, ch, i, j] = window.sum() / (
                            (h1p - h0) * (w1p - w0)
                        )
    return out


class TestOutSize:
    def test_exact_fit(self):
        assert pool_out_size(24, 2, 0, 2) == 12

    def test_ceil_overhang(self):
        # CIFAR pool1: 32 with kernel 3 stride 2 -> ceil((32-3)/2)+1 = 16
        assert pool_out_size(32, 3, 0, 2) == 16

    def test_pad_clip(self):
        # last window must start inside the padded image
        assert pool_out_size(4, 3, 1, 2) == 3


class TestMaxForward:
    def test_matches_reference(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((2, 3, 7, 7), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 0, "MAX")
        assert np.allclose(top[0].data, expected)

    def test_overhanging_window(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((1, 1, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert top[0].shape == (1, 1, 3, 3)
        expected = reference_pool(bottom[0].data, 3, 2, 0, "MAX")
        assert np.allclose(top[0].data, expected)

    def test_with_padding(self, rng):
        layer = pool_layer(kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((1, 2, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 1, "MAX")
        assert np.allclose(top[0].data, expected)

    def test_chunked_equals_full(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((3, 4, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        full = top[0].data.copy()
        top[0].zero_data()
        space = layer.forward_space(bottom, top)
        assert space == 12  # 3 samples x 4 channels
        for lo in range(0, space, 5):
            layer.forward_chunk(bottom, top, lo, min(lo + 5, space))
        assert np.array_equal(top[0].data, full)


class TestAveForward:
    def test_matches_reference(self, rng):
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2)
        bottom = [make_blob((2, 2, 7, 7), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 0, "AVE")
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_with_padding_divisor(self, rng):
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((1, 1, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = reference_pool(bottom[0].data, 3, 2, 1, "AVE")
        assert np.allclose(top[0].data, expected, atol=1e-5)


class TestBackward:
    def test_max_routes_to_argmax(self):
        layer = pool_layer(kernel_size=2, stride=2)
        bottom = [make_blob((1, 1, 2, 2), values=[1, 5, 2, 3])]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 1.0
        layer.backward(top, [True], bottom)
        assert np.allclose(bottom[0].flat_diff, [0, 1, 0, 0])

    def test_max_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        # Distinct values avoid argmax ties, which break finite differences.
        values = rng.permutation(2 * 2 * 5 * 5).astype(np.float32)
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((2, 2, 5, 5), values=values)]
        check_gradient(layer, bottom, [Blob()], step=1e-1)

    def test_ave_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((2, 2, 5, 5), rng=rng)]
        check_gradient(layer, bottom, [Blob()])

    def test_ave_spreads_uniformly(self):
        layer = pool_layer(pool="AVE", kernel_size=2, stride=2)
        bottom = [make_blob((1, 1, 2, 2), values=[1, 2, 3, 4])]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 4.0
        layer.backward(top, [True], bottom)
        assert np.allclose(bottom[0].flat_diff, 1.0)


class TestScratchRouting:
    """The padded planes run through the pooled scratch buffers
    (PerfDecl: no per-chunk allocation), so results must stay bitwise
    stable across pool reuse and any chunking."""

    @pytest.mark.parametrize("method", ["MAX", "AVE"])
    def test_forward_bitwise_stable_across_pool_reuse(self, rng, method):
        layer = pool_layer(pool=method, kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((2, 3, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        first = top[0].data.copy()
        # dirty the pool with a different geometry, then recompute
        other = pool_layer(pool=method, kernel_size=2, stride=2)
        other_bottom = [make_blob((1, 2, 8, 8), rng=rng)]
        other_top = [Blob()]
        other.setup(other_bottom, other_top)
        other.forward(other_bottom, other_top)
        top[0].zero_data()
        layer.forward(bottom, top)
        assert np.array_equal(top[0].data, first)

    @pytest.mark.parametrize("method", ["MAX", "AVE"])
    def test_backward_chunked_equals_full(self, rng, method):
        layer = pool_layer(pool=method, kernel_size=3, stride=2, pad=1)
        values = rng.permutation(3 * 2 * 6 * 6).astype(np.float32)
        bottom = [make_blob((3, 2, 6, 6), values=values)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].data.size)
        layer.backward(top, [True], bottom)
        full = bottom[0].diff.copy()
        bottom[0].zero_diff()
        space = layer.backward_space(top, bottom)
        for lo in range(0, space, 2):
            layer.backward_chunk(top, [True], bottom, lo,
                                 min(lo + 2, space), [])
        assert np.array_equal(bottom[0].diff, full)


class TestMaxBackwardScatter:
    def test_one_scatter_equals_per_plane_scatter(self, rng):
        """The chunk-wide np.add.at must sum each cell's contributions
        in the order the per-plane scatter did, bit for bit."""
        layer = pool_layer(kernel_size=3, stride=1, pad=1)
        # Few distinct values: overlapping windows share their maxima.
        values = rng.integers(0, 3, 4 * 3 * 5 * 5).astype(np.float32)
        bottom = [make_blob((4, 3, 5, 5), values=values)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].count) * 1e3
        layer.backward(top, [True], bottom)
        planes = 4 * 3
        expected = np.zeros((planes, 5 * 5), dtype=np.float32)
        idx = layer._max_idx.reshape(planes, -1)
        grads = top[0].diff.reshape(planes, -1)
        for p in range(planes):
            np.add.at(expected[p], idx[p], grads[p])
        assert bottom[0].flat_diff.tobytes() == expected.tobytes()


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="pool method"):
            pool_layer(pool="STOCHASTIC").setup(
                [make_blob((1, 1, 4, 4))], [Blob()]
            )

    def test_pad_too_large(self):
        with pytest.raises(ValueError, match="pad"):
            pool_layer(kernel_size=2, pad=2).setup(
                [make_blob((1, 1, 4, 4))], [Blob()]
            )
