"""Unit tests for the Pooling layer (MAX and AVE)."""

import zlib

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.framework.layers.pooling import pool_out_size
from repro.resilience.guards import HealthGuard, NumericFault
from repro.testing import make_blob, reference_pool, spec
from repro.zoo import build_solver, cifar10_spec, lenet_spec


def pool_layer(**params):
    defaults = dict(pool="MAX", kernel_size=2, stride=2)
    defaults.update(params)
    return create_layer(spec("pool", "Pooling", **defaults))


def assert_matches_reference(layer, bottom, top, method, kernel, stride,
                             pad):
    """Top (and MAX index) equal the exact reference bit for bit."""
    expected, idx, _ = reference_pool(bottom[0].data, method, kernel,
                                      stride, pad)
    assert top[0].data.tobytes() == expected.tobytes()
    if method == "MAX":
        assert np.array_equal(layer._max_idx.reshape(idx.shape), idx)


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
        assert_matches_reference(layer, bottom, top, "MAX", 3, 2, 0)

    def test_overhanging_window(self, rng):
        layer = pool_layer(kernel_size=3, stride=2)
        bottom = [make_blob((1, 1, 6, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert top[0].shape == (1, 1, 3, 3)
        assert_matches_reference(layer, bottom, top, "MAX", 3, 2, 0)

    def test_with_padding(self, rng):
        layer = pool_layer(kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((1, 2, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert_matches_reference(layer, bottom, top, "MAX", 3, 2, 1)

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
        assert_matches_reference(layer, bottom, top, "AVE", 3, 2, 0)

    def test_with_padding_divisor(self, rng):
        layer = pool_layer(pool="AVE", kernel_size=3, stride=2, pad=1)
        bottom = [make_blob((1, 1, 5, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert_matches_reference(layer, bottom, top, "AVE", 3, 2, 1)


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


def _floats(*bits):
    return np.array(bits, dtype=np.uint32).view(np.float32)


class TestMaxWinner:
    """The winner is the first strictly greater cell of a row-major scan,
    or the first NaN, and the output is that cell's exact bits."""

    def _pool(self, values, **params):
        layer = pool_layer(**params)
        bottom = [make_blob((1, 1, 2, 2), values=values)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        return top[0].data.reshape(-1).view(np.uint32), layer._max_idx

    @pytest.mark.parametrize("first,second", [
        (0x80000000, 0x00000000),  # -0 then +0
        (0x00000000, 0x80000000),  # +0 then -0
    ])
    def test_signed_zero_tie_keeps_the_first_cell(self, first, second):
        minus_one = 0xBF800000
        bits, idx = self._pool(_floats(minus_one, first, second, minus_one))
        assert bits[0] == first
        assert idx.reshape(-1)[0] == 1

    def test_first_nan_wins_with_its_bits(self):
        bits, idx = self._pool(_floats(0x3F800000, 0x7FC00001,
                                       0x40A00000, 0xFFC00002))
        assert bits[0] == 0x7FC00001
        assert idx.reshape(-1)[0] == 1

    def test_index_is_int32(self):
        _, idx = self._pool([1.0, 2.0, 3.0, 4.0])
        assert idx.dtype == np.int32


class TestPaddingNeverWins:
    """A window whose in-image cells are all -inf must report its first
    in-image cell, never a padding cell: a padding index would route the
    gradient outside its plane, into a neighbour that depends on the
    chunking."""

    def _setup(self):
        layer = pool_layer(kernel_size=3, stride=2, pad=1)
        values = np.random.default_rng(0).standard_normal((1, 2, 5, 5))
        values[0, 1, 0:2, 0:2] = -np.inf
        bottom = [make_blob((1, 2, 5, 5), values=values)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = 1.0
        return layer, bottom, top

    def test_first_in_image_cell_wins(self):
        layer, bottom, top = self._setup()
        assert layer._max_idx[1, 0, 0] == 0
        assert_matches_reference(layer, bottom, top, "MAX", 3, 2, 1)

    def test_backward_is_plane_local_under_any_chunking(self):
        layer, bottom, top = self._setup()
        diffs = []
        for chunks in ([(0, 2)], [(0, 1), (1, 2)]):
            bottom[0].zero_diff()
            for lo, hi in chunks:
                layer.backward_chunk(top, [True], bottom, lo, hi, [])
            diffs.append(bottom[0].diff.copy())
        _, _, expected = reference_pool(bottom[0].data, "MAX", 3, 2, 1,
                                        top_diff=top[0].diff)
        assert diffs[0].tobytes() == expected.tobytes()
        assert diffs[1].tobytes() == expected.tobytes()
        assert diffs[0][0, 1, 0, 0] == 1.0


#: (net, layer) -> bottom shape of every zoo pooling layer.
ZOO_POOLS = {
    ("lenet", "pool1"): (64, 20, 24, 24),
    ("lenet", "pool2"): (64, 50, 8, 8),
    ("cifar10", "pool1"): (100, 32, 32, 32),
    ("cifar10", "pool2"): (100, 32, 16, 16),
    ("cifar10", "pool3"): (100, 64, 8, 8),
}

#: CRC-32 of top, MAX index (as int64) and bottom diff on the seeded
#: inputs of ``_zoo_input``, recorded with the copied-window argmax
#: kernel this layer had before the tap passes.
ZOO_DIGESTS = {
    ("lenet", "pool1"): (210151615, 3173810524, 1884123545),
    ("lenet", "pool2"): (2520085570, 1553586339, 2709058987),
    ("cifar10", "pool1"): (2505987941, 2870134808, 1694251269),
    ("cifar10", "pool2"): (1298728698, None, 2336609503),
    ("cifar10", "pool3"): (3017319640, None, 982333895),
}


def _zoo_input(shape, ties):
    """Seeded normals; quarter-step rounding (``ties``) makes MAX ties
    common, and 15% of the cells are +0 or -0."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape)
    if ties:
        x = np.round(x * 4) / 4
    signed_zero = rng.random(shape) < 0.15
    x[signed_zero] = np.where(rng.random(int(signed_zero.sum())) < 0.5,
                              0.0, -0.0)
    return x.astype(np.float32)


def _crc(array):
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


class TestZooDigests:
    @pytest.mark.parametrize("net,name", sorted(ZOO_POOLS))
    def test_zoo_pool_digests(self, net, name):
        spec_fn = {"lenet": lenet_spec, "cifar10": cifar10_spec}[net]
        layer = create_layer(spec_fn().layer(name))
        shape = ZOO_POOLS[net, name]
        bottom = [Blob(shape, name="x")]
        bottom[0].set_data(_zoo_input(shape, layer.spec.param("pool")
                                      == "MAX"))
        top = [Blob(name="t")]
        layer.setup(bottom, top)
        want_top, want_idx, want_diff = ZOO_DIGESTS[net, name]
        space = layer.forward_space(bottom, top)
        for chunks in ([(0, space)], [(0, 37), (37, space)]):
            top[0].zero_data()
            for lo, hi in chunks:
                layer.forward_chunk(bottom, top, lo, hi)
            assert _crc(top[0].data) == want_top
            if want_idx is not None:
                assert _crc(layer._max_idx.astype(np.int64)) == want_idx
        top[0].flat_diff[:] = np.random.default_rng(8).standard_normal(
            top[0].count)
        layer.backward(top, [True], bottom)
        assert _crc(bottom[0].diff) == want_diff


class TestNanThroughLenet:
    def test_planted_nan_follows_the_reference_and_trips_the_guard(self):
        """NaNs planted in pool1's bottom reach pool1's top where the
        reference puts them, with the reference's index, and the health
        guard halts that iteration."""
        solver = build_solver("lenet", max_iter=3)
        solver.guard = HealthGuard(policy="halt")
        solver.step(1)
        layer = solver.net.layer("pool1")
        inner = layer.forward_chunk
        seen = {}

        def planting(bottom, top, lo, hi):
            planes = bottom[0].data.reshape(-1, 24, 24)
            planes[3, 5, 7] = np.nan          # second NaN of its window
            planes[3, 4, 6] = np.nan          # first NaN of the same window
            planes[40, 23, 0] = -np.nan       # sign-flipped NaN, last row
            seen["bottom"] = bottom[0].data.copy()
            inner(bottom, top, lo, hi)
            seen["top"] = top[0].data.copy()
            seen["idx"] = layer._max_idx.copy()

        layer.forward_chunk = planting
        with pytest.raises(NumericFault):
            solver.step(1)
        planes = seen["bottom"].reshape(-1, 1, 24, 24)
        tops = seen["top"].reshape(-1, 1, 12, 12)
        for plane in (3, 40):
            want, want_idx, _ = reference_pool(planes[plane : plane + 1],
                                               "MAX", 2, 2, 0)
            assert tops[plane].tobytes() == want[0].tobytes()
            assert np.array_equal(seen["idx"][plane], want_idx[0, 0])
        assert np.argwhere(np.isnan(tops[:, 0])).tolist() == [
            [3, 2, 3], [40, 11, 0]]
        assert seen["idx"][3, 2, 3] == 4 * 24 + 6
