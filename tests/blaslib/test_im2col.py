"""Unit tests for im2col / col2im."""

import numpy as np
import pytest

from repro import blaslib
from repro.blaslib import use_backend
from repro.blaslib.im2col import conv_out_size


class TestConvOutSize:
    def test_basic(self):
        assert conv_out_size(28, 5, 0, 1) == 24
        assert conv_out_size(24, 2, 0, 2) == 12
        assert conv_out_size(32, 5, 2, 1) == 32

    def test_invalid(self):
        with pytest.raises(ValueError, match="positive"):
            conv_out_size(8, 0, 0, 1)
        with pytest.raises(ValueError, match="pad"):
            conv_out_size(8, 3, -1, 1)
        with pytest.raises(ValueError, match="does not fit"):
            conv_out_size(2, 5, 0, 1)


class TestIm2col:
    def test_identity_kernel(self, rng):
        image = rng.standard_normal((2, 3, 3)).astype(np.float32)
        col = blaslib.im2col(image, 1, 1, 0, 0, 1, 1)
        assert col.shape == (2, 9)
        assert np.allclose(col, image.reshape(2, 9))

    def test_matches_reference(self, rng):
        image = rng.standard_normal((3, 6, 5)).astype(np.float32)
        fast = blaslib.im2col(image, 3, 2, 1, 1, 2, 1)
        with use_backend("reference"):
            slow = blaslib.im2col(image, 3, 2, 1, 1, 2, 1)
        assert np.array_equal(fast, slow)

    def test_convolution_via_gemm(self, rng):
        """im2col + gemm equals direct convolution."""
        image = rng.standard_normal((2, 5, 5)).astype(np.float32)
        weights = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        col = blaslib.im2col(image, 3, 3, 0, 0, 1, 1)
        out = (weights.reshape(3, -1) @ col).reshape(3, 3, 3)
        direct = np.zeros((3, 3, 3), dtype=np.float32)
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    direct[k, i, j] = np.sum(
                        image[:, i : i + 3, j : j + 3] * weights[k]
                    )
        assert np.allclose(out, direct, atol=1e-4)

    def test_padding_zeros(self):
        image = np.ones((1, 2, 2), dtype=np.float32)
        col = blaslib.im2col(image, 2, 2, 1, 1, 1, 1)
        # top-left window sees only the bottom-right image pixel
        assert col.shape == (4, 9)
        assert col[0, 0] == 0.0  # padded corner

    def test_out_buffer(self, rng):
        image = rng.standard_normal((1, 4, 4)).astype(np.float32)
        out = np.empty((4, 9), dtype=np.float32)
        result = blaslib.im2col(image, 2, 2, 0, 0, 1, 1, out=out)
        assert result is out

    def test_bad_out_shape(self, rng):
        image = rng.standard_normal((1, 4, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="out has shape"):
            blaslib.im2col(image, 2, 2, 0, 0, 1, 1,
                           out=np.empty((3, 3), np.float32))

    def test_rejects_2d_image(self):
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            blaslib.im2col(np.zeros((4, 4), np.float32), 2, 2, 0, 0, 1, 1)


class TestCol2im:
    def test_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint
        property that makes conv backward correct."""
        x = rng.standard_normal((2, 5, 6)).astype(np.float64)
        args = (3, 2, 1, 0, 2, 1)  # kh kw ph pw sh sw
        col_x = blaslib.im2col(x.astype(np.float32), *args).astype(np.float64)
        y = rng.standard_normal(col_x.shape).astype(np.float64)
        folded = blaslib.col2im(
            y.astype(np.float32), 2, 5, 6, *args
        ).astype(np.float64)
        assert np.dot(col_x.ravel(), y.ravel()) == pytest.approx(
            np.dot(x.ravel(), folded.ravel()), rel=1e-4
        )

    def test_matches_reference(self, rng):
        col = rng.standard_normal((2 * 3 * 2, 3 * 5)).astype(np.float32)
        fast = blaslib.col2im(col, 2, 6, 6, 3, 2, 1, 0, 2, 1)
        with use_backend("reference"):
            slow = blaslib.col2im(col, 2, 6, 6, 3, 2, 1, 0, 2, 1)
        assert np.allclose(fast, slow, atol=1e-5)

    def test_overlap_accumulates(self):
        # kernel 2, stride 1 on width 3: middle pixel is in two windows.
        col = np.ones((2, 2), dtype=np.float32)
        out = blaslib.col2im(col, 1, 1, 3, 1, 2, 0, 0, 1, 1)
        assert np.allclose(out.ravel(), [1, 2, 1])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="col has shape"):
            blaslib.col2im(np.zeros((3, 3), np.float32),
                           1, 4, 4, 2, 2, 0, 0, 1, 1)


#: (C, H, W, kernel_h, kernel_w, pad_h, pad_w, stride_h, stride_w):
#: square and non-square kernels, padding, strides that drop pixels.
GEOMETRIES = [
    (1, 6, 6, 3, 3, 0, 0, 1, 1),
    (2, 7, 5, 3, 2, 1, 0, 2, 1),
    (3, 8, 9, 2, 3, 1, 2, 2, 3),
    (2, 5, 5, 5, 5, 2, 2, 1, 1),
]


class TestBatched:
    """The block-of-images lowering equals per-image calls bitwise.
    Counts cover a full block and a last block shorter than the conv
    layer's block size."""

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_im2col_columns_are_per_image(self, rng, geometry, count):
        c, h, w, *args = geometry
        images = rng.standard_normal((count, c, h, w)).astype(np.float32)
        col = blaslib.im2col_batched(images, *args)
        plane = col.shape[1] // count
        for i in range(count):
            assert np.array_equal(col[:, i * plane : (i + 1) * plane],
                                  blaslib.im2col(images[i], *args))
        with use_backend("reference"):
            slow = blaslib.im2col_batched(images, *args)
        assert np.array_equal(col, slow)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_col2im_bitwise_per_image(self, rng, geometry, count):
        c, h, w, *args = geometry
        k = c * args[0] * args[1]
        plane = blaslib.im2col(np.zeros((c, h, w), np.float32),
                               *args).shape[1]
        col = rng.standard_normal((k, count * plane)).astype(np.float32)
        out = np.full((count, c, h, w), np.nan, dtype=np.float32)
        result = blaslib.col2im_batched(col, count, c, h, w, *args, out=out)
        assert result is out
        for i in range(count):
            ref = blaslib.col2im(
                np.ascontiguousarray(col[:, i * plane : (i + 1) * plane]),
                c, h, w, *args)
            assert out[i].tobytes() == ref.tobytes()
        with use_backend("reference"):
            slow = blaslib.col2im_batched(col, count, c, h, w, *args)
        assert np.allclose(out, slow, atol=1e-5)

    def test_col2im_into_strided_view(self, rng):
        """Grouped conv folds into a channel slice of the bottom diff."""
        args = (3, 3, 1, 1, 1, 1)
        col = rng.standard_normal((2 * 9, 2 * 25)).astype(np.float32)
        dx = np.zeros((2, 4, 5, 5), dtype=np.float32)
        blaslib.col2im_batched(col, 2, 2, 5, 5, *args, out=dx[:, 2:])
        assert np.array_equal(dx[:, :2], np.zeros((2, 2, 5, 5)))
        assert np.array_equal(
            dx[:, 2:], blaslib.col2im_batched(col, 2, 2, 5, 5, *args))

    def test_accounting_matches_per_image(self, rng):
        images = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        args = (3, 3, 1, 1, 1, 1)
        with blaslib.op_counter() as batched:
            col = blaslib.im2col_batched(images, *args)
            blaslib.col2im_batched(col, 3, 2, 6, 6, *args)
        with blaslib.op_counter() as single:
            for image in images:
                blaslib.col2im(blaslib.im2col(image, *args), 2, 6, 6, *args)
        assert batched.flops == single.flops
        assert batched.calls == {"im2col": 1, "col2im": 1}

    def test_validation(self, rng):
        images = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        with pytest.raises(ValueError, match=r"\(n, C, H, W\)"):
            blaslib.im2col_batched(images[0], 2, 2, 0, 0, 1, 1)
        with pytest.raises(ValueError, match="C-contiguous"):
            blaslib.im2col_batched(images, 2, 2, 0, 0, 1, 1,
                                   out=np.empty((4, 19), np.float32))
        with pytest.raises(ValueError, match="C-contiguous"):
            blaslib.im2col_batched(images, 2, 2, 0, 0, 1, 1,
                                   out=np.empty((18, 4), np.float32).T)
        with pytest.raises(ValueError, match="col has shape"):
            blaslib.col2im_batched(np.zeros((4, 9), np.float32),
                                   2, 1, 4, 4, 2, 2, 0, 0, 1, 1)
        with pytest.raises(ValueError, match="out has shape"):
            blaslib.col2im_batched(np.zeros((4, 18), np.float32),
                                   2, 1, 4, 4, 2, 2, 0, 0, 1, 1,
                                   out=np.zeros((1, 1, 4, 4), np.float32))
