"""Unit tests for gemm / gemv / ger against numpy references."""

import numpy as np
import pytest

from repro import blaslib
from repro.blaslib import use_backend


@pytest.fixture
def mats(rng):
    a = rng.standard_normal((4, 3)).astype(np.float32)
    b = rng.standard_normal((3, 5)).astype(np.float32)
    c = rng.standard_normal((4, 5)).astype(np.float32)
    return a, b, c


class TestGemm:
    def test_plain(self, mats):
        a, b, c = mats
        expected = a @ b
        blaslib.gemm(False, False, 1.0, a, b, 0.0, c)
        assert np.allclose(c, expected, atol=1e-5)

    def test_alpha_beta(self, mats):
        a, b, c = mats
        expected = 2.0 * (a @ b) + 0.5 * c
        blaslib.gemm(False, False, 2.0, a, b, 0.5, c)
        assert np.allclose(c, expected, atol=1e-5)

    def test_trans_a(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 5)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        blaslib.gemm(True, False, 1.0, a, b, 0.0, c)
        assert np.allclose(c, a.T @ b, atol=1e-5)

    def test_trans_b(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        blaslib.gemm(False, True, 1.0, a, b, 0.0, c)
        assert np.allclose(c, a @ b.T, atol=1e-5)

    def test_both_trans(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        c = np.zeros((4, 5), dtype=np.float32)
        blaslib.gemm(True, True, 1.0, a, b, 0.0, c)
        assert np.allclose(c, a.T @ b.T, atol=1e-5)

    def test_inner_mismatch(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        with pytest.raises(ValueError, match="inner dimension"):
            blaslib.gemm(False, False, 1.0, a, b, 0.0,
                         np.zeros((4, 5), np.float32))

    def test_output_shape_mismatch(self, mats):
        a, b, _ = mats
        with pytest.raises(ValueError, match="C has shape"):
            blaslib.gemm(False, False, 1.0, a, b, 0.0,
                         np.zeros((2, 2), np.float32))

    def test_reference_backend(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 2)).astype(np.float32)
        c1 = np.zeros((2, 2), dtype=np.float32)
        c2 = np.zeros((2, 2), dtype=np.float32)
        blaslib.gemm(False, False, 1.0, a, b, 0.0, c1)
        with use_backend("reference"):
            blaslib.gemm(False, False, 1.0, a, b, 0.0, c2)
        assert np.allclose(c1, c2, atol=1e-5)


class TestGemmUnitScalars:
    """alpha == 1 and beta == 1 skip their passes; the result must be
    bitwise the plain formula's (x * 1.0 == x)."""

    def test_beta_one_accumulates_bitwise(self, mats):
        a, b, c = mats
        expected = c + a @ b
        blaslib.gemm(False, False, 1.0, a, b, 1.0, c)
        assert c.tobytes() == expected.tobytes()

    def test_alpha_and_beta_scale(self, mats):
        a, b, c = mats
        expected = 0.5 * c + 2.0 * (a @ b)
        blaslib.gemm(False, False, 2.0, a, b, 0.5, c)
        assert c.tobytes() == expected.tobytes()

    def test_gemv_beta_one_accumulates_bitwise(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        x = rng.standard_normal(3).astype(np.float32)
        y = rng.standard_normal(4).astype(np.float32)
        expected = y + a @ x
        blaslib.gemv(False, 1.0, a, x, 1.0, y)
        assert y.tobytes() == expected.tobytes()


class TestGemmBatched:
    def test_items_bitwise_equal_gemm(self, rng):
        a = rng.standard_normal((3, 4, 6)).astype(np.float32)
        b = rng.standard_normal((3, 6, 5)).astype(np.float32)
        c = np.empty((3, 4, 5), dtype=np.float32)
        blaslib.gemm_batched(False, False, 1.0, a, b, 0.0, c)
        for i in range(3):
            ref = np.empty((4, 5), dtype=np.float32)
            blaslib.gemm(False, False, 1.0, a[i], b[i], 0.0, ref)
            assert c[i].tobytes() == ref.tobytes()

    def test_shared_operand_and_transposes(self, rng):
        a = rng.standard_normal((6, 4)).astype(np.float32)   # op(A) = A.T
        b = rng.standard_normal((3, 5, 6)).astype(np.float32)  # op(B)=B^T
        c = rng.standard_normal((3, 4, 5)).astype(np.float32)
        expected = c.copy()
        for i in range(3):
            blaslib.gemm(True, True, 0.5, a, b[i], 2.0, expected[i])
        blaslib.gemm_batched(True, True, 0.5, a, b, 2.0, c)
        assert c.tobytes() == expected.tobytes()

    def test_column_items_equal_gemv(self, rng):
        """One-column items are the stacked form of per-row gemv, the
        InnerProduct layer's use."""
        w = rng.standard_normal((5, 7)).astype(np.float32)
        x = rng.standard_normal((4, 7)).astype(np.float32)
        y = np.empty((4, 5), dtype=np.float32)
        blaslib.gemm_batched(False, False, 1.0, w, x[:, :, None], 0.0,
                             y[:, :, None])
        for s in range(4):
            ref = np.empty(5, dtype=np.float32)
            blaslib.gemv(False, 1.0, w, x[s], 0.0, ref)
            assert y[s].tobytes() == ref.tobytes()

    def test_reference_backend(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        c1 = rng.standard_normal((2, 3, 2)).astype(np.float32)
        c2 = c1.copy()
        blaslib.gemm_batched(False, False, 1.5, a, b, 0.5, c1)
        with use_backend("reference"):
            blaslib.gemm_batched(False, False, 1.5, a, b, 0.5, c2)
        assert np.allclose(c1, c2, atol=1e-5)

    def test_one_call_with_summed_flops(self, rng):
        a = rng.standard_normal((3, 4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 5)).astype(np.float32)
        c = np.empty((3, 4, 5), dtype=np.float32)
        with blaslib.op_counter() as counter:
            blaslib.gemm_batched(False, False, 1.0, a, b, 0.0, c)
        assert counter.calls == {"gemm": 1}
        assert counter.flops["gemm"] == 3 * 2 * 4 * 5 * 6

    def test_shape_errors(self, rng):
        a = rng.standard_normal((3, 4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 5)).astype(np.float32)
        with pytest.raises(ValueError, match="3-D C"):
            blaslib.gemm_batched(False, False, 1.0, a, b, 0.0,
                                 np.empty((4, 5), np.float32))
        with pytest.raises(ValueError, match="stacks"):
            blaslib.gemm_batched(False, False, 1.0, a, b, 0.0,
                                 np.empty((2, 4, 5), np.float32))
        with pytest.raises(ValueError, match="inner dimension"):
            blaslib.gemm_batched(False, True, 1.0, a, b, 0.0,
                                 np.empty((3, 4, 6), np.float32))
        with pytest.raises(ValueError, match="C items"):
            blaslib.gemm_batched(False, False, 1.0, a, b, 0.0,
                                 np.empty((3, 4, 4), np.float32))


class TestGemv:
    def test_plain(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        x = rng.standard_normal(3).astype(np.float32)
        y = np.zeros(4, dtype=np.float32)
        blaslib.gemv(False, 1.0, a, x, 0.0, y)
        assert np.allclose(y, a @ x, atol=1e-5)

    def test_trans(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        x = rng.standard_normal(4).astype(np.float32)
        y = np.zeros(3, dtype=np.float32)
        blaslib.gemv(True, 1.0, a, x, 0.0, y)
        assert np.allclose(y, a.T @ x, atol=1e-5)

    def test_beta_accumulate(self, rng):
        a = rng.standard_normal((2, 2)).astype(np.float32)
        x = rng.standard_normal(2).astype(np.float32)
        y = np.ones(2, dtype=np.float32)
        expected = 0.5 * (a @ x) + 2.0 * y
        blaslib.gemv(False, 0.5, a, x, 2.0, y)
        assert np.allclose(y, expected, atol=1e-5)

    def test_shape_errors(self, rng):
        a = rng.standard_normal((4, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="x has shape"):
            blaslib.gemv(False, 1.0, a, np.zeros(4, np.float32),
                         0.0, np.zeros(4, np.float32))
        with pytest.raises(ValueError, match="y has shape"):
            blaslib.gemv(False, 1.0, a, np.zeros(3, np.float32),
                         0.0, np.zeros(3, np.float32))

    def test_reference_backend(self, rng):
        a = rng.standard_normal((3, 2)).astype(np.float32)
        x = rng.standard_normal(2).astype(np.float32)
        y1 = np.zeros(3, dtype=np.float32)
        y2 = np.zeros(3, dtype=np.float32)
        blaslib.gemv(False, 1.0, a, x, 0.0, y1)
        with use_backend("reference"):
            blaslib.gemv(False, 1.0, a, x, 0.0, y2)
        assert np.allclose(y1, y2, atol=1e-5)


class TestGer:
    def test_rank1_update(self, rng):
        x = rng.standard_normal(3).astype(np.float32)
        y = rng.standard_normal(4).astype(np.float32)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        expected = a + 2.0 * np.outer(x, y)
        blaslib.ger(2.0, x, y, a)
        assert np.allclose(a, expected, atol=1e-5)

    def test_reference(self, rng):
        x = rng.standard_normal(2).astype(np.float32)
        y = rng.standard_normal(2).astype(np.float32)
        a1 = np.zeros((2, 2), dtype=np.float32)
        a2 = np.zeros((2, 2), dtype=np.float32)
        blaslib.ger(1.0, x, y, a1)
        with use_backend("reference"):
            blaslib.ger(1.0, x, y, a2)
        assert np.allclose(a1, a2, atol=1e-5)
