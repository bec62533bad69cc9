"""Level-3 BLAS kernels: general matrix-matrix product, single and stacked.

This is the workhorse behind Caffe's convolutional and inner-product
layers (``caffe_cpu_gemm``).  The coarse-grain parallelization treats a
``gemm`` call as an indivisible unit of work, which is why the simulator
tracks its flop count separately: convolutional layer time is dominated by
these calls.

:func:`gemm_batched` runs one product per item of a stack in a single
call.  Each item is the same-shaped 2-D product a :func:`gemm` (or, for a
one-column right operand, :func:`~repro.blaslib.gemv`) call would run, so
the per-item values are bitwise those of the unbatched calls; the batch
only removes the per-item interpreter overhead.
"""

from __future__ import annotations

import numpy as np

from repro.blaslib.dispatch import backend_name, record_op


def gemm(
    trans_a: bool,
    trans_b: bool,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
) -> np.ndarray:
    """``C = alpha * op(A) @ op(B) + beta * C`` in place; returns ``C``.

    ``op(X)`` is ``X.T`` when the corresponding ``trans_*`` flag is set.
    Shapes are validated against the output ``C`` of shape ``(m, n)``.
    """
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ValueError(
            "gemm expects 2-D operands, got shapes "
            f"{a.shape}, {b.shape}, {c.shape}"
        )
    op_a = a.T if trans_a else a
    op_b = b.T if trans_b else b
    m, k = op_a.shape
    k2, n = op_b.shape
    if k != k2:
        raise ValueError(
            f"gemm inner dimension mismatch: op(A) is {op_a.shape}, "
            f"op(B) is {op_b.shape}"
        )
    if c.shape != (m, n):
        raise ValueError(f"gemm C has shape {c.shape}, expected ({m}, {n})")

    record_op("gemm", 2 * m * n * k, a.nbytes + b.nbytes + 2 * c.nbytes)
    if backend_name() == "reference":
        _gemm_reference(op_a, op_b, alpha, beta, c)
    else:
        _gemm_numpy(op_a, op_b, alpha, beta, c)
    return c


def gemm_batched(
    trans_a: bool,
    trans_b: bool,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
) -> np.ndarray:
    """``C[i] = alpha * op(A[i]) @ op(B[i]) + beta * C[i]`` for every item
    of the stack ``C`` of shape ``(count, m, n)``, in place; returns ``C``.

    ``A`` and ``B`` are either stacks of ``count`` matrices or a single
    2-D matrix shared by every item; ``op`` transposes the last two axes.
    Accounted as one call whose flops are the sum over the items.
    """
    if c.ndim != 3 or a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ValueError(
            "gemm_batched expects a 3-D C and 2-D or 3-D A/B, got shapes "
            f"{a.shape}, {b.shape}, {c.shape}"
        )
    count = c.shape[0]
    for label, x in (("A", a), ("B", b)):
        if x.ndim == 3 and x.shape[0] != count:
            raise ValueError(
                f"gemm_batched {label} stacks {x.shape[0]} items, C stacks "
                f"{count}"
            )
    op_a = np.swapaxes(a, -1, -2) if trans_a else a
    op_b = np.swapaxes(b, -1, -2) if trans_b else b
    m, k = op_a.shape[-2:]
    k2, n = op_b.shape[-2:]
    if k != k2:
        raise ValueError(
            f"gemm_batched inner dimension mismatch: op(A) items are "
            f"{op_a.shape[-2:]}, op(B) items are {op_b.shape[-2:]}"
        )
    if c.shape[1:] != (m, n):
        raise ValueError(
            f"gemm_batched C items have shape {c.shape[1:]}, expected "
            f"({m}, {n})"
        )

    record_op("gemm", 2 * count * m * n * k,
              a.nbytes + b.nbytes + 2 * c.nbytes)
    if backend_name() == "reference":
        for i in range(count):
            _gemm_reference(op_a[i] if op_a.ndim == 3 else op_a,
                            op_b[i] if op_b.ndim == 3 else op_b,
                            alpha, beta, c[i])
    else:
        _gemm_numpy(op_a, op_b, alpha, beta, c)
    return c


def _gemm_numpy(op_a: np.ndarray, op_b: np.ndarray, alpha: float,
                beta: float, c: np.ndarray) -> None:
    # alpha == 1 and beta == 1 skip their passes: x * 1.0 == x bitwise.
    if beta == 0.0 and alpha == 1.0 and c.flags["C_CONTIGUOUS"]:
        np.matmul(op_a, op_b, out=c)
        return
    product = op_a @ op_b
    if alpha != 1.0:
        product *= alpha
    if beta == 0.0:
        np.copyto(c, product)
        return
    if beta != 1.0:
        c *= beta
    c += product


def _gemm_reference(op_a: np.ndarray, op_b: np.ndarray, alpha: float,
                    beta: float, c: np.ndarray) -> None:
    m, k = op_a.shape
    n = op_b.shape[1]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(op_a[i, p]) * float(op_b[p, j])
            c[i, j] = alpha * acc + beta * c[i, j]
