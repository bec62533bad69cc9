"""Convolution lowering: ``im2col`` / ``col2im``.

Caffe implements convolution as ``im2col`` followed by a single ``gemm``
per image; the backward pass uses ``col2im`` to scatter gradients back.

The column buffer layout matches Caffe: shape
``(channels * kernel_h * kernel_w, output_h * output_w)`` with the kernel
offsets varying slowest, so that ``weights @ col`` yields the convolution.

The convolutional layers lower a block of ``n`` images at once:
:func:`im2col_batched` builds one ``(channels * kernel_h * kernel_w,
n * output_h * output_w)`` matrix whose columns are sample-major —
columns ``[i * P, (i + 1) * P)`` are exactly ``im2col(images[i])`` — so
one gemm covers the whole block, and :func:`col2im_batched` folds it
back.  The fold adds every pixel's contributions in kernel-offset order
whatever ``n`` is, so a batched result is bitwise that of ``n``
per-image calls; :func:`im2col` / :func:`col2im` are the one-image case.
"""

from __future__ import annotations

import numpy as np

from repro.blaslib.dispatch import backend_name, record_op


def conv_out_size(in_size: int, kernel: int, pad: int, stride: int) -> int:
    """Spatial output extent of a convolution/pooling window sweep."""
    if kernel <= 0 or stride <= 0:
        raise ValueError(f"kernel ({kernel}) and stride ({stride}) must be positive")
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    out = (in_size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"window does not fit: in={in_size} kernel={kernel} "
            f"pad={pad} stride={stride}"
        )
    return out


def im2col(
    image: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold one image ``(C, H, W)`` into a column matrix.

    Returns an array of shape
    ``(C * kernel_h * kernel_w, out_h * out_w)``; ``out`` may supply a
    preallocated C-contiguous destination of that shape.
    """
    if image.ndim != 3:
        raise ValueError(f"im2col expects (C, H, W), got shape {image.shape}")
    return im2col_batched(image[None], kernel_h, kernel_w, pad_h, pad_w,
                          stride_h, stride_w, out=out)


def _im2col_reference(
    image: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray,
) -> None:
    c, h, w = image.shape
    out_h = conv_out_size(h, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(w, kernel_w, pad_w, stride_w)
    row = 0
    for ch in range(c):
        for kh in range(kernel_h):
            for kw in range(kernel_w):
                col = 0
                for oh in range(out_h):
                    ih = oh * stride_h + kh - pad_h
                    for ow in range(out_w):
                        iw = ow * stride_w + kw - pad_w
                        if 0 <= ih < h and 0 <= iw < w:
                            out[row, col] = image[ch, ih, iw]
                        else:
                            out[row, col] = 0.0
                        col += 1
                row += 1


def col2im(
    col: np.ndarray,
    channels: int,
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fold a column matrix back into an image, summing overlaps.

    The adjoint of :func:`im2col`: entries of ``col`` that originated from
    the same image pixel are accumulated.  Returns an array of shape
    ``(channels, height, width)``.
    """
    if out is not None and out.shape != (channels, height, width):
        raise ValueError(
            f"col2im out has shape {out.shape}, expected "
            f"({channels}, {height}, {width})"
        )
    return col2im_batched(
        col, 1, channels, height, width, kernel_h, kernel_w,
        pad_h, pad_w, stride_h, stride_w,
        out=None if out is None else out[None],
    )[0]


def _col2im_reference(
    col: np.ndarray,
    channels: int,
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray,
) -> None:
    out_h = conv_out_size(height, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(width, kernel_w, pad_w, stride_w)
    row = 0
    for ch in range(channels):
        for kh in range(kernel_h):
            for kw in range(kernel_w):
                col_idx = 0
                for oh in range(out_h):
                    ih = oh * stride_h + kh - pad_h
                    for ow in range(out_w):
                        iw = ow * stride_w + kw - pad_w
                        if 0 <= ih < height and 0 <= iw < width:
                            out[ch, ih, iw] += col[row, col_idx]
                        col_idx += 1
                row += 1


def im2col_batched(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold a block of images ``(n, C, H, W)`` into one column matrix.

    Returns an array of shape ``(C * kernel_h * kernel_w, n * P)`` with
    ``P = out_h * out_w``, whose column block ``i`` is ``im2col(images[i])``;
    ``out`` may supply a preallocated C-contiguous destination.
    """
    if images.ndim != 4:
        raise ValueError(
            f"im2col_batched expects (n, C, H, W), got shape {images.shape}"
        )
    n, c, h, w = images.shape
    out_h = conv_out_size(h, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(w, kernel_w, pad_w, stride_w)
    plane = out_h * out_w
    col_shape = (c * kernel_h * kernel_w, n * plane)
    if out is None:
        out = np.empty(col_shape, dtype=images.dtype)
    elif out.shape != col_shape or not out.flags["C_CONTIGUOUS"]:
        raise ValueError(
            f"im2col out has shape {out.shape}, expected a C-contiguous "
            f"{col_shape} array"
        )

    record_op("im2col", 0, images.nbytes + out.nbytes)
    if backend_name() == "reference":
        for i in range(n):
            _im2col_reference(
                images[i], kernel_h, kernel_w, pad_h, pad_w,
                stride_h, stride_w, out[:, i * plane : (i + 1) * plane],
            )
        return out

    if pad_h or pad_w:
        padded = np.zeros((n, c, h + 2 * pad_h, w + 2 * pad_w),
                          dtype=images.dtype)
        padded[:, :, pad_h : pad_h + h, pad_w : pad_w + w] = images
    else:
        padded = images
    # Strided view: (C, kernel_h, kernel_w, n, out_h, out_w), no copy.
    sn, sc, sh, sw = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, kernel_h, kernel_w, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride_h, sw * stride_w),
        writeable=False,
    )
    np.copyto(out.reshape(view.shape), view)
    return out


def col2im_batched(
    col: np.ndarray,
    count: int,
    channels: int,
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    pad_h: int,
    pad_w: int,
    stride_h: int,
    stride_w: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fold an :func:`im2col_batched` matrix back into ``count`` images,
    summing overlaps.

    The adjoint of :func:`im2col_batched`; returns an array of shape
    ``(count, channels, height, width)`` (``out`` may be a strided view
    of that shape).
    """
    out_h = conv_out_size(height, kernel_h, pad_h, stride_h)
    out_w = conv_out_size(width, kernel_w, pad_w, stride_w)
    expected = (channels * kernel_h * kernel_w, count * out_h * out_w)
    if col.shape != expected:
        raise ValueError(
            f"col2im col has shape {col.shape}, expected {expected}"
        )
    image_shape = (count, channels, height, width)
    if out is None:
        out = np.zeros(image_shape, dtype=col.dtype)
    else:
        if out.shape != image_shape:
            raise ValueError(
                f"col2im out has shape {out.shape}, expected {image_shape}"
            )
        out.fill(0.0)

    record_op("col2im", col.size, col.nbytes + out.nbytes)
    plane = out_h * out_w
    if backend_name() == "reference":
        for i in range(count):
            _col2im_reference(
                col[:, i * plane : (i + 1) * plane], channels, height, width,
                kernel_h, kernel_w, pad_h, pad_w, stride_h, stride_w, out[i],
            )
        return out

    if pad_h or pad_w:
        target = np.zeros(
            (count, channels, height + 2 * pad_h, width + 2 * pad_w),
            dtype=col.dtype,
        )
    else:
        target = out  # already zeroed; accumulate in place
    view = col.reshape(channels, kernel_h, kernel_w, count, out_h, out_w)
    for kh in range(kernel_h):
        h_stop = kh + stride_h * out_h
        for kw in range(kernel_w):
            w_stop = kw + stride_w * out_w
            target[:, :, kh:h_stop:stride_h, kw:w_stop:stride_w] += (
                view[:, kh, kw].transpose(1, 0, 2, 3)
            )
    if target is not out:
        np.copyto(out, target[:, :, pad_h : pad_h + height,
                              pad_w : pad_w + width])
    return out
