"""Test utilities for downstream layer/net development.

Exposed as library API (like Caffe's ``test/test_gradient_check_util``)
so users writing new layers can build blobs and specs tersely and reuse
the gradient checker.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.gradient_check import check_gradient  # noqa: F401
from repro.framework.net_spec import LayerSpec

__all__ = ["Blob", "check_gradient", "make_blob", "reference_pool", "spec"]


def make_blob(
    shape: Sequence[int],
    values=None,
    name: str = "b",
    rng: Optional[np.random.Generator] = None,
) -> Blob:
    """A blob with the given data (default: seeded standard-normal)."""
    blob = Blob(shape, name=name)
    if values is None:
        rng = rng or np.random.default_rng(0)
        values = rng.standard_normal(blob.count)
    blob.set_data(np.asarray(values, dtype=np.float32).ravel())
    return blob


def spec(name: str, type_: str, **params) -> LayerSpec:
    """Shorthand :class:`LayerSpec` builder."""
    return LayerSpec(name=name, type=type_, bottoms=[], tops=[], params=params)


def _pair(value) -> tuple[int, int]:
    return (value, value) if np.isscalar(value) else tuple(value)


def reference_pool(x, method: str, kernel, stride=1, pad=0, top_diff=None):
    """Loop-by-loop Caffe pooling: a bitwise oracle for a pooling kernel.

    ``kernel``/``stride``/``pad`` are ints or ``(h, w)`` pairs.  Returns
    ``(top, max_idx, bottom_diff)``: ``max_idx`` (plane-local flat
    indices) is ``None`` for AVE, ``bottom_diff`` is ``None`` without
    ``top_diff``.  Every sum runs in float32 in a fixed order:

    * MAX scans a window's in-image cells in row-major order; a cell wins
      if it is strictly greater than the running maximum or if it is the
      first NaN, and the output is the winning cell itself (its bits).
      Backward adds each output's gradient to its winner, outputs in
      C order.
    * AVE sums each window row left to right from +0, adds the rows top
      to bottom, and divides by the window area clipped to the padded
      image.  Backward adds each ``top_diff / area`` to its window's
      cells kernel offset by kernel offset (row-major), each offset over
      the outputs in order.
    """
    from repro.framework.layers.pooling import pool_out_size

    (kh, kw), (sh, sw), (ph, pw) = _pair(kernel), _pair(stride), _pair(pad)
    x = np.asarray(x, dtype=np.float32)
    n, c, h, w = x.shape
    oh, ow = pool_out_size(h, kh, ph, sh), pool_out_size(w, kw, pw, sw)
    zero = np.float32(0.0)
    top = np.zeros((n, c, oh, ow), dtype=np.float32)
    idx = np.zeros((n, c, oh, ow), dtype=np.int64)
    area = np.zeros((oh, ow), dtype=np.float32)
    for s, ch, i, j in np.ndindex(n, c, oh, ow):
        h0, w0 = i * sh - ph, j * sw - pw
        rows = range(max(h0, 0), min(h0 + kh, h))
        cols = range(max(w0, 0), min(w0 + kw, w))
        if method == "MAX":
            best = None
            for r in rows:
                for q in cols:
                    v = x[s, ch, r, q]
                    if best is None or (not np.isnan(best)
                                        and (np.isnan(v) or v > best)):
                        best, idx[s, ch, i, j] = v, r * w + q
            top[s, ch, i, j] = best
        else:
            total = zero
            for r in rows:
                row = zero
                for q in cols:
                    row = row + x[s, ch, r, q]
                total = total + row
            area[i, j] = ((min(h0 + kh, h + ph) - h0)
                          * (min(w0 + kw, w + pw) - w0))
            top[s, ch, i, j] = total / area[i, j]
    if top_diff is None:
        bottom_diff = None
    elif method == "MAX":
        bottom_diff = np.zeros_like(x)
        for s, ch, i, j in np.ndindex(n, c, oh, ow):
            r, q = divmod(int(idx[s, ch, i, j]), w)
            bottom_diff[s, ch, r, q] += top_diff[s, ch, i, j]
    else:
        contrib = (np.asarray(top_diff, dtype=np.float32) / area)
        padded = np.zeros((n, c, (oh - 1) * sh + kh + ph + h,
                           (ow - 1) * sw + kw + pw + w), dtype=np.float32)
        for dy, dx in np.ndindex(kh, kw):
            for s, ch, i, j in np.ndindex(n, c, oh, ow):
                padded[s, ch, i * sh + dy, j * sw + dx] += contrib[s, ch, i, j]
        bottom_diff = padded[:, :, ph : ph + h, pw : pw + w].copy()
    return top, (idx if method == "MAX" else None), bottom_diff
