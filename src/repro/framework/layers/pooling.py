"""Pooling layer (MAX and AVE), the paper's dimensionality-reduction layer.

The coalesced iteration space is ``S * C``: one iteration reduces one
``(H, W)`` plane of one sample — the Figure 2 scheme where a group of
input segments produces one output segment.  Because the blob layout is
``(N, C, H, W)`` C-contiguous, the planes of a chunk ``[lo, hi)`` are a
contiguous slab of memory.

A chunk runs as *tap passes* over cache-sized plane blocks.  A block's
padded planes are first split by stride phase: phase ``(a, b)`` holds
the padded cells ``(a + i*stride_h, b + j*stride_w)``, and every phase
plane of every block plane sits at the same pitch in one flat buffer.
Kernel offset ``(dy, dx)`` of output ``(oy, ox)`` is then phase cell
``(oy + dy // stride_h, ox + dx // stride_w)``, so one kernel offset
over the whole block is one contiguous 1-D range at a fixed offset, and
each tap is one unit-stride ufunc over the block.  The pitch columns
past ``out_w`` (and rows past ``out_h``) are junk that is dropped at
the end.

Semantics follow Caffe exactly:

* *ceil* output sizing, so the last window may overhang the padded image;
* MAX scans each window in row-major order; a cell wins if it is
  strictly greater than the running maximum, or if it is the window's
  first NaN.  Padding and overhang cells never win: a window whose
  in-image cells are all ``-inf`` reports its first in-image cell.  Each
  output carries the exact bits of its winning cell, and ``_max_idx``
  records the winner's plane-local index for the backward routing;
* AVE sums each window row left to right from ``+0``, adds the rows top
  to bottom, and divides by the window area clipped to the *padded*
  image bounds (``height + pad``), which reduces to the true clipped
  area when ``pad == 0``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import (
    FootprintDecl,
    Layer,
    PerfDecl,
    register_layer,
)
from repro.framework.layers.conv import _pair
from repro.framework.shape_inference import (
    NOTE_SKIPPED_PIXELS,
    BlobInfo,
    RuleResult,
    ShapeError,
    register_shape_rule,
    require_axes,
)

#: Scratch budget of one plane block (its stride-phase planes plus the
#: running max or sum and the bookkeeping bytes): about one core's L2,
#: so a block's tap passes stay in cache while each pass is still long
#: enough that two threads calling ufuncs do not spend it handing the
#: GIL back and forth.  The block size follows from the geometry only.
BLOCK_BUDGET_BYTES = 1 << 21

#: Tap passes run over whole multiples of this many floats.  numpy's
#: SIMD loops end a ragged length with a scalar tail, and when both
#: operands of an add are NaN the tail returns the other one's payload;
#: whole vectors keep every output's NaN independent of where its plane
#: sits in the pass, that is, of the chunking.
LANES = 64


def pool_out_size(in_size: int, kernel: int, pad: int, stride: int) -> int:
    """Pooled output extent with Caffe's ceil semantics."""
    out = int(math.ceil((in_size + 2 * pad - kernel) / stride)) + 1
    # The last window must start strictly inside the (padded) image;
    # kernel < stride geometries can otherwise produce an empty window.
    if (out - 1) * stride >= in_size + pad:
        out -= 1
    return out


def _phase_span(phase: int, stride: int, pad: int, size: int):
    """(phase-plane slice, input slice) of the in-image cells of one
    stride phase along one axis."""
    first = max(0, -(-(pad - phase) // stride))
    start = phase + first * stride - pad
    count = len(range(start, size, stride))
    return slice(first, first + count), slice(start, size, stride)


@register_layer("Pooling")
class PoolingLayer(Layer):
    """Max / average pooling.

    Parameters (``pooling_param``): ``pool`` (``MAX`` default, or ``AVE``),
    ``kernel_size`` or ``kernel_h``/``kernel_w``, ``stride`` (default 1),
    ``pad`` (default 0).
    """

    exact_num_bottom = 1
    exact_num_top = 1

    write_footprint = FootprintDecl(scratch=("_max_idx",))

    perf_decl = PerfDecl(
        loops=("forward_chunk", "backward_chunk"),
        note=(
            "one set of kernel-tap passes per cache-sized plane block "
            "(BLOCK_BUDGET_BYTES) is the chunking design; every block "
            "buffer comes from the scratch pool"
        ),
    )

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        method = str(spec.param("pool", "MAX")).upper()
        if method not in ("MAX", "AVE"):
            raise ValueError(
                f"layer {self.name!r}: unsupported pool method {method!r}"
            )
        self.method = method
        self.kernel_h, self.kernel_w = _pair(spec, "kernel")
        self.stride_h, self.stride_w = _pair(spec, "stride", default=1)
        self.pad_h, self.pad_w = _pair(spec, "pad", default=0)
        if self.pad_h >= self.kernel_h or self.pad_w >= self.kernel_w:
            raise ValueError(
                f"layer {self.name!r}: pad must be smaller than the kernel"
            )

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        n, c, h, w = bottom[0].shape
        kh, kw = self.kernel_h, self.kernel_w
        sh, sw = self.stride_h, self.stride_w
        self.in_h, self.in_w = h, w
        self.out_h = pool_out_size(h, kh, self.pad_h, sh)
        self.out_w = pool_out_size(w, kw, self.pad_w, sw)
        top[0].reshape((n, c, self.out_h, self.out_w))
        # Phase-plane extents: every tap read of every output, and every
        # in-image cell (so the backward copy-out covers the whole plane).
        rows = max(self.out_h + (kh - 1) // sh, -(-(self.pad_h + h) // sh))
        cols = max(self.out_w + (kw - 1) // sw, -(-(self.pad_w + w) // sw))
        self._phase_shape = (rows, cols)
        self._plane = plane = rows * cols
        # Tap t = dy * kw + dx reads phase (dy % sh, dx % sw) at a fixed
        # flat offset; the slack past the last plane keeps every read of
        # the last plane's junk columns inside the buffer.
        self._taps = [((dy % sh) * sw + dx % sw,
                       (dy // sh) * cols + dx // sw)
                      for dy in range(kh) for dx in range(kw)]
        self._slack = max(off for _, off in self._taps)
        cell_bytes = (sh * sw + 2) * np.dtype(DTYPE).itemsize
        self._block = max(1, BLOCK_BUDGET_BYTES // (cell_bytes * plane))
        self._phase_copies = [
            (a * sw + b, _phase_span(a, sh, self.pad_h, h),
             _phase_span(b, sw, self.pad_w, w))
            for a in range(sh) for b in range(sw)
        ]
        oy = np.arange(self.out_h)[:, None]
        ox = np.arange(self.out_w)[None, :]
        if self.method == "MAX":
            # Plane-local flat index (ih * in_w + iw) of each window max.
            self._max_idx = np.zeros(
                (n * c, self.out_h, self.out_w), dtype=np.int32
            )
            dy, dx = np.divmod(np.arange(kh * kw), kw)
            self._tap_dtype = np.min_scalar_type(kh * kw - 1)
            self._tap_ids = np.arange(kh * kw, dtype=self._tap_dtype)
            self._tap_offset = (dy * w + dx).astype(np.int32)
            self._idx_base = ((oy * sh - self.pad_h) * w
                              + ox * sw - self.pad_w).astype(np.int32)
            self._tap_table = np.array(self._taps, dtype=np.intp)
            # Each window's first in-image tap: the winner until a cell
            # beats it, so padding never wins.
            first = np.zeros(self._phase_shape, dtype=self._tap_dtype)
            first[: self.out_h, : self.out_w] = (
                np.maximum(0, self.pad_h - oy * sh) * kw
                + np.maximum(0, self.pad_w - ox * sw)
            )
            self._first_tap = first
            # Flat offset of each plane within a chunk's slab, so one
            # scatter-add can serve the whole chunk.
            self._plane_offsets = (np.arange(n * c, dtype=np.int64)
                                   * (h * w))[:, None, None]
        else:
            self._ave_divisor = self._divisor_grid()

    def _divisor_grid(self) -> np.ndarray:
        """Caffe's AVE divisor: window area clipped to the padded image."""
        oh = np.arange(self.out_h)
        ow = np.arange(self.out_w)
        h0 = oh * self.stride_h - self.pad_h
        w0 = ow * self.stride_w - self.pad_w
        h1 = np.minimum(h0 + self.kernel_h, self.in_h + self.pad_h)
        w1 = np.minimum(w0 + self.kernel_w, self.in_w + self.pad_w)
        heights = (h1 - h0).astype(DTYPE)
        widths = (w1 - w0).astype(DTYPE)
        return heights[:, None] * widths[None, :]

    # ------------------------------------------------------------------
    # chunk protocol: one iteration == one (sample, channel) plane
    # ------------------------------------------------------------------
    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        n, c = bottom[0].shape[0], bottom[0].shape[1]
        return n * c

    def _span(self, count: int) -> int:
        """Tap-pass length of ``count`` planes, in whole :data:`LANES`."""
        return -(-count * self._plane // LANES) * LANES

    def _planes(self, flat: np.ndarray, count: int) -> np.ndarray:
        """The ``(count, rows, cols)`` pitch-layout planes of a pass."""
        return flat[: count * self._plane].reshape(count, *self._phase_shape)

    def _valid(self, flat: np.ndarray, count: int) -> np.ndarray:
        """The ``(count, out_h, out_w)`` outputs of a pass."""
        return self._planes(flat, count)[:, : self.out_h, : self.out_w]

    def _block_scratch(self, tag: str, count: int, dtype=DTYPE) -> np.ndarray:
        """A pass-length prefix of a block-sized scratch buffer."""
        buf = scratch_buffer(tag, (self._span(self._block),), dtype)
        return buf[: self._span(count)]

    def _phase_buffer(self, count: int) -> np.ndarray:
        """The ``(phases, span + slack)`` stride-phase buffer."""
        phases = scratch_buffer(
            "pool.phase", (self.stride_h * self.stride_w,
                           self._span(self._block) + self._slack), DTYPE,
        )
        return phases[:, : self._span(count) + self._slack]

    def _split(self, planes: np.ndarray, fill: float) -> np.ndarray:
        """Copy a block of planes into its stride phases; padding,
        overhang and junk cells hold ``fill``."""
        count = planes.shape[0]
        phases = self._phase_buffer(count)
        phases.fill(fill)
        for p, (rows, src_rows), (cols, src_cols) in self._phase_copies:
            dst = self._planes(phases[p], count)
            dst[:, rows, cols] = planes[:, src_rows, src_cols]
        return phases

    def _max_scan(self, phases, count, best, tap, hit, mask,
                  nan_aware) -> None:
        """Winner tap per output.  ``best`` is the running maximum for the
        comparisons only (np.maximum may return either zero on a +0/-0
        tie); ``nan_aware`` adds the first-NaN rule.  Every window starts
        at its first in-image tap with the value of tap 0, which is that
        cell or a -inf padding cell, so padding never wins."""
        size = best.shape[0]
        p, off = self._taps[0]
        np.copyto(best, phases[p, off : off + size])
        self._planes(tap, count)[:] = self._first_tap
        for t in range(1, len(self._taps)):
            p, off = self._taps[t]
            cells = phases[p, off : off + size]
            np.greater(cells, best, out=mask)
            if nan_aware:
                mask |= np.isnan(cells) & ~np.isnan(best)
            np.maximum(best, cells, out=best)
            # Taps run in increasing order and a padding tap never wins,
            # so "max" with the masked tap id is a select.
            np.multiply(mask, self._tap_ids[t], out=hit)
            np.maximum(tap, hit, out=tap)

    def _max_block(self, planes, out, idx) -> None:
        count = planes.shape[0]
        phases = self._split(planes, -np.inf)
        best = self._block_scratch("pool.best", count)
        tap = self._block_scratch("pool.tap", count, self._tap_dtype)
        hit = self._block_scratch("pool.hit", count, self._tap_dtype)
        mask = self._block_scratch("pool.mask", count, np.bool_)
        self._max_scan(phases, count, best, tap, hit, mask, nan_aware=False)
        np.copyto(out, self._valid(best, count))
        # A nonzero, non-NaN maximum has one bit pattern; a zero or NaN
        # one takes the winning cell's exact bits.
        magnitude = self._valid(best, count)
        np.absolute(out, out=magnitude)
        if not magnitude.min() > 0.0:
            b, i, j = np.nonzero(~(magnitude > 0.0))
            if np.isnan(out).any():
                self._max_scan(phases, count, best, tap, hit, mask,
                               nan_aware=True)
            k = (b * self._phase_shape[0] + i) * self._phase_shape[1] + j
            p, off = self._tap_table[tap[k]].T
            out[b, i, j] = phases[p, off + k]
        np.take(self._tap_offset, self._valid(tap, count), out=idx,
                mode="clip")
        idx += self._idx_base

    def _ave_block(self, planes, out) -> None:
        count = planes.shape[0]
        phases = self._split(planes, 0.0)
        total = self._block_scratch("pool.sum", count)
        row = self._block_scratch("pool.row", count)
        size = total.shape[0]
        # Caffe's order: each row left to right from +0, rows top to
        # bottom.  Later rows start from their first cell instead; that
        # differs only in the sign of an all -0 row, which adding it to
        # the running total (never -0, as it starts from +0) erases.
        total.fill(0.0)
        for dy in range(self.kernel_h):
            acc = total if dy == 0 else row
            for dx in range(self.kernel_w):
                p, off = self._taps[dy * self.kernel_w + dx]
                cells = phases[p, off : off + size]
                if dy and not dx:
                    np.copyto(row, cells)
                else:
                    np.add(acc, cells, out=acc)
            if dy:
                np.add(total, row, out=total)
        np.divide(self._valid(total, count), self._ave_divisor[None], out=out)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        planes = bottom[0].data.reshape(-1, self.in_h, self.in_w)
        out = top[0].data.reshape(-1, self.out_h, self.out_w)
        for b0 in range(lo, hi, self._block):
            b1 = min(b0 + self._block, hi)
            if self.method == "MAX":
                self._max_block(planes[b0:b1], out[b0:b1],
                                self._max_idx[b0:b1])
            else:
                self._ave_block(planes[b0:b1], out[b0:b1])
        top[0].mark_host_data_dirty()

    def _ave_backward_block(self, dout, dplanes) -> None:
        count = dout.shape[0]
        contrib = self._block_scratch("pool.sum", count)
        contrib.fill(0.0)  # junk cells must add exactly +0
        np.divide(dout, self._ave_divisor[None],
                  out=self._valid(contrib, count))
        phases = self._phase_buffer(count)
        phases.fill(0.0)
        size = contrib.shape[0]
        # Taps in row-major order, as the per-window scatter adds them.
        for p, off in self._taps:
            np.add(phases[p, off : off + size], contrib,
                   out=phases[p, off : off + size])
        for p, (rows, src_rows), (cols, src_cols) in self._phase_copies:
            src = self._planes(phases[p], count)
            dplanes[:, src_rows, src_cols] = src[:, rows, cols]

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        dplanes = bottom[0].diff.reshape(-1, self.in_h, self.in_w)
        dout = top[0].diff.reshape(-1, self.out_h, self.out_w)
        count = hi - lo
        if count <= 0:
            return
        if self.method == "MAX":
            # One scatter-add over the chunk's slab.  Window maxima can
            # coincide across overlapping windows, so accumulation is
            # required; the plane offsets keep planes apart, and np.add.at
            # applies indices in order, so every cell sums its
            # contributions in the same order as a per-plane scatter.
            dplanes[lo:hi].fill(0.0)
            idx = scratch_buffer(
                "pool.idx", (count, self.out_h, self.out_w), np.int64
            )
            np.add(self._max_idx[lo:hi], self._plane_offsets[:count],
                   out=idx)
            np.add.at(dplanes[lo:hi].reshape(-1), idx.reshape(-1),
                      dout[lo:hi].reshape(-1))
        else:
            for b0 in range(lo, hi, self._block):
                b1 = min(b0 + self._block, hi)
                self._ave_backward_block(dout[b0:b1], dplanes[b0:b1])
        bottom[0].mark_host_diff_dirty()


@register_shape_rule("Pooling")
def _pool_shape_rule(spec, bottoms) -> RuleResult:
    """Symbolic mirror of :meth:`PoolingLayer.reshape` (ceil semantics)."""
    require_axes(spec, bottoms[0], 4)
    n, c, h, w = bottoms[0].shape
    method = str(spec.param("pool", "MAX")).upper()
    if method not in ("MAX", "AVE"):
        raise ShapeError(
            f"layer {spec.name!r}: unsupported pool method {method!r}"
        )
    kernel_h, kernel_w = _pair(spec, "kernel")
    stride_h, stride_w = _pair(spec, "stride", default=1)
    pad_h, pad_w = _pair(spec, "pad", default=0)
    if pad_h >= kernel_h or pad_w >= kernel_w:
        raise ShapeError(
            f"layer {spec.name!r}: pad ({pad_h}, {pad_w}) must be smaller "
            f"than the kernel ({kernel_h}, {kernel_w})"
        )
    out_h = pool_out_size(h, kernel_h, pad_h, stride_h)
    out_w = pool_out_size(w, kernel_w, pad_w, stride_w)
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"layer {spec.name!r}: window does not fit "
            f"(in=({h}, {w}) kernel=({kernel_h}, {kernel_w}))"
        )
    notes = []
    for label, kernel, stride in (
        ("height", kernel_h, stride_h),
        ("width", kernel_w, stride_w),
    ):
        if stride > kernel:
            notes.append((
                NOTE_SKIPPED_PIXELS,
                f"layer {spec.name!r}: stride {stride} exceeds the kernel "
                f"{kernel} along {label}, so {stride - kernel} input "
                f"row(s)/col(s) between windows are never pooled",
            ))
    return RuleResult(
        tops=[BlobInfo((n, c, out_h, out_w))],
        forward_space=n * c,
        notes=notes,
    )
