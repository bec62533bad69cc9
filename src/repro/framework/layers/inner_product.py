"""Inner product (fully connected) layer.

Treats the bottom blob as a matrix ``(S, inner)`` — all axes after the
batch axis are flattened — and computes ``Y = X @ W.T + b``.  The
coalesced iteration space is ``S``: one iteration is one sample's
``gemv``-sized product.  A chunk ``[lo, hi)`` runs its samples as one
stacked product (:func:`repro.blaslib.gemm_batched`): a single call, but
still one fixed-shape ``gemv`` per sample, so each sample's value is
bitwise independent of how samples are chunked across threads — a
chunk-wide 2-D gemm would let BLAS re-block the sum per chunk shape.
The backward pass is two reduction-free loops: the bottom-diff rows over
samples, and the weight/bias rows over outputs, where each row is one
full-batch ``gemv`` in one stacked call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import blaslib
from repro.compiler.scratch import scratch_buffer
from repro.framework.blob import DTYPE, Blob
from repro.framework.fillers import fill, stable_seed
from repro.framework.layer import (
    FootprintDecl,
    Layer,
    RNGDecl,
    register_layer,
)
from repro.framework.layers.conv import _filler_spec
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    canonical_axis,
    register_shape_rule,
)


@register_layer("InnerProduct")
class InnerProductLayer(Layer):
    """Fully connected layer.

    Parameters (``inner_product_param``): ``num_output``, ``bias_term``
    (default true), ``axis`` (default 1), ``weight_filler``,
    ``bias_filler``.
    """

    exact_num_bottom = 1
    exact_num_top = 1

    # backward_loops() decomposes into reduction-free loops (bottom-grad
    # rows over samples, weight-grad rows over outputs), so the executed
    # footprint is sample-disjoint.
    write_footprint = FootprintDecl()

    rng_provenance = RNGDecl(seed_params=("filler_seed",),
                             fallback="stable_digest")

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        spec = self.spec
        self.num_output = int(spec.require("num_output"))
        self.bias_term = bool(spec.param("bias_term", True))
        self.axis = bottom[0].canonical_axis(int(spec.param("axis", 1)))
        inner = 1
        for dim in bottom[0].shape[self.axis:]:
            inner *= dim
        self.inner = inner

        rng = np.random.default_rng(
            int(spec.param("filler_seed", 0)) or stable_seed(self.name)
        )
        weights = Blob((self.num_output, inner), name=f"{self.name}.weights")
        fill(weights, _filler_spec(spec.param("weight_filler")), rng)
        self.blobs = [weights]
        if self.bias_term:
            bias = Blob((self.num_output,), name=f"{self.name}.bias")
            fill(bias, _filler_spec(spec.param("bias_filler")), rng)
            self.blobs.append(bias)

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        inner = 1
        for dim in bottom[0].shape[self.axis:]:
            inner *= dim
        if inner != self.inner:
            raise ValueError(
                f"layer {self.name!r}: input inner size changed from "
                f"{self.inner} to {inner}"
            )
        self.outer = 1
        for dim in bottom[0].shape[: self.axis]:
            self.outer *= dim
        top[0].reshape(tuple(bottom[0].shape[: self.axis]) + (self.num_output,))

    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        return self.outer

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        y = top[0].flat_data.reshape(self.outer, self.num_output)
        blaslib.gemm_batched(False, False, 1.0, self.blobs[0].data,
                             x[lo:hi, :, None], 0.0, y[lo:hi, :, None])
        if self.bias_term:
            y[lo:hi] += self.blobs[1].data
        top[0].mark_host_data_dirty()

    def _backward_data_chunk(
        self, top: Sequence[Blob], bottom: Sequence[Blob], lo: int, hi: int
    ) -> None:
        """Bottom-gradient rows for samples ``[lo, hi)`` (disjoint), one
        stacked per-sample ``gemv`` as in :meth:`forward_chunk`."""
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dx = bottom[0].flat_diff.reshape(self.outer, self.inner)
        blaslib.gemm_batched(True, False, 1.0, self.blobs[0].data,
                             dy[lo:hi, :, None], 0.0, dx[lo:hi, :, None])
        bottom[0].mark_host_diff_dirty()

    def _backward_weight_rows(self, top: Sequence[Blob],
                              bottom: Sequence[Blob], lo: int, hi: int) -> None:
        """Weight/bias gradient rows ``[lo, hi)``, each a full-batch sum.

        Each row is its own fixed-shape full-batch ``gemv`` (one item of
        a stacked call), so the value is independent of how rows are
        chunked across threads — this backward loop needs no reduction
        and is bitwise identical for any thread count.
        """
        x = bottom[0].flat_data.reshape(self.outer, self.inner)
        dy = top[0].flat_diff.reshape(self.outer, self.num_output)
        dweights = self.blobs[0].flat_diff.reshape(self.num_output, self.inner)
        dbias = self.blobs[1].flat_diff if self.bias_term else None
        # The rows' dy columns, contiguous: gemv needs contiguous vectors.
        dy_rows = scratch_buffer("ip.dy_rows", (hi - lo, self.outer), DTYPE)
        np.copyto(dy_rows, dy[:, lo:hi].T)
        blaslib.gemm_batched(True, False, 1.0, x, dy_rows[:, :, None],
                             1.0, dweights[lo:hi, :, None])
        if dbias is not None:
            dbias[lo:hi] += dy_rows.sum(axis=1)
        self.blobs[0].mark_host_diff_dirty()
        if dbias is not None:
            self.blobs[1].mark_host_diff_dirty()

    def backward_loops(self, top, propagate_down, bottom):
        """Two reduction-free loops: bottom grads over sample rows, weight
        grads over output rows (paper layers only privatize where a true
        reduction exists — the convolutional layers)."""
        from repro.framework.layer import LoopSpec

        loops = []
        if propagate_down[0]:
            loops.append(LoopSpec(
                space=self.outer,
                body=lambda lo, hi, grads: self._backward_data_chunk(
                    top, bottom, lo, hi
                ),
            ))
        loops.append(LoopSpec(
            space=self.num_output,
            body=lambda lo, hi, grads: self._backward_weight_rows(
                top, bottom, lo, hi
            ),
        ))
        return loops


@register_shape_rule("InnerProduct")
def _ip_shape_rule(spec, bottoms) -> RuleResult:
    """Symbolic mirror of :meth:`InnerProductLayer.reshape`."""
    num_output = int(spec.require("num_output"))
    axis = canonical_axis(spec, bottoms[0], int(spec.param("axis", 1)))
    shape = bottoms[0].shape
    inner = 1
    for dim in shape[axis:]:
        inner *= dim
    outer = 1
    for dim in shape[:axis]:
        outer *= dim
    param_shapes = [(num_output, inner)]
    if bool(spec.param("bias_term", True)):
        param_shapes.append((num_output,))
    return RuleResult(
        tops=[BlobInfo(tuple(shape[:axis]) + (num_output,))],
        forward_space=outer,
        param_shapes=param_shapes,
    )
