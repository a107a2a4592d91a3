"""Conv2D -> GEMM lowering descriptors (Fig. 3 of the paper).

A convolution with kernel ``(KH, KW)`` over ``KI`` input channels and
``KO`` output channels becomes a GEMM against a
``(KW*KH*KI) x KO`` *kernel matrix*; each output feature-map pixel is
one input vector of that GEMM.  This module computes the lowering
geometry for any base layer — the numeric im2col transform itself lives
in :func:`repro.ir.executor.im2col_patches`, which the executor tests
validate against direct convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.graph import Graph
from ..ir.ops import Conv2D, Dense
from ..ir.tensor import Shape


@dataclass(frozen=True)
class GemmLowering:
    """GEMM view of one base layer.

    Attributes
    ----------
    layer:
        Base layer node name.
    kernel_rows:
        Kernel-matrix rows (``KW*KH*KI`` for conv, input features for
        dense).
    kernel_cols:
        Kernel-matrix columns (``KO`` / units).
    num_mvms:
        Input vectors in the GEMM = spatial positions of the OFM
        (``OH*OW``; 1 for dense).  Under intra-layer scheduling, each
        MVM takes one ``t_MVM`` cycle, so ``num_mvms`` equals the
        layer's latency ``t_OFM`` in cycles (Sec. III-B).
    ofm_shape:
        The layer's output shape.
    """

    layer: str
    kernel_rows: int
    kernel_cols: int
    num_mvms: int
    ofm_shape: Shape

    @property
    def weight_elements(self) -> int:
        """Scalar weights in the kernel matrix."""
        return self.kernel_rows * self.kernel_cols

    @property
    def macs(self) -> int:
        """Multiply-accumulates of the layer's GEMM."""
        return self.weight_elements * self.num_mvms


def lower_layer(graph: Graph, layer_name: str) -> GemmLowering:
    """Compute the GEMM lowering of one base layer."""
    return _lower(graph, layer_name, graph.infer_shapes())


def lower_graph(graph: Graph) -> dict[str, GemmLowering]:
    """GEMM lowerings of every base layer, keyed by layer name."""
    shapes = graph.infer_shapes()
    return {name: _lower(graph, name, shapes) for name in graph.base_layers()}


def _lower(graph: Graph, layer_name: str, shapes: dict[str, Shape]) -> GemmLowering:
    """:func:`lower_layer` over the shape table ``shapes`` of ``graph``."""
    op = graph[layer_name]
    out_shape = shapes[layer_name]
    if isinstance(op, Conv2D):
        in_channels = shapes[op.inputs[0]].channels
        rows, cols = op.kernel_matrix_shape(in_channels)
        num_mvms = out_shape.spatial_size
    elif isinstance(op, Dense):
        in_features = shapes[op.inputs[0]].channels
        rows, cols = op.kernel_matrix_shape(in_features)
        num_mvms = 1
    else:
        raise ValueError(f"'{layer_name}' is not a base layer (got {op.op_type})")
    return GemmLowering(
        layer=layer_name,
        kernel_rows=rows,
        kernel_cols=cols,
        num_mvms=num_mvms,
        ofm_shape=out_shape,
    )
