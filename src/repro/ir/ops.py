"""Operator definitions for the NN graph IR.

Every operator implements two pieces of geometry that the CLSA-CIM
algorithm needs:

``infer_shape(input_shapes)``
    Forward shape inference (HWC, batch-free).

``input_regions(out_rect, input_shapes, output_shape)``
    *Backward region propagation*: given a spatial rectangle of the
    operator's output, return the rectangle of each input that is
    required to produce it.  Stage II of CLSA-CIM ("determine
    dependencies") is built entirely on this method — the paper notes
    that "when adding new base layers to the algorithm, this dependency
    has to be specified", which in this implementation means
    subclassing :class:`Op` and overriding :meth:`Op.input_regions`.

``input_region_columns(rects, input_shapes, output_shape)``
    The same rule over a whole block of rectangles at once, as an
    int64 ``(4, n)`` array whose rows are ``r0, c0, r1, c1`` (the
    *rect columns* Stage II moves all sets of a layer through).  The
    default loops over :meth:`Op.input_regions`, so a new operator
    needs only the scalar rule; every builtin overrides it with NumPy.

Operators are split into *base layers* (executed on crossbar PEs:
:class:`Conv2D`, :class:`Dense`) and *non-base layers* (executed on the
tile's general-purpose execution unit: everything else), mirroring the
partitioning of Section III-A of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Optional

import numpy as np

from .tensor import Rect, Shape

#: Padding modes accepted by convolution and pooling operators.
PADDING_MODES = ("valid", "same")

#: Supported activation kinds.
ACTIVATION_KINDS = ("linear", "relu", "leaky_relu", "relu6", "sigmoid", "tanh")

_RECT_COORDS = attrgetter("r0", "c0", "r1", "c1")


class OpError(ValueError):
    """Raised for invalid operator construction or shape mismatch."""


def _check_positive_pair(name: str, pair: tuple[int, int]) -> tuple[int, int]:
    """Validate a 2-tuple of positive ints (kernel, stride, pool...)."""
    if len(pair) != 2:
        raise OpError(f"{name} must be a 2-tuple, got {pair!r}")
    h, w = int(pair[0]), int(pair[1])
    if h < 1 or w < 1:
        raise OpError(f"{name} entries must be >= 1, got {pair!r}")
    return (h, w)


def same_padding(in_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """TensorFlow-style SAME padding: ``(pad_before, pad_after)``.

    Output size is ``ceil(in / stride)``; total padding is distributed
    with the extra element *after* (TF convention), which is what
    produces the ``(417, 417, 3)`` padded input of Table I from a
    416x416 image with a 3x3 stride-2 kernel.
    """
    out_size = math.ceil(in_size / stride)
    total = max(0, (out_size - 1) * stride + kernel - in_size)
    before = total // 2
    return (before, total - before)


def conv_out_size(in_size: int, kernel: int, stride: int, padding: str) -> int:
    """Output spatial size of a convolution/pooling window."""
    if padding == "same":
        return math.ceil(in_size / stride)
    if padding == "valid":
        if in_size < kernel:
            raise OpError(f"valid window of size {kernel} does not fit input of size {in_size}")
        return (in_size - kernel) // stride + 1
    raise OpError(f"unknown padding mode {padding!r}")


def window_input_rect(
    out_rect: Rect,
    kernel: tuple[int, int],
    strides: tuple[int, int],
    pads_before: tuple[int, int],
    input_shape: Shape,
) -> Rect:
    """Backward region rule shared by convolutions and pooling.

    For output rows ``[r0, r1)`` a window op with kernel ``kh`` and
    stride ``sh`` reads input rows ``[r0*sh - pt, (r1-1)*sh + kh - pt)``
    (and analogously for columns), clipped to the input bounds.
    """
    if out_rect.is_empty():
        return Rect.empty()
    kh, kw = kernel
    sh, sw = strides
    pt, pl = pads_before
    rect = Rect(
        out_rect.r0 * sh - pt,
        out_rect.c0 * sw - pl,
        (out_rect.r1 - 1) * sh + kh - pt,
        (out_rect.c1 - 1) * sw + kw - pl,
    )
    return rect.clip(input_shape.height, input_shape.width)


def rect_columns(rects: list[Rect]) -> np.ndarray:
    """Rect columns (int64 ``(4, n)``: rows ``r0, c0, r1, c1``) of ``rects``."""
    flat = chain.from_iterable(map(_RECT_COORDS, rects))
    coords = np.fromiter(flat, dtype=np.int64, count=4 * len(rects))
    return coords.reshape(len(rects), 4).T.copy()


def empty_columns(rects: np.ndarray) -> np.ndarray:
    """Per column, :meth:`Rect.is_empty`."""
    return (rects[2] <= rects[0]) | (rects[3] <= rects[1])


def _clipped(rects: np.ndarray, shape: Shape) -> np.ndarray:
    """:meth:`Rect.clip` per column, in place (``rects`` must be owned)."""
    np.maximum(rects[:2], 0, out=rects[:2])
    np.minimum(rects[2], shape.height, out=rects[2])
    np.minimum(rects[3], shape.width, out=rects[3])
    return rects


def _shift_clip_columns(rects: np.ndarray, d_row: int, d_col: int, shape: Shape) -> np.ndarray:
    """:meth:`Rect.shift` then :meth:`Rect.clip`, per column."""
    return _clipped(rects + np.array([[d_row], [d_col], [d_row], [d_col]]), shape)


def _full_or_empty_columns(rects: np.ndarray, shape: Shape) -> np.ndarray:
    """The whole ``shape`` for non-empty columns, ``Rect.empty()`` otherwise."""
    out = np.zeros_like(rects)
    full = ~empty_columns(rects)
    out[2, full] = shape.height
    out[3, full] = shape.width
    return out


def window_input_columns(
    rects: np.ndarray,
    kernel: tuple[int, int],
    strides: tuple[int, int],
    pads_before: tuple[int, int],
    input_shape: Shape,
) -> np.ndarray:
    """:func:`window_input_rect` over rect columns."""
    kh, kw = kernel
    sh, sw = strides
    pt, pl = pads_before
    # (r1 - 1) * sh + kh - pt == r1 * sh + (kh - sh - pt)
    out = _clipped(
        rects * np.array([[sh], [sw], [sh], [sw]])
        + np.array([[-pt], [-pl], [kh - sh - pt], [kw - sw - pl]]),
        input_shape,
    )
    empty = empty_columns(rects)
    if empty.any():
        out[:, empty] = 0
    return out


@dataclass
class Op:
    """Base class of all IR operators.

    Attributes
    ----------
    name:
        Unique node name within a :class:`~repro.ir.graph.Graph`.
    inputs:
        Names of producer nodes, in positional order.
    """

    name: str
    inputs: list[str] = field(default_factory=list)

    #: Whether this operator executes on crossbar PEs (MVM workload).
    is_base: bool = field(default=False, init=False, repr=False)

    @property
    def op_type(self) -> str:
        """The operator's type name (its class name)."""
        return type(self).__name__

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        """Forward shape inference. Subclasses must override."""
        raise NotImplementedError

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        """Backward region propagation. Subclasses must override."""
        raise NotImplementedError

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        """:meth:`input_regions` over rect columns, one block per input.

        Column ``j`` of each returned block equals the scalar rule's
        region for column ``j`` of ``rects``.  This default applies the
        scalar rule column by column; builtins override it with NumPy.
        """
        per_rect = [
            self.input_regions(Rect(*coords), input_shapes, output_shape)
            for coords in rects.T.tolist()
        ]
        if not per_rect:
            return [np.empty((4, 0), dtype=np.int64) for _ in input_shapes]
        return [rect_columns(list(regions)) for regions in zip(*per_rect)]

    def _expect_arity(self, input_shapes: list[Shape], arity: int) -> None:
        if len(input_shapes) != arity:
            raise OpError(
                f"{self.op_type} '{self.name}' expects {arity} input(s), "
                f"got {len(input_shapes)}"
            )

    def param_count(self) -> int:
        """Number of learned scalar parameters held by the operator."""
        return 0


@dataclass
class Input(Op):
    """Graph input placeholder carrying the model's input shape."""

    shape: Shape = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.shape is None:
            raise OpError(f"Input '{self.name}' requires a shape")
        if not isinstance(self.shape, Shape):
            self.shape = Shape.from_tuple(self.shape)
        if self.inputs:
            raise OpError(f"Input '{self.name}' cannot have producers")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 0)
        return self.shape

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return []

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return []


@dataclass
class Conv2D(Op):
    """2-D convolution — a *base layer* executed on crossbar PEs.

    In the canonical (preprocessed) form, ``padding`` is ``'valid'`` and
    ``use_bias`` is ``False``: padding lives in an explicit :class:`Pad`
    node and the bias in a :class:`BiasAdd` node (Section III-A,
    Fig. 2).  Freshly built models may use ``'same'`` padding and a
    fused bias; the frontend decouples them.
    """

    out_channels: int = 0
    kernel: tuple[int, int] = (1, 1)
    strides: tuple[int, int] = (1, 1)
    padding: str = "valid"
    use_bias: bool = False
    #: Optional numeric weights of shape (kh, kw, in_c, out_c).
    weights: Optional[np.ndarray] = field(default=None, repr=False)
    #: Optional numeric bias of shape (out_c,).
    bias: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.is_base = True
        if self.out_channels < 1:
            raise OpError(f"Conv2D '{self.name}' needs out_channels >= 1")
        self.kernel = _check_positive_pair("kernel", self.kernel)
        self.strides = _check_positive_pair("strides", self.strides)
        if self.padding not in PADDING_MODES:
            raise OpError(f"Conv2D '{self.name}': unknown padding {self.padding!r}")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        in_shape = input_shapes[0]
        kh, kw = self.kernel
        sh, sw = self.strides
        out_h = conv_out_size(in_shape.height, kh, sh, self.padding)
        out_w = conv_out_size(in_shape.width, kw, sw, self.padding)
        return Shape(out_h, out_w, self.out_channels)

    def _pads_before(self, in_shape: Shape) -> tuple[int, int]:
        if self.padding != "same":
            return (0, 0)
        return (
            same_padding(in_shape.height, self.kernel[0], self.strides[0])[0],
            same_padding(in_shape.width, self.kernel[1], self.strides[1])[0],
        )

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        pads = self._pads_before(in_shape)
        return [window_input_rect(out_rect, self.kernel, self.strides, pads, in_shape)]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        in_shape = input_shapes[0]
        pads = self._pads_before(in_shape)
        return [window_input_columns(rects, self.kernel, self.strides, pads, in_shape)]

    def kernel_matrix_shape(self, in_channels: int) -> tuple[int, int]:
        """im2col kernel-matrix dimensions ``(KW*KH*KI, KO)`` (Fig. 3)."""
        kh, kw = self.kernel
        return (kh * kw * in_channels, self.out_channels)

    def param_count(self) -> int:
        count = 0
        if self.weights is not None:
            count += int(self.weights.size)
        if self.bias is not None:
            count += int(self.bias.size)
        return count


@dataclass
class Dense(Op):
    """Fully connected layer — a *base layer* (1x1 spatial output)."""

    units: int = 0
    use_bias: bool = False
    #: Optional numeric weights of shape (in_features, units).
    weights: Optional[np.ndarray] = field(default=None, repr=False)
    bias: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.is_base = True
        if self.units < 1:
            raise OpError(f"Dense '{self.name}' needs units >= 1")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        in_shape = input_shapes[0]
        if in_shape.height != 1 or in_shape.width != 1:
            raise OpError(
                f"Dense '{self.name}' requires a flattened (1, 1, N) input, got {in_shape}"
            )
        return Shape(1, 1, self.units)

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        if out_rect.is_empty():
            return [Rect.empty()]
        return [in_shape.full_rect()]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [_full_or_empty_columns(rects, input_shapes[0])]

    def kernel_matrix_shape(self, in_features: int) -> tuple[int, int]:
        """Kernel-matrix dimensions ``(in_features, units)``."""
        return (in_features, self.units)

    def param_count(self) -> int:
        count = 0
        if self.weights is not None:
            count += int(self.weights.size)
        if self.bias is not None:
            count += int(self.bias.size)
        return count


@dataclass
class BatchNorm(Op):
    """Batch normalization (inference mode); folded away by the frontend."""

    gamma: Optional[np.ndarray] = field(default=None, repr=False)
    beta: Optional[np.ndarray] = field(default=None, repr=False)
    mean: Optional[np.ndarray] = field(default=None, repr=False)
    variance: Optional[np.ndarray] = field(default=None, repr=False)
    epsilon: float = 1e-3

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return input_shapes[0]

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return [out_rect]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [rects]

    def param_count(self) -> int:
        return sum(
            int(p.size)
            for p in (self.gamma, self.beta, self.mean, self.variance)
            if p is not None
        )


@dataclass
class BiasAdd(Op):
    """Per-channel bias addition, decoupled from the base layer."""

    bias: Optional[np.ndarray] = field(default=None, repr=False)

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return input_shapes[0]

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return [out_rect]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [rects]

    def param_count(self) -> int:
        return 0 if self.bias is None else int(self.bias.size)


@dataclass
class Pad(Op):
    """Explicit zero padding ``(top, bottom, left, right)``."""

    pad_top: int = 0
    pad_bottom: int = 0
    pad_left: int = 0
    pad_right: int = 0
    value: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("pad_top", "pad_bottom", "pad_left", "pad_right"):
            if getattr(self, field_name) < 0:
                raise OpError(f"Pad '{self.name}': {field_name} must be >= 0")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        in_shape = input_shapes[0]
        return Shape(
            in_shape.height + self.pad_top + self.pad_bottom,
            in_shape.width + self.pad_left + self.pad_right,
            in_shape.channels,
        )

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        rect = out_rect.shift(-self.pad_top, -self.pad_left)
        return [rect.clip(in_shape.height, in_shape.width)]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [_shift_clip_columns(rects, -self.pad_top, -self.pad_left, input_shapes[0])]

    @property
    def is_identity(self) -> bool:
        """True when all four pad amounts are zero."""
        return not (self.pad_top or self.pad_bottom or self.pad_left or self.pad_right)


@dataclass
class Activation(Op):
    """Elementwise activation function."""

    kind: str = "relu"
    alpha: float = 0.1  # leaky_relu negative slope

    def __post_init__(self) -> None:
        if self.kind not in ACTIVATION_KINDS:
            raise OpError(f"Activation '{self.name}': unknown kind {self.kind!r}")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return input_shapes[0]

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return [out_rect]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [rects]


@dataclass
class _Pool(Op):
    """Shared geometry of max/average pooling."""

    pool: tuple[int, int] = (2, 2)
    strides: Optional[tuple[int, int]] = None
    padding: str = "valid"

    def __post_init__(self) -> None:
        self.pool = _check_positive_pair("pool", self.pool)
        if self.strides is None:
            self.strides = self.pool
        self.strides = _check_positive_pair("strides", self.strides)
        if self.padding not in PADDING_MODES:
            raise OpError(f"{self.op_type} '{self.name}': unknown padding {self.padding!r}")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        in_shape = input_shapes[0]
        out_h = conv_out_size(in_shape.height, self.pool[0], self.strides[0], self.padding)
        out_w = conv_out_size(in_shape.width, self.pool[1], self.strides[1], self.padding)
        return Shape(out_h, out_w, in_shape.channels)

    def _pads_before(self, in_shape: Shape) -> tuple[int, int]:
        if self.padding != "same":
            return (0, 0)
        return (
            same_padding(in_shape.height, self.pool[0], self.strides[0])[0],
            same_padding(in_shape.width, self.pool[1], self.strides[1])[0],
        )

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        pads = self._pads_before(in_shape)
        return [window_input_rect(out_rect, self.pool, self.strides, pads, in_shape)]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        in_shape = input_shapes[0]
        pads = self._pads_before(in_shape)
        return [window_input_columns(rects, self.pool, self.strides, pads, in_shape)]


@dataclass
class MaxPool(_Pool):
    """Max pooling over spatial windows."""


@dataclass
class AvgPool(_Pool):
    """Average pooling over spatial windows."""


@dataclass
class GlobalAvgPool(Op):
    """Global average pooling to a (1, 1, C) tensor."""

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return Shape(1, 1, input_shapes[0].channels)

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        if out_rect.is_empty():
            return [Rect.empty()]
        return [in_shape.full_rect()]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [_full_or_empty_columns(rects, input_shapes[0])]


@dataclass
class Add(Op):
    """Elementwise addition of two or more same-shaped tensors."""

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise OpError(f"Add '{self.name}' needs at least 2 inputs")
        first = input_shapes[0]
        for shape in input_shapes[1:]:
            if shape != first:
                raise OpError(
                    f"Add '{self.name}': mismatched input shapes {first} vs {shape}"
                )
        return first

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return [out_rect for _ in input_shapes]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [rects for _ in input_shapes]


@dataclass
class Concat(Op):
    """Channel-axis concatenation of two or more tensors."""

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise OpError(f"Concat '{self.name}' needs at least 2 inputs")
        first = input_shapes[0]
        channels = 0
        for shape in input_shapes:
            if (shape.height, shape.width) != (first.height, first.width):
                raise OpError(
                    f"Concat '{self.name}': mismatched spatial dims {first} vs {shape}"
                )
            channels += shape.channels
        return Shape(first.height, first.width, channels)

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return [out_rect for _ in input_shapes]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [rects for _ in input_shapes]


@dataclass
class ConcatSpatial(Op):
    """Concatenation along a spatial axis (``'height'`` or ``'width'``).

    Weight duplication (Fig. 4) splits an OFM into disjoint spatial
    parts computed by duplicate layers and re-assembles them with
    concatenations along the cut dimensions; this op is that
    re-assembly.  Inputs are stacked in order along ``axis``.
    """

    axis: str = "height"

    def __post_init__(self) -> None:
        if self.axis not in ("height", "width"):
            raise OpError(f"ConcatSpatial '{self.name}': bad axis {self.axis!r}")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise OpError(f"ConcatSpatial '{self.name}' needs at least 2 inputs")
        first = input_shapes[0]
        if self.axis == "height":
            total = 0
            for shape in input_shapes:
                if (shape.width, shape.channels) != (first.width, first.channels):
                    raise OpError(
                        f"ConcatSpatial '{self.name}': mismatched width/channels "
                        f"{first} vs {shape}"
                    )
                total += shape.height
            return Shape(total, first.width, first.channels)
        total = 0
        for shape in input_shapes:
            if (shape.height, shape.channels) != (first.height, first.channels):
                raise OpError(
                    f"ConcatSpatial '{self.name}': mismatched height/channels "
                    f"{first} vs {shape}"
                )
            total += shape.width
        return Shape(first.height, total, first.channels)

    def input_offsets(self, input_shapes: list[Shape]) -> list[int]:
        """Start offset of each input along the concat axis."""
        offsets = []
        position = 0
        for shape in input_shapes:
            offsets.append(position)
            position += shape.height if self.axis == "height" else shape.width
        return offsets

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        rects = []
        for shape, offset in zip(input_shapes, self.input_offsets(input_shapes)):
            if self.axis == "height":
                rect = out_rect.shift(-offset, 0)
            else:
                rect = out_rect.shift(0, -offset)
            rects.append(rect.clip(shape.height, shape.width))
        return rects

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        height = self.axis == "height"
        return [
            _shift_clip_columns(rects, -offset if height else 0, 0 if height else -offset, shape)
            for shape, offset in zip(input_shapes, self.input_offsets(input_shapes))
        ]


@dataclass
class Slice(Op):
    """Static slice in spatial and/or channel dimensions.

    ``offsets`` is ``(h0, w0, c0)`` and ``sizes`` ``(h, w, c)``; a size
    of ``-1`` extends to the end of that dimension.  Spatial slices
    implement weight-duplication input splitting (Fig. 4); channel
    slices implement CSP route-group splits in TinyYOLOv4.
    """

    offsets: tuple[int, int, int] = (0, 0, 0)
    sizes: tuple[int, int, int] = (-1, -1, -1)

    def __post_init__(self) -> None:
        if len(self.offsets) != 3 or len(self.sizes) != 3:
            raise OpError(f"Slice '{self.name}': offsets/sizes must be 3-tuples")
        if any(o < 0 for o in self.offsets):
            raise OpError(f"Slice '{self.name}': offsets must be >= 0")
        if any(s == 0 or s < -1 for s in self.sizes):
            raise OpError(f"Slice '{self.name}': sizes must be positive or -1")

    def resolved_sizes(self, in_shape: Shape) -> tuple[int, int, int]:
        """Sizes with ``-1`` resolved against the input shape."""
        bounds = in_shape.hwc
        resolved = []
        for offset, size, bound in zip(self.offsets, self.sizes, bounds):
            actual = bound - offset if size == -1 else size
            if offset + actual > bound:
                raise OpError(
                    f"Slice '{self.name}': slice [{offset}, {offset + actual}) "
                    f"exceeds dimension of size {bound}"
                )
            resolved.append(actual)
        return (resolved[0], resolved[1], resolved[2])

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return Shape(*self.resolved_sizes(input_shapes[0]))

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        rect = out_rect.shift(self.offsets[0], self.offsets[1])
        return [rect.clip(in_shape.height, in_shape.width)]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [_shift_clip_columns(rects, self.offsets[0], self.offsets[1], input_shapes[0])]


@dataclass
class Upsample(Op):
    """Nearest-neighbour spatial upsampling by an integer factor."""

    factor: int = 2

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise OpError(f"Upsample '{self.name}': factor must be >= 1")

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        in_shape = input_shapes[0]
        return Shape(
            in_shape.height * self.factor,
            in_shape.width * self.factor,
            in_shape.channels,
        )

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        if out_rect.is_empty():
            return [Rect.empty()]
        rect = Rect(
            out_rect.r0 // self.factor,
            out_rect.c0 // self.factor,
            math.ceil(out_rect.r1 / self.factor),
            math.ceil(out_rect.c1 / self.factor),
        )
        return [rect.clip(in_shape.height, in_shape.width)]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        out = np.empty_like(rects)
        np.floor_divide(rects[:2], self.factor, out=out[:2])
        np.negative(np.floor_divide(-rects[2:], self.factor), out=out[2:])  # ceil
        out = _clipped(out, input_shapes[0])
        empty = empty_columns(rects)
        if empty.any():
            out[:, empty] = 0
        return [out]


@dataclass
class Flatten(Op):
    """Flatten a (H, W, C) tensor to (1, 1, H*W*C)."""

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return Shape(1, 1, input_shapes[0].num_elements)

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        in_shape = input_shapes[0]
        if out_rect.is_empty():
            return [Rect.empty()]
        return [in_shape.full_rect()]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [_full_or_empty_columns(rects, input_shapes[0])]


@dataclass
class Identity(Op):
    """No-op passthrough (useful as a named alias in rewrites)."""

    def infer_shape(self, input_shapes: list[Shape]) -> Shape:
        self._expect_arity(input_shapes, 1)
        return input_shapes[0]

    def input_regions(
        self, out_rect: Rect, input_shapes: list[Shape], output_shape: Shape
    ) -> list[Rect]:
        return [out_rect]

    def input_region_columns(
        self, rects: np.ndarray, input_shapes: list[Shape], output_shape: Shape
    ) -> list[np.ndarray]:
        return [rects]


#: All concrete op classes, keyed by type name (used by serialization).
OP_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        Input,
        Conv2D,
        Dense,
        BatchNorm,
        BiasAdd,
        Pad,
        Activation,
        MaxPool,
        AvgPool,
        GlobalAvgPool,
        Add,
        Concat,
        ConcatSpatial,
        Slice,
        Upsample,
        Flatten,
        Identity,
    )
}

#: Base-layer op type names (executed on crossbar PEs).
BASE_OP_TYPES = ("Conv2D", "Dense")
