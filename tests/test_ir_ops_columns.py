"""Every builtin op's column rule equals its scalar rule, row by row.

``Op.input_region_columns`` is what Stage II runs; ``Op.input_regions``
is the reference.  The rects include empty and out-of-bounds ones, for
which the two must still agree coordinate for coordinate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Rect, Shape
from repro.ir.ops import (
    OP_TYPES,
    Activation,
    Add,
    AvgPool,
    BatchNorm,
    BiasAdd,
    Concat,
    ConcatSpatial,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    Identity,
    Input,
    MaxPool,
    Op,
    Pad,
    Slice,
    Upsample,
    rect_columns,
)

IN = Shape(13, 11, 4)

#: name -> (op, input shapes); every builtin op type appears at least once.
CASES = {
    "Input": (Input("i", shape=(13, 11, 4)), []),
    "Conv2D-same-stride2": (
        Conv2D("c", ["x"], out_channels=2, kernel=(3, 3), strides=(2, 2), padding="same"),
        [IN],
    ),
    "Conv2D-valid": (
        Conv2D("c", ["x"], out_channels=2, kernel=(3, 1), strides=(1, 2), padding="valid"),
        [IN],
    ),
    "Dense": (Dense("d", ["x"], units=3), [Shape(1, 1, 8)]),
    "BatchNorm": (BatchNorm("b", ["x"]), [IN]),
    "BiasAdd": (BiasAdd("b", ["x"]), [IN]),
    "Pad": (Pad("p", ["x"], pad_top=1, pad_bottom=2, pad_left=0, pad_right=3), [IN]),
    "Activation": (Activation("a", ["x"], kind="relu"), [IN]),
    "MaxPool-same": (MaxPool("m", ["x"], pool=(3, 3), strides=(2, 2), padding="same"), [IN]),
    "AvgPool-valid": (AvgPool("a", ["x"], pool=(2, 2)), [IN]),
    "GlobalAvgPool": (GlobalAvgPool("g", ["x"]), [IN]),
    "Add": (Add("s", ["x", "y"]), [IN, IN]),
    "Concat": (Concat("k", ["x", "y"]), [IN, IN.with_channels(2)]),
    "ConcatSpatial-height": (
        ConcatSpatial("h", ["x", "y"], axis="height"),
        [Shape(5, 11, 4), Shape(8, 11, 4)],
    ),
    "ConcatSpatial-width": (
        ConcatSpatial("w", ["x", "y", "z"], axis="width"),
        [Shape(13, 4, 4), Shape(13, 5, 4), Shape(13, 2, 4)],
    ),
    "Slice": (Slice("s", ["x"], offsets=(2, 3, 0), sizes=(5, -1, -1)), [IN]),
    "Upsample": (Upsample("u", ["x"], factor=3), [Shape(5, 4, 4)]),
    "Flatten": (Flatten("f", ["x"]), [IN]),
    "Identity": (Identity("n", ["x"]), [IN]),
}

coordinate = st.integers(-20, 45)
rect_lists = st.lists(
    st.builds(Rect, coordinate, coordinate, coordinate, coordinate), max_size=25
)


def test_every_builtin_op_is_covered_and_vectorized():
    covered = {type(op).__name__ for op, _ in CASES.values()}
    assert covered == set(OP_TYPES)
    for cls in OP_TYPES.values():
        assert cls.input_region_columns is not Op.input_region_columns, cls.__name__


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=50)
@given(rects=rect_lists)
def test_property_column_rule_equals_scalar_rule(case, rects):
    op, input_shapes = CASES[case]
    output_shape = op.infer_shape(input_shapes)
    blocks = op.input_region_columns(rect_columns(rects), input_shapes, output_shape)
    expected = [op.input_regions(rect, input_shapes, output_shape) for rect in rects]
    assert len(blocks) == len(input_shapes)
    for k, block in enumerate(blocks):
        assert block.shape == (4, len(rects))
        assert block.dtype == np.int64
        got = [Rect(*column) for column in block.T.tolist()]
        assert got == [regions[k] for regions in expected]


def test_pass_through_ops_hand_their_block_on_unchanged():
    """``passes_block`` ops return the very block they get, per input,
    which is what lets the backward walks fold them away."""
    declared = {name for name, cls in OP_TYPES.items() if cls.passes_block}
    assert declared == {"BatchNorm", "BiasAdd", "Activation", "Add", "Concat", "Identity"}
    rect = Rect(2, 1, 7, 9)
    for op, input_shapes in CASES.values():
        if not op.passes_block:
            continue
        output_shape = op.infer_shape(input_shapes)
        block = rect_columns([rect, Rect(0, 0, 1, 1)])
        blocks = op.input_region_columns(block, input_shapes, output_shape)
        assert len(blocks) == len(input_shapes)
        assert all(region is block for region in blocks), op.op_type
        regions = op.input_regions(rect, input_shapes, output_shape)
        assert regions == [rect] * len(input_shapes), op.op_type


def test_rule_overriding_subclass_inherits_no_declaration():
    """A subclass that redefines a rule is walked, and keyed, as an op
    that declares nothing; one that keeps its parent's rules keeps both."""

    class Grow(Activation):
        def input_regions(self, out_rect, input_shapes, output_shape):
            return [Rect(out_rect.r0, out_rect.c0, out_rect.r1 + 1, out_rect.c1)]

    class Fast(Conv2D):
        pass

    grow = Grow("g", ["x"])
    assert not Grow.passes_block and grow.rule_params() is None
    assert Fast.passes_block is False
    fast = Fast("f", ["x"], out_channels=2, kernel=(3, 3))
    assert fast.rule_params() == ((3, 3), (1, 1), "valid")
