"""Unit tests for the architecture model (Section II-A)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import (
    ArchitectureConfig,
    CrossbarSpec,
    DramSpec,
    MeshNoc,
    NocSpec,
    TileSpec,
    feature_map_bytes,
    paper_case_study,
    set_payload_bytes,
    small_crossbar,
)
from repro.ir import GraphBuilder, Shape
from repro.verify import verify_graph


class TestCrossbarSpec:
    def test_paper_defaults(self):
        xbar = CrossbarSpec()
        assert (xbar.rows, xbar.cols) == (256, 256)
        assert xbar.t_mvm_ns == 1400.0
        assert xbar.capacity == 65536

    def test_eq1_pe_counts_from_table1(self):
        """Eq. (1) reproduces the #PE column of Table I."""
        xbar = CrossbarSpec(rows=256, cols=256)
        # conv2d: 3x3x3 kernel -> 27 rows, 32 cols -> 1 PE
        assert xbar.pes_for_kernel_matrix(27, 32) == 1
        # conv2d_1: 3x3x32 -> 288 rows, 64 cols -> 2 PEs
        assert xbar.pes_for_kernel_matrix(288, 64) == 2
        # conv2d_2: 3x3x64 -> 576 rows, 64 cols -> 3 PEs
        assert xbar.pes_for_kernel_matrix(576, 64) == 3
        # conv2d_16: 3x3x256 -> 2304 rows, 512 cols -> 9*2 = 18 PEs
        assert xbar.pes_for_kernel_matrix(2304, 512) == 18
        # conv2d_17: 1x1x512 -> 512 rows, 255 cols -> 2 PEs
        assert xbar.pes_for_kernel_matrix(512, 255) == 2
        # conv2d_20: 1x1x256 -> 256 rows, 255 cols -> 1 PE
        assert xbar.pes_for_kernel_matrix(256, 255) == 1

    def test_grid(self):
        xbar = CrossbarSpec(rows=256, cols=256)
        assert xbar.grid_for_kernel_matrix(2304, 512) == (9, 2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CrossbarSpec(rows=0)
        with pytest.raises(ValueError):
            CrossbarSpec(t_mvm_ns=0.0)
        with pytest.raises(ValueError):
            CrossbarSpec(cell_bits=0)
        with pytest.raises(ValueError):
            CrossbarSpec().pes_for_kernel_matrix(0, 5)

    @given(
        rows=st.integers(1, 4096),
        cols=st.integers(1, 4096),
        n=st.integers(1, 512),
        m=st.integers(1, 512),
    )
    def test_property_pe_count_monotone(self, rows, cols, n, m):
        """More kernel rows/cols never need fewer PEs."""
        xbar = CrossbarSpec(rows=n, cols=m)
        assert xbar.pes_for_kernel_matrix(rows, cols) <= xbar.pes_for_kernel_matrix(
            rows + 1, cols + 1
        )


class TestTileSpec:
    def test_capacity(self):
        tile = TileSpec(pes_per_tile=4)
        assert tile.weight_capacity == 4 * 65536

    def test_gpeu_supports_standard_ops(self):
        tile = TileSpec()
        for op_type in ("MaxPool", "BiasAdd", "Activation", "Concat", "Upsample"):
            assert tile.gpeu.supports(op_type)
        assert not tile.gpeu.supports("Conv2D")

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TileSpec(pes_per_tile=0)
        with pytest.raises(ValueError):
            TileSpec(input_buffer_bytes=-1)


class TestMeshNoc:
    def test_grid_shape(self):
        noc = MeshNoc(12)
        assert noc.cols == 4
        assert noc.rows == 3

    def test_hops(self):
        noc = MeshNoc(16)  # 4x4
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 15) == 6  # (3, 3) from (0, 0)

    def test_connected(self):
        for count in (1, 2, 5, 16, 117):
            assert MeshNoc(count).is_connected()

    def test_transfer_latency(self):
        noc = MeshNoc(4, NocSpec(hop_latency_ns=2.0, link_bandwidth_bytes_per_ns=32.0))
        assert noc.transfer_latency_ns(0, 0, 1024) == 0.0
        one_hop = noc.transfer_latency_ns(0, 1, 1024)
        assert one_hop == pytest.approx(2.0 + 1024 / 32.0)
        assert noc.transfer_latency_ns(0, 3, 1024) > one_hop

    def test_dram_round_trip(self):
        noc = MeshNoc(4, NocSpec(dram_latency_ns=100.0, link_bandwidth_bytes_per_ns=32.0))
        assert noc.dram_round_trip_ns(0) == 200.0
        assert noc.dram_round_trip_ns(3200) == 300.0

    def test_average_hops_grows_with_size(self):
        assert MeshNoc(1).average_hops() == 0.0
        assert MeshNoc(4).average_hops() < MeshNoc(64).average_hops()

    def test_hops_array_matches_hops(self):
        noc = MeshNoc(11)  # 4 columns, ragged last row
        src, dst = np.divmod(np.arange(121), 11)
        expected = [noc.hops(a, b) for a, b in zip(src.tolist(), dst.tolist())]
        assert noc.hops_array(src, dst).tolist() == expected
        with pytest.raises(ValueError):
            noc.hops_array(np.array([0, 1]), np.array([3, 11]))
        with pytest.raises(ValueError):
            noc.hops_array(np.array([-1]), np.array([0]))

    def test_bad_tile_rejected(self):
        noc = MeshNoc(4)
        with pytest.raises(ValueError):
            noc.hops(0, 4)
        with pytest.raises(ValueError):
            noc.transfer_latency_ns(0, 1, -1)


class TestMemory:
    def test_tensor_bytes(self):
        dram = DramSpec(bytes_per_element=1)
        assert dram.tensor_bytes(Shape(13, 13, 512)) == 13 * 13 * 512

    def test_fits(self):
        dram = DramSpec(capacity_bytes=1000, bytes_per_element=1)
        assert dram.fits([Shape(10, 10, 5)])
        assert not dram.fits([Shape(10, 10, 11)])

    def test_helpers(self):
        assert feature_map_bytes(Shape(2, 2, 2), 2) == 16
        assert set_payload_bytes(4, 4, 32) == 512
        with pytest.raises(ValueError):
            set_payload_bytes(-1, 1, 1)
        with pytest.raises(ValueError):
            feature_map_bytes(Shape(1, 1, 1), 0)


class TestArchitectureConfig:
    def test_paper_preset(self):
        arch = paper_case_study(117)
        assert arch.num_pes == 117
        assert arch.crossbar.rows == 256
        assert arch.t_mvm_ns == 1400.0
        assert arch.num_tiles == 117

    def test_with_extra_pes(self):
        arch = paper_case_study(117).with_extra_pes(32)
        assert arch.num_pes == 149
        assert "+32" in arch.name

    def test_cycles_conversion(self):
        arch = paper_case_study(117)
        assert arch.cycles_to_ns(1) == 1400.0
        assert arch.cycles_to_ms(1_000_000) == pytest.approx(1400.0)

    def test_tiles_round_up(self):
        arch = ArchitectureConfig(num_pes=10, tile=TileSpec(pes_per_tile=4))
        assert arch.num_tiles == 3

    def test_small_crossbar_preset(self):
        arch = small_crossbar(100, dim=128)
        assert arch.crossbar.rows == 128

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(num_pes=0)
        with pytest.raises(ValueError):
            paper_case_study(117).with_extra_pes(-1)

    def test_summary(self):
        text = paper_case_study(149).summary()
        assert "149 PEs" in text
        assert "256x256" in text


class TestRequirements:
    """The Section II-A requirements, checked by the verifier's arch rules."""

    def make_model(self, in_channels=3):
        b = GraphBuilder("net")
        x = b.input((16, 16, in_channels), name="in")
        c = b.conv2d(x, 8, kernel=3, padding="valid", use_bias=False)
        b.maxpool(c, 2)
        return b.graph

    @staticmethod
    def issues(graph, arch):
        return [d.message for d in verify_graph(graph, arch).errors]

    def test_satisfied(self):
        assert self.issues(self.make_model(), paper_case_study(4)) == []

    def test_insufficient_pes(self):
        # 3x3x64 weight rows span three 256-row crossbars
        issues = self.issues(self.make_model(in_channels=64), paper_case_study(2))
        assert any("needs 3 PEs" in issue for issue in issues)

    def test_no_buffers_flagged(self):
        arch = ArchitectureConfig(
            num_pes=4,
            tile=TileSpec(input_buffer_bytes=0, output_buffer_bytes=0),
        )
        assert any("buffers" in issue for issue in self.issues(self.make_model(), arch))

    def test_unsupported_gpeu_op_flagged(self):
        from repro.arch import GpeuSpec

        arch = ArchitectureConfig(
            num_pes=4,
            tile=TileSpec(gpeu=GpeuSpec(supported_ops=("BiasAdd",))),
        )
        assert any("MaxPool" in issue for issue in self.issues(self.make_model(), arch))

    def test_dram_overflow_flagged(self):
        arch = ArchitectureConfig(num_pes=4, dram=DramSpec(capacity_bytes=16))
        assert any("DRAM" in issue for issue in self.issues(self.make_model(), arch))
