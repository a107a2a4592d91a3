"""Tiled CIM architecture model (Section II-A of the paper)."""

from .config import ArchitectureConfig
from .memory import DramSpec, feature_map_bytes, set_payload_bytes
from .noc import MeshNoc, NocSpec
from .pe import CrossbarSpec
from .presets import PRESETS, isaac_like, paper_case_study, small_crossbar
from .tile import GpeuSpec, TileSpec

__all__ = [
    "ArchitectureConfig",
    "CrossbarSpec",
    "DramSpec",
    "GpeuSpec",
    "MeshNoc",
    "NocSpec",
    "PRESETS",
    "TileSpec",
    "feature_map_bytes",
    "isaac_like",
    "paper_case_study",
    "set_payload_bytes",
    "small_crossbar",
]
