"""Inference energy estimation.

The paper motivates CIM with "faster data processing and reduced power
consumption" but evaluates latency/utilization only.  This module adds
a first-order energy model so configurations can also be compared on
energy:

* **MVM energy** — every active PE-cycle costs one crossbar MVM
  (dominated by DAC/ADC and array read energy);
* **NoC energy** — every set-level dependency edge between layers moves
  the producer set's payload between the layers' home tiles;
* **static energy** — leakage of the whole array over the makespan.

Defaults are order-of-magnitude values for 256x256 RRAM macros in the
literature (tens of nJ per full-array MVM, ~1 pJ/byte/hop on-chip,
tens of mW static); all are configurable.  The model's purpose is
*relative* comparison between schedules on the same architecture, not
absolute silicon numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.pipeline import CompiledModel, dependencies_of
from ..mapping.placement import edge_transfers
from .metrics import active_pe_cycles


@dataclass(frozen=True)
class EnergyModelConfig:
    """Energy coefficients (configurable; defaults are literature-order)."""

    #: Energy of one PE performing one MVM cycle, in nanojoules.
    mvm_energy_nj: float = 40.0
    #: NoC transport energy per byte per hop, in nanojoules.
    noc_energy_nj_per_byte_hop: float = 0.001
    #: Static (leakage) power of the whole chip per PE, in milliwatts.
    static_power_mw_per_pe: float = 0.05
    #: Bytes per forwarded activation element.
    bytes_per_element: int = 1

    def __post_init__(self) -> None:
        if self.mvm_energy_nj < 0 or self.noc_energy_nj_per_byte_hop < 0:
            raise ValueError("energy coefficients must be non-negative")
        if self.static_power_mw_per_pe < 0:
            raise ValueError("static power must be non-negative")
        if self.bytes_per_element < 1:
            raise ValueError("bytes_per_element must be >= 1")


@dataclass
class EnergyReport:
    """Energy breakdown of one compiled configuration, in microjoules.

    Degenerate schedules (an empty model compiles to a zero-cycle
    schedule) produce an all-zero report; the derived quantities below
    guard their divisions so such reports never raise.
    """

    config_name: str
    mvm_uj: float
    noc_uj: float
    static_uj: float
    #: Schedule makespan in nanoseconds (0.0 for empty schedules).
    makespan_ns: float = 0.0
    details: dict[str, float] = field(default_factory=dict)

    @property
    def total_uj(self) -> float:
        """Total inference energy in microjoules."""
        return self.mvm_uj + self.noc_uj + self.static_uj

    @property
    def is_degenerate(self) -> bool:
        """Whether this report describes a zero-cycle schedule."""
        return self.makespan_ns == 0.0

    @property
    def average_power_mw(self) -> float:
        """Mean power over the inference, in milliwatts.

        Zero for degenerate (zero-cycle) schedules rather than a
        division by zero.
        """
        if self.makespan_ns == 0.0:
            return 0.0
        # uJ / ns = kW; convert to mW.
        return self.total_uj / self.makespan_ns * 1e6

    @property
    def energy_per_active_cycle_nj(self) -> float:
        """Mean energy per active PE-cycle, in nanojoules (0 if none)."""
        active = self.details.get("active_pe_cycles", 0.0)
        if active == 0.0:
            return 0.0
        return self.total_uj * 1e3 / active

    def summary(self) -> str:
        """One-line human-readable breakdown."""
        return (
            f"{self.config_name}: {self.total_uj:.1f} uJ "
            f"(MVM {self.mvm_uj:.1f}, NoC {self.noc_uj:.1f}, "
            f"static {self.static_uj:.1f})"
        )


def estimate_energy(
    compiled: CompiledModel, config: EnergyModelConfig = EnergyModelConfig()
) -> EnergyReport:
    """Estimate the inference energy of a compiled configuration.

    MVM energy is schedule-independent (total active PE-cycles are
    invariant); NoC energy depends on the placement and set structure;
    static energy scales with the makespan — so faster schedules save
    static energy, and duplication trades extra NoC traffic for it.

    An artifact saved without its dependencies reruns Stage II for the
    NoC term (:func:`~repro.core.pipeline.dependencies_of`).  A
    zero-cycle schedule (empty model) yields a well-defined all-zero
    report — every term of the model is proportional to activity or
    makespan, and the report's derived ratios guard their divisions.
    """
    if compiled.schedule.makespan == 0:
        return EnergyReport(
            config_name=compiled.options.paper_name,
            mvm_uj=0.0,
            noc_uj=0.0,
            static_uj=0.0,
            makespan_ns=0.0,
            details={"active_pe_cycles": 0.0},
        )

    active = active_pe_cycles(compiled.schedule, compiled.placement)
    mvm_nj = config.mvm_energy_nj * sum(active.values())

    noc_nj = 0.0
    dependencies = dependencies_of(compiled)
    if dependencies is not None:
        arrays = dependencies.arrays
        if arrays.num_edges:
            placement = compiled.placement
            # Each layer's OFM shape, as its tiling recorded it.
            shapes = {
                layer: tiling.lowering.ofm_shape
                for layer, tiling in placement.tilings.items()
            }
            src, dst, payload = edge_transfers(
                arrays, shapes, placement, config.bytes_per_element
            )
            hops = compiled.arch.build_noc().hops_array(src, dst)
            # Summed left to right over the edges (cumsum, not the
            # pairwise np.sum), so the total is bit-identical to adding
            # the edges one by one in set order.
            noc_nj = float(
                np.cumsum(config.noc_energy_nj_per_byte_hop * payload * hops)[-1]
            )

    makespan_ns = compiled.latency_ns
    static_mw = config.static_power_mw_per_pe * compiled.arch.num_pes
    # mW * ns = pJ; convert to nJ.
    static_nj = static_mw * makespan_ns / 1e3

    return EnergyReport(
        config_name=compiled.options.paper_name,
        mvm_uj=mvm_nj / 1e3,
        noc_uj=noc_nj / 1e3,
        static_uj=static_nj / 1e3,
        makespan_ns=makespan_ns,
        details={"active_pe_cycles": float(sum(active.values()))},
    )
