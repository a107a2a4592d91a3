"""Retargeting CLSA-CIM to a custom CIM architecture.

The paper (Sec. V-C) notes that CLSA-CIM "is already designed to accept
the crossbar dimensions as an input parameter".  This example defines a
custom architecture — 128x128 crossbars, 4 PEs per tile, a faster MVM —
validates the Section II-A hardware requirements against a model, and
quantifies the data-movement sensitivity the paper leaves to future
work using the NoC cost model.

Run:  python examples/custom_architecture.py
"""

from repro import ScheduleOptions, compile_model, minimum_pe_requirement, preprocess
from repro.arch import ArchitectureConfig, CrossbarSpec, NocSpec, TileSpec
from repro.analysis import format_table
from repro.models import tiny_yolo_v4
from repro.sim import CostModelConfig, NocCostModel, evaluate, simulate
from repro.verify import verify_graph


def main():
    # A custom architecture: smaller, faster crossbars, 4 per tile.
    crossbar = CrossbarSpec(rows=128, cols=128, t_mvm_ns=400.0, cell_bits=2)
    canonical = preprocess(tiny_yolo_v4(), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, crossbar)
    arch = ArchitectureConfig(
        num_pes=min_pes + 32,
        tile=TileSpec(pes_per_tile=4, crossbar=crossbar,
                      input_buffer_bytes=32 * 1024, output_buffer_bytes=32 * 1024),
        noc=NocSpec(hop_latency_ns=1.5, link_bandwidth_bytes_per_ns=16.0),
        name="custom-128",
    )
    print(arch.summary())
    print(f"TinyYOLOv4 needs {min_pes} of these smaller PEs "
          f"(vs 117 at 256x256 — Eq. 1 scales with crossbar size)\n")

    # Section II-A hardware requirement check (the verifier's arch rules).
    report = verify_graph(canonical, arch)
    print(f"Sec. II-A requirements satisfied: {report.ok}")
    for issue in report.errors:
        print(f"  issue: {issue.message}")

    # Compile with the full CLSA-CIM flow.
    compiled = compile_model(
        canonical,
        arch,
        ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
        assume_canonical=True,
    )
    metrics = evaluate(compiled)
    print(
        f"\nwdup+xinf on custom-128: {metrics.latency_cycles} cycles "
        f"({metrics.latency_ns / 1e6:.2f} ms), "
        f"utilization {100 * metrics.utilization:.1f}%"
    )

    # Future-work ablation: charge NoC transfers for set forwarding.
    rows = []
    free = simulate(compiled).finish_cycles
    rows.append(("free forwarding (paper model)", free, "1.00x"))
    for bytes_per_element in (1, 4):
        cost_model = NocCostModel(
            compiled.mapped,
            compiled.placement,
            CostModelConfig(bytes_per_element=bytes_per_element),
        )
        priced = simulate(compiled, cost_model).finish_cycles
        rows.append(
            (f"NoC-priced, {bytes_per_element} B/element", priced,
             f"{priced / free:.2f}x")
        )
    print("\nData-movement sensitivity (Sec. V-C future work):")
    print(format_table(["Cost model", "Latency (cycles)", "vs free"], rows))


if __name__ == "__main__":
    main()
