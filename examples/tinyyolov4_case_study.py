"""The paper's Section V-A case study: TinyYOLOv4 on 256x256 crossbars.

Reproduces, in order:

* Table I   — the base-layer structure (IFM/OFM shapes, #PE, cycles),
* Fig. 6(a) — which layers Optimization Problem 1 duplicates at x=16,
* Fig. 6(b) — the CLSA-CIM schedule as an ASCII Gantt chart,
* Fig. 6(c) — speedup and utilization across x in {4, 8, 16, 32}.

Paper reference points: xinf utilization ~4.1 %; wdup+32 utilization up
to 28.4 % corresponding to a 21.9x speedup.

Run:  python examples/tinyyolov4_case_study.py
"""

from repro import ScheduleOptions, Session, compile_model, paper_case_study, preprocess
from repro.analysis import duplication_table, fig6c_report, table1
from repro.models import CASE_STUDY
from repro.sim import ascii_gantt


def main():
    print("=" * 72)
    print("Table I — TinyYOLOv4 base-layer structure")
    print("=" * 72)
    print(table1())

    canonical = preprocess(CASE_STUDY.build(), quantization=None).graph

    print()
    print("=" * 72)
    print("Fig. 6(a) — weight duplication at x = 16 extra PEs")
    print("=" * 72)
    arch16 = paper_case_study(CASE_STUDY.min_pes + 16)
    combo16 = compile_model(
        canonical,
        arch16,
        ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
        assume_canonical=True,
    )
    print(duplication_table(combo16.duplication, canonical.base_layers()))
    print(
        f"\n(The paper states the first six Conv2D layers are duplicated "
        f"at x = 16; PEs used: {combo16.duplication.pes_used}/{arch16.num_pes})"
    )

    print()
    print("=" * 72)
    print("Fig. 6(b) — CLSA-CIM schedule (wdup+16)")
    print("=" * 72)
    print(ascii_gantt(combo16, width=60))

    print()
    print("=" * 72)
    print("Fig. 6(c) — speedup and utilization vs extra PEs")
    print("=" * 72)
    (sweep,) = Session(paper_case_study(1)).sweep(
        [CASE_STUDY], xs=(4, 8, 16, 32), graphs={CASE_STUDY.name: canonical}
    )
    print(fig6c_report(sweep))
    xinf = sweep.series("xinf")[0]
    combo32 = [p for p in sweep.series("wdup+xinf") if p.extra_pes == 32][0]
    print(
        f"\nPaper reference: xinf utilization ~4.1 % "
        f"(measured {100 * xinf.utilization:.1f} %); "
        f"wdup+32 utilization up to 28.4 % / speedup 21.9x "
        f"(measured {100 * combo32.utilization:.1f} % / {combo32.speedup:.1f}x)"
    )


if __name__ == "__main__":
    main()
