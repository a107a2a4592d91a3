"""Depth study: how CLSA-CIM's gains evolve from ResNet-50 to ResNet-152.

Reproduces the ResNet part of Fig. 7 and the paper's observation that
"as the model depth increases, the utilization decreases... due to the
limited parallelization capabilities between layers which are far apart
in the NN graph", while the *xinf speedup* keeps growing with depth
(deeper nets leave more layer-boundary stalls for CLSA-CIM to remove).

Run:  python examples/resnet_depth_sweep.py          # ResNet-50 only
      python examples/resnet_depth_sweep.py --all    # all three (slower)
"""

import sys

from repro import Session, paper_case_study
from repro.analysis import fig7a_report, fig7b_report
from repro.models import benchmark_by_name


def main(run_all: bool):
    names = ["resnet50", "resnet101", "resnet152"] if run_all else ["resnet50"]
    # The architecture argument is unused by sweeps: every grid point
    # gets the paper's PE_min + x chip.
    session = Session(paper_case_study(1))
    results = []
    for name in names:
        spec = benchmark_by_name(name)
        print(f"sweeping {name} (PE_min = {spec.min_pes})...")
        results.extend(session.sweep([spec], xs=(4, 16, 32)))

    print()
    print(fig7a_report(results))
    print()
    print(fig7b_report(results))

    if run_all:
        print()
        utils = [r.best_utilization().utilization for r in results]
        xinf = [r.series("xinf")[0].speedup for r in results]
        print(
            "Depth trends (paper, Sec. V-B): utilization falls "
            f"({' > '.join(f'{100 * u:.1f}%' for u in utils)}) while the "
            f"xinf speedup grows ({' < '.join(f'{s:.1f}x' for s in xinf)})."
        )


if __name__ == "__main__":
    main(run_all="--all" in sys.argv[1:])
