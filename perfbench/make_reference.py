"""Write reference.json: the answer to every instance any workload can draw.

Run from the repository root:

    python3 perfbench/make_reference.py

The benchmark counts any difference from this file as a failed instance, so
regenerate it only when an answer is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domrat import GeneratorSet, domination_ratio, eds_exists, oracle_scan  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    ratio_sets = {GeneratorSet(els) for els in
                  workloads.swarm_universe() + workloads.wide_universe()
                  + [workloads.WORKLOADS["ratio_wide"].warmup]}
    ratio_sets |= {gs.negate() for gs in ratio_sets}
    ratio = {}
    for gs in sorted(ratio_sets, key=lambda g: (g.c, g.elements)):
        cert = domination_ratio(gs, c_max=workloads.WIDE_C_MAX)
        found, witness = eds_exists(gs, c_max=workloads.WIDE_C_MAX)
        ratio[str(gs)] = {
            "ratio": str(cert.ratio),
            "cycle": list(cert.cycle),
            "period": cert.period,
            "eds": [witness.period, sorted(witness.residues)] if found else None,
        }
    scan = {}
    top = workloads.CIRC_N_LIMIT
    for els in workloads.circulant_universe():
        gs = GeneratorSet(els)
        scan[str(gs)] = [list(row) for row in oracle_scan(gs, top, n_max=top)]
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump({"ratio": ratio, "scan": scan}, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
