"""Regenerate the frozen references.

    python3 perfbench/make_refs.py [workload ...]

Writes perfbench/refs/<workload>.json: for every seed in FROZEN_SEEDS, every
case with its reference values and the difference between the two
refinements of the reference grid (which must stay below
reference.SELF_CONVERGENCE). One case per line.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# one BLAS thread, as in the benchmark's workers: with more, the last digits of
# a reference change from one regeneration to the next
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from cases import WORKLOADS, make_cases  # noqa: E402
from reference import REFINEMENTS, SELF_CONVERGENCE, case_reference  # noqa: E402

FROZEN_SEEDS = range(1, 21)


def main(workloads) -> int:
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for workload in workloads:
        head = json.dumps({"workload": workload, "refinements": REFINEMENTS,
                           "self_convergence_limit": SELF_CONVERGENCE})
        seeds = []
        for seed in FROZEN_SEEDS:
            lines = []
            for case in make_cases(workload, seed):
                record = dict(case=case, **case_reference(case))
                lines.append(f"  {json.dumps(case['id'])}: {json.dumps(record)}")
                print(f"{seed} {case['id']}: self-convergence {record['self_convergence']:.1e}",
                      flush=True)
            seeds.append(f' "{seed}": {{\n' + ",\n".join(lines) + "\n }")
        with open(os.path.join(HERE, "refs", f"{workload}.json"), "w") as handle:
            handle.write(head[:-1] + ', "seeds": {\n' + ",\n".join(seeds) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
