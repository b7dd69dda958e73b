"""Record the distances the coarsen workload checks its outputs against.

Run from the root of a checkout: ``python3 perfbench/make_reference.py``.
It computes the search and chain legs on the unpermuted paper fine tube
and writes ``perfbench/reference.json``.
"""

import json
import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gpcn.gdd import coarse_search, limit_curve  # noqa: E402
from gpcn.graphs import make_tube  # noqa: E402
from workloads import Coarsen  # noqa: E402

if __name__ == "__main__":
    reference = {
        "gdd.search": coarse_search(make_tube(*Coarsen.fine), **Coarsen.candidates),
        "gdd.chain": limit_curve(Coarsen.limit_n),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
