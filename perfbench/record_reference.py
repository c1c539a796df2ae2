"""Record the reference outputs the benchmark's checks compare against.

Run from the repository root when a change is *meant* to move the physics
beyond the checks' tolerances, and say so in that change:

    PYTHONPATH=src python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json`` with the outcome of the fixed
full-array reference array and one regenerated figure set.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (needs the benchmark directory on sys.path)


def main() -> None:
    engine = workloads.full_array_engine(workloads.FULL_ARRAY_REFERENCE_SEED)
    full_array = workloads.full_array_outcome(engine.run_batch(1, 0))
    figures = workloads.run_figure_set(np.random.default_rng(0))
    figures.pop("unflipped")
    reference = {"full_array_64": full_array, "paper_figures": figures}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
