"""Write perfbench/reference.json from the current program at seed 0.

    python3 perfbench/make_reference.py

The reference holds what the checks compare against for the seeded
workloads: t_eqm, c_eqm, the final profile, the event log, edge count,
SCC sizes, pendant in-vertices and the DOT digest.  Regenerate it only
when a change of behaviour is intended and explained.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    ref = {}
    for name in ("large_mixture", "placement_graph"):
        w = workloads.WORKLOADS[name]
        inputs = w.setup(0)
        ref[name] = w.reference(inputs, w.run(inputs, lambda name: None))
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
