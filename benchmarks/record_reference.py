"""Record reference.json: every operation's outputs, per seed slot.

    python3 benchmarks/record_reference.py [WORKLOAD ...]

Runs one plain pass per workload and slot (acceptance once: its inputs are
pinned) and stores the summarized outputs that ``check.py`` compares
against.  Naming workloads re-records only those and keeps the others.  Outputs that a program change moves beyond the tolerances are a
behaviour change: re-record only on purpose, and say so with the change.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, OUT, ROOT, BenchError, launch

sys.path.insert(0, str(ROOT / "src"))
from workloads import REFERENCE_SLOTS  # noqa: E402


def main(argv: list[str]) -> int:
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    slots = {"acceptance": [0], "execute-rot1000": range(REFERENCE_SLOTS),
             "ode-logistic": range(REFERENCE_SLOTS)}
    for workload in argv or slots:
        reference[workload] = {}
        for seed in slots[workload]:
            result = launch(workload, seed, "plain", "ref",
                            time.monotonic() + 170.0)
            ops = {}
            for op in result["ops"]:
                if op["error"]:
                    raise BenchError(f"{workload} seed {seed}: {op['error']}")
                ops[op["name"]] = op["outputs"]
            reference[workload][result["reference_key"]] = ops
            print(f"{workload} {result['reference_key']}: recorded", flush=True)
    path.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
