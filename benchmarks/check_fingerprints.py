"""The fingerprint A/B gate: do the DES workloads still simulate the
same numbers?

Runs ``benchmarks/marpbench/run.py --child pass`` for every (workload,
sub-seed) pair pinned in ``benchmarks/sim_fingerprints.txt`` — each in a
fresh interpreter, ~15 s in all — and compares the ``sim_fingerprint``
each prints with the pinned one. Exit 1 on any difference or on a pass
that reports a problem; every line shows the fingerprint it got, so a
change that moves simulated results on purpose edits the table from
the output.

    python benchmarks/check_fingerprints.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "sim_fingerprints.txt")
RUN = os.path.join(HERE, "marpbench", "run.py")


def one_pass(workload: str, seed: str) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--child", "pass",
         "--workload", workload, "--seed", seed],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    moved = 0
    with open(TABLE) as table:
        for line in table:
            if not line.strip() or line.startswith("#"):
                continue
            workload, seed, pinned = line.split()
            result = one_pass(workload, seed)
            got = result["sim_fingerprint"]
            ok = got == pinned and not result["problems"]
            print(f"{workload} {seed} {got} {'ok' if ok else 'MOVED from ' + pinned}"
                  + "".join(f" [{p}]" for p in result["problems"]))
            moved += not ok
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
