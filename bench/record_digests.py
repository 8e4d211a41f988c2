"""Record the stdout SHA-256 of every CLI item into digests.json.

    python3 bench/record_digests.py

Run from the root of a checkout, at the commit whose output is the
reference.  Items whose argv carries no seed are recorded once; seeded items
are recorded at the seeds that workload seeds 0 .. 31 give them, and the
benchmark compares a seeded item's stdout only at those seeds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

SEEDS = range(32)


def main() -> int:
    pkg = workloads.load_package()
    table: dict = {}
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for item in workloads.build_workload(name, seed, pkg):
                if item.argv is None:
                    continue
                seeded = "--seed" in item.argv
                if not seeded and seed > 0:
                    continue
                code, out = workloads.run_cli(pkg, item.argv)
                if code != 0:
                    raise SystemExit(f"{item.id} exited {code} at seed {seed}")
                digest = hashlib.sha256(out.encode()).hexdigest()
                if seeded:
                    pattern, argv_seed = workloads.seed_pattern(item.argv)
                    table.setdefault(pattern, {})[argv_seed] = digest
                else:
                    table[" ".join(item.argv)] = digest
    workloads.DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
