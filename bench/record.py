"""Record reference values for every query any seed can draw.

    python3 bench/record.py [workload ...]

Runs each pooled query of the recorded kinds once through the library at
the current commit and stores the value in ``reference.json``, keyed by
query kind and sorted input.  Run it only on a commit whose answers are
trusted (it was run on the commit that introduced the benchmark); keys
already present are kept, so re-running adds only new queries, and keys
no seed can draw any more are dropped.
"""

from __future__ import annotations

import json
import sys
import warnings

import execute
import run
import workloads


def main(argv) -> int:
    mods = run.load_library()
    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in argv or workloads.WORKLOADS:
        table = reference.setdefault(workload, {})
        pooled = workloads.pool(workload)
        for key in set(table) - {q.key() for q in pooled}:
            del table[key]
        for q in pooled:
            if q.kind not in execute.RECORDED_KINDS or q.key() in table:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                data = execute.extract(q.kind, execute.call(mods, q))
            table[q.key()] = execute.recorded_value(q.kind, data)
        print(f"{workload}: {len(table)} recorded values", file=sys.stderr)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
