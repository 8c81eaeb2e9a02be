#!/usr/bin/env python3
"""Quick self-test of the benchmark harness at tiny sizes (about a minute).

Run from the repository root: ``python3 perfbench/selftest.py``.

For every workload, at tiny problem sizes, it checks that

* an untraced run reports exactly the end-to-end metrics of
  ``BENCHMARK.json``, each with its unit, plus the workload's throughput,
  ``failed_share`` and ``ops_total``, and that every output check passes;
* a traced run reports exactly the per-layer metrics of ``BENCHMARK.json``
  with their units, leaves the CSV payloads byte-identical to an untraced
  run, and repeats its call counts and computed sizes exactly (both checked
  inside ``run.trace``).
"""

import json
import sys

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(spec_metrics) -> dict:
    return {m["name"]: m["unit"] for m in spec_metrics}


def main() -> int:
    problems = []
    end_to_end = _units(SPEC["end_to_end"])
    per_layer = _units(SPEC["per_layer"])
    for name, workload in WORKLOADS.items():
        plain = run.measure(workload, seed=1, seconds=0.0, tiny=True)
        traced = run.trace(workload, seed=1, tiny=True)
        expected_extras = {"failed_share", "ops_total"} | ({workload.rate_name} - {None})
        checks = [
            (sorted(plain["metrics"]) == sorted(end_to_end), "untraced metrics differ from BENCHMARK.json"),
            (all(run.unit_of(m) == end_to_end[m] for m in plain["metrics"]), "an end-to-end unit differs"),
            (expected_extras <= set(plain["extras"]), f"missing one of {sorted(expected_extras)}"),
            (sorted(traced["metrics"]) == sorted(per_layer), "traced metrics differ from BENCHMARK.json"),
            (all(run.unit_of(m) == per_layer[m] for m in traced["metrics"]), "a per-layer unit differs"),
            (not plain["failures"], f"untraced failures {plain['failures']}"),
            (not traced["failures"], f"traced failures {traced['failures']}"),
            (plain["failed"] == traced["failed"] == 0, "failed operations"),
        ]
        failed = [message for ok, message in checks if not ok]
        print(f"{name:18s} {'ok' if not failed else 'FAILED: ' + '; '.join(failed)}")
        problems += failed
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
