#!/usr/bin/env python3
"""Fails when a seed-1 perfbench result falls below the paper's numbers.

    python3 tools/perfbench_quality_gate.py annotate ANNOTATE.json \
        search SEARCH.json

Each RESULT.json holds the last stdout line of
`python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0`.
On the seeded synthetic world the quality metrics (Fig. 6 annotation
accuracy, Fig. 9 search MAP) are exact, so the gate fails when
success_rate is below 1 or a quality metric reads more than BOUND
(BENCHMARK.json's bound for these metrics) below its seed-1 baseline.
A change that moves a baseline on purpose updates it here.
"""

import json
import sys

BOUND = 0.001

# Seed-1 values of the quality metrics, per workload.
BASELINES = {
    "annotate": {
        "entity_accuracy": 0.819886472351553,
        "type_f1": 0.9904963041182682,
        "relation_f1": 0.9780123131046613,
        "search_map": 0.8420915992393272,
    },
    "search": {
        "entity_accuracy": 0.8900938328199985,
        "type_f1": 0.9901693063899508,
        "relation_f1": 0.9970817120622568,
        "search_map": 0.8420915992393272,
    },
}


def check(workload, path):
    with open(path) as f:
        metrics = json.loads(f.read().strip().splitlines()[-1])["metrics"]
    failures = []
    success = metrics["success_rate"]["value"]
    if success < 1:
        failures.append("%s: success_rate %r < 1" % (workload, success))
    for name, baseline in BASELINES[workload].items():
        value = metrics[name]["value"]
        if value < baseline - BOUND:
            failures.append("%s: %s %r is more than %g below %r" %
                            (workload, name, value, BOUND, baseline))
    return failures


def main(argv):
    if len(argv) < 2 or len(argv) % 2 != 0 or any(
            w not in BASELINES for w in argv[0::2]):
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    for workload, path in zip(argv[0::2], argv[1::2]):
        failures += check(workload, path)
    for failure in failures:
        print("perfbench_quality_gate: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
