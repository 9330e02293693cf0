#!/usr/bin/env python3
"""Compare the measurement fields of two BENCH_*.json files by run label.

Used by the perf-smoke lane in scripts/ci.sh: a freshly generated bench
JSON is diffed against the committed golden. For F2 the candidate is the
ambb_sweep output of tools/specs/f2_scaling.spec, the n <= 64 head of the
bench grid (20 of its 23 rows). Runs are matched by label; labels present
in only one file are skipped, but at least one label must match. Every
MEASUREMENT field must be bit-identical
— these are deterministic outputs of the simulation and may never drift
under a pure performance change. Wall-clock and ns_* timing fields are
environment noise and are excluded.

Exit status: 0 if all shared labels agree, 1 otherwise.

Usage: check_bench_fields.py GOLDEN.json CANDIDATE.json
"""

import json
import sys

# Deterministic simulation outputs: any drift is a correctness regression.
MEASUREMENT_FIELDS = [
    "n",
    "f",
    "slots",
    "rounds",
    "honest_bits",
    "adversary_bits",
    "amortized_bits_per_slot",
    "records",
    "deliveries",
    "erasures",
    "corruptions",
    "violations",
]


def runs_by_label(path):
    with open(path) as fh:
        doc = json.load(fh)
    runs = {}
    for run in doc.get("runs", []):
        label = run.get("label")
        if label is None:
            print(f"{path}: run without a label", file=sys.stderr)
            sys.exit(1)
        if label in runs:
            print(f"{path}: duplicate label {label!r}", file=sys.stderr)
            sys.exit(1)
        runs[label] = run
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    golden_path, candidate_path = argv[1], argv[2]
    golden = runs_by_label(golden_path)
    candidate = runs_by_label(candidate_path)

    shared = [label for label in candidate if label in golden]
    if not shared:
        print(
            f"no shared labels between {golden_path} and {candidate_path}",
            file=sys.stderr,
        )
        return 1

    failures = 0
    for label in shared:
        for field in MEASUREMENT_FIELDS:
            want = golden[label].get(field)
            got = candidate[label].get(field)
            if want != got:
                print(
                    f"MEASUREMENT DRIFT: {label}.{field}: "
                    f"golden={want!r} candidate={got!r}",
                    file=sys.stderr,
                )
                failures += 1

    skipped = [label for label in candidate if label not in golden]
    print(
        f"checked {len(shared)} run(s) x {len(MEASUREMENT_FIELDS)} fields "
        f"against {golden_path}"
        + (f" (skipped new labels: {', '.join(skipped)})" if skipped else "")
    )
    if failures:
        print(f"{failures} field mismatch(es)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
