#!/usr/bin/env python3
"""Checks the "p90 ms" column of `cookiepicker stats`.

    python3 tools/check_stats_p90.py path/to/cookiepicker WORK_DIR

Runs one stats campaign with --metrics-out and requires every printed p90 to
equal the p90_ms the metrics file records for the same phase of the same
run (to the table's four decimals). Exits non-zero on any mismatch.
"""

import json
import os
import subprocess
import sys


def main(cli, work_dir):
    os.makedirs(work_dir, exist_ok=True)
    metrics_path = os.path.join(work_dir, "stats_p90_metrics.json")
    printed = subprocess.run(
        [cli, "stats", "--sites", "8", "--views", "8",
         "--metrics-out", metrics_path],
        check=True, capture_output=True, text=True).stdout
    with open(metrics_path) as handle:
        timing = json.load(handle)["timing"]

    # The table: a title line, a header line, then one row per phase:
    # phase  count  total-ms  mean-ms  p90-ms  share
    table = printed.split("per-phase host time", 1)[1].splitlines()[2:]
    rows = 0
    failures = 0
    for line in table:
        fields = line.split()
        if len(fields) != 6:
            break
        rows += 1
        phase, p90 = fields[0], float(fields[4])
        expected = timing[phase]["p90_ms"]
        if abs(p90 - expected) > 0.5e-4:
            failures += 1
            print(f"{phase}: printed p90 {fields[4]} ms, "
                  f"metrics p90_ms {expected}")
    if rows == 0:
        print("no per-phase rows in the stats output")
        return 1
    print(f"{rows} phases checked, {failures} mismatched")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
