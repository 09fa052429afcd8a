#!/usr/bin/env python3
"""Record the correctness reference of every workload from the current code.

    python3 perfbench/record_reference.py

Runs each workload once through ``homcert certify --config`` and writes its
verdict counts, the indices of its skipped-budget reports and its report
digests to ``perfbench/reference.json``.  The committed file was recorded
from the program before any optimisation; re-record it only when a change
is meant to alter verdicts or reports.
"""

import json
import sys
import time

from run import (REFERENCE, RUN_LIMIT_S, WORK, WORKLOAD_DIR, certify_argv, pin_to_one_cpu,
                 run_child, stream_facts, workload_names)


def main() -> int:
    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    reference = {}
    for workload in workload_names():
        out = WORK / f"{workload}.stream"
        sample = run_child(certify_argv(WORKLOAD_DIR / f"{workload}.json"), out,
                           time.monotonic() + RUN_LIMIT_S)
        if sample.status != 0:
            print(f"{workload}: exit code {sample.status}", file=sys.stderr)
            return 1
        reference[workload] = stream_facts(out)
        print(f"{workload}: {reference[workload]['verdicts']} in {sample.raw_wall:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
