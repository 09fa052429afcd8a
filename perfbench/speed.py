"""Machine-speed probe that puts the benchmark's timings on a fixed scale.

On a shared virtual machine a core runs the same Python code at one speed
for a few seconds, then at little more than half that speed while a
neighbour loads the host core under it, and the share of slow time drifts
from minute to minute.  The process CPU time grows with the wall time in the
slow phases (the guest counts no steal time for them), so neither wall nor
CPU time of a campaign repeats from run to run.

While a benchmark child runs, the benchmark process runs ``probe()`` every
``INTERVAL_S`` seconds on the same CPU as the child (both are pinned to it).
``REFERENCE_S / probe()`` is the core's speed at that moment relative to an
uncontended core, and the mean over the child's lifetime scales its times to
what they take on an uncontended core.  The probe mixes the operations the
campaign kernels spend their time in: tuple-keyed dicts, sorting, frozensets,
exact fractions, big-integer products and small-integer arithmetic.  On the
benchmark workloads on a 2-vCPU KVM guest, scaling brings the run-to-run
spread (quartile distance over median, 10 runs of 30 s) of the campaign time
from 14-26% down to 1-3%.

The probe is fixed code of the benchmark and imports nothing of the program,
so a change to the program cannot move the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Thread CPU seconds one probe() takes beside a running campaign in the fast
# phase of a 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids) host with
# CPython 3.11.  It fixes the unit; any constant would keep ratios intact.
REFERENCE_S = 1.3e-3
# Pause between probes: at least 5 samples fall inside the shortest child
# (a set-up probe), and the probes take 5 to 9% of the CPU.
INTERVAL_S = 0.025

_BIG = 3**300


def _work() -> int:
    counts: dict = {}
    for i in range(600):
        key = (i & 31, (i >> 5) & 31)
        counts[key] = counts.get(key, 0) + 1
    pairs = sorted(counts.items())
    sets = {frozenset((i % 17, i % 13)) for i in range(200)}
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 3)
    product = 0
    for i in range(300):
        product += _BIG * (_BIG + i) // (i + 7)
    table: dict = {}
    for i in range(800):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + (i * i) % 7
    return len(pairs) + len(sets) + total.denominator + product % 5 + len(table)


def probe() -> float:
    """Thread CPU seconds of one fixed unit of work.  CPU time, not wall
    time, so a probe that the child preempts still reads true."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start
