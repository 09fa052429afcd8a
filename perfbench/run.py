#!/usr/bin/env python3
"""Campaign benchmark for homcert.

Each workload is a campaign config in ``perfbench/workloads/``; the names,
the reason for each and the metric declarations are in ``BENCHMARK.json``.
One run measures for about ``--seconds`` seconds, one child process at a
time (a single closed loop, so a slower program receives less load):

* ``--trace 0``: fresh interpreters that only import homcert and load the
  config (set-up time), then ``python -m homcert certify --config FILE``
  children back to back, each timed from spawn to exit with its own rusage.
  Reports the end-to-end metrics: medians over the children.
* ``--trace 1``: untraced certify children alternating with traced children
  (``perfbench/tracer.py``) that wrap each layer's public functions.  Reports
  the per-layer self times (medians) and work counts.

Every time is scaled to an uncontended core.  The benchmark and its
children run pinned to one CPU; while a child runs, the benchmark samples
that CPU's speed with the fixed probe in ``perfbench/speed.py``, and the
child's wall time leaves out what the probes took and what the hypervisor
stole from the CPU.  The campaign wall time before scaling is printed beside
the metrics.

Every campaign child passes the correctness gate: exit code 0, the verdict
counts and report digests recorded in ``perfbench/reference.json``, and a
report stream byte-identical across all runs of a workload on the same
source tree.  The work counts must repeat exactly in the same way.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 1 when a gate failed.

    python3 perfbench/run.py --workload cubic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every metric, every workload

The workload inputs are the pinned campaign configs, instance seeds
included, so ``--seed`` is recorded but every seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_DIR = HERE / "workloads"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench-work"
STDERR = WORK / "stderr.txt"

# Set-up probes per run; set-up time is their median.
SETUP_PROBES = 9
# A run that has not ended this long after its start is killed and fails
# the gate, so every run exits well within three minutes.
RUN_LIMIT_S = 170.0

# Printed beside the metrics: the campaign wall time before speed scaling.
RAW_WALL = "raw_campaign_s"

HOLDS = "holds"
SKIPPED = "skipped-budget"


class GateError(Exception):
    """A correctness gate failed."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


# ---------------------------------------------------------------------------
# Children


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HOMCERT_BUDGET", None)
    return env


class Sample(NamedTuple):
    """One child, timed through ``spawn.py`` while the speed probe ran."""

    status: int
    raw_wall: float  # s from spawn to exit, less ``lost``
    raw_cpu: float  # user + sys s of the child
    rss_mb: float
    speed: float  # mean of speed.REFERENCE_S / probe time while the child ran
    lost: float  # s the CPU ran the probes or was stolen by the hypervisor

    @property
    def wall(self) -> float:
        return self.raw_wall * self.speed

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.speed

    def scale_inner(self, seconds: float) -> float:
        """Scale a wall-clock span the child measured itself, which
        includes the ``lost`` time, like ``wall``."""
        return seconds * self.raw_wall / (self.raw_wall + self.lost) * self.speed


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU, so that
    the speed probe samples the core the child runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def steal_s(cpu: int) -> float:
    """Seconds the hypervisor has kept ``cpu`` from running the guest.
    The guest counts them in no process's CPU time, only in wall time."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no cpu{cpu} line in /proc/stat")


def run_child(argv, stdout_path: Path, deadline: float) -> Sample:
    """Run one child to completion through ``spawn.py``, probing the CPU's
    speed until it exits.  This process must be pinned to one CPU.

    The launcher and the child run in a process group of their own; both
    are killed when the deadline passes or this process is interrupted."""
    (cpu,) = os.sched_getaffinity(0)
    launcher = [sys.executable, "-S", str(HERE / "spawn.py"), str(stdout_path), str(STDERR)]
    stolen = steal_s(cpu)
    proc = subprocess.Popen([*launcher, *argv], stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, process_group=0)
    probes = []
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(argv, RUN_LIMIT_S)
            probes.append(speed.probe())
            time.sleep(speed.INTERVAL_S)
        line = proc.stdout.read()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    stolen = steal_s(cpu) - stolen
    if proc.returncode != 0:
        raise GateError(f"launcher exit code {proc.returncode}")
    status, wall, cpu_s, maxrss_kb = line.split()
    lost = sum(probes) + stolen
    return Sample(int(status), float(wall) - lost, float(cpu_s), int(maxrss_kb) / 1024,
                  statistics.fmean(speed.REFERENCE_S / p for p in probes), lost)


def certify_argv(config: Path):
    return [sys.executable, "-m", "homcert", "certify", "--config", str(config)]


def traced_argv(config: Path, summary: Path):
    return [sys.executable, str(HERE / "tracer.py"), str(config), str(summary)]


def setup_argv(config: Path):
    code = "import sys, homcert; from homcert import certify; certify.load_campaign(sys.argv[1])"
    return [sys.executable, "-c", code, str(config)]


# ---------------------------------------------------------------------------
# Correctness gate


def _line(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def stream_facts(path: Path, skipped_at_reference=None) -> dict:
    """Verdict counts and digests of the report stream in ``path``.

    ``key_digest`` covers each report's (check, instance); ``decided_digest``
    adds the bound values and the verdict, over every report not skipped at
    the reference (by default: not skipped in this stream).  Neither covers
    ``details`` or ``note``, so reports may gain fields without moving the
    digests.  The stream is read one report at a time: a child's peak RSS
    includes the RSS high-water mark of the process that spawned it."""
    keys = hashlib.sha256()
    decided = hashlib.sha256()
    verdicts: Counter = Counter()
    skipped = []
    reports = 0
    ref_skipped = None if skipped_at_reference is None else set(skipped_at_reference)
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            r = json.loads(line)
            reports += 1
            verdicts[r["verdict"]] += 1
            if r["verdict"] == SKIPPED:
                skipped.append(i)
            keys.update(_line([r["check"], r["instance"]]))
            undecided = r["verdict"] == SKIPPED if ref_skipped is None else i in ref_skipped
            if not undecided:
                bounds = [[b["lhs"], b["rhs"]] for b in r["bounds"]]
                decided.update(_line([r["check"], r["instance"], bounds, r["verdict"]]))
    return {
        "reports": reports,
        "verdicts": dict(sorted(verdicts.items())),
        "skipped": skipped,
        "key_digest": keys.hexdigest(),
        "decided_digest": decided.hexdigest(),
    }


def check_stream(path: Path, ref: dict) -> dict:
    """Gate one report stream against the reference; returns its facts.

    A report skipped for budget at the reference may come back ``holds``
    (a faster counter decides it); every other report must match exactly."""
    facts = stream_facts(path, ref["skipped"])
    for key in ("reports", "key_digest", "decided_digest"):
        if facts[key] != ref[key]:
            raise GateError(f"{key} {facts[key]} != reference {ref[key]}")
    now_decided = len(ref["skipped"]) - len(facts["skipped"])
    expected = Counter(ref["verdicts"])
    expected[SKIPPED] -= now_decided
    expected[HOLDS] += now_decided
    if +expected != Counter(facts["verdicts"]):
        raise GateError(f"verdicts {facts['verdicts']} != reference {ref['verdicts']}")
    return facts


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def source_digest() -> str:
    """Digest of the program's source tree, which keys the cross-run checks."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def same_across_runs(key: str, value: str) -> bool:
    """True when ``value`` matches what earlier runs on this source tree
    recorded under ``key`` (the first run records it)."""
    path = WORK / f"{key}.{source_digest()}"
    if path.exists():
        return path.read_text(encoding="utf-8") == value
    path.write_text(value, encoding="utf-8")
    return True


# ---------------------------------------------------------------------------
# Measurement


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """One measured run of one workload: its deadline, gate state and tally."""

    def __init__(self, workload: str, seconds: int):
        self.workload = workload
        self.config = WORKLOAD_DIR / f"{workload}.json"
        self.ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
        start = time.monotonic()
        self.deadline = start + seconds
        self.hard_deadline = start + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.stream_digest: str | None = None
        self.facts: dict | None = None

    def more(self, next_cost: float) -> bool:
        """Whether a step expected to take ``next_cost`` seconds still ends
        before the deadline, so a run lasts about ``--seconds``."""
        return time.monotonic() + next_cost <= self.deadline

    def fail(self, message: str):
        self.failures.append(message)
        print(f"GATE FAILED [{self.workload}]: {message}", file=sys.stderr)

    def child(self, argv, out: Path) -> Sample:
        """One child that must exit with 0."""
        try:
            sample = run_child(argv, out, self.hard_deadline)
        except subprocess.TimeoutExpired:
            raise GateError(f"no exit within {RUN_LIMIT_S:g} s of the run's start") from None
        if sample.status != 0:
            err = STDERR.read_text(encoding="utf-8", errors="replace")
            raise GateError(f"exit code {sample.status}: {err.strip()[-500:]}")
        return sample

    def campaign(self, argv, out: Path):
        """One certify (or traced) child through the gate; None if it failed."""
        self.attempted += 1
        try:
            sample = self.child(argv, out)
            digest = file_digest(out)
            if self.stream_digest is None:
                self.facts = check_stream(out, self.ref)
                if not same_across_runs(f"{self.workload}.stream-sha256", digest):
                    raise GateError("report stream differs from an earlier run")
                self.stream_digest = digest
            elif digest != self.stream_digest:
                raise GateError("report stream differs between runs")
        except GateError as exc:
            self.fail(str(exc))
            return None
        return sample

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def measure_end_to_end(run: Run) -> dict:
    """Samples of every end-to-end metric, by name, and the raw wall times
    of the campaign children."""
    try:
        setup = [run.child(setup_argv(run.config), WORK / "setup.out")
                 for _ in range(SETUP_PROBES)]
    except GateError as exc:
        run.fail(f"set-up probe: {exc}")
        return {}
    samples, durations = [], []
    out = WORK / f"{run.workload}.stream"
    while not durations or run.more(statistics.median(durations)):
        start = time.monotonic()
        sample = run.campaign(certify_argv(run.config), out)
        if sample is None:
            return {}
        durations.append(time.monotonic() - start)
        samples.append(sample)
    return {
        "campaign_s": [s.wall for s in samples],
        "cpu_s": [s.cpu for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "setup_s": [s.wall for s in setup],
        "verdict_frac": [1 - len(run.facts["skipped"]) / run.facts["reports"]],
        RAW_WALL: [s.raw_wall for s in samples],
    }


def measure_per_layer(run: Run) -> dict:
    """Every per-layer metric, by name: medians of the traced self times,
    work counts that repeat exactly, and the tracing overhead."""
    untraced, traced, summaries = [], [], []
    plain_out = WORK / f"{run.workload}.stream"
    traced_out = WORK / f"{run.workload}.traced.stream"
    summary_path = WORK / f"{run.workload}.summary.json"
    while not run.failures and (
            not traced or run.more(statistics.median(untraced) + statistics.median(traced))):
        sample = run.campaign(certify_argv(run.config), plain_out)
        if sample is None:
            break
        untraced.append(sample.wall)
        sample = run.campaign(traced_argv(run.config, summary_path), traced_out)
        if sample is None:
            break
        traced.append(sample.wall)
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        summary["self_s"] = {k: sample.scale_inner(v) for k, v in summary["self_s"].items()}
        summaries.append(summary)
    if run.failures:
        return {}
    counts = summaries[0]["counts"]
    if any(s["counts"] != counts for s in summaries):
        run.fail("per-layer counts differ between traced runs")
    if not same_across_runs(f"{run.workload}.counts", json.dumps(counts, sort_keys=True)):
        run.fail("per-layer counts differ from an earlier run")
    values = {
        f"{layer}.self_s": statistics.median(s["self_s"][layer] for s in summaries)
        for layer in summaries[0]["self_s"]
    }
    values.update(counts)
    traced_s = statistics.median(traced)
    values["trace.campaign_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(untraced)
    values["trace.unaccounted_s"] = statistics.median(
        wall - sum(s["self_s"].values()) for wall, s in zip(traced, summaries))
    return values


def measure(workload: str, seconds: int, trace: int):
    """One run; returns (result line, samples of the end-to-end metrics)."""
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    run = Run(workload, seconds)
    # Compile the bytecode once, as an installed package would have it.
    try:
        run.child([sys.executable, "-c", "import homcert"], WORK / "warmup.out")
    except GateError as exc:
        run.fail(f"import: {exc}")
        return run.result({}), {}
    if trace:
        samples = {}
        values = measure_per_layer(run)
    else:
        samples = measure_end_to_end(run)
        values = {name: statistics.median(v) for name, v in samples.items()}
    if run.failures:
        return run.result({}), {}
    if set(values) - {RAW_WALL} != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from {SPEC.name}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return run.result(metrics), samples


# ---------------------------------------------------------------------------
# Reporting


def print_metrics(workload: str, result: dict, samples: dict):
    metrics = result["metrics"]
    traced = metrics.get("trace.campaign_s", {}).get("value")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        line = f"{workload:14} {name:46} {shown} {metric['unit']}"
        if name in samples:
            q1, q3 = quartiles(samples[name])
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})"
        elif traced and name.endswith(".self_s"):
            line += f"  ({100 * metric['value'] / traced:.1f}% of trace.campaign_s)"
        print(line)
    if RAW_WALL in samples:
        raw = samples[RAW_WALL]
        q1, q3 = quartiles(raw)
        print(f"{workload:14} {RAW_WALL + ' (not scaled)':46} {statistics.median(raw):>16.6g} s"
              f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(raw)})")


def run_all(seconds: int, out: str | None) -> int:
    """Both modes on every workload; optionally write the summary to ``out``."""
    spec = load_spec()
    summary = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"# {name}: {workload['why']}", flush=True)
        e2e, samples = measure(name, seconds, 0)
        print_metrics(name, e2e, samples)
        layers, _ = measure(name, seconds, 1)
        print_metrics(name, layers, {})
        correct = e2e["correct"] and layers["correct"]
        ok = ok and correct
        summary["workloads"][name] = {
            "correct": correct,
            "end_to_end": {
                metric: {"unit": m["unit"], "median": m["value"],
                         "q1": quartiles(samples[metric])[0],
                         "q3": quartiles(samples[metric])[1],
                         "samples": len(samples[metric])}
                for metric, m in e2e["metrics"].items()
            },
            "per_layer": layers["metrics"],
        }
    if out:
        Path(out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (SRC / "homcert" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a homcert checkout; {SRC / 'homcert'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names(), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the summary JSON here")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so run_child stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args.seconds, args.out)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    result, samples = measure(args.workload, args.seconds, args.trace)
    print_metrics(args.workload, result, samples)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
