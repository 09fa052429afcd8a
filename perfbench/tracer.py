"""Traced campaign run: the per-layer half of the benchmark.

    python perfbench/tracer.py CONFIG SUMMARY_OUT

Imports homcert, wraps each layer's public functions at every module
attribute where a caller looks them up, calls ``certify.run_campaign`` on
CONFIG with one thread and writes the report stream to stdout, exactly as
``homcert certify --config CONFIG`` would.  Spans (name, start, end, parent)
stay in memory; on exit their per-layer aggregate is written to SUMMARY_OUT
as JSON.  The exit code is the campaign exit code, as in the CLI.

A layer's self time is its span minus the time covered by its child spans,
so the self times of all layers plus the untraced rest of the process
(interpreter start, import, writing stdout) make up the wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Layer name -> attributes of the module the name starts with.  Several
# attributes may share one layer name; their spans are pooled.
LAYERS = {
    "homcount.partition_fn": ("partition_fn",),
    "homcount.count_homs": ("count_homs",),
    "homcount.count_homs_restricted": ("count_homs_restricted",),
    "closedform.kab_partition": ("kab_partition",),
    "closedform.knn_restricted_count": ("knn_restricted_count",),
    "eta.eta_two_sided": ("eta_two_sided",),
    "constructions.blowup": ("blowup",),
    "constructions.double": ("double",),
    "graphs.build_instance": ("build_instance",),
    "certify.certifiers": (
        "certify_hom_ub",
        "certify_weighted_ub",
        "certify_bireg",
        "certify_sandwich",
        "certify_lift_identity",
        "certify_double_identity",
        "sandwich_nonbipartite_demo",
    ),
    "certify.run_campaign": ("run_campaign",),
}


class Tracer:
    """In-memory span recorder with a stack for the parent link."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.homs = 0
        self.blowup_vertices = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name][type(exc).__name__] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if name == "homcount.count_homs":
                self.homs += result
            elif name == "constructions.blowup":
                self.blowup_vertices += result[0].graph.vertex_count
            return result

        return traced

    def install(self):
        """Replace every reference the homcert modules hold to a layer
        function, including the certifier dispatch table, by its wrapper."""
        from homcert import certify, closedform, constructions, eta, graphs, homcount

        modules = {
            "certify": certify, "closedform": closedform, "constructions": constructions,
            "eta": eta, "graphs": graphs, "homcount": homcount,
        }
        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(certify._CERTIFIERS)
        for name, attrs in LAYERS.items():
            module = modules[name.split(".")[0]]
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapper
        certify.CertReport.to_json_line = self.wrap(
            "certify.to_json_line", certify.CertReport.to_json_line)

    def summary(self) -> dict:
        """Per-layer self time and call count, plus the layer counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
            calls[name] += 1
        names = [*LAYERS, "certify.to_json_line"]
        return {
            "self_s": {n: self_s[n] for n in names},
            "counts": {
                **{f"{n}.calls": calls[n] for n in names},
                "homcount.partition_fn.budget_exceeded":
                    self.errors["homcount.partition_fn"]["BudgetExceededError"],
                "homcount.count_homs.budget_exceeded":
                    self.errors["homcount.count_homs"]["BudgetExceededError"],
                "homcount.count_homs.homs": self.homs,
                "closedform.kab_partition.subset_limit":
                    self.errors["closedform.kab_partition"]["SubsetLimitError"],
                "constructions.blowup.vertices": self.blowup_vertices,
            },
        }


def main(argv) -> int:
    config, summary_path = argv
    from homcert import certify

    tracer = Tracer()
    tracer.install()
    reports = certify.run_campaign(config)
    stream = certify.report_stream(reports).encode()
    sys.stdout.buffer.write(stream)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["counts"]["certify.stream_bytes"] = len(stream)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return certify.campaign_exit_code(reports)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
