"""The benchmark's tracer (perfbench/tracer.py) wraps homcert functions by
name; run it on a small campaign so that renaming one of them fails here and
not only in the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from homcert.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_tracer_runs_a_campaign_as_the_cli_does(capsys, tmp_path):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "trials": 1,
        "families": [{"family": "cycle", "length": 4},
                     {"family": "random-regular", "degree": 2, "half": 3}],
        "grids": {"targets": ["hind", "k3"],
                  "activities": ["unit", {"vertex": {"0": {"lambda": "1/2"}}}]},
        "propositions": ["hom-ub", "weighted-ub", "eta-sandwich", "bireg-ub", "lift-identity",
                         "double-identity", "nonbipartite-lower-bound-failure"],
    }))
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HOMCERT_BUDGET", None)
    proc = subprocess.run([sys.executable, str(TRACER), str(config), str(summary)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert main(["certify", "--config", str(config)]) == 0
    assert proc.stdout.decode() == capsys.readouterr().out
    doc = json.loads(summary.read_text())
    for layer in _tracer_layers():
        assert layer in doc["self_s"] and f"{layer}.calls" in doc["counts"]
    # the hooks took: the campaign and its one demo report passed through them
    assert doc["counts"]["certify.run_campaign.calls"] == 1
    assert doc["counts"]["certify.certifiers.calls"] == 1
