import argparse
import gc
import hashlib
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import homcert
from homcert import ActivitySystem, GraphFormatError, certify as certify_mod
from homcert import cli as cli_mod, errors as errors_mod
from homcert.certify import DEFAULT_SEED
from homcert.cli import (
    EXIT_CLOSED_PIPE, _SUBCOMMANDS, _fixture_path, build_parser, main)
from homcert.graphs import (
    GENERATED_FAMILIES,
    build_instance,
    gen_complete_bipartite,
    serialize_bipartite,
)

FIX = _fixture_path("hind.json").parent


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_count_worked_example(capsys):
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "hind.json")
    assert code == 0
    assert json.loads(out) == {"count": "15"}


def test_count_accepts_plain_nonbipartite_graph(capsys):
    # the triangle has no homomorphism into a single edge
    code, out = run_cli(capsys, "count", "-g", FIX / "k3.json", "-H", FIX / "k2.json")
    assert code == 0 and json.loads(out) == {"count": "0"}


def test_count_independent_sets(capsys):
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "--independent-sets")
    assert code == 0 and json.loads(out) == {"count": "15"}


def test_eta_worked_example(capsys):
    code, out = run_cli(capsys, "eta", "-H", FIX / "k5.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "6"
    assert len(doc["A"]) * len(doc["B"]) == 6


def test_partition_with_activity_file(capsys, tmp_path):
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {"0": {"lambda": "2", "mu": "2"}}}))
    code, out = run_cli(
        capsys, "partition", "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "hind.json",
        "-a", acts,
    )
    assert code == 0 and json.loads(out) == {"value": "17"}


def test_knn_restricted_mode(capsys, tmp_path):
    target = tmp_path / "t.json"
    code, out = run_cli(capsys, "double", "-H", FIX / "hind.json", "-o", target)
    assert code == 0
    code, out = run_cli(capsys, "knn", "--n", "2", "-T", target)
    assert code == 0 and json.loads(out) == {"count": "7"}
    # knn reads exactly one of -T and --surjections, and no weighted target:
    # kab --a n --b n is the one route to Z(K_{n,n})
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {"1": {"lambda": "3", "mu": "1/2"}}}))
    for argv in (("-T", target, "--surjections", "2"), (), ("-H", FIX / "hind.json"),
                 ("-T", target, "-a", acts), ("--surjections", "2", "-a", acts)):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in ("knn", "--n", "2", *argv)])
        assert exc.value.code == 2
    capsys.readouterr()
    for n, unit, weighted in (("0", None, None), ("1", "3", "5"), ("3", "15", "383/4")):
        for weights, value in (((), unit), (("-a", acts), weighted)):
            code, out = run_cli(capsys, "kab", "--a", n, "--b", n, "-H", FIX / "hind.json",
                                *weights)
            if value is None:
                assert code == 2 and json.loads(out)["error"]["code"] == "input-error"
            else:
                assert code == 0 and json.loads(out) == {"value": value}


def test_restricted_count(capsys, tmp_path):
    # K_{2,2} into the double of hind, each side on its own side
    target = tmp_path / "t.json"
    code, _ = run_cli(capsys, "double", "-H", FIX / "hind.json", "-o", target)
    assert code == 0
    code, out = run_cli(capsys, "restricted", "-g", FIX / "knn.json", "--n", "2", "-T", target)
    assert code == 0 and json.loads(out) == {"count": "7"}


def test_kab(capsys):
    code, out = run_cli(capsys, "kab", "--a", "2", "--b", "1", "-H", FIX / "hind.json")
    assert code == 0 and json.loads(out) == {"value": "5"}


def test_double_output_is_two_sorted_document(capsys):
    code, out = run_cli(capsys, "double", "-H", FIX / "hind.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 4 and doc["upper"] == [0, 1]
    assert sorted(map(tuple, doc["edges"])) == [(0, 3), (1, 2), (1, 3)]


def test_blowup_output(capsys, tmp_path):
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {"0": {"lambda": "3/2", "mu": "1"}, "1": {"lambda": "3/2", "mu": "1"}}}))
    code, out = run_cli(capsys, "blowup", "-H", FIX / "hind.json", "-a", acts)
    assert code == 0
    doc = json.loads(out)
    assert doc["scale"] == "2"
    assert doc["upper_copies"] == [3, 3] and doc["lower_copies"] == [2, 2]
    assert doc["target"]["vertices"] == 10


# sha256 of the stdout of each command, recorded when two-sorted targets
# had a class of their own; the documents must not change with the type.
# "acts" stands for an activity file with lambda = 3/2 at both vertices.
PINNED_STDOUT = {
    "double-hind": (("double", "-H", FIX / "hind.json"),
                    "ba34ff9f339e70d514616d070913c4d5a244b8555e32f86e4314c8eab780145e"),
    "double-looped-k2": (("double", "-H", FIX / "looped-k2.json"),
                         "eb22f55345ec9ab3f79749f7b36e3fdfded49211f11ebeb82d6e49d74ab6ae3f"),
    "blowup-hind": (("blowup", "-H", FIX / "hind.json", "-a", "acts"),
                    "b6e239aa7d6838e69073a94d04caebd471176a037606989d42f4dd41e86fb97b"),
}


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT.values(), ids=PINNED_STDOUT)
def test_two_sorted_documents_are_pinned(capsys, tmp_path, argv, digest):
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {"0": {"lambda": "3/2", "mu": "1"},
                                               "1": {"lambda": "3/2", "mu": "1"}}}))
    code, out = run_cli(capsys, *(acts if a == "acts" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_generate_families(capsys):
    code, out = run_cli(capsys, "generate", "--family", "cycle", "--length", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 6 and doc["class_e"] == [0, 2, 4]
    code, out = run_cli(capsys, "generate", "--family", "random-regular", "--degree", "2", "--half", "4", "--seed", "3")
    assert code == 0
    code, out2 = run_cli(capsys, "generate", "--family", "random-regular", "--degree", "2", "--half", "4", "--seed", "3")
    assert out == out2
    spec = json.dumps({"family": "union", "parts": [{"family": "cycle", "length": 4}, {"family": "cycle", "length": 4}]})
    code, out = run_cli(capsys, "generate", "--spec", spec)
    assert code == 0 and json.loads(out)["vertices"] == 8


def test_generate_spec_must_be_an_object(capsys):
    for spec in ("[1]", "5"):
        code, out = run_cli(capsys, "generate", "--spec", spec)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "input-error"


_C4 = {"family": "cycle", "length": 4}
_RR = {"family": "random-regular", "degree": 2, "half": 3}

# refusals no other test reaches: (flag, the document it is given, the
# message), where the flag None is a direct ActivitySystem call on the pair
_REFUSALS = {
    "parts-not-a-list": ("--spec", {"family": "union", "parts": _C4}, "'parts' must be a list"),
    "part-not-an-object": ("--spec", {"family": "union", "parts": [_C4, [4]]},
                           "instance spec must be a JSON object"),
    "path-not-a-string": ("--spec", {"family": "file", "path": 4}, "'path' must be a string"),
    "seed-a-string": ("--spec", {**_RR, "seed": "7"}, "'seed' must be an integer"),
    "seed-true": ("--spec", {**_RR, "seed": True}, "'seed' must be an integer"),
    "lambda-true": ("-a", {"lambda": True}, "not a rational: True"),
    "unequal-tuples": (None, ((Fraction(1),), ()), "lambda and mu tuples must have equal length"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_malformed_specs_and_activities_are_input_errors(capsys, tmp_path, case):
    flag, doc, message = _REFUSALS[case]
    if flag is None:
        with pytest.raises(GraphFormatError, match=message):
            ActivitySystem(*doc)
        return
    if flag == "--spec":
        argv = ("generate", "--spec", json.dumps(doc))
    else:
        path = tmp_path / "acts.json"
        path.write_text(json.dumps(doc))
        argv = ("partition", "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "hind.json", "-a", path)
    code, out = run_cli(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "input-error" and message in error["message"]


def test_generate_canonicalizes_files(capsys, tmp_path):
    messy = tmp_path / "g.json"
    messy.write_text('{"vertices": 4, "edges": [[1, 0], [0, 1], [2, 3]], "class_e": [0, 2]}')
    code, out = run_cli(capsys, "generate", "--family", "file", "--path", messy)
    assert code == 0
    assert json.loads(out)["edges"] == [[0, 1], [2, 3]]


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
def test_every_generated_family_builds_from_flags(capsys, family):
    # the first parameter values in 0..6 that meet the row's condition, and
    # the first that break it, passed as the flags the table gives the CLI
    row = GENERATED_FAMILIES[family]
    grid = itertools.product(range(7), repeat=len(row.params))
    good = next(v for v in grid if row.valid(*v))
    bad = next(v for v in itertools.product(range(7), repeat=len(row.params)) if not row.valid(*v))
    flags = lambda values: [f for k, v in zip(row.params, values) for f in (f"--{k}", v)]
    code, out = run_cli(capsys, "generate", "--family", family, *flags(good))
    assert code == 0
    spec = {"family": family, **dict(zip(row.params, good))}
    if row.seeded:
        spec["seed"] = DEFAULT_SEED
    assert json.loads(out) == serialize_bipartite(build_instance(spec))
    code, out = run_cli(capsys, "generate", "--family", family, *flags(bad))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error"


def test_certify_single_check(capsys):
    code, out = run_cli(
        capsys, "certify", "--check", "hom-ub", "-g", FIX / "knn.json", "--n", "2",
        "-H", FIX / "k3.json",
    )
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["verdict"] == "holds" and doc["bounds"][0]["equality"]


def test_certify_single_weighted_check(capsys, tmp_path):
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {"0": {"lambda": "1/2"}}}))
    code, out = run_cli(
        capsys, "certify", "--check", "eta-sandwich", "-g", FIX / "knn.json", "--n", "2",
        "-H", FIX / "hind.json", "-a", acts,
    )
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["verdict"] == "holds"
    assert [b["name"] for b in doc["bounds"]] == ["lower", "upper"]
    assert doc["instance"]["activities"] == {"vertex": {"0": {"lambda": "1/2", "mu": "1/2"}}}


def test_certify_demo_check(capsys):
    code, out = run_cli(capsys, "certify", "--check", "nonbipartite-lower-bound-failure")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["verdict"] == "violated" and doc["expected_violation"]


def test_certify_check_rejects_a_config(capsys):
    code, out = run_cli(
        capsys, "certify", "--check", "hom-ub", "--config", "default",
        "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "k3.json",
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error"


def test_certify_check_loads_a_spec_as_the_document_it_generates(capsys, tmp_path):
    # K_{3,3} has 15 vertices plus edges; under budget 1 the kernel refuses
    # the count, whichever form -g takes
    document = tmp_path / "k33.json"
    assert run_cli(capsys, "generate", "--family", "complete-bipartite", "--n", "3",
                   "-o", document)[0] == 0
    tail = ("-H", FIX / "k3.json", "--budget", "1", "--strict")
    spec = run_cli(capsys, "certify", "--check", "hom-ub", "-g", FIX / "knn.json", "--n", "3", *tail)
    generated = run_cli(capsys, "certify", "--check", "hom-ub", "-g", document, *tail)
    assert spec == generated
    assert spec[0] == 3 and json.loads(spec[1])["verdict"] == "skipped-budget"


_PUBLIC_CERTIFIERS = {
    "hom-ub": lambda g, h, acts: homcert.certify_hom_ub(g, h),
    "weighted-ub": homcert.certify_weighted_ub,
    "eta-sandwich": homcert.certify_sandwich,
    "bireg-ub": homcert.certify_bireg,
    "lift-identity": homcert.certify_lift_identity,
    "double-identity": lambda g, h, acts: homcert.certify_double_identity(g, h),
}


def test_check_ids_are_the_proposition_rows():
    rows = tuple(certify_mod._PROPOSITIONS)
    assert certify_mod.PROPOSITION_IDS == (*rows, "nonbipartite-lower-bound-failure")
    assert tuple(certify_mod._CERTIFIERS) == rows == tuple(_PUBLIC_CERTIFIERS)
    certify_parser = build_parser()._subparsers._group_actions[0].choices["certify"]
    check = next(a for a in certify_parser._actions if a.dest == "check")
    assert tuple(check.choices) == certify_mod.PROPOSITION_IDS


@pytest.mark.parametrize("pid", certify_mod.PROPOSITION_IDS)
def test_check_prints_the_line_of_its_certifier(capsys, tmp_path, pid):
    # K_{2,2} is regular and biregular, so it meets every hypothesis
    g = gen_complete_bipartite(2, 2)
    g_path, acts_path = tmp_path / "k22.json", tmp_path / "acts.json"
    g_path.write_text(json.dumps(serialize_bipartite(g)))
    acts_doc = {"activities": {"0": {"lambda": "1/2", "mu": "3"}}}
    acts_path.write_text(json.dumps(acts_doc))
    flags = ("-g", g_path, "-H", FIX / "k3.json", "-a", acts_path)
    if pid in ("hom-ub", "double-identity"):
        # an unweighted proposition reads no activities
        assert run_cli(capsys, "certify", "--check", pid, *flags)[0] == 2
        flags = flags[:-2]
    if pid == "nonbipartite-lower-bound-failure":
        # the demo reads no instance, so instance flags are input errors
        assert run_cli(capsys, "certify", "--check", pid, *flags)[0] == 2
        flags = ()
    code, out = run_cli(capsys, "certify", "--check", pid, *flags)
    assert code == 0
    if pid == "nonbipartite-lower-bound-failure":
        expected = [homcert.sandwich_nonbipartite_demo()]
    else:
        h = homcert.parse_graph(json.loads((FIX / "k3.json").read_text()))
        acts = homcert.resolve_activities(acts_doc, h.vertex_count)
        expected = [certify_mod._CERTIFIERS[pid](g, h, acts, homcert.DEFAULT_BUDGET, None),
                    _PUBLIC_CERTIFIERS[pid](g, h, acts)]
    assert {r.to_json_line() + "\n" for r in expected} == {out}


def test_a_report_reruns_from_its_own_documents(capsys, tmp_path):
    # every weighted report's g, h and activities, as the report writes
    # them (unit, uniform and vertex-wise systems), load with -g, -H and -a,
    # and certify --check judges them as the campaign did
    config = {
        "seed": 5, "trials": 2,
        "families": [{"family": "random-regular", "degree": 2, "half": 3},
                     {"family": "cycle", "length": 6}],
        "grids": {"targets": ["hind", "k3"],
                  "activities": ["unit", {"uniform": {"lambda": "1/2", "mu": "3"}},
                                 {"vertex": {"0": {"lambda": "2/3"}}},
                                 {"activities": {"1": {"lambda": "3", "mu": "1/2"}}}]},
        "propositions": ["weighted-ub", "eta-sandwich", "bireg-ub", "lift-identity"],
    }
    lines = certify_mod.report_stream(certify_mod.run_campaign(config)).splitlines()
    assert len(lines) == 4 * 3 * 2 * 4
    forms = set()
    for line in lines:
        report = json.loads(line)
        instance = report["instance"]
        paths = {}
        for key in ("g", "h", "activities"):
            paths[key] = tmp_path / f"{key}.json"
            paths[key].write_text(json.dumps(instance[key]))
        forms.add(next(iter(instance["activities"])))
        code, out = run_cli(capsys, "certify", "--check", report["check"], "-g", paths["g"],
                            "-H", paths["h"], "-a", paths["activities"])
        assert code == 0
        rerun = json.loads(out)
        for key in ("check", "bounds", "verdict", "details", "expected_violation"):
            assert rerun[key] == report[key]
        assert rerun["instance"] == {key: value for key, value in instance.items()
                                     if key not in ("g_spec", "h_spec", "trial")}
    assert forms == {"unit", "uniform", "vertex"}


def test_activity_entries_are_refused_with_a_bounded_message(capsys, tmp_path):
    # as a -a file and as a campaign grid entry
    entry = {"weird": "x" * 100_000}
    path, config = tmp_path / "acts.json", tmp_path / "campaign.json"
    path.write_text(json.dumps(entry))
    config.write_text(json.dumps({"families": [{"family": "cycle", "length": 4}],
                                  "grids": {"targets": ["k3"], "activities": [entry]},
                                  "propositions": ["weighted-ub"]}))
    for argv in (("--check", "weighted-ub", "-g", FIX / "knn.json", "--n", "2",
                  "-H", FIX / "k3.json", "-a", path), ("--config", config)):
        code, out = run_cli(capsys, "certify", *argv)
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message.startswith("bad activity entry") and len(message) < 200


_LONG = "x" * 100_000
_CYCLE = {"family": "cycle", "length": 4}


def _campaign(**fields):
    return {"families": [_CYCLE], "propositions": ["hom-ub"], **fields}


@pytest.mark.parametrize("command, doc", [
    ("count", {"vertices": 2, "edges": [[0, _LONG]]}),  # an edge endpoint
    ("count", {"vertices": 2, "edges": [_LONG]}),  # an edge that is not a pair
    ("count", {"vertices": 2, _LONG: 1}),  # a graph key
    ("generate", {"family": _LONG}),
    ("generate", {**_CYCLE, _LONG: 1}),  # a spec key
    ("generate", {"family": "cycle", "length": int("9" * 4000)}),  # an invalid parameter
    ("certify", {_LONG: 1}),  # a campaign key
    ("certify", _campaign(propositions=[_LONG])),
    ("certify", _campaign(propositions=[[_LONG]])),
    ("certify", _campaign(propositions=[{"id": "hom-ub", _LONG: 1}])),
    ("certify", _campaign(grids={"targets": [_LONG]})),  # a target shorthand
    ("certify", _campaign(grids={"targets": [{"file": [_LONG]}]})),
    ("certify", _campaign(grids={"targets": [[_LONG]]})),
])
def test_input_errors_cut_the_input_they_repeat(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = {"count": ("-g", path, "-H", FIX / "hind.json"), "generate": ("--spec-file", path),
            "certify": ("--config", path)}[command]
    code, out = run_cli(capsys, command, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error" and len(out) < 1024


def test_certify_default_campaign(capsys, tmp_path):
    code, out = run_cli(capsys, "certify", "--config", "default")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 300
    verdicts = {json.loads(line)["verdict"] for line in lines}
    assert verdicts == {"holds", "violated"}
    # one writer: stdout, the -o file and report_stream print the same bytes
    expected = certify_mod.report_stream(certify_mod.run_campaign(FIX / "default-campaign.json"))
    assert out.encode() == expected.encode()
    path = tmp_path / "reports.jsonl"
    code, out = run_cli(capsys, "certify", "--config", "default", "-o", path)
    assert code == 0 and out == ""
    assert path.read_bytes() == expected.encode()


def test_certify_keeps_no_report_past_its_line(capsys, monkeypatch):
    # at each line written, count the reports still alive: the CLI drops a
    # report once its line is out, a campaign's list keeps every one
    refs, alive = [], []
    line = certify_mod.CertReport.to_json_line

    def spy(self, encoded=None):
        refs[:] = [ref for ref in refs if ref() is not None]
        refs.append(weakref.ref(self))
        alive.append(len(refs))
        return line(self, encoded)

    monkeypatch.setattr(certify_mod.CertReport, "to_json_line", spy)
    assert main(["certify", "--config", "default"]) == 0
    capsys.readouterr()
    assert len(alive) == 383 and max(alive) == 1
    refs.clear()
    alive.clear()
    certify_mod.report_stream(certify_mod.run_campaign(FIX / "default-campaign.json"))
    assert max(alive) == 383


def test_certify_strict_budget(capsys):
    code, out = run_cli(
        capsys, "certify", "--config", FIX / "default-campaign.json", "--budget", "0", "--strict"
    )
    assert code == 3
    assert all(json.loads(l)["verdict"] in ("skipped-budget", "violated") or json.loads(l)["expected_violation"]
               for l in out.strip().splitlines())
    # every line is written, not only those up to the first skipped report
    config, base_dir = certify_mod.load_campaign(FIX / "default-campaign.json")
    config["budget"] = 0
    assert out == certify_mod.report_stream(certify_mod.run_campaign(config, base_dir))


@pytest.mark.parametrize("config, code, error", [
    ({"propositions": ["hom-ub", "nope"]}, 2, "input-error"),
    ({"grids": {"activities": ["unit", {"lambda": "0"}]}, "propositions": ["weighted-ub"]},
     2, "input-error"),
    ({"families": [{"family": "cycle", "length": 4},
                   {"family": "complete-bipartite", "a": 60000, "b": 60000}],
      "propositions": ["double-identity"]}, 1, "budget-exceeded"),
])
def test_a_planning_error_leaves_the_output_file_as_it_was(capsys, tmp_path, config, code, error):
    path = tmp_path / "camp.json"
    path.write_text(json.dumps({"families": [{"family": "cycle", "length": 4}], **config}))
    output = tmp_path / "reports.jsonl"
    output.write_text("an earlier run\n")
    got, out = run_cli(capsys, "certify", "--config", path, "-o", output)
    assert got == code
    assert json.loads(out)["error"]["code"] == error  # the error document alone
    assert output.read_text() == "an earlier run\n"


def test_an_internal_error_mid_run_follows_the_lines_written(capsys, monkeypatch):
    line = certify_mod.CertReport.to_json_line
    calls = itertools.count()

    def failing(self, encoded=None):
        if next(calls) == 2:
            raise RuntimeError("injected")
        return line(self, encoded)

    monkeypatch.setattr(certify_mod.CertReport, "to_json_line", failing)
    code = main(["certify", "--config", "default"])
    captured = capsys.readouterr()
    assert code == 4
    first, second, rest = captured.out.split("\n", 2)
    assert json.loads(first)["check"] == json.loads(second)["check"] == "hom-ub"
    assert json.loads(rest)["error"]["code"] == "internal-error"
    assert "injected" in captured.err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOMCERT_BUDGET", "2")
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "hind.json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "budget-exceeded"
    monkeypatch.setenv("HOMCERT_BUDGET", "junk")
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "hind.json")
    assert code == 2


def test_kab_and_eta_take_the_budget_from_the_environment(capsys, monkeypatch):
    # K3's vertices are twins, so eta walks {}, {0} and {0, 1} of its
    # neighbourhood complex and tries 3 + 2 + 1 candidate vertices; K_{1,1}
    # costs one state of 3 candidate images
    for argv, cost in ((("kab", "--a", "1", "--b", "1"), 3), (("eta",), 6)):
        monkeypatch.setenv("HOMCERT_BUDGET", str(cost - 1))
        code, out = run_cli(capsys, *argv, "-H", FIX / "k3.json")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "budget-exceeded"
        monkeypatch.setenv("HOMCERT_BUDGET", str(cost))
        assert run_cli(capsys, *argv, "-H", FIX / "k3.json")[0] == 0


def test_kab_refuses_a_huge_exponent_at_once(capsys):
    # 3 * 2^A: refused from its bit bound 2A + 2 before any work at
    # A = 10^7; at A = 10^6 it prints all 301,031 digits
    start = time.perf_counter()
    code, out = run_cli(capsys, "kab", "--a", "10000000", "--b", "1", "-H", FIX / "k3.json")
    assert time.perf_counter() - start < 5
    assert code == 1 and json.loads(out)["error"]["code"] == "budget-exceeded"
    code, out = run_cli(capsys, "kab", "--a", "1000000", "--b", "1", "-H", FIX / "k3.json")
    assert code == 0 and len(out) == 301_049
    value = json.loads(out)["value"]
    assert value.isdigit() and value.startswith("2970196868")  # 3 * 2^(10^6)


def test_blowup_command_refuses_oversized_blowup(tmp_path):
    # about 1.6e9 edges; the address-space limit turns a missing budget
    # check into a MemoryError instead of an allocation that never ends
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {
        "0": {"lambda": "200", "mu": "1/200"}, "1": {"lambda": "1/200", "mu": "200"}}}))
    cmd = [sys.executable, "-m", "homcert", "blowup", "-H", str(FIX / "looped-k2.json"),
           "-a", str(acts)]
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run(cmd, capture_output=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 1
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "budget-exceeded"
    assert "1600080001 edges" in error["message"]


def test_campaign_refuses_oversized_target_shorthand(tmp_path):
    # K60000 has about 1.8e9 edges; under the address-space limit building
    # it before the budget check ends in MemoryError
    config = tmp_path / "camp.json"
    config.write_text(json.dumps({
        "families": [{"family": "cycle", "length": 4}],
        "grids": {"targets": ["k60000"]},
        "propositions": ["double-identity"],
    }))
    cmd = [sys.executable, "-m", "homcert", "certify", "--config", str(config)]
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run(cmd, capture_output=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 1
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "budget-exceeded"
    assert "1799970000 edges" in error["message"]


def test_oversized_source_families_are_refused_before_building(tmp_path):
    # K_{60000,60000} has 3.6e9 edges and Q40 has 2^40 vertices; under the
    # address-space limit building either before the budget check ends in
    # MemoryError
    config = tmp_path / "camp.json"
    config.write_text(json.dumps({
        "families": [{"family": "complete-bipartite", "a": 60000, "b": 60000}],
        "grids": {"targets": ["k2"]},
        "propositions": ["double-identity"],
    }))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    for argv, words in (
        (("certify", "--config", str(config)), "3600120000 vertices plus edges"),
        (("generate", "--family", "hypercube", "--dim", "40"), "hypercube of dimension 40"),
    ):
        proc = subprocess.run([sys.executable, "-m", "homcert", *argv], capture_output=True,
                              timeout=60, preexec_fn=limit)
        assert proc.returncode == 1
        error = json.loads(proc.stdout)["error"]
        assert error["code"] == "budget-exceeded"
        assert words in error["message"]


def test_graph_documents_are_charged_before_building(tmp_path):
    # 3e9 declared vertices in a 50-byte file; under the address-space limit
    # allocating them before the budget check ends in MemoryError
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vertices": 3000000000, "edges": [], "loops": []}))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    cycle = tmp_path / "c4.json"
    cycle.write_text(json.dumps({"family": "cycle", "length": 4}))
    for argv in (("count", "-g", str(cycle), "-H", str(big)), ("eta", "-H", str(big))):
        proc = subprocess.run([sys.executable, "-m", "homcert", *argv], capture_output=True,
                              timeout=60, preexec_fn=limit)
        assert proc.returncode == 1
        error = json.loads(proc.stdout)["error"]
        assert error["code"] == "budget-exceeded"
        assert "3000000000 vertices" in error["message"]


def test_campaign_charges_every_trial_before_building(tmp_path):
    # 1e8 trials of a 3-unit random family: building them one by one runs
    # until memory is gone, so the timeout makes a missing charge fail fast
    config = tmp_path / "camp.json"
    config.write_text(json.dumps({
        "trials": 100000000,
        "families": [{"family": "random-regular", "degree": 1, "half": 1}],
        "propositions": ["double-identity"],
    }))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run([sys.executable, "-m", "homcert", "certify", "--config", str(config)],
                          capture_output=True, timeout=20, preexec_fn=limit)
    assert proc.returncode == 1
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "budget-exceeded"
    assert "300000000 vertices plus edges" in error["message"]


def test_exact_answers_print_at_any_length(capsys, tmp_path):
    # 2^20000 + 2 has 6,021 digits, past the interpreter's default
    # int-to-str limit of 4,300
    cycle = tmp_path / "c20000.json"
    cycle.write_text(json.dumps({"family": "cycle", "length": 20000}))
    code, out = run_cli(capsys, "count", "-g", cycle, "-H", FIX / "k3.json")
    assert code == 0
    assert json.loads(out) == {"count": str(2**20000 + 2)}
    config = tmp_path / "camp.json"
    config.write_text(json.dumps({
        "families": [{"family": "cycle", "length": 20000}],
        "grids": {"targets": ["k3"]},
        "propositions": ["hom-ub"],
    }))
    code, out = run_cli(capsys, "certify", "--config", config)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "holds"
    assert str(2**20000 + 2) in out


def test_long_integer_literals_are_input_errors_at_once(capsys, tmp_path):
    # answers print at any length, but an input integer past the default
    # 4,300 digits is refused before it is converted, and the message does
    # not repeat it (a 300,000-digit vertex count took seconds to convert
    # and came back as budget-exceeded with every digit in the message)
    big = "9" * 300_000
    graph = tmp_path / "big.json"
    graph.write_text('{"vertices": ' + big + ', "edges": [], "class_e": []}')
    acts = tmp_path / "acts.json"
    acts.write_text(json.dumps({"activities": {"0": {"lambda": big}}}))
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({"activities": {big: {"lambda": "2"}}}))
    for argv in (["count", "-g", graph, "-H", FIX / "k3.json"],
                 ["partition", "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "k3.json",
                  "-a", acts],
                 ["partition", "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "k3.json",
                  "-a", keyed]):
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "input-error"
        assert len(error["message"]) < 200


def test_endless_documents_are_input_errors(capsys, monkeypatch):
    # -a /dev/zero once grew until memory ran out.  With a default budget of
    # 10 a target document may hold 640 bytes, and an activity document 32
    # KiB per target vertex and 32 KiB more whatever the budget; an endless
    # one is refused after that, as an input error with no traceback
    monkeypatch.setattr(errors_mod, "DEFAULT_BUDGET", 10)
    monkeypatch.setattr(cli_mod, "DEFAULT_BUDGET", 10)
    for argv, limit in ((["-H", "/dev/zero"], 640),
                        (["-H", str(FIX / "k3.json"), "-a", "/dev/zero"], 4 << 15)):
        code = main(["eta", *argv])
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert code == 2 and error["code"] == "input-error"
        assert error["message"] == f"/dev/zero is longer than its limit of {limit} bytes"
        assert err == ""


@pytest.mark.parametrize("command", [["eta"], ["partition", "-g", str(FIX / "knn.json"),
                                                "--n", "2"]])
def test_an_endless_activity_document_is_refused_within_the_address_space(command):
    # the activity limit is the target's, not the budget's: under a 512 MiB
    # address space on the child, reading /dev/zero up to a default-budget
    # limit of 1.28 GB ended in MemoryError (exit 4)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
    proc = subprocess.run([sys.executable, "-m", "homcert", *command,
                           "-H", str(FIX / "k3.json"), "-a", "/dev/zero"],
                          capture_output=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error == {"code": "input-error",
                     "message": "/dev/zero is longer than its limit of 131072 bytes"}


def test_negative_budget_flag_is_input_error(capsys):
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "hind.json",
                        "--budget", "-5")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error"


def test_independent_sets_stop_on_budget_not_recursion(capsys, tmp_path):
    cycle = tmp_path / "c1000.json"
    cycle.write_text(json.dumps({"family": "cycle", "length": 1000}))
    code, out = run_cli(capsys, "count", "-g", cycle, "--independent-sets", "--budget", "100000")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "budget-exceeded"


def test_a_bad_budget_variable_is_an_input_error_under_a_config_budget(capsys, monkeypatch):
    # the default config carries its own budget, yet the variable is still read
    for env in ("-1", "junk"):
        monkeypatch.setenv("HOMCERT_BUDGET", env)
        code, out = run_cli(capsys, "certify", "--config", "default")
        assert code == 2 and json.loads(out)["error"]["code"] == "input-error"
    # the flag wins over the variable, which is then never read
    code, out = run_cli(capsys, "certify", "--config", "default", "--budget", "5")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all("error" not in r for r in reports)
    assert any(r["verdict"] == "skipped-budget" for r in reports)


def test_budget_env_does_not_override_explicit_config(capsys, monkeypatch, tmp_path):
    # the env var replaces only the built-in default; an explicit config wins
    config = json.loads((FIX / "default-campaign.json").read_text())
    config["propositions"] = [{"id": "double-identity", "families": [{"family": "cycle", "length": 4}]}]
    config["grids"]["targets"] = ["k2"]
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv("HOMCERT_BUDGET", "0")
    code, out = run_cli(capsys, "certify", "--config", path, "--strict")
    assert code == 0  # config budget (20M) still in force
    del config["budget"]
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "certify", "--config", path, "--strict")
    assert code == 3  # now the env override of the default applies


@pytest.mark.parametrize("config", [
    {"families": 5},
    {"propositions": 5},
    {"grids": {"targets": 5}},
    {"propositions": [{"id": "hom-ub", "families": 5}]},
    {"grids": {"targets": [{"file": 5}]}, "propositions": ["hom-ub"]},
])
def test_malformed_campaign_config_is_input_error(capsys, tmp_path, config):
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "certify", "--config", path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error"


def test_count_long_cycle_into_looped_vertex(capsys, tmp_path):
    # exactly one homomorphism, however long the cycle
    cycle = tmp_path / "c998.json"
    cycle.write_text(json.dumps({"family": "cycle", "length": 998}))
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"vertices": 1, "edges": [], "loops": [0]}))
    code, out = run_cli(capsys, "count", "-g", cycle, "-H", loop)
    assert code == 0 and json.loads(out) == {"count": "1"}


def test_internal_error_exit_code(capsys, tmp_path):
    # an output that cannot be written is not a verdict
    code = main(["eta", "-H", str(FIX / "k4.json"), "-o", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["error"]["code"] == "internal-error"
    assert "Traceback" in captured.err


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, "count", "-g", bad, "-H", FIX / "hind.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error"
    code, _ = run_cli(capsys, "count", "-g", tmp_path / "missing.json", "-H", FIX / "hind.json")
    assert code == 2


def test_bireg_ub_refuses_a_source_with_an_empty_side(capsys, tmp_path):
    # an edgeless source whose vertices are all in class E has no O-degree
    g = tmp_path / "edgeless.json"
    g.write_text(json.dumps({"vertices": 3, "edges": [], "class_e": [0, 1, 2]}))
    code, out = run_cli(capsys, "certify", "--check", "bireg-ub", "-g", g,
                        "-H", FIX / "k3.json")
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "input-error", "message": "instance must be biregular with positive degrees"}


def test_knn_surjections_refuse_a_negative_size(capsys):
    code, out = run_cli(capsys, "knn", "--n", "-1", "--surjections", "2")
    assert code == 2
    assert json.loads(out)["error"] == {"code": "input-error",
                                        "message": "sizes must be nonnegative"}


@pytest.mark.parametrize("mode", ["graph", "spec", "config"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, mode):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"graph": ["count", "-g", deep, "-H", FIX / "hind.json"],
            "spec": ["generate", "--spec", deep.read_text()],
            "config": ["certify", "--config", deep]}[mode]
    start = time.perf_counter()
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 2 and "Traceback" not in captured.err
    error = json.loads(captured.out)["error"]
    assert error["code"] == "input-error" and "nested too deeply" in error["message"]


def test_deeply_nested_union_spec_is_an_input_error(capsys, tmp_path):
    spec = tmp_path / "union.json"
    spec.write_text('{"family": "union", "parts": [' * 600 + '{"family": "cycle", "length": 4}'
                    + "]}" * 600)
    code = main(["generate", "--spec-file", str(spec)])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    error = json.loads(captured.out)["error"]
    assert error["code"] == "input-error" and "nested too deeply" in error["message"]


@pytest.mark.parametrize("where", ["activity file", "campaign grid"])
def test_exponent_activity_is_refused_at_once(capsys, tmp_path, where):
    huge = "1e10000000"  # a 33-Mbit numerator, were it read
    path = tmp_path / "input.json"
    if where == "activity file":
        path.write_text(json.dumps({"activities": {"0": {"lambda": huge}}}))
        argv = ["partition", "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "hind.json",
                "-a", path]
    else:
        path.write_text(json.dumps({
            "families": [{"family": "cycle", "length": 4}],
            "grids": {"targets": ["hind"], "activities": [{"uniform": {"lambda": huge}}]},
            "propositions": ["weighted-ub"]}))
        argv = ["certify", "--config", path]
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and json.loads(out)["error"]["code"] == "input-error"


@pytest.mark.parametrize("command, upper", [
    (("restricted", "-g", FIX / "knn.json", "--n", "1"), [0.0]),
    (("knn", "--n", "1"), [[0]]),
    (("restricted", "-g", FIX / "knn.json", "--n", "1"), [True]),
    (("knn", "--n", "1"), [0, 1]),  # the edge lies inside the upper side
])
def test_two_sorted_upper_entries_are_vertex_indices(capsys, tmp_path, command, upper):
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "upper": upper}))
    code = main([str(a) for a in (*command, "-T", target)])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert json.loads(captured.out)["error"]["code"] == "input-error"


@pytest.mark.parametrize("argv", [
    *[("certify", "--check", "nonbipartite-lower-bound-failure", *flag) for flag in (
        ("-g", FIX / "knn.json"), ("-H", FIX / "k3.json"), ("-a", "/nonexistent.json"),
        ("--n", "3"), ("--half", "4"), ("--seed", "1"))],
    ("certify", "--config", "default", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "k3.json"),
    ("certify", "--check", "hom-ub", "-g", FIX / "knn.json", "--n", "2", "-H", FIX / "k3.json",
     "-a", "/nonexistent.json"),
    ("count", "-g", FIX / "knn.json", "--n", "2", "--independent-sets",
     "-H", "/nonexistent.json"),
    # spec override flags with a graph document, bipartite or plain
    ("partition", "-g", FIX / "incidence_k4.json", "--n", "3", "-H", FIX / "hind.json"),
    ("count", "-g", FIX / "k3.json", "--n", "3", "-H", FIX / "k3.json"),
    ("count", "-g", FIX / "k3.json", "--independent-sets", "--length", "8"),
    # generate reads exactly one source flag, and --path only with --family file
    ("generate", "--family", "hypercube", "--spec", '{"family": "cycle", "length": 4}',
     "--spec-file", "/nonexistent.json"),
    ("generate", "--spec-file", FIX / "knn.json", "--family", "cycle"),
    ("generate", "--spec", '{"family": "cycle", "length": 4}', "--path", "/nonexistent.json"),
    ("generate", "--family", "cycle", "--length", "6", "--path", "/nonexistent.json"),
])
def test_flags_the_mode_does_not_read_are_input_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert "does not read" in json.loads(out)["error"]["message"]


def test_a_seed_on_an_unseeded_family_is_an_input_error(capsys, tmp_path):
    config = tmp_path / "camp.json"
    config.write_text(json.dumps({
        "families": [{"family": "cycle", "length": 6, "seed": 3}],
        "grids": {"targets": ["k2"]},
        "propositions": ["hom-ub"],
    }))
    for argv in (("generate", "--family", "cycle", "--length", "6", "--seed", "3"),
                 ("certify", "--config", config)):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["message"] == "family 'cycle' takes no seed"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # -g required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


_CYCLE_SPEC = json.dumps({"family": "cycle", "length": 4})


@pytest.mark.parametrize("argv, config, message", [
    (["count", "-g", FIX / "k3.json"], None, "count requires -H (or --independent-sets)"),
    (["generate"], None, "generate requires --family, --spec, or --spec-file"),
    (["generate", "--family", "file"], None, "--family file requires --path"),
    (["certify"], None, "certify requires --config or --check"),
    (["certify", "--check", "hom-ub"], None, "--check hom-ub requires -g and -H"),
    (["generate", "--spec", _CYCLE_SPEC, "--n", "3"], None,
     "--n only applies to complete-bipartite specs"),
    (["knn", "--n", "2", "--surjections", "-1"], None, "--surjections must be nonnegative"),
    (["certify", "--config"], ["hom-ub"], "{path} must contain a JSON object"),
    (["certify", "--config"], {"grids": 5},
     "'grids' must be an object with 'targets'/'activities'"),
], ids=["count-without-target", "generate-without-source", "file-without-path",
        "certify-without-mode", "check-without-instance", "n-on-a-cycle",
        "negative-surjections", "config-not-an-object", "grids-not-an-object"])
def test_incomplete_commands_are_input_errors(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "camp.json"
        path.write_text(json.dumps(config))
        argv = [*argv, path]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": {"code": "input-error",
                                                  "message": message.format(path=argv[-1])}}
    assert "Traceback" not in captured.err


def test_graph_documents_past_the_budget_are_refused_unbuilt(capsys, tmp_path):
    # declared vertices plus listed edges one past the input limit
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vertices": homcert.DEFAULT_BUDGET, "edges": [[0, 1]]}))
    code = main(["count", "-g", str(FIX / "k3.json"), "-H", str(big)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": {"code": "budget-exceeded", "message": (
        f"graph document of {homcert.DEFAULT_BUDGET} vertices and 1 edges exceeds budget "
        f"{homcert.DEFAULT_BUDGET}")}}
    assert "Traceback" not in captured.err


def test_output_file_and_repeatability(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(capsys, "eta", "-H", FIX / "k4.json", "-o", out1)[0] == 0
    assert run_cli(capsys, "eta", "-H", FIX / "k4.json", "-o", out2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point_byte_identical():
    cmd = [sys.executable, "-m", "homcert", "count", "-g", str(FIX / "knn.json"), "--n", "2",
           "-H", str(FIX / "hind.json")]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout) == {"count": "7"}


_COUNT_ARGV = ["count", "-g", str(FIX / "knn.json"), "--n", "2", "-H", str(FIX / "hind.json")]

# a child that runs a homcert command by ``launch`` and prints from an
# atexit hook, which runs after the entry point returns, whether the
# collector was frozen by then
_FROZEN_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen" if gc.get_freeze_count() else "not frozen",
                              file=sys.stderr))
sys.argv = ["homcert", *sys.argv[1:]]
{launch}
"""


def _exit_of(launch):
    proc = subprocess.run([sys.executable, "-c", _FROZEN_AT_EXIT.format(launch=launch),
                           *_COUNT_ARGV], capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _console_script():
    """The module and function that pyproject.toml's homcert script calls."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    return re.search(r'^homcert = "([\w.]+):(\w+)"$', text, re.M).groups()


def test_program_entry_points_skip_the_shutdown_collections(capsys):
    # both entry points end with the collector frozen, so the shutdown
    # collections skip what the run made, and print what main prints
    code, out = run_cli(capsys, *_COUNT_ARGV)
    assert (code, json.loads(out)) == (0, {"count": "7"})
    module, function = _console_script()
    for launch in ('import runpy; runpy.run_module("homcert", run_name="__main__")',
                   f"import {module}; sys.exit({module}.{function}())"):
        assert _exit_of(launch) == (code, out.encode(), b"frozen\n")


def test_main_leaves_the_callers_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, *_COUNT_ARGV)[0] == 0
    assert run_cli(capsys, "count", "-g", FIX / "missing.json", "-H", FIX / "hind.json")[0] == 2
    assert gc.get_freeze_count() == frozen


def test_startup_imports_only_what_every_run_needs():
    # every run is a fresh interpreter: dataclasses (with inspect, ast, dis,
    # tokenize) would cost each one milliseconds, traceback serves only an
    # internal error and importlib.resources only a fixture name; -S keeps
    # site hooks from loading any of them first
    absent = ("dataclasses", "inspect", "traceback", "importlib.resources")
    code = "import homcert.cli, sys; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code, *absent],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["certify", "--config", "default"],  # a stream of lines, 269 KB
    ["generate", "--family", "cycle", "--length", "5000"],  # one write of 202 KB
], ids=["stream", "one-answer"])
def test_a_reader_that_closes_early_ends_the_run_quietly(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "homcert", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the output outgrows the pipe, so the run is still writing when its
    # reader closes
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (EXIT_CLOSED_PIPE, b"")


# --- coverage contract -------------------------------------------------------------

# the package's operation inventory: everything here must be reachable from
# exactly one subcommand
PUBLIC_OPERATIONS = (
    "parse_graph",
    "gen_complete_bipartite", "gen_even_cycle", "gen_hypercube", "gen_union",
    "gen_random_regular_bipartite",
    "double", "scale_constant", "blowup",
    "count_homs", "count_homs_restricted", "partition_fn", "count_independent_sets",
    "surjection_count", "knn_restricted_count", "kab_partition", "eta_two_sided",
    "certify_hom_ub", "certify_sandwich", "certify_weighted_ub", "certify_bireg",
    "certify_lift_identity", "certify_double_identity", "run_campaign",
)


def test_every_operation_reachable_from_exactly_one_subcommand():
    seen = {}
    for sub, (*_, ops) in _SUBCOMMANDS.items():
        for op in ops:
            assert op not in seen, f"{op} mapped from both {seen[op]} and {sub}"
            seen[op] = sub
    for op in seen:
        assert callable(getattr(homcert, op)), op
    missing = [op for op in PUBLIC_OPERATIONS if op not in seen]
    assert not missing, f"operations without a subcommand: {missing}"


def test_every_handler_names_only_its_own_operations():
    # the contract holds in the handlers' code, not only in the table; every
    # reader uses generate's parsers, so its row is left out
    owner = {op: sub for sub, (*_, ops) in _SUBCOMMANDS.items() if sub != "generate"
             for op in ops}
    for sub, (_, _, handler, _) in _SUBCOMMANDS.items():
        if sub != "generate":
            named = handler.__code__.co_names
            strays = [op for op in named if owner.get(op, sub) != sub]
            assert not strays, f"_cmd_{sub} names {strays}, mapped to other subcommands"


def test_knn_surjections_mode(capsys):
    code, out = run_cli(capsys, "knn", "--n", "3", "--surjections", "2")
    assert code == 0 and json.loads(out) == {"count": "6"}
    with pytest.raises(SystemExit) as exc:
        main(["knn", "--n", "3", "--surjections", "2", "-H", str(FIX / "hind.json")])
    assert exc.value.code == 2


# one argument list per subcommand, with its options and overrides
_PARSE_CASES = [
    ["count", "-g", "g.json", "-H", "h.json", "--n", "3", "--independent-sets"],
    ["restricted", "-g", "g.json", "-T", "t.json", "--budget", "5"],
    ["partition", "-g", "g.json", "-H", "h.json", "-a", "a.json", "--seed", "7"],
    ["knn", "--n", "2", "--surjections", "3"],
    ["kab", "--a", "1", "--b", "2", "-H", "h.json", "-o", "out.json"],
    ["eta", "-H", "h.json", "-a", "a.json"],
    ["double", "-H", "h.json"],
    ["blowup", "-H", "h.json", "-a", "a.json"],
    ["certify", "--config", "default", "--strict", "--budget", "9"],
    ["certify", "--check", "hom-ub", "-g", "g.json", "-H", "h.json", "--half", "4"],
    ["generate", "--family", "cycle", "--length", "6"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv[:3]))
def test_one_subcommand_parser_parses_as_the_full_one(argv):
    full, one = build_parser().parse_args(argv), build_parser(argv[0]).parse_args(argv)
    assert vars(one) == vars(full)


def test_one_subcommand_parser_helps_as_the_full_one(capsys):
    # compared within one interpreter: argparse's help text differs across
    # Python versions
    assert {argv[0] for argv in _PARSE_CASES} == set(_SUBCOMMANDS)
    assert build_parser("certify").format_help() == build_parser().format_help()
    for name in _SUBCOMMANDS:
        helps = []
        for parser in (build_parser(), build_parser(name)):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "-h"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and f"usage: homcert {name}" in helps[0]


def test_every_shown_option_has_help_text():
    parsers = build_parser()._subparsers._group_actions[0].choices
    assert set(parsers) == set(_SUBCOMMANDS)
    for name, p in parsers.items():
        for action in p._actions:
            if action.help is not argparse.SUPPRESS:
                assert action.help and action.help.strip(), (name, action.option_strings)


def _parsed(parser, argv, capsys):
    """(the parsed namespace or the exit code, stdout, stderr)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("name", _SUBCOMMANDS)
def test_one_subcommand_parser_fails_as_the_full_one(capsys, name):
    # main builds the parser of the first token that is not an option: its
    # usage, its help and every error it prints are the full parser's
    one = build_parser(name)
    assert one.format_usage() == build_parser().format_usage()
    for argv in ([name], [name, "-h"], ["-h", name], [name, "--bogus"], [name, "stray"],
                 [name, "--budget"], [name, "--budget", "x"], [name, "-o"], ["--bogus", name]):
        assert _parsed(one, argv, capsys) == _parsed(build_parser(), argv, capsys)


def test_an_unknown_subcommand_lists_every_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "-g", "g.json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice: 'bogus'" in err
    assert all(f"'{name}'" in err for name in _SUBCOMMANDS)


def test_subcommand_map_matches_parser():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0]
    assert set(subparsers.choices) == set(_SUBCOMMANDS)
