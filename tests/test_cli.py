import json
import resource
import subprocess
import sys

import pytest

import homcert
from homcert.cli import SUBCOMMAND_OPERATIONS, _fixture_path, build_parser, main

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


def test_knn_weighted_and_restricted(capsys, tmp_path):
    code, out = run_cli(capsys, "knn", "--n", "2", "-H", FIX / "hind.json")
    assert code == 0 and json.loads(out) == {"value": "7"}
    target = tmp_path / "t.json"
    code, out = run_cli(capsys, "double", "-H", FIX / "hind.json", "-o", target)
    assert code == 0
    code, out = run_cli(capsys, "knn", "--n", "2", "-T", target)
    assert code == 0 and json.loads(out) == {"count": "7"}
    code, out = run_cli(capsys, "knn", "--n", "2", "-H", FIX / "hind.json", "-T", target)
    assert code == 2  # exactly one of -H / -T


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


def test_generate_canonicalizes_files(capsys, tmp_path):
    messy = tmp_path / "g.json"
    messy.write_text('{"vertices": 4, "edges": [[1, 0], [0, 1], [2, 3]], "class_e": [0, 2]}')
    code, out = run_cli(capsys, "generate", "--family", "file", "--path", messy)
    assert code == 0
    assert json.loads(out)["edges"] == [[0, 1], [2, 3]]


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


def test_certify_default_campaign(capsys):
    code, out = run_cli(capsys, "certify", "--config", "default")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 300
    verdicts = {json.loads(line)["verdict"] for line in lines}
    assert verdicts == {"holds", "violated"}


def test_certify_strict_budget(capsys):
    code, out = run_cli(
        capsys, "certify", "--config", FIX / "default-campaign.json", "--budget", "0", "--strict"
    )
    assert code == 3
    assert all(json.loads(l)["verdict"] in ("skipped-budget", "violated") or json.loads(l)["expected_violation"]
               for l in out.strip().splitlines())


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOMCERT_BUDGET", "2")
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "hind.json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "budget-exceeded"
    monkeypatch.setenv("HOMCERT_BUDGET", "junk")
    code, out = run_cli(capsys, "count", "-g", FIX / "knn.json", "--n", "3", "-H", FIX / "hind.json")
    assert code == 2


def test_kab_and_eta_take_the_budget_from_the_environment(capsys, monkeypatch):
    # the subset tables of a 3-vertex target have 2^3 entries
    monkeypatch.setenv("HOMCERT_BUDGET", "7")
    for argv in (("kab", "--a", "1", "--b", "1"), ("eta",)):
        code, out = run_cli(capsys, *argv, "-H", FIX / "k3.json")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "budget-exceeded"
    monkeypatch.setenv("HOMCERT_BUDGET", "8")
    assert run_cli(capsys, "eta", "-H", FIX / "k3.json")[0] == 0


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


def test_internal_error_exit_code(capsys, tmp_path):
    # the recursive kernel cannot follow a 998-cycle, although it has
    # exactly one homomorphism into a single looped vertex
    cycle = tmp_path / "c998.json"
    cycle.write_text(json.dumps({"family": "cycle", "length": 998}))
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"vertices": 1, "edges": [], "loops": [0]}))
    code = main(["count", "-g", str(cycle), "-H", str(loop)])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["error"]["code"] == "internal-error"
    assert "RecursionError" in captured.err
    # an output that cannot be written is not a verdict either
    code, out = run_cli(capsys, "eta", "-H", FIX / "k4.json", "-o", tmp_path)
    assert code == 4 and json.loads(out)["error"]["code"] == "internal-error"


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, "count", "-g", bad, "-H", FIX / "hind.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input-error"
    code, _ = run_cli(capsys, "count", "-g", tmp_path / "missing.json", "-H", FIX / "hind.json")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # -g required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


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


# --- coverage contract -------------------------------------------------------------

# the package's operation inventory: everything here must be reachable from
# exactly one subcommand
PUBLIC_OPERATIONS = (
    "parse_graph", "check_bipartition",
    "gen_complete_bipartite", "gen_even_cycle", "gen_hypercube", "gen_union",
    "gen_random_regular_bipartite",
    "double", "scale_constant", "blowup",
    "count_homs", "count_homs_restricted", "partition_fn", "count_independent_sets",
    "surjection_count", "knn_restricted_count", "knn_partition", "kab_partition",
    "eta_two_sided", "eta_unweighted", "eta_one_sided",
    "certify_hom_ub", "certify_sandwich", "certify_weighted_ub", "certify_bireg",
    "certify_lift_identity", "certify_double_identity", "run_campaign",
)


def test_every_operation_reachable_from_exactly_one_subcommand():
    seen = {}
    for sub, ops in SUBCOMMAND_OPERATIONS.items():
        for op in ops:
            assert op not in seen, f"{op} mapped from both {seen[op]} and {sub}"
            seen[op] = sub
    for op in seen:
        assert callable(getattr(homcert, op)), op
    missing = [op for op in PUBLIC_OPERATIONS if op not in seen]
    assert not missing, f"operations without a subcommand: {missing}"


def test_knn_surjections_mode(capsys):
    code, out = run_cli(capsys, "knn", "--n", "3", "--surjections", "2")
    assert code == 0 and json.loads(out) == {"count": "6"}
    code, _ = run_cli(capsys, "knn", "--n", "3", "--surjections", "2", "-H", FIX / "hind.json")
    assert code == 2


def test_subcommand_map_matches_parser():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0]
    assert set(subparsers.choices) == set(SUBCOMMAND_OPERATIONS)
