"""Command-line front end.

One subcommand per operation group; every numeric output is a decimal string
(counts) or a "p/q" string (rationals), never a binary float.  Output is
byte-identical for identical (argv, input files) across runs.  The default
seed is the fixed constant 2004, never wall-clock.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from importlib.resources import files
from pathlib import Path

from . import certify as certify_mod
from .certify import DEFAULT_SEED, campaign_exit_code, load_campaign, run_campaign
from .constructions import blowup, double, parse_two_sorted, serialize_two_sorted
from .closedform import kab_partition, knn_partition, knn_restricted_count, surjection_count
from .errors import BudgetExceededError, GraphFormatError, HomcertError
from .eta import eta_two_sided
from .graphs import (
    BipartiteGraph,
    build_instance,
    parse_bipartite,
    parse_graph,
    parse_instance_spec,
    read_doc,
    serialize_bipartite,
)
from .homcount import (
    DEFAULT_BUDGET,
    ActivitySystem,
    count_homs,
    count_homs_restricted,
    count_independent_sets,
    parse_activities,
    partition_fn,
)

BUDGET_ENV = "HOMCERT_BUDGET"

# Coverage contract: each library operation is reachable from exactly one
# subcommand (parsing/validation ops ride on `generate`, which re-emits any
# input file in canonical form).
SUBCOMMAND_OPERATIONS = {
    "count": ("count_homs", "count_independent_sets"),
    "restricted": ("count_homs_restricted",),
    "partition": ("partition_fn",),
    "knn": ("knn_partition", "knn_restricted_count", "surjection_count"),
    "kab": ("kab_partition",),
    "eta": ("eta_two_sided", "eta_unweighted", "eta_one_sided"),
    "double": ("double",),
    "blowup": ("blowup", "scale_constant"),
    "certify": (
        "certify_hom_ub",
        "certify_weighted_ub",
        "certify_sandwich",
        "certify_bireg",
        "certify_lift_identity",
        "certify_double_identity",
        "sandwich_nonbipartite_demo",
        "run_campaign",
    ),
    "generate": (
        "gen_complete_bipartite",
        "gen_even_cycle",
        "gen_hypercube",
        "gen_union",
        "gen_random_regular_bipartite",
        "parse_graph",
        "check_bipartition",
    ),
}

_OVERRIDE_KEYS = ("a", "b", "length", "dim", "degree", "half", "seed")


def _fixture_path(name: str) -> Path:
    return Path(str(files("homcert").joinpath("fixtures", name)))


def _budget(args) -> int:
    """--budget, else HOMCERT_BUDGET, else the default; never negative."""
    value, source = getattr(args, "budget", None), "--budget"
    if value is None:
        env = os.environ.get(BUDGET_ENV)
        if env is None:
            return DEFAULT_BUDGET
        source = BUDGET_ENV
        try:
            value = int(env)
        except ValueError:
            raise GraphFormatError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    if value < 0:
        raise GraphFormatError(f"{source} must be nonnegative")
    return value


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    n = getattr(args, "n", None)
    if n is not None:
        doc.setdefault("family", "complete-bipartite")
        if doc["family"] == "complete-bipartite":
            doc["a"] = doc["b"] = n
        else:
            raise GraphFormatError("--n only applies to complete-bipartite specs")
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return doc


def _load_source(args, doc=None) -> BipartiteGraph:
    """-g accepts a bipartite graph document or an instance-spec document;
    ``doc`` is the -g document when the caller has read it already."""
    if doc is None:
        doc = read_doc(args.graph)
    if "family" in doc:
        spec = parse_instance_spec(_apply_overrides(doc, args))
        if spec.family == "random-regular" and spec.seed is None:
            spec = parse_instance_spec({**spec.describe(), "seed": DEFAULT_SEED})
        return build_instance(spec, Path(args.graph).parent)
    return parse_bipartite(doc)


def _load_acts(args, vertex_count: int) -> ActivitySystem:
    if getattr(args, "activities", None) is None:
        return ActivitySystem.unit(vertex_count)
    return parse_activities(read_doc(args.activities), vertex_count)


def _emit(doc, output: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_stream(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_count(args) -> int:
    # count_homs does not need a bipartition, so plain graph files are fine here
    doc = read_doc(args.graph)
    if "family" in doc or "class_e" in doc:
        g = _load_source(args, doc).graph
    else:
        g = parse_graph(doc)
    if args.independent_sets:
        _emit({"count": str(count_independent_sets(g, _budget(args)))}, args.output)
        return 0
    if args.target is None:
        raise GraphFormatError("count requires -H (or --independent-sets)")
    h = parse_graph(read_doc(args.target))
    _emit({"count": str(count_homs(g, h, _budget(args)))}, args.output)
    return 0


def _cmd_restricted(args) -> int:
    g = _load_source(args)
    target = parse_two_sorted(read_doc(args.two_sorted))
    _emit({"count": str(count_homs_restricted(g, target, _budget(args)))}, args.output)
    return 0


def _cmd_partition(args) -> int:
    g = _load_source(args)
    h = parse_graph(read_doc(args.target))
    acts = _load_acts(args, h.vertex_count)
    _emit({"value": str(partition_fn(g, h, acts, _budget(args)))}, args.output)
    return 0


def _cmd_knn(args) -> int:
    modes = [args.target is not None, args.two_sorted is not None, args.surjections is not None]
    if sum(modes) != 1:
        raise GraphFormatError("knn requires exactly one of -H, -T, or --surjections")
    if args.surjections is not None:
        if args.surjections < 0:
            raise GraphFormatError("--surjections must be nonnegative")
        _emit({"count": str(surjection_count(args.n, args.surjections))}, args.output)
        return 0
    if args.two_sorted is not None:
        target = parse_two_sorted(read_doc(args.two_sorted))
        _emit({"count": str(knn_restricted_count(args.n, target, _budget(args)))}, args.output)
        return 0
    h = parse_graph(read_doc(args.target))
    acts = _load_acts(args, h.vertex_count)
    _emit({"value": str(knn_partition(args.n, h, acts, _budget(args)))}, args.output)
    return 0


def _cmd_kab(args) -> int:
    h = parse_graph(read_doc(args.target))
    acts = _load_acts(args, h.vertex_count)
    _emit({"value": str(kab_partition(args.a, args.b, h, acts, _budget(args)))}, args.output)
    return 0


def _cmd_eta(args) -> int:
    h = parse_graph(read_doc(args.target))
    acts = _load_acts(args, h.vertex_count)
    witness = eta_two_sided(h, acts, _budget(args))
    _emit(
        {"value": str(witness.value), "A": list(witness.set_a), "B": list(witness.set_b)},
        args.output,
    )
    return 0


def _cmd_double(args) -> int:
    h = parse_graph(read_doc(args.target))
    _emit(serialize_two_sorted(double(h)), args.output)
    return 0


def _cmd_blowup(args) -> int:
    h = parse_graph(read_doc(args.target))
    acts = _load_acts(args, h.vertex_count)
    target, meta = blowup(h, acts, _budget(args))
    _emit(
        {
            "target": serialize_two_sorted(target),
            "scale": str(meta.scale),
            "upper_copies": list(meta.upper_copies),
            "lower_copies": list(meta.lower_copies),
        },
        args.output,
    )
    return 0


def _cmd_generate(args) -> int:
    if args.spec is not None:
        doc = json.loads(args.spec)
    elif args.spec_file is not None:
        doc = read_doc(args.spec_file)
    elif args.family == "file":
        if args.path is None:
            raise GraphFormatError("--family file requires --path")
        doc = {"family": "file", "path": args.path}
    elif args.family is not None:
        doc = {"family": args.family}
    else:
        raise GraphFormatError("generate requires --family, --spec, or --spec-file")
    doc = _apply_overrides(doc, args)
    if doc.get("family") == "random-regular" and "seed" not in doc:
        doc["seed"] = DEFAULT_SEED
    base = Path(args.spec_file).parent if args.spec_file else Path.cwd()
    g = build_instance(parse_instance_spec(doc), base)
    _emit(serialize_bipartite(g), args.output)
    return 0


def _cmd_certify(args) -> int:
    if args.check is not None:
        budget = _budget(args)
        if args.check == "nonbipartite-lower-bound-failure":
            reports = [certify_mod.sandwich_nonbipartite_demo(budget)]
        else:
            if args.graph is None or args.target is None:
                raise GraphFormatError(f"--check {args.check} requires -g and -H")
            g = _load_source(args)
            h = parse_graph(read_doc(args.target))
            acts = _load_acts(args, h.vertex_count)
            fn = certify_mod._CERTIFIERS[args.check]
            reports = [fn(g, h, acts, budget, None)]
    else:
        if args.config is None:
            raise GraphFormatError("certify requires --config or --check")
        path = _fixture_path("default-campaign.json") if args.config == "default" else Path(args.config)
        config, base_dir = load_campaign(path)
        # precedence: --budget flag, then the config's own value, then the
        # environment override of the built-in default
        if args.budget is not None or "budget" not in config:
            config["budget"] = _budget(args)
        reports = run_campaign(config, base_dir=base_dir)
    _emit_stream(certify_mod.report_stream(reports), args.output)
    return campaign_exit_code(reports, strict=args.strict)


# ---------------------------------------------------------------------------
# Parser


def _add_common(p, *, graph=False, target=False, target_required=False, acts=False, budget=True):
    if graph:
        p.add_argument("-g", "--graph", required=True,
                       help="bipartite graph file or instance-spec file")
        p.add_argument("--n", type=int, help="complete-bipartite shorthand: a = b = n")
        for key in _OVERRIDE_KEYS:
            p.add_argument(f"--{key}", type=int, help=argparse.SUPPRESS)
    if target:
        p.add_argument("-H", "--target", required=target_required,
                       help="target graph file")
    if acts:
        p.add_argument("-a", "--activities", help="activity file")
    if budget:
        p.add_argument("--budget", type=int, help="node-expansion budget override")
    p.add_argument("-o", "--output", help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcert",
        description="Exact homomorphism counting, closed forms, eta, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count homomorphisms (or independent sets)")
    _add_common(p, graph=True, target=True)
    p.add_argument("--independent-sets", action="store_true",
                   help="count independent sets of the source graph instead")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("restricted", help="count class-restricted homomorphisms")
    _add_common(p, graph=True)
    p.add_argument("-T", "--two-sorted", required=True, help="two-sorted target file")
    p.set_defaults(fn=_cmd_restricted)

    p = sub.add_parser("partition", help="exact weighted partition value")
    _add_common(p, graph=True, target=True, target_required=True, acts=True)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("knn", help="closed form on the n-by-n complete bipartite source")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-H", "--target", help="target graph file (weighted form)")
    p.add_argument("-T", "--two-sorted", help="two-sorted target file (restricted count)")
    p.add_argument("--surjections", type=int, metavar="A",
                   help="count surjections from an n-set onto an A-set instead")
    p.add_argument("-a", "--activities")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_knn)

    p = sub.add_parser("kab", help="closed form on the a-by-b complete bipartite source")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_common(p, target=True, target_required=True, acts=True, budget=False)
    p.set_defaults(fn=_cmd_kab)

    p = sub.add_parser("eta", help="optimal cross-complete pair")
    _add_common(p, target=True, target_required=True, acts=True, budget=False)
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("double", help="bipartite double of a target")
    _add_common(p, target=True, target_required=True, budget=False)
    p.set_defaults(fn=_cmd_double)

    p = sub.add_parser("blowup", help="activity blow-up of a target")
    _add_common(p, target=True, target_required=True, acts=True, budget=False)
    p.set_defaults(fn=_cmd_blowup)

    p = sub.add_parser("certify", help="run certification checks or a campaign")
    p.add_argument("--config", help="campaign config file, or 'default'")
    p.add_argument("--check", choices=certify_mod.PROPOSITION_IDS,
                   help="run a single check instead of a campaign")
    p.add_argument("-g", "--graph", help="source graph for --check")
    p.add_argument("--n", type=int, help=argparse.SUPPRESS)
    for key in _OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=int, help=argparse.SUPPRESS)
    p.add_argument("-H", "--target", help="target graph for --check")
    p.add_argument("-a", "--activities")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any check was skipped for budget")
    p.add_argument("--budget", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("generate", help="emit an instance as a bipartite graph file")
    p.add_argument("--family", choices=("complete-bipartite", "cycle", "hypercube",
                                        "random-regular", "union", "file"))
    p.add_argument("--spec", help="inline instance-spec JSON")
    p.add_argument("--spec-file", help="instance-spec file")
    p.add_argument("--path", help="graph file for --family file")
    p.add_argument("--n", type=int, help="complete-bipartite shorthand: a = b = n")
    for key in _OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=int, help=argparse.SUPPRESS)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a failed write is reported here, not at exit
        return code
    except BudgetExceededError as exc:
        _emit({"error": {"code": "budget-exceeded", "message": str(exc)}}, None)
        return 1
    except GraphFormatError as exc:
        _emit({"error": {"code": "input-error", "message": str(exc)}}, None)
        return 2
    except HomcertError as exc:
        _emit({"error": {"code": "operation-error", "message": str(exc)}}, None)
        return 1
    except ValueError as exc:
        _emit({"error": {"code": "input-error", "message": str(exc)}}, None)
        return 2
    except Exception as exc:
        # a defect of the program, not a verdict: RecursionError from the
        # recursive kernel, OSError on output, ...
        traceback.print_exc()
        try:
            _emit({"error": {"code": "internal-error", "message": repr(exc)}}, None)
            sys.stdout.flush()
        except OSError:
            pass  # stdout itself failed; the traceback on stderr says why
        return 4


if __name__ == "__main__":
    sys.exit(main())
