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
from contextlib import contextmanager
from pathlib import Path

from . import certify as certify_mod
from .certify import DEFAULT_SEED, iter_campaign, load_campaign, write_reports
from .constructions import blowup, double
from .closedform import kab_partition, knn_restricted_count, surjection_count
from .errors import (
    BudgetExceededError, GraphFormatError, HomcertError, input_digits, input_limit, shown)
from .eta import eta_two_sided
from .graphs import (
    GENERATED_FAMILIES,
    BipartiteGraph,
    build_instance,
    load_doc,
    needs_seed,
    parse_bipartite,
    parse_graph,
    parse_instance_spec,
    parse_two_sorted,
    read_doc,
    serialize_bipartite,
    serialize_two_sorted,
)
from .homcount import (
    DEFAULT_BUDGET,
    ActivitySystem,
    count_homs,
    count_homs_restricted,
    count_independent_sets,
    partition_fn,
    resolve_activities,
)

BUDGET_ENV = "HOMCERT_BUDGET"

# the exit code of a run whose reader closed the output early: 128 + SIGPIPE,
# the status a shell reports for `yes | head`
EXIT_CLOSED_PIPE = 141

# Coverage contract: each library operation is reachable from exactly one
# subcommand (parsing/validation ops ride on `generate`, which re-emits any
# input file in canonical form).
SUBCOMMAND_OPERATIONS = {
    "count": ("count_homs", "count_independent_sets"),
    "restricted": ("count_homs_restricted",),
    "partition": ("partition_fn",),
    "knn": ("knn_restricted_count", "surjection_count"),
    "kab": ("kab_partition",),
    "eta": ("eta_two_sided",),
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
        "iter_campaign",
    ),
    "generate": (
        "gen_complete_bipartite",
        "gen_even_cycle",
        "gen_hypercube",
        "gen_union",
        "gen_random_regular_bipartite",
        "parse_graph",
    ),
}

# one override flag per parameter of a generated family, plus the seed
_OVERRIDE_KEYS = (*dict.fromkeys(k for row in GENERATED_FAMILIES.values() for k in row.params),
                  "seed")
# the flags that only an instance spec reads
_SPEC_FLAGS = ("n", *_OVERRIDE_KEYS)


def _fixture_path(name: str) -> Path:
    from importlib.resources import files  # only fixture names read it

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
            with input_digits():
                value = int(env)
        except ValueError:
            raise GraphFormatError(f"{BUDGET_ENV} must be an integer, got {shown(env)}") from None
    if value < 0:
        raise GraphFormatError(f"{source} must be nonnegative")
    return value


def _apply_overrides(doc: dict, args) -> dict:
    """The canonical spec of ``doc`` with the override flags applied and the
    default seed filled in for a seeded family."""
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
    spec = parse_instance_spec(doc)
    if needs_seed(spec):
        spec["seed"] = DEFAULT_SEED
    return spec


def _load_source(args, doc=None) -> BipartiteGraph:
    """-g accepts a bipartite graph document or an instance-spec document;
    ``doc`` is the -g document when the caller has read it already.  Either
    is charged to the larger of the budget and the default, so a spec and
    the document it generates load alike."""
    if doc is None:
        doc = read_doc(args.graph)
    if "family" in doc:
        return build_instance(_apply_overrides(doc, args), Path(args.graph).parent,
                              input_limit(_budget(args)))
    _reject_unread(args, _SPEC_FLAGS, "a -g graph document")
    return parse_bipartite(doc, _budget(args))


def _load_target(args):
    return parse_graph(read_doc(args.target), _budget(args))


def _load_acts(args, vertex_count: int) -> ActivitySystem:
    """-a accepts an activity document or any entry a campaign grid lists,
    so the activities of a report load as they are written."""
    if getattr(args, "activities", None) is None:
        return ActivitySystem.unit(vertex_count)
    return resolve_activities(read_doc(args.activities), vertex_count)


@contextmanager
def _output(path: str | None):
    """The -o file, opened for writing and closed on leaving, else stdout."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _emit(doc, output: str | None) -> None:
    """Write ``doc`` as bytes to the -o file, else to stdout after the text
    written there before.  An unbuffered stdout is a raw file, whose write
    may take only part of the bytes when the reader closes: the rest is
    written again, so the closed pipe raises BrokenPipeError instead of
    cutting the answer silently."""
    data = memoryview((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())
    with _output(output) as out:
        out.flush()
        while data:
            data = data[out.buffer.write(data):]


def _reject_unread(args, names, mode: str) -> None:
    """An input error for each flag in ``names`` that was given: ``mode`` does not read it."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name, None) is not None]
    if given:
        raise GraphFormatError(f"{mode} does not read {', '.join(given)}")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_count(args) -> dict:
    # count_homs does not need a bipartition, so plain graph files are fine here
    doc = read_doc(args.graph)
    if "family" in doc or "class_e" in doc:
        g = _load_source(args, doc).graph
    else:
        _reject_unread(args, _SPEC_FLAGS, "a -g graph document")
        g = parse_graph(doc, _budget(args))
    if args.independent_sets:
        _reject_unread(args, ["target"], "--independent-sets")
        return {"count": str(count_independent_sets(g, _budget(args)))}
    if args.target is None:
        raise GraphFormatError("count requires -H (or --independent-sets)")
    return {"count": str(count_homs(g, _load_target(args), _budget(args)))}


def _cmd_restricted(args) -> dict:
    g = _load_source(args)
    target = parse_two_sorted(read_doc(args.two_sorted), _budget(args))
    return {"count": str(count_homs_restricted(g, target, _budget(args)))}


def _cmd_partition(args) -> dict:
    g = _load_source(args)
    h = _load_target(args)
    acts = _load_acts(args, h.vertex_count)
    return {"value": str(partition_fn(g, h, acts, _budget(args)))}


def _cmd_knn(args) -> dict:
    modes = [args.target is not None, args.two_sorted is not None, args.surjections is not None]
    if sum(modes) != 1:
        raise GraphFormatError("knn requires exactly one of -H, -T, or --surjections")
    if args.surjections is not None:
        _reject_unread(args, ["activities"], "knn --surjections")
        if args.surjections < 0:
            raise GraphFormatError("--surjections must be nonnegative")
        return {"count": str(surjection_count(args.n, args.surjections, _budget(args)))}
    if args.two_sorted is not None:
        _reject_unread(args, ["activities"], "knn -T")
        target = parse_two_sorted(read_doc(args.two_sorted), _budget(args))
        return {"count": str(knn_restricted_count(args.n, target, _budget(args)))}
    h = _load_target(args)
    acts = _load_acts(args, h.vertex_count)
    return {"value": str(kab_partition(args.n, args.n, h, acts, _budget(args)))}


def _cmd_kab(args) -> dict:
    h = _load_target(args)
    acts = _load_acts(args, h.vertex_count)
    return {"value": str(kab_partition(args.a, args.b, h, acts, _budget(args)))}


def _cmd_eta(args) -> dict:
    h = _load_target(args)
    acts = _load_acts(args, h.vertex_count)
    witness = eta_two_sided(h, acts, _budget(args))
    return {"value": str(witness.value), "A": list(witness.set_a), "B": list(witness.set_b)}


def _cmd_double(args) -> dict:
    return serialize_two_sorted(double(_load_target(args)))


def _cmd_blowup(args) -> dict:
    h = _load_target(args)
    acts = _load_acts(args, h.vertex_count)
    target, meta = blowup(h, acts, _budget(args))
    return {
        "target": serialize_two_sorted(target),
        "scale": str(meta.scale),
        "upper_copies": list(meta.upper_copies),
        "lower_copies": list(meta.lower_copies),
    }


def _cmd_generate(args) -> dict:
    if args.spec is not None:
        _reject_unread(args, ["spec_file", "family", "path"], "--spec")
        doc = load_doc(args.spec)
    elif args.spec_file is not None:
        _reject_unread(args, ["family", "path"], "--spec-file")
        doc = read_doc(args.spec_file)
    elif args.family == "file":
        if args.path is None:
            raise GraphFormatError("--family file requires --path")
        doc = {"family": "file", "path": args.path}
    elif args.family is not None:
        _reject_unread(args, ["path"], f"--family {args.family}")
        doc = {"family": args.family}
    else:
        raise GraphFormatError("generate requires --family, --spec, or --spec-file")
    base = Path(args.spec_file).parent if args.spec_file else Path.cwd()
    return serialize_bipartite(build_instance(_apply_overrides(doc, args), base, _budget(args)))


def _cmd_certify(args) -> int:
    """Writes its report stream itself, each line as its report is judged,
    and returns the campaign exit code."""
    instance_flags = ["graph", "target", "activities", *_SPEC_FLAGS]
    if args.check is not None:
        if args.config is not None:
            raise GraphFormatError("--check and --config exclude each other")
        budget = _budget(args)
        if args.check == certify_mod._DEMO:
            _reject_unread(args, instance_flags, f"--check {args.check}")
            reports = [certify_mod.sandwich_nonbipartite_demo(budget)]
        else:
            if not certify_mod._PROPOSITIONS[args.check].weighted:
                _reject_unread(args, ["activities"], f"--check {args.check}")
            if args.graph is None or args.target is None:
                raise GraphFormatError(f"--check {args.check} requires -g and -H")
            g = _load_source(args)
            h = _load_target(args)
            acts = _load_acts(args, h.vertex_count)
            fn = certify_mod._CERTIFIERS[args.check]
            reports = [fn(g, h, acts, budget, None)]
    else:
        if args.config is None:
            raise GraphFormatError("certify requires --config or --check")
        _reject_unread(args, instance_flags, "--config")
        path = _fixture_path("default-campaign.json") if args.config == "default" else Path(args.config)
        config, base_dir = load_campaign(path)
        # precedence: --budget flag, then the config's own value, then the
        # environment override of the built-in default
        if args.budget is not None or "budget" not in config:
            config["budget"] = _budget(args)
        reports = iter_campaign(config, base_dir=base_dir)
    # opened once the run is planned, so an input or budget error leaves an
    # existing output file as it was
    with _output(args.output) as out:
        return write_reports(reports, out.write, strict=args.strict)


# ---------------------------------------------------------------------------
# Parser


def _add_overrides(p, n_help="complete-bipartite shorthand: a = b = n"):
    """The flags that override instance-spec fields."""
    p.add_argument("--n", type=int, help=n_help)
    for key in _OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=int, help=argparse.SUPPRESS)


def _add_common(p, *, graph=False, target=False, target_required=False, acts=False, budget=True):
    if graph:
        p.add_argument("-g", "--graph", required=True,
                       help="bipartite graph file or instance-spec file")
        _add_overrides(p)
    if target:
        p.add_argument("-H", "--target", required=target_required,
                       help="target graph file")
    if acts:
        p.add_argument("-a", "--activities", help="activity file")
    if budget:
        p.add_argument("--budget", type=int, help="node-expansion budget override")
    p.add_argument("-o", "--output", help="write to file instead of stdout")


def _fill_count(p):
    _add_common(p, graph=True, target=True)
    p.add_argument("--independent-sets", action="store_true",
                   help="count independent sets of the source graph instead")
    p.set_defaults(fn=_cmd_count)


def _fill_restricted(p):
    _add_common(p, graph=True)
    p.add_argument("-T", "--two-sorted", required=True, help="two-sorted target file")
    p.set_defaults(fn=_cmd_restricted)


def _fill_partition(p):
    _add_common(p, graph=True, target=True, target_required=True, acts=True)
    p.set_defaults(fn=_cmd_partition)


def _fill_knn(p):
    p.add_argument("--n", type=int, required=True, help="side size of K_{n,n}")
    p.add_argument("-H", "--target", help="target graph file (weighted form)")
    p.add_argument("-T", "--two-sorted", help="two-sorted target file (restricted count)")
    p.add_argument("--surjections", type=int, metavar="A",
                   help="count surjections from an n-set onto an A-set instead")
    p.add_argument("-a", "--activities", help="activity file (weighted form)")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(fn=_cmd_knn)


def _fill_kab(p):
    p.add_argument("--a", type=int, required=True, help="size of the lambda side")
    p.add_argument("--b", type=int, required=True, help="size of the mu side")
    _add_common(p, target=True, target_required=True, acts=True, budget=False)
    p.set_defaults(fn=_cmd_kab)


def _fill_eta(p):
    _add_common(p, target=True, target_required=True, acts=True, budget=False)
    p.set_defaults(fn=_cmd_eta)


def _fill_double(p):
    _add_common(p, target=True, target_required=True, budget=False)
    p.set_defaults(fn=_cmd_double)


def _fill_blowup(p):
    _add_common(p, target=True, target_required=True, acts=True, budget=False)
    p.set_defaults(fn=_cmd_blowup)


def _fill_certify(p):
    p.add_argument("--config", help="campaign config file, or 'default'")
    p.add_argument("--check", choices=certify_mod.PROPOSITION_IDS,
                   help="run a single check instead of a campaign")
    p.add_argument("-g", "--graph", help="source graph for --check")
    _add_overrides(p, n_help=argparse.SUPPRESS)
    p.add_argument("-H", "--target", help="target graph for --check")
    p.add_argument("-a", "--activities", help="activity file for --check")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any check was skipped for budget")
    p.add_argument("--budget", type=int,
                   help="node-expansion budget override (a campaign's own by default)")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(fn=_cmd_certify)


def _fill_generate(p):
    p.add_argument("--family", choices=(*GENERATED_FAMILIES, "union", "file"),
                   help="instance family (its parameters as --<param> options)")
    p.add_argument("--spec", help="inline instance-spec JSON")
    p.add_argument("--spec-file", help="instance-spec file")
    p.add_argument("--path", help="graph file for --family file")
    _add_overrides(p)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(fn=_cmd_generate)


# subcommand -> (its help line, what adds its arguments)
_SUBCOMMANDS = {
    "count": ("count homomorphisms (or independent sets)", _fill_count),
    "restricted": ("count class-restricted homomorphisms", _fill_restricted),
    "partition": ("exact weighted partition value", _fill_partition),
    "knn": ("closed form on the n-by-n complete bipartite source", _fill_knn),
    "kab": ("closed form on the a-by-b complete bipartite source", _fill_kab),
    "eta": ("optimal cross-complete pair", _fill_eta),
    "double": ("bipartite double of a target", _fill_double),
    "blowup": ("activity blow-up of a target", _fill_blowup),
    "certify": ("run certification checks or a campaign", _fill_certify),
    "generate": ("emit an instance as a bipartite graph file", _fill_generate),
}


def _subparser(fill=None, **kwargs):
    """A subcommand's parser with its arguments (``fill`` adds them), or
    None for a subcommand that the run does not invoke."""
    if fill is None:
        return None
    p = argparse.ArgumentParser(**kwargs)
    fill(p)
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The homcert parser.  Every subcommand is listed, but with a known
    ``command`` only that one gets a parser, since each parser and each
    argument costs a help formatter; otherwise all of them do.  The parser
    helps and fails alike either way, so long as the first token that is not
    an option is ``command``."""
    parser = argparse.ArgumentParser(
        prog="homcert",
        description="Exact homomorphism counting, closed forms, eta, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_subparser)
    fill_all = command not in _SUBCOMMANDS
    for name, (help_line, fill) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_line, fill=fill if fill_all or name == command else None)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option with a value, so its first
    # non-option token names the subcommand
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # exact answers print at any length; the readers still refuse an
        # input integer past the default limit (errors.input_digits)
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader closed the output: nothing more can reach it, so the
        # run ends quietly, and stdout goes to devnull so that its flush at
        # exit raises nothing (the idiom of the signal module's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(args) -> int:
    """The exit code of the subcommand, with its answer or error written."""
    try:
        result = args.fn(args)
        if isinstance(result, dict):  # every handler but certify's returns its answer
            _emit(result, args.output)
            result = 0
        sys.stdout.flush()  # so a failed write is reported here, not at exit
        return result
    except BudgetExceededError as exc:
        _emit({"error": {"code": "budget-exceeded", "message": str(exc)}}, None)
        return 1
    except ValueError as exc:  # GraphFormatError included
        _emit({"error": {"code": "input-error", "message": str(exc)}}, None)
        return 2
    except HomcertError as exc:
        _emit({"error": {"code": "operation-error", "message": str(exc)}}, None)
        return 1
    except BrokenPipeError:
        raise  # not a defect: main ends the run
    except Exception as exc:
        # a defect of the program, not a verdict: OSError on output, ...
        import traceback

        traceback.print_exc()
        try:
            _emit({"error": {"code": "internal-error", "message": repr(exc)}}, None)
            sys.stdout.flush()
        except OSError:
            pass  # stdout itself failed; the traceback on stderr says why
        return 4


if __name__ == "__main__":
    sys.exit(main())
