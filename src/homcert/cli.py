"""Command-line front end.

One subcommand per operation group; every numeric output is a decimal string
(counts) or a "p/q" string (rationals), never a binary float.  Output is
byte-identical for identical (argv, input files) across runs.  The default
seed is the fixed constant 2004, never wall-clock.
"""

from __future__ import annotations

import argparse
import gc
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
    BudgetExceededError, GraphFormatError, input_digits, input_limit, shown)
from .eta import eta_two_sided
from .graphs import (
    FAMILIES,
    GENERATED_FAMILIES,
    _STRUCTURAL,
    BipartiteGraph,
    Graph,
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
    ACTIVITY_BYTES,
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


def _load_source(args, budget: int, doc=None) -> BipartiteGraph:
    """-g accepts a bipartite graph document or an instance-spec document;
    ``doc`` is the -g document when the caller has read it already.  Either
    is charged to the larger of the budget and the default, so a spec and
    the document it generates load alike."""
    if doc is None:
        doc = read_doc(args.graph, budget=budget)
    if "family" in doc:
        return build_instance(_apply_overrides(doc, args), Path(args.graph).parent,
                              input_limit(budget))
    _reject_unread(args, _SPEC_FLAGS, "a -g graph document")
    return parse_bipartite(doc, budget)


def _load_target(args, budget: int) -> tuple[Graph, ActivitySystem]:
    """The -H target and its -a system, the unit system without -a.  -a
    accepts an activity document or any entry a campaign grid lists, so the
    activities of a report load as they are written; its byte limit is the
    target's, not the budget's."""
    h = parse_graph(read_doc(args.target, budget=budget), budget)
    path = getattr(args, "activities", None)
    entry = None if path is None else read_doc(
        path, limit=ACTIVITY_BYTES * (h.vertex_count + 1))
    return h, resolve_activities(entry, h.vertex_count)


def _load_two_sorted(args, budget: int) -> BipartiteGraph:
    """The -T two-sorted target."""
    return parse_two_sorted(read_doc(args.two_sorted, budget=budget), budget)


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


def _cmd_count(args, budget) -> dict:
    # count_homs does not need a bipartition, so plain graph files are fine here
    doc = read_doc(args.graph, budget=budget)
    if "family" in doc or "class_e" in doc:
        g = _load_source(args, budget, doc).graph
    else:
        _reject_unread(args, _SPEC_FLAGS, "a -g graph document")
        g = parse_graph(doc, budget)
    if args.independent_sets:
        _reject_unread(args, ["target"], "--independent-sets")
        return {"count": str(count_independent_sets(g, budget))}
    if args.target is None:
        raise GraphFormatError("count requires -H (or --independent-sets)")
    h, _ = _load_target(args, budget)
    return {"count": str(count_homs(g, h, budget))}


def _cmd_restricted(args, budget) -> dict:
    g = _load_source(args, budget)
    return {"count": str(count_homs_restricted(g, _load_two_sorted(args, budget), budget))}


def _cmd_partition(args, budget) -> dict:
    g = _load_source(args, budget)
    h, acts = _load_target(args, budget)
    return {"value": str(partition_fn(g, h, acts, budget))}


def _cmd_knn(args, budget) -> dict:
    if args.surjections is not None:
        if args.surjections < 0:
            raise GraphFormatError("--surjections must be nonnegative")
        return {"count": str(surjection_count(args.n, args.surjections, budget))}
    return {"count": str(knn_restricted_count(args.n, _load_two_sorted(args, budget), budget))}


def _cmd_kab(args, budget) -> dict:
    h, acts = _load_target(args, budget)
    return {"value": str(kab_partition(args.a, args.b, h, acts, budget))}


def _cmd_eta(args, budget) -> dict:
    witness = eta_two_sided(*_load_target(args, budget), budget)
    return {"value": str(witness.value), "A": list(witness.set_a), "B": list(witness.set_b)}


def _cmd_double(args, budget) -> dict:
    h, _ = _load_target(args, budget)
    return serialize_two_sorted(double(h))


def _cmd_blowup(args, budget) -> dict:
    target, meta = blowup(*_load_target(args, budget), budget)
    return {
        "target": serialize_two_sorted(target),
        "scale": str(meta.scale),
        "upper_copies": list(meta.upper_copies),
        "lower_copies": list(meta.lower_copies),
    }


def _cmd_generate(args, budget) -> dict:
    if args.spec is not None:
        _reject_unread(args, ["spec_file", "family", "path"], "--spec")
        doc = load_doc(args.spec)
    elif args.spec_file is not None:
        _reject_unread(args, ["family", "path"], "--spec-file")
        doc = read_doc(args.spec_file, budget=budget)
    elif args.family is not None:
        doc = {"family": args.family}
        if _STRUCTURAL.get(args.family) == "path":  # the family of a graph file
            if args.path is None:
                raise GraphFormatError(f"--family {args.family} requires --path")
            doc["path"] = args.path
        else:
            _reject_unread(args, ["path"], f"--family {args.family}")
    else:
        raise GraphFormatError("generate requires --family, --spec, or --spec-file")
    base = Path(args.spec_file).parent if args.spec_file else Path.cwd()
    return serialize_bipartite(build_instance(_apply_overrides(doc, args), base, budget))


def _cmd_certify(args, budget) -> int:
    """Writes its report stream itself, each line as its report is judged,
    and returns the campaign exit code."""
    instance_flags = ["graph", "target", "activities", *_SPEC_FLAGS]
    if args.check is not None:
        if args.config is not None:
            raise GraphFormatError("--check and --config exclude each other")
        if args.check == certify_mod._DEMO:
            _reject_unread(args, instance_flags, f"--check {args.check}")
            reports = [certify_mod.sandwich_nonbipartite_demo(budget)]
        else:
            if not certify_mod._PROPOSITIONS[args.check].weighted:
                _reject_unread(args, ["activities"], f"--check {args.check}")
            if args.graph is None or args.target is None:
                raise GraphFormatError(f"--check {args.check} requires -g and -H")
            g = _load_source(args, budget)
            h, acts = _load_target(args, budget)
            fn = certify_mod._CERTIFIERS[args.check]
            reports = [fn(g, h, acts, budget, None)]
    else:
        if args.config is None:
            raise GraphFormatError("certify requires --config or --check")
        _reject_unread(args, instance_flags, "--config")
        path = _fixture_path("default-campaign.json") if args.config == "default" else Path(args.config)
        config, base_dir = load_campaign(path)
        # precedence: --budget flag, then the config's own value, then the
        # environment override of the built-in default (_run has checked the
        # variable even when the config's value wins)
        if args.budget is not None or "budget" not in config:
            config["budget"] = budget
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


def _fill_restricted(p):
    _add_common(p, graph=True)
    p.add_argument("-T", "--two-sorted", required=True, help="two-sorted target file")


def _fill_partition(p):
    _add_common(p, graph=True, target=True, target_required=True, acts=True)


def _fill_knn(p):
    p.add_argument("--n", type=int, required=True, help="side size of K_{n,n}")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("-T", "--two-sorted", help="two-sorted target file (restricted count)")
    mode.add_argument("--surjections", type=int, metavar="A",
                      help="count surjections from an n-set onto an A-set instead")
    p.add_argument("-o", "--output", help="write to file instead of stdout")


def _fill_kab(p):
    p.add_argument("--a", type=int, required=True, help="size of the lambda side")
    p.add_argument("--b", type=int, required=True, help="size of the mu side")
    _add_common(p, target=True, target_required=True, acts=True, budget=False)


def _fill_eta(p):
    _add_common(p, target=True, target_required=True, acts=True, budget=False)


def _fill_double(p):
    _add_common(p, target=True, target_required=True, budget=False)


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


def _fill_generate(p):
    p.add_argument("--family", choices=FAMILIES,
                   help="instance family (its parameters as --<param> options)")
    p.add_argument("--spec", help="inline instance-spec JSON")
    p.add_argument("--spec-file", help="instance-spec file")
    p.add_argument("--path", help="graph file for --family file")
    _add_overrides(p)
    p.add_argument("-o", "--output", help="write to file instead of stdout")


# subcommand -> (its help line, what adds its arguments, its handler, the
# library operations it reaches): each operation is reached from exactly one
# subcommand, and parsing rides on generate, which re-emits any input file in
# canonical form
_SUBCOMMANDS = {
    "count": ("count homomorphisms (or independent sets)", _fill_count, _cmd_count,
              ("count_homs", "count_independent_sets")),
    "restricted": ("count class-restricted homomorphisms", _fill_restricted, _cmd_restricted,
                   ("count_homs_restricted",)),
    "partition": ("exact weighted partition value", _fill_partition, _cmd_partition,
                  ("partition_fn",)),
    "knn": ("restricted count of the n-by-n complete bipartite source, or surjections",
            _fill_knn, _cmd_knn, ("knn_restricted_count", "surjection_count")),
    "kab": ("closed form on the a-by-b complete bipartite source", _fill_kab, _cmd_kab,
            ("kab_partition",)),
    "eta": ("optimal cross-complete pair", _fill_eta, _cmd_eta, ("eta_two_sided",)),
    "double": ("bipartite double of a target", _fill_double, _cmd_double, ("double",)),
    "blowup": ("activity blow-up of a target", _fill_eta, _cmd_blowup,
               ("blowup", "scale_constant")),
    "certify": ("run certification checks or a campaign", _fill_certify, _cmd_certify,
                ("certify_hom_ub", "certify_weighted_ub", "certify_sandwich", "certify_bireg",
                 "certify_lift_identity", "certify_double_identity",
                 "sandwich_nonbipartite_demo", "run_campaign", "iter_campaign")),
    "generate": ("emit an instance as a bipartite graph file", _fill_generate, _cmd_generate,
                 ("gen_complete_bipartite", "gen_even_cycle", "gen_hypercube", "gen_union",
                  "gen_random_regular_bipartite", "parse_graph")),
}


def _subparser(fill=None, handler=None, **kwargs):
    """A subcommand's parser with its arguments (``fill`` adds them) and its
    handler, or None for a subcommand that the run does not invoke."""
    if fill is None:
        return None
    p = argparse.ArgumentParser(**kwargs)
    fill(p)
    p.set_defaults(fn=handler)
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
    for name, (help_line, fill, handler, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_line, handler=handler,
                       fill=fill if fill_all or name == command else None)
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


def entry() -> int:
    """The exit code of ``main`` on the program's arguments, for the program
    entry points (``python -m homcert`` and the ``homcert`` script).  Once
    ``main`` has returned, its output flushed, the collector freezes every
    object tracked so far, so the interpreter's shutdown collections skip
    them; atexit handlers, stream flushing and module teardown still run.
    Cyclic garbage left then is never collected and its finalizers never
    run: homcert defines no ``__del__`` and closes its own files.  ``main``
    itself leaves the caller's collector alone."""
    try:
        return main()
    finally:
        gc.freeze()


def _run(args) -> int:
    """The exit code of the subcommand, with its answer or error written."""
    try:
        result = args.fn(args, _budget(args))
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
    sys.exit(entry())
