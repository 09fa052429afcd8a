"""Exact verification of the package's inequalities and identities on
concrete instances, plus the campaign driver.

Every comparison is power-normalized: a claimed bound X <= Y^(p/q) is checked
as X^q <= Y^p between exact integers or rationals, so no verdict ever touches
floating point.  Campaign reports are JSON lines ordered by (proposition,
trial index), written as they are judged, and byte-identical across runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import closedform
from .constructions import blowup, double
from .errors import BudgetExceededError, GraphFormatError, input_limit, shown
from .eta import EtaWitness, eta_two_sided
from .graphs import (
    BipartiteGraph,
    Graph,
    build_instance,
    complete_graph,
    independence_target,
    instance_size,
    list_field,
    needs_seed,
    parse_graph,
    parse_instance_spec,
    read_doc,
    serialize_bipartite,
    serialize_graph,
)
from .homcount import (
    DEFAULT_BUDGET,
    ActivitySystem,
    count_homs,
    count_homs_restricted,
    grid_values,
    grid_walks,
    resolve_activities,
)
# the report records and the stream writer, importable from here as well
from .reports import (
    HOLDS,
    SKIPPED_BUDGET,
    VACUOUS,
    VIOLATED,
    BoundCheck,
    CertReport,
    Frame,
    Judgement,
    campaign_exit_code,
    report_stream,
    write_reports,
)

DEFAULT_SEED = 2004

# the one check that is not a _PROPOSITIONS row: it has no instance to take
_DEMO = "nonbipartite-lower-bound-failure"

_SEED_RULE = "master_seed+index"

# a missing memo entry, where None may be a value
_UNSET = object()


class _Quantities:
    """The one memo of a run: every number its reports ask for, computed once
    on first use.  These are Z per (source, target), from one run
    (homcount.grid_values) of the walks that answer every system the run's
    jobs ask of the source into the target (an unweighted proposition's
    system is the unit one, so its count is a Z of denominator 1), those
    walks (homcount.grid_walks) per (target, source side sizes, systems),
    the closed forms per (sizes, target, system), eta, the double and the
    blow-up per target or (target, system), the bounds' right sides per
    (value, exponent), the serialized sources, targets and systems, and a campaign's
    resolved sources, targets and systems, each under a key that starts with
    its kind.  (A graph's kernel vertex order is memoised on the graph; twin
    classes are derived by each kernel walk, closed form and eta that uses
    them.)
    Each computation charges its own meter up to the run's budget, as a
    direct call would; a refusal is kept and raised again at every use.

    A job is a proposition on a source and a target, for each of a list of
    systems: (proposition id, source, target, [(system, its document)], its
    class key, the document its reports share: the instance but the
    activities), the objects themselves, so what its reports share is made
    once per job.  Memo keys use the objects' id(), so the jobs and the memo
    keep every object alive for the run.  Systems alone are also kept by
    value, under ("acts", system): every system a job lists comes through
    system(), which returns the run's first system of that value, so equal
    systems share one id and so one Z, walk list and closed form.  The memo
    holds only what reports share: nothing in it is made per report, and
    only the judgements are made per system of a job.

    A source class is the sources that classify() finds side-preserving
    isomorphic, named by its first source.  A judgement (reports.Judgement)
    depends on its source only up to such an isomorphism: through Z, N, the
    hypothesis fields and, for the identities, the restricted count over the
    blow-up or the double.  A walk's meter is not an invariant, so a refusal
    is not.  Hence the one rule: the members of a class share each judgement
    that is not skipped-budget, per class key (proposition, first source,
    target, the hypothesis fields' values in the order the evaluation takes
    them) and system, made by the first job that asks and kept until the
    key's last job, counted at plan time.  A job without a shared judgement
    judges alone, from its own source's Z grid, as a run without classes
    would, so a report that answers alone answers here too.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._values: dict = {}
        # (id(g), id(h)) -> {id(acts): acts}, in job order: g's Z grid into h
        self._grids: dict = {}
        # a source's sorted vertex labels -> the first sources of its classes,
        # in plan order
        self._buckets: dict = {}
        # a job's class key (pid, id(first), id(h), fields) -> [its jobs not yet
        # begun, {id(system): the judgement its class's members share}]
        self._judged: dict = {}

    def classify(self, g: BipartiteGraph) -> BipartiteGraph:
        """The first source of g's class: the first source before g with a
        side-preserving isomorphism onto it, else g, which starts a class of
        its own.  Only the first sources with g's sorted vertex labels, the
        matcher's own test, are tried, in plan order.  The labels cost one
        step per path of two edges, the sum of deg(v)^2, uncharged, so past
        the budget g keeps a class of its own, as a lone source does."""
        if sum([len(ws) ** 2 for ws in g.graph.neighbors]) > self.budget:
            return g
        firsts = self._buckets.setdefault(g._vertex_labels()[1], [])
        for first in firsts:
            if g.isomorphism(first) is not None:
                return first
        firsts.append(g)
        return g

    def job(self, pid, g, first, h, systems: list, fields: dict, info: dict) -> tuple:
        """The job tuple, which carries its class key (pid, id(first), id(h),
        the hypothesis fields' values) and counts itself in the key's memo
        entry.  Its systems join the Z grid of (g, h), so a run makes every
        job before its first report.  Its reports share their instance but
        the activities: the documents of g and h, N, the info and the fields."""
        grid = self._grids.setdefault((id(g), id(h)), {})
        for acts, _ in systems:
            grid[id(acts)] = acts
        base = {"g": self._doc(g, serialize_bipartite), "h": self._doc(h, serialize_graph),
                "N": g.vertex_count, **info, **fields}
        key = pid, id(first), id(h), tuple(fields.values())
        self._judged.setdefault(key, [0, {}])[0] += 1
        return pid, g, h, systems, key, base

    def system(self, acts: ActivitySystem) -> tuple[ActivitySystem, dict]:
        """(acts, its report document), as a job lists it: the run's first
        system equal to acts, so equal systems share their memo entries."""
        acts = self._values.setdefault(("acts", acts), acts)
        return acts, self._doc(acts, ActivitySystem.describe)

    def once(self, key, compute, *args):
        """compute(*args) on the first call with ``key``; later calls return
        its value or raise its budget refusal again."""
        value = self._values.get(key, _UNSET)
        if value is _UNSET:
            try:
                value = compute(*args)
            except BudgetExceededError as exc:
                value = exc
            self._values[key] = value
        if isinstance(value, BudgetExceededError):
            raise value.with_traceback(None)
        return value

    def power(self, value, exponent: int, shift: int = 0) -> Fraction:
        """value^exponent * 2^shift as a Fraction, for a value this memo holds:
        a bound's right side, made once for every report that shares it."""
        return self.once(("power", id(value), exponent, shift), _power, value, exponent, shift)

    def z(self, g: BipartiteGraph, h: Graph, acts: ActivitySystem) -> Fraction:
        """Z(g, h, acts), or the refusal of the walk that carried it, from one
        run of the walks for every system of g's grid into h."""
        value = self.once(("z", id(g), id(h)), self._run, g, h)[id(acts)]
        if isinstance(value, BudgetExceededError):
            raise value.with_traceback(None)
        return value

    def _run(self, g: BipartiteGraph, h: Graph) -> dict:
        grid = self._grids[id(g), id(h)]
        ne, no = len(g.class_e), len(g.class_o)
        walks = self.once(("walks", id(h), ne, no, *grid), grid_walks, h, grid.values(), ne, no)
        values = grid_values(g, h, walks, self.budget)
        return {key: values[acts] for key, acts in grid.items()}

    def kab(self, a: int, b: int, h: Graph, acts: ActivitySystem) -> Fraction:
        return self.once(("kab", a, b, id(h), id(acts)), closedform.kab_partition, a, b, h, acts,
                         self.budget)

    def knn_count(self, n: int, h: Graph) -> int:
        return self.once(("knn", n, id(h)), closedform.knn_restricted_count, n,
                         self.doubled(h), self.budget)

    def doubled(self, h: Graph) -> BipartiteGraph:
        return self.once(("double", id(h)), double, h)

    def eta(self, h: Graph, acts: ActivitySystem) -> EtaWitness:
        return self.once(("eta", id(h), id(acts)), eta_two_sided, h, acts, self.budget)

    def _doc(self, obj, write) -> dict:
        return self.once(("doc", id(obj)), write, obj)

    def reports(self, job: tuple) -> Iterator[CertReport]:
        """Judge the job's proposition on its instance, one report per system,
        or take the judgement its class shares, whose memo entry leaves at
        the class's last job.  The reports share one Frame."""
        pid, g, h, systems, key, base = job
        _, weighted, evaluate = _PROPOSITIONS[pid]
        frame = Frame(base, weighted)
        entry = self._judged[key]
        entry[0] -= 1
        if not entry[0]:
            del self._judged[key]
        judged, fields = entry[1], key[3]
        for acts, acts_doc in systems:
            judgement = judged.get(id(acts))
            if judgement is None:
                judgement = _judge(pid, evaluate, (self, g, h, acts, *fields))
                if judgement.verdict != SKIPPED_BUDGET:
                    judged[id(acts)] = judgement
            yield CertReport(judgement, frame, acts_doc if weighted else None)


def _power(value, exponent: int, shift: int) -> Fraction:
    return Fraction(value) ** exponent * (1 << shift)


def _judge(check, evaluate, args, expected=False) -> Judgement:
    """Run one evaluation, evaluate(*args): a spent budget makes the
    judgement skipped-budget; no bound makes it vacuous; otherwise it holds
    unless a bound is violated."""
    try:
        bounds, details = evaluate(*args)
    except BudgetExceededError as exc:
        return Judgement(check, (), SKIPPED_BUDGET, False, None, str(exc))
    if not bounds:
        note = "eta = 0: both bounds degenerate; asserting Z = 0"
        return Judgement(check, (), VACUOUS, False, details, note)
    verdict = VIOLATED if VIOLATED in [b.verdict for b in bounds] else HOLDS
    return Judgement(check, tuple(bounds), verdict, expected, details)


# The propositions.  An evaluation takes the run's quantities, the job's
# source, target and system and the hypothesis fields, and asks for every
# number it needs in its own order, so the first refused quantity is the one
# its report names.


def _regular(g: BipartiteGraph) -> dict:
    n = g.regular_degree()
    if n is None or n < 1:
        raise GraphFormatError("instance must be n-regular bipartite with n >= 1")
    return {"n": n}


def _biregular(g: BipartiteGraph) -> dict:
    degrees = g.biregular_degrees()
    if degrees is None or min(degrees) < 1:
        raise GraphFormatError("instance must be biregular with positive degrees")
    return {"a": degrees[0], "b": degrees[1]}


def _hom_ub(q, g, h, acts, n):
    lhs = q.z(g, h, acts)
    rhs = q.knn_count(n, h)
    bound = BoundCheck("upper", "<=", "count(g,h)^(2n)", "count(Knn,h)^N",
                       lhs ** (2 * n), q.power(rhs, g.vertex_count))
    return [bound], {"count_g": str(lhs), "count_knn": str(rhs)}


def _weighted_ub(q, g, h, acts, n):
    z_g = q.z(g, h, acts)
    z_knn = q.kab(n, n, h, acts)
    bound = BoundCheck("upper", "<=", "Z(g)^(2n)", "Z(Knn)^N",
                       z_g ** (2 * n), q.power(z_knn, g.vertex_count))
    return [bound], {"Z_g": str(z_g), "Z_knn": str(z_knn)}


def _bireg_ub(q, g, h, acts, a, b):
    z_g = q.z(g, h, acts)
    z_kab = q.kab(b, a, h, acts)
    bound = BoundCheck("upper", "<=", "Z(g)^(a+b)", "Z(Kab)^N",
                       z_g ** (a + b), q.power(z_kab, g.vertex_count))
    return [bound], {"Z_g": str(z_g), "Z_kab": str(z_kab)}


def _sandwich_bounds(z: Fraction, eta: Fraction, n: int, eta_n: Fraction,
                     eta_upper: Fraction) -> list:
    """lower: eta^N <= Z^2; upper: Z^(2n) <= eta^(nN) * 2^(mN) for an m-vertex
    target, given eta_n = eta^N and eta_upper = eta^(nN) * 2^(mN).  With eta
    = 0 both degenerate: no bound when Z = 0 (the report is vacuous), else the
    failed assertion Z == 0."""
    if eta == 0:
        return [BoundCheck("degenerate", "==", "Z(g)", "0", z, Fraction(0))] if z else []
    return [
        BoundCheck("lower", "<=", "eta^N", "Z(g)^2", eta_n, z**2),
        BoundCheck("upper", "<=", "Z(g)^(2n)", "eta^(nN)*2^(|V(h)|N)", z ** (2 * n), eta_upper),
    ]


def _eta_details(witness: EtaWitness) -> dict:
    """The eta sandwich's details that every report of a (target, system)
    shares: eta and its witness sets, as the witness's own tuples."""
    return {"eta": str(witness.value), "eta_A": witness.set_a, "eta_B": witness.set_b}


def _eta_sandwich(q, g, h, acts, n):
    witness = q.eta(h, acts)
    shared = q.once(("eta details", id(h), id(acts)), _eta_details, witness)
    z_g = q.z(g, h, acts)
    eta, big_n = witness.value, g.vertex_count
    bounds = _sandwich_bounds(z_g, eta, n, q.power(eta, big_n),
                              q.power(eta, n * big_n, h.vertex_count * big_n))
    return bounds, {**shared, "Z_g": str(z_g)}


def _lift_identity(q, g, h, acts):
    target, meta = q.once(("blowup", id(h), id(acts)), blowup, h, acts, q.budget)
    z_g = q.z(g, h, acts)
    lifted = count_homs_restricted(g, target, q.budget)
    bound = BoundCheck("identity", "==", "Z(g)*C^N", "restricted-count(blowup)",
                       z_g * meta.scale**g.vertex_count, Fraction(lifted))
    details = {
        "scale": str(meta.scale),
        "blowup_vertices": target.graph.vertex_count,
        "Z_g": str(z_g),
        "lift_count": str(lifted),
    }
    return [bound], details


def _double_identity(q, g, h, acts):
    plain = q.z(g, h, acts)
    restricted = count_homs_restricted(g, q.doubled(h), q.budget)
    bound = BoundCheck("identity", "==", "count(g,h)", "restricted-count(double)",
                       plain, Fraction(restricted))
    return [bound], {"count": str(plain), "restricted_count": str(restricted)}


class Proposition(NamedTuple):
    """A checkable proposition.  ``hypothesis`` takes the source and returns
    the extra instance fields or raises GraphFormatError; ``weighted`` says
    whether activities apply; ``evaluate`` returns the bounds and the report
    details."""

    hypothesis: Callable[[BipartiteGraph], dict]
    weighted: bool
    evaluate: Callable[..., tuple[list, dict]]


_PROPOSITIONS = {
    "hom-ub": Proposition(_regular, False, _hom_ub),
    "weighted-ub": Proposition(_regular, True, _weighted_ub),
    "eta-sandwich": Proposition(_regular, True, _eta_sandwich),
    "bireg-ub": Proposition(_biregular, True, _bireg_ub),
    "lift-identity": Proposition(lambda g: {}, True, _lift_identity),
    "double-identity": Proposition(lambda g: {}, False, _double_identity),
}

PROPOSITION_IDS = (*_PROPOSITIONS, _DEMO)


def _check(pid, g: BipartiteGraph, h: Graph, acts: ActivitySystem | None,
           budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Proposition ``pid`` on one instance, as a run of one job: it shares no
    number with another report, and its Z grid holds one system, so no walk
    is packed."""
    hypothesis, weighted, _ = _PROPOSITIONS[pid]
    q = _Quantities(budget)
    system = q.system(acts if weighted else ActivitySystem.unit(h.vertex_count))
    (report,) = q.reports(q.job(pid, g, g, h, [system], hypothesis(g), instance_info or {}))
    return report


# pid -> fn(g, h, acts, budget, instance_info); the CLI's --check dispatches here
_CERTIFIERS = {pid: partial(_check, pid) for pid in _PROPOSITIONS}


def certify_hom_ub(g: BipartiteGraph, h: Graph, budget: int = DEFAULT_BUDGET,
                   instance_info=None) -> CertReport:
    """count(g,h)^(2n) <= count(K_{n,n},h)^N for n-regular bipartite g.

    The left side comes from the homomorphism counter, the right side from
    the closed form on the doubled target, so the two routes stay independent.
    """
    return _check("hom-ub", g, h, None, budget, instance_info)


def certify_weighted_ub(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                        budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Z(g,h,acts)^(2n) <= Z(K_{n,n},h,acts)^N, any positive activities."""
    return _check("weighted-ub", g, h, acts, budget, instance_info)


def certify_bireg(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                  budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Z(g)^(a+b) <= Z(K*)^N for (a,b)-biregular g (E-degrees a, O-degrees b).

    The reference K* is the complete bipartite graph that is itself
    (a,b)-biregular: lambda side of size b, mu side of size a.
    """
    return _check("bireg-ub", g, h, acts, budget, instance_info)


def certify_sandwich(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                     budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Two-sided pinning of Z by the biclique optimum eta:

      lower: eta^N <= Z^2          (i.e. eta^(N/2) <= Z)
      upper: Z^(2n) <= eta^(nN) * 2^(|V(h)|*N)

    When eta = 0 (edgeless target) both bounds degenerate; the report says
    "vacuous" and asserts Z = 0 rather than passing 0 <= 0 silently.
    """
    return _check("eta-sandwich", g, h, acts, budget, instance_info)


def certify_lift_identity(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                          budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Exact identity Z(g,h,acts) * C^N == restricted-count(g, blowup(h,acts));
    any discrepancy is a hard failure, not a tolerance matter.  A blow-up
    whose vertices plus edges exceed the budget is skipped before it is built.
    """
    return _check("lift-identity", g, h, acts, budget, instance_info)


def certify_double_identity(g: BipartiteGraph, h: Graph,
                            budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Exact identity count(g,h) == restricted-count(g, double(h))."""
    return _check("double-identity", g, h, None, budget, instance_info)


def sandwich_nonbipartite_demo(budget: int = DEFAULT_BUDGET) -> CertReport:
    """Documented failure of the sandwich lower bound without the bipartite
    hypothesis: the triangle admits no homomorphism into a single edge, yet
    the edge has a nonempty cross-complete pair.

    This is the one violation a campaign expects; it never fails a run.
    """
    g = complete_graph(3)
    h = complete_graph(2)
    big_n, n = 3, 2
    inst = {
        "g": serialize_graph(g),
        "g_note": "triangle treated as 2-regular non-bipartite source",
        "h": serialize_graph(h),
        "N": big_n,
        "n": n,
    }

    def evaluate():
        z = Fraction(count_homs(g, h, budget))
        eta = eta_two_sided(h, ActivitySystem.unit(h.vertex_count), budget).value
        bounds = _sandwich_bounds(z, eta, n, eta**big_n,
                                  _power(eta, n * big_n, h.vertex_count * big_n))
        return bounds, {"eta": str(eta), "Z_g": str(z)}

    return CertReport(_judge(_DEMO, evaluate, (), True), Frame(inst, False))


# ---------------------------------------------------------------------------
# Campaigns

_CONFIG_KEYS = {"seed", "trials", "budget", "families", "grids", "propositions"}
_GRID_KEYS = {"targets", "activities"}
_TARGET_RE = re.compile(r"^(looped-)?k([1-9]\d*)$")


def resolve_target(entry, base_dir=None, budget: int = DEFAULT_BUDGET) -> Graph:
    """Target grid entry: shorthand name, {"file": path}, or inline document.

    Shorthands: "hind" (independence target), "loop" (single looped vertex),
    "k<j>" (complete graph), "looped-k<j>" (complete graph, all loops).  A
    complete graph whose vertices plus edges exceed the budget raises
    BudgetExceededError before any of it is built.
    """
    if isinstance(entry, str):
        if entry == "hind":
            return independence_target()
        if entry == "loop":
            return complete_graph(1, loops=True)
        m = _TARGET_RE.match(entry)
        if m:
            k = int(m.group(2))
            edges = comb(k, 2)
            if k + edges > budget:
                raise BudgetExceededError(
                    f"target {entry} of {k} vertices and {edges} edges exceeds budget {budget}")
            return complete_graph(k, loops=bool(m.group(1)))
        raise GraphFormatError(f"unknown target shorthand {shown(entry)}")
    if isinstance(entry, dict) and set(entry) == {"file"}:
        if not isinstance(entry["file"], str):
            raise GraphFormatError(
                f"target 'file' must be a path string, got {shown(entry['file'])}")
        return parse_graph(read_doc(entry["file"], base_dir, budget), budget)
    if isinstance(entry, dict):
        return parse_graph(entry, budget)
    raise GraphFormatError(f"bad target entry {shown(entry)}")


def _proposition(entry, lists: dict) -> dict:
    """A proposition entry with its families, targets and activities: its own
    lists where it has them, else the campaign's."""
    if isinstance(entry, str):
        entry = {"id": entry}
    if not isinstance(entry, dict) or "id" not in entry:
        raise GraphFormatError(f"bad proposition entry {shown(entry)}")
    unknown = set(entry) - {"id", *lists}
    if unknown:
        raise GraphFormatError(f"unknown proposition keys {shown(sorted(unknown))}")
    if entry["id"] not in PROPOSITION_IDS:
        raise GraphFormatError(
            f"unknown proposition {shown(entry['id'])}; expected one of {PROPOSITION_IDS}"
        )
    return {"id": entry["id"], **{key: list_field(entry, key, lists[key]) for key in lists}}


def load_campaign(source, base_dir=None) -> tuple[dict, Path | None]:
    """Load and validate a campaign config; returns (config, base_dir).  Each
    proposition entry of the config comes back with its families, targets and
    activities filled in, so a loaded config loads as itself."""
    if isinstance(source, (str, Path)):
        raw = read_doc(source)
        if base_dir is None:
            base_dir = Path(source).parent
    else:
        raw = source
    if not isinstance(raw, dict):
        raise GraphFormatError("campaign config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise GraphFormatError(f"unknown campaign keys {shown(sorted(unknown))}")
    grids = raw.get("grids", {})
    if not isinstance(grids, dict) or set(grids) - _GRID_KEYS:
        raise GraphFormatError("'grids' must be an object with 'targets'/'activities'")
    for key, default in (("seed", DEFAULT_SEED), ("trials", 3), ("budget", DEFAULT_BUDGET)):
        value = raw.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise GraphFormatError(f"campaign {key!r} must be a nonnegative integer")
    lists = {"families": list_field(raw, "families", []),
             "targets": list_field(grids, "targets", ["hind"]),
             "activities": list_field(grids, "activities", ["unit"])}
    config = {
        "seed": raw.get("seed", DEFAULT_SEED),
        "trials": raw.get("trials", 3),
        "families": lists["families"],
        "grids": {"targets": lists["targets"], "activities": lists["activities"]},
        "propositions": [_proposition(entry, lists)
                         for entry in list_field(raw, "propositions", [])],
    }
    # left out when the config has none, so a caller can tell the config's
    # own budget from the default
    if "budget" in raw:
        config["budget"] = raw["budget"]
    return config, base_dir


def _instance_specs(families, master_seed, trials, budget) -> list[tuple[dict, dict]]:
    """(description, buildable spec) of each instance in family order; random
    families draw `trials` samples with seeds master_seed + running index
    (the recorded splitting rule).  The vertices plus edges of all of them
    are charged to the budget before any is built."""
    specs = [parse_instance_spec(doc) for doc in families]
    total = sum(instance_size(spec, budget) * (trials if needs_seed(spec) else 1)
                for spec in specs)
    if total > budget:
        raise BudgetExceededError(
            f"campaign sources of {total} vertices plus edges exceed budget {budget}")
    out = []
    counter = 0
    for spec in specs:
        if not needs_seed(spec):
            out.append((spec, spec))
            continue
        for _ in range(trials):
            seeded = {**spec, "seed": master_seed + counter}
            counter += 1
            out.append(({**seeded, "seed_rule": _SEED_RULE}, seeded))
    return out


def iter_campaign(config, base_dir=None) -> Iterator[CertReport]:
    """Plan the campaign now and return the generator of its reports.

    The whole config is resolved before this returns, each distinct families
    list, source, target and (target, activity entry) once, through the run's
    one memo, so every input or budget error is raised here, before any
    report.  Each (proposition, source, target) is a job of the resolved
    objects with the target's systems, and the jobs are made together, so
    every Z grid is known and a number they share is computed once.  The
    generator judges one report per job and system, in plan order, and the
    run holds only the memo, the jobs and the report drawn.

    Each source is classified (_Quantities.classify) when it is built, in
    plan order, so every run picks the same first source per class; the jobs
    of one class key share their answered judgements (see _Quantities).  A
    report that the public certify_* functions answer one at a time is the
    same here; one they refuse may answer from a judgement its class shares.
    """
    config, base_dir = load_campaign(config, base_dir)
    budget = config.get("budget", DEFAULT_BUDGET)
    # every report carries its source and target, so even a campaign whose
    # budget skips every check builds the instances the default budget admits
    build_budget = input_limit(budget)
    q = _Quantities(budget)

    def source(desc, spec):
        g = build_instance(spec, base_dir, build_budget)
        return desc, g, q.classify(g)

    def sources(families):
        specs = _instance_specs(families, config["seed"], config["trials"], build_budget)
        return [q.once(("source", repr(desc)), source, desc, spec) for desc, spec in specs]

    # the plans' jobs in report order: instances that meet the hypothesis,
    # then targets, each job listing its systems; None holds the demo's place
    jobs = []
    for plan in config["propositions"]:
        pid = plan["id"]
        if pid == _DEMO:
            jobs.append(None)
            continue
        hypothesis, weighted, _ = _PROPOSITIONS[pid]
        families = plan["families"]
        instances = []
        for desc, g, first in q.once(("families", repr(families)), sources, families):
            try:
                instances.append((desc, g, first, hypothesis(g)))
            except GraphFormatError:
                continue
        targets = [q.once(("target", repr(entry)),
                          lambda: (entry, resolve_target(entry, base_dir, build_budget)))
                   for entry in plan["targets"]]
        # each target's systems; none is resolved for a plan without instances
        entries = (plan["activities"] if weighted else [None]) if instances else []
        systems = [[q.once(("system", id(h), repr(entry)),
                           lambda: q.system(resolve_activities(entry, h.vertex_count)))
                    for entry in entries] for _, h in targets]
        for trial, (desc, g, first, fields) in enumerate(instances):
            for (h_spec, h), target_systems in zip(targets, systems):
                info = {"g_spec": desc, "h_spec": h_spec, "trial": trial}
                jobs.append(q.job(pid, g, first, h, target_systems, fields, info))
    return _reports(q, jobs, budget)


def _reports(q: _Quantities, jobs: list, budget: int) -> Iterator[CertReport]:
    """The reports of the jobs, in order; None is the demo's place."""
    for job in jobs:
        if job is None:
            yield sandwich_nonbipartite_demo(budget)
        else:
            yield from q.reports(job)


def run_campaign(config, base_dir=None) -> list[CertReport]:
    """Deterministic sweep over (proposition, instance, target, activities):
    every report of iter_campaign, in plan order."""
    return list(iter_campaign(config, base_dir))
