"""Exact verification of the package's inequalities and identities on
concrete instances, plus the campaign driver.

Every comparison is power-normalized: a claimed bound X <= Y^(p/q) is checked
as X^q <= Y^p between exact integers or rationals, so no verdict ever touches
floating point.  Campaign reports are JSON lines ordered by (proposition,
trial index) and are byte-identical across runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import closedform
from .constructions import blowup, double
from .errors import BudgetExceededError, GraphFormatError
from .eta import eta_two_sided, eta_unweighted
from .graphs import (
    BipartiteGraph,
    Graph,
    InstanceSpec,
    build_instance,
    complete_graph,
    independence_target,
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
    parse_activities,
    partition_fn,
)

DEFAULT_SEED = 2004

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
SKIPPED_BUDGET = "skipped-budget"

PROPOSITION_IDS = (
    "hom-ub",
    "weighted-ub",
    "eta-sandwich",
    "bireg-ub",
    "lift-identity",
    "double-identity",
    "nonbipartite-lower-bound-failure",
)

_SEED_RULE = "master_seed+index"


@dataclass(frozen=True)
class BoundCheck:
    """One exact comparison between two power-normalized values."""

    name: str
    relation: str  # "<=" or "=="
    lhs_label: str
    rhs_label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def verdict(self) -> str:
        ok = self.lhs == self.rhs if self.relation == "==" else self.lhs <= self.rhs
        return HOLDS if ok else VIOLATED

    @property
    def equality(self) -> bool:
        return self.lhs == self.rhs

    @property
    def slack(self) -> Fraction | None:
        return self.rhs / self.lhs if self.lhs > 0 else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "relation": self.relation,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "verdict": self.verdict,
            "equality": self.equality,
            "slack": None if self.slack is None else str(self.slack),
        }


@dataclass
class CertReport:
    """One proposition check on one instance."""

    check: str
    instance: dict
    bounds: tuple[BoundCheck, ...]
    verdict: str
    expected_violation: bool = False
    details: dict = field(default_factory=dict)
    note: str | None = None

    @property
    def equality(self) -> bool:
        return bool(self.bounds) and all(b.equality for b in self.bounds)

    def to_dict(self) -> dict:
        doc = {
            "check": self.check,
            "instance": self.instance,
            "bounds": [b.to_dict() for b in self.bounds],
            "verdict": self.verdict,
            "expected_violation": self.expected_violation,
        }
        if self.details:
            doc["details"] = self.details
        if self.note is not None:
            doc["note"] = self.note
        return doc

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# The propositions.  A row gives the hypothesis on g (it returns the extra
# instance fields or raises GraphFormatError), whether activities apply, and
# the evaluation (it returns the bounds and the report details).  Evaluations
# look the layer functions up at call time, never through the table.


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


def _hom_ub(g, h, acts, budget, n):
    lhs = count_homs(g.graph, h, budget)
    rhs = closedform.knn_restricted_count(n, double(h), budget)
    bound = BoundCheck("upper", "<=", "count(g,h)^(2n)", "count(Knn,h)^N",
                       Fraction(lhs ** (2 * n)), Fraction(rhs**g.vertex_count))
    return [bound], {"count_g": str(lhs), "count_knn": str(rhs)}


def _weighted_ub(g, h, acts, budget, n):
    z_g = partition_fn(g, h, acts, budget)
    z_knn = closedform.knn_partition(n, h, acts, budget)
    bound = BoundCheck("upper", "<=", "Z(g)^(2n)", "Z(Knn)^N",
                       z_g ** (2 * n), z_knn**g.vertex_count)
    return [bound], {"Z_g": str(z_g), "Z_knn": str(z_knn)}


def _bireg_ub(g, h, acts, budget, a, b):
    z_g = partition_fn(g, h, acts, budget)
    z_kab = closedform.kab_partition(b, a, h, acts, budget)
    bound = BoundCheck("upper", "<=", "Z(g)^(a+b)", "Z(Kab)^N",
                       z_g ** (a + b), z_kab**g.vertex_count)
    return [bound], {"Z_g": str(z_g), "Z_kab": str(z_kab)}


def _sandwich_bounds(z: Fraction, eta: Fraction, n: int, big_n: int, m: int) -> list:
    """lower: eta^N <= Z^2; upper: Z^(2n) <= eta^(nN) * 2^(mN) for an m-vertex
    target.  With eta = 0 both degenerate: no bound when Z = 0 (the report is
    vacuous), else the failed assertion Z == 0."""
    if eta == 0:
        return [BoundCheck("degenerate", "==", "Z(g)", "0", z, Fraction(0))] if z else []
    return [
        BoundCheck("lower", "<=", "eta^N", "Z(g)^2", eta**big_n, z**2),
        BoundCheck("upper", "<=", "Z(g)^(2n)", "eta^(nN)*2^(|V(h)|N)",
                   z ** (2 * n), eta ** (n * big_n) * Fraction(2) ** (m * big_n)),
    ]


def _eta_sandwich(g, h, acts, budget, n):
    witness = eta_two_sided(h, acts, budget)
    z_g = partition_fn(g, h, acts, budget)
    details = {
        "eta": str(witness.value),
        "eta_A": list(witness.set_a),
        "eta_B": list(witness.set_b),
        "Z_g": str(z_g),
    }
    return _sandwich_bounds(z_g, witness.value, n, g.vertex_count, h.vertex_count), details


def _lift_identity(g, h, acts, budget):
    target, meta = blowup(h, acts, budget)
    z_g = partition_fn(g, h, acts, budget)
    lifted = count_homs_restricted(g, target, budget)
    bound = BoundCheck("identity", "==", "Z(g)*C^N", "restricted-count(blowup)",
                       z_g * meta.scale**g.vertex_count, Fraction(lifted))
    details = {
        "scale": str(meta.scale),
        "blowup_vertices": target.graph.vertex_count,
        "Z_g": str(z_g),
        "lift_count": str(lifted),
    }
    return [bound], details


def _double_identity(g, h, acts, budget):
    plain = count_homs(g.graph, h, budget)
    restricted = count_homs_restricted(g, double(h), budget)
    bound = BoundCheck("identity", "==", "count(g,h)", "restricted-count(double)",
                       Fraction(plain), Fraction(restricted))
    return [bound], {"count": str(plain), "restricted_count": str(restricted)}


_PROPOSITIONS = {
    "hom-ub": (_regular, False, _hom_ub),
    "weighted-ub": (_regular, True, _weighted_ub),
    "eta-sandwich": (_regular, True, _eta_sandwich),
    "bireg-ub": (_biregular, True, _bireg_ub),
    "lift-identity": (lambda g: {}, True, _lift_identity),
    "double-identity": (lambda g: {}, False, _double_identity),
}


def _judge(check, instance, evaluate, expected=False) -> CertReport:
    """Run one evaluation: a spent budget makes the report skipped-budget; no
    bound makes it vacuous; otherwise it holds unless a bound is violated."""
    try:
        bounds, details = evaluate()
    except BudgetExceededError as exc:
        return CertReport(check, instance, (), SKIPPED_BUDGET, note=str(exc))
    if not bounds:
        note = "eta = 0: both bounds degenerate; asserting Z = 0"
        return CertReport(check, instance, (), VACUOUS, details=details, note=note)
    verdict = VIOLATED if any(b.verdict == VIOLATED for b in bounds) else HOLDS
    return CertReport(check, instance, tuple(bounds), verdict,
                      expected_violation=expected, details=details)


def _certify(pid, g, h, acts, budget, instance_info) -> CertReport:
    hypothesis, weighted, evaluate = _PROPOSITIONS[pid]
    fields = hypothesis(g)
    inst = {"g": serialize_bipartite(g), "h": serialize_graph(h), "N": g.vertex_count}
    if weighted:
        inst["activities"] = acts.describe()
    inst.update(instance_info or {})
    inst.update(fields)
    return _judge(pid, inst, lambda: evaluate(g, h, acts, budget, **fields))


def certify_hom_ub(g: BipartiteGraph, h: Graph, budget: int = DEFAULT_BUDGET,
                   instance_info=None) -> CertReport:
    """count(g,h)^(2n) <= count(K_{n,n},h)^N for n-regular bipartite g.

    The left side comes from the backtracking counter, the right side from
    the closed form on the doubled target, so the two routes stay independent.
    """
    return _certify("hom-ub", g, h, None, budget, instance_info)


def certify_weighted_ub(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                        budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Z(g,h,acts)^(2n) <= Z(K_{n,n},h,acts)^N, any positive activities."""
    return _certify("weighted-ub", g, h, acts, budget, instance_info)


def certify_bireg(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                  budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Z(g)^(a+b) <= Z(K*)^N for (a,b)-biregular g (E-degrees a, O-degrees b).

    The reference K* is the complete bipartite graph that is itself
    (a,b)-biregular: lambda side of size b, mu side of size a.
    """
    return _certify("bireg-ub", g, h, acts, budget, instance_info)


def certify_sandwich(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                     budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Two-sided pinning of Z by the biclique optimum eta:

      lower: eta^N <= Z^2          (i.e. eta^(N/2) <= Z)
      upper: Z^(2n) <= eta^(nN) * 2^(|V(h)|*N)

    When eta = 0 (edgeless target) both bounds degenerate; the report says
    "vacuous" and asserts Z = 0 rather than passing 0 <= 0 silently.
    """
    return _certify("eta-sandwich", g, h, acts, budget, instance_info)


def certify_lift_identity(g: BipartiteGraph, h: Graph, acts: ActivitySystem,
                          budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Exact identity Z(g,h,acts) * C^N == restricted-count(g, blowup(h,acts));
    any discrepancy is a hard failure, not a tolerance matter.  A blow-up
    whose vertices plus edges exceed the budget is skipped before it is built.
    """
    return _certify("lift-identity", g, h, acts, budget, instance_info)


def certify_double_identity(g: BipartiteGraph, h: Graph,
                            budget: int = DEFAULT_BUDGET, instance_info=None) -> CertReport:
    """Exact identity count(g,h) == restricted-count(g, double(h))."""
    return _certify("double-identity", g, h, None, budget, instance_info)


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
        eta = eta_unweighted(h, budget).value
        return _sandwich_bounds(z, eta, n, big_n, h.vertex_count), {"eta": str(eta), "Z_g": str(z)}

    return _judge("nonbipartite-lower-bound-failure", inst, evaluate, expected=True)


# ---------------------------------------------------------------------------
# Campaigns

_CONFIG_KEYS = {"seed", "trials", "budget", "families", "grids", "propositions"}
_GRID_KEYS = {"targets", "activities"}
_TARGET_RE = re.compile(r"^(looped-)?k([1-9]\d*)$")


def resolve_target(entry, base_dir=None) -> Graph:
    """Target grid entry: shorthand name, {"file": path}, or inline document.

    Shorthands: "hind" (independence target), "loop" (single looped vertex),
    "k<j>" (complete graph), "looped-k<j>" (complete graph, all loops).
    """
    if isinstance(entry, str):
        if entry == "hind":
            return independence_target()
        if entry == "loop":
            return complete_graph(1, loops=True)
        m = _TARGET_RE.match(entry)
        if m:
            return complete_graph(int(m.group(2)), loops=bool(m.group(1)))
        raise GraphFormatError(f"unknown target shorthand {entry!r}")
    if isinstance(entry, dict) and set(entry) == {"file"}:
        if not isinstance(entry["file"], str):
            raise GraphFormatError(f"target 'file' must be a path string, got {entry['file']!r}")
        return parse_graph(read_doc(entry["file"], base_dir))
    if isinstance(entry, dict):
        return parse_graph(entry)
    raise GraphFormatError(f"bad target entry {entry!r}")


def resolve_activities(entry, vertex_count: int) -> ActivitySystem:
    """Activity grid entry: "unit", {"uniform": {...}}, {"vertex": {...}},
    a bare uniform {"lambda": ..., "mu": ...}, or a full activity document."""
    if entry is None or entry == "unit" or entry == {"unit": True}:
        return ActivitySystem.unit(vertex_count)
    if isinstance(entry, dict):
        if set(entry) == {"uniform"}:
            pair = entry["uniform"]
            if not isinstance(pair, dict) or "lambda" not in pair or set(pair) - {"lambda", "mu"}:
                raise GraphFormatError(f"bad uniform activity entry {entry!r}")
            return ActivitySystem.uniform(vertex_count, pair["lambda"], pair.get("mu"))
        if set(entry) == {"vertex"}:
            return parse_activities({"activities": entry["vertex"]}, vertex_count)
        if set(entry) == {"activities"}:
            return parse_activities(entry, vertex_count)
        if "lambda" in entry and not set(entry) - {"lambda", "mu"}:
            return ActivitySystem.uniform(vertex_count, entry["lambda"], entry.get("mu"))
    raise GraphFormatError(f"bad activity entry {entry!r}")


def _list_field(doc: dict, key: str, default=None):
    if key not in doc:
        return default
    if not isinstance(doc[key], (list, tuple)):
        raise GraphFormatError(f"{key!r} must be a list, got {doc[key]!r}")
    return list(doc[key])


@dataclass(frozen=True)
class PropositionPlan:
    id: str
    families: list | None = None
    targets: list | None = None
    activities: list | None = None


def _parse_propositions(entries) -> list[PropositionPlan]:
    plans = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"id": entry}
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphFormatError(f"bad proposition entry {entry!r}")
        unknown = set(entry) - {"id", "families", "targets", "activities"}
        if unknown:
            raise GraphFormatError(f"unknown proposition keys {sorted(unknown)}")
        if entry["id"] not in PROPOSITION_IDS:
            raise GraphFormatError(
                f"unknown proposition {entry['id']!r}; expected one of {PROPOSITION_IDS}"
            )
        overrides = (_list_field(entry, key) for key in ("families", "targets", "activities"))
        plans.append(PropositionPlan(entry["id"], *overrides))
    return plans


def load_campaign(source, base_dir=None) -> tuple[dict, Path | None]:
    """Load and validate a campaign config; returns (config, base_dir)."""
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
        raise GraphFormatError(f"unknown campaign keys {sorted(unknown)}")
    grids = raw.get("grids", {})
    if not isinstance(grids, dict) or set(grids) - _GRID_KEYS:
        raise GraphFormatError("'grids' must be an object with 'targets'/'activities'")
    for key, default in (("seed", DEFAULT_SEED), ("trials", 3), ("budget", DEFAULT_BUDGET)):
        value = raw.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise GraphFormatError(f"campaign {key!r} must be a nonnegative integer")
    config = {
        "seed": raw.get("seed", DEFAULT_SEED),
        "trials": raw.get("trials", 3),
        "families": _list_field(raw, "families", []),
        "grids": {
            "targets": _list_field(grids, "targets", ["hind"]),
            "activities": _list_field(grids, "activities", ["unit"]),
        },
        "propositions": _list_field(raw, "propositions", []),
    }
    # left out when the config has none, so a caller can tell the config's
    # own budget from the default
    if "budget" in raw:
        config["budget"] = raw["budget"]
    return config, base_dir


def _expand_instances(families, master_seed, trials, base_dir):
    """Instances in family order; random families draw `trials` samples with
    seeds master_seed + running index (the recorded splitting rule)."""
    out = []
    counter = 0
    for doc in families:
        spec = doc if isinstance(doc, InstanceSpec) else parse_instance_spec(doc)
        if spec.family == "random-regular" and spec.seed is None:
            for _ in range(trials):
                seeded = InstanceSpec(spec.family, spec.params, master_seed + counter)
                counter += 1
                desc = seeded.describe()
                desc["seed_rule"] = _SEED_RULE
                out.append((desc, build_instance(seeded, base_dir)))
        else:
            out.append((spec.describe(), build_instance(spec, base_dir)))
    return out


_CERTIFIERS = {
    "hom-ub": lambda g, h, acts, budget, info: certify_hom_ub(g, h, budget, info),
    "weighted-ub": certify_weighted_ub,
    "eta-sandwich": certify_sandwich,
    "bireg-ub": certify_bireg,
    "lift-identity": certify_lift_identity,
    "double-identity": lambda g, h, acts, budget, info: certify_double_identity(g, h, budget, info),
}


def run_campaign(config, base_dir=None) -> list[CertReport]:
    """Deterministic sweep over (proposition, instance, target, activities).

    The whole config is resolved before the first check runs; reports come
    in plan order.
    """
    config, base_dir = load_campaign(config, base_dir)
    budget = config.get("budget", DEFAULT_BUDGET)
    plans = _parse_propositions(config["propositions"])
    jobs = []
    for plan in plans:
        if plan.id == "nonbipartite-lower-bound-failure":
            jobs.append(lambda budget=budget: sandwich_nonbipartite_demo(budget))
            continue
        hypothesis, weighted, _ = _PROPOSITIONS[plan.id]
        families = plan.families if plan.families is not None else config["families"]
        instances = []
        for g_desc, g in _expand_instances(families, config["seed"], config["trials"], base_dir):
            try:
                hypothesis(g)
            except GraphFormatError:
                continue
            instances.append((g_desc, g))
        target_entries = plan.targets if plan.targets is not None else config["grids"]["targets"]
        targets = [(entry, resolve_target(entry, base_dir)) for entry in target_entries]
        act_entries = (
            plan.activities if plan.activities is not None else config["grids"]["activities"]
        ) if weighted else [None]
        certifier = _CERTIFIERS[plan.id]
        for trial, (g_desc, g) in enumerate(instances):
            for t_entry, h in targets:
                for a_entry in act_entries:
                    acts = resolve_activities(a_entry, h.vertex_count)
                    info = {"g_spec": g_desc, "h_spec": t_entry, "trial": trial}
                    jobs.append(
                        lambda c=certifier, g=g, h=h, a=acts, i=info: c(g, h, a, budget, i)
                    )
    return [job() for job in jobs]


def campaign_exit_code(reports, strict: bool = False) -> int:
    """0 all hold or expected; 1 unexpected violation (or a missing expected
    one); 3 budget exhaustion under strict mode."""
    for r in reports:
        if r.expected_violation:
            if r.verdict not in (VIOLATED, SKIPPED_BUDGET):
                return 1
        elif r.verdict == VIOLATED:
            return 1
    if strict and any(r.verdict == SKIPPED_BUDGET for r in reports):
        return 3
    return 0


def report_stream(reports) -> str:
    return "".join(r.to_json_line() + "\n" for r in reports)
