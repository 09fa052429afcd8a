"""Reports: the record of one check (CertReport) and of each bound it
judged (BoundCheck), and the one writer of a report stream.

A report's JSON line is json.dumps(report.to_dict(), sort_keys=True,
separators=(",", ":")); the writer builds those bytes from what its reports
share, encoded once per stream, and from each bound's kept cross products.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import attrgetter
from typing import Callable

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
SKIPPED_BUDGET = "skipped-budget"

# a report's JSON is json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# what _json writes for a string
_string = encode_basestring_ascii


@lru_cache(maxsize=64)  # certify makes eight kinds of bound
def _bound_frame(name: str, relation: str, lhs_label: str, rhs_label: str) -> tuple[str, str]:
    """The JSON text of a bound's fixed fields: what comes between its lhs
    and rhs values, and what comes between its rhs value and its slack."""
    return (f'","lhs_label":{_json(lhs_label)},"name":{_json(name)},'
            f'"relation":{_json(relation)},"rhs":"',
            f'","rhs_label":{_json(rhs_label)},"slack":')


class BoundCheck:
    """One exact comparison between two power-normalized values, judged once
    on construction from its cross products (_cross), which it keeps:
    they decide the verdict and the equality, and their quotient is the
    slack.  Immutable; equal and hashed by its six arguments."""

    __slots__ = ("name", "relation", "lhs_label", "rhs_label", "lhs", "rhs",
                 "verdict", "equality", "_low", "_high")

    def __init__(self, name: str, relation: str, lhs_label: str, rhs_label: str,
                 lhs: Fraction, rhs: Fraction):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "relation", relation)  # "<=" or "=="
        put(self, "lhs_label", lhs_label)
        put(self, "rhs_label", rhs_label)
        put(self, "lhs", lhs)
        put(self, "rhs", rhs)
        low, high = self._cross(lhs, rhs)
        put(self, "_low", low)
        put(self, "_high", high)
        ok = low == high if relation == "==" else low <= high
        put(self, "verdict", HOLDS if ok else VIOLATED)
        put(self, "equality", low == high)

    def __setattr__(self, name, value):
        raise AttributeError(f"BoundCheck is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"BoundCheck is immutable: cannot delete {name!r}")

    def _args(self) -> tuple:
        return (self.name, self.relation, self.lhs_label, self.rhs_label, self.lhs, self.rhs)

    def __reduce__(self):
        # copies and pickles are built, and so judged, by the constructor
        return BoundCheck, self._args()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        return hash(self._args())

    def __repr__(self) -> str:
        return (f"BoundCheck(name={self.name!r}, relation={self.relation!r}, "
                f"lhs_label={self.lhs_label!r}, rhs_label={self.rhs_label!r}, "
                f"lhs={self.lhs!r}, rhs={self.rhs!r}, verdict={self.verdict!r}, "
                f"equality={self.equality!r})")

    @staticmethod
    def _cross(lhs: Fraction, rhs: Fraction) -> tuple[int, int]:
        """(lhs, rhs) as numerators over one common denominator: their shared
        denominator when they have one (the sides of most bounds do), else
        lhs.d * rhs.d.  Either way the pair compares as the sides do and has
        their quotient; a bound keeps it for its slack and its JSON."""
        lhs_n, lhs_d = lhs.as_integer_ratio()
        rhs_n, rhs_d = rhs.as_integer_ratio()
        if lhs_d == rhs_d:
            return lhs_n, rhs_n
        return lhs_n * rhs_d, rhs_n * lhs_d

    @property
    def slack(self) -> Fraction | None:
        """rhs / lhs, or None unless lhs > 0."""
        return Fraction(self._high, self._low) if self._low > 0 else None

    def to_dict(self) -> dict:
        slack = self.slack
        return {
            "name": self.name,
            "relation": self.relation,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "verdict": self.verdict,
            "equality": self.equality,
            "slack": None if slack is None else str(slack),
        }

    def to_json(self) -> str:
        """to_dict() as compact JSON with sorted keys, written from its
        strings: the values and the slack are digits and '/'."""
        low, high = self._low, self._high
        if low > 0:
            d = gcd(high, low)
            slack = f'"{high // d}"' if d == low else f'"{high // d}/{low // d}"'
        else:
            slack = "null"
        mid, tail = _bound_frame(self.name, self.relation, self.lhs_label, self.rhs_label)
        return "".join(('{"equality":', "true" if self.equality else "false", ',"lhs":"',
                        str(self.lhs), mid, str(self.rhs), tail, slack,
                        ',"verdict":"', self.verdict, '"}'))


class CertReport:
    """One proposition check on one instance; equal to a report with equal
    fields."""

    def __init__(self, check: str, instance: dict, bounds: tuple[BoundCheck, ...],
                 verdict: str, expected_violation: bool = False, details: dict | None = None,
                 note: str | None = None):
        self.check = check
        self.instance = instance
        self.bounds = bounds
        self.verdict = verdict
        self.expected_violation = expected_violation
        self.details = {} if details is None else details
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in vars(self).items())
        return f"CertReport({fields})"

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

    def to_json_line(self, encoded: dict | None = None) -> str:
        """to_dict() as compact JSON with sorted keys, written key by key.
        ``encoded`` is a stream's memo for what its reports share: the text of
        each instance key, colon included, under the key, and id(value) ->
        (value, JSON text) for each instance value other than a string or an
        int (its documents and specs).  The memo holds each value, so its id
        is not reused while the memo lives.  The bounds, details and note are
        this report's own."""
        if encoded is None:
            encoded = {}
        parts = ['{"bounds":[', ",".join([b.to_json() for b in self.bounds]),
                 '],"check":', _json(self.check)]
        if self.details:
            parts += (',"details":', _json(self.details))
        parts += (',"expected_violation":', "true" if self.expected_violation else "false",
                  ',"instance":', _instance_json(self.instance, encoded))
        if self.note is not None:
            parts += (',"note":', _json(self.note))
        parts += (',"verdict":', _json(self.verdict), "}")
        return "".join(parts)


def _instance_json(instance: dict, encoded: dict) -> str:
    """_json(instance), written key by key from the stream memo ``encoded``
    (see CertReport.to_json_line); strings and ints are written directly."""
    get = encoded.get
    parts = []
    for key in sorted(instance):
        if type(key) is not str:  # never a memo key, which is a string or an id
            return _json(instance)
        value = instance[key]
        kind = type(value)
        if kind is str:
            text = _string(value)
        elif kind is int:
            text = str(value)
        else:
            text = (get(id(value)) or encoded.setdefault(id(value), (value, _json(value))))[1]
        parts.append((get(key) or encoded.setdefault(key, _string(key) + ":")) + text)
    return "{" + ",".join(parts) + "}"


# what campaign_exit_code reads of a report; map() drops each report once
# read, so a stream holds no report past its line
_verdict_facts = attrgetter("expected_violation", "verdict")


def campaign_exit_code(reports, strict: bool = False) -> int:
    """0 all hold or expected; 1 unexpected violation (or a missing expected
    one); 3 budget exhaustion under strict mode.  Reads every report, so a
    stream that writes its lines as they are read is written to its end."""
    facts = set(map(_verdict_facts, reports))
    if any(verdict not in (VIOLATED, SKIPPED_BUDGET) if expected else verdict == VIOLATED
           for expected, verdict in facts):
        return 1
    if strict and any(verdict == SKIPPED_BUDGET for _, verdict in facts):
        return 3
    return 0


def write_reports(reports, write: Callable[[str], object], strict: bool = False) -> int:
    """Pass each report's JSON line, newline included, to ``write`` as the
    report is drawn, and return the campaign exit code of the reports.

    The stream shares one memo, so a document that many reports hold (a
    source, a target, a system, a spec) is encoded once; the bytes are those
    of each report's to_dict().  No report is kept once its line is written.
    """
    encoded = {}

    def written():
        for r in reports:
            write(r.to_json_line(encoded) + "\n")
            yield r

    return campaign_exit_code(written(), strict)


def report_stream(reports) -> str:
    """The lines write_reports writes, joined."""
    lines = []
    write_reports(reports, lines.append)
    return "".join(lines)
