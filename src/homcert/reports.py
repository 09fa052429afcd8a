"""Reports: the record of one check (CertReport), of what it judged
(Judgement) and of each bound it judged (BoundCheck), and the one writer of
a report stream.

A report is a Judgement in a Frame, and its JSON line is
json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")).  The
writer builds those bytes from what its reports share, each encoded once:
the documents of their instances (once per stream), each job's Frame (the
instance text around the activities) and each Judgement (the line's text
around the instance, from each bound's kept cross products and the strings
of the details), which the reports of isomorphic sources share.
"""

from __future__ import annotations

import json
from bisect import bisect
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import attrgetter, itemgetter
from typing import Callable

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
SKIPPED_BUDGET = "skipped-budget"

# a report's JSON is json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# what _json writes for a string
_string = encode_basestring_ascii


class BoundCheck(tuple):
    """One exact comparison between two power-normalized values, judged once
    on construction from its cross products, which it keeps: they decide
    the verdict and the equality, and their quotient is the slack.  An
    immutable tuple of its six arguments and of what they decide, so it is
    equal and hashed by its six arguments, and equal only to a BoundCheck."""

    __slots__ = ()

    def __new__(cls, name: str, relation: str, lhs_label: str, rhs_label: str,
                lhs: Fraction, rhs: Fraction):
        # the cross products: (lhs, rhs) as numerators over their shared
        # denominator when they have one (the sides of most bounds do), else
        # over lhs.d * rhs.d; either way they compare as the sides do and
        # have their quotient
        low, low_d = lhs.as_integer_ratio()
        high, high_d = rhs.as_integer_ratio()
        if low_d != high_d:
            low, high = low * high_d, high * low_d
        ok = low == high if relation == "==" else low <= high
        return tuple.__new__(cls, (name, relation, lhs_label, rhs_label, lhs, rhs,
                                   HOLDS if ok else VIOLATED, low == high, low, high))

    name = property(itemgetter(0))
    relation = property(itemgetter(1))  # "<=" or "=="
    lhs_label = property(itemgetter(2))
    rhs_label = property(itemgetter(3))
    lhs = property(itemgetter(4))
    rhs = property(itemgetter(5))
    verdict = property(itemgetter(6))
    equality = property(itemgetter(7))
    _low = property(itemgetter(8))
    _high = property(itemgetter(9))

    # not NotImplemented for another class: a plain tuple would then compare
    # its own items with a bound's
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __reduce__(self):
        # copies and pickles are built, and so judged, by the constructor
        return BoundCheck, self[:6]

    def __repr__(self) -> str:
        return (f"BoundCheck(name={self.name!r}, relation={self.relation!r}, "
                f"lhs_label={self.lhs_label!r}, rhs_label={self.rhs_label!r}, "
                f"lhs={self.lhs!r}, rhs={self.rhs!r}, verdict={self.verdict!r}, "
                f"equality={self.equality!r})")

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

    def to_json(self, encoded: dict | None = None) -> str:
        """to_dict() as compact JSON with sorted keys, written from its
        strings: the values and the slack are digits and '/'.  The text of
        its fixed fields, between its lhs and rhs values and between its rhs
        value and its slack, is kept in the stream memo ``encoded`` (see
        CertReport.to_json_line)."""
        name, relation, lhs_label, rhs_label, lhs, rhs, verdict, equality, low, high = self
        if low > 0:
            d = gcd(high, low)
            slack = f'"{high // d}"' if d == low else f'"{high // d}/{low // d}"'
        else:
            slack = "null"
        if encoded is None:
            encoded = {}
        key = ("bound", name, relation, lhs_label, rhs_label)
        mid, tail = encoded.get(key) or encoded.setdefault(key, (
            f'","lhs_label":{_json(lhs_label)},"name":{_json(name)},'
            f'"relation":{_json(relation)},"rhs":"',
            f'","rhs_label":{_json(rhs_label)},"slack":'))
        return "".join(('{"equality":', "true" if equality else "false", ',"lhs":"',
                        str(lhs), mid, str(rhs), tail, slack, ',"verdict":"', verdict, '"}'))


# a report's fields, as it compares and shows them
_FIELDS = ("check", "instance", "bounds", "verdict", "expected_violation", "details", "note")
_fields = attrgetter(*_FIELDS)


class Frame:
    """The instance that the reports of one job share but the activities:
    ``base``, the instance without them, and ``weighted``, whether each
    report adds its system's document under "activities" (a key of the
    base's own overrides it); unweighted, it is a plain instance.  The frame's
    JSON text on either side of that document is made by the first line
    written and kept."""

    __slots__ = ("base", "weighted", "_slot", "_text")

    def __init__(self, base: dict, weighted: bool):
        self.base = base
        self.weighted = weighted
        self._slot = weighted and "activities" not in base
        self._text = None

    def instance(self, activities) -> dict:
        """A report's instance: the base, with ``activities`` when weighted;
        made anew at each call, every dict and list in it too."""
        base = {"activities": activities, **self.base} if self.weighted else self.base
        return _copied(base)

    def json(self, activities, encoded: dict) -> str:
        """_json(self.instance(activities)), with the stream memo ``encoded``
        (see CertReport.to_json_line)."""
        head, tail = self._text or self._split(encoded)
        return head + _memo_json(activities, encoded) + tail if self._slot else head

    def _split(self, encoded: dict) -> tuple[str, str]:
        base = self.base
        if not self._slot:
            text = _object_json(base, encoded, True), ""
        else:
            keys = sorted(base)  # strings, as "activities" is, or a TypeError as in _json
            i = bisect(keys, "activities")
            head = _object_json({key: base[key] for key in keys[:i]}, encoded, True)[:-1]
            tail = _object_json({key: base[key] for key in keys[i:]}, encoded, True)[1:]
            text = (head + ("," if i else "") + '"activities":',
                    ("," if i < len(keys) else "") + tail)
        self._text = text
        return text


def _copied(value):
    """A copy of ``value`` that shares no dict or list with it."""
    kind = type(value)
    if kind is dict:
        return {key: _copied(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return kind(map(_copied, value))
    return value


class Judgement:
    """What a report judged, its instance aside: the check, the bounds, the
    verdict, whether a violation was expected, the details and the note.
    The reports of isomorphic sources may share one, each in its own job's
    Frame (certify._Quantities.reports).  Its JSON text on either side of
    the instance is made by the first line written and kept."""

    __slots__ = ("check", "bounds", "verdict", "expected_violation", "details", "note", "_text")

    def __init__(self, check: str, bounds: tuple[BoundCheck, ...], verdict: str,
                 expected_violation: bool = False, details: dict | None = None,
                 note: str | None = None):
        self.check = check
        self.bounds = bounds
        self.verdict = verdict
        self.expected_violation = expected_violation
        self.details = {} if details is None else details
        self.note = note
        self._text = None

    def json(self, instance: str, encoded: dict) -> str:
        """A report's line around its instance's JSON text ``instance``, with
        the stream memo ``encoded`` (see CertReport.to_json_line)."""
        head, tail = self._text or self._split(encoded)
        return head + instance + tail

    def _split(self, encoded: dict) -> tuple[str, str]:
        head = ['{"bounds":[', ",".join([b.to_json(encoded) for b in self.bounds]),
                '],"check":', _string(self.check)]
        if self.details:
            head += (',"details":', _object_json(self.details, encoded, False))
        head += (',"expected_violation":', "true" if self.expected_violation else "false",
                 ',"instance":')
        tail = [] if self.note is None else [',"note":', _string(self.note)]
        tail += (',"verdict":', _string(self.verdict), "}")
        self._text = text = "".join(head), "".join(tail)
        return text


class CertReport:
    """One proposition check on one instance; equal to a report with equal
    fields.

    A report is a Judgement in a Frame: the reports of one job share a
    frame, each with its system's activity document, and the reports of
    isomorphic sources may share a judgement; a report of a plain
    ``instance`` has Frame(instance, False).  Every field is read-only,
    and the instance and the details are made anew at each read, so
    changing what a read returns changes no line and no other report."""

    __slots__ = ("_judgement", "_frame", "_activities", "__weakref__")

    def __init__(self, judgement: Judgement, frame: Frame, activities=None):
        self._judgement = judgement
        self._frame = frame
        self._activities = activities

    check = property(attrgetter("_judgement.check"))
    bounds = property(attrgetter("_judgement.bounds"))
    verdict = property(attrgetter("_judgement.verdict"))
    expected_violation = property(attrgetter("_judgement.expected_violation"))
    note = property(attrgetter("_judgement.note"))

    @property
    def details(self) -> dict:
        return _copied(self._judgement.details)

    @property
    def instance(self) -> dict:
        return self._frame.instance(self._activities)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(_FIELDS, _fields(self)))
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
        details = self.details
        if details:
            doc["details"] = details
        if self.note is not None:
            doc["note"] = self.note
        return doc

    def to_json_line(self, encoded: dict | None = None) -> str:
        """to_dict() as compact JSON with sorted keys: the judgement's text
        around the frame's.  ``encoded`` is a stream's memo for what its
        reports share: under the tuple of an object's keys, each key with its
        text, colon included, in sorted order; and id(value) -> (value, JSON
        text) for each document of an instance other than a string or an int
        (sources, targets, systems, specs) and each tuple in details (which
        many reports share); and under ("bound", name, relation, lhs_label,
        rhs_label) the fixed text of each kind of bound.  The memo holds each
        value, so its id is not reused while the memo lives."""
        if encoded is None:
            encoded = {}
        return self._judgement.json(self._frame.json(self._activities, encoded), encoded)


def _memo_json(value, encoded: dict) -> str:
    """_json(value) for a value that many reports hold, from the stream memo
    ``encoded``, once per stream."""
    return (encoded.get(id(value)) or encoded.setdefault(id(value), (value, _json(value))))[1]


def _object_json(doc: dict, encoded: dict, shared: bool) -> str:
    """_json(doc), written member by member for a dict with string keys (a
    frame's base or a judgement's details): its keys' sorted texts from the
    stream memo ``encoded``, strings and ints directly, and other values
    from the memo when ``shared`` (the documents of an instance), else
    tuples from the memo (details that many reports share, such as eta's
    witness sets).  Details with any other value are written whole by
    _json."""
    keys = tuple(doc)
    members = encoded.get(keys)
    if members is None:
        members = encoded[keys] = [(key, _string(key) + ":") for key in sorted(keys)]
    parts = []
    for key, prefix in members:
        value = doc[key]
        kind = type(value)
        if kind is str:
            parts.append(prefix + _string(value))
        elif kind is int:
            parts.append(prefix + str(value))
        elif shared or kind is tuple:
            parts.append(prefix + _memo_json(value, encoded))
        else:
            return _json(doc)
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
