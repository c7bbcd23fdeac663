"""Exact set algebra for finite unions of real intervals.

Sets are represented canonically: a sorted tuple of pairwise disjoint,
non-mergeable intervals with explicit open/closed endpoint flags.  All
set operations are exact in the endpoint values, so degenerate points,
half-open gaps and unbounded rays survive arbitrary algebra; the only
floating tolerance is the one ``coalesced`` is given.

Internally every interval is mapped to a half-open segment in "cut"
coordinates: the cut ``(v, 0)`` sits immediately before the real number
``v`` and ``(v, 1)`` immediately after it.  Closed/open bookkeeping then
reduces to ordinary comparisons of cut tuples, and one sweep over the
sorted cuts (``_sweep``) builds every result: ``normalize``, ``combine``
and ``coalesced`` differ only in their operands and the membership
predicate they keep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = [
    "Interval",
    "RealLineSet",
    "normalize",
    "combine",
    "minkowski_add_points",
]

_INF = math.inf

# A cut is a tuple (value, side); side 0 = just before value, 1 = just after.
_Cut = tuple[float, int]


@dataclass(frozen=True, order=True)
class Interval:
    """A nonempty real interval with open/closed endpoint flags.

    Degenerate points are closed at both ends; infinite endpoints are
    necessarily open.  Invalid combinations are rejected at construction,
    so every Interval instance is a nonempty subset of the reals.
    """

    lower: float
    upper: float
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValidationError("interval endpoints must not be NaN")
        if lo == _INF or hi == -_INF:
            raise ValidationError(f"invalid endpoints [{lo}, {hi}]")
        if lo > hi:
            raise ValidationError(f"lower endpoint {lo} exceeds upper endpoint {hi}")
        if lo == -_INF and self.lower_closed:
            raise ValidationError("interval unbounded below must be open below")
        if hi == _INF and self.upper_closed:
            raise ValidationError("interval unbounded above must be open above")
        if lo == hi and not (self.lower_closed and self.upper_closed):
            raise ValidationError("degenerate point must be closed at both ends")

    # -- cut coordinates -------------------------------------------------
    def start_cut(self) -> _Cut:
        return (self.lower, 0 if self.lower_closed else 1)

    def end_cut(self) -> _Cut:
        return (self.upper, 1 if self.upper_closed else 0)

    @staticmethod
    def from_cuts(start: _Cut, end: _Cut) -> "Interval":
        if not start < end:
            raise ValidationError(f"empty cut segment {start}..{end}")
        return Interval(start[0], end[0], start[1] == 0, end[1] == 1)

    # -- queries ---------------------------------------------------------
    def contains(self, x: float) -> bool:
        if not self.lower <= x <= self.upper:  # also rejects NaN
            return False
        if x == self.lower and not self.lower_closed:
            return False
        if x == self.upper and not self.upper_closed:
            return False
        return True

    def translate(self, shift: float) -> "Interval":
        return Interval(self.lower + shift, self.upper + shift,
                        self.lower_closed, self.upper_closed)

    def __str__(self) -> str:
        left = "[" if self.lower_closed else "("
        right = "]" if self.upper_closed else ")"
        return f"{left}{self.lower:g}, {self.upper:g}{right}"


@dataclass(frozen=True)
class RealLineSet:
    """Canonical finite union of intervals (sorted, disjoint, non-adjacent).

    Two RealLineSet objects are equal iff they are the same subset of the
    reals; canonical form makes dataclass equality coincide with set
    equality.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for prev, cur in zip(ivs, ivs[1:]):
            if not prev.end_cut() < cur.start_cut():
                raise ValidationError(
                    f"intervals {prev} and {cur} overlap or are mergeable; "
                    "use normalize() to build canonical sets")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def empty() -> "RealLineSet":
        return RealLineSet(())

    @staticmethod
    def point(x: float) -> "RealLineSet":
        return RealLineSet((Interval(x, x, True, True),))

    @staticmethod
    def whole_line() -> "RealLineSet":
        return RealLineSet((Interval(-_INF, _INF, False, False),))

    @staticmethod
    def from_points(points: Iterable[float]) -> "RealLineSet":
        """The finite set of ``points``, exact (see ``coalesced`` to fuse)."""
        return normalize(Interval(p, p, True, True) for p in points)

    # -- queries -----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def __contains__(self, x: float) -> bool:
        return self.contains(x)

    def infimum(self) -> float:
        if self.is_empty:
            raise ValidationError("empty set has no infimum")
        return self.intervals[0].lower

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " U ".join(str(iv) for iv in self.intervals)

    # -- algebra -----------------------------------------------------------
    def union(self, other: "RealLineSet") -> "RealLineSet":
        return combine(self, other, "union")

    def intersect(self, other: "RealLineSet") -> "RealLineSet":
        return combine(self, other, "intersect")

    def subtract(self, other: "RealLineSet") -> "RealLineSet":
        return combine(self, other, "subtract")

    def coalesced(self, tol: float) -> "RealLineSet":
        """Merge components separated by gaps of width <= tol.

        This is the only tolerance-aware entry point of the module; it is
        meant for endpoints produced by floating-point eigenvalue
        computations, where adjacent values may differ at roundoff level.
        """
        if tol < 0:
            raise ValidationError("coalescing tolerance must be >= 0")
        ivs = self.intervals
        gaps = [Interval(prev.upper, cur.lower) for prev, cur in zip(ivs, ivs[1:])
                if cur.lower - prev.upper <= tol]
        return normalize(ivs + tuple(gaps))

    # -- serialization -------------------------------------------------------
    def to_json_obj(self) -> list[dict]:
        def enc(v: float) -> float | str:
            if v == _INF:
                return "inf"
            if v == -_INF:
                return "-inf"
            return v

        return [{"lo": enc(iv.lower), "hi": enc(iv.upper),
                 "lo_closed": iv.lower_closed, "hi_closed": iv.upper_closed}
                for iv in self.intervals]

    @staticmethod
    def from_json_obj(obj: Sequence[dict]) -> "RealLineSet":
        def dec(v) -> float:
            if v == "inf":
                return _INF
            if v == "-inf":
                return -_INF
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"invalid endpoint encoding {v!r}")
            return float(v)

        raws = []
        for item in obj:
            try:
                raws.append(Interval(dec(item["lo"]), dec(item["hi"]),
                                     bool(item["lo_closed"]), bool(item["hi_closed"])))
            except KeyError as exc:
                raise ValidationError(f"interval object missing key {exc}") from exc
        return normalize(raws)


def _sweep(operands: Sequence[Iterable[Interval]], keep) -> RealLineSet:
    """The canonical set where ``keep`` holds of the operands' memberships.

    Membership is constant between distinct cuts, so ``keep`` is evaluated
    once per cut; a kept run ends at a cut where ``keep`` is false, so no
    two emitted intervals touch.
    """
    events: list[tuple[_Cut, int, int]] = []
    for k, ivs in enumerate(operands):
        for iv in ivs:
            events.append((iv.start_cut(), k, +1))
            events.append((iv.end_cut(), k, -1))
    events.sort(key=itemgetter(0))

    out: list[Interval] = []
    inside = [0] * len(operands)
    start: _Cut | None = None
    for cut, group in groupby(events, key=itemgetter(0)):
        for _, k, step in group:
            inside[k] += step
        if keep(*(c > 0 for c in inside)):
            if start is None:
                start = cut
        elif start is not None:
            out.append(Interval.from_cuts(start, cut))
            start = None
    return RealLineSet(tuple(out))


def normalize(raw: Iterable[Interval]) -> RealLineSet:
    """Build the canonical RealLineSet equal to the union of ``raw``.

    Overlapping and mergeable-adjacent intervals are fused; ordering of
    the input is irrelevant.  Idempotent on canonical input.
    """
    return _sweep([raw], bool)


def combine(a: RealLineSet, b: RealLineSet, op: str) -> RealLineSet:
    """Exact union/intersect/subtract of two canonical sets."""
    keep = {"union": lambda x, y: x or y,
            "intersect": lambda x, y: x and y,
            "subtract": lambda x, y: x and not y}.get(op)
    if keep is None:
        raise ValidationError(f"unknown set operation {op!r}")
    return _sweep([a.intervals, b.intervals], keep)


def minkowski_add_points(points: Iterable[float], s: RealLineSet) -> RealLineSet:
    """Minkowski sum {p + x : p in points, x in s} as a canonical set.

    Exact in the shifted endpoints; an empty point collection yields the
    empty set.  Fuse roundoff-scale gaps with ``RealLineSet.coalesced``.
    """
    pts = [float(p) for p in points]
    for p in pts:
        if math.isnan(p) or math.isinf(p):
            raise ValidationError(f"shift {p} must be finite")
    return normalize(iv.translate(p) for p in pts for iv in s.intervals)
