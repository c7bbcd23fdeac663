"""Interval set algebra: exact endpoint semantics against a brute-force oracle.

The oracle evaluates membership on a dyadic rational grid (step 1/64, exact
in binary floating point) directly from the raw interval definitions, and
every set operation is compared against it pointwise, including the raw
endpoints themselves.
"""
import json
import math

import numpy as np
import pytest

from kreinspec.errors import ValidationError
from kreinspec.realsets import (Interval, RealLineSet, combine,
                                minkowski_add_points, normalize)

INF = math.inf


def grid_points(lo=-10.0, hi=10.0, step=1.0 / 64.0):
    n = int(round((hi - lo) / step))
    return [lo + k * step for k in range(n + 1)]


def member_raw(x, intervals):
    return any(iv.contains(x) for iv in intervals)


def probe_points(*interval_lists):
    """Grid points plus all finite endpoints and their immediate dyadic neighbours."""
    pts = set(grid_points())
    for ivs in interval_lists:
        for iv in ivs:
            for v in (iv.lower, iv.upper):
                if math.isfinite(v):
                    pts.update((v, v - 1.0 / 128.0, v + 1.0 / 128.0))
    return sorted(pts)


def random_intervals(rng, n_max=6):
    out = []
    for _ in range(rng.integers(0, n_max + 1)):
        kind = rng.integers(0, 10)
        if kind == 0:
            v = rng.integers(-64, 65) / 8.0
            out.append(Interval(v, v, True, True))
        elif kind == 1:
            hi = rng.integers(-64, 65) / 8.0
            out.append(Interval(-INF, hi, False, bool(rng.integers(0, 2))))
        elif kind == 2:
            lo = rng.integers(-64, 65) / 8.0
            out.append(Interval(lo, INF, bool(rng.integers(0, 2)), False))
        else:
            a, b = sorted(rng.integers(-64, 65, size=2) / 8.0)
            if a == b:
                out.append(Interval(a, b, True, True))
            else:
                out.append(Interval(a, b, bool(rng.integers(0, 2)),
                                    bool(rng.integers(0, 2))))
    return out


class TestIntervalValidation:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            Interval(2.0, 1.0)

    def test_open_point_rejected(self):
        with pytest.raises(ValidationError):
            Interval(1.0, 1.0, True, False)

    def test_closed_at_infinity_rejected(self):
        with pytest.raises(ValidationError):
            Interval(0.0, INF, True, True)
        with pytest.raises(ValidationError):
            Interval(-INF, 0.0, True, False)
        with pytest.raises(ValidationError, match="invalid endpoints"):
            Interval(INF, INF, False, False)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            Interval(math.nan, 1.0)

    def test_empty_set_has_no_infimum(self):
        with pytest.raises(ValidationError, match="no infimum"):
            RealLineSet.empty().infimum()

    def test_membership_flags(self):
        iv = Interval(0.0, 1.0, True, False)
        assert iv.contains(0.0) and iv.contains(0.5)
        assert not iv.contains(1.0) and not iv.contains(-0.1)
        assert not iv.contains(math.nan) and math.nan not in RealLineSet((iv,))


class TestNormalize:
    def test_adjacent_closed_open_merge(self):
        s = normalize([Interval(0, 1, True, True), Interval(1, 2, False, False)])
        assert s == RealLineSet((Interval(0, 2, True, False),))

    def test_half_open_meeting_merges(self):
        s = normalize([Interval(0, 1, True, False), Interval(1, 2, True, False)])
        assert s == RealLineSet((Interval(0, 2, True, False),))

    def test_open_open_gap_point_stays(self):
        s = normalize([Interval(0, 1, True, False), Interval(1, 2, False, True)])
        assert len(s.intervals) == 2
        assert not s.contains(1.0)

    def test_nested_absorbed(self):
        s = normalize([Interval(0, 10), Interval(2, 3, False, False)])
        assert s == RealLineSet((Interval(0, 10),))

    def test_point_fills_gap(self):
        s = normalize([Interval(0, 1, True, False), Interval(1, 1),
                       Interval(1, 2, False, True)])
        assert s == RealLineSet((Interval(0, 2),))

    def test_idempotent_and_order_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = random_intervals(rng)
            s = normalize(raw)
            assert normalize(s.intervals) == s
            perm = [raw[i] for i in rng.permutation(len(raw))]
            assert normalize(perm) == s

    def test_membership_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            raw = random_intervals(rng)
            s = normalize(raw)
            for x in probe_points(raw):
                assert s.contains(x) == member_raw(x, raw), (x, [str(i) for i in raw])

    def test_canonical_constructor_rejects_mergeable(self):
        with pytest.raises(ValidationError):
            RealLineSet((Interval(0, 1), Interval(1, 2)))
        with pytest.raises(ValidationError):
            RealLineSet((Interval(0, 5), Interval(1, 2)))


class TestCombine:
    def test_halfline_subtract(self):
        a = RealLineSet((Interval(0, INF, True, False),))
        b = RealLineSet((Interval(1, INF, True, False),))
        assert combine(a, b, "subtract") == RealLineSet((Interval(0, 1, True, False),))

    def test_point_subtract_splits(self):
        a = RealLineSet((Interval(0, 2),))
        b = RealLineSet.point(1.0)
        got = combine(a, b, "subtract")
        assert got == RealLineSet((Interval(0, 1, True, False),
                                   Interval(1, 2, False, True)))

    def test_intersect_touching_closed(self):
        a = RealLineSet((Interval(0, 1),))
        b = RealLineSet((Interval(1, 2),))
        assert combine(a, b, "intersect") == RealLineSet.point(1.0)

    def test_intersect_touching_open(self):
        a = RealLineSet((Interval(0, 1, True, False),))
        b = RealLineSet((Interval(1, 2),))
        assert combine(a, b, "intersect") == RealLineSet.empty()

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError):
            combine(RealLineSet.empty(), RealLineSet.empty(), "xor")

    def test_against_oracle(self):
        rng = np.random.default_rng(23)
        preds = {"union": lambda x, y: x or y,
                 "intersect": lambda x, y: x and y,
                 "subtract": lambda x, y: x and not y}
        for _ in range(120):
            raw_a, raw_b = random_intervals(rng), random_intervals(rng)
            a, b = normalize(raw_a), normalize(raw_b)
            for op, pred in preds.items():
                got = combine(a, b, op)
                for x in probe_points(raw_a, raw_b):
                    want = pred(member_raw(x, raw_a), member_raw(x, raw_b))
                    assert got.contains(x) == want, (op, x)

    def test_commutative_associative(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            a = normalize(random_intervals(rng))
            b = normalize(random_intervals(rng))
            c = normalize(random_intervals(rng))
            for op in ("union", "intersect"):
                assert combine(a, b, op) == combine(b, a, op)
                left = combine(combine(a, b, op), c, op)
                right = combine(a, combine(b, c, op), op)
                assert left == right


class TestMinkowski:
    def test_empty_points(self):
        s = RealLineSet((Interval(0, 1),))
        assert minkowski_add_points([], s) == RealLineSet.empty()

    def test_halfline_absorption(self):
        s = RealLineSet((Interval(0, INF, True, False),))
        got = minkowski_add_points([0.25, 4.0], s)
        assert got == RealLineSet((Interval(0.25, INF, True, False),))

    def test_layered_example(self):
        s = normalize([Interval(-0.3, -0.1), Interval(0, INF, True, False)])
        got = minkowski_add_points([1.0, 4.0, 9.0], s)
        want = normalize([Interval(0.7, 0.9), Interval(1, INF, True, False),
                          Interval(3.7, 3.9), Interval(8.7, 8.9)])
        assert got == want

    def test_against_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(80):
            raw = random_intervals(rng, n_max=4)
            s = normalize(raw)
            pts = list(rng.integers(-16, 17, size=rng.integers(1, 4)) / 4.0)
            got = minkowski_add_points(pts, s)
            shifted = [iv.translate(p) for p in pts for iv in raw]
            for x in probe_points(raw, shifted):
                assert got.contains(x) == member_raw(x, shifted), (x, pts)

    def test_nonfinite_shift_rejected(self):
        with pytest.raises(ValidationError):
            minkowski_add_points([INF], RealLineSet((Interval(0, 1),)))


class TestCoalesce:
    def test_roundoff_gap_fused(self):
        a = Interval(0.0, 1.0, True, False)
        b = Interval(1.0 + 1e-13, 2.0, True, True)
        s = normalize([a, b])
        assert len(s.intervals) == 2
        fused = s.coalesced(1e-12)
        assert fused == RealLineSet((Interval(0.0, 2.0, True, True),))

    def test_zero_width_gap_fused(self):
        s = normalize([Interval(0, 1, True, False), Interval(1, 2, False, True)])
        assert s.coalesced(1e-12) == RealLineSet((Interval(0, 2),))

    def test_wide_gap_kept(self):
        s = normalize([Interval(0, 1), Interval(2, 3)])
        assert s.coalesced(1e-12) == s

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError):
            RealLineSet.empty().coalesced(-1.0)


class TestJson:
    def test_round_trip_with_sentinels(self):
        s = normalize([Interval(-INF, -2.0, False, True),
                       Interval(0, 1, True, False),
                       Interval(2, 2),
                       Interval(5, INF, False, False)])
        blob = json.dumps(s.to_json_obj())
        back = RealLineSet.from_json_obj(json.loads(blob))
        assert back == s

    def test_sentinel_strings(self):
        s = RealLineSet((Interval(-INF, INF, False, False),))
        obj = s.to_json_obj()
        assert obj[0]["lo"] == "-inf" and obj[0]["hi"] == "inf"

    def test_bad_encoding_rejected(self):
        with pytest.raises(ValidationError):
            RealLineSet.from_json_obj([{"lo": "oops", "hi": 1.0,
                                        "lo_closed": True, "hi_closed": True}])
        with pytest.raises(ValidationError):
            RealLineSet.from_json_obj([{"lo": 0.0, "hi": 1.0, "lo_closed": True}])
