"""Transversal Robin operator on [-a, a]: closed forms and root finding.

The operator is -d^2/dy^2 with boundary conditions

    psi'(a) = -alpha psi(a),   psi'(-a) = conj(alpha) psi(-a),
    alpha = beta0 + 1j*alpha0,

the outward-normal Robin form matching the sesquilinear form of the
underlying PT-symmetric model (coupling alpha on the top wall, its
conjugate on the bottom).  For beta0 = 0 everything is closed form: the
spectrum is alpha0^2 together with the lattice (pi n / 2a)^2, and the
parity indicator (P psi, psi) decides positive/negative type in sorted
(mu) order.  For beta0 != 0 eigenvalues k^2 are found from the secular
function

    F(k) = (k^2 - alpha0^2 - beta0^2) sin(2 k a) - 2 beta0 k cos(2 k a),

whose roots are certified by argument-principle winding counts.  A simple
root's cell stops at Newton; a root cluster's bisects to the isolation size.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (NumericalError, RootCertificationError, ValidationError)
from .krein import (SpectralType, _require_counts, _require_finite,
                    _require_grid_step, _require_positive)
from .realsets import Interval, RealLineSet
from .tensorsum import predict_m_sets

__all__ = [
    "TransversalMode",
    "WaveguideDecomposition",
    "Zero",
    "Constant",
    "SquareWell",
    "UserSet",
    "Discretized",
    "BranchPoint",
    "transversal_modes",
    "exceptional_set",
    "mode_function",
    "robin_fd",
    "secular_value",
    "secular_derivative",
    "secular_roots",
    "branch_curves",
    "longitudinal_spectrum",
    "waveguide_m_sets",
]


# ---------------------------------------------------------------------------
# Closed-form transversal modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransversalMode:
    """One transversal eigenvalue in mu-sorted order.

    ``n`` is the closed-form label (0 for the Robin mode with lambda =
    alpha0^2, n >= 1 for the lattice modes), ``mu_index`` the position
    after sorting.  ``psi_coeffs`` = (A, B) represents the eigenfunction
    psi(y) = A cos(k (y+a)) + B sin(k (y+a)) with k^2 = lambda.
    """

    n: int
    mu_index: int
    lam: float
    psi_coeffs: tuple[complex, complex]
    indicator: float
    type: SpectralType


def _indicator_mode0(a: float, alpha0: float) -> float:
    # sin(2 a alpha0)/alpha0 with its removable singularity expanded
    x = 2.0 * a * alpha0
    if abs(alpha0) < 1e-6:
        return 2.0 * a * (1.0 - x * x / 6.0 + x ** 4 / 120.0)
    return math.sin(x) / alpha0


def exceptional_set(a: float, alpha0: float) -> frozenset:
    """Indices {n*-1, n*} in mu order when alpha0^2 hits the lattice.

    Empty unless 2 a |alpha0| / pi is a positive integer (tested to 1e-12
    relative, which is exact for rational inputs in binary floating
    point); then alpha0^2 equals the lattice eigenvalue with label n*.
    A t so large that the tolerance reaches 1/2 cannot fail the test, so
    it is never taken as integral.
    """
    _require_positive(a=a)
    _require_finite(alpha0=alpha0)
    t = 2.0 * a * abs(alpha0) / math.pi
    if not math.isfinite(t):
        raise ValidationError(f"2 a |alpha0| / pi = {t} overflows")
    n_star, slack = round(t), 1e-12 * max(1.0, t)
    if n_star >= 1 and slack < 0.5 and abs(t - n_star) <= slack:
        return frozenset({n_star - 1, n_star})
    return frozenset()


# The most lattice modes transversal_modes builds (each mode is a few
# hundred bytes and one boundary check).
MAX_LATTICE_MODES = 100_000


def _min_lattice(a: float, alpha0: float) -> int:
    """Lattice modes that must be present: the label n* of an exceptional
    pair, else every lattice eigenvalue below alpha0^2, or the mu indices
    (and with them the type assignments) come out shifted."""
    exc = exceptional_set(a, alpha0)
    return max(exc) if exc else math.floor(2.0 * a * abs(alpha0) / math.pi)


def transversal_modes(a: float, alpha0: float, N: int) -> list[TransversalMode]:
    """Modes 0..N of the transversal operator at beta0 = 0, mu-sorted.

    Eigenvalues are alpha0^2 (label 0) and (pi n / 2a)^2 (labels 1..N), each
    with psi = cos(k(y+a)) - i (alpha0/k) sin(k(y+a)) for either sign of alpha0.
    Ties at an exceptional alpha0 keep the label-0 mode first; both
    members of the degenerate pair are typed not definite, all other
    types alternate positive/negative with the mu index.  N must cover the lattice
    modes below alpha0^2, stay within MAX_LATTICE_MODES and keep (pi N / 2a)^2 finite.
    """
    _require_counts(N=N)
    need = max(1, _min_lattice(a, alpha0))
    if not need <= N <= MAX_LATTICE_MODES:
        raise ValidationError(
            f"need {need:.6g} <= N <= {MAX_LATTICE_MODES} lattice modes, "
            f"got N = {N:.6g}")
    if not (top := math.pi * N / (2.0 * a)) * top < math.inf:
        raise ValidationError(f"half-width a = {a:g} is too small: (pi N / 2a)^2 overflows")
    exc = exceptional_set(a, alpha0)
    lam0 = alpha0 * alpha0
    lattice = [(math.pi * n / (2.0 * a)) ** 2 for n in range(1, N + 1)]
    if exc:
        lam0 = lattice[max(exc) - 1]  # snap the exact degeneracy

    raw = [(lam0, 0)] + [(lam, n) for n, lam in enumerate(lattice, start=1)]
    raw.sort(key=lambda p: (p[0], p[1] != 0, p[1]))

    modes = []
    for mu_index, (lam, n) in enumerate(raw):
        k = math.sqrt(lam)  # 0 only for the constant mode 0 at alpha0 ~ 0
        B = -1.0j * alpha0 / k if k else -1.0j
        ind = (_indicator_mode0(a, alpha0) if n == 0
               else a * (-1.0) ** n * (lam - alpha0 * alpha0) / lam)
        if mu_index in exc:
            t = SpectralType.NOT_DEFINITE
        else:
            t = SpectralType.POSITIVE if mu_index % 2 == 0 else SpectralType.NEGATIVE
            if ind != 0.0 and (ind > 0) != (t is SpectralType.POSITIVE):
                raise NumericalError(
                    f"indicator sign of mode {n} contradicts its mu parity")
        mode = TransversalMode(n=n, mu_index=mu_index, lam=lam,
                               psi_coeffs=(1.0 + 0.0j, B), indicator=ind, type=t)
        res = _boundary_residual(mode, a, alpha0) / max(1.0, abs(alpha0), k)
        if res > 1e-10:
            raise NumericalError(f"mode {n} violates the boundary conditions "
                                 f"(relative residual {res:.2e})")
        modes.append(mode)
    return modes


def mode_function(mode: TransversalMode, a: float, y):
    """Evaluate the eigenfunction of a mode at points y in [-a, a]."""
    _require_positive(a=a)
    _require_finite(y=y)
    A, B = mode.psi_coeffs
    k = math.sqrt(mode.lam)
    u = np.asarray(y, dtype=float) + a
    return A * np.cos(k * u) + B * np.sin(k * u)


def _boundary_residual(mode: TransversalMode, a: float, alpha0: float) -> float:
    A, B = mode.psi_coeffs
    k = cmath.sqrt(mode.lam)
    alpha = 1j * alpha0
    lo = abs(B * k - alpha.conjugate() * A)
    top = A * cmath.cos(2 * k * a) + B * cmath.sin(2 * k * a)
    dtop = -A * k * cmath.sin(2 * k * a) + B * k * cmath.cos(2 * k * a)
    return float(max(lo, abs(dtop + alpha * top)))


# ---------------------------------------------------------------------------
# Finite-difference Robin discretization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _robin_pattern(n: int) -> tuple:
    """``robin_fd``'s column indices, row pointers and sparse J, read-only."""
    idx = np.arange(n + 1, dtype=np.int32)
    cols = (idx[:-1, None] + idx[:3] - 1).ravel()[1:-1]  # row i holds i-1, i, i+1
    indptr = np.minimum(np.maximum(3 * idx - 1, 0), 3 * n - 2)  # 0, 2, 5, ..., 3n-2
    J = scipy.sparse.csr_matrix((np.ones(n), n - 1 - idx[:-1], idx), shape=(n, n))
    for arr in (cols, indptr, J.data, J.indices, J.indptr):
        arr.flags.writeable = False
    return cols, indptr, J


def robin_fd(a: float, alpha: complex, n: int, sparse: bool = False):
    """Second-order discretization of the transversal operator, (T, J).

    Ghost-node elimination of the Robin conditions followed by the
    half-weight endpoint scaling; the scaling is a similarity (it keeps
    every eigenvalue of the plain scheme) and makes the reversal symmetry
    exact: with J the index-reversing permutation, J T* J == T holds to
    the last bit for any complex alpha.  Both are ``csr_matrix`` (T without
    an entry alpha zeroes), dense unless ``sparse``; pattern and J are built
    once per size, T owns its arrays and J shares read-only ones.
    """
    _require_positive(a=a)
    _require_counts(n=n)
    if n < 3:
        raise ValidationError(f"need at least 3 grid points, got {n}")
    h = 2.0 * a / (n - 1)
    _require_grid_step(h=h)
    alpha = complex(alpha)
    _require_finite(alpha=alpha)
    main = np.full(n, 2.0, dtype=complex) / h**2
    main[0] = 2.0 / h**2 + 2.0 * alpha.conjugate() / h
    main[-1] = end = 2.0 / h**2 + 2.0 * alpha / h
    _require_finite(**{"Robin stencil 2/h^2 + 2 alpha/h": end})
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    off[0] = off[-1] = -math.sqrt(2.0) / h**2
    data = np.empty((n, 3), dtype=complex)
    data[1:, 0], data[:, 1], data[:-1, 2] = off, main, off
    cols, indptr, J = _robin_pattern(int(n))
    T = scipy.sparse.csr_matrix((data.ravel()[1:-1], cols.copy(), indptr.copy()), shape=(n, n))
    if main[0] == 0:  # the coupling cancels both endpoints (conjugates)
        T.eliminate_zeros()
    return (T, scipy.sparse.csr_matrix(J)) if sparse else (T.toarray(), J.toarray())


# ---------------------------------------------------------------------------
# Secular function and certified root finding
# ---------------------------------------------------------------------------

_MAX_NODES = 200_000  # F evaluations one winding count may spend
_GROWTH = tuple(0.02 * i for i in range(4))  # _certified_winding's retries, per side


def _grown(rect, s: float) -> tuple:
    re0, re1, im0, im1 = rect
    return (re0 - s * (re1 - re0), re1 + s * (re1 - re0),
            im0 - s * (im1 - im0), im1 + s * (im1 - im0))


def _require_bounded_secular(a: float, alpha0: float, beta0: float, ks) -> None:
    """ValidationError unless |F(k)| <= (|k|^2 + alpha0^2 + beta0^2 +
    2 |beta0 k|) cosh(2a Im k) is a finite bound at every k of ``ks``."""
    for k in ks:
        with suppress(OverflowError):  # abs(k) or the cosh leaves the float range
            r = abs(k)
            if ((r * r + alpha0 * alpha0 + beta0 * beta0 + 2.0 * abs(beta0) * r)
                    * math.cosh(2.0 * a * k.imag) <= sys.float_info.max):
                continue
        raise ValidationError(f"F may overflow at k = {k:.6g}: its bound from |sin 2ak|, |cos 2ak|"
                              f", (|k|^2 + alpha0^2 + beta0^2 + 2|beta0 k|) cosh(2a Im k), overflows")


def _finite(fn):
    """fn, raising RootCertificationError where its value is not finite."""
    def checked(k):
        with suppress(OverflowError, ValueError):  # cmath's range and domain errors
            if math.isfinite(abs(v := fn(k))):
                return v
        raise RootCertificationError(f"the secular function overflows at k = {k:.6g}")
    return checked


def _make_secular(a: float, alpha0: float, beta0: float):
    c0 = alpha0 * alpha0 + beta0 * beta0

    def f(k):
        return ((k * k - c0) * cmath.sin(2.0 * a * k)
                - 2.0 * beta0 * k * cmath.cos(2.0 * a * k))

    def fp(k):
        s, c = cmath.sin(2.0 * a * k), cmath.cos(2.0 * a * k)
        return (2.0 * k * s + 2.0 * a * (k * k - c0) * c
                - 2.0 * beta0 * c + 4.0 * a * beta0 * k * s)

    return _finite(f), _finite(fp)


def secular_value(k, a: float, alpha0: float, beta0: float):
    """F(k) = (k^2 - alpha0^2 - beta0^2) sin(2ka) - 2 beta0 k cos(2ka)."""
    return _elementwise(0, k, a, alpha0, beta0)


def secular_derivative(k, a: float, alpha0: float, beta0: float):
    """dF/dk for the secular function."""
    return _elementwise(1, k, a, alpha0, beta0)


def _elementwise(which, k, a, alpha0, beta0):
    # the root finder's scalar formula, element by element over arrays
    _require_finite(k=k)
    ks = [complex(z) for z in np.ravel(k).tolist()]
    _require_bounded_secular(a, alpha0, beta0, ks)
    fn = _make_secular(a, alpha0, beta0)[which]
    try:
        out = np.array([fn(z) for z in ks], dtype=complex).reshape(np.shape(k))
    except RootCertificationError as exc:
        raise ValidationError(str(exc)) from None
    return complex(out) if out.ndim == 0 else out


def _winding_number(f, rect, phase_rate: float):
    """Winding of f around a rectangle boundary by adaptive phase tracking.

    Each edge starts densely enough to resolve the known oscillation rate
    of f (``phase_rate``, radians of arg f per unit length, e.g. 2a for
    the secular function), then every segment is accepted only when its
    two halves carry small phase steps that add up consistently; anything
    else is split further, so a silent whole-turn slip would need f to
    oscillate far below the sampling scale.
    """
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0),
               complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    total = 0.0
    nodes = 0
    for zA, zB in zip(corners[:-1], corners[1:]):
        edge_len = abs(zB - zA)
        n0 = 8 + int(math.ceil(min(4.0 * phase_rate * edge_len / math.pi,
                                   _MAX_NODES)))
        nodes += n0 + 1
        if nodes > _MAX_NODES:
            raise RootCertificationError(
                f"contour sampling needs over {_MAX_NODES} nodes")
        ts = np.linspace(0.0, 1.0, n0 + 1).tolist()
        pts = [zA + t * (zB - zA) for t in ts]
        vals = [f(z) for z in pts]
        seg = list(zip(pts[:-1], vals[:-1], pts[1:], vals[1:]))
        while seg:
            a_, fa, b_, fb = seg.pop()
            if abs(fa) == 0.0 or abs(fb) == 0.0:
                raise RootCertificationError("zero of F on the contour")
            if abs(b_ - a_) < 1e-13 * max(1.0, edge_len):
                raise RootCertificationError(
                    f"phase jump near {0.5 * (a_ + b_):.6g} on the contour")
            nodes += 1
            if nodes > _MAX_NODES:
                raise RootCertificationError("contour refinement exploded")
            m = 0.5 * (a_ + b_)
            fm = f(m)
            if abs(fm) == 0.0:
                raise RootCertificationError("zero of F on the contour")
            dl = cmath.phase(fm / fa)
            dr = cmath.phase(fb / fm)
            dp = cmath.phase(fb / fa)
            if abs(dl) < 0.8 and abs(dr) < 0.8 and abs(dl + dr - dp) < 1e-9:
                total += dp
            else:
                seg.append((a_, fa, m, fm))
                seg.append((m, fm, b_, fb))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.2:
        raise RootCertificationError(
            f"winding number did not certify (got {w:.3f})")
    return int(round(w))


def _certified_winding(f, rect, phase_rate: float):
    """Winding count, retried on rectangles grown outward by each _GROWTH
    of each side (2, 4 and 6 %) for a root on the boundary."""
    for s in _GROWTH:
        try:
            return _winding_number(f, _grown(rect, s), phase_rate)
        except RootCertificationError:
            if s == _GROWTH[-1]:
                raise


def _newton_refine(f, fp, k0: complex, mult: int, tol: float) -> complex:
    k = complex(k0)
    for _ in range(80):
        v = f(k)
        if abs(v) <= tol:
            if mult == 1 and (d := fp(k)) != 0:
                # one step past tol: a simple root then converges to the last bit
                polished = k - v / d
                if abs(f(polished)) <= abs(v):
                    return polished
            return k
        d = fp(k)
        if d == 0:
            break
        step = mult * v / d
        k = k - step
        if abs(step) < 1e-16 * max(1.0, abs(k)):
            break
    v = f(k)
    if abs(v) <= tol:
        return k
    raise RootCertificationError(
        f"Newton refinement stalled at {k:.8g} with |F| = {abs(v):.2e}")


def _subdivide(f, fp, rect, w, tol, iso, phase_rate):
    """Recursive winding-certified isolation; returns roots with multiplicity."""
    if w == 0:
        return []
    re0, re1, im0, im1 = rect
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    if w == 1:  # one root: Newton from the centre, certified by a small box
        h = iso / (2.0 * math.sqrt(2.0))
        with suppress(RootCertificationError):  # Newton or box failed
            k = _newton_refine(f, fp, center, 1, tol)
            box = (max(re0, k.real - h), min(re1, k.real + h),
                   max(im0, k.imag - h), min(im1, k.imag + h))
            if (re0 < k.real < re1 and im0 < k.imag < im1
                    and _winding_number(f, box, phase_rate) == 1):
                return [k]
    if math.hypot(re1 - re0, im1 - im0) <= iso:
        root = _newton_refine(f, fp, center, w, tol)
        return [root] * w

    horizontal = (re1 - re0) >= (im1 - im0)
    for ratio in (0.5, 0.44, 0.56, 0.38, 0.62):
        if horizontal:
            cut = re0 + ratio * (re1 - re0)
            r1, r2 = (re0, cut, im0, im1), (cut, re1, im0, im1)
        else:
            cut = im0 + ratio * (im1 - im0)
            r1, r2 = (re0, re1, im0, cut), (re0, re1, cut, im1)
        try:
            w1 = _winding_number(f, r1, phase_rate)
            w2 = _winding_number(f, r2, phase_rate)
        except RootCertificationError:
            continue
        if w1 + w2 != w:
            continue
        roots = (_subdivide(f, fp, r1, w1, tol, iso, phase_rate)
                 + _subdivide(f, fp, r2, w2, tol, iso, phase_rate))
        if w1 == w2 == 1 and abs(roots[0] - roots[1]) <= iso:
            # a double root split by rounding across the cut winds twice
            k = 0.5 * (roots[0] + roots[1])
            box = (k.real - iso, k.real + iso, k.imag - iso, k.imag + iso)
            with suppress(RootCertificationError):
                if _winding_number(f, box, phase_rate) == 2:
                    return [_newton_refine(f, fp, k, 2, tol)] * 2
        return roots
    raise RootCertificationError(
        f"could not split cell {rect} without losing certification")


def secular_roots(a: float, alpha0: float, beta0: float,
                  region: Sequence[float], tol: float = 1e-12) -> list[complex]:
    """All roots of the secular function in a rectangle, multiplicity included.

    The count is certified by the argument principle on the region boundary
    (retried slightly outward if a root sits on it) and cells are bisected;
    a cell that winds once ends at Newton's point if it lies inside and a
    box of diagonal iso (1e-5 of the region's) around it winds once, and two
    such points within iso across a cut are one double root if a box around
    both winds twice.  Other cells bisect to diagonal iso, where Newton with
    the multiplicity polishes each root to |F| <= tol.  The rectangle must
    exclude k = 0, a trivial zero of F (the k <-> -k symmetry artifact), and keep
    the bound on |F| of _require_bounded_secular finite once grown by the retries.
    """
    _require_positive(a=a, tol=tol)
    re0, re1, im0, im1 = rect = tuple(float(x) for x in region)
    _require_finite(alpha0=alpha0, beta0=beta0, region=rect)
    if not (re0 < re1 and im0 < im1):
        raise ValidationError(f"degenerate region {region}")
    if re0 <= 0.0 <= re1 and im0 <= 0.0 <= im1:
        raise ValidationError(
            "region must exclude k = 0 (trivial zero of the secular function)")
    g = _grown(rect, _GROWTH[-1])
    _require_bounded_secular(a, alpha0, beta0, [complex(x, y) for x in g[:2] for y in g[2:]])

    f, fp = _make_secular(a, alpha0, beta0)
    phase_rate = 2.0 * a
    w = _certified_winding(f, rect, phase_rate)
    iso = max(1e-7, 1e-5 * math.hypot(re1 - re0, im1 - im0))
    roots = _subdivide(f, fp, rect, w, tol, iso, phase_rate)
    roots.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    if len(roots) != w:
        raise RootCertificationError(
            f"returned {len(roots)} roots but the region winding is {w}")
    return roots


# ---------------------------------------------------------------------------
# Branch continuation in beta0
# ---------------------------------------------------------------------------

_COLLISION_RADIUS = 1e-6  # tracked branches closer than this have collided
_MAX_BISECTIONS = 16  # nested halvings of one beta0 step before giving up


class BranchPoint(NamedTuple):
    beta0: float
    k: complex
    k_squared: complex


def branch_curves(a: float, alpha0: float, beta0_samples: Sequence[float],
                  seeds: Sequence[complex], tol: float = 1e-12) -> tuple:
    """Track secular roots along a monotone beta0 path, one branch per seed.

    Each continuation step re-solves by Newton from the previous root;
    when two tracked branches come within _COLLISION_RADIUS (1e-6) of
    each other (or Newton fails) the step is bisected, and after
    _MAX_BISECTIONS (16) nested bisections the collision is reported as
    a NumericalError.  Conjugate symmetry of branches is a theorem about
    the model, not enforced here.
    """
    samples = [float(b) for b in beta0_samples]
    if len(samples) < 2:
        raise ValidationError("need at least two beta0 samples")
    steps = np.diff(samples)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValidationError("beta0 samples must be strictly monotone")
    seeds = [complex(s) for s in seeds]
    if not seeds:
        raise ValidationError("need at least one seed root")
    _require_finite(alpha0=alpha0, beta0_samples=samples, seeds=seeds)
    _require_positive(a=a, tol=tol)
    _require_bounded_secular(a, alpha0, max(samples, key=abs), seeds)

    def collide(ks):
        return any(abs(x - y) <= _COLLISION_RADIUS
                   for i, x in enumerate(ks) for y in ks[i + 1:])

    f0, fp0 = _make_secular(a, alpha0, samples[0])
    current = [_newton_refine(f0, fp0, s, 1, tol) for s in seeds]
    if collide(current):
        raise ValidationError("seed roots are not distinct branches")

    def advance(b_from, b_to, ks, depth):
        f, fp = _make_secular(a, alpha0, b_to)
        with suppress(RootCertificationError):  # Newton failed: bisect
            new = [_newton_refine(f, fp, k, 1, tol) for k in ks]
            if not collide(new):
                return new
        if depth >= _MAX_BISECTIONS:
            raise NumericalError(
                f"branch collision near beta0 = {b_to:.6g}: tracked roots "
                f"merged within {_COLLISION_RADIUS:.1e}")
        mid = 0.5 * (b_from + b_to)
        ks_mid = advance(b_from, mid, ks, depth + 1)
        return advance(mid, b_to, ks_mid, depth + 1)

    tables = [[BranchPoint(samples[0], k, k * k)] for k in current]
    for b_from, b_to in zip(samples[:-1], samples[1:]):
        current = advance(b_from, b_to, current, 0)
        for table, k in zip(tables, current):
            table.append(BranchPoint(b_to, k, k * k))
    return tuple(tuple(t) for t in tables)


# ---------------------------------------------------------------------------
# Longitudinal spectrum descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Zero:
    """Free longitudinal motion, V0 = 0."""


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class SquareWell:
    depth: float
    width: float


@dataclass(frozen=True)
class UserSet:
    essential: RealLineSet
    points: tuple = ()


@dataclass(frozen=True, eq=False)
class Discretized:
    """Interior samples of V0 on a uniform grid over [-half_length, half_length]."""

    values: np.ndarray
    half_length: float


def _square_well_levels(depth: float, width: float) -> list[float]:
    _require_positive(depth=depth, width=width)
    L = 0.5 * width
    qmax = math.sqrt(depth)

    def kappa(q):
        return math.sqrt(max(depth - q * q, 0.0))

    def even(q):
        return q * math.sin(q * L) - kappa(q) * math.cos(q * L)

    def odd(q):
        return q * math.cos(q * L) + kappa(q) * math.sin(q * L)

    levels = []
    grid = np.linspace(1e-12, qmax * (1.0 - 1e-12), 4001).tolist()  # as floats, not numpy scalars: half the time
    for g in (even, odd):
        vals = [g(q) for q in grid]
        for lo, hi, vlo, vhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if vlo == 0.0:
                levels.append(lo * lo - depth)
            elif vlo * vhi < 0:
                q = _bisect(g, lo, hi, vlo)
                levels.append(q * q - depth)
    return sorted(levels)


def _bisect(f, xa: float, xb: float, fa: float) -> float:
    """scipy.optimize.bisect's loop at xtol 1e-14: its root to the last bit."""
    dm, rtol = xb - xa, 4 * np.finfo(float).eps
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < 1e-14 + rtol * abs(xm):
            return float(xm)
    raise NumericalError("bisection did not converge in 100 steps")


def longitudinal_spectrum(spec) -> tuple[RealLineSet, tuple]:
    """(essential spectrum, bound-state eigenvalues) of -d^2/dx^2 + V0.

    ``Zero`` and ``Constant`` are exact half-lines; ``SquareWell`` solves
    the even/odd matching equations by bisection; ``UserSet`` passes
    through; ``Discretized`` declares the essential part from the boundary
    value of V0 and takes finite-difference eigenvalues below it.
    """
    if isinstance(spec, Zero):
        return _half_line(0.0), ()
    if isinstance(spec, Constant):
        return _half_line(float(spec.value)), ()
    if isinstance(spec, SquareWell):
        return _half_line(0.0), tuple(_square_well_levels(spec.depth, spec.width))
    if isinstance(spec, UserSet):
        return spec.essential, tuple(float(p) for p in spec.points)
    if isinstance(spec, Discretized):
        v = np.asarray(spec.values, dtype=float)
        L = float(spec.half_length)
        if v.ndim != 1 or len(v) < 8:
            raise ValidationError("need at least 8 interior potential samples")
        _require_finite(values=v)
        _require_positive(half_length=L)
        m = len(v)
        h = 2.0 * L / (m + 1)
        _require_grid_step(h=h)
        v_inf = 0.5 * (v[0] + v[-1])
        edge = max(2, m // 10)
        flat = max(np.abs(v[:edge] - v_inf).max(),
                   np.abs(v[-edge:] - v_inf).max())
        if flat > 0.05 * max(1.0, abs(v_inf)):
            warnings.warn("potential is not approximately constant near the "
                          f"truncation boundary (deviation {flat:.3g})",
                          stacklevel=2)
        d = 2.0 / h**2 + v
        e = np.full(m - 1, -1.0 / h**2)
        eigs = scipy.linalg.eigvalsh_tridiagonal(d, e)
        bound = tuple(float(x) for x in eigs[eigs < v_inf - 1e-9])
        return _half_line(v_inf), bound
    raise ValidationError(f"unknown longitudinal descriptor {type(spec).__name__}")


def _half_line(lo: float) -> RealLineSet:
    return RealLineSet((Interval(lo, math.inf, True, False),))


# ---------------------------------------------------------------------------
# M-set decomposition of the full waveguide essential structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WaveguideDecomposition:
    """Typed decomposition of M = sigma(transversal) + sigma(longitudinal).

    Valid below ``window_max``; higher layers would need more transversal
    modes than the cutoff used to build it.
    """

    sigma_pp: RealLineSet
    sigma_mm: RealLineSet
    sigma_00: RealLineSet
    mu: tuple
    exceptional: frozenset
    window_max: float

    def to_json_obj(self) -> dict:
        return {
            "schema": "kreinspec/waveguide-decomposition-v1",
            "sigma_pp": self.sigma_pp.to_json_obj(),
            "sigma_mm": self.sigma_mm.to_json_obj(),
            "sigma_00": self.sigma_00.to_json_obj(),
            "mu": list(self.mu),
            "exceptional": sorted(self.exceptional),
            "window_max": self.window_max,
        }


def waveguide_m_sets(a: float, alpha0: float, longitudinal,
                     window_max: float,
                     n_modes: int | None = None) -> WaveguideDecomposition:
    """Layered type decomposition of the waveguide's essential structure.

    M_mu is the Minkowski sum of the mu-type transversal eigenvalues with
    the full longitudinal spectrum, ``predict_m_sets``' symbolic route;
    then sigma_pp = M+ minus the others, sigma_mm symmetrically, and
    sigma_00 = M0 together with the overlap of M+ and M-.  The mode cutoff
    is chosen (or validated, when ``n_modes`` is passed) so every layer
    below ``window_max`` is present, with the lattice modes below alpha0^2.
    """
    essential, points = longitudinal
    r_set = essential.union(RealLineSet.from_points(points))
    if r_set.is_empty:
        raise ValidationError("longitudinal spectrum is empty")
    r_min = r_set.infimum()
    if not math.isfinite(r_min):
        raise ValidationError("longitudinal spectrum is unbounded below")
    _require_finite(window_max=window_max)

    lam_needed = window_max - r_min
    auto = 2.0 * a * math.sqrt(max(lam_needed, 0.0)) / math.pi
    if n_modes is None:
        if not auto < MAX_LATTICE_MODES:
            raise ValidationError(f"energy window {window_max:.6g} needs "
                                  f"{auto:.6g} > {MAX_LATTICE_MODES} lattice modes")
        n_modes = max(math.floor(auto) + 1, _min_lattice(a, alpha0))
    modes = transversal_modes(a, alpha0, n_modes)
    lam_top = (math.pi * n_modes / (2.0 * a)) ** 2
    if lam_top + r_min <= window_max:
        raise ValidationError(
            f"energy window {window_max} exceeds the transversal cutoff "
            f"(lambda_{n_modes} = {lam_top:.6g} starts at {lam_top + r_min:.6g})")

    m_plus, m_minus, m_zero = predict_m_sets(r_set, modes)
    sigma_pp = m_plus.subtract(m_minus.union(m_zero))
    sigma_mm = m_minus.subtract(m_plus.union(m_zero))
    sigma_00 = m_zero.union(m_plus.intersect(m_minus))
    return WaveguideDecomposition(
        sigma_pp=sigma_pp, sigma_mm=sigma_mm, sigma_00=sigma_00,
        mu=tuple(m.lam for m in modes),
        exceptional=exceptional_set(a, alpha0),
        window_max=float(window_max))
