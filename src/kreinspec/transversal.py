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
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .errors import (NumericalError, RootCertificationError, ValidationError)
from .krein import SpectralType
from .realsets import Interval, RealLineSet, minkowski_add_points

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
    if a <= 0:
        raise ValidationError(f"half-width a must be positive, got {a}")
    t = 2.0 * a * abs(alpha0) / math.pi
    if not math.isfinite(t):
        raise ValidationError(f"2 a |alpha0| / pi = {t} is not finite")
    n_star, slack = round(t), 1e-12 * max(1.0, t)
    if n_star >= 1 and slack < 0.5 and abs(t - n_star) <= slack:
        return frozenset({n_star - 1, n_star})
    return frozenset()


def transversal_modes(a: float, alpha0: float, N: int) -> list[TransversalMode]:
    """Modes 0..N of the transversal operator at beta0 = 0, mu-sorted.

    Eigenvalues are alpha0^2 (label 0) and (pi n / 2a)^2 (labels 1..N).
    Ties at an exceptional alpha0 keep the label-0 mode first; both
    members of the degenerate pair are typed not definite, all other
    types alternate positive/negative with the mu index.
    """
    if a <= 0:
        raise ValidationError(f"half-width a must be positive, got {a}")
    if N < 1:
        raise ValidationError(f"need N >= 1 modes, got N = {N}")
    exc = exceptional_set(a, alpha0)
    lam0 = alpha0 * alpha0
    lattice = [(math.pi * n / (2.0 * a)) ** 2 for n in range(1, N + 1)]
    if exc:
        n_star = max(exc)
        if n_star > N:
            raise ValidationError(
                f"exceptional pair needs N >= {n_star}, got N = {N}")
        lam0 = lattice[n_star - 1]  # snap the exact degeneracy
    else:
        # every lattice eigenvalue below lambda_0 must be present, or the
        # mu indices (and with them the type assignments) come out shifted
        below = math.floor(2.0 * a * abs(alpha0) / math.pi)
        if N < below:
            raise ValidationError(
                f"label-0 eigenvalue sits above {below} lattice modes; "
                f"need N >= {below}, got N = {N}")

    raw = [(lam0, 0)] + [(lam, n) for n, lam in enumerate(lattice, start=1)]
    raw.sort(key=lambda p: (p[0], p[1] != 0, p[1]))

    modes = []
    for mu_index, (lam, n) in enumerate(raw):
        k = math.sqrt(lam0) if n == 0 else math.sqrt(lam)
        if n == 0:
            A, B = 1.0 + 0.0j, -1.0j
            ind = _indicator_mode0(a, alpha0)
        else:
            A = 1.0 + 0.0j
            B = -1.0j * alpha0 / k
            ind = a * (-1.0) ** n * (lam - alpha0 * alpha0) / lam
        if mu_index in exc:
            t = SpectralType.NOT_DEFINITE
        else:
            t = SpectralType.POSITIVE if mu_index % 2 == 0 else SpectralType.NEGATIVE
            if ind != 0.0 and (ind > 0) != (t is SpectralType.POSITIVE):
                raise NumericalError(
                    f"indicator sign of mode {n} contradicts its mu parity")
        mode = TransversalMode(n=n, mu_index=mu_index, lam=lam,
                               psi_coeffs=(A, B), indicator=ind, type=t)
        res = _boundary_residual(mode, a, alpha0)
        if res > 1e-10:
            raise NumericalError(
                f"mode {n} violates the boundary conditions (residual {res:.2e})")
        modes.append(mode)
    return modes


def mode_function(mode: TransversalMode, a: float, y):
    """Evaluate the eigenfunction of a mode at points y in [-a, a]."""
    A, B = mode.psi_coeffs
    k = math.sqrt(mode.lam)
    u = np.asarray(y, dtype=float) + a
    return A * np.cos(k * u) + B * np.sin(k * u)


def _boundary_residual(mode: TransversalMode, a: float, alpha0: float,
                       beta0: float = 0.0) -> float:
    A, B = mode.psi_coeffs
    k = cmath.sqrt(mode.lam)
    alpha = beta0 + 1j * alpha0
    lo = abs(B * k - alpha.conjugate() * A)
    top = A * cmath.cos(2 * k * a) + B * cmath.sin(2 * k * a)
    dtop = -A * k * cmath.sin(2 * k * a) + B * k * cmath.cos(2 * k * a)
    return float(max(lo, abs(dtop + alpha * top)))


# ---------------------------------------------------------------------------
# Finite-difference Robin discretization
# ---------------------------------------------------------------------------

def robin_fd(a: float, alpha: complex, n: int, sparse: bool = False):
    """Second-order discretization of the transversal operator, (T, J).

    Ghost-node elimination of the Robin conditions followed by the
    half-weight endpoint scaling; the scaling is a similarity (it keeps
    every eigenvalue of the plain scheme) and makes the reversal symmetry
    exact: with J the index-reversing permutation, J T* J == T holds to
    the last bit for any complex alpha.
    """
    if a <= 0:
        raise ValidationError(f"half-width a must be positive, got {a}")
    if n < 3:
        raise ValidationError(f"need at least 3 grid points, got {n}")
    h = 2.0 * a / (n - 1)
    if not (0.0 < h * h < math.inf and 2.0 / (h * h) < math.inf):
        raise ValidationError(f"grid step {h:g} leaves 2/h^2 out of range")
    alpha = complex(alpha)
    main = np.full(n, 2.0, dtype=complex) / h**2
    main[0] = 2.0 / h**2 + 2.0 * alpha.conjugate() / h
    main[-1] = 2.0 / h**2 + 2.0 * alpha / h
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    off[0] = -math.sqrt(2.0) / h**2
    off[-1] = -math.sqrt(2.0) / h**2
    if sparse:
        T = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr")
        J = scipy.sparse.csr_matrix(
            (np.ones(n), (np.arange(n), np.arange(n)[::-1])), shape=(n, n))
        return T, J
    T = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return T, np.eye(n)[::-1].copy()


# ---------------------------------------------------------------------------
# Secular function and certified root finding
# ---------------------------------------------------------------------------

def _make_secular(a: float, alpha0: float, beta0: float):
    c0 = alpha0 * alpha0 + beta0 * beta0

    def f(k):
        return ((k * k - c0) * cmath.sin(2.0 * a * k)
                - 2.0 * beta0 * k * cmath.cos(2.0 * a * k))

    def fp(k):
        s, c = cmath.sin(2.0 * a * k), cmath.cos(2.0 * a * k)
        return (2.0 * k * s + 2.0 * a * (k * k - c0) * c
                - 2.0 * beta0 * c + 4.0 * a * beta0 * k * s)

    return f, fp


def secular_value(k, a: float, alpha0: float, beta0: float):
    """F(k) = (k^2 - alpha0^2 - beta0^2) sin(2ka) - 2 beta0 k cos(2ka)."""
    return _elementwise(_make_secular(a, alpha0, beta0)[0], k)


def secular_derivative(k, a: float, alpha0: float, beta0: float):
    """dF/dk for the secular function."""
    return _elementwise(_make_secular(a, alpha0, beta0)[1], k)


def _elementwise(fn, k):
    # the root finder's scalar formula, element by element over arrays
    out = np.vectorize(lambda z: fn(complex(z)), otypes=[complex])(k)
    return complex(out) if out.ndim == 0 else out


def _winding_number(f, rect, phase_rate: float = 0.0,
                    max_nodes: int = 200000):
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
                                   max_nodes)))
        nodes += n0 + 1
        if nodes > max_nodes:
            raise RootCertificationError(
                f"contour sampling needs over {max_nodes} nodes")
        ts = np.linspace(0.0, 1.0, n0 + 1)
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
            if nodes > max_nodes:
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


def _certified_winding(f, rect, phase_rate: float = 0.0,
                       grow: float = 0.02, tries: int = 4):
    """Winding count with outward perturbation retries for boundary roots."""
    re0, re1, im0, im1 = rect
    for i in range(tries):
        s = grow * i
        try:
            return _winding_number(f, (re0 - s * (re1 - re0),
                                       re1 + s * (re1 - re0),
                                       im0 - s * (im1 - im0),
                                       im1 + s * (im1 - im0)), phase_rate)
        except RootCertificationError:
            if i == tries - 1:
                raise
    raise RootCertificationError("unreachable")


def _newton_refine(f, fp, k0: complex, mult: int, tol: float,
                   maxit: int = 80) -> complex:
    k = complex(k0)
    for _ in range(maxit):
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
        return _subdivide(f, fp, r1, w1, tol, iso, phase_rate) \
            + _subdivide(f, fp, r2, w2, tol, iso, phase_rate)
    raise RootCertificationError(
        f"could not split cell {rect} without losing certification")


def secular_roots(a: float, alpha0: float, beta0: float,
                  region: Sequence[float], tol: float = 1e-12) -> list[complex]:
    """All roots of the secular function in a rectangle, multiplicity included.

    The total count is certified by the argument principle on the region
    boundary (with slight outward perturbation retries if a root sits on
    it) and cells are bisected; a cell that winds once ends at Newton's
    point if it lies inside and a box of diagonal iso (1e-5 of the region's)
    around it winds once.  Other cells bisect down to diagonal iso, where a
    multiplicity-aware Newton iteration polishes each root to |F| <= tol.
    The rectangle must exclude k = 0, which is always a trivial zero of F
    (the k <-> -k symmetry artifact).
    """
    if a <= 0:
        raise ValidationError(f"half-width a must be positive, got {a}")
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    re0, re1, im0, im1 = (float(x) for x in region)
    if not (re0 < re1 and im0 < im1):
        raise ValidationError(f"degenerate region {region}")
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise ValidationError(f"region must be finite, got {region}")
    if re0 <= 0.0 <= re1 and im0 <= 0.0 <= im1:
        raise ValidationError(
            "region must exclude k = 0 (trivial zero of the secular function)")

    f, fp = _make_secular(a, alpha0, beta0)
    phase_rate = 2.0 * a
    w = _certified_winding(f, (re0, re1, im0, im1), phase_rate)
    iso = max(1e-7, 1e-5 * math.hypot(re1 - re0, im1 - im0))
    roots = _subdivide(f, fp, (re0, re1, im0, im1), w, tol, iso, phase_rate)
    roots.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    if len(roots) != w:
        raise RootCertificationError(
            f"returned {len(roots)} roots but the region winding is {w}")
    return roots


# ---------------------------------------------------------------------------
# Branch continuation in beta0
# ---------------------------------------------------------------------------

class BranchPoint(NamedTuple):
    beta0: float
    k: complex
    k_squared: complex


def branch_curves(a: float, alpha0: float, beta0_samples: Sequence[float],
                  seeds: Sequence[complex], tol: float = 1e-12,
                  collision_radius: float = 1e-6,
                  max_bisections: int = 16) -> tuple:
    """Track secular roots along a monotone beta0 path, one branch per seed.

    Each continuation step re-solves by Newton from the previous root;
    when two tracked branches come within ``collision_radius`` of each
    other (or Newton fails) the step is bisected, and after
    ``max_bisections`` nested bisections the collision is reported as a
    NumericalError.  Conjugate symmetry of branches is a theorem about
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

    f0, fp0 = _make_secular(a, alpha0, samples[0])
    current = [_newton_refine(f0, fp0, s, 1, tol) for s in seeds]
    for i, x in enumerate(current):
        for y in current[i + 1:]:
            if abs(x - y) <= collision_radius:
                raise ValidationError("seed roots are not distinct branches")

    def advance(b_from, b_to, ks, depth):
        f, fp = _make_secular(a, alpha0, b_to)
        try:
            new = [_newton_refine(f, fp, k, 1, tol) for k in ks]
        except RootCertificationError:
            new = None
        if new is not None:
            collision = any(abs(new[i] - new[j]) <= collision_radius
                            for i in range(len(new))
                            for j in range(i + 1, len(new)))
            if not collision:
                return new
        if depth >= max_bisections:
            raise NumericalError(
                f"branch collision near beta0 = {b_to:.6g}: tracked roots "
                f"merged within {collision_radius:.1e}")
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
    if depth <= 0 or width <= 0:
        raise ValidationError("square well needs positive depth and width")
    L = 0.5 * width
    qmax = math.sqrt(depth)

    def kappa(q):
        return math.sqrt(max(depth - q * q, 0.0))

    def even(q):
        return q * math.sin(q * L) - kappa(q) * math.cos(q * L)

    def odd(q):
        return q * math.cos(q * L) + kappa(q) * math.sin(q * L)

    levels = []
    grid = np.linspace(1e-12, qmax * (1.0 - 1e-12), 4001)
    for g in (even, odd):
        vals = [g(q) for q in grid]
        for lo, hi, vlo, vhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if vlo == 0.0:
                levels.append(lo * lo - depth)
            elif vlo * vhi < 0:
                q = scipy.optimize.bisect(g, lo, hi, xtol=1e-14)
                levels.append(q * q - depth)
    return sorted(levels)


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
        if L <= 0:
            raise ValidationError("half_length must be positive")
        v_inf = 0.5 * (v[0] + v[-1])
        edge = max(2, len(v) // 10)
        flat = max(np.abs(v[:edge] - v_inf).max(),
                   np.abs(v[-edge:] - v_inf).max())
        if flat > 0.05 * max(1.0, abs(v_inf)):
            warnings.warn("potential is not approximately constant near the "
                          f"truncation boundary (deviation {flat:.3g})",
                          stacklevel=2)
        m = len(v)
        h = 2.0 * L / (m + 1)
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
    the full longitudinal spectrum; then sigma_pp = M+ minus the others,
    sigma_mm symmetrically, and sigma_00 = M0 together with the overlap of
    M+ and M-.  The mode cutoff is chosen (or validated, when ``n_modes``
    is passed) so every layer below ``window_max`` is present.
    """
    essential, points = longitudinal
    r_set = essential.union(RealLineSet.from_points(points))
    if r_set.is_empty:
        raise ValidationError("longitudinal spectrum is empty")
    r_min = r_set.infimum()
    if not math.isfinite(r_min):
        raise ValidationError("longitudinal spectrum is unbounded below")
    if not math.isfinite(window_max):
        raise ValidationError("window_max must be finite")

    lam_needed = window_max - r_min
    auto = int(math.floor(2.0 * a * math.sqrt(max(lam_needed, 0.0)) / math.pi)) + 1
    if n_modes is None:
        n_modes = auto
    lam_top = (math.pi * n_modes / (2.0 * a)) ** 2
    if lam_top + r_min <= window_max:
        raise ValidationError(
            f"energy window {window_max} exceeds the transversal cutoff "
            f"(lambda_{n_modes} = {lam_top:.6g} starts at {lam_top + r_min:.6g})")

    modes = transversal_modes(a, alpha0, n_modes)
    by_type = {t: [m.lam for m in modes if m.type is t]
               for t in (SpectralType.POSITIVE, SpectralType.NEGATIVE,
                         SpectralType.NOT_DEFINITE)}
    m_plus = minkowski_add_points(by_type[SpectralType.POSITIVE], r_set)
    m_minus = minkowski_add_points(by_type[SpectralType.NEGATIVE], r_set)
    m_zero = minkowski_add_points(by_type[SpectralType.NOT_DEFINITE], r_set)

    sigma_pp = m_plus.subtract(m_minus.union(m_zero))
    sigma_mm = m_minus.subtract(m_plus.union(m_zero))
    sigma_00 = m_zero.union(m_plus.intersect(m_minus))
    return WaveguideDecomposition(
        sigma_pp=sigma_pp, sigma_mm=sigma_mm, sigma_00=sigma_00,
        mu=tuple(m.lam for m in modes),
        exceptional=exceptional_set(a, alpha0),
        window_max=float(window_max))
