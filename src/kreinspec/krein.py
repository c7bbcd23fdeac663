"""Spectral-type classification for J-self-adjoint matrices.

A bounded symmetric involution J (J = J*, J^2 = I) turns the standard
inner product into the indefinite product [f, g] = (Jf, g).  A matrix T
with T = J T* J is J-self-adjoint; each of its eigenvalue clusters is
classified as positive type, negative type, or not definite by the sign
pattern of the indefinite Gram matrix on the root subspace, read from one
complex Schur form per matrix (a centro-Hermitian one's from a real Schur
form, Lee 1980).  One vectorised pass per call measures the clusters'
centres and distances; each cluster then costs a fixed sequence: a LAPACK
ztrsen reorder, ztrsen's ``s`` and ``sep`` as its certificate, and the
Gram matrix's eigenvalues.  A single root of a matrix of order n >= 2
takes s and sep from at most twelve applications of one triangular solve
(ztrtrs) and reads its 1-by-1 Gram eigenvalue as the real part, as zheevd
does; any other cluster takes them from ztrsen's own Sylvester solver and
pays one Gram eigvalsh and one SVD.  Riesz projections are the independent
check.

Classification runs on the root subspace, not just the eigenspace, so a
Jordan block at a real eigenvalue is reported as not definite even
though every individual eigenvector may be non-neutral.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import ContourError, NumericalError, ValidationError

_TINY = np.finfo(float).tiny  # smallest normal double, as in zlacn2
_CHUNK = 1 << 14  # entries one step of a blocked vectorised pass touches

__all__ = [
    "SpectralType",
    "Involution",
    "SpectrumEntry",
    "ClassifiedSpectrum",
    "ThetaCertificate",
    "DefinitenessCertificate",
    "validate_involution",
    "j_self_adjoint_defect",
    "riesz_projection",
    "classify_point",
    "classify_spectrum",
    "theta_operator",
    "definiteness_constants",
]

class SpectralType(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NOT_DEFINITE = "not-definite"


def _as_matrix(J) -> np.ndarray | scipy.sparse.spmatrix:
    return J.matrix if isinstance(J, Involution) else J


def _norm2(A) -> float:
    """Spectral norm for dense input, Frobenius bound for sparse input."""
    if scipy.sparse.issparse(A):
        return float(scipy.sparse.linalg.norm(A, "fro"))
    A = np.asarray(A)
    if not A.any():  # zero or empty; NaN is nonzero
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


# Every public boundary refuses a malformed argument with these.  A
# tolerance a result must meet is positive; a cutoff or margin may be 0.
def _require_finite(**values) -> None:
    """ValidationError unless every value given (not None) has only finite
    entries (stored ones, if sparse)."""
    for name, A in values.items():
        if A is None:
            continue
        finite = (cmath.isfinite(A) if np.isscalar(A) else  # numpy: 2 us a scalar
                  np.isfinite(A.data if scipy.sparse.issparse(A) else A).all())
        if not finite:
            raise ValidationError(f"{name} has a non-finite entry")


def _require_positive(**values) -> None:
    """ValidationError unless every value is finite and > 0."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValidationError(f"{name} must be finite and positive, got {value}")


def _require_tolerances(**values) -> None:
    """ValidationError unless every value given (not None) is finite and >= 0."""
    for name, value in values.items():
        if value is not None and not (value >= 0 and math.isfinite(value)):
            raise ValidationError(f"{name} must be finite and non-negative, got {value}")


def _require_counts(**values) -> None:
    """ValidationError unless every value is a non-negative integer."""
    for name, value in values.items():
        if not (isinstance(value, (int, np.integer)) and value >= 0):
            raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")


def _require_grid_step(**steps) -> None:
    """ValidationError unless 2/h^2 is finite and positive for every step h."""
    for name, h in steps.items():
        if not (0.0 < h * h < math.inf and 2.0 / (h * h) < math.inf):
            raise ValidationError(f"grid step {name} = {h:g} leaves 2/h^2 out of range")


@dataclass(frozen=True, eq=False)
class Involution:
    """A symmetric involution: ||J - J*||, ||J^2 - I|| <= ``tol``, measured by
    ``validate_involution`` or bounded from how J was built."""

    matrix: np.ndarray
    tol: float

    def __post_init__(self):
        _require_tolerances(tol=self.tol)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def validate_involution(J, tol: float = 1e-10) -> Involution:
    """Check ||J - J*|| <= tol and ||J^2 - I|| <= tol, returning the wrapper.

    Dense matrices are checked in spectral norm; sparse ones in Frobenius
    norm, which dominates the spectral norm and is therefore conservative.
    """
    _require_tolerances(tol=tol)
    if tol >= 1:
        raise ValidationError(f"tol must be below 1 (J = 0 passes at 1), got {tol}")
    J = _as_matrix(J)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValidationError(f"involution must be square, got shape {J.shape}")
    _require_finite(J=J)
    if scipy.sparse.issparse(J):
        sym = _norm2(J - J.conj().T)
        invol = _norm2((J @ J - scipy.sparse.identity(J.shape[0], format="csr",
                                                      dtype=J.dtype)).tocsr())
    else:
        J = np.asarray(J, dtype=complex)
        sym = _norm2(J - J.conj().T)
        invol = _norm2(J @ J - np.eye(J.shape[0]))
    if sym > tol:
        raise ValidationError(f"matrix is not symmetric: ||J - J*|| = {sym:.3e} > {tol:.1e}")
    if invol > tol:
        raise ValidationError(f"matrix is not an involution: ||J^2 - I|| = {invol:.3e} > {tol:.1e}")
    return Involution(J, tol)


def j_self_adjoint_defect(T, J) -> float:
    """||T - J T* J|| in spectral norm (Frobenius bound when sparse)."""
    T, Jm = (A if scipy.sparse.issparse(A) else np.asarray(A, dtype=complex)
             for A in (T, _as_matrix(J)))
    if T.shape != Jm.shape:
        raise ValidationError(f"shape mismatch: T {T.shape} vs J {Jm.shape}")
    _require_finite(T=T, J=Jm)
    return _norm2(T - Jm @ T.conj().T @ Jm)


@dataclass(frozen=True, eq=False)
class SpectrumEntry:
    """One classified eigenvalue cluster.

    ``s`` and ``sep`` are LAPACK ztrsen's condition estimates for the
    reordered Schur form (of the cluster's mean eigenvalue and of its
    root subspace), if measured: a single root's computed by triangular
    solves, any other cluster's by ztrsen itself.
    """

    lam: complex
    alg_mult: int
    geo_mult: int
    type: SpectralType
    gram_eigs: np.ndarray
    s: float | None = None
    sep: float | None = None


@dataclass(frozen=True, eq=False)
class ClassifiedSpectrum:
    entries: tuple[SpectrumEntry, ...]

    def points_of_type(self, t: SpectralType) -> np.ndarray:
        return np.array([e.lam for e in self.entries if e.type is t], dtype=complex)

    @property
    def all_points(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries], dtype=complex)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# Riesz projections
# ---------------------------------------------------------------------------

def riesz_projection(T: np.ndarray, center: complex, radius: float,
                     nodes: int = 64,
                     eigvals: np.ndarray | None = None) -> np.ndarray:
    """Spectral projection onto eigenvalues inside the given circle.

    Trapezoidal quadrature of the resolvent integral on the circle; the
    rule converges geometrically in the node count with rate set by the
    distance from the contour to the nearest eigenvalue.  If ``eigvals``
    is supplied, the contour is rejected when an eigenvalue comes within
    radius/100 of it.
    """
    T = np.asarray(T, dtype=complex)
    n = T.shape[0]
    if T.ndim != 2 or T.shape[1] != n:
        raise ValidationError(f"matrix must be square, got shape {T.shape}")
    _require_finite(T=T)
    _require_positive(radius=radius)
    _require_counts(nodes=nodes)
    if nodes < 16:
        raise ValidationError(f"need at least 16 quadrature nodes, got {nodes}")
    margin = radius / 100.0
    if eigvals is not None:
        gap = np.abs(np.abs(np.asarray(eigvals) - center) - radius)
        if gap.size and gap.min() < margin:
            raise ContourError(
                f"eigenvalue within {gap.min():.3e} of the contour (margin {margin:.3e})")

    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    eye = np.eye(n, dtype=complex)
    P = np.zeros((n, n), dtype=complex)
    # chunked so the stacked solve never materializes more than ~32 resolvents
    for start in range(0, nodes, 32):
        w = ring[start:start + 32]
        zs = center + radius * w
        A = zs[:, None, None] * eye - T
        try:
            R = np.linalg.solve(A, np.broadcast_to(eye, A.shape))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"resolvent solve failed on the contour: {exc}") from exc
        P += np.einsum("j,jkl->kl", w, R)
    return P * (radius / nodes)


# ---------------------------------------------------------------------------
# Cluster classification on a reordered Schur form
# ---------------------------------------------------------------------------

def _cluster_eigenvalues(eigvals: np.ndarray, gap: float) -> list[np.ndarray]:
    """Partition eigenvalues into transitive proximity clusters (indices).

    Links are distances ``abs(e[a] - e[b]) <= gap``, tested on the pairs
    that a sweep over the sorted real parts finds within ``gap`` plus a few
    ulps (so rounding in ``re + gap`` loses no tie); groups are ordered by
    lowest index."""
    e = np.asarray(eigvals)
    n = e.size
    by_re = np.argsort(e.real, kind="stable")
    re = e.real[by_re]
    hi = np.searchsorted(re, re + gap + 4 * np.spacing(np.abs(re) + gap), "right")
    counts = np.maximum(hi - np.arange(n) - 1, 0)
    a = np.repeat(np.arange(n), counts)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
    link = np.abs(e[by_re[a]] - e[by_re[b]]) <= gap
    if not link.any():
        return list(np.arange(n)[:, None])
    a, b = by_re[a[link]], by_re[b[link]]
    graph = scipy.sparse.csr_array((np.ones(a.size), (a, b)), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(groups, key=lambda g: g[0])


def _cluster_geometry(eigvals: np.ndarray, clusters: list) -> tuple:
    """Centre (the mean), extent and nearest-outside distance of each
    cluster, as lists, in one vectorised pass: the means summed row by row
    as ``np.mean`` sums, the distances in blocks of about ``_CHUNK`` entries."""
    if not clusters:  # an empty matrix
        return [], [], []
    sizes = np.array([c.size for c in clusters])
    starts = np.cumsum(sizes) - sizes
    members = np.concatenate(clusters)
    owner = np.repeat(np.arange(sizes.size), sizes)  # cluster of each member
    center = np.empty(sizes.size, dtype=complex)
    for k in set(sizes.tolist()):
        rows = members[starts[sizes == k, None] + np.arange(k)]
        center[sizes == k] = eigvals[rows].mean(axis=1)
    d_in = np.maximum.reduceat(np.abs(eigvals[members] - center[owner]), starts)
    d_out = np.empty(sizes.size)
    step = max(1, _CHUNK // eigvals.size)
    for lo in range(0, sizes.size, step):
        dist = np.abs(eigvals - center[lo:lo + step, None])
        span = slice(starts[lo], starts[lo] + sizes[lo:lo + step].sum())
        dist[owner[span] - lo, members[span]] = math.inf
        d_out[lo:lo + step] = dist.min(axis=1)
    return center.tolist(), d_in.tolist(), d_out.tolist()


@functools.lru_cache(maxsize=64)
def _zlacn2_vectors(size: int) -> tuple:
    """zlacn2's start vector, every entry 1/size, and its alternating
    vector (1 + i/(size - 1)) (-1)^i (None for size 1), read-only."""
    start = np.full(size, 1.0 / size, dtype=complex)
    alt = None
    if size > 1:
        alt = ((1.0 + np.arange(size) / (size - 1))
               * (-1.0) ** np.arange(size)).astype(complex)
        alt.flags.writeable = False
    start.flags.writeable = False
    return start, alt


def _one_norm_estimate(apply, size: int) -> float:
    """LAPACK zlacn2 (Higham 1988): a lower bound on the one-norm of the
    linear map ``apply(x, False)``, whose adjoint is ``apply(x, True)``.

    The steps, tests and vectors are zlacn2's, so the estimate is
    LAPACK's; its start and alternating vectors are built once per size.
    An ``OverflowError`` from ``apply`` ends it with ``inf``.
    """
    start, alt = _zlacn2_vectors(size)

    def signs(y, a):
        """y/|y| entrywise, 1 where |y| = ``a`` is not above the smallest
        normal double."""
        out = np.ones(size, dtype=complex)
        np.divide(y.view(float).reshape(size, 2), a[:, None],
                  out=out.view(float).reshape(size, 2), where=(a > _TINY)[:, None])
        return out

    try:
        v = apply(start, False)
        a = np.abs(v)
        est = float(a.sum())
        if size == 1:
            return est
        j = int(np.abs(apply(signs(v, a), True)).argmax())
        e_j = np.zeros(size, dtype=complex)
        for _ in range(4):
            e_j[:], e_j[j] = 0.0, 1.0
            v = apply(e_j, False)
            a = np.abs(v)
            est, old = float(a.sum()), est
            if est <= old:
                break
            y = np.abs(apply(signs(v, a), True))
            j, last = int(y.argmax()), j
            if y[last] == y[j]:
                break
        v = apply(alt, False)
    except OverflowError:
        return math.inf
    return max(est, 2.0 * (float(np.abs(v).sum()) / (3 * size)))


def _condition(R) -> tuple[float, float]:
    """ztrsen's ``s`` and ``sep`` for the leading single root of Schur R
    (of order n >= 2).

    With R = [[r, R12], [0, R22]], x solves r x - x R22 = R12: one
    triangular solve (ztrtrs) with r I - R22, whose diagonal is formed
    once per call.  s = 1/sqrt(1 + ||x||^2) and sep is one over zlacn2's
    estimate of the one-norm of the inverse map, applied the same way.
    Where a solve is not finite (ztrsyl would rescale) the estimate reads 0.
    """
    # solves take negated equations
    shifted = R[1:, 1:].copy(order="F")
    shifted.ravel(order="F")[::shifted.shape[0] + 1] -= R[0, 0]
    ztrtrs = scipy.linalg.lapack.ztrtrs

    def apply(c, adjoint):
        """x with r x - x R22 = c, or the adjoint map's solution."""
        x, info = ztrtrs(shifted, c.conj() if adjoint else c,
                         trans=0 if adjoint else 1)
        if info or not np.isfinite(x).all():
            raise OverflowError
        return np.negative(x.conj() if adjoint else x)

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rnorm = float(scipy.linalg.blas.dznrm2(apply(R[0, 1:], False)))
        except OverflowError:
            rnorm = math.inf
        s = 1.0 if rnorm == 0.0 else 1.0 / (math.sqrt(1.0 / rnorm + rnorm)
                                             * math.sqrt(rnorm))
        sep = 1.0 / _one_norm_estimate(apply, shifted.shape[0])
    return s, sep


def _gram_eigenvalues(G: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(G)`` of a Hermitian G, bit for bit: of a 1-by-1
    G its real part, which is what LAPACK zheevd returns for N = 1."""
    return G.real[0].copy() if G.shape[0] == 1 else np.linalg.eigvalsh(G)


def _root_entry(R, Z, Jm, idx, center, d_in, d_out, scale, tol):
    """Classify the cluster ``idx`` of T = Z R Z*, measured by ``_cluster_geometry``.

    The Schur eigenvalues inside the circle that separates the cluster
    from the rest of the spectrum are moved to the top of R as a whole, so
    the leading columns of the reordered Z are an orthonormal basis B of
    the cluster's root subspace.  Returns the entry and B, a copy, so a
    kept basis does not hold the whole reordered Z.
    """
    # past d_in = 0.94 d_out the separating circle of radius (d_in + d_out)/2
    # passes within 3 % of its radius of an eigenvalue
    if (d_out - d_in <= max(1e-12 * scale, 4.0 * d_in * 1e-10)
            or d_in > 0.94 * d_out):
        raise ContourError(
            f"cannot isolate cluster at {center:.6g}: extent {d_in:.3e} "
            f"vs nearest outside eigenvalue {d_out:.3e}")

    n, m = R.shape[0], len(idx)
    select = np.abs(R.diagonal() - center) < 0.5 * (d_in + d_out)
    if np.count_nonzero(select) != m:
        raise NumericalError(
            f"Schur form holds {np.count_nonzero(select)} eigenvalues of the "
            f"{m}-fold cluster at {center:.6g}")
    # a single root's s and sep come from ``_condition``, any other cluster's
    # from ztrsen's Sylvester solver, whose workspace is 2 m (n - m)
    single = m == 1 < n
    R, Z, _, _, s, sep, info = scipy.linalg.lapack.ztrsen(
        select, R, Z, job="N" if single else "B", lwork=max(1, 2 * m * (n - m)))
    if info:
        raise NumericalError(f"Schur reordering failed for the cluster at "
                             f"{center:.6g} (info {info})")
    if single:
        s, sep = _condition(R)
    # 1/s is the norm of the spectral projector, 1/sep how far the root
    # subspace turns per unit perturbation of T: at the contour path's
    # idempotency tolerance the subspace is not determined (a Jordan pair
    # split in two by the gap lands here), so no verdict is given
    if m < n and s * sep <= 1e-8 * max(1.0, scale):
        raise NumericalError(
            f"root subspace of the cluster at {center:.6g} is ill-conditioned: "
            f"s = {s:.3e}, sep = {sep:.3e}")
    B = Z[:, :m].copy()

    G = B.conj().T @ Jm @ B
    G = 0.5 * (G + G.conj().T)
    gram_eigs = _gram_eigenvalues(G)  # ascending: its ends decide the type
    t = (SpectralType.POSITIVE if gram_eigs[0] > tol else SpectralType.NEGATIVE
         if gram_eigs[-1] < -tol else SpectralType.NOT_DEFINITE)

    # the leading block is T restricted to the root subspace
    geo_mult = 1  # one root: the count is clamped to 1
    if m > 1:
        geo_tol = max(tol * max(1.0, scale), 8.0 * d_in)
        sv = np.linalg.svd(R[:m, :m] - center * np.eye(m), compute_uv=False)
        geo_mult = min(max(int(np.count_nonzero(sv <= geo_tol)), 1), m)

    entry = SpectrumEntry(lam=center, alg_mult=m, geo_mult=geo_mult, type=t,
                          gram_eigs=gram_eigs, s=float(s), sep=float(sep))
    return entry, B


def _position(entry: SpectrumEntry) -> tuple[float, float]:
    """Sort key (Re, Im) of a cluster.  Rounding is monotone, so it never
    inverts true order; it keeps noise below 1e-9 from flipping ties."""
    return (round(entry.lam.real, 9), round(entry.lam.imag, 9))


def classify_point(T, J, lam: complex, tol: float = 1e-8,
                   cluster_gap: float | None = None,
                   eigvals: np.ndarray | None = None) -> SpectrumEntry:
    """Classify the eigenvalue cluster of T containing ``lam``.

    The root subspace is read from a reordered complex Schur form; eigenvalues
    closer than ``cluster_gap`` (default 1e-8 * max(1, ||T||)) are treated as
    one cluster.  The spectral type is decided by the sign pattern of the
    indefinite Gram matrix B* J B of an orthonormal root basis B: all
    eigenvalues above +tol gives positive type, all below -tol negative type,
    anything else (including a Jordan structure or a genuinely mixed cluster)
    not definite.  Repeated queries on one matrix share one factorization and,
    for one ``cluster_gap`` and ``eigvals``, one partition into clusters.
    """
    return _classified_roots(T, J, tol=tol, cluster_gap=cluster_gap,
                             eigvals=eigvals, query=lam)[0][0]


# [T copy, ||T||_2, R, Z, eigenvalues, partition] of the last matrix
_factors: list | None = None


def _factorization(T: np.ndarray) -> list:
    """(||T||_2, R, Z) of T = Z R Z*, read-only; the last matrix's are held
    and reused while equal matrices follow (compared by value, not id).

    A centro-Hermitian T (conj(T) == E T E exactly, E the exchange matrix:
    every ``robin_fd`` matrix) is U M U* with M = Re T - Im(T) E real and U =
    (I + iE)/sqrt(2) (Lee, LAA 29, 1980): M's real Schur form S = Q* M Q,
    put through rsf2csf where it has 2-by-2 blocks, gives R = S and Z = U Q at
    a third of the cost of zgees, which factors every other matrix.
    """
    global _factors
    if _factors is None or not np.array_equal(_factors[0], T):
        d = T.diagonal()  # an O(n) screen first; order 1 keeps zgees's Z = 1
        if (d.size > 1 and np.array_equal(d.conj(), d[::-1])
                and np.array_equal(T.conj(), T[::-1, ::-1])):
            R, Q = scipy.linalg.schur(T.real - T.imag[:, ::-1], output="real")
            if R.diagonal(-1).any():  # 2-by-2 blocks of conjugate pairs
                R, Q = scipy.linalg.rsf2csf(R, Q)
            R, Z = R.astype(complex, copy=False), (Q + 1j * Q[::-1]) / math.sqrt(2.0)
        else:
            R, Z = scipy.linalg.schur(T, output="complex")
        R.flags.writeable = Z.flags.writeable = False
        _factors = [T.copy(), _norm2(T), R, Z, None, None]
    return _factors[1:4]


def _partition(eigvals: np.ndarray, gap: float) -> tuple:
    """(clusters, each eigenvalue's cluster label, each cluster's geometry) at
    ``gap``, held with the factorization while gap and eigvals bytes repeat."""
    key = (gap, eigvals.dtype.str, eigvals.tobytes())
    if _factors[5] is None or _factors[5][0] != key:
        clusters = _cluster_eigenvalues(eigvals, gap)
        label = np.empty(eigvals.size, dtype=int)
        if clusters:  # an empty matrix has none
            label[np.concatenate(clusters)] = np.repeat(
                np.arange(len(clusters)), [c.size for c in clusters])
        geometry = list(zip(*_cluster_geometry(eigvals, clusters)))
        _factors[5] = (key, clusters, label, geometry)
    return _factors[5][1:]


def _classified_roots(T, J, tol: float = 1e-8,
                      cluster_gap: float | None = None,
                      points: Sequence[complex] | None = None,
                      eigvals: np.ndarray | None = None,
                      query: complex | None = None,
                      failures: list | None = None) -> list:
    """(entry, root basis) pairs of ``classify_spectrum``, in its order.

    A ``query`` point must lie on the spectrum, and selects its cluster.
    With a ``failures`` list, a cluster that raises ContourError or
    NumericalError is appended to it and skipped instead.  A non-finite
    ``query`` or ``points`` entry, an ``eigvals`` that is not a finite
    array of shape (n,), and a negative or non-finite ``tol`` or
    ``cluster_gap`` are ValidationErrors.
    """
    T = np.asarray(T, dtype=complex)
    Jm = np.asarray(_as_matrix(J), dtype=complex)
    if T.shape != Jm.shape or T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError(f"incompatible shapes T {T.shape}, J {Jm.shape}")
    _require_finite(T=T, J=Jm, query=query, points=points)
    _require_tolerances(tol=tol, cluster_gap=cluster_gap)
    if eigvals is not None:
        eigvals = np.asarray(eigvals)
        if eigvals.shape != T.shape[:1]:
            raise ValidationError(f"eigvals must have shape ({T.shape[0]},), "
                                  f"got {eigvals.shape}")
        _require_finite(eigvals=eigvals)
    scale, R, Z = _factorization(T)
    if cluster_gap is None:
        cluster_gap = 1e-8 * max(1.0, scale)

    if query is not None:
        # accept anything within the clustering resolution: a cluster mean
        # of a numerically split multiple eigenvalue is a legitimate query.
        # sigma_min(T - lambda I) <= min |R_ii - lambda|, so the SVD is only
        # needed when the Schur diagonal is too far to decide
        accept = max(tol * max(1.0, scale), cluster_gap)
        if np.min(np.abs(np.diag(R) - query)) > accept:
            smin = np.linalg.svd(T - query * np.eye(T.shape[0]), compute_uv=False)[-1]
            if smin > accept:
                raise ValidationError(
                    f"{query} is not within tolerance of the spectrum: "
                    f"sigma_min(T - lambda I) = {smin:.3e}")
        points = [query]

    # clusters come from np.linalg.eigvals, as they always have: the Schur
    # diagonal splits a defective eigenvalue by another rounding amount and
    # would change which Jordan pairs the default gap keeps whole
    if eigvals is None:  # held with the factorization
        if _factors[4] is None:
            _factors[4] = np.linalg.eigvals(T)
        eigvals = _factors[4]
    clusters, label, geometry = _partition(eigvals, cluster_gap)
    chosen = range(len(clusters)) if points is None else sorted(
        {int(label[d == d.min()].min())  # first cluster on a tie
         for d in (np.abs(eigvals - p) for p in points)})

    roots = []
    for i in chosen:
        try:
            roots.append(_root_entry(R, Z, Jm, clusters[i], *geometry[i], scale, tol))
        except (ContourError, NumericalError) as exc:
            if failures is None:
                raise
            failures.append(exc)
    roots.sort(key=lambda root: _position(root[0]))
    return roots


def classify_spectrum(T, J, tol: float = 1e-8,
                      cluster_gap: float | None = None,
                      points: Sequence[complex] | None = None,
                      eigvals: np.ndarray | None = None) -> ClassifiedSpectrum:
    """Classify every eigenvalue cluster of T (or just those near ``points``).

    All clusters share one Schur form.  Entries are sorted by (Re, Im) of
    the cluster representative.
    """
    roots = _classified_roots(T, J, tol=tol, cluster_gap=cluster_gap,
                              points=points, eigvals=eigvals)
    return ClassifiedSpectrum(tuple(entry for entry, _ in roots))


# ---------------------------------------------------------------------------
# Theta operator for oblique resolutions of identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThetaCertificate:
    n_projections: int
    min_eig: float
    commutation_residual: float
    lower_bound: float
    bound_satisfied: bool


def theta_operator(projections: Iterable[np.ndarray],
                   tol: float = 1e-10) -> tuple[np.ndarray, ThetaCertificate]:
    """Theta = sum_k P_k* P_k for a resolution of identity by projections.

    Validates that the family is mutually annihilating and complete, then
    returns Theta with a certificate: Theta is Hermitian positive definite
    with smallest eigenvalue at least 1/n (Cauchy-Schwarz on the splitting
    f = sum_k P_k f), and Theta P_j = P_j* Theta for every member.
    """
    _require_tolerances(tol=tol)
    Ps = [np.asarray(P, dtype=complex) for P in projections]
    if not Ps:
        raise ValidationError("projection family is empty")
    _require_finite(**{f"projection {i}": P for i, P in enumerate(Ps)})
    n_dim = Ps[0].shape[0]
    for P in Ps:
        if P.shape != (n_dim, n_dim):
            raise ValidationError("projections must share one square shape")
    norms = [max(1.0, _norm2(P)) for P in Ps]
    for i, Pi in enumerate(Ps):
        for j, Pj in enumerate(Ps):
            prod = Pi @ Pj
            want = Pi if i == j else 0.0
            if _norm2(prod - want) > tol * norms[i] * norms[j]:
                raise ValidationError(
                    f"family fails P_{i} P_{j} = {'P_' + str(i) if i == j else '0'}")
    if _norm2(sum(Ps) - np.eye(n_dim)) > tol * max(norms) * len(Ps):
        raise ValidationError("projections do not sum to the identity")

    theta = sum(P.conj().T @ P for P in Ps)
    theta = 0.5 * (theta + theta.conj().T)
    min_eig = float(scipy.linalg.eigh(theta, eigvals_only=True)[0])
    comm = max(_norm2(theta @ P - P.conj().T @ theta) for P in Ps)
    n = len(Ps)
    cert = ThetaCertificate(n_projections=n, min_eig=min_eig,
                            commutation_residual=comm,
                            lower_bound=1.0 / n,
                            bound_satisfied=min_eig >= 1.0 / n - tol)
    return theta, cert


# ---------------------------------------------------------------------------
# Uniform definiteness constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DefinitenessCertificate:
    """Best constants in the uniform definiteness and cross-coupling bounds.

    kappa_plus  = min of (Jf, f)/||f||^2 over the plus subspace,
    kappa_minus = min of -(Jf, f)/||f||^2 over the minus subspace,
    kappa_cross = smallest c with |(Jf, g)| <= c ||f|| ||g|| across them.
    Empty subspaces give vacuous constants (+inf / 0).
    """

    kappa_plus: float
    kappa_minus: float
    kappa_cross: float
    cross_condition_met: bool
    dim_plus: int
    dim_minus: int


def _pencil_min(A: np.ndarray, M: np.ndarray, name: str) -> float:
    """Smallest eigenvalue of the Hermitian pencil (A, M) of the basis
    ``name``, M its Gram matrix: LAPACK zhegvd with the arguments
    ``scipy.linalg.eigh(A, M, eigvals_only=True)`` passes it (itype 1,
    uplo "L", no vectors), called directly.  A Gram matrix that overflows
    or is not numerically positive definite is a ValidationError."""
    A = 0.5 * (A + A.conj().T)
    M = 0.5 * (M + M.conj().T)
    if not (np.isfinite(A).all() and np.isfinite(M).all()):
        raise ValidationError(f"the Gram matrices of {name} overflow")
    w, _, info = scipy.linalg.lapack.zhegvd(A, M, uplo="L", jobz="N")
    if info:
        n = M.shape[0]
        raise ValidationError(
            f"the Gram matrix of {name} is not numerically positive definite "
            f"(leading minor of order {info - n})" if info > n else
            f"the pencil of {name} did not converge (zhegvd info {info})")
    return float(w[0])


def definiteness_constants(J, basis_plus: np.ndarray, basis_minus: np.ndarray,
                           tol: float = 1e-10) -> DefinitenessCertificate:
    """Compute the uniform definiteness constants for two spanning bases.

    Bases need not be orthonormal; the constants come from generalized
    Hermitian pencils against the plain Gram matrices, so they are exact
    subspace quantities, not per-column ones.
    """
    _require_tolerances(tol=tol)
    Jm = np.asarray(_as_matrix(J), dtype=complex)
    _require_finite(J=Jm)
    n = Jm.shape[0]

    def prep(B, name):
        B = np.asarray(B, dtype=complex)
        if B.size == 0:
            return np.zeros((n, 0), dtype=complex)
        _require_finite(**{name: B})
        if B.ndim != 2 or B.shape[0] != n:
            raise ValidationError(f"{name} must have shape ({n}, k), got {B.shape}")
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            raise ValidationError(f"{name} is rank deficient")
        return B

    Bp = prep(basis_plus, "basis_plus")
    Bm = prep(basis_minus, "basis_minus")

    with np.errstate(over="ignore", invalid="ignore"):  # _pencil_min refuses it
        kp = (_pencil_min(Bp.conj().T @ Jm @ Bp, Bp.conj().T @ Bp, "basis_plus")
              if Bp.shape[1] else math.inf)
        km = (_pencil_min(-(Bm.conj().T @ Jm @ Bm), Bm.conj().T @ Bm, "basis_minus")
              if Bm.shape[1] else math.inf)
    if Bp.shape[1] and kp <= tol:
        raise ValidationError(f"plus subspace is not uniformly positive (kappa = {kp:.3e})")
    if Bm.shape[1] and km <= tol:
        raise ValidationError(f"minus subspace is not uniformly negative (kappa = {-km:.3e})")

    if Bp.shape[1] and Bm.shape[1]:
        Qp = np.linalg.qr(Bp)[0]
        Qm = np.linalg.qr(Bm)[0]
        kc = float(np.linalg.norm(Qp.conj().T @ Jm @ Qm, 2))
    else:
        kc = 0.0

    met = kc * kc < kp * km
    return DefinitenessCertificate(kappa_plus=kp, kappa_minus=km, kappa_cross=kc,
                                   cross_condition_met=met,
                                   dim_plus=Bp.shape[1], dim_minus=Bm.shape[1])
