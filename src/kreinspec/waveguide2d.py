"""Finite-difference model of the 2D Robin strip and its pseudospectra.

The operator is -Laplace + V on a truncated strip [-Lx, Lx] x [-a, a]
with the complex Robin coupling alpha(x) on the top wall and its
conjugate on the bottom wall.  The y direction uses the same weighted
ghost-node closure as the 1D transversal operator, which makes the
discrete matrix J-self-adjoint to the last bit (J = y-flip) whenever the
sampled data has the wall-conjugation symmetry V(x, y) = conj(V(x, -y)).
On top of the assembled matrix the module provides eigenvalue extraction
(shift-invert, or for a separable Dirichlet strip the Kronecker sum of
the transversal factor's eigenpairs with sine vectors, residuals
certified against H), sigma_min maps (dense SVD, or Lanczos on the
inverse Gram matrix through a sparse LU), the log-log fit of |Im lambda|
against sigma_min, and a realness report for eigenvalues in a spectral
window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import svdvals
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from .errors import NumericalError, ValidationError
from .krein import (_CHUNK, Involution, _require_counts, _require_finite,
                    _require_grid_step, _require_positive, _require_tolerances)
from .transversal import robin_fd

__all__ = [
    "XBoundary",
    "GridSpec",
    "WaveguideOperator",
    "PseudospectrumMap",
    "ImagBoundFit",
    "RealnessReport",
    "assemble_waveguide",
    "eigs_near",
    "pseudospectrum_map",
    "imag_bound_fit",
    "realness_report",
]

DIM_CAP = 400_000
_DENSE_EIGS = 600  # eigs_near solves up to this many unknowns densely only


class XBoundary(str, Enum):
    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class GridSpec:
    """Truncated-strip grid; the y nodes are exactly flip-symmetric."""

    a: float
    Lx: float
    nx: int
    ny: int
    x_boundary: XBoundary = XBoundary.DIRICHLET

    def validate(self) -> None:
        _require_positive(a=self.a, Lx=self.Lx)
        _require_counts(nx=self.nx, ny=self.ny)
        if self.nx < 8 or self.ny < 8:
            raise ValidationError(
                f"need nx, ny >= 8, got nx = {self.nx}, ny = {self.ny}")
        if self.x_boundary not in tuple(XBoundary):
            raise ValidationError(f"unknown x boundary {self.x_boundary!r}")
        if self.nx * self.ny > DIM_CAP:
            raise ValidationError(
                f"grid has {self.nx * self.ny} nodes, over the cap {DIM_CAP}")
        _require_grid_step(hx=self.hx, hy=self.hy)

    @property
    def hy(self) -> float:
        return 2.0 * self.a / (self.ny - 1)

    @property
    def hx(self) -> float:
        if XBoundary(self.x_boundary) is XBoundary.DIRICHLET:
            return 2.0 * self.Lx / (self.nx + 1)
        return 2.0 * self.Lx / self.nx

    def y_nodes(self) -> np.ndarray:
        # (j - (ny-1)/2) * hy negates exactly under j -> ny-1-j
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.hy

    def x_nodes(self) -> np.ndarray:
        if XBoundary(self.x_boundary) is XBoundary.DIRICHLET:
            return -self.Lx + self.hx * np.arange(1, self.nx + 1)
        return -self.Lx + self.hx * np.arange(self.nx)


@dataclass(frozen=True, eq=False)
class WaveguideOperator:
    """Assembled strip operator, x-major (y-fast) node ordering."""

    grid: GridSpec
    H: scipy.sparse.spmatrix
    J: Involution
    alpha_samples: np.ndarray
    V_samples: np.ndarray

    @property
    def dim(self) -> int:
        return self.H.shape[0]


def assemble_waveguide(grid: GridSpec, alpha: Callable[[float], complex],
                       V: Callable[[float, float], complex]) -> WaveguideOperator:
    """Assemble H = -Laplace + V with Robin walls at y = +-a.

    The top wall carries alpha(x), the bottom wall conj(alpha(x)); both
    enter through the ghost-node closure of the 1D transversal stencil,
    so for wall-conjugation-symmetric V the assembled matrix satisfies
    J H* J = H exactly (J the y-reversal permutation).

    Row (i, r) of H fills five slots: x neighbour (i-1, r), the stencil
    (i, r-1..r+1) of column i's sparse ``robin_fd`` T_i with (2/hx^2 +
    T_i[r, r]) + V[i, r] in the middle, and x neighbour (i+1, r), in column
    order (a periodic grid's wrapped ones moved). scipy's in-place
    ``eliminate_zeros`` drops the padding and exact-zero sums, so H equals
    (kron(Dx, I) + blockdiag(T_i)) + diags(V) bit for bit. J is built and
    checked as an involution on its index arrays.
    """
    grid.validate()
    x, y = grid.x_nodes().tolist(), grid.y_nodes().tolist()

    def sample(name, f, *axes):
        try:
            s = np.fromiter((complex(f(*pt)) for pt in product(*axes)), complex,
                            count=math.prod(map(len, axes)))
        except ArithmeticError:
            s = None
        if s is None or not np.all(np.isfinite(s.view(float))):
            raise ValidationError(f"{name} must be bounded on the grid")
        return s

    alpha_samples = sample("alpha(x)", alpha, x)
    V_samples = sample("V(x, y)", V, x, y).reshape(grid.nx, grid.ny)

    nx, ny, n = grid.nx, grid.ny, grid.nx * grid.ny
    node = np.arange(n, dtype=np.int32).reshape(nx, ny)
    vals = np.zeros((nx, ny, 5), dtype=complex)
    cols = np.empty((nx, ny, 5), dtype=np.int32)
    vals[..., 0] = vals[..., 4] = -1.0 / grid.hx**2
    if XBoundary(grid.x_boundary) is XBoundary.DIRICHLET:
        vals[0, :, 0] = vals[-1, :, 4] = 0.0
    # a neighbour is node rolled by one x block or y node: padding stays in range
    cols[..., 0], cols[..., 4] = np.roll(node, 1, axis=0), np.roll(node, -1, axis=0)
    cols[..., 1], cols[..., 2], cols[..., 3] = np.roll(node, 1), node, np.roll(node, -1)
    for i, al in enumerate(alpha_samples):
        T = robin_fd(grid.a, al, ny, sparse=True)[0]
        vals[i, :, 2] = T.diagonal()
    vals[..., 2] = (vals[..., 2] + 2.0 / grid.hx**2) + V_samples
    # T_i's off-diagonals do not depend on alpha: the last T_i's serve all
    vals[:, 1:, 1], vals[:, :-1, 3] = T.diagonal(-1), T.diagonal(1)
    if XBoundary(grid.x_boundary) is XBoundary.PERIODIC:  # rows in column order:
        for arr in (vals, cols):  # block 0's wrapped neighbour last, nx-1's first
            arr[0], arr[-1] = np.roll(arr[0], -1, axis=-1), np.roll(arr[-1], 1, axis=-1)
    indptr = np.arange(0, 5 * n + 1, 5, dtype=np.int32)
    H = scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n, n))
    H.eliminate_zeros()

    # a 0/1 permutation is symmetric iff it is an involution: exact, default tol
    flip = node[:, ::-1].ravel()
    if not np.array_equal(flip[flip], node.ravel()):
        raise ValidationError("the y-flip is not an involution")
    Jm = scipy.sparse.csr_matrix(
        (np.ones(n), flip, np.arange(n + 1, dtype=np.int32)), shape=(n, n))
    return WaveguideOperator(grid=grid, H=H, J=Involution(Jm, tol=1e-10),
                             alpha_samples=alpha_samples, V_samples=V_samples)


# ---------------------------------------------------------------------------
# Eigenvalues near a target
# ---------------------------------------------------------------------------

def _operator_scale(H) -> float:
    """sqrt(||H||_1 ||H||_inf) from |H.data|, H in CSR, a chunk of rows at a
    time: scipy's column sums (in storage order) and row sums, bit for bit."""
    one, inf = np.zeros(H.shape[1]), 0.0
    # an overflowing stencil reads inf or NaN here; the residual gates reject it
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, H.shape[0], _CHUNK // 5):
            ptr = H.indptr[r0:r0 + _CHUNK // 5 + 1]
            h = np.abs(H.data[ptr[0]:ptr[-1]])
            np.add.at(one, H.indices[ptr[0]:ptr[-1]], h)
            stored = np.flatnonzero(np.diff(ptr))  # an empty row sums to 0
            inf = np.max(np.add.reduceat(h, ptr[stored] - ptr[0]), initial=inf)
    return float(math.sqrt(float(one.max()) * float(inf)))


def _kronecker_factors(op: WaveguideOperator):
    """(mu, T_y) if op.H == kron(Dx, I) + kron(I, T_y) on a Dirichlet grid.

    None otherwise; mu are the eigenvalues of Dx (its eigenvectors are
    the sine vectors). The rule is max|K - H| <= 4 eps max|H| over both
    patterns, K = Dx (x) I + I (x) T_y, applied without building K: K's
    value at each stored entry of H comes from Dx's two values and T_y's
    band, a chunk of entries at a time, and a K entry H leaves out shows
    as a value class (a band position of T_y, or the x neighbours) of
    which H stores fewer entries than K has. An H with duplicate entries
    is refused; one not in CSR is converted.
    """
    g, al, V = op.grid, op.alpha_samples, op.V_samples
    if (XBoundary(g.x_boundary) is not XBoundary.DIRICHLET
            or al.shape != (g.nx,) or V.shape != (g.nx, g.ny)
            or op.H.shape != (V.size, V.size)
            or np.any(al != al[0]) or np.any(V != V[0])):
        return None
    H = op.H.tocsr()
    if not H.has_canonical_format:
        return None
    nx, ny = g.nx, g.ny
    T_y = (robin_fd(g.a, al[0], ny, sparse=True)[0]
           + scipy.sparse.diags(V[0])).toarray()
    # K's values by class: band position (r, r + b - 1) of an x block, an
    # x neighbour, and last every position K does not store
    kval = np.zeros(3 * ny + 2, dtype=complex)
    band = kval[:3 * ny].reshape(ny, 3)
    band[1:, 0], band[:-1, 2] = np.diagonal(T_y, -1), np.diagonal(T_y, 1)
    band[:, 1] = 2.0 / g.hx**2 + np.diagonal(T_y)
    kval[3 * ny] = -1.0 / g.hx**2
    size = np.r_[np.full(3 * ny, nx), 2 * (nx - 1) * ny, 0]
    seen = np.zeros(3 * ny + 2, dtype=np.int64)
    dev, top = [0.0], [0.0]
    step = _CHUNK // 5
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, H.shape[0], step):
            ptr = H.indptr[r0:r0 + step + 1]
            row = np.repeat(np.arange(r0, r0 + len(ptr) - 1, dtype=np.int32),
                            np.diff(ptr))
            bi, r = np.divmod(row, ny)
            bj, s = np.divmod(H.indices[ptr[0]:ptr[-1]], ny)
            b = s - r + 1
            cls = np.where((bi == bj) & (b >= 0) & (b <= 2), 3 * r + b,
                           np.where((abs(bj - bi) == 1) & (b == 1),
                                    3 * ny, 3 * ny + 1))
            h = H.data[ptr[0]:ptr[-1]]
            dev.append(np.max(np.abs(kval[cls] - h), initial=0.0))
            top.append(np.max(np.abs(h), initial=0.0))
            seen += np.bincount(cls, minlength=3 * ny + 2)
        dev.extend(np.abs(kval[seen < size]))
    if np.max(dev) > 4 * np.finfo(float).eps * np.max(top):
        return None
    j = np.arange(1, g.nx + 1)
    return (2 - 2 * np.cos(j * math.pi / (g.nx + 1))) / g.hx**2, T_y


def _residuals(H, scale, vals, vecs):
    """(eigenvalue, relative residual) pairs for an iterable of eigenvectors;
    NaN where they overflow, which every ``not r <= tol`` gate rejects."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, v in zip(vals, vecs):
            r = np.linalg.norm(H @ v - lam * v) / (scale * np.linalg.norm(v))
            out.append((complex(lam), float(r)))
    return out


def eigs_near(op: WaveguideOperator, target: complex, k: int,
              tol: float = 1e-8) -> list:
    """The k eigenpairs nearest ``target`` as (eigenvalue, relative residual).

    Candidate solvers run in order until every pair of one meets ``tol``;
    the iterative ones only for k < n - 1 and more than _DENSE_EIGS
    unknowns. First a separable Dirichlet strip, H = Dx (x) I + I (x) T_y,
    is solved on the ny-by-ny factor T_y: the sums mu_j + nu_k nearest the
    target, with eigenvectors sine_j (x) w_k. Then shift-invert Arnoldi at
    the target and three perturbed shifts (the target may sit on an
    eigenvalue). Last a dense solve, refused above 4000 unknowns.
    Residuals are taken against H; if no candidate passes the call raises.
    H is read as stored: its scale, the separability check and the
    residuals make no nnz-sized copy of it, and only shift-invert converts
    it to CSC. The separable route makes one eigenvector at a time.
    """
    H = op.H
    n = H.shape[0]
    target = complex(target)
    _require_counts(k=k)
    _require_finite(target=target)
    _require_positive(tol=tol)
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= {n} eigenvalues, got {k}")
    scale = _operator_scale(H.tocsr())

    def candidates():
        if k < n - 1 and n > _DENSE_EIGS:
            factors = _kronecker_factors(op)
            if factors is not None:
                mu, T_y = factors
                nu, W = np.linalg.eig(T_y)
                sums = np.add.outer(mu, nu)
                nearest = np.argsort(np.abs(sums - target), axis=None)[:k]
                j, m = np.unravel_index(nearest, sums.shape)
                nx = len(mu)
                S = np.sin(np.outer(np.arange(1, nx + 1), j + 1) * math.pi / (nx + 1))
                S /= np.linalg.norm(S, axis=0)
                # one eigenvector sine_j (x) w_m at a time
                vecs = (np.outer(S[:, c], W[:, mc]).ravel() for c, mc in enumerate(m))
                yield _residuals(H, scale, sums[j, m], vecs)
            Hc = H.tocsc()  # the LU behind shift-invert wants CSC
            for i in range(4):
                shift = target + i * (1e-6 + 1e-6j) * max(scale, 1.0) if i else target
                try:
                    vals, vecs = scipy.sparse.linalg.eigs(
                        Hc, k=k, sigma=shift, which="LM", tol=1e-12,
                        maxiter=5000, v0=np.ones(n) / math.sqrt(n))
                except (RuntimeError, ArpackError, ArpackNoConvergence):
                    continue
                yield _residuals(H, scale, vals, vecs.T)
        if n > 4000:
            raise NumericalError(
                f"shift-invert did not converge near {target} and the "
                f"problem (n = {n}) is too large for a dense fallback")
        vals, vecs = np.linalg.eig(H.toarray())
        order = np.argsort(np.abs(vals - target))[:k]
        yield _residuals(H, scale, vals[order], vecs[:, order].T)

    for pairs in candidates():
        pairs.sort(key=lambda p: abs(p[0] - target))
        bad = [r for _, r in pairs if not r <= tol]
        if not bad:
            return pairs
    raise NumericalError(f"eigenpair residuals up to {max(bad):.2e} exceed {tol}")


# ---------------------------------------------------------------------------
# Pseudospectrum maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PseudospectrumMap:
    """sigma_min(H - lambda) sampled on a rectangle grid.

    ``lambdas``, ``sigmas`` and ``flagged`` are (my, mx) arrays; every
    unflagged sigma is converged. Flagged nodes hit an exactly singular
    factorization (lambda is an eigenvalue) and carry sigma_min = 0.
    """

    rect: tuple
    lambdas: np.ndarray
    sigmas: np.ndarray
    flagged: np.ndarray


def _sigma_min_sparse(lu, n: int, lam: complex) -> float:
    # Lanczos (ARPACK) on inv(M) inv(M)^H, whose top eigenvalue is
    # 1/sigma_min^2 (Wright & Trefethen 2001). The seeded, asymmetric start
    # reaches odd singular vectors of the x-reversal-symmetric strip and
    # keeps reruns byte-identical.
    rng = np.random.default_rng(1234)
    v0 = np.ones(n, dtype=complex) + 1e-3 * rng.standard_normal(n)
    inv_gram = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(lu.solve(x, trans="H")),
        dtype=complex)
    try:
        theta = scipy.sparse.linalg.eigsh(inv_gram, k=1, which="LM",
                                          v0=v0, return_eigenvectors=False)
    except ArpackError as exc:  # includes ArpackNoConvergence
        raise NumericalError(
            f"Lanczos for sigma_min failed at lambda = {lam}: {exc}") from exc
    return 1.0 / math.sqrt(float(theta[0]))


def pseudospectrum_map(op: WaveguideOperator, rect: Sequence[float],
                       mx: int, my: int,
                       dense_cutoff: int = 400) -> PseudospectrumMap:
    """Sample sigma_min(H - lambda) on an mx-by-my grid over ``rect``.

    Dense SVD per node up to ``dense_cutoff`` unknowns. Beyond it each
    node takes one sparse LU of M = H - lambda, and Lanczos (ARPACK) finds
    the top eigenvalue 1/sigma_min^2 of inv(M) inv(M)^H; if Lanczos does
    not converge the call raises NumericalError. A node whose
    factorization is exactly singular is flagged (sigma_min = 0) rather
    than fatal.
    """
    re0, re1, im0, im1 = box = tuple(float(t) for t in rect)
    _require_finite(rect=box)
    if re0 > re1 or im0 > im1:
        raise ValidationError(f"rectangle {rect} is empty")
    _require_counts(mx=mx, my=my, dense_cutoff=dense_cutoff)
    if mx < 1 or my < 1:
        raise ValidationError("need at least one sample per axis")
    res = np.linspace(re0, re1, mx) if mx > 1 else np.array([0.5 * (re0 + re1)])
    ims = np.linspace(im0, im1, my) if my > 1 else np.array([0.5 * (im0 + im1)])
    lambdas = res[None, :] + 1j * ims[:, None]

    n = op.dim
    sigmas = np.zeros((my, mx))
    flagged = np.zeros((my, mx), dtype=bool)
    dense = n <= dense_cutoff
    Hd = op.H.toarray() if dense else None
    Hc = None if dense else op.H.tocsc()
    eye = scipy.sparse.identity(n, dtype=complex, format="csc")
    for iy in range(my):
        for ix in range(mx):
            lam = lambdas[iy, ix]
            if dense:
                sigmas[iy, ix] = svdvals(Hd - lam * np.eye(n))[-1]
                continue
            try:
                lu = scipy.sparse.linalg.splu(Hc - lam * eye)
            except RuntimeError:
                flagged[iy, ix] = True
                continue
            sigmas[iy, ix] = _sigma_min_sparse(lu, n, lam)
    return PseudospectrumMap(rect=box, lambdas=lambdas,
                             sigmas=sigmas, flagged=flagged)


# ---------------------------------------------------------------------------
# Fits and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImagBoundFit:
    """Least-squares law |Im lambda| = M * sigma_min^(1/m)."""

    M: float
    m: float
    exponent: float
    n_samples: int
    rms_residual: float
    window: tuple
    im_band: tuple

    def to_json_obj(self) -> dict:
        return {
            "schema": "kreinspec/imag-bound-fit-v1",
            "M": self.M, "m": self.m, "exponent": self.exponent,
            "n_samples": self.n_samples, "rms_residual": self.rms_residual,
            "window": list(self.window), "im_band": list(self.im_band),
        }


def imag_bound_fit(pmap: PseudospectrumMap, window: Sequence[float],
                   im_band: Sequence[float] = (1e-3, 0.5)) -> ImagBoundFit:
    """Fit log|Im lambda| = log M + (1/m) log sigma_min over a window.

    Samples are the map nodes with Re lambda in ``window``, |Im lambda|
    inside ``im_band``, and a positive unflagged sigma_min; at least 8.
    """
    lo, hi = (float(t) for t in window)
    blo, bhi = (float(t) for t in im_band)
    _require_positive(im_band_low=blo)  # log |Im lambda| is fitted
    if not (lo < hi and blo < bhi):
        raise ValidationError("window and band must be nondegenerate")
    lam = pmap.lambdas
    sel = ((lam.real >= lo) & (lam.real <= hi)
           & (np.abs(lam.imag) >= blo) & (np.abs(lam.imag) <= bhi)
           & (~pmap.flagged) & (pmap.sigmas > 0))
    if int(sel.sum()) < 8:
        raise ValidationError(
            f"only {int(sel.sum())} usable samples in the window/band, need 8")
    X = np.log(pmap.sigmas[sel])
    Y = np.log(np.abs(lam.imag[sel]))
    A = np.stack([np.ones_like(X), X], axis=1)
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    c0, c1 = float(coef[0]), float(coef[1])
    rms = float(np.sqrt(np.mean((A @ coef - Y) ** 2)))
    m = math.inf if c1 == 0 else 1.0 / c1
    return ImagBoundFit(M=math.exp(c0), m=m, exponent=c1,
                        n_samples=int(sel.sum()), rms_residual=rms,
                        window=(lo, hi), im_band=(blo, bhi))


@dataclass(frozen=True)
class RealnessReport:
    """Eigenvalues inside a real window, with non-real members flagged."""

    window: tuple
    tol: float
    eigenvalues: tuple
    flagged: tuple
    real_count: int

    def to_json_obj(self) -> dict:
        return {
            "schema": "kreinspec/realness-report-v1",
            "window": list(self.window), "tol": self.tol,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "flagged": [[z.real, z.imag] for z in self.flagged],
            "real_count": self.real_count,
        }


def realness_report(eigs: Sequence, window: Sequence[float],
                    tol: float) -> RealnessReport:
    """Flag non-real eigenvalues among those with Re in ``window``.

    ``eigs`` holds (eigenvalue, relative residual) pairs as produced by
    eigs_near; residuals above 1e-8 void the report and are rejected.
    """
    lo, hi = (float(t) for t in window)
    if not lo <= hi:
        raise ValidationError(f"empty window {window}")
    _require_tolerances(tol=tol)
    vals = []
    for item in eigs:
        lam, res = item
        if not res <= 1e-8:
            raise ValidationError(
                f"eigenvalue {lam} carries residual {res:.2e} > 1e-08")
        vals.append(complex(lam))
    inside = tuple(z for z in vals if lo <= z.real <= hi)
    flagged = tuple(z for z in inside if abs(z.imag) > tol)
    return RealnessReport(window=(lo, hi), tol=float(tol),
                          eigenvalues=inside, flagged=flagged,
                          real_count=len(inside) - len(flagged))
