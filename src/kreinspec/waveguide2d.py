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
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Callable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import svdvals
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from .errors import NumericalError, ValidationError
from .krein import Involution, validate_involution
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
        if self.a <= 0 or not math.isfinite(self.a):
            raise ValidationError(f"half-width a must be positive, got {self.a}")
        if self.Lx <= 0 or not math.isfinite(self.Lx):
            raise ValidationError(f"half-length Lx must be positive, got {self.Lx}")
        if self.nx < 8 or self.ny < 8:
            raise ValidationError(
                f"need nx, ny >= 8, got nx = {self.nx}, ny = {self.ny}")
        XBoundary(self.x_boundary)
        if self.nx * self.ny > DIM_CAP:
            raise ValidationError(
                f"grid has {self.nx * self.ny} nodes, over the cap {DIM_CAP}")
        for name, h in (("hx", self.hx), ("hy", self.hy)):
            if not (0.0 < h * h < math.inf and 2.0 / (h * h) < math.inf):
                raise ValidationError(
                    f"grid step {name} = {h:g} leaves 2/h^2 out of range")

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


def _x_second_difference(grid: GridSpec) -> scipy.sparse.spmatrix:
    nx, hx = grid.nx, grid.hx
    main = np.full(nx, 2.0) / hx**2
    off = np.full(nx - 1, -1.0) / hx**2
    D = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    if XBoundary(grid.x_boundary) is XBoundary.PERIODIC:
        D[0, nx - 1] = -1.0 / hx**2
        D[nx - 1, 0] = -1.0 / hx**2
    return D.tocsr()


def assemble_waveguide(grid: GridSpec, alpha: Callable[[float], complex],
                       V: Callable[[float, float], complex]) -> WaveguideOperator:
    """Assemble H = -Laplace + V with Robin walls at y = +-a.

    The top wall carries alpha(x), the bottom wall conj(alpha(x)); both
    enter through the ghost-node closure of the 1D transversal stencil,
    so for wall-conjugation-symmetric V the assembled matrix satisfies
    J H* J = H exactly (J the y-reversal permutation).
    """
    grid.validate()
    x, y = grid.x_nodes(), grid.y_nodes()

    def sample(name, f, *axes):
        try:
            s = np.array([complex(f(*map(float, pt))) for pt in product(*axes)])
        except ArithmeticError:
            s = None
        if s is None or not np.all(np.isfinite(s.view(float))):
            raise ValidationError(f"{name} must be bounded on the grid")
        return s

    alpha_samples = sample("alpha(x)", alpha, x)
    V_samples = sample("V(x, y)", V, x, y).reshape(grid.nx, grid.ny)

    Dx = _x_second_difference(grid)
    blocks = [robin_fd(grid.a, al, grid.ny, sparse=True)[0]
              for al in alpha_samples]
    H = (scipy.sparse.kron(Dx, scipy.sparse.identity(grid.ny), format="csr")
         + scipy.sparse.block_diag(blocks, format="csr")
         + scipy.sparse.diags(V_samples.ravel()))

    flip = scipy.sparse.csr_matrix(
        (np.ones(grid.ny), (np.arange(grid.ny), np.arange(grid.ny)[::-1])),
        shape=(grid.ny, grid.ny))
    Jm = scipy.sparse.kron(scipy.sparse.identity(grid.nx), flip, format="csr")
    return WaveguideOperator(grid=grid, H=H.tocsr(), J=validate_involution(Jm),
                             alpha_samples=alpha_samples, V_samples=V_samples)


# ---------------------------------------------------------------------------
# Eigenvalues near a target
# ---------------------------------------------------------------------------

def _operator_scale(H) -> float:
    absH = abs(H)
    one = absH.sum(axis=0).max()
    inf = absH.sum(axis=1).max()
    return float(math.sqrt(float(one) * float(inf)))


def _kronecker_factors(op: WaveguideOperator):
    """(mu, T_y) if op.H == kron(Dx, I) + kron(I, T_y) on a Dirichlet grid.

    None otherwise; mu are the eigenvalues of Dx (its eigenvectors are
    the sine vectors), and the rebuilt sum is compared with op.H itself.
    """
    g, al, V = op.grid, op.alpha_samples, op.V_samples
    if (XBoundary(g.x_boundary) is not XBoundary.DIRICHLET
            or al.shape != (g.nx,) or V.shape != (g.nx, g.ny)
            or op.H.shape != (V.size, V.size)
            or np.any(al != al[0]) or np.any(V != V[0])):
        return None
    sp, I = scipy.sparse, scipy.sparse.identity
    T_y = robin_fd(g.a, al[0], g.ny, sparse=True)[0] + sp.diags(V[0])
    K = sp.kron(_x_second_difference(g), I(g.ny)) + sp.kron(I(g.nx), T_y)
    if abs(K - op.H).max() > 4 * np.finfo(float).eps * abs(op.H).max():
        return None
    j = np.arange(1, g.nx + 1)
    return (2 - 2 * np.cos(j * math.pi / (g.nx + 1))) / g.hx**2, T_y.toarray()


def _residuals(H, scale, vals, vecs):
    out = []
    for lam, v in zip(vals, vecs.T):
        r = np.linalg.norm(H @ v - lam * v) / (scale * np.linalg.norm(v))
        out.append((complex(lam), float(r)))
    return out


def eigs_near(op: WaveguideOperator, target: complex, k: int,
              tol: float = 1e-8, dense_cutoff: int = 600) -> list:
    """The k eigenpairs nearest ``target`` as (eigenvalue, relative residual).

    A separable Dirichlet strip, H = Dx (x) I + I (x) T_y, is solved on
    the ny-by-ny factor T_y: the sums mu_j + nu_k nearest the target, with
    eigenvectors sine_j (x) w_k and residuals taken against H. Otherwise,
    or if such a pair misses tol: shift-invert Arnoldi with perturbed-shift
    retries (the target may sit on an eigenvalue), falling back to dense
    solves for small problems; every returned pair has relative residual
    <= tol or the call raises.
    """
    H = op.H.tocsc()
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= {n} eigenvalues, got {k}")
    scale = _operator_scale(H)
    target = complex(target)

    pairs = None
    iterative = k < n - 1 and n > dense_cutoff
    factors = _kronecker_factors(op) if iterative else None
    if factors is not None:
        mu, T_y = factors
        nu, W = np.linalg.eig(T_y)
        sums = np.add.outer(mu, nu)
        nearest = np.argsort(np.abs(sums - target), axis=None)[:k]
        j, m = np.unravel_index(nearest, sums.shape)
        nx = len(mu)
        S = np.sin(np.outer(np.arange(1, nx + 1), j + 1) * math.pi / (nx + 1))
        vecs = (S / np.linalg.norm(S, axis=0))[:, None, :] * W[None, :, m]
        pairs = _residuals(H, scale, sums[j, m], vecs.reshape(n, k))
        if any(not r <= tol for _, r in pairs):
            pairs = None
    if pairs is None and iterative:
        shift = target
        for attempt in range(4):
            try:
                vals, vecs = scipy.sparse.linalg.eigs(
                    H, k=k, sigma=shift, which="LM", tol=1e-12,
                    maxiter=5000, v0=np.ones(n) / math.sqrt(n))
                pairs = _residuals(H, scale, vals, vecs)
                if all(r <= tol for _, r in pairs):
                    break
                pairs = None
            except (RuntimeError, ArpackError, ArpackNoConvergence):
                pass
            shift = target + (attempt + 1) * (1e-6 + 1e-6j) * max(scale, 1.0)
    if pairs is None:
        if n > 4000:
            raise NumericalError(
                f"shift-invert did not converge near {target} and the "
                f"problem (n = {n}) is too large for a dense fallback")
        vals, vecs = np.linalg.eig(H.toarray())
        order = np.argsort(np.abs(vals - target))[:k]
        pairs = _residuals(H, scale, vals[order], vecs[:, order])

    pairs.sort(key=lambda p: abs(p[0] - target))
    bad = [r for _, r in pairs if not r <= tol]
    if bad:
        raise NumericalError(
            f"eigenpair residuals up to {max(bad):.2e} exceed {tol}")
    return pairs


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
    re0, re1, im0, im1 = (float(t) for t in rect)
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise ValidationError(f"rectangle must be finite, got {rect}")
    if re0 > re1 or im0 > im1:
        raise ValidationError(f"rectangle {rect} is empty")
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
    return PseudospectrumMap(rect=(re0, re1, im0, im1), lambdas=lambdas,
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
                   im_band: Sequence[float] = (1e-3, 0.5),
                   min_samples: int = 8) -> ImagBoundFit:
    """Fit log|Im lambda| = log M + (1/m) log sigma_min over a window.

    Samples are the map nodes with Re lambda in ``window``, |Im lambda|
    inside ``im_band``, and a positive unflagged sigma_min.
    """
    lo, hi = (float(t) for t in window)
    blo, bhi = (float(t) for t in im_band)
    if not (lo < hi and 0 < blo < bhi):
        raise ValidationError("window and band must be nondegenerate")
    lam = pmap.lambdas
    sel = ((lam.real >= lo) & (lam.real <= hi)
           & (np.abs(lam.imag) >= blo) & (np.abs(lam.imag) <= bhi)
           & (~pmap.flagged) & (pmap.sigmas > 0))
    if int(sel.sum()) < min_samples:
        raise ValidationError(
            f"only {int(sel.sum())} usable samples in the window/band, "
            f"need {min_samples}")
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
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
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
