"""Independent sigma_min(H - lambda) references for the strip workload.

Two methods that share nothing with kreinspec's power iteration:

* ``sigma_min_sine``: for a strip with constant coupling and V = 0 the
  assembled matrix is Dx (x) I + I (x) T_y with the Dirichlet second
  difference Dx, whose orthonormal sine eigenbasis splits H unitarily into
  nx blocks T_y + mu_j I, so sigma_min(H - lambda) is the minimum of
  sigma_min(T_y + (mu_j - lambda) I) over j.
* ``sigma_min_arpack``: ARPACK (Lanczos) on (M^H M)^{-1}, M = H - lambda,
  applied through the benchmark's own sparse LU factorization; the largest
  eigenvalue is 1 / sigma_min^2 (Wright & Trefethen, SISC 2001).
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Captured at import, before any tracing wraps the module attribute, so a
# reference never counts as the program's own LU work.
_SPLU = scipy.sparse.linalg.splu


class ReferenceFailure(Exception):
    """A reference could not be computed or the two methods disagree."""


def separable_blocks(H, nx: int, ny: int, hx: float) -> tuple[np.ndarray, np.ndarray]:
    """(T_y, mu) with H == Dx (x) I + I (x) T_y exactly, else ReferenceFailure.

    T_y is read off the first diagonal block of H itself; mu are the
    eigenvalues of the Dirichlet second difference Dx.
    """
    H = scipy.sparse.csr_matrix(H)
    diag, off = 2.0 / hx**2, -1.0 / hx**2
    Ty = H[:ny, :ny].toarray() - diag * np.eye(ny)
    Dx = scipy.sparse.diags([np.full(nx - 1, off), np.full(nx, diag),
                             np.full(nx - 1, off)], [-1, 0, 1])
    rebuilt = (scipy.sparse.kron(Dx, scipy.sparse.identity(ny))
               + scipy.sparse.kron(scipy.sparse.identity(nx),
                                   scipy.sparse.csr_matrix(Ty)))
    defect = abs(rebuilt - H).max()
    if defect > 1e-12 * abs(H).max():
        raise ReferenceFailure(f"operator is not separable (defect {defect:.3e})")
    mu = (2.0 - 2.0 * np.cos(np.arange(1, nx + 1) * math.pi / (nx + 1))) / hx**2
    return Ty, mu


def sigma_min_sine(Ty: np.ndarray, mu: np.ndarray, lam: complex) -> float:
    ny = Ty.shape[0]
    blocks = Ty[None, :, :] + (mu - lam)[:, None, None] * np.eye(ny)[None]
    return float(np.linalg.svd(blocks, compute_uv=False)[:, -1].min())


def sigma_min_arpack(H, lam: complex, tol: float = 1e-13) -> float:
    n = H.shape[0]
    M = (scipy.sparse.csc_matrix(H, dtype=complex)
         - lam * scipy.sparse.identity(n, dtype=complex, format="csc"))
    lu = _SPLU(M.tocsc())
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(lu.solve(x, trans="H")),
        dtype=complex)
    try:
        theta = scipy.sparse.linalg.eigsh(
            op, k=1, which="LM", tol=tol, ncv=20,
            v0=np.ones(n, dtype=complex))[0][0]
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ReferenceFailure(f"ARPACK did not converge at {lam}") from exc
    return 1.0 / math.sqrt(float(theta))
