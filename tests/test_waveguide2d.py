"""Tests for the 2D strip discretization and pseudospectrum tools."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from kreinspec import NumericalError, ValidationError, waveguide2d
from kreinspec.krein import j_self_adjoint_defect, validate_involution
from kreinspec.transversal import robin_fd, secular_roots
from kreinspec.waveguide2d import (
    GridSpec,
    ImagBoundFit,
    PseudospectrumMap,
    RealnessReport,
    WaveguideOperator,
    XBoundary,
    assemble_waveguide,
    eigs_near,
    imag_bound_fit,
    pseudospectrum_map,
    realness_report,
)

A_HALF = math.pi / 2


def free_operator(nx=24, ny=12, Lx=10.0, alpha0=0.5,
                  boundary=XBoundary.PERIODIC):
    grid = GridSpec(a=A_HALF, Lx=Lx, nx=nx, ny=ny, x_boundary=boundary)
    return assemble_waveguide(grid, lambda x: 1j * alpha0, lambda x, y: 0.0)


class TestGridSpec:
    def test_y_grid_is_exactly_flip_symmetric(self):
        for ny in (8, 9, 24, 41):
            y = GridSpec(a=1.3, Lx=5.0, nx=8, ny=ny).y_nodes()
            np.testing.assert_array_equal(y[::-1], -y)
            assert abs(y[-1] - 1.3) < 1e-14

    def test_x_nodes_dirichlet_excludes_boundary(self):
        g = GridSpec(a=1.0, Lx=2.0, nx=9, ny=8)
        x = g.x_nodes()
        assert len(x) == 9
        assert x[0] == pytest.approx(-2.0 + g.hx)
        assert x[-1] == pytest.approx(2.0 - g.hx)

    def test_x_nodes_periodic(self):
        g = GridSpec(a=1.0, Lx=2.0, nx=8, ny=8, x_boundary=XBoundary.PERIODIC)
        x = g.x_nodes()
        assert len(x) == 8
        assert x[0] == -2.0
        assert x[-1] == pytest.approx(2.0 - g.hx)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(a=0.0, Lx=1.0, nx=8, ny=8).validate()
        with pytest.raises(ValidationError):
            GridSpec(a=1.0, Lx=-1.0, nx=8, ny=8).validate()
        with pytest.raises(ValidationError):
            GridSpec(a=1.0, Lx=1e-300, nx=8, ny=8).validate()
        with pytest.raises(ValidationError):
            GridSpec(a=1.0, Lx=1.0, nx=7, ny=8).validate()
        with pytest.raises(ValidationError):
            GridSpec(a=1.0, Lx=1.0, nx=8, ny=7).validate()
        with pytest.raises(ValidationError):
            GridSpec(a=1.0, Lx=1.0, nx=1000, ny=1000).validate()
        with pytest.raises(ValidationError):
            GridSpec(a=1.0, Lx=1.0, nx=8, ny=8, x_boundary="nonsense").validate()


class TestAssembly:
    def test_separable_matches_kronecker_sum_exactly(self):
        g = GridSpec(a=A_HALF, Lx=6.0, nx=14, ny=10,
                     x_boundary=XBoundary.DIRICHLET)
        v0 = lambda x: 0.3 * x * x
        op = assemble_waveguide(g, lambda x: 0.5j, lambda x, y: v0(x))

        hx = g.hx
        main = np.full(g.nx, 2.0) / hx**2
        off = np.full(g.nx - 1, -1.0) / hx**2
        Dx = sp.diags([off, main, off], [-1, 0, 1])
        Vx = sp.diags(np.array([v0(x) for x in g.x_nodes()]))
        Ty, _ = robin_fd(A_HALF, 0.5j, g.ny, sparse=True)
        I_y, I_x = sp.identity(g.ny), sp.identity(g.nx)
        # same three-term association as the assembler
        Hk = sp.kron(Dx, I_y) + sp.kron(I_x, Ty) + sp.kron(Vx, I_y)
        assert abs(op.H - Hk.tocsr()).max() == 0.0
        # folding V into the x factor changes only the addition order
        Hfold = sp.kron(Dx + Vx, I_y) + sp.kron(I_x, Ty)
        scale = abs(op.H).max()
        assert abs(op.H - Hfold.tocsr()).max() <= 1e-14 * scale

    @pytest.mark.parametrize("boundary", list(XBoundary))
    @pytest.mark.parametrize("nx, ny", [(8, 9), (14, 17)])
    @pytest.mark.parametrize("coupling", ["constant", "bump", "zero", "endpoint"])
    def test_csr_arrays_match_diags_and_block_diag(self, boundary, nx, ny,
                                                   coupling):
        g = GridSpec(a=1.0, Lx=5.0, nx=nx, ny=ny, x_boundary=boundary)
        h = 2.0 / (ny - 1)  # a power of two, so -1/h cancels exactly
        alpha = {"constant": lambda x: 0.5j,
                 "bump": lambda x: -0.05 + 1j * (1 + 0.3 * math.exp(-x * x)),
                 "zero": lambda x: 0.0,
                 "endpoint": lambda x: -1 / h if x < 0 else 0.7j}[coupling]
        op = assemble_waveguide(g, alpha,
                                lambda x, y: 0.1 * x * x + 1j * math.sin(y))
        # the construction the stacked direct-CSR stencils replaced
        blocks = []
        for al in op.alpha_samples:
            T, _ = robin_fd(g.a, al, ny)
            blocks.append(sp.diags([np.diag(T, -1), np.diag(T), np.diag(T, 1)],
                                   [-1, 0, 1], format="csr"))
        H = (sp.kron(csr_x_second_difference(g), sp.identity(ny),
                     format="csr")
             + sp.block_diag(blocks, format="csr")
             + sp.diags(op.V_samples.ravel())).tocsr()
        assert_same_arrays(op.H, H)
        if coupling == "endpoint":
            assert min(b.nnz for b in blocks) == 3 * ny - 4

    @pytest.mark.parametrize("boundary", list(XBoundary))
    def test_x_second_difference_matches_lil_construction(self, boundary):
        g = GridSpec(a=1.0, Lx=5.0, nx=11, ny=8, x_boundary=boundary)
        nx, hx = g.nx, g.hx
        main = np.full(nx, 2.0) / hx**2
        off = np.full(nx - 1, -1.0) / hx**2
        D = sp.diags([off, main, off], [-1, 0, 1], format="lil")
        if boundary is XBoundary.PERIODIC:
            D[0, nx - 1] = -1.0 / hx**2
            D[nx - 1, 0] = -1.0 / hx**2
        assert_same_arrays(csr_x_second_difference(g), D.tocsr())

    def test_pt_defect_exactly_zero_for_constant_coupling(self):
        op = free_operator()
        assert j_self_adjoint_defect(op.H, op.J) == 0.0

    def test_pt_defect_tiny_for_symmetric_potential(self):
        g = GridSpec(a=A_HALF, Lx=5.0, nx=16, ny=12)
        # V(x, y) = x^2 + i sin(y) satisfies V(x, y) = conj(V(x, -y))
        op = assemble_waveguide(g, lambda x: 1j * (0.5 + 0.1 * math.cos(x)),
                                lambda x, y: x * x + 1j * math.sin(y))
        scale = abs(op.H).max()
        assert j_self_adjoint_defect(op.H, op.J) <= 1e-13 * scale

    def test_pt_defect_detects_broken_symmetry(self):
        g = GridSpec(a=A_HALF, Lx=5.0, nx=16, ny=12)
        op = assemble_waveguide(g, lambda x: 0.5j, lambda x, y: y)
        assert j_self_adjoint_defect(op.H, op.J) > 0.1

    def test_neumann_dirichlet_eigenvalue_sums(self):
        g = GridSpec(a=A_HALF, Lx=4.0, nx=12, ny=9)
        op = assemble_waveguide(g, lambda x: 0.0, lambda x, y: 0.0)
        hx = g.hx
        Dx = (np.diag(np.full(g.nx, 2.0)) + np.diag(np.full(g.nx - 1, -1.0), 1)
              + np.diag(np.full(g.nx - 1, -1.0), -1)) / hx**2
        Ty, _ = robin_fd(A_HALF, 0.0, g.ny)
        sums = np.sort(np.add.outer(np.linalg.eigvalsh(Dx),
                                    np.sort(np.linalg.eigvals(Ty).real)).ravel())
        got = np.sort(np.linalg.eigvals(op.H.toarray()).real)
        np.testing.assert_allclose(got, sums, atol=1e-9 * sums.max())

    def test_lowest_eigenvalue_second_order_in_h(self):
        errs = []
        for ny in (21, 41):
            op = free_operator(nx=16, ny=ny, Lx=6.0)
            lam = eigs_near(op, 0.25, 1)[0][0]
            errs.append(abs(lam - 0.25))
        assert errs[1] < 2e-3
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_unbounded_data_rejected(self):
        g = GridSpec(a=A_HALF, Lx=5.0, nx=10, ny=10)
        with pytest.raises(ValidationError):
            assemble_waveguide(g, lambda x: math.inf, lambda x, y: 0.0)
        with pytest.raises(ValidationError):
            assemble_waveguide(g, lambda x: 0.5j,
                               lambda x, y: math.nan)


# Reference kernels: Dx and H built from CSR arrays in ways the assembler
# no longer uses, for bitwise checks of its arrays.
def csr_x_second_difference(grid):
    """Dx = tridiag(-1, 2, -1) / hx^2, periodic corners included, from its
    CSR arrays."""
    nx, hx = grid.nx, grid.hx
    main, off = 2.0 / hx**2, -1.0 / hx**2
    idx = np.arange(nx + 1, dtype=np.int32)
    cols = idx[:-1, None] + idx[:3] - 1
    data = np.tile([off, main, off], (nx, 1))
    if XBoundary(grid.x_boundary) is XBoundary.PERIODIC:
        cols[0], cols[-1] = (0, 1, nx - 1), (0, nx - 2, nx - 1)
        data[0], data[-1] = (main, off, off), (off, off, main)
        return sp.csr_matrix((data.ravel(), cols.ravel(), 3 * idx), shape=(nx, nx))
    indptr = (3 * idx - 1).clip(0, 3 * nx - 2)
    return sp.csr_matrix((data.ravel()[1:-1], cols.ravel()[1:-1], indptr),
                         shape=(nx, nx))


def two_loop_assembly(grid, alpha_samples, V_samples):
    """H's CSR arrays with the stencils written in two loops: each column's
    sparse T_i scattered from its CSR arrays, then Dx[i, i] and V added
    to one run of x blocks with the same stencil slot at a time."""
    nx, ny, n = grid.nx, grid.ny, grid.nx * grid.ny
    node = np.arange(n, dtype=np.int32).reshape(nx, ny)
    Dx = csr_x_second_difference(grid)
    xrow = np.repeat(np.arange(nx), np.diff(Dx.indptr))
    slot = np.arange(Dx.nnz) - Dx.indptr[xrow] + 2 * (Dx.indices > xrow)
    vals = np.zeros((nx, ny, 5), dtype=complex)
    cols = np.zeros((nx, ny, 5), dtype=np.int32)
    nb = Dx.indices != xrow
    vals[xrow[nb], :, slot[nb]] = Dx.data[nb, None]
    cols[xrow[nb], :, slot[nb]] = Dx.indices[nb, None] * ny + node[0]
    first, xdiag = slot[~nb], Dx.data[~nb]
    for i, (f, al) in enumerate(zip(first, alpha_samples)):
        T = robin_fd(grid.a, al, ny, sparse=True)[0]
        stencil = vals[i, :, f:f + 3]
        if T.nnz == 3 * ny - 2:
            stencil.flat[1:-1] = T.data
        else:
            r = np.repeat(node[0], np.diff(T.indptr))
            stencil[r, T.indices - r + 1] = T.data
    runs = np.flatnonzero(np.diff(first)) + 1
    for i0, i1 in zip([0, *runs], [*runs, nx]):
        f = first[i0]
        stencil = vals[i0:i1, :, f:f + 3]
        stencil[..., 1] += xdiag[i0:i1, None]
        stencil[..., 1] += V_samples[i0:i1]
        stencil[..., ::2] += 0.0
        for b in range(3):
            cols[i0:i1, :, f + b] = node[i0:i1] + (b - 1)
    keep = vals != 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2).ravel(), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))


def assert_same_arrays(got, want):
    assert type(got) is type(want)
    for field in ("indptr", "indices", "data"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


_D, _P = XBoundary.DIRICHLET, XBoundary.PERIODIC
_BUMP = lambda x: -0.05 + 1j * (1 + 0.3 * math.exp(-x * x))  # noqa: E731
# name: (a, Lx, nx, ny, x boundary, alpha(x), V(x, y)); at a = 1, ny = 17
# and 129 give steps 2^-k, where alpha = -1/hy cancels both endpoint
# entries exactly
REFERENCE_GRIDS = {
    "dirichlet-constant": (A_HALF, 5.0, 8, 8, _D, lambda x: 0.5j, lambda x, y: 0.0),
    "periodic-constant": (A_HALF, 5.0, 8, 9, _P, lambda x: -0.05 + 1j,
                          lambda x, y: 0.0),
    "criterion-11": (A_HALF, 40.0, 640, 48, _D, lambda x: -0.05 + 1j,
                     lambda x, y: 0.0),
    "cancelled-endpoint": (1.0, 5.0, 14, 17, _D, lambda x: -8.0, lambda x, y: 0.0),
    "cancelled-endpoint-tall": (1.0, 5.0, 8, 129, _D, lambda x: -64.0,
                                lambda x, y: 0.0),
    "half-cancelled-periodic": (1.0, 5.0, 11, 17, _P,
                                lambda x: -8.0 if x < 0 else 0.7j,
                                lambda x, y: 0.1 * x * x + 1j * math.sin(y)),
    # -(2/hx^2 + 2/hy^2): every interior diagonal of H sums to exactly 0
    "cancelled-diagonal": (1.0, 5.0, 30, 17, _D, lambda x: 0.3j,
                           lambda x, y: -(2.0 / (10.0 / 31) ** 2 + 2.0 / 0.125**2)),
    "bump": (A_HALF, 10.0, 40, 16, _D, _BUMP, lambda x, y: 0.0),
    "bump-complex-potential": (A_HALF, 5.0, 24, 12, _P, _BUMP,
                               lambda x, y: x * x + 1j * math.sin(y)),
    "x-potential": (A_HALF, 6.0, 20, 10, _D, lambda x: 0.5j,
                    lambda x, y: 0.3 * x * x),
}


class TestAgainstCsrReferenceKernels:
    """Bitwise equality with the CSR-array constructions."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRIDS))
    def test_assembly_dx_and_kronecker_factors(self, name):
        a, Lx, nx, ny, boundary, alpha, V = REFERENCE_GRIDS[name]
        g = GridSpec(a=a, Lx=Lx, nx=nx, ny=ny, x_boundary=boundary)
        op = assemble_waveguide(g, alpha, V)
        assert_same_arrays(op.H, two_loop_assembly(g, op.alpha_samples,
                                                   op.V_samples))
        idx = np.arange(g.nx * g.ny + 1, dtype=np.int32)
        flip = idx[:-1].reshape(g.nx, g.ny)[:, ::-1].ravel()
        assert_same_arrays(op.J.matrix, sp.csr_matrix(
            (np.ones(idx.size - 1), flip, idx), shape=op.H.shape))
        if name == "cancelled-diagonal":  # only the wall rows keep one
            assert np.count_nonzero(op.H.diagonal()) == 2 * g.nx
        factors = waveguide2d._kronecker_factors(op)
        separable = (boundary is _D and np.all(op.alpha_samples == op.alpha_samples[0])
                     and np.all(op.V_samples == op.V_samples[0]))
        assert (factors is not None) == separable
        if separable:
            T_ref = (robin_fd(a, op.alpha_samples[0], ny, sparse=True)[0]
                     + sp.diags(op.V_samples[0])).toarray()
            assert factors[1].tobytes() == T_ref.tobytes()


class TestEigsNear:
    def oracle_sums(self, op, grid, alpha0):
        hx = grid.hx
        main = np.full(grid.nx, 2.0) / hx**2
        off = np.full(grid.nx - 1, -1.0) / hx**2
        Dx = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        if XBoundary(grid.x_boundary) is XBoundary.PERIODIC:
            Dx[0, -1] = Dx[-1, 0] = -1.0 / hx**2
        Ty, _ = robin_fd(grid.a, 1j * alpha0, grid.ny)
        return np.add.outer(np.linalg.eigvals(Dx),
                            np.linalg.eigvals(Ty)).ravel()

    def test_separable_case_matches_kronecker_eigenvalues(self):
        g = GridSpec(a=A_HALF, Lx=8.0, nx=50, ny=16,
                     x_boundary=XBoundary.PERIODIC)
        op = assemble_waveguide(g, lambda x: 0.5j, lambda x, y: 0.0)
        assert op.dim == 800  # sparse path
        sums = self.oracle_sums(op, g, 0.5)
        scale = np.abs(sums).max()
        for lam, res in eigs_near(op, 0.8, 5):
            assert res <= 1e-8
            assert np.abs(sums - lam).min() <= 1e-8 * scale

    def test_target_exactly_on_eigenvalue_retries(self):
        g = GridSpec(a=A_HALF, Lx=8.0, nx=50, ny=16,
                     x_boundary=XBoundary.PERIODIC)
        op = assemble_waveguide(g, lambda x: 0.5j, lambda x, y: 0.0)
        sums = self.oracle_sums(op, g, 0.5)
        target = complex(sums[np.argmin(np.abs(sums - 0.8))])
        pairs = eigs_near(op, target, 3)
        assert all(r <= 1e-8 for _, r in pairs)
        assert abs(pairs[0][0] - target) <= 1e-8 * np.abs(sums).max()

    def test_dense_fallback_small_problem(self):
        op = free_operator(nx=8, ny=8)
        pairs = eigs_near(op, 0.25, 2)
        assert len(pairs) == 2
        assert all(r <= 1e-8 for _, r in pairs)

    def test_bound_state_below_threshold_is_real(self):
        # a localized dip in alpha0(x) binds a real eigenvalue below mu0
        g = GridSpec(a=A_HALF, Lx=40.0, nx=320, ny=16)
        op = assemble_waveguide(
            g, lambda x: 1j * (0.5 - 0.15 * math.exp(-x * x / 2.0)),
            lambda x, y: 0.0)
        lam, res = eigs_near(op, 0.20, 1)[0]
        assert res <= 1e-8
        assert lam.real < 0.25
        assert abs(lam.imag) <= 1e-8 * abs(op.H).max()

    @pytest.mark.parametrize("alpha", [lambda x: 0.5j,
                                       lambda x: 1j * (0.5 + 0.1 * math.cos(x))])
    @pytest.mark.parametrize("boundary", list(XBoundary))
    @pytest.mark.parametrize("nx, ny", [(30, 13), (640, 48)])  # 1 and 10 row chunks
    def test_operator_scale_matches_csc_sums(self, alpha, boundary, nx, ny):
        g = GridSpec(a=A_HALF, Lx=5.0, nx=nx, ny=ny, x_boundary=boundary)
        op = assemble_waveguide(g, alpha, lambda x, y: x * x + 1j * math.sin(y))
        absH = abs(op.H.tocsc())
        want = math.sqrt(float(absH.sum(axis=0).max())
                         * float(absH.sum(axis=1).max()))
        assert waveguide2d._operator_scale(op.H) == want

    def test_operator_scale_matches_csr_sums_with_empty_rows(self):
        # scipy's sums of |H| as a CSR matrix, over several row chunks, with
        # empty rows (they sum to 0) and an overflowing entry
        rng = np.random.default_rng(5)
        n = 3 * (waveguide2d._CHUNK // 5) + 7
        A = sp.random(n, n, density=5.0 / n, format="csr", random_state=rng)
        A.data = A.data * np.exp(2j * math.pi * rng.random(A.nnz))
        keep = rng.random(n) < 0.9
        keep[:20] = keep[-20:] = False
        H = (sp.diags(keep.astype(float)) @ A).tocsr()
        H.eliminate_zeros()
        assert np.diff(H.indptr).min() == 0
        for big in (1.0, 1e308):
            H.data[H.nnz // 2] = big * (1 + 1j)
            with np.errstate(over="ignore"):
                absH = sp.csr_matrix((np.abs(H.data), H.indices, H.indptr),
                                     shape=H.shape)
                want = math.sqrt(float(absH.sum(axis=0).max())
                                 * float(absH.sum(axis=1).max()))
            assert waveguide2d._operator_scale(H).hex() == want.hex()

    def test_validation(self):
        op = free_operator(nx=8, ny=8)
        with pytest.raises(ValidationError):
            eigs_near(op, 0.25, 0)
        with pytest.raises(ValidationError):
            eigs_near(op, 0.25, op.dim + 1)

    def test_no_dense_fallback_beyond_4000_unknowns(self, monkeypatch):
        # a bump coupling is not separable, and shift-invert is made to fail
        g = GridSpec(a=A_HALF, Lx=10.0, nx=260, ny=16)
        op = assemble_waveguide(
            g, lambda x: 1j * (0.5 - 0.15 * math.exp(-x * x / 2.0)),
            lambda x, y: 0.0)
        assert op.dim > 4000 and waveguide2d._kronecker_factors(op) is None

        def fail(*args, **kwargs):
            raise RuntimeError("made to fail")

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", fail)
        monkeypatch.setattr(np.linalg, "eig", fail)  # escapes if a dense eig runs
        for k in (3, op.dim - 1):  # k = n - 1 skips the iterative solvers
            with pytest.raises(NumericalError, match="too large for a dense"):
                eigs_near(op, 0.5, k)

    def test_kronecker_pair_missing_tol_gives_shift_invert_pairs(
            self, monkeypatch):
        op = free_operator(nx=50, ny=16, Lx=8.0, boundary=XBoundary.DIRICHLET)
        factors = waveguide2d._kronecker_factors

        def shifted(op):
            mu, T_y = factors(op)
            return mu, T_y + 1e-3 * np.eye(len(T_y))

        monkeypatch.setattr(waveguide2d, "_kronecker_factors", shifted)
        got = eigs_near(op, 0.8, 4)
        monkeypatch.setattr(waveguide2d, "_kronecker_factors", lambda op: None)
        assert got == eigs_near(op, 0.8, 4)

    def test_arpack_failure_retries_at_next_shift(self, monkeypatch):
        op = free_operator(nx=50, ny=16, Lx=8.0)
        want = eigs_near(op, 0.8, 3)
        eigs, shifts = scipy.sparse.linalg.eigs, []

        def fails_once(*args, **kwargs):
            shifts.append(kwargs["sigma"])
            if len(shifts) == 1:
                raise scipy.sparse.linalg.ArpackNoConvergence(
                    "ARPACK error -1: No convergence", np.array([]),
                    np.array([]))
            return eigs(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", fails_once)
        got = eigs_near(op, 0.8, 3)
        assert len(shifts) == 2 and shifts[1] != shifts[0]
        scale = abs(op.H).max()
        for (lam, res), (lam0, _) in zip(got, want, strict=True):
            assert res <= 1e-8 and abs(lam - lam0) <= 1e-8 * scale


def no_shift_invert(*args, **kwargs):
    raise AssertionError("the separable fast path fell back to shift-invert")


class TestKroneckerFastPath:
    """Separable Dirichlet strips, cross-checked against shift-invert."""

    @staticmethod
    def criterion_11_case():
        roots = secular_roots(A_HALF, 1.0, -0.05, (0.7, 1.3, -0.4, 0.4))
        k1sq = [r ** 2 for r in roots if r.imag > 0][0]
        g = GridSpec(a=A_HALF, Lx=40.0, nx=640, ny=48)
        return assemble_waveguide(g, lambda x: complex(-0.05, 1.0),
                                  lambda x, y: 0.0), k1sq, 6

    @staticmethod
    def y_potential_case():
        # PT-symmetric: V(x, y) = conj(V(x, -y)), no x dependence
        g = GridSpec(a=A_HALF, Lx=10.0, nx=80, ny=16)
        return assemble_waveguide(
            g, lambda x: 0.5j, lambda x, y: 0.3 * y * y + 0.2j * y,
        ), 1.1 + 0.05j, 5

    @pytest.mark.parametrize("case", ["criterion_11_case", "y_potential_case"])
    def test_fast_pairs_match_shift_invert(self, case, monkeypatch):
        op, target, k = getattr(self, case)()
        assert waveguide2d._kronecker_factors(op) is not None
        with monkeypatch.context() as m:
            m.setattr(scipy.sparse.linalg, "eigs", no_shift_invert)
            fast = eigs_near(op, target, k)
        monkeypatch.setattr(waveguide2d, "_kronecker_factors", lambda op: None)
        slow = eigs_near(op, target, k)
        assert len(fast) == len(slow) == k
        scale = abs(op.H).max()
        for (lf, rf), (ls, rs) in zip(fast, slow):
            assert abs(lf - ls) <= 1e-10 * scale
            assert rf <= 1e-8 and rs <= 1e-8

    def test_refuses_non_separable_operators(self):
        g = GridSpec(a=A_HALF, Lx=10.0, nx=40, ny=16)
        bump = assemble_waveguide(
            g, lambda x: 1j * (0.5 + 0.05 * math.exp(-x * x)),
            lambda x, y: 0.0)
        x_potential = assemble_waveguide(g, lambda x: 0.5j,
                                         lambda x, y: 0.1 * x * x)
        periodic = free_operator(nx=40, ny=16)
        zero = assemble_waveguide(g, lambda x: 0.0, lambda x, y: 0.0)
        hand_built = WaveguideOperator(
            grid=g, H=sp.identity(g.nx * g.ny, format="csr"), J=zero.J,
            alpha_samples=np.zeros(g.nx, dtype=complex),
            V_samples=np.zeros((g.nx, g.ny), dtype=complex))
        assert waveguide2d._kronecker_factors(zero) is not None
        for op in (bump, x_potential, periodic, hand_built):
            assert waveguide2d._kronecker_factors(op) is None


def materialised_kronecker_rule(op):
    """The separability rule with K and K - H built: True if it accepts."""
    g, al, V = op.grid, op.alpha_samples, op.V_samples
    if (XBoundary(g.x_boundary) is not XBoundary.DIRICHLET
            or np.any(al != al[0]) or np.any(V != V[0])):
        return False
    T_y = robin_fd(g.a, al[0], g.ny, sparse=True)[0] + sp.diags(V[0])
    K = (sp.kron(csr_x_second_difference(g), sp.identity(g.ny))
         + sp.kron(sp.identity(g.nx), T_y))
    return not abs(K - op.H).max() > 4 * np.finfo(float).eps * abs(op.H).max()


def with_H(op, H):
    return WaveguideOperator(grid=op.grid, H=H, J=op.J,
                             alpha_samples=op.alpha_samples,
                             V_samples=op.V_samples)


class TestKroneckerRule:
    """The entrywise separability check against the materialised rule."""

    @staticmethod
    def operators():
        g = GridSpec(a=A_HALF, Lx=10.0, nx=40, ny=16)
        p = GridSpec(a=1.0, Lx=5.0, nx=30, ny=17)
        cancel = -(2.0 / p.hx**2 + 2.0 / p.hy**2)  # every interior diagonal sums to 0
        return {
            "constant": assemble_waveguide(g, lambda x: 0.5j, lambda x, y: 0.0),
            "zero": assemble_waveguide(g, lambda x: 0.0, lambda x, y: 0.0),
            "y_potential": TestKroneckerFastPath.y_potential_case()[0],
            "cancelled_diagonal": assemble_waveguide(p, lambda x: 0.3j,
                                                     lambda x, y: cancel),
            "endpoint": assemble_waveguide(p, lambda x: -1 / p.hy, lambda x, y: 0.0),
            "bump": assemble_waveguide(
                g, lambda x: 1j * (0.5 + 0.05 * math.exp(-x * x)),
                lambda x, y: 0.0),
            "x_potential": assemble_waveguide(g, lambda x: 0.5j,
                                              lambda x, y: 0.1 * x * x),
            "periodic": free_operator(nx=40, ny=16),
        }

    @staticmethod
    def moved(op, how, factor):
        """op with one entry of H moved by factor times the rule's tolerance."""
        H = op.H.tolil()
        tol = 4 * np.finfo(float).eps * abs(op.H).max()
        row = op.grid.ny + 3  # x block 1, y node 3
        if how == "removed":  # an x neighbour K stores
            H[row, 3] = 0.0
        else:  # "added" lands where K stores nothing
            col, step = {"x_neighbour": (3, 1), "diagonal": (row, 1),
                         "y_neighbour": (row - 1, 1j),
                         "added": (op.dim - 1, 1)}[how]
            H[row, col] += factor * tol * step
        return with_H(op, H.tocsr())

    def test_existing_operators_get_the_same_decision(self):
        decisions = {}
        for name, op in self.operators().items():
            fast = waveguide2d._kronecker_factors(op) is not None
            assert fast == materialised_kronecker_rule(op), name
            decisions[name] = fast
        assert decisions == {
            "constant": True, "zero": True, "y_potential": True,
            "cancelled_diagonal": True, "endpoint": True, "bump": False,
            "x_potential": False, "periodic": False}

    @pytest.mark.parametrize("how", ["x_neighbour", "diagonal", "y_neighbour",
                                     "added", "removed"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("base", ["constant", "cancelled_diagonal"])
    def test_moved_entry_gets_the_same_decision(self, base, factor, how):
        op = self.moved(self.operators()[base], how, factor)
        fast = waveguide2d._kronecker_factors(op) is not None
        assert fast == materialised_kronecker_rule(op)
        assert fast == (factor < 1 and how != "removed")

    def test_refuses_duplicate_entries(self):
        op = self.operators()["constant"]
        H = op.H
        indptr = H.indptr + 1
        indptr[0] = 0  # row 0 stores (0, 0) twice, the copies summing to H
        doubled = with_H(op, sp.csr_matrix(
            (np.r_[0.0, H.data], np.r_[0, H.indices], indptr), shape=H.shape))
        assert waveguide2d._kronecker_factors(doubled) is None
        assert materialised_kronecker_rule(doubled)  # which sums them in place


class TestMemory:
    """tracemalloc peaks on the criterion-11 strip, in multiples of H's bytes."""

    @staticmethod
    def h_bytes(op):
        H = op.H
        return H.data.nbytes + H.indices.nbytes + H.indptr.nbytes

    @staticmethod
    def assemble(boundary):
        g = GridSpec(a=A_HALF, Lx=40.0, nx=640, ny=48, x_boundary=boundary)
        return assemble_waveguide(g, lambda x: complex(-0.05, 1.0),
                                  lambda x, y: 0.0)

    def test_assembly_and_eigs_near_make_no_nnz_sized_copies(self):
        tracemalloc.start()
        try:
            op = self.assemble(XBoundary.DIRICHLET)
            assembly = tracemalloc.get_traced_memory()[1]
            peaks = {}
            for name, call in (
                    ("eigs_near", lambda: eigs_near(op, 0.97566 + 0.25849j, 6)),
                    ("kronecker", lambda: waveguide2d._kronecker_factors(op))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        h_bytes = self.h_bytes(op)
        # assembly returns H, J and the samples: about 1.35 H
        assert assembly <= 2.5 * h_bytes
        assert peaks["eigs_near"] <= 1.5 * h_bytes
        assert peaks["kronecker"] <= 1.0 * h_bytes

    def test_periodic_assembly_is_canonical_without_a_sort(self):
        # block 0's and block nx-1's rows put their wrapped corners in column
        # order; has_canonical_format scans the rows, as no sort set its flag
        tracemalloc.start()
        try:
            op = self.assemble(XBoundary.PERIODIC)
            assembly = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.H.has_canonical_format
        assert assembly <= 2.5 * self.h_bytes(op)


class TestPseudospectrum:
    def test_hermitian_sigma_is_distance_to_spectrum(self):
        g = GridSpec(a=A_HALF, Lx=4.0, nx=10, ny=8)
        op = assemble_waveguide(g, lambda x: 0.0, lambda x, y: 0.0)
        ev = np.linalg.eigvalsh(op.H.toarray().real)
        pm = pseudospectrum_map(op, (0.0, 2.0, -0.3, 0.3), 4, 3)
        scale = np.abs(ev).max()
        for iy in range(3):
            for ix in range(4):
                dist = np.abs(ev - pm.lambdas[iy, ix]).min()
                assert abs(pm.sigmas[iy, ix] - dist) <= 1e-10 * scale
        assert not pm.flagged.any()
        assert (pm.sigmas >= 0).all()

    def test_conjugation_symmetry_for_pt_operator(self):
        op = free_operator(nx=10, ny=9, Lx=4.0)
        pm = pseudospectrum_map(op, (0.1, 0.9, -0.25, 0.25), 4, 5)
        scale = pm.sigmas.max()
        np.testing.assert_allclose(pm.sigmas, pm.sigmas[::-1, :],
                                   atol=1e-10 * scale)

    def test_sparse_path_matches_dense(self):
        op = free_operator(nx=12, ny=10, Lx=4.0)
        rect = (0.2, 0.8, 0.05, 0.3)
        dense = pseudospectrum_map(op, rect, 3, 3, dense_cutoff=10**6)
        sparse = pseudospectrum_map(op, rect, 3, 3, dense_cutoff=0)
        np.testing.assert_allclose(sparse.sigmas, dense.sigmas, rtol=1e-6)

    def test_sparse_sigma_matches_sine_blocks_on_criterion_10_strip(self):
        # H = Dx (x) I + I (x) T_y; the sine basis of Dx splits H - lambda
        # into nx blocks T_y + (mu_j - lambda) I
        nx, ny, lam = 2000, 24, 0.35 + 0.03j
        grid = GridSpec(a=A_HALF, Lx=200.0, nx=nx, ny=ny,
                        x_boundary=XBoundary.DIRICHLET)
        op = assemble_waveguide(grid, lambda x: 0.5j, lambda x, y: 0.0)
        hx = grid.hx
        Ty = op.H[:ny, :ny].toarray() - 2.0 / hx**2 * np.eye(ny)
        Dx = sp.diags([np.full(nx - 1, -1.0), np.full(nx, 2.0),
                       np.full(nx - 1, -1.0)], [-1, 0, 1]) / hx**2
        rebuilt = sp.kron(Dx, sp.identity(ny)) + sp.kron(sp.identity(nx), Ty)
        assert abs(rebuilt - op.H).max() <= 1e-12 * abs(op.H).max()
        mu = (2.0 - 2.0 * np.cos(np.arange(1, nx + 1) * math.pi / (nx + 1))) / hx**2
        blocks = Ty[None] + (mu - lam)[:, None, None] * np.eye(ny)[None]
        expected = np.linalg.svd(blocks, compute_uv=False)[:, -1].min()
        pm = pseudospectrum_map(op, (lam.real, lam.real, lam.imag, lam.imag),
                                1, 1, dense_cutoff=0)
        assert pm.lambdas[0, 0] == lam
        assert abs(pm.sigmas[0, 0] - expected) <= 1e-10 * expected

    def test_unconverged_lanczos_raises(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.array([]), np.array([]))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        op = free_operator(nx=12, ny=10, Lx=4.0)
        with pytest.raises(NumericalError, match="sigma_min"):
            pseudospectrum_map(op, (0.2, 0.8, 0.05, 0.3), 2, 2, dense_cutoff=0)

    def test_exactly_singular_node_is_flagged(self):
        g = GridSpec(a=1.0, Lx=1.0, nx=8, ny=8)
        H = sp.diags(np.arange(64, dtype=complex)).tocsr()
        op = WaveguideOperator(grid=g, H=H,
                               J=validate_involution(sp.identity(64, format="csr")),
                               alpha_samples=np.zeros(8, dtype=complex),
                               V_samples=np.zeros((8, 8), dtype=complex))
        pm = pseudospectrum_map(op, (1.0, 3.0, 0.0, 0.0), 3, 1,
                                dense_cutoff=0)
        assert pm.flagged.all()
        assert (pm.sigmas == 0.0).all()

    def test_single_row_uses_midpoint(self):
        op = free_operator(nx=8, ny=8)
        pm = pseudospectrum_map(op, (0.0, 1.0, -0.2, 0.2), 3, 1)
        assert pm.lambdas.shape == (1, 3)
        assert pm.lambdas[0, 0].imag == 0.0

    def test_validation(self):
        op = free_operator(nx=8, ny=8)
        with pytest.raises(ValidationError):
            pseudospectrum_map(op, (1.0, 0.0, 0.0, 1.0), 3, 3)
        with pytest.raises(ValidationError):
            pseudospectrum_map(op, (0.0, 1.0, 0.0, math.inf), 3, 3)
        with pytest.raises(ValidationError):
            pseudospectrum_map(op, (0.0, 1.0, 0.0, 1.0), 0, 3)


def synthetic_map(M, m, window=(0.0, 1.0), n=24):
    # exact law |Im lambda| = M sigma^(1/m)  =>  sigma = (|Im|/M)^m
    res = np.linspace(window[0], window[1], n)
    ims = np.linspace(0.02, 0.45, n)
    lam = res[None, :] + 1j * ims[:, None]
    sig = (np.abs(lam.imag) / M) ** m
    return PseudospectrumMap(rect=(window[0], window[1], 0.02, 0.45),
                             lambdas=lam, sigmas=sig,
                             flagged=np.zeros_like(sig, dtype=bool))


class TestImagBoundFit:
    def test_exact_linear_law(self):
        fit = imag_bound_fit(synthetic_map(1.0, 1.0), (0.0, 1.0),
                             im_band=(0.02, 0.45))
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)
        assert fit.M == pytest.approx(1.0, abs=1e-10)
        assert fit.m == pytest.approx(1.0, abs=1e-10)
        assert fit.rms_residual < 1e-10

    def test_exact_holder_law(self):
        fit = imag_bound_fit(synthetic_map(3.0, 2.0), (0.0, 1.0),
                             im_band=(0.02, 0.45))
        assert fit.m == pytest.approx(2.0, rel=1e-8)
        assert fit.M == pytest.approx(3.0, rel=1e-8)

    def test_hermitian_reference_operator(self):
        g = GridSpec(a=1.0, Lx=1.0, nx=8, ny=8)
        d = np.linspace(0.0, 2.0, 201)
        op = WaveguideOperator(grid=g, H=sp.diags(d.astype(complex)).tocsr(),
                               J=validate_involution(sp.identity(201, format="csr")),
                               alpha_samples=np.zeros(8, dtype=complex),
                               V_samples=np.zeros((8, 8), dtype=complex))
        pm = pseudospectrum_map(op, (0.2, 1.8, 0.08, 0.45), 9, 6,
                                dense_cutoff=0)
        fit = imag_bound_fit(pm, (0.2, 1.8), im_band=(0.05, 0.5))
        assert abs(fit.exponent - 1.0) < 0.15
        assert abs(fit.M - 1.0) < 0.15

    def test_insufficient_samples(self):
        with pytest.raises(ValidationError, match="samples"):
            imag_bound_fit(synthetic_map(1.0, 1.0), (0.0, 1.0),
                           im_band=(0.46, 0.5))

    def test_validation(self):
        with pytest.raises(ValidationError):
            imag_bound_fit(synthetic_map(1.0, 1.0), (1.0, 0.0))
        with pytest.raises(ValidationError):
            imag_bound_fit(synthetic_map(1.0, 1.0), (0.0, 1.0),
                           im_band=(0.3, 0.1))

    def test_json(self):
        fit = imag_bound_fit(synthetic_map(1.0, 1.0), (0.0, 1.0),
                             im_band=(0.02, 0.45))
        obj = fit.to_json_obj()
        assert obj["schema"] == "kreinspec/imag-bound-fit-v1"
        assert obj["exponent"] == pytest.approx(1.0)


class TestRealnessReport:
    def test_clean_window(self):
        eigs = [(0.3 + 0j, 1e-12), (0.7 + 1e-12j, 1e-10), (1.5 + 0.2j, 1e-9)]
        rep = realness_report(eigs, (0.0, 1.0), 1e-7)
        assert rep.real_count == 2
        assert rep.flagged == ()
        assert len(rep.eigenvalues) == 2

    def test_flags_nonreal_members(self):
        eigs = [(0.5 + 0.01j, 1e-12), (0.6 + 0j, 1e-12)]
        rep = realness_report(eigs, (0.0, 1.0), 1e-7)
        assert rep.flagged == (0.5 + 0.01j,)
        assert rep.real_count == 1

    def test_rejects_sloppy_residuals(self):
        with pytest.raises(ValidationError, match="residual"):
            realness_report([(0.5 + 0j, 1e-6)], (0.0, 1.0), 1e-7)

    def test_validation(self):
        with pytest.raises(ValidationError):
            realness_report([], (1.0, 0.0), 1e-7)
        with pytest.raises(ValidationError):
            realness_report([], (0.0, 1.0), -1.0)

    def test_json(self):
        rep = realness_report([(0.5 + 0.01j, 1e-12)], (0.0, 1.0), 1e-7)
        obj = rep.to_json_obj()
        assert obj["schema"] == "kreinspec/realness-report-v1"
        assert obj["flagged"] == [[0.5, 0.01]]


class TestWeakCouplingBoundState:
    """Simon's weak-coupling law as an oracle for the non-separable strip.

    With alpha(x) = i(alpha0 + eps b(x)), Hellmann-Feynman on the lowest
    transversal eigenvalue mu0 = alpha0^2 gives the longitudinal potential
    2 alpha0 eps b(x) to first order.  When alpha0 int b < 0 one bound state
    then sits at mu0 - lambda = eps^2 alpha0^2 (int b)^2 + O(eps^3), which is
    pi alpha0^2 for b = -exp(-x^2), and none when alpha0 int b > 0 (B. Simon,
    Ann. Phys. 97 (1976); D. Borisov and D. Krejcirik, IEOT 62 (2008)).
    """

    ALPHA0, NY, HX = 0.5, 24, 0.1

    def threshold_and_pairs(self, eps, sign):
        # Lx keeps the bound state, of decay length 1/(eps alpha0 sqrt(pi)), inside
        Lx = max(40.0, 12.0 / (eps * self.ALPHA0 * math.sqrt(math.pi)))
        grid = GridSpec(a=A_HALF, Lx=Lx, nx=round(2 * Lx / self.HX) - 1, ny=self.NY)
        op = assemble_waveguide(
            grid, lambda x: 1j * (self.ALPHA0 + sign * eps * math.exp(-x * x)),
            lambda x, y: 0.0)
        # the discrete threshold: the lowest robin_fd and Dirichlet Dx eigenvalues
        T = robin_fd(A_HALF, 1j * self.ALPHA0, self.NY)[0]
        threshold = (np.linalg.eigvals(T).real.min()
                     + (2.0 - 2.0 * math.cos(math.pi / (grid.nx + 1))) / grid.hx**2)
        return threshold, [lam for lam, _ in eigs_near(op, threshold - 0.05, 3)]

    def test_attractive_bump_binds_one_real_state_at_simons_rate(self):
        rates = []
        for eps in (0.4, 0.2, 0.1):
            threshold, lams = self.threshold_and_pairs(eps, -1.0)
            below = [lam for lam in lams if lam.real < threshold]
            assert len(below) == 1
            assert abs(below[0].imag) <= 1e-12 * abs(below[0])
            rates.append((threshold - below[0].real) / eps**2)
        # rates = C + O(eps): eliminate the eps term, then the eps^2 term
        r1 = [2.0 * rates[1] - rates[0], 2.0 * rates[2] - rates[1]]
        limit = (4.0 * r1[1] - r1[0]) / 3.0
        assert limit == pytest.approx(math.pi * self.ALPHA0**2, rel=0.02)

    def test_repulsive_bump_binds_nothing(self):
        threshold, lams = self.threshold_and_pairs(0.2, 1.0)
        assert all(lam.real > threshold for lam in lams)
