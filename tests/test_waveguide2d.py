"""Tests for the 2D strip discretization and pseudospectrum tools."""
import math

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
        with pytest.raises(ValueError):
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

    def test_validation(self):
        op = free_operator(nx=8, ny=8)
        with pytest.raises(ValidationError):
            eigs_near(op, 0.25, 0)
        with pytest.raises(ValidationError):
            eigs_near(op, 0.25, op.dim + 1)

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
