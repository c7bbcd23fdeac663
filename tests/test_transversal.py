"""Tests for the transversal Robin operator module."""
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from kreinspec import (
    NumericalError,
    RootCertificationError,
    SpectralType,
    ValidationError,
    classify_point,
    classify_spectrum,
)
from kreinspec.realsets import Interval, RealLineSet
from kreinspec.transversal import (
    BranchPoint,
    Constant,
    Discretized,
    SquareWell,
    UserSet,
    Zero,
    branch_curves,
    exceptional_set,
    longitudinal_spectrum,
    mode_function,
    robin_fd,
    secular_derivative,
    secular_roots,
    secular_value,
    transversal_modes,
    waveguide_m_sets,
)
from kreinspec import transversal
from kreinspec.transversal import (_bisect, _make_secular, _newton_refine,
                                   _rounding_floor, _winding_number)

A_HALF = math.pi / 2


# ---------------------------------------------------------------------------
# Closed-form modes
# ---------------------------------------------------------------------------

class TestTransversalModes:
    def test_reference_eigenvalues(self):
        modes = transversal_modes(A_HALF, 0.5, 3)
        assert [m.lam for m in modes] == [0.25, 1.0, 4.0, 9.0]
        assert [m.n for m in modes] == [0, 1, 2, 3]
        assert [m.mu_index for m in modes] == [0, 1, 2, 3]

    def test_reference_indicators(self):
        modes = transversal_modes(A_HALF, 0.5, 3)
        assert modes[0].indicator == pytest.approx(2.0, abs=1e-15)
        assert modes[1].indicator == pytest.approx(-3 * math.pi / 8, abs=1e-15)

    def test_reference_types_alternate(self):
        modes = transversal_modes(A_HALF, 0.5, 3)
        assert [m.type for m in modes] == [
            SpectralType.POSITIVE, SpectralType.NEGATIVE,
            SpectralType.POSITIVE, SpectralType.NEGATIVE]

    def test_mode0_coefficients_are_complex_exponential(self):
        modes = transversal_modes(A_HALF, 0.5, 3)
        assert modes[0].psi_coeffs == (1.0 + 0.0j, -1.0j)
        y = np.linspace(-A_HALF, A_HALF, 7)
        psi = mode_function(modes[0], A_HALF, y)
        np.testing.assert_allclose(psi, np.exp(-0.5j * (y + A_HALF)),
                                   atol=1e-14)

    def test_lattice_mode_coefficients(self):
        modes = transversal_modes(A_HALF, 0.5, 3)
        for m in modes[1:]:
            k = math.sqrt(m.lam)
            assert m.psi_coeffs == (1.0 + 0.0j, -0.5j / k)

    def test_neumann_limit(self):
        for a in (0.7, A_HALF, 2.3):
            modes = transversal_modes(a, 0.0, 4)
            assert modes[0].lam == 0.0
            assert modes[0].indicator == pytest.approx(2 * a, abs=1e-15)
            for m in modes[1:]:
                assert m.psi_coeffs[1] == 0.0

    def test_indicator_series_matches_direct_branch(self):
        # the series kicks in below 1e-6; both branches agree at the seam
        lo = transversal_modes(A_HALF, 9.9e-7, 2)[0].indicator
        hi = transversal_modes(A_HALF, 1.1e-6, 2)[0].indicator
        assert abs(lo - hi) < 1e-11
        assert lo == pytest.approx(math.pi, abs=1e-10)

    def test_mu_sorting_interleaves_robin_mode(self):
        modes = transversal_modes(A_HALF, 2.5, 4)
        assert [m.lam for m in modes] == [1.0, 4.0, 6.25, 9.0, 16.0]
        assert [m.n for m in modes] == [1, 2, 0, 3, 4]
        assert [m.type for m in modes] == [
            SpectralType.POSITIVE, SpectralType.NEGATIVE,
            SpectralType.POSITIVE, SpectralType.NEGATIVE,
            SpectralType.POSITIVE]

    def test_exceptional_pair_is_not_definite(self):
        modes = transversal_modes(A_HALF, 1.0, 3)
        assert [m.lam for m in modes] == [1.0, 1.0, 4.0, 9.0]
        assert [m.n for m in modes] == [0, 1, 2, 3]  # robin mode first on ties
        assert modes[0].type is SpectralType.NOT_DEFINITE
        assert modes[1].type is SpectralType.NOT_DEFINITE
        assert modes[2].type is SpectralType.POSITIVE
        assert modes[3].type is SpectralType.NEGATIVE

    def test_indicator_sign_matches_parity_off_exceptional(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.uniform(0.4, 2.5)
            alpha0 = rng.uniform(0.05, 4.0)
            if exceptional_set(a, alpha0):
                continue
            for m in transversal_modes(a, alpha0, 8):
                want_positive = m.mu_index % 2 == 0
                assert (m.indicator > 0) == want_positive

    def test_boundary_conditions_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(0.4, 2.5)
            alpha0 = rng.uniform(0.0, 3.5)
            for m in transversal_modes(a, alpha0, 6):
                k = math.sqrt(m.lam)
                A, B = m.psi_coeffs
                # psi(y) = A cos(k(y+a)) + B sin(k(y+a))
                lo = abs(B * k - (-1j * alpha0) * A)
                top = A * math.cos(2 * k * a) + B * math.sin(2 * k * a)
                dtop = -A * k * math.sin(2 * k * a) + B * k * math.cos(2 * k * a)
                hi = abs(dtop + 1j * alpha0 * top)
                assert max(lo, hi) <= 1e-10

    def test_eigenfunction_satisfies_ode(self):
        modes = transversal_modes(0.9, 1.3, 4)
        h = 1e-4
        y = np.linspace(-0.9 + 0.1, 0.9 - 0.1, 11)
        for m in modes:
            psi = mode_function(m, 0.9, y)
            lap = (mode_function(m, 0.9, y + h) - 2 * psi
                   + mode_function(m, 0.9, y - h)) / h**2
            np.testing.assert_allclose(-lap, m.lam * psi,
                                       rtol=1e-5, atol=1e-5)

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            transversal_modes(0.0, 0.5, 3)
        with pytest.raises(ValidationError):
            transversal_modes(-1.0, 0.5, 3)
        with pytest.raises(ValidationError):
            transversal_modes(A_HALF, 0.5, 0)
        with pytest.raises(ValidationError):
            transversal_modes(A_HALF, 3.0, 2)  # exceptional pair outside range
        with pytest.raises(ValidationError, match="lattice modes"):
            # label-0 eigenvalue 12.25 sits above lattice modes 1..3
            transversal_modes(A_HALF, 3.5, 2)

    @pytest.mark.parametrize("a", [1e-300, 5e-324])
    def test_half_width_whose_lattice_overflows_is_refused(self, a):
        # (pi N / 2a)^2 overflows, or pi N / 2a itself
        with pytest.raises(ValidationError, match="half-width"):
            transversal_modes(a, 0.5, 1)
        assert len(transversal_modes(1e-150, 0.5, 1)) == 2

    def test_boundary_gate_is_relative_to_the_coupling(self, monkeypatch):
        # the absolute residual reaches 2e-10 at alpha0 = 700 on exact modes
        modes = transversal_modes(A_HALF, 700.0, 720)
        assert len(modes) == 721 and modes[700].type is SpectralType.NOT_DEFINITE
        real = transversal.TransversalMode

        def perturbed(**fields):
            A, B = fields["psi_coeffs"]
            return real(**{**fields, "psi_coeffs": (A, B * (1 + 1e-8))})

        monkeypatch.setattr(transversal, "TransversalMode", perturbed)
        with pytest.raises(NumericalError, match="boundary conditions"):
            transversal_modes(A_HALF, 700.0, 720)

    def test_truncation_at_the_label0_position_is_allowed(self):
        # floor(t) = 3 lattice modes below lambda_0 = 12.25; N = 3 puts the
        # label-0 mode last and keeps every mu index correct
        modes = transversal_modes(A_HALF, 3.5, 3)
        assert [m.n for m in modes] == [1, 2, 3, 0]
        assert [m.mu_index for m in modes] == [0, 1, 2, 3]
        assert modes[-1].lam == pytest.approx(12.25, abs=1e-12)


class TestNegativeCoupling:
    """alpha0 -> -alpha0 conjugates the boundary conditions, so the closed
    forms keep every eigenvalue, indicator and type and conjugate psi."""

    @pytest.mark.parametrize("a, alpha0", [
        (A_HALF, 0.5), (A_HALF, 2.5), (0.9, 1.3), (2.3, 0.05), (0.4, 3.7),
        (A_HALF, 0.0), (A_HALF, 1.0), (A_HALF, 2.0)])
    def test_sign_flip_conjugates_the_modes(self, a, alpha0):
        plus, minus = transversal_modes(a, alpha0, 6), transversal_modes(a, -alpha0, 6)

        def key(m):
            return m.n, m.mu_index, m.lam, m.indicator, m.type

        assert [key(m) for m in minus] == [key(m) for m in plus]
        y = np.linspace(-a, a, 9)
        for p, m in zip(plus, minus):
            A, B = p.psi_coeffs
            if p.lam > 0:  # the constant mode's B multiplies sin(0)
                assert m.psi_coeffs == (A, B.conjugate())
            np.testing.assert_array_equal(mode_function(m, a, y),
                                          np.conj(mode_function(p, a, y)))

    @pytest.mark.parametrize("alpha0", [-0.5, -2.5])
    def test_types_match_the_gram_classifier(self, alpha0):
        # the finite-difference cross-check of each closed-form type
        T, J = robin_fd(A_HALF, 1j * alpha0, 121)
        eigvals = np.linalg.eigvals(T)
        for m in transversal_modes(A_HALF, alpha0, 8):
            lam_hat = eigvals[np.argmin(np.abs(eigvals - m.lam))]
            assert abs(lam_hat - m.lam) < 0.1 * max(1.0, m.lam)
            assert classify_point(T, J, lam_hat, eigvals=eigvals).type is m.type


class TestExceptionalSet:
    def test_reference_cases(self):
        assert exceptional_set(A_HALF, 0.5) == frozenset()
        assert exceptional_set(A_HALF, 2.0) == frozenset({1, 2})
        assert exceptional_set(1.0, math.pi / 2) == frozenset({0, 1})

    def test_sign_and_zero(self):
        assert exceptional_set(A_HALF, -2.0) == frozenset({1, 2})
        assert exceptional_set(A_HALF, 0.0) == frozenset()

    def test_near_miss_is_not_exceptional(self):
        assert exceptional_set(A_HALF, 2.0 + 1e-9) == frozenset()
        assert exceptional_set(A_HALF, 2.0 * (1 + 1e-13)) == frozenset({1, 2})

    def test_invalid_width(self):
        with pytest.raises(ValidationError):
            exceptional_set(-1.0, 1.0)

    def test_huge_coupling_is_never_exceptional(self):
        # at t = 2a|alpha0|/pi >= 5e11 the 1e-12 relative slack reaches 1/2
        assert exceptional_set(A_HALF, 4e11) == frozenset({4e11 - 1, 4e11})
        assert exceptional_set(A_HALF, 6e11 + 0.3) == frozenset()
        assert exceptional_set(A_HALF, 1e200) == frozenset()
        with pytest.raises(ValidationError):
            exceptional_set(1e308, 1e308)


# ---------------------------------------------------------------------------
# Finite-difference discretization
# ---------------------------------------------------------------------------

class TestRobinFd:
    def test_reversal_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            alpha = complex(rng.normal(), rng.normal())
            T, J = robin_fd(rng.uniform(0.5, 2.0), alpha, 31)
            assert np.abs(J @ T.conj().T @ J - T).max() == 0.0
            assert np.abs(J @ J - np.eye(31)).max() == 0.0

    @staticmethod
    def cases(a=1.0):
        # a = 1 and n = 3, 5, 33 give steps h = 2^-k, where alpha = -1/h
        # cancels both endpoint entries exactly; -1/h + 0.3j cancels neither.
        # Sizes come back after others, so held patterns are reused
        for n in (3, 5, 25, 33, 48, 800, 5, 48, 3):
            h = 2.0 * a / (n - 1)
            for alpha in (0.0, 0.3 + 0.7j, -0.05 + 1j, -1 / h, -1 / h + 0.3j):
                yield n, alpha

    def test_sparse_matches_dense(self):
        # bitwise, and against the np.diag sums and flipped identity that
        # once built the dense pair
        for a in (1.0, 0.3, A_HALF, 2.5):
            for n, alpha in self.cases(a):
                T, J = robin_fd(a, alpha, n)
                Ts, Js = robin_fd(a, alpha, n, sparse=True)
                assert type(Ts) is type(Js) is sp.csr_matrix
                main, off = Ts.diagonal(), Ts.diagonal(1)
                T_ref = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
                for got, want in ((T, Ts.toarray()), (T, T_ref),
                                  (J, Js.toarray()), (J, np.eye(n)[::-1])):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    def test_sparse_arrays_match_the_diags_construction(self):
        # the scipy.sparse.diags route the direct CSR build replaced
        for n, alpha in self.cases():
            T, _ = robin_fd(1.0, alpha, n)
            T_ref = sp.diags([np.diag(T, -1), np.diag(T), np.diag(T, 1)],
                             [-1, 0, 1], format="csr")
            J_ref = sp.csr_matrix(
                (np.ones(n), (np.arange(n), np.arange(n)[::-1])), shape=(n, n))
            for got, want in zip(robin_fd(1.0, alpha, n, sparse=True),
                                 (T_ref, J_ref)):
                for field in ("indptr", "indices", "data"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert robin_fd(1.0, -16.0, 33, sparse=True)[0].nnz == 3 * 33 - 4

    def test_shared_flip_cannot_be_changed(self):
        n = 9
        J = robin_fd(1.0, 1j, n, sparse=True)[1]
        for field in ("data", "indices", "indptr"):
            assert not getattr(J, field).flags.writeable
        for write in (lambda: J.data.__setitem__(0, 2.0),
                      lambda: J.indices.__setitem__(0, 0),
                      lambda: J.__setitem__((0, n - 1), 2.0),
                      lambda: J.__imul__(2.0)):
            with pytest.raises(ValueError):
                write()
        # a change of structure replaces this result's arrays only
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
            J.setdiag(3.0)
        J.resize((n + 1, n + 1))
        assert J.nnz == 2 * n - 1 and J.shape == (n + 1, n + 1)
        for got in (robin_fd(1.0, 1j, n, sparse=True)[1], robin_fd(1.0, 1j, n)[1]):
            assert got.shape == (n, n)
            assert np.array_equal(sp.csr_matrix(got).toarray(), np.eye(n)[::-1])

    def test_stencil_arrays_belong_to_the_call(self):
        n = 33
        for alpha in (0.3j, -16.0):  # -16 = -1/h cancels both endpoints
            T1, _ = robin_fd(1.0, alpha, n, sparse=True)
            T2, _ = robin_fd(1.0, alpha, n, sparse=True)
            for field in ("data", "indices", "indptr"):
                x, y = getattr(T1, field), getattr(T2, field)
                assert x.flags.writeable and not np.shares_memory(x, y)
            T1.data[:] = 0.0
            T1.indices[:] = 0
            assert robin_fd(1.0, alpha, n, sparse=True)[0].toarray().tobytes() \
                == T2.toarray().tobytes()
        assert T2.nnz == 3 * n - 4

    def test_second_order_convergence_to_closed_form(self):
        exact = [m.lam for m in transversal_modes(A_HALF, 0.5, 3)]

        def fd_error(n):
            T, _ = robin_fd(A_HALF, 0.5j, n)
            ev = np.sort(np.linalg.eigvals(T).real)[:4]
            return np.abs(ev - exact).max()

        e1, e2 = fd_error(401), fd_error(801)
        assert e1 < 2e-3
        ratio = e1 / e2
        assert 3.0 < ratio < 5.0  # O(h^2)

    def test_gram_classification_matches_closed_form(self):
        modes = transversal_modes(A_HALF, 0.5, 3)
        T, J = robin_fd(A_HALF, 0.5j, 161)
        spec = classify_spectrum(T, J, tol=1e-8,
                                 points=[m.lam for m in modes],
                                 cluster_gap=1e-3)
        for mode, entry in zip(modes, spec.entries):
            assert entry.type is mode.type
            assert abs(entry.lam - mode.lam) < 1e-2

    def test_validation(self):
        with pytest.raises(ValidationError):
            robin_fd(0.0, 1j, 11)
        with pytest.raises(ValidationError):
            robin_fd(1.0, 1j, 2)
        with pytest.raises(ValidationError):
            robin_fd(1e-300, 1j, 11)  # 2/h^2 overflows

    @pytest.mark.parametrize("a, alpha", [(1.0, 1e308), (1e-5, 1e305),
                                          (1.0, -1e308j)])
    def test_overflowing_endpoint_entry_is_refused(self, a, alpha):
        # 2/h^2 + 2 alpha/h once came out inf or inf+nanj
        with pytest.raises(ValidationError, match="Robin stencil"):
            robin_fd(a, alpha, 5, sparse=True)


# ---------------------------------------------------------------------------
# Secular function and certified roots
# ---------------------------------------------------------------------------

class TestSecular:
    def test_reference_form(self):
        # at a = pi/2, alpha0 = 1 the function must reduce to
        # (k^2 - 1 - b^2) sin(pi k) - 2 b k cos(pi k)
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = complex(rng.normal(), rng.normal())
            b = rng.uniform(-0.5, 0.5)
            direct = ((k * k - 1 - b * b) * np.sin(math.pi * k)
                      - 2 * b * k * np.cos(math.pi * k))
            got = secular_value(k, A_HALF, 1.0, b)
            assert abs(got - direct) <= 1e-13 * max(1.0, abs(direct))

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for k in (0.8 + 0.1j, 2.0 - 0.3j, 1.5):
            num = (secular_value(k + h, 1.3, 0.7, -0.2)
                   - secular_value(k - h, 1.3, 0.7, -0.2)) / (2 * h)
            assert abs(secular_derivative(k, 1.3, 0.7, -0.2) - num) < 1e-6

    def test_beta0_zero_factorization(self):
        roots = secular_roots(A_HALF, 0.5, 0.0, (0.2, 2.4, -0.1, 0.1))
        expect = [0.5, 1.0, 2.0]
        assert len(roots) == 3
        for r, e in zip(roots, expect):
            assert abs(r - e) < 1e-15

    def test_wide_region_collects_lattice_and_robin_roots(self):
        roots = secular_roots(A_HALF, 0.3, 0.0, (0.05, 5.5, -0.2, 0.2))
        expect = [0.3, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(roots) == 6
        for r, e in zip(roots, expect):
            assert abs(r - e) < 1e-10

    def test_conjugate_pair_reference(self):
        roots = secular_roots(A_HALF, 1.0, -0.05, (0.7, 1.3, -0.4, 0.4))
        assert len(roots) == 2  # winding count of the region
        k1, k2 = roots
        assert abs(k1 - k2.conjugate()) < 1e-10
        for r in roots:
            assert abs(secular_value(r, A_HALF, 1.0, -0.05)) <= 1e-12

    def test_conjugate_pair_against_fd(self):
        k = secular_roots(A_HALF, 1.0, -0.05, (0.7, 1.3, -0.4, 0.4))[1]
        lam = k * k
        T, _ = robin_fd(A_HALF, -0.05 + 1j, 800, sparse=True)
        vals = scipy.sparse.linalg.eigs(T.tocsc(), k=2, sigma=lam,
                                        return_eigenvectors=False)
        assert np.abs(vals - lam).min() < 1e-3

    def test_double_root_counted_twice(self):
        roots = secular_roots(A_HALF, 1.0, 0.0, (0.7, 1.3, -0.3, 0.3))
        assert len(roots) == 2
        for r in roots:
            assert abs(r - 1.0) < 1e-5
            assert abs(secular_value(r, A_HALF, 1.0, 0.0)) <= 1e-12

    def test_empty_region(self):
        assert secular_roots(A_HALF, 0.5, 0.0, (1.2, 1.8, -0.1, 0.1)) == []

    def test_region_must_avoid_origin(self):
        with pytest.raises(ValidationError):
            secular_roots(A_HALF, 0.5, 0.0, (-0.5, 1.5, -0.2, 0.2))

    def test_region_validation(self):
        with pytest.raises(ValidationError):
            secular_roots(A_HALF, 0.5, 0.0, (2.0, 1.0, -0.1, 0.1))
        with pytest.raises(ValidationError):
            secular_roots(A_HALF, 0.5, 0.0, (0.5, math.inf, -0.1, 0.1))
        with pytest.raises(ValidationError):
            secular_roots(A_HALF, 0.5, 0.0, (0.2, 2.4, -0.1, 0.1), tol=0.0)
        with pytest.raises(ValidationError, match="a must be finite and positive"):
            secular_roots(-1, 0.5, 0.0, (0.2, 2.4, -0.1, 0.1))

    @pytest.mark.parametrize("a, region", [
        (A_HALF, (0.2, 2.4, -0.1, 300.0)),
        (1.0, (0.2, 2.4, -0.1, 1e300)),
        (1e300, (0.2, 2.4, -0.4, 0.4)),
        # |Im 2ak| <= 709.75 on the region, 752 after the 6 % retry growth
        (0.5, (0.2, 2.4, -0.1, 709.75)),
    ])
    def test_region_where_sin_2ak_overflows_is_refused(self, a, region):
        with pytest.raises(ValidationError, match="sin"):
            secular_roots(a, 0.5, 0.1, region)

    def test_region_just_inside_the_overflow_bound_is_searched(self):
        # the largest retry reaches k = 1.212 + 1.06 im1 j, where the bound
        # (|k|^2 + 0.26 + 0.2 |k|) cosh(Im k) on |F| passes DBL_MAX between
        # im1 = 657.9 and 658
        assert secular_roots(0.5, 0.5, 0.1, (1.0, 1.2, 0.0, 657.9)) == []
        with pytest.raises(ValidationError, match="sin"):
            secular_roots(0.5, 0.5, 0.1, (1.0, 1.2, 0.0, 658.0))

    @pytest.mark.parametrize("fn", [secular_value, secular_derivative])
    def test_evaluation_where_sin_2ak_overflows_is_refused(self, fn):
        assert np.isfinite(fn(0.3 + 200j, A_HALF, 0.5, 0.1))
        for k in (300j, [1.0, 0.3 - 1e3j], 1e300 + 1e300j):
            with pytest.raises(ValidationError, match="sin"):
                fn(k, A_HALF, 0.5, 0.1)
        with pytest.raises(ValidationError, match="non-finite"):
            fn(math.inf, A_HALF, 0.5, 0.1)

    def test_evaluation_where_the_value_overflows_is_refused(self):
        # |F| is within its bound where F' is not, or 2ak itself overflows
        assert math.isfinite(abs(secular_value(1e5, 1e300, 0.5, 0.1)))
        with pytest.raises(ValidationError, match="overflows at k"):
            secular_derivative(1e5, 1e300, 0.5, 0.1)
        for fn in (secular_value, secular_derivative):
            with pytest.raises(ValidationError, match="overflows at k"):
                fn([1.0, 1e10 + 1e-300j], 1e300, 0.5, 0.1)
            with pytest.raises(ValidationError, match="sin"):
                fn(0.3 + 225j, A_HALF, 0.5, 0.1)  # returned -inf+nanj

    @pytest.mark.parametrize("alpha0", [1e154, 1e200])
    def test_coupling_whose_secular_function_overflows_is_refused(self, alpha0):
        # alpha0^2 + beta0^2 is finite for 1e154, but the bound on |F| is not
        with pytest.raises(ValidationError, match="sin"):
            secular_roots(A_HALF, alpha0, -0.05, (0.7, 1.3, -0.4, 0.4))

    def test_seeds_whose_secular_function_overflows_are_refused(self):
        with pytest.raises(ValidationError, match="sin"):
            branch_curves(A_HALF, 1e200, [-0.1, -0.05], [1.0 + 0.1j])
        with pytest.raises(ValidationError, match="sin"):
            branch_curves(A_HALF, 1.0, [-0.1, -0.05], [1.0 + 300j])
        # the bound on |F| holds at 1e154, the bound on |F'| does not
        with pytest.raises(ValidationError, match="F' may overflow"):
            branch_curves(A_HALF, 1e154, [-0.1, -0.05], [1.0 + 0.1j])

    def test_region_whose_derivative_may_overflow_is_refused(self):
        # |F| <= 1.0006e308 on the grown region, but |F'| may reach pi 1e308
        with pytest.raises(ValidationError, match="F' may overflow"):
            secular_roots(A_HALF, 1e154, -0.05, (0.7, 1.3, -0.01, 0.01))

    def test_derivative_bound_holds(self):
        # the a-priori bound on |F'| the root search checks is above |F'|
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, alpha0, beta0 = rng.uniform(0.05, 3.0), *rng.uniform(-3.0, 3.0, 2)
            k = complex(*rng.uniform(-30.0, 30.0, 2))
            r, c0 = abs(k), alpha0 * alpha0 + beta0 * beta0
            bound = ((2 * r + 2 * a * (r * r + c0) + 2 * abs(beta0)
                      + 4 * a * abs(beta0) * r) * math.cosh(2 * a * k.imag))
            assert abs(_make_secular(a, alpha0, beta0)[1](k)) <= bound * (1 + 1e-12)

    def test_overflow_in_newton_or_a_contour_is_uncertified(self):
        # Newton from k = 300j, and a contour at Im k = 400, meet
        # sin(2ak) beyond the double range
        f, fp = _make_secular(A_HALF, 0.5, 0.1)
        with pytest.raises(RootCertificationError, match="overflows"):
            _newton_refine(f, fp, 300j, 1, 1e-12)
        with pytest.raises(RootCertificationError, match="overflows"):
            _winding_number(f, (0.2, 2.4, 400.0, 401.0), 2.0 * A_HALF)

    def test_root_on_boundary_fails_after_retries(self):
        # k = 0.5 is an exact root sitting on the left edge
        with pytest.raises(RootCertificationError):
            secular_roots(A_HALF, 0.5, 0.0, (0.5, 1.5, -0.1, 0.1))


def bisect_to_iso(a, alpha0, beta0, region, tol=1e-12):
    """Reference: every cell, a simple one too, bisects to diagonal iso."""
    f, fp = _make_secular(a, alpha0, beta0)
    re0, re1, im0, im1 = region
    iso = max(1e-7, 1e-5 * math.hypot(re1 - re0, im1 - im0))

    def cells(rect, w):
        r0, r1, i0, i1 = rect
        if w == 0:
            return []
        if math.hypot(r1 - r0, i1 - i0) <= iso:
            centre = complex(0.5 * (r0 + r1), 0.5 * (i0 + i1))
            return [_newton_refine(f, fp, centre, w, tol)] * w
        for ratio in (0.5, 0.44, 0.56, 0.38, 0.62):
            if r1 - r0 >= i1 - i0:
                cut = r0 + ratio * (r1 - r0)
                halves = (r0, cut, i0, i1), (cut, r1, i0, i1)
            else:
                cut = i0 + ratio * (i1 - i0)
                halves = (r0, r1, i0, cut), (r0, r1, cut, i1)
            try:
                ws = [_winding_number(f, h, 2.0 * a) for h in halves]
            except RootCertificationError:
                continue
            if sum(ws) == w:
                return cells(halves[0], ws[0]) + cells(halves[1], ws[1])
        raise RootCertificationError(f"could not split {rect}")

    roots = cells(region, _winding_number(f, region, 2.0 * a))
    return sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


class TestCertifiedSimpleCells:
    """A cell that winds once stops at its Newton root once a small box
    around the root winds once too; the bisection it replaces is the
    reference."""

    CRITERION_8 = (A_HALF, 1.0, -0.05, (0.7, 1.3, -0.4, 0.4))

    @pytest.mark.parametrize("beta0, region", [
        (-0.05, (0.7, 1.3, -0.4, 0.4)),
        (-0.001, (0.7, 1.3, -0.4, 0.4)),
        (-0.1, (0.7, 1.3, -0.4, 0.4)),
        (-0.05, (1.7, 2.3, -0.2, 0.2)),
        (0.0, (0.5, 3.5, -0.5, 0.5)),  # double root at k = 1
    ])
    def test_matches_bisection_to_iso(self, beta0, region):
        got = secular_roots(A_HALF, 1.0, beta0, region)
        ref = bisect_to_iso(A_HALF, 1.0, beta0, region)
        assert len(got) == len(ref) > 0
        for g, r in zip(got, ref):
            if abs(r - 1.0) < 1e-5 and beta0 == 0.0:
                assert abs(g - r) <= 1e-6
                for k in (g, r):
                    assert abs(secular_value(k, A_HALF, 1.0, beta0)) <= 1e-12
            else:
                assert abs(g - r) <= 1e-12

    def test_double_root_cell_refines_once_with_its_multiplicity(
            self, monkeypatch):
        # the real double root k = 1 at alpha0 = 1, beta0 = 0 ends in one
        # iso-size cell of winding 2, refined by one mult=2 Newton call
        mults = []

        def counted(f, fp, k0, mult, tol, **kw):
            mults.append(mult)
            return _newton_refine(f, fp, k0, mult, tol, **kw)

        monkeypatch.setattr(transversal, "_newton_refine", counted)
        roots = secular_roots(A_HALF, 1.0, 0.0, (0.9, 1.13, -0.1, 0.13))
        assert len(roots) == 2
        assert all(abs(k - 1.0) <= 1e-6 for k in roots)
        assert mults.count(2) == 1

    @pytest.mark.parametrize("region", [(0.93, 1.21, -0.17, 0.11),
                                        (0.5, 3.5, -0.5, 0.5),
                                        (0.9, 1.13, -0.1, 0.13)])
    def test_double_root_split_across_a_cut_is_one_root(self, region):
        # k = 1 is a real double root at alpha0 = 1, beta0 = 0; in the first
        # two regions a cut passes about 1e-7 from it, and rounding once left
        # two distinct complex roots there, one in each half
        roots = secular_roots(A_HALF, 1.0, 0.0, region)
        near = [k for k in roots if abs(k - 1.0) <= 1e-6]
        assert len(near) == 2 and near[0] == near[1]
        assert abs(secular_value(near[0], A_HALF, 1.0, 0.0)) <= 1e-12

    def test_newton_stall_raises(self):
        # F' = 0 ends Newton at once, with |F| = 1 above tol
        with pytest.raises(RootCertificationError, match="stalled"):
            _newton_refine(lambda k: 1.0, lambda k: 0.0, 1.0, 1, 1e-12)

    def test_newton_leaving_its_cell_falls_back_to_bisection(self, monkeypatch):
        # the first simple cell is the lower half of the region; Newton is
        # made to land on the conjugate root, a root of F in the upper half
        expect = secular_roots(*self.CRITERION_8)
        strays = []

        def stray_once(f, fp, k0, mult, tol, **kw):
            k = _newton_refine(f, fp, k0, mult, tol, **kw)
            if not strays:
                strays.append(k.conjugate())
                return k.conjugate()
            return k

        monkeypatch.setattr(transversal, "_newton_refine", stray_once)
        got = secular_roots(*self.CRITERION_8)
        assert len(strays) == 1 and strays[0].imag > 0
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert abs(g - e) <= 1e-12

    def test_criterion_8_region_needs_few_evaluations(self, monkeypatch):
        calls = []

        def counted(*args):
            f, fp = _make_secular(*args)

            def f_counted(k):
                calls.append(k)
                return f(k)
            return f_counted, fp

        monkeypatch.setattr(transversal, "_make_secular", counted)
        assert len(secular_roots(*self.CRITERION_8)) == 2
        assert 0 < len(calls) <= 1000  # bisecting to iso took 10,454


class TestRoundingGate:
    """Newton stops at |F| <= max(tol, C phi(k)), phi a running bound on F's
    rounding error: where that bound passes tol, an absolute gate stalls on
    roots the winding boxes have already isolated."""

    DEFAULT = (0.7, 1.3, -0.4, 0.4)

    @pytest.mark.parametrize("alpha0, beta0, region, tol", [
        (1e3, -0.05, DEFAULT, 1e-12),  # |F| = 1.9e-10 at the root
        (1.0, 700.0, DEFAULT, 1e-12),
        (1.0, -0.05, DEFAULT, 1e-300),
        (1.0, -0.05, (0.7, 700.0, -0.4, 0.4), 1e-12),  # 701 roots
    ])
    def test_roots_above_an_absolute_tol_are_certified(self, alpha0, beta0,
                                                       region, tol):
        roots = secular_roots(A_HALF, alpha0, beta0, region, tol=tol)
        f, _ = _make_secular(A_HALF, alpha0, beta0)
        floor = _rounding_floor(A_HALF, alpha0, beta0)
        assert roots and any(abs(f(k)) > tol for k in roots)
        assert all(abs(f(k)) <= max(tol, floor(k)) for k in roots)
        # the first root's own box winds once around it
        k, h = roots[0], 1e-7
        assert _winding_number(f, (k.real - h, k.real + h, k.imag - h, k.imag + h),
                               2.0 * A_HALF) == 1

    def test_floor_stays_below_the_default_tol(self):
        # so default runs stop where the absolute gate stopped them
        roots = secular_roots(A_HALF, 1.0, -0.05, self.DEFAULT)
        floor = _rounding_floor(A_HALF, 1.0, -0.05)
        assert len(roots) == 2 and max(floor(k) for k in roots) < 1e-14

    def test_overflowing_bound_falls_back_to_tol(self):
        floor = _rounding_floor(A_HALF, 1e200, 0.0)
        assert floor(1.0 + 0j) == 0.0
        with pytest.raises(RootCertificationError, match="stalled"):
            _newton_refine(lambda k: 1.0, lambda k: 0.0, 1.0, 1, 1e-12, floor=floor)


# ---------------------------------------------------------------------------
# Branch continuation
# ---------------------------------------------------------------------------

class TestBranchCurves:
    def setup_method(self):
        self.seeds = secular_roots(A_HALF, 1.0, -0.1, (0.7, 1.3, -0.4, 0.4))
        third = secular_roots(A_HALF, 1.0, -0.1, (1.7, 2.3, -0.2, 0.2))
        assert len(self.seeds) == 2 and len(third) == 1
        self.seeds = list(self.seeds) + list(third)

    def test_rows_are_certified_roots(self):
        samples = [-0.1, -0.05, -0.01, -0.001]
        tables = branch_curves(A_HALF, 1.0, samples, self.seeds)
        assert len(tables) == 3
        for table in tables:
            assert [p.beta0 for p in table] == samples
            for p in table:
                assert abs(secular_value(p.k, A_HALF, 1.0, p.beta0)) <= 1e-12
                assert p.k_squared == p.k * p.k

    def test_pair_approaches_one_monotonically(self):
        samples = [-0.1, -0.05, -0.01, -0.001]
        tables = branch_curves(A_HALF, 1.0, samples, self.seeds)
        gaps = [abs(p.k - 1.0) for p in tables[0]]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02

    def test_conjugate_symmetry_of_pair(self):
        tables = branch_curves(A_HALF, 1.0, [-0.1, -0.05, -0.01, -0.001],
                               self.seeds)
        for p1, p2 in zip(tables[0], tables[1]):
            assert abs(p1.k.real - p2.k.real) < 1e-10
            assert abs(p1.k.imag + p2.k.imag) < 1e-10

    def test_third_branch_stays_real(self):
        tables = branch_curves(A_HALF, 1.0, [-0.1, -0.05, -0.01, -0.001],
                               self.seeds)
        for p in tables[2]:
            assert abs(p.k.imag) <= 1e-10

    def test_collision_at_zero_raises(self):
        with pytest.raises(NumericalError, match="collision"):
            branch_curves(A_HALF, 1.0, [-0.05, -0.025, 0.0], self.seeds[:2])

    def test_validation(self):
        with pytest.raises(ValidationError):
            branch_curves(A_HALF, 1.0, [-0.1], self.seeds)
        with pytest.raises(ValidationError):
            branch_curves(A_HALF, 1.0, [-0.1, -0.2, -0.15], self.seeds)
        with pytest.raises(ValidationError):
            branch_curves(A_HALF, 1.0, [-0.1, -0.05], [])
        with pytest.raises(ValidationError):
            branch_curves(A_HALF, 1.0, [-0.1, -0.05],
                          [self.seeds[0], self.seeds[0]])


# ---------------------------------------------------------------------------
# Longitudinal spectra
# ---------------------------------------------------------------------------

def half_line(lo):
    return RealLineSet((Interval(lo, math.inf, True, False),))


class TestLongitudinal:
    def test_zero_and_constant(self):
        ess, pts = longitudinal_spectrum(Zero())
        assert ess == half_line(0.0) and pts == ()
        ess, pts = longitudinal_spectrum(Constant(-2.5))
        assert ess == half_line(-2.5) and pts == ()

    def test_user_set_passthrough(self):
        base = half_line(1.0)
        ess, pts = longitudinal_spectrum(UserSet(base, (-3.0, -1.0)))
        assert ess == base and pts == (-3.0, -1.0)

    def _fd_bound_states(self, depth, width, L=16.0, n=32000):
        # align the potential jump midway between nodes to keep O(h^2)
        half = width / 2
        while abs(((L + half) * (n + 1) / (2 * L)) % 1.0 - 0.5) > 1e-9:
            n += 1
        h = 2 * L / (n + 1)
        x = -L + h * np.arange(1, n + 1)
        v = np.where(np.abs(x) < half, -depth, 0.0)
        d = 2 / h**2 + v
        e = np.full(n - 1, -1 / h**2)
        vals = scipy.linalg.eigvalsh_tridiagonal(
            d, e, select="v", select_range=(-depth, -1e-8))
        return vals

    def test_square_well_single_state_matches_fd(self):
        ess, pts = longitudinal_spectrum(SquareWell(1.0, 2.0))
        assert ess == half_line(0.0)
        assert len(pts) == 1
        fd = self._fd_bound_states(1.0, 2.0)
        assert len(fd) == 1
        assert abs(pts[0] - fd[0]) < 1e-6

    def test_square_well_two_states_match_fd(self):
        ess, pts = longitudinal_spectrum(SquareWell(4.0, 3.0))
        fd = self._fd_bound_states(4.0, 3.0)
        assert len(pts) == len(fd) == 2
        np.testing.assert_allclose(pts, fd, atol=1e-6)

    @staticmethod
    def _numpy_scalar_levels(depth, width):
        """The level scan over numpy scalars, as it ran before the grid
        became a list of Python floats."""
        L, qmax = 0.5 * width, math.sqrt(depth)

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
                    q = _bisect(g, lo, hi, vlo)
                    levels.append(q * q - depth)
        return sorted(levels)

    @pytest.mark.parametrize("depth", [0.05, 0.3, 1.0, 4.0, 25.0])
    @pytest.mark.parametrize("width", [0.1, 1.0, 2.0, 3.0, 7.5])
    def test_square_well_levels_match_numpy_scalar_scan(self, depth, width):
        got = longitudinal_spectrum(SquareWell(depth, width))[1]
        want = self._numpy_scalar_levels(depth, width)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_square_well_validation(self):
        with pytest.raises(ValidationError):
            longitudinal_spectrum(SquareWell(0.0, 1.0))
        with pytest.raises(ValidationError):
            longitudinal_spectrum(SquareWell(1.0, -1.0))

    def test_discretized_square_well(self):
        analytic = longitudinal_spectrum(SquareWell(1.0, 2.0))[1][0]
        L, n = 8.0, 8000
        h = 2 * L / (n + 1)
        x = -L + h * np.arange(1, n + 1)
        v = np.where(np.abs(x) < 1.0, -1.0, 0.0)
        ess, pts = longitudinal_spectrum(Discretized(v, L))
        assert ess == half_line(0.0)
        assert len(pts) == 1
        assert abs(pts[0] - analytic) < 5e-4

    def test_discretized_warns_when_boundary_not_flat(self):
        x = np.linspace(-2, 2, 200)
        with pytest.warns(UserWarning, match="constant near"):
            longitudinal_spectrum(Discretized(x ** 2, 2.0))

    def test_discretized_validation(self):
        with pytest.raises(ValidationError):
            longitudinal_spectrum(Discretized(np.zeros(4), 1.0))
        with pytest.raises(ValidationError):
            longitudinal_spectrum(Discretized(np.zeros(100), -1.0))

    def test_unknown_descriptor(self):
        with pytest.raises(ValidationError):
            longitudinal_spectrum(object())

    def test_square_well_bisection_matches_scipy_bitwise(self, monkeypatch):
        import scipy.optimize
        rng = np.random.default_rng(29)
        draws = [(rng.uniform(0.05, 40.0), rng.uniform(0.05, 5.0))
                 for _ in range(12)]
        ours = [transversal._square_well_levels(d, w) for d, w in draws]
        monkeypatch.setattr(
            transversal, "_bisect", lambda f, lo, hi, flo:
            scipy.optimize.bisect(f, lo, hi, xtol=1e-14))
        theirs = [transversal._square_well_levels(d, w) for d, w in draws]
        assert sum(map(len, ours)) > 30
        assert all(type(q) is float for levels in ours for q in levels)
        assert ours == theirs

    def test_bisection_cap_raises(self):
        assert _bisect(lambda x: x - 0.3, 0.0, 1.0, -0.3) == pytest.approx(0.3)
        # halving 1e30 down to the 1e-14 tolerance takes over 100 steps
        with pytest.raises(NumericalError, match="did not converge"):
            _bisect(lambda x: x - 0.3, 0.0, 1e30, -0.3)

    def test_import_leaves_scipy_optimize_out(self):
        code = "import sys, kreinspec; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# M-set decomposition
# ---------------------------------------------------------------------------

class TestWaveguideMSets:
    def test_free_guide_reference(self):
        dec = waveguide_m_sets(A_HALF, 0.5, longitudinal_spectrum(Zero()),
                               window_max=20.0)
        assert dec.sigma_pp == RealLineSet((Interval(0.25, 1.0, True, False),))
        assert dec.sigma_mm.is_empty
        assert dec.sigma_00 == half_line(1.0)
        assert dec.exceptional == frozenset()
        assert dec.mu[0] == 0.25

    def test_exceptional_guide_reference(self):
        dec = waveguide_m_sets(A_HALF, 1.0, longitudinal_spectrum(Zero()),
                               window_max=20.0)
        assert dec.sigma_pp.is_empty
        assert dec.sigma_mm.is_empty
        assert dec.sigma_00 == half_line(1.0)
        assert dec.exceptional == frozenset({0, 1})

    def test_square_well_layer_structure(self):
        long = longitudinal_spectrum(SquareWell(1.0, 2.0))
        e0 = long[1][0]
        dec = waveguide_m_sets(A_HALF, 0.5, long, window_max=12.0)
        assert dec.sigma_pp.contains(0.25 + e0)
        assert dec.sigma_pp.contains(0.3)
        assert dec.sigma_mm.is_empty
        # the shifted negative threshold overlaps the positive half line
        assert dec.sigma_00.contains(1.0 + e0)
        assert not dec.sigma_pp.contains(1.0 + e0)

    def test_partition_invariants(self):
        cases = [
            (0.5, longitudinal_spectrum(Zero())),
            (1.0, longitudinal_spectrum(Zero())),
            (0.8, longitudinal_spectrum(SquareWell(1.0, 2.0))),
            (2.5, longitudinal_spectrum(Constant(-1.0))),
        ]
        for alpha0, long in cases:
            dec = waveguide_m_sets(A_HALF, alpha0, long, window_max=15.0)
            assert dec.sigma_pp.intersect(dec.sigma_mm).is_empty
            assert dec.sigma_pp.intersect(dec.sigma_00).is_empty
            assert dec.sigma_mm.intersect(dec.sigma_00).is_empty

    def test_union_is_total_m_set_against_grid_oracle(self):
        long = longitudinal_spectrum(SquareWell(1.0, 2.0))
        ess, pts = long
        r_set = ess.union(RealLineSet.from_points(pts))
        dec = waveguide_m_sets(A_HALF, 0.5, long, window_max=10.0)
        modes = transversal_modes(A_HALF, 0.5, 12)
        union = dec.sigma_pp.union(dec.sigma_mm).union(dec.sigma_00)
        by_type = {
            SpectralType.POSITIVE: [m.lam for m in modes
                                    if m.type is SpectralType.POSITIVE],
            SpectralType.NEGATIVE: [m.lam for m in modes
                                    if m.type is SpectralType.NEGATIVE],
        }
        for x in np.linspace(-1.0371, 9.5, 803):
            in_p = any(r_set.contains(x - lam)
                       for lam in by_type[SpectralType.POSITIVE])
            in_m = any(r_set.contains(x - lam)
                       for lam in by_type[SpectralType.NEGATIVE])
            assert union.contains(x) == (in_p or in_m)
            assert dec.sigma_pp.contains(x) == (in_p and not in_m)
            assert dec.sigma_mm.contains(x) == (in_m and not in_p)
            assert dec.sigma_00.contains(x) == (in_p and in_m)

    def test_window_exceeding_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            waveguide_m_sets(A_HALF, 0.5, longitudinal_spectrum(Zero()),
                             window_max=50.0, n_modes=2)
        with pytest.raises(ValidationError, match="finite"):
            waveguide_m_sets(A_HALF, 0.5, longitudinal_spectrum(Zero()),
                             window_max=math.inf)

    def test_unbounded_longitudinal_rejected(self):
        whole = RealLineSet.whole_line()
        with pytest.raises(ValidationError):
            waveguide_m_sets(A_HALF, 0.5, (whole, ()), window_max=5.0)
        empty = RealLineSet.empty()
        with pytest.raises(ValidationError):
            waveguide_m_sets(A_HALF, 0.5, (empty, ()), window_max=5.0)

    def test_json_roundtrip(self):
        dec = waveguide_m_sets(A_HALF, 1.0, longitudinal_spectrum(Zero()),
                               window_max=20.0)
        obj = dec.to_json_obj()
        assert obj["schema"] == "kreinspec/waveguide-decomposition-v1"
        assert RealLineSet.from_json_obj(obj["sigma_00"]) == dec.sigma_00
        assert RealLineSet.from_json_obj(obj["sigma_pp"]) == dec.sigma_pp
        assert obj["exceptional"] == [0, 1]
        assert obj["window_max"] == 20.0
