"""Tests for the spectral-type classification core.

Contour projections are checked against an independent eigendecomposition
route, and classifications against instances constructed in canonical
coordinates (where the answer is known by inspection) and then mixed with
J-unitary maps, which preserve every quantity under test.
"""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from kreinspec import (
    ClassifiedSpectrum,
    ContourError,
    Discretized,
    GridSpec,
    Involution,
    NumericalError,
    SpectralType,
    SquareWell,
    ValidationError,
    assemble_waveguide,
    branch_curves,
    build_phi,
    classify_point,
    classify_spectrum,
    definiteness_constants,
    eigs_near,
    j_self_adjoint_defect,
    kron_sum,
    longitudinal_spectrum,
    mode_function,
    predict_types,
    pseudospectrum_map,
    realness_report,
    riesz_projection,
    robin_fd,
    secular_roots,
    theta_operator,
    transversal_modes,
    validate_involution,
)
from kreinspec import krein, tensorsum, waveguide2d
from kreinspec.krein import (_classified_roots, _cluster_eigenvalues,
                             _factorization, _norm2)
from kreinspec.tensorsum import (_CAMPAIGN_CYCLE, _campaign_instance,
                                 make_factor_spec)

FLIP2 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIG2 = np.diag([1.0, -1.0])


def oracle_projection(T, center, radius):
    """Independent route: eigendecomposition indicator projection."""
    w, V = np.linalg.eig(np.asarray(T, dtype=complex))
    inside = (np.abs(w - center) < radius).astype(complex)
    return V @ np.diag(inside) @ np.linalg.inv(V)


def hyperbolic(t):
    """J-unitary mixing for J = diag(1, -1)."""
    c, s = math.cosh(t), math.sinh(t)
    return np.array([[c, s], [s, c]])


def random_diagonalizable(rng, n):
    """Matrix with well-separated integer-lattice eigenvalues and cond(V) <= 4."""
    lattice = rng.choice(np.arange(-6, 7), size=n, replace=False).astype(complex)
    lattice += 1j * rng.choice(np.arange(-6, 7), size=n, replace=False)
    Q1 = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    V = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q2
    return V @ np.diag(lattice) @ np.linalg.inv(V), lattice


class TestValidateInvolution:
    def test_accepts_standard_involutions(self):
        for J in (np.eye(3), np.diag([1.0, -1.0, 1.0]), FLIP2):
            invol = validate_involution(J)
            assert invol.n == J.shape[0]

    def test_accepts_householder(self):
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        J = np.eye(3) - 2.0 * np.outer(v, v)
        validate_involution(J)

    def test_accepts_sparse(self):
        J = scipy.sparse.diags([1.0, -1.0, -1.0, 1.0]).tocsr()
        assert validate_involution(J).n == 4

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            validate_involution(np.array([[1.0, 1.0], [0.0, -1.0]]))

    def test_rejects_noninvolution(self):
        with pytest.raises(ValidationError, match="not an involution"):
            validate_involution(2.0 * np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError, match="square"):
            validate_involution(np.ones((2, 3)))

    def test_tolerance_is_respected(self):
        J = (1.0 + 1e-6) * np.eye(2)
        with pytest.raises(ValidationError):
            validate_involution(J, tol=1e-10)
        validate_involution(J, tol=1e-4)


def test_built_involutions_are_not_measured(monkeypatch):
    # kron_sum and assemble_waveguide know their J from its structure, so
    # they take no norm of it: no SVD, no sparse norm, no validate_involution
    f1, f2 = _campaign_instance(np.random.default_rng(5), "definite")
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((np.linalg, "svd"), (scipy.linalg, "svd"),
                         (scipy.linalg, "svdvals"), (waveguide2d, "svdvals"),
                         (scipy.sparse.linalg, "norm"),
                         (krein, "validate_involution"),
                         (tensorsum, "validate_involution")):
        spy(module, name)
    S, J = kron_sum(f1, f2)
    op = assemble_waveguide(GridSpec(a=math.pi / 2, Lx=5.0, nx=12, ny=8),
                            lambda x: 0.5j, lambda x, y: 0.0)
    assert calls == []
    assert J.tol == 4 * max(f1.j.tol, f2.j.tol) and op.J.tol == 1e-10


# each entry point refuses a NaN or inf in T or J (sparse: stored entries)
NONFINITE_CALLS = {
    "validate_involution": ("J", lambda T, J: validate_involution(J)),
    "validate_involution-sparse": (
        "J", lambda T, J: validate_involution(scipy.sparse.csr_matrix(J))),
    "j_self_adjoint_defect-T": ("T", j_self_adjoint_defect),
    "j_self_adjoint_defect-J": ("J", j_self_adjoint_defect),
    "make_factor_spec-T": ("T", make_factor_spec),
    "make_factor_spec-J": ("J", make_factor_spec),
    "classify_point-T": ("T", lambda T, J: classify_point(T, J, 1.0)),
    "classify_point-J": ("J", lambda T, J: classify_point(T, J, 1.0)),
    "classify_spectrum-T": ("T", classify_spectrum),
    "classify_spectrum-J": ("J", classify_spectrum),
    "riesz_projection": ("T", lambda T, J: riesz_projection(T, 0.0, 1.5)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", sorted(NONFINITE_CALLS))
def test_non_finite_matrix_is_a_validation_error(case, bad):
    where, call = NONFINITE_CALLS[case]
    T, J = np.diag([1.0, 2.0]), np.diag([1.0, -1.0])
    (T if where == "T" else J)[1, 1] = bad
    with pytest.raises(ValidationError, match=f"{where} has a non-finite entry"):
        call(T, J)


# the other public boundaries refuse a NaN or inf, in a matrix entry or a
# scalar argument, before any numpy or scipy routine sees it
NONFINITE_INPUTS = {
    "theta_operator": lambda M, x: theta_operator([M, np.diag([0.0, 1.0])]),
    "definiteness_constants": lambda M, x: definiteness_constants(
        M, [[1.0], [0.0]], np.zeros((2, 0))),
    "build_phi": lambda M, x: build_phi(M, np.eye(2)),
    "longitudinal_spectrum": lambda M, x: longitudinal_spectrum(
        Discretized(np.full(10, x), 5.0)),
    "robin_fd": lambda M, x: robin_fd(1.0, complex(x, 1.0), 5),
    "secular_roots": lambda M, x: secular_roots(x, 0.5, 0.1,
                                                (0.2, 2.4, -0.1, 0.1)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("site", sorted(NONFINITE_INPUTS))
def test_non_finite_input_is_a_validation_error(site, bad):
    with pytest.raises(ValidationError, match="finite"):
        NONFINITE_INPUTS[site](np.diag([1.0, bad]), bad)


# the engine behind classify_point, classify_spectrum and make_factor_spec
# refuses each malformed argument before it reaches numpy or scipy
def _nan_entry(ev):
    ev = ev.copy()
    ev[3] = math.nan
    return ev


BAD_ENGINE_ARGUMENTS = {
    "nan-query": lambda T, J, ev: classify_point(T, J, complex(math.nan, 0.0)),
    "inf-query": lambda T, J, ev: classify_point(T, J, math.inf),
    "nan-point": lambda T, J, ev: classify_spectrum(T, J, points=[ev[0], math.nan]),
    "short-eigvals": lambda T, J, ev: classify_spectrum(T, J, eigvals=ev[:-1]),
    "column-eigvals": lambda T, J, ev: classify_point(T, J, ev[0], eigvals=ev[:, None]),
    "nan-eigvals": lambda T, J, ev: classify_spectrum(T, J, eigvals=_nan_entry(ev)),
    "negative-tol": lambda T, J, ev: classify_point(T, J, ev[0], tol=-1.0),
    "nan-tol": lambda T, J, ev: make_factor_spec(T, J, tol=math.nan),
    "inf-tol": lambda T, J, ev: classify_spectrum(T, J, tol=math.inf),
    "negative-gap": lambda T, J, ev: classify_spectrum(T, J, cluster_gap=-1e-8),
    "nan-gap": lambda T, J, ev: make_factor_spec(T, J, cluster_gap=math.nan),
    "inf-gap": lambda T, J, ev: classify_point(T, J, ev[0], cluster_gap=math.inf),
}


@pytest.mark.parametrize("case", sorted(BAD_ENGINE_ARGUMENTS))
def test_malformed_engine_argument_is_a_validation_error(case):
    T, J = robin_fd(math.pi / 2, 1.7j, 21)
    eigvals = np.linalg.eigvals(T)
    with pytest.raises(ValidationError, match="finite|shape"):
        BAD_ENGINE_ARGUMENTS[case](T, J, eigvals)


# a NaN, infinite or negative tolerance would pass every check it gates;
# each input here is refused at a valid tolerance
def _factor():
    return make_factor_spec(np.diag([1.0, 2.0]), SIG2)


BAD_TOLERANCES = {
    "validate_involution": lambda tol: validate_involution(2.0 * np.eye(2), tol=tol),
    "theta_operator": lambda tol: theta_operator([np.eye(2), np.eye(2)], tol=tol),
    "build_phi": lambda tol: build_phi(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                       np.eye(2), tol=tol),
    "definiteness_constants": lambda tol: definiteness_constants(
        SIG2, [[0.0], [1.0]], np.zeros((2, 0)), tol=tol),
    "predict_types": lambda tol: predict_types(_factor(), _factor(),
                                               separation_radius=tol),
    "make_factor_spec": lambda tol: make_factor_spec(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), tol=tol),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("site", sorted(BAD_TOLERANCES))
def test_bad_tolerance_is_a_validation_error(site, bad):
    with pytest.raises(ValidationError, match="must be finite and non-negative"):
        BAD_TOLERANCES[site](bad)


def test_involution_tolerance_must_be_below_one():
    # at tol = 1 the zero matrix has ||J - J*|| = 0 and ||J^2 - I|| = 1
    with pytest.raises(ValidationError, match="below 1"):
        validate_involution(np.zeros((2, 2)), tol=1.0)
    assert validate_involution(np.eye(2), tol=0.0).tol == 0.0


def test_negative_tol_is_refused_not_read_as_a_type():
    # at tol = -1 every Gram eigenvalue would be "above -tol", so the
    # negative eigenvalue near 153.28 would read as positive type
    T, J = robin_fd(math.pi / 2, 1.7j, 21)
    eigvals = np.linalg.eigvals(T)
    lam = eigvals[np.argmin(np.abs(eigvals - 153.28))]
    assert classify_point(T, J, lam).type is SpectralType.NEGATIVE
    with pytest.raises(ValidationError, match="tol must be finite and non-negative"):
        classify_point(T, J, lam, tol=-1.0)


# a NaN or inf tolerance, a NaN or inf scalar argument, and a count that is
# not an integer are each refused at the public boundary, not met later as
# a silent result, a numerical failure or a TypeError
def _strip():
    return assemble_waveguide(GridSpec(a=1.0, Lx=1.0, nx=8, ny=8),
                              lambda x: 0.5j, lambda x, y: 0.0)


REFUSED_INPUTS = {
    "involution-nan-tol": lambda: make_factor_spec(
        np.diag([1.0, 2.0]), Involution(np.eye(2, dtype=complex), math.nan)),
    "involution-inf-tol": lambda: Involution(np.eye(2), math.inf),
    "involution-negative-tol": lambda: Involution(np.eye(2), -1e-10),
    "eigs_near-nan-target": lambda: eigs_near(_strip(), math.nan, 3),
    "realness_report-nan-tol": lambda: realness_report(
        [(0.5 + 0.3j, 0.0)], (0, 1), math.nan),
    "realness_report-inf-tol": lambda: realness_report(
        [(0.5 + 0.3j, 0.0)], (0, 1), math.inf),
    "square-well-nan-depth": lambda: longitudinal_spectrum(SquareWell(math.nan, 1.0)),
    "square-well-inf-width": lambda: longitudinal_spectrum(SquareWell(1.0, math.inf)),
    "secular_roots-nan-tol": lambda: secular_roots(
        math.pi / 2, 1.0, -0.05, (0.7, 1.3, -0.4, 0.4), tol=math.nan),
    "branch_curves-nan-alpha0": lambda: branch_curves(
        math.pi / 2, math.nan, [0.0, 0.1], [1.0]),
    "branch_curves-nan-seed": lambda: branch_curves(
        math.pi / 2, 1.0, [0.0, 0.1], [complex(math.nan, 0.0)]),
    "branch_curves-negative-a": lambda: branch_curves(
        -1.0, 1.0, [0.0, 0.1], [1.0]),
    "branch_curves-inf-tol": lambda: branch_curves(
        math.pi / 2, 1.0, [0.0, 0.1], [1.0], tol=math.inf),
    "robin_fd-n": lambda: robin_fd(1.0, 1j, 5.5),
    "grid-nx": lambda: assemble_waveguide(
        GridSpec(a=1, Lx=1, nx=8.5, ny=8), lambda x: 0.5j, lambda x, y: 0.0),
    "grid-x-boundary": lambda: GridSpec(
        a=1.0, Lx=1.0, nx=8, ny=8, x_boundary="bogus").validate(),
    "transversal_modes-N": lambda: transversal_modes(math.pi / 2, 0.5, 5.5),
    "eigs_near-k": lambda: eigs_near(_strip(), 0.3, 2.5),
    "pseudospectrum_map-mx": lambda: pseudospectrum_map(
        _strip(), (0.0, 1.0, -0.5, 0.5), 2.5, 2),
    "riesz_projection-nodes": lambda: riesz_projection(
        np.diag([1.0, 2.0]), 1.0, 0.5, nodes=20.5),
    # a tolerance a result must meet is positive: at 0, Newton stalls at
    # |F| = 5.9e-17 and the residual gate at 1.3e-15, as numerical failures
    "branch_curves-zero-tol": lambda: branch_curves(
        math.pi / 2, 1.0, [-0.1, -0.05], [1.2 + 0.3j], tol=0.0),
    "eigs_near-zero-tol": lambda: eigs_near(_strip(), 0.3, 2, tol=0.0),
    "eigs_near-nan-tol": lambda: eigs_near(_strip(), 0.3, 2, tol=math.nan),
    "mode_function-nan-a": lambda: mode_function(
        transversal_modes(math.pi / 2, 0.5, 3)[0], math.nan, [0.0]),
    # 2/h^2 of the grid step underflows or overflows: ZeroDivisionError and
    # OverflowError before the shared grid-step check
    "discretized-tiny-half-length": lambda: longitudinal_spectrum(
        Discretized(np.zeros(10), 1e-300)),
    "discretized-huge-half-length": lambda: longitudinal_spectrum(
        Discretized(np.zeros(10), 1e300)),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_malformed_public_input_is_a_validation_error(case):
    with pytest.raises(ValidationError):
        REFUSED_INPUTS[case]()


class TestDefect:
    def test_rejects_shape_mismatch(self):
        # dense, sparse or mixed, never numpy's or scipy's own error
        for T in (np.eye(2), scipy.sparse.eye(2, format="csr")):
            for J in (np.eye(3), scipy.sparse.eye(3, format="csr")):
                with pytest.raises(ValidationError, match="shape mismatch"):
                    j_self_adjoint_defect(T, J)

    def test_hermitian_with_identity(self):
        A = np.array([[2.0, 1.0 + 1j], [1.0 - 1j, 5.0]])
        assert j_self_adjoint_defect(A, np.eye(2)) < 1e-14

    def test_jordan_block_flip(self):
        T = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert j_self_adjoint_defect(T, FLIP2) < 1e-14

    def test_known_defect_value(self):
        T = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert j_self_adjoint_defect(T, np.eye(2)) == pytest.approx(1.0)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(7)
        T = rng.standard_normal((5, 5))
        J = np.diag([1.0, -1.0, 1.0, 1.0, -1.0])
        dense = j_self_adjoint_defect(T, J)
        sparse = j_self_adjoint_defect(scipy.sparse.csr_matrix(T),
                                       scipy.sparse.csr_matrix(J))
        # sparse route uses the Frobenius norm, an upper bound
        assert sparse >= dense - 1e-12

    def test_constructed_jsa_has_tiny_defect(self):
        U = hyperbolic(0.8)
        T = U @ np.diag([1.0, 4.0]) @ np.linalg.inv(U)
        assert j_self_adjoint_defect(T, SIG2) < 1e-12


class TestRieszProjection:
    def test_matches_eigendecomposition_route(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = rng.integers(2, 10)
            T, lattice = random_diagonalizable(rng, int(n))
            center = lattice[0]
            gaps = np.abs(lattice[1:] - center)
            radius = 0.4 * gaps.min() if len(gaps) else 0.5
            P = riesz_projection(T, center, radius, nodes=64, eigvals=lattice)
            Q = oracle_projection(T, center, radius)
            assert np.linalg.norm(P - Q, 2) < 1e-8
            assert np.linalg.norm(P @ P - P, 2) < 1e-8
            assert np.linalg.norm(P @ T - T @ P, 2) < 1e-7
            assert abs(np.trace(P) - 1.0) < 1e-9

    def test_empty_and_full_contours(self):
        T = np.diag([1.0, 2.0, 3.0])
        near_nothing = riesz_projection(T, center=-5.0, radius=1.0)
        assert np.linalg.norm(near_nothing, 2) < 1e-12
        everything = riesz_projection(T, center=2.0, radius=10.0)
        assert np.linalg.norm(everything - np.eye(3), 2) < 1e-12

    def test_jordan_block_projects_to_identity(self):
        T = np.array([[1.0, 1.0], [0.0, 1.0]])
        P = riesz_projection(T, center=1.0, radius=0.5)
        assert np.linalg.norm(P - np.eye(2), 2) < 1e-10

    def test_node_refinement_converges(self):
        # eigenvalue just outside the contour: 16 nodes is too coarse,
        # 512 resolves it
        T = np.diag([0.0, 1.25])
        radius = 1.0
        err16 = np.linalg.norm(
            riesz_projection(T, 0.0, radius, nodes=16) - np.diag([1.0, 0.0]), 2)
        err512 = np.linalg.norm(
            riesz_projection(T, 0.0, radius, nodes=512) - np.diag([1.0, 0.0]), 2)
        assert err512 < 1e-8 < err16

    def test_rejects_eigenvalue_on_contour(self):
        T = np.diag([0.0, 1.0])
        with pytest.raises(ContourError, match="contour"):
            riesz_projection(T, 0.0, 1.0, eigvals=np.array([0.0, 1.0]))

    def test_rejects_bad_arguments(self):
        T = np.eye(2)
        with pytest.raises(ValidationError, match="16"):
            riesz_projection(T, 0.0, 1.0, nodes=8)
        with pytest.raises(ValidationError, match="radius"):
            riesz_projection(T, 0.0, -1.0)
        with pytest.raises(ValidationError, match="radius"):
            riesz_projection(T, 0.0, math.inf)
        with pytest.raises(ValidationError, match="square"):
            riesz_projection(np.ones((2, 3)), 0, 1)


class TestClassifyPoint:
    def test_definite_diagonal_case(self):
        T = np.diag([2.0, 3.0])
        e2 = classify_point(T, SIG2, 2.0)
        assert e2.type is SpectralType.POSITIVE
        assert (e2.alg_mult, e2.geo_mult) == (1, 1)
        assert e2.gram_eigs == pytest.approx([1.0])
        e3 = classify_point(T, SIG2, 3.0)
        assert e3.type is SpectralType.NEGATIVE
        assert e3.gram_eigs == pytest.approx([-1.0])

    def test_jordan_block_is_not_definite(self):
        T = np.array([[1.0, 1.0], [0.0, 1.0]])
        entry = classify_point(T, FLIP2, 1.0)
        assert entry.type is SpectralType.NOT_DEFINITE
        assert entry.alg_mult == 2
        assert entry.geo_mult == 1
        assert entry.gram_eigs == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_hermitian_operator_is_positive_everywhere(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 5))
        A = A + A.T
        for lam in np.linalg.eigvalsh(A):
            assert classify_point(A, np.eye(5), lam).type is SpectralType.POSITIVE

    def test_nonreal_pair_is_neutral(self):
        T = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert j_self_adjoint_defect(T, SIG2) < 1e-14
        entry = classify_point(T, SIG2, 2j)
        assert entry.type is SpectralType.NOT_DEFINITE
        assert entry.alg_mult == 1
        assert entry.gram_eigs == pytest.approx([0.0], abs=1e-9)

    def test_mixed_double_eigenvalue(self):
        T = np.diag([2.0, 2.0])
        entry = classify_point(T, SIG2, 2.0)
        assert entry.type is SpectralType.NOT_DEFINITE
        assert (entry.alg_mult, entry.geo_mult) == (2, 2)
        assert entry.gram_eigs == pytest.approx([-1.0, 1.0])

    def test_rejects_point_off_spectrum(self):
        with pytest.raises(ValidationError, match="not within tolerance"):
            classify_point(np.diag([2.0, 3.0]), SIG2, 2.5)

    def test_default_gap_merges_tight_cluster(self):
        T = np.diag([1.0, 1.0 + 1e-12, 5.0])
        J = np.eye(3)
        entry = classify_point(T, J, 1.0)
        assert entry.alg_mult == 2
        assert entry.type is SpectralType.POSITIVE

    def test_tiny_gap_cannot_be_isolated(self):
        T = np.diag([1.0, 1.0 + 1e-12, 5.0])
        with pytest.raises(ContourError, match="isolate"):
            classify_point(T, np.eye(3), 1.0, cluster_gap=1e-15)

    def test_j_unitary_mixing_preserves_types(self):
        U = hyperbolic(0.7)
        T = U @ np.diag([1.0, 2.0]) @ np.linalg.inv(U)
        assert classify_point(T, SIG2, 1.0).type is SpectralType.POSITIVE
        assert classify_point(T, SIG2, 2.0).type is SpectralType.NEGATIVE

    def test_global_unitary_conjugation_preserves_types(self):
        rng = np.random.default_rng(11)
        W = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        U = hyperbolic(0.5)
        T = W @ U @ np.diag([1.0, 2.0]) @ np.linalg.inv(U) @ W.conj().T
        J = W @ SIG2 @ W.conj().T
        validate_involution(J)
        assert j_self_adjoint_defect(T, J) < 1e-12
        assert classify_point(T, J, 1.0).type is SpectralType.POSITIVE
        assert classify_point(T, J, 2.0).type is SpectralType.NEGATIVE

    def test_precomputed_eigenvalues_give_same_answer(self):
        T = np.diag([2.0, 3.0])
        direct = classify_point(T, SIG2, 2.0)
        seeded = classify_point(T, SIG2, 2.0, eigvals=np.array([2.0, 3.0]))
        assert direct.type is seeded.type
        assert direct.alg_mult == seeded.alg_mult

    def test_scaling_invariance_of_types(self):
        scale = 1e6
        T = scale * np.diag([1.0, 2.0])
        assert classify_point(T, SIG2, scale).type is SpectralType.POSITIVE
        assert classify_point(T, SIG2, 2 * scale).type is SpectralType.NEGATIVE

    def test_point_far_from_diagonal_accepted_by_sigma_min(self):
        # non-normal Jordan block: 1.001 is 1e-3 from the Schur diagonal,
        # far over the acceptance tolerance, but sigma_min(T - lam I) is
        # about 1e-8, so the query point still belongs to the spectrum
        T = np.array([[1.0, 100.0], [0.0, 1.0]])
        assert j_self_adjoint_defect(T, FLIP2) < 1e-14
        entry = classify_point(T, FLIP2, 1.001)
        assert entry.type is SpectralType.NOT_DEFINITE
        assert (entry.alg_mult, entry.geo_mult) == (2, 1)


class TestClassifySpectrum:
    def build_six_dim(self):
        # canonical blocks: positive simple, negative simple, Jordan pair,
        # non-real rotation pair
        T = scipy.linalg.block_diag(
            np.array([[-2.0]]),
            np.array([[3.0]]),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.array([[0.0, 2.0], [-2.0, 0.0]]),
        )
        J = scipy.linalg.block_diag(np.eye(1), -np.eye(1), FLIP2, SIG2)
        return T, J

    def test_full_classification(self):
        T, J = self.build_six_dim()
        assert j_self_adjoint_defect(T, J) < 1e-14
        result = classify_spectrum(T, J)
        assert isinstance(result, ClassifiedSpectrum)
        assert len(result) == 5
        lams = [complex(e.lam) for e in result]
        assert lams == pytest.approx([-2.0, -2j, 2j, 1.0, 3.0])
        types = [e.type for e in result]
        assert types == [
            SpectralType.POSITIVE,
            SpectralType.NOT_DEFINITE,
            SpectralType.NOT_DEFINITE,
            SpectralType.NOT_DEFINITE,
            SpectralType.NEGATIVE,
        ]
        jordan = result.entries[3]
        assert (jordan.alg_mult, jordan.geo_mult) == (2, 1)

    def test_points_argument_selects_clusters(self):
        T, J = self.build_six_dim()
        result = classify_spectrum(T, J, points=[1.0, 3.0])
        assert len(result) == 2
        assert result.points_of_type(SpectralType.NEGATIVE) == pytest.approx([3.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="incompatible shapes"):
            classify_spectrum(np.eye(2), np.eye(3))

    def test_empty_matrix_has_no_clusters(self):
        assert len(classify_spectrum(np.zeros((0, 0)), np.zeros((0, 0)))) == 0

    def test_points_of_type_helper(self):
        T, J = self.build_six_dim()
        result = classify_spectrum(T, J)
        assert result.points_of_type(SpectralType.POSITIVE) == pytest.approx([-2.0])
        assert len(result.points_of_type(SpectralType.NOT_DEFINITE)) == 3
        assert result.all_points.shape == (5,)


def union_find_clusters(eigvals, gap):
    """Reference: pairwise union-find over all pairs within ``gap``."""
    m = len(eigvals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigvals[i] - eigvals[j]) <= gap:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def dense_clusters(eigvals, gap):
    """Reference: the n x n distance table as a graph, its connected
    components split by a stable argsort of the labels, lowest index first."""
    e = np.asarray(eigvals)
    if e.size == 0:
        return []
    close = scipy.sparse.csr_array(np.abs(e[:, None] - e[None, :]) <= gap)
    _, labels = scipy.sparse.csgraph.connected_components(close, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(groups, key=lambda g: g[0])


def cluster_case(rng, kind):
    """One seeded clustering input of the given kind, n up to 300."""
    n = int(rng.integers(1, 301 if rng.random() < 0.05 else 40))
    if kind == "shifted lattice":  # re + gap rounds at these magnitudes
        step = rng.choice([0.1, 0.25, 0.3, 0.7])
        e = 10.0 ** rng.uniform(3, 6) * rng.choice([-1, 1]) + step * (
            rng.integers(-8, 9, n) + 1j * rng.integers(-2, 3, n))
        return e, float(step * rng.choice([0, 1, 2]))
    if kind == "lattice across zero":  # re_b - re_a rounds too
        step = rng.choice([0.1, 0.3, 0.7, 1 / 3]) * 10.0 ** rng.integers(-3, 7)
        e = step * (rng.integers(-4, 5, n) + rng.choice([0.1, 0.3, 0.7])
                    + 1j * rng.integers(-1, 2, n))
        return e, float(step * rng.choice([1, 2]))
    if kind == "duplicates":
        return rng.integers(-3, 4, n) + 1j * rng.integers(-1, 2, n), 0.0
    if kind == "nan and inf":
        e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bad = rng.random(n) < 0.2
        e[bad] = rng.choice([np.nan, np.inf, -np.inf, complex(np.nan, 1),
                             complex(1, np.inf)], int(bad.sum()))
        return e, float(rng.uniform(0, 0.5))
    if kind == "vertical line":  # every pair is a candidate
        return 2.0 + 0.25j * rng.integers(-20, 21, n), 0.25 * int(rng.integers(3))
    e = 10 * rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return e, float(10 ** rng.uniform(-3, 0.5))


class TestClusterEigenvalues:
    def test_ties_at_gap_are_linked(self):
        e = np.array([0.0, 2.0, 0.5, 0.5j, 1.5])
        groups = _cluster_eigenvalues(e, 0.5)
        assert [g.tolist() for g in groups] == [[0, 2, 3], [1, 4]]

    def test_tie_across_zero_needs_the_ulp_padding(self):
        # re_a + gap rounds below re_b although |e_b - e_a| == gap exactly
        e = np.array([-9e-05, 1e-05])
        assert e[0] + 1e-4 < e[1] and abs(e[1] - e[0]) <= 1e-4
        assert [g.tolist() for g in _cluster_eigenvalues(e, 1e-4)] == [[0, 1]]

    def test_matches_union_find(self):
        # points on a quarter lattice, so many pairs lie exactly gap apart
        rng = np.random.default_rng(13)
        for _ in range(60):
            m = int(rng.integers(1, 40))
            e = 0.25 * (rng.integers(-8, 9, m) + 1j * rng.integers(-2, 3, m))
            for gap in (0.0, 0.25, 0.5):
                got = [g.tolist() for g in _cluster_eigenvalues(e, gap)]
                assert got == union_find_clusters(e, gap)

    @pytest.mark.parametrize("kind", ["shifted lattice", "lattice across zero",
                                      "duplicates", "nan and inf",
                                      "vertical line", "scattered"])
    def test_matches_dense_kernel_group_by_group(self, kind):
        rng = np.random.default_rng(list(kind.encode()))
        for _ in range(340):
            e, gap = cluster_case(rng, kind)
            with np.errstate(invalid="ignore"):  # inf - inf
                got, want = _cluster_eigenvalues(e, gap), dense_clusters(e, gap)
                assert [g.tolist() for g in want] == union_find_clusters(e, gap)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("case", ["robin", "campaign"])
    def test_classification_matches_dense_kernel_bitwise(self, monkeypatch,
                                                         case):
        if case == "robin":
            T, J = robin_fd(A_STRIP, 1.7j, 121)
        else:
            T, J = kron_sum(*_campaign_instance(np.random.default_rng(4), "big"))
        got = classify_spectrum(T, J)
        # a fresh slot: the held partition would answer without clustering
        monkeypatch.setattr(krein, "_factors", None)
        monkeypatch.setattr(krein, "_cluster_eigenvalues", dense_clusters)
        want = classify_spectrum(T, J)
        assert len(got) == len(want) == T.shape[0]
        assert all(same_entry(a, b) for a, b in zip(got, want))

    def test_empty(self):
        assert _cluster_eigenvalues(np.array([], dtype=complex), 1.0) == []


A_STRIP = math.pi / 2


def riesz_reference(T, Jm, center, radius, eigvals, tol=1e-8):
    """Slow exact path: contour projection, SVD range, Gram verdict."""
    inside = eigvals[np.abs(eigvals - center) < radius]
    P = riesz_projection(T, center, radius, nodes=64, eigvals=eigvals)
    alg = int(round(np.trace(P).real))
    assert alg == len(inside)
    B = np.linalg.svd(P)[0][:, :alg]
    G = B.conj().T @ Jm @ B
    gram = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    if np.all(gram > tol):
        t = SpectralType.POSITIVE
    elif np.all(gram < -tol):
        t = SpectralType.NEGATIVE
    else:
        t = SpectralType.NOT_DEFINITE
    mean = inside.mean()
    geo_tol = max(tol * max(1.0, _norm2(T)),
                  8.0 * np.max(np.abs(inside - mean)))
    sv = np.linalg.svd(T - mean * np.eye(T.shape[0]), compute_uv=False)
    geo = min(max(int(np.count_nonzero(sv <= geo_tol)), 1), alg)
    return t, alg, geo, P


class TestSchurAgainstRiesz:
    """The Schur-reordered engine against contour projections, cluster by
    cluster: same type and multiplicities, same root subspace.  Every
    spectrum here is simple, so each contour circles one eigenvalue."""

    def check(self, T, J, roots, eigvals):
        T = np.asarray(T, dtype=complex)
        Jm = np.asarray(getattr(J, "matrix", J), dtype=complex)
        for entry, B in roots:
            d_out = np.sort(np.abs(eigvals - entry.lam))[1]
            t, alg, geo, P = riesz_reference(T, Jm, entry.lam, 0.5 * d_out,
                                             eigvals)
            assert (entry.type, entry.alg_mult, entry.geo_mult) == (t, alg, geo)
            assert B.shape == (T.shape[0], alg)
            assert np.linalg.norm(B.conj().T @ B - np.eye(alg), 2) < 1e-12
            dist = np.linalg.norm(P - B @ (B.conj().T @ P), 2)
            assert dist <= 1e-8 * np.linalg.norm(P, 2)
            assert 0 < entry.s <= 1 + 1e-12 and entry.sep > 0

    @pytest.mark.parametrize("seed, dim, stride", [(3, 60, 1), (4, 144, 6)])
    def test_big_campaign_instances(self, seed, dim, stride):
        # generator seeds whose big campaign draw has product dimension 60
        # and 144; every 6th cluster of the 144 one keeps the test short
        f1, f2 = _campaign_instance(np.random.default_rng(seed), "big")
        S, J = kron_sum(f1, f2)
        assert S.shape == (dim, dim)
        roots = _classified_roots(S, J, cluster_gap=1e-6 * _norm2(S))
        assert len(roots) == dim
        self.check(S, J, roots[::stride], np.linalg.eigvals(S))

    def test_root_bases_own_their_memory(self):
        # a view would keep the whole reordered Schur vectors of its
        # cluster alive for as long as the basis
        S, J = kron_sum(*_campaign_instance(np.random.default_rng(3), "big"))
        roots = _classified_roots(S, J, cluster_gap=1e-6 * _norm2(S))
        assert len(roots) == 60
        assert all(B.flags.owndata for _, B in roots)

    @pytest.mark.parametrize("alpha0", [0.5, 1.7, 3.3])
    def test_robin_operator(self, alpha0):
        T, J = robin_fd(A_STRIP, 1j * alpha0, 121)
        eigvals = np.linalg.eigvals(T)
        modes = transversal_modes(A_STRIP, alpha0, 8)
        lams = [eigvals[np.argmin(np.abs(eigvals - m.lam))] for m in modes]
        roots = _classified_roots(T, J, points=lams, eigvals=eigvals)
        assert len(roots) == len(modes)
        self.check(T, J, roots, eigvals)
        assert [e.type for e, _ in roots] == [m.type for m in modes]


def same_entry(a, b):
    """Bitwise equality of every numeric field of two SpectrumEntry."""
    return (a.lam == b.lam and (a.alg_mult, a.geo_mult) == (b.alg_mult, b.geo_mult)
            and a.type is b.type and np.array_equal(a.gram_eigs, b.gram_eigs)
            and a.s == b.s and a.sep == b.sep)


class TestFactorizationMemo:
    """Repeated point queries on one matrix share one Schur form; every
    answer must be the one a fresh factorization gives, bit for bit."""

    def fresh(self, monkeypatch, T, J, lam, eigvals=None):
        monkeypatch.setattr(krein, "_factors", None)
        return _classified_roots(T, J, eigvals=eigvals, query=lam)[0][0]

    def robin_points(self, alpha0):
        T, J = robin_fd(A_STRIP, 1j * alpha0, 121)
        eigvals = np.linalg.eigvals(T)
        lams = [eigvals[np.argmin(np.abs(eigvals - m.lam))]
                for m in transversal_modes(A_STRIP, alpha0, 20)]
        return T, J, eigvals, lams

    def test_repeated_queries_match_fresh_factorizations(self, monkeypatch):
        T, J, eigvals, lams = self.robin_points(1.7)
        assert len(lams) == 21
        calls, schur = [], scipy.linalg.schur

        def counted_schur(*args, **kwargs):
            calls.append(args)
            return schur(*args, **kwargs)

        monkeypatch.setattr(krein, "_factors", None)
        monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
        got = [classify_point(T, J, lam, eigvals=eigvals) for lam in lams]
        assert len(calls) == 1
        for lam, entry in zip(lams, got):
            assert same_entry(entry, self.fresh(monkeypatch, T, J, lam, eigvals))
        assert len(calls) == 1 + len(lams)

    def test_in_place_mutation_is_seen(self, monkeypatch):
        T, J, _, lams = self.robin_points(0.5)
        T2, _, eigvals2, lams2 = self.robin_points(3.3)
        classify_point(T, J, lams[0])
        T[...] = T2
        entry = classify_point(T, J, lams2[3])
        assert abs(entry.lam - lams2[3]) < 1e-9 * abs(lams2[3])
        assert same_entry(entry, self.fresh(monkeypatch, T2, J, lams2[3]))

    def test_alternating_matrices(self, monkeypatch):
        T1, J, _, lams1 = self.robin_points(0.5)
        T2, _, _, lams2 = self.robin_points(3.3)
        got = [(classify_point(T1, J, a), classify_point(T2, J, b))
               for a, b in zip(lams1[:4], lams2[:4])]
        for (e1, e2), a, b in zip(got, lams1, lams2):
            assert same_entry(e1, self.fresh(monkeypatch, T1, J, a))
            assert same_entry(e2, self.fresh(monkeypatch, T2, J, b))

    def test_cached_factors_are_read_only(self):
        T = robin_fd(A_STRIP, 1.7j, 41)[0].astype(complex)
        _, R, Z = _factorization(T)
        assert np.allclose(Z @ R @ Z.conj().T, T, atol=1e-12 * _norm2(T))
        for a in (R, Z):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_without_eigvals_matches_given_eigvals(self, monkeypatch):
        T, J, _, lams = self.robin_points(1.7)
        for lam in lams[::5]:
            monkeypatch.setattr(krein, "_factors", None)
            plain = classify_point(T, J, lam)
            assert same_entry(plain, classify_point(T, J, lam,
                                                    eigvals=np.linalg.eigvals(T)))

    @staticmethod
    def same_bits(a, b):
        """(entry, basis) pairs equal to the last bit: lam, gram_eigs and
        the basis by their bytes, s and sep by ``float.hex``."""
        (ea, Ba), (eb, Bb) = a, b
        return (np.array(ea.lam).tobytes() == np.array(eb.lam).tobytes()
                and (ea.alg_mult, ea.geo_mult, ea.type)
                == (eb.alg_mult, eb.geo_mult, eb.type)
                and ea.gram_eigs.tobytes() == eb.gram_eigs.tobytes()
                and ea.s.hex() == eb.s.hex() and ea.sep.hex() == eb.sep.hex()
                and Ba.tobytes() == Bb.tobytes())

    @staticmethod
    def spy_partitions(monkeypatch):
        calls, cluster = [], krein._cluster_eigenvalues

        def counted(*args):
            calls.append(args)
            return cluster(*args)

        monkeypatch.setattr(krein, "_cluster_eigenvalues", counted)
        return calls

    def test_repeated_queries_partition_once(self, monkeypatch):
        T, J, eigvals, lams = self.robin_points(1.7)
        monkeypatch.setattr(krein, "_factors", None)
        calls = self.spy_partitions(monkeypatch)
        got = [_classified_roots(T, J, eigvals=eigvals, query=lam)[0]
               for lam in lams[:20]]
        assert len(calls) == 1
        # the same values in another array are the same key
        _classified_roots(T, J, eigvals=eigvals.copy(), query=lams[0])
        assert len(calls) == 1
        for lam, root in zip(lams, got):
            monkeypatch.setattr(krein, "_factors", None)
            fresh = _classified_roots(T, J, eigvals=eigvals, query=lam)[0]
            assert self.same_bits(root, fresh)
        assert len(calls) == 21

    def test_each_change_partitions_once(self, monkeypatch):
        T1, J, ev1, lams1 = self.robin_points(0.5)
        T2, _, ev2, lams2 = self.robin_points(3.3)
        monkeypatch.setattr(krein, "_factors", None)
        calls = self.spy_partitions(monkeypatch)

        def count(*queries):
            """Partitions made by the queries (T, lam, keyword arguments)."""
            before = len(calls)
            for T, lam, kw in queries:
                classify_point(T, J, lam, **kw)
            return len(calls) - before

        # alternating matrices: each switch drops the held partition
        pairs = zip(lams1[:3], lams2[:3])
        assert count(*[(T, lam, {"eigvals": ev}) for a, b in pairs
                       for T, lam, ev in ((T1, a, ev1), (T2, b, ev2))]) == 6
        # another eigvals array: the same values in another order
        ev_rev = ev2[::-1].copy()
        assert count((T2, lams2[2], {"eigvals": ev_rev}),
                     (T2, lams2[3], {"eigvals": ev_rev})) == 1
        # another cluster_gap, then the same one again
        assert count((T2, lams2[0], {"eigvals": ev_rev, "cluster_gap": 1e-6}),
                     (T2, lams2[1], {"eigvals": ev_rev, "cluster_gap": 1e-6})) == 1
        # T mutated in place
        T = T1.copy()
        assert count((T, lams1[0], {"eigvals": ev1}),
                     (T, lams1[1], {"eigvals": ev1})) == 1
        T[...] = T2
        assert count((T, lams2[4], {"eigvals": ev2}),
                     (T, lams2[5], {"eigvals": ev2})) == 1
        for lam, ev, kw in ((lams2[0], ev_rev, {"cluster_gap": 1e-6}),
                            (lams2[2], ev_rev, {})):
            got = _classified_roots(T2, J, eigvals=ev, query=lam, **kw)[0]
            monkeypatch.setattr(krein, "_factors", None)
            want = _classified_roots(T2, J, eigvals=ev, query=lam, **kw)[0]
            assert self.same_bits(got, want)

    def test_empty_matrix_classifies_to_nothing(self, monkeypatch):
        monkeypatch.setattr(krein, "_factors", None)
        empty = np.zeros((0, 0))
        for _ in range(2):
            assert len(classify_spectrum(empty, empty)) == 0
            assert _classified_roots(empty, empty, points=[]) == []


class TestThetaOperator:
    def test_frozen_two_projection_example(self):
        P1 = np.array([[1.0, 1.0], [0.0, 0.0]])
        P2 = np.array([[0.0, -1.0], [0.0, 1.0]])
        theta, cert = theta_operator([P1, P2])
        assert theta == pytest.approx(np.array([[1.0, 1.0], [1.0, 3.0]]))
        assert cert.min_eig == pytest.approx(2.0 - math.sqrt(2.0))
        assert cert.commutation_residual < 1e-12
        assert cert.lower_bound == pytest.approx(0.5)
        assert cert.bound_satisfied
        assert cert.n_projections == 2

    def test_identity_family(self):
        theta, cert = theta_operator([np.eye(3)])
        assert theta == pytest.approx(np.eye(3))
        assert cert.min_eig == pytest.approx(1.0)

    def test_complementary_contour_projections(self):
        U = hyperbolic(0.9)
        T = U @ np.diag([1.0, 5.0]) @ np.linalg.inv(U)
        P = riesz_projection(T, 1.0, 1.5)
        theta, cert = theta_operator([P, np.eye(2) - P], tol=1e-8)
        assert cert.bound_satisfied
        assert cert.commutation_residual < 1e-8 * np.linalg.norm(theta, 2)

    def test_random_oblique_families(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            dim, k = 9, 4
            sizes = [2, 2, 2, 3]
            V = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            V += 2.0 * np.eye(dim)
            Vinv = np.linalg.inv(V)
            offs = np.cumsum([0] + sizes)
            family = []
            for a, b in zip(offs[:-1], offs[1:]):
                E = np.zeros((dim, dim))
                E[a:b, a:b] = np.eye(b - a)
                family.append(V @ E @ Vinv)
            theta, cert = theta_operator(family, tol=1e-8)
            assert cert.min_eig >= 1.0 / k - 1e-10
            assert cert.bound_satisfied
            assert cert.commutation_residual <= 1e-8 * np.linalg.norm(theta, 2)

    def test_rejects_invalid_families(self):
        P = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            theta_operator([P, P])
        with pytest.raises(ValidationError, match="identity"):
            theta_operator([P])
        with pytest.raises(ValidationError, match="empty"):
            theta_operator([])
        with pytest.raises(ValidationError, match="shape"):
            theta_operator([np.eye(2), np.eye(3)])


class TestDefinitenessConstants:
    def test_orthonormal_split(self):
        J = np.diag([1.0, -1.0, 1.0])
        cert = definiteness_constants(
            J, np.eye(3)[:, [0, 2]], np.eye(3)[:, [1]])
        assert cert.kappa_plus == pytest.approx(1.0)
        assert cert.kappa_minus == pytest.approx(1.0)
        assert cert.kappa_cross == pytest.approx(0.0, abs=1e-14)
        assert cert.cross_condition_met
        assert (cert.dim_plus, cert.dim_minus) == (2, 1)

    def test_single_tilted_column(self):
        cert = definiteness_constants(SIG2, np.array([[1.0], [0.6]]),
                                      np.zeros((2, 0)))
        assert cert.kappa_plus == pytest.approx(8.0 / 17.0)
        assert math.isinf(cert.kappa_minus)

    def test_pencil_beats_per_column_minimum(self):
        # worst direction mixes the columns; per-column ratios are 0.6 and 1
        J = np.diag([1.0, 1.0, -1.0])
        B = np.array([[1.0, 1.0], [0.0, 1.0], [0.5, 0.0]])
        cert = definiteness_constants(J, B, np.zeros((3, 0)))
        assert cert.kappa_plus == pytest.approx(1.0 / 3.0)
        # sampling route: no unit combination goes below, and (1, -1/2) attains
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(500):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = B @ c
            ratios.append((f.conj() @ J @ f).real / (f.conj() @ f).real)
        assert min(ratios) >= cert.kappa_plus - 1e-12
        f = B @ np.array([1.0, -0.5])
        assert (f @ J @ f) / (f @ f) == pytest.approx(1.0 / 3.0)

    def test_cross_condition_threshold(self):
        plus = np.array([[1.0], [0.0]])
        mild = definiteness_constants(SIG2, plus, np.array([[0.5], [1.0]]))
        assert mild.kappa_minus == pytest.approx(0.6)
        assert mild.kappa_cross**2 == pytest.approx(0.2)
        assert mild.cross_condition_met
        steep = definiteness_constants(SIG2, plus, np.array([[0.9], [1.0]]))
        assert steep.kappa_minus == pytest.approx(0.19 / 1.81)
        assert steep.kappa_cross**2 == pytest.approx(0.81 / 1.81)
        assert not steep.cross_condition_met

    def test_hyperbolically_tilted_subspace(self):
        # contour projection of a mixed instance feeds the constant computation
        t = 0.6
        U = hyperbolic(t)
        T = U @ np.diag([1.0, 4.0]) @ np.linalg.inv(U)
        P = riesz_projection(T, 1.0, 1.0)
        basis = np.linalg.svd(P)[0][:, :1]
        cert = definiteness_constants(SIG2, basis, np.zeros((2, 0)))
        assert cert.kappa_plus == pytest.approx(1.0 / math.cosh(2 * t), rel=1e-9)

    def test_rejects_indefinite_basis(self):
        bad = np.array([[1.0], [2.0]])
        with pytest.raises(ValidationError,
                           match=r"not uniformly positive \(kappa = -6.000e-01\)"):
            definiteness_constants(SIG2, bad, np.zeros((2, 0)))
        with pytest.raises(ValidationError, match="not uniformly negative"):
            definiteness_constants(SIG2, np.zeros((2, 0)), [[1.0], [0.0]])

    def test_rejects_rank_deficient_basis(self):
        B = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="rank deficient"):
            definiteness_constants(np.eye(3), B, np.zeros((3, 0)))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_gram_matrix_not_numerically_definite(self, side):
        # e0 and e0 + 1e-8 e1 pass the rank test, but their Gram matrix
        # [[1, 1], [1, 1 + 1e-16]] rounds to a singular one
        J = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        B = np.zeros((6, 2))
        B[0] = 1.0
        B[1, 1] = 1e-8
        empty = np.zeros((6, 0))
        with pytest.raises(ValidationError, match=f"basis_{side} is not "
                           "numerically positive definite"):
            if side == "plus":
                definiteness_constants(J, B, empty)
            else:
                definiteness_constants(-J, empty, B)

    def test_overflowing_gram_matrix(self):
        # a finite basis of full rank whose Gram entry 1e400 overflows
        with pytest.raises(ValidationError, match="Gram matrices of basis_plus overflow"):
            definiteness_constants(SIG2, [[1e200], [0.0]], np.zeros((2, 0)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pencil_min_is_scipy_eigh_bit_for_bit(self, n):
        # the direct zhegvd call against the scipy.linalg.eigh call it
        # replaces, on seeded pencils (inputs not quite Hermitian, as
        # rounded Gram products are)
        def reference_pencil_min(A, M):
            A = 0.5 * (A + A.conj().T)
            M = 0.5 * (M + M.conj().T)
            return float(scipy.linalg.eigh(A, M, eigvals_only=True)[0])

        rng = np.random.default_rng(n)
        for _ in range(8):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = A + A.conj().T + 1e-15 * rng.standard_normal((n, n))
            M = C.conj().T @ C + 1e-3 * np.eye(n)
            got = krein._pencil_min(A, M, "basis_plus")
            assert got.hex() == reference_pencil_min(A, M).hex()

    def test_empty_bases_are_vacuous(self):
        cert = definiteness_constants(SIG2, np.zeros((2, 0)), np.zeros((2, 0)))
        assert math.isinf(cert.kappa_plus)
        assert math.isinf(cert.kappa_minus)
        assert cert.kappa_cross == 0.0
        assert cert.cross_condition_met

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            definiteness_constants(SIG2, np.ones((3, 1)), np.zeros((2, 0)))


class TestQueryClusterSelection:
    """A query point selects the cluster of its nearest eigenvalue, the
    first cluster on a tie: the scan over every cluster it replaced is the
    reference."""

    @staticmethod
    def scan(T, eigvals, points):
        clusters = _cluster_eigenvalues(eigvals, 1e-8 * max(1.0, _norm2(T)))
        picked = {int(np.argmin([np.min(np.abs(eigvals[c] - p))
                                 for c in clusters])) for p in points}
        return sorted(tuple(clusters[i]) for i in picked)

    @staticmethod
    def selected(monkeypatch, T, J, eigvals, points):
        seen, root_entry = [], krein._root_entry

        def recording(R, Z, Jm, idx, *rest):
            seen.append(tuple(idx))
            return root_entry(R, Z, Jm, idx, *rest)

        monkeypatch.setattr(krein, "_root_entry", recording)
        _classified_roots(T, J, eigvals=eigvals, points=points)
        return sorted(seen)

    def test_robin_queries_match_scan(self, monkeypatch):
        T, J = robin_fd(A_STRIP, 1.7j, 121)
        eigvals = np.linalg.eigvals(T)
        lams = [eigvals[np.argmin(np.abs(eigvals - m.lam))]
                for m in transversal_modes(A_STRIP, 1.7, 20)]
        assert len(lams) == 21
        for lam in lams:
            assert (self.selected(monkeypatch, T, J, eigvals, [lam])
                    == self.scan(T, eigvals, [lam]))
        assert (self.selected(monkeypatch, T, J, eigvals, lams)
                == self.scan(T, eigvals, lams))

    def test_equidistant_query_takes_first_cluster(self, monkeypatch):
        # p is exactly as far from 2 (index 1, cluster 1) as from 0.5 + d
        # (index 3, cluster 0 with 0.5): the lower cluster wins, not the
        # lower eigenvalue index
        d = 2.0 ** -30
        eigvals = np.array([0.5, 2.0, 9.0, 0.5 + d], dtype=complex)
        T = np.diag(eigvals)
        p = 1.25 + d / 2
        assert abs(p - 2.0) == abs(p - 0.5 - d)
        got = self.selected(monkeypatch, T, np.eye(4), eigvals, [p])
        assert got == self.scan(T, eigvals, [p]) == [(0, 3)]


ZTRSEN = scipy.linalg.lapack.ztrsen


def ztrsen_b(select, R, Z):
    """LAPACK's own reorder with its s and sep (job B, which needs the
    larger workspace 2 m (n - m))."""
    n = R.shape[0]
    R, Z, _, _, s, sep, info = ZTRSEN(select, R, Z, job="B",
                                      lwork=max(1, n * n))
    assert info == 0
    return R, Z, s, sep


class TestConditionAgainstZtrsen:
    """``_condition`` computes ztrsen's s and sep with triangular solves;
    LAPACK's ztrsen(job="B"), which gets them from ztrsyl, is the reference."""

    @staticmethod
    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("n", [2, 5, 30, 144])
    def test_every_contiguous_selection(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R0, Z0 = scipy.linalg.schur(A, output="complex")
        selections = [np.ones(n, dtype=bool)]
        for m in (1, 2, 3):
            for k in range(n - m + 1):
                select = np.zeros(n, dtype=bool)
                select[k:k + m] = True
                selections.append(select)
        for select in selections:
            R, Z, s, sep = ztrsen_b(select, R0, Z0)
            Rn, Zn, _, _, _, _, info = ZTRSEN(select, R0, Z0, job="N")
            assert info == 0
            assert np.array_equal(R, Rn) and np.array_equal(Z, Zn)
            got_s, got_sep = krein._condition(Rn, int(select.sum()))
            assert self.close(got_s, s) and self.close(got_sep, sep)

    @pytest.mark.parametrize("case", ["campaign", "robin"])
    def test_engine_matches_job_b(self, monkeypatch, case):
        if case == "campaign":
            f1, f2 = _campaign_instance(np.random.default_rng(4), "big")
            T, J = kron_sum(f1, f2)
            assert T.shape == (144, 144)
        else:
            T, J = robin_fd(A_STRIP, 0.7j, 121)
        got = classify_spectrum(T, J)

        # the reference reorders with job B and reports its s and sep
        measured = []

        def reorder_b(select, R, Z, job):
            assert job == "N"
            R, Z, s, sep = ztrsen_b(select, R, Z)
            measured.append((s, sep))
            return R, Z, None, None, None, None, 0

        monkeypatch.setattr(scipy.linalg.lapack, "ztrsen", reorder_b)
        monkeypatch.setattr(krein, "_condition", lambda R, m: measured[-1])
        want = classify_spectrum(T, J)
        assert len(got) == len(want) == len(measured)
        for a, b in zip(got, want):
            assert a.lam == b.lam and a.type is b.type
            assert (a.alg_mult, a.geo_mult) == (b.alg_mult, b.geo_mult)
            assert np.array_equal(a.gram_eigs, b.gram_eigs)
            assert self.close(a.s, b.s) and self.close(a.sep, b.sep)

    def test_overflowing_solve_raises_numerical_error(self):
        # X, the first row of (1e-7 I - N)^-1 for the 49 x 49 shift N,
        # holds 1e7^(k + 1) in column k: past the largest double from
        # k = 44, where ztrsyl would rescale
        n = 50
        T = np.diag(np.ones(n - 1), 1).astype(complex)
        T[0, 0] = 1e-7
        assert krein._condition(T, 1) == (0.0, 0.0)
        assert ztrsen_b(np.eye(1, n, 0, dtype=bool)[0], T, np.eye(n))[2:] == (0.0, 0.0)
        with pytest.raises(NumericalError, match="ill-conditioned"):
            classify_point(T, np.eye(n), 1e-7, eigvals=np.diag(T))


def campaign_roots(seed, draws=30):
    """Every engine entry of the first ``draws`` campaign instances at
    ``seed``: both factors at the default gap, the sum at the oracle's.
    Each sum's J is checked to pass ``validate_involution`` at its tol."""
    rng = np.random.default_rng(seed)
    for k in range(draws):
        f1, f2 = _campaign_instance(rng, _CAMPAIGN_CYCLE[k % len(_CAMPAIGN_CYCLE)])
        for f in (f1, f2):
            yield from (e for e, _ in _classified_roots(f.t, f.j, failures=[]))
        S, J = kron_sum(f1, f2)
        validate_involution(J.matrix, J.tol)
        norm, R, _ = _factorization(S)
        yield from (e for e, _ in _classified_roots(
            S, J, cluster_gap=1e-6 * max(1.0, norm), eigvals=np.diag(R),
            failures=[]))


class TestGramMarginIdentity:
    """For unitary J and a real cluster with orthonormal root basis B, J B
    spans the left root subspace, so the spectral projector is
    B G^-1 B* J with G = B* J B and its norm is 1/min|eig G|.  ztrsen's s
    is at most one over that norm, and equal to it for a single root."""

    @staticmethod
    def check(entries, rtol):
        """(simple, multiple) counts of the real clusters checked."""
        simple = multiple = 0
        for e in entries:
            if abs(e.lam.imag) > 1e-6 * max(1.0, abs(e.lam)):
                continue
            margin = float(np.min(np.abs(e.gram_eigs)))
            if e.alg_mult == 1 and e.type is not SpectralType.NOT_DEFINITE:
                assert abs(e.s / margin - 1.0) <= rtol, e
                simple += 1
            elif e.alg_mult > 1:
                assert e.s <= margin * (1.0 + 1e-12), e
                multiple += 1
        return simple, multiple

    @pytest.mark.parametrize("seed", [23, 4242])
    def test_campaign(self, seed):
        simple, multiple = self.check(campaign_roots(seed), 1e-12)
        assert simple > 400 and multiple > 0

    @pytest.mark.parametrize("alpha0", [0.5, 1.7, 3.3])
    def test_robin_operator(self, alpha0):
        T, J = robin_fd(math.pi / 2, 1j * alpha0, 121)
        simple, _ = self.check(classify_spectrum(T, J), 1e-10)
        assert simple > 100


# The kernel as it was before each cluster's shifts, right-hand sides and
# Gram eigenvalues were computed once: the reference the kernel must match
# bit for bit.

def reference_one_norm_estimate(apply, size):
    def signs(y):
        a = np.abs(y)
        big = a > np.finfo(float).tiny
        out = np.ones(size, dtype=complex)
        out.real[big] = y.real[big] / a[big]
        out.imag[big] = y.imag[big] / a[big]
        return out

    try:
        v = apply(np.full(size, 1.0 / size, dtype=complex), False)
        est = float(np.sum(np.abs(v)))
        if size == 1:
            return est
        j = int(np.argmax(np.abs(apply(signs(v), True))))
        for _ in range(4):
            v = apply(np.eye(1, size, j, dtype=complex)[0], False)
            est, old = float(np.sum(np.abs(v))), est
            if est <= old:
                break
            y = np.abs(apply(signs(v), True))
            j, last = int(np.argmax(y)), j
            if y[last] == y[j]:
                break
        alt = (1.0 + np.arange(size) / (size - 1)) * (-1.0) ** np.arange(size)
        v = apply(alt.astype(complex), False)
    except OverflowError:
        return math.inf
    return max(est, 2.0 * (float(np.sum(np.abs(v))) / (3 * size)))


def reference_condition(R, m):
    n = R.shape[0]
    if m == n:
        return 1.0, float(np.max(np.sum(np.abs(R), axis=0)))
    R11, R12 = R[:m, :m], R[:m, m:]
    shifted = R[m:, m:].copy(order="F")
    diag22 = np.diag(shifted).copy()
    diagonal = shifted.ravel(order="F")[::n - m + 1]

    def solve(C, adjoint):
        X = np.empty_like(C)
        for i in (range(m) if adjoint else range(m - 1, -1, -1)):
            diagonal[:] = diag22 - R11[i, i]
            if adjoint:
                rhs = (C[i] - R11[:i, i].conj() @ X[:i]).conj()
            else:
                rhs = C[i] - R11[i, i + 1:] @ X[i + 1:]
            x, info = scipy.linalg.lapack.ztrtrs(shifted, rhs[:, None],
                                                 trans=0 if adjoint else 1)
            if info:
                raise OverflowError
            X[i] = -x[:, 0].conj() if adjoint else -x[:, 0]
        if not np.all(np.isfinite(X)):
            raise OverflowError
        return X

    def apply(x, adjoint):
        return solve(x.reshape(m, n - m, order="F"), adjoint).ravel(order="F")

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rnorm = float(scipy.linalg.blas.dznrm2(solve(R12, False).ravel()))
        except OverflowError:
            rnorm = math.inf
        s = 1.0 if rnorm == 0.0 else 1.0 / (math.sqrt(1.0 / rnorm + rnorm)
                                             * math.sqrt(rnorm))
        sep = 1.0 / reference_one_norm_estimate(apply, m * (n - m))
    return s, sep


def reference_root_entry(R, Z, Jm, eigvals, idx, scale, tol):
    members = eigvals[idx]
    others = np.delete(eigvals, idx)
    center = complex(np.mean(members))
    d_in = float(np.max(np.abs(members - center)))
    d_out = float(np.min(np.abs(others - center))) if len(others) else math.inf
    if (d_out - d_in <= max(1e-12 * scale, 4.0 * d_in * 1e-10)
            or d_in > 0.94 * d_out):
        raise ContourError("cannot isolate cluster")
    n, m = R.shape[0], len(members)
    select = np.abs(np.diag(R) - center) < 0.5 * (d_in + d_out)
    if np.count_nonzero(select) != m:
        raise NumericalError("Schur form holds another count")
    R, Z, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, R, Z, job="N")
    if info:
        raise NumericalError("Schur reordering failed")
    s, sep = reference_condition(R, m)
    if m < n and s * sep <= 1e-8 * max(1.0, scale):
        raise NumericalError("root subspace is ill-conditioned")
    B = Z[:, :m].copy()
    G = B.conj().T @ Jm @ B
    G = 0.5 * (G + G.conj().T)
    gram_eigs = scipy.linalg.eigh(G, eigvals_only=True)
    if np.all(gram_eigs > tol):
        t = SpectralType.POSITIVE
    elif np.all(gram_eigs < -tol):
        t = SpectralType.NEGATIVE
    else:
        t = SpectralType.NOT_DEFINITE
    geo_tol = max(tol * max(1.0, scale), 8.0 * d_in)
    sv = np.linalg.svd(R[:m, :m] - center * np.eye(m), compute_uv=False)
    geo_mult = min(max(int(np.count_nonzero(sv <= geo_tol)), 1), m)
    entry = krein.SpectrumEntry(lam=center, alg_mult=m, geo_mult=geo_mult,
                                type=t, gram_eigs=gram_eigs, s=float(s),
                                sep=float(sep))
    return entry, B


def kernel_root_entry(R, Z, Jm, eigvals, idx, scale, tol):
    """``_root_entry`` called as the reference is: the cluster's geometry
    measured by the engine's own pass over ``eigvals``."""
    geometry = [g[0] for g in krein._cluster_geometry(eigvals, [idx])]
    return krein._root_entry(R, Z, Jm, idx, *geometry, scale, tol)


def same_root(a, b):
    """Bitwise equality of two (entry, basis) pairs, gram_eigs by bytes."""
    (ea, Ba), (eb, Bb) = a, b
    return (same_entry(ea, eb) and ea.gram_eigs.tobytes() == eb.gram_eigs.tobytes()
            and ea.gram_eigs.dtype == eb.gram_eigs.dtype
            and Ba.shape == Bb.shape and Ba.tobytes() == Bb.tobytes())


def outcome(fn, *args):
    """A call's result, or the class of the engine error it raised."""
    try:
        return fn(*args)
    except (ContourError, NumericalError) as exc:
        return type(exc)


class TestKernelAgainstReference:
    """``_condition``, ``_one_norm_estimate`` and ``_root_entry`` against
    the reference kernel above: every number bitwise the same."""

    @staticmethod
    def clustered_schur(rng, n, m):
        """Schur form of a non-normal matrix whose first m eigenvalues sit
        within 1e-9 of 0.3 + 0.2i and whose others are spread over
        [-3, 3] + [-3, 3]i, 0.1 clear of the cluster.  The cluster's own
        block is diagonal, so rounding cannot scatter it."""
        eigs = 0.3 + 0.2j + 1e-9 * (rng.standard_normal(n)
                                    + 1j * rng.standard_normal(n))
        for i in range(m, n):
            while abs(eigs[i] - 0.3 - 0.2j) < 0.1:
                eigs[i] = complex(*rng.uniform(-3.0, 3.0, 2))
        U = np.triu(rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)), 1) / n
        U[:m, :m] = 0.0
        Q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        T = Q @ (np.diag(eigs) + U) @ Q.conj().T
        R, Z = scipy.linalg.schur(T, output="complex")
        return T, R, Z

    @pytest.mark.parametrize("n", [2, 5, 30, 144])
    def test_random_schur_forms(self, n):
        rng = np.random.default_rng(100 + n)
        Jm = np.diag(rng.choice([-1.0, 1.0], size=n)).astype(complex)
        for m in sorted({1, 2, 3, n} & set(range(1, n + 1))):
            T, R, Z = self.clustered_schur(rng, n, m)
            for k in (m, n - m):
                if 0 < k <= n:
                    assert krein._condition(R, k) == reference_condition(R, k)
            eigvals = np.diag(R)
            idx = np.flatnonzero(np.abs(eigvals - 0.3 - 0.2j) < 0.05)
            assert idx.size == m
            args = (R, Z, Jm, eigvals, idx, _norm2(T), 1e-8)
            got = outcome(kernel_root_entry, *args)
            want = outcome(reference_root_entry, *args)
            if isinstance(want, tuple):
                assert same_root(got, want)
            else:
                assert got is want

    def test_overflowing_solve(self):
        n = 50
        T = np.diag(np.ones(n - 1), 1).astype(complex)
        T[0, 0] = 1e-7
        assert krein._condition(T, 1) == reference_condition(T, 1) == (0.0, 0.0)
        args = (T, np.eye(n), np.eye(n, dtype=complex), np.diag(T),
                np.array([0]), _norm2(T), 1e-8)
        assert outcome(kernel_root_entry, *args) is NumericalError
        assert outcome(reference_root_entry, *args) is NumericalError

    @staticmethod
    def both(monkeypatch, T, J, failures=(None, None), **kw):
        """One call through the engine and one through the reference
        kernel, which measures its own cluster geometry; each run gets its
        own entry of ``failures``."""
        monkeypatch.setattr(krein, "_factors", None)
        got = _classified_roots(T, J, failures=failures[0], **kw)
        eigvals = kw.pop("eigvals", None)
        if eigvals is None:  # the engine's default
            eigvals = np.linalg.eigvals(np.asarray(T, dtype=complex))

        def reference(R, Z, Jm, idx, center, d_in, d_out, scale, tol):
            return reference_root_entry(R, Z, Jm, eigvals, idx, scale, tol)

        monkeypatch.setattr(krein, "_root_entry", reference)
        want = _classified_roots(T, J, eigvals=eigvals, failures=failures[1], **kw)
        monkeypatch.undo()
        return got, want

    @pytest.mark.parametrize("seed, dim", [(3, 60), (4, 144)])
    def test_campaign_sums(self, monkeypatch, seed, dim):
        S, J = kron_sum(*_campaign_instance(np.random.default_rng(seed), "big"))
        assert S.shape == (dim, dim)
        got, want = self.both(monkeypatch, S, J, cluster_gap=1e-6 * _norm2(S))
        assert len(got) == len(want) == dim
        assert all(same_root(a, b) for a, b in zip(got, want))

    def test_every_campaign_kind(self, monkeypatch):
        # one draw of each kind, the sum classified as the oracle does and
        # each factor at the defaults: jordan and pair clusters (m = 2) and
        # the clusters the engine cannot certify go through both kernels
        rng = np.random.default_rng(11)
        sizes, failed = set(), 0
        for kind in dict.fromkeys(_CAMPAIGN_CYCLE):
            f1, f2 = _campaign_instance(rng, kind)
            S, J = kron_sum(f1, f2)
            oracle = {"cluster_gap": 1e-6 * max(1.0, _norm2(S)),
                      "eigvals": np.diag(_factorization(S)[1])}
            for T, Jm, kw in ((S, J, oracle), (f1.t, f1.j, {}), (f2.t, f2.j, {})):
                failures = ([], [])
                got, want = self.both(monkeypatch, T, Jm, failures, **kw)
                assert len(got) == len(want)
                assert all(same_root(a, b) for a, b in zip(got, want))
                assert ([type(e) for e in failures[0]]
                        == [type(e) for e in failures[1]])
                sizes.update(entry.alg_mult for entry, _ in got)
                failed += len(failures[0])
        assert 2 in sizes and failed

    @pytest.mark.parametrize("alpha0", [0.5, 1.7, 3.3])
    def test_robin_operator(self, monkeypatch, alpha0):
        T, J = robin_fd(A_STRIP, 1j * alpha0, 121)
        got, want = self.both(monkeypatch, T, J)
        assert len(got) == len(want) == 121
        assert all(same_root(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_norm_estimate_sees_the_same_vectors(self, seed):
        # a dense map with complex entries of many magnitudes; every vector
        # the estimate applies it to, the sign vectors included, must be
        # the reference's bit for bit, not just the estimate
        rng = np.random.default_rng(seed)
        A = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))) \
            * np.exp(rng.uniform(-5, 5, (40, 40)))

        def recorder(seen):
            def apply(x, adjoint):
                seen.append((adjoint, x.tobytes()))
                return (A.conj().T if adjoint else A) @ x
            return apply

        got, want = [], []
        assert (krein._one_norm_estimate(recorder(got), 40)
                == reference_one_norm_estimate(recorder(want), 40))
        assert got == want and any(adjoint for adjoint, _ in got)


@pytest.mark.parametrize("im", [0.0, -0.0, 2.5])
@pytest.mark.parametrize("re", [0.0, -0.0, 1.5, -2.5, 5e-324, -1e300])
def test_one_by_one_gram_rule_is_eigvalsh(re, im):
    # a 1-by-1 Gram matrix's eigenvalue is read as its real part, which
    # is what zheevd, behind np.linalg.eigvalsh, returns for N = 1
    G = np.array([[complex(re, im)]])
    got, want = krein._gram_eigenvalues(G), np.linalg.eigvalsh(G)
    assert got.dtype == want.dtype and got.shape == want.shape == (1,)
    assert got.tobytes() == want.tobytes()
    G = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
    assert krein._gram_eigenvalues(G).tobytes() == np.linalg.eigvalsh(G).tobytes()


class TestRootEntryCutoffs:
    """A cluster on each side of each of ``_root_entry``'s cutoffs; the
    reference kernel must agree with each outcome."""

    @staticmethod
    def run(R, Jm, idx):
        R = np.asarray(R, dtype=complex)
        args = (R, np.eye(R.shape[0], dtype=complex),
                np.asarray(Jm, dtype=complex), np.diag(R), np.asarray(idx),
                _norm2(R), 1e-8)
        got = outcome(kernel_root_entry, *args)
        want = outcome(reference_root_entry, *args)
        assert got is want if isinstance(want, type) else same_root(got, want)
        return got

    @pytest.mark.parametrize("ratio, isolated", [(0.935, True), (0.945, False)])
    def test_isolation(self, ratio, isolated):
        # the cluster -1, 0, 1 has centre 0 and extent 1; the outside pair
        # +-i/ratio lies 1/ratio away, so d_in/d_out = ratio
        R = np.diag([-1.0, 0.0, 1.0, 1j / ratio, -1j / ratio])
        Jm = scipy.linalg.block_diag(np.eye(3), FLIP2)
        center, d_in, d_out = (g[0] for g in krein._cluster_geometry(
            np.diag(R), [np.arange(3)]))
        assert (center, d_in, d_out) == (0.0, 1.0, 1.0 / ratio)
        got = self.run(R, Jm, [0, 1, 2])
        if isolated:
            assert got[0].alg_mult == 3 and got[0].type is SpectralType.POSITIVE
        else:
            assert got is ContourError

    @pytest.mark.parametrize("margin, certified", [(0.5, False), (2.0, True)])
    def test_ill_conditioning(self, margin, certified):
        # R = [[0, 1], [0, d]]: the root at 0 has s sep close to d^2, here
        # ``margin`` times the cutoff 1e-8 max(1, ||R||)
        d = math.sqrt(margin * 1e-8)
        R = np.array([[0.0, 1.0], [0.0, d]])
        s, sep = krein._condition(R.astype(complex), 1)
        ratio = s * sep / (1e-8 * max(1.0, _norm2(R)))
        assert 0.9 * margin < ratio < 1.1 * margin
        got = self.run(R, np.eye(2), [0])
        if certified:
            assert got[0].s == s and got[0].sep == sep
        else:
            assert got is NumericalError

    @pytest.mark.parametrize("spread", [0.0, 1e-6])
    @pytest.mark.parametrize("fraction, geo_mult", [(0.75, 2), (1.5, 1)])
    def test_geometric_multiplicity_count(self, spread, fraction, geo_mult):
        # a double root +-spread with coupling e = fraction * geo_tol, the
        # count's threshold (1e-8 ||R||, or 8 times the extent): its largest
        # singular value sits just below or above the threshold
        scale = 1.0
        geo_tol = max(1e-8 * scale, 8.0 * spread)
        e = fraction * geo_tol
        R = np.array([[spread, e, 0.0], [0.0, -spread, 0.0], [0.0, 0.0, 1.0]])
        assert _norm2(R) == scale
        sv = np.linalg.svd(R[:2, :2], compute_uv=False)
        assert (sv <= geo_tol).sum() == geo_mult
        got = self.run(R, np.eye(3), [0, 1])
        assert (got[0].alg_mult, got[0].geo_mult) == (2, geo_mult)


class TestNorm2:
    def test_zero_empty_and_nan(self):
        assert _norm2(np.zeros((144, 144), dtype=complex)) == 0.0
        assert _norm2(-np.zeros((3, 3))) == 0.0
        assert _norm2(np.zeros((0, 0))) == 0.0
        assert _norm2(np.zeros((3, 0))) == 0.0
        tiny = np.zeros((4, 4))
        tiny[2, 1] = 5e-324
        assert _norm2(tiny) == 5e-324
        nan = np.zeros((3, 3))
        nan[1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):  # NaN reaches the SVD
            _norm2(nan)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (16, 16), (5, 3), (3, 7), (60, 60)])
    def test_same_bits_as_numpy_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        real = rng.standard_normal(shape) * np.exp(rng.uniform(-5, 5, shape))
        for A in (real, real + 1j * rng.standard_normal(shape)):
            assert _norm2(A).hex() == float(np.linalg.norm(A, 2)).hex()
