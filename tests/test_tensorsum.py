"""Tests for Kronecker-sum prediction and oracle comparison.

Ground truth comes from instances constructed in canonical coordinates;
the oracle route re-measures everything through Gram classification of
the assembled sum, so agreement is a genuine two-route check.
"""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from kreinspec import (
    Interval,
    RealLineSet,
    SpectralType,
    SpectrumEntry,
    ClassifiedSpectrum,
    ContourError,
    NumericalError,
    ValidationError,
    classify_spectrum,
    definiteness_constants,
    j_self_adjoint_defect,
    riesz_projection,
    theta_operator,
    validate_involution,
)
from kreinspec.krein import DefinitenessCertificate, _classified_roots, _norm2
from kreinspec import tensorsum
from kreinspec.tensorsum import (
    _BLOCK_RULES,
    _BLOCKS,
    _CAMPAIGN_CYCLE,
    _EXCLUSION,
    _GATED_RULES,
    _MIXED,
    _SAME,
    _merge_constraints,
    _sum_groups,
    FactorSpec,
    _campaign_instance,
    _sums_separated,
    TypeConstraint,
    build_phi,
    constraint_satisfied,
    kron_sum,
    make_factor_spec,
    oracle_classify_and_compare,
    predict_m_sets,
    predict_types,
    random_involution,
    random_jsa_factor,
    run_campaign,
)
from kreinspec.transversal import (Constant, SquareWell, Zero, longitudinal_spectrum,
                                   transversal_modes, waveguide_m_sets)

POS, NEG, ND = (SpectralType.POSITIVE, SpectralType.NEGATIVE,
                SpectralType.NOT_DEFINITE)


def spectrum(*items):
    """ClassifiedSpectrum from (lam, type[, alg, geo]) tuples."""
    entries = []
    for it in items:
        lam, t = it[0], it[1]
        alg = it[2] if len(it) > 2 else 1
        geo = it[3] if len(it) > 3 else alg if len(it) > 2 else 1
        entries.append(SpectrumEntry(lam=complex(lam), alg_mult=alg,
                                     geo_mult=min(geo, alg), type=t,
                                     gram_eigs=np.array([])))
    return ClassifiedSpectrum(tuple(entries))


def diag_factor(pairs):
    """FactorSpec for diag(values) with J = diag(signs)."""
    vals = [complex(v) for v, _ in pairs]
    signs = [s for _, s in pairs]
    n = len(pairs)
    T = np.diag(vals)
    J = np.diag([float(s) for s in signs])
    ident = np.eye(n, dtype=complex)
    bp = ident[:, [i for i, s in enumerate(signs) if s > 0]]
    bm = ident[:, [i for i, s in enumerate(signs) if s < 0]]
    cls = spectrum(*[(v, POS if s > 0 else NEG) for v, s in pairs])
    cert = definiteness_constants(J, bp, bm)
    return FactorSpec(t=T, j=validate_involution(J), classification=cls,
                      basis_plus=bp, basis_minus=bm, certificate=cert)


def lookup(predicted, x, tol=1e-9):
    keys = list(predicted)
    k = min(keys, key=lambda z: abs(z - x))
    assert abs(k - x) < tol, f"no predicted point near {x}"
    return predicted[k]


HALF_LINE = RealLineSet((Interval(0.0, math.inf, True, False),))


class TestKronSum:
    def test_scalar_sum(self):
        S, J = kron_sum(diag_factor([(2.0, 1)]), diag_factor([(3.0, 1)]))
        assert S == pytest.approx(np.array([[5.0]]))
        assert J.n == 1

    def test_diagonal_spectrum(self):
        S, _ = kron_sum(diag_factor([(0.0, 1), (1.0, 1)]),
                        diag_factor([(0.0, 1), (10.0, 1)]))
        assert np.sort(np.linalg.eigvals(S).real) == pytest.approx([0, 1, 10, 11])

    def test_spectrum_additivity_random_factors(self):
        rng = np.random.default_rng(31)
        f1 = random_jsa_factor(rng, n_plus=2, n_minus=2)
        f2 = random_jsa_factor(rng, n_plus=2, n_minus=1)
        S, J = kron_sum(f1, f2)
        assert j_self_adjoint_defect(S, J) < 1e-10 * _norm2(S)
        want = sorted((complex(a.lam) + complex(b.lam)
                       for a in f1.classification.entries
                       for b in f2.classification.entries
                       for _ in range(a.alg_mult * b.alg_mult)),
                      key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        got = sorted(np.linalg.eigvals(S),
                     key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        tol = 1e-7 * (_norm2(f1.t) + _norm2(f2.t))
        assert np.allclose(got, want, atol=tol)

    def test_dimension_cap(self):
        f = diag_factor([(float(i), 1) for i in range(70)])
        with pytest.raises(ValidationError, match="cap"):
            kron_sum(f, f)

    def test_product_involution(self):
        f1 = diag_factor([(1.0, 1), (2.0, -1)])
        f2 = diag_factor([(0.0, -1)])
        _, J = kron_sum(f1, f2)
        assert np.asarray(J.matrix) == pytest.approx(np.diag([-1.0, 1.0]))


class TestPredictMSets:
    def test_point_factor_sums(self):
        c1 = spectrum((0.0, POS))
        c2 = spectrum((1.0, POS), (4.0, NEG))
        m = predict_m_sets(c1, c2)
        assert m.m_plus == (1.0,)
        assert m.m_minus == (4.0,)
        assert m.m_zero == ()

    def test_not_definite_factor_fills_zero_set(self):
        c1 = spectrum((0.0, POS), (2.0, NEG))
        c2 = spectrum((5.0, ND))
        m = predict_m_sets(c1, c2)
        assert m.m_plus == () and m.m_minus == ()
        assert m.m_zero == (5.0, 7.0)

    def test_overlap_lands_in_both(self):
        c1 = spectrum((0.0, POS), (1.0, POS))
        c2 = spectrum((1.0, POS), (2.0, NEG))
        m = predict_m_sets(c1, c2)
        assert m.m_plus == (1.0, 2.0)
        assert m.m_minus == (2.0, 3.0)
        assert m.m_zero == ()

    def test_coalescing_merges_flags(self):
        eps = 5e-8
        c1 = spectrum((0.0, POS), (eps, NEG))
        c2 = spectrum((1.0, POS), (1.0 + eps, NEG))
        m = predict_m_sets(c1, c2)
        # every sum lands within one coalescing group near 1
        assert len(m.m_plus) == 1 and len(m.m_minus) == 1
        assert m.m_plus[0] == pytest.approx(m.m_minus[0])
        assert m.m_zero == ()

    def test_symbolic_half_line(self):
        c2 = spectrum((0.25, POS), (1.0, NEG), (4.0, POS), (9.0, NEG),
                      (16.0, POS))
        m = predict_m_sets(HALF_LINE, c2)
        assert m.m_plus == RealLineSet((Interval(0.25, math.inf, True, False),))
        assert m.m_minus == RealLineSet((Interval(1.0, math.inf, True, False),))
        assert m.m_zero.is_empty

    def test_symbolic_zero_part(self):
        c2 = spectrum((1.0, ND, 2, 1), (4.0, POS))
        m = predict_m_sets(HALF_LINE, c2)
        assert m.m_zero == RealLineSet((Interval(1.0, math.inf, True, False),))

    def test_symbolic_rejects_nonreal(self):
        c2 = spectrum((1.0 + 0.2j, ND))
        with pytest.raises(ValidationError, match="real"):
            predict_m_sets(HALF_LINE, c2)

    @pytest.mark.parametrize("alpha0, longitudinal", [
        (0.5, Zero()), (1.0, Zero()), (2.5, SquareWell(1.0, 2.0)),
        (-0.8, Constant(-1.0)), (-2.0, SquareWell(3.0, 2.0))])
    def test_symbolic_route_takes_transversal_modes(self, alpha0, longitudinal):
        # a list of modes reads as a ClassifiedSpectrum of the same points
        # and types, and waveguide_m_sets' sigma-sets are built from its sets
        ess, pts = long = longitudinal_spectrum(longitudinal)
        r_set = ess.union(RealLineSet.from_points(pts))
        dec = waveguide_m_sets(math.pi / 2, alpha0, long, window_max=15.0)
        modes = transversal_modes(math.pi / 2, alpha0, len(dec.mu) - 1)
        m = predict_m_sets(r_set, modes)
        assert m == predict_m_sets(r_set, spectrum(*[(x.lam, x.type) for x in modes]))
        assert dec.sigma_pp == m.m_plus.subtract(m.m_minus.union(m.m_zero))
        assert dec.sigma_mm == m.m_minus.subtract(m.m_plus.union(m.m_zero))
        assert dec.sigma_00 == m.m_zero.union(m.m_plus.intersect(m.m_minus))

    def test_untyped_entry_in_a_list_rejected(self):
        untyped = [SpectrumEntry(lam=1.0, alg_mult=1, geo_mult=1, type=None,
                                 gram_eigs=np.array([])),
                   dataclasses.replace(transversal_modes(1.0, 0.5, 2)[0], type="positive")]
        for entry in untyped:
            with pytest.raises(ValidationError, match="type"):
                predict_m_sets(HALF_LINE, [entry])

    def test_untyped_entry_rejected(self):
        bad = ClassifiedSpectrum((SpectrumEntry(lam=1.0, alg_mult=1, geo_mult=1,
                                                type=None,
                                                gram_eigs=np.array([])),))
        with pytest.raises(ValidationError, match="type"):
            predict_m_sets(bad, spectrum((0.0, POS)))


class TestPredictTypes:
    def test_fully_decomposed_diagonal(self):
        f1 = diag_factor([(0.0, 1), (5.0, -1)])
        f2 = diag_factor([(1.0, 1), (-3.0, -1)])
        predicted = predict_types(f1, f2)
        assert lookup(predicted, 1.0) is TypeConstraint.MUST_BE_PLUS
        assert lookup(predicted, 2.0) is TypeConstraint.MUST_BE_PLUS
        assert lookup(predicted, -3.0) is TypeConstraint.MUST_BE_MINUS
        assert lookup(predicted, 6.0) is TypeConstraint.MUST_BE_MINUS

    def test_jordan_factor_forces_not_definite(self):
        T1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        J1 = validate_involution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f1 = FactorSpec(t=T1.astype(complex), j=J1,
                        classification=spectrum((1.0, ND, 2, 1)),
                        basis_plus=np.zeros((2, 0)), basis_minus=np.zeros((2, 0)),
                        certificate=definiteness_constants(
                            J1.matrix, np.zeros((2, 0)), np.zeros((2, 0))))
        f2 = diag_factor([(0.7, 1)])
        predicted = predict_types(f1, f2)
        assert lookup(predicted, 1.7) is TypeConstraint.MUST_BE_NOT_DEFINITE

    def test_overlap_point_must_be_not_definite(self):
        f1 = diag_factor([(0.0, 1), (1.0, 1)])
        f2 = diag_factor([(1.0, 1), (2.0, -1)])
        predicted = predict_types(f1, f2)
        assert lookup(predicted, 1.0) is TypeConstraint.MUST_BE_PLUS
        assert lookup(predicted, 2.0) is TypeConstraint.MUST_BE_NOT_DEFINITE
        assert lookup(predicted, 3.0) is TypeConstraint.MUST_BE_MINUS

    def test_missing_certificate_raises_when_requested(self):
        f1 = diag_factor([(0.0, 1)])
        f2 = FactorSpec(t=np.array([[1.0 + 0j]]),
                        j=validate_involution(np.eye(1)),
                        classification=spectrum((1.0, POS)),
                        basis_plus=np.eye(1, dtype=complex),
                        basis_minus=np.zeros((1, 0)), certificate=None)
        # a factor without a certificate gives exclusion rules only
        predicted = predict_types(f1, f2)
        assert lookup(predicted, 1.0) is TypeConstraint.NOT_MINUS

    def test_exclusions_only_mode(self):
        f1 = diag_factor([(0.0, 1), (1.0, 1)])
        f2 = diag_factor([(1.0, 1), (2.0, -1)])
        f1, f2 = (dataclasses.replace(f, certificate=None) for f in (f1, f2))
        predicted = predict_types(f1, f2)
        assert lookup(predicted, 1.0) is TypeConstraint.NOT_MINUS
        assert lookup(predicted, 2.0) is TypeConstraint.MUST_BE_NOT_DEFINITE
        assert lookup(predicted, 3.0) is TypeConstraint.NOT_PLUS

    def test_factor_specs_without_certificates(self):
        # definite pair: block rules make the pp sum 1 plus type; without
        # certificates only the exclusions remain, and the oracle agrees
        J = np.diag([1.0, -1.0])
        specs = [make_factor_spec(np.diag(d), J) for d in ([1.0, 5.0], [0.0, 2.5])]
        for f1, f2, want in (
                (*specs, TypeConstraint.MUST_BE_PLUS),
                (*(dataclasses.replace(f, certificate=None) for f in specs),
                 TypeConstraint.NOT_MINUS)):
            assert lookup(predict_types(f1, f2), 1.0) is want
            report = oracle_classify_and_compare(f1, f2)
            assert report.ok and report.oracle_failures == report.unmatched == 0

    def test_product_gate_extends_block_rules(self):
        # same-sign blocks nearly collide at 1; the combined (gate) rule
        # still certifies positivity there, the per-block rule alone cannot
        eps = 2e-5
        f1 = diag_factor([(0.0, 1), (5.0, -1)])
        f2 = diag_factor([(1.0, 1), (-4.0 + eps, -1)])
        predicted = predict_types(f1, f2)
        assert lookup(predicted, 1.0) is TypeConstraint.MUST_BE_PLUS
        report = oracle_classify_and_compare(f1, f2)
        assert not report.violations

        # the gate is joint across the two factors, so both certificates
        # need a large cross constant for it to close
        gate_off = DefinitenessCertificate(
            kappa_plus=1.0, kappa_minus=0.1, kappa_cross=0.9,
            cross_condition_met=False, dim_plus=1, dim_minus=1)
        off = [FactorSpec(t=f.t, j=f.j, classification=f.classification,
                          basis_plus=f.basis_plus, basis_minus=f.basis_minus,
                          certificate=gate_off) for f in (f1, f2)]
        predicted_off = predict_types(off[0], off[1])
        assert lookup(predicted_off, 1.0) is TypeConstraint.NOT_MINUS


def dist_loop_predictions(f1, f2, separation_radius):
    """predict_types with one distance per group, rule and other block."""
    def dist(z, pts):
        return float(np.min(np.abs(pts - z))) if len(pts) else math.inf

    if separation_radius is None:
        separation_radius = 1e-4 * max(1.0, _norm2(f1.t) + _norm2(f2.t))
    pts, tags, groups = _sum_groups(f1.classification, f2.classification)
    blocks = {k: pts[tags == k] for k in _BLOCKS}
    rules_on = ()
    c1, c2 = f1.certificate, f2.certificate
    if c1 is not None and c2 is not None:
        lhs = (c1.kappa_cross * c2.kappa_cross) ** 2
        rhs = c1.kappa_plus * c2.kappa_plus * c1.kappa_minus * c2.kappa_minus
        gate = (not math.isnan(rhs)) and lhs < rhs
        rules_on = _BLOCK_RULES + (_GATED_RULES if gate else ())
    predicted = {}
    for rep, flags in groups:
        rules = [_EXCLUSION[bool(flags & _SAME), bool(flags & _MIXED)]]
        for near, constraint in rules_on:
            if flags & near and all(dist(rep, blocks[k]) > separation_radius
                                    for k in _BLOCKS if k not in near):
                rules.append(constraint)
        predicted[rep] = _merge_constraints(rules)
    return predicted


class TestPredictionDistances:
    """``predict_types`` takes one distance array per block; a loop over
    groups, rules and blocks is the reference."""

    def test_campaign_instances(self):
        rng = np.random.default_rng(77)
        for k in range(40):
            f1, f2 = _campaign_instance(rng, _CAMPAIGN_CYCLE[k % len(_CAMPAIGN_CYCLE)])
            for radius in (None, 0.05, 0.3):
                got = predict_types(f1, f2, radius)
                want = dist_loop_predictions(f1, f2, radius)
                assert list(got.items()) == list(want.items())

    def test_distance_equal_to_radius_is_not_beyond(self):
        f1 = diag_factor([(0.0, 1), (0.5, -1)])
        f2 = diag_factor([(0.0, 1), (0.25, -1)])
        for radius in (0.25, np.nextafter(0.25, 0.0)):
            got = predict_types(f1, f2, radius)
            assert list(got.items()) == list(dist_loop_predictions(f1, f2, radius).items())
        assert set(predict_types(f1, f2, 0.25).values()) != set(
            predict_types(f1, f2, np.nextafter(0.25, 0.0)).values())


class TestOracleCompare:
    def test_hermitian_factors_all_positive(self):
        rng = np.random.default_rng(5)
        f1 = random_jsa_factor(rng, n_plus=3, n_minus=0)
        f2 = random_jsa_factor(rng, n_plus=2, n_minus=0)
        report = oracle_classify_and_compare(f1, f2)
        assert not report.violations
        assert report.oracle_failures == 0
        assert all(e.type is POS for e in report.oracle.entries)

    def test_jordan_instance(self):
        T1 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        J1 = validate_involution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f1 = FactorSpec(t=T1, j=J1, classification=spectrum((1.0, ND, 2, 1)),
                        basis_plus=np.zeros((2, 0)),
                        basis_minus=np.zeros((2, 0)),
                        certificate=definiteness_constants(
                            J1.matrix, np.zeros((2, 0)), np.zeros((2, 0))))
        f2 = diag_factor([(0.7, 1)])
        report = oracle_classify_and_compare(f1, f2)
        assert not report.violations
        assert report.unmatched == 0
        entry = report.oracle.entries[0]
        assert entry.lam == pytest.approx(1.7)
        assert entry.type is ND
        assert (entry.alg_mult, entry.geo_mult) == (2, 1)

    def test_overlap_instance(self):
        f1 = diag_factor([(0.0, 1), (1.0, 1)])
        f2 = diag_factor([(1.0, 1), (2.0, -1)])
        report = oracle_classify_and_compare(f1, f2)
        assert not report.violations
        types = {round(e.lam.real): e.type for e in report.oracle.entries}
        assert types == {1: POS, 2: ND, 3: NEG}
        assert report.m_plus == (1.0, 2.0)
        assert report.m_minus == (2.0, 3.0)

    def test_near_collision_instance(self):
        eps = 1e-5
        f1 = diag_factor([(0.0, 1), (eps, -1)])
        f2 = diag_factor([(1.0, 1), (1.0 + eps, -1)])
        report = oracle_classify_and_compare(f1, f2)
        assert not report.violations
        assert report.oracle_failures == 0
        assert len(report.oracle) == 3

    def test_wrong_truth_is_caught(self):
        # deliberately mislabeled factor: the detector must fire
        f1 = FactorSpec(t=np.array([[1.0 + 0j]]),
                        j=validate_involution(-np.eye(1)),
                        classification=spectrum((1.0, POS)),
                        basis_plus=np.zeros((1, 0)),
                        basis_minus=np.zeros((1, 0)), certificate=None)
        f2 = diag_factor([(0.0, 1)])
        report = oracle_classify_and_compare(f1, f2)
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.constraint is TypeConstraint.NOT_MINUS
        assert v.oracle_type is NEG
        assert not report.ok

    def test_isolation_failures_are_counted(self):
        f1 = diag_factor([(1.0, 1), (1.0 + 1e-13, 1)])
        f2 = diag_factor([(0.0, 1)])
        report = oracle_classify_and_compare(f1, f2, cluster_gap=1e-14)
        assert report.oracle_failures == 2
        assert report.unmatched == 1
        assert not report.violations

    def test_engine_collects_failures_only_when_asked(self):
        # the oracle classifies through the engine with a failures list
        S, J = kron_sum(diag_factor([(1.0, 1), (1.0 + 1e-13, 1)]),
                        diag_factor([(0.0, 1)]))
        errs = []
        assert _classified_roots(S, J, cluster_gap=1e-14, failures=errs) == []
        assert [type(e) for e in errs] == [ContourError, ContourError]
        with pytest.raises(ContourError):
            _classified_roots(S, J, cluster_gap=1e-14)


class TestBuildPhi:
    def test_identity_factors(self):
        assert build_phi(np.eye(2), np.eye(3)) == pytest.approx(np.eye(6))

    def test_min_eigenvalue_product(self):
        theta = np.array([[1.0, 1.0], [1.0, 3.0]])
        phi = build_phi(theta, theta)
        lo = np.linalg.eigvalsh(phi)[0]
        assert lo == pytest.approx((2.0 - math.sqrt(2.0)) ** 2, abs=1e-10)

    def test_rejects_bad_factors(self):
        with pytest.raises(ValidationError, match="positive"):
            build_phi(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(ValidationError, match="Hermitian"):
            build_phi(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_block_form_bounds(self):
        # compressions of J to the definite blocks tensorize, so the
        # indefinite form on each block is pinched by products of the
        # factor constants
        rng = np.random.default_rng(77)
        f1 = random_jsa_factor(rng, n_plus=2, n_minus=1, mixing_strength=0.6)
        f2 = random_jsa_factor(rng, n_plus=1, n_minus=2, mixing_strength=0.6)
        comps = {}
        for tag, f in (("1", f1), ("2", f2)):
            for sign, B in (("p", f.basis_plus), ("m", f.basis_minus)):
                Q = np.linalg.qr(B)[0]
                comps[tag + sign] = Q.conj().T @ np.asarray(f.j.matrix) @ Q
        k1, k2 = f1.certificate, f2.certificate

        same = np.kron(comps["1p"], comps["2p"])
        lo = np.linalg.eigvalsh(0.5 * (same + same.conj().T))[0]
        assert lo >= k1.kappa_plus * k2.kappa_plus - 1e-10
        assert lo == pytest.approx(k1.kappa_plus * k2.kappa_plus, rel=1e-8)

        mixed = np.kron(comps["1p"], comps["2m"])
        hi = np.linalg.eigvalsh(0.5 * (mixed + mixed.conj().T))[-1]
        assert hi <= -k1.kappa_plus * k2.kappa_minus + 1e-10

        rng2 = np.random.default_rng(78)
        for _ in range(1000):
            c = rng2.standard_normal(same.shape[0]) \
                + 1j * rng2.standard_normal(same.shape[0])
            r = (c.conj() @ same @ c).real / (c.conj() @ c).real
            assert r >= k1.kappa_plus * k2.kappa_plus - 1e-10

    def test_cross_blocks_phi_orthogonal(self):
        rng = np.random.default_rng(99)
        f1 = random_jsa_factor(rng, n_plus=2, n_minus=1)
        f2 = random_jsa_factor(rng, n_plus=1, n_minus=1)

        def theta_of(f):
            lams = np.array([e.lam for e in f.classification.entries])
            projs = []
            for e in f.classification.entries:
                others = lams[np.abs(lams - e.lam) > 1e-9]
                d = np.min(np.abs(others - e.lam)) if len(others) else 1.0
                projs.append(riesz_projection(f.t, complex(e.lam), 0.4 * float(d)))
            theta, cert = theta_operator(projs, tol=1e-7)
            assert cert.bound_satisfied
            return theta

        phi = build_phi(theta_of(f1), theta_of(f2))
        bpp = np.kron(f1.basis_plus, f2.basis_plus)
        bpm = np.kron(f1.basis_plus, f2.basis_minus)
        bmp = np.kron(f1.basis_minus, f2.basis_plus)
        cross = _norm2(bpp.conj().T @ phi @ bpm) + _norm2(bpp.conj().T @ phi @ bmp)
        assert cross < 1e-8 * _norm2(phi)


class TestGenerator:
    def test_involution_kinds(self):
        rng = np.random.default_rng(1)
        for kind in ("signature", "flip", "conjugated"):
            for n in (1, 2, 5, 8):
                validate_involution(random_involution(rng, n, kind))
        with pytest.raises(ValidationError, match="kind"):
            random_involution(rng, 3, "bogus")

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_plus": -1}, "n_plus must be a non-negative integer"),
        ({"n_jordan": 1.5}, "n_jordan must be a non-negative integer"),
        ({"mixing_strength": math.nan}, "mixing_strength must be finite"),
        ({"mixing_strength": -0.4}, "mixing_strength must be finite"),
    ])
    def test_bad_generator_argument_is_a_validation_error(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            random_jsa_factor(np.random.default_rng(0), **kwargs)

    def test_truth_matches_measured_classification(self):
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            f = random_jsa_factor(
                rng, n_plus=1 + seed % 2, n_minus=1 + (seed // 2) % 2,
                n_jordan=1 if seed % 3 == 0 else 0,
                n_pairs=1 if seed % 4 == 0 else 0,
                conjugate=bool(seed % 2))
            scale = max(1.0, _norm2(f.t))
            assert j_self_adjoint_defect(f.t, f.j) < 1e-10 * scale
            measured = classify_spectrum(f.t, f.j, cluster_gap=1e-6 * scale)
            truth = f.classification.entries
            assert len(measured) == len(truth)
            for got, want in zip(measured.entries, truth):
                assert got.lam == pytest.approx(want.lam, abs=1e-6 * scale)
                assert got.type is want.type
                assert got.alg_mult == want.alg_mult
                assert got.geo_mult == want.geo_mult

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_eigenvalues_keep_clear_of_given_ones(self, seed):
        f = random_jsa_factor(np.random.default_rng(seed), plus_eigs=[0.0],
                              n_minus=3, jordan_eigs=[], pair_eigs=[])
        truth = f.classification.entries
        lams = sorted(e.lam.real for e in truth)
        assert 0.0 in lams and len(lams) == 4
        assert np.min(np.diff(lams)) >= 0.3
        assert [e.type for e in truth if e.lam == 0.0] == [POS]
        assert sum(e.type is NEG for e in truth) == 3
        measured = classify_spectrum(f.t, f.j)
        assert len(measured) == len(truth)
        for got, want in zip(measured.entries, truth):
            assert got.lam == pytest.approx(want.lam, abs=1e-8)
            assert (got.type, got.alg_mult) == (want.type, want.alg_mult)

    def test_bases_are_invariant_and_certified(self):
        rng = np.random.default_rng(8)
        f = random_jsa_factor(rng, n_plus=2, n_minus=2, n_jordan=1,
                              mixing_strength=0.8)
        n = f.n
        for B in (f.basis_plus, f.basis_minus):
            Q = np.linalg.qr(B)[0]
            pi = Q @ Q.conj().T
            assert _norm2((np.eye(n) - pi) @ f.t @ pi) < 1e-10 * _norm2(f.t)
        assert f.certificate.kappa_plus > 0
        assert f.certificate.kappa_minus > 0

    def test_make_factor_spec_defaults(self):
        T = np.diag([1.0, 2.0, -3.0]).astype(complex)
        J = np.diag([1.0, -1.0, 1.0])
        f = make_factor_spec(T, J)
        types = {float(e.lam.real): e.type for e in f.classification.entries}
        assert types == {1.0: POS, 2.0: NEG, -3.0: POS}
        assert f.basis_plus.shape == (3, 2)
        assert f.basis_minus.shape == (3, 1)
        assert f.certificate.kappa_plus == pytest.approx(1.0)

    def test_split_jordan_pairs_get_no_wrong_verdict(self):
        # at the default cluster gap each campaign jordan factor's Jordan
        # pair splits by about 1e-7 into two ill-conditioned halves;
        # re-deriving the factor must refuse or return the ground truth
        rng = np.random.default_rng(20260815)
        jordan = {}
        for k in range(27):
            kind = _CAMPAIGN_CYCLE[k % len(_CAMPAIGN_CYCLE)]
            f1, _ = _campaign_instance(rng, kind)
            if kind == "jordan":
                jordan[k] = f1
        assert sorted(jordan) == [2, 6, 12, 16, 22, 26]
        for f in jordan.values():
            try:
                got = make_factor_spec(f.t, f.j).classification.entries
            except NumericalError:
                continue
            want = f.classification.entries
            assert [(e.type, e.alg_mult, e.geo_mult) for e in got] == \
                [(e.type, e.alg_mult, e.geo_mult) for e in want]
            assert [e.lam for e in got] == pytest.approx([e.lam for e in want],
                                                         abs=1e-6)

    def test_default_bases_for_given_classification(self):
        # the engine's root bases span the generator's definite subspaces
        rng = np.random.default_rng(8)
        f = random_jsa_factor(rng, n_plus=2, n_minus=2, mixing_strength=0.8)
        g = make_factor_spec(f.t, f.j)
        for got, want in ((g.basis_plus, f.basis_plus),
                          (g.basis_minus, f.basis_minus)):
            assert got.shape == want.shape
            Qg, Qw = np.linalg.qr(got)[0], np.linalg.qr(want)[0]
            assert _norm2(Qg @ Qg.conj().T - Qw @ Qw.conj().T) < 1e-8

    def test_make_factor_spec_rejects_non_jsa(self):
        with pytest.raises(ValidationError, match="self-adjoint"):
            make_factor_spec(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


# The generator's canonical blocks and 2-by-2 embeddings as they were
# written with np.ix_ and scipy.linalg.block_diag: the reference the
# scalar stores and the block placement must match bit for bit.

def reference_embed(n, i, j, block):
    M = np.eye(n, dtype=complex)
    M[np.ix_([i, j], [i, j])] = block
    return M


def reference_block_diagonal(blocks, n):
    return scipy.linalg.block_diag(*blocks) if blocks else np.zeros((0, 0))


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGeneratorAgainstReference:
    def test_embed(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
            block = rng.standard_normal((2, 2))
            if rng.integers(2):
                block = block + 1j * rng.standard_normal((2, 2))
            assert same_array(tensorsum._embed(n, i, j, block),
                              reference_embed(n, i, j, block))

    def test_block_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sizes = rng.integers(1, 3, size=int(rng.integers(1, 8)))
            blocks = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                      for k in sizes]
            n = int(sizes.sum())
            assert same_array(tensorsum._block_diagonal(blocks, n),
                              reference_block_diagonal(blocks, n))

    @pytest.mark.parametrize("seed", [23, 4242])
    def test_every_campaign_kind(self, monkeypatch, seed):
        # every factor field, certificate and ground truth of one draw of
        # each kind, with the reference helpers patched in for comparison
        def draws():
            rng = np.random.default_rng(seed)
            return [_campaign_instance(rng, kind) for kind in _CAMPAIGN_CYCLE]

        got = draws()
        monkeypatch.setattr(tensorsum, "_embed", reference_embed)
        monkeypatch.setattr(tensorsum, "_block_diagonal", reference_block_diagonal)
        want = draws()
        for pair_a, pair_b in zip(got, want):
            for a, b in zip(pair_a, pair_b):
                for field in ("t", "basis_plus", "basis_minus"):
                    assert same_array(getattr(a, field), getattr(b, field))
                assert same_array(a.j.matrix, b.j.matrix)
                assert (dataclasses.astuple(a.certificate)
                        == dataclasses.astuple(b.certificate))
                assert ([(e.lam, e.type, e.gram_eigs.tobytes())
                         for e in a.classification]
                        == [(e.lam, e.type, e.gram_eigs.tobytes())
                            for e in b.classification])


class TestCampaign:
    def test_small_campaign_clean_and_deterministic(self):
        result = run_campaign(seed=7, n_instances=20)
        assert result.total_violations == 0
        assert result.kind_counts == {"definite": 6, "jordan": 4, "overlap": 4,
                                      "pair": 2, "hermitian": 2, "big": 2}
        again = run_campaign(seed=7, n_instances=20)
        assert again.instances == result.instances

    @pytest.mark.parametrize("seed, n_instances", [(1, -3), (-1, 2), (1, 2.5),
                                                   (1.0, 2)])
    def test_bad_seed_or_count_is_a_validation_error(self, seed, n_instances):
        with pytest.raises(ValidationError, match="non-negative integer"):
            run_campaign(seed, n_instances)

    def test_default_campaign_has_no_failures_or_unmatched_points(self):
        # criterion 6 gates the violations; oracle failures and unmatched
        # points are gated at zero too
        result = run_campaign(20260815, 200)
        assert result.total_failures == 0
        assert result.total_unmatched == 0

    def test_sums_separated_matches_pairwise_loop(self):
        # dyadic eigenvalues make sums exactly gap apart: that still counts
        # as separated, only strictly closer sums do not
        def loop(f1, f2, gap):
            s = np.array([complex(a.lam) + complex(b.lam)
                          for a in f1.classification.entries
                          for b in f2.classification.entries])
            return all(np.abs(s[i + 1:] - s[i]).min() >= gap
                       for i in range(len(s) - 1))

        rng = np.random.default_rng(31)
        for _ in range(50):
            f1, f2 = (FactorSpec(
                t=None, j=None, basis_plus=None, basis_minus=None,
                classification=spectrum(*[(0.25 * x, POS) for x in
                                          rng.integers(-8, 9, rng.integers(1, 5))]))
                for _ in range(2))
            for gap in (0.0, 0.25, 0.5):
                assert _sums_separated(f1, f2, gap) == loop(f1, f2, gap)
        f1 = diag_factor([(0.0, 1), (0.5, 1)])
        f2 = diag_factor([(0.0, 1), (1.0, 1)])
        assert _sums_separated(f1, f2, 0.5)
        assert not _sums_separated(f1, f2, 0.5 + 1e-12)

    def test_constraint_satisfaction_table(self):
        assert constraint_satisfied(TypeConstraint.NOT_MINUS, POS)
        assert constraint_satisfied(TypeConstraint.NOT_MINUS, ND)
        assert not constraint_satisfied(TypeConstraint.NOT_MINUS, NEG)
        assert constraint_satisfied(TypeConstraint.UNCONSTRAINED, NEG)
        assert not constraint_satisfied(TypeConstraint.MUST_BE_PLUS, ND)
