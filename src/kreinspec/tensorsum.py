"""Kronecker sums of J-self-adjoint factors and spectral-type prediction.

Given factors (T1, J1) and (T2, J2), the sum S = T1 (x) I + I (x) T2 is
self-adjoint for J = J1 (x) J2 and its spectrum is the set of pairwise
eigenvalue sums.  The typed parts of the factor spectra predict, point by
point, constraints on the type each sum can have:

* membership sets M+/M-/M0 built from sums of same-sign, mixed-sign, and
  remaining parts exclude types outright, and
* when both factors carry uniformly definite invariant subspaces, block
  spectra of the four definite Kronecker blocks promote the exclusions to
  exact type statements for points well separated from the other blocks.

``oracle_classify_and_compare`` closes the loop by classifying the sum
directly and checking every prediction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .krein import (ClassifiedSpectrum, DefinitenessCertificate, Involution,
                    SpectralType, SpectrumEntry, _classified_roots,
                    _cluster_eigenvalues, _factorization, _norm2, _position,
                    _require_counts, _require_finite, _require_tolerances,
                    definiteness_constants, j_self_adjoint_defect,
                    validate_involution)
from .realsets import RealLineSet, minkowski_add_points

__all__ = [
    "TypeConstraint",
    "FactorSpec",
    "MSets",
    "PredictionReport",
    "Violation",
    "CampaignResult",
    "constraint_satisfied",
    "make_factor_spec",
    "kron_sum",
    "predict_m_sets",
    "predict_types",
    "oracle_classify_and_compare",
    "build_phi",
    "random_involution",
    "random_jsa_factor",
    "run_campaign",
]

DIM_CAP = 4096
_COALESCE_TOL = 1e-7  # pair sums this close are one point of the sum spectrum


class TypeConstraint(str, Enum):
    MUST_BE_PLUS = "must-be-positive"
    MUST_BE_MINUS = "must-be-negative"
    MUST_BE_NOT_DEFINITE = "must-be-not-definite"
    NOT_MINUS = "not-negative"
    NOT_PLUS = "not-positive"
    UNCONSTRAINED = "unconstrained"


_P, _M, _0 = SpectralType.POSITIVE, SpectralType.NEGATIVE, SpectralType.NOT_DEFINITE

_ALLOWED = {
    TypeConstraint.MUST_BE_PLUS: frozenset({_P}),
    TypeConstraint.MUST_BE_MINUS: frozenset({_M}),
    TypeConstraint.MUST_BE_NOT_DEFINITE: frozenset({_0}),
    TypeConstraint.NOT_MINUS: frozenset({_P, _0}),
    TypeConstraint.NOT_PLUS: frozenset({_M, _0}),
    TypeConstraint.UNCONSTRAINED: frozenset({_P, _M, _0}),
}

_FROM_ALLOWED = {v: k for k, v in _ALLOWED.items()}


def constraint_satisfied(constraint: TypeConstraint, t: SpectralType) -> bool:
    return t in _ALLOWED[constraint]


def _merge_constraints(constraints) -> TypeConstraint:
    allowed = frozenset({_P, _M, _0})
    for c in constraints:
        allowed &= _ALLOWED[c]
    if not allowed:
        raise NumericalError("prediction rules yielded contradictory constraints")
    return _FROM_ALLOWED[allowed]


# ---------------------------------------------------------------------------
# Factor specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FactorSpec:
    """A classified J-self-adjoint factor for Kronecker-sum experiments.

    ``basis_plus``/``basis_minus`` are column bases of invariant subspaces
    on which the indefinite product is uniformly positive resp. negative
    (the definite root subspaces, in the default construction); either can
    be empty.  ``certificate`` carries their definiteness constants, or is
    None when no block-level predictions are wanted.
    """

    t: np.ndarray
    j: Involution
    classification: ClassifiedSpectrum
    basis_plus: np.ndarray
    basis_minus: np.ndarray
    certificate: DefinitenessCertificate | None = None

    @property
    def n(self) -> int:
        return self.t.shape[0]


def make_factor_spec(T, J, tol: float = 1e-8,
                     cluster_gap: float | None = None) -> FactorSpec:
    """Classify a J-self-adjoint factor and certify its definite subspaces.

    One engine pass (``classify_spectrum``'s) gives the classification and
    the orthonormal root bases of its clusters; ``basis_plus`` and
    ``basis_minus`` stack those of the positive and of the negative
    entries, in entry order, and the certificate holds their definiteness
    constants.  For exclusion-only predictions, drop the certificate with
    ``dataclasses.replace(spec, certificate=None)``.
    """
    _require_tolerances(tol=tol, cluster_gap=cluster_gap)
    T = np.asarray(T, dtype=complex)
    invol = J if isinstance(J, Involution) else validate_involution(J)
    defect = j_self_adjoint_defect(T, invol)  # refuses a non-finite T
    scale = max(1.0, _factorization(T)[0])  # memoised with the Schur form
    if defect > tol * scale:
        raise ValidationError(
            f"factor is not J-self-adjoint: defect {defect:.3e} > {tol * scale:.1e}")
    roots = _classified_roots(T, invol, tol=tol, cluster_gap=cluster_gap)
    empty = np.zeros((T.shape[0], 0), dtype=complex)
    Bp, Bm = (np.hstack([B for e, B in roots if e.type is t] or [empty])
              for t in (_P, _M))
    return FactorSpec(t=T, j=invol,
                      classification=ClassifiedSpectrum(tuple(e for e, _ in roots)),
                      basis_plus=Bp, basis_minus=Bm,
                      certificate=definiteness_constants(invol.matrix, Bp, Bm))


# ---------------------------------------------------------------------------
# Kronecker sum
# ---------------------------------------------------------------------------

def kron_sum(f1: FactorSpec, f2: FactorSpec,
             dim_cap: int = DIM_CAP) -> tuple[np.ndarray, Involution]:
    """S = T1 (x) I + I (x) T2 with the product involution J1 (x) J2,
    whose ``tol`` is bounded from the factors', not measured."""
    n1, n2 = f1.n, f2.n
    if n1 * n2 > dim_cap:
        raise ValidationError(
            f"product dimension {n1 * n2} exceeds the cap {dim_cap}")
    S = np.kron(f1.t, np.eye(n2)) + np.kron(np.eye(n1), f2.t)
    # with t_i = f_i.j.tol < 1, ||J_i|| <= 1 + t_i, so ||J - J*|| and
    # ||J^2 - I|| are at most t_1 + t_2 + 2 t_1 t_2 <= 4 max(t_1, t_2)
    Jm = np.kron(f1.j.matrix, f2.j.matrix).astype(complex, copy=False)
    return S, Involution(Jm, tol=4 * max(f1.j.tol, f2.j.tol))


# ---------------------------------------------------------------------------
# M-set and type prediction
# ---------------------------------------------------------------------------

class MSets(NamedTuple):
    m_plus: object
    m_minus: object
    m_zero: object


# type-pair tags: "pp", "pm", "mp", "mm", or "r" through a not-definite point
_SIGN = {_P: "p", _M: "m"}


def _check_typed(c):
    for e in c:
        if not isinstance(e.type, SpectralType):
            raise ValidationError(f"eigenvalue {e.lam} carries no spectral type")


def _sum_groups(c1: ClassifiedSpectrum, c2: ClassifiedSpectrum):
    """Every pairwise eigenvalue sum and its type-pair tag, as two arrays,
    and the sums coalesced into (rep, tags) groups sorted by (Re, Im)."""
    _check_typed(c1)
    _check_typed(c2)
    pairs = [(e1, e2) for e1 in c1.entries for e2 in c2.entries]
    pts = np.array([complex(e1.lam) + complex(e2.lam) for e1, e2 in pairs],
                   dtype=complex)
    tags = np.array(["r" if _0 in (e1.type, e2.type) else
                     _SIGN[e1.type] + _SIGN[e2.type] for e1, e2 in pairs], dtype="U2")
    groups = sorted(((complex(np.mean(pts[i])), frozenset(tags[i].tolist()))
                     for i in _cluster_eigenvalues(pts, _COALESCE_TOL)),
                    key=lambda g: (g[0].real, g[0].imag))
    return pts, tags, groups


# Same-sign sums make M+, mixed-sign sums M-; a sum with neither tag has
# every decomposition through a not-definite point ("r") and makes M0.
_SAME, _MIXED = frozenset({"pp", "mm"}), frozenset({"pm", "mp"})


def _m_sets(groups) -> MSets:
    plus = tuple(rep for rep, tags in groups if tags & _SAME)
    minus = tuple(rep for rep, tags in groups if tags & _MIXED)
    zero = tuple(rep for rep, tags in groups if not tags & (_SAME | _MIXED))
    return MSets(plus, minus, zero)


def predict_m_sets(c1, c2) -> MSets:
    """Membership sets for the sum spectrum from the typed factor spectra.

    Finite route: M+ collects sums of two positive or two negative points,
    M- the mixed-sign sums, and M0 is everything left over (all of whose
    decompositions pass through a not-definite factor point).  Symbolic
    route: ``c1`` may be a RealLineSet standing for a spectrum of uniformly
    positive type (a self-adjoint factor with J = I); then each set is the
    Minkowski sum of the matching typed points of ``c2``, any entries with
    ``.lam`` and ``.type`` (transversal modes too), with that set.
    """
    if isinstance(c1, RealLineSet):
        _check_typed(c2)
        nonreal = [e.lam for e in c2 if abs(complex(e.lam).imag) > 0]
        if nonreal:
            raise ValidationError(
                f"symbolic route needs a real factor-2 spectrum, got {nonreal[0]}")
        parts = []
        for t in (_P, _M, _0):
            pts = [complex(e.lam).real for e in c2 if e.type is t]
            parts.append(minkowski_add_points(pts, c1))
        return MSets(*parts)
    return _m_sets(_sum_groups(c1, c2)[2])


# The exclusion a sum point gets from its membership (in M+, in M-).
_EXCLUSION = {(True, False): TypeConstraint.NOT_MINUS,
              (False, True): TypeConstraint.NOT_PLUS,
              (True, True): TypeConstraint.MUST_BE_NOT_DEFINITE,
              (False, False): TypeConstraint.MUST_BE_NOT_DEFINITE}

# Block rules as (near tags, constraint): a sum point gets the constraint
# when one of its tags is near and every other block spectrum ("r" holds
# the sums through a not-definite point) lies beyond the separation radius.
# Each same-sign (mixed) block alone gives plus (minus) type; under the
# product gate the two same-sign (mixed) blocks may overlap each other.
_BLOCKS = ("pp", "mm", "pm", "mp", "r")
_GATED_RULES = ((_SAME, TypeConstraint.MUST_BE_PLUS),
                (_MIXED, TypeConstraint.MUST_BE_MINUS))
_BLOCK_RULES = tuple((frozenset({tag}), constraint)
                     for near, constraint in _GATED_RULES for tag in sorted(near))


def predict_types(f1: FactorSpec, f2: FactorSpec,
                  separation_radius: float | None = None) -> dict:
    """Predicted type constraint for every point of the sum spectrum.

    Exclusion rules always apply: points of M0, and of the overlap of M+
    with M-, must be not definite; membership in M+ alone rules out
    negative type, in M- alone positive type.  Block rules follow the
    certificates: when both factors carry one, they upgrade well-separated
    points of the definite block spectra to exact type statements; a point
    qualifies only if its distance to every other block spectrum exceeds
    ``separation_radius`` (default 1e-4 times the sum's norm bound; a
    given one must be finite and non-negative).  A factor without a
    certificate (``dataclasses.replace(f, certificate=None)``) gives
    exclusion-only predictions.
    """
    return _predictions(f1, f2, separation_radius)[0]


def _predictions(f1, f2, separation_radius):
    """``predict_types``' constraints and the (rep, tags) sum groups."""
    _require_tolerances(separation_radius=separation_radius)
    scale = _norm2(f1.t) + _norm2(f2.t)
    if separation_radius is None:
        separation_radius = 1e-4 * max(1.0, scale)

    pts, tags, groups = _sum_groups(f1.classification, f2.classification)
    # per block, whether each group's representative is beyond the radius
    reps = np.array([rep for rep, _ in groups], dtype=complex)[:, None]
    far = {k: np.abs(pts[tags == k] - reps).min(axis=1, initial=math.inf)
           > separation_radius for k in _BLOCKS}

    block_rules = ()
    c1, c2 = f1.certificate, f2.certificate
    if c1 is not None and c2 is not None:
        lhs = (c1.kappa_cross * c2.kappa_cross) ** 2
        rhs = c1.kappa_plus * c2.kappa_plus * c1.kappa_minus * c2.kappa_minus
        gate = (not math.isnan(rhs)) and lhs < rhs
        block_rules = _BLOCK_RULES + (_GATED_RULES if gate else ())

    predicted = {}
    for g, (rep, flags) in enumerate(groups):
        rules = [_EXCLUSION[bool(flags & _SAME), bool(flags & _MIXED)]]
        for near, constraint in block_rules:
            if flags & near and all(far[k][g] for k in _BLOCKS if k not in near):
                rules.append(constraint)
        predicted[rep] = _merge_constraints(rules)
    return predicted, groups


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    point: complex
    constraint: TypeConstraint
    oracle_type: SpectralType


@dataclass(frozen=True, eq=False)
class PredictionReport:
    m_plus: tuple
    m_minus: tuple
    m_zero: tuple
    predicted: dict
    oracle: ClassifiedSpectrum
    violations: tuple
    oracle_failures: int
    unmatched: int

    @property
    def ok(self) -> bool:
        return not self.violations


def oracle_classify_and_compare(f1: FactorSpec, f2: FactorSpec,
                                tol: float = 1e-8,
                                cluster_gap: float | None = None,
                                dim_cap: int = DIM_CAP) -> PredictionReport:
    """Classify the Kronecker sum directly and check every prediction.

    The default cluster gap is coarser than the classifier's (1e-6 times
    the norm) so that multiple eigenvalues split by Kronecker-level
    rounding are folded back into one cluster.  The clusters of the Schur
    diagonal of the sum go through the engine of ``classify_spectrum``;
    those it cannot certify are skipped and counted in ``oracle_failures``.
    """
    S, J = kron_sum(f1, f2, dim_cap=dim_cap)
    norm, R, _ = _factorization(S)
    if cluster_gap is None:
        cluster_gap = 1e-6 * max(1.0, norm)
    failures = []
    roots = _classified_roots(S, J, tol=tol, cluster_gap=cluster_gap,
                              eigvals=np.diag(R), failures=failures)
    oracle = ClassifiedSpectrum(tuple(entry for entry, _ in roots))

    predicted, groups = _predictions(f1, f2, None)
    msets = _m_sets(groups)

    # a point with no oracle entry within the match tolerance is keyed -1
    match_tol = 5.0 * cluster_gap
    lams = oracle.all_points
    per_entry: dict[int, list[TypeConstraint]] = {}
    for point, constraint in predicted.items():
        d = np.abs(lams - point)
        k = int(np.argmin(d)) if d.size and d.min() <= match_tol else -1
        per_entry.setdefault(k, []).append(constraint)
    unmatched = len(per_entry.pop(-1, ()))

    violations = []
    for k, constraints in per_entry.items():
        merged = _merge_constraints(constraints)
        if not constraint_satisfied(merged, oracle.entries[k].type):
            violations.append(Violation(point=complex(oracle.entries[k].lam),
                                        constraint=merged,
                                        oracle_type=oracle.entries[k].type))

    return PredictionReport(m_plus=msets.m_plus, m_minus=msets.m_minus,
                            m_zero=msets.m_zero, predicted=predicted,
                            oracle=oracle, violations=tuple(violations),
                            oracle_failures=len(failures), unmatched=unmatched)


# ---------------------------------------------------------------------------
# Phi operator
# ---------------------------------------------------------------------------

def build_phi(theta1: np.ndarray, theta2: np.ndarray,
              tol: float = 1e-10) -> np.ndarray:
    """Phi = Theta1 (x) Theta2 for uniformly positive Theta factors."""
    _require_tolerances(tol=tol)
    phi_parts = []
    for name, th in (("theta1", theta1), ("theta2", theta2)):
        th = np.asarray(th, dtype=complex)
        _require_finite(**{name: th})
        scale = max(1.0, _norm2(th))
        if _norm2(th - th.conj().T) > tol * scale:
            raise ValidationError(f"{name} is not Hermitian")
        if float(scipy.linalg.eigh(th, eigvals_only=True)[0]) <= tol * scale:
            raise ValidationError(f"{name} is not uniformly positive")
        phi_parts.append(th)
    return np.kron(phi_parts[0], phi_parts[1])


# ---------------------------------------------------------------------------
# Randomized instance generation
# ---------------------------------------------------------------------------

def random_involution(rng: np.random.Generator, n: int,
                      kind: str = "signature") -> np.ndarray:
    """Random symmetric involution: a sign pattern, a pairing permutation,
    or a unitarily conjugated sign pattern."""
    if kind == "signature":
        return np.diag(rng.choice([-1.0, 1.0], size=n))
    if kind == "flip":
        J = np.zeros((n, n))
        order = rng.permutation(n)
        a, b = order[0:n - 1:2], order[1:n:2]  # consecutive pairs swap
        J[a, b] = J[b, a] = 1.0
        if n % 2:
            J[order[-1], order[-1]] = rng.choice([-1.0, 1.0])
        return J
    if kind == "conjugated":
        W = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        return W @ np.diag(rng.choice([-1.0, 1.0], size=n)) @ W.conj().T
    raise ValidationError(f"unknown involution kind {kind!r}")


def _sample_distinct(rng, count, existing=()):
    vals = list(existing)
    for _ in range(count):
        for _ in range(200):
            x = float(rng.uniform(-5.0, 5.0))
            if all(abs(x - v) >= 0.3 for v in vals):
                vals.append(x)
                break
        else:
            raise NumericalError("could not sample well-separated eigenvalues")
    return vals[len(existing):]


def _embed(n, i, j, block):
    """The n-by-n identity with the 2-by-2 ``block`` in rows and columns i, j."""
    M = np.eye(n, dtype=complex)
    M[i, i], M[i, j] = block[0, 0], block[0, 1]
    M[j, i], M[j, j] = block[1, 0], block[1, 1]
    return M


def _block_diagonal(blocks, n):
    """The complex n-by-n matrix with the square ``blocks`` down its diagonal."""
    T = np.zeros((n, n), dtype=complex)
    at = 0
    for block in blocks:
        k = block.shape[0]
        T[at:at + k, at:at + k] = block
        at += k
    return T


def random_jsa_factor(rng: np.random.Generator,
                      plus_eigs: Sequence[float] | None = None,
                      minus_eigs: Sequence[float] | None = None,
                      jordan_eigs: Sequence[float] | None = None,
                      pair_eigs: Sequence[complex] | None = None,
                      n_plus: int = 1, n_minus: int = 1,
                      n_jordan: int = 0, n_pairs: int = 0,
                      mixing_strength: float = 0.4,
                      conjugate: bool = False) -> FactorSpec:
    """Build a factor with prescribed spectral types, mixed but certified.

    Starts in canonical coordinates (sign pattern J, each eigenvalue on a
    coordinate of its own sign; Jordan blocks and non-real conjugate pairs
    on a (+,-) coordinate pair), applies J-unitary mixing (hyperbolic
    rotations across signs, unitary rotations within a sign) and optional
    global unitary conjugation, and symmetrizes T := (T + J T* J)/2 so the
    result is J-self-adjoint to machine precision.  The returned
    classification is the constructed ground truth, not a re-measurement.
    """
    _require_counts(n_plus=n_plus, n_minus=n_minus, n_jordan=n_jordan,
                    n_pairs=n_pairs)
    _require_tolerances(mixing_strength=mixing_strength)
    given = (plus_eigs, minus_eigs, jordan_eigs, pair_eigs)
    counts = (n_plus, n_minus, n_jordan, n_pairs)
    reals = iter(_sample_distinct(
        rng, sum(k for s, k in zip(given, counts) if s is None),
        existing=[complex(x).real for s in given if s is not None for x in s]))
    plus_eigs, minus_eigs, jordan_eigs, pair_reals = (
        [next(reals) for _ in range(k)] if s is None else s
        for s, k in zip(given, counts))
    pair_eigs = ([r + 1j * rng.uniform(0.4, 1.5) for r in pair_reals]
                 if pair_eigs is None else pair_eigs)

    # canonical pieces (block, J signs, ground-truth entries); the plus
    # and then the minus eigenvalues hold the leading coordinates
    pieces = [(np.array([[x]], dtype=complex), [sign], [(x, 1, 1, t, [sign])])
              for eigs, sign, t in ((plus_eigs, 1.0, _P),
                                    (minus_eigs, -1.0, _M))
              for x in map(float, eigs)]
    for lam in map(float, jordan_eigs):
        t = float(rng.uniform(0.5, 1.5))
        pieces.append((np.array([[lam + t, t], [-t, lam - t]], dtype=complex),
                       [1.0, -1.0], [(lam, 2, 1, _0, [-1.0, 1.0])]))
    for z in map(complex, pair_eigs):
        w = abs(z.imag)
        pieces.append((np.array([[z.real, w], [-w, z.real]], dtype=complex),
                       [1.0, -1.0], [(complex(z.real, w), 1, 1, _0, [0.0]),
                                     (complex(z.real, -w), 1, 1, _0, [0.0])]))
    blocks = [block for block, _, _ in pieces]
    jdiag = [s for _, signs, _ in pieces for s in signs]
    truth = [e for _, _, entries in pieces for e in entries]
    n, n_p, n_m = len(jdiag), len(plus_eigs), len(minus_eigs)
    plus_cols, minus_cols = list(range(n_p)), list(range(n_p, n_p + n_m))
    T = _block_diagonal(blocks, n)
    Jm = np.diag(jdiag)
    sig_plus = [i for i, s in enumerate(jdiag) if s > 0]
    sig_minus = [i for i, s in enumerate(jdiag) if s < 0]

    G = np.eye(n, dtype=complex)
    Ginv = np.eye(n, dtype=complex)
    budget = mixing_strength
    while budget > 0.1 and sig_plus and sig_minus:
        t = float(rng.uniform(0.1, min(0.5, budget)))
        budget -= t
        i = int(rng.choice(sig_plus))
        j = int(rng.choice(sig_minus))
        c, s = math.cosh(t), math.sinh(t)
        H = _embed(n, i, j, np.array([[c, s], [s, c]]))
        Hinv = _embed(n, i, j, np.array([[c, -s], [-s, c]]))
        G, Ginv = G @ H, Hinv @ Ginv
    for idx in (sig_plus, sig_minus):
        if len(idx) >= 2:
            i, j = rng.choice(idx, size=2, replace=False)
            th = float(rng.uniform(0, 2 * math.pi))
            ph = np.exp(1j * float(rng.uniform(0, 2 * math.pi)))
            U2 = np.array([[math.cos(th), -math.sin(th) * ph],
                           [math.sin(th) * np.conj(ph), math.cos(th)]])
            G = G @ _embed(n, int(i), int(j), U2)
            Ginv = _embed(n, int(i), int(j), U2.conj().T) @ Ginv

    T = G @ T @ Ginv
    Bp, Bm = G[:, plus_cols], G[:, minus_cols]

    if conjugate:
        W = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        T = W @ T @ W.conj().T
        Jm = W @ Jm @ W.conj().T
        Bp, Bm = W @ Bp, W @ Bm

    invol = validate_involution(Jm)
    T = 0.5 * (T + Jm @ T.conj().T @ Jm)

    entries = [SpectrumEntry(lam=complex(lam), alg_mult=a, geo_mult=g,
                             type=t, gram_eigs=np.array(ge))
               for lam, a, g, t, ge in truth]
    classification = ClassifiedSpectrum(tuple(sorted(entries, key=_position)))
    certificate = definiteness_constants(Jm, Bp, Bm)
    spec = FactorSpec(t=T, j=invol, classification=classification,
                      basis_plus=Bp, basis_minus=Bm, certificate=certificate)
    defect = j_self_adjoint_defect(T, invol)
    if defect > 1e-8 * max(1.0, _norm2(T)):
        raise NumericalError(f"generator produced defect {defect:.3e}")
    return spec


def _sums_separated(f1: FactorSpec, f2: FactorSpec, gap: float) -> bool:
    """No two pairwise eigenvalue sums lie closer than ``gap`` (strictly)."""
    s = np.add.outer(f1.classification.all_points,
                     f2.classification.all_points).ravel()
    return gap <= 0 or len(_cluster_eigenvalues(s, np.nextafter(gap, 0))) == s.size


def _campaign_instance(rng: np.random.Generator, kind: str):
    """One generator draw for the verification campaign."""
    for _ in range(60):
        conj = bool(rng.integers(0, 2))
        if kind == "definite":
            f1 = random_jsa_factor(rng, n_plus=int(rng.integers(1, 3)),
                                   n_minus=int(rng.integers(1, 3)),
                                   conjugate=conj)
            f2 = random_jsa_factor(rng, n_plus=int(rng.integers(1, 3)),
                                   n_minus=int(rng.integers(1, 3)))
        elif kind == "jordan":
            f1 = random_jsa_factor(rng, n_plus=1, n_minus=1, n_jordan=1,
                                   conjugate=conj)
            f2 = random_jsa_factor(rng, n_plus=int(rng.integers(1, 3)),
                                   n_minus=int(rng.integers(0, 2)))
        elif kind == "pair":
            f1 = random_jsa_factor(rng, n_plus=1, n_minus=1, n_pairs=1)
            f2 = random_jsa_factor(rng, n_plus=1, n_minus=1,
                                   n_pairs=int(rng.integers(0, 2)),
                                   conjugate=conj)
        elif kind == "overlap":
            d = float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(-3.0, 3.0))
            y = float(rng.uniform(-3.0, 3.0))
            f1 = random_jsa_factor(rng, plus_eigs=[x, x + d], minus_eigs=[],
                                   jordan_eigs=[], pair_eigs=[])
            f2 = random_jsa_factor(rng, plus_eigs=[y], minus_eigs=[y + d],
                                   jordan_eigs=[], pair_eigs=[])
            return f1, f2
        elif kind == "hermitian":
            f1 = random_jsa_factor(rng, n_plus=int(rng.integers(2, 4)),
                                   n_minus=0)
            f2 = random_jsa_factor(rng, n_plus=int(rng.integers(2, 4)),
                                   n_minus=0, conjugate=conj)
        elif kind == "big":
            # eigenvalues on a two-scale lattice so all pairwise sums stay
            # separated: factor-2 spacing exceeds the factor-1 span
            k = int(rng.integers(0, 4))
            n1, n2 = [(6, 10), (8, 8), (10, 10), (12, 12)][k]
            e1 = 0.5 * np.arange(n1) + rng.uniform(0.0, 0.15, size=n1)
            span1 = float(e1.max() - e1.min())
            e2 = (span1 + 0.5) * np.arange(n2) + rng.uniform(0.0, 0.15, size=n2)
            e1, e2 = e1 - e1.mean(), e2 - e2.mean()
            p1 = rng.permutation(n1)
            p2 = rng.permutation(n2)
            f1 = random_jsa_factor(rng, plus_eigs=e1[p1[:n1 // 2]],
                                   minus_eigs=e1[p1[n1 // 2:]],
                                   jordan_eigs=[], pair_eigs=[],
                                   mixing_strength=0.3)
            f2 = random_jsa_factor(rng, plus_eigs=e2[p2[:n2 // 2]],
                                   minus_eigs=e2[p2[n2 // 2:]],
                                   jordan_eigs=[], pair_eigs=[],
                                   mixing_strength=0.3)
            return f1, f2
        else:
            raise ValidationError(f"unknown campaign kind {kind!r}")
        if _sums_separated(f1, f2, gap=0.05):
            return f1, f2
    raise NumericalError(f"could not draw a separated instance of kind {kind!r}")


_CAMPAIGN_CYCLE = ("definite", "definite", "jordan", "overlap", "pair",
                   "definite", "jordan", "overlap", "hermitian", "big")


@dataclass(frozen=True)
class CampaignResult:
    instances: tuple
    total_violations: int
    total_failures: int
    total_unmatched: int
    kind_counts: dict


def run_campaign(seed: int, n_instances: int = 200,
                 tol: float = 1e-8, dim_cap: int = DIM_CAP) -> CampaignResult:
    """Randomized prediction-vs-oracle campaign over all generator branches.

    Deterministic for a fixed seed.  Each record carries the instance kind,
    the product dimension, and the violation/failure counts.
    """
    _require_counts(seed=seed, n_instances=n_instances)
    rng = np.random.default_rng(seed)
    records = []
    kind_counts: dict[str, int] = {}
    for k in range(n_instances):
        kind = _CAMPAIGN_CYCLE[k % len(_CAMPAIGN_CYCLE)]
        f1, f2 = _campaign_instance(rng, kind)
        report = oracle_classify_and_compare(f1, f2, tol=tol, dim_cap=dim_cap)
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        records.append({
            "index": k,
            "kind": kind,
            "dim": f1.n * f2.n,
            "violations": len(report.violations),
            "oracle_failures": report.oracle_failures,
            "unmatched": report.unmatched,
        })
    return CampaignResult(
        instances=tuple(records),
        total_violations=sum(r["violations"] for r in records),
        total_failures=sum(r["oracle_failures"] for r in records),
        total_unmatched=sum(r["unmatched"] for r in records),
        kind_counts=kind_counts,
    )
