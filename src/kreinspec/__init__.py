"""kreinspec: spectral-type classification in Krein spaces.

Finite unions of real intervals with exact endpoint algebra, Gram/Schur
classification of spectral points of J-self-adjoint matrices, definite-type
prediction for tensor (Kronecker) sums, closed-form and finite-difference
models of a PT-symmetric Robin waveguide, and pseudospectral realness
diagnostics, with a command line front end.
"""

__version__ = "0.1.0"

from .errors import (ContourError, KreinspecError, NumericalError,
                     RootCertificationError, ValidationError)
from .krein import (ClassifiedSpectrum, DefinitenessCertificate, Involution,
                    SpectralType, SpectrumEntry, ThetaCertificate,
                    classify_point, classify_spectrum, definiteness_constants,
                    j_self_adjoint_defect, riesz_projection, theta_operator,
                    validate_involution)
from .realsets import Interval, RealLineSet, combine, minkowski_add_points, normalize
from .tensorsum import (CampaignResult, FactorSpec, MSets, PredictionReport,
                        TypeConstraint, Violation, build_phi,
                        constraint_satisfied, kron_sum, make_factor_spec,
                        oracle_classify_and_compare, predict_m_sets,
                        predict_types, random_involution, random_jsa_factor,
                        run_campaign)
from .transversal import (BranchPoint, Constant, Discretized, SquareWell,
                          TransversalMode, UserSet, WaveguideDecomposition,
                          Zero, branch_curves, exceptional_set,
                          longitudinal_spectrum, mode_function, robin_fd,
                          secular_derivative, secular_roots, secular_value,
                          transversal_modes, waveguide_m_sets)
from .waveguide2d import (GridSpec, ImagBoundFit, PseudospectrumMap,
                          RealnessReport, WaveguideOperator, XBoundary,
                          assemble_waveguide, eigs_near, imag_bound_fit,
                          pseudospectrum_map, realness_report)

__all__ = [
    "__version__",
    "KreinspecError", "ValidationError", "NumericalError", "ContourError",
    "RootCertificationError",
    "Interval", "RealLineSet", "normalize", "combine", "minkowski_add_points",
    "SpectralType", "Involution", "SpectrumEntry", "ClassifiedSpectrum",
    "ThetaCertificate", "DefinitenessCertificate",
    "validate_involution", "j_self_adjoint_defect", "riesz_projection",
    "classify_point", "classify_spectrum", "theta_operator",
    "definiteness_constants",
    "TypeConstraint", "FactorSpec", "MSets", "PredictionReport", "Violation",
    "CampaignResult", "constraint_satisfied", "make_factor_spec", "kron_sum",
    "predict_m_sets", "predict_types", "oracle_classify_and_compare",
    "build_phi", "random_involution", "random_jsa_factor", "run_campaign",
    "TransversalMode", "WaveguideDecomposition", "BranchPoint",
    "Zero", "Constant", "SquareWell", "UserSet", "Discretized",
    "transversal_modes", "exceptional_set", "mode_function", "robin_fd",
    "secular_value", "secular_derivative", "secular_roots", "branch_curves",
    "longitudinal_spectrum", "waveguide_m_sets",
    "XBoundary", "GridSpec", "WaveguideOperator", "PseudospectrumMap",
    "ImagBoundFit", "RealnessReport",
    "assemble_waveguide", "eigs_near", "pseudospectrum_map",
    "imag_bound_fit", "realness_report",
]
