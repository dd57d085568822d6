"""Computer algebra for bounded symmetric domains: kernel expansions,
invariants, and jet-level verification and construction of holomorphic
isometries from complex unit balls."""

from .scalars import (Exact, EXACT_ONE, EXACT_ZERO, EXACT_I, SQRT2,
                      HALF_SQRT2, field_sqrt, rational_sqrt)
from .domains import (DomainSpec, ParameterError, make_spec, null_threshold,
                      closed_form_null_threshold, null_le_vmrt,
                      rank2_codim_inequality, dim_upper_bound,
                      vmrt_certificate, char_bundle_dims, sos_counts)
from .poly import HoloPoly, BidegPoly, JetMap, compose_truncate
from .kernels import (SignedSOS, make_sos, sos_polydisk, sos_type_iv,
                      sos_type_i, kernel_value, kernel_polarized,
                      h_pullback, minimal_embedding, curvature_at_origin,
                      contains)
from .calabi import (coefficient_matrix, match_unitary, complete_to_unitary,
                     sos_signature_bound)
from .errors import (VerificationError, UnitaryMatchError,
                     ExactCompletionError, TruncationError)
from .isometry import (IsometryJet, FEReport, PolarizedReport,
                       RecoveredUnitary, VarietySystem, ExtensionResult,
                       check_functional_eq, check_polarized_eq,
                       recover_matching_unitary, build_k1_variety,
                       solve_component_jet, membership_residual,
                       build_k2_variety, extend_isometry,
                       full_verification_report)
from .randmat import (random_exact_unitary, block_pair_unitary,
                      random_coisometry, random_isometric_slice,
                      random_exact_jet)

__version__ = "0.1.0"

__all__ = [
    "Exact", "EXACT_ONE", "EXACT_ZERO", "EXACT_I", "SQRT2", "HALF_SQRT2",
    "field_sqrt", "rational_sqrt",
    "DomainSpec", "ParameterError", "make_spec", "null_threshold",
    "closed_form_null_threshold", "null_le_vmrt", "rank2_codim_inequality",
    "dim_upper_bound", "vmrt_certificate", "char_bundle_dims", "sos_counts",
    "HoloPoly", "BidegPoly", "JetMap", "compose_truncate",
    "SignedSOS", "make_sos", "sos_polydisk", "sos_type_iv", "sos_type_i",
    "kernel_value", "kernel_polarized", "h_pullback",
    "minimal_embedding", "curvature_at_origin", "contains",
    "coefficient_matrix", "match_unitary", "complete_to_unitary",
    "sos_signature_bound",
    "VerificationError", "UnitaryMatchError", "ExactCompletionError",
    "TruncationError",
    "IsometryJet", "FEReport", "PolarizedReport", "RecoveredUnitary",
    "VarietySystem", "ExtensionResult",
    "check_functional_eq", "check_polarized_eq",
    "recover_matching_unitary", "build_k1_variety",
    "solve_component_jet", "membership_residual", "build_k2_variety",
    "extend_isometry", "full_verification_report",
    "random_exact_unitary", "block_pair_unitary", "random_coisometry",
    "random_isometric_slice", "random_exact_jet",
    "__version__",
]
