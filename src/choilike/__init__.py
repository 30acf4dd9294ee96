"""Positivity and decomposability analysis for Choi-like maps.

The maps handled here act on square complex matrices as
Phi_A(X) = Delta_A(X) - X, where A is a nonnegative coefficient matrix
and Delta_A(X) collects weighted input diagonals.  The package provides
the analytic positivity / complete-positivity / decomposability
criteria for this family together with numerical certificate searches
(positivity violations and structured PPT indecomposability witnesses)
and a command-line front end.
"""

__version__ = "0.1.0"

from .linalg import (
    determinant,
    hermitian_eigenvalues,
    is_psd,
    outer_product,
    require_hermitian,
)
from .maps import (
    CklParams,
    CoefficientMatrix,
    FormClass,
    KyeParams,
    apply_map,
    averaged_params,
    classify_form,
    cp_check,
    geometric_means,
    kye_matrix,
    validate_coefficients,
)
from .criteria import (
    ConditionReport,
    InternalInconsistencyError,
    Verdict,
    average_necessary,
    b_only_necessary,
    boundary_proposition,
    boundary_witness_vector,
    c3_mean,
    ckl_is_indecomposable,
    ckl_is_positive,
    cyclic_necessary,
    full_report,
    kye_check,
    pairwise_necessary,
    pairwise_sufficient,
    scaling_sufficient_search,
    summarize,
)
from .search import (
    CounterexampleCheck,
    PptWitnessCertificate,
    ViolationCertificate,
    find_positivity_violation,
    indecomposability_probe,
    maximal_cross_terms,
    positivity_gap,
    verify_counterexample,
)

__all__ = [
    "__version__",
    "determinant",
    "hermitian_eigenvalues",
    "is_psd",
    "outer_product",
    "require_hermitian",
    "CklParams",
    "CoefficientMatrix",
    "FormClass",
    "KyeParams",
    "apply_map",
    "averaged_params",
    "classify_form",
    "cp_check",
    "geometric_means",
    "kye_matrix",
    "validate_coefficients",
    "ConditionReport",
    "InternalInconsistencyError",
    "Verdict",
    "average_necessary",
    "b_only_necessary",
    "boundary_proposition",
    "boundary_witness_vector",
    "c3_mean",
    "ckl_is_indecomposable",
    "ckl_is_positive",
    "cyclic_necessary",
    "full_report",
    "kye_check",
    "pairwise_necessary",
    "pairwise_sufficient",
    "scaling_sufficient_search",
    "summarize",
    "CounterexampleCheck",
    "PptWitnessCertificate",
    "ViolationCertificate",
    "find_positivity_violation",
    "indecomposability_probe",
    "maximal_cross_terms",
    "positivity_gap",
    "verify_counterexample",
]
