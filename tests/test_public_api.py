"""The package keeps only what an analysis runs; test-only objects live in oracles.py."""

import ast
from pathlib import Path

import choilike

SRC = Path(choilike.__file__).parent
# public definitions that no code in the package refers to, each with why it stays
UNREFERENCED_ALLOWED = {
    "psd_feasible_cross_terms": "wrapped by perfbench/tracer.py; goes with ROADMAP item 8",
}


def _unreferenced_public_definitions() -> set[str]:
    """Public top-level functions and classes with no Name or Attribute use outside themselves."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.name != "__init__.py":
                owner = node.name
                if not owner.startswith("_"):
                    defined.add(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return defined - used


def test_every_public_definition_is_used_in_the_package():
    unreferenced = _unreferenced_public_definitions()
    assert unreferenced == set(UNREFERENCED_ALLOWED), (
        "move test-only objects to tests/oracles.py, or list them with a reason"
    )


def test_public_names_are_pinned():
    # an API change edits this list on purpose
    assert sorted(choilike.__all__) == [
        "CklParams",
        "CoefficientMatrix",
        "ConditionReport",
        "CounterexampleCheck",
        "FormClass",
        "InternalInconsistencyError",
        "KyeParams",
        "PptWitnessCertificate",
        "Verdict",
        "ViolationCertificate",
        "__version__",
        "apply_map",
        "average_necessary",
        "averaged_params",
        "b_only_necessary",
        "boundary_proposition",
        "boundary_witness_vector",
        "c3_mean",
        "ckl_is_indecomposable",
        "ckl_is_positive",
        "classify_form",
        "cp_check",
        "cyclic_necessary",
        "determinant",
        "find_positivity_violation",
        "full_report",
        "geometric_means",
        "hermitian_eigenvalues",
        "indecomposability_probe",
        "is_psd",
        "kye_check",
        "kye_matrix",
        "maximal_cross_terms",
        "outer_product",
        "pairwise_necessary",
        "pairwise_sufficient",
        "positivity_gap",
        "require_hermitian",
        "scaling_sufficient_search",
        "summarize",
        "validate_coefficients",
        "verify_counterexample",
    ]
    assert all(hasattr(choilike, name) for name in choilike.__all__)
