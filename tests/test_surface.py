"""The public surface, pinned name by name.

The benchmark tracer wraps every public function of these modules by name,
and per-layer metrics such as `order.generated_filter_s` read those spans, so
adding or dropping a public name must be a visible, deliberate change.
"""

import importlib
import inspect

import mtlstab

PACKAGE_ALL = [
    "AlgebraError", "EmptySubsetError", "FiniteMtlAlgebra",
    "InternalConsistencyError", "LatticeMismatchError", "NotALatticeError",
    "NotALatticeIdealError", "NotAProperFilterError", "NotValidatedError",
    "Report", "Subset", "SubsetError", "TableError", "ValidationReport",
    "all_filters", "all_nonempty_subsets", "construct", "core",
    "emit_report", "empty", "from_elements", "from_labels", "full",
    "generated_filter", "generated_lattice_ideal", "godel_center",
    "impl_left", "impl_right", "impl_stab", "is_filter",
    "is_lattice_ideal", "is_prime_filter", "is_prime_lattice_ideal",
    "is_proper_filter", "is_subalgebra", "leq", "mult_left", "mult_right",
    "mult_stab", "neg", "order", "ortho", "power", "principal_filter",
    "principal_ideal", "replay_violation", "report", "singleton",
    "stabilizer_suite", "stabilizers", "subalgebra_violation", "subsets",
    "validate",
]

PUBLIC_FUNCTIONS = {
    "core": ["construct", "leq", "neg", "power", "replay_violation",
             "require_validated", "validate"],
    "order": ["all_filters", "generated_filter", "generated_lattice_ideal",
              "godel_center", "is_filter", "is_lattice_ideal",
              "is_prime_filter", "is_prime_lattice_ideal", "is_proper_filter",
              "is_subalgebra", "principal_filter", "principal_ideal",
              "subalgebra_violation"],
    "stabilizers": ["impl_left", "impl_right", "impl_stab", "mult_left",
                    "mult_right", "mult_stab", "ortho", "stabilizer_suite"],
    "classify": ["classify", "godel_by_left_stabilizers",
                 "godel_by_right_stabilizers", "godel_chain_by_stabilizers",
                 "imtl_by_stabilizers", "integral_by_stabilizers", "is_bl",
                 "is_chain", "is_godel", "is_imtl", "is_integral_mtl",
                 "is_mv"],
    "claims": ["claim_ids", "documented_divergences", "outcome_report",
               "verify_all", "verify_claim"],
    "induced": ["check_mtl_iso", "left_mult_algebra", "mv_left_iso",
                "order_iso_right", "right_mult_algebra"],
    "search": ["canonical_form", "enumerate_all", "enumerate_chains",
               "gen_family", "open1_scan", "open2_premise", "open2_scan",
               "open3_scan"],
}


def test_package_all_is_pinned():
    assert sorted(mtlstab.__all__) == PACKAGE_ALL


def test_public_functions_are_pinned():
    for name, expected in PUBLIC_FUNCTIONS.items():
        module = importlib.import_module(f"mtlstab.{name}")
        found = sorted(
            attr for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__)
        assert found == expected, name
