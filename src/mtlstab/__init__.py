"""mtlstab: a workbench for finite MTL-algebras.

Validates the axioms of prelinear residuated lattices on explicit operation
tables, computes implicative and multiplicative stabilizer operators,
verifies a registry of identity claims with witnesses on refutation, builds
the algebras induced on one-point stabilizers, enumerates small models up to
isomorphism, and scans enumerated corpora for counterexamples to three
structural questions.
"""

from .core import (
    FiniteMtlAlgebra,
    ValidationReport,
    AlgebraError,
    TableError,
    NotALatticeError,
    LatticeMismatchError,
    NotValidatedError,
    InternalConsistencyError,
    construct,
    validate,
    replay_violation,
    leq,
    neg,
    power,
)
from .subsets import (
    Subset,
    SubsetError,
    EmptySubsetError,
    empty,
    full,
    singleton,
    from_elements,
    from_labels,
    all_nonempty_subsets,
)
from .order import (
    NotAProperFilterError,
    NotALatticeIdealError,
    is_filter,
    is_proper_filter,
    generated_filter,
    is_prime_filter,
    all_filters,
    is_lattice_ideal,
    principal_ideal,
    principal_filter,
    generated_lattice_ideal,
    is_prime_lattice_ideal,
    godel_center,
    is_subalgebra,
    subalgebra_violation,
)
from .stabilizers import (
    impl_left,
    impl_right,
    impl_stab,
    ortho,
    mult_left,
    mult_right,
    mult_stab,
    stabilizer_suite,
)
from .report import Report, emit_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
