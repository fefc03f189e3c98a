"""oplax: exact symbolic verification of the harmonic oscillator's operadic
Lax dynamics, the deformed three-dimensional Lie algebra tables, and the
Jacobi operators of their quantum counterparts."""

from .bianchi import (
    BianchiRow,
    BianchiTables,
    FamilyParams,
    builtin_tables,
    check_tables_consistency,
    classification_rows,
    dynamical_table,
    export_tables,
    family_params,
    family_structure_op,
    import_tables,
    quantize,
    quantum_table,
)
from .jacobi import (
    closed_form_jacobi,
    det3,
    jacobi_op,
    verify_classical_lie_rows,
    verify_closed_form,
    verify_quantum_lie_types,
)
from .operad import MultiOp, bracket, jacobi_defect, partial_compose, total_compose
from .oscillator import (
    DeformationCoeffs,
    LaxPair,
    at_initial,
    coeffs_from_initial,
    coeffs_nondegenerate,
    ddt,
    deformed_structure_op,
    hamiltonian,
    lax_pair,
    verify_matrix_lax,
    verify_operadic_lax,
)
from .report import Check
from .scalars import GaussRat, ScalarPoly, parse_scalar, symbol
from .weyl import CLASSICAL, QUANTUM, OperatorExpr, commutator, parse_operator

__version__ = "0.1.0"
