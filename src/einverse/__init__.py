"""Generalized inverses of even-order tensors under the contracted product.

The package provides dense complex tensors split into row/column index
groups, the contracted (Einstein) product and its block/Kronecker calculus,
Moore-Penrose and {1}/{1,2}/{1,3}/{1,4} inverse families, reverse-order-law
diagnostics, and exact general solutions of multilinear systems
``a x b = d``.
"""

__version__ = "0.1.0"

from .algebra import (
    block2x2,
    chain,
    column_block,
    einstein_product,
    kronecker,
    row_block,
    unvec,
    vec,
)
from .errors import NumericError, PreconditionError, ShapeError
from .inverses import (
    ConditionCheck,
    LambdaKind,
    PenroseReport,
    ReverseOrderDiagnosis,
    SvdTriple,
    mp_from_13_14,
    one_four_family,
    one_inverse_family,
    one_three_family,
    penrose_check,
    pinv,
    pinv_kronecker,
    reflexive_from_two,
    reverse_order_diagnose,
    svd,
)
from .matricize import matrix_pinv
from .sampling import random_tensor
from .solver import (
    SOLVE_TOL,
    SolveOutcome,
    common_solution,
    solve_ax,
    solve_axb,
    verify_unique_triple,
)
from .tensor import (
    DEFAULT_TOL,
    Tensor,
    TensorShape,
    conj_transpose,
    frobenius_distance,
    frobenius_norm,
    is_hermitian,
    is_idempotent,
    is_unitary,
    transpose,
    unit_tensor,
    zeros,
    zeros_like,
)

__all__ = [
    "DEFAULT_TOL",
    "SOLVE_TOL",
    "ConditionCheck",
    "LambdaKind",
    "NumericError",
    "PenroseReport",
    "PreconditionError",
    "ReverseOrderDiagnosis",
    "ShapeError",
    "SolveOutcome",
    "SvdTriple",
    "Tensor",
    "TensorShape",
    "block2x2",
    "chain",
    "column_block",
    "common_solution",
    "conj_transpose",
    "einstein_product",
    "frobenius_distance",
    "frobenius_norm",
    "is_hermitian",
    "is_idempotent",
    "is_unitary",
    "kronecker",
    "matrix_pinv",
    "mp_from_13_14",
    "one_four_family",
    "one_inverse_family",
    "one_three_family",
    "penrose_check",
    "pinv",
    "pinv_kronecker",
    "random_tensor",
    "reflexive_from_two",
    "reverse_order_diagnose",
    "row_block",
    "solve_ax",
    "solve_axb",
    "svd",
    "transpose",
    "unit_tensor",
    "unvec",
    "vec",
    "verify_unique_triple",
    "zeros",
    "zeros_like",
]
