"""Integral solutions of x**p - m*y**p == z*w, constructively.

For any integer exponent p >= 2, a seven-parameter family of closed forms
produces solutions in integers, and every solution with x, y, z pairwise
coprime and all of x, y, z, m, w nonzero arises that way: `decompose`
recovers a parameter tuple from such a solution and `generate` maps it
back. (The source paper states this for prime p; neither direction uses
primality.) The `oracle` module supplies box enumeration and batch
verification, and `cli` wraps everything in a command line tool.
"""

from .decomposition import (
    DecompositionTrace,
    RowPrefix,
    bezout_nonzero,
    decompose,
    line_coeffs,
    m_fields,
    m_relations,
    residual_e,
    residual_g,
    residual_n,
    row_identities,
    row_prefix,
    split_u,
    trace_identities,
)
from .errors import (
    ConstraintViolation,
    DegenerateE,
    IdentityViolation,
    NotCoprime,
    NotDivisible,
    NotTheoremGrade,
    RegenerateMismatch,
    TooLarge,
    ZeroZ,
    ZwformError,
)
from .exact_arith import exact_div, extgcd
from .oracle import (
    Failure,
    SearchBounds,
    SearchReport,
    enumerate_solutions,
    identity_fuzz,
    roundtrip_check,
    sample_tuples,
    stream_solutions,
)
from .parametrization import (
    ParameterTuple,
    Solution,
    closed_forms,
    eval_m,
    eval_w,
    eval_x,
    eval_y,
    eval_z,
    gcd_constraints_hold,
    generate,
    generate_reference,
    theorem_grade_flags,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintViolation",
    "DecompositionTrace",
    "DegenerateE",
    "Failure",
    "IdentityViolation",
    "NotCoprime",
    "NotDivisible",
    "NotTheoremGrade",
    "ParameterTuple",
    "RegenerateMismatch",
    "RowPrefix",
    "SearchBounds",
    "SearchReport",
    "Solution",
    "TooLarge",
    "ZeroZ",
    "ZwformError",
    "bezout_nonzero",
    "closed_forms",
    "decompose",
    "enumerate_solutions",
    "eval_m",
    "eval_w",
    "eval_x",
    "eval_y",
    "eval_z",
    "exact_div",
    "extgcd",
    "gcd_constraints_hold",
    "generate",
    "generate_reference",
    "identity_fuzz",
    "line_coeffs",
    "m_fields",
    "m_relations",
    "residual_e",
    "residual_g",
    "residual_n",
    "roundtrip_check",
    "row_identities",
    "row_prefix",
    "sample_tuples",
    "split_u",
    "stream_solutions",
    "theorem_grade_flags",
    "trace_identities",
    "__version__",
]
