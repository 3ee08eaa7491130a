"""Integral solutions of x**p - m*y**p == z*w, constructively.

For any prime p, a seven-parameter family of closed forms produces
solutions in integers, and every solution with x, y, z pairwise coprime
and all of x, y, z, m, w nonzero arises that way: `decompose` recovers a
parameter tuple from such a solution and `generate` maps it back. The
`oracle` module supplies brute-force enumeration and batch verification,
and `cli` wraps everything in a command line tool.
"""

from .decomposition import (
    DecompositionTrace,
    bezout_nonzero,
    decompose,
    line_coeffs,
    residual_e,
    residual_g,
    residual_n,
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
    RoundTripMismatch,
    WrongExponent,
    ZeroDivisor,
    ZeroZ,
    ZwformError,
)
from .exact_arith import exact_div, extgcd, is_prime
from .oracle import (
    Failure,
    SearchBounds,
    SearchReport,
    SplitMix64,
    enumerate_solutions,
    identity_fuzz,
    roundtrip_check,
    sample_tuples,
    stream_solutions,
)
from .parametrization import (
    ParameterTuple,
    Solution,
    brahmagupta_compose,
    dickson_p2,
    eval_m,
    eval_w,
    eval_x,
    eval_y,
    eval_z,
    generate,
    generate_reference,
    is_theorem_grade,
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
    "RoundTripMismatch",
    "SearchBounds",
    "SearchReport",
    "Solution",
    "SplitMix64",
    "WrongExponent",
    "ZeroDivisor",
    "ZeroZ",
    "ZwformError",
    "bezout_nonzero",
    "brahmagupta_compose",
    "decompose",
    "dickson_p2",
    "enumerate_solutions",
    "eval_m",
    "eval_w",
    "eval_x",
    "eval_y",
    "eval_z",
    "exact_div",
    "extgcd",
    "generate",
    "generate_reference",
    "identity_fuzz",
    "is_prime",
    "is_theorem_grade",
    "line_coeffs",
    "residual_e",
    "residual_g",
    "residual_n",
    "roundtrip_check",
    "sample_tuples",
    "split_u",
    "stream_solutions",
    "theorem_grade_flags",
    "trace_identities",
    "__version__",
]
