"""Exception taxonomy shared across the package.

Two families matter to callers: domain errors (bad or out-of-scope input,
reported back to the user) and pipeline errors that can only arise from an
internal bug (surfaced loudly so tests catch them). The CLI maps the former
to exit code 2 and the latter to exit code 1.

Every library error message that names a value builds its text with
``show``, so that an int past CPython's int/str digit limit cannot turn the
error into a ValueError while its message is built. The CLI lifts the limit
while a command runs, so its own messages format values directly.
"""

import dataclasses


def show(value) -> str:
    """str(value), for the ints and dataclasses of ints that messages name.

    Where CPython's int/str digit limit refuses an int's decimal, that int
    is written as its bit length, signed, and a dataclass field by field as
    its repr would be. With the limit lifted, as cli.run lifts it, the text
    is str(value) exactly.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if isinstance(value, int):
        return f"{'-' if value < 0 else ''}<{abs(value).bit_length()}-bit int>"
    fields = ", ".join(f"{field.name}={show(getattr(value, field.name))}"
                       for field in dataclasses.fields(value))
    return f"{type(value).__qualname__}({fields})"


class ZwformError(Exception):
    """Base class for every error raised by this package."""


class NotDivisible(ZwformError):
    """An exact division left a nonzero remainder.

    Depending on the call site this signals either invalid input or a bug:
    the decomposition pipeline guarantees all of its divisions are exact, so
    seeing this there means the surrounding theory was violated.
    """


class TooLarge(ZwformError):
    """Well-formed input whose p-th powers would pass MAX_POWER_BITS.

    A domain error: the value is refused before the power is taken.
    """


class ZeroZ(ZwformError):
    """The closed form for z evaluates to 0, so w is undefined."""


class NotCoprime(ZwformError):
    """Inputs required to be coprime are not."""


class NotTheoremGrade(ZwformError):
    """A solution fails a hypothesis required for decomposition.

    Theorem-grade means: x, y, z, m, w all nonzero, x, y, z pairwise
    coprime, and x**p - m*y**p == z*w exactly.
    """


class DegenerateE(ZwformError):
    """The residual e vanished (u**p == m * q**p), so g cannot be defined.

    This only happens when m is a p-th power times a unit.
    """


class IdentityViolation(ZwformError):
    """An assembled solution fails x**p - m*y**p == z*w. Always a bug."""


class ConstraintViolation(ZwformError):
    """A recovered tuple fails gcd(e,q) == gcd(l,q) == gcd(n,r) == 1. Always a bug."""


class RegenerateMismatch(ZwformError):
    """generate() of a recovered tuple differs from the decomposed solution. Always a bug."""
