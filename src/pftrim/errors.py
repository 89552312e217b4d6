"""Exception types shared across the package, and the integer test its
argument checks use."""


def _is_int(value) -> bool:
    # bool is a subclass of int, and JSON true/false load as bool; neither
    # is an index, a size or a count
    return isinstance(value, int) and not isinstance(value, bool)


class PftrimError(Exception):
    """Base class for every package-specific error."""


class FieldMismatch(PftrimError):
    """Operands live over different coefficient fields (or rings)."""


class ParseError(PftrimError):
    """A polynomial string or matrix document failed to parse.

    The message carries the offending position (character column for
    polynomial strings, entry coordinates for matrix documents).
    """


class EntryNotInMaximalIdeal(PftrimError):
    """A polynomial that must have zero constant term has a nonzero one."""


class UnsupportedSize(PftrimError):
    """The matrix size is outside the supported range (odd, and large
    enough for the requested operation)."""


class ArgumentError(PftrimError):
    """An argument value is outside its documented range."""


class NotApplicable(PftrimError):
    """The requested check is not defined for this input."""


class MinimizationNotPolynomial(PftrimError):
    """Minimization had to divide by a non-constant unit and the final
    entries did not return to the polynomial ring."""
