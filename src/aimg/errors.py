"""Exception hierarchy shared across the package, and the JSON file reader
and schema checks every loader shares; they raise SchemaError."""

import json
import os
import re
from fractions import Fraction


def is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer (true and false are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_json_file(path):
    """The parsed JSON in the file at ``path``, a str or os.PathLike."""
    if not isinstance(path, (str, os.PathLike)):
        raise SchemaError(f"not a file path: {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}")
    except (ValueError, RecursionError) as e:  # bad JSON, not text, too deep
        raise SchemaError(f"{path} is not valid JSON: {e}")


def json_list(x, where) -> list:
    """x, checked to be a list."""
    if not isinstance(x, list):
        raise SchemaError(f"{where}: expected a list, got {x!r}")
    return x


def json_ints(x, where, length=None) -> tuple:
    """A nonempty list of integers, of ``length`` entries when given."""
    if not (isinstance(x, list) and x and all(map(is_json_int, x))
            and length in (None, len(x))):
        raise SchemaError(f"{where}: expected a nonempty integer list, "
                          f"got {x!r}")
    return tuple(x)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def json_rational(x, where) -> Fraction:
    """An integer, or a string of decimal digits with an optional sign and
    an optional '/den', den nonzero: no spaces, underscores, decimal points
    or exponents."""
    if is_json_int(x):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise SchemaError(f"{where}: expected an integer or 'num/den' string, "
                      f"got {x!r}")


class AimgError(Exception):
    """Base class for all package errors."""


class ModulusMismatch(AimgError):
    pass


class NotInvertible(AimgError):
    pass


class NotADivisor(AimgError):
    pass


class IncompatibleResidues(AimgError):
    pass


class NotASubgroup(AimgError):
    pass


class NotAbelian(AimgError):
    pass


class NotNormal(AimgError):
    pass


class NotAHomomorphism(AimgError):
    pass


class ResourceExceeded(AimgError):
    """The configured group-size cap was hit.

    Carries the partial state reached so callers can report it: the size
    reached (``partial``) and, for a closure, the modulus it ran at and
    how many generators it had taken in (``modulus``, ``generators``).
    """

    def __init__(self, message, partial=None, modulus=None, generators=None):
        super().__init__(message)
        self.partial = partial
        self.modulus = modulus
        self.generators = generators


class NonIntegralGenus(AimgError):
    pass


class NoDecomposition(AimgError):
    pass


class DegreeMismatch(AimgError):
    pass


class MissingParameter(AimgError):
    pass


class DegenerateSubstitution(AimgError):
    """Numerator and denominator shared a factor after substitution.

    The cancelled map is available as ``.cancelled``.
    """

    def __init__(self, message, cancelled):
        super().__init__(message)
        self.cancelled = cancelled


class ZeroInput(AimgError):
    pass


class DegenerateQuartic(AimgError):
    pass


class NotEligible(AimgError):
    pass


class SchemaError(AimgError):
    pass


class InvariantViolation(AimgError):
    def __init__(self, label, which):
        super().__init__(f"catalog entry {label!r}: invariant violated: {which}")
        self.label = label
        self.which = which


class MissingAutomorphismData(AimgError):
    pass


class UnknownLabel(AimgError):
    pass
