"""Exception hierarchy shared across the package, and the integer test
the JSON schema checks share."""


def is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer (true and false are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


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


class UnsupportedShape(AimgError):
    pass


class DegenerateRadicand(AimgError):
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


class NoMatch(AimgError):
    pass


class MissingAutomorphismData(AimgError):
    pass


class UnknownLabel(AimgError):
    pass
