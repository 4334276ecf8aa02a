"""Exact arithmetic for 2x2 matrices over Z/NZ.

Matrices are immutable values with structural equality; all arithmetic is
exact integer arithmetic.  The canonical form is the fully reduced entry
tuple, which makes matrices hashable and usable as dictionary keys in the
closure algorithms.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import IncompatibleResidues, ModulusMismatch, NotADivisor, NotInvertible

__all__ = [
    "ResidueMatrix",
    "crt_combine",
]


# Raw tuple helpers.  The hot loops (closure, derived subgroups) work on
# plain (a, b, c, d) tuples to avoid object overhead; ResidueMatrix is the
# public value type wrapping them.

def tmul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def tdet(x, n):
    a, b, c, d = x
    return (a * d - b * c) % n


def tinv(x, n):
    a, b, c, d = x
    det = (a * d - b * c) % n
    g = math.gcd(det, n)
    if g != 1:
        raise NotInvertible(f"det {det} shares factor {g} with modulus {n}")
    di = pow(det, -1, n)
    return ((d * di) % n, (-b * di) % n, (-c * di) % n, (a * di) % n)


def tcrt(x, m1, y, m2):
    """Entrywise CRT lift of the tuple x mod m1 and the tuple y mod m2 to
    lcm(m1, m2).  The tuples must agree mod gcd(m1, m2)."""
    g = math.gcd(m1, m2)
    lcm = m1 // g * m2
    inv = pow(m1 // g, -1, m2 // g)
    out = []
    for e1, e2 in zip(x, y):
        if (e1 - e2) % g != 0:
            raise IncompatibleResidues(
                f"residues {e1} mod {m1} and {e2} mod {m2} conflict mod {g}")
        # e = e1 + m1 * t with e ≡ e2 mod m2
        out.append((e1 + m1 * ((e2 - e1) // g * inv % (m2 // g))) % lcm)
    return tuple(out)


TID = (1, 0, 0, 1)


class ResidueMatrix(tuple):
    """A 2x2 matrix [[a, b], [c, d]] over Z/NZ.

    The value is the tuple (N, a, b, c, d) with the entries reduced mod N
    once, on construction, so equality, hashing and ordering are those of
    that tuple.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, a: int, b: int, c: int, d: int):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        return tuple.__new__(cls, (modulus, a % modulus, b % modulus,
                                   c % modulus, d % modulus))

    def __getnewargs__(self):
        return tuple(self)

    modulus = property(itemgetter(0))
    a = property(itemgetter(1))
    b = property(itemgetter(2))
    c = property(itemgetter(3))
    d = property(itemgetter(4))

    @classmethod
    def identity(cls, modulus: int) -> "ResidueMatrix":
        return cls(modulus, 1, 0, 0, 1)

    @classmethod
    def from_tuple(cls, t, modulus: int) -> "ResidueMatrix":
        return cls(modulus, *t)

    @property
    def entries(self):
        return self[1:]

    def _check_same_modulus(self, other: "ResidueMatrix"):
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"moduli differ: {self.modulus} vs {other.modulus}")

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        self._check_same_modulus(other)
        return ResidueMatrix.from_tuple(
            tmul(self.entries, other.entries, self.modulus), self.modulus)

    def det(self) -> int:
        return tdet(self.entries, self.modulus)

    def is_invertible(self) -> bool:
        return math.gcd(self.det(), self.modulus) == 1

    def inv(self) -> "ResidueMatrix":
        return ResidueMatrix.from_tuple(
            tinv(self.entries, self.modulus), self.modulus)

    def transpose(self) -> "ResidueMatrix":
        return ResidueMatrix(self.modulus, self.a, self.c, self.b, self.d)

    def reduce_mod(self, m: int) -> "ResidueMatrix":
        if m < 1 or self.modulus % m != 0:
            raise NotADivisor(f"{m} does not divide modulus {self.modulus}")
        return ResidueMatrix(m, self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.modulus}"


def crt_combine(x: ResidueMatrix, y: ResidueMatrix) -> ResidueMatrix:
    """Entrywise CRT lift of x mod m1 and y mod m2 to lcm(m1, m2), by
    tcrt; the inputs must agree after reduction mod gcd(m1, m2)."""
    return ResidueMatrix.from_tuple(
        tcrt(x.entries, x.modulus, y.entries, y.modulus),
        math.lcm(x.modulus, y.modulus))

