"""Exact rational-function calculus over Q, plus the pi_i / pi_{i,v} map
catalog.

Polynomials are coefficient tuples in ascending order (index = power of
t).  A RationalMap is a reduced fraction of integer polynomials with the
denominator's leading coefficient positive and unit joint content, so
structural equality is equality of functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DegenerateSubstitution,
    DegreeMismatch,
    MissingParameter,
    NoDecomposition,
    SchemaError,
    ZeroInput,
    json_list,
    json_rational,
)
from .matgroup import _divisors

__all__ = [
    "INFINITY",
    "RationalMap",
    "MapCatalogEntry",
    "FAMILY_MAPS",
    "evaluate",
    "compose",
    "solve_left_factor",
    "moebius_equivalent",
    "rational_fibers",
    "instantiate",
]


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITY = _Infinity()


# --- polynomial helpers (ascending Fraction tuples) ---

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pscale(p, k):
    return _trim([c * k for c in p])


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _ppow(p, k):
    out = (Fraction(1),)
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _peval(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _pdivmod(p, q):
    p = list(p)
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(c != 0 for c in p):
        while p and p[-1] == 0:
            p.pop()
        if len(p) < len(q):
            break
        k = len(p) - len(q)
        c = p[-1] / q[-1]
        out[k] = c
        for i, b in enumerate(q):
            p[i + k] -= c * b
        p.pop()
    return _trim(out), _trim(p)


def _pgcd(p, q):
    p, q = _trim(p), _trim(q)
    while q:
        p, q = q, _pdivmod(p, q)[1]
    if p:
        p = _pscale(p, 1 / p[-1])  # monic
    return p


def _to_integer_pair(num, den):
    """Clear denominators and joint content; make den leading coeff > 0."""
    denoms = [c.denominator for c in num + den] or [1]
    lcm = math.lcm(*denoms)
    ni = [int(c * lcm) for c in num]
    di = [int(c * lcm) for c in den]
    g = math.gcd(*(abs(c) for c in ni + di)) or 1
    ni = [c // g for c in ni]
    di = [c // g for c in di]
    sign = 1
    if di and di[-1] < 0:
        sign = -1
    elif not di and ni and ni[-1] < 0:
        sign = -1
    return tuple(sign * c for c in ni), tuple(sign * c for c in di)


@dataclass(frozen=True)
class RationalMap:
    """A rational function num(t)/den(t) in canonical reduced form."""

    num: tuple
    den: tuple
    provenance: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(int(c) for c in self.num))
        object.__setattr__(self, "den", tuple(int(c) for c in self.den))
        if not self.den or not any(self.den):
            raise ZeroInput("denominator is the zero polynomial")

    @classmethod
    def from_fractions(cls, num, den, provenance=None) -> "RationalMap":
        num = _trim([Fraction(c) for c in num])
        den = _trim([Fraction(c) for c in den])
        if not den:
            raise ZeroInput("denominator is the zero polynomial")
        if not num:
            return cls((0,), (1,), provenance)
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        ni, di = _to_integer_pair(num, den)
        return cls(ni or (0,), di, provenance)

    @classmethod
    def from_coeffs(cls, num, den=(1,)) -> "RationalMap":
        return cls.from_fractions(num, den)

    @property
    def deg_num(self) -> int:
        return len(_trim(self.num)) - 1 if any(self.num) else -1

    @property
    def deg_den(self) -> int:
        return len(_trim(self.den)) - 1

    @property
    def degree(self) -> int:
        return max(self.deg_num, self.deg_den)

    def is_constant(self) -> bool:
        return self.degree <= 0

    def fnum(self):
        return _trim([Fraction(c) for c in self.num])

    def fden(self):
        return _trim([Fraction(c) for c in self.den])

    def __repr__(self):
        return f"RationalMap(num={list(self.num)}, den={list(self.den)})"

    def to_json_dict(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}

    @classmethod
    def from_json_dict(cls, data) -> "RationalMap":
        if not isinstance(data, dict) or "num" not in data \
                or "den" not in data:
            raise SchemaError("rational map JSON needs 'num' and 'den'")

        def coeffs(key):
            where = f"rational map {key!r}"
            return [json_rational(c, where)
                    for c in json_list(data[key], where)]

        return cls.from_fractions(coeffs("num"), coeffs("den"))


IDENTITY_MAP = RationalMap((0, 1), (1,))


def evaluate(f: RationalMap, x):
    """Projective evaluation; x may be INFINITY."""
    if x is INFINITY:
        dn, dd = f.deg_num, f.deg_den
        if dn > dd:
            return INFINITY
        if dn < dd:
            return Fraction(0)
        return Fraction(f.num[-1], f.den[-1])
    x = Fraction(x)
    n = _peval(f.fnum(), x)
    d = _peval(f.fden(), x)
    if d == 0:
        return INFINITY
    return n / d


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer(inner(t)), exactly, in canonical form."""
    p, q = outer.fnum(), outer.fden()
    n, d = inner.fnum(), inner.fden()
    D = max(len(p), len(q)) - 1

    def homog(coeffs):
        out = ()
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            term = _pscale(_pmul(_ppow(n, k), _ppow(d, D - k)), c)
            out = _padd(out, term)
        return out

    return RationalMap.from_fractions(homog(p), homog(q))


def _nullspace(rows, ncols):
    """Basis of the nullspace of a Fraction matrix (list of row tuples)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(tuple(v))
    return basis


def solve_left_factor(pi: RationalMap, u: RationalMap) -> RationalMap:
    """The unique J with pi = J o u, by undetermined coefficients.

    Raises DegreeMismatch when deg(u) does not divide deg(pi), and
    NoDecomposition when pi is not a rational function of u.
    """
    du, dpi = u.degree, pi.degree
    if du < 1:
        raise DegreeMismatch("inner map must be non-constant")
    if dpi % du != 0:
        raise DegreeMismatch(f"deg {du} does not divide deg {dpi}")
    dj = dpi // du
    n, d = u.fnum(), u.fden()
    # powers N^k D^(dj-k)
    basis_polys = [_pmul(_ppow(n, k), _ppow(d, dj - k)) for k in range(dj + 1)]
    pn, pd = pi.fnum(), pi.fden()
    # pi.num * sum(q_k B_k) - pi.den * sum(p_k B_k) = 0
    cols = []
    for b in basis_polys:  # p_k coefficients
        cols.append(_pscale(_pmul(pd, b), -1))
    for b in basis_polys:  # q_k coefficients
        cols.append(_pmul(pn, b))
    nrows = max(len(c) for c in cols)
    rows = [tuple(c[i] if i < len(c) else Fraction(0) for c in cols)
            for i in range(nrows)]
    for v in _nullspace(rows, len(cols)):
        pnum = v[:dj + 1]
        pden = v[dj + 1:]
        if not any(pden):
            continue
        try:
            J = RationalMap.from_fractions(pnum, pden)
        except ZeroInput:
            continue
        if compose(J, u) == RationalMap(pi.num, pi.den):
            return J
    raise NoDecomposition("pi is not a rational function of u")


# --- Moebius transformations, solved as linear systems ---

def _proj(x):
    if x is INFINITY:
        return (Fraction(1), Fraction(0))
    x = Fraction(x)
    return (x, Fraction(1))


def moebius_from_points(xs, zs):
    """The Moebius map g with g(xs[i]) = zs[i], i = 0, 1, 2, or None when
    no degree-1 map does this (repeated points on either side).

    g = (a t + b)/(c t + d) sends (x1 : x2) to (a x1 + b x2 : c x1 + d x2),
    so each pair x -> z = (z1 : z2) gives the linear equation
    z2 (a x1 + b x2) = z1 (c x1 + d x2) in (a, b, c, d).  g exists exactly
    when the three equations leave a one-dimensional solution space and
    its matrix has ad != bc.
    """
    rows = []
    for x, z in zip(xs, zs):
        (x1, x2), (z1, z2) = _proj(x), _proj(z)
        rows.append((z2 * x1, z2 * x2, -z1 * x1, -z1 * x2))
    space = _nullspace(rows, 4)
    if len(space) != 1:
        return None
    a, b, c, d = space[0]
    if a * d == b * c:
        return None
    return RationalMap.from_fractions((b, a), (d, c))


def moebius_equivalent(u: RationalMap, pi2: RationalMap):
    """A degree-1 g over Q with u = pi2 o g, or None.

    Candidate g are built by matching fibers of pi2 over the u-values of
    three sample points.  A candidate with pi2(g(3)) != u(3) is dropped
    unverified; the rest are verified symbolically.  Among all verifying
    maps the one with lexicographically least (num, den) is returned.

    The fourth point drops no map that verifies.  A u equal to a
    composition is in canonical form, so evaluate gives its values, and
    then so it does for pi2: a common factor of pi2's numerator and
    denominator would raise pi2.degree above u.degree.
    """
    if u.degree != pi2.degree or u.degree < 1:
        return None
    xs = [Fraction(0), Fraction(1), Fraction(2)]
    u_at_3 = evaluate(u, 3)
    fibers = [rational_fibers(pi2, evaluate(u, x)) for x in xs]
    if any(not f for f in fibers):
        return None
    best = None
    for z1 in fibers[0]:
        for z2 in fibers[1]:
            if z2 == z1:
                continue
            for z3 in fibers[2]:
                if z3 == z1 or z3 == z2:
                    continue
                g = moebius_from_points(xs, (z1, z2, z3))
                if g is None or evaluate(pi2, evaluate(g, 3)) != u_at_3:
                    continue
                if compose(pi2, g) == RationalMap(u.num, u.den):
                    key = (g.num, g.den)
                    if best is None or key < (best.num, best.den):
                        best = g
    return best


def _rational_roots(coeffs):
    """Rational roots of a polynomial with rational ascending coeffs."""
    p = _trim(coeffs)
    if not p:
        raise ZeroInput("zero polynomial has every rational as a root")
    den = math.lcm(*(c.denominator for c in p))
    p = [int(c * den) for c in p]
    roots = set()
    k = 0
    while p[0] == 0:
        p.pop(0)
        k += 1
    if k:
        roots.add(Fraction(0))
    if len(p) == 1:
        return roots
    for num in _divisors(abs(p[0])):
        for den in _divisors(abs(p[-1])):
            if math.gcd(num, den) != 1:
                continue
            # s/den is a root iff den^deg p(s/den) = sum c_i s^i den^(deg-i)
            # vanishes: homogeneous Horner in integers
            for s in (num, -num):
                acc = p[-1]
                dpow = 1
                for c in reversed(p[:-1]):
                    dpow *= den
                    acc = acc * s + c * dpow
                if acc == 0:
                    roots.add(Fraction(s, den))
    return roots


def rational_fibers(f: RationalMap, j):
    """All x in P1(Q) with f(x) = j."""
    if f.is_constant():
        raise ZeroInput("fiber of a constant map is not finite")
    out = set()
    if j is INFINITY:
        out |= _rational_roots(f.den)
        if f.deg_num > f.deg_den:
            out.add(INFINITY)
        return out
    j = Fraction(j)
    fiber_poly = _padd(f.fnum(), _pscale(f.fden(), -j))
    if fiber_poly:
        out |= _rational_roots(fiber_poly)
    if evaluate(f, INFINITY) == j:
        out.add(INFINITY)
    return out


# --- the pi_i / pi_{i,v} catalog ---


@dataclass(frozen=True)
class MapCatalogEntry:
    """Symbolic pi_i / pi_{i,v} family maps; coefficients are functions of
    (alpha, v) returning ascending coefficient lists."""

    family_index: int
    needs_alpha: bool
    base_degree: int
    base_num: callable = field(compare=False)
    base_den: callable = field(compare=False)
    twisted_num: callable = field(compare=False)
    twisted_den: callable = field(compare=False)


FAMILY_MAPS = {
    1: MapCatalogEntry(
        1, False, 2,
        lambda a: (0, 0, 1),
        lambda a: (1,),
        lambda a, v: (0, 0, v),
        lambda a, v: (1,)),
    2: MapCatalogEntry(
        2, True, 2,
        lambda a: (a, 0, 1),
        lambda a: (0, 1),
        # numerator as printed: v t^2 - 4 a t + a t
        lambda a, v: (0, -4 * a + a, v),
        lambda a, v: (-a, v, -1)),
    3: MapCatalogEntry(
        3, False, 3,
        lambda a: (1, -3, 0, 1),
        lambda a: (0, -1, 1),
        lambda a, v: (-v**4 + 3 * v**3 - 6 * v**2 - v + 3,
                      -3 * v**3 + 9 * v**2 - 15 * v,
                      -3 * v**2 + 9 * v - 9,
                      -v + 3),
        lambda a, v: (v**2 - 3 * v + 1, v**2 + v - 3, 2 * v, 1)),
    4: MapCatalogEntry(
        4, False, 4,
        lambda a: (1, 0, -6, 0, 1),
        lambda a: (0, -1, 0, 1),
        lambda a, v: (7 * v - 96, 8 * v + 176, -18 * v - 96, 8 * v + 16, -v),
        lambda a, v: (-6 * v - 7, 11 * v - 8, -6 * v + 18, v - 8, 1)),
    5: MapCatalogEntry(
        5, True, 4,
        lambda a: (a**2, 0, 0, 0, 1),
        lambda a: (0, 0, 1),
        lambda a, v: (v,
                      -8 * a**2,
                      6 * v * a**2,
                      (8 * a**2 - 4 * v**2) * a**2,
                      (-3 * v * a**2 + v**3) * a**2),
        lambda a, v: (1, -2 * v, 2 * a**2 + v**2, -2 * v * a**2, a**4)),
    6: MapCatalogEntry(
        6, False, 4,
        lambda a: (1, 0, 2, 0, 1),
        lambda a: (0, -1, 0, 1),
        lambda a, v: (-v**3,
                      8 * v**3 - 16 * v**2,
                      -26 * v**3 + 96 * v**2 - 64 * v,
                      40 * v**3 - 208 * v**2 + 256 * v,
                      -25 * v**3 + 160 * v**2 - 256 * v),
        lambda a, v: (-v**2,
                      -v**3 + 8 * v**2,
                      6 * v**3 - 30 * v**2,
                      -11 * v**3 + 56 * v**2 - 32 * v,
                      6 * v**3 - 37 * v**2 + 64 * v - 64)),
}


def instantiate(entry: MapCatalogEntry, alpha=None, v=None) -> RationalMap:
    """Substitute (alpha, v) into the family maps; v=None gives the base
    map pi_i, otherwise the twisted map pi_{i,v}."""
    if entry.needs_alpha:
        if alpha is None:
            raise MissingParameter(
                f"family {entry.family_index} needs alpha")
        alpha = Fraction(alpha)
    else:
        alpha = Fraction(0)
    if v is None:
        num = entry.base_num(alpha)
        den = entry.base_den(alpha)
        prov = (entry.family_index, alpha if entry.needs_alpha else None,
                None)
    else:
        v = Fraction(v)
        num = entry.twisted_num(alpha, v)
        den = entry.twisted_den(alpha, v)
        prov = (entry.family_index, alpha if entry.needs_alpha else None, v)
    num = _trim([Fraction(c) for c in num])
    den = _trim([Fraction(c) for c in den])
    if not num or not den:
        raise DegenerateSubstitution(
            "substitution killed the numerator or denominator",
            cancelled=None)
    g = _pgcd(num, den)
    result = RationalMap.from_fractions(num, den, provenance=prov)
    if len(g) > 1:
        raise DegenerateSubstitution(
            f"numerator and denominator share a factor of degree "
            f"{len(g) - 1}", cancelled=result)
    if result.degree != entry.base_degree:
        raise DegenerateSubstitution(
            f"degree dropped to {result.degree} "
            f"(expected {entry.base_degree})", cancelled=result)
    return result
