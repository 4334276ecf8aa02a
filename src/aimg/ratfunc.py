"""Exact rational-function calculus over Q, plus the pi_i / pi_{i,v} map
catalog.

Polynomials are integer coefficient tuples in ascending order (index =
power of t), and every operation stays in Z[t]: gcds by pseudo-remainders,
exact division by Gauss's lemma, and a fraction-free linear solver.  A
RationalMap is a reduced fraction of integer polynomials with the
denominator's leading coefficient positive and unit joint content, so
structural equality is equality of functions.  Fraction holds only point
values: evaluations, fibers (rational roots, lifted q-adically with nothing
factored) and rational inputs (from_fractions).
"""

from __future__ import annotations

import itertools
import math
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


# --- polynomial helpers (ascending integer tuples) ---

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _primitive(p):
    """p divided by its content, the sign kept."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else list(p)


def _prem(p, q):
    """A pseudo-remainder of p by q: p times a power of lc(q), mod q."""
    p = list(p)
    while len(p) >= len(q):
        c, k = p[-1], len(p) - len(q)
        p = [q[-1] * a for a in p]
        for i, b in enumerate(q):
            p[i + k] -= c * b
        p = list(_trim(p))
    return p


def _pgcd(p, q):
    """The primitive gcd of integer polynomials p != 0 and q, up to sign."""
    p, q = _primitive(p), _primitive(q)
    while len(q) > 1:  # a nonzero constant q leaves the gcd 1
        p, q = q, _primitive(_prem(p, q))
    return q or p


def _pexquo(p, g):
    """p / g for a primitive g dividing p over Q; by Gauss's lemma the
    quotient is an integer polynomial, so every step divides exactly."""
    p, out = list(p), [0] * (len(p) - len(g) + 1)
    for k in reversed(range(len(out))):
        out[k] = c = p[k + len(g) - 1] // g[-1]
        for i, b in enumerate(g):
            p[i + k] -= c * b
    return out


def _phom(p, a, b, d):
    """b^d p(a/b), for a trimmed p of degree at most d, by homogeneous
    Horner in integers."""
    acc, bpow = 0, b ** (d + 1 - len(p))
    for c in reversed(p):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def _power_table(n, d, k):
    """[N^i D^(k-i) for i = 0..k] over Z."""
    npow, dpow = [(1,)], [(1,)]
    for _ in range(k):
        npow.append(_pmul(npow[-1], n))
        dpow.append(_pmul(dpow[-1], d))
    return [_pmul(npow[i], dpow[k - i]) for i in range(k + 1)]


class RationalMap:
    """A rational function num(t)/den(t) in canonical reduced form.

    Equality and hashing see num and den only, not ``provenance``."""

    def __init__(self, num, den, provenance: tuple | None = None):
        num = tuple(int(c) for c in num)
        den = tuple(int(c) for c in den)
        if not den or not any(den):
            raise ZeroInput("denominator is the zero polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    @classmethod
    def reduced(cls, num, den, provenance=None) -> "RationalMap":
        """The canonical form of num/den for integer polynomials: both
        divided by their primitive gcd, then by their joint content, with
        the sign that makes den's leading coefficient positive."""
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroInput("denominator is the zero polynomial")
        if not num:
            return cls((0,), (1,), provenance)
        g = _pgcd(num, den)
        if len(g) > 1:
            num, den = _pexquo(num, g), _pexquo(den, g)
        c = math.gcd(*num, *den)
        c = -c if den[-1] < 0 else c
        return cls(tuple(a // c for a in num), tuple(a // c for a in den),
                   provenance)

    @classmethod
    def from_fractions(cls, num, den, provenance=None) -> "RationalMap":
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        lcm = math.lcm(*(c.denominator for c in num + den))
        return cls.reduced([int(c * lcm) for c in num],
                           [int(c * lcm) for c in den], provenance)

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


def _proj(x):
    """Integer homogeneous coordinates of x in P1(Q)."""
    if x is INFINITY:
        return (1, 0)
    x = Fraction(x)
    return (x.numerator, x.denominator)


def evaluate(f: RationalMap, x):
    """Projective evaluation; x may be INFINITY.  For x = (a : b) and
    d = deg f, f(x) = (b^d num(a/b) : b^d den(a/b))."""
    num, den = _trim(f.num), _trim(f.den)
    d = max(len(num), len(den)) - 1
    a, b = _proj(x)
    hn, hd = _phom(num, a, b, d), _phom(den, a, b, d)
    return INFINITY if hd == 0 else Fraction(hn, hd)


def _peval(p, x):
    """p(x) for an integer polynomial p and a rational x."""
    return evaluate(RationalMap(p, (1,)), x)


def compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """outer(inner(t)), exactly, in canonical form."""
    p, q = _trim(outer.num), _trim(outer.den)
    table = _power_table(_trim(inner.num), _trim(inner.den),
                         max(len(p), len(q)) - 1)

    def homog(coeffs):
        out = ()
        for c, b in zip(coeffs, table):
            if c:
                out = _padd(out, [c * x for x in b])
        return out

    return RationalMap.reduced(homog(p), homog(q))


def _nullspace(rows, ncols):
    """Basis of the nullspace of an integer matrix (a list of rows): one
    primitive integer vector per non-pivot column c, positive at c and
    zero at the other non-pivot columns.  Gauss-Jordan elimination runs
    fraction-free, each row replaced by a primitive integer combination,
    so the pivot rows span the row space with no rational entry."""
    mat = [_primitive(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        top = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                f, pv = row[c], top[c]
                mat[i] = _primitive([pv * a - f * b for a, b in zip(row, top)])
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    scale = math.lcm(*(mat[i][pc] for i, pc in enumerate(pivots)))
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = scale
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc] * scale // mat[i][pc]
        basis.append(tuple(_primitive(v)))
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
    # pi.num * sum(q_k B_k) - pi.den * sum(p_k B_k) = 0, B_k = N^k D^(dj-k)
    table = _power_table(_trim(u.num), _trim(u.den), dj)
    pn, pd = _trim(pi.num), _trim(pi.den)
    cols = [[-c for c in _pmul(pd, b)] for b in table]  # p_k coefficients
    cols += [_pmul(pn, b) for b in table]               # q_k coefficients
    nrows = max(len(c) for c in cols)
    rows = [[c[i] if i < len(c) else 0 for c in cols] for i in range(nrows)]
    for v in _nullspace(rows, len(cols)):
        if any(v[dj + 1:]):
            J = RationalMap.reduced(v[:dj + 1], v[dj + 1:])
            if compose(J, u) == pi:
                return J
    raise NoDecomposition("pi is not a rational function of u")


# --- Moebius transformations, solved as linear systems ---

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
    return RationalMap.reduced((b, a), (d, c))


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
    """Rational roots of a polynomial with rational ascending coeffs.

    Besides 0 they are the roots s/d (lowest terms) of the squarefree part
    f: s | f(0), d | lc f.  At an odd prime q ∤ f(0) lc f where f has only
    simple roots (all q ∤ f(0) lc f disc f), s/d is one; Newton lifts it to
    x mod m = q^(2^k), and for m > 2|f(0) lc f| the half extended Euclid on
    (m, x) finds s/d, the only s'/d' so bounded with m | s' - d' x."""
    p = _trim(coeffs)
    if not p:
        raise ZeroInput("zero polynomial has every rational as a root")
    den = math.lcm(*(c.denominator for c in p))
    p = [int(c * den) for c in p]
    roots = {Fraction(0)} if p[0] == 0 else set()
    while p[0] == 0:
        p.pop(0)
    g = _pgcd(p, [i * c for i, c in enumerate(p)][1:])
    f = _pexquo(p, g) if len(g) > 1 else p
    s_max, lc, desc = abs(f[0]), abs(f[-1]), f[::-1]

    def horner(x):  # f(x) and f'(x)
        v = w = 0
        for c in desc:
            w, v = w * x + v, v * x + c
        return v, w

    for q in itertools.count(3, 2):
        if s_max * lc % q and all(q % r for r in range(3, q, 2)):
            lifts = [r for r in range(1, q) if horner(r)[0] % q == 0]
            if all(horner(r)[1] % q for r in lifts):
                break
    for x in lifts:
        m = q
        while m <= 2 * s_max * lc:  # Newton's step from mod m to mod m^2
            m *= m
            v, w = horner(x)
            x = (x - v * pow(w, -1, m)) % m
        r0, r1, t0, t1 = m, x, 0, 1
        while r1 > s_max:  # remainders r_i = t_i x mod m
            r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
        if abs(t1) <= lc and _phom(f, r1, t1, len(f) - 1) == 0:
            roots.add(Fraction(r1, t1))
    return roots


def rational_fibers(f: RationalMap, j):
    """All x in P1(Q) with f(x) = j; for j = a/b the finite ones are the
    rational roots of b num - a den."""
    if f.is_constant():
        raise ZeroInput("fiber of a constant map is not finite")
    out = set()
    if j is INFINITY:
        out |= _rational_roots(f.den)
        if f.deg_num > f.deg_den:
            out.add(INFINITY)
        return out
    j = Fraction(j)
    fiber_poly = _padd([j.denominator * c for c in f.num],
                       [-j.numerator * c for c in f.den])
    if fiber_poly:
        out |= _rational_roots(fiber_poly)
    if evaluate(f, INFINITY) == j:
        out.add(INFINITY)
    return out


# --- the pi_i / pi_{i,v} catalog ---


class MapCatalogEntry:
    """Symbolic pi_i / pi_{i,v} family maps; coefficients are functions of
    (alpha, v) returning ascending coefficient lists.  Equality and
    hashing see the first three fields only, not the functions."""

    def __init__(self, family_index: int, needs_alpha: bool,
                 base_degree: int, base_num, base_den, twisted_num,
                 twisted_den):
        object.__setattr__(self, "family_index", family_index)
        object.__setattr__(self, "needs_alpha", needs_alpha)
        object.__setattr__(self, "base_degree", base_degree)
        object.__setattr__(self, "base_num", base_num)
        object.__setattr__(self, "base_den", base_den)
        object.__setattr__(self, "twisted_num", twisted_num)
        object.__setattr__(self, "twisted_den", twisted_den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.family_index, self.needs_alpha, self.base_degree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"MapCatalogEntry(family_index={self.family_index!r}, "
                f"needs_alpha={self.needs_alpha!r}, "
                f"base_degree={self.base_degree!r}, "
                f"base_num={self.base_num!r}, base_den={self.base_den!r}, "
                f"twisted_num={self.twisted_num!r}, "
                f"twisted_den={self.twisted_den!r})")


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
    num, den = _trim(num), _trim(den)
    if not num or not den:
        raise DegenerateSubstitution(
            "substitution killed the numerator or denominator",
            cancelled=None)
    result = RationalMap.from_fractions(num, den, provenance=prov)
    # reducing divides num and den by their gcd, so deg drops by its degree
    cancelled = max(len(num), len(den)) - 1 - result.degree
    if cancelled:
        raise DegenerateSubstitution(
            f"numerator and denominator share a factor of degree "
            f"{cancelled}", cancelled=result)
    if result.degree != entry.base_degree:
        raise DegenerateSubstitution(
            f"degree dropped to {result.degree} "
            f"(expected {entry.base_degree})", cancelled=result)
    return result
