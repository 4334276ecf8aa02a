"""Arithmetic conditions on the rational parameter v.

Covers the table-side predicates: squarefree tests, rational squares,
whether Q(sqrt(d)) meets a cyclotomic field K_M or tower K_{M^infinity}
beyond Q, the quartic x^4 + p x^2 + q degree/intersection classifier, and
a small condition expression language with a JSON schema and a traced
evaluator.

Everything is exact over int and Fraction: leaf polynomials have integer
coefficients and are evaluated at v = a/b by homogeneous integer Horner
(ratfunc._peval).  Only the squarefree tests factor anything, by the
package's one factorizer, matgroup._prime_factors: squarefree_part
factors its argument, and quad_cyc_trivial factors M but never the
radicand.  Rational roots (the cubic leaf) are found q-adically.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    AimgError,
    DegenerateQuartic,
    SchemaError,
    ZeroInput,
    is_json_int,
    json_ints,
    json_list,
    json_rational,
)
from .matgroup import _prime_factors
from .ratfunc import INFINITY, RationalMap, _peval, _rational_roots, _trim, \
    evaluate

__all__ = [
    "squarefree_part",
    "is_rational_square",
    "quad_cyc_trivial",
    "quartic_condition",
    "VCondition",
    "parse_vcondition",
    "eval_condition",
    "ConditionResult",
    "NOT_DEGREE4",
    "DEGREE4_TRIVIAL",
    "DEGREE4_NONTRIVIAL",
]


def squarefree_part(q) -> int:
    """The unique squarefree integer d (same sign as q) with q/d a
    rational square."""
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("0 has no squarefree part")
    n = q.numerator * q.denominator  # q = n / denominator^2
    d = 1
    for p, e in _prime_factors(abs(n)).items():
        if e % 2:
            d *= p
    return d if n > 0 else -d


def _rational_sqrt(q):
    """The rational r >= 0 with r^2 = q, or None when q is not the square
    of a rational."""
    q = Fraction(q)
    if q < 0:
        return None
    r = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return r if r * r == q else None


def is_rational_square(q) -> bool:
    return _rational_sqrt(q) is not None


def _field_disc(d0: int) -> int:
    """Discriminant of Q(sqrt(d0)) for squarefree d0 != 1."""
    return d0 if d0 % 4 == 1 else 4 * d0


def quad_cyc_trivial(d, M: int, mode: str = "tower") -> bool:
    """Whether Q(sqrt(d)) ∩ K = Q for K = K_{M^inf} (tower) or K_M
    (fixed).

    Q(sqrt(d)) lies in Q(zeta_m) exactly when the field discriminant
    divides m, so it lies in neither K when a prime outside M divides
    the discriminant.  That is read without factoring d: with d = n/b^2
    and the primes of M divided out of |n|, a rest that is not a square
    holds a prime outside M to an odd power, which divides the
    discriminant.  Otherwise d0, the squarefree part of n, is the signed
    product of the primes of M to an odd power in n; in the tower the
    primes of disc lie in those of M exactly when dividing |disc| by
    gcd(|disc|, M) over and over reaches 1.  Squares give Q(sqrt(d)) = Q,
    trivially true.
    """
    if mode not in ("tower", "fixed"):
        raise ValueError(f"mode must be 'tower' or 'fixed', got {mode!r}")
    if M < 1:
        raise ValueError("M must be positive")
    d = Fraction(d)
    if d == 0:
        raise ZeroInput("0 has no squarefree part")
    n = d.numerator * d.denominator
    outside, d0 = abs(n), 1 if n > 0 else -1
    for p in _prime_factors(M):
        e = 0
        while outside % p == 0:
            outside //= p
            e += 1
        d0 *= p ** (e % 2)
    if math.isqrt(outside) ** 2 != outside or d0 == 1:
        return True
    disc = _field_disc(d0)
    if mode == "fixed":
        return M % abs(disc) != 0
    rest = abs(disc)
    while (g := math.gcd(rest, M)) > 1:
        rest //= g
    return rest != 1


NOT_DEGREE4 = "NotDegree4"
DEGREE4_TRIVIAL = "Degree4TrivialIntersection"
DEGREE4_NONTRIVIAL = "Degree4NontrivialIntersection"


def _biquadratic_reducible(p: Fraction, q: Fraction) -> bool:
    """Reducibility of x^4 + p x^2 + q over Q."""
    if is_rational_square(p * p - 4 * q):
        return True
    r = _rational_sqrt(q)
    if r is not None:
        return is_rational_square(2 * r - p) or \
            is_rational_square(-2 * r - p)
    return False


def quartic_condition(p, q, M: int = 2) -> str:
    """Degree and K_{M^inf}-intersection classification of the field
    generated by a root of x^4 + p x^2 + q.

    NotDegree4 when reducible.  Otherwise the Galois type decides which
    quadratic subfields exist: V4 (q a square) has three, C4 and D4 have
    the single subfield Q(sqrt(p^2-4q)); the intersection with the tower
    is trivial exactly when no quadratic subfield lies in it.
    """
    p, q = Fraction(p), Fraction(q)
    if q == 0 or p * p == 4 * q:
        raise DegenerateQuartic(
            "x^4 + p x^2 + q has zero discriminant")
    if _biquadratic_reducible(p, q):
        return NOT_DEGREE4
    res = p * p - 4 * q
    r = _rational_sqrt(q)
    if r is not None:
        # V4: subfields Q(sqrt(-p+2r)), Q(sqrt(-p-2r)), Q(sqrt(p^2-4q))
        radicands = (-p + 2 * r, -p - 2 * r, res)
    else:
        # C4 or D4: the unique quadratic subfield is Q(sqrt(p^2-4q)), and
        # the full field contains it, so the intersection is trivial iff
        # that subfield avoids the tower
        radicands = (res,)
    if all(quad_cyc_trivial(d, M, "tower") for d in radicands if d != 0):
        return DEGREE4_TRIVIAL
    return DEGREE4_NONTRIVIAL


# --- condition expression language ---


class Leaf:
    """One predicate of a condition: its kind and its parameters."""

    def __init__(self, kind: str, params: dict | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", {} if params is None else params)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self):
        return hash((self.kind, self.params))

    def __repr__(self):
        return f"Leaf(kind={self.kind!r}, params={self.params!r})"

    def describe(self) -> str:
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


class VCondition:
    """Conjunction of leaf predicates on the parameter v."""

    def __init__(self, leaves: tuple):
        object.__setattr__(self, "leaves", leaves)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.leaves == other.leaves

    def __hash__(self):
        return hash((self.leaves,))

    def __repr__(self):
        return f"VCondition(leaves={self.leaves!r})"

    def to_json_dict(self) -> dict:
        def plain(x):
            if isinstance(x, tuple):
                return [plain(y) for y in x]
            if isinstance(x, Fraction):
                return int(x) if x.denominator == 1 else str(x)
            return x

        out = []
        for leaf in self.leaves:
            d = {"kind": leaf.kind}
            d.update({k: plain(v) for k, v in leaf.params.items()})
            out.append(d)
        return {"all": out}


_LEAF_KINDS = {
    "squarefree_not_pm1": (),
    "not_square": ("poly",),
    "quad_cyc_trivial": ("poly", "M", "mode"),
    "quartic_degree4": ("p_poly", "q_poly"),
    "quartic_cyc_trivial": ("p_poly", "q_poly", "M"),
    "specific_set": ("values",),
    "cubic_irreducible_proxy": ("coeff_polys",),
}


def parse_vcondition(data) -> VCondition:
    """Parse the `{"all": [{"kind": ...}, ...]}` schema."""
    if not isinstance(data, dict) or "all" not in data:
        raise SchemaError("condition JSON must be {'all': [...]}")
    leaves = []
    for i, item in enumerate(json_list(data["all"], "condition 'all'")):
        where = f"condition leaf {i}"
        if not isinstance(item, dict) or "kind" not in item:
            raise SchemaError(f"{where}: missing 'kind'")
        kind = item["kind"]
        if kind not in _LEAF_KINDS:
            raise SchemaError(f"{where}: unknown kind {kind!r}")
        params = {}
        for key in _LEAF_KINDS[kind]:
            if key == "mode":
                params["mode"] = item.get("mode", "tower")
                if params["mode"] not in ("tower", "fixed"):
                    raise SchemaError(f"{where}: bad mode")
                continue
            if key not in item:
                raise SchemaError(f"{where}: missing {key!r}")
            val = item[key]
            if key in ("poly", "p_poly", "q_poly"):
                params[key] = json_ints(val, where)
            elif key == "M":
                if not is_json_int(val) or val < 1:
                    raise SchemaError(f"{where}: bad modulus {val!r}")
                params[key] = val
            elif key == "values":
                params[key] = tuple(json_rational(x, where)
                                    for x in json_list(val, where))
            elif key == "coeff_polys":
                if len(json_list(val, where)) != 4:
                    raise SchemaError(
                        f"{where}: coeff_polys must list 4 polynomials "
                        f"(x^3 down to constant)")
                params[key] = tuple(json_ints(p, where) for p in val)
        leaves.append(Leaf(kind, params))
    return VCondition(tuple(leaves))


class ConditionResult:
    """The verdict of a condition and, per leaf, the rows
    (leaf description, verdict, reason)."""

    def __init__(self, ok: bool, trace: list):
        self.ok = ok
        self.trace = trace

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ok, self.trace) == (other.ok, other.trace)

    def __repr__(self):
        return f"ConditionResult(ok={self.ok!r}, trace={self.trace!r})"


def _cubic_irreducible(coeffs) -> bool:
    """Irreducibility over Q of a cubic given by ascending rational
    coefficients; for degree 3 this is the absence of a rational root."""
    return len(_trim(coeffs)) == 4 and not _rational_roots(coeffs)


def _eval_leaf(leaf: Leaf, v: Fraction):
    p = leaf.params
    if leaf.kind == "squarefree_not_pm1":
        if v.denominator != 1:
            return False, f"v = {v} is not an integer"
        if v == 0:
            return False, "v = 0 is not squarefree"
        if squarefree_part(v) != v:
            return False, f"{v} is not squarefree"
        if v in (1, -1):
            return False, "v = ±1 excluded"
        return True, f"{v} is a squarefree integer, not ±1"
    if leaf.kind == "not_square":
        val = _peval(p["poly"], v)
        if val == 0:
            return False, f"polynomial vanishes at v = {v}"
        ok = not is_rational_square(val)
        return ok, f"value {val} {'is not' if ok else 'is'} a square"
    if leaf.kind == "quad_cyc_trivial":
        val = _peval(p["poly"], v)
        if val == 0:
            return False, f"radicand vanishes at v = {v}"
        ok = quad_cyc_trivial(val, p["M"], p["mode"])
        return ok, (f"Q(sqrt({val})) ∩ K_{{{p['M']}"
                    f"{'^inf' if p['mode'] == 'tower' else ''}}} "
                    f"{'=' if ok else '≠'} Q")
    if leaf.kind in ("quartic_degree4", "quartic_cyc_trivial"):
        pp = _peval(p["p_poly"], v)
        qq = _peval(p["q_poly"], v)
        try:
            verdict = quartic_condition(pp, qq, p.get("M", 2))
        except DegenerateQuartic as e:
            return False, f"degenerate quartic: {e}"
        if leaf.kind == "quartic_degree4":
            ok = verdict != NOT_DEGREE4
            return ok, f"quartic x^4+({pp})x^2+({qq}): {verdict}"
        ok = verdict == DEGREE4_TRIVIAL
        return ok, f"quartic x^4+({pp})x^2+({qq}): {verdict}"
    if leaf.kind == "specific_set":
        ok = v in p["values"]
        return ok, (f"v = {v} {'∈' if ok else '∉'} "
                    f"{{{', '.join(str(x) for x in p['values'])}}}")
    if leaf.kind == "cubic_irreducible_proxy":
        coeffs3 = [_peval(cp, v) for cp in p["coeff_polys"]]
        # coeff_polys are listed x^3 down to constant
        asc = list(reversed(coeffs3))
        ok = _cubic_irreducible(asc)
        return ok, (f"[experimental] cubic with coefficients {coeffs3} "
                    f"{'is' if ok else 'is not'} irreducible")
    raise SchemaError(f"unknown leaf kind {leaf.kind!r}")


def eval_condition(cond: VCondition, v, J: RationalMap = None
                   ) -> ConditionResult:
    """Evaluate all leaves at v, with a clause-by-clause trace.

    When J is supplied, the J(v) ∉ {0, 1728, ∞} guard is evaluated as an
    implicit extra leaf.
    """
    v = Fraction(v)
    trace = []
    ok = True
    if J is not None:
        jv = evaluate(J, v)
        bad = jv is INFINITY or jv in (0, 1728)
        trace.append((f"avoid_j_values(J(v) ∉ {{0, 1728, ∞}})", not bad,
                      f"J({v}) = {jv}"))
        ok = ok and not bad
    for leaf in cond.leaves:
        try:
            verdict, reason = _eval_leaf(leaf, v)
        except AimgError as e:  # input errors surface as failures
            verdict, reason = False, f"{type(e).__name__}: {e}"
        trace.append((leaf.describe(), verdict, reason))
        ok = ok and verdict
    return ConditionResult(ok, trace)
