"""Arithmetic conditions: cyclotomic criteria, quartic classifier and the
condition expression language, against independent oracles."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from aimg.arithcond import (
    DEGREE4_NONTRIVIAL,
    DEGREE4_TRIVIAL,
    NOT_DEGREE4,
    _cubic_irreducible,
    eval_condition,
    is_rational_square,
    parse_vcondition,
    quad_cyc_trivial,
    quartic_condition,
    squarefree_part,
)
from aimg.errors import (
    DegenerateQuartic,
    SchemaError,
    ZeroInput,
)
from aimg.ratfunc import RationalMap

from oracle_helpers import quad_in_cyclotomic, squarefree_kernel, \
    biquadratic_factor_degrees, prime_support, quad_disc


def test_squarefree_part_matches_trial_division():
    for n in list(range(-80, 0)) + list(range(1, 120)):
        assert squarefree_part(n) == squarefree_kernel(n)
    # rationals: squarefree part of num * den
    assert squarefree_part(Fraction(8, 9)) == 2
    assert squarefree_part(Fraction(-2, 49)) == -2
    assert squarefree_part(Fraction(4)) == 1
    with pytest.raises(ZeroInput):
        squarefree_part(0)


def test_is_rational_square():
    assert is_rational_square(Fraction(49, 64))
    assert is_rational_square(0)
    assert not is_rational_square(Fraction(-4))
    assert not is_rational_square(Fraction(2))


def squarefree_range(bound):
    return [d for d in range(-bound, bound + 1)
            if d not in (0, 1) and squarefree_kernel(d) == d]


def test_quad_cyc_tower_matches_cyclotomic_oracle():
    for M in (2, 3, 5, 15):
        for d in squarefree_range(200):
            # oracle: contained in some Q(zeta_{M^k}); discriminants are
            # bounded by 4*200 so k up to 10 is ample
            contained = any(quad_in_cyclotomic(d, M ** k)
                            for k in range(1, 11))
            assert quad_cyc_trivial(d, M, "tower") == (not contained), (d, M)


def _tower_trivial_oracle(d, M):
    """Q(sqrt(d)) meets the K_{M^inf} tower only in Q unless every prime
    of its discriminant divides M."""
    d0 = squarefree_kernel(d)
    if d0 == 1:
        return True
    return not prime_support(abs(quad_disc(d0))) <= prime_support(M)


def test_quad_cyc_tower_matches_prime_support():
    # every M <= 200 against every |d| <= 300, then 40,000 seeded pairs
    # from the whole box 1 <= M <= 200, |d| <= 10^4 (exhaustively it is
    # 4 million calls)
    pairs = [(d, M) for M in range(1, 201)
             for d in range(-300, 301) if d]
    rng = random.Random(9)
    pairs += [(rng.choice((-1, 1)) * rng.randint(1, 10 ** 4),
               rng.randint(1, 200)) for _ in range(40_000)]
    for d, M in pairs:
        assert quad_cyc_trivial(d, M, "tower") == \
            _tower_trivial_oracle(d, M), (d, M)


def test_quad_cyc_fixed_matches_cyclotomic_oracle():
    for M in (3, 4, 5, 8, 12, 15, 24):
        for d in squarefree_range(60):
            contained = quad_in_cyclotomic(d, M)
            assert quad_cyc_trivial(d, M, "fixed") == (not contained), (d, M)


def test_m2_tower_failures_are_exactly_minus1_pm2():
    failures = [d for d in squarefree_range(200)
                if not quad_cyc_trivial(d, 2, "tower")]
    assert sorted(failures) == [-2, -1, 2]


def test_quad_cyc_squares_are_trivial():
    assert quad_cyc_trivial(4, 2)
    assert quad_cyc_trivial(Fraction(9, 16), 2)


def test_quartic_reducibility_sweep():
    # against the elementary factorization oracle on a dense small grid
    for p in range(-12, 13):
        for q in range(-12, 13):
            if q == 0 or p * p == 4 * q:
                with pytest.raises(DegenerateQuartic):
                    quartic_condition(p, q)
                continue
            degs = biquadratic_factor_degrees(p, q)
            got = quartic_condition(p, q)
            if degs == [4]:
                assert got in (DEGREE4_TRIVIAL, DEGREE4_NONTRIVIAL), (p, q)
            else:
                assert got == NOT_DEGREE4, (p, q, degs)


def test_quartic_oracle_against_sympy_sample():
    x = sympy.symbols("x")
    for p, q in ((1, 3), (-7, 5), (2, -3), (-10, 18), (5, 2), (-3, -2)):
        poly = sympy.Poly(x ** 4 + p * x ** 2 + q, x)
        degs = sorted(f.degree() for f, _ in poly.factor_list()[1])
        assert degs == biquadratic_factor_degrees(p, q), (p, q)


def test_quartic_golden_example():
    # x^4 - 3x^2 + 1 = (x^2 - x - 1)(x^2 + x + ... ) splits
    assert quartic_condition(-3, 1) == NOT_DEGREE4
    x = sympy.symbols("x")
    factors = sympy.factor_list(x ** 4 - 3 * x ** 2 + 1)[1]
    assert {str(f) for f, _ in factors} == \
        {"x**2 - x - 1", "x**2 + x - 1"}


def quartic_subfield_radicands(p, q):
    """Quadratic subfields of Q(theta), theta^4+p theta^2+q=0 irreducible:
    V4 (q square) has three, C4/D4 only Q(sqrt(p^2-4q))."""
    res = Fraction(p * p - 4 * q)
    if is_rational_square(Fraction(q)):
        s = Fraction(math.isqrt(q))
        return {squarefree_kernel(int(r)) for r in (-p + 2 * s, -p - 2 * s)
                if r != 0} | {squarefree_kernel(p * p - 4 * q)}
    return {squarefree_kernel(p * p - 4 * q)}


def test_quartic_intersection_verdicts():
    # verdict must agree with the subfield radicand set meeting the tower
    for p in range(-10, 11):
        for q in range(-10, 11):
            if q == 0 or p * p == 4 * q:
                continue
            if biquadratic_factor_degrees(p, q) != [4]:
                continue
            rads = quartic_subfield_radicands(p, q)
            nontrivial = any(
                any(quad_in_cyclotomic(d, 2 ** k) for k in range(1, 11))
                for d in rads if d != 1)
            want = DEGREE4_NONTRIVIAL if nontrivial else DEGREE4_TRIVIAL
            assert quartic_condition(p, q, 2) == want, (p, q, rads)


def test_quartic_subfields_anchored_in_sympy():
    # spot-check the classical subfield description with sympy field
    # membership: x^2 - d splits over Q(theta) iff d is a subfield radicand
    x = sympy.symbols("x")
    for p, q in ((0, 2), (-4, 2), (1, 4), (-6, 4)):
        if biquadratic_factor_degrees(p, q) != [4]:
            continue
        y = sympy.symbols("y")
        theta = sympy.CRootOf(y ** 4 + p * y ** 2 + q, 3)
        rads = quartic_subfield_radicands(p, q)
        for d in sorted(set(list(rads) + [3, -1])):
            if d == 1:
                continue
            factors = sympy.factor_list(x ** 2 - d, extension=theta)[1]
            in_field = max(sympy.degree(f, x) for f, _ in factors) == 1
            assert in_field == (d in rads), (p, q, d)


def test_parse_vcondition_roundtrip():
    data = {"all": [
        {"kind": "squarefree_not_pm1"},
        {"kind": "not_square", "poly": [-2, 0, 1]},
        {"kind": "quad_cyc_trivial", "poly": [-2, 0, 1], "M": 2,
         "mode": "tower"},
        {"kind": "specific_set", "values": [-1, "3/2"]},
    ]}
    cond = parse_vcondition(data)
    assert len(cond.leaves) == 4
    again = parse_vcondition(cond.to_json_dict())
    assert again == cond


def test_parse_vcondition_schema_errors():
    for bad in (None, {}, {"all": 3}, {"all": [{}]},
                {"all": [{"kind": "nope"}]},
                {"all": [{"kind": "not_square"}]},
                {"all": [{"kind": "not_square", "poly": []}]},
                {"all": [{"kind": "quad_cyc_trivial", "poly": [1], "M": 0,
                          "mode": "tower"}]},
                {"all": [{"kind": "quad_cyc_trivial", "poly": [1], "M": 2,
                          "mode": "sideways"}]}):
        with pytest.raises(SchemaError):
            parse_vcondition(bad)


def test_zero_denominator_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_vcondition({"all": [{"kind": "specific_set",
                                   "values": [1, "1/0"]}]})


def test_eval_condition_trace_and_verdicts():
    cond = parse_vcondition({"all": [
        {"kind": "squarefree_not_pm1"},
        {"kind": "quad_cyc_trivial", "poly": [-2, 0, 1], "M": 2,
         "mode": "tower"},
    ]})
    # v = 5: squarefree, and 23 = 5^2 - 2 has sqrt field disc 4*23
    res = eval_condition(cond, 5)
    assert res.ok and all(v for _, v, _ in res.trace)
    # v = 1 fails the first leaf
    res = eval_condition(cond, 1)
    assert not res.ok
    assert res.trace[0][1] is False
    # v = 2: 2^2 - 2 = 2 lies in the 2-tower
    res = eval_condition(cond, 2)
    assert not res.ok and res.trace[1][1] is False


def test_eval_condition_j_guard():
    cond = parse_vcondition({"all": [{"kind": "squarefree_not_pm1"}]})
    J = RationalMap.from_coeffs((1728, 1), (1,))  # t + 1728
    res = eval_condition(cond, 0, J)
    assert not res.ok
    assert res.trace[0][0].startswith("avoid_j_values")
    res = eval_condition(cond, 5, J)
    assert res.ok


def test_eval_condition_leaf_error_becomes_failure():
    cond = parse_vcondition({"all": [
        {"kind": "not_square", "poly": [0, 1]}]})  # poly = v, vanishes at 0
    res = eval_condition(cond, 0)
    assert not res.ok


def test_eval_condition_leaf_package_error_is_a_failed_row(monkeypatch):
    import aimg.arithcond as arithcond

    def planted(q):
        raise ZeroInput("planted")

    monkeypatch.setattr(arithcond, "squarefree_part", planted)
    cond = parse_vcondition({"all": [{"kind": "squarefree_not_pm1"}]})
    res = eval_condition(cond, 5)
    assert not res.ok
    assert res.trace == [("squarefree_not_pm1", False, "ZeroInput: planted")]


def test_eval_condition_leaf_programming_error_propagates(monkeypatch):
    import aimg.arithcond as arithcond

    def broken(q):
        raise TypeError("planted")

    monkeypatch.setattr(arithcond, "squarefree_part", broken)
    cond = parse_vcondition({"all": [{"kind": "squarefree_not_pm1"}]})
    with pytest.raises(TypeError, match="planted"):
        eval_condition(cond, 5)


def test_cubic_proxy_leaf():
    # x^3 - v: irreducible unless v is a cube
    cond = parse_vcondition({"all": [
        {"kind": "cubic_irreducible_proxy",
         "coeff_polys": [[1], [0], [0], [0, -1]]}]})
    assert eval_condition(cond, 2).ok
    assert not eval_condition(cond, 8).ok
    res = eval_condition(cond, 2)
    assert "experimental" in res.trace[0][2]


_COEFF = st.one_of(st.just(Fraction(0)),
                   st.fractions(-12, 12, max_denominator=6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coeffs=st.lists(_COEFF, min_size=4, max_size=4))
def test_cubic_irreducible_matches_sympy(coeffs):
    # ascending coefficients; a zero constant term makes x a factor, and a
    # zero leading one leaves no cubic at all
    x = sympy.Symbol("x")
    desc = [sympy.Rational(c.numerator, c.denominator)
            for c in reversed(coeffs)]
    want = coeffs[3] != 0 and sympy.Poly(desc, x, domain="QQ").is_irreducible
    assert _cubic_irreducible(coeffs) == want
