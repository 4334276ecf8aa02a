"""Exact rational-function calculus against sympy and direct arithmetic."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from aimg.errors import (
    DegenerateSubstitution,
    DegreeMismatch,
    NoDecomposition,
    ZeroInput,
)
from aimg.ratfunc import (
    FAMILY_MAPS,
    IDENTITY_MAP,
    INFINITY,
    RationalMap,
    _nullspace,
    _rational_roots,
    compose,
    evaluate,
    instantiate,
    moebius_equivalent,
    moebius_from_points,
    rational_fibers,
    solve_left_factor,
)

T = sympy.symbols("t")


def to_sympy(f):
    num = sum(c * T ** k for k, c in enumerate(f.num))
    den = sum(c * T ** k for k, c in enumerate(f.den))
    return sympy.together(sympy.Rational(1) * num / den)


def random_map(rng, maxdeg=3):
    while True:
        num = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, maxdeg + 2))]
        den = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, maxdeg + 2))]
        if any(num) and any(den):
            try:
                return RationalMap.from_coeffs(num, den)
            except ZeroInput:
                continue


def test_canonical_form_invariants():
    rng = random.Random(31)
    for _ in range(100):
        f = random_map(rng)
        assert f.den[-1] > 0
        joint = math.gcd(*(abs(c) for c in f.num + f.den))
        assert joint == 1
        # num and den share no polynomial factor (sympy oracle)
        num = sum(c * T ** k for k, c in enumerate(f.num))
        den = sum(c * T ** k for k, c in enumerate(f.den))
        assert sympy.gcd(num, den) == 1


def sympy_canonical(num, den):
    """(num, den) of the reduced form of num/den by sympy.cancel, cleared
    of denominators and joint content, with den's leading coefficient
    positive."""
    expr = sympy.cancel(sum(sympy.Rational(c) * T ** k
                            for k, c in enumerate(num))
                        / sum(sympy.Rational(c) * T ** k
                              for k, c in enumerate(den)))
    p, q = (sympy.Poly(x, T, domain="QQ").all_coeffs()[::-1]
            for x in sympy.fraction(expr))
    lcm = sympy.ilcm(*(c.q for c in p + q))
    p, q = [int(c * lcm) for c in p], [int(c * lcm) for c in q]
    g = math.gcd(*p, *q) * (1 if q[-1] > 0 else -1)
    return tuple(c // g for c in p), tuple(c // g for c in q)


def test_canonical_form_matches_sympy_cancel():
    # rational coefficients up to 10^6, with a planted common factor of
    # degree 0 to 2
    rng = random.Random(59)

    def poly(hi):
        return [Fraction(rng.randrange(-hi, hi + 1), rng.randrange(1, 7))
                for _ in range(rng.randrange(1, 4))]

    def times(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    for trial in range(80):
        hi = 10 ** 6 if trial % 2 else 9
        a, b, c = poly(hi), poly(hi), poly(30)
        if not any(b) or not any(c):
            continue
        num, den = times(a, c), times(b, c)
        f = RationalMap.from_fractions(num, den)
        assert (f.num, f.den) == sympy_canonical(num, den), (num, den)


def test_nullspace_matches_sympy():
    # the same span as sympy's nullspace, as primitive integer vectors
    rng = random.Random(61)
    for _ in range(150):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [[rng.randrange(-6, 7) * rng.choice((1, 1, 10 ** 5))
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:  # plant a dependent row
            k = rng.randrange(-3, 4)
            rows.append([x + k * y for x, y in zip(rows[0], rows[1])])
        got = _nullspace(rows, ncols)
        want = sympy.Matrix(rows).nullspace()
        assert len(got) == len(want)
        for v in got:
            assert all(isinstance(x, int) for x in v)
            assert math.gcd(*v) == 1
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)
        if want:
            span = sympy.Matrix.hstack(*want)
            assert span.rank() == sympy.Matrix.hstack(
                span, *(sympy.Matrix(v) for v in got)).rank()


def test_from_fractions_clears_denominators():
    f = RationalMap.from_fractions(
        (Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(0)))
    assert f.num == (3, 2) and f.den == (6, 0) or f.den == (6,)
    # equality with a hand-cleared version
    g = RationalMap.from_coeffs((3, 2), (6,))
    assert f == g


def test_evaluate_matches_sympy():
    rng = random.Random(37)
    for _ in range(60):
        f = random_map(rng)
        x = Fraction(rng.randrange(-8, 9), rng.randrange(1, 6))
        got = evaluate(f, x)
        den_val = sum(Fraction(c) * x ** k for k, c in enumerate(f.den))
        num_val = sum(Fraction(c) * x ** k for k, c in enumerate(f.num))
        if den_val == 0:
            assert got is INFINITY
        else:
            assert got == num_val / den_val


def test_evaluate_untrimmed_map():
    # a map built directly from untrimmed tuples: 1 = (1 + 0 t)/1 and
    # t/2 = (0 + t + 0 t^2)/(2 + 0 t)
    one = RationalMap((1, 0), (1,))
    half = RationalMap((0, 1, 0), (2, 0))
    for x in (Fraction(2), Fraction(-3, 5)):
        assert evaluate(one, x) == 1
        assert evaluate(half, x) == x / 2
    assert evaluate(one, INFINITY) == 1
    assert evaluate(half, INFINITY) is INFINITY


def test_evaluate_at_infinity():
    f = RationalMap.from_coeffs((1, 0, 1), (1,))       # t^2 + 1
    assert evaluate(f, INFINITY) is INFINITY
    g = RationalMap.from_coeffs((1,), (1, 0, 1))
    assert evaluate(g, INFINITY) == 0
    h = RationalMap.from_coeffs((1, 0, 3), (2, 0, 1))
    assert evaluate(h, INFINITY) == 3


def test_compose_pointwise():
    rng = random.Random(41)
    for _ in range(40):
        f, g = random_map(rng, 2), random_map(rng, 2)
        try:
            c = compose(f, g)
        except ZeroInput:
            continue
        for xr in (-3, -1, 0, 1, 2, 5):
            x = Fraction(xr)
            inner = evaluate(g, x)
            want = evaluate(f, inner)
            assert evaluate(c, x) == want


def test_compose_identity():
    rng = random.Random(43)
    f = random_map(rng)
    assert compose(f, IDENTITY_MAP) == f
    assert compose(IDENTITY_MAP, f) == f


def test_solve_left_factor_example():
    pi = RationalMap.from_coeffs((1728, 0, 1), (1,))
    u = RationalMap.from_coeffs((0, 0, 1), (1,))
    J = solve_left_factor(pi, u)
    assert J == RationalMap.from_coeffs((1728, 1), (1,))


def test_solve_left_factor_random_roundtrip():
    rng = random.Random(47)
    done = 0
    while done < 20:
        J = random_map(rng, 2)
        u = random_map(rng, 2)
        if J.degree < 1 or u.degree < 1:
            continue
        try:
            pi = compose(J, u)
        except ZeroInput:
            continue
        if pi.degree != J.degree * u.degree:
            continue
        got = solve_left_factor(pi, u)
        assert compose(got, u) == pi
        done += 1


def test_solve_left_factor_errors():
    pi = RationalMap.from_coeffs((0, 0, 0, 1), (1,))    # t^3
    u = RationalMap.from_coeffs((0, 0, 1), (1,))        # t^2
    with pytest.raises(DegreeMismatch):
        solve_left_factor(pi, u)
    pi2 = RationalMap.from_coeffs((0, 1, 0, 0, 1), (1,))  # t^4 + t
    with pytest.raises(NoDecomposition):
        solve_left_factor(pi2, u)


def test_moebius_equivalent_shift():
    u = RationalMap.from_coeffs((1, 2, 1), (1,))   # (t+1)^2
    pi2 = RationalMap.from_coeffs((0, 0, 1), (1,))  # t^2
    g = moebius_equivalent(u, pi2)
    assert g is not None and g.degree == 1
    assert compose(pi2, g) == u
    # determinism: lexicographically least (num, den) among the verifying
    # Moebius maps (t+1 and -t-1 both verify)
    assert (g.num, g.den) == ((-1, -1), (1,))
    # a degree-4 u against itself: u = f(t + 5), f = (t^4 + 36)/t^2 is
    # invariant under t -> -t, 36/t, so each sample fiber holds 4 points
    # and 64 candidates are solved, 4 of which verify
    f = RationalMap.from_coeffs((36, 0, 0, 0, 1), (0, 0, 1))
    u = compose(f, RationalMap.from_coeffs((5, 1)))
    g = moebius_equivalent(u, u)
    assert compose(u, g) == u
    assert (g.num, g.den) == ((-31, -5), (5, 1))


def test_moebius_equivalent_none():
    u = RationalMap.from_coeffs((1, 0, 1), (1,))   # t^2 + 1: fibers differ
    pi2 = RationalMap.from_coeffs((0, 1, 1), (1, 1))
    assert moebius_equivalent(u, pi2) is None


def test_moebius_equivalent_finds_a_planted_map():
    # u = pi2 o g: g is one of the candidates, so the answer verifies and
    # is at most g
    rng = random.Random(23)
    for _ in range(60):
        pi2 = random_map(rng)
        a, b, c, d = (rng.randrange(-4, 5) for _ in range(4))
        if pi2.degree < 1 or a * d == b * c:
            continue
        g = RationalMap.from_fractions((b, a), (d, c))
        u = compose(pi2, g)
        got = moebius_equivalent(u, pi2)
        assert got is not None and compose(pi2, got) == u
        assert (got.num, got.den) <= (g.num, g.den)


POINTS = st.one_of(st.just(INFINITY),
                   st.fractions(-4, 4, max_denominator=3))
MOEBIUS = st.tuples(*[st.integers(-5, 5)] * 4).filter(
    lambda m: m[0] * m[3] != m[1] * m[2]).map(
    lambda m: RationalMap.from_fractions((m[1], m[0]), (m[3], m[2])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=MOEBIUS, xs=st.lists(POINTS, min_size=3, max_size=3, unique=True))
def test_moebius_from_points_recovers_the_map(g, xs):
    assert moebius_from_points(xs, [evaluate(g, x) for x in xs]) == g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xs=st.lists(POINTS, min_size=3, max_size=3, unique=True),
       zs=st.lists(POINTS, min_size=2, max_size=2, unique=True),
       data=st.data())
def test_moebius_from_points_rejects_repeated_targets(xs, zs, data):
    # one target twice, at any two of the three places
    z = zs + [data.draw(st.sampled_from(zs))]
    z = data.draw(st.permutations(z))
    assert moebius_from_points(xs, z) is None
    assert moebius_from_points(xs, [zs[0]] * 3) is None


def fibers_oracle(f, j):
    num = sum(c * T ** k for k, c in enumerate(f.num))
    den = sum(c * T ** k for k, c in enumerate(f.den))
    if j is INFINITY:
        poly = sympy.Poly(den, T)
    else:
        poly = sympy.Poly(num - sympy.Rational(j) * den, T)
    out = set()
    if poly.degree() >= 1:
        for r in sympy.roots(poly, T):
            if r.is_rational:
                out.add(Fraction(int(sympy.numer(r)), int(sympy.denom(r))))
    # degree drop at the leading coefficient means a fiber point at oo
    full_deg = max(f.deg_num, f.deg_den)
    if poly.degree() < full_deg:
        out.add(INFINITY)
    return out


def test_rational_fibers_matches_sympy():
    rng = random.Random(53)
    for _ in range(60):
        f = random_map(rng, 3)
        if f.is_constant():
            continue
        j = rng.choice([INFINITY, Fraction(rng.randrange(-10, 11)),
                        Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))])
        assert rational_fibers(f, j) == fibers_oracle(f, j), (f, j)


BIG = st.sampled_from([1, 999983, 1000003, 10 ** 6, 2 ** 10 * 3 ** 7])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any),
       planted=st.lists(st.builds(Fraction, st.integers(-12, 12),
                                  st.integers(1, 6)),
                        min_size=1, max_size=3),
       big=st.one_of(st.none(),
                     st.builds(lambda s, a, b: Fraction(s * a, b),
                               st.sampled_from((1, -1)), BIG, BIG)))
def test_rational_roots_finds_planted_roots(base, planted, big):
    # base * prod (den t - num) over the planted roots num/den, one of
    # them with numerator and denominator up to about 2 * 10^6
    if big is not None:
        planted = planted + [big]
    poly = list(base)
    for r in planted:
        out = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i] -= r.numerator * c
            out[i + 1] += r.denominator * c
        poly = out
    roots = _rational_roots(poly)
    assert set(planted) <= roots
    for r in roots:
        assert sum(c * r ** i for i, c in enumerate(poly)) == 0, (poly, r)


SMOOTH = st.sampled_from([1, 720, 5040, 2 ** 10 * 3 ** 6 * 5 ** 3])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(base=st.lists(st.integers(-20, 20), min_size=1, max_size=3).filter(any),
       planted=st.lists(st.builds(lambda s, a, b: Fraction(s * a, b),
                                  st.sampled_from((1, -1)), SMOOTH, SMOOTH),
                        min_size=1, max_size=2),
       scale=SMOOTH)
def test_rational_roots_match_sympy_on_smooth_coefficients(base, planted,
                                                           scale):
    # planted roots whose numerators and denominators have many divisors,
    # times a smooth constant, so that most candidates s/d are pruned by
    # the p(1), p(-1) divisibility tests; sympy's factorization decides
    poly = [scale * c for c in base]
    for r in planted:
        out = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i] -= r.numerator * c
            out[i + 1] += r.denominator * c
        poly = out
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(poly)), x).factor_list()
    want = {Fraction(-int(f.nth(0)), int(f.nth(1)))
            for f, _ in factors if f.degree() == 1}
    assert _rational_roots(poly) == want


def test_family_maps_degrees():
    expected = {1: 2, 2: 2, 3: 3, 4: 4, 5: 4, 6: 4}
    for i, deg in expected.items():
        entry = FAMILY_MAPS[i]
        assert entry.base_degree == deg
        alpha = 1 if entry.needs_alpha else None
        base = instantiate(entry, alpha=alpha)
        assert base.degree == deg


def test_family_map_pi1():
    # pi_1 = t^2, twisted by v: t^2 / v
    entry = FAMILY_MAPS[1]
    base = instantiate(entry)
    assert base == RationalMap.from_coeffs((0, 0, 1), (1,))
    tw = instantiate(entry, v=Fraction(5))
    assert tw == RationalMap.from_coeffs((0, 0, 5), (1,))


def test_family_map_degenerate_substitution():
    # pi_1 twisted at v = 0 has a vanishing numerator
    with pytest.raises(DegenerateSubstitution):
        instantiate(FAMILY_MAPS[1], v=Fraction(0))
    # pi_2's twist at a nondegenerate point keeps its degree
    tw = instantiate(FAMILY_MAPS[2], alpha=Fraction(1), v=Fraction(3))
    assert tw.degree == 2


def test_json_roundtrip():
    f = RationalMap.from_coeffs((1728, 0, 1), (2, 1))
    d = f.to_json_dict()
    assert RationalMap.from_json_dict(d) == f
    # a 'num/den' string coefficient loads as its value
    d["num"][0] = "3456/2"
    assert RationalMap.from_json_dict(d) == f
