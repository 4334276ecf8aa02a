"""Simple-quotient tags and the truncated surjectivity criterion."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aimg import matgroup, opengroup, surjectivity
from aimg.errors import NotASubgroup, NotEligible
from aimg.matgroup import FiniteMatrixGroup, closure
from aimg.modmatrix import ResidueMatrix, crt_combine
from aimg.opengroup import full_gl2, full_sl2
from aimg.surjectivity import (
    SurjectivityVerdict,
    TruncatedAdelicGroup,
    quo_disjointness,
    quo_simple_quotients,
    surjectivity_check,
)

from oracle_helpers import (
    bfs_closure,
    gl2_elements,
    mat_inv,
    mat_mul,
    normal_closure,
    normal_subgroups,
    sl2_elements,
)


def RM(t, n):
    return ResidueMatrix.from_tuple(t, n)


BOREL4 = FiniteMatrixGroup(4, [RM(t, 4) for t in
                               ((1, 1, 0, 1), (3, 0, 0, 1), (1, 0, 0, 3))])


def test_quo_of_gl2_small_primes():
    assert quo_simple_quotients(full_gl2(5)) == {("PSL2", 5)}
    assert quo_simple_quotients(full_sl2(5)) == {("PSL2", 5)}
    assert quo_simple_quotients(full_gl2(7)) == {("PSL2", 7)}
    # GL2(F2) = S3 is solvable: no nonabelian simple quotients
    assert quo_simple_quotients(full_gl2(2)) == set()
    assert quo_simple_quotients(full_gl2(3)) == set()
    assert quo_simple_quotients(BOREL4) == set()
    # one quotient per prime, PSL2(F_5) and PSL2(F_7)
    assert quo_simple_quotients(full_gl2(35)) == {("PSL2", 5), ("PSL2", 7)}


def _generating_set(elems, n):
    """A few elements of the group ``elems`` that generate it."""
    gens, span = [], {(1 % n, 0, 0, 1 % n)}
    for x in sorted(elems):
        if x not in span:
            gens.append(x)
            span = bfs_closure(gens, n)
    return gens


def _perfect_core(gens, n):
    """The last term of the derived series, by oracle normal closures of
    the generator commutators."""
    elems = bfs_closure(gens, n)
    while True:
        gs = _generating_set(elems, n)
        comms = [mat_mul(mat_mul(x, y, n), mat_mul(mat_inv(x, n),
                                                   mat_inv(y, n), n), n)
                 for x in gs for y in gs]
        derived = normal_closure(gs, comms, n)
        if len(derived) == len(elems):
            return frozenset(elems)
        elems = derived


@functools.lru_cache(maxsize=None)
def _core_quotient_orders(core, n):
    """Orders of the simple quotients of the perfect group ``core``: it
    over its maximal proper normal subgroups, found by brute force."""
    proper = [N for N in normal_subgroups(core, n) if len(N) < len(core)]
    return {len(core) // len(N) for N in proper
            if not any(N < M for M in proper)}


def _simple_quotient_orders(gens, n):
    return _core_quotient_orders(_perfect_core(gens, n), n)


def _psl2_orders(tags):
    assert all(kind == "PSL2" for kind, _ in tags)
    return {ell * (ell * ell - 1) // 2 for _, ell in tags}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_quo_matches_brute_force_normal_subgroups(data):
    # one generator spans a cyclic group, so draw two (possibly equal)
    n = data.draw(st.sampled_from((5, 7, 10, 11, 14)))
    gens = data.draw(st.lists(st.sampled_from(gl2_elements(n)),
                              min_size=2, max_size=2))
    tags = quo_simple_quotients(FiniteMatrixGroup(n, gens))
    assert _psl2_orders(tags) == _simple_quotient_orders(gens, n)


def _element_order(x, n):
    k, y = 1, x
    while y != (1, 0, 0, 1):
        y, k = mat_mul(y, x, n), k + 1
    return k


def test_quo_of_a_binary_icosahedral_group():
    # 2.A5 = <a, b> in SL2(F_11), a of order 4, b of order 6 and ab of
    # order 10: its perfect core is itself, of order 120, not SL2(F_11)
    sl = sl2_elements(11)
    a = next(x for x in sl if _element_order(x, 11) == 4)
    b = next(y for y in sl if _element_order(y, 11) == 6
             and _element_order(mat_mul(a, y, 11), 11) == 10
             and len(bfs_closure([a, y], 11)) == 120)
    for gens in ([a, b], [a, b, (2, 0, 0, 2)]):
        assert _simple_quotient_orders(gens, 11) == {60}
        assert quo_simple_quotients(FiniteMatrixGroup(11, gens)) == \
            {("PSL2", 5)}


def test_quo_of_a_full_gl2_closes_nothing(monkeypatch):
    # a factor recorded as all of GL2(Z/n) is tagged by the primes of n,
    # and p = 2, 3 are skipped for any factor, with every closure made to
    # fail; the derived-series route, on the same generators with no
    # order recorded, agrees
    gl35 = full_gl2.__wrapped__(35)
    want = quo_simple_quotients(FiniteMatrixGroup(35, gl35.generator_tuples))
    assert want == {("PSL2", 5), ("PSL2", 7)}

    def refuse(*args, **kwargs):
        raise AssertionError("Quo closed a group")

    for module in (matgroup, opengroup, surjectivity):
        monkeypatch.setattr(module, "_Closure", refuse)
    assert quo_simple_quotients(gl35) == want
    assert quo_simple_quotients(
        FiniteMatrixGroup(6, full_gl2.__wrapped__(6).generator_tuples)) \
        == set()
    assert gl35._elements is None


# 2.A5 times the scalars in GL2(F_11), and SL2(F_5) times the scalars: both
# have the simple quotient A5 = PSL2(F_5)
A5_11 = FiniteMatrixGroup(11, [RM(t, 11) for t in
                               ((1, 8, 8, 10), (7, 3, 4, 5), (2, 0, 0, 2))])
SL5_SCALARS = FiniteMatrixGroup(5, [RM(t, 5) for t in
                                    ((2, 0, 0, 3), (0, 4, 1, 4), (2, 0, 0, 2))])


def test_shared_simple_quotient_is_not_eligible(monkeypatch):
    # H, the fibered product of the two factors over A5, projects onto
    # both and covers the abelianization, yet has index 60: the criterion
    # does not apply, and the check says so instead of "Surjective"
    G = TruncatedAdelicGroup(A5_11, (SL5_SCALARS,))
    assert (A5_11.order, SL5_SCALARS.order) == (600, 240)
    assert quo_simple_quotients(A5_11) & quo_simple_quotients(SL5_SCALARS)
    fibered = [RM(t, 55) for t in
               ((12, 30, 30, 43), (40, 14, 26, 49), (46, 0, 0, 46),
                (12, 0, 0, 12), (21, 0, 0, 21), (34, 0, 0, 34))]
    assert len(bfs_closure([h.entries for h in fibered], 55)) * 60 == \
        G.order
    with pytest.raises(NotEligible,
                       match=r"M- and 5-factors .* PSL2\(F_5\).* index 60"):
        surjectivity_check(G, fibered)
    # all of G is decided by counting it, as |G| is under the cap
    whole = [crt_combine(g, RM((1, 0, 0, 1), 5)) for g in A5_11.generators]
    whole += [crt_combine(RM((1, 0, 0, 1), 11), g)
              for g in SL5_SCALARS.generators]
    assert surjectivity_check(G, whole) == SurjectivityVerdict("Surjective")
    # past the cap, H is not counted and nothing is decided
    monkeypatch.setenv("AIMG_CAP_ORDER", str(G.order - 1))
    with pytest.raises(NotEligible, match=r"H = G$"):
        surjectivity_check(G, whole)
    # a verdict that proves H != G still comes out
    assert surjectivity_check(G, fibered[:1]) == \
        SurjectivityVerdict("FailsProjection", "M")


def test_quo_disjointness():
    assert quo_disjointness(full_gl2(5), full_gl2(7))
    assert not quo_disjointness(full_gl2(5), full_sl2(5))
    assert quo_disjointness(full_gl2(2), full_gl2(5))


def test_truncation_validation():
    with pytest.raises(ValueError):
        TruncatedAdelicGroup(BOREL4, (full_gl2(6),))  # 6 not a prime power
    with pytest.raises(ValueError):
        TruncatedAdelicGroup(BOREL4, (full_gl2(2),))  # 2 divides 4
    with pytest.raises(ValueError):
        TruncatedAdelicGroup(BOREL4, (full_gl2(5), full_gl2(25)))
    G = TruncatedAdelicGroup.with_full_primes(BOREL4, (3, 5))
    assert G.modulus == 60
    assert G.order == BOREL4.order * full_gl2(3).order * full_gl2(5).order


def test_generator_validation():
    G = TruncatedAdelicGroup.with_full_primes(BOREL4, (5,))
    with pytest.raises(NotASubgroup):
        surjectivity_check(G, [RM((1, 0, 0, 1), 4)])  # wrong modulus
    # a mod-4 part outside the Borel group
    bad = crt_combine(RM((0, 1, 1, 0), 4), RM((1, 0, 0, 1), 5))
    with pytest.raises(NotASubgroup):
        surjectivity_check(G, [bad])


BOREL5 = FiniteMatrixGroup(5, [RM(t, 5) for t in
                               ((1, 1, 0, 1), (2, 0, 0, 1), (1, 0, 0, 2))])
TRIVIAL = FiniteMatrixGroup(1, ())


def test_random_trials_match_direct_closure():
    """Exhaustive comparison with 'H equals G iff the closure of the
    generators has full order' on a mid-size truncation, and on five
    more: two factors through det (5 and 7), GL2(Z/25) through det, the
    mod-5 Borel group as a prime part, through the generic route, and
    GL2(Z/3) and GL2(Z/9), through det by the odd-ell lemma."""
    bgens = [g.entries for g in BOREL4.generators]
    cases = (
        (TruncatedAdelicGroup.with_full_primes(BOREL4, (5,)), 150, 10,
         [bgens, [(1, 1, 0, 1), (0, 4, 1, 0), (2, 0, 0, 1)]]),
        (TruncatedAdelicGroup.with_full_primes(TRIVIAL, (5, 7)), 6, 1,
         [full_gl2(5).generator_tuples, full_gl2(7).generator_tuples]),
        (TruncatedAdelicGroup(BOREL4, (full_gl2(25),)), 30, 1,
         [bgens, full_gl2(25).generator_tuples]),
        (TruncatedAdelicGroup(BOREL4, (BOREL5,)), 90, 1,
         [bgens, BOREL5.generator_tuples]),
        (TruncatedAdelicGroup.with_full_primes(BOREL4, (3,)), 90, 1,
         [bgens, full_gl2(3).generator_tuples]),
        (TruncatedAdelicGroup(BOREL4, (full_gl2(9),)), 45, 1,
         [bgens, full_gl2(9).generator_tuples]),
    )
    for seed, (G, trials, least, factor_gens) in enumerate(cases, 61):
        rng = random.Random(seed)
        factors = [fac for _, fac in G.factors]
        elems = [sorted(fac.elements) for fac in factors]

        def combine(parts):
            h = RM(parts[0], factors[0].modulus)
            for t, fac in zip(parts[1:], factors[1:]):
                h = crt_combine(h, RM(t, fac.modulus))
            return h

        surjective_seen = 0
        for trial in range(trials):
            gens = []
            if trial % 3 == 0:
                # bias towards surjective sets: factor generators with
                # random companions in the other factors
                for i, fgens in enumerate(factor_gens):
                    for t in fgens:
                        gens.append(combine([
                            t if j == i else rng.choice(e)
                            for j, e in enumerate(elems)]))
                k = rng.randrange(0, 2)
            else:
                k = rng.randrange(1, 4)
            for _ in range(k):
                gens.append(combine([rng.choice(e) for e in elems]))
            verdict = surjectivity_check(G, gens)
            full = closure(gens).order == G.order
            assert (verdict.kind == "Surjective") == full, (seed, trial,
                                                            verdict)
            surjective_seen += verdict.kind == "Surjective"
        assert least <= surjective_seen < trials, (G.modulus,
                                                   surjective_seen)


def test_full_gl2_factor_is_not_materialized():
    # membership in a full GL2 factor is invertibility, so a surjective
    # call never builds GL2(Z/25)'s 300,000 elements
    gl25 = full_gl2.__wrapped__(25)
    G = TruncatedAdelicGroup(BOREL4, (gl25,))
    gens = [crt_combine(g, RM((1, 0, 0, 1), 25)) for g in BOREL4.generators]
    gens += [crt_combine(RM((1, 0, 0, 1), 4), g) for g in gl25.generators]
    assert surjectivity_check(G, gens) == SurjectivityVerdict("Surjective")
    assert gl25._elements is None
    # a projection that is not invertible mod 25 lies outside the factor
    bad = crt_combine(RM((1, 0, 0, 1), 4), RM((5, 0, 0, 1), 25))
    with pytest.raises(NotASubgroup):
        surjectivity_check(G, gens + [bad])
    assert gl25._elements is None


def test_fails_projection_factor_named():
    G = TruncatedAdelicGroup.with_full_primes(BOREL4, (5,))
    # full Borel times a proper subgroup of GL2(F5)
    gens = [crt_combine(RM(t, 4), RM((1, 0, 0, 1), 5))
            for t in (g.entries for g in BOREL4.generators)]
    v = surjectivity_check(G, gens)
    assert v.kind == "FailsProjection" and v.factor == 5
    # and the other way round
    gens = [crt_combine(RM((1, 0, 0, 1), 4), RM(t, 5))
            for t in ((1, 1, 0, 1), (0, 4, 1, 0), (2, 0, 0, 1))]
    v = surjectivity_check(G, gens)
    assert v.kind == "FailsProjection" and v.factor == "M"
    # at the boundary: onto {det a square} in GL2(F5), exactly half of it
    square_det = ((1, 1, 0, 1), (0, 4, 1, 0), (4, 0, 0, 1))
    assert len(bfs_closure(square_det, 5)) * 2 == full_gl2(5).order
    gens = [crt_combine(RM(t, 4), RM((1, 0, 0, 1), 5))
            for t in (g.entries for g in BOREL4.generators)]
    gens += [crt_combine(RM((1, 0, 0, 1), 4), RM(t, 5)) for t in square_det]
    assert surjectivity_check(G, gens) == \
        SurjectivityVerdict("FailsProjection", 5)


def test_no_generators_is_the_trivial_group():
    G = TruncatedAdelicGroup.with_full_primes(BOREL4, (5,))
    assert surjectivity_check(G, []) == \
        SurjectivityVerdict("FailsProjection", "M")


def legendre(a):
    return pow(a % 5, 2, 5) == 1 or a % 5 == 0


def _det_sign(m, ok):
    """+1 on the matrices mod m whose det mod m passes ``ok``, else -1."""
    return lambda t: 1 if ok((t[0] * t[3] - t[1] * t[2]) % m) else -1


def test_coupled_fiber_fails_abelian_quotient():
    """The fiber {(g1, g2) : det g1 = 1 mod 4 <=> det g2 is a square
    mod 5} projects onto both factors but misses the abelianization.
    So do the fibers of four more sign pairs, one per route: dets coupled
    across two det-route factors (5 and 7) and across GL2(Z/25) and the
    mod-4 Borel group, the sign of S3 = GL2(F_2) (no det character)
    against a square det mod 5, and a square top-left entry in the mod-5
    Borel group (not a function of det) against det = 1 mod 4."""
    square5 = _det_sign(5, lambda d: pow(d, 2, 5) == 1)
    cases = (
        (TruncatedAdelicGroup(full_gl2(4), (full_gl2(5),)),
         _det_sign(4, lambda d: d == 1), square5),
        (TruncatedAdelicGroup.with_full_primes(TRIVIAL, (5, 7)),
         square5, _det_sign(7, lambda d: pow(d, 3, 7) == 1)),
        (TruncatedAdelicGroup(BOREL4, (full_gl2(25),)),
         _det_sign(4, lambda d: d == 1),
         _det_sign(25, lambda d: pow(d, 2, 5) == 1)),
        (TruncatedAdelicGroup.with_full_primes(TRIVIAL, (2, 5)),
         lambda t: -1 if t in ((0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1))
         else 1, square5),
        (TruncatedAdelicGroup(BOREL4, (BOREL5,)),
         _det_sign(4, lambda d: d == 1),
         lambda t: 1 if pow(t[0], 2, 5) == 1 else -1),
    )

    def partners(fac, sign):
        """A non-identity element of each sign."""
        return {s: next(t for t in fac.elements if sign(t) == s
                        and t != (1, 0, 0, 1)) for s in (1, -1)}

    for G, sign1, sign2 in cases:
        (_, f1), (_, f2) = G.factors
        m1, m2 = f1.modulus, f2.modulus
        p1, p2 = partners(f1, sign1), partners(f2, sign2)
        gens = []
        for g in f1.generators:
            gens.append(crt_combine(g, RM(p2[sign1(g.entries)], m2)))
        for g in f2.generators:
            gens.append(crt_combine(RM(p1[sign2(g.entries)], m1), g))
        for h in gens:  # all generators really lie on the fiber
            assert sign1(h.reduce_mod(m1).entries) == \
                sign2(h.reduce_mod(m2).entries)
        v = surjectivity_check(G, gens)
        assert v.kind == "FailsAbelianQuotient", G.modulus
        # sanity: the subgroup H is index 2, so it fails the direct test
        assert closure(gens).order * 2 == G.order, G.modulus


def test_repr():
    assert repr(SurjectivityVerdict("Surjective")) == "Surjective"
    assert repr(SurjectivityVerdict("FailsProjection", 5)) == \
        "FailsProjection(5)"
