"""Finite matrix groups and abelian machinery against brute-force oracles."""

import itertools
import math
import random
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from aimg.arithcond import squarefree_part
from aimg.errors import NotAbelian, NotAHomomorphism, ResourceExceeded
from aimg.matgroup import (
    AbelianHom,
    FiniteAbelianGroup,
    FiniteMatrixGroup,
    closure,
    derived_subgroup,
    enumerate_homs,
    intermediate_subgroups,
    normal_closure,
    quotient_group,
    unit_group,
    _Closure,
    _prime_factors,
)
from aimg.modmatrix import ResidueMatrix
from aimg.opengroup import full_gl2, full_sl2, gl2_order, sl2_order

import oracle_helpers


def mul(x, y, n):
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


def closure_oracle(gens, n):
    """Independent BFS closure over tuples."""
    ident = (1 % n, 0, 0, 1 % n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g, n)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def invertible_tuples(n):
    return [t for t in itertools.product(range(n), repeat=4)
            if math.gcd((t[0] * t[3] - t[1] * t[2]) % n, n) == 1]


def test_closure_matches_bfs_oracle():
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 6):
        pool = invertible_tuples(n)
        for _ in range(20):
            gens = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            G = closure([ResidueMatrix.from_tuple(t, n) for t in gens])
            assert G.element_set == closure_oracle(gens, n)


@st.composite
def closure_cases(draw):
    """(n, gens) at n <= 50: any invertible tuples up to n = 10, upper
    triangular ones above, so that the brute-force oracle stays small."""
    n = draw(st.integers(1, 50))
    entry = st.integers(0, n - 1)
    low = st.just(0) if n > 10 else entry
    gens = draw(st.lists(
        st.tuples(entry, entry, low, entry).filter(
            lambda t: math.gcd(t[0] * t[3] - t[1] * t[2], n) == 1),
        min_size=1, max_size=4))
    return n, gens


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=closure_cases(), data=st.data())
def test_coset_closure_matches_bfs_oracle(case, data):
    n, gens = case
    spans = [oracle_helpers.bfs_closure(gens[:i], n)
             for i in range(len(gens) + 1)]
    want = spans[-1]
    at_once = _Closure(n, gens)
    assert at_once.elems[0] == (1 % n, 0, 0, 1 % n)
    assert len(at_once.elems) == len(at_once.seen)
    assert at_once.seen == want
    # one generator at a time: add_gen grows the group exactly when the
    # generator lies outside the closure of those before it
    clo = _Closure(n)
    for g, before, after in zip(gens, spans, spans[1:]):
        assert clo.add_gen(g) == (g not in before)
        assert clo.seen == after
    # the cap: a closure raises exactly when the order exceeds it, filled
    # up to the cap
    cap = data.draw(st.integers(1, 2 * len(want)))
    if len(want) > cap:
        with pytest.raises(ResourceExceeded) as err:
            _Closure(n, gens, cap)
        assert err.value.partial == cap
    else:
        assert _Closure(n, gens, cap).seen == want


def test_generators_drop_identities_and_repeats():
    # mod 4, (5, 4, 0, 1) is I and (1, 5, 0, 1) repeats T
    g = FiniteMatrixGroup(4, [(5, 4, 0, 1), (1, 1, 0, 1), (1, 5, 0, 1),
                              (3, 0, 0, 1), (1, 1, 0, 1)])
    assert g.generator_tuples == ((1, 1, 0, 1), (3, 0, 0, 1))
    assert FiniteMatrixGroup(1, [(1, 1, 0, 1)]).generator_tuples == ()


def test_full_group_orders_match_formula():
    # |GL2(Z/n)| = n^4 prod (1-1/p)(1-1/p^2); independent recount
    for n in (2, 3, 4, 5, 6, 7, 8, 9):
        assert full_gl2(n).order == len(invertible_tuples(n)) == gl2_order(n)
        assert full_sl2(n).order == sum(
            1 for t in invertible_tuples(n)
            if (t[0] * t[3] - t[1] * t[2]) % n == 1) == sl2_order(n)


def derived_oracle(elems, n):
    inv = {a: inv_oracle(a, n) for a in elems}
    comms = {mul(mul(a, b, n), mul(inv[a], inv[b], n), n)
             for a in elems for b in elems}
    return closure_oracle(comms, n)


def inv_oracle(x, n):
    ident = (1 % n, 0, 0, 1 % n)
    y = x
    while mul(y, x, n) != ident:
        y = mul(y, x, n)
    return y


def test_derived_subgroup_matches_oracle():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        pool = invertible_tuples(n)
        for _ in range(8):
            gens = [rng.choice(pool) for _ in range(2)]
            G = closure([ResidueMatrix.from_tuple(t, n) for t in gens])
            got = derived_subgroup(G)
            assert got.element_set == derived_oracle(G.elements, n)


def test_gl2f2_is_s3():
    G = full_gl2(2)
    assert G.order == 6
    assert derived_subgroup(G).order == 3  # A3


def test_unit_group_known_structures():
    known = {
        1: (), 2: (), 3: (2,), 4: (2,), 5: (4,), 8: (2, 2),
        12: (2, 2), 15: (2, 4), 16: (2, 4), 24: (2, 2, 2),
    }
    for M, invs in known.items():
        assert unit_group(M).invariants == invs


def test_unit_group_log_is_isomorphism():
    for M in (5, 8, 12, 15, 16, 21, 24):
        A = unit_group(M)
        units = [u for u in range(1, M) if math.gcd(u, M) == 1]
        for u in units:
            for w in units:
                assert A.add(A.log(u), A.log(w)) == A.log((u * w) % M)


# G0/H of order 24 with [g1, g2] outside H, though the 12 least elements
# of G0 commute with each other mod H
G9_GENS = ((2, 6, 3, 1), (8, 2, 1, 8))
H9_SEED = (2, 6, 0, 5)


def test_quotient_group_rejects_a_nonabelian_quotient():
    G = FiniteMatrixGroup(9, G9_GENS)
    H = normal_closure(G, [H9_SEED])
    assert (G.order, H.order) == (1296, 54)
    with pytest.raises(NotAbelian):
        quotient_group(G, H)


@st.composite
def normal_pairs(draw):
    """(n, generators of G, seeds of a normal subgroup H of G): one or two
    random generators at a small level, and one or two words in them whose
    normal closure in G is H."""
    n = draw(st.sampled_from((2, 3, 4, 6, 8, 9)))
    gens = draw(st.lists(st.sampled_from(oracle_helpers.gl2_elements(n)),
                         min_size=1, max_size=2))
    words = draw(st.lists(st.lists(st.sampled_from(gens), min_size=1,
                                   max_size=4), min_size=1, max_size=2))
    seeds = []
    for word in words:
        x = (1 % n, 0, 0, 1 % n)
        for g in word:
            x = mul(x, g, n)
        seeds.append(x)
    return n, gens, seeds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=normal_pairs())
@example(case=(9, list(G9_GENS), [H9_SEED]))
def test_quotient_group_is_abelian_exactly_when_brute_force_says_so(case):
    n, gens, seeds = case
    g_elems = oracle_helpers.bfs_closure(gens, n)
    h_elems = oracle_helpers.normal_closure(gens, seeds, n)
    # H is normal, so whether x and y commute mod H depends only on their
    # cosets: one element of each coset is enough
    reps, covered = [], set()
    for x in sorted(g_elems):
        if x not in covered:
            reps.append(x)
            covered.update(mul(x, h, n) for h in h_elems)
    inv = {x: oracle_helpers.mat_inv(x, n) for x in reps}
    abelian = all(mul(mul(x, y, n), mul(inv[x], inv[y], n), n) in h_elems
                  for x in reps for y in reps)
    G = FiniteMatrixGroup(n, gens)
    H = FiniteMatrixGroup.from_elements(h_elems, n)
    if abelian:
        assert quotient_group(G, H)[0].order == len(reps)
    else:
        with pytest.raises(NotAbelian):
            quotient_group(G, H)


def test_quotient_group_eta_is_homomorphism():
    G = full_gl2(5)
    H = derived_subgroup(G)
    Q, eta = quotient_group(G, H)
    assert Q.order == G.order // H.order
    rng = random.Random(17)
    elems = G.elements
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert Q.add(eta(a), eta(b)) == eta(mul(a, b, 5))
    for h in H.elements:
        assert eta(h) == Q.identity


def hom_count_oracle(M, n):
    """Count maps (Z/M)^x -> C_n by brute force over generator images,
    verified by BFS extension over the whole unit group."""
    units = [u for u in range(1, max(M, 2)) if math.gcd(u, M) == 1] or [1]
    # greedy generating set
    gens = []
    span = {1 % M}
    for u in units:
        if u in span:
            continue
        gens.append(u)
        while True:
            new = {(x * g) % M for x in span for g in gens} | span
            if new == span:
                break
            span = new
    count = 0
    for images in itertools.product(range(n), repeat=len(gens)):
        table = {1 % M: 0}
        ok = True
        changed = True
        while changed and ok:
            changed = False
            for u in list(table):
                for g, img in zip(gens, images):
                    v = (u * g) % M
                    val = (table[u] + img) % n
                    if v in table:
                        if table[v] != val:
                            ok = False
                    elif True:
                        table[v] = val
                        changed = True
        if ok and len(table) == len(units):
            count += 1
    return count


def test_enumerate_homs_matches_brute_force():
    for M in range(1, 25):
        A = unit_group(M)
        for n in range(1, 7):
            C = FiniteAbelianGroup.from_invariants((n,))
            got = len(enumerate_homs(A, C))
            assert got == hom_count_oracle(M, n), (M, n)


def test_hom_validation():
    A = FiniteAbelianGroup.from_invariants((2,))
    C = FiniteAbelianGroup.from_invariants((4,))
    with pytest.raises(NotAHomomorphism):
        AbelianHom(A, C, ((1,),))  # order-2 generator to order-4 element
    h = AbelianHom(A, C, ((2,),))
    assert h((1,)) == (2,)
    assert h((0,)) == (0,)


def subgroup_classes_oracle(elems, n):
    """Conjugacy classes (as sets of conjugates) of the closures of all
    <= 2-element subsets: every subgroup when all are 2-generated."""
    subs = {frozenset(closure_oracle([a, b], n)) for a in elems for b in elems}

    def conj_class(s):
        out = set()
        for g in elems:
            gi = inv_oracle(g, n)
            out.add(frozenset(mul(mul(g, x, n), gi, n) for x in s))
        return frozenset(out)

    return {conj_class(s) for s in subs}, conj_class


def test_subgroups_of_sl2f3_match_brute_force():
    # SL2(F3) subgroups are all 2-generated, so the oracle is exhaustive
    elems = oracle_helpers.sl2_elements(3)
    classes, conj_class = subgroup_classes_oracle(elems, 3)
    got = oracle_helpers.all_subgroups_up_to_conjugacy(elems, 3)
    assert len(got) == len(classes) == 7
    # every returned subgroup really is a subgroup and classes are distinct
    reps = {conj_class(s) for s in got}
    assert reps == classes


def test_subgroups_of_gl2f3_match_brute_force():
    # GL2(F3) subgroups are 2-generated too; SL2(F3) has index 2 and is
    # reached only as a join of cyclic subgroups
    elems = oracle_helpers.gl2_elements(3)
    classes, conj_class = subgroup_classes_oracle(elems, 3)
    got = oracle_helpers.all_subgroups_up_to_conjugacy(elems, 3)
    assert len(got) == len(classes)
    assert {conj_class(s) for s in got} == classes


def test_intermediate_subgroups_match_single_extensions():
    # for a prime index a, a subgroup S with [S : H] = a is <H, x> for any
    # x in S - H, so the oracle closes H with one element at a time.  An
    # S of index 4 is <H, x, y> for x in S - H and y in S - <H, x>, so
    # there the oracle closes H with two, x taken once per span <H, x> of
    # index 2 or 4 (y = 1 covers the second); the search reaches these S
    # through its frontier of index-2 spans.
    for N in (4, 6, 8, 9):
        rng = random.Random(N)
        elems = oracle_helpers.sl2_elements(N)
        for _ in range(4):
            hgens = [rng.choice(elems)]
            size = len(oracle_helpers.bfs_closure(hgens, N))
            H = FiniteMatrixGroup(N, hgens)
            spans = {frozenset(oracle_helpers.bfs_closure(hgens + [x], N)): x
                     for x in elems}
            for a in (2, 3, 4) if N in (4, 6) else (2, 3):
                if a == 4:
                    xs = [x for s, x in spans.items()
                          if len(s) in (2 * size, 4 * size)]
                    want = {frozenset(oracle_helpers.bfs_closure(
                        hgens + [x, y], N)) for x in xs for y in elems}
                else:
                    want = set(spans)
                want = {s for s in want if len(s) == a * size}
                got = [K.element_set
                       for K in intermediate_subgroups(H, full_sl2(N), a)]
                assert len(set(got)) == len(got)
                assert set(got) == want


# --- normal closures through the congruence layers, against BFS ---

# r = rad(n) < n at each level; 4, 8, 12, 16 and 24 have the p = 2 layer
# at d = 2, 25 the p = 5 layer, 12, 18 and 24 mix primes, and at 36 both
# primes have a layer above r.
LAYER_LEVELS = {4: 2, 8: 2, 9: 3, 12: 6, 16: 2, 18: 6, 24: 6, 25: 5, 27: 3,
                36: 6}


@st.composite
def layered_groups(draw):
    """(n, generators, word, kernel seeds): two random generators at a
    level of LAYER_LEVELS and up to one element I + rX of the kernel of
    reduction mod r = rad(n) (at 25, 27 and 36, where two random
    generators usually span 10^5 elements, one of each), a word of one to
    three generators, and two more kernel elements, which need not lie in
    the group."""
    n = draw(st.sampled_from(sorted(LAYER_LEVELS)))
    r = LAYER_LEVELS[n]
    invertible = st.sampled_from(oracle_helpers.gl2_elements(n))
    kernel = st.tuples(*[st.integers(0, n // r - 1)] * 4).map(
        lambda x: ((1 + r * x[0]) % n, r * x[1], r * x[2],
                   (1 + r * x[3]) % n))
    if n in (25, 27, 36):
        gens = [draw(invertible), draw(kernel)]
    else:
        gens = [draw(invertible), draw(invertible)]
        gens += draw(st.lists(kernel, max_size=1))
    word = (1, 0, 0, 1)
    for g in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)):
        word = mul(word, g, n)
    return n, gens, word, [draw(kernel), draw(kernel)]


def crt_4_9(x, y):
    """The tuple mod 36 that is x mod 4 and y mod 9."""
    return tuple((9 * a + 28 * b) % 36 for a, b in zip(x, y))


I2 = (1, 0, 0, 1)
GL2_4 = [(1, 1, 0, 1), (0, 3, 1, 0), (3, 0, 0, 1)]
GL2_9 = [(1, 1, 0, 1), (0, 8, 1, 0), (2, 0, 0, 1)]
# Groups that take the layered count's early stops, as (n, generators,
# word, kernel seeds).  T = N ∩ K(rad n) is counted one prime at a time,
# and a prime's count stops once it fills its ceiling, C ∩ K(p) with
# C = SL2 when every seed has det 1 and GL2 otherwise.
LAYERED_EXAMPLES = [
    # 36: G = GL2(Z/4) x <(1, 1, 0, 1) mod 9>; in G and in the normal
    # closure of the seeds, the 2-part of T is all of K(2) mod 4 and the
    # 3-part is one 3-cycle
    (36, [crt_4_9(g, I2) for g in GL2_4] + [crt_4_9(I2, (1, 1, 0, 1))],
     crt_4_9((1, 1, 0, 1), (1, 1, 0, 1)),
     [crt_4_9((3, 0, 0, 1), I2), crt_4_9(I2, (1, 3, 0, 1))]),
    # and the other way round: the 3-part full, the 2-part one involution
    (36, [crt_4_9(I2, g) for g in GL2_9] + [crt_4_9((1, 1, 0, 1), I2)],
     crt_4_9((1, 1, 0, 1), (1, 1, 0, 1)),
     [crt_4_9((1, 2, 0, 1), I2), crt_4_9(I2, (4, 0, 0, 1))]),
    # <I + 2E_ij> mod 8 has 128 elements, not 256: a full layer at 2
    # does not fill the layer at 4
    (8, [(3, 0, 0, 1), (1, 2, 0, 1), (1, 0, 2, 1), (1, 0, 0, 3)],
     (3, 2, 0, 1), [(3, 2, 0, 1), (1, 0, 2, 5)]),
    # seeds of det -1 whose kernel part lies in SL2: the count runs under
    # the GL2 ceiling, which it never reaches
    (27, [(26, 0, 0, 1), (1, 3, 0, 1), (1, 0, 3, 1)], (26, 24, 0, 1),
     [(1, 3, 0, 1), (1, 0, 6, 1)]),
]


def layered_examples(test):
    for data in LAYERED_EXAMPLES:
        test = example(data=data)(test)
    return test


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=layered_groups())
@layered_examples
def test_layered_normal_closure_matches_brute_force(data):
    n, gens, word, outside = data
    G = FiniteMatrixGroup(n, gens)
    inv = [oracle_helpers.mat_inv(g, n) for g in gens]
    commutators = [mul(mul(x, y, n), mul(xi, yi, n), n)
                   for x, xi in zip(gens, inv) for y, yi in zip(gens, inv)]
    # in the trivial group the kernel elements span a subgroup of K(r)
    # that only the sifted commutators of its sequence fill out
    trivial = FiniteMatrixGroup(n, [(1, 0, 0, 1)])
    for got, conj, seeds in (
            (derived_subgroup(G), gens, commutators),
            (normal_closure(G, [word]), gens, [word]),
            (normal_closure(G, outside), gens, outside),
            (normal_closure(trivial, outside), [], outside)):
        want = oracle_helpers.normal_closure(conj, seeds, n)
        assert got.order == len(want)
        assert got.element_set == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=layered_groups())
@layered_examples
def test_order_is_counted_without_closing(data):
    # above rad(n) the order comes from the congruence layers, and a later
    # closure asserts it
    n, gens, _, _ = data
    G = FiniteMatrixGroup(n, gens)
    assert G.order == len(oracle_helpers.bfs_closure(gens, n))
    assert G._elements is None
    assert G.element_set == oracle_helpers.bfs_closure(gens, n)


def test_two_5_adic_layers_match_brute_force():
    # at 25 there is one layer, where x^5 = I and every sift stays in the
    # group, so only a second layer (125 = 5^3) checks the powers and
    # inverse powers a sift forms at p = 5; elements of K(5) keep the
    # closures to a few thousand elements
    n = 125
    rng = random.Random(25)
    for _ in range(20):
        gens = [tuple((e + 5 * rng.randrange(25)) % n for e in (1, 0, 0, 1))
                for _ in range(2)]
        G = FiniteMatrixGroup(n, gens)
        assert G.order == len(oracle_helpers.bfs_closure(gens, n))
        inv = [oracle_helpers.mat_inv(g, n) for g in gens]
        commutators = [mul(mul(x, y, n), mul(xi, yi, n), n)
                       for x, xi in zip(gens, inv)
                       for y, yi in zip(gens, inv)]
        assert derived_subgroup(G).element_set == \
            oracle_helpers.normal_closure(gens, commutators, n)


def test_repr_shows_a_known_order():
    # full_gl2 records its order without closing the group
    assert repr(full_gl2.__wrapped__(6)) == \
        "FiniteMatrixGroup(mod 6, 3 gens, order 288)"
    g = FiniteMatrixGroup(8, [(1, 1, 0, 1)])
    assert repr(g) == "FiniteMatrixGroup(mod 8, 1 gens, order ?)"


# --- the prime factorizer, against sympy.factorint ---

_PRIMES_NEAR_2_30 = st.integers(2 ** 29, 2 ** 30).map(sympy.nextprime)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 2 ** 90))
# Carmichael numbers
@example(n=561)
@example(n=41041)
# strong pseudoprimes to the first 1, 4, 9 and 11 prime bases
@example(n=2047)
@example(n=3215031751)
@example(n=3825123056546413051)
@example(n=318665857834031151167461)
# a prime square above 2^60, and a prime above the 13-base Miller-Rabin
# bound, where the strong Lucas test decides
@example(n=(2 ** 61 - 1) ** 2)
@example(n=2 ** 89 - 1)
@example(n=(2 ** 89 - 1) * 3 ** 40)
def test_prime_factors_match_sympy(n):
    assert _prime_factors(n) == sympy.factorint(n)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p=_PRIMES_NEAR_2_30, q=_PRIMES_NEAR_2_30)
def test_prime_factors_split_two_primes_near_2_30(p, q):
    assert _prime_factors(p * q) == sympy.factorint(p * q)


def test_squarefree_part_beyond_trial_division():
    # trial division alone would run to 2^61
    t0 = time.perf_counter()
    assert squarefree_part((2 ** 31 - 1) ** 2 * (2 ** 61 - 1)) == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 1.0
