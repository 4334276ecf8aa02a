"""Modular-curve genus against a Riemann-Hurwitz oracle, the explicit
coset permutations and the classical closed forms for X0(N), X1(N), ±Γ(N);
its per-prime-power class functions against brute force over SL2(Z/N)."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from aimg import matgroup, modgenus, opengroup
from aimg.errors import ResourceExceeded
from aimg.matgroup import FiniteMatrixGroup
from aimg.modgenus import (
    _centralizer_orders,
    _class_sums,
    _classes,
    _fixed_vectors,
    _orbit_chain,
    coset_action,
    genus,
)
from aimg.modmatrix import ResidueMatrix
from aimg.opengroup import OpenSubgroup, full_sl2

from oracle_helpers import (
    all_subgroups_up_to_conjugacy,
    bfs_closure,
    conjugacy_class,
    coset_permutations,
    cycle_count,
    fixed_vector_counts,
    gl2_elements,
    mat_inv,
    mat_mul,
    modular_curve_counts,
    riemann_hurwitz_genus,
    sl2_elements,
    sl2_size,
    x0_genus,
    x1_genus,
)


def open_subgroup_of(elems, n):
    g = FiniteMatrixGroup.from_elements(sorted(elems), n)
    return OpenSubgroup.from_group(g)


def test_full_level_one():
    gd = genus(OpenSubgroup.full())
    assert (gd.genus, gd.degree) == (0, 1)


def test_genus_sweep_small_levels():
    # N = 7, 8 are covered by the acceptance suite's full sweep
    for N in (2, 3, 4, 5, 6):
        for sub in all_subgroups_up_to_conjugacy(sl2_elements(N), N):
            gd = genus(open_subgroup_of(sub, N))
            assert gd.genus == riemann_hurwitz_genus(sub, N), (N, sorted(sub))


def test_plus_minus_gamma_5_and_7():
    for N, expected in ((5, 0), (7, 3)):
        G = OpenSubgroup(
            N, (ResidueMatrix.from_tuple((N - 1, 0, 0, N - 1), N),))
        gd = genus(G)
        assert gd.genus == expected
        assert gd.degree == full_sl2(N).order // 2


def test_coset_action_shape():
    G = OpenSubgroup(2, (ResidueMatrix.from_tuple((0, 1, 1, 1), 2),))
    act = coset_action(G)
    assert act.degree == len(act.perm_s) == len(act.perm_t)
    # perms are bijections
    assert sorted(act.perm_s) == list(range(act.degree))
    assert sorted(act.perm_t) == list(range(act.degree))
    # (st)^3 fixes every coset in PSL2
    p = act.perm_st
    triple = [p[p[p[i]]] for i in range(act.degree)]
    assert triple == list(range(act.degree))


def test_genus_formula_consistency():
    # e2, e3, e_inf reported by genus() must satisfy the closed formula
    for N in (3, 4, 5):
        for sub in all_subgroups_up_to_conjugacy(sl2_elements(N), N):
            gd = genus(open_subgroup_of(sub, N))
            num = 12 + gd.degree - 3 * gd.e2 - 4 * gd.e3 - 6 * gd.e_inf
            assert num == 12 * gd.genus


def permutation_breakdown(perm_s, perm_t, perm_st):
    """(d, e2, e3, e_inf) read off the explicit coset permutations: their
    degree, the fixed points of S and ST and the cycles of T."""
    return (len(perm_s),
            *(sum(1 for i, j in enumerate(p) if i == j)
              for p in (perm_s, perm_st)),
            cycle_count(perm_t))


def test_breakdown_matches_coset_permutations():
    # coset_action gives the same permutations as the oracle
    for N in range(1, 7):
        for sub in all_subgroups_up_to_conjugacy(sl2_elements(N), N):
            perms = coset_permutations(sub, N)
            G = open_subgroup_of(sub, N)
            gd = genus(G)
            assert (gd.degree, gd.e2, gd.e3, gd.e_inf) == \
                permutation_breakdown(*perms), (N, sorted(sub))
            act = coset_action(G)
            assert (act.perm_s, act.perm_t, act.perm_st) == \
                tuple(map(tuple, perms)), (N, sorted(sub))


def test_breakdown_at_ramified_levels_matches_coset_permutations():
    # the classes of S mod 2^k (k >= 2) and of ST mod 3^k carry the norm
    # condition mod 4 or mod 3; a GL2-conjugate of S or ST falls in either
    # SL2-class of its trace, so half the generators are such conjugates
    rng = random.Random(37)
    for n in (9, 16, 18, 27):
        elems = gl2_elements(n)
        moves = ((0, n - 1, 1, 0), (0, n - 1, 1, 1), (1, 1, 0, 1))
        for _ in range(10):
            gens = []
            for x in rng.sample(elems, rng.randint(1, 2)):
                if rng.random() < 0.5:
                    x = mat_mul(mat_mul(x, rng.choice(moves), n),
                                mat_inv(x, n), n)
                gens.append(x)
            h = [g for g in bfs_closure(gens + [(n - 1, 0, 0, n - 1)], n)
                 if (g[0] * g[3] - g[1] * g[2]) % n == 1]
            gd = genus(OpenSubgroup(n, tuple(
                ResidueMatrix.from_tuple(g, n) for g in gens)))
            assert (gd.degree, gd.e2, gd.e3, gd.e_inf) == \
                permutation_breakdown(*coset_permutations(h, n)), (n, gens)


def modular_curve_group(curve, N):
    """The mod-N group of X0(N) (Borel) or X1(N) ([[1, *], [0, *]])."""
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    gens = [(1, 1, 0, 1)] + [(1, 0, 0, u) for u in units]
    if curve == "X0":
        gens += [(u, 0, 0, 1) for u in units]
    return OpenSubgroup(N, tuple(ResidueMatrix.from_tuple(t, N)
                                 for t in gens))


def test_x0_x1_closed_forms():
    for N in range(2, 61):
        assert genus(modular_curve_group("X0", N)).genus == x0_genus(N), N
        assert genus(modular_curve_group("X1", N)).genus == x1_genus(N), N


def test_genus_never_closes_the_whole_group(monkeypatch):
    # genus counts H from the orbit chain and closes no group: with every
    # closure and intersect_sl2 made to fail, and G(120) and SL2(Z/120)
    # far above the cap, the curves still come out
    def refuse(*args, **kwargs):
        raise AssertionError("genus closed a group")

    monkeypatch.setenv("AIMG_CAP_ORDER", "10000")
    for module in (matgroup, opengroup):
        monkeypatch.setattr(module, "_Closure", refuse)
    for module in (opengroup, modgenus):
        monkeypatch.setattr(module, "intersect_sl2", refuse)
    assert genus(modular_curve_group("X0", 120)).genus == 17
    assert genus(modular_curve_group("X1", 120)).genus == 289


def test_genus_orbit_respects_the_cap(monkeypatch):
    # the base orbit of ±GL2(F_7) is all 48 primitive vectors
    monkeypatch.setenv("AIMG_CAP_ORDER", "20")
    G = OpenSubgroup(7, tuple(ResidueMatrix.from_tuple(t, 7) for t in
                              ((1, 1, 0, 1), (0, 6, 1, 0), (3, 0, 0, 1))))
    with pytest.raises(ResourceExceeded) as exc:
        genus(G)
    assert 20 < exc.value.partial <= 48


def random_gl2(rng, n):
    while True:
        x = tuple(rng.randrange(n) for _ in range(4))
        if math.gcd(x[0] * x[3] - x[1] * x[2], n) == 1:
            return x


@st.composite
def chain_groups(draw):
    """(n, generators) at n <= 36: a few random elements of GL2(Z/n) for
    n <= 12, else upper triangular ones whose diagonal may lie in the
    squares (det in a proper subgroup) and whose corner is a multiple of
    a divisor b of n (b0 > 1); with a unipotent [[1, b], [0, 1]] or not
    (conjugated among random elements), and conjugated as a whole or
    not."""
    n = draw(st.integers(2, 36))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    b = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    if draw(st.booleans()):
        units = sorted({u * u % n for u in units})
    generic = n <= 12 and draw(st.booleans())
    if generic:
        gens = [random_gl2(rng, n) for _ in range(rng.randint(1, 3))]
    else:
        gens = [(rng.choice(units), b * rng.randrange(n) % n, 0,
                 rng.choice(units)) for _ in range(rng.randint(1, 3))]
    if draw(st.booleans()):
        # conjugated only among generic elements, so the group stays small
        x = random_gl2(rng, n) if generic else (1, 0, 0, 1)
        gens.append(mat_mul(mat_mul(x, (1, b % n, 0, 1), n),
                            mat_inv(x, n), n))
    if draw(st.booleans()):
        x = random_gl2(rng, n)
        gens = [mat_mul(mat_mul(x, g, n), mat_inv(x, n), n) for g in gens]
    return n, gens


@settings(max_examples=30, deadline=None, derandomize=True)
@given(group=chain_groups())
# base point e1, Stab(e1) = <T^3>: b0 = 3 and det Stab(e1) = {1}
@example(group=(9, [(1, 3, 0, 1), (4, 0, 0, 7)]))
# base point from T, Stab(e1) = <T>: det Stab(e1) = {1} in (Z/7)^x
@example(group=(7, [(1, 1, 0, 1), (2, 0, 0, 1)]))
def test_orbit_chain_matches_brute_force(group):
    # |H| from the chain against a BFS closure of ±G, and the genus
    # breakdown against the explicit coset permutations of that H
    n, gens = group
    minus_i = (n - 1, 0, 0, n - 1)
    h = [g for g in bfs_closure(gens + [minus_i], n)
         if (g[0] * g[3] - g[1] * g[2]) % n == 1]
    G = OpenSubgroup(n, tuple(ResidueMatrix.from_tuple(g, n) for g in gens))
    fibers, b0 = _orbit_chain(
        G.with_minus_i().mod_level_group().generator_tuples, n)
    assert len(fibers) * n // b0 == len(h), group
    gd = genus(G)
    assert (gd.degree, gd.e2, gd.e3, gd.e_inf) == \
        permutation_breakdown(*coset_permutations(h, n)), group


def test_x0_x1_breakdown_matches_classical_counts():
    # (d, e2, e3, e_inf) against mu, nu2, nu3 and the cusp count; X1(N)
    # for N <= 4 has irregular cusps or elliptic points the formula omits
    for N in range(2, 61):
        for curve in ("X0", "X1") if N >= 5 else ("X0",):
            gd = genus(modular_curve_group(curve, N))
            assert (gd.degree, gd.e2, gd.e3, gd.e_inf) == \
                modular_curve_counts(curve, N), (curve, N)


PRIME_POWERS_TO_32 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                      for k in range(1, 6) if p ** k <= 32]


def test_fixed_vectors_match_brute_force():
    for p, k in PRIME_POWERS_TO_32:
        q = p ** k
        want = fixed_vector_counts(q)
        for h in sl2_elements(q):
            assert _fixed_vectors(h, p, k) == want.get(h, 0), (q, h)


def test_class_closed_forms_match_conjugation():
    # membership in Cl_q(S) and Cl_q(ST), and |C_q| = |SL2(Z/q)| / |Cl_q|;
    # q = 2^k (k >= 2) for S and q = 3^k for ST are the ramified cases
    for p, k in PRIME_POWERS_TO_32 + [(7, 2)]:
        q = p ** k
        elems = sl2_elements(q)
        cls_s, cls_st = (conjugacy_class(g, elems, q)
                         for g in ((0, q - 1, 1, 0), (0, q - 1, 1, 1)))
        assert _centralizer_orders(p, q) == \
            (len(elems) // len(cls_s), len(elems) // len(cls_st)), q
        for h in elems:
            assert _classes(h, p, q) == (h in cls_s, h in cls_st), (q, h)


def test_class_sums_match_brute_force_conjugation():
    # one element at a time: membership in the classes of S and ST, and
    # Fix(h), against conjugation and fixed vectors over all of SL2(Z/N)
    for N in (6, 10, 12, 15, 20, 24):
        elems = sl2_elements(N)
        cls_s, cls_st = (conjugacy_class(g, elems, N)
                         for g in ((0, N - 1, 1, 0), (0, N - 1, 1, 1)))
        fixed = fixed_vector_counts(N)
        for h in elems:
            assert _class_sums([h], N) == \
                (h in cls_s, h in cls_st, fixed.get(h, 0)), (N, h)


def test_plus_minus_gamma_at_large_levels(monkeypatch):
    # g(±Gamma(N)) = 1 + |SL2(Z/N)| (N - 6) / (24 N), with |SL2(Z/N)| up
    # to 7.2e8; H = {±I}, so nothing reaches even this cap
    monkeypatch.setenv("AIMG_CAP_ORDER", "1000")
    for N in (343, 720, 1000):
        order = sl2_size(N)
        gd = genus(OpenSubgroup(N, ()))
        assert (gd.degree, gd.e2, gd.e3, gd.e_inf) == \
            (order // 2, 0, 0, order // (2 * N)), N
        assert 24 * N * (gd.genus - 1) == order * (N - 6), N
