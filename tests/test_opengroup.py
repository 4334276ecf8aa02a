"""Open subgroups of GL2(Zhat): finite images, levels, commutators."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from aimg.errors import ResourceExceeded, SchemaError
from aimg.families import FamilySpec, build_member
from aimg.matgroup import (
    FiniteMatrixGroup,
    closure,
    derived_subgroup,
    enumerate_homs,
)
from aimg.modgenus import genus
from aimg.modmatrix import ResidueMatrix, crt_combine
from aimg.opengroup import (
    OpenSubgroup,
    _divisors as divisor_walk,
    _full_factor_commutator,
    commutator_open,
    det_image,
    full_gl2,
    full_sl2,
    gl2_generator_matrices,
    gl2_order,
    intersect_sl2,
    minimal_level,
    sl2_order,
    sl_count,
    transpose_group,
)

from oracle_helpers import (
    bfs_closure,
    gl2_elements,
    mat_inv,
    mat_mul,
    normal_closure,
    preimage,
    sl2_elements,
)


def RM(t, n):
    return ResidueMatrix.from_tuple(t, n)


A3_PREIMAGE = OpenSubgroup(2, (RM((0, 1, 1, 1), 2),))


def test_full_group_images():
    G = OpenSubgroup.full()
    for L in (1, 2, 3, 4, 5, 6, 8):
        assert G.finite_image(L).order == gl2_order(L)
    top = G.mod_level_group()
    assert gl2_order(G.level) // top.order == 1
    assert (G.level - 1, 0, 0, G.level - 1) in top.element_set


def test_full_gl2_and_sl2_close_to_their_recorded_orders():
    # full_gl2 and full_sl2 record |GL2(Z/n)| and |SL2(Z/n)| instead of
    # closing the group; closing uncached copies checks those records
    # (materializing asserts them too)
    for n in range(1, 31):
        assert len(full_gl2.__wrapped__(n).elements) == gl2_order(n)
        assert len(full_sl2.__wrapped__(n).elements) == sl2_order(n)


def test_gl2_generator_determinants_span_the_units():
    # the determinant half of full_gl2's generation argument, checked
    # without trusting unit_group's own coverage check
    for n in range(1, 1001):
        diag = [g.entries for g in gl2_generator_matrices(n)[2:]]
        assert all(t[1:] == (0, 0, 1) for t in diag)
        gens = [t[0] for t in diag]
        span = {1 % n}
        frontier = list(span)
        while frontier:
            frontier = {x * u % n for x in frontier for u in gens} - span
            span.update(frontier)
        assert len(span) == sum(1 for k in range(n) if math.gcd(k, n) == 1)


def test_finite_image_is_full_preimage():
    # image mod 4 of a level-2 group must be the full preimage of the
    # mod-2 image: index preserved
    img4 = A3_PREIMAGE.finite_image(4)
    assert img4.order == gl2_order(4) // 2
    reduced = {tuple(v % 2 for v in t) for t in img4.elements}
    assert len(reduced) == 3  # A3 inside GL2(F2)
    # new prime: mod 6 image picks up the full GL2(Z/3) factor
    img6 = A3_PREIMAGE.finite_image(6)
    assert img6.order == 3 * gl2_order(3)


def _oracle_preimage(G, L):
    return preimage([g.entries for g in G.gens], G.level, L)


def test_finite_image_matches_brute_force_preimage():
    # 2 || level with 8 | L: the first kernel layer alone generates only
    # half of the preimage (determinants 1 and 3 mod 8)
    borel = OpenSubgroup(2, (ResidueMatrix(2, 1, 1, 0, 1),))
    for L, order in ((4, 32), (8, 512), (16, 8192), (24, 24576)):
        img = borel.finite_image(L)
        assert img.order == order
        assert img.element_set == _oracle_preimage(borel, L)
    # a level-6 group of order 48: S3 mod 2 times the normalizer of the
    # split Cartan mod 3
    gens = [crt_combine(RM(a, 2), RM(b, 3)) for a, b in (
        ((1, 1, 0, 1), (1, 0, 0, 1)), ((0, 1, 1, 0), (1, 0, 0, 1)),
        ((1, 0, 0, 1), (1, 0, 0, 2)), ((1, 0, 0, 1), (2, 0, 0, 1)),
        ((1, 0, 0, 1), (0, 1, 1, 0)))]
    G6 = OpenSubgroup(6, tuple(gens))
    assert G6.mod_level_group().order == 48
    for L in (12, 24):
        img = G6.finite_image(L)
        assert img.order == 48 * gl2_order(L) // gl2_order(6)
        assert img.element_set == _oracle_preimage(G6, L)
    assert G6.finite_image(24).order == 12288


def test_minimal_level():
    # full group presented redundantly at level 6
    G6 = OpenSubgroup.from_group(full_gl2(6))
    assert minimal_level(G6).level == 1
    # level-2 group presented at level 4
    lifted = OpenSubgroup.from_group(A3_PREIMAGE.finite_image(4))
    m = minimal_level(lifted)
    assert m.level == 2
    assert m.mod_level_group().order == 3


def test_least_level_presentation_drops_identities_and_repeats():
    # the kernel generators I + 2E_ij of the level-4 image are I mod 2
    lifted = OpenSubgroup.from_group(A3_PREIMAGE.finite_image(4))
    assert minimal_level(lifted).gens == A3_PREIMAGE.gens


@settings(max_examples=500, deadline=None, derandomize=True)
@given(n=st.integers(1, 10 ** 4))
def test_divisor_walk_matches_the_scan(n):
    # _least_level walks these divisors without the last, n; it used to
    # scan range(1, n) for them, as the oracle _divisors below does
    assert divisor_walk(n) == _divisors(n)


def test_det_image_and_sl2_part():
    assert det_image(OpenSubgroup.full()).full
    assert det_image(A3_PREIMAGE).full  # (Z/2)^x is trivial
    sl = intersect_sl2(A3_PREIMAGE)
    assert sl.order * 2 == sl2_order(2)  # A3 = index 2 in SL2(Z/2)=S3


def test_transpose_group_involution():
    G = OpenSubgroup(4, (RM((1, 2, 3, 1), 4), RM((0, 1, 3, 0), 4)))
    T = transpose_group(G)
    assert transpose_group(T).mod_level_group().element_set == \
        G.mod_level_group().element_set
    expect = {tuple((t[0], t[2], t[1], t[3])) for t in
              G.mod_level_group().elements}
    assert T.mod_level_group().element_set == expect


def test_json_roundtrip_and_schema_errors():
    d = A3_PREIMAGE.to_json_dict()
    assert d == {"level": 2, "gens": [[0, 1, 1, 1]]}
    assert OpenSubgroup.from_json_dict(d).mod_level_group().element_set == \
        A3_PREIMAGE.mod_level_group().element_set
    for bad in ({}, {"level": 0, "gens": []}, {"level": 2, "gens": [[1, 2]]},
                {"level": 2, "gens": [[2, 0, 0, 2]]}, {"level": "x", "gens": []}):
        with pytest.raises(SchemaError):
            OpenSubgroup.from_json_dict(bad)


def commutator_contains_all_commutators(res, G, L):
    """Independent spot check: [G, G] mod L contains every commutator of
    the finite image mod L."""
    img = G.finite_image(L)
    comm_img = res.commutator.finite_image(L).element_set
    rng = random.Random(5)
    elems = img.elements
    n = L
    for _ in range(200):
        a = rng.choice(elems)
        b = rng.choice(elems)
        am = RM(a, n)
        bm = RM(b, n)
        c = (am * bm * am.inv() * bm.inv()).entries
        assert c in comm_img


def test_commutator_full_group():
    res = commutator_open(OpenSubgroup.full())
    assert res.index_in_sl == 2
    assert res.det_full
    # the commutator reduces mod 2 onto A3
    assert res.commutator.finite_image(2).order == 3
    commutator_contains_all_commutators(res, OpenSubgroup.full(), 24)
    # index oracle at a deep level: |SL2 mod L| over the det-1 part of the
    # commutator's image (the commutator denotes an SL2-preimage)
    det1 = sum(1 for t in res.commutator.finite_image(24).elements
               if (t[0] * t[3] - t[1] * t[2]) % 24 == 1)
    assert sl2_order(24) // det1 == 2


@pytest.mark.parametrize("ell, u", [(2, 3), (3, 2)])
def test_full_factor_commutator_matches_brute_force(ell, u):
    # D(ell^2) of GL2(Z/ell^2), generated by T, S and diag(u, 1), is the
    # normal closure of the generators' commutators
    n = ell * ell
    gens = [(1, 1, 0, 1), (0, n - 1, 1, 0), (u, 0, 0, 1)]
    inv = [mat_inv(g, n) for g in gens]
    comms = [mat_mul(mat_mul(x, y, n), mat_mul(xi, yi, n), n)
             for x, xi in zip(gens, inv) for y, yi in zip(gens, inv)]
    want = normal_closure(gens, comms, n)
    img, index = _full_factor_commutator(ell)
    c = img.modulus
    image = bfs_closure(img.generator_tuples, c)
    assert {t for t in sl2_elements(n)
            if tuple(v % c for v in t) in image} == want
    assert index == len(sl2_elements(n)) // len(want)


def test_gl2_commutator_is_sl2_exactly_at_odd_prime_powers():
    # the odd-ell lemma in commutator_open; at 2^k the index is 2
    for q in (3, 9, 27, 5, 25, 7, 49):
        assert derived_subgroup(full_gl2(q)).order == sl2_order(q)
    for q in (2, 4, 8):
        assert derived_subgroup(full_gl2(q)).order * 2 == sl2_order(q)


def test_commutator_of_sl2_preimage_mod3():
    # G = preimage of SL2(Z/3): SL2-part is everything, abelianization of
    # SL2(Zhat) gives the index
    G = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((0, 2, 1, 0), 3)))
    res = commutator_open(G)
    img = G.finite_image(res.saturation_level)
    # independent: brute-force commutator closure at the saturation level
    n = res.saturation_level
    gens = []
    elems = img.elements
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.choice(elems), rng.choice(elems)
        am, bm = RM(a, n), RM(b, n)
        gens.append(am * bm * am.inv() * bm.inv())
    brute = closure(gens)
    assert brute.order == res.commutator.finite_image(n).order
    sl_count = sum(1 for e in elems
                   if (e[0] * e[3] - e[1] * e[2]) % n == 1)
    assert sl_count // brute.order == res.index_in_sl


def test_commutator_index_class_kinds():
    G = OpenSubgroup.full()
    assert commutator_open(transpose_group(G)).index_in_sl == 2
    full_sl_pre = OpenSubgroup(2, tuple(
        RM(t, 2) for t in ((1, 1, 0, 1), (0, 1, 1, 0))))
    # preimage of full GL2(Z/2) is the full group again
    assert commutator_open(transpose_group(full_sl_pre)).index_in_sl == 2


def test_cap_order_env(monkeypatch):
    monkeypatch.setenv("AIMG_CAP_ORDER", "100")
    with pytest.raises(ResourceExceeded):
        A3_PREIMAGE.finite_image(8).elements


def test_cap_error_carries_closure_state(monkeypatch):
    monkeypatch.setenv("AIMG_CAP_ORDER", "100")
    img = A3_PREIMAGE.finite_image(8)
    with pytest.raises(ResourceExceeded) as info:
        img.elements
    err = info.value
    assert err.modulus == 8
    assert 1 <= err.generators <= len(img.generator_tuples)
    assert err.partial == 100
    assert "modulus 8" in str(err)
    assert f"{err.generators} generators" in str(err)


def test_commutator_ramp_counts_derived_subgroups_under_a_small_cap(
        monkeypatch):
    # The members of (GL2, SL2(3)-preimage, M = 8) at level 24.  Their
    # derived subgroups are counted at the square of the least level, 144
    # or 576, where they have up to 63,700,992 elements; they are counted
    # through the congruence layers, so no closure comes near the cap.
    monkeypatch.setenv("AIMG_CAP_ORDER", "20000")
    h3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((0, 2, 1, 0), 3)))
    spec = FamilySpec(OpenSubgroup.full(), h3, 8)
    got = []
    for phi in enumerate_homs(spec.a_group, spec.quotient):
        res = commutator_open(build_member(spec, phi).group)
        got.append((res.index_in_sl, res.saturation_level))
    assert got == [(6, 6), (2, 24), (2, 12), (2, 24)]


def _commutator_fields(G):
    res = commutator_open(G)
    return (res.index_in_sl, res.saturation_level, res.commutator.level,
            res.commutator.mod_level_group().order, res.det_full)


@pytest.mark.parametrize("L", [24, 72, 144])
def test_a3_preimage_presented_high_up_is_counted_under_a_small_cap(
        monkeypatch, L):
    # G(L) has |GL2(Z/L)| / 2 elements, above the cap: its order, its
    # least level and its commutator are all counted, not closed
    monkeypatch.setenv("AIMG_CAP_ORDER", "20000")
    G = OpenSubgroup.from_group(A3_PREIMAGE.finite_image(L))
    assert minimal_level(G).level == 2
    assert _commutator_fields(G) == _commutator_fields(A3_PREIMAGE)


# ---------------------------------------------------------------------------
# Properties over random groups, against the brute-force preimage


@st.composite
def open_subgroups(draw, levels, min_gens=1):
    """A random group: min_gens to 3 random generators at a level drawn
    from ``levels``."""
    m = draw(st.sampled_from(levels))
    elems = st.sampled_from(gl2_elements(m))
    gens = draw(st.lists(elems, min_size=min_gens, max_size=3))
    return OpenSubgroup(m, tuple(RM(t, m) for t in gens))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(1, 13)), data=st.data())
def test_sl_count_matches_brute_force(G, data):
    L = data.draw(st.sampled_from(range(G.level, 25, G.level)))
    det1 = sum(1 for t in _oracle_preimage(G, L)
               if (t[0] * t[3] - t[1] * t[2]) % L == 1 % L)
    assert sl_count(G, L) == det1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(1, 25), min_gens=0))
def test_intersect_sl2_matches_brute_force(G):
    m = G.level
    elems = bfs_closure([g.entries for g in G.gens], m)
    assert intersect_sl2(G).element_set == {
        t for t in elems if (t[0] * t[3] - t[1] * t[2]) % m == 1 % m}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(G=open_subgroups(range(2, 13)), data=st.data())
def test_finite_image_records_the_full_preimage_order(G, data):
    # the order finite_image records, read before anything closes the
    # image, is the size of the brute-force preimage
    L = data.draw(st.sampled_from(range(G.level, 49, G.level)))
    img = G.finite_image(L)
    assert img._elements is None
    assert L == G.level or img._order is not None
    assert img.order == len(_oracle_preimage(G, L))
    if L > 24:
        gl2_elements.cache_clear()  # GL2(Z/48) alone is 1.2M tuples


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(1, 13)))
def test_det_image_matches_brute_force(G):
    m = G.level
    elems = bfs_closure([g.entries for g in G.gens], m)
    assert det_image(G).values == {(t[0] * t[3] - t[1] * t[2]) % m
                                   for t in elems}


def _conjugate(G, g):
    m = G.level
    gi = next(x for x in gl2_elements(m)
              if mat_mul(g, x, m) == (1 % m, 0, 0, 1 % m))
    return OpenSubgroup(m, tuple(
        RM(mat_mul(mat_mul(g, x.entries, m), gi, m), m) for x in G.gens))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(G=open_subgroups((2, 3, 4, 6)), data=st.data())
def test_commutator_index_is_conjugation_invariant(G, data):
    g = data.draw(st.sampled_from(gl2_elements(G.level)))
    assert commutator_open(_conjugate(G, g)).index_in_sl == \
        commutator_open(G).index_in_sl


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(1, 13)), data=st.data())
def test_genus_is_conjugation_invariant(G, data):
    g = data.draw(st.sampled_from(gl2_elements(G.level)))
    assert genus(_conjugate(G, g)) == genus(G)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(1, 13)))
def test_genus_is_transpose_invariant(G):
    assert genus(transpose_group(G)) == genus(G)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(1, 13)))
def test_commutator_index_is_transpose_invariant(G):
    # G^t is the image of G under g -> (g^-1)^t, an automorphism of
    # GL2(Zhat) that maps SL2(Zhat) onto itself
    assert commutator_open(transpose_group(G)).index_in_sl == \
        commutator_open(G).index_in_sl


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _reduce(gens, d):
    return [tuple(v % d for v in g.entries) for g in gens]


@st.composite
def lifted_subgroups(draw):
    """A random group at a level m <= 12 with up to three random elements
    of the kernel of reduction to a divisor d of m among its generators,
    so that its least level is often below m."""
    m = draw(st.integers(1, 12))
    d = draw(st.sampled_from(_divisors(m)))
    kernel = [t for t in gl2_elements(m)
              if (t[0] - 1) % d == t[1] % d == t[2] % d == (t[3] - 1) % d == 0]
    gens = draw(st.lists(st.sampled_from(gl2_elements(m)),
                         min_size=1, max_size=3))
    gens += draw(st.lists(st.sampled_from(kernel), max_size=3))
    return OpenSubgroup(m, tuple(RM(t, m) for t in gens))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(G=lifted_subgroups())
def test_minimal_level_is_the_least_preimage_level(G):
    m = G.level
    size = len(bfs_closure([g.entries for g in G.gens], m))
    least = next(d for d in _divisors(m)
                 if len(bfs_closure(_reduce(G.gens, d), d))
                 * len(gl2_elements(m)) // len(gl2_elements(d)) == size)
    Gm = minimal_level(G)
    assert Gm.level == least
    # the presentation at the least level has no I and no repeats
    entries = [g.entries for g in Gm.gens]
    assert len(set(entries)) == len(entries)
    assert (1 % least, 0, 0, 1 % least) not in entries
    assert preimage([g.entries for g in Gm.gens], least, m) == \
        bfs_closure([g.entries for g in G.gens], m)


def _sl2_kernel(c, d):
    """The kernel of SL2(Z/c) -> SL2(Z/d): the matrices I + d*X, X mod
    c/d, of determinant 1 mod c."""
    k = c // d
    out = []
    for x in itertools.product(range(k), repeat=4):
        t = ((1 + d * x[0]) % c, d * x[1] % c, d * x[2] % c,
             (1 + d * x[3]) % c)
        if (t[0] * t[3] - t[1] * t[2]) % c == 1 % c:
            out.append(t)
    return out


# a level far above the square of the group level, per group level
PROBE_LEVEL = {2: 288, 3: 216, 4: 288, 6: 144}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(G=open_subgroups((2, 3, 4, 6)))
def test_ramp_index_holds_at_a_high_level(G):
    # the index counted at the square of the least level must still be the
    # index of D(L) in the SL2-part far above it
    L = PROBE_LEVEL[G.level]
    assert commutator_open(G).index_in_sl == \
        sl_count(G, L) // derived_subgroup(G.finite_image(L)).order


def _oracle_derived_subgroup(G, L):
    """D(L) for G at level 2, by BFS: G(L) is generated by the lifts of
    G's generators and I + 2E_ij, I + 4E_ij (checked against the
    preimage), and D(L) is the normal closure of their commutators."""
    gens = [g.entries for g in G.gens]
    gens += [tuple((e + s * (i == j)) % L for j, e in enumerate((1, 0, 0, 1)))
             for s in (2, 4) for i in range(4)]
    assert bfs_closure(gens, L) == preimage(gens[:len(G.gens)], 2, L)
    inv = [mat_inv(g, L) for g in gens]
    comms = [mat_mul(mat_mul(x, y, L), mat_mul(xi, yi, L), L)
             for x, xi in zip(gens, inv) for y, yi in zip(gens, inv)]
    return normal_closure(gens, comms, L)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(G=open_subgroups((2, 3, 4, 6, 8, 9, 12)))
def test_derived_subgroup_is_the_sl2_preimage_above_the_square_level(G):
    # the lemma in commutator_open: D(m^2 p) is the full SL2-preimage of
    # D(m^2) for every prime p | m, so the count at m^2 is exact
    m = G.level
    M = m * m
    D = derived_subgroup(G.finite_image(M))
    for p in (p for p in (2, 3) if m % p == 0):
        assert derived_subgroup(G.finite_image(M * p)).order == \
            D.order * sl2_order(M * p) // sl2_order(M)
    if m == 2:
        for L in (4, 8):
            want = _oracle_derived_subgroup(G, L)
            got = derived_subgroup(G.finite_image(L))
            assert got.order == len(want)
            assert got.element_set == want


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups((2, 3, 4, 6)))
def test_commutator_is_presented_at_its_least_level(G):
    # C sits in SL2(Z/c) and in the preimage of its mod-d image, which has
    # |image| * |kernel| elements; it passes at d when the counts agree.
    # Passing at d means containing the kernel, and the kernel at d holds
    # the kernel at every multiple of d, so checking the maximal proper
    # divisors c/p checks them all.
    C = commutator_open(G).commutator
    c = C.level
    size = len(bfs_closure([g.entries for g in C.gens], c))
    for p in (p for p in range(2, c + 1)
              if c % p == 0 and all(p % q for q in range(2, p))):
        d = c // p
        image = len(bfs_closure(_reduce(C.gens, d), d))
        assert image * len(_sl2_kernel(c, d)) != size


@settings(max_examples=25, deadline=None, derandomize=True)
@given(G=open_subgroups(range(2, 13), min_gens=0))
def test_transpose_group_keeps_the_recorded_order(G):
    G.mod_level_group().order  # reading the order records it
    T = transpose_group(G)
    assert T.mod_level_group()._order == len(bfs_closure(
        [(t[0], t[2], t[1], t[3]) for t in (g.entries for g in G.gens)],
        G.level))
