"""Open subgroups of GL2(Zhat): finite images, levels, commutators."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from aimg.errors import ResourceExceeded, SchemaError
from aimg.matgroup import FiniteMatrixGroup, closure
from aimg.modgenus import genus
from aimg.modmatrix import ResidueMatrix, crt_combine
from aimg.opengroup import (
    OpenSubgroup,
    _unit_gens,
    commutator_index_class,
    commutator_open,
    det_image,
    full_gl2,
    gl2_order,
    intersect_sl2,
    minimal_level,
    sl2_order,
    sl_count,
    transpose_group,
)

from oracle_helpers import bfs_closure, gl2_elements, mat_mul, preimage


def RM(t, n):
    return ResidueMatrix.from_tuple(t, n)


A3_PREIMAGE = OpenSubgroup(2, (RM((0, 1, 1, 1), 2),))


def test_full_group_images():
    G = OpenSubgroup.full()
    for L in (1, 2, 3, 4, 5, 6, 8):
        assert G.finite_image(L).order == gl2_order(L)
    assert G.index_in_gl2() == 1
    assert G.contains_minus_i()


def test_full_gl2_closes_to_its_recorded_order():
    # full_gl2 records |GL2(Z/n)| instead of closing the group; closing an
    # uncached copy checks that record (materializing asserts it too)
    for n in range(1, 31):
        g = full_gl2.__wrapped__(n)
        assert len(g.elements) == gl2_order(n)


def test_unit_gens_span_the_units():
    # the determinant half of full_gl2's generation argument
    for n in range(1, 1001):
        gens = _unit_gens(n)
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
    assert commutator_index_class(OpenSubgroup.full()).kind == "index_two"
    full_sl_pre = OpenSubgroup(2, tuple(
        RM(t, 2) for t in ((1, 1, 0, 1), (0, 1, 1, 0))))
    # preimage of full GL2(Z/2) is the full group again
    assert commutator_index_class(full_sl_pre).kind == "index_two"


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
