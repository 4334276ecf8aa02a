"""Family-of-groups construction: kernel law, dissolve, enumeration and
the prime-escape shortcut, checked against first-principles oracles."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from aimg.errors import NotAbelian, NotAHomomorphism, NotEligible, NotNormal
from aimg.families import (
    FamilySpec,
    NOT_APPLICABLE,
    build_member,
    check_dissolve,
    commutator_shortcut,
    enumerate_members,
)
from aimg.matgroup import (
    AbelianHom,
    FiniteAbelianGroup,
    FiniteMatrixGroup,
    closure,
    derived_subgroup,
    enumerate_homs,
    unit_group,
)
from aimg.modmatrix import ResidueMatrix
from aimg.opengroup import OpenSubgroup, commutator_open

from oracle_helpers import (
    bfs_closure,
    gl2_elements,
    mat_inv,
    mat_mul,
    preimage,
)


def RM(t, n):
    return ResidueMatrix.from_tuple(t, n)


H_AT_2 = OpenSubgroup(2, (RM((0, 1, 1, 1), 2),))          # A3 preimage
H_AT_3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((0, 2, 1, 0), 3)))  # SL2


def inv_tuple(x, n):
    ident = (1 % n, 0, 0, 1 % n)
    y = x
    while mat_mul(y, x, n) != ident:
        y = mat_mul(y, x, n)
    return y


def concrete_of_vector(group, vec, mul, ident):
    """Concrete carrier element of an invariant vector, from the stored
    basis labels only."""
    out = ident
    for k, b in zip(vec, group.basis):
        for _ in range(k):
            out = mul(out, b)
    return out


def phi_value_coset(spec, phi, det_value, Lm):
    """H-coset (as an element frozenset mod the base level) named by
    phi(psi(det)), recomputed with independent arithmetic."""
    M = spec.modulus
    A = spec.a_group
    d = det_value % M if M > 1 else 1 % M
    vec = A.log(d)
    qvec = phi(vec)
    # concrete quotient representative of qvec
    L = spec.base_level
    rep = concrete_of_vector(
        spec.quotient, qvec,
        lambda x, y: _coset_rep(spec, mat_mul(x, y, L)),
        _coset_rep(spec, (1 % L, 0, 0, 1 % L)))
    hset = spec.h.finite_image(L).element_set
    return frozenset(mat_mul(rep, h, L) for h in hset)


def _coset_rep(spec, x):
    """Least element of xH at the base level (independent coset labeling)."""
    L = spec.base_level
    hset = spec.h.finite_image(L).element_set
    return min(mat_mul(x, h, L) for h in hset)


def member_kernel_oracle(spec, phi):
    """The kernel set {g : gH = phi(psi(g))} mod the member level,
    recomputed with oracle arithmetic."""
    Lm = spec.member_level
    L = spec.base_level
    hset = spec.h.finite_image(L).element_set
    out = set()
    for g in spec.g0.finite_image(Lm).elements:
        gl = tuple(v % L for v in g)
        gcoset = frozenset(mat_mul(gl, h, L) for h in hset)
        det = (g[0] * g[3] - g[1] * g[2]) % Lm
        if gcoset == phi_value_coset(spec, phi, det, Lm):
            out.add(g)
    return out


def random_specs(rng, count):
    """Small randomized family specs with |G0| at the member level
    bounded by 10^4."""
    out = []
    while len(out) < count:
        N = rng.choice((2, 3, 4))
        pool = [t for t in
                [(tuple(rng.randrange(N) for _ in range(4))) for _ in range(30)]
                if math.gcd((t[0] * t[3] - t[1] * t[2]) % N, N) == 1]
        if not pool:
            continue
        gens = [RM(t, N) for t in rng.sample(pool, min(2, len(pool)))]
        g0_fin = closure(gens)
        der = derived_subgroup(g0_fin)
        extra = rng.sample(g0_fin.elements, min(2, g0_fin.order))
        h_fin = closure(list(der.generators) + [RM(t, N) for t in extra])
        M = rng.choice((1, 2, 3, 4, 6))
        g0 = OpenSubgroup.from_group(g0_fin)
        h = OpenSubgroup.from_group(h_fin)
        try:
            spec = FamilySpec(g0, h, M)
        except (NotNormal, NotAbelian):
            continue
        if spec.g0.finite_image(spec.member_level).order > 10000:
            continue
        out.append(spec)
    return out


def test_member_kernel_law_randomized():
    rng = random.Random(23)
    checked = 0
    for spec in random_specs(rng, 25):
        homs = enumerate_homs(spec.a_group, spec.quotient)
        for phi in homs[:3]:
            m = build_member(spec, phi)
            Lm = spec.member_level
            eset = m._eset
            # subgroup test by brute force
            sample = sorted(eset)[:40]
            for a in sample:
                assert inv_tuple(a, Lm) in eset
                for b in sample[:10]:
                    assert mat_mul(a, b, Lm) in eset
            # kernel law against the oracle
            assert eset == member_kernel_oracle(spec, phi)
            big = spec.g0.finite_image(Lm)
            assert m.index_in_g0 == big.order // len(eset)
            checked += 1
    assert checked >= 25


def test_mod2_borel_conductor8_members_match_brute_force():
    # member level 8 over a level-2 base: the level where the first
    # kernel layer alone generates only half of G0's preimage
    spec = FamilySpec(OpenSubgroup(2, (RM((1, 1, 0, 1), 2),)),
                      OpenSubgroup(2, ()), 8)
    L, base, M = spec.member_level, spec.base_level, spec.modulus
    g0 = preimage([(1, 1, 0, 1)], 2, L)
    assert len(g0) == 512
    hset = preimage([], 2, base)

    def label(x):
        return min(mat_mul(x, h, base) for h in hset)

    A, Q = spec.a_group, spec.quotient
    homs = enumerate_homs(A, Q)
    assert len(homs) == 4
    for phi in homs:
        # chi(u) as a coset label, from the basis labels of A and G0/H
        chi = {}
        for vec in A.elements():
            u = math.prod(pow(b, k, M) for b, k in zip(A.basis, vec)) % M
            rep = (1 % base, 0, 0, 1 % base)
            for b, k in zip(Q.basis, phi(vec)):
                for _ in range(k):
                    rep = mat_mul(rep, b, base)
            chi[u] = label(rep)
        assert sorted(chi) == [1, 3, 5, 7]
        want = {g for g in g0
                if label(tuple(v % base for v in g))
                == chi[(g[0] * g[3] - g[1] * g[2]) % M]}
        member = build_member(spec, phi)
        assert member._eset == want
        assert member.index_in_g0 == len(g0) // len(want)


def _brute_member_kernel(spec, phi, g0_elems, h_gens, base):
    """{g in G0(Lm) : gH = phi(det g)}, with cosets labeled by their least
    element over the brute-force H at the base level and phi read through
    the basis labels of A and G0/H."""
    M = spec.modulus
    hset = bfs_closure(h_gens, base)

    def label(x):
        return min(mat_mul(x, h, base) for h in hset)

    A, Q = spec.a_group, spec.quotient
    chi = {}
    for vec in A.elements():
        u = math.prod(pow(b, k, M) for b, k in zip(A.basis, vec)) % M
        rep = (1 % base, 0, 0, 1 % base)
        for b, k in zip(Q.basis, phi(vec)):
            for _ in range(k):
                rep = mat_mul(rep, b, base)
        chi[u] = label(rep)
    return {g for g in g0_elems
            if label(tuple(v % base for v in g))
            == chi[(g[0] * g[3] - g[1] * g[2]) % M]}


@st.composite
def small_family_specs(draw):
    """(spec, G0 generators, G0 level, H generators, base level): M, then
    N <= 4 with lcm(N, M) <= 12, G0 at level 1 or N, and H generated by
    [G0, G0] and up to two more elements of G0 at level N."""
    M = draw(st.sampled_from((1, 2, 3, 4, 5, 8)))
    N = draw(st.sampled_from([N for N in (1, 2, 3, 4)
                              if math.lcm(N, M) <= 12]))
    m0 = draw(st.sampled_from((1, N)))
    g0_gens = []
    if m0 > 1:
        g0_gens = draw(st.lists(st.sampled_from(gl2_elements(N)),
                                min_size=1, max_size=3))
    g0_elems = sorted(preimage(g0_gens, m0, N))
    comms = {mat_mul(mat_mul(a, b, N), mat_mul(mat_inv(a, N), mat_inv(b, N),
                                               N), N)
             for a in g0_elems for b in g0_elems}
    extra = draw(st.lists(st.sampled_from(g0_elems), max_size=2))
    h_gens, span = [], {(1 % N, 0, 0, 1 % N)}
    for x in sorted(comms) + extra:
        if x not in span:
            h_gens.append(x)
            span = bfs_closure(h_gens, N)

    def group(level, gens):
        if level == 1:
            return OpenSubgroup.full()
        return OpenSubgroup(level, tuple(RM(t, level) for t in gens))

    spec = FamilySpec(group(m0, g0_gens), group(N, h_gens), M)
    return spec, g0_gens, m0, h_gens, N


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=small_family_specs(), data=st.data())
def test_member_matches_brute_force_kernel(case, data):
    spec, g0_gens, m0, h_gens, base = case
    phi = data.draw(st.sampled_from(enumerate_homs(spec.a_group,
                                                   spec.quotient)))
    Lm = spec.member_level
    g0 = preimage(g0_gens, m0, Lm)
    want = _brute_member_kernel(spec, phi, g0, h_gens, base)
    member = build_member(spec, phi)
    assert member._eset == want
    assert member.index_in_g0 == len(g0) // len(want)
    assert member.kernel._order == len(member.kernel.elements)
    grp = member.group
    assert preimage([g.entries for g in grp.gens], grp.level, Lm) == want


def test_dissolve_eligible_members_dissolve():
    rng = random.Random(29)
    eligible = 0
    for spec in random_specs(rng, 20):
        for phi in enumerate_homs(spec.a_group, spec.quotient):
            m = build_member(spec, phi)
            if not m.dissolve_eligible:
                with pytest.raises(NotEligible):
                    check_dissolve(m)
                continue
            eligible += 1
            assert check_dissolve(m)
            # oracle: commutator closures agree at the member level
            Lm = spec.member_level
            ms = sorted(m._eset)
            g0s = spec.g0.finite_image(Lm).elements
            def comm_closure(elems):
                gens = set()
                rng2 = random.Random(1)
                for _ in range(400):
                    a, b = rng2.choice(elems), rng2.choice(elems)
                    gens.add(mat_mul(
                        mat_mul(a, b, Lm),
                        mat_mul(inv_tuple(a, Lm), inv_tuple(b, Lm), Lm), Lm))
                return bfs_closure(gens, Lm)
            c1, c2 = comm_closure(ms), comm_closure(list(g0s))
            if len(c1) == len(derived_subgroup(
                    FiniteMatrixGroup.from_elements(ms, Lm)).elements):
                assert c1 == c2
    assert eligible >= 5


def test_gl2f3_style_family():
    # G0 full, H the SL2(Z/3) preimage, M = 3: the trivial phi cuts out H
    # itself (index 2) and the det-induced isomorphism cuts out G0
    spec = FamilySpec(OpenSubgroup.full(), H_AT_3, 3)
    assert spec.quotient.invariants == (2,)
    homs = enumerate_homs(spec.a_group, spec.quotient)
    assert len(homs) == 2
    by_idx = {}
    for phi in homs:
        m = build_member(spec, phi)
        by_idx[m.index_in_g0] = (phi, m)
    assert set(by_idx) == {1, 2}
    assert by_idx[2][0].is_trivial()


def test_enumerate_members_duplicates():
    # G0 with trivial det image mod M: every phi cuts out the same member
    det1_mod5 = OpenSubgroup(5, tuple(
        RM(t, 5) for t in ((1, 1, 0, 1), (0, 4, 1, 0))))  # SL2(Z/5) preimage
    g0 = det1_mod5
    L = 10
    h_fin = FiniteMatrixGroup.from_elements(
        [t for t in g0.finite_image(L).elements
         if tuple(v % 2 for v in t) in
         {(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)}], L)
    h = OpenSubgroup.from_group(h_fin)
    spec = FamilySpec(g0, h, 5)
    assert spec.quotient.invariants == (2,)
    assert spec.a_group.invariants == (4,)
    enum = enumerate_members(spec)
    assert len(enum.members) == 2
    assert enum.duplicate_classes == [(0, 1)]


def test_build_member_rejects_foreign_phi():
    spec = FamilySpec(OpenSubgroup.full(), H_AT_2, 3)
    bad_source = FiniteAbelianGroup.from_invariants((4,))
    phi = AbelianHom(bad_source, spec.quotient, ((1,),))
    with pytest.raises(NotAHomomorphism):
        build_member(spec, phi)


def test_spec_validation_errors():
    borel3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((2, 0, 0, 1), 3)))
    with pytest.raises(NotNormal):
        FamilySpec(OpenSubgroup.full(), borel3, 2)
    kernel3 = OpenSubgroup(3, ())
    with pytest.raises(NotAbelian):
        FamilySpec(OpenSubgroup.full(), kernel3, 2)


def conductor_of(phi, M):
    """Smallest divisor M' of M such that phi factors through (Z/M')^x."""
    A = unit_group(M)
    units = [u for u in range(1, max(M, 2)) if math.gcd(u, M) == 1] or [1]
    for Mp in sorted(d for d in range(1, M + 1) if M % d == 0):
        if all(phi(A.log(u)) == phi(A.log(w))
               for u in units for w in units if (u - w) % Mp == 0):
            return Mp
    return M


def test_commutator_shortcut_agrees_with_direct():
    cases = [(H_AT_2, 3), (H_AT_2, 9), (H_AT_3, 4)]
    verified = 0
    for h, Mv in cases:
        spec = FamilySpec(OpenSubgroup.full(), h, Mv)
        for phi in enumerate_homs(spec.a_group, spec.quotient):
            cond = conductor_of(phi, Mv)
            m = build_member(spec, phi)
            sc = commutator_shortcut(spec, m, cond)
            escapes = cond > 1 and math.gcd(cond, h.level) == 1
            if not escapes:
                assert sc is NOT_APPLICABLE
                continue
            direct = commutator_open(m.group)
            L = math.lcm(sc.commutator.level, direct.commutator.level)
            assert sc.commutator.finite_image(L).element_set == \
                direct.commutator.finite_image(L).element_set
            verified += 1
    assert verified >= 3


def test_shortcut_not_applicable_when_primes_covered():
    spec = FamilySpec(OpenSubgroup.full(), H_AT_2, 4)
    phi = enumerate_homs(spec.a_group, spec.quotient)[-1]
    m = build_member(spec, phi)
    assert commutator_shortcut(spec, m, 4) is NOT_APPLICABLE


def test_shortcut_not_applicable_for_mixed_conductor():
    # conductor 12 = 3 * 4 with H of level 3: the character's 3-part sees
    # the base level, so the fibered-product argument (and in fact the
    # conclusion) fails; the member here is the det = 1 mod 4 subgroup
    spec = FamilySpec(OpenSubgroup.full(), H_AT_3, 12)
    for phi in enumerate_homs(spec.a_group, spec.quotient):
        if conductor_of(phi, 12) != 12:
            continue
        m = build_member(spec, phi)
        assert commutator_shortcut(spec, m, 12) is NOT_APPLICABLE
        direct = commutator_open(m.group)
        base = commutator_open(spec.g0)
        L = math.lcm(direct.commutator.level, base.commutator.level)
        assert direct.commutator.finite_image(L).element_set != \
            base.commutator.finite_image(L).element_set
