"""Acceptance suite: ten end-to-end criteria with explicit time budgets.

Each test prints one line, ``[criterion N] PASS/FAIL in <t>s (budget <b>s)``,
visible with ``pytest -s tests/test_acceptance.py``.
"""

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

import pytest

from aimg.arithcond import (
    DEGREE4_NONTRIVIAL,
    DEGREE4_TRIVIAL,
    NOT_DEGREE4,
    quad_cyc_trivial,
    quartic_condition,
)
from aimg.classifier import THEOREM1, THEOREM2, classify, load_catalog
from aimg.errors import DegenerateQuartic
from aimg.families import (
    FamilySpec,
    NOT_APPLICABLE,
    _chi,
    build_member,
    commutator_shortcut,
)
from aimg.matgroup import (
    FiniteAbelianGroup,
    FiniteMatrixGroup,
    center,
    closure,
    derived_subgroup,
    enumerate_homs,
    unit_group,
)
from aimg.modgenus import genus
from aimg.modmatrix import ResidueMatrix, crt_combine
from aimg.opengroup import OpenSubgroup, commutator_open, full_gl2
from aimg.ratfunc import RationalMap, solve_left_factor
from aimg.surjectivity import TruncatedAdelicGroup, surjectivity_check

from oracle_helpers import (
    all_subgroups_up_to_conjugacy,
    biquadratic_factor_degrees,
    quad_in_cyclotomic,
    riemann_hurwitz_genus,
    sl2_elements,
    squarefree_kernel,
)
from test_families import conductor_of, member_kernel_oracle, random_specs
from test_matgroup import hom_count_oracle


@contextmanager
def criterion(number, budget):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        dt = time.monotonic() - t0
        print(f"[criterion {number}] {status} in {dt:.2f}s "
              f"(budget {budget}s)", file=sys.stderr)
        sys.stderr.flush()
        if status == "PASS":
            assert dt < budget, f"criterion {number} exceeded {budget}s"


def RM(t, n):
    return ResidueMatrix.from_tuple(t, n)


def test_criterion_1_commutator_of_full_group():
    """[G, G] for G = GL2(Zhat) has index exactly 2 in SL2(Zhat)."""
    with criterion(1, 10):
        res = commutator_open(OpenSubgroup.full())
        assert res.index_in_sl == 2
        assert res.det_full


def test_criterion_2_solve_left_factor():
    """J with J(t^2) = t^2 + 1728 is t + 1728, well under a millisecond."""
    pi = RationalMap.from_coeffs((1728, 0, 1), (1,))
    u = RationalMap.from_coeffs((0, 0, 1), (1,))
    want = RationalMap.from_coeffs((1728, 1), (1,))
    solve_left_factor(pi, u)  # warm caches before timing
    with criterion(2, 0.001):
        assert solve_left_factor(pi, u) == want


def test_criterion_3_genus_oracle_sweep():
    """Genus agrees with a Riemann-Hurwitz permutation-cycle oracle on
    every subgroup of SL2(Z/N) up to conjugacy, N = 2..8."""
    with criterion(3, 300):
        total = 0
        for N in range(2, 9):
            for sub in all_subgroups_up_to_conjugacy(sl2_elements(N), N):
                G = OpenSubgroup.from_group(
                    FiniteMatrixGroup.from_elements(sorted(sub), N))
                assert genus(G).genus == riemann_hurwitz_genus(sub, N), \
                    (N, sorted(sub))
                total += 1
        assert total >= 200
        # the two classical anchors
        for N, g in ((5, 0), (7, 3)):
            pm_gamma = OpenSubgroup(N, (RM((N - 1, 0, 0, N - 1), N),))
            assert genus(pm_gamma).genus == g


def test_criterion_4_family_laws_randomized():
    """Kernel law, subgroup property and dissolve on >= 50 random specs."""
    with criterion(4, 120):
        rng = random.Random(2024)
        checked = dissolved = 0
        for spec in random_specs(rng, 50):
            Lm = spec.member_level
            big = spec.g0.finite_image(Lm)
            for phi in enumerate_homs(spec.a_group, spec.quotient)[:2]:
                m = build_member(spec, phi)
                # membership really is a subgroup of G0 at the member level
                assert m._eset <= set(big.elements)
                sub = FiniteMatrixGroup.from_elements(sorted(m._eset), Lm)
                assert big.order % sub.order == 0
                # kernel law against independent coset arithmetic
                assert m._eset == member_kernel_oracle(spec, phi)
                # dissolve: chi takes every value already on the center of
                # G0, so G0 = H_phi Z(G0) and [H_phi, H_phi] = [G0, G0]
                if len({_chi(spec, phi, z) for z in center(big)}) == \
                        m.index_in_g0:
                    assert derived_subgroup(sub).element_set == \
                        derived_subgroup(big).element_set
                    dissolved += 1
            checked += 1
        assert checked >= 50 and dissolved >= 10


def _configs_c5():
    """(G0, H, Mv) specs whose nontrivial twists escape the base level."""
    full = OpenSubgroup.full()
    h2 = OpenSubgroup(2, (RM((0, 1, 1, 1), 2),))           # A3 preimage
    h3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((0, 2, 1, 0), 3)))
    sl4 = OpenSubgroup(4, (RM((1, 1, 0, 1), 4), RM((0, 3, 1, 0), 4),
                           RM((2, 1, 1, 1), 4)))
    borel2 = OpenSubgroup(2, (RM((1, 1, 0, 1), 2),))
    triv2 = OpenSubgroup(2, ())
    borel3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((2, 0, 0, 1), 3),
                              RM((1, 0, 0, 2), 3)))
    unip3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3),))
    a1_3 = OpenSubgroup(3, (RM((1, 1, 0, 1), 3), RM((1, 0, 0, 2), 3)))
    diag3 = OpenSubgroup(3, (RM((2, 0, 0, 1), 3), RM((1, 0, 0, 2), 3)))
    return (
        (full, h2, 3), (full, h2, 9), (full, h2, 12), (full, h2, 5),
        (full, h3, 4), (full, h3, 8), (full, h3, 12),
        (full, sl4, 3),
        (borel2, triv2, 3), (borel2, triv2, 9),
        (borel3, unip3, 4),
        (borel3, a1_3, 4), (borel3, a1_3, 8),
        (diag3, OpenSubgroup(3, ()), 4),
    )


def test_criterion_5_prime_escape_shortcut():
    """On >= 20 members whose twisting character's conductor escapes the
    base level, the shortcut commutator equals the directly computed one."""
    with criterion(5, 120):
        members = 0
        for g0, h, Mv in _configs_c5():
            spec = FamilySpec(g0, h, Mv)
            base_level = math.lcm(g0.level, h.level)
            for phi in enumerate_homs(spec.a_group, spec.quotient):
                cond = conductor_of(phi, Mv)
                if cond <= 1 or math.gcd(cond, base_level) != 1:
                    continue
                m = build_member(spec, phi)
                sc = commutator_shortcut(spec, m, cond)
                assert sc is not NOT_APPLICABLE
                direct = commutator_open(m.group)
                L = math.lcm(sc.commutator.level, direct.commutator.level)
                assert sc.commutator.finite_image(L).element_set == \
                    direct.commutator.finite_image(L).element_set
                members += 1
        assert members >= 20, members


def test_criterion_6_quad_cyc_oracle():
    """quad_cyc_trivial against cyclotomic-subfield enumeration for all
    squarefree |d| <= 200 and M in {2, 3, 5, 15}."""
    with criterion(6, 30):
        ds = [d for d in range(-200, 201)
              if d not in (0, 1) and squarefree_kernel(d) == d]
        failures_m2 = []
        for M in (2, 3, 5, 15):
            for d in ds:
                contained = any(quad_in_cyclotomic(d, M ** k)
                                for k in range(1, 11))
                assert quad_cyc_trivial(d, M) == (not contained), (d, M)
                if M == 2 and contained:
                    failures_m2.append(d)
        assert sorted(failures_m2) == [-2, -1, 2]


def test_criterion_7_quartic_condition():
    """quartic_condition against brute-force factorization, |p|,|q| <= 50."""
    with criterion(7, 60):
        for p in range(-50, 51):
            for q in range(-50, 51):
                if q == 0 or p * p == 4 * q:
                    with pytest.raises(DegenerateQuartic):
                        quartic_condition(p, q)
                    continue
                irreducible = biquadratic_factor_degrees(p, q) == [4]
                got = quartic_condition(p, q)
                if irreducible:
                    assert got in (DEGREE4_TRIVIAL, DEGREE4_NONTRIVIAL)
                else:
                    assert got == NOT_DEGREE4, (p, q)
        # x^4 - 3x^2 + 1 = (x^2 - x - 1)(x^2 + x - 1)
        assert quartic_condition(-3, 1) == NOT_DEGREE4


def test_criterion_8_hom_enumeration_counts():
    """|enumerate_homs| matches a generator-image brute force for unit
    groups (Z/M)^x, M <= 24, into cyclic C_n, n <= 6."""
    with criterion(8, 10):
        for M in range(1, 25):
            A = unit_group(M)
            for n in range(1, 7):
                Q = FiniteAbelianGroup.from_invariants((n,) if n > 1 else ())
                assert len(enumerate_homs(A, Q)) == hom_count_oracle(M, n), \
                    (M, n)


def test_criterion_9_surjectivity_truncation():
    """Truncated surjectivity (mod-4 M-part, extra prime 5) agrees with
    direct group equality over >= 500 random generator trials, and the
    index-2-above-commutator fiber fails the abelian-quotient stage."""
    with criterion(9, 300):
        m_part = FiniteMatrixGroup(4, [RM(t, 4) for t in
                                       ((1, 1, 0, 1), (3, 0, 0, 1),
                                        (1, 0, 0, 3))])
        G = TruncatedAdelicGroup.with_full_primes(m_part, (5,))
        rng = random.Random(71)
        belems = m_part.elements
        felems = full_gl2(5).elements
        bgens = [g.entries for g in m_part.generators]
        fgens = [(1, 1, 0, 1), (0, 4, 1, 0), (2, 0, 0, 1)]
        surjective_seen = 0
        for trial in range(500):
            gens = []
            if trial % 5 == 0:
                # seed with factorwise generators so surjective sets occur
                for t in bgens:
                    gens.append(crt_combine(
                        RM(t, 4), RM(rng.choice(felems), 5)))
                for t in fgens:
                    gens.append(crt_combine(
                        RM(rng.choice(belems), 4), RM(t, 5)))
            for _ in range(rng.randrange(1, 4)):
                gens.append(crt_combine(RM(rng.choice(belems), 4),
                                        RM(rng.choice(felems), 5)))
            verdict = surjectivity_check(G, gens)
            full = closure(gens).order == G.order
            assert (verdict.kind == "Surjective") == full, (trial, verdict)
            surjective_seen += verdict.kind == "Surjective"
        assert surjective_seen >= 20

        # index-2 subgroup above the commutator: couple det signs mod 4
        # (det = 1) and mod 5 (det a square)
        m4, g5 = full_gl2(4), full_gl2(5)
        G2 = TruncatedAdelicGroup(m4, (g5,))

        def sign4(t):
            return (t[0] * t[3] - t[1] * t[2]) % 4 == 1

        def sign5(t):
            return pow((t[0] * t[3] - t[1] * t[2]) % 5, 2, 5) == 1

        sq5 = next(t for t in g5.elements
                   if sign5(t) and t != (1, 0, 0, 1))
        nsq5 = next(t for t in g5.elements if not sign5(t))
        pos4 = next(t for t in m4.elements
                    if sign4(t) and t != (1, 0, 0, 1))
        neg4 = next(t for t in m4.elements if not sign4(t))
        gens = [crt_combine(g, RM(sq5 if sign4(g.entries) else nsq5, 5))
                for g in m4.generators]
        gens += [crt_combine(RM(pos4 if sign5(g.entries) else neg4, 4), g)
                 for g in g5.generators]
        verdict = surjectivity_check(G2, gens)
        assert verdict.kind == "FailsAbelianQuotient"


def test_criterion_10_end_to_end_sample_catalog():
    """Classifying the shipped sample catalog puts the generic twist in
    the open-image bucket and the v = -1 twist in the index-2 bucket."""
    with criterion(10, 60):
        ref = resources.files("aimg").joinpath("data/sample_catalog.json")
        report = classify(load_catalog(json.loads(ref.read_text())))
        assert not report.had_violations
        assert report.bucket_of("2A-2A", 5) == THEOREM1
        assert report.bucket_of("2A-2A", -1) == THEOREM2
        assert report.bucket_of("1A-1A") == THEOREM2
