"""The family-of-groups construction.

A family is built from a 4-tuple (H, G0, A, psi): H normal in G0 with
abelian quotient, A = (Z/MZ)^x, and psi = det reduced mod M.  Each
homomorphism phi: A -> G0/H cuts out the member

    H_phi = {g in G0 : gH = phi(psi(g))},

the kernel of the homomorphism chi: g -> gH * phi(det g)^(-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import NotAHomomorphism, NotEligible
from .matgroup import (
    AbelianHom,
    FiniteAbelianGroup,
    FiniteMatrixGroup,
    center,
    derived_subgroup,
    enumerate_homs,
    quotient_group,
    unit_group,
)
from .modmatrix import tdet
from .opengroup import (
    OpenSubgroup,
    commutator_open,
    minimal_level,
)

__all__ = [
    "FamilySpec",
    "FamilyMember",
    "FamilyEnumeration",
    "build_member",
    "enumerate_members",
    "check_dissolve",
    "commutator_shortcut",
    "NOT_APPLICABLE",
]


class _NotApplicable:
    """Sentinel: the prime-escape shortcut's hypothesis does not hold."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotApplicable"

    def __bool__(self):
        return False


NOT_APPLICABLE = _NotApplicable()


@dataclass
class FamilySpec:
    """4-tuple (H, G0, A, psi) with A = (Z/MZ)^x and psi = det mod M.

    Validation happens eagerly: H must be normal in G0 (NotNormal) and
    G0/H abelian (NotAbelian), both checked at the common level.
    """

    g0: OpenSubgroup
    h: OpenSubgroup
    modulus: int
    quotient: FiniteAbelianGroup = field(init=False, repr=False)
    a_group: FiniteAbelianGroup = field(init=False, repr=False)

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        L = math.lcm(self.g0.level, self.h.level)
        self.base_level = L
        self._g0_base = self.g0.finite_image(L)
        self._h_base = self.h.finite_image(L)
        self.quotient, self._eta = quotient_group(self._g0_base, self._h_base)
        self.a_group = unit_group(self.modulus)

    def eta(self, elem_tuple):
        """Coset vector in G0/H of an element given mod a multiple of the
        base level."""
        return self._eta(tuple(v % self.base_level for v in elem_tuple))

    def psi_log(self, elem_tuple, modulus):
        """Exponent vector in A of det(g) mod M."""
        d = tdet(elem_tuple, modulus) % self.modulus
        return self.a_group.log(d if self.modulus > 1 else 1 % self.modulus)

    @property
    def member_level(self) -> int:
        return math.lcm(self.base_level, self.modulus)


@dataclass
class FamilyMember:
    family: FamilySpec
    phi: AbelianHom
    group: OpenSubgroup
    dissolve_eligible: bool
    index_in_g0: int
    v_tag: Optional[Fraction] = None
    # mod member-level element set, kept for duplicate detection
    _eset: frozenset = field(default=frozenset(), repr=False)


def build_member(spec: FamilySpec, phi: AbelianHom,
                 v_tag: Optional[Fraction] = None) -> FamilyMember:
    """H_phi = {g in G0 : gH = phi(psi(g))}, as the kernel of chi.

    The member is presented at lcm(level(G0), M) and then minimized.  It
    is tagged dissolve-eligible when chi takes every value already on the
    center of G0, which forces G0 = H_phi * Z(G0) and hence
    [H_phi, H_phi] = [G0, G0].
    """
    if phi.source is not spec.a_group and \
            phi.source.invariants != spec.a_group.invariants:
        raise NotAHomomorphism("phi source is not the family's A")
    if phi.target is not spec.quotient and \
            phi.target.invariants != spec.quotient.invariants:
        raise NotAHomomorphism("phi target is not G0/H")

    Lm = spec.member_level
    big = spec.g0.finite_image(Lm)
    Q = spec.quotient

    def chi(g):
        return Q.add(spec.eta(g), Q.neg(phi(spec.psi_log(g, Lm))))

    kernel = []
    chi_all = set()
    for g in big.elements:
        c = chi(g)
        chi_all.add(c)
        if c == Q.identity:
            kernel.append(g)
    chi_center = {chi(z) for z in center(big)}
    eligible = chi_center == chi_all

    grp = FiniteMatrixGroup.from_elements(kernel, Lm)
    member_group = minimal_level(OpenSubgroup.from_group(grp))
    return FamilyMember(
        family=spec, phi=phi, group=member_group,
        dissolve_eligible=eligible,
        index_in_g0=big.order // grp.order,
        v_tag=v_tag,
        _eset=frozenset(kernel))


@dataclass
class FamilyEnumeration:
    members: list
    # index tuples of members whose groups coincide (classes of size >= 2)
    duplicate_classes: list


def enumerate_members(spec: FamilySpec) -> FamilyEnumeration:
    """One member per homomorphism phi: A -> G0/H, with duplicate groups
    reported by their phi-indices."""
    members = [build_member(spec, phi)
               for phi in enumerate_homs(spec.a_group, spec.quotient)]
    by_group = {}
    for i, m in enumerate(members):
        by_group.setdefault(m._eset, []).append(i)
    dups = sorted(tuple(v) for v in by_group.values() if len(v) > 1)
    return FamilyEnumeration(members, dups)


def check_dissolve(member: FamilyMember) -> bool:
    """Verify [H_phi, H_phi] = [G0, G0] at the member level."""
    if not member.dissolve_eligible:
        raise NotEligible("member is not dissolve-eligible")
    spec = member.family
    Lm = spec.member_level
    d_member = derived_subgroup(
        FiniteMatrixGroup.from_elements(sorted(member._eset), Lm))
    d_base = derived_subgroup(spec.g0.finite_image(Lm))
    return d_member.element_set == d_base.element_set


def commutator_shortcut(spec: FamilySpec, member: FamilyMember, Mv: int):
    """Prime-escape shortcut: if the twisting character lives entirely
    away from the base level (Mv > 1 coprime to the levels of H and G0),
    the member's commutator equals [G0', G0'] where G0' is the
    eta-preimage of the image of phi (G0' = G0 when phi is surjective
    onto G0/H).

    Mv must be the conductor of the member's phi: the smallest modulus
    through which the twisting character factors.  Passing a proper
    multiple can claim an escape through a prime the character never
    sees, where the conclusion fails (e.g. the trivial phi has conductor
    1 and its member is H itself).  Coprimality of the whole conductor
    is required, not just one escaping prime: the member is a fibered
    product over im(phi) of G0' with units away from the base level only
    when phi is trivial on the units at the base-level primes.  A mixed
    conductor breaks the conclusion: with G0 full, H the SL2(Z/3)
    preimage and phi the quadratic character of conductor 12, the member
    is the det = 1 mod 4 subgroup, whose commutator differs from
    [G0, G0] at level 4.  Cutting down to G0' is likewise forced: with a
    non-surjective phi the member only projects onto the eta-preimage of
    im(phi), and its commutator can be strictly smaller than [G0, G0].

    Returns a CommutatorResult, or NOT_APPLICABLE when the hypothesis
    fails (caller falls back to commutator_open on the member group).
    The returned index is relative to G0's SL2-part; callers comparing
    with a direct member computation must rescale by
    [G0' ∩ SL2 : member ∩ SL2].
    """
    base_level = math.lcm(minimal_level(spec.h).level,
                          minimal_level(spec.g0).level)
    if Mv <= 1 or math.gcd(Mv, base_level) != 1:
        return NOT_APPLICABLE
    Q = spec.quotient
    image = {member.phi(v) for v in spec.a_group.elements()}
    if len(image) == Q.order:
        return commutator_open(spec.g0)
    elems = [g for g in spec._g0_base.elements if spec.eta(g) in image]
    g0p = OpenSubgroup.from_group(
        FiniteMatrixGroup.from_elements(elems, spec.base_level))
    return commutator_open(g0p)
