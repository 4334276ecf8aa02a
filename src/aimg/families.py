"""The family-of-groups construction.

A family is built from a 4-tuple (H, G0, A, psi): H normal in G0 with
abelian quotient, A = (Z/MZ)^x, and psi = det reduced mod M.  Each
homomorphism phi: A -> G0/H cuts out the member

    H_phi = {g in G0 : gH = phi(psi(g))},

the kernel of the homomorphism chi: g -> gH * phi(det g)^(-1).

Members are built from generators: chi is evaluated on the generators of
G0 at the member level, ker chi is generated by the Schreier generators
over a transversal of im chi, and its order comes from the preimage
formula, so G0 at the member level is never enumerated.  Members are
presented at the member level and are not minimized; a consumer that needs
the least level (commutator_open) computes it.  A member's element set is
computed when it is read.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import NotAHomomorphism
from .matgroup import (
    AbelianHom,
    FiniteMatrixGroup,
    quotient_group,
    unit_group,
    _schreier,
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
    "build_member",
    "commutator_shortcut",
    "NOT_APPLICABLE",
]


# commutator_shortcut's answer when its hypothesis does not hold
NOT_APPLICABLE = None


class FamilySpec:
    """4-tuple (H, G0, A, psi) with A = (Z/MZ)^x and psi = det mod M.

    Validation happens eagerly at the common level: H must be normal in
    G0 (NotNormal) and G0/H abelian (NotAbelian).  Both checks are exact:
    H is tested against the conjugates of its generators by G0's, and
    G0/H against the commutators of G0's generators.
    """

    def __init__(self, g0: OpenSubgroup, h: OpenSubgroup, modulus: int):
        self.g0 = g0
        self.h = h
        self.modulus = modulus
        self.__post_init__()  # perfbench/tracing.py times it by this name

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        L = math.lcm(self.g0.level, self.h.level)
        self.base_level = L
        self._g0_base = self.g0.finite_image(L)
        self._h_base = self.h.finite_image(L)
        self.quotient, self._eta = quotient_group(self._g0_base, self._h_base)
        self.a_group = unit_group(self.modulus)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.g0, self.h, self.modulus, self.quotient, self.a_group) \
            == (other.g0, other.h, other.modulus, other.quotient,
                other.a_group)

    def __repr__(self):
        return (f"FamilySpec(g0={self.g0!r}, h={self.h!r}, "
                f"modulus={self.modulus!r})")

    def eta(self, elem_tuple):
        """Coset vector in G0/H of an element given mod a multiple of the
        base level."""
        return self._eta(tuple(v % self.base_level for v in elem_tuple))

    def psi_log(self, elem_tuple, modulus):
        """Exponent vector in A of det(g) mod M."""
        return self.a_group.log(tdet(elem_tuple, modulus) % self.modulus)

    @property
    def member_level(self) -> int:
        return math.lcm(self.base_level, self.modulus)

    @cached_property
    def least_base_level(self) -> int:
        """lcm of the least levels of H and G0 (base_level may be a
        multiple of it)."""
        return math.lcm(minimal_level(self.h).level,
                        minimal_level(self.g0).level)


class FamilyMember:
    """H_phi, presented at the member level Lm (``group``, whose
    mod_level_group() has its order recorded), not at its least level."""

    def __init__(self, family: FamilySpec, phi: AbelianHom,
                 group: OpenSubgroup, index_in_g0: int):
        self.family = family
        self.phi = phi
        self.group = group
        self.index_in_g0 = index_in_g0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.phi, self.group, self.index_in_g0) == \
            (other.family, other.phi, other.group, other.index_in_g0)

    def __repr__(self):
        return (f"FamilyMember(family={self.family!r}, phi={self.phi!r}, "
                f"group={self.group!r}, index_in_g0={self.index_in_g0!r})")

    @property
    def _eset(self) -> frozenset:
        """The member-level element set (closes the member)."""
        return self.group.mod_level_group().element_set


def _chi(spec: FamilySpec, phi: AbelianHom, g):
    """chi(g) = gH * phi(det g)^(-1) for g in G0 mod the member level."""
    Q = spec.quotient
    return Q.add(spec.eta(g), Q.neg(phi(spec.psi_log(g, spec.member_level))))


def build_member(spec: FamilySpec, phi: AbelianHom) -> FamilyMember:
    """H_phi = {g in G0 : gH = phi(psi(g))}, as the kernel of chi, built
    from the generators of G0 at the member level Lm = lcm(level(G0), M).

    chi is evaluated on those generators only.  A BFS over their values
    walks im chi and keeps a word t_q of chi-value q for each q in it, so
    [G0 : H_phi] = |im chi|, and the kernel is generated by the Schreier
    generators t_q g t_{q + chi(g)}^(-1).  The kernel's order is recorded,
    not counted: |G0(Lm)| / |im chi|, with G0(Lm).order the full-preimage
    formula that finite_image records.

    The member's group is presented at Lm with that order and is not
    minimized.  The element set (``_eset``) is computed when it is read.
    """
    if phi.source is not spec.a_group and \
            phi.source.invariants != spec.a_group.invariants:
        raise NotAHomomorphism("phi source is not the family's A")
    if phi.target is not spec.quotient and \
            phi.target.invariants != spec.quotient.invariants:
        raise NotAHomomorphism("phi target is not G0/H")

    Lm = spec.member_level
    big = spec.g0.finite_image(Lm)
    gens = big.generator_tuples
    Q = spec.quotient
    value = {g: _chi(spec, phi, g) for g in gens}
    trans, schreier = _schreier(gens, Lm, Q.identity,
                                lambda q, g: Q.add(q, value[g]))
    kernel = FiniteMatrixGroup(Lm, schreier, big.order // len(trans))
    return FamilyMember(family=spec, phi=phi,
                        group=OpenSubgroup.from_group(kernel),
                        index_in_g0=len(trans))


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

    G0' is the kernel of G0 -> Q/im(phi), Q = G0/H, built like a member:
    Schreier generators over a transversal of the cosets of im(phi), each
    labelled by its least element, and the order |G0| / #cosets.

    Returns a CommutatorResult, or NOT_APPLICABLE (None) when the
    hypothesis fails (caller falls back to commutator_open on the member
    group).  The returned index is relative to G0's SL2-part; callers
    comparing with a direct member computation must rescale by
    [G0' ∩ SL2 : member ∩ SL2].
    """
    if Mv <= 1 or math.gcd(Mv, spec.least_base_level) != 1:
        return NOT_APPLICABLE
    Q = spec.quotient
    image = {member.phi(v) for v in spec.a_group.elements()}
    if len(image) == Q.order:
        return commutator_open(spec.g0)
    base = spec._g0_base
    value = {g: spec.eta(g) for g in base.generator_tuples}
    trans, schreier = _schreier(
        base.generator_tuples, spec.base_level, Q.identity,
        lambda q, g: min(Q.add(Q.add(q, value[g]), i) for i in image))
    g0p = FiniteMatrixGroup(spec.base_level, schreier,
                            base.order // len(trans))
    return commutator_open(OpenSubgroup.from_group(g0p))
