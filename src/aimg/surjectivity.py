"""Simple-quotient analysis and the finite-truncation surjectivity
criterion.

Quo(G), the nonabelian simple quotients that decide whether two factors
can be glued (Goursat), is read off the images of G mod each prime of its
modulus by Dickson's classification, without enumerating normal
subgroups.

A closed subgroup H of G = G_M x prod GL2(Z_l) equals G exactly when the
projections of H onto every factor are onto and H still surjects onto
G/[G,G]; here both conditions are checked at a finite truncation.
"""

from __future__ import annotations

import math

from .errors import NotASubgroup, ResourceExceeded
from .matgroup import (
    FiniteMatrixGroup,
    _Closure,
    _prime_factors,
    derived_subgroup,
    gl2_order,
    quotient_group,
    unit_group,
)
from .modmatrix import tdet
from .opengroup import full_gl2

__all__ = [
    "TruncatedAdelicGroup",
    "SurjectivityVerdict",
    "quo_simple_quotients",
    "quo_disjointness",
    "surjectivity_check",
]


def quo_simple_quotients(G: FiniteMatrixGroup) -> set:
    """Quo(G): isomorphism tags ("PSL2", p) of the nonabelian simple
    quotients of P, the perfect core of G (the stable term of its derived
    series).  Every nonabelian simple quotient G/N of G is one of them, as
    P/(P ∩ N): P maps onto the perfect core of G/N, which is G/N.

    Quo(G) is read off the images G_p of G mod the primes p | n, n the
    modulus, by Dickson's classification (Serre 1972, §2):

    (1) P -> P mod rad(n) has a nilpotent kernel (it lies in the kernel
    K(rad n) of GL2(Z/n), a product of p-groups), and a nonabelian simple
    group has no nontrivial nilpotent normal subgroup, so every such
    quotient of P factors through P mod rad(n).  That group is the
    perfect core of G mod rad(n), a subdirect product of the perfect
    cores P_p of the G_p.
    (2) A nonabelian simple quotient Q/N of a subdirect product
    Q <= A x B is a quotient of A or of B: Q ∩ (A x 1) and Q ∩ (1 x B)
    are normal in Q and commute, so if neither lay in N both would map
    onto Q/N, which would then be abelian.  By induction on the number
    of primes, Quo(G) is the union of the Quo(P_p).
    (3) P_p is perfect, so it lies in SL2(F_p), and by Dickson it is the
    trivial group, SL2(F_p) with p >= 5 (order p(p^2 - 1), one such
    quotient PSL2(F_p)), or 2.A5 (order 120, one such quotient
    A5 ≅ PSL2(F_5)).

    So each P_p is tagged by its order.  Its derived series starts at
    [G_p, G_p], so G_p itself is never closed.
    """
    out = set()
    for p in _prime_factors(G.modulus):
        P = derived_subgroup(FiniteMatrixGroup(p, G.generator_tuples))
        while (D := derived_subgroup(P)).order < P.order:
            P = D
        if P.order > 1:
            assert P.order in (120, p * (p * p - 1)), (p, P.order)
            out.add(("PSL2", 5 if P.order == 120 else p))
    return out


def quo_disjointness(A: FiniteMatrixGroup, B: FiniteMatrixGroup) -> bool:
    """Whether Quo(A) and Quo(B) share no isomorphism class."""
    return not (quo_simple_quotients(A) & quo_simple_quotients(B))


class TruncatedAdelicGroup:
    """Finite truncation of G_M x prod_{l not dividing M} GL2(Z_l).

    ``m_part`` lives at modulus M (M = 1 encodes no M-part); each entry of
    ``prime_parts``, a tuple of FiniteMatrixGroup, lives at a power of a
    prime not dividing M, and their moduli are pairwise coprime.
    """

    def __init__(self, m_part: FiniteMatrixGroup, prime_parts):
        prime_parts = tuple(prime_parts)
        m = m_part.modulus
        seen = set(_prime_factors(m)) if m > 1 else set()
        for part in prime_parts:
            ps = _prime_factors(part.modulus)
            if len(ps) != 1:
                raise ValueError("each prime part must live at a prime power")
            (p,) = ps
            if p in seen:
                raise ValueError(f"prime {p} appears in two factors")
            seen.add(p)
        object.__setattr__(self, "m_part", m_part)
        object.__setattr__(self, "prime_parts", prime_parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m_part, self.prime_parts) == \
            (other.m_part, other.prime_parts)

    def __hash__(self):
        return hash((self.m_part, self.prime_parts))

    def __repr__(self):
        return (f"TruncatedAdelicGroup(m_part={self.m_part!r}, "
                f"prime_parts={self.prime_parts!r})")

    @classmethod
    def with_full_primes(cls, m_part: FiniteMatrixGroup, primes
                         ) -> "TruncatedAdelicGroup":
        return cls(m_part, tuple(full_gl2(p) for p in primes))

    @property
    def factors(self):
        out = []
        if self.m_part.modulus > 1:
            out.append(("M", self.m_part))
        for part in self.prime_parts:
            (p,) = _prime_factors(part.modulus)
            out.append((p, part))
        return out

    @property
    def modulus(self) -> int:
        return math.prod(f.modulus for _, f in self.factors) or 1

    @property
    def order(self) -> int:
        return math.prod(f.order for _, f in self.factors) or 1


class SurjectivityVerdict:
    """``kind`` is "Surjective", "FailsProjection" or
    "FailsAbelianQuotient"; ``factor`` is "M" or the prime whose
    projection fails."""

    def __init__(self, kind: str, factor=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "factor", factor)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.factor) == (other.kind, other.factor)

    def __hash__(self):
        return hash((self.kind, self.factor))

    def __repr__(self):
        if self.kind == "FailsProjection":
            return f"FailsProjection({self.factor})"
        return self.kind


def _lattice_index(rows, r) -> int:
    """[Z^r : L] for the lattice L spanned by the integer vectors ``rows``
    of length r, which must have rank r: the product of the pivots of its
    Hermite form.  Each column is cleared below its pivot by Euclid's
    algorithm on the rows, by integer row operations, which keep L."""
    rows = [list(v) for v in rows]
    index = 1
    for j in range(r):
        while True:
            live = [v for v in rows if v[j]]
            pivot = min(live, key=lambda v: abs(v[j]))
            if len(live) == 1:
                break
            for v in live:
                if v is not pivot:
                    k = v[j] // pivot[j]
                    v[j:] = [a - k * b for a, b in zip(v[j:], pivot[j:])]
        index *= abs(pivot[j])
        rows = [v for v in rows if v is not pivot]
    return index


def surjectivity_check(G: TruncatedAdelicGroup, h_gens) -> SurjectivityVerdict:
    """Decide H = G at the truncation from generators of H.

    H generators are matrices at the combined modulus; an empty list is
    the trivial group.  The check mirrors the criterion: every factor
    projection must be onto, and H must cover the abelianization G/[G,G].
    That is computed factorwise, since the derived subgroup of a product
    is the product of the derived subgroups.

    Write prod_i F_i/[F_i, F_i] as prod_j Z/d_j and let eta(h) in Z^r be
    the coordinates of h.  H covers it exactly when the lattice spanned by
    the eta(h) of H's generators and the d_j e_j is all of Z^r, that is
    when its index, the product of the pivots of its Hermite form, is 1.

    A full GL2(Z/l^k) factor F with l odd goes through det: [F, F] =
    SL2(Z/l^k) for odd l (the lemma in commutator_open), so F/[F, F] =
    (Z/l^k)^x through det, and eta is the unit log of det.  The M-part,
    factors at l = 2 ([F, F] has index 2 in SL2 there) and proper
    subgroups go through derived_subgroup and quotient_group.
    """
    N = G.modulus
    for h in h_gens:
        if h.modulus != N:
            raise NotASubgroup(
                f"generator modulus {h.modulus} != truncation modulus {N}")

    # factor projections; a factor recorded as all of GL2(Z/m) (full_gl2
    # records its order) holds exactly the invertible matrices, so it is
    # never materialized, and any other factor is materialized before its
    # order is read, as counting it would cost more at small moduli
    for name, fac in G.factors:
        m = fac.modulus
        proj = [h.reduce_mod(m) for h in h_gens]
        full = fac._order == gl2_order(m)
        for g in proj:
            if (math.gcd(tdet(g.entries, m), m) != 1 if full
                    else g.entries not in fac.element_set):
                raise NotASubgroup(
                    f"generator {g} lies outside the {name}-factor")
        # a proper subgroup has at most half the factor's elements, so a
        # closure capped there decides "onto" without closing the factor
        if fac.order > 1:
            try:
                _Closure(m, proj, fac.order // 2)
            except ResourceExceeded:
                continue
            return SurjectivityVerdict("FailsProjection", name)

    # abelian quotient, factor by factor
    invariants, etas = [], []
    for name, fac in G.factors:
        m = fac.modulus
        if name != "M" and name % 2 and fac.order == gl2_order(m):
            Q = unit_group(m)
            eta = lambda x, m=m, Q=Q: Q.log(tdet(x, m))
        else:
            Q, eta = quotient_group(fac, derived_subgroup(fac))
        invariants += Q.invariants
        etas.append((m, eta))
    rows = [[a for m, eta in etas for a in eta(h.reduce_mod(m).entries)]
            for h in h_gens]
    rows += [[d if i == j else 0 for i in range(len(invariants))]
             for j, d in enumerate(invariants)]
    if _lattice_index(rows, len(invariants)) != 1:
        return SurjectivityVerdict("FailsAbelianQuotient")
    return SurjectivityVerdict("Surjective")
