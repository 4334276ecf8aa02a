"""Simple-quotient analysis and the finite-truncation surjectivity
criterion.

A closed subgroup H of G = G_M x prod GL2(Z_l) equals G exactly when the
projections of H onto every factor are onto and H still surjects onto
G/[G,G]; here both conditions are checked at a finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .errors import NotASubgroup, ResourceExceeded
from .matgroup import (
    FiniteMatrixGroup,
    _Closure,
    _orbit,
    _prime_factors,
    derived_subgroup,
    group_size_cap,
    normal_closure,
    quotient_group,
)
from .modmatrix import tinv, tmul
from .opengroup import full_gl2

__all__ = [
    "TruncatedAdelicGroup",
    "SurjectivityVerdict",
    "quo_simple_quotients",
    "quo_disjointness",
    "surjectivity_check",
]


def _conjugacy_class_reps(G: FiniteMatrixGroup):
    """The first element of each conjugacy class, in G.elements order."""
    n = G.modulus
    moves = [lambda x, g=g, gi=tinv(g, n): tmul(tmul(g, x, n), gi, n)
             for g in G.generator_tuples]
    seen = set()
    reps = []
    for x in G.elements:
        if x not in seen:
            reps.append(x)
            seen |= _orbit(x, moves)
    return reps


def _normal_subgroups(G: FiniteMatrixGroup):
    """All normal subgroups as element frozensets, by join-closing the
    normal closures of single conjugacy classes."""
    n = G.modulus
    atoms = {normal_closure(G, [r]).element_set
             for r in _conjugacy_class_reps(G)}
    ident = (1 % n, 0, 0, 1 % n)
    found = set(atoms) | {frozenset({ident})}
    frontier = list(found)
    while frontier:
        a = frontier.pop()
        for b in list(found):
            if a <= b or b <= a:
                continue
            j = frozenset(_Closure(n, sorted(a | b)).seen)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return found


def quo_simple_quotients(G: FiniteMatrixGroup) -> set:
    """Quo(G): isomorphism tags of the nonabelian simple quotients.

    Every nonabelian simple quotient of G factors through the perfect core
    P = stable term of the derived series (if G/N is simple nonabelian,
    P*N = G and P/(P ∩ N) is the same quotient), so the search runs on P:
    its maximal proper normal subgroups give exactly the simple quotients,
    all nonabelian since P is perfect.  Tags are ("PSL2", l) when the
    order matches |PSL2(F_l)| for a prime l >= 5, otherwise
    ("simple", order).
    """
    if G.order > group_size_cap():
        raise ResourceExceeded(f"group order {G.order} exceeds cap")
    P = G
    while True:
        D = derived_subgroup(P)
        if D.order == P.order:
            break
        P = D
    if P.order == 1:
        return set()
    normals = _normal_subgroups(P)
    proper = [N for N in normals if len(N) < P.order]
    out = set()
    for N in proper:
        if any(N < N2 for N2 in proper if N2 is not N):
            continue
        q_order = P.order // len(N)
        tag = ("simple", q_order)
        for ell in _psl2_orders(q_order):
            tag = ("PSL2", ell)
        out.add(tag)
    return out


def _psl2_orders(order):
    out = []
    # |PSL2(F_l)| = l(l^2-1)/2 for l >= 5
    ell = 5
    while ell * (ell * ell - 1) // 2 <= order:
        if (ell * (ell * ell - 1) // 2 == order
                and _prime_factors(ell) == {ell: 1}):
            out.append(ell)
        ell += 2
    return out


def quo_disjointness(A: FiniteMatrixGroup, B: FiniteMatrixGroup) -> bool:
    """Whether Quo(A) and Quo(B) share no isomorphism class."""
    return not (quo_simple_quotients(A) & quo_simple_quotients(B))


@dataclass(frozen=True)
class TruncatedAdelicGroup:
    """Finite truncation of G_M x prod_{l not dividing M} GL2(Z_l).

    ``m_part`` lives at modulus M (M = 1 encodes no M-part); each entry of
    ``prime_parts`` lives at a power of a prime not dividing M.
    """

    m_part: FiniteMatrixGroup
    prime_parts: tuple  # of FiniteMatrixGroup, pairwise coprime moduli

    def __post_init__(self):
        object.__setattr__(self, "prime_parts", tuple(self.prime_parts))
        m = self.m_part.modulus
        seen = set(_prime_factors(m)) if m > 1 else set()
        for part in self.prime_parts:
            ps = _prime_factors(part.modulus)
            if len(ps) != 1:
                raise ValueError("each prime part must live at a prime power")
            (p,) = ps
            if p in seen:
                raise ValueError(f"prime {p} appears in two factors")
            seen.add(p)

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


@dataclass(frozen=True)
class SurjectivityVerdict:
    kind: str  # "Surjective" | "FailsProjection" | "FailsAbelianQuotient"
    factor: object = None  # "M" or the failing prime

    def __repr__(self):
        if self.kind == "FailsProjection":
            return f"FailsProjection({self.factor})"
        return self.kind


def surjectivity_check(G: TruncatedAdelicGroup, h_gens) -> SurjectivityVerdict:
    """Decide H = G at the truncation from generators of H.

    H generators are matrices at the combined modulus; an empty list is
    the trivial group.  The check mirrors the criterion: every factor
    projection must be onto, and H must cover the abelianization G/[G,G]
    (computed factorwise, since the derived subgroup of a product is the
    product of the derived subgroups).
    """
    N = G.modulus
    for h in h_gens:
        if h.modulus != N:
            raise NotASubgroup(
                f"generator modulus {h.modulus} != truncation modulus {N}")

    # factor projections
    for name, fac in G.factors:
        m = fac.modulus
        proj = [h.reduce_mod(m) for h in h_gens]
        for g in proj:
            if g.entries not in fac.element_set:
                raise NotASubgroup(
                    f"generator {g} lies outside the {name}-factor")
        if FiniteMatrixGroup(m, proj).order != fac.order:
            return SurjectivityVerdict("FailsProjection", name)

    # abelian quotient, factor by factor
    quotients = []
    for name, fac in G.factors:
        D = derived_subgroup(fac)
        Q, eta = quotient_group(fac, D)
        quotients.append((fac.modulus, Q, eta))
    full_order = math.prod(Q.order for _, Q, _ in quotients)
    if full_order > 1:
        vecs = []
        for h in h_gens:
            vecs.append(tuple(eta(h.reduce_mod(m).entries)
                              for m, Q, eta in quotients))
        # additive closure in the product of the abelian quotients
        def add(u, v):
            return tuple(Q.add(a, b)
                         for (_, Q, _), a, b in zip(quotients, u, v))
        ident = tuple(Q.identity for _, Q, _ in quotients)
        span = _orbit(ident, [lambda x, v=v: add(x, v) for v in vecs])
        if len(span) != full_order:
            return SurjectivityVerdict("FailsAbelianQuotient")
    return SurjectivityVerdict("Surjective")
