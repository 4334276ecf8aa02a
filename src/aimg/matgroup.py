"""Finite subgroup machinery inside GL2(Z/NZ).

Closure from generators, cosets and index, derived subgroups, abelian
structure of groups and quotients, subgroup conjugacy, and enumeration of
homomorphisms between finite abelian groups.

Closure is breadth-first over canonical entry tuples with deterministic
iteration order (generator order, then discovery order), so coset
representatives and reports are reproducible.  A configurable cap (env var
``AIMG_CAP_ORDER``, default 10**7) bounds materialized group size; hitting
it raises ResourceExceeded rather than truncating silently.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    ModulusMismatch,
    NotAbelian,
    NotAHomomorphism,
    NotASubgroup,
    NotInvertible,
    NotNormal,
    ResourceExceeded,
)
from .modmatrix import TID, ResidueMatrix, tdet, tinv, tmul

__all__ = [
    "FiniteMatrixGroup",
    "FiniteAbelianGroup",
    "AbelianHom",
    "closure",
    "index_and_cosets",
    "derived_subgroup",
    "normal_closure",
    "center",
    "is_conjugate_subgroup",
    "abelian_invariants",
    "enumerate_homs",
    "unit_group",
    "gl2_order",
    "sl2_order",
    "all_subgroups_up_to_conjugacy",
    "intermediate_subgroups",
]

DEFAULT_CAP = 10 ** 7


def group_size_cap() -> int:
    return int(os.environ.get("AIMG_CAP_ORDER", DEFAULT_CAP))


def _prime_factors(n: int):
    f = {}
    x = n
    p = 2
    while p * p <= x:
        while x % p == 0:
            f[p] = f.get(p, 0) + 1
            x //= p
        p = 3 if p == 2 else p + 2
    if x > 1:
        f[x] = f.get(x, 0) + 1
    return f


def gl2_order(n: int) -> int:
    """|GL2(Z/nZ)|."""
    out = 1
    for p, e in _prime_factors(n).items():
        out *= p ** (4 * (e - 1)) * (p * p - 1) * (p * p - p)
    return out


def sl2_order(n: int) -> int:
    """|SL2(Z/nZ)| = n^3 * prod (1 - p^-2)."""
    out = n ** 3
    for p in _prime_factors(n):
        out = out // (p * p) * (p * p - 1)
    return out


class _Closure:
    """Incrementally extensible BFS closure over matrix tuples mod n."""

    def __init__(self, n, gens=(), cap=None):
        self.n = n
        self.cap = cap or group_size_cap()
        self.gens = []
        ident = TID if n > 1 else (0, 0, 0, 0)
        self.elems = [ident]
        self.seen = {ident}
        for g in gens:
            self.add_gen(g)

    def add_gen(self, z):
        """Extend the closure by one new generator; returns True if the
        group grew."""
        n = self.n
        z = tuple(v % n for v in z)
        if z in self.seen:
            return False
        # seed with old * z so every word containing z is reachable by
        # right-multiplication BFS
        queue = deque(tmul(u, z, n) for u in self.elems)
        self.gens.append(z)
        gens = self.gens
        seen = self.seen
        elems = self.elems
        while queue:
            x = queue.popleft()
            if x in seen:
                continue
            if len(seen) >= self.cap:
                raise ResourceExceeded(
                    f"group closure exceeded cap {self.cap} at modulus {n} "
                    f"with {len(gens)} generators ({len(seen)} elements "
                    f"reached)",
                    partial=len(seen), modulus=n, generators=len(gens))
            seen.add(x)
            elems.append(x)
            for g in gens:
                y = tmul(x, g, n)
                if y not in seen:
                    queue.append(y)
        return True


def _closure_tuples(gens, n, cap=None):
    """BFS closure of generator tuples mod n; returns elements in
    deterministic discovery order."""
    c = _Closure(n, gens, cap)
    return c.elems, c.seen


class FiniteMatrixGroup:
    """A subgroup of GL2(Z/NZ), given by generators, with lazily
    materialized element set."""

    def __init__(self, modulus: int, generators):
        self.modulus = modulus
        gens = []
        for g in generators:
            t = g.entries if isinstance(g, ResidueMatrix) else tuple(g)
            t = tuple(v % modulus for v in t)
            if math.gcd(tdet(t, modulus), modulus) != 1:
                raise NotInvertible(f"generator {t} not invertible mod {modulus}")
            gens.append(t)
        self.generator_tuples = tuple(gens)
        self._elements = None
        self._eset = None

    @classmethod
    def from_elements(cls, elements, modulus: int):
        """Build a group from a full element set, with a small greedy
        generating set (deterministic: sorted element order)."""
        elems = sorted({tuple(v % modulus for v in e) for e in elements})
        clo = _Closure(modulus)
        gens = []
        for e in elems:
            if e not in clo.seen:
                clo.add_gen(e)
                gens.append(e)
        g = cls(modulus, gens)
        if len(clo.seen) != len(elems):
            raise NotASubgroup("element set is not closed under the group law")
        g._elements = tuple(clo.elems)
        g._eset = frozenset(clo.seen)
        return g

    @property
    def generators(self):
        return tuple(ResidueMatrix.from_tuple(t, self.modulus)
                     for t in self.generator_tuples)

    def _materialize(self):
        if self._elements is None:
            elems, seen = _closure_tuples(self.generator_tuples, self.modulus)
            self._elements = tuple(elems)
            self._eset = frozenset(seen)

    @property
    def elements(self):
        self._materialize()
        return self._elements

    @property
    def element_set(self):
        self._materialize()
        return self._eset

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x):
        t = x.entries if isinstance(x, ResidueMatrix) else tuple(x)
        return tuple(v % self.modulus for v in t) in self.element_set

    def __le__(self, other: "FiniteMatrixGroup"):
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"moduli differ: {self.modulus} vs {other.modulus}")
        return self.element_set <= other.element_set

    def __eq__(self, other):
        if not isinstance(other, FiniteMatrixGroup):
            return NotImplemented
        return (self.modulus == other.modulus
                and self.element_set == other.element_set)

    def __hash__(self):
        return hash((self.modulus, self.element_set))

    def is_abelian(self) -> bool:
        n = self.modulus
        gens = self.generator_tuples
        return all(tmul(x, y, n) == tmul(y, x, n)
                   for x, y in itertools.combinations(gens, 2))

    def __repr__(self):
        size = "?" if self._elements is None else len(self._elements)
        return (f"FiniteMatrixGroup(mod {self.modulus}, "
                f"{len(self.generator_tuples)} gens, order {size})")


def closure(generators) -> FiniteMatrixGroup:
    """Smallest subgroup containing the generators (which must share a
    modulus and be invertible)."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator (to fix the modulus)")
    n = gens[0].modulus if isinstance(gens[0], ResidueMatrix) else None
    if n is None:
        raise TypeError("generators must be ResidueMatrix values")
    for g in gens[1:]:
        if g.modulus != n:
            raise ModulusMismatch("generators do not share a modulus")
    return FiniteMatrixGroup(n, gens)


def index_and_cosets(G: FiniteMatrixGroup, H: FiniteMatrixGroup):
    """Index [G:H] and left-coset representatives (lexicographically least
    element per coset, cosets ordered by representative)."""
    if not H <= G:
        raise NotASubgroup("H is not a subgroup of G")
    n = G.modulus
    hset = H.element_set
    reps = []
    assigned = set()
    for g in sorted(G.element_set):
        if g in assigned:
            continue
        reps.append(g)
        for h in hset:
            assigned.add(tmul(g, h, n))
    index = G.order // H.order
    assert len(reps) == index
    return index, [ResidueMatrix.from_tuple(r, n) for r in reps]


def normal_closure(G: FiniteMatrixGroup, seeds) -> FiniteMatrixGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    n = G.modulus
    gens = []
    for s in seeds:
        t = s.entries if isinstance(s, ResidueMatrix) else tuple(s)
        t = tuple(v % n for v in t)
        if t != TID and t not in gens:
            gens.append(t)
    if not gens:
        return FiniteMatrixGroup(n, [ResidueMatrix.identity(n)])
    clo = _Closure(n, gens)
    changed = True
    while changed:
        changed = False
        for g in G.generator_tuples:
            gi = tinv(g, n)
            for s in list(clo.gens):
                c = tmul(tmul(g, s, n), gi, n)
                if c not in clo.seen:
                    clo.add_gen(c)
                    changed = True
    sub = FiniteMatrixGroup(n, [ResidueMatrix.from_tuple(t, n) for t in clo.gens])
    sub._elements = tuple(clo.elems)
    sub._eset = frozenset(clo.seen)
    return sub


def derived_subgroup(G: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Commutator subgroup [G, G] (normal closure of generator
    commutators)."""
    n = G.modulus
    seeds = []
    gens = G.generator_tuples
    for x in gens:
        xi = tinv(x, n)
        for y in gens:
            yi = tinv(y, n)
            seeds.append(tmul(tmul(x, y, n), tmul(xi, yi, n), n))
    return normal_closure(G, seeds)


def center(G: FiniteMatrixGroup):
    """Elements commuting with all of G, as raw tuples."""
    n = G.modulus
    gens = G.generator_tuples
    return [x for x in G.elements
            if all(tmul(x, g, n) == tmul(g, x, n) for g in gens)]


def _invertible_tuples(n: int):
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if math.gcd((a * d - b * c) % n, n) == 1:
                        yield (a, b, c, d)


def is_conjugate_subgroup(A: FiniteMatrixGroup, B: FiniteMatrixGroup):
    """Whether gAg^-1 = B for some g in GL2(Z/N); returns (bool, witness)."""
    if A.modulus != B.modulus:
        raise ModulusMismatch("subgroups live over different moduli")
    n = A.modulus
    if A.order != B.order:
        return False, None
    if A.element_set == B.element_set:
        return True, ResidueMatrix.identity(n)
    agens = A.generator_tuples
    bset = B.element_set
    for g in _invertible_tuples(n):
        gi = tinv(g, n)
        if all(tmul(tmul(g, a, n), gi, n) in bset for a in agens):
            return True, ResidueMatrix.from_tuple(g, n)
    return False, None


# ---------------------------------------------------------------------------
# Finite abelian groups


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group in cyclic-invariant form d1 | d2 | ...

    Elements are exponent vectors with respect to the invariant basis.
    When built from a concrete group, ``basis`` holds the concrete basis
    labels and ``log``/``unlog`` translate between labels and vectors.
    """

    invariants: tuple
    basis: tuple = ()
    _log: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def order(self) -> int:
        return math.prod(self.invariants) if self.invariants else 1

    @property
    def identity(self):
        return (0,) * len(self.invariants)

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariants))

    def add(self, u, v):
        return tuple((a + b) % d for a, b, d in zip(u, v, self.invariants))

    def neg(self, u):
        return tuple((-a) % d for a, d in zip(u, self.invariants))

    def scale(self, k, u):
        return tuple((k * a) % d for a, d in zip(u, self.invariants))

    def element_order(self, u) -> int:
        out = 1
        for a, d in zip(u, self.invariants):
            out = math.lcm(out, d // math.gcd(a, d))
        return out

    def log(self, label):
        """Exponent vector of a concrete carrier label."""
        return self._log[label]

    @classmethod
    def trivial(cls):
        return cls(())

    @classmethod
    def from_invariants(cls, invariants):
        invs = tuple(d for d in invariants if d > 1)
        for a, b in zip(invs, invs[1:]):
            if b % a != 0:
                raise ValueError(f"invariants {invs} are not a divisor chain")
        return cls(invs)

    @classmethod
    def from_concrete(cls, elements, mul, identity):
        """Cyclic decomposition of a concrete finite abelian group.

        ``elements`` are hashable, mutually comparable labels; ``mul`` is
        the group law.  Raises NotAbelian if the law is not commutative.
        """
        elems = sorted(set(elements))
        n = len(elems)
        if n == 1:
            return cls((), (), {elems[0]: ()})

        pow_cache = {}

        def power(x, k):
            r = identity
            b = x
            while k:
                if k & 1:
                    r = mul(r, b)
                b = mul(b, b)
                k >>= 1
            return r

        def elt_order(x):
            if x in pow_cache:
                return pow_cache[x]
            o = 1
            y = x
            while y != identity:
                y = mul(y, x)
                o += 1
            pow_cache[x] = o
            return o

        # spot-check commutativity on a generating-ish sample
        for x in elems[: min(len(elems), 12)]:
            for y in elems[: min(len(elems), 12)]:
                if mul(x, y) != mul(y, x):
                    raise NotAbelian("group law is not commutative")

        basis = []  # (label, order) with orders forming primary pieces
        for p in _prime_factors(n):
            e = 0
            m = n
            while m % p == 0:
                m //= p
                e += 1
            sylow = [x for x in elems if power(x, p ** e) == identity]
            basis.extend(_p_basis(sylow, mul, identity, power, elt_order))

        # merge primary cyclic pieces into invariant factors (descending)
        by_prime = {}
        for label, order in basis:
            p = next(iter(_prime_factors(order)))
            by_prime.setdefault(p, []).append((order, label))
        for p in by_prime:
            by_prime[p].sort(reverse=True)
        depth = max(len(v) for v in by_prime.values())
        factors = []
        for j in range(depth):
            d = 1
            lab = identity
            for p, pieces in by_prime.items():
                if j < len(pieces):
                    d *= pieces[j][0]
                    lab = mul(lab, pieces[j][1])
            factors.append((d, lab))
        factors.sort()  # ascending divisor chain d1 | d2 | ...
        invariants = tuple(d for d, _ in factors)
        blabels = tuple(lab for _, lab in factors)

        log = {}
        for vec in itertools.product(*(range(d) for d in invariants)):
            x = identity
            for k, lab in zip(vec, blabels):
                x = mul(x, power(lab, k))
            log[x] = vec
        if len(log) != n:
            raise NotAbelian("cyclic decomposition failed to cover the group")
        return cls(invariants, blabels, log)


def _p_basis(elems, mul, identity, power, elt_order):
    """Basis of an abelian p-group given as a concrete element list."""
    if len(elems) == 1:
        return []
    a = min(elems, key=lambda x: (-elt_order(x), x))
    oa = elt_order(a)
    cyc = []
    x = identity
    for _ in range(oa):
        cyc.append(x)
        x = mul(x, a)
    cyc_set = set(cyc)
    # quotient by <a>: canonical representative = least element of the coset
    rep_of = {}
    reps = []
    for x in sorted(elems):
        if x in rep_of:
            continue
        coset = sorted(mul(x, c) for c in cyc)
        r = coset[0]
        reps.append(r)
        for y in coset:
            rep_of[y] = r

    def qmul(r1, r2):
        return rep_of[mul(r1, r2)]

    def qpower(x, k):
        r = rep_of[identity]
        b = x
        while k:
            if k & 1:
                r = qmul(r, b)
            b = qmul(b, b)
            k >>= 1
        return r

    qorders = {}

    def qorder(x):
        if x not in qorders:
            o = 1
            y = x
            rid = rep_of[identity]
            while y != rid:
                y = qmul(y, x)
                o += 1
            qorders[x] = o
        return qorders[x]

    qbasis = _p_basis(reps, qmul, rep_of[identity], qpower, qorder) \
        if len(reps) > 1 else []
    out = [(a, oa)]
    for b, q in qbasis:
        # lift: adjust by a power of a so the lift's order equals q
        for t in range(oa):
            cand = mul(b, power(a, t))
            if elt_order(cand) == q:
                out.append((cand, q))
                break
        else:
            raise AssertionError("p-group basis lift failed")
    return out


def _quotient_carrier(G: FiniteMatrixGroup, H: FiniteMatrixGroup):
    """Coset representatives of H in G and the induced product, as a
    concrete group (NotNormal if H is not normal in G)."""
    n = G.modulus
    if not H <= G:
        raise NotASubgroup("H is not a subgroup of G")
    hset = H.element_set
    for g in G.generator_tuples:
        gi = tinv(g, n)
        for h in H.generator_tuples:
            if tmul(tmul(g, h, n), gi, n) not in hset:
                raise NotNormal("H is not normal in G")
    rep_of = {}
    reps = []
    for x in sorted(G.element_set):
        if x in rep_of:
            continue
        coset = sorted(tmul(x, h, n) for h in hset)
        r = coset[0]
        reps.append(r)
        for y in coset:
            rep_of[y] = r

    def qmul(r1, r2):
        return rep_of[tmul(r1, r2, n)]

    return reps, qmul, rep_of


def abelian_invariants(G: FiniteMatrixGroup, H: FiniteMatrixGroup = None):
    """Cyclic decomposition of G (or of the quotient G/H, H normal)."""
    n = G.modulus
    if H is None:
        if not G.is_abelian():
            raise NotAbelian("group is not abelian")
        return FiniteAbelianGroup.from_concrete(
            G.elements, lambda x, y: tmul(x, y, n), TID if n > 1 else (0, 0, 0, 0))
    reps, qmul, rep_of = _quotient_carrier(G, H)
    ident = rep_of[TID if n > 1 else (0, 0, 0, 0)]
    return FiniteAbelianGroup.from_concrete(reps, qmul, ident)


def quotient_group(G: FiniteMatrixGroup, H: FiniteMatrixGroup):
    """Abelian quotient G/H with the coset-to-vector map.

    Returns (FiniteAbelianGroup, eta) where eta maps an element tuple of G
    to its exponent vector in the quotient.
    """
    n = G.modulus
    reps, qmul, rep_of = _quotient_carrier(G, H)
    ident = rep_of[TID if n > 1 else (0, 0, 0, 0)]
    Q = FiniteAbelianGroup.from_concrete(reps, qmul, ident)

    def eta(x):
        return Q.log(rep_of[tuple(v % n for v in x)])

    return Q, eta


@lru_cache(maxsize=None)
def unit_group(M: int) -> FiniteAbelianGroup:
    """(Z/MZ)^x in cyclic-invariant form, with unit labels as carrier."""
    units = [u for u in range(1, M + 1) if math.gcd(u, M) == 1] or [0]
    if M == 1:
        return FiniteAbelianGroup((), (), {1 % M: ()})
    return FiniteAbelianGroup.from_concrete(
        units, lambda x, y: (x * y) % M, 1 % M)


@dataclass(frozen=True)
class AbelianHom:
    """Homomorphism between abelian groups in invariant form, given by the
    images of the cyclic generators."""

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    images: tuple  # one target vector per source invariant generator

    def __post_init__(self):
        reduced = tuple(
            tuple(a % e for a, e in zip(img, self.target.invariants))
            for img in self.images)
        object.__setattr__(self, "images", reduced)
        for d, img in zip(self.source.invariants, self.images):
            if any((d * a) % e != 0
                   for a, e in zip(img, self.target.invariants)):
                raise NotAHomomorphism(
                    f"generator of order {d} mapped to element of "
                    f"incompatible order")

    def __call__(self, vec):
        out = self.target.identity
        for k, img in zip(vec, self.images):
            out = self.target.add(out, self.target.scale(k, img))
        return out

    def is_trivial(self) -> bool:
        return all(img == self.target.identity for img in self.images)


def enumerate_homs(A: FiniteAbelianGroup, Q: FiniteAbelianGroup):
    """All homomorphisms A -> Q; count = prod gcd(d_i, e_j)."""
    choices = []
    for d in A.invariants:
        cands = [tuple(v) for v in itertools.product(
            *(range(0, e, e // math.gcd(d, e)) for e in Q.invariants))]
        choices.append(sorted(cands))
    homs = [AbelianHom(A, Q, tuple(images))
            for images in itertools.product(*choices)]
    expected = math.prod(
        math.gcd(d, e) for d in A.invariants for e in Q.invariants)
    assert len(homs) == expected
    return homs


# ---------------------------------------------------------------------------
# Subgroup enumeration (desk scale; used by the genus sweep and the
# base-group recovery search)


def _subgroup_key(elems, n):
    """Conjugation-invariant fingerprint of a subgroup element set."""
    sig = {}
    for x in elems:
        tr = (x[0] + x[3]) % n
        sig[(tr, tdet(x, n))] = sig.get((tr, tdet(x, n)), 0) + 1
    return (len(elems), tuple(sorted(sig.items())))


def _conjugate_set(elems, g, n):
    gi = tinv(g, n)
    return frozenset(tmul(tmul(g, x, n), gi, n) for x in elems)


def all_subgroups_up_to_conjugacy(G: FiniteMatrixGroup):
    """All subgroups of G up to conjugacy in G, as element frozensets.

    Joins of cyclic subgroups, deduplicated by conjugation inside G.
    Exponential in the worst case; meant for ambient orders up to a few
    hundred (SL2(Z/N), N <= 8).
    """
    n = G.modulus
    gelems = G.elements
    ident = TID if n > 1 else (0, 0, 0, 0)

    cyclic = {}
    for x in gelems:
        sub = [ident]
        y = x
        while y != ident:
            sub.append(y)
            y = tmul(y, x, n)
        cyclic[frozenset(sub)] = None
    cyclic = sorted(cyclic, key=lambda s: (len(s), sorted(s)))

    def canonical(elems):
        """Least conjugate (by sorted element tuple) of a subgroup set.

        Conjugation by g and by g*h (h in the subgroup) agree, so only
        one representative per left coset of the subgroup is tried.
        """
        best = tuple(sorted(elems))
        span = frozenset(elems)
        covered = set()
        for g in gelems:
            if g in covered:
                continue
            covered.update(tmul(g, h, n) for h in span)
            c = tuple(sorted(_conjugate_set(elems, g, n)))
            if c < best:
                best = c
        return best

    cyc_gens = {}
    for c in cyclic:
        for x in c:
            if _closure_tuples([x], n)[1] == set(c):
                cyc_gens[c] = x
                break

    found = {}       # canonical key -> (element set, small generating list)
    seen_spans = set()   # raw spans already canonicalized
    queue = deque()
    for c in cyclic:
        key = canonical(c)
        if key not in found:
            gens = _regenerate(key, n) if len(c) > 1 else []
            found[key] = (frozenset(key), gens)
            queue.append((frozenset(key), gens))
        seen_spans.add(frozenset(c))
    while queue:
        h, hgens = queue.popleft()
        for c in cyclic:
            if c <= h:
                continue
            gens = hgens + [cyc_gens[c]]
            _, span = _closure_tuples(gens, n)
            fspan = frozenset(span)
            if fspan in seen_spans:
                continue
            seen_spans.add(fspan)
            if len(span) == len(gelems):
                continue  # the full group is added at the end
            key = canonical(span)
            if key not in found:
                # re-generate on the canonical conjugate for correctness
                # of downstream joins (gens must generate the keyed set)
                kgens = _regenerate(key, n)
                found[key] = (frozenset(key), kgens)
                queue.append((frozenset(key), kgens))
    found[tuple(sorted(gelems))] = (frozenset(gelems), [])
    return sorted((v[0] for v in found.values()),
                  key=lambda s: (len(s), sorted(s)))


def _regenerate(elems, n):
    """A small generating list for the subgroup given by element set."""
    target = set(elems)
    gens = []
    span = {TID if n > 1 else (0, 0, 0, 0)}
    for x in sorted(target, key=lambda t: -len(_cyc_len_cache(t, n))):
        if x in span:
            continue
        gens.append(x)
        _, span = _closure_tuples(gens, n)
        if span == target:
            break
    return gens


def _cyc_len_cache(x, n):
    ident = TID if n > 1 else (0, 0, 0, 0)
    out = [ident]
    y = x
    while y != ident:
        out.append(y)
        y = tmul(y, x, n)
    return out


def intermediate_subgroups(H: FiniteMatrixGroup, G: FiniteMatrixGroup,
                           index_over_h: int):
    """Subgroups S with H <= S <= G and [S : H] = index_over_h.

    Exhaustive: extends H by elements of G and keeps the closures of the
    right order.  Returns FiniteMatrixGroup values (deduplicated by
    element set, not by conjugacy).
    """
    if not H <= G:
        raise NotASubgroup("H is not a subgroup of G")
    n = G.modulus
    target = H.order * index_over_h
    if G.order % target != 0:
        return []
    if index_over_h == 1:
        return [H]
    base = list(H.generator_tuples)
    found = {}
    frontier = {H.element_set: base}
    while frontier:
        new_frontier = {}
        for span, gens in frontier.items():
            for x in sorted(G.element_set - span):
                _, bigger = _closure_tuples(gens + [x], n)
                if len(bigger) > target or target % len(bigger) != 0:
                    continue
                key = frozenset(bigger)
                if len(bigger) == target:
                    found.setdefault(key, gens + [x])
                elif key not in new_frontier and key not in frontier:
                    new_frontier[key] = gens + [x]
        frontier = new_frontier
    out = []
    for key, gens in sorted(found.items(), key=lambda kv: sorted(kv[0])):
        g = FiniteMatrixGroup(n, [ResidueMatrix.from_tuple(t, n) for t in gens])
        g._elements = tuple(sorted(key))
        g._eset = key
        out.append(g)
    return out
