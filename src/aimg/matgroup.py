"""Finite subgroup machinery inside GL2(Z/NZ).

Closure from generators, orbits, cosets, derived subgroups, abelian
structure of quotients and unit groups, subgroup conjugacy, and enumeration
of homomorphisms between finite abelian groups.

Closure is by right cosets (Dimino) over canonical entry tuples with
deterministic iteration order (generator order, then coset order), so
coset representatives and reports are reproducible.  A configurable cap
(env var ``AIMG_CAP_ORDER``, default 10**7) bounds materialized group size
and orbit size; hitting it raises ResourceExceeded rather than truncating
silently.

Orders, normal closures and derived subgroups are closed only mod
rad(n).  Above it they are counted through the congruence layers, one
prime p^e || n at a time: the kernel of GL2(Z/p^(a+1)) -> GL2(Z/p^a) is
M2(F_p) for a >= 1, so the part in the kernel mod rad(n) is a product of
F_p-linear induced sequences, each counted only until it fills its
ceiling, and the group comes back with its order recorded and
unmaterialized.  Membership and element sets still close the group.

A group's state is set in this module only: a caller that knows an order
from a formula passes it to the constructor, and _closed wraps a finished
closure as a materialized group.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from functools import lru_cache

from .errors import (
    ModulusMismatch,
    NotAbelian,
    NotAHomomorphism,
    NotASubgroup,
    NotInvertible,
    NotNormal,
    ResourceExceeded,
    SchemaError,
)
from .modmatrix import TID, ResidueMatrix, tcrt, tdet, tinv, tmul

__all__ = [
    "FiniteMatrixGroup",
    "FiniteAbelianGroup",
    "AbelianHom",
    "closure",
    "derived_subgroup",
    "normal_closure",
    "center",
    "is_conjugate_subgroup",
    "enumerate_homs",
    "unit_group",
    "gl2_order",
    "sl2_order",
    "all_subgroups_up_to_conjugacy",
    "intermediate_subgroups",
]

DEFAULT_CAP = 10 ** 7


def group_size_cap() -> int:
    """The cap on the elements a closure may hold: AIMG_CAP_ORDER, or
    DEFAULT_CAP when it is unset.  SchemaError unless it is a positive
    integer."""
    raw = os.environ.get("AIMG_CAP_ORDER")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SchemaError(
            f"AIMG_CAP_ORDER must be a positive integer, not {raw!r}")
    return cap


_TRIAL_BOUND = 1000
# the first 13 primes: Miller-Rabin with these bases is deterministic
# below 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _prime_factors(n: int):
    """{p: e} for n >= 1.

    Trial division by 2 and the odd numbers below _TRIAL_BOUND; a
    cofactor of at least _TRIAL_BOUND**2 left after that is split by
    Pollard-Brent rho, with Miller-Rabin (and a strong Lucas test above
    _MR_LIMIT, i.e. BPSW) deciding primality.
    """
    f = {}
    x = n
    p = 2
    while p * p <= x:
        if p > _TRIAL_BOUND:
            for q in _split(x):
                f[q] = f.get(q, 0) + 1
            return f
        while x % p == 0:
            f[p] = f.get(p, 0) + 1
            x //= p
        p = 3 if p == 2 else p + 2
    if x > 1:
        f[x] = f.get(x, 0) + 1
    return f


def _divisors(n: int) -> list:
    """Positive divisors of n >= 1."""
    out = [1]
    for p, e in _prime_factors(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def _split(n: int):
    """Prime factors, with multiplicity, of n > 1 free of small primes."""
    out, todo = [], [n]
    while todo:
        x = todo.pop()
        r = math.isqrt(x)
        if r * r == x:
            todo += (r, r)
        elif _is_prime(x):
            out.append(x)
        else:
            d = _rho(x)
            todo += (d, x // d)
    return out


def _is_prime(n: int) -> bool:
    """Primality of an odd non-square n with no factor below
    _TRIAL_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_LIMIT or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters
    (D the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1, Q = (1 - D)/4), for odd n that is not a square."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1, and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # binary Lucas chain for U_d, V_d with P = 1; halving mod odd n
    # multiplies by the inverse of 2
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _rho(n: int) -> int:
    """A proper factor of the odd composite non-square n (Brent's
    variant of Pollard rho, with the gcd taken over batches of 128
    steps; the polynomial x^2 + c moves on to c + 1 when a batch
    collapses to n)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


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
    """Incrementally extensible closure over matrix tuples mod n, by right
    cosets (Dimino's algorithm; Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991).

    add_gen(z) extends the closed group H = elems[:block] by the coset
    H z, then walks the new representatives r = elems[block],
    elems[2 block], ... in turn and adds the coset H (r s) for each
    generator s with r s not yet seen.  What is added stays a union of
    right cosets of H that holds I and is closed under right
    multiplication by every generator, so it is <H, z>.  That costs about
    |G| + k [G : H] products for k generators, against k |G| for a
    breadth-first walk.

    ``elems`` lists the group in coset order: elems[0] is I, and each
    coset starts with its representative.  The cap is checked before each
    coset; one that would pass it is filled up to exactly the cap and
    ResourceExceeded is raised with ``partial`` equal to the cap, so a
    closure raises exactly when the group's order exceeds the cap.
    """

    def __init__(self, n, gens=(), cap=None):
        self.n = n
        self.cap = cap or group_size_cap()
        self.gens = []
        ident = _reduced(TID, n)
        self.elems = [ident]
        self.seen = {ident}
        for g in gens:
            self.add_gen(g)

    def add_gen(self, z):
        """Extend the closure by one new generator; returns True if the
        group grew."""
        n = self.n
        z = _reduced(z, n)
        if z in self.seen:
            return False
        self.gens.append(z)
        gens = self.gens
        seen = self.seen
        elems = self.elems
        block = len(elems)
        sub = elems[:block]
        self._add_coset(sub, z)
        pos = block
        while pos < len(elems):
            # tmul inlined, r unpacked once, as in _add_coset
            a, b, c, d = elems[pos]
            for e, f, g, h in gens:
                y = ((a * e + b * g) % n, (a * f + b * h) % n,
                     (c * e + d * g) % n, (c * f + d * h) % n)
                if y not in seen:
                    self._add_coset(sub, y)
            pos += block
        return True

    def _add_coset(self, sub, x):
        """Append the right coset sub * x, which no element so far meets;
        ResourceExceeded, with the closure filled up to the cap, when it
        does not fit under the cap."""
        n = self.n
        room = self.cap - len(self.elems)
        # tmul inlined, x unpacked once: this loop is most of the cost of
        # every closure, intersect_sl2's included
        e, f, g, h = x
        coset = [((a * e + b * g) % n, (a * f + b * h) % n,
                  (c * e + d * g) % n, (c * f + d * h) % n)
                 for a, b, c, d in (sub if room >= len(sub) else sub[:room])]
        self.elems += coset
        self.seen.update(coset)
        if room < len(sub):
            raise ResourceExceeded(
                f"group closure exceeded cap {self.cap} at modulus {n} "
                f"with {len(self.gens)} generators ({len(self.seen)} "
                f"elements reached)",
                partial=len(self.seen), modulus=n,
                generators=len(self.gens))


def _orbit(x, moves) -> set:
    """The orbit of x under the group generated by the bijections
    ``moves`` of a finite set; ResourceExceeded once it passes the cap."""
    cap = group_size_cap()
    seen = {x}
    stack = [x]
    while stack:
        if len(seen) > cap:
            raise ResourceExceeded(
                f"orbit exceeded cap {cap} ({len(seen)} points reached)",
                partial=len(seen))
        y = stack.pop()
        for move in moves:
            z = move(y)
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def _schreier(gens, n, start, act):
    """Kernel of a homomorphism v from the group generated by ``gens``
    (tuples mod n) to a group of values, given by act(q, g) = q * v(g).

    Returns (trans, schreier).  ``trans`` maps each q in start * im v to a
    word t_q in the generators with start * v(t_q) = q, found by a BFS from
    ``start`` (t_start is the identity), so [<gens> : ker v] = len(trans).
    ``schreier`` is an iterator over the distinct non-identity Schreier
    generators t_q g t_{act(q, g)}^-1, which generate ker v, q in the order
    of ``trans`` and g in the order of ``gens``.  They are formed as they
    are read, each inverse t^-1 when it is first needed, so a caller that
    stops early forms no more of them than it read.
    """
    ident = _reduced(TID, n)
    trans = {start: ident}
    queue = deque(trans)
    while queue:
        q = queue.popleft()
        for g in gens:
            r = act(q, g)
            if r not in trans:
                trans[r] = tmul(trans[q], g, n)
                queue.append(r)

    def schreier():
        inverse = {}
        seen = {ident}
        for q, (a, b, c, d) in trans.items():
            for x in gens:
                r = act(q, x)
                if r not in inverse:
                    inverse[r] = tinv(trans[r], n)
                # t x t_r^-1, tmul inlined as in _Closure
                e, f, g, h = x
                a1, b1 = (a * e + b * g) % n, (a * f + b * h) % n
                c1, d1 = (c * e + d * g) % n, (c * f + d * h) % n
                e, f, g, h = inverse[r]
                s = ((a1 * e + b1 * g) % n, (a1 * f + b1 * h) % n,
                     (c1 * e + d1 * g) % n, (c1 * f + d1 * h) % n)
                if s not in seen:
                    seen.add(s)
                    yield s

    return trans, schreier()


def _cosets(elements, sub, mul):
    """Split ``elements`` into the cosets {mul(x, h) : h in sub}.

    The elements are walked in sorted order, so the first unassigned one
    is the least element of its coset and becomes its representative.
    Returns the representatives in that order and the map from each
    element to its representative.
    """
    reps = []
    rep_of = {}
    for x in sorted(elements):
        if x in rep_of:
            continue
        reps.append(x)
        for h in sub:
            rep_of[mul(x, h)] = x
    return reps, rep_of


def _reduced(x, n) -> tuple:
    """The entries of a ResidueMatrix or a 4-tuple, reduced mod n."""
    a, b, c, d = x.entries if isinstance(x, ResidueMatrix) else x
    return (a % n, b % n, c % n, d % n)


class FiniteMatrixGroup:
    """A subgroup of GL2(Z/NZ), given by generators, with lazily
    materialized element set.

    ``order`` is the group's order when a caller knows it from a formula;
    left out, it is counted through the congruence layers, as the normal
    closure of the generators, when first read.  A later materialization
    asserts that the closure has that many elements.

    The generators are reduced mod N; those that become the identity or
    repeat an earlier one are dropped, the rest keep their order.
    """

    def __init__(self, modulus: int, generators, order=None):
        self.modulus = modulus
        gens = {}
        for g in generators:
            t = _reduced(g, modulus)
            if math.gcd(tdet(t, modulus), modulus) != 1:
                raise NotInvertible(f"generator {t} not invertible mod {modulus}")
            gens[t] = None
        gens.pop(_reduced(TID, modulus), None)
        self.generator_tuples = tuple(gens)
        self._elements = None
        self._eset = None
        self._order = order

    @classmethod
    def from_elements(cls, elements, modulus: int):
        """Build a group from a full element set, with a small greedy
        generating set (deterministic: sorted element order)."""
        elems = sorted({_reduced(e, modulus) for e in elements})
        clo = _Closure(modulus, elems)
        if len(clo.seen) != len(elems):
            raise NotASubgroup("element set is not closed under the group law")
        return _closed(clo)

    @property
    def generators(self):
        return tuple(ResidueMatrix.from_tuple(t, self.modulus)
                     for t in self.generator_tuples)

    def _materialize(self):
        if self._elements is None:
            clo = _Closure(self.modulus, self.generator_tuples)
            assert self._order in (None, len(clo.elems)), (
                f"closure has {len(clo.elems)} elements, the recorded "
                f"order is {self._order}")
            self._elements = tuple(clo.elems)
            self._eset = frozenset(clo.seen)

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
        if self._order is None:
            if self._elements is not None:
                self._order = len(self._elements)
            else:
                sub = normal_closure(self, self.generator_tuples)
                self._order = sub.order
                if sub._elements is not None:
                    self._elements, self._eset = sub._elements, sub._eset
        return self._order

    def __contains__(self, x):
        return _reduced(x, self.modulus) in self.element_set

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

    def __repr__(self):
        size = self._order
        if size is None:
            size = "?" if self._elements is None else len(self._elements)
        return (f"FiniteMatrixGroup(mod {self.modulus}, "
                f"{len(self.generator_tuples)} gens, order {size})")


def _closed(clo: _Closure) -> FiniteMatrixGroup:
    """The group closed by the finished closure ``clo``: generated by
    ``clo.gens``, with its elements set and its order len(clo.elems)."""
    g = FiniteMatrixGroup(clo.n, clo.gens, len(clo.elems))
    g._elements = tuple(clo.elems)
    g._eset = frozenset(clo.seen)
    return g


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


def _layer_sequence(p, e, rank, conj, items):
    """Generators and order of the smallest subgroup T of K(p) that
    contains ``items`` and is normalized by the conjugations ``conj``
    ((g, g^-1) pairs mod q = p^e, e >= 2), with K(d) the kernel of
    GL2(Z/q) -> GL2(Z/d), given that T lies in C ∩ K(p) for a ceiling
    group C whose layers have dimension ``rank``: 3 for C = SL2, 4 for
    C = GL2.  The kernel of reduction mod rad(n) in GL2(Z/n) is the
    direct product of these K(p), one for each p^e || n, so normal_closure
    counts its part there as one such T per prime.

    K(p) is cut by the chain p | p^2 | ... | q.  K(p^a)/K(p^(a+1)) is
    elementary abelian, I + p^a X -> X mod p maps it onto M2(F_p), and it
    is central in K(p)/K(p^(a+1)).  det(I + p^a X) = 1 + p^a tr X mod
    p^(a+1), so the layer of SL2 is sl2(F_p), of dimension 3.  T is kept
    as an induced sequence (Holt-Eick-O'Brien, Handbook of CGT, ch. 8):
    per layer, elements whose coordinates are semi-echelon, each row 1 at
    its pivot and 0 at the pivots of the rows before it.  An element is
    sifted by clearing the pivot coordinates, row by row and layer by
    layer; whatever survives is inserted, and its p-th power, its
    commutators with the sequence and its conjugates are sifted in turn.
    ``items`` is read only when nothing else is left to sift.  Once
    nothing is, T is the set of ordered products of powers of the
    sequence, so |T| = prod p^(rows in each layer).

    The count stops as soon as every layer holds ``rank`` rows: the
    ordered products are then |C ∩ K(p)| distinct elements of T, so T is
    all of C ∩ K(p), and the rows generate it.

    Lemma (saturation): for p odd and a >= 1, or p = 2 and a >= 2,
    (I + p^a X)^p = I + p^(a+1) X mod p^(a+2), so a full layer at depth
    a makes every deeper layer full, and T holds C ∩ K(p^a).  Those
    layers count at the ceiling without rows and are no longer sifted,
    and the rows at depth a generate C ∩ K(p^a): that group is uniform,
    its p-th powers are C ∩ K(p^(a+1)), so the rows span its Frattini
    quotient (Burnside's basis theorem).  At p = 2, a = 1 this fails:
    (I + 2X)^2 = I + 4(X + X^2), and <I + 2E_ij> mod 8 has 128 elements,
    not the 256 of K(2).
    """
    q = p ** e
    power, _ = _power_order(lambda x, y: tmul(x, y, q), TID)
    # per depth a = i + 1: (pivot, coordinates, [x^-1, ..., x^-(p-1)])
    rows = [[] for _ in range(e - 1)]
    live = e - 1  # the layers still sifted; the deeper ones are full
    seq = []
    stack = []
    items = iter(items)
    while True:
        if stack:
            x = stack.pop()
        else:
            x = next(items, None)
            if x is None:
                break
        for i in range(live):
            d = p ** (i + 1)
            v = [(a - b) // d % p for a, b in zip(x, TID)]
            for piv, w, inv_pows in rows[i]:
                c = v[piv]
                if c:
                    x = tmul(x, inv_pows[c - 1], q)
                    v = [(a - c * b) % p for a, b in zip(v, w)]
            if any(v):
                break
        else:
            continue
        piv = next(j for j, a in enumerate(v) if a)
        k = pow(v[piv], -1, p)
        x = power(x, k)
        v = [a * k % p for a in v]
        xi = tinv(x, q)
        rows[i].append((piv, v, [power(xi, c) for c in range(1, p)]))
        if len(rows[i]) == rank and (p > 2 or i > 0):
            live = i
        if all(len(rs) == rank for rs in rows[:live]):
            return seq + [x], p ** (rank * (e - 1))
        stack.append(power(x, p))
        stack.extend(tmul(tmul(x, y, q), tmul(xi, tinv(y, q), q), q)
                     for y in seq)
        stack.extend(tmul(tmul(g, x, q), gi, q) for g, gi in conj)
        seq.append(x)
    return seq, p ** (sum(map(len, rows[:live])) + rank * (e - 1 - live))


def normal_closure(G: FiniteMatrixGroup, seeds) -> FiniteMatrixGroup:
    """Smallest subgroup N that contains the seed elements and is
    normalized by G: the normal closure in G when the seeds lie in G.

    N is closed only at r = rad(n), n the modulus.  S (``lifts``)
    starts as the seeds that grow that closure and is walked once, in the
    order it grows: each s in S is conjugated once by each generator g of
    G, and a conjugate g s g^-1 that grows the closure joins S (as in the
    normal closure of Holt-Eick-O'Brien's Handbook of CGT).  Every
    conjugate then lies in <S> mod r, so <S> mod r is N mod r.
    When r = n that closure is N, returned materialized.  Otherwise
    N = <S> * T, T = N ∩ K(r), K(r) the kernel of reduction mod r.  T is
    the smallest subgroup of K(r) normalized by G that holds t^-1 x for
    every seed x and every conjugate x formed in the walk, t the
    transversal word of x mod r, and the Schreier generators of
    <S> ∩ K(r), read in that order and only as far as they are needed.

    K(r) is the direct product of its p-parts, the kernels of
    GL2(Z/p^e) -> GL2(Z/p) for p^e || n, and G conjugates factor by
    factor, so T is the product of its images mod p^e, each the smallest
    subgroup normalized by G mod p^e that holds the items mod p^e.  Each
    is counted alone by _layer_sequence, its rows lifted by CRT with I at
    the other primes, and |T| is the product of their orders; a prime with
    e = 1 adds nothing.  When every seed has det 1, N lies in SL2, and
    each image's ceiling is SL2 rather than GL2.  N is returned with its
    order recorded and is not materialized.
    """
    n = G.modulus
    gens = []
    for s in seeds:
        t = _reduced(s, n)
        if t != TID and t not in gens:
            gens.append(t)
    if not gens:
        return FiniteMatrixGroup(n, (), 1)
    factors = _prime_factors(n)
    r = math.prod(factors)
    clo = _Closure(r)
    lifts = [x for x in gens if clo.add_gen(x)]
    conj = [(g, tinv(g, n)) for g in G.generator_tuples]
    conjugates = []
    for s in lifts:  # grows while it is walked
        for g, gi in conj:
            c = tmul(tmul(g, s, n), gi, n)
            conjugates.append(c)
            if clo.add_gen(c):
                lifts.append(c)
    if r == n:
        return _closed(clo)

    def low(x):
        return tuple(v % r for v in x)

    lifts_low = {s: low(s) for s in lifts}
    trans, schreier = _schreier(lifts, n, low(TID),
                                lambda q, s: tmul(q, lifts_low[s], r))
    inverse = {}

    def to_kernel(x):
        u = low(x)
        if u not in inverse:
            inverse[u] = tinv(trans[u], n)
        return tmul(inverse[u], x, n)

    rank = 3 if all(tdet(x, n) == 1 for x in gens) else 4
    layered = [(p, e) for p, e in factors.items() if e > 1]
    streams = itertools.tee(
        itertools.chain(map(to_kernel, gens + conjugates), schreier),
        len(layered))
    seq, order = [], len(trans)
    for (p, e), stream in zip(layered, streams):
        q = p ** e
        part, size = _layer_sequence(
            p, e, rank, [(_reduced(g, q), _reduced(gi, q)) for g, gi in conj],
            (_reduced(x, q) for x in stream))
        seq += [tcrt(x, q, TID, n // q) for x in part]
        order *= size
    return FiniteMatrixGroup(n, lifts + seq, order)


def _commutators(G: FiniteMatrixGroup) -> list:
    """The commutators x y x^-1 y^-1 of G's generators x before y.  [G, G]
    is their normal closure, since [y, x] = [x, y]^-1 and [x, x] = I, so a
    normal subgroup H holds [G, G], that is G/H is abelian, exactly when
    it holds them."""
    n = G.modulus
    pairs = ((g, tinv(g, n)) for g in G.generator_tuples)
    return [tmul(tmul(x, y, n), tmul(xi, yi, n), n)
            for (x, xi), (y, yi) in itertools.combinations(pairs, 2)]


def derived_subgroup(G: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Commutator subgroup [G, G] (normal closure of generator
    commutators)."""
    return normal_closure(G, _commutators(G))


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


class FiniteAbelianGroup:
    """A finite abelian group in cyclic-invariant form d1 | d2 | ...

    Elements are exponent vectors with respect to the invariant basis.
    When built from a concrete group, ``basis`` holds the concrete basis
    labels and ``log``/``unlog`` translate between labels and vectors.
    Equality, hashing and the repr see ``invariants`` and ``basis`` only.
    """

    def __init__(self, invariants: tuple, basis: tuple = (),
                 _log: dict | None = None):
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_log", {} if _log is None else _log)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.invariants, self.basis) == (other.invariants, other.basis)

    def __hash__(self):
        return hash((self.invariants, self.basis))

    def __repr__(self):
        return (f"FiniteAbelianGroup(invariants={self.invariants!r}, "
                f"basis={self.basis!r})")

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

    def log(self, label):
        """Exponent vector of a concrete carrier label."""
        return self._log[label]

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
        the group law, which the caller guarantees to be commutative (unit
        groups are; ``quotient_group`` checks it exactly on generators
        first).
        """
        elems = sorted(set(elements))
        n = len(elems)
        if n == 1:
            return cls((), (), {elems[0]: ()})
        power, _ = _power_order(mul, identity)

        basis = []  # (label, order) with orders forming primary pieces
        for p, e in _prime_factors(n).items():
            sylow = [x for x in elems if power(x, p ** e) == identity]
            basis.extend(_p_basis(sylow, mul, identity))

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


def _power_order(mul, identity):
    """power(x, k) = x^k by repeated squaring and the order order(x, p),
    cached, of an element x of a p-group, by repeated p-th powers, for the
    group law ``mul``."""
    orders = {}

    def power(x, k):
        r = identity
        b = x
        while k:
            if k & 1:
                r = mul(r, b)
            b = mul(b, b)
            k >>= 1
        return r

    def order(x, p):
        if x not in orders:
            o = 1
            y = x
            while y != identity:
                y = power(y, p)
                o *= p
            orders[x] = o
        return orders[x]

    return power, order


def _p_basis(elems, mul, identity):
    """Basis of an abelian p-group given as a concrete element list."""
    if len(elems) == 1:
        return []
    p = min(_prime_factors(len(elems)))
    power, order = _power_order(mul, identity)
    a = min(elems, key=lambda x: (-order(x, p), x))
    oa = order(a, p)
    cyc = []
    x = identity
    for _ in range(oa):
        cyc.append(x)
        x = mul(x, a)
    # quotient by <a>: canonical representative = least element of the coset
    reps, rep_of = _cosets(elems, cyc, mul)
    qbasis = _p_basis(reps, lambda r1, r2: rep_of[mul(r1, r2)],
                      rep_of[identity])
    out = [(a, oa)]
    for b, q in qbasis:
        # lift: adjust by a power of a so the lift's order equals q
        for t in range(oa):
            cand = mul(b, power(a, t))
            if order(cand, p) == q:
                out.append((cand, q))
                break
        else:
            raise AssertionError("p-group basis lift failed")
    return out


def quotient_group(G: FiniteMatrixGroup, H: FiniteMatrixGroup):
    """Abelian quotient G/H with the coset-to-vector map.

    Returns (FiniteAbelianGroup, eta) where eta maps an element tuple of G
    to its exponent vector in the quotient.  Raises NotNormal if H is not
    normal in G, and NotAbelian if G/H is not abelian: with H normal, that
    holds exactly when a commutator of two generators of G lies outside H.
    """
    n = G.modulus
    if not H <= G:
        raise NotASubgroup("H is not a subgroup of G")
    hset = H.element_set
    for g in G.generator_tuples:
        gi = tinv(g, n)
        for h in H.generator_tuples:
            if tmul(tmul(g, h, n), gi, n) not in hset:
                raise NotNormal("H is not normal in G")
    if not all(c in hset for c in _commutators(G)):
        raise NotAbelian("G/H is not abelian")
    reps, rep_of = _cosets(G.element_set, hset, lambda x, h: tmul(x, h, n))
    Q = FiniteAbelianGroup.from_concrete(
        reps, lambda r1, r2: rep_of[tmul(r1, r2, n)],
        rep_of[_reduced(TID, n)])

    def eta(x):
        return Q.log(rep_of[_reduced(x, n)])

    return Q, eta


@lru_cache(maxsize=None)
def unit_group(M: int) -> FiniteAbelianGroup:
    """(Z/MZ)^x in cyclic-invariant form, with unit labels as carrier."""
    units = [u for u in range(1, M + 1) if math.gcd(u, M) == 1] or [0]
    if M == 1:
        return FiniteAbelianGroup((), (), {1 % M: ()})
    return FiniteAbelianGroup.from_concrete(
        units, lambda x, y: (x * y) % M, 1 % M)


class AbelianHom:
    """Homomorphism between abelian groups in invariant form, given by the
    images of the cyclic generators: ``images`` holds one target vector
    per source invariant generator, reduced on construction."""

    def __init__(self, source: FiniteAbelianGroup, target: FiniteAbelianGroup,
                 images: tuple):
        images = tuple(
            tuple(a % e for a, e in zip(img, target.invariants))
            for img in images)
        for d, img in zip(source.invariants, images):
            if any((d * a) % e != 0 for a, e in zip(img, target.invariants)):
                raise NotAHomomorphism(
                    f"generator of order {d} mapped to element of "
                    f"incompatible order")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.images) == \
            (other.source, other.target, other.images)

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        return (f"AbelianHom(source={self.source!r}, "
                f"target={self.target!r}, images={self.images!r})")

    def __call__(self, vec):
        out = self.target.identity
        for k, img in zip(vec, self.images):
            out = self.target.add(out, self.target.scale(k, img))
        return out


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


def all_subgroups_up_to_conjugacy(G: FiniteMatrixGroup):
    """All subgroups of G up to conjugacy in G, as element frozensets.

    Joins of cyclic subgroups of prime-power order (which generate every
    subgroup), deduplicated by conjugation inside G.  Exponential in the
    worst case; meant for ambient orders up to a few hundred (SL2(Z/N),
    N <= 8).
    """
    n = G.modulus
    gelems = G.elements
    half = len(gelems) // 2

    cyc_gens = {}    # cyclic subgroup of prime-power order -> a generator
    for x in gelems:
        c = frozenset(_Closure(n, [x]).seen)
        if len(_prime_factors(len(c))) <= 1:
            cyc_gens.setdefault(c, x)
    cyclic = sorted(cyc_gens, key=lambda s: (len(s), sorted(s)))

    def canonical(span, gens):
        """Least conjugate (by sorted element tuple) of the subgroup set
        ``span``, and its generators ``gens`` conjugated onto it.

        Conjugation by g and by g*h (h in the subgroup) agree, so only
        one representative per left coset of the subgroup is tried.
        """
        best = tuple(sorted(span))
        covered = set()
        for g in gelems:
            if g in covered:
                continue
            covered.update(tmul(g, h, n) for h in span)
            gi = tinv(g, n)
            c = tuple(sorted(tmul(tmul(g, x, n), gi, n) for x in span))
            if c < best:
                best, gens = c, [tmul(tmul(g, x, n), gi, n) for x in gens]
        return best, gens

    found = {}       # canonical key -> (element set, small generating list)
    seen_spans = set()   # raw spans already canonicalized
    queue = deque()
    for c in cyclic:
        key, gens = canonical(c, [cyc_gens[c]] if len(c) > 1 else [])
        if key not in found:
            found[key] = (frozenset(key), gens)
            queue.append((frozenset(key), gens))
        seen_spans.add(c)
    while queue:
        h, hgens = queue.popleft()
        for c in cyclic:
            if c <= h:
                continue
            try:
                clo = _Closure(n, hgens + [cyc_gens[c]], half)
            except ResourceExceeded:
                continue  # over half of G is all of G, added at the end
            fspan = frozenset(clo.seen)
            if fspan in seen_spans:
                continue
            seen_spans.add(fspan)
            # the generators are moved onto the canonical conjugate, so
            # that later joins extend the keyed set itself
            key, kgens = canonical(fspan, clo.gens)
            if key not in found:
                found[key] = (frozenset(key), kgens)
                queue.append((frozenset(key), kgens))
    found[tuple(sorted(gelems))] = (frozenset(gelems), [])
    return sorted((v[0] for v in found.values()),
                  key=lambda s: (len(s), sorted(s)))


def intermediate_subgroups(H: FiniteMatrixGroup, G: FiniteMatrixGroup,
                           index_over_h: int):
    """Subgroups S with H <= S <= G and [S : H] = index_over_h.

    Exhaustive: extends H by elements of G and keeps the closures of the
    right order.  <S, x> = <S, xh> for h in S, so each span S is extended
    by one x per left coset xS, the least.  No larger closure is kept, so
    each is capped at the target order, a divisor of |G|, which G's own
    closure kept under the global cap.  Returns the closed
    FiniteMatrixGroup values, sorted and deduplicated by element set, not
    by conjugacy.
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
            reps, _ = _cosets(G.element_set - span, span,
                              lambda x, h: tmul(x, h, n))
            for x in reps:
                try:
                    clo = _Closure(n, gens + [x], target)
                except ResourceExceeded:
                    continue
                bigger = clo.seen
                if target % len(bigger) != 0:
                    continue
                key = frozenset(bigger)
                if len(bigger) == target:
                    found.setdefault(key, clo)
                elif key not in new_frontier and key not in frontier:
                    new_frontier[key] = gens + [x]
        frontier = new_frontier
    return [_closed(clo)
            for _, clo in sorted(found.items(), key=lambda kv: sorted(kv[0]))]
