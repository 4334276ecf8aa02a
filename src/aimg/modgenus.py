"""Genus of the modular curve attached to an open subgroup of GL2(Zhat).

The curve is a quotient of the upper half plane by the SL2(Z)-preimage of
H = the SL2-part of ±G, so everything reduces to the right action of
S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] on the d = [SL2(Z/N) : H] cosets
H\\SL2(Z/N).  The genus is counted, not read off that action, from three
sums over the elements of H of class functions of SL2(Z/N):

- g in {S, ST} fixes Hx iff x g x^-1 lies in H, so it fixes
  d |Cl(g) ∩ H| / |Cl(g)| = |C(g)| #{h in H : h ~ g} / |H| cosets, where
  Cl(g) is the conjugacy class of g and C(g) its centralizer;
- the cusps, the <T>-orbits on H\\SL2, are the H-orbits on SL2/<T>, that
  is on the primitive vectors of (Z/N)^2 (the first columns); by Burnside
  they number sum_h Fix(h) / |H|, Fix(h) the primitive vectors h fixes.

Both class functions factor over the prime powers q = p^k exactly dividing
N, since SL2(Z/N) is the product of the SL2(Z/q) by CRT.  The classes of a
product are the products of classes, so h ~ g iff h mod q lies in
Cl_q(g mod q) for every q, and |C(g)| is the product of the |C_q(g)|.

Cl_q(S) and Cl_q(ST) are decided by a closed form (the classes of
SL2(Z/p^k) are classical: Nobs, "Die irreduziblen Darstellungen der
Gruppen SL2(Z_p)", 1976).  Let g be S or ST, t = tr g (0 or 1) and
chi = x^2 - t x + 1, and let h = (a, b, c, d) lie in SL2(Z/q).  If h is
not scalar mod p, some v in {e1, e2, e1 + e2} is no eigenvector of h
mod p (those are three lines of F_p^2, and the eigenvectors of a
non-scalar matrix fill at most two), so X = [v | hv] is invertible, with
det X = c, -b or c + d - a - b, and X^-1 h X = [[0, -1], [1, tr h]] is
the companion matrix of h's characteristic polynomial x^2 - (tr h) x + 1.
Hence such an h is conjugate to g in GL2(Z/q) iff tr h = t mod q.  Two
such X differ by an element of the centralizer of the companion matrix in
GL2, the units of R = Z/q[x]/(chi), whose determinant is the norm; so
h ~ g in SL2(Z/q) iff det X_h / det X_g is a norm from R^x, and
det X_g = 1 (v = e1, c = 1 for both S and ST).  The norm maps R^x onto
(Z/q)^x when R is split or unramified (Hensel's lemma over the norm of
F_p^2 / F_p).  R is ramified only at p | disc chi: p = 2 for S
(disc -4) and p = 3 for ST (disc -3), where the norms a^2 + b^2 and
a^2 + ab + b^2 are the units = 1 mod 4 and = 1 mod 3 (mod 2 when q = 2).
A matrix scalar mod p is in neither class, as S and ST are not scalar
mod p.  So, with x the first of (c, -b, c + d - a - b) that is a unit
mod p:

    h ~ S  iff tr h = 0 mod q, x exists, and x = 1 mod 4 if p = 2 < q;
    h ~ ST iff tr h = 1 mod q, x exists, and x = 1 mod 3 if p = 3.

C_q(g) in SL2 is the kernel of the norm on R^x, so |C_q(g)| is |R^x|
over the number of norms: q - q/p when chi splits mod p (p = 1 mod 4 for
S, p = 1 mod 3 for ST), q + q/p when it is inert (p = 3 mod 4;
p = 2 mod 3), 2q at the ramified prime (q = 2^k >= 4 for S, q = 3^k for
ST), and 2 for S at q = 2.

Fix(h) is the product of the Fix_q(h mod q), read off the Smith form
diag(p^a, p^b) of the integer lift M of h - I: p^a is the p-part of the
gcd of M's entries and p^(a+b) that of det M.  A primitive v fixed mod
p^k is a solution of M v = 0 mod p^k (there are p^(min(a,k) + min(b,k)))
that is not p times a solution mod p^(k-1) (there are
p^(min(a,k-1) + min(b,k-1))); only a <= k and det M mod p^(a+k) matter,
so both valuations are capped there.

No conjugacy class is walked, and neither SL2(Z/N) nor G(N) is
enumerated; ``coset_action`` still builds the explicit permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonIntegralGenus
from .matgroup import _cosets, _prime_factors, sl2_order
from .modmatrix import tmul
from .opengroup import OpenSubgroup, full_sl2, intersect_sl2

__all__ = ["CosetAction", "GenusData", "coset_action", "genus"]


@dataclass(frozen=True)
class CosetAction:
    """Right-coset action of SL2(Z/N) restricted to S, T and ST.

    ``perm_s[i]`` is the index of coset_i * S; composition convention is
    left-to-right, so ``perm_st[i] == perm_t[perm_s[i]]``.
    """

    modulus: int
    degree: int
    perm_s: tuple
    perm_t: tuple
    perm_st: tuple


def coset_action(G: OpenSubgroup) -> CosetAction:
    """The action of S and T on right cosets of the SL2-part of ±G."""
    Gpm = G.with_minus_i()
    n = Gpm.level
    if n == 1:
        return CosetAction(1, 1, (0,), (0,), (0,))
    H = intersect_sl2(Gpm)
    reps, rep_of = _cosets(full_sl2(n).elements, H.element_set,
                           lambda x, h: tmul(h, x, n))
    index = {r: i for i, r in enumerate(reps)}
    d = len(reps)

    S = (0, -1 % n, 1, 0)
    T = (1, 1, 0, 1)
    perm_s = tuple(index[rep_of[tmul(r, S, n)]] for r in reps)
    perm_t = tuple(index[rep_of[tmul(r, T, n)]] for r in reps)
    perm_st = tuple(perm_t[perm_s[i]] for i in range(d))
    return CosetAction(n, d, perm_s, perm_t, perm_st)


@dataclass(frozen=True)
class GenusData:
    genus: int
    degree: int
    e2: int
    e3: int
    e_inf: int


def _valuation(x: int, p: int, cap: int) -> int:
    """The exponent of p in x, capped at cap (x = 0 gives cap)."""
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def _fixed_vectors(h: tuple, p: int, k: int) -> int:
    """Fix_q(h): the primitive vectors of (Z/p^k)^2 fixed by h, from the
    Smith form of the integer lift of h - I (see the module docstring)."""
    m = (h[0] - 1, h[1], h[2], h[3] - 1)
    if (m[0] + m[3]) % p:
        return 0  # no eigenvalue 1 mod p, so only v = 0 mod p is fixed
    a = min(_valuation(x, p, k) for x in m)
    b = _valuation(m[0] * m[3] - m[1] * m[2], p, a + k) - a
    return p ** (a + b) - p ** (min(a, k - 1) + min(b, k - 1))


def _classes(h: tuple, p: int, q: int) -> tuple:
    """(h ~ S, h ~ ST) in SL2(Z/q), q a power of p, by the closed form of
    the module docstring."""
    t = (h[0] + h[3]) % q
    x = next((x for x in (h[2], -h[1], h[2] + h[3] - h[0] - h[1])
              if x % p), None)
    if t > 1 or x is None:  # no trace of S or ST, or scalar mod p
        return False, False
    if t == 0:
        return p != 2 or x % min(q, 4) == 1, False
    return False, p != 3 or x % 3 == 1


def _centralizer_orders(p: int, q: int) -> tuple:
    """(|C_q(S)|, |C_q(ST)|) in SL2(Z/q), q a power of p (see the module
    docstring)."""
    if p == 2:
        cent_s = 2 if q == 2 else 2 * q
    else:
        cent_s = q - q // p if p % 4 == 1 else q + q // p
    cent_st = 2 * q if p == 3 else q - q // p if p % 3 == 1 else q + q // p
    return cent_s, cent_st


def _class_sums(elements, n: int) -> tuple:
    """#{h ~ S}, #{h ~ ST} and the sum of Fix(h) over ``elements`` (tuples
    mod n), each read off the residues mod the prime powers q exactly
    dividing n, memoized per residue."""
    parts = [(p ** k, p, k, {}) for p, k in _prime_factors(n).items()]
    hits_s = hits_st = fixed = 0
    for h in elements:
        # all three vanish unless tr h is tr S = 0, tr ST = 1 or 2 mod n:
        # h fixing a primitive v is [[1, *], [0, 1]] in a basis (v, w)
        if (h[0] + h[3]) % n > 2:
            continue
        in_s = in_st = True
        fix = 1
        for q, p, k, memo in parts:
            r = (h[0] % q, h[1] % q, h[2] % q, h[3] % q)
            local = memo.get(r)
            if local is None:
                local = memo[r] = (*_classes(r, p, q),
                                   _fixed_vectors(r, p, k))
            in_s = in_s and local[0]
            in_st = in_st and local[1]
            fix *= local[2]
        hits_s += in_s
        hits_st += in_st
        fixed += fix
    return hits_s, hits_st, fixed


def _exact(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise NonIntegralGenus(f"{what}: {num}/{den} is not an integer")
    return num // den


def genus(G: OpenSubgroup) -> GenusData:
    """Genus of the curve, with the (d, e2, e3, eInf) breakdown.

    g = 1 + d/12 - e2/4 - e3/3 - eInf/2 where e2, e3 count the cosets of
    the SL2-part H of ±G fixed by S and ST and eInf counts T-orbits (cusps).
    H is intersect_sl2(G.with_minus_i()), from the same ±G as in
    coset_action and recover_G0, and is the one group materialized:

        e2 = |C(S)| #{h in H : h ~ S} / |H|,
        e3 = |C(ST)| #{h in H : h ~ ST} / |H|,
        eInf = sum over h in H of Fix(h) / |H|,

    with class membership and Fix read one prime power at a time (CRT
    classes, Burnside, the Smith-form count; see the module docstring).
    """
    n = G.level
    if n == 1:
        return GenusData(0, 1, 1, 1, 1)
    hset = intersect_sl2(G.with_minus_i()).element_set
    order = len(hset)
    d = sl2_order(n) // order
    cent_s = cent_st = 1
    for p, k in _prime_factors(n).items():
        local_s, local_st = _centralizer_orders(p, p ** k)
        cent_s *= local_s
        cent_st *= local_st
    hits_s, hits_st, fixed = _class_sums(hset, n)
    e2 = _exact(cent_s * hits_s, order, f"fixed points of S mod {n}")
    e3 = _exact(cent_st * hits_st, order, f"fixed points of ST mod {n}")
    e_inf = _exact(fixed, order, f"cusps mod {n}")
    num = 12 + d - 3 * e2 - 4 * e3 - 6 * e_inf
    if num % 12 != 0 or num < 0:
        raise NonIntegralGenus(
            f"d={d}, e2={e2}, e3={e3}, eInf={e_inf} gives 12g = {num}")
    return GenusData(num // 12, d, e2, e3, e_inf)
