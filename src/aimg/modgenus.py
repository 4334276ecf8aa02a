"""Genus of the modular curve attached to an open subgroup of GL2(Zhat).

The curve is a quotient of the upper half plane by the SL2(Z)-preimage of
H = the SL2-part of ±G, so everything reduces to the right action of
S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] on the cosets H\\SL2(Z/N).  The
genus is counted, not read off that action: with d = [SL2(Z/N) : H],

- the fixed points of g in {S, ST} number d * |Cl(g) ∩ H| / |Cl(g)|,
  since Hx is fixed by g iff x g x^-1 lies in H (Cl(g) is the conjugacy
  class of g in SL2(Z/N));
- the cusps, the <T>-orbits on H\\SL2, are the H-orbits on SL2/<T>, that
  is on the primitive vectors of (Z/N)^2 (the first columns).

Neither SL2(Z/N) nor G(N) is enumerated; ``coset_action`` still builds
the explicit permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonIntegralGenus
from .matgroup import _cosets, _orbit, sl2_order
from .modmatrix import tinv, tmul
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


@lru_cache(maxsize=None)
def _conjugacy_class(g: tuple, n: int) -> frozenset:
    """The class of g in SL2(Z/n): its orbit under conjugation by S and T,
    which generate SL2(Z/n)."""
    moves = [lambda x, s=s, si=tinv(s, n): tmul(tmul(s, x, n), si, n)
             for s in ((0, n - 1, 1, 0), (1, 1, 0, 1))]
    return frozenset(_orbit(g, moves))


def _fixed_points(g: tuple, hset, degree: int, n: int) -> int:
    """Fixed points of g on the d right cosets of H in SL2(Z/n):
    d * |Cl(g) ∩ H| / |Cl(g)|."""
    cls = _conjugacy_class(g, n)
    hits = degree * sum(1 for x in cls if x in hset)
    if hits % len(cls) != 0:
        raise NonIntegralGenus(
            f"fixed points of {g} mod {n}: {hits}/{len(cls)} is not an "
            f"integer")
    return hits // len(cls)


def _cusp_count(gens, n: int) -> int:
    """Orbits of the group generated by gens on the primitive vectors of
    (Z/n)^2."""
    moves = [lambda v, g=g: ((g[0] * v[0] + g[1] * v[1]) % n,
                             (g[2] * v[0] + g[3] * v[1]) % n) for g in gens]
    seen = set()
    orbits = 0
    for v in itertools.product(range(n), repeat=2):
        if v not in seen and math.gcd(v[0], v[1], n) == 1:
            orbits += 1
            seen |= _orbit(v, moves)
    return orbits


def genus(G: OpenSubgroup) -> GenusData:
    """Genus of the curve, with the (d, e2, e3, eInf) breakdown.

    g = 1 + d/12 - e2/4 - e3/3 - eInf/2 where e2, e3 count the cosets of
    the SL2-part H of ±G fixed by S and ST and eInf counts T-orbits (cusps);
    see the module docstring for how each is counted.  H is
    intersect_sl2(G.with_minus_i()), from the same ±G as in coset_action
    and recover_G0.
    """
    n = G.level
    if n == 1:
        return GenusData(0, 1, 1, 1, 1)
    H = intersect_sl2(G.with_minus_i())
    hset = H.element_set
    d = sl2_order(n) // len(hset)
    e2 = _fixed_points((0, n - 1, 1, 0), hset, d, n)  # S
    e3 = _fixed_points((0, n - 1, 1, 1), hset, d, n)  # ST
    e_inf = _cusp_count(H.generator_tuples, n)
    num = 12 + d - 3 * e2 - 4 * e3 - 6 * e_inf
    if num % 12 != 0 or num < 0:
        raise NonIntegralGenus(
            f"d={d}, e2={e2}, e3={e3}, eInf={e_inf} gives 12g = {num}")
    return GenusData(num // 12, d, e2, e3, e_inf)
