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
diag(p^a, p^b) of an integer lift M of h - I: p^a = gcd(entries of M, q)
and p^(a+b) = gcd(det M, q p^a).  A primitive v fixed mod q = p^k is a
solution of M v = 0 mod q (there are p^(min(a,k) + min(b,k))) that is
not p times a solution mod q/p (there are p^(min(a,k-1) + min(b,k-1)));
only a <= k and det M mod p^(a+k) matter, and the latter does not depend
on the lift.  When h is not I mod p and tr h = 2 mod q, a = 0 and b = k,
so Fix_q(h) = q - q/p.

H is never closed.  Its order and its elements of trace 0, 1 or 2 come
from a two-level orbit chain of ±G on the primitive vectors of (Z/N)^2
(_orbit_chain):

- Level 1.  A BFS from a base point w* gives the orbit O = ±G w* and
  words u_w in ±G with u_w w* = w.  By Schreier's lemma the
  u_(gw)^-1 g u_w generate A = Stab(w*) in ±G.  In a basis (w*, y) of
  determinant 1 the stabilizer of w* in GL2(Z/N) is the affine group of
  the [[1, beta], [0, delta]], delta the determinant, so its part in
  SL2(Z/N), the point stabilizer, is the cyclic unipotent group U of the
  [[1, beta], [0, 1]].
- Level 2.  The determinants of A's generators span Delta = delta(A),
  walked with one a_delta in A of each determinant.  The kernel A ∩ U of
  delta, generated by its Schreier generators over the a_delta, is a
  subgroup of the cyclic U: the [[1, beta], [0, 1]] with b0 | beta, b0
  the gcd of N and the beta of those generators.  Once Delta holds every
  unit and b0 = 1, A is the whole stabilizer of w* in GL2(Z/N), and no
  further Schreier generator of A can change it.
- The elements of ±G sending w* to w are u_w A, and those of
  determinant 1 among them are u_w a_delta (A ∩ U) for
  delta = det(u_w)^-1 when that lies in Delta, and none otherwise.  So H
  is the disjoint union of these fibers of N/b0 elements each, and
  |H| = #{w in O : det(u_w)^-1 in Delta} N / b0.
- On a fiber f [[1, j b0], [0, 1]], f = (a, b, c, d), the entries are
  (a, b + j b0 a, c, d + j b0 c), affine in j, and the trace is
  a + d + j b0 c.  The elements of trace t are the solutions j mod N/b0
  of the one congruence j b0 c = t - a - d mod N, so only they are
  listed.
- Every base point gives the same H; the choice only sets the cost
  |O| = |±G| / |A|.  A fixed vector of a generator h of determinant 1 and
  trace 2 keeps O small: (b, 1 - a) and (1 - d, c) lie in the kernel of
  h - I, as det(h - I) = 2 - tr h = 0, and a combination of them is
  primitive when h is not I mod any p | N (|O| = 2 for X1(N), p - 1 for
  X0(p)); with no such h, w* = e1.

The chain runs on the transposed generators, conjugated by a P in
SL2(Z/N) whose first row is w*: there w* is the row e1, the column
action is the right action on rows, and the stabilizer of e1 is the
lower triangular [[1, 0], [c, d]].  What it lists are the elements of
S^-1 P H P^-1 S (h^t = S^-1 h^-1 S), a conjugate of H in SL2(Z/N),
whose class sums are H's.

No conjugacy class is walked, and neither H, SL2(Z/N) nor G(N) is
enumerated; ``coset_action`` still builds the explicit permutations.
"""

from __future__ import annotations

import math

from .errors import NonIntegralGenus, ResourceExceeded
from .matgroup import _cosets, _prime_factors, group_size_cap, sl2_order
from .modmatrix import tmul
from .opengroup import OpenSubgroup, full_sl2, intersect_sl2

__all__ = ["CosetAction", "GenusData", "coset_action", "genus"]


class CosetAction:
    """Right-coset action of SL2(Z/N) restricted to S, T and ST.

    ``perm_s[i]`` is the index of coset_i * S; composition convention is
    left-to-right, so ``perm_st[i] == perm_t[perm_s[i]]``.
    """

    def __init__(self, modulus: int, degree: int, perm_s: tuple,
                 perm_t: tuple, perm_st: tuple):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "perm_s", perm_s)
        object.__setattr__(self, "perm_t", perm_t)
        object.__setattr__(self, "perm_st", perm_st)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.modulus, self.degree, self.perm_s, self.perm_t,
                self.perm_st)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CosetAction(modulus={self.modulus!r}, "
                f"degree={self.degree!r}, perm_s={self.perm_s!r}, "
                f"perm_t={self.perm_t!r}, perm_st={self.perm_st!r})")


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


class GenusData:
    """The genus of G's modular curve with its breakdown: the degree d of
    the map to the j-line, the elliptic points e2 and e3 of orders 2 and
    3, and the cusps e_inf."""

    def __init__(self, genus: int, degree: int, e2: int, e3: int,
                 e_inf: int):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "e3", e3)
        object.__setattr__(self, "e_inf", e_inf)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.genus, self.degree, self.e2, self.e3, self.e_inf)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"GenusData(genus={self.genus!r}, degree={self.degree!r}, "
                f"e2={self.e2!r}, e3={self.e3!r}, e_inf={self.e_inf!r})")


def _fixed_vectors(h: tuple, p: int, k: int) -> int:
    """Fix_q(h): the primitive vectors of (Z/p^k)^2 fixed by h, from the
    Smith form of the integer lift of h - I (see the module docstring)."""
    m0, m1, m2, m3 = h[0] - 1, h[1], h[2], h[3] - 1
    if (m0 + m3) % p:
        return 0  # no eigenvalue 1 mod p, so only v = 0 mod p is fixed
    q = p ** k
    r = q // p
    pa = math.gcd(m0, m1, m2, m3, q)
    pb = math.gcd(m0 * m3 - m1 * m2, q * pa) // pa
    return pa * pb - (pa if pa < r else r) * (pb if pb < r else r)


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
    dividing n.  Only tr h = 0 (S), 1 (ST) or 2 (Fix) mod n can count:
    h fixing a primitive v is [[1, *], [0, 1]] in a basis (v, w).  At
    n = 2, trace 0 is trace 2 too."""
    parts = [(p ** k, p, k) for p, k in _prime_factors(n).items()]
    # Fix(h) of an h of trace 2 that is not I mod any p | n
    generic = math.prod(q - q // p for q, p, _ in parts)
    two = 2 % n
    hits_s = hits_st = fixed = 0
    for h in elements:
        t = (h[0] + h[3]) % n
        if t == two:
            g = math.gcd(h[0] - 1, h[1], h[2], h[3] - 1, n)
            if g == 1:
                fixed += generic
            else:
                fix = 1
                for q, p, k in parts:
                    fix *= q - q // p if g % p else _fixed_vectors(h, p, k)
                fixed += fix
        if t < 2:  # S (t = 0) or ST (t = 1) in every SL2(Z/q)
            for q, p, _ in parts:
                if not _classes(h, p, q)[t]:
                    break
            else:
                if t:
                    hits_st += 1
                else:
                    hits_s += 1
    return hits_s, hits_st, fixed


def _complement(x: int, y: int, n: int) -> tuple:
    """A row z with det [(x, y); z] = 1 mod n, for (x, y) primitive mod n:
    s x + t y = gcd(x, y) by Euclid, and that gcd is a unit mod n."""
    r0, r1, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1, t0, t1 = s1, s0 - k * s1, t1, t0 - k * t1
    u = pow(r0, -1, n)
    return -t0 * u % n, s0 * u % n


def _base_point(gens, n: int) -> tuple:
    """A primitive fixed vector of the first generator h = (a, b, c, d) of
    det 1 and trace 2 that is not I mod any p | n, else e1.  The columns
    (1 - d, c) and (b, 1 - a) of adj(h - I) lie in the kernel of h - I,
    as det(h - I) = 2 - tr h = 0, and they are not both 0 mod any p | n;
    with m the product of the p where (b, 1 - a) is not 0 mod p,
    (b, 1 - a) + m (1 - d, c) is 0 mod no p."""
    for a, b, c, d in gens:
        if ((a * d - b * c) % n == 1 and (a + d) % n == 2 % n
                and math.gcd(a - 1, b, c, d - 1, n) == 1):
            m = math.prod(p for p in _prime_factors(n)
                          if math.gcd(b, 1 - a, p) == 1)
            return (b + m * (1 - d)) % n, (1 - a + m * c) % n
    return 1, 0


def _orbit_chain(gens, n: int):
    """(fibers, b0) for the SL2-part H of the group generated by ``gens``
    (tuples mod n), by the orbit chain of the module docstring, in its
    frame: H's elements there are the (I + k E21) f, b0 | k, for f in
    ``fibers`` (one per point w of the base orbit that meets H, with
    first row w), so |H| = len(fibers) * n / b0.  ResourceExceeded once
    the base orbit passes the cap.

    The stabilizer of e1 is kept as the pairs (c, d) of its elements
    [[1, 0], [c, d]], with (c, d)(c', d') = (c + d c', d d').  The
    Schreier walks are written out rather than taken from
    matgroup._schreier: on words of known first row and on these pairs
    they reduce to a few products each.
    """
    x, y = _base_point(gens, n)
    z0, z1 = _complement(x, y, n)
    P, P_inv = (x, y, z0, z1), (z1, -y % n, -z0 % n, x)
    frame = [tmul(tmul(P, (a, c, b, d), n), P_inv, n) for a, b, c, d in gens]
    cap = group_size_cap()
    units = n
    for p in _prime_factors(n):
        units = units // p * (p - 1)
    # level 1: the orbit of e1, each point w with a word t_w, e1 t_w = w,
    # kept as its second row and 1/det t_w (its first row is w), and the
    # Schreier generators t_v g t_w^-1 (w = v g) of Stab(e1) as pairs
    # (c, d).  Level 2 grows with them: the group of determinants, with
    # one a_d = (c_d, d) each, by the cosets D, D d, D d^2, ... of each
    # new d, and b0 from those of det 1.  Once every unit is a
    # determinant and b0 = 1, Stab(e1) is the whole affine group and no
    # more Schreier generators are formed.
    words = {(1, 0): (0, 1, 1)}
    orbit = [(1, 0)]
    stab = set()
    reps = {1: 0}
    b0 = n
    for v0, v1 in orbit:
        u0, u1, _ = words[v0, v1]
        for e, f, g, h in frame:
            w = ((v0 * e + v1 * g) % n, (v0 * f + v1 * h) % n)
            if w not in words:
                r0, r1 = (u0 * e + u1 * g) % n, (u0 * f + u1 * h) % n
                words[w] = (r0, r1, pow((w[0] * r1 - w[1] * r0) % n, -1, n))
                orbit.append(w)
                if len(words) > cap:
                    raise ResourceExceeded(
                        f"orbit exceeded cap {cap} ({len(words)} points "
                        f"reached)", partial=len(words))
            elif b0 > 1 or len(reps) < units:
                r0, r1 = (u0 * e + u1 * g) % n, (u0 * f + u1 * h) % n
                x0, x1, inv = words[w]
                c = (r0 * x1 - r1 * x0) * inv % n
                d = (r1 * w[0] - r0 * w[1]) * inv % n
                stab.add((c, d))
                if d == 1:
                    b0 = math.gcd(b0, c)
                elif d not in reps:
                    block = list(reps.items())
                    x, c_x = d, c
                    while x not in reps:
                        for u, c_u in block:
                            reps[u * x % n] = (c_u + u * c_x) % n
                        x, c_x = x * d % n, (c_x + x * c) % n
    # b0 from all the kernel's Schreier generators a_u s a_(u det s)^-1 =
    # (c_u + u c - c_(u d), 1), unless it is 1 already
    if b0 > 1:
        for u, c_u in reps.items():
            for c, d in stab:
                b0 = math.gcd(b0, c_u + u * c - reps[u * d % n])
            if b0 == 1:
                break
    # H meets Stab(e1) t_w in a_d t_w, d = det(t_w)^-1, when d is a det
    fibers = []
    for (w0, w1), (u0, u1, d) in words.items():
        c = reps.get(d)
        if c is not None:
            fibers.append((w0, w1, (c * w0 + d * u0) % n,
                           (c * w1 + d * u1) % n))
    return fibers, b0


def _low_trace(fibers, b0: int, n: int):
    """The elements of trace 0, 1 or 2 mod n in the fibers
    {(I + k E21) f : b0 | k} of _orbit_chain: with k = j b0, the entries
    are (a, b, c + j b0 a, d + j b0 b) and the trace a + d + j b0 b, so
    each target trace is one congruence in j mod n/b0."""
    period = n // b0
    targets = {0, 1, 2 % n}
    for a, b, c, d in fibers:
        step_c, step_d = b0 * a % n, b0 * b % n
        g = math.gcd(step_d, n)
        stride = n // g
        inv = pow(step_d // g, -1, stride)
        for t in targets:
            r = (t - a - d) % n
            if r % g == 0:
                for j in range(r // g * inv % stride, period, stride):
                    yield (a, b, (c + j * step_c) % n, (d + j * step_d) % n)


def _exact(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise NonIntegralGenus(f"{what}: {num}/{den} is not an integer")
    return num // den


def genus(G: OpenSubgroup) -> GenusData:
    """Genus of the curve, with the (d, e2, e3, eInf) breakdown.

    g = 1 + d/12 - e2/4 - e3/3 - eInf/2 where e2, e3 count the cosets of
    the SL2-part H of ±G fixed by S and ST and eInf counts T-orbits (cusps).
    ±G is G.with_minus_i(), as in coset_action and the catalog's base
    check (classifier._check_base).  H is not closed: its order and its
    elements of trace 0, 1 or 2 come from the orbit chain of ±G on the
    primitive vectors (_orbit_chain), and

        e2 = |C(S)| #{h in H : h ~ S} / |H|,
        e3 = |C(ST)| #{h in H : h ~ ST} / |H|,
        eInf = sum over h in H of Fix(h) / |H|,

    with class membership and Fix read one prime power at a time (CRT
    classes, Burnside, the Smith-form count; see the module docstring).
    """
    n = G.level
    if n == 1:
        return GenusData(0, 1, 1, 1, 1)
    fibers, b0 = _orbit_chain(
        G.with_minus_i().mod_level_group().generator_tuples, n)
    order = len(fibers) * n // b0
    d = _exact(sl2_order(n), order, f"index of the SL2-part mod {n}")
    cent_s = cent_st = 1
    for p, k in _prime_factors(n).items():
        local_s, local_st = _centralizer_orders(p, p ** k)
        cent_s *= local_s
        cent_st *= local_st
    hits_s, hits_st, fixed = _class_sums(_low_trace(fibers, b0, n), n)
    e2 = _exact(cent_s * hits_s, order, f"fixed points of S mod {n}")
    e3 = _exact(cent_st * hits_st, order, f"fixed points of ST mod {n}")
    e_inf = _exact(fixed, order, f"cusps mod {n}")
    num = 12 + d - 3 * e2 - 4 * e3 - 6 * e_inf
    if num % 12 != 0 or num < 0:
        raise NonIntegralGenus(
            f"d={d}, e2={e2}, e3={e3}, eInf={e_inf} gives 12g = {num}")
    return GenusData(num // 12, d, e2, e3, e_inf)
