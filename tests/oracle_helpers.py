"""Independent oracles shared by the module tests and the acceptance suite.

Everything here is written from first principles on integer tuples and
deliberately avoids the library's own group machinery.
"""

import functools
import itertools
import math


def mat_mul(x, y, n):
    return (
        (x[0] * y[0] + x[1] * y[2]) % n,
        (x[0] * y[1] + x[1] * y[3]) % n,
        (x[2] * y[0] + x[3] * y[2]) % n,
        (x[2] * y[1] + x[3] * y[3]) % n,
    )


@functools.lru_cache(maxsize=None)
def sl2_elements(n):
    """All of SL2(Z/n) as tuples, by scanning every 4-tuple mod n."""
    if n == 1:
        return ((0, 0, 0, 0),)
    return tuple(t for t in itertools.product(range(n), repeat=4)
                 if (t[0] * t[3] - t[1] * t[2]) % n == 1)


def bfs_closure(gens, n):
    ident = (1 % n, 0, 0, 1 % n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g, n)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@functools.lru_cache(maxsize=None)
def gl2_elements(n):
    """All of GL2(Z/n) as tuples, by scanning every 4-tuple mod n."""
    return tuple(t for t in itertools.product(range(n), repeat=4)
                 if math.gcd((t[0] * t[3] - t[1] * t[2]) % n, n) == 1)


def preimage(gens, m, L):
    """The full preimage in GL2(Z/L) of the closure of gens mod m, for
    m | L: every invertible tuple mod L whose reduction lies in it."""
    image = bfs_closure(gens, m)
    return {t for t in gl2_elements(L) if tuple(v % m for v in t) in image}


def mat_inv(x, n):
    """Inverse mod n by the adjugate (x must be invertible mod n)."""
    di = pow((x[0] * x[3] - x[1] * x[2]) % n, -1, n)
    return ((x[3] * di) % n, (-x[1] * di) % n,
            (-x[2] * di) % n, (x[0] * di) % n)


def conjugacy_class(x, elems, n):
    """The class of x in the group ``elems`` (tuples mod n): g x g^-1 for
    every g in it."""
    return {mat_mul(mat_mul(g, x, n), mat_inv(g, n), n) for g in elems}


def normal_closure(gens, seeds, n):
    """The smallest subgroup that holds ``seeds`` and is closed under
    conjugation by ``gens``: a BFS closure of the seeds, re-run with every
    conjugate g s g^-1 (g in gens, s a generator so far) that falls
    outside it, until none does."""
    sub = list(seeds)
    inverses = [mat_inv(g, n) for g in gens]
    while True:
        span = bfs_closure(sub, n)
        outside = {mat_mul(mat_mul(g, s, n), gi, n)
                   for g, gi in zip(gens, inverses) for s in sub} - span
        if not outside:
            return span
        sub += sorted(outside)


def normal_subgroups(elems, n):
    """All normal subgroups of the finite group ``elems`` (tuples mod n),
    as frozensets: the unions of conjugacy classes that contain the
    identity, have an order dividing |G| and are closed under mat_mul.
    A union U is closed once x*y lies in U for one x per class in U and
    every y in U, since (g x g^-1) y = g (x g^-1 y g) g^-1."""
    elems = sorted(elems)
    ident = (1 % n, 0, 0, 1 % n)
    classes = []
    seen = set()
    for x in elems:
        if x not in seen:
            cls = frozenset(conjugacy_class(x, elems, n))
            seen |= cls
            classes.append((x, cls))
    rest = [c for c in classes if ident not in c[1]]
    out = set()
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            union = {ident}.union(*(cls for _, cls in chosen))
            if len(elems) % len(union):
                continue
            if all(mat_mul(x, y, n) in union
                   for x, _ in chosen for y in union):
                out.add(frozenset(union))
    return out


def coset_permutations(h_elems, n):
    """Permutations of the right cosets of H in SL2(Z/n) under right
    multiplication by S, T and ST.  H gets -I adjoined first: -I is
    central, so the subgroup +-H is H together with -H."""
    minus_i = ((-1) % n, 0, 0, (-1) % n)
    h = set(h_elems) | {mat_mul(minus_i, x, n) for x in h_elems}
    ambient = sl2_elements(n)
    coset_of = {}
    reps = []
    for g in sorted(ambient):
        if g in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for x in h:
            coset_of[mat_mul(x, g, n)] = idx
    S = (0, (-1) % n, 1 % n, 0)
    T = (1 % n, 1 % n, 0, 1 % n)
    perm_s = [coset_of[mat_mul(r, S, n)] for r in reps]
    perm_t = [coset_of[mat_mul(r, T, n)] for r in reps]
    perm_st = [perm_t[perm_s[i]] for i in range(len(reps))]
    return perm_s, perm_t, perm_st


def cycle_count(perm):
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return count


def riemann_hurwitz_genus(h_elems, n):
    """Genus of the modular curve of H by Riemann-Hurwitz over the j-line:
    2g - 2 = -2d + sum over the three branch monodromies of (d - #cycles).
    """
    perm_s, perm_t, perm_st = coset_permutations(h_elems, n)
    d = len(perm_s)
    ram = sum(d - cycle_count(p) for p in (perm_s, perm_st, perm_t))
    two_g_minus_2 = -2 * d + ram
    assert two_g_minus_2 % 2 == 0
    return (two_g_minus_2 + 2) // 2


def _primes_dividing(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, p))]


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def modular_curve_counts(curve, N):
    """(mu, nu2, nu3, cusps) of X0(N), or of X1(N) for N >= 5, by the
    classical formulas.  X0(N): mu = N prod (1 + 1/p),
    nu2 = prod (1 + (-1/p)) unless 4 | N, nu3 = prod (1 + (-3/p)) unless
    9 | N, cusps = sum phi(gcd(d, N/d)).  X1(N), N >= 5: no elliptic
    points, index mu = N^2/2 prod (1 - 1/p^2) in PSL2(Z) and
    sum phi(d) phi(N/d) / 2 cusps."""
    primes = _primes_dividing(N)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    if curve == "X1":
        assert N >= 5
        mu = N * N
        for p in primes:
            mu = mu // (p * p) * (p * p - 1)
        cusps = sum(_phi(d) * _phi(N // d) for d in divisors) // 2
        return mu // 2, 0, 0, cusps
    mu = N
    for p in primes:
        mu = mu // p * (p + 1)
    nu2 = 0 if N % 4 == 0 else math.prod(
        1 if p == 2 else 1 + (1 if p % 4 == 1 else -1) for p in primes)
    nu3 = 0 if N % 9 == 0 else math.prod(
        1 if p == 3 else 1 + (1 if p % 3 == 1 else -1) for p in primes)
    cusps = sum(_phi(math.gcd(d, N // d)) for d in divisors)
    return mu, nu2, nu3, cusps


def _genus_from_counts(mu, nu2, nu3, cusps):
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusps
    assert twelve_g % 12 == 0
    return twelve_g // 12


def x0_genus(N):
    """g(X0(N)) = 1 + mu/12 - nu2/4 - nu3/3 - cusps/2 with the classical
    counts of modular_curve_counts."""
    return _genus_from_counts(*modular_curve_counts("X0", N))


def x1_genus(N):
    """g(X1(N)): 0 for N <= 4, else from the classical counts."""
    if N <= 4:
        return 0
    return _genus_from_counts(*modular_curve_counts("X1", N))


def fixed_vector_counts(n):
    """For every h in SL2(Z/n), the number of primitive vectors of
    (Z/n)^2 it fixes (0 omitted), by listing the pairs (v, h) with
    h v = v: for each primitive v = (x, y), every row (a, b) with
    a x + b y = x is joined with every row (c, d) with c x + d y = y and
    kept when ad - bc = 1."""
    rows = list(itertools.product(range(n), repeat=2))
    counts = {}
    for x, y in rows:
        if math.gcd(x, y, n) != 1:
            continue
        top = [r for r in rows if (r[0] * x + r[1] * y) % n == x]
        bottom = [r for r in rows if (r[0] * x + r[1] * y) % n == y]
        for a, b in top:
            for c, d in bottom:
                if (a * d - b * c) % n == 1:
                    h = (a, b, c, d)
                    counts[h] = counts.get(h, 0) + 1
    return counts


def sl2_size(n):
    """|SL2(Z/n)| = n^3 prod over p | n of (1 - 1/p^2), primes found by
    trial division."""
    out = n ** 3
    for p in prime_support(n):
        out = out // (p * p) * (p * p - 1)
    return out


def squarefree_kernel(n):
    """Squarefree part of a nonzero integer by trial division."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def prime_support(n):
    """The set of primes dividing n >= 1, by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def quad_disc(d):
    """Discriminant of Q(sqrt(d)) for squarefree d != 0, 1."""
    return d if d % 4 == 1 else 4 * d


def quad_in_cyclotomic(d, n):
    """Q(sqrt(d)) lies in Q(zeta_n) iff |disc(Q(sqrt(d)))| divides n
    (conductor-discriminant; the Gauss sum realizes sqrt(disc) in
    Q(zeta_|disc|))."""
    return n % abs(quad_disc(d)) == 0


def biquadratic_factor_degrees(p, q):
    """Degrees of the irreducible factors of x^4 + p x^2 + q over Q, for
    integers p, q, by the elementary case analysis for x^4 + a x^3 + ...:
    any factorization over Q is (x^2+ax+b)(x^2-ax+c) with rational a,b,c
    or has a rational (hence paired +-) root."""
    from fractions import Fraction

    def is_sq(r):
        if r < 0:
            return False
        num, den = r.numerator, r.denominator
        sn, sd = math.isqrt(num), math.isqrt(den)
        return sn * sn == num and sd * sd == den

    p = Fraction(p)
    q = Fraction(q)
    disc = p * p - 4 * q
    # a = 0 split: resolvent quadratic in x^2 factors
    if is_sq(disc):
        r1 = (-p + _fr_sqrt(disc)) / 2
        r2 = (-p - _fr_sqrt(disc)) / 2
        d1 = [1, 1] if is_sq(r1) else [2]
        d2 = [1, 1] if is_sq(r2) else [2]
        return sorted(d1 + d2)
    # b = c split: q must be a square, a^2 = 2b - p for b = +-sqrt(q)
    if is_sq(q):
        s = _fr_sqrt(q)
        for b in (s, -s):
            if is_sq(2 * b - p):
                return [2, 2]
    return [4]


def _fr_sqrt(r):
    from fractions import Fraction
    return Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))
