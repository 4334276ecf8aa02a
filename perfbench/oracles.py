"""Independent answers for the benchmark's correctness checks.

Nothing here imports aimg.  Matrices are plain (a, b, c, d) tuples and the
group arithmetic comes from tests/oracle_helpers.py, which is shared with
the test suite and written from first principles.  ``in_child`` runs an
oracle in a forked process, so that its data stays out of the benchmark's
peak RSS.
"""

import itertools
import json
import math
import os
import traceback
from fractions import Fraction

from oracle_helpers import bfs_closure, mat_mul, squarefree_kernel


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def tuple_det(x, n):
    return (x[0] * x[3] - x[1] * x[2]) % n


def mat_inv(x, n):
    di = pow(tuple_det(x, n), -1, n)
    return ((x[3] * di) % n, (-x[1] * di) % n, (-x[2] * di) % n,
            (x[0] * di) % n)


def random_gl2(rng, n):
    """A uniformly random element of GL2(Z/n)."""
    while True:
        x = tuple(rng.randrange(n) for _ in range(4))
        if math.gcd(tuple_det(x, n), n) == 1:
            return x


def conjugate(gens, g, n):
    """The presentation g x g^-1 of the conjugate group."""
    gi = mat_inv(g, n)
    return tuple(mat_mul(mat_mul(g, x, n), gi, n) for x in gens)


def unit_generators(n):
    """A small generating set of (Z/n)^x, chosen greedily."""
    span = {1 % n}
    gens = []
    for u in range(2, n):
        if math.gcd(u, n) != 1 or u in span:
            continue
        gens.append(u)
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % n
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return gens


def kronecker(a, n):
    """Kronecker symbol (a / n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    return (math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


# --- genus of X0(N) and X1(N): the classical closed forms ---------------

def genus_x0(N):
    """g(X0(N)) = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2."""
    ps = prime_factors(N)
    mu = N
    for p in ps:
        mu = mu * (p + 1) // p
    nu2 = 0 if N % 4 == 0 else math.prod(1 + kronecker(-4, p) for p in ps)
    nu3 = 0 if N % 9 == 0 else math.prod(1 + kronecker(-3, p) for p in ps)
    nu_inf = sum(euler_phi(math.gcd(d, N // d)) for d in divisors(N))
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(nu_inf, 2)
    return int(g)


def genus_x1(N):
    """g(X1(N)) = 1 + (N^2/24) prod (1 - p^-2) - (1/4) sum phi(d) phi(N/d)
    for N >= 5; X1(N) has genus 0 below."""
    if N < 5:
        return 0
    mu = Fraction(N * N, 24)
    for p in prime_factors(N):
        mu *= Fraction(p * p - 1, p * p)
    cusps = sum(euler_phi(d) * euler_phi(N // d) for d in divisors(N))
    return int(1 + mu - Fraction(cusps, 4))


# --- condition and curve-membership answers ---------------------------

def squarefree_not_pm1(v):
    """The 2A-2A table condition together with the J(v) guard, J = t + 1728:
    v a squarefree integer other than +-1, and J(v) not in {0, 1728}."""
    v = Fraction(v)
    if v.denominator != 1 or v == 0:
        return False
    v = int(v)
    return squarefree_kernel(v) == v and v not in (1, -1) \
        and v + 1728 not in (0, 1728)


# --- brute-force preimages and family members --------------------------

def preimage(gens, level, L):
    """All of GL2(Z/L) whose reduction mod level lies in the closure of
    gens (every invertible tuple when level is 1).  Enumerates all L^4
    tuples, so L stays small."""
    image = bfs_closure(gens, level) if level > 1 else None
    out = []
    for x in itertools.product(range(L), repeat=4):
        if math.gcd(tuple_det(x, L), L) != 1:
            continue
        if image is not None and tuple(v % level for v in x) not in image:
            continue
        out.append(x)
    return out


def coset_labels(g0_base, h_base, base):
    """Each element x of G0(base) mapped to the least element of xH."""
    return {x: min(mat_mul(x, y, base) for y in h_base) for x in g0_base}


def character(unit_images, M, base, label):
    """The character of (Z/M)^x into G0/H as a map unit -> coset label.

    ``unit_images`` maps each unit of a generating set to an element of
    G0(base) in its coset.  Every unit is reached as a product of the
    generators; ValueError when two products disagree on a coset, or when
    the generators miss a unit."""
    reps = {1 % M: (1 % base, 0, 0, 1 % base)}
    frontier = [1 % M]
    while frontier:
        nxt = []
        for u in frontier:
            for g, img in unit_images.items():
                w, rep = u * g % M, mat_mul(reps[u], img, base)
                if w not in reps:
                    reps[w] = rep
                    nxt.append(w)
                elif label[reps[w]] != label[rep]:
                    raise ValueError(f"phi is not well defined at unit {w}")
        frontier = nxt
    if sorted(reps) != [u for u in range(M) if math.gcd(u, M) == 1]:
        raise ValueError("the unit images do not generate (Z/M)^x")
    return {u: label[rep] for u, rep in reps.items()}


def conductor(chi, M):
    """Smallest divisor M' of M with chi trivial on the units = 1 mod M'."""
    trivial = chi[1 % M]
    return next(Mp for Mp in divisors(M)
                if all(c == trivial for u, c in chi.items()
                       if (u - 1) % Mp == 0))


def member_kernel(g0_elems, label, chi, base, M, L):
    """{g in G0(L) : gH = chi(det g mod M)}, cosets taken at the base
    level."""
    return {g for g in g0_elems
            if label[tuple(v % base for v in g)] == chi[tuple_det(g, L) % M]}


# --- isolation ------------------------------------------------------------

def in_child(fn):
    """fn() computed in a forked child process, so that the memory it
    allocates stays out of the benchmark process's peak RSS.  The result
    must be JSON-serializable; an exception in fn is raised here as
    RuntimeError.  The benchmark runs no threads, so forking is safe."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            try:
                data = {"value": fn()}
            except Exception as e:  # noqa: BLE001 - reported to parent
                data = {"error": "".join(
                    traceback.format_exception_only(e)).strip()}
            with os.fdopen(w, "w") as f:
                json.dump(data, f)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as f:
        text = f.read()
    os.waitpid(pid, 0)
    if not text:
        raise RuntimeError("oracle child exited without an answer")
    data = json.loads(text)
    if "error" in data:
        raise RuntimeError(data["error"])
    return data["value"]
