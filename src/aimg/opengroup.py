"""Open subgroups of GL2(Zhat) presented by (level, generators).

The group denoted by an OpenSubgroup is the full preimage in GL2(Zhat) of
the closure of its generators mod the level (level 1 means all of
GL2(Zhat)).  The commutator engine returns [G, G] presented at a finite
level; since [G, G] sits inside SL2(Zhat), the group a CommutatorResult
denotes is the preimage of its mod-level image *within SL2(Zhat)*, not in
GL2(Zhat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ResourceExceeded, SchemaError
from .matgroup import (
    FiniteMatrixGroup,
    derived_subgroup,
    gl2_order,
    sl2_order,
    _Closure,
    _orbit,
    _prime_factors,
    _schreier,
)
from .modmatrix import ResidueMatrix, crt_combine, tdet

__all__ = [
    "OpenSubgroup",
    "CommutatorResult",
    "IndexClass",
    "full_gl2",
    "intersect_sl2",
    "det_image",
    "sl_count",
    "transpose_group",
    "minimal_level",
    "commutator_open",
    "commutator_index_class",
    "SATURATION_EXPONENT_CAP",
]

SATURATION_EXPONENT_CAP = 12


def _unit_gens(n: int):
    """Generators of (Z/nZ)^x (one per cyclic factor of the standard
    decomposition)."""
    lifted = []
    for p, e in _prime_factors(n).items():
        q = p ** e
        rest = n // q
        local = []
        if p == 2:
            if e >= 2:
                local.append(-1 % q)
            if e >= 3:
                local.append(5)
        else:
            for g in range(2, q):
                if math.gcd(g, q) != 1:
                    continue
                ok = True
                phi = q // p * (p - 1)
                for r in _prime_factors(phi):
                    if pow(g, phi // r, q) == 1:
                        ok = False
                        break
                if ok:
                    local.append(g)
                    break
        for g in local:
            if rest == 1:
                lifted.append(g % n)
            else:
                inv = pow(q, -1, rest)
                lifted.append((g + q * ((1 - g) * inv % rest)) % n)
    return lifted


def gl2_generator_matrices(n: int):
    """Standard generators of GL2(Z/nZ): the two SL2(Z) generators plus
    diag(u, 1) over unit generators."""
    if n == 1:
        return []
    gens = [ResidueMatrix(n, 1, 1, 0, 1), ResidueMatrix(n, 0, -1, 1, 0)]
    for u in _unit_gens(n):
        gens.append(ResidueMatrix(n, u, 0, 0, 1))
    return gens


@lru_cache(maxsize=None)
def full_gl2(n: int) -> FiniteMatrixGroup:
    """GL2(Z/nZ) with its order recorded, not closed.  S and T generate
    SL2(Z/nZ), because SL2(Z) -> SL2(Z/nZ) is onto, so the generators span
    GL2(Z/nZ) once the diag(u, 1) span the determinants; only that is
    checked here."""
    units = _unit_gens(n)
    assert len(_orbit(1 % n, [lambda x, u=u: x * u % n for u in units])) \
        == gl2_order(n) // sl2_order(n)
    g = FiniteMatrixGroup(n, gl2_generator_matrices(n))
    g._order = gl2_order(n)
    return g


@lru_cache(maxsize=None)
def full_sl2(n: int) -> FiniteMatrixGroup:
    if n == 1:
        return FiniteMatrixGroup(1, [ResidueMatrix.identity(1)])
    g = FiniteMatrixGroup(
        n, [ResidueMatrix(n, 1, 1, 0, 1), ResidueMatrix(n, 0, -1, 1, 0)])
    assert g.order == sl2_order(n)
    return g


def _crt_with_identity(mat: ResidueMatrix, other_modulus: int) -> ResidueMatrix:
    if other_modulus == 1:
        return mat
    return crt_combine(mat, ResidueMatrix.identity(other_modulus))


@dataclass(frozen=True)
class OpenSubgroup:
    """Full preimage in GL2(Zhat) of closure(gens) mod level."""

    level: int
    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if g.modulus != self.level:
                raise ValueError("generator modulus differs from level")

    @classmethod
    def full(cls) -> "OpenSubgroup":
        return cls(1, ())

    @classmethod
    def from_group(cls, g: FiniteMatrixGroup) -> "OpenSubgroup":
        G = cls(g.modulus, g.generators)
        # g already is the mod-level image (and may be materialized)
        G.__dict__["_mod_group"] = g
        return G

    @cached_property
    def _mod_group(self) -> FiniteMatrixGroup:
        if self.level == 1:
            return full_gl2(1)
        if not self.gens:
            return FiniteMatrixGroup(
                self.level, [ResidueMatrix.identity(self.level)])
        return FiniteMatrixGroup(self.level, self.gens)

    def mod_level_group(self) -> FiniteMatrixGroup:
        """The mod-level image (as a finite matrix group), built once per
        OpenSubgroup."""
        return self._mod_group

    def finite_image(self, L: int) -> FiniteMatrixGroup:
        """The mod-L image of the open subgroup, for level | L: the full
        preimage of the mod-level image.

        Generators: invertible lifts of the presented generators (CRT'd
        with the identity at primes not dividing the level), generators of
        the kernel of reduction L -> level at the level's primes, and full
        GL2 generators at the new primes.

        The kernel generators are I + m*E_ij.  For p^e || m with p odd or
        e >= 2 they generate the whole kernel at p, since its Frattini
        subgroup is the next layer.  For 2 || m they do not: mod 8,
        (I + 2X)^2 = I + 4(X + X^2), and X + X^2 has trace 0 mod 2, as do
        commutators, so the group they generate meets the second 2-adic
        layer only in trace-zero matrices and its determinants miss
        5 mod 8.  When 8 divides L the second layer I + 2m*E_ij is
        therefore added too; from 2-exponent 2 on, each layer is the
        square of the one before.
        """
        m = self.level
        if L % m != 0:
            raise ValueError(f"level {m} does not divide target modulus {L}")
        if m == 1:
            return full_gl2(L)
        if L == m:
            return self.mod_level_group()
        fac = _prime_factors(L)
        A = math.prod(p ** e for p, e in fac.items() if m % p == 0)
        B = L // A
        gens = []
        for g in self.gens:
            lift_a = ResidueMatrix(A, g.a, g.b, g.c, g.d)
            gens.append(_crt_with_identity(lift_a, B))
        if A > m:
            # kernel of GL2(Z/A) -> GL2(Z/m)
            steps = [m]
            if m % 4 == 2 and A % (4 * m) == 0:
                steps.append(2 * m)
            for s in steps:
                for (a, b, c, d) in ((1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1)):
                    k = ResidueMatrix(A, 1 + s * a, s * b, s * c, 1 + s * d)
                    gens.append(_crt_with_identity(k, B))
        if B > 1:
            for g in gl2_generator_matrices(B):
                gens.append(crt_combine(ResidueMatrix.identity(A), g))
        return FiniteMatrixGroup(L, gens)

    def image_mod(self, k: int) -> FiniteMatrixGroup:
        """The mod-k image for arbitrary k >= 1."""
        m = self.level
        if m % k == 0:
            grp = self.mod_level_group()
            return FiniteMatrixGroup(
                k, [g.reduce_mod(k) for g in grp.generators]) if k > 1 \
                else full_gl2(1)
        L = math.lcm(m, k)
        big = self.finite_image(L)
        return FiniteMatrixGroup(k, [g.reduce_mod(k) for g in big.generators])

    def index_in_gl2(self) -> int:
        return gl2_order(self.level) // self.mod_level_group().order

    def contains_minus_i(self) -> bool:
        return ResidueMatrix(self.level, -1, 0, 0, -1) in self.mod_level_group()

    def with_minus_i(self) -> "OpenSubgroup":
        if self.contains_minus_i():
            return self
        return OpenSubgroup(
            self.level,
            self.gens + (ResidueMatrix(self.level, -1, 0, 0, -1),))

    def __repr__(self):
        return f"OpenSubgroup(level={self.level}, {len(self.gens)} gens)"

    def to_json_dict(self) -> dict:
        return {"level": self.level,
                "gens": [list(g.entries) for g in self.gens]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OpenSubgroup":
        if not isinstance(data, dict) or "level" not in data:
            raise SchemaError("open subgroup JSON needs a 'level' key")
        level = data["level"]
        if not isinstance(level, int) or level < 1:
            raise SchemaError(f"bad level: {level!r}")
        gens = []
        for row in data.get("gens", []):
            if not (isinstance(row, list) and len(row) == 4
                    and all(isinstance(x, int) for x in row)):
                raise SchemaError(f"bad generator row: {row!r}")
            g = ResidueMatrix(level, *row)
            if not g.is_invertible():
                raise SchemaError(f"generator {row} not invertible mod {level}")
            gens.append(g)
        return cls(level, tuple(gens))


def _det_schreier(G: OpenSubgroup):
    """det on G(m), m the level: the transversal u -> t_u over det G(m)
    (t_u a word in the generators of determinant u) and the Schreier
    generators t_u g t_{u det g}^-1 of G(m) ∩ SL2."""
    n = G.level
    return _schreier([g.entries for g in G.gens], n, 1 % n,
                     lambda u, g: u * tdet(g, n) % n)


def intersect_sl2(G: OpenSubgroup) -> FiniteMatrixGroup:
    """Mod-level image of G ∩ SL2(Zhat), the kernel of det on G(m),
    closed from the Schreier generators over the determinant transversal,
    so G(m) itself is never enumerated."""
    n = G.level
    clo = _Closure(n, _det_schreier(G)[1])
    sub = FiniteMatrixGroup(n, clo.gens)
    sub._elements = tuple(clo.elems)
    sub._eset = frozenset(clo.seen)
    return sub


@dataclass(frozen=True)
class DetImage:
    modulus: int
    values: frozenset

    @property
    def full(self) -> bool:
        n = self.modulus
        return len(self.values) == gl2_order(n) // sl2_order(n)


def _det_values(G: OpenSubgroup) -> frozenset:
    """det G(m) for m the level: the keys of the determinant
    transversal."""
    return frozenset(_det_schreier(G)[0])


def det_image(G: OpenSubgroup) -> DetImage:
    return DetImage(G.level, _det_values(G))


def sl_count(G: OpenSubgroup, L: int) -> int:
    """|G(L) ∩ SL2(Z/L)| for level m | L, without materializing G(L):

        |G(m)| / |det G(m)| * |SL2(Z/L)| / |SL2(Z/m)|.

    G(L) is the full preimage of G(m), so |G(L)| = |G(m)| * |K| with K the
    kernel of GL2(Z/L) -> GL2(Z/m).  det maps K onto the kernel of
    (Z/L)^x -> (Z/m)^x (it contains diag(u, 1)), so det G(L) is the full
    preimage of det G(m) too.  Dividing |G(L)| by |det G(L)| and using
    |GL2(Z/n)| = phi(n) * |SL2(Z/n)| leaves the formula.
    """
    m = G.level
    if L % m != 0:
        raise ValueError(f"level {m} does not divide target modulus {L}")
    return (G.mod_level_group().order // len(_det_values(G))
            * sl2_order(L) // sl2_order(m))


def transpose_group(G: OpenSubgroup) -> OpenSubgroup:
    return OpenSubgroup(G.level, tuple(g.transpose() for g in G.gens))


def minimal_level(G: OpenSubgroup) -> OpenSubgroup:
    """Equal open subgroup presented at its true level (smallest m0 | m
    with equal GL2 index at m0 and m)."""
    m = G.level
    if m == 1:
        return G
    idx = G.index_in_gl2()
    divisors = sorted(d for d in range(1, m + 1) if m % d == 0)
    for d in divisors:
        if d == m:
            break
        img = G.image_mod(d)
        if gl2_order(d) // img.order == idx:
            if d == 1:
                return OpenSubgroup.full()
            return OpenSubgroup.from_group(img)
    return G


# ---------------------------------------------------------------------------
# Commutator engine


@dataclass(frozen=True)
class CommutatorResult:
    """[G, G] at its saturation level.

    ``commutator`` is presented at a finite level and denotes the preimage
    of its mod-level image inside SL2(Zhat).  ``index_in_sl`` is the exact
    index [G ∩ SL2(Zhat) : [G, G]].
    """

    commutator: OpenSubgroup
    index_in_sl: int
    saturation_level: int
    det_full: bool

    @property
    def greater_than_two(self) -> bool:
        return self.index_in_sl > 2


def _part_data(G: OpenSubgroup, L: int, cache: dict):
    """(D(L), [G(L) ∩ SL2 : D(L)]) with D(L) the derived subgroup of
    G(L).  D(L) is closed from G(L)'s generators and the SL2-part is
    counted by sl_count, so neither enumerates G(L)."""
    if L not in cache:
        der = derived_subgroup(G.finite_image(L))
        cache[L] = (der, sl_count(G, L) // der.order)
    return cache[L]


def _ramp_part(G: OpenSubgroup, start_level: int, primes):
    """Per-prime exponent ramp with the two-condition stop rule: the index
    of the derived image in the SL2-part must be stable across one full
    step, and the higher-level derived image must be the full
    SL2-preimage of the lower one."""
    cache = {}
    L = start_level
    for p in sorted(primes):
        while True:
            exp = 0
            t = L
            while t % p == 0:
                t //= p
                exp += 1
            if exp >= SATURATION_EXPONENT_CAP:
                raise ResourceExceeded(
                    f"commutator saturation cap {p}^{SATURATION_EXPONENT_CAP}"
                    f" reached", partial=L)
            Lp = L * p
            d0, idx0 = _part_data(G, L, cache)
            d1, idx1 = _part_data(G, Lp, cache)
            kernel = sl2_order(Lp) // sl2_order(L)
            if idx0 == idx1 and d1.order == d0.order * kernel:
                break
            L = Lp
    der, idx = _part_data(G, L, cache)
    return L, der, idx


@lru_cache(maxsize=None)
def _full_factor_commutator(ell: int):
    """Commutator data of the full GL2(Z_ell) factor: (level, derived
    image, index of the commutator in SL2(Z_ell))."""
    return _ramp_part(OpenSubgroup.full(), ell, [ell])


def _minimal_sl_level(der: FiniteMatrixGroup, T: int):
    """Smallest divisor d of T such that der is the full SL2-preimage of
    its mod-d image."""
    best = T
    for d in sorted(x for x in range(1, T + 1) if T % x == 0):
        if d == T:
            break
        if d == 1:
            img_order = 1
        else:
            img = FiniteMatrixGroup(
                d, [ResidueMatrix.from_tuple(t, d)
                    for t in der.generator_tuples])
            img_order = img.order
        if der.order == img_order * (sl2_order(T) // sl2_order(d)):
            best = d
            break
    if best == T:
        return der.modulus, der
    if best == 1:
        return 1, full_sl2(1)
    img = FiniteMatrixGroup(
        best, [ResidueMatrix.from_tuple(t, best) for t in der.generator_tuples])
    return best, img


def commutator_open(G: OpenSubgroup) -> CommutatorResult:
    """[G, G] as an open subgroup of SL2(Zhat), with its exact index in
    G ∩ SL2(Zhat).

    Saturation runs over the primes of 6 * level: primes dividing the
    level are ramped on the level part, and the primes 2, 3 not dividing
    the level contribute the (cached) commutator of a full GL2(Z_ell)
    factor.  Primes >= 5 away from the level satisfy
    SL2(Z_ell) ⊆ [G, G] and contribute nothing.
    """
    Gm = minimal_level(G)
    m = Gm.level
    full_det = det_image(Gm).full

    parts = []
    if m > 1:
        parts.append(_ramp_part(Gm, m, _prime_factors(m)))
    for ell in (2, 3):
        if m % ell != 0:
            parts.append(_full_factor_commutator(ell))

    T = math.prod(level for level, _, _ in parts)
    index = math.prod(idx for _, _, idx in parts)
    gens = []
    for level, der, _ in parts:
        for t in der.generator_tuples:
            g = _crt_with_identity(
                ResidueMatrix.from_tuple(t, level), T // level)
            if g.entries != (1 % T, 0, 0, 1 % T) and g not in gens:
                gens.append(g)
    if not gens and T > 1:
        gens.append(ResidueMatrix.identity(T))
    if T == 1:
        comm = OpenSubgroup.full()
    else:
        combined = FiniteMatrixGroup(T, gens)
        lvl, img = _minimal_sl_level(combined, T)
        if lvl > 1:
            kept = []
            for g in img.generators:
                if g.entries != (1 % lvl, 0, 0, 1 % lvl) and g not in kept:
                    kept.append(g)
            if not kept:
                kept.append(ResidueMatrix.identity(lvl))
            comm = OpenSubgroup(lvl, tuple(kept))
        else:
            comm = OpenSubgroup.full()
    return CommutatorResult(comm, index, T, full_det)


@dataclass(frozen=True)
class IndexClass:
    """Classification of [G^t, G^t] inside G^t ∩ SL2(Zhat)."""

    kind: str  # "index_one" | "index_two" | "other"
    index: int

    @classmethod
    def from_index(cls, n: int) -> "IndexClass":
        if n == 1:
            return cls("index_one", 1)
        if n == 2:
            return cls("index_two", 2)
        return cls("other", n)


def commutator_index_class(G: OpenSubgroup) -> IndexClass:
    """Classify the transposed group G^t by the index of its commutator in
    its SL2-part."""
    res = commutator_open(transpose_group(G))
    return IndexClass.from_index(res.index_in_sl)
