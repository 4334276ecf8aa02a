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
from functools import cached_property, lru_cache

from .errors import SchemaError, is_json_int, json_ints, json_list
from .matgroup import (
    FiniteMatrixGroup,
    derived_subgroup,
    gl2_order,
    sl2_order,
    _Closure,
    _closed,
    _orbit,
    _prime_factors,
    _schreier,
    unit_group,
)
from .modmatrix import TID, ResidueMatrix, tcrt, tdet

__all__ = [
    "OpenSubgroup",
    "CommutatorResult",
    "full_gl2",
    "intersect_sl2",
    "det_image",
    "sl_count",
    "transpose_group",
    "minimal_level",
    "commutator_open",
]


def gl2_generator_matrices(n: int):
    """Standard generators of GL2(Z/nZ): the two SL2(Z) generators plus
    diag(u, 1) over the basis of unit_group(n)."""
    if n == 1:
        return []
    gens = [ResidueMatrix(n, 1, 1, 0, 1), ResidueMatrix(n, 0, -1, 1, 0)]
    for u in unit_group(n).basis:
        gens.append(ResidueMatrix(n, u, 0, 0, 1))
    return gens


@lru_cache(maxsize=None)
def full_gl2(n: int) -> FiniteMatrixGroup:
    """GL2(Z/nZ) with its order recorded, not closed.  S and T generate
    SL2(Z/nZ), because SL2(Z) -> SL2(Z/nZ) is onto, so the generators span
    GL2(Z/nZ) since the diag(u, 1) span the determinants: unit_group(n)
    raises unless its basis generates (Z/nZ)^x."""
    return FiniteMatrixGroup(n, gl2_generator_matrices(n), gl2_order(n))


@lru_cache(maxsize=None)
def full_sl2(n: int) -> FiniteMatrixGroup:
    """SL2(Z/nZ), generated by T and S (SL2(Z) -> SL2(Z/nZ) is onto), with
    its order recorded, not closed."""
    return FiniteMatrixGroup(
        n, [ResidueMatrix(n, 1, 1, 0, 1), ResidueMatrix(n, 0, -1, 1, 0)],
        sl2_order(n))


class OpenSubgroup:
    """Full preimage in GL2(Zhat) of closure(gens) mod level.

    Immutable, equal and hashed by (level, gens); cached values are
    written straight into the instance dict."""

    def __init__(self, level: int, gens):
        gens = tuple(gens)
        for g in gens:
            if g.modulus != level:
                raise ValueError("generator modulus differs from level")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.gens) == (other.level, other.gens)

    def __hash__(self):
        return hash((self.level, self.gens))

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

        The image is returned with its order recorded as
        |G(m)| * |GL2(Z/L)| / |GL2(Z/m)|, the full preimage's, and
        materializing it checks that record.
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
        gens = [tcrt(t, A, TID, B)
                for t in self.mod_level_group().generator_tuples]
        if A > m:
            # kernel of GL2(Z/A) -> GL2(Z/m)
            steps = [m]
            if m % 4 == 2 and A % (4 * m) == 0:
                steps.append(2 * m)
            for s in steps:
                for (a, b, c, d) in ((1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1)):
                    k = (1 + s * a, s * b, s * c, 1 + s * d)
                    gens.append(tcrt(k, A, TID, B))
        gens += [tcrt(TID, A, g.entries, B)
                 for g in gl2_generator_matrices(B)]
        return FiniteMatrixGroup(
            L, gens,
            self.mod_level_group().order * gl2_order(L) // gl2_order(m))

    def with_minus_i(self) -> "OpenSubgroup":
        """±G: G with -I appended to its generators above level 1, where
        the generator is redundant when G holds -I already; G is not
        closed to find out."""
        if self.level == 1:
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
        if not is_json_int(level) or level < 1:
            raise SchemaError(f"bad level: {level!r}")
        gens = []
        for row in json_list(data.get("gens", []), "open subgroup gens"):
            g = ResidueMatrix(level, *json_ints(row, "generator row", 4))
            if not g.is_invertible():
                raise SchemaError(f"generator {row} not invertible mod {level}")
            gens.append(g)
        return cls(level, tuple(gens))


def intersect_sl2(G: OpenSubgroup) -> FiniteMatrixGroup:
    """Mod-level image of G ∩ SL2(Zhat), the kernel of det on G(m): closed
    from the Schreier generators t_u g t_{u det g}^-1 over a transversal
    u -> t_u of det G(m), so G(m) itself is never enumerated."""
    n = G.level
    gens = G.mod_level_group().generator_tuples
    dets = {g: tdet(g, n) for g in gens}
    _, schreier = _schreier(gens, n, 1 % n, lambda u, g: u * dets[g] % n)
    return _closed(_Closure(n, schreier))


class DetImage:
    """det G(m) for m the level of G, as a set of units mod m."""

    def __init__(self, modulus: int, values: frozenset):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus, self.values) == (other.modulus, other.values)

    def __hash__(self):
        return hash((self.modulus, self.values))

    def __repr__(self):
        return f"DetImage(modulus={self.modulus!r}, values={self.values!r})"

    @property
    def full(self) -> bool:
        n = self.modulus
        return len(self.values) == gl2_order(n) // sl2_order(n)


def _det_values(G: OpenSubgroup) -> frozenset:
    """det G(m) for m the level: the orbit of 1 under multiplication by
    the generators' determinants, the subgroup of (Z/m)^x they generate."""
    n = G.level
    dets = {tdet(g, n) for g in G.mod_level_group().generator_tuples}
    return frozenset(_orbit(1 % n, [lambda u, d=d: u * d % n for d in dets]))


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
    """G^t, with the recorded order of G's mod-level image kept, since
    |G^t| = |G|."""
    if G.level == 1:
        return G
    return OpenSubgroup.from_group(FiniteMatrixGroup(
        G.level, [g.transpose() for g in G.gens],
        G.mod_level_group()._order))


def _divisors(n: int) -> list:
    """The divisors of n, in increasing order, built from its prime
    factorization, so the work grows with their number and not with n."""
    divs = [1]
    for p, e in _prime_factors(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _least_level(grp: FiniteMatrixGroup, ambient_order) -> FiniteMatrixGroup:
    """The image of grp at the least d | n, n its modulus, such that grp
    is the full preimage of that image in the ambient group mod n (GL2 or
    SL2, given by its order function); grp itself when d = n.

    grp always lies in the preimage of its mod-d image, so it is the whole
    preimage when the orders agree: |grp| = |image| * |ambient kernel|.
    A d whose kernel order does not divide |grp| is skipped unclosed.
    """
    n = grp.modulus
    for d in _divisors(n)[:-1]:
        kernel = ambient_order(n) // ambient_order(d)
        if grp.order % kernel:
            continue
        img = FiniteMatrixGroup(d, grp.generator_tuples)
        if img.order * kernel == grp.order:
            return img
    return grp


def minimal_level(G: OpenSubgroup) -> OpenSubgroup:
    """Equal open subgroup presented at its true level (the least m0 | m
    at which it is the full preimage of its image), by the generators of
    its image there: no identities and no repeats."""
    img = _least_level(G.mod_level_group(), gl2_order)
    if img.modulus == 1:
        return OpenSubgroup.full()
    return OpenSubgroup.from_group(img)


# ---------------------------------------------------------------------------
# Commutator engine


class CommutatorResult:
    """[G, G] at its least level c, as the preimage of its mod-c image
    inside SL2(Zhat), and the exact index [G ∩ SL2(Zhat) : [G, G]].
    ``saturation_level`` is lcm(m, 6, c), m the least level of G: at every
    multiple L of it the index is that of D(L) = [G(L), G(L)] in
    G(L) ∩ SL2."""

    def __init__(self, commutator: OpenSubgroup, index_in_sl: int,
                 saturation_level: int, det_full: bool):
        object.__setattr__(self, "commutator", commutator)
        object.__setattr__(self, "index_in_sl", index_in_sl)
        object.__setattr__(self, "saturation_level", saturation_level)
        object.__setattr__(self, "det_full", det_full)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.commutator, self.index_in_sl, self.saturation_level,
                self.det_full)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CommutatorResult(commutator={self.commutator!r}, "
                f"index_in_sl={self.index_in_sl!r}, "
                f"saturation_level={self.saturation_level!r}, "
                f"det_full={self.det_full!r})")


def _part_data(G: OpenSubgroup, L: int):
    """(D(L) at its least level, [G(L) ∩ SL2 : D(L)]) with D(L) the
    derived subgroup of G(L).  D(L) is closed only mod rad(L) and
    counted through the congruence layers above it, and the SL2-part is
    counted by sl_count, so neither D(L) nor G(L) is enumerated."""
    der = derived_subgroup(G.finite_image(L))
    return _least_level(der, sl2_order), sl_count(G, L) // der.order


@lru_cache(maxsize=None)
def _full_factor_commutator(ell: int):
    """_part_data of a full GL2(Z_ell) factor at ell^2, which holds its
    commutator by the lemma in commutator_open (GL2(Z_ell) ⊇ K_1).  At
    odd ell that part is level 1 and index 1, so only ell = 2 is read."""
    return _part_data(OpenSubgroup.full(), ell * ell)


def commutator_open(G: OpenSubgroup) -> CommutatorResult:
    """[G, G] as an open subgroup of SL2(Zhat), with its exact index in
    G ∩ SL2(Zhat), counted once per part at a level proved to hold it.

    Lemma: for K_e = I + ell^e M2(Z_ell), e >= 1, the closure C of
    [K_e, K_e] contains SL2(Z_ell) ∩ K_2e.  (1) For a = ell^e X and
    b = ell^e Y, (1 + a)(1 + b)(1 + a)^-1(1 + b)^-1 = I + ell^2e [X, Y]
    mod ell^3e, and the brackets span sl2(F_ell) for every ell
    ([E11, E12] = E12, [E11, E21] = -E21, [E12, E21] = E11 - E22), so C
    fills the SL2 layer at ell^2e.  (2) For h = I + ell^k Z in C, k >= 2e,
    h^ell = I + ell^(k+1) Z mod ell^(k+2) (for ell = 2 as 2k >= k + 2), so
    C fills every SL2 layer above, and C is closed.

    Lemma (odd ell): [GL2(Z/ell^k), GL2(Z/ell^k)] = SL2(Z/ell^k).  The
    commutator of diag(-1, 1) and [[1, b], [0, 1]] is [[1, -2b], [0, 1]],
    and -2 is a unit, so every upper elementary matrix is a commutator;
    likewise below the diagonal; and elementary matrices generate SL2
    over the local ring Z/ell^k.  Passing to the limit, [GL2(Z_ell),
    GL2(Z_ell)] = SL2(Z_ell) for odd ell.

    G, m its least level, contains K(m), so G = G_m x prod_{ell ∤ m}
    GL2(Z_ell) and [G, G] is the product of the factors' commutators:
    [G_m, G_m] holds SL2 ∩ K(m^2), [GL2(Z_2), GL2(Z_2)] holds
    SL2 ∩ K(4) (GL2(Z_2) ⊇ K_1), and [GL2(Z_ell), GL2(Z_ell)] is
    SL2(Z_ell) for odd ell, a part of level 1 and index 1.  So each
    remaining part is the SL2-preimage of its derived image D(L) at
    L = m^2 or 4, and its index is read off D(L).  (2) only runs
    from k >= 2, so the 2-exponent-1 case, where (I + 2X)^2 =
    I + 4(X + X^2) (see finite_image), never arises.  The parts sit at
    coprime levels, so [G, G] is their product: each is presented at its
    own least level, joined by CRT.
    """
    Gm = minimal_level(G)
    m = Gm.level
    full_det = det_image(Gm).full

    parts = [_part_data(Gm, m * m)] if m > 1 else []
    if m % 2:
        parts.append(_full_factor_commutator(2))
    index = math.prod(idx for _, idx in parts)
    imgs = [img for img, _ in parts]
    lvl = math.prod(img.modulus for img in imgs)
    T = math.lcm(m, 6, lvl)
    if lvl == 1:
        return CommutatorResult(OpenSubgroup.full(), index, T, full_det)
    gens = tuple(
        ResidueMatrix.from_tuple(tcrt(t, img.modulus, TID, lvl // img.modulus),
                                 lvl)
        for img in imgs for t in img.generator_tuples)
    comm = OpenSubgroup(lvl, gens or (ResidueMatrix.identity(lvl),))
    return CommutatorResult(comm, index, T, full_det)
