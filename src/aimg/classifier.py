"""Catalog ingestion, the classification pipeline and the curve checker.

A catalog entry carries a group (level + generators), its cover map pi to
the j-line, the invariant map u of its automorphism group A, family data
and the v-conditions of the theorem tables.  Classification recovers J
with J o u = pi, finds the base group G0 of the family, builds the
v-indexed members and buckets each by the index of its commutator inside
its SL2-part: index 1 and 2 are the two theorem buckets, everything else
is excluded.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from .arithcond import ConditionResult, VCondition, eval_condition, \
    parse_vcondition
from .errors import (
    AimgError,
    InvariantViolation,
    MissingAutomorphismData,
    NoMatch,
    SchemaError,
    UnknownLabel,
    is_json_int,
    json_ints,
    json_list,
    json_rational,
    read_json_file,
)
from .families import (
    NOT_APPLICABLE,
    FamilySpec,
    build_member,
    commutator_shortcut,
)
from .matgroup import (
    AbelianHom,
    FiniteMatrixGroup,
    _prime_factors,
    group_size_cap,
    intermediate_subgroups,
    is_conjugate_subgroup,
)
from .modgenus import genus
from .opengroup import (
    OpenSubgroup,
    commutator_open,
    full_sl2,
    intersect_sl2,
    minimal_level,
    sl_count,
)
from .ratfunc import (
    INFINITY,
    IDENTITY_MAP,
    RationalMap,
    moebius_equivalent,
    rational_fibers,
    solve_left_factor,
)

__all__ = [
    "CatalogEntry",
    "MemberData",
    "CurveCheck",
    "ClassificationReport",
    "load_catalog",
    "recover_G0",
    "level_bound_b",
    "classify",
    "check_curve",
    "THEOREM1",
    "THEOREM2",
    "EXCLUDED",
]

THEOREM1 = "Theorem1"
THEOREM2 = "Theorem2"
EXCLUDED = "Excluded"


class MemberData:
    """One catalogued family member: v, Mv, the images under phi of the
    invariant generators of A, and the member's own conditions."""

    def __init__(self, v: Fraction, Mv: int, phi_images: tuple,
                 conditions: VCondition | None = None):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "Mv", Mv)
        object.__setattr__(self, "phi_images", phi_images)
        object.__setattr__(self, "conditions", conditions)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.v, self.Mv, self.phi_images, self.conditions)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"MemberData(v={self.v!r}, Mv={self.Mv!r}, "
                f"phi_images={self.phi_images!r}, "
                f"conditions={self.conditions!r})")


class CatalogEntry:
    """One catalog row: the group G, the maps pi and u, the recovered J
    with J o u = pi, and the family data of its members."""

    def __init__(self, label: str, group: OpenSubgroup, pi: RationalMap,
                 u: RationalMap, J: RationalMap,
                 automorphism_orders: tuple | None,
                 family_index: int | None, alpha: Fraction | None,
                 conditions: VCondition | None, in_exceptional_set_s: bool,
                 members: tuple):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "automorphism_orders", automorphism_orders)
        object.__setattr__(self, "family_index", family_index)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "conditions", conditions)
        object.__setattr__(self, "in_exceptional_set_s",
                           in_exceptional_set_s)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.label, self.group, self.pi, self.u, self.J,
                self.automorphism_orders, self.family_index, self.alpha,
                self.conditions, self.in_exceptional_set_s, self.members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CatalogEntry(label={self.label!r}, group={self.group!r}, "
                f"pi={self.pi!r}, u={self.u!r}, J={self.J!r}, "
                f"automorphism_orders={self.automorphism_orders!r}, "
                f"family_index={self.family_index!r}, "
                f"alpha={self.alpha!r}, conditions={self.conditions!r}, "
                f"in_exceptional_set_s={self.in_exceptional_set_s!r}, "
                f"members={self.members!r})")

    @property
    def a_order(self) -> int:
        return self.u.degree


def _parse_entry(raw) -> CatalogEntry:
    if not isinstance(raw, dict) or "label" not in raw:
        raise SchemaError("catalog entry must be an object with a 'label'")
    label = raw["label"]
    if not isinstance(label, str) or not label:
        raise SchemaError(f"bad label: {label!r}")
    where = f"entry {label!r}"
    for key in ("group", "pi", "u"):
        if key not in raw:
            raise SchemaError(f"{where}: missing {key!r}")
    group = OpenSubgroup.from_json_dict(raw["group"])
    pi = RationalMap.from_json_dict(raw["pi"])
    u = RationalMap.from_json_dict(raw["u"])

    gd = genus(group)
    if gd.genus != 0:
        raise InvariantViolation(label, f"genus is {gd.genus}, not 0")
    try:
        J = solve_left_factor(pi, u)
    except AimgError as e:
        raise InvariantViolation(label, f"J-recovery failed: {e}")
    if pi.degree != gd.degree:
        raise InvariantViolation(
            label, f"deg pi is {pi.degree}, not the index {gd.degree}")

    orders = raw.get("automorphism_orders")
    if orders is not None:
        orders = json_ints(orders, f"{where} automorphism_orders")
        if min(orders) < 1:
            raise SchemaError(f"{where}: bad automorphism_orders")
    fam_idx = raw.get("family_index")
    if fam_idx is not None and not (is_json_int(fam_idx) and 0 < fam_idx < 7):
        raise SchemaError(f"{where}: family_index must be 1..6")
    alpha = raw.get("alpha")
    if alpha is not None:
        alpha = json_rational(alpha, where)
    conds = raw.get("conditions")
    if conds is not None:
        conds = parse_vcondition(conds)

    members = []
    for i, m in enumerate(json_list(raw.get("members", []),
                                    f"{where} members")):
        mwhere = f"{where} member {i}"
        if not isinstance(m, dict):
            raise SchemaError(f"{mwhere}: not an object")
        for key in ("v", "Mv", "phi"):
            if key not in m:
                raise SchemaError(f"{mwhere}: missing {key!r}")
        v = json_rational(m["v"], mwhere)
        Mv = m["Mv"]
        if not is_json_int(Mv) or Mv < 1:
            raise SchemaError(f"{mwhere}: bad Mv {Mv!r}")
        phi = tuple(json_ints(row, f"{mwhere} phi")
                    for row in json_list(m["phi"], f"{mwhere} phi"))
        mconds = m.get("conditions")
        if mconds is not None:
            mconds = parse_vcondition(mconds)
        members.append(MemberData(v, Mv, phi, mconds))

    return CatalogEntry(
        label=label, group=group, pi=pi, u=u, J=J,
        automorphism_orders=orders, family_index=fam_idx, alpha=alpha,
        conditions=conds,
        in_exceptional_set_s=bool(raw.get("in_exceptional_set_s", False)),
        members=tuple(members))


def load_catalog(source) -> list:
    """Load and validate a catalog, from the path of a JSON file or the
    parsed dict.  Each entry's invariants are checked here, once: genus 0,
    J o u = pi, and deg pi = d, the index of the entry's curve."""
    data = source if isinstance(source, dict) else read_json_file(source)
    if not isinstance(data, dict) or "entries" not in data:
        raise SchemaError("catalog JSON must be {'entries': [...]}")
    entries = [_parse_entry(raw)
               for raw in json_list(data["entries"], "catalog 'entries'")]
    seen = set()
    for e in entries:
        if e.label in seen:
            raise InvariantViolation(e.label, "duplicate label")
        seen.add(e.label)
    return entries


def recover_G0(entry: CatalogEntry, catalog=None) -> OpenSubgroup:
    """The base group of the family: the G' whose SL2-part sits above the
    entry's with index |A|, has a genus-0 curve, and whose cover map is
    equivalent to the quotient by A.

    With the cover maps of candidate groups not computable from
    generators alone, the map check is realized as: when several
    candidates survive the genus filter, the candidate's map is resolved
    through the catalog (an entry with the same group up to conjugacy) or
    the level-1 j-line, and matched against J by Moebius equivalence.

    No candidate repeats: each K comes once, and a kept G' has
    G' ∩ SL2 = K (K lies in it, and sl_count, which counts G' ∩ SL2
    without closing it, gives |K|).  K holds -I, so G' has j-cover degree
    [SL2 : K] = d/|A| = deg J, as load_catalog checked deg pi = d.
    Of several matches the one of least level, then of least sorted
    element set at that level, is returned, so the answer does not depend
    on how the entry's group is presented.
    """
    a = entry.a_order
    if a == 1:
        return minimal_level(entry.group)
    N = entry.group.level
    G = entry.group.with_minus_i()
    gens = G.mod_level_group().generator_tuples
    candidates = []
    for K in intermediate_subgroups(intersect_sl2(G), full_sl2(N), a):
        Gp = OpenSubgroup.from_group(
            FiniteMatrixGroup(N, gens + K.generator_tuples))
        if sl_count(Gp, N) != K.order:
            continue
        cand = minimal_level(Gp)
        if genus(cand).genus != 0:
            continue
        candidates.append(cand)
    if not candidates:
        raise NoMatch(f"{entry.label}: no supergroup matches u")
    if len(candidates) == 1:
        return candidates[0]
    # disambiguate through resolvable cover maps
    matches = []
    for c in candidates:
        pi_c = _resolve_cover_map(c, catalog)
        if pi_c is None:
            continue
        if moebius_equivalent(entry.J, pi_c) is not None:
            matches.append(c)
    if not matches:
        raise NoMatch(f"{entry.label}: {len(candidates)} candidates, none "
                      f"with a resolvable map equivalent to J")
    matches.sort(key=lambda c: (c.level,
                                sorted(c.mod_level_group().element_set)))
    return matches[0]


def _resolve_cover_map(G: OpenSubgroup, catalog):
    """pi_G when known: the j-line for the full group, else a catalog
    entry with the same group up to conjugacy."""
    if G.level == 1:
        return IDENTITY_MAP
    if catalog:
        for e in catalog:
            other = e.group
            if other.level != G.level:
                continue
            same, _ = is_conjugate_subgroup(
                G.mod_level_group(), other.mod_level_group())
            if same:
                return e.pi
    return None


def level_bound_b(entry: CatalogEntry) -> int:
    """b0 = lcm of the automorphism orders supported on the primes of N;
    b = 2*b0 when N = 2 (mod 4), else b0."""
    if entry.automorphism_orders is None:
        raise MissingAutomorphismData(
            f"{entry.label}: no automorphism orders in the catalog")
    N = minimal_level(entry.group).level
    n_primes = set(_prime_factors(N))
    b0 = 1
    for o in entry.automorphism_orders:
        if set(_prime_factors(o)) <= n_primes:
            b0 = math.lcm(b0, o)
    return 2 * b0 if N % 4 == 2 else b0


def _bucket(index: int) -> str:
    if index == 1:
        return THEOREM1
    if index == 2:
        return THEOREM2
    return EXCLUDED


def _member_commutator_index(spec: FamilySpec, member, Mv: int):
    """Index of the member's commutator in its SL2-part, with the
    prime-escape shortcut when available."""
    res = commutator_shortcut(spec, member, Mv)
    if res is NOT_APPLICABLE:
        direct = commutator_open(member.group)
        return direct.index_in_sl, "direct"
    # res carries the dissolved base's commutator; the member-relative
    # index is [member cap SL2 : commutator] counted at a common level
    L = math.lcm(member.group.level, res.commutator.level,
                 res.saturation_level)
    return sl_count(member.group, L) // sl_count(res.commutator, L), \
        "shortcut"


class MemberReport:
    """The classification of one family member."""

    def __init__(self, v: Fraction, Mv: int, commutator_index: int | None,
                 bucket: str | None, method: str | None,
                 condition: ConditionResult | None, error: str | None = None):
        self.v = v
        self.Mv = Mv
        self.commutator_index = commutator_index
        self.bucket = bucket
        self.method = method
        self.condition = condition
        self.error = error

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.v, self.Mv, self.commutator_index, self.bucket,
                self.method, self.condition, self.error) == \
            (other.v, other.Mv, other.commutator_index, other.bucket,
             other.method, other.condition, other.error)

    def __repr__(self):
        return (f"MemberReport(v={self.v!r}, Mv={self.Mv!r}, "
                f"commutator_index={self.commutator_index!r}, "
                f"bucket={self.bucket!r}, method={self.method!r}, "
                f"condition={self.condition!r}, error={self.error!r})")


class EntryReport:
    """The classification of one catalog entry and of its members."""

    def __init__(self, label: str, J: RationalMap, bucket: str | None,
                 commutator_index: int | None, g0_level: int | None,
                 members: list | None = None, error: str | None = None,
                 elapsed: float = 0.0):
        self.label = label
        self.J = J
        self.bucket = bucket
        self.commutator_index = commutator_index
        self.g0_level = g0_level
        self.members = [] if members is None else members
        self.error = error
        self.elapsed = elapsed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.J, self.bucket, self.commutator_index,
                self.g0_level, self.members, self.error, self.elapsed) == \
            (other.label, other.J, other.bucket, other.commutator_index,
             other.g0_level, other.members, other.error, other.elapsed)

    def __repr__(self):
        return (f"EntryReport(label={self.label!r}, J={self.J!r}, "
                f"bucket={self.bucket!r}, "
                f"commutator_index={self.commutator_index!r}, "
                f"g0_level={self.g0_level!r}, members={self.members!r}, "
                f"error={self.error!r}, elapsed={self.elapsed!r})")


class ClassificationReport:
    """The reports of a catalog's entries, with the run's cap and time."""

    def __init__(self, entries: list, cap_order: int, elapsed: float):
        self.entries = entries
        self.cap_order = cap_order
        self.elapsed = elapsed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.cap_order, self.elapsed) == \
            (other.entries, other.cap_order, other.elapsed)

    def __repr__(self):
        return (f"ClassificationReport(entries={self.entries!r}, "
                f"cap_order={self.cap_order!r}, elapsed={self.elapsed!r})")

    @property
    def had_violations(self) -> bool:
        return any(e.error for e in self.entries)

    def bucket_of(self, label, v=None):
        for e in self.entries:
            if e.label != label:
                continue
            if v is None:
                return e.bucket
            v = Fraction(v)
            for m in e.members:
                if m.v == v:
                    return m.bucket
        return None

    def to_json_dict(self) -> dict:
        def frac(x):
            return int(x) if x.denominator == 1 else str(x)

        out = []
        for e in self.entries:
            d = {
                "label": e.label,
                "J": e.J.to_json_dict() if e.J is not None else None,
                "bucket": e.bucket,
                "commutator_index": e.commutator_index,
                "g0_level": e.g0_level,
                "elapsed_seconds": round(e.elapsed, 3),
                "members": [],
            }
            if e.error:
                d["error"] = e.error
            for m in e.members:
                md = {
                    "v": frac(m.v),
                    "Mv": m.Mv,
                    "commutator_index": m.commutator_index,
                    "bucket": m.bucket,
                    "method": m.method,
                }
                if m.condition is not None:
                    md["condition_holds"] = m.condition.ok
                    md["condition_trace"] = trace_rows(m.condition)
                if m.error:
                    md["error"] = m.error
                d["members"].append(md)
            out.append(d)
        return {
            "entries": out,
            "run": {"cap_order": self.cap_order,
                    "elapsed_seconds": round(self.elapsed, 3)},
        }


def trace_rows(result: ConditionResult) -> list:
    """The trace of an evaluated condition as JSON rows."""
    return [{"clause": c, "verdict": ok, "reason": why}
            for c, ok, why in result.trace]


def find_entry(catalog, label: str) -> CatalogEntry:
    """The catalog entry labelled ``label``; UnknownLabel if there is
    none."""
    for e in catalog:
        if e.label == label:
            return e
    raise UnknownLabel(f"no catalog entry labelled {label!r}")


def classify(entries) -> ClassificationReport:
    """Classify every entry (and each of its v-indexed members) by
    commutator index; per-entry errors are recorded, never fatal."""
    t_start = time.monotonic()
    reports = []
    for entry in sorted(entries, key=lambda e: e.label):
        t0 = time.monotonic()
        rep = EntryReport(entry.label, entry.J, None, None, None)
        try:
            g0 = recover_G0(entry, entries)
            rep.g0_level = g0.level
            # the entry's own group, bucketed by its commutator index
            own = commutator_open(entry.group)
            rep.commutator_index = own.index_in_sl
            rep.bucket = _bucket(own.index_in_sl)
            specs = {}  # one FamilySpec per distinct Mv of the entry
            for md in entry.members:
                mrep = MemberReport(md.v, md.Mv, None, None, None, None)
                try:
                    if md.Mv not in specs:
                        specs[md.Mv] = FamilySpec(g0, entry.group, md.Mv)
                    spec = specs[md.Mv]
                    phi = AbelianHom(spec.a_group, spec.quotient,
                                     md.phi_images)
                    member = build_member(spec, phi)
                    idx, how = _member_commutator_index(spec, member, md.Mv)
                    mrep.commutator_index = idx
                    mrep.method = how
                    mrep.bucket = _bucket(idx)
                    cond = md.conditions or entry.conditions
                    if cond is not None:
                        mrep.condition = eval_condition(cond, md.v, entry.J)
                except AimgError as e:
                    mrep.error = f"{type(e).__name__}: {e}"
                rep.members.append(mrep)
        except AimgError as e:
            rep.error = f"{type(e).__name__}: {e}"
        rep.elapsed = time.monotonic() - t0
        reports.append(rep)
    return ClassificationReport(
        reports, group_size_cap(), time.monotonic() - t_start)


class CurveCheck:
    """The verdict of check_curve: ``kind`` is "Member", "NotMember" or
    "ExcludedJ"; a member's ``witnesses`` are its rational fiber points."""

    def __init__(self, kind: str, witnesses: tuple = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witnesses", witnesses)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.witnesses) == (other.kind, other.witnesses)

    def __hash__(self):
        return hash((self.kind, self.witnesses))

    def __repr__(self):
        return f"CurveCheck(kind={self.kind!r}, witnesses={self.witnesses!r})"


def check_curve(label: str, j, catalog) -> CurveCheck:
    """Membership of j in pi_G(X_G(Q)) for the labelled entry.

    j = 0 and j = 1728 are excluded up front (the moduli criterion does
    not apply there); otherwise membership is a rational-fiber solve.
    """
    entry = find_entry(catalog, label)
    if j is not INFINITY:
        j = Fraction(j)
        if j in (0, 1728):
            return CurveCheck("ExcludedJ")
    fibers = rational_fibers(entry.pi, j)
    if not fibers:
        return CurveCheck("NotMember")
    finite = sorted((x for x in fibers if x is not INFINITY))
    ordered = tuple(finite) + ((INFINITY,) if INFINITY in fibers else ())
    return CurveCheck("Member", ordered)
