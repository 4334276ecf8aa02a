"""Catalog ingestion, the classification pipeline and the curve checker.

A catalog entry carries a group (level + generators), its cover map pi to
the j-line, the invariant map u of its automorphism group A, the base
group G0 of its family, family data and the v-conditions of the theorem
tables.  Loading recovers J with J o u = pi and checks the named G0
against it.  Classification builds the v-indexed members over G0 and
buckets each by the index of its commutator inside its SL2-part: index 1
and 2 are the two theorem buckets, everything else is excluded.
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
    _prime_factors,
    group_size_cap,
)
from .modgenus import genus
from .opengroup import (
    OpenSubgroup,
    commutator_open,
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
    "J_LINE",
]

THEOREM1 = "Theorem1"
THEOREM2 = "Theorem2"
EXCLUDED = "Excluded"
# the catalog's name for the base GL2(Zhat), whose cover map is t
J_LINE = "j-line"


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
    with J o u = pi, the family data of its members, and ``base``, the
    label of the entry whose group is the family's base G0 (J_LINE for
    GL2(Zhat)), or None when deg u = 1 and the catalog names none."""

    def __init__(self, label: str, group: OpenSubgroup, pi: RationalMap,
                 u: RationalMap, J: RationalMap,
                 automorphism_orders: tuple | None,
                 family_index: int | None, alpha: Fraction | None,
                 conditions: VCondition | None, in_exceptional_set_s: bool,
                 members: tuple, base: str | None = None):
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
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return (self.label, self.group, self.pi, self.u, self.J,
                self.automorphism_orders, self.family_index, self.alpha,
                self.conditions, self.in_exceptional_set_s, self.members,
                self.base)

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
                f"members={self.members!r}, base={self.base!r})")

    @property
    def a_order(self) -> int:
        return self.u.degree


def _parse_entry(raw) -> CatalogEntry:
    if not isinstance(raw, dict) or "label" not in raw:
        raise SchemaError("catalog entry must be an object with a 'label'")
    label = raw["label"]
    if not isinstance(label, str) or not label or label == J_LINE:
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

    base = raw.get("base")
    if base is None and u.degree > 1:
        raise SchemaError(f"{where}: deg u is {u.degree}, so 'base' is "
                          f"required")
    if base is not None and (not isinstance(base, str) or not base):
        raise SchemaError(f"{where}: bad base {base!r}")
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
        members=tuple(members), base=base)


def load_catalog(source) -> list:
    """Load and validate a catalog, from the path of a JSON file or the
    parsed dict.  Each entry's invariants are checked here, once: genus 0,
    J o u = pi, deg pi = d, the index of the entry's curve, and the three
    checks of _check_base on its named base."""
    data = source if isinstance(source, dict) else read_json_file(source)
    if not isinstance(data, dict) or "entries" not in data:
        raise SchemaError("catalog JSON must be {'entries': [...]}")
    entries = [_parse_entry(raw)
               for raw in json_list(data["entries"], "catalog 'entries'")]
    bases = {J_LINE: (OpenSubgroup.full(), IDENTITY_MAP)}
    for e in entries:
        if e.label in bases:
            raise InvariantViolation(e.label, "duplicate label")
        bases[e.label] = (e.group, e.pi)
    for e in entries:
        if e.base is None:
            continue
        if e.base not in bases:
            raise SchemaError(f"entry {e.label!r}: unknown base {e.base!r}")
        _check_base(e, *bases[e.base])
    return entries


def _check_base(entry: CatalogEntry, g0: OpenSubgroup, pi0: RationalMap):
    """InvariantViolation, naming the check, unless the group g0 with
    cover map pi0 is the base of the entry's family:

    - containment: ±G <= ±G0.  At L = lcm of the levels, ±G(L) is
      generated by its finite_image generators, and ±G0(L) is the full
      preimage of ±G0 mod its level m0, so each generator is reduced
      mod m0 and looked up there; only ±G0(m0) is materialized;
    - index: [±G0 ∩ SL2 : ±G ∩ SL2] = deg u, counted by sl_count at L;
    - map: J is Moebius-equivalent to pi0 (t for the j-line).

    With J o u = pi, deg pi = d and the index right, deg J = d / deg u is
    the degree of X_G0 over the j-line, so the map check compares maps
    of the same degree.
    """
    G, G0 = entry.group.with_minus_i(), g0.with_minus_i()
    m0 = G0.level
    L = math.lcm(G.level, m0)
    inside = G0.mod_level_group().element_set
    if any(tuple(x % m0 for x in t) not in inside
           for t in G.finite_image(L).generator_tuples):
        raise InvariantViolation(
            entry.label, f"base {entry.base!r}: containment check failed, "
                         f"+-G is not in +-G0")
    index = sl_count(G0, L) // sl_count(G, L)
    if index != entry.a_order:
        raise InvariantViolation(
            entry.label, f"base {entry.base!r}: index check failed, "
                         f"[+-G0 : +-G] in SL2 is {index}, not deg u = "
                         f"{entry.a_order}")
    if moebius_equivalent(entry.J, pi0) is None:
        raise InvariantViolation(
            entry.label, f"base {entry.base!r}: map check failed, J is not "
                         f"Moebius-equivalent to the base's pi")


def recover_G0(entry: CatalogEntry, catalog=None) -> OpenSubgroup:
    """The base group G0 of the entry's family, at its least level: the
    entry's own group when deg u = 1, GL2(Zhat) for the j-line, and
    otherwise the group of the catalog entry the base names, which
    load_catalog checked against this entry (UnknownLabel if the catalog
    has none).  Nothing is searched."""
    if entry.a_order == 1:
        return minimal_level(entry.group)
    if entry.base == J_LINE:
        return OpenSubgroup.full()
    return minimal_level(find_entry(catalog or (), entry.base).group)


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
