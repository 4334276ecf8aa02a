"""Catalog loading, base-group recovery and the classification pipeline."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from aimg.classifier import (
    EXCLUDED,
    THEOREM1,
    THEOREM2,
    check_curve,
    classify,
    level_bound_b,
    load_catalog,
    recover_G0,
)
from aimg.errors import (
    InvariantViolation,
    MissingAutomorphismData,
    SchemaError,
    UnknownLabel,
)
from aimg.matgroup import unit_group
from aimg.modmatrix import ResidueMatrix
from aimg.opengroup import OpenSubgroup, minimal_level
from aimg.ratfunc import INFINITY, RationalMap


def sample_catalog():
    ref = resources.files("aimg").joinpath("data/sample_catalog.json")
    return load_catalog(json.loads(ref.read_text()))


def sample_raw():
    ref = resources.files("aimg").joinpath("data/sample_catalog.json")
    return json.loads(ref.read_text())


def test_load_sample_catalog():
    cat = sample_catalog()
    assert [e.label for e in cat] == ["1A-1A", "2A-2A"]
    e = cat[1]
    assert e.group.level == 2
    assert e.a_order == 2
    assert e.J == RationalMap.from_coeffs((1728, 1), (1,))  # t + 1728
    assert len(e.members) == 2


def test_load_catalog_schema_errors():
    for bad in (42, "not json at all {", {"entries": "x"},
                {"entries": [{"label": ""}]},
                {"entries": [{"label": "X"}]}):
        with pytest.raises(SchemaError):
            load_catalog(bad)


def test_zero_denominator_in_catalog_is_a_schema_error():
    raw = sample_raw()
    raw["entries"][1]["members"][0]["v"] = "1/0"
    with pytest.raises(SchemaError):
        load_catalog(raw)
    raw = sample_raw()
    raw["entries"][1]["members"][0]["conditions"] = {
        "all": [{"kind": "specific_set", "values": ["1/0"]}]}
    with pytest.raises(SchemaError):
        load_catalog(raw)


# JSON true and false load as bools, which Python counts as ints; each of
# these edits to the 2A-2A entry puts one where an integer belongs
BOOLEAN_EDITS = {
    "group level": lambda e: e.update(group={"level": True, "gens": []}),
    "generator entry": lambda e: e["group"].update(
        gens=[[True, True, True, False]]),
    "Mv": lambda e: e["members"][0].update(Mv=True),
    "phi": lambda e: e["members"][0].update(phi=[[True]]),
    "family_index": lambda e: e.update(family_index=True),
    "automorphism_orders": lambda e: e.update(automorphism_orders=[True]),
    "condition modulus": lambda e: e.update(conditions={"all": [
        {"kind": "quad_cyc_trivial", "poly": [1, 0], "M": True}]}),
}


@pytest.mark.parametrize("field", list(BOOLEAN_EDITS))
def test_json_booleans_are_not_integers(field):
    raw = sample_raw()
    BOOLEAN_EDITS[field](raw["entries"][1])
    with pytest.raises(SchemaError):
        load_catalog(raw)


# each of these edits to the 2A-2A entry puts a malformed value where the
# schema wants a list or a rational coefficient
MALFORMED_EDITS = {
    "group gens": lambda e: e["group"].update(gens=5),
    "members": lambda e: e.update(members=5),
    "pi num": lambda e: e["pi"].update(num=5),
    "pi coefficient": lambda e: e["pi"].update(num=["x", 0, 1]),
}


@pytest.mark.parametrize("field", list(MALFORMED_EDITS))
def test_malformed_json_is_a_schema_error(field):
    raw = sample_raw()
    MALFORMED_EDITS[field](raw["entries"][1])
    with pytest.raises(SchemaError):
        load_catalog(raw)


def test_duplicate_label_is_violation():
    raw = sample_raw()
    raw["entries"].append(raw["entries"][0])
    with pytest.raises(InvariantViolation):
        load_catalog(raw)


def test_genus_violation_detected():
    raw = sample_raw()
    # +-Gamma(7) has genus 3
    raw["entries"][0] = {
        "label": "BAD", "group": {"level": 7, "gens": [[6, 0, 0, 6]]},
        "pi": {"num": [0, 1], "den": [1]},
        "u": {"num": [0, 1], "den": [1]},
    }
    with pytest.raises(InvariantViolation):
        load_catalog(raw)


def test_j_recovery_violation_detected():
    raw = sample_raw()
    # u does not divide pi: t^2 + t is not a function of t^2
    raw["entries"][0] = {
        "label": "BAD", "group": {"level": 1, "gens": []},
        "pi": {"num": [0, 1, 0, 0, 1], "den": [1]},
        "u": {"num": [0, 0, 1], "den": [1]},
    }
    with pytest.raises(InvariantViolation):
        load_catalog(raw)


@pytest.mark.parametrize("index, pi", [
    (0, {"num": [0, 0, 1], "den": [1]}),  # 1A-1A: t^2, d = 1
    (1, {"num": [1728, 0, 0, 0, 1], "den": [1]}),  # 2A-2A: t^4 + 1728, d = 2
], ids=["1A-1A", "2A-2A"])
def test_pi_degree_violation_detected(index, pi):
    # J-recovery succeeds (J o u = pi), but deg pi is not the index d
    raw = sample_raw()
    raw["entries"][index]["pi"] = pi
    with pytest.raises(InvariantViolation, match="deg pi"):
        load_catalog(raw)


def test_recover_g0_trivial_automorphisms():
    cat = sample_catalog()
    g0 = recover_G0(cat[0], cat)
    assert g0.level == 1


def test_recover_g0_2a2a():
    cat = sample_catalog()
    g0 = recover_G0(cat[1], cat)
    # the family base of 2A-2A is the full group
    assert g0.level == 1


def test_recover_g0_does_not_depend_on_the_presentation():
    cat = sample_catalog()
    entry = cat[1]
    G = entry.group
    ident = ResidueMatrix.identity(G.level)
    lifted = OpenSubgroup.from_group(G.finite_image(4))
    ident4 = ResidueMatrix.identity(4)
    base = recover_G0(entry, cat)
    for group in (OpenSubgroup(G.level, (ident,) + G.gens + (ident,)),
                  OpenSubgroup(4, (ident4,) + lifted.gens[::-1]
                               + lifted.gens[:1])):
        moved = entry.__class__(
            label=entry.label, group=group, pi=entry.pi, u=entry.u,
            J=entry.J, automorphism_orders=entry.automorphism_orders,
            family_index=entry.family_index, alpha=entry.alpha,
            conditions=entry.conditions,
            in_exceptional_set_s=entry.in_exceptional_set_s,
            members=entry.members)
        g0 = recover_G0(moved, cat)
        assert g0.level == base.level
        assert g0.mod_level_group().element_set == \
            base.mod_level_group().element_set


def test_level_bound_b():
    cat = sample_catalog()
    # 1A-1A: N = 1, orders (1): b0 = 1, N != 2 mod 4
    assert level_bound_b(cat[0]) == 1
    # 2A-2A: N = 2, orders (1, 2): support of 2 is {2} <= {2}; N = 2 mod 4
    assert level_bound_b(cat[1]) == 4
    entry_no_orders = cat[1].__class__(
        label="X", group=cat[1].group, pi=cat[1].pi, u=cat[1].u, J=cat[1].J,
        automorphism_orders=None, family_index=None, alpha=None,
        conditions=None, in_exceptional_set_s=False, members=())
    with pytest.raises(MissingAutomorphismData):
        level_bound_b(entry_no_orders)
    # Borel mod 2 times Borel mod 3: N = 6 = 2 mod 4; of the orders only
    # 2, 3, 4, 9 are supported on {2, 3}, so b = 2 * lcm(2, 3, 4, 9)
    borel6 = OpenSubgroup(6, tuple(
        ResidueMatrix.from_tuple(t, 6)
        for t in ((1, 1, 0, 1), (5, 0, 0, 1), (1, 0, 0, 5))))
    assert minimal_level(borel6).level == 6
    level6 = cat[1].__class__(
        label="X", group=borel6, pi=cat[1].pi, u=cat[1].u, J=cat[1].J,
        automorphism_orders=(2, 3, 4, 5, 9, 10), family_index=None,
        alpha=None, conditions=None, in_exceptional_set_s=False, members=())
    assert level_bound_b(level6) == 72


def test_classify_sample_buckets():
    report = classify(sample_catalog())
    assert not report.had_violations
    # full group: commutator has index 2 in SL2
    assert report.bucket_of("1A-1A") == THEOREM2
    # generic v = 5 member dissolves to the base commutator: index 1
    assert report.bucket_of("2A-2A", 5) == THEOREM1
    # v = -1 (Mv = 4, no escaping prime): index 2
    assert report.bucket_of("2A-2A", -1) == THEOREM2
    ent = {e.label: e for e in report.entries}
    m5 = next(m for m in ent["2A-2A"].members if m.v == 5)
    m1 = next(m for m in ent["2A-2A"].members if m.v == -1)
    assert m5.method == "shortcut" and m5.commutator_index == 1
    assert m1.method == "direct" and m1.commutator_index == 2
    # the entry group itself (non-split Cartan shape at 2) is excluded
    assert ent["2A-2A"].bucket == EXCLUDED
    # conditions were evaluated with the J guard
    assert m5.condition is not None and m5.condition.ok
    assert m1.condition is not None and m1.condition.ok


def test_left_out_twists_stay_under_the_cap(monkeypatch):
    # the 2A-2A twists by Q(sqrt(Mv)) for Mv = 13, 17, 21: members are
    # built from generators, so G0 at the member level (2 * Mv) is never
    # closed; |GL2(Z/26)| alone is above the cap
    monkeypatch.setenv("AIMG_CAP_ORDER", "100000")
    base = next(e for e in sample_raw()["entries"] if e["label"] == "2A-2A")
    for Mv, primes in ((13, (13,)), (17, (17,)), (21, (3, 7))):
        # the character of Q(sqrt(Mv)) is u -> (u / Mv), as Mv = 1 mod 4;
        # phi sends a basis unit to 1 in G0/H = Z/2 where it is -1
        phi = [[sum(pow(b, (p - 1) // 2, p) != 1 for p in primes) % 2]
               for b in unit_group(Mv).basis]
        entry = dict(base, members=[{"v": Mv, "Mv": Mv, "phi": phi}])
        (rep,) = classify(load_catalog({"entries": [entry]})).entries
        (m,) = rep.members
        assert m.error is None
        assert m.bucket == THEOREM1 and m.method == "shortcut"
        assert m.condition.ok


def test_classify_report_json_shape():
    report = classify(sample_catalog())
    d = report.to_json_dict()
    assert set(d) == {"entries", "run"}
    assert d["run"]["cap_order"] >= 1
    labels = [e["label"] for e in d["entries"]]
    assert labels == sorted(labels)
    for e in d["entries"]:
        assert {"label", "J", "bucket", "commutator_index",
                "g0_level", "members"} <= set(e)
    json.dumps(d)  # serializable


def test_classify_records_errors_per_entry():
    cat = sample_catalog()
    bad = cat[1].__class__(
        label="9Z-9Z", group=cat[1].group, pi=cat[1].pi,
        u=RationalMap.from_coeffs((0, 0, 0, 0, 0, 0, 1), (1,)),  # deg 6
        J=cat[1].J, automorphism_orders=(1,), family_index=None, alpha=None,
        conditions=None, in_exceptional_set_s=False, members=())
    report = classify(cat + [bad])
    assert report.had_violations
    byl = {e.label: e for e in report.entries}
    assert byl["9Z-9Z"].error is not None
    assert byl["2A-2A"].bucket is not None  # others unaffected


def test_check_curve():
    cat = sample_catalog()
    # pi = t^2 + 1728 for 2A-2A: j = 1732 pulls back to t = +-2
    res = check_curve("2A-2A", Fraction(1732), cat)
    assert res.kind == "Member"
    assert res.witnesses == (Fraction(-2), Fraction(2))
    res = check_curve("2A-2A", Fraction(1730), cat)
    assert res.kind == "NotMember"
    assert check_curve("2A-2A", Fraction(0), cat).kind == "ExcludedJ"
    assert check_curve("2A-2A", Fraction(1728), cat).kind == "ExcludedJ"
    res = check_curve("2A-2A", INFINITY, cat)
    assert res.kind == "Member" and res.witnesses[-1] is INFINITY
    with pytest.raises(UnknownLabel):
        check_curve("XX-XX", Fraction(5), cat)
