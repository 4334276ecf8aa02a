"""Residue matrices against a brute-force 2x2 modular arithmetic oracle,
and the value semantics of the package's immutable records."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aimg.arithcond import Leaf, VCondition
from aimg.classifier import CatalogEntry, CurveCheck, MemberData
from aimg.errors import IncompatibleResidues, NotInvertible
from aimg.matgroup import AbelianHom, FiniteAbelianGroup
from aimg.modgenus import CosetAction, GenusData
from aimg.modmatrix import ResidueMatrix, crt_combine, parse_matrix
from aimg.opengroup import CommutatorResult, DetImage, OpenSubgroup, full_gl2
from aimg.ratfunc import FAMILY_MAPS, MapCatalogEntry, RationalMap
from aimg.surjectivity import SurjectivityVerdict, TruncatedAdelicGroup


def mat_mul_oracle(a, b, n):
    return (
        (a[0] * b[0] + a[1] * b[2]) % n,
        (a[0] * b[1] + a[1] * b[3]) % n,
        (a[2] * b[0] + a[3] * b[2]) % n,
        (a[2] * b[1] + a[3] * b[3]) % n,
    )


def test_mul_matches_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(2, 30)
        a = tuple(rng.randrange(n) for _ in range(4))
        b = tuple(rng.randrange(n) for _ in range(4))
        got = (ResidueMatrix.from_tuple(a, n)
               * ResidueMatrix.from_tuple(b, n)).entries
        assert got == mat_mul_oracle(a, b, n)


def test_det_and_inverse():
    rng = random.Random(2)
    checked = 0
    for _ in range(500):
        n = rng.randrange(2, 25)
        a = tuple(rng.randrange(n) for _ in range(4))
        m = ResidueMatrix.from_tuple(a, n)
        assert m.det() == (a[0] * a[3] - a[1] * a[2]) % n
        if m.is_invertible():
            prod = (m * m.inv()).entries
            assert prod == (1 % n, 0, 0, 1 % n)
            checked += 1
        else:
            with pytest.raises(NotInvertible):
                m.inv()
    assert checked > 50


def test_transpose_and_reduce():
    m = ResidueMatrix.from_tuple((1, 2, 3, 4), 10)
    assert m.transpose().entries == (1, 3, 2, 4)
    assert m.reduce_mod(5).entries == (1, 2, 3, 4)
    assert m.reduce_mod(2).entries == (1, 0, 1, 0)


def test_crt_combine_recovers_both_parts():
    rng = random.Random(3)
    for _ in range(100):
        a = tuple(rng.randrange(4) for _ in range(4))
        b = tuple(rng.randrange(5) for _ in range(4))
        c = crt_combine(ResidueMatrix.from_tuple(a, 4),
                        ResidueMatrix.from_tuple(b, 5))
        assert c.modulus == 20
        assert c.reduce_mod(4).entries == a
        assert c.reduce_mod(5).entries == b


def test_crt_combine_non_coprime():
    # compatible residues at the shared factor combine to the lcm
    c = crt_combine(ResidueMatrix.identity(4), ResidueMatrix.identity(6))
    assert c.modulus == 12 and c.entries == (1, 0, 0, 1)
    with pytest.raises(IncompatibleResidues):
        crt_combine(ResidueMatrix.from_tuple((1, 0, 0, 1), 4),
                    ResidueMatrix.from_tuple((0, 0, 0, 1), 6))


def test_parse_matrix_roundtrip_and_errors():
    m = parse_matrix("[[1,2],[3,4]] mod 7")
    assert m.entries == (1, 2, 3, 4) and m.modulus == 7
    for bad in ("", "[[1,2],[3]] mod 7", "[[1,2],[3,4]] mod 0", "nonsense"):
        with pytest.raises(ValueError):
            parse_matrix(bad)


_ENTRIES = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 60), x=_ENTRIES, shifts=_ENTRIES,
       m=st.integers(1, 60), y=_ENTRIES)
def test_residue_matrix_is_a_reduced_value(n, x, shifts, m, y):
    r = ResidueMatrix(n, *x)
    assert r.modulus == n
    assert r.entries == (r.a, r.b, r.c, r.d) == tuple(v % n for v in x)
    # equal matrices, however their entries were given, hash alike
    same = ResidueMatrix(n, *(v + k * n for v, k in zip(x, shifts)))
    assert same == r and hash(same) == hash(r)
    # ordered as (modulus, a, b, c, d)
    s = ResidueMatrix(m, *y)

    def key(t):
        return (t.modulus, t.a, t.b, t.c, t.d)

    assert (r < s, r <= s, r == s, r != s, r > s, r >= s) == (
        key(r) < key(s), key(r) <= key(s), key(r) == key(s),
        key(r) != key(s), key(r) > key(s), key(r) >= key(s))
    for name in ("modulus", "a", "b", "c", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
    assert repr(r) == f"[[{r.a},{r.b}],[{r.c},{r.d}]] mod {n}"
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is ResidueMatrix and back == r


def test_frozen_records_are_immutable_values():
    """Assignment and deletion raise, a deep copy is equal, and fields
    that equality ignores stay out of it."""
    a = FiniteAbelianGroup((2,), ("u",), {"u": (1,)})
    full = OpenSubgroup.full()
    pi = RationalMap((0, 0, 1), (1,), provenance=("pi",))
    records = [
        (Leaf("squarefree_not_pm1"), "kind"),
        (VCondition(()), "leaves"),
        (MemberData(Fraction(5), 5, ((1,),)), "v"),
        (CatalogEntry("X", full, pi, pi, pi, None, None, None, None, False,
                      ()), "label"),
        (CurveCheck("NotMember"), "kind"),
        (a, "invariants"),
        (AbelianHom(a, a, ((1,),)), "images"),
        (CosetAction(1, 1, (0,), (0,), (0,)), "degree"),
        (GenusData(0, 1, 1, 1, 1), "genus"),
        (full, "level"),
        (DetImage(1, frozenset({0})), "values"),
        (CommutatorResult(full, 1, 6, True), "index_in_sl"),
        (pi, "num"),
        (FAMILY_MAPS[1], "base_degree"),
        (TruncatedAdelicGroup(full_gl2(4), (full_gl2(5),)), "prime_parts"),
        (SurjectivityVerdict("Surjective"), "kind"),
        (ResidueMatrix.identity(3), "a"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.unknown = None
        assert copy.deepcopy(record) == record
    # fields kept out of equality, hashing and the repr
    b = FiniteAbelianGroup((2,), ("u",), {"u": (0,)})
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "FiniteAbelianGroup(invariants=(2,), basis=('u',))"
    plain = RationalMap((0, 0, 1), (1,))
    assert pi == plain and hash(pi) == hash(plain)
    assert repr(pi) == repr(plain)
    entry = FAMILY_MAPS[1]
    twin = MapCatalogEntry(1, False, 2, None, None, None, None)
    assert entry == twin and hash(entry) == hash(twin)
    assert twin != MapCatalogEntry(1, False, 3, None, None, None, None)
