"""The value classes keep the equality, hash, order and repr that they had as
dataclasses: equal only to an instance of the same class with equal fields,
hashed as the tuple of those fields, and shown as ``Name(field=value, ...)``."""

import pytest

import eqzeta as eq
from eqzeta.documents import InputDocument
from eqzeta.groups import Subgroup, SubgroupClassTable, TableOfMarks
from eqzeta.zg import ClassicalZeta, TripleClass


def test_subgroup():
    h = Subgroup((0, 2))
    assert h == Subgroup((0, 2)) and h != Subgroup((0, 1))
    assert h != ((0, 2),) and h != (0, 2)
    assert hash(h) == hash(((0, 2),))
    assert repr(h) == "Subgroup(elements=(0, 2))"
    assert (h.order, 2 in h, 1 in h) == (2, True, False)
    with pytest.raises(TypeError):
        h < Subgroup((0, 1))  # noqa: B015
    with pytest.raises(AttributeError):
        h.elements = (0,)


def test_table_of_marks():
    t = TableOfMarks(((1,),))
    assert t == TableOfMarks(((1,),)) and t != TableOfMarks(((2,),))
    assert t != (((1,),),)
    assert hash(t) == hash((((1,),),))
    assert repr(t) == "TableOfMarks(matrix=((1,),))"


def test_subgroup_class_table_ignores_the_conjugators():
    classes, sizes, normalizers = (Subgroup((0,)), Subgroup((0, 1))), (1, 1), ((0, 1), (0, 1))
    a = SubgroupClassTable(classes, sizes, normalizers, {(0,): (0, 0), (0, 1): (1, 0)})
    b = SubgroupClassTable(classes, sizes, normalizers, _conjugator={})
    assert a == b and hash(a) == hash(b) == hash((classes, sizes, normalizers))
    assert a != SubgroupClassTable(classes, (1, 2), normalizers, {})
    assert a != (classes, sizes, normalizers)
    assert repr(a) == (
        "SubgroupClassTable(classes=(Subgroup(elements=(0,)), Subgroup(elements=(0, 1))), "
        "class_sizes=(1, 1), normalizers=((0, 1), (0, 1)))"
    )
    assert len(a) == 2
    with pytest.raises(AttributeError):
        a.classes = ()
    # a group's table holds its marks as a cached property, which needs a __dict__
    table = eq.symmetric(3).subgroup_classes
    assert table._marks is table._marks and "_marks" in table.__dict__


def test_triple_class_orders_like_its_tuple_and_equals_no_tuple():
    keys = [(1, 2, 0), (0, 3, 1), (0, 1, 5), (1, 1, 1), (0, 1, 2)]
    triples = [TripleClass(*k) for k in keys]
    assert [(t.h_class, t.m, t.alpha) for t in sorted(triples)] == sorted(keys)
    t = TripleClass(h_class=0, m=1, alpha=2)
    assert t == TripleClass(0, 1, 2) and t != TripleClass(0, 1, 3)
    assert t <= TripleClass(0, 1, 2) < TripleClass(0, 2, 0) and TripleClass(1, 1, 0) > t
    assert hash(t) == hash((0, 1, 2))
    assert repr(t) == "TripleClass(h_class=0, m=1, alpha=2)"
    # a Lefschetz table is keyed by plain (h, m, a) tuples; a triple is not one of them
    assert t != (0, 1, 2) and (0, 1, 2) != t
    assert {(0, 1, 2): 1}.get(t) is None and t not in {(0, 1, 2)}
    with pytest.raises(TypeError):
        t < (0, 1, 3)  # noqa: B015
    with pytest.raises(AttributeError):
        t.m = 2
    with pytest.raises(AttributeError):
        del t.m


def test_classical_zeta():
    c = ClassicalZeta(((2, 1),))
    assert c == ClassicalZeta(((2, 1),)) and c != ClassicalZeta(((2, 2),))
    assert c != ((2, 1),) and c != (((2, 1),),)
    assert hash(c) == hash((((2, 1),),))
    assert repr(c) == "ClassicalZeta((1-t^2))"
    assert ClassicalZeta() == ClassicalZeta.one() and repr(ClassicalZeta()) == "ClassicalZeta(1)"


def test_stratum_record():
    r = eq.StratumRecord(chi=1, m=2, n=2, subgroup=(0,), alpha=1)
    assert r == eq.StratumRecord(1, 2, 2, (0,), 1) and r != eq.StratumRecord(1, 2, 1, (0,), 0)
    assert r != (1, 2, 2, (0,), 1)
    assert hash(r) == hash((1, 2, 2, (0,), 1))
    assert repr(r) == "StratumRecord(chi=1, m=2, n=2, subgroup=(0,), alpha=1)"
    with pytest.raises(AttributeError):
        r.chi = 0


def test_lefschetz_table_drops_zeros_and_is_unhashable():
    c2 = eq.cyclic(2)
    t = eq.LefschetzTable(c2, 2, {(0, 1, 0): 0, (0, 2, 1): 3})
    assert t.entries == {(0, 2, 1): 3}
    assert t == eq.LefschetzTable(c2, 2, {(0, 2, 1): 3})
    assert t != eq.LefschetzTable(c2, 3, {(0, 2, 1): 3})
    assert t != eq.LefschetzTable(eq.cyclic(2), 2, {(0, 2, 1): 3})  # groups compare by identity
    assert t != (c2, 2, {(0, 2, 1): 3})
    assert eq.LefschetzTable(c2, 1).entries == {}
    assert repr(t) == f"LefschetzTable(group={c2!r}, m_max=2, entries={{(0, 2, 1): 3}})"
    with pytest.raises(TypeError):
        hash(t)
    t.m_max = 4  # a mutable record, as the dataclass was
    assert t.m_max == 4


def test_input_document_is_a_mutable_unhashable_record():
    c2 = eq.cyclic(2)
    d = InputDocument("group", c2, None, {"type": "cyclic", "n": 2})
    assert d == InputDocument("group", c2, None, {"type": "cyclic", "n": 2})
    assert d != InputDocument("expr", c2, None, {"type": "cyclic", "n": 2})
    assert d != ("group", c2, None, {"type": "cyclic", "n": 2})
    assert repr(d) == (
        f"InputDocument(kind='group', group={c2!r}, payload=None, "
        "raw_group={'type': 'cyclic', 'n': 2})"
    )
    with pytest.raises(TypeError):
        hash(d)
