from eqsketch.core import Specification, spec_equal, validate
from eqsketch.decorate import (DecoratedSpecification, decoration_closure,
                               pure_part, purify, undecorate,
                               validate_decorated)

from conftest import CORPUS, DECORATED


def test_decorated_corpus_validates():
    for name, mk in DECORATED.items():
        assert validate_decorated(mk()) == [], name


def test_closure_forces_structural_terms_pure():
    d = DecoratedSpecification(CORPUS["monoid_core"](), {"mul", "e"})
    closed, added = decoration_closure(d)
    for t in ("id_M", "tu_M", "p1", "p2"):
        assert closed.is_pure(t)
    # composites and tuples of pure terms become pure too
    for t in ("e_c", "lpair", "rpair"):
        assert closed.is_pure(t)


def test_closure_is_idempotent():
    d = DecoratedSpecification(CORPUS["monoid_core"](), {"mul"})
    once, _ = decoration_closure(d)
    twice, added = decoration_closure(once)
    assert not added
    assert once.pure_terms == twice.pure_terms


def test_closure_leaves_general_terms_alone():
    d = DECORATED["endo"]()
    closed, _ = decoration_closure(d)
    assert not closed.is_pure("s")


def test_purify_then_undecorate_is_identity():
    for name, mk in CORPUS.items():
        s = mk()
        assert spec_equal(undecorate(purify(s)), s), name


def test_pure_part_drops_general_content():
    d = DECORATED["idempotent"]()
    p = pure_part(d)
    assert validate(p) == []
    assert "e" in p.terms
    assert "s" not in p.terms and "ss" not in p.terms
    assert p.equations == set()


def test_pure_part_keeps_types():
    d = DECORATED["two_ops"]()
    p = pure_part(d)
    assert p.types == d.base.types
    assert p.terms == {}


def test_validate_decorated_names_each_broken_rule():
    s = Specification()
    for x in ("X", "P"):
        s.add_type(x)
    s.add_type("U")
    s.terminal = "U"
    for t, dom, cod in (("p1", "P", "X"), ("p2", "P", "X"), ("id_X", "X", "X"),
                        ("tu_X", "X", "U"), ("f", "X", "X"), ("g", "X", "X"),
                        ("c", "X", "X"), ("t", "X", "P")):
        s.add_term(t, dom, cod)
    s.products[("X", "X")] = ("P", "p1", "p2")
    s.identities["X"] = "id_X"
    s.collapsings["X"] = "tu_X"
    s.compositions[("f", "g")] = "c"
    s.tuples[("f", "g")] = "t"
    every = set(s.terms)
    assert validate_decorated(DecoratedSpecification(s, every)) == []
    cases = [
        (every | {"ghost"}, "pure mark on unknown term ghost"),
        (every - {"id_X"}, "identity id_X must be pure"),
        (every - {"p1"}, "projection p1 must be pure"),
        (every - {"tu_X"}, "collapsing tu_X must be pure"),
        (every - {"c"}, "composite c of pure terms must be pure"),
        (every - {"t"}, "tuple t of pure terms must be pure"),
    ]
    for pure, message in cases:
        assert validate_decorated(DecoratedSpecification(s, pure)) == [message]
    # every rule broken at once: one message each, in the order of MARK_KINDS
    assert validate_decorated(DecoratedSpecification(s, {"f", "g", "ghost"})) == [
        "pure mark on unknown term ghost",
        "identity id_X must be pure",
        "composite c of pure terms must be pure",
        "projection p1 must be pure",
        "projection p2 must be pure",
        "tuple t of pure terms must be pure",
        "collapsing tu_X must be pure",
    ]
