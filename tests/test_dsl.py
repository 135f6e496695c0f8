import pytest
from hypothesis import HealthCheck, given, settings

from eqsketch import dsl
from eqsketch.core import spec_equal
from eqsketch.decorate import decoration_closure
from eqsketch.errors import DuplicateName, SyntaxError_

from conftest import CORPUS, DECORATED, small_decorated_specs, small_specs


def test_empty_input_is_empty_spec():
    doc = dsl.parse("")
    assert doc.spec.types == set()
    assert doc.spec.terms == {}
    assert not doc.is_decorated


def test_endofunction_file():
    doc = dsl.parse("""
        # the running example
        unit U
        type X
        term pure e : U -> X
        term s : X -> X
    """)
    assert len(doc.spec.types) == 2
    assert len(doc.spec.terms) == 2
    assert doc.pure == {"e"}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_dump_parse_round_trip_corpus(name):
    s = CORPUS[name]()
    text = dsl.dump(dsl.SpecDocument(s))
    back = dsl.parse(text)
    assert spec_equal(s, back.spec), name
    assert dsl.dump(back) == text


@pytest.mark.parametrize("name", sorted(DECORATED))
def test_dump_parse_round_trip_decorated(name):
    d = DECORATED[name]()
    text = dsl.dump(dsl.SpecDocument(d.base, set(d.pure_terms)))
    back = dsl.parse(text)
    assert spec_equal(d.base, back.spec)
    assert back.is_decorated
    got = back.decorated()
    want, _ = decoration_closure(d)
    assert got.pure_terms == want.pure_terms


def test_eq_expression_elaboration():
    doc = dsl.parse("""
        type X
        term s : X -> X
        eq s . s = s
    """)
    assert ("s", "s") in doc.spec.compositions
    c = doc.spec.compositions[("s", "s")]
    assert doc.spec.equations == {tuple(sorted((c, "s")))}


def test_tuple_expression_elaboration():
    doc = dsl.parse("""
        type Y1
        type Y2
        product P = Y1 * Y2 with p1 p2
        type X
        term f : X -> Y1
        term g : X -> Y2
        term t : X -> P
        eq t = < f , g >
    """)
    assert ("f", "g") in doc.spec.tuples


def test_syntax_error_has_position():
    with pytest.raises(SyntaxError_) as e:
        dsl.parse("type X\nterm f :")
    assert "2:" in str(e.value)


def test_malformed_eq_reports_after_lhs():
    with pytest.raises(SyntaxError_):
        dsl.parse("type X\nterm f : X -> X\neq f")


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName):
        dsl.parse("type X\ntype X")
    with pytest.raises(DuplicateName):
        dsl.parse("type X\nterm f : X -> X\nterm f : X -> X")


def test_keywords_are_reserved():
    with pytest.raises(SyntaxError_):
        dsl.parse("type eq")


def test_parameter_declarations():
    doc = dsl.parse("""
        type X
        parameter type A
        parameter const a
    """)
    assert doc.parameter_type == "A"
    a = doc.spec.terms[doc.parameter_constant]
    assert a.cod == "A" and a.dom == doc.spec.terminal
    p = doc.parameterized()
    assert p.parameter_type == "A"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_dump_parse_round_trip_on_generated_specs(case):
    # self-referential compose marks make dump forward-declare results
    s = case[0]
    assert spec_equal(dsl.parse(dsl.dump(dsl.SpecDocument(s))).spec, s)


def _round_trip_purity(doc):
    back = dsl.parse(dsl.dump(doc))
    assert spec_equal(back.spec, doc.spec)
    return decoration_closure(back.decorated())[0].pure_terms


def test_dump_keeps_pure_on_a_self_referential_result():
    # compose s = s . s needs s declared before it, and with its purity
    doc = dsl.parse("decorated\nunit U\ntype X\nterm pure e : U -> X\n"
                    "term pure s : X -> X\ncompose s = s . s\n")
    assert _round_trip_purity(doc) == {"e", "s"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_decorated_specs())
def test_decorated_dump_parse_round_trip_on_generated_specs(d):
    assert _round_trip_purity(dsl.SpecDocument(d.base, set(d.pure_terms))) == d.pure_terms
