import time
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqsketch import dsl
from eqsketch.core import TERM, TYPE, TYPE_MARKS, RuleTag, Specification, mark_results, spec_equal
from eqsketch.decorate import decoration_closure
from eqsketch.errors import BudgetExceeded, DuplicateName, EqsketchError, SyntaxError_
from eqsketch.inference import saturate

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


# each mark statement's fault is raised at its statement, not by the
# final validate at the end of the file
MARK_FAULTS = [
    ("type X\ntype Y\nterm f : X -> X\nterm c : X -> Y\ncompose c = f . f\n",
     "5:9: c is not of shape X -> X"),
    ("type X\ntype Y\nproduct P = X * X with p1 p2\nterm f : X -> X\nterm g : Y -> X\n"
     "tuple t = < f , g >\n", "6:7: f and g are not co-initial"),
    ("type X\ntype Y\nproduct P = X * X with p1 p2\nterm f : X -> X\nterm g : Y -> X\n"
     "term t : X -> P\neq t = < f , g >\n", "7:8: f and g are not co-initial"),
    ("type X\nproduct P = X * X with p1 p2\nterm f : X -> X\nterm t : X -> X\n"
     "tuple t = < f , f >\n", "5:7: t is not of shape X -> P"),
    ("type X\nterm i : X -> X\nterm j : X -> X\nidentity X = i\nidentity X = j\n",
     "5:10: identity mark at X is already declared"),
    ("type X\nterm f : X -> X\ncompose c = f . f\ncompose d = f . f\n",
     "4:9: composition mark (f,f) is already declared"),
    ("type X\nproduct P = X * X with p1 p2\nproduct Q = X * X with q1 q2\n",
     "3:9: product mark (X,X) is already declared"),
    ("type X\nproduct P = X * X with p1 p2\nterm f : X -> X\ntuple t = < f , f >\n"
     "tuple u = < f , f >\n", "5:7: tuple mark (f,f) is already declared"),
    ("unit U\nunit V\n", "2:6: terminal mark is already declared"),
    ("unit U\ntype X\ncollapse X = c\ncollapse X = d\n",
     "4:10: collapsing mark at X is already declared"),
]


@pytest.mark.parametrize("text, message", MARK_FAULTS)
def test_mark_faults_are_raised_at_their_statement(text, message):
    with pytest.raises(SyntaxError_) as e:
        dsl.parse(text)
    assert str(e.value) == message


def test_parameter_constant_of_another_shape_is_raised_at_its_statement():
    with pytest.raises(SyntaxError_) as e:
        dsl.parse("type X\nterm a : X -> X\nparameter type A\nparameter const a\n")
    assert str(e.value) == "4:11: a is not of shape One -> A"
    doc = dsl.parse("unit U\nparameter type A\nterm a : U -> A\nparameter const a\n")
    assert doc.parameter_constant == "a"


def test_taken_projection_name_is_a_duplicate():
    with pytest.raises(DuplicateName):
        dsl.parse("type X\nterm q : X -> X\nproduct P = X * X with q r")
    with pytest.raises(DuplicateName):
        dsl.parse("type X\nproduct P = X * X with q q")


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


# ---------------------------------------------------------------------------
# Reference dump: a verbatim copy of dsl.dump as it was when its
# dependency-order loop removed each emitted mark from the list, kept as
# a byte-for-byte oracle for the version that builds each round's list
# of waiting marks
# ---------------------------------------------------------------------------

def reference_dump(doc: dsl.SpecDocument) -> str:
    s = doc.spec
    lines: List[str] = []
    if doc.is_decorated:
        lines.append("decorated")
    product_types = mark_results(s, TYPE, (RuleTag.BINARY_PRODUCT,))
    type_mark_terms = mark_results(s, TERM, TYPE_MARKS)
    term_mark_terms = mark_results(s, TERM, (RuleTag.COMPOSITION, RuleTag.BINARY_TUPLE))
    if s.terminal is not None:
        lines.append(f"unit {s.terminal}")
    for x in sorted(s.types):
        if x != s.terminal and x not in product_types:
            lines.append(f"type {x}")
    for (y1, y2), (p, p1, p2) in sorted(s.products.items()):
        lines.append(f"product {p} = {y1} * {y2} with {p1} {p2}")
    pure = doc.pure or set()

    def declare(name: str) -> None:
        t = s.terms[name]
        lines.append(f"term {'pure ' if name in pure else ''}{name} : {t.dom} -> {t.cod}")
        declared.add(name)

    # a mark carries no purity, so a pure mark result is declared up front
    declared = set(type_mark_terms)
    for name in sorted(s.terms):
        if name in type_mark_terms:
            continue
        if name in pure or name not in term_mark_terms:
            declare(name)
    for x in sorted(s.identities):
        lines.append(f"identity {x} = {s.identities[x]}")
    for x in sorted(s.collapsings):
        lines.append(f"collapse {x} = {s.collapsings[x]}")
    # compose/tuple marks may use each other's result terms; emit in
    # dependency order, forward-declaring a result when stuck on a cycle
    marks: List[Tuple[str, str, str, str]] = []
    for (f, g), c in sorted(s.compositions.items(), key=lambda kv: (kv[1], kv[0])):
        marks.append(("compose", c, f, g))
    for (f, g), t in sorted(s.tuples.items(), key=lambda kv: (kv[1], kv[0])):
        marks.append(("tuple", t, f, g))
    while marks:
        emitted = False
        for m in list(marks):
            kind, c, f, g = m
            if f in declared and g in declared:
                if kind == "compose":
                    lines.append(f"compose {c} = {g} . {f}")
                else:
                    lines.append(f"tuple {c} = < {f} , {g} >")
                declared.add(c)
                marks.remove(m)
                emitted = True
        if not emitted:
            # a pending mark waits for an argument that is itself the
            # result of a pending mark, which is not declared yet
            declare(next(c for _k, c, _f, _g in marks if c not in declared))
    for (a, b) in sorted(s.equations):
        lines.append(f"eq {a} = {b}")
    if doc.parameter_type is not None:
        lines.append(f"parameter type {doc.parameter_type}")
    if doc.parameter_constant is not None:
        lines.append(f"parameter const {doc.parameter_constant}")
    return "\n".join(lines) + ("\n" if lines else "")


def _assert_dump_matches_reference(doc: dsl.SpecDocument) -> None:
    assert dsl.dump(doc) == reference_dump(doc)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_dump_matches_reference_on_corpus_saturations(name):
    s = CORPUS[name]()
    _assert_dump_matches_reference(dsl.SpecDocument(s))
    for depth in (1, 2):
        try:
            sat = saturate(s, depth).spec
        except BudgetExceeded:
            continue
        _assert_dump_matches_reference(dsl.SpecDocument(sat))


@pytest.mark.parametrize("name", sorted(DECORATED))
def test_dump_matches_reference_on_decorated_saturations(name):
    d = DECORATED[name]()
    sat = saturate(d.base, 1).spec
    _assert_dump_matches_reference(dsl.SpecDocument(sat, set(d.pure_terms)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_dump_matches_reference_on_generated_specs(case):
    s = case[0]
    _assert_dump_matches_reference(dsl.SpecDocument(s))
    _assert_dump_matches_reference(dsl.SpecDocument(saturate(s, 1).spec))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_decorated_specs())
def test_dump_matches_reference_on_generated_decorated_specs(d):
    _assert_dump_matches_reference(dsl.SpecDocument(d.base, set(d.pure_terms)))


def test_dump_of_a_large_saturation_is_fast():
    # saturate --depth 3 on two X -> X terms
    s = Specification(types={"X"})
    s.add_term("a", "X", "X")
    s.add_term("b", "X", "X")
    sat = saturate(s, 3, cap=100000).spec
    assert len(sat.terms) == 43224
    t0 = time.perf_counter()
    text = dsl.dump(dsl.SpecDocument(sat))
    assert time.perf_counter() - t0 < 3
    assert text.count("\ncompose ") == len(sat.compositions)


# ---------------------------------------------------------------------------
# Fuzzing: statements of every kind over a few colliding names, keyword
# soup and free text
# ---------------------------------------------------------------------------

_TYPES = st.sampled_from(["X", "X", "Y", "U", "P"])
_TERMS = st.sampled_from(["f", "g", "h", "p1", "p2", "e"])
_STATEMENTS = [
    ("type {}", (_TYPES,)), ("unit {}", (_TYPES,)),
    ("term {} : {} -> {}", (_TERMS, _TYPES, _TYPES)),
    ("term pure {} : {} -> {}", (_TERMS, _TYPES, _TYPES)),
    ("product {} = {} * {} with {} {}", (_TYPES, _TYPES, _TYPES, _TERMS, _TERMS)),
    ("identity {} = {}", (_TYPES, _TERMS)), ("collapse {} = {}", (_TYPES, _TERMS)),
    ("compose {} = {} . {}", (_TERMS, _TERMS, _TERMS)),
    ("tuple {} = <{}, {}>", (_TERMS, _TERMS, _TERMS)),
    ("eq {} = {}", (_TERMS, _TERMS)), ("eq {} . {} = {}", (_TERMS, _TERMS, _TERMS)),
    ("eq <{}, {}> = {}", (_TERMS, _TERMS, _TERMS)),
    ("decorated", ()), ("parameter type {}", (_TYPES,)), ("parameter const {}", (_TERMS,)),
]
_SOUP = st.lists(st.sampled_from(sorted(dsl.KEYWORDS) + ["X", "f", ":", "->", "=", ".",
                                                         "<", ">", ",", "*", "#"]),
                 max_size=8).map(" ".join)


@st.composite
def _statement(draw):
    text, parts = draw(st.sampled_from(_STATEMENTS))
    return text.format(*(draw(p) for p in parts))


# most draws fail to parse; statements after three declarations parse
# more often, so the round trip sees specs of several kinds
_TEXTS = st.one_of(
    st.lists(st.one_of(_statement(), _statement(), _SOUP, st.text(max_size=20)),
             max_size=12),
    st.lists(_statement(), max_size=6).map(lambda lines: ["type X", "type Y", "unit U"] + lines),
).map("\n".join)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_TEXTS)
def test_parse_raises_only_eqsketch_errors_and_round_trips(text):
    try:
        doc = dsl.parse(text)
    except EqsketchError:
        return
    back = dsl.parse(dsl.dump(doc))
    assert back.spec == doc.spec
    assert (back.pure, back.parameter_type, back.parameter_constant) == \
        (doc.pure, doc.parameter_type, doc.parameter_constant)
