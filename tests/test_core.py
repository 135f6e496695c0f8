import itertools
import random
import re
import time
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsketch.core import (MARK_KINDS, TERM, TYPE, IsoResult, RuleTag, Specification,
                           SpecMorphism, _UnionFind, compose, coproduct, eqpair,
                           fresh_name, identity_morphism, iso_search, pushout,
                           pushout_universal_check, spec_equal, validate,
                           validate_morphism)
from eqsketch.errors import SourceTargetMismatch
from eqsketch.inference import STRUCTURAL_RULES, compose_fractions, rule, saturate
from eqsketch.yoneda import ElementaryPoint, elementary

from conftest import CORPUS, small_specs


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_validates(name):
    assert validate(CORPUS[name]()) == []


def test_validate_flags_nonparallel_equation():
    s = Specification()
    for x in "XYZ":
        s.add_type(x)
    s.add_term("f", "X", "Y")
    s.add_term("g", "X", "Z")
    s.equations.add(("f", "g"))
    assert validate(s)


def test_identity_is_composition_unit():
    s = CORPUS["endo"]()
    i = identity_morphism(s)
    f = SpecMorphism(s, s, {"X": "X", "U": "U"}, {"e": "e", "s": "s"})
    assert compose(i, f).term_map == f.term_map
    assert compose(f, i).type_map == f.type_map


def test_compose_rejects_mismatch():
    s1, s2 = CORPUS["single_type"](), CORPUS["single_term"]()
    f = identity_morphism(s1)
    g = identity_morphism(s2)
    with pytest.raises(SourceTargetMismatch):
        compose(f, g)


def test_coproduct_is_disjoint_union():
    out, in1, in2 = coproduct(CORPUS["single_term"](), CORPUS["single_type"]())
    assert len(out.types) == 3
    assert len(out.terms) == 1
    assert validate_morphism(in1) == []
    assert validate_morphism(in2) == []


def _glued_terms_span():
    # two generic arrows glued at codomain/domain
    t1 = elementary(ElementaryPoint.TERM)
    t2 = elementary(ElementaryPoint.TERM)
    point = Specification()
    point.add_type("P")
    f = SpecMorphism(point, t1, {"P": "Y"}, {})
    g = SpecMorphism(point, t2, {"P": "X"}, {})
    return f, g


def _clashing_composites_span():
    # both legs mark the composite of the same pair
    cons = elementary(ElementaryPoint.CONS)
    comp1 = elementary(ElementaryPoint.COMP)
    comp2 = elementary(ElementaryPoint.COMP)
    inc = {"X": "X", "Y": "Y", "Z": "Z"}
    f = SpecMorphism(cons, comp1, inc, {"f": "f", "g": "g"})
    g = SpecMorphism(cons, comp2, inc, {"f": "f", "g": "g"})
    return f, g


def test_pushout_glues_terms_along_shared_type():
    # 3 types, 2 terms
    f, g = _glued_terms_span()
    out, in1, in2 = pushout(f, g)
    assert len(out.types) == 3
    assert len(out.terms) == 2
    assert validate_morphism(in1) == []
    assert validate_morphism(in2) == []
    assert in1.type_map["Y"] == in2.type_map["X"]


def test_pushout_identity_span_is_isomorphic():
    s = CORPUS["monoid_core"]()
    i = identity_morphism(s)
    out, _1, _2 = pushout(i, i)
    assert bool(iso_search(s, out))


def test_pushout_universal_property():
    f, g = _glued_terms_span()
    t1, t2 = f.target, g.target
    # cocone into a chain spec gluing the same way
    chain = CORPUS["comp_chain"]()
    c1 = SpecMorphism(t1, chain, {"X": "X", "Y": "Y"}, {"f": "f"})
    c2 = SpecMorphism(t2, chain, {"X": "Y", "Y": "Z"}, {"f": "g"})
    assert pushout_universal_check(f, g, c1, c2)


def test_pushout_merges_clashing_features():
    # results are merged, not duplicated
    out, _1, _2 = pushout(*_clashing_composites_span())
    assert len(out.terms) == 3
    assert len(out.compositions) == 1


def test_iso_search_finds_renaming():
    s = CORPUS["endo"]()
    r = Specification()
    r.add_type("A")
    r.add_type("One")
    r.terminal = "One"
    r.add_term("const", "One", "A")
    r.add_term("step", "A", "A")
    res = iso_search(s, r)
    assert res and validate_morphism(res.iso) == []


def test_iso_search_definitive_negative():
    res = iso_search(CORPUS["single_term"](), CORPUS["two_parallel"]())
    assert not res and res.definitive
    # X maps to either of two types alike, but not onto both
    two = Specification(types={"X", "Y"})
    assert iso_search(CORPUS["single_type"](), two, budget=0) == IsoResult(None, True)
    assert iso_search(two, CORPUS["single_type"](), budget=0) == IsoResult(None, True)


def test_spec_equal_is_exact():
    assert spec_equal(CORPUS["endo"](), CORPUS["endo"]())
    assert not spec_equal(CORPUS["endo"](), CORPUS["single_type"]())


def test_iso_search_precheck_counts_the_marks_of_each_kind():
    # monoid_core carries a mark of every kind; each copy drops one of them
    # and keeps its results as a plain type or term, so only that kind's
    # mark count tells the two apart, and refinement alone refutes
    s = CORPUS["monoid_core"]()
    for tag in MARK_KINDS:
        dropped = s.copy()
        if tag is RuleTag.TERMINAL_TYPE:
            dropped.terminal = None
        else:
            marks = getattr(dropped, {RuleTag.IDENTITY: "identities",
                                      RuleTag.COMPOSITION: "compositions",
                                      RuleTag.BINARY_PRODUCT: "products",
                                      RuleTag.BINARY_TUPLE: "tuples",
                                      RuleTag.COLLAPSING: "collapsings"}[tag])
            del marks[next(iter(marks))]
        assert (dropped.types, dropped.terms) == (s.types, s.terms)
        assert iso_search(s, dropped, budget=0) == IsoResult(None, True), tag
        assert iso_search(dropped, s, budget=0) == IsoResult(None, True), tag


# ---------------------------------------------------------------------------
# Reference pushout and morphism check: verbatim copies of pushout and
# validate_morphism as they were when each wrote the six kinds of mark out
# by hand, kept as differential oracles for the versions that read the
# table of mark kinds; the morphism check visits the source's types and
# equations in sorted order, as validate_morphism does, so that its list
# of errors does not depend on the hash seed
# ---------------------------------------------------------------------------

def reference_validate_morphism(m: SpecMorphism) -> List[str]:
    """Check graph-morphism, feature-preservation and equation-preservation."""
    out: List[str] = []
    s, t = m.source, m.target
    for x in sorted(s.types):
        if m.type_map.get(x) not in t.types:
            out.append(f"type {x} not mapped to a target type")
    for n, tm in s.terms.items():
        img = m.term_map.get(n)
        if img not in t.terms:
            out.append(f"term {n} not mapped to a target term")
            continue
        ti = t.terms[img]
        if ti.dom != m.type_map.get(tm.dom) or ti.cod != m.type_map.get(tm.cod):
            out.append(f"term {n}: image {img} has wrong dom/cod")
    if out:
        return out
    for x, i in s.identities.items():
        if t.identities.get(m.type_map[x]) != m.term_map[i]:
            out.append(f"identity mark at {x} not preserved")
    for (f, g), c in s.compositions.items():
        if t.compositions.get((m.term_map[f], m.term_map[g])) != m.term_map[c]:
            out.append(f"composition mark ({f},{g}) not preserved")
    for (y1, y2), (p, p1, p2) in s.products.items():
        img = t.products.get((m.type_map[y1], m.type_map[y2]))
        if img != (m.type_map[p], m.term_map[p1], m.term_map[p2]):
            out.append(f"product mark ({y1},{y2}) not preserved")
    for (f1, f2), tt in s.tuples.items():
        if t.tuples.get((m.term_map[f1], m.term_map[f2])) != m.term_map[tt]:
            out.append(f"tuple mark ({f1},{f2}) not preserved")
    if s.terminal is not None and t.terminal != m.type_map.get(s.terminal):
        out.append("terminal mark not preserved")
    for x, c in s.collapsings.items():
        if t.collapsings.get(m.type_map[x]) != m.term_map[c]:
            out.append(f"collapsing mark at {x} not preserved")
    for (t1, t2) in sorted(s.equations):
        a, b = m.term_map[t1], m.term_map[t2]
        if a != b and eqpair(a, b) not in t.equations:
            out.append(f"equation ({t1},{t2}) not preserved")
    return out


def reference_pushout(f: SpecMorphism, g: SpecMorphism
                      ) -> Tuple[Specification, SpecMorphism, SpecMorphism]:
    """Pushout of the span  S1 <- S0 -> S2  in the category of specifications.

    Merged sites that would receive two marks have their result terms
    identified (the quotient is pushed further), so the "at most one mark
    per site" invariant is kept and the universal property holds.
    """
    s0 = f.source
    if not spec_equal(s0, g.source):
        raise SourceTargetMismatch("pushout legs must share their source")
    sides = {1: f.target, 2: g.target}
    uf_t, uf_m = _UnionFind(), _UnionFind()
    for side, sp in sides.items():
        for x in sp.types:
            uf_t.find((side, x))
        for t in sp.terms:
            uf_m.find((side, t))
    for x in s0.types:
        uf_t.union((1, f.type_map[x]), (2, g.type_map[x]))
    for t in s0.terms:
        uf_m.union((1, f.term_map[t]), (2, g.term_map[t]))

    # merge marks at identified sites until stable
    changed = True
    while changed:
        changed = False
        first: Dict[object, object] = {}

        def mark(uf, site, result) -> None:
            """Identify result with the first result seen at its site."""
            nonlocal changed
            if uf.union(first.setdefault(site, result), result):
                changed = True

        def term_site(kind, side, u, v):
            return kind, uf_m.find((side, u)), uf_m.find((side, v))

        for side, sp in sides.items():
            for x, i in sp.identities.items():
                mark(uf_m, ("identity", uf_t.find((side, x))), (side, i))
            for (u, v), c in sp.compositions.items():
                mark(uf_m, term_site("compose", side, u, v), (side, c))
            for (y1, y2), (p, p1, p2) in sp.products.items():
                key = (uf_t.find((side, y1)), uf_t.find((side, y2)))
                mark(uf_t, ("product", key), (side, p))
                mark(uf_m, ("proj1", key), (side, p1))
                mark(uf_m, ("proj2", key), (side, p2))
            for (u, v), tt in sp.tuples.items():
                mark(uf_m, term_site("tuple", side, u, v), (side, tt))
            if sp.terminal is not None:
                mark(uf_t, ("terminal",), (side, sp.terminal))
            for x, c in sp.collapsings.items():
                mark(uf_m, ("collapse", uf_t.find((side, x))), (side, c))

    def name_classes(uf, items):
        classes = uf.classes(items)
        # deterministic: classes sorted by their sorted member names
        ordered = sorted(classes.values(), key=lambda vs: sorted(n for _s, n in vs))
        names: Dict[object, str] = {}
        taken: Set[str] = set()
        for vs in ordered:
            base = min(n for _s, n in vs)
            nm = fresh_name(base, taken)
            taken.add(nm)
            for v in vs:
                names[uf.find(v)] = nm
        return names

    all_types = [(side, x) for side, sp in sides.items() for x in sp.types]
    all_terms = [(side, t) for side, sp in sides.items() for t in sp.terms]
    tname = name_classes(uf_t, all_types)
    mname = name_classes(uf_m, all_terms)

    def nt(side, x):
        return tname[uf_t.find((side, x))]

    def nm(side, t):
        return mname[uf_m.find((side, t))]

    out = Specification()
    for side, sp in sides.items():
        for x in sp.types:
            out.add_type(nt(side, x))
        for t in sp.terms.values():
            out.add_term(nm(side, t.name), nt(side, t.dom), nt(side, t.cod))
        for x, i in sp.identities.items():
            out.identities[nt(side, x)] = nm(side, i)
        for (u, v), c in sp.compositions.items():
            out.compositions[(nm(side, u), nm(side, v))] = nm(side, c)
        for (y1, y2), (p, p1, p2) in sp.products.items():
            out.products[(nt(side, y1), nt(side, y2))] = (
                nt(side, p), nm(side, p1), nm(side, p2))
        for (u, v), t in sp.tuples.items():
            out.tuples[(nm(side, u), nm(side, v))] = nm(side, t)
        if sp.terminal is not None:
            out.terminal = nt(side, sp.terminal)
        for x, c in sp.collapsings.items():
            out.collapsings[nt(side, x)] = nm(side, c)
        for (t1, t2) in sp.equations:
            out.add_equation(nm(side, t1), nm(side, t2))

    in1 = SpecMorphism(sides[1], out,
                       {x: nt(1, x) for x in sides[1].types},
                       {t: nm(1, t) for t in sides[1].terms})
    in2 = SpecMorphism(sides[2], out,
                       {x: nt(2, x) for x in sides[2].types},
                       {t: nm(2, t) for t in sides[2].terms})
    return out, in1, in2


def _assert_pushouts_agree(f, g):
    got, want = pushout(f, g), reference_pushout(f, g)
    assert spec_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert (a.source, a.target) == (b.source, b.target)
        assert (a.type_map, a.term_map) == (b.type_map, b.term_map)


def _maps(source, target):
    """Every map of the types and terms of source into target that sends
    each term to one whose dom and cod are the images of its own; the
    rule matches are those whose marks are preserved too."""
    xs, ts = sorted(source.types), sorted(source.terms)
    for images in itertools.product(sorted(target.types), repeat=len(xs)):
        tmap = dict(zip(xs, images))
        options = [[u for u in sorted(target.terms)
                    if (target.terms[u].dom, target.terms[u].cod)
                    == (tmap[source.terms[t].dom], tmap[source.terms[t].cod])]
                   for t in ts]
        for images2 in itertools.product(*options):
            yield SpecMorphism(source, target, tmap, dict(zip(ts, images2)))


@pytest.mark.parametrize("tag", STRUCTURAL_RULES)
def test_pushout_matches_reference_on_rule_matches(tag):
    r = rule(tag)
    matched = 0
    for name, mk in CORPUS.items():
        s = mk()
        for match in _maps(r.hypothesis, s):
            if not validate_morphism(match):
                _assert_pushouts_agree(r.inclusion, match)
                matched += 1
    assert matched > 0


def test_pushout_matches_reference_on_coproducts():
    for a, b in itertools.product(sorted(CORPUS), repeat=2):
        empty = Specification()
        _assert_pushouts_agree(SpecMorphism(empty, CORPUS[a](), {}, {}),
                               SpecMorphism(empty, CORPUS[b](), {}, {}))


def test_pushout_matches_reference_on_the_spans_above():
    monoid = identity_morphism(CORPUS["monoid_core"]())
    for f, g in (_glued_terms_span(), (monoid, monoid), _clashing_composites_span()):
        _assert_pushouts_agree(f, g)


@st.composite
def clashing_spans(draw):
    """Two copies of the depth-1 saturation of a small spec, glued along
    all types and along drawn terms of the small spec, each sent to a
    drawn parallel term in the second copy: marks at sites that the
    gluing identifies clash, and their merged results identify further
    sites.  The second copy lists its marks backwards, so a merge often
    waits for one that a later mark brings, a round later."""
    small, _carriers = draw(small_specs())
    s = saturate(small, 1).spec
    glued = draw(st.lists(st.sampled_from(sorted(small.terms)), min_size=1, unique=True))
    s0 = Specification(types=set(s.types))
    for t in glued:
        s0.add_term(t, s.terms[t].dom, s.terms[t].cod)
    other = {t: draw(st.sampled_from([u for u in sorted(small.terms) if s.parallel(t, u)
                                      and u != t] or [t]))
             for t in glued}
    s2 = s.copy()
    s2.compositions = dict(reversed(s.compositions.items()))
    s2.tuples = dict(reversed(s.tuples.items()))
    types = {x: x for x in s.types}
    return (SpecMorphism(s0, s, types, {t: t for t in glued}),
            SpecMorphism(s0, s2, types, other))


@settings(max_examples=200, deadline=None)
@given(clashing_spans())
def test_pushout_matches_reference_on_clashing_spans(span):
    _assert_pushouts_agree(*span)


# a base name, the names that fresh_name makes from it, and a name that
# sorts between them, for terms and for types
_COLLIDING_TERMS = ("f", "f~1", "f~1~1", "f0", "g")
_COLLIDING_TYPES = ("X", "X~1", "X0")


@st.composite
def colliding_spans(draw):
    """Spans whose sides draw their names from one small pool.  The sides
    share names, hold the names that fresh_name makes (f~1, f~1~1) and
    one that sorts among them (f0), and carry marks that the gluing can
    make clash.  Each term of S0 is sent to a drawn term of each side, so
    a leg is often not injective, and two terms of S0 often glue a to b
    and b to a, which makes two classes with equal sorted member names;
    a name on both sides that neither glues makes two more."""

    def side() -> Specification:
        s = Specification()
        for x in draw(st.lists(st.sampled_from(_COLLIDING_TYPES), min_size=1, unique=True)):
            s.add_type(x)
        types = sorted(s.types)
        for n in draw(st.lists(st.sampled_from(_COLLIDING_TERMS), min_size=2, unique=True)):
            s.add_term(n, draw(st.sampled_from(types)), draw(st.sampled_from(types)))
        terms = list(s.terms)

        def pick(dom, cod):
            """A drawn term dom -> cod, or None."""
            ts = [t for t in terms if (s.terms[t].dom, s.terms[t].cod) == (dom, cod)]
            return draw(st.sampled_from(ts)) if ts and draw(st.booleans()) else None

        for x in types:
            i = pick(x, x)
            if i is not None:
                s.identities[x] = i
        composable = [(a, b) for a in terms for b in terms if s.terms[a].cod == s.terms[b].dom]
        for a, b in draw(st.lists(st.sampled_from(composable), max_size=3, unique=True)
                         if composable else st.just([])):
            c = pick(s.terms[a].dom, s.terms[b].cod)
            if c is not None:
                s.compositions[(a, b)] = c
        if draw(st.booleans()):
            y1, y2, p = (draw(st.sampled_from(types)) for _ in range(3))
            p1, p2 = pick(p, y1), pick(p, y2)
            if p1 is not None and p2 is not None:
                s.products[(y1, y2)] = (p, p1, p2)
        if draw(st.booleans()):
            s.terminal = draw(st.sampled_from(types))
            for x in types:
                c = pick(x, s.terminal)
                if c is not None:
                    s.collapsings[x] = c
        for a, b in draw(st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)),
                                  max_size=2)):
            if s.parallel(a, b):
                s.add_equation(a, b)
        assert validate(s) == []
        return s

    s1, s2 = side(), side()
    s0 = Specification()
    maps = ({}, {}), ({}, {})
    glued = draw(st.lists(st.tuples(st.sampled_from(sorted(s1.terms)),
                                    st.sampled_from(sorted(s2.terms))), max_size=2))
    both = sorted(set(s1.terms) & set(s2.terms))
    if len(both) > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(both), min_size=2, max_size=2, unique=True))
        glued += [(a, b), (b, a)]
    for i, images in enumerate(glued):
        d, c, t = f"d{i}", f"c{i}", f"t{i}"
        s0.add_type(d)
        s0.add_type(c)
        s0.add_term(t, d, c)
        for (tm, mm), sp, u in zip(maps, (s1, s2), images):
            tm.update({d: sp.terms[u].dom, c: sp.terms[u].cod})
            mm[t] = u
    for i in range(draw(st.integers(0, 2))):
        s0.add_type(f"x{i}")
        for (tm, _mm), sp in zip(maps, (s1, s2)):
            tm[f"x{i}"] = draw(st.sampled_from(sorted(sp.types)))
    (t1, m1), (t2, m2) = maps
    return SpecMorphism(s0, s1, t1, m1), SpecMorphism(s0, s2, t2, m2)


@settings(max_examples=200, deadline=None)
@given(colliding_spans())
def test_pushout_matches_reference_on_colliding_names(span):
    for leg in span:
        assert validate_morphism(leg) == []
    _assert_pushouts_agree(*span)


def test_pushout_names_tied_classes_in_the_order_the_sides_meet_them():
    # S0 glues a to b and b to a: the two classes both have the sorted
    # member names [a, b], and the one that side 1's names meet first is a
    for order, want in ((("a", "b"), {"a": "a", "b": "a~1"}),
                        (("b", "a"), {"a": "a~1", "b": "a"})):
        s1 = Specification(types={"X"})
        for n in order:
            s1.add_term(n, "X", "X")
        s2 = Specification(types={"X"})
        for n in ("a", "b"):
            s2.add_term(n, "X", "X")
        s0 = Specification(types={"X"})
        s0.add_term("u", "X", "X")
        s0.add_term("v", "X", "X")
        f = SpecMorphism(s0, s1, {"X": "X"}, {"u": "a", "v": "b"})
        g = SpecMorphism(s0, s2, {"X": "X"}, {"u": "b", "v": "a"})
        _assert_pushouts_agree(f, g)
        assert pushout(f, g)[1].term_map == want


# matches into each saturation of at most this many, spread over its matches
_SATURATED_MATCHES = 40


@pytest.mark.parametrize("tag", STRUCTURAL_RULES)
def test_pushout_matches_reference_on_saturated_rule_matches(tag):
    # the second side is the depth-1 saturation of each corpus spec, of up
    # to 79 terms, so merges and renamings reach well past the corpus
    r = rule(tag)
    for name, mk in CORPUS.items():
        s = saturate(mk(), 1).spec
        matches = [m for m in _maps(r.hypothesis, s) if not validate_morphism(m)]
        assert matches, name
        for match in matches[::-(-len(matches) // _SATURATED_MATCHES)]:
            _assert_pushouts_agree(r.inclusion, match)


@pytest.mark.parametrize("first, second", [
    (RuleTag.IDENTITY, RuleTag.TERMINAL_TYPE),
    (RuleTag.BINARY_TUPLE, RuleTag.BINARY_PRODUCT),
    (RuleTag.COLLAPSING, RuleTag.TERMINAL_TYPE),
])
def test_compose_fractions_matches_reference_pushout(first, second):
    # the second rule concludes the first one's hypothesis, so the
    # fractions compose
    rho1, rho2 = rule(first).fraction(), rule(second).fraction()
    got = compose_fractions(rho1, rho2)
    _p, q1, q2 = reference_pushout(rho1.denominator, rho2.numerator)
    want = (compose(rho1.numerator, q1), compose(rho2.denominator, q2))
    for leg, ref in zip((got.numerator, got.denominator), want):
        assert validate_morphism(leg) == []
        assert spec_equal(leg.source, ref.source) and spec_equal(leg.target, ref.target)
        assert (leg.type_map, leg.term_map) == (ref.type_map, ref.term_map)
    assert got.denominator_is_entailment


def _tampered(s):
    """Morphisms out of s: the identity into s, then broken copies of it
    that each fire one kind of message of validate_morphism."""
    ident = identity_morphism(s)
    yield ident
    for x in sorted(s.types):
        yield SpecMorphism(s, s, {**ident.type_map, x: "?"}, ident.term_map)
    for n in sorted(s.terms):
        yield SpecMorphism(s, s, ident.type_map, {**ident.term_map, n: "?"})
        for u in sorted(s.terms):
            if not s.parallel(n, u):
                yield SpecMorphism(s, s, ident.type_map, {**ident.term_map, n: u})
                break
    for marks in ("identities", "compositions", "products", "tuples", "collapsings"):
        for site in getattr(s, marks):
            dropped = s.copy()
            del getattr(dropped, marks)[site]
            yield SpecMorphism(s, dropped, ident.type_map, ident.term_map)
    if s.terminal is not None:
        dropped = s.copy()
        dropped.terminal = None
        yield SpecMorphism(s, dropped, ident.type_map, ident.term_map)
    for eq in sorted(s.equations):
        dropped = s.copy()
        dropped.equations.discard(eq)
        yield SpecMorphism(s, dropped, ident.type_map, ident.term_map)


_MESSAGES = ("type .* not mapped", "term .* not mapped", "wrong dom/cod",
             "identity mark at .* not preserved", r"composition mark \(.*\) not preserved",
             r"product mark \(.*\) not preserved", r"tuple mark \(.*\) not preserved",
             "^terminal mark not preserved$", "collapsing mark at .* not preserved",
             r"equation \(.*\) not preserved")


def test_validate_morphism_matches_reference():
    specs = [mk() for mk in CORPUS.values()] + [saturate(CORPUS["monoid_core"](), 1).spec]
    cases = [m for s in specs for m in _tampered(s)]
    # maps of the rule figures, marked or not, into the corpus
    for point in ElementaryPoint:
        for mk in CORPUS.values():
            cases.extend(itertools.islice(_maps(elementary(point), mk()), 500))
    fired = set()
    for m in cases:
        got = validate_morphism(m)
        assert got == reference_validate_morphism(m)
        fired.update(p for p in _MESSAGES for line in got if re.search(p, line))
    assert fired == set(_MESSAGES)


# ---------------------------------------------------------------------------
# Reference isomorphism search: a verbatim copy of iso_search as it was
# when it tried every type permutation and then every dom/cod-respecting
# term bijection (less its unused pin_types option), kept as a
# differential oracle for the colour-refinement search
# ---------------------------------------------------------------------------

def reference_iso_search(s1: Specification, s2: Specification,
                         budget: int = 200000) -> IsoResult:
    if (len(s1.types) != len(s2.types) or len(s1.terms) != len(s2.terms)
            or len(s1.equations) != len(s2.equations)
            or any(len(kind.marks(s1)) != len(kind.marks(s2)) for kind in MARK_KINDS.values())):
        return IsoResult(None, True)
    types1 = sorted(s1.types)
    nodes = 0
    for perm in itertools.permutations(sorted(s2.types)):
        tmap = dict(zip(types1, perm))
        nodes += max(1, len(types1))
        if nodes > budget:
            return IsoResult(None, False)
        if s1.terminal is not None and tmap[s1.terminal] != s2.terminal:
            continue
        for mmap in _reference_term_bijections(s1, s2, tmap):
            nodes += 1
            if nodes > budget:
                return IsoResult(None, False)
            m = SpecMorphism(s1, s2, tmap, mmap)
            if not validate_morphism(m) and not validate_morphism(_inverse(m)):
                return IsoResult(m, True)
    return IsoResult(None, True)


def _inverse(m: SpecMorphism) -> SpecMorphism:
    return SpecMorphism(m.target, m.source,
                        {v: k for k, v in m.type_map.items()},
                        {v: k for k, v in m.term_map.items()})


def _reference_term_bijections(s1: Specification, s2: Specification, tmap):
    """All dom/cod-respecting term bijections for a fixed type bijection."""
    groups1: Dict[Tuple, List[str]] = {}
    for t in s1.terms.values():
        groups1.setdefault((tmap[t.dom], tmap[t.cod]), []).append(t.name)
    groups2: Dict[Tuple, List[str]] = {}
    for t in s2.terms.values():
        groups2.setdefault((t.dom, t.cod), []).append(t.name)
    keys = sorted(groups1)
    if sorted(groups2) != keys:
        return
    for k in keys:
        if len(groups1[k]) != len(groups2[k]):
            return
        groups1[k].sort()
        groups2[k].sort()
    if not keys:
        yield {}
        return
    # an odometer over the groups, the last one turning fastest: the order
    # of itertools.product, without building every permutation up front
    perms = [itertools.permutations(groups2[keys[0]])]
    mmap: Dict[str, str] = {}
    while perms:
        perm = next(perms[-1], None)
        if perm is None:
            perms.pop()
            continue
        k = keys[len(perms) - 1]
        mmap.update(zip(groups1[k], perm))
        if len(perms) == len(keys):
            yield dict(mmap)
        else:
            perms.append(itertools.permutations(groups2[keys[len(perms)]]))


def _renamed(s: Specification, rng: random.Random) -> Specification:
    """A copy of s under a random renaming of its types and of its terms."""
    names = {}
    for sort, held, stem in ((TYPE, s.types, "T"), (TERM, s.terms, "t")):
        fresh = [f"{stem}{i}" for i in range(len(held))]
        rng.shuffle(fresh)
        names[sort] = dict(zip(sorted(held), fresh))
    ty, tm = names[TYPE], names[TERM]
    out = Specification(types=set(ty.values()),
                        equations={eqpair(tm[a], tm[b]) for a, b in s.equations})
    for t in s.terms.values():
        out.add_term(tm[t.name], ty[t.dom], ty[t.cod])
    for kind in MARK_KINDS.values():
        for args, results in kind.marks(s):
            kind.set(out, *kind.image(names, args, results))
    return out


def _altered(s: Specification):
    """Copies of s with one composition or tuple result, or one side of
    one equation, moved to another term parallel to it, or with one
    equation dropped."""
    def others(t):
        return [u for u in sorted(s.terms) if u != t and s.parallel(t, u)]

    for marks in ("compositions", "tuples"):
        for site, r in sorted(getattr(s, marks).items()):
            for u in others(r):
                out = s.copy()
                getattr(out, marks)[site] = u
                yield out
    for a, b in sorted(s.equations):
        for u in others(a):
            if u != b and eqpair(u, b) not in s.equations:
                out = s.copy()
                out.equations.discard((a, b))
                out.add_equation(u, b)
                yield out
        out = s.copy()
        out.equations.discard((a, b))
        yield out


def _assert_iso(res: IsoResult, s1: Specification, s2: Specification) -> None:
    assert res and res.definitive
    assert validate_morphism(res.iso) == []
    assert validate_morphism(_inverse(res.iso)) == []
    assert (res.iso.source, res.iso.target) == (s1, s2)


@settings(max_examples=150, deadline=None)
@given(small_specs(), st.randoms(use_true_random=False))
def test_iso_search_agrees_with_the_reference(drawn, rng):
    s, _carriers = drawn
    r = _renamed(s, rng)
    _assert_iso(iso_search(s, r), s, r)
    for other in [s, r] + list(itertools.islice(_altered(s), 12)):
        for s1, s2 in ((s, other), (other, s)):
            got, want = iso_search(s1, s2), reference_iso_search(s1, s2)
            if want.definitive:
                assert bool(got) == bool(want)
            if got:
                _assert_iso(got, s1, s2)
            else:
                assert got.definitive


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_iso_search_finds_a_renaming_of_each_corpus_spec_and_its_saturation(name):
    rng = random.Random(name)
    for s in (CORPUS[name](), saturate(CORPUS[name](), 1).spec):
        r = _renamed(s, rng)
        _assert_iso(iso_search(s, r), s, r)


def test_iso_search_decides_a_renamed_composition_chain_quickly():
    # b1 = b0 . b0, b2 = b1 . b0, ...: every term X -> X
    s = Specification(types={"X"})
    s.add_term("b0", "X", "X")
    for i in range(1, 10):
        s.add_term(f"b{i}", "X", "X")
        s.compositions[("b0", f"b{i - 1}")] = f"b{i}"
    r = _renamed(s, random.Random(10))
    t0 = time.perf_counter()
    res = iso_search(s, r)
    assert time.perf_counter() - t0 < 0.1
    _assert_iso(res, s, r)


def test_iso_search_matches_parallel_free_terms_quickly():
    s = Specification(types={"X"})
    for i in range(400):
        s.add_term(f"f{i}", "X", "X")
    r = _renamed(s, random.Random(400))
    t0 = time.perf_counter()
    res = iso_search(s, r)
    assert time.perf_counter() - t0 < 1
    _assert_iso(res, s, r)
