from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings

from eqsketch import dsl
from eqsketch.core import (MARK_KINDS, TERM, TYPE, RuleTag, Specification, SpecMorphism,
                           compose, eqpair, fresh_name, iso_search, spec_equal, validate,
                           validate_morphism)
from eqsketch.decorate import (DecoratedSpecification, decoration_closure,
                               pure_part, purify, undecorate, validate_decorated)
from eqsketch.errors import BudgetExceeded, PurityViolation
from eqsketch.inference import TriState, is_entailment, saturate, terms_equal
from eqsketch.parameterize import (_ENSURE, Parameterization, ParameterizedSpecification,
                                   _aprod, _make_marks, _sharp, check_ell_natural,
                                   check_param_restricts_to_embed, ell,
                                   embed_A, embed_a, ensure_comp,
                                   ensure_product, ensure_tuple, parameterize,
                                   parameterize_morphism)

from conftest import CORPUS, DECORATED, criterion_5_cases, small_decorated_specs, small_specs


def test_embed_A_adds_one_fresh_type():
    s = CORPUS["endo"]()
    p = embed_A(s)
    assert p.parameter_type in p.base.types
    assert len(p.base.types) == len(s.types) + 1
    assert p.base.terms == s.terms


def test_embed_A_avoids_name_clash():
    s = CORPUS["single_type"]()
    s.add_type("A")
    p = embed_A(s)
    assert p.parameter_type != "A"
    assert "A" in p.base.types


def test_embed_a_adds_unit_and_constant():
    pc = embed_a(embed_A(CORPUS["single_type"]()))
    s = pc.base.base
    assert s.terminal is not None
    a = s.terms[pc.parameter_constant]
    assert a.dom == s.terminal and a.cod == pc.base.parameter_type


def test_parameterize_single_general_term():
    par = parameterize(DECORATED["endo"]())
    p = par.spec.base
    assert validate(p) == []
    assert "s" not in p.terms
    sp = par.lift["s"]
    prod = p.terms[sp].dom
    assert p.products[(par.spec.parameter_type, "X")][0] == prod
    assert p.terms[sp].cod == "X"
    # pure content untouched
    assert p.terms["e"].dom == "U" and p.terms["e"].cod == "X"


def test_parameterize_unpacks_as_pair():
    spec, lift = parameterize(DECORATED["endo"]())
    assert spec.parameter_type in spec.base.types
    assert "s" in lift


def test_parameterize_translates_equations():
    par = parameterize(DECORATED["idempotent"]())
    p = par.spec.base
    assert validate(p) == []
    # the translated idempotency equation mentions the lifted terms
    (eq,) = p.equations
    assert par.lift["s"] in eq or par.lift["ss"] in eq


def test_parameterize_all_pure_is_plain_embedding():
    for name, mk in CORPUS.items():
        assert check_param_restricts_to_embed(mk()), name
        assert check_param_restricts_to_embed(saturate(mk(), 1).spec), name


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_parameterize_all_pure_is_plain_embedding_on_generated_specs(case):
    assert check_param_restricts_to_embed(case[0])


def test_triangle_does_not_commute_with_general_terms():
    d = DECORATED["endo"]()
    par = parameterize(d)
    emb = embed_A(undecorate(d))
    res = iso_search(par.spec.base, emb.base)
    assert not res and res.definitive


def test_parameterize_morphism_identity():
    d = DECORATED["endo"]()
    par = parameterize(d)
    u = SpecMorphism(d.base, d.base, {x: x for x in d.base.types},
                     {t: t for t in d.base.terms})
    m = parameterize_morphism(d, d, u, par1=par, par2=par)
    for t in par.spec.base.terms:
        assert m.term_map[t] == t


P_OF_IDENTITY_CASES = {**{f"corpus:{n}": (lambda mk=mk: purify(mk())) for n, mk in CORPUS.items()},
                       **{f"decorated:{n}": mk for n, mk in DECORATED.items()}}


@pytest.mark.parametrize("name", sorted(P_OF_IDENTITY_CASES))
def test_parameterize_morphism_of_the_identity_is_the_identity(name):
    # P(id) = id: the target is the parameterized spec itself, unextended,
    # and every type and term maps to itself
    d = P_OF_IDENTITY_CASES[name]()
    u = SpecMorphism(d.base, d.base, {x: x for x in d.base.types},
                     {t: t for t in d.base.terms})
    m = parameterize_morphism(d, d, u)
    assert m.source == m.target == parameterize(d).spec.base
    assert m.type_map == {x: x for x in m.source.types}
    assert m.term_map == {t: t for t in m.source.terms}


def test_parameterize_morphism_purity_violation():
    d_pure = purify(CORPUS["endo"]())
    d_gen = DECORATED["endo"]()
    u = SpecMorphism(d_pure.base, d_gen.base,
                     {x: x for x in d_pure.base.types},
                     {t: t for t in d_pure.base.terms})
    with pytest.raises(PurityViolation):
        parameterize_morphism(d_pure, d_gen, u)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_decorated_specs())
def test_parameterize_morphism_is_functorial_on_generated_specs(d):
    # u: d -> its depth-1 saturation, v: that -> the depth-2 saturation;
    # P(v.u) = P(v).P(u) exactly, on the draws whose depth 2 fits the cap
    try:
        sat2 = saturate(d.base, 2, cap=400)
    except BudgetExceeded:
        return
    sat1 = saturate(d.base, 1, cap=400)
    s1, s2 = sat1.spec, sat2.spec
    d1 = decoration_closure(DecoratedSpecification(s1, set(d.pure_terms)))[0]
    d2 = decoration_closure(DecoratedSpecification(s2, set(d.pure_terms)))[0]
    u = sat1.embedding
    v = SpecMorphism(s1, s2, {x: x for x in s1.types}, {t: t for t in s1.terms})
    assert validate_morphism(v) == []
    p_u = parameterize_morphism(d, d1, u)
    assert validate_morphism(p_u) == []
    p_vu = parameterize_morphism(d, d2, compose(u, v))
    both = compose(p_u, parameterize_morphism(d1, d2, v))
    assert both.type_map == p_vu.type_map
    assert both.term_map == p_vu.term_map
    assert both.target == p_vu.target


def test_ell_is_identity_on_pure_terms():
    d = DECORATED["endo"]()
    res = ell(d)
    assert res.morphism.term_map["e"] == "e"
    assert res.morphism.type_map["X"] == "X"


def test_ell_general_term_formula():
    d = DECORATED["endo"]()
    res = ell(d)
    img = res.morphism.term_map["s"]
    tgt = res.target
    # image is a composite of the parameter tuple with the lifted term
    ((w, sp),) = [k for k, v in tgt.compositions.items() if v == img]
    assert sp == res.parameterization.lift["s"]
    ((ax, idx),) = [k for k, v in tgt.tuples.items() if v == w]
    assert tgt.identities["X"] == idx
    ((tux, a),) = [k for k, v in tgt.compositions.items() if v == ax]
    assert tgt.collapsings["X"] == tux
    assert a == res.constant


def test_ell_morphism_validates_and_extension_is_entailment():
    for name in ("endo", "two_ops"):
        res = ell(DECORATED[name]())
        from eqsketch.core import validate_morphism
        assert validate_morphism(res.morphism) == [], name
        assert is_entailment(res.extension, depth=3).state is TriState.EQUAL, name


def test_ell_all_pure_is_identity():
    d = purify(CORPUS["endo"]())
    res = ell(d)
    for t in d.base.terms:
        assert res.morphism.term_map[t] == t


def test_ell_respects_composition_up_to_congruence():
    d = DECORATED["idempotent"]()
    res = ell(d)
    tgt = res.target
    lf = res.morphism.term_map["s"]
    lc = res.morphism.term_map["ss"]
    key = (lf, lf)
    assert tgt.compositions.get(key) == lc
    v = terms_equal(tgt, lc, lf, depth=2)
    assert v.state is TriState.EQUAL  # the lifted equation still holds


def test_check_ell_natural_identity():
    for name, mk in DECORATED.items():
        d = mk()
        u = SpecMorphism(d.base, d.base, {x: x for x in d.base.types},
                         {t: t for t in d.base.terms})
        assert check_ell_natural(d, d, u), name


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_decorated_specs())
def test_parameterize_invariants_on_generated_specs(d):
    par = parameterize(d)
    p, a = par.spec.base, par.spec.parameter_type
    assert validate(p) == []
    for f in d.general_terms():
        lifted = p.terms[par.lift[f]]
        assert lifted.dom == p.products[(a, d.base.terms[f].dom)][0]
        assert lifted.cod == d.base.terms[f].cod
    res = ell(d, par=par)
    assert validate_morphism(res.morphism) == []
    assert validate_morphism(res.extension) == []


def test_ensure_helpers_reuse_every_existing_mark():
    for name, mk in CORPUS.items():
        s = mk()
        for tag, kind in MARK_KINDS.items():
            for args, results in kind.marks(s):
                t = s.copy()
                out = _ENSURE[tag](t, *args)
                assert (out if isinstance(out, tuple) else (out,)) == results, (name, tag)
                assert spec_equal(t, s), (name, tag)


def test_make_marks_maps_a_result_to_its_first_namer():
    # r is named first by a mark that waits a round for h, and second by
    # one made at once; q by two marks made in the same round
    target = Specification()
    target.add_type("X")
    for f in ("f", "g"):
        target.add_term(f, "X", "X")
    phi = {TYPE: {"X": "X"}, TERM: {"f": "f", "g": "g"}}
    comp = RuleTag.COMPOSITION
    made = _make_marks([(comp, ("f", "h"), ("r",)), (comp, ("f", "g"), ("r",)),
                        (comp, ("g", "g"), ("h",)), (comp, ("g", "f"), ("q",)),
                        (comp, ("f", "f"), ("q",))], phi, target)
    assert len({m for m, in made}) == 5
    assert [phi[TERM][r] for r in ("r", "h", "q")] == [made[0][0], made[2][0], made[3][0]]


# ---------------------------------------------------------------------------
# Reference parameterize_morphism: a verbatim copy of the function as it
# was when it kept its own table of the A*X products and mapped the
# derived terms of its source by one loop per kind, kept as a
# differential oracle
# ---------------------------------------------------------------------------

def _reference_aprod(spec, a, x, aprods):
    if x not in aprods:
        aprods[x] = ensure_product(spec, a, x,
                                   (f"{a}*{x}", f"proj_{x}", f"eps_{x}"))
    return aprods[x]


def _reference_sharp(spec, a, d, lift, aprods, t):
    if t in lift:
        return lift[t]
    dom = d.base.terms[t].dom
    _p, _proj, eps = _reference_aprod(spec, a, dom, aprods)
    c = ensure_comp(spec, eps, t)
    lift[t] = c
    return c


def _aprods(par) -> Dict[str, tuple]:
    """The A*X products of a parameterization, by X."""
    a = par.spec.parameter_type
    return {x: v for (y, x), v in par.spec.base.products.items() if y == a}


def reference_parameterize_morphism(d1, d2, u, par1=None, par2=None):
    for t in d1.base.terms:
        if d1.is_pure(t) and not d2.is_pure(u.term_map[t]):
            raise PurityViolation(f"{t} is pure but its image {u.term_map[t]} is not")
    par1 = par1 or parameterize(d1)
    par2 = par2 or parameterize(d2)
    p1 = par1.spec.base
    p2 = par2.spec.base.copy()
    a2 = par2.spec.parameter_type
    aprods2 = _aprods(par2)
    lift2 = dict(par2.lift)
    type_map = {x: u.type_map[x] for x in d1.base.types}
    type_map[par1.spec.parameter_type] = a2
    term_map = {}
    for t in d1.base.terms:
        if d1.is_pure(t):
            term_map[t] = u.term_map[t]
    for x, (prod, proj, eps) in _aprods(par1).items():
        ux = u.type_map[x]
        prod2, proj2, eps2 = _reference_aprod(p2, a2, ux, aprods2)
        type_map[prod] = prod2
        term_map[proj] = proj2
        term_map[eps] = eps2
    for f in d1.general_terms():
        term_map[par1.lift[f]] = _reference_sharp(p2, a2, d2, lift2, aprods2, u.term_map[f])
    # sharps of pure terms of d1 that were materialized in p1
    for f, fs in par1.lift.items():
        if fs in term_map or f not in d1.base.terms:
            continue
        term_map[fs] = _reference_sharp(p2, a2, d2, lift2, aprods2, u.term_map[f])
    # remaining derived terms of p1 (pair tuples, glue composites) by recipe
    progress = True
    while progress:
        progress = False
        for (f, g), c in p1.compositions.items():
            if c not in term_map and f in term_map and g in term_map:
                term_map[c] = ensure_comp(p2, term_map[f], term_map[g])
                progress = True
        for (f, g), t in p1.tuples.items():
            if t not in term_map and f in term_map and g in term_map:
                term_map[t] = ensure_tuple(p2, term_map[f], term_map[g])
                progress = True
    for x in p1.types:
        if x not in type_map:
            for (y1, y2), (prod, p1n, p2n) in p1.products.items():
                if prod == x and y1 in type_map and y2 in type_map:
                    q, q1, q2 = ensure_product(p2, type_map[y1], type_map[y2])
                    type_map[x] = q
                    term_map.setdefault(p1n, q1)
                    term_map.setdefault(p2n, q2)
    return SpecMorphism(p1, p2, type_map, term_map)


def _assert_same_morphism(d1, d2, u, label):
    got = parameterize_morphism(d1, d2, u)
    want = reference_parameterize_morphism(d1, d2, u)
    assert got.type_map == want.type_map, label
    assert got.term_map == want.term_map, label
    assert spec_equal(got.source, want.source), label
    assert spec_equal(got.target, want.target), label


def test_parameterize_morphism_matches_reference_on_criterion_5():
    for label, d1, d2, u in criterion_5_cases():
        _assert_same_morphism(d1, d2, u, label)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_decorated_specs())
def test_parameterize_morphism_matches_reference_on_generated_specs(d):
    # the maps are the reference's; the target is par2's base extended
    # by an entailment, which keeps the marks and equations of p1 where u
    # makes a general term pure
    s = d.base
    all_pure, _ = decoration_closure(DecoratedSpecification(s, set(s.terms)))
    for d2 in (d, all_pure):
        u = SpecMorphism(s, d2.base, {x: x for x in s.types}, {t: t for t in s.terms})
        label = sorted(d2.pure_terms)
        got = parameterize_morphism(d, d2, u)
        want = reference_parameterize_morphism(d, d2, u)
        assert got.type_map == want.type_map, label
        assert got.term_map == want.term_map, label
        assert spec_equal(got.source, want.source), label
        assert validate_morphism(got) == [], label
        base2 = parameterize(d2).spec.base
        incl = SpecMorphism(base2, got.target, {x: x for x in base2.types},
                            {t: t for t in base2.terms})
        assert validate_morphism(incl) == [], label
        assert is_entailment(incl, 2).state is TriState.EQUAL, label


def test_parameterize_equates_a_second_tuple_mark_on_a_taken_result():
    s = Specification()
    for x in ("X", "Y", "P"):
        s.add_type(x)
    for t, dom, cod in (("p1", "P", "X"), ("p2", "P", "Y"), ("f", "X", "X"),
                        ("g", "X", "Y"), ("h", "X", "X"), ("k", "X", "Y"),
                        ("t", "X", "P")):
        s.add_term(t, dom, cod)
    s.products[("X", "Y")] = ("P", "p1", "p2")
    s.tuples[("f", "g")] = "t"
    s.tuples[("h", "k")] = "t"
    par = parameterize(DecoratedSpecification(s, {"p1", "p2"}))
    p, lift = par.spec.base, par.lift
    assert validate(p) == []
    # the first mark takes t'; the second gets a fresh tuple equated with it
    assert p.tuples[(lift["f"], lift["g"])] == lift["t"]
    second = p.tuples[(lift["h"], lift["k"])]
    assert second not in s.terms and second not in lift.values()
    assert p.equations == {eqpair(second, lift["t"])}


# ---------------------------------------------------------------------------
# Reference parameterize: a verbatim copy of the function as it was when it
# found whether a lifted result was marked already by scanning every mark
# of its kind, once per lifted mark, kept as a differential oracle
# ---------------------------------------------------------------------------

def reference_parameterize(d: DecoratedSpecification) -> Parameterization:
    errs = validate_decorated(d)
    if errs:
        raise ValueError("parameterize requires a valid decorated input: " + errs[0])
    base = d.base
    p = pure_part(d)
    a = fresh_name("A", base)
    p.add_type(a)
    lift: Dict[str, str] = {}
    for f in sorted(d.general_terms()):
        dom, cod = base.terms[f].dom, base.terms[f].cod
        prod, _proj, _eps = _aprod(p, a, dom)
        prime = fresh_name(f + "'", p)
        p.add_term(prime, prod, cod)
        lift[f] = prime

    def sharp(t: str) -> str:
        return _sharp(p, a, d, lift, t)

    for (f, g), c in sorted(base.compositions.items()):
        if d.is_pure(f) and d.is_pure(g) and d.is_pure(c):
            continue
        x = base.terms[f].dom
        y = base.terms[g].dom
        _px, proj_x, _epsx = _aprod(p, a, x)
        fs, gs = sharp(f), sharp(g)
        _aprod(p, a, y)
        w = ensure_tuple(p, proj_x, fs)   # <proj_X, f#>: A*X -> A*Y
        cs = sharp(c)
        if (w, gs) not in p.compositions and cs not in p.compositions.values():
            p.compositions[(w, gs)] = cs
        else:
            p.add_equation(ensure_comp(p, w, gs), cs)
    for (f, g), t in sorted(base.tuples.items()):
        if d.is_pure(f) and d.is_pure(g) and d.is_pure(t):
            continue
        fs, gs = sharp(f), sharp(g)
        ts = sharp(t)
        if (fs, gs) not in p.tuples and ts not in p.tuples.values():
            p.tuples[(fs, gs)] = ts
        else:
            p.add_equation(ensure_tuple(p, fs, gs), ts)
    for (t1, t2) in sorted(base.equations):
        if d.is_pure(t1) and d.is_pure(t2):
            continue
        p.add_equation(sharp(t1), sharp(t2))
    return Parameterization(d, ParameterizedSpecification(p, a), lift)


def _assert_same_parameterization(d, label):
    got, want = parameterize(d), reference_parameterize(d)
    assert got.spec.parameter_type == want.spec.parameter_type, label
    assert got.lift == want.lift, label
    assert (dsl.dump(dsl.SpecDocument(got.spec.base, parameter_type=got.spec.parameter_type))
            == dsl.dump(dsl.SpecDocument(want.spec.base,
                                         parameter_type=want.spec.parameter_type))), label


def _double_marks():
    """Specs where one term is the result of two marks of the same kind."""
    comp = Specification()
    comp.add_type("X")
    for t in ("f", "g", "h", "c"):
        comp.add_term(t, "X", "X")
    comp.compositions[("f", "g")] = "c"
    comp.compositions[("f", "h")] = "c"
    tup = Specification()
    for x in ("X", "P"):
        tup.add_type(x)
    for t, dom, cod in (("p1", "P", "X"), ("p2", "P", "X"), ("f", "X", "X"),
                        ("g", "X", "X"), ("t", "X", "P")):
        tup.add_term(t, dom, cod)
    tup.products[("X", "X")] = ("P", "p1", "p2")
    tup.tuples[("f", "g")] = "t"
    tup.tuples[("g", "f")] = "t"
    # c is pure: e . e makes it so, and f . e, with f general, names it too
    pure = Specification()
    pure.add_type("X")
    for t in ("e", "f", "c"):
        pure.add_term(t, "X", "X")
    pure.compositions[("e", "e")] = "c"
    pure.compositions[("e", "f")] = "c"
    return {"compose twice": DecoratedSpecification(comp, set()),
            "tuple twice": DecoratedSpecification(tup, {"p1", "p2"}),
            "pure result named twice": DecoratedSpecification(pure, {"e", "c"})}


def test_parameterize_matches_reference_on_decorated_and_double_marks():
    cases = {name: mk() for name, mk in DECORATED.items()}
    cases.update(_double_marks())
    for label, d in cases.items():
        assert validate_decorated(d) == [], label
        _assert_same_parameterization(d, label)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_decorated_specs())
def test_parameterize_matches_reference_on_generated_specs(d):
    _assert_same_parameterization(d, sorted(d.pure_terms))
