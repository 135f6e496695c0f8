import itertools
import re

import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from eqsketch.core import TERM, RuleTag, Specification, mark_results
from eqsketch.decorate import DecoratedSpecification, pure_part, purify, undecorate
from eqsketch import models
from eqsketch.errors import (EqsketchError, IncomparableCarrier, InvalidAlpha,
                             SearchSpaceTooLarge, Unassigned)
from eqsketch.models import (UNIT_ELEMENT, ExactnessReport, FiniteModel,
                             _least_model, _unpass, base_types, check_model,
                             derived_carriers,
                             enumerate_models, exactness_check, hom_search,
                             is_terminal, pass_parameter, terminal_model)
from eqsketch.parameterize import parameterize

from conftest import (CORPUS, DECORATED, complete_tables, count_models_built,
                      small_decorated_specs, small_specs)


def _m0():
    return FiniteModel({"U": (UNIT_ELEMENT,), "X": (0, 1)}, {"e": {(): 0}})


def test_check_model_accepts_valid_model():
    s = CORPUS["endo"]()
    m = FiniteModel({"U": (UNIT_ELEMENT,), "X": (0, 1)},
                    {"e": {(): 0}, "s": {0: 1, 1: 0}})
    assert check_model(s, m) == []


def test_check_model_flags_broken_composite():
    s = CORPUS["comp_chain"]()
    m = FiniteModel({"X": (0,), "Y": (0,), "Z": (0, 1)},
                    {"f": {0: 0}, "g": {0: 0}, "gf": {0: 1}})
    assert any("gf" in e for e in check_model(s, m))


def test_check_model_requires_assignment():
    with pytest.raises(Unassigned):
        check_model(CORPUS["endo"](), FiniteModel({}, {}))


def test_derived_carriers_builds_products_and_unit():
    s = CORPUS["monoid_core"]()
    c = derived_carriers(s, {"M": (0, 1)})
    assert c["U"] == (UNIT_ELEMENT,)
    assert set(c["M2"]) == {(a, b) for a in (0, 1) for b in (0, 1)}


def test_enumerate_models_endo():
    ms = enumerate_models(CORPUS["endo"](), {"X": (0, 1)})
    # 2 choices for e, 4 for s
    assert len(ms) == 8
    assert all(check_model(CORPUS["endo"](), m) == [] for m in ms)


def test_enumerate_models_respects_fixed_part():
    ms = enumerate_models(CORPUS["endo"](), {"X": (0, 1)}, fixed=_m0())
    assert len(ms) == 4
    assert all(m.apply("e", ()) == 0 for m in ms)


def test_enumerate_models_completes_a_partly_given_table():
    # f, g : X -> X with f given at 0 only, and at 7, outside the domain:
    # the 2 values of f at 1 and the 4 tables of g are searched
    s = Specification()
    s.add_type("X")
    s.add_term("f", "X", "X")
    s.add_term("g", "X", "X")
    fixed = FiniteModel({"X": (0, 1)}, {"f": {0: 0, 7: 1}})
    ms = enumerate_models(s, {"X": (0, 1)}, fixed=fixed)
    assert ms == [m for m in enumerate_models(s, {"X": (0, 1)}) if m.functions["f"][0] == 0]
    assert len(ms) == 8 and all(7 not in m.functions["f"] for m in ms)


def test_enumerate_models_keeps_the_fixed_carriers():
    # the spec forces the terminal's carrier; a fixed model that gives U
    # two elements, or other labels, has no extension
    s = CORPUS["endo"]()
    for u in ((0, 1), (0,)):
        fixed = FiniteModel({"U": u, "X": (0, 1)}, {})
        assert enumerate_models(s, {}, fixed=fixed) == []


def test_enumerate_models_cap():
    s = CORPUS["endo"]()
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_models(s, {"X": tuple(range(6))}, cap=10)


def test_hom_search_identity_hom():
    s = CORPUS["endo"]()
    ms = enumerate_models(s, {"X": (0, 1)}, fixed=_m0())
    h = hom_search(s, ms[0], ms[0])
    assert any(all(hom.components[x][v] == v for x in ("X",)
                   for v in (0, 1)) for hom in h)


def test_pass_parameter_rejects_bad_alpha():
    # a primed table decides, and with no general term the carrier does
    for d in (DECORATED["endo"](), purify(DECORATED["endo"]().base)):
        par = parameterize(d)
        m0 = enumerate_models(pure_part(d), {"X": (0, 1)})[0]
        m_a, _ = terminal_model(d, m0, {"X": (0, 1)}, par=par)
        for alpha in ("nope", len(m_a.carriers[par.spec.parameter_type]), [0]):
            with pytest.raises(InvalidAlpha):
                pass_parameter(d, par, m_a, alpha)


def test_terminal_model_is_a_model():
    d = DECORATED["endo"]()
    par = parameterize(d)
    m_a, exts = terminal_model(d, _m0(), {"X": (0, 1)}, par=par)
    assert check_model(par.spec.base, m_a) == []
    assert len(exts) == len(m_a.carriers[par.spec.parameter_type])


def test_is_terminal_rejects_tampered_candidate():
    d = DECORATED["endo"]()
    par = parameterize(d)
    m_a, _ = terminal_model(d, _m0(), {"X": (0, 1)}, par=par)
    bad_fns = {k: dict(v) for k, v in m_a.functions.items()}
    sp = par.lift["s"]
    k0 = sorted(bad_fns[sp], key=repr)[0]
    bad_fns[sp][k0] = 1 - bad_fns[sp][k0]
    bad = FiniteModel(m_a.carriers, bad_fns)
    assert not is_terminal(d, bad, _m0(), {"X": (0, 1)}, bound=2, par=par)


def test_exactness_bijection_listed():
    rep = exactness_check(DECORATED["endo"](), _m0(), {"X": (0, 1)})
    assert rep.exact
    assert sorted(i for _a, i in rep.bijection) == list(range(rep.model_count))


# ---------------------------------------------------------------------------
# check_model against its version that checks the carriers on every call
# ---------------------------------------------------------------------------

def reference_check_model(s, m):
    """``check_model`` as it was before ``_model_check``: the carriers
    checked, and the codomain sets built, on every call."""
    for x in s.types:
        if x not in m.carriers:
            raise Unassigned(f"type {x}")
    for t in s.terms:
        if t not in m.functions:
            raise Unassigned(f"term {t}")
    out = []
    for (y1, y2), (p, _p1, _p2) in s.products.items():
        want = {(a, b) for a in m.carriers[y1] for b in m.carriers[y2]}
        if set(m.carriers[p]) != want:
            out.append(f"carrier of product type {p} is not the set of pairs")
    if s.terminal is not None and tuple(m.carriers[s.terminal]) != (UNIT_ELEMENT,):
        out.append(f"carrier of terminal {s.terminal} is not the canonical singleton")
    for t in s.terms.values():
        tab = m.functions[t.name]
        dom = m.carriers[t.dom]
        cod = set(m.carriers[t.cod])
        for x in dom:
            if x not in tab:
                out.append(f"term {t.name}: no value at {x!r}")
            elif tab[x] not in cod:
                out.append(f"term {t.name}: value at {x!r} outside carrier of {t.cod}")
    if out:
        return out
    for x, i in s.identities.items():
        for v in m.carriers[x]:
            if m.apply(i, v) != v:
                out.append(f"identity {i}: not the identity at {v!r}")
    for (f, g), c in s.compositions.items():
        for v in m.carriers[s.terms[f].dom]:
            if m.apply(c, v) != m.apply(g, m.apply(f, v)):
                out.append(f"composite {c} != {g} after {f} at {v!r}")
    for (y1, y2), (p, p1, p2) in s.products.items():
        for (a, b) in m.carriers[p]:
            if m.apply(p1, (a, b)) != a or m.apply(p2, (a, b)) != b:
                out.append(f"projections of {p} are not coordinate projections")
                break
    for (f, g), t in s.tuples.items():
        for v in m.carriers[s.terms[f].dom]:
            if m.apply(t, v) != (m.apply(f, v), m.apply(g, v)):
                out.append(f"tuple {t} is not the pairing of {f},{g} at {v!r}")
    for x, c in s.collapsings.items():
        for v in m.carriers[x]:
            if m.apply(c, v) != UNIT_ELEMENT:
                out.append(f"collapsing {c}: not constant at {v!r}")
    for (t1, t2) in sorted(s.equations):
        for v in m.carriers[s.terms[t1].dom]:
            if m.apply(t1, v) != m.apply(t2, v):
                out.append(f"equation {t1} = {t2} fails at {v!r}")
                break
    return out


def _check_outcome(check, s, m):
    """The messages of a check, or the type and text of what it raised."""
    try:
        return check(s, m)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return (type(e), str(e))


def _assert_same_check(s, m):
    got = _check_outcome(check_model, s, m)
    assert got == _check_outcome(reference_check_model, s, m)
    return got


JUNK = "junk"


def _tampered(s, m):
    """Copies of m, each broken in one way, labelled by the way: a dropped
    entry and a value outside its carrier in every table; every product
    and terminal carrier replaced; one entry, and every entry, of each
    mark's and each equation's result moved to another value of its
    carrier; each table and each carrier missing."""
    def copy(carriers=None, functions=None):
        return FiniteModel(dict(m.carriers if carriers is None else carriers),
                           {t: dict(tab) for t, tab in
                            (m.functions if functions is None else functions).items()})

    out = []
    for t in sorted(s.terms):
        keys = sorted(m.functions[t], key=repr)
        if keys:
            c = copy()
            del c.functions[t][keys[0]]
            out.append((f"dropped {t}", c))
            c = copy()
            c.functions[t][keys[-1]] = JUNK
            out.append((f"outside {t}", c))
        out.append((f"no table {t}", copy(functions={u: tab for u, tab in m.functions.items()
                                                     if u != t})))
    for x in sorted(s.types):
        out.append((f"no carrier {x}", copy(carriers={y: c for y, c in m.carriers.items()
                                                       if y != x})))
    for (p, _1, _2) in s.products.values():
        pairs = m.carriers[p]
        out.append((f"product {p} relabelled", copy(carriers={**m.carriers,
                                                             p: tuple(range(len(pairs)))})))
        out.append((f"product {p} short", copy(carriers={**m.carriers, p: pairs[1:]})))
    if s.terminal is not None:
        for u in ((), (UNIT_ELEMENT, 1), (0,)):
            out.append((f"terminal {u!r}", copy(carriers={**m.carriers, s.terminal: u})))
    projections = sorted(mark_results(s, TERM, (RuleTag.BINARY_PRODUCT,)))
    results = (list(s.identities.values()) + projections
               + list(s.compositions.values()) + list(s.tuples.values())
               + list(s.collapsings.values()) + [t for eq in sorted(s.equations) for t in eq])
    for t in results:
        keys = sorted(m.functions[t], key=repr)
        cod = m.carriers[s.terms[t].cod]
        if keys and len(cod) > 1:
            for label, moved in ((f"moved {t}", keys[:1]), (f"moved all {t}", keys)):
                c = copy()
                for k in moved:
                    c.functions[t][k] = cod[(cod.index(c.functions[t][k]) + 1) % len(cod)]
                out.append((label, c))
    return out


CHECK_SPECS = {**CORPUS, **{f"decorated_{name}": (lambda mk=mk: mk().base)
                            for name, mk in DECORATED.items()}}


@pytest.mark.parametrize("name", sorted(CHECK_SPECS))
def test_check_model_matches_reference_on_models_and_tampered_copies(name):
    s = CHECK_SPECS[name]()
    base = base_types(s)
    for sizes in itertools.product((1, 2), repeat=len(base)):
        ms = enumerate_models(s, {x: tuple(range(k)) for x, k in zip(base, sizes)})
        for m in ms:
            assert _assert_same_check(s, m) == []
        for m in ms[:3]:
            for label, bad in _tampered(s, m):
                assert _assert_same_check(s, bad) != [], label


MESSAGE_KINDS = [
    r"term \S+: no value at ", r"term \S+: value at .* outside carrier of ",
    r"carrier of product type ", r"carrier of terminal ", r"identity \S+: not the identity at ",
    r"composite \S+ != ", r"projections of ", r"tuple \S+ is not the pairing of ",
    r"equation \S+ = \S+ fails at ",
    # what Unassigned says
    r"type ", r"term ",
]


def test_tampered_copies_fire_every_message_kind():
    seen = set()
    for _name, mk in sorted(CHECK_SPECS.items()):
        s = mk()
        for m in enumerate_models(s, {x: (0, 1) for x in base_types(s)})[:3]:
            for _label, bad in _tampered(s, m):
                out = _assert_same_check(s, bad)
                lines = [out[1]] if isinstance(out, tuple) else out
                seen.update(next(k for k in MESSAGE_KINDS if re.match(k, line)) for line in lines)
    # "collapsing c: not constant" cannot fire: a collapsing's value is in
    # the terminal's carrier, which the carrier checks hold to {()}
    assert seen == set(MESSAGE_KINDS)


@st.composite
def specs_with_tables(draw):
    """A ``small_specs`` spec and a model of it with drawn tables: each
    entry a value of its carrier, a value outside it, or missing; now and
    then a table or a carrier missing, or a product carrier cut short."""
    s, base = draw(small_specs())
    carriers = derived_carriers(s, base)
    functions = {}
    for t in sorted(s.terms):
        cod = carriers[s.terms[t].cod]
        tab = {}
        for x in carriers[s.terms[t].dom]:
            v = draw(st.sampled_from(cod + (JUNK, None)))
            if v is not None:
                tab[x] = v
        functions[t] = tab
    if draw(st.integers(0, 9)) == 0:
        del functions[draw(st.sampled_from(sorted(functions)))]
    if draw(st.integers(0, 9)) == 0:
        del carriers[draw(st.sampled_from(sorted(carriers)))]
    if "P" in carriers and draw(st.integers(0, 9)) == 0:
        carriers["P"] = carriers["P"][1:]
    return s, FiniteModel(carriers, functions)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs_with_tables())
def test_check_model_matches_reference_on_drawn_tables(case):
    s, m = case
    _assert_same_check(s, m)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_check_model_matches_reference_on_generated_models(case):
    s, carriers = case
    if _oracle_space(s, derived_carriers(s, carriers)) <= ORACLE_CAP:
        for m in enumerate_models(s, carriers)[:20]:
            assert _assert_same_check(s, m) == []
            # a moved entry can still be a model, as under compose t = t . id
            for _label, bad in _tampered(s, m):
                _assert_same_check(s, bad)


# ---------------------------------------------------------------------------
# Brute-force oracles: every table, filtered by check_model
# ---------------------------------------------------------------------------

ORACLE_CAP = 50_000


def _structural_tables(s, carriers):
    tabs = {}
    for x, i in s.identities.items():
        tabs[i] = {v: v for v in carriers[x]}
    for (_y1, _y2), (p, p1, p2) in s.products.items():
        tabs[p1] = {v: v[0] for v in carriers[p]}
        tabs[p2] = {v: v[1] for v in carriers[p]}
    for x, c in s.collapsings.items():
        tabs[c] = {v: UNIT_ELEMENT for v in carriers[x]}
    return tabs


def _oracle_space(s, carriers):
    fixed = _structural_tables(s, carriers)
    total = 1
    for t in s.terms.values():
        if t.name not in fixed:
            total *= len(carriers[t.cod]) ** len(carriers[t.dom])
    return total


def brute_force_models(s, base_carriers):
    """Try every table of every term but the identities, projections and
    collapsings; keep what check_model accepts."""
    carriers = derived_carriers(s, base_carriers)
    fixed = _structural_tables(s, carriers)
    free = sorted(t for t in s.terms if t not in fixed)
    doms = [carriers[s.terms[t].dom] for t in free]
    spaces = [itertools.product(carriers[s.terms[t].cod], repeat=len(dom))
              for t, dom in zip(free, doms)]
    out = []
    for combo in itertools.product(*spaces):
        functions = {t: dict(tab) for t, tab in fixed.items()}
        for t, dom, values in zip(free, doms, combo):
            functions[t] = dict(zip(dom, values))
        m = FiniteModel(dict(carriers), functions)
        if not check_model(s, m):
            out.append(m.canonical())
    return sorted(out)


def _hom_key(components):
    return tuple(sorted((x, tuple(sorted(tab.items(), key=repr)))
                        for x, tab in components.items()))


def brute_force_homs(s, m, n, fix_types=()):
    """Try every component map on the unfixed base types, derive the
    product and terminal components, keep those whose squares commute."""
    choice = [x for x in base_types(s) if x not in fix_types]
    spaces = [itertools.product(n.carriers[x], repeat=len(m.carriers[x]))
              for x in choice]
    out = []
    for combo in itertools.product(*spaces):
        comp = {x: {v: v for v in m.carriers[x]} for x in fix_types}
        comp.update({x: dict(zip(m.carriers[x], values))
                     for x, values in zip(choice, combo)})
        if s.terminal is not None:
            comp[s.terminal] = {UNIT_ELEMENT: UNIT_ELEMENT}
        while any(p not in comp for (p, _1, _2) in s.products.values()):
            for (y1, y2), (p, _1, _2) in s.products.items():
                if p not in comp and y1 in comp and y2 in comp:
                    comp[p] = {(a, b): (comp[y1][a], comp[y2][b])
                               for (a, b) in m.carriers[p]}
        if all(comp[t.cod][m.apply(t.name, v)] == n.apply(t.name, comp[t.dom][v])
               for t in s.terms.values() for v in m.carriers[t.dom]):
            out.append(_hom_key(comp))
    return sorted(out)


def _assert_matches_oracle(s, carriers):
    got = [m.canonical() for m in enumerate_models(s, carriers)]
    assert got == brute_force_models(s, carriers)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_enumerate_models_matches_brute_force_on_corpus(name):
    s = CORPUS[name]()
    base = base_types(s)
    tried = 0
    for sizes in itertools.product((1, 2, 3), repeat=len(base)):
        carriers = {x: tuple(range(k)) for x, k in zip(base, sizes)}
        if _oracle_space(s, derived_carriers(s, carriers)) <= ORACLE_CAP:
            _assert_matches_oracle(s, carriers)
            tried += 1
    assert tried > 0


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_enumerate_models_matches_brute_force_on_generated_specs(case):
    s, carriers = case
    if _oracle_space(s, derived_carriers(s, carriers)) <= ORACLE_CAP:
        _assert_matches_oracle(s, carriers)


def _self_referential():
    s = Specification()
    s.add_type("X")
    s.add_term("g", "X", "X")
    s.add_term("c", "X", "X")
    s.compositions[("c", "g")] = "c"
    return s


def test_self_referential_mark_gets_true_counts():
    # compose c = g . c: g must fix every point in the image of c
    s = _self_referential()
    counts = [len(enumerate_models(s, {"X": tuple(range(k))})) for k in (1, 2, 3)]
    assert counts == [1, 6, 87]
    _assert_matches_oracle(s, {"X": (0, 1)})


CRITERION_7 = [
    ("endo", lambda: _m0()),
    ("idempotent", lambda: _m0()),
    ("two_ops", lambda: FiniteModel({"X": (0, 1)}, {})),
]


@pytest.mark.parametrize("kind,mk_m0", CRITERION_7, ids=[c[0] for c in CRITERION_7])
def test_hom_search_matches_brute_force(kind, mk_m0):
    # the homs come in _hom_key order, also on a carrier in reversed order
    for xs in ((0, 1), (1, 0)):
        d, base, m0 = DECORATED[kind](), {"X": xs}, mk_m0()
        m0 = FiniteModel({**m0.carriers, "X": xs}, m0.functions)
        par = parameterize(d)
        p, a_type = par.spec.base, par.spec.parameter_type
        m_a, _ = terminal_model(d, m0, base, par=par)
        fix = sorted(x for x in p.types if x != a_type and x in base_types(p))
        for size in (0, 1, 2):
            for n in enumerate_models(p, {**base, a_type: tuple(range(size))}, fixed=m0):
                got = [_hom_key(h.components) for h in hom_search(p, n, m_a, fix_types=fix)]
                assert got == brute_force_homs(p, n, m_a, fix)
        small = enumerate_models(p, {**base, a_type: (0,)}, fixed=m0)[:6]
        for n1, n2 in itertools.product(small, small):
            got = [_hom_key(h.components) for h in hom_search(p, n1, n2)]
            assert got == brute_force_homs(p, n1, n2)


# ---------------------------------------------------------------------------
# canonical() order on carriers that are not in ascending order
# ---------------------------------------------------------------------------

LABELS = {
    "reversed": lambda k: tuple(reversed(range(k))),
    "strings": lambda k: ("c", "a", "b")[:k],
    # repr order "10" < "2" < "9" is not the order of the values
    "wide": lambda k: (10, 9, 2)[:k],
}
ORDER_SPECS = {**CORPUS, **{f"decorated_{name}": (lambda mk=mk: mk().base)
                            for name, mk in DECORATED.items()}}


def _assert_canonical_order(ms):
    keys = [m.canonical() for m in ms]
    assert keys == sorted(keys)


@pytest.mark.parametrize("labels", sorted(LABELS))
@pytest.mark.parametrize("name", sorted(ORDER_SPECS))
def test_enumerate_models_is_in_canonical_order_on_any_carriers(name, labels):
    s = ORDER_SPECS[name]()
    base = base_types(s)
    tried = 0
    for sizes in itertools.product((1, 2, 3), repeat=len(base)):
        carriers = {x: LABELS[labels](k) for x, k in zip(base, sizes)}
        if _oracle_space(s, derived_carriers(s, carriers)) > ORACLE_CAP:
            continue
        ms = enumerate_models(s, carriers)
        _assert_canonical_order(ms)
        # the least model is the head of the list on these carriers too
        least = _least_model(s, carriers, lambda m: True)
        assert least == (ms[0] if ms else None)
        tried += 1
    assert tried > 0


@pytest.mark.parametrize("labels", sorted(LABELS))
@pytest.mark.parametrize("kind", sorted(DECORATED))
def test_extensions_of_m0_are_in_canonical_order_on_any_carriers(kind, labels):
    d = DECORATED[kind]()
    p0 = pure_part(d)
    for k in (1, 2, 3):
        base = {"X": LABELS[labels](k)}
        for m0 in enumerate_models(p0, {x: v for x, v in base.items() if x in p0.types}):
            _assert_canonical_order(enumerate_models(d.base, base, fixed=m0))
            _m_a, extensions = terminal_model(d, m0, base)
            _assert_canonical_order(extensions)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_enumerate_models_matches_brute_force_on_permuted_carriers(data):
    s, carriers = data.draw(small_specs())
    carriers = {x: tuple(data.draw(st.permutations(v))) for x, v in sorted(carriers.items())}
    if _oracle_space(s, derived_carriers(s, carriers)) <= ORACLE_CAP:
        _assert_matches_oracle(s, carriers)


def test_model_finder_does_not_call_canonical(monkeypatch):
    d = DECORATED["two_ops"]()
    m0, base = FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}

    def refuse(self):
        raise AssertionError("canonical() called")

    monkeypatch.setattr(FiniteModel, "canonical", refuse)
    assert len(enumerate_models(d.base, base)) == 16
    m_a, extensions = terminal_model(d, m0, base)
    assert len(extensions) == len(m_a.carriers[parameterize(d).spec.parameter_type]) == 16
    assert exactness_check(d, m0, base).exact


@pytest.mark.parametrize("name,table", [("product_heavy", "p1"), ("monoid_core", "id_M")])
def test_models_own_the_tables_that_every_model_shares(name, table):
    # the seeds set the projections and the identity before the search; a
    # search reads them once and copies them into each model it lists
    s = CORPUS[name]()
    base = {x: (0, 1) for x in base_types(s)}
    want = [m.canonical() for m in enumerate_models(s, base)]
    assert len(want) > 2
    for i in (0, 1, len(want) - 1):
        ms = enumerate_models(s, base)
        tab = ms[i].functions[table]
        tab[next(iter(tab))] = JUNK
        assert [m.canonical() for k, m in enumerate(ms) if k != i] == want[:i] + want[i + 1:]
    assert [m.canonical() for m in enumerate_models(s, base)] == want


@pytest.mark.parametrize("name", ["product_pair", "collapse"])
def test_a_search_whose_tables_the_seeds_set_lists_its_one_model(name):
    s = CORPUS[name]()
    base = {x: (0, 1) for x in base_types(s)}
    carriers = derived_carriers(s, base)
    assert enumerate_models(s, base) == [FiniteModel(carriers, _structural_tables(s, carriers))]


def test_every_model_of_a_search_is_gated(monkeypatch):
    # the first model in full, the later ones on what reads a table that
    # the seeds did not set: they set the projections of P and Q, and only
    # c1 = p1 . t still reads one
    s = CORPUS["product_heavy"]()
    calls = []
    build = models._model_check

    def spy(spec, carriers):
        check = build(spec, carriers)

        def gate(functions):
            calls.append(spec)
            return check(functions)
        return gate

    monkeypatch.setattr(models, "_model_check", spy)
    ms = enumerate_models(s, {x: (0, 1, 2) for x in base_types(s)})
    assert len(calls) == len(ms) == 729
    rest = calls[1]
    assert calls[0] is s and all(spec is rest for spec in calls[1:])
    assert sorted(rest.terms) == ["c1", "f", "g", "p1", "t"]
    assert rest.products == {} and rest.tuples == s.tuples and rest.compositions == s.compositions


@pytest.mark.parametrize("name", sorted(CHECK_SPECS))
def test_the_check_of_the_later_models_rejects_what_the_full_check_does(name):
    # a copy that keeps the tables the seeds set gets the same messages
    # from the check without them as from the full check
    s = CHECK_SPECS[name]()
    shared = (set(s.identities.values()) | set(s.collapsings.values())
              | mark_results(s, TERM, (RuleTag.BINARY_PRODUCT,)))
    for m in enumerate_models(s, {x: (0, 1) for x in base_types(s)})[:3]:
        full = models._model_check(s, m.carriers)
        rest = models._model_check(models._unshared(s, shared), m.carriers)
        assert rest(m.functions) == full(m.functions) == []
        for label, bad in _tampered(s, m):
            if (bad.carriers != m.carriers or bad.functions.keys() != m.functions.keys()
                    or any(bad.functions[t] != m.functions[t] for t in shared)):
                continue
            assert rest(bad.functions) == full(bad.functions) != [], label


def reference_exactness_check(d, m_0, base_carriers):
    """``exactness_check`` as it was before the equality keys: the
    extensions and the passed models matched by ``canonical()``."""
    par = parameterize(d)
    m_a, extensions = terminal_model(d, m_0, base_carriers, par=par)
    index = {e.canonical(): i for i, e in enumerate(extensions)}
    a_type = par.spec.parameter_type
    bijection, hit, injective = [], set(), True
    for alpha in m_a.carriers[a_type]:
        idx = index.get(pass_parameter(d, par, m_a, alpha).canonical(), -1)
        if idx in hit:
            injective = False
        hit.add(idx)
        bijection.append((alpha, idx))
    surjective = (-1 not in hit) and len(hit) == len(extensions)
    return ExactnessReport(len(m_a.carriers[a_type]), len(extensions),
                           bijection, injective, surjective)


@pytest.mark.parametrize("kind", sorted(DECORATED))
def test_exactness_check_matches_reference(kind):
    d = DECORATED[kind]()
    p0 = pure_part(d)
    for k in (1, 2, 3):
        for xs in (tuple(range(k)), tuple(reversed(range(k)))):
            base = {"X": xs}
            for m0 in enumerate_models(p0, {x: v for x, v in base.items() if x in p0.types}):
                got, want = exactness_check(d, m0, base), reference_exactness_check(d, m0, base)
                assert got == want
                assert got.lines() == want.lines()


@pytest.mark.parametrize("m0_xs,base_xs", [((1, 0), (0, 1)), ((0, 1), (1, 0))])
def test_exactness_holds_when_m0_lists_a_base_carrier_in_another_order(m0_xs, base_xs):
    # the base carrier wins, as in the model searches, so the record model,
    # the models passed through it and the extensions share their carriers;
    # the reference runs terminal_model too, so only this case shows it
    d, m0, base = DECORATED["two_ops"](), FiniteModel({"X": m0_xs}, {}), {"X": base_xs}
    par = parameterize(d)
    m_a, extensions = terminal_model(d, m0, base, par=par)
    assert m_a.carriers["X"] == base_xs
    assert {e.carriers["X"] for e in extensions} == {base_xs}
    rep = exactness_check(d, m0, base, par=par)
    assert rep.exact and rep.parameter_count == rep.model_count == 16
    assert is_terminal(d, m_a, m0, base, bound=1, par=par)


@pytest.mark.parametrize("d,m0,at", [
    # no table for the pure e : U -> X
    (DECORATED["endo"](), FiniteModel({"U": ((),), "X": (0, 1)}, {}), r"e: .* at \(\)"),
    # f : X -> X given at 0 only
    (DecoratedSpecification(DECORATED["two_ops"]().base, {"f"}),
     FiniteModel({"X": (0, 1)}, {"f": {0: 1}}), "f: .* at 1"),
], ids=["no table", "no entry"])
def test_terminal_model_requires_every_pure_table_of_m0_whole(d, m0, at):
    for build in (terminal_model, exactness_check):
        with pytest.raises(Unassigned, match=f"term {at}"):
            build(d, m0, {"X": (0, 1)})


def reference_terminal_model(d, m_0, base_carriers, par=None,
                             cap=models.DEFAULT_CANDIDATE_CAP):
    """``terminal_model`` as it was before the record model was built from
    its slices: the primed tables written from the extensions, and every
    other table of P(d) filled by a cell search (``complete_tables``)."""
    if par is None:
        par = parameterize(d)
    base = undecorate(d)
    extensions = enumerate_models(base, base_carriers, fixed=m_0, cap=cap)
    p = par.spec.base
    carriers = derived_carriers(
        p, {**{x: v for x, v in m_0.carriers.items() if x in p.types}, **base_carriers,
            par.spec.parameter_type: tuple(range(len(extensions)))})
    functions = {}
    for t in sorted(p.terms):
        if t in base.terms and d.is_pure(t):
            tab, dom = m_0.functions.get(t, {}), carriers[p.terms[t].dom]
            lacks = [v for v in dom if v not in tab]
            if lacks:
                raise Unassigned(f"term {t}: m_0 has no value at {lacks[0]!r}")
            functions[t] = {v: tab[v] for v in dom}
    for f in sorted(d.general_terms()):
        functions[par.lift[f]] = {(i, x): e.apply(f, x) for i, e in enumerate(extensions)
                                  for x in carriers[base.terms[f].dom]}
    if not complete_tables(p, carriers, functions) or len(functions) != len(p.terms):
        raise AssertionError("terminal model construction hit a mark conflict "
                             "or left a table unfilled")
    return FiniteModel(carriers, functions), extensions


def _lifted_pure_composite():
    """A general f after the pure composite hh = h . h: P(d) lifts hh to
    hh . eps_X, pairs it with proj_X and marks f' after the pairing."""
    s = Specification()
    s.add_type("X")
    for t in ("h", "hh", "f", "fhh"):
        s.add_term(t, "X", "X")
    s.compositions[("h", "h")] = "hh"
    s.compositions[("hh", "f")] = "fhh"
    return DecoratedSpecification(s, {"h", "hh"})


RECORD_SPECS = {**DECORATED, "lifted_pure_composite": _lifted_pure_composite}


def test_record_specs_lift_pairings_and_pure_composites():
    p = parameterize(DECORATED["idempotent"]()).spec.base
    assert p.tuples == {("proj_X", "s'"): "pair_proj_X_s'"}
    assert p.compositions == {("pair_proj_X_s'", "s'"): "ss'"}
    p = parameterize(_lifted_pure_composite()).spec.base
    assert p.compositions[("eps_X", "hh")] == "hh_o_eps_X"


def _assert_record_model_matches_reference(d, m0, base, par, cap=models.DEFAULT_CANDIDATE_CAP):
    (got, got_ext), (want, want_ext) = (terminal_model(d, m0, base, par=par, cap=cap),
                                        reference_terminal_model(d, m0, base, par=par, cap=cap))
    assert got == want and got_ext == want_ext
    assert list(got.functions) == list(want.functions)


@pytest.mark.parametrize("kind", sorted(RECORD_SPECS))
def test_terminal_model_matches_reference(kind):
    d = RECORD_SPECS[kind]()
    par, p0 = parameterize(d), pure_part(d)
    for k in (1, 2, 3):
        for xs in (tuple(range(k)), tuple(reversed(range(k)))):
            base = {"X": xs}
            for m0 in enumerate_models(p0, {x: v for x, v in base.items() if x in p0.types}):
                _assert_record_model_matches_reference(d, m0, base, par)


def reference_is_terminal(d, candidate, m_0, base_carriers, bound, par):
    """``is_terminal`` as it was before the record look-up: every hom of
    every model listed by ``hom_search``."""
    p = par.spec.base
    a_type = par.spec.parameter_type
    fix = sorted(x for x in p.types if x != a_type and x in base_types(p))
    for size in range(bound + 1):
        carriers = {**{x: tuple(v) for x, v in base_carriers.items()},
                    a_type: tuple(range(size))}
        others = enumerate_models(p, carriers, fixed=m_0)
        for n in others:
            homs = hom_search(p, n, candidate, fix_types=fix)
            if len(homs) != 1:
                return False
    return True


def _record_model(d, par, m_a, m0, base, records):
    """The record model whose parameter element i carries the fields of
    m_a's record records[i]."""
    p, a_type = par.spec.base, par.spec.parameter_type
    carriers = derived_carriers(p, {**base, **m0.carriers, a_type: tuple(range(len(records)))})
    functions = {t: dict(m_a.functions[t]) for t in d.base.terms if d.is_pure(t)}
    for f in d.general_terms():
        fp, dom = par.lift[f], d.base.terms[f].dom
        functions[fp] = {(i, x): m_a.functions[fp][(r, x)]
                         for i, r in enumerate(records) for x in carriers[dom]}
    assert complete_tables(p, carriers, functions) and len(functions) == len(p.terms)
    return FiniteModel(carriers, functions)


def _flipped(m_a, t, cod):
    """m_a with the first entry of t's table moved to the next value."""
    fns = {u: dict(tab) for u, tab in m_a.functions.items()}
    k0 = sorted(fns[t], key=repr)[0]
    fns[t][k0] = cod[(cod.index(fns[t][k0]) + 1) % len(cod)]
    return FiniteModel(m_a.carriers, fns)


IS_TERMINAL_CASES = [(kind, mk_m0, (0, 1), (0, 1, 2)) for kind, mk_m0 in CRITERION_7] + [
    # 729 records, one hom search per model of the 730
    ("two_ops", lambda: FiniteModel({"X": (0, 1, 2)}, {}), (0, 1, 2), (0, 1)),
]


@pytest.mark.parametrize("kind,mk_m0,xs,bounds", IS_TERMINAL_CASES,
                         ids=[c[0] for c in CRITERION_7] + ["two_ops-X3"])
def test_is_terminal_matches_reference(kind, mk_m0, xs, bounds):
    d, m0, base = DECORATED[kind](), mk_m0(), {"X": xs}
    par = parameterize(d)
    m_a, _ = terminal_model(d, m0, base, par=par)
    a_type = par.spec.parameter_type
    records = list(m_a.carriers[a_type])
    f = sorted(d.general_terms())[0]
    # eps_X : A*X -> X; its square fails where the record look-up succeeds
    eps = par.spec.base.products[(a_type, "X")][2]
    # the reference meets a dropped or duplicated record only at the model
    # that maps to it; on 729 records, the last costs it ~2.5 s
    at = -1 if len(records) < 100 else 0
    candidates = {
        "terminal": m_a,
        "flipped": _flipped(m_a, par.lift[f], m_a.carriers[d.base.terms[f].cod]),
        "projection": _flipped(m_a, eps, m_a.carriers["X"]),
        "duplicated": _record_model(d, par, m_a, m0, base, records + [records[at]]),
        "dropped": _record_model(d, par, m_a, m0, base,
                                 [r for r in records if r != records[at]]),
    }
    for label, cand in candidates.items():
        want = [reference_is_terminal(d, cand, m0, base, b, par) for b in bounds]
        got = [is_terminal(d, cand, m0, base, bound=b, par=par) for b in bounds]
        assert got == want, label
        assert want == [True] + [label == "terminal"] * (len(bounds) - 1), label


@st.composite
def terminality_cases(draw):
    """A decorated spec with carriers of 1-2 elements on its base types, a
    model m_0 of its pure part, its parameterization, the terminal model
    over m_0 and the index of one of its records; the searches for m_0
    and for the records are capped at 64 candidates."""
    d = draw(small_decorated_specs())
    base = {x: tuple(range(draw(st.integers(1, 2)))) for x in base_types(d.base)}
    par = parameterize(d)
    try:
        m0s = enumerate_models(pure_part(d), base, cap=64)
        assume(m0s)
        m0 = draw(st.sampled_from(m0s))
        m_a, extensions = terminal_model(d, m0, base, par=par, cap=64)
    except SearchSpaceTooLarge:
        reject()
    at = draw(st.integers(0, max(len(extensions) - 1, 0)))
    return d, base, m0, par, m_a, at


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terminality_cases())
def test_is_terminal_matches_reference_on_generated_specs(case):
    d, base, m0, par, m_a, at = case
    records = list(m_a.carriers[par.spec.parameter_type])
    candidates = {"terminal": m_a}
    if records:
        if d.general_terms():
            f = sorted(d.general_terms())[0]
            candidates["flipped"] = _flipped(m_a, par.lift[f], m_a.carriers[d.base.terms[f].cod])
        candidates["duplicated"] = _record_model(d, par, m_a, m0, base, records + [records[at]])
        candidates["dropped"] = _record_model(d, par, m_a, m0, base,
                                              [r for r in records if r != records[at]])
    # the reference lists every model of size <= bound: |records|^bound at the top
    for bound in [b for b in (2, 3) if len(records) ** b <= 512]:
        for label, cand in candidates.items():
            want = reference_is_terminal(d, cand, m0, base, bound, par)
            assert is_terminal(d, cand, m0, base, bound=bound, par=par) == want, (label, bound)
    # the lemma that is_terminal counts by: the homs out of a model of size
    # 1 into a model candidate are the records with the model's field values
    p, a_type = par.spec.base, par.spec.parameter_type
    fix = sorted(x for x in p.types if x != a_type and x in base_types(p))
    fields = [(par.lift[f], d.base.terms[f].dom) for f in sorted(d.general_terms())]

    def values(m, a, carriers):
        return [m.functions[fp][(a, x)] for fp, dom in fields for x in carriers[dom]]

    ones = enumerate_models(p, {**base, a_type: (0,)}, fixed=m0)
    # the bijection that is_terminal searches size 1 by: parameter passing
    # at the one element maps the models of size 1 onto those of d
    assert (sorted(pass_parameter(d, par, n, 0).canonical() for n in ones)
            == sorted(m.canonical() for m in enumerate_models(d.base, base, fixed=m0)))
    for n in ones:
        for label, cand in candidates.items():
            if label != "flipped":
                matching = sum(values(cand, r, n.carriers) == values(n, 0, n.carriers)
                               for r in cand.carriers[a_type])
                assert len(hom_search(p, n, cand, fix)) == matching, label


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terminality_cases())
def test_terminal_model_matches_reference_on_generated_specs(case):
    d, base, m0, par, _m_a, _at = case
    _assert_record_model_matches_reference(d, m0, base, par, cap=64)


@pytest.mark.parametrize("kind", sorted(RECORD_SPECS))
def test_a_model_of_the_parameterized_spec_is_built_back_from_its_slices(kind):
    # the lemma that is_terminal rests on: a model of P(d) over m_0 is the
    # family of the models of d that parameter passing reads off its slices
    d = RECORD_SPECS[kind]()
    par, p0 = parameterize(d), pure_part(d)
    p, a_type = par.spec.base, par.spec.parameter_type
    for xs in ((0,), (0, 1)):
        base = {"X": xs}
        for m0 in enumerate_models(p0, {x: v for x, v in base.items() if x in p0.types}):
            for k in (1, 2):
                ns = enumerate_models(p, {**base, a_type: tuple(range(k))}, fixed=m0)
                assert ns
                for n in ns:
                    family = [pass_parameter(d, par, n, a) for a in range(k)]
                    assert _unpass(d, par, m0, base, family) == n


def test_a_family_that_is_no_model_of_d_builds_no_model():
    # s = (0 1) is not idempotent: the family's ss is not s . s, so ss'
    # breaks its mark s' . <proj_X, s'> = ss' and the one check rejects it
    d, m0, base = DECORATED["idempotent"](), _m0(), {"X": (0, 1)}
    par = parameterize(d)
    swap = FiniteModel({"U": (UNIT_ELEMENT,), "X": (0, 1)},
                       {"e": {(): 0}, "s": {0: 1, 1: 0}, "ss": {0: 1, 1: 0}})
    assert check_model(d.base, swap) != []
    with pytest.raises(AssertionError, match="failed the model check"):
        _unpass(d, par, m0, base, [swap])


def _slice(p, a_type, n, a, carriers):
    """The slice of the element a of the parameter carrier of n, a model of
    the parameterized spec p, relabelled as a model on ``carriers``, those
    of the models whose parameter carrier is (0,).  A KeyError means that
    a table of n leaves the slice."""
    factors = {q: pair for pair, (q, _1, _2) in p.products.items()}

    def up(x, v):
        if x == a_type:
            return a
        if x in factors:
            return tuple(map(up, factors[x], v))
        return v

    down = {x: {up(x, v): v for v in c} for x, c in carriers.items()}
    return FiniteModel(carriers, {
        t: {v: down[tm.cod][n.functions[t][up(tm.dom, v)]] for v in carriers[tm.dom]}
        for t, tm in p.terms.items()})


@pytest.mark.parametrize("kind,mk_m0", CRITERION_7, ids=[c[0] for c in CRITERION_7])
def test_homs_out_of_a_model_are_the_product_of_those_out_of_its_slices(kind, mk_m0):
    # the slice argument of is_terminal, on every model of parameter size 2
    d, m0, base = DECORATED[kind](), mk_m0(), {"X": (0, 1)}
    par = parameterize(d)
    p, a_type = par.spec.base, par.spec.parameter_type
    fix = sorted(x for x in p.types if x != a_type and x in base_types(p))
    m_a, _ = terminal_model(d, m0, base, par=par)
    records = list(m_a.carriers[a_type])
    candidates = [m_a, _record_model(d, par, m_a, m0, base, records + records[:1]),
                  _record_model(d, par, m_a, m0, base, records[1:])]
    ones = enumerate_models(p, {**base, a_type: (0,)}, fixed=m0)
    carriers = ones[0].carriers
    slices, counts = set(), set()
    for n in enumerate_models(p, {**base, a_type: (0, 1)}, fixed=m0):
        parts = [_slice(p, a_type, n, a, carriers) for a in (0, 1)]
        for part in parts:
            assert check_model(p, part) == []
            slices.add(part.canonical())
        for cand in candidates:
            got = len(hom_search(p, n, cand, fix))
            assert got == (len(hom_search(p, parts[0], cand, fix))
                           * len(hom_search(p, parts[1], cand, fix)))
            counts.add(got)
    # every model of size 1 is a slice, and the counts are not all one
    assert slices == {m.canonical() for m in ones}
    assert counts == {0, 1, 2, 4}


def test_is_terminal_rejects_a_candidate_that_is_no_model():
    d = DECORATED["endo"]()
    par = parameterize(d)
    base = {"X": (0, 1)}
    m_a, _ = terminal_model(d, _m0(), base, par=par)
    sp, a_type = par.lift["s"], par.spec.parameter_type
    missing = {k: dict(v) for k, v in m_a.functions.items()}
    del missing[sp][sorted(missing[sp], key=repr)[-1]]
    assert not is_terminal(d, FiniteModel(m_a.carriers, missing), _m0(), base, bound=2, par=par)
    # the carrier of A*X is not the set of pairs
    prod = next(p for (y1, _y2), (p, _1, _2) in par.spec.base.products.items() if y1 == a_type)
    relabelled = {**m_a.carriers, prod: tuple(range(len(m_a.carriers[prod])))}
    cand = FiniteModel(relabelled, m_a.functions)
    assert not is_terminal(d, cand, _m0(), base, bound=2, par=par)
    assert not reference_is_terminal(d, cand, _m0(), base, 2, par)


def test_is_terminal_rejects_a_candidate_without_a_table_or_a_carrier():
    # decorated / type X / term f : X -> X
    s = Specification()
    s.add_type("X")
    s.add_term("f", "X", "X")
    d, m0, base = DecoratedSpecification(s, set()), FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}
    par = parameterize(d)
    p = par.spec.base
    m_a, _ = terminal_model(d, m0, base, par=par)
    assert all(is_terminal(d, m_a, m0, base, bound=b, par=par) for b in (0, 1, 2))
    for t in p.terms:
        cand = FiniteModel(m_a.carriers, {u: tab for u, tab in m_a.functions.items() if u != t})
        assert not any(is_terminal(d, cand, m0, base, bound=b, par=par) for b in (0, 1, 2)), t
    for x in p.types:
        cand = FiniteModel({y: c for y, c in m_a.carriers.items() if y != x}, m_a.functions)
        assert not any(is_terminal(d, cand, m0, base, bound=b, par=par) for b in (0, 1, 2)), x


def test_is_terminal_rejects_a_candidate_that_is_no_model_from_bound_1():
    # the terminal model and a copy of its first record whose proj_X entry
    # names that first record: the square of proj_X leaves the copy no
    # hom, so every model has exactly one hom into this candidate.  From
    # bound 1 on the records are counted only in a model of P(d), so the
    # candidate is not terminal; at bound 0 it is, as it was.
    d, m0, base = DECORATED["two_ops"](), FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}
    par = parameterize(d)
    p, a_type = par.spec.base, par.spec.parameter_type
    m_a, _ = terminal_model(d, m0, base, par=par)
    records = list(m_a.carriers[a_type])
    cand = _record_model(d, par, m_a, m0, base, records + records[:1])
    cand.functions[p.products[(a_type, "X")][1]][(len(records), 0)] = 0
    assert check_model(p, cand) != []
    assert [reference_is_terminal(d, cand, m0, base, b, par) for b in (0, 1, 2)] == [True] * 3
    assert [is_terminal(d, cand, m0, base, bound=b, par=par) for b in (0, 1, 2)] == [True, False, False]


@pytest.mark.parametrize("mk_m0,base,bound", [
    (lambda: FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}, 0),
    (lambda: FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}, 2),
    (lambda: FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}, 5),
    # 729 models of size 1, and no hom search for any of them
    (lambda: FiniteModel({"X": (0, 1, 2)}, {}), {"X": (0, 1, 2)}, 1),
    # 729 records: the 531,441 models of size 2 are never listed
    (lambda: FiniteModel({"X": (0, 1, 2)}, {}), {"X": (0, 1, 2)}, 2),
], ids=["X2-b0", "X2-b2", "X2-b5", "X3-b1", "X3-b2"])
def test_is_terminal_builds_one_search_per_parameter_size(mk_m0, base, bound, monkeypatch):
    # only the sizes 0 and min(bound, 1) are searched, each with one cell
    # set for its models; the one hom search is that of the model of size
    # 0, and the models of size 1 count records instead
    d, m0 = DECORATED["two_ops"](), mk_m0()
    par = parameterize(d)
    m_a, extensions = terminal_model(d, m0, base, par=par)
    built = {"cells": 0, "hom_search": 0}
    cells_init, search = models._Cells.__init__, models.hom_search

    def counting_init(self):
        built["cells"] += 1
        cells_init(self)

    def counting_search(*args, **kwargs):
        built["hom_search"] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(models._Cells, "__init__", counting_init)
    monkeypatch.setattr(models, "hom_search", counting_search)
    assert is_terminal(d, m_a, m0, base, bound=bound, par=par)
    assert built == {"cells": 3 if bound >= 1 else 2, "hom_search": 1}
    assert len(extensions) > 3


def test_is_terminal_builds_only_the_model_of_size_0_and_a_failing_one(monkeypatch):
    # two_ops at X = 3, bound 1: the 729 models of size 1 are keyed on
    # their cells, and only one whose record count is not one is built
    d, m0, base = DECORATED["two_ops"](), FiniteModel({"X": (0, 1, 2)}, {}), {"X": (0, 1, 2)}
    par = parameterize(d)
    m_a, _ = terminal_model(d, m0, base, par=par)
    records = list(m_a.carriers[par.spec.parameter_type])
    duplicated = _record_model(d, par, m_a, m0, base, records + records[:1])
    built = count_models_built(monkeypatch)
    assert is_terminal(d, m_a, m0, base, bound=1, par=par)
    assert len(built) == 1
    built.clear()
    assert not is_terminal(d, duplicated, m0, base, bound=1, par=par)
    assert len(built) == 2


def test_is_terminal_caps_only_the_searches_it_runs():
    # two_ops at X = 2: the free tables f', g' : A*X -> X have 16
    # combinations at parameter size 1 and 256 at size 2, which is never
    # searched
    d, m0, base = DECORATED["two_ops"](), FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}
    par = parameterize(d)
    m_a, _ = terminal_model(d, m0, base, par=par)
    assert is_terminal(d, m_a, m0, base, bound=5, par=par, cap=16)
    with pytest.raises(SearchSpaceTooLarge, match="16 candidates exceed cap 15"):
        is_terminal(d, m_a, m0, base, bound=5, par=par, cap=15)


def test_incomparable_carrier_raises_a_named_error():
    # 0 and "a" do not compare, so models on X have no canonical() order
    xs = (0, "a")
    endo, base = DECORATED["endo"](), {"X": xs}
    m0 = FiniteModel({"U": (UNIT_ELEMENT,), "X": xs}, {"e": {(): 0}})
    m_a, _ = terminal_model(endo, _m0(), {"X": (0, 1)})
    calls = {
        "enumerate_models": lambda: enumerate_models(endo.base, base),
        "terminal_model": lambda: terminal_model(endo, m0, base),
        "exactness_check": lambda: exactness_check(endo, m0, base),
        "is_terminal": lambda: is_terminal(endo, m_a, m0, base, bound=1),
        # two homs from one point into X, which the search sorts
        "hom_search": lambda: hom_search(CORPUS["single_type"](),
                                         FiniteModel({"X": (0,)}, {}),
                                         FiniteModel({"X": xs}, {})),
    }
    for label, call in calls.items():
        with pytest.raises(IncomparableCarrier, match="carrier of X") as e:
            call()
        assert isinstance(e.value, EqsketchError), label
    # a single hom needs no order
    assert len(hom_search(CORPUS["single_type"](), FiniteModel({"X": ()}, {}),
                          FiniteModel({"X": xs}, {}))) == 1


def test_a_missing_table_entry_is_a_conflict():
    # the candidate's e has no entry at the unit element, so the square of
    # e leaves no hom: hom_search finds none, and bound 0 answers False
    d, base = DECORATED["endo"](), {"X": (0, 1)}
    par = parameterize(d)
    m0 = enumerate_models(pure_part(d), base)[0]
    m_a, _ = terminal_model(d, m0, base, par=par)
    cand = FiniteModel(m_a.carriers, {**m_a.functions, "e": {}})
    assert hom_search(par.spec.base, m_a, cand) == []
    assert not any(is_terminal(d, cand, m0, base, bound=b, par=par) for b in (0, 1))
