import itertools
import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import eqsketch.models
from eqsketch.core import Specification, SpecMorphism, validate
from eqsketch.decorate import (DecoratedSpecification, decoration_closure,
                               purify, validate_decorated)

# HYPOTHESIS_PROFILE=ci draws the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def empty_spec():
    return Specification()


def single_type():
    s = Specification()
    s.add_type("X")
    return s


def single_term():
    s = Specification()
    s.add_type("X")
    s.add_type("Y")
    s.add_term("f", "X", "Y")
    return s


def endo_plain():
    # a pure constant and a self-map; the running example everywhere
    s = Specification()
    s.add_type("X")
    s.add_type("U")
    s.terminal = "U"
    s.add_term("e", "U", "X")
    s.add_term("s", "X", "X")
    return s


def two_parallel():
    s = single_term()
    s.add_term("g", "X", "Y")
    return s


def with_identity():
    s = Specification()
    s.add_type("X")
    s.add_term("id_X", "X", "X")
    s.identities["X"] = "id_X"
    return s


def comp_chain():
    s = Specification()
    for x in "XYZ":
        s.add_type(x)
    s.add_term("f", "X", "Y")
    s.add_term("g", "Y", "Z")
    s.add_term("gf", "X", "Z")
    s.compositions[("f", "g")] = "gf"
    return s


def product_pair():
    s = Specification()
    s.add_type("Y1")
    s.add_type("Y2")
    s.add_type("P")
    s.add_term("p1", "P", "Y1")
    s.add_term("p2", "P", "Y2")
    s.products[("Y1", "Y2")] = ("P", "p1", "p2")
    return s


def product_heavy():
    s = product_pair()
    s.add_type("X")
    s.add_term("f", "X", "Y1")
    s.add_term("g", "X", "Y2")
    s.add_term("t", "X", "P")
    s.tuples[("f", "g")] = "t"
    s.add_term("c1", "X", "Y1")
    s.compositions[("t", "p1")] = "c1"
    s.add_type("Q")
    s.add_term("q1", "Q", "Y2")
    s.add_term("q2", "Q", "Y1")
    s.products[("Y2", "Y1")] = ("Q", "q1", "q2")
    return s


def collapse_spec():
    s = Specification()
    s.add_type("U")
    s.terminal = "U"
    s.add_type("X")
    s.add_term("tu_X", "X", "U")
    s.collapsings["X"] = "tu_X"
    return s


def monoid_core():
    # unit laws encoded as potential features rather than raw equations:
    # mul . <e.tu_M, id_M> = id_M and mul . <id_M, e.tu_M> = id_M
    s = Specification()
    s.add_type("U")
    s.terminal = "U"
    s.add_type("M")
    s.add_type("M2")
    s.add_term("p1", "M2", "M")
    s.add_term("p2", "M2", "M")
    s.products[("M", "M")] = ("M2", "p1", "p2")
    s.add_term("mul", "M2", "M")
    s.add_term("e", "U", "M")
    s.add_term("id_M", "M", "M")
    s.identities["M"] = "id_M"
    s.add_term("tu_M", "M", "U")
    s.collapsings["M"] = "tu_M"
    s.add_term("e_c", "M", "M")
    s.compositions[("tu_M", "e")] = "e_c"
    s.add_term("lpair", "M", "M2")
    s.tuples[("e_c", "id_M")] = "lpair"
    s.compositions[("lpair", "mul")] = "id_M"
    s.add_term("rpair", "M", "M2")
    s.tuples[("id_M", "e_c")] = "rpair"
    s.compositions[("rpair", "mul")] = "id_M"
    return s


CORPUS = {
    "empty": empty_spec,
    "single_type": single_type,
    "single_term": single_term,
    "endo": endo_plain,
    "two_parallel": two_parallel,
    "with_identity": with_identity,
    "comp_chain": comp_chain,
    "product_pair": product_pair,
    "product_heavy": product_heavy,
    "collapse": collapse_spec,
    "monoid_core": monoid_core,
}


def endo_decorated():
    return DecoratedSpecification(endo_plain(), {"e"})


def idempotent_decorated():
    s = endo_plain()
    s.add_term("ss", "X", "X")
    s.compositions[("s", "s")] = "ss"
    s.add_equation("ss", "s")
    return DecoratedSpecification(s, {"e"})


def two_ops_decorated():
    s = Specification()
    s.add_type("X")
    s.add_term("f", "X", "X")
    s.add_term("g", "X", "X")
    return DecoratedSpecification(s, set())


DECORATED = {
    "endo": endo_decorated,
    "idempotent": idempotent_decorated,
    "two_ops": two_ops_decorated,
}


def _renamed_endo():
    s = Specification()
    s.add_type("Y")
    s.add_type("V")
    s.terminal = "V"
    s.add_term("c", "V", "Y")
    s.add_term("t", "Y", "Y")
    return s


def criterion_5_cases():
    """The morphisms u: d1 -> d2 of acceptance criterion 5, as
    (label, d1, d2, u)."""
    endo = DECORATED["endo"]()
    idem = DECORATED["idempotent"]()
    ops = DECORATED["two_ops"]()
    ren = DecoratedSpecification(_renamed_endo(), {"c"})
    ren_pure = DecoratedSpecification(_renamed_endo(), {"c", "t"})
    endo_big = DECORATED["endo"]()
    endo_big.base.add_term("s2", "X", "X")

    def ident(d):
        return SpecMorphism(d.base, d.base, {x: x for x in d.base.types},
                            {t: t for t in d.base.terms})

    endo_to_ren = {"type": {"X": "Y", "U": "V"}, "term": {"e": "c", "s": "t"}}
    return [
        ("identity endo", endo, endo, ident(endo)),
        ("identity idempotent", idem, idem, ident(idem)),
        ("identity two_ops", ops, ops, ident(ops)),
        ("renaming", endo, ren,
         SpecMorphism(endo.base, ren.base, endo_to_ren["type"],
                      endo_to_ren["term"])),
        ("renaming then purity increase", endo, ren_pure,
         SpecMorphism(endo.base, ren_pure.base, endo_to_ren["type"],
                      endo_to_ren["term"])),
        ("purity increase in place", endo, purify(CORPUS["endo"]()),
         ident(endo)),
        ("two_ops swap", ops, ops,
         SpecMorphism(ops.base, ops.base, {"X": "X"}, {"f": "g", "g": "f"})),
        ("two_ops one pure", ops,
         DecoratedSpecification(DECORATED["two_ops"]().base, {"f"}),
         ident(ops)),
        ("two_ops collapse onto endo", ops, endo,
         SpecMorphism(ops.base, endo.base, {"X": "X"}, {"f": "s", "g": "s"})),
        ("embedding into larger", endo, endo_big,
         SpecMorphism(endo.base, endo_big.base,
                      {x: x for x in endo.base.types},
                      {t: t for t in endo.base.terms})),
        ("two_ops make both pure", ops,
         DecoratedSpecification(DECORATED["two_ops"]().base, {"f", "g"}),
         ident(ops)),
    ]


@st.composite
def small_specs(draw):
    """Small valid specs with compose marks (self-referential ones too),
    tuple marks and equations."""
    s = Specification()
    types = ["X", "Y"][:draw(st.integers(1, 2))]
    for x in types:
        s.add_type(x)
    if draw(st.booleans()):
        y1, y2 = draw(st.sampled_from(types)), draw(st.sampled_from(types))
        s.add_type("P")
        s.add_term("p1", "P", y1)
        s.add_term("p2", "P", y2)
        s.products[(y1, y2)] = ("P", "p1", "p2")
    if draw(st.booleans()):
        s.add_term("id", "X", "X")
        s.identities["X"] = "id"
    every = sorted(s.types)
    for i in range(draw(st.integers(1, 3))):
        s.add_term(f"t{i}", draw(st.sampled_from(every)), draw(st.sampled_from(every)))

    def result(dom, cod, stem):
        """An existing term dom -> cod (possibly an argument) or a new one."""
        same = sorted(t for t, tm in s.terms.items() if (tm.dom, tm.cod) == (dom, cod))
        if same and draw(st.booleans()):
            return draw(st.sampled_from(same))
        name = f"{stem}{len(s.terms)}"
        s.add_term(name, dom, cod)
        return name

    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(sorted(s.terms)))
        gs = sorted(g for g, tm in s.terms.items() if tm.dom == s.terms[f].cod)
        if not gs:
            continue
        g = draw(st.sampled_from(gs))
        if (f, g) not in s.compositions:
            s.compositions[(f, g)] = result(s.terms[f].dom, s.terms[g].cod, "c")
    if s.products and draw(st.booleans()):
        ((y1, y2), _p), = s.products.items()
        dom = draw(st.sampled_from(every))
        f = result(dom, y1, "f")
        g = result(dom, y2, "g")
        if (f, g) not in s.tuples:
            s.tuples[(f, g)] = result(dom, "P", "u")
    parallel = sorted((a, b) for a, b in itertools.combinations(sorted(s.terms), 2)
                      if s.parallel(a, b))
    for a, b in draw(st.lists(st.sampled_from(parallel), max_size=2) if parallel
                     else st.just([])):
        s.add_equation(a, b)
    assert validate(s) == []
    sizes = {x: draw(st.integers(1, 2)) for x in types}
    return s, {x: tuple(range(k)) for x, k in sizes.items()}


@st.composite
def small_decorated_specs(draw):
    """``small_specs`` with a drawn set of pure terms, closed under the
    decoration rules; mark results may be pure too."""
    s, _carriers = draw(small_specs())
    chosen = draw(st.sets(st.sampled_from(sorted(s.terms))))
    d, _added = decoration_closure(DecoratedSpecification(s, chosen))
    assert validate_decorated(d) == []
    return d


@pytest.fixture
def corpus():
    return {name: mk() for name, mk in CORPUS.items()}


@pytest.fixture
def decorated_corpus():
    return {name: mk() for name, mk in DECORATED.items()}


def count_models_built(monkeypatch):
    """A list of every ``FiniteModel`` that ``eqsketch.models`` builds."""
    built = []

    class Counted(eqsketch.models.FiniteModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(eqsketch.models, "FiniteModel", Counted)
    return built


def complete_tables(s, carriers, functions) -> bool:
    """Add to ``functions`` every missing table of s that the marks and
    equations determine from the given ones; False on a conflict.  A cell
    search over every table of s, on ``models._spec_cells``: the record
    model was once completed by it, and the tests keep it as a reference."""
    built = eqsketch.models._spec_cells(s, carriers, functions)
    if built is None:
        return False
    cells, off = built
    for t, term in s.terms.items():
        dom, cod = carriers[term.dom], carriers[term.cod]
        vals = cells.val[off[t]:off[t] + len(dom)]
        if t not in functions and min(vals, default=0) >= 0:
            functions[t] = dict(zip(dom, map(cod.__getitem__, vals)))
    return True
