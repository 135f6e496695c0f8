import itertools
from typing import Dict, Set

import pytest
from hypothesis import HealthCheck, given, settings

from eqsketch import sketch
from eqsketch.core import Specification, fresh_name, iso_search, validate
from eqsketch.errors import InvalidRealization
from eqsketch.inference import saturate
from eqsketch.sketch import (UNIT_ELEM, FiniteRealization, check_realization,
                             equational_sketch, realization_to_spec,
                             spec_to_realization, validate_sketch)

from conftest import CORPUS, DECORATED, small_specs


def test_sketch_is_well_formed():
    sk = equational_sketch()
    assert validate_sketch(sk) == []
    assert len(sk.points) == 12


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_spec_realizes_sketch(name):
    sk = equational_sketch()
    r = spec_to_realization(CORPUS[name]())
    assert check_realization(sk, r) == []


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_realization_round_trip(name):
    s = CORPUS[name]()
    back = realization_to_spec(spec_to_realization(s))
    assert validate(back) == []
    res = iso_search(s, back)
    assert res, f"round trip failed for {name}"


def _comp_chain_realization():
    r = spec_to_realization(CORPUS["comp_chain"]())
    r.point_sets = dict(r.point_sets)
    r.functions = dict(r.functions)
    return r


def _without_2_cone():
    r = _comp_chain_realization()
    r.point_sets["2-Cone"] = r.point_sets["2-Cone"][:-1]
    return r


def _extra_cons(fst, snd):
    def broken():
        r = _comp_chain_realization()
        r.point_sets["Cons"] += ("extra",)
        r.functions["fst"] = {**r.functions["fst"], "extra": fst}
        r.functions["snd"] = {**r.functions["snd"], "extra": snd}
        return r
    return broken


def _bogus_identity():
    r = _comp_chain_realization()
    # an extra selected identity with no underlying data breaks totality
    r.point_sets["Selid"] += ("bogus",)
    return r


# the first fails before the cones are checked, the others at a cone
BROKEN = {"bogus identity": _bogus_identity,
          "limit element not reached": _without_2_cone,
          "inconsistent components": _extra_cons("g", "f"),
          "duplicate vertex element": _extra_cons("f", "g")}


def test_broken_realization_is_caught():
    for name, broken in BROKEN.items():
        assert check_realization(equational_sketch(), broken()), name


def reference_limit_assignments(r, c):
    """Every combination of the base points' elements that the base
    arrows agree with: the product the join must equal, as a set."""
    nodes = sorted(dict(c.base_points))
    points = dict(c.base_points)
    out = set()
    for combo in itertools.product(*(r.point_sets[points[n]] for n in nodes)):
        nu = dict(zip(nodes, combo))
        if all(r.apply(a, nu[n1]) == nu[n2] for (n1, n2, a) in c.base_arrows):
            out.add(tuple(sorted(nu.items())))
    return out


def _realizations():
    for name in sorted(CORPUS):
        yield name, spec_to_realization(CORPUS[name]())
        sat = saturate(CORPUS[name](), 1).spec
        yield f"{name} at depth 1", spec_to_realization(sat)
    for name, broken in BROKEN.items():
        yield name, broken()


def test_limit_join_matches_product(monkeypatch):
    sk = equational_sketch()
    for name, r in _realizations():
        for c in sk.potential_cones.values():
            assert (sketch._limit_assignments(r, c)
                    == reference_limit_assignments(r, c)), (name, c.name)
        got = check_realization(sk, r)
        with monkeypatch.context() as m:
            m.setattr(sketch, "_limit_assignments", reference_limit_assignments)
            assert got == check_realization(sk, r), name


def test_realization_to_spec_rejects_garbage():
    r = spec_to_realization(CORPUS["single_term"]())
    r.point_sets = dict(r.point_sets)
    r.functions = dict(r.functions)
    r.point_sets["Term"] = tuple(r.point_sets["Term"]) + ("extra",)
    with pytest.raises((InvalidRealization, KeyError)):
        realization_to_spec(r)


# ---------------------------------------------------------------------------
# Reference codec: a verbatim copy of spec_to_realization and
# realization_to_spec as they were when they encoded and decoded each kind
# of mark by hand, kept as a differential oracle for the versions that
# read each kind's point, mono and result arrow from one table
# ---------------------------------------------------------------------------

def reference_spec_to_realization(s: Specification) -> FiniteRealization:
    """Encode a valid specification as a realization of ``equational_sketch``.

    Explicit equations have no counterpart in the sketch fragment and are
    not encoded; see ``realization_to_spec``.
    """
    r = FiniteRealization()
    types = tuple(sorted(s.types))
    terms = tuple(sorted(s.terms))
    cons = tuple(sorted((f, g) for f in terms for g in terms
                        if s.terms[f].cod == s.terms[g].dom))
    cone2 = tuple(sorted((f, g) for f in terms for g in terms
                         if s.terms[f].dom == s.terms[g].dom))
    type2 = tuple(sorted((x, y) for x in types for y in types))
    r.point_sets = {
        "Type": types,
        "Term": terms,
        "Cons": cons,
        "Comp": tuple(sorted(s.compositions)),
        "Selid": tuple(sorted(s.identities)),
        "2-Prod": tuple(sorted(s.products)),
        "2-Cone": cone2,
        "Type^2": type2,
        "2-Tuple": tuple(sorted(s.tuples)),
        "Unit": (UNIT_ELEM,),
        "0-Prod": (UNIT_ELEM,) if s.terminal is not None else (),
        "0-Tuple": tuple(sorted(s.collapsings)),
    }
    r.functions = {
        "dom": {t: s.terms[t].dom for t in terms},
        "codom": {t: s.terms[t].cod for t in terms},
        "fst": {p: p[0] for p in cons},
        "snd": {p: p[1] for p in cons},
        "i": {p: p for p in s.compositions},
        "comp": dict(s.compositions),
        "i0": {x: x for x in s.identities},
        "selid": dict(s.identities),
        "j": {p: p for p in s.products},
        "2-prod": {p: (v[1], v[2]) for p, v in s.products.items()},
        "k": {p: p for p in s.tuples},
        "2-base'": {(f, g): (s.terms[f].cod, s.terms[g].cod) for (f, g) in s.tuples},
        "2-tuple": dict(s.tuples),
        "j0": {UNIT_ELEM: UNIT_ELEM} if s.terminal is not None else {},
        "0-prod": {UNIT_ELEM: s.terminal} if s.terminal is not None else {},
        "k0": {x: x for x in s.collapsings},
        "0-base'": {x: UNIT_ELEM for x in s.collapsings},
        "0-tuple": dict(s.collapsings),
        "b1": {p: p[0] for p in type2},
        "b2": {p: p[1] for p in type2},
        "c1": {p: p[0] for p in cone2},
        "c2": {p: p[1] for p in cone2},
        "2-base": {(f, g): (s.terms[f].cod, s.terms[g].cod) for (f, g) in cone2},
        "0-base": {x: UNIT_ELEM for x in types},
        "id": {x: x for x in types},
    }
    return r


def reference_realization_to_spec(r: FiniteRealization) -> Specification:
    """Decode a valid realization of ``equational_sketch`` back to a
    specification.  Elements are named by their string form, with
    deterministic disambiguation."""
    sk = equational_sketch()
    violations = check_realization(sk, r)
    if violations:
        raise InvalidRealization("; ".join(violations[:5]))
    tname: Dict[object, str] = {}
    taken: Set[str] = set()
    for e in r.point_sets["Type"]:
        n = fresh_name(str(e), taken)
        taken.add(n)
        tname[e] = n
    mname: Dict[object, str] = {}
    mtaken: Set[str] = set()
    for e in r.point_sets["Term"]:
        n = fresh_name(str(e), mtaken)
        mtaken.add(n)
        mname[e] = n
    s = Specification()
    for e in r.point_sets["Type"]:
        s.add_type(tname[e])
    for e in r.point_sets["Term"]:
        s.add_term(mname[e], tname[r.apply("dom", e)], tname[r.apply("codom", e)])
    for e in r.point_sets["Selid"]:
        s.identities[tname[r.apply("i0", e)]] = mname[r.apply("selid", e)]
    for e in r.point_sets["Comp"]:
        pair = r.apply("i", e)
        key = (mname[r.apply("fst", pair)], mname[r.apply("snd", pair)])
        s.compositions[key] = mname[r.apply("comp", e)]
    for e in r.point_sets["2-Prod"]:
        pair = r.apply("j", e)
        y1, y2 = tname[r.apply("b1", pair)], tname[r.apply("b2", pair)]
        cone = r.apply("2-prod", e)
        p1, p2 = r.apply("c1", cone), r.apply("c2", cone)
        s.products[(y1, y2)] = (tname[r.apply("dom", p1)], mname[p1], mname[p2])
    for e in r.point_sets["2-Tuple"]:
        cone = r.apply("k", e)
        key = (mname[r.apply("c1", cone)], mname[r.apply("c2", cone)])
        s.tuples[key] = mname[r.apply("2-tuple", e)]
    for e in r.point_sets["0-Prod"]:
        s.terminal = tname[r.apply("0-prod", e)]
    for e in r.point_sets["0-Tuple"]:
        s.collapsings[tname[r.apply("k0", e)]] = mname[r.apply("0-tuple", e)]
    return s


def _every_kind():
    """A spec with a mark of each of the six kinds."""
    s = Specification()
    for x in ("X", "P", "U"):
        s.add_type(x)
    s.terminal = "U"
    for t, dom, cod in (("p1", "P", "X"), ("p2", "P", "X"), ("id_X", "X", "X"),
                        ("tu_X", "X", "U"), ("f", "X", "X"), ("ff", "X", "X"),
                        ("t", "X", "P")):
        s.add_term(t, dom, cod)
    s.products[("X", "X")] = ("P", "p1", "p2")
    s.identities["X"] = "id_X"
    s.collapsings["X"] = "tu_X"
    s.compositions[("f", "f")] = "ff"
    s.tuples[("f", "id_X")] = "t"
    assert validate(s) == []
    return s


def _assert_codec_matches_reference(s):
    r = spec_to_realization(s)
    assert r == reference_spec_to_realization(s)
    assert realization_to_spec(r) == reference_realization_to_spec(r)


CODEC_CASES = {**{f"corpus:{n}": mk for n, mk in CORPUS.items()},
               **{f"decorated:{n}": (lambda mk=mk: mk().base) for n, mk in DECORATED.items()},
               "every kind": _every_kind}


@pytest.mark.parametrize("name", sorted(CODEC_CASES))
def test_codec_matches_reference(name):
    s = CODEC_CASES[name]()
    _assert_codec_matches_reference(s)
    _assert_codec_matches_reference(saturate(s, 1).spec)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_codec_matches_reference_on_generated_specs(case):
    _assert_codec_matches_reference(case[0])
