import itertools

import pytest

from eqsketch import sketch
from eqsketch.core import iso_search, validate
from eqsketch.errors import InvalidRealization
from eqsketch.inference import saturate
from eqsketch.sketch import (check_realization, equational_sketch,
                             realization_to_spec, spec_to_realization,
                             validate_sketch)

from conftest import CORPUS


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
