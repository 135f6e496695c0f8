"""Generic limit sketches, finite set-valued realizations, and the fixed
sketch whose realizations are exactly the equational specifications.

A sketch is a graph with potential features: identities, limit cones,
monomorphism marks and arrow equalities.  A finite realization assigns a
finite set to each point and a function to each arrow;
``check_realization`` decides whether the potential features are sent
to real ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .core import MARK_KINDS, TERM, RuleTag, Specification, fresh_name
from .errors import InvalidRealization, UnassignedArrow, UnassignedPoint

Point = str
ArrowName = str
Path = Tuple[ArrowName, ...]  # arrows applied left to right


@dataclass(frozen=True)
class Arrow:
    name: ArrowName
    src: Point
    tgt: Point


@dataclass(frozen=True)
class Cone:
    """A potential limit cone over a finite base diagram.

    ``base_points`` maps node ids to sketch points; ``base_arrows`` are
    labelled edges between nodes; ``projections`` maps some nodes to the
    projection arrows out of the vertex.  Nodes without a projection must
    be reachable from projected ones through base arrows, so that the
    comparison with the computed limit is determined.
    """
    name: str
    vertex: Point
    base_points: Tuple[Tuple[str, Point], ...]
    base_arrows: Tuple[Tuple[str, str, ArrowName], ...] = ()
    projections: Tuple[Tuple[str, ArrowName], ...] = ()


@dataclass
class LimitSketch:
    points: Set[Point] = field(default_factory=set)
    arrows: Dict[ArrowName, Arrow] = field(default_factory=dict)
    potential_identities: Dict[Point, ArrowName] = field(default_factory=dict)
    potential_cones: Dict[str, Cone] = field(default_factory=dict)
    mono_marks: Set[ArrowName] = field(default_factory=set)
    arrow_equalities: List[Tuple[Path, Path]] = field(default_factory=list)

    def add_point(self, p: Point) -> None:
        self.points.add(p)

    def add_arrow(self, name: ArrowName, src: Point, tgt: Point) -> None:
        self.arrows[name] = Arrow(name, src, tgt)


def _path_endpoints(sk: LimitSketch, path: Path) -> Optional[Tuple[Point, Point]]:
    if not path:
        return None
    cur = None
    start = None
    for a in path:
        ar = sk.arrows.get(a)
        if ar is None:
            return None
        if start is None:
            start = ar.src
            cur = ar.tgt
        else:
            if ar.src != cur:
                return None
            cur = ar.tgt
    return (start, cur)


def validate_sketch(sk: LimitSketch) -> List[str]:
    out: List[str] = []
    for a in sk.arrows.values():
        if a.src not in sk.points or a.tgt not in sk.points:
            out.append(f"arrow {a.name}: endpoint not a point")
    for p, a in sk.potential_identities.items():
        ar = sk.arrows.get(a)
        if ar is None or ar.src != p or ar.tgt != p:
            out.append(f"potential identity at {p}: {a} is not {p} -> {p}")
    seen_vertices: Set[Point] = set()
    for c in sk.potential_cones.values():
        if c.vertex in seen_vertices:
            out.append(f"cone {c.name}: duplicate potential cone at vertex {c.vertex}")
        seen_vertices.add(c.vertex)
        nodes = dict(c.base_points)
        for n, p in nodes.items():
            if p not in sk.points:
                out.append(f"cone {c.name}: node {n} at unknown point {p}")
        for (n1, n2, a) in c.base_arrows:
            ar = sk.arrows.get(a)
            if n1 not in nodes or n2 not in nodes or ar is None:
                out.append(f"cone {c.name}: bad base arrow {a}")
            elif ar.src != nodes[n1] or ar.tgt != nodes[n2]:
                out.append(f"cone {c.name}: base arrow {a} endpoints mismatch")
        projected = set()
        for (n, a) in c.projections:
            projected.add(n)
            ar = sk.arrows.get(a)
            if n not in nodes or ar is None:
                out.append(f"cone {c.name}: bad projection {a}")
            elif ar.src != c.vertex or ar.tgt != nodes[n]:
                out.append(f"cone {c.name}: projection {a} is not {c.vertex} -> {nodes[n]}")
        # every unprojected node must be reachable from a projected one
        reach = set(projected)
        changed = True
        while changed:
            changed = False
            for (n1, n2, _a) in c.base_arrows:
                if n1 in reach and n2 not in reach:
                    reach.add(n2)
                    changed = True
        for n in nodes:
            if n not in reach:
                out.append(f"cone {c.name}: node {n} not determined by projections")
    for a in sk.mono_marks:
        if a not in sk.arrows:
            out.append(f"mono mark on unknown arrow {a}")
    for (p1, p2) in sk.arrow_equalities:
        e1, e2 = _path_endpoints(sk, p1), _path_endpoints(sk, p2)
        if e1 is None or e2 is None or e1 != e2:
            out.append(f"arrow equality {p1} = {p2}: paths not parallel")
    return out


@dataclass
class FiniteRealization:
    point_sets: Dict[Point, Tuple] = field(default_factory=dict)
    functions: Dict[ArrowName, Dict] = field(default_factory=dict)

    def apply(self, arrow: ArrowName, x):
        return self.functions[arrow][x]

    def apply_path(self, path: Path, x):
        for a in path:
            x = self.functions[a][x]
        return x


def check_realization(sk: LimitSketch, r: FiniteRealization) -> List[str]:
    """Decide whether r sends every potential feature to a real one."""
    for p in sk.points:
        if p not in r.point_sets:
            raise UnassignedPoint(p)
    for a in sk.arrows:
        if a not in r.functions:
            raise UnassignedArrow(a)
    out: List[str] = []
    for a in sk.arrows.values():
        fn = r.functions[a.name]
        src = r.point_sets[a.src]
        tgt = set(r.point_sets[a.tgt])
        for x in src:
            if x not in fn:
                out.append(f"arrow {a.name}: no value at {x!r}")
            elif fn[x] not in tgt:
                out.append(f"arrow {a.name}: value at {x!r} outside target set")
    if out:
        return out
    for p, a in sk.potential_identities.items():
        for x in r.point_sets[p]:
            if r.apply(a, x) != x:
                out.append(f"potential identity {a}: not the identity at {x!r}")
    for a in sorted(sk.mono_marks):
        fn = r.functions[a]
        seen: Dict[object, object] = {}
        for x in r.point_sets[sk.arrows[a].src]:
            y = fn[x]
            if y in seen:
                out.append(f"mono {a}: {seen[y]!r} and {x!r} collide")
            else:
                seen[y] = x
    for (p1, p2) in sk.arrow_equalities:
        start = _path_endpoints(sk, p1)[0]
        for x in r.point_sets[start]:
            if r.apply_path(p1, x) != r.apply_path(p2, x):
                out.append(f"arrow equality {p1} = {p2} fails at {x!r}")
    for c in sorted(sk.potential_cones.values(), key=lambda c: c.name):
        out.extend(_check_cone(sk, r, c))
    return out


def _limit_assignments(r: FiniteRealization, c: Cone) -> Set[Tuple]:
    """The limit of c's base diagram under r, each element as its sorted
    (node, value) pairs.

    Nodes are placed one at a time, in an order fixed once per cone: a
    node reached by a base arrow from a placed node takes that arrow's
    value, any other ranges over its point set, and every other base
    arrow is checked as soon as both its ends are placed.  The base
    arrows must run between their nodes' points (``validate_sketch``).
    """
    points = dict(c.base_points)
    unplaced = sorted(points)
    pos: Dict[str, int] = {}
    steps = []
    while unplaced:
        edge = next(((n1, n2, a) for (n1, n2, a) in c.base_arrows
                     if n1 in pos and n2 not in pos), None)
        n = edge[1] if edge else unplaced[0]
        unplaced.remove(n)
        pos[n] = len(pos)
        checks = [(pos[n1], pos[n2], r.functions[a])
                  for (n1, n2, a) in c.base_arrows
                  if n in (n1, n2) and n1 in pos and n2 in pos
                  and (n1, n2, a) != edge]
        steps.append(((pos[edge[0]], r.functions[edge[2]]) if edge else None,
                      r.point_sets[points[n]], checks))
    rows: List[Tuple] = [()]
    for via, values, checks in steps:
        grown = []
        for row in rows:
            for v in ((via[1][row[via[0]]],) if via else values):
                nxt = row + (v,)
                if all(fn[nxt[i]] == nxt[j] for (i, j, fn) in checks):
                    grown.append(nxt)
        rows = grown
    named = sorted(pos.items())
    return {tuple((n, row[i]) for (n, i) in named) for row in rows}


def _check_cone(sk: LimitSketch, r: FiniteRealization, c: Cone) -> List[str]:
    out: List[str] = []
    limit_keys = _limit_assignments(r, c)
    nodes = dict(c.base_points)
    seen: Set[Tuple] = set()
    for v in r.point_sets[c.vertex]:
        nu: Dict[str, object] = {}
        for (n, a) in c.projections:
            nu[n] = r.apply(a, v)
        # propagate to unprojected nodes along base arrows
        changed = True
        while changed:
            changed = False
            for (n1, n2, a) in c.base_arrows:
                if n1 in nu:
                    val = r.apply(a, nu[n1])
                    if n2 not in nu:
                        nu[n2] = val
                        changed = True
                    elif nu[n2] != val:
                        out.append(f"cone {c.name}: inconsistent components at {v!r}")
                        return out
        if set(nu) != set(nodes):
            out.append(f"cone {c.name}: projections do not determine all components")
            return out
        key = tuple(sorted(nu.items()))
        if key not in limit_keys:
            out.append(f"cone {c.name}: vertex element {v!r} maps outside the limit")
        elif key in seen:
            out.append(f"cone {c.name}: vertex element {v!r} duplicates a limit element")
        seen.add(key)
    missing = limit_keys - seen
    if missing:
        out.append(f"cone {c.name}: {len(missing)} limit element(s) not reached")
    return out


# ---------------------------------------------------------------------------
# The fixed sketch for equational specifications
# ---------------------------------------------------------------------------

UNIT_ELEM = "*"

_POINTS = ("Type", "Term", "Cons", "Comp", "Selid", "2-Prod", "2-Cone",
           "Type^2", "2-Tuple", "Unit", "0-Prod", "0-Tuple")


def equational_sketch() -> LimitSketch:
    """The sketch whose finite set-valued realizations are the equational
    specifications (without their explicit equation sets, which have no
    counterpart in this fragment)."""
    sk = LimitSketch()
    for p in _POINTS:
        sk.add_point(p)
    arrows = [
        ("dom", "Term", "Type"), ("codom", "Term", "Type"),
        ("fst", "Cons", "Term"), ("snd", "Cons", "Term"),
        ("i", "Comp", "Cons"), ("comp", "Comp", "Term"),
        ("i0", "Selid", "Type"), ("selid", "Selid", "Term"),
        ("j", "2-Prod", "Type^2"), ("2-prod", "2-Prod", "2-Cone"),
        ("k", "2-Tuple", "2-Cone"), ("2-base'", "2-Tuple", "2-Prod"),
        ("2-tuple", "2-Tuple", "Term"),
        ("j0", "0-Prod", "Unit"), ("0-prod", "0-Prod", "Type"),
        ("k0", "0-Tuple", "Type"), ("0-base'", "0-Tuple", "0-Prod"),
        ("0-tuple", "0-Tuple", "Term"),
        ("b1", "Type^2", "Type"), ("b2", "Type^2", "Type"),
        ("c1", "2-Cone", "Term"), ("c2", "2-Cone", "Term"),
        ("2-base", "2-Cone", "Type^2"),
        ("0-base", "Type", "Unit"),
        ("id", "Type", "Type"),
    ]
    for (n, s, t) in arrows:
        sk.add_arrow(n, s, t)
    sk.potential_identities["Type"] = "id"
    sk.potential_cones["Cons"] = Cone(
        name="Cons", vertex="Cons",
        base_points=(("l", "Term"), ("m", "Type"), ("r", "Term")),
        base_arrows=(("l", "m", "codom"), ("r", "m", "dom")),
        projections=(("l", "fst"), ("r", "snd")))
    sk.potential_cones["Type^2"] = Cone(
        name="Type^2", vertex="Type^2",
        base_points=(("l", "Type"), ("r", "Type")),
        projections=(("l", "b1"), ("r", "b2")))
    sk.potential_cones["2-Cone"] = Cone(
        name="2-Cone", vertex="2-Cone",
        base_points=(("l", "Term"), ("m", "Type"), ("r", "Term")),
        base_arrows=(("l", "m", "dom"), ("r", "m", "dom")),
        projections=(("l", "c1"), ("r", "c2")))
    sk.potential_cones["Unit"] = Cone(name="Unit", vertex="Unit", base_points=())
    sk.mono_marks = {"i", "i0", "j", "j0", "k", "k0"}
    sk.arrow_equalities = [
        # an identity term goes from its type to itself
        (("selid", "dom"), ("i0",)),
        (("selid", "codom"), ("i0",)),
        # a composite term runs from the dom of the first to the cod of the second
        (("comp", "dom"), ("i", "fst", "dom")),
        (("comp", "codom"), ("i", "snd", "codom")),
        # the base of a co-initial pair is the pair of codomains
        (("2-base", "b1"), ("c1", "codom")),
        (("2-base", "b2"), ("c2", "codom")),
        # the projection cone of a product sits over the product's pair
        (("2-prod", "2-base"), ("j",)),
        # a tuple's cone sits over the pair of the marked product
        (("k", "2-base"), ("2-base'", "j")),
        # a tuple term runs from the cone's dom to the product type
        (("2-tuple", "dom"), ("k", "c1", "dom")),
        (("2-tuple", "codom"), ("2-base'", "2-prod", "c1", "dom")),
        # a collapsing term runs from its type to the terminal type
        (("0-tuple", "dom"), ("k0",)),
        (("0-tuple", "codom"), ("0-base'", "0-prod")),
    ]
    return sk


# each kind of mark: the point of its marks, the mono to its site and the
# arrow to its result
_MARK_ARROWS = {
    RuleTag.IDENTITY: ("Selid", "i0", "selid"),
    RuleTag.COMPOSITION: ("Comp", "i", "comp"),
    RuleTag.BINARY_PRODUCT: ("2-Prod", "j", "2-prod"),
    RuleTag.BINARY_TUPLE: ("2-Tuple", "k", "2-tuple"),
    RuleTag.TERMINAL_TYPE: ("0-Prod", "j0", "0-prod"),
    RuleTag.COLLAPSING: ("0-Tuple", "k0", "0-tuple"),
}


def spec_to_realization(s: Specification) -> FiniteRealization:
    """Encode a valid specification as a realization of ``equational_sketch``.

    A mark is its site, or the unit element for the terminal type; its
    value is its term results, or its type result when it has none.
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
    r.point_sets = {"Type": types, "Term": terms, "Cons": cons, "2-Cone": cone2,
                    "Type^2": type2, "Unit": (UNIT_ELEM,)}
    fn = r.functions = {
        "dom": {t: s.terms[t].dom for t in terms},
        "codom": {t: s.terms[t].cod for t in terms},
        "fst": {p: p[0] for p in cons},
        "snd": {p: p[1] for p in cons},
        "b1": {p: p[0] for p in type2},
        "b2": {p: p[1] for p in type2},
        "c1": {p: p[0] for p in cone2},
        "c2": {p: p[1] for p in cone2},
        "2-base": {(f, g): (s.terms[f].cod, s.terms[g].cod) for (f, g) in cone2},
        "0-base": {x: UNIT_ELEM for x in types},
        "id": {x: x for x in types},
    }
    for tag, (point, mono, result) in _MARK_ARROWS.items():
        kind = MARK_KINDS[tag]
        rows = {}
        for args, results in sorted(kind.marks(s)):
            value = tuple(n for sort, n in zip(kind.results, results) if sort == TERM) or results
            site = args[0] if len(args) == 1 else args or UNIT_ELEM
            rows[site] = value[0] if len(value) == 1 else value
        r.point_sets[point] = tuple(rows)
        fn[mono] = {e: e for e in rows}
        fn[result] = rows
    # a tuple sits over the product mark at its cone's base, a collapsing over the terminal mark
    fn["2-base'"] = {e: fn["2-base"][c] for e, c in fn["k"].items()}
    fn["0-base'"] = {e: fn["0-base"][x] for e, x in fn["k0"].items()}
    return r


def realization_to_spec(r: FiniteRealization) -> Specification:
    """Decode a valid realization of ``equational_sketch`` back to a
    specification.  Elements are named by their string form, with
    deterministic disambiguation."""
    sk = equational_sketch()
    violations = check_realization(sk, r)
    if violations:
        raise InvalidRealization("; ".join(violations[:5]))
    names: Dict[Point, Dict[object, str]] = {}
    for point in ("Type", "Term"):
        named = names[point] = {}
        taken: Set[str] = set()
        for e in r.point_sets[point]:
            named[e] = n = fresh_name(str(e), taken)
            taken.add(n)

    def decode(point: Point, e) -> tuple:
        """The names an element stands for: a type or a term its own, an
        element of a cone's vertex those of its projections in turn."""
        if point in names:
            return (names[point][e],)
        return sum((decode(sk.arrows[a].tgt, r.apply(a, e))
                    for _n, a in sk.potential_cones[point].projections), ())

    tname = names["Type"]
    s = Specification(types=set(tname.values()))
    for e in r.point_sets["Term"]:
        s.add_term(names["Term"][e], tname[r.apply("dom", e)], tname[r.apply("codom", e)])
    for tag, (point, mono, result) in _MARK_ARROWS.items():
        kind = MARK_KINDS[tag]
        for e in r.point_sets[point]:
            results = decode(sk.arrows[result].tgt, r.apply(result, e))
            if len(results) < len(kind.results):
                # the type a product makes is its projections' dom
                results = (s.terms[results[0]].dom,) + results
            kind.set(s, decode(sk.arrows[mono].tgt, r.apply(mono, e)), results)
    return s
