"""Equational specifications and their morphisms.

A specification is a finite presentation of an equational theory: named
types, typed terms, and partial maps recording which terms play the role
of identities, composites, product projections, tuples and collapsings.
Each such "site" carries at most one mark.  Equations are unordered pairs
of parallel terms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Container, Dict, List, Optional, Set, Tuple

from .errors import SourceTargetMismatch

TypeName = str
TermName = str


@dataclass(frozen=True)
class Term:
    name: TermName
    dom: TypeName
    cod: TypeName


def eqpair(t1: TermName, t2: TermName) -> Tuple[TermName, TermName]:
    """Equations are unordered; store them sorted."""
    return (t1, t2) if t1 <= t2 else (t2, t1)


@dataclass
class Specification:
    """A finitely presented equational specification.

    The mapping fields are treated as immutable after construction;
    operations that change a specification return a fresh one.
    """

    types: Set[TypeName] = field(default_factory=set)
    terms: Dict[TermName, Term] = field(default_factory=dict)
    # type X -> name of the marked identity id_X : X -> X
    identities: Dict[TypeName, TermName] = field(default_factory=dict)
    # (f, g) with cod f = dom g  ->  name of the marked composite g.f
    compositions: Dict[Tuple[TermName, TermName], TermName] = field(default_factory=dict)
    # (Y1, Y2) -> (product type, first projection, second projection)
    products: Dict[Tuple[TypeName, TypeName], Tuple[TypeName, TermName, TermName]] = field(
        default_factory=dict)
    # (f1 : X -> Y1, f2 : X -> Y2) -> name of the marked tuple X -> Y1xY2
    tuples: Dict[Tuple[TermName, TermName], TermName] = field(default_factory=dict)
    terminal: Optional[TypeName] = None
    # type X -> name of the marked collapsing X -> terminal
    collapsings: Dict[TypeName, TermName] = field(default_factory=dict)
    # unordered pairs of parallel term names
    equations: Set[Tuple[TermName, TermName]] = field(default_factory=set)

    def copy(self) -> "Specification":
        return Specification(
            types=set(self.types),
            terms=dict(self.terms),
            identities=dict(self.identities),
            compositions=dict(self.compositions),
            products=dict(self.products),
            tuples=dict(self.tuples),
            terminal=self.terminal,
            collapsings=dict(self.collapsings),
            equations=set(self.equations),
        )

    def add_type(self, name: TypeName) -> None:
        self.types.add(name)

    def add_term(self, name: TermName, dom: TypeName, cod: TypeName) -> None:
        self.terms[name] = Term(name, dom, cod)

    def add_equation(self, t1: TermName, t2: TermName) -> None:
        if t1 != t2:
            self.equations.add(eqpair(t1, t2))

    def projection_names(self) -> Set[TermName]:
        out = set()
        for (_p, p1, p2) in self.products.values():
            out.add(p1)
            out.add(p2)
        return out

    def all_names(self) -> Set[str]:
        return set(self.types) | set(self.terms)

    def __contains__(self, name: str) -> bool:
        """Is ``name`` taken by a type or a term?  Lets a specification
        serve as the live ``taken`` set of ``fresh_name``."""
        return name in self.types or name in self.terms

    def parallel(self, t1: TermName, t2: TermName) -> bool:
        a, b = self.terms[t1], self.terms[t2]
        return a.dom == b.dom and a.cod == b.cod


def fresh_name(base: str, taken: Container[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}~{i}" in taken:
        i += 1
    return f"{base}~{i}"


def spec_equal(s1: Specification, s2: Specification) -> bool:
    """Exact structural equality, name for name."""
    return s1 == s2


def validate(s: Specification) -> List[str]:
    """Check the structural invariants; an empty list means valid."""
    out: List[str] = []
    for t in s.terms.values():
        if t.dom not in s.types:
            out.append(f"term {t.name}: unknown dom {t.dom}")
        if t.cod not in s.types:
            out.append(f"term {t.name}: unknown cod {t.cod}")

    def has_term(n: TermName, ctx: str) -> bool:
        if n not in s.terms:
            out.append(f"{ctx}: unknown term {n}")
            return False
        return True

    for x, i in s.identities.items():
        if x not in s.types:
            out.append(f"identity at unknown type {x}")
        elif has_term(i, f"identity at {x}"):
            t = s.terms[i]
            if t.dom != x or t.cod != x:
                out.append(f"identity {i} at {x} is not {x} -> {x}")
    for (f, g), c in s.compositions.items():
        if not (has_term(f, "composition") and has_term(g, "composition")
                and has_term(c, "composition")):
            continue
        tf, tg, tc = s.terms[f], s.terms[g], s.terms[c]
        if tf.cod != tg.dom:
            out.append(f"composition ({f},{g}): not consecutive")
        if tc.dom != tf.dom or tc.cod != tg.cod:
            out.append(f"composite {c} of ({f},{g}): wrong dom/cod")
    for (y1, y2), (p, p1, p2) in s.products.items():
        if y1 not in s.types or y2 not in s.types or p not in s.types:
            out.append(f"product ({y1},{y2}): unknown type")
            continue
        if has_term(p1, f"product ({y1},{y2})"):
            t1 = s.terms[p1]
            if t1.dom != p or t1.cod != y1:
                out.append(f"projection {p1} is not {p} -> {y1}")
        if has_term(p2, f"product ({y1},{y2})"):
            t2 = s.terms[p2]
            if t2.dom != p or t2.cod != y2:
                out.append(f"projection {p2} is not {p} -> {y2}")
    for (f1, f2), t in s.tuples.items():
        if not (has_term(f1, "tuple") and has_term(f2, "tuple") and has_term(t, "tuple")):
            continue
        a, b, tt = s.terms[f1], s.terms[f2], s.terms[t]
        if a.dom != b.dom:
            out.append(f"tuple ({f1},{f2}): components not co-initial")
        key = (a.cod, b.cod)
        if key not in s.products:
            out.append(f"tuple ({f1},{f2}): no product marked for {key}")
        else:
            p = s.products[key][0]
            if tt.dom != a.dom or tt.cod != p:
                out.append(f"tuple {t} of ({f1},{f2}): wrong dom/cod")
    if s.terminal is not None and s.terminal not in s.types:
        out.append(f"terminal {s.terminal} is not a type")
    for x, c in s.collapsings.items():
        if s.terminal is None:
            out.append(f"collapsing at {x} without a terminal type")
            continue
        if x not in s.types:
            out.append(f"collapsing at unknown type {x}")
        elif has_term(c, f"collapsing at {x}"):
            t = s.terms[c]
            if t.dom != x or t.cod != s.terminal:
                out.append(f"collapsing {c} is not {x} -> {s.terminal}")
    for (t1, t2) in s.equations:
        if t1 not in s.terms or t2 not in s.terms:
            out.append(f"equation ({t1},{t2}): unknown term")
        elif not s.parallel(t1, t2):
            out.append(f"equation ({t1},{t2}): terms not parallel")
    return out


@dataclass
class SpecMorphism:
    source: Specification
    target: Specification
    type_map: Dict[TypeName, TypeName]
    term_map: Dict[TermName, TermName]


def identity_morphism(s: Specification) -> SpecMorphism:
    return SpecMorphism(s, s, {x: x for x in s.types}, {t: t for t in s.terms})


def validate_morphism(m: SpecMorphism) -> List[str]:
    """Check graph-morphism, feature-preservation and equation-preservation."""
    out: List[str] = []
    s, t = m.source, m.target
    for x in s.types:
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
    for (t1, t2) in s.equations:
        a, b = m.term_map[t1], m.term_map[t2]
        if a != b and eqpair(a, b) not in t.equations:
            out.append(f"equation ({t1},{t2}) not preserved")
    return out


def compose(f: SpecMorphism, g: SpecMorphism) -> SpecMorphism:
    """Componentwise composite g.f (first f, then g)."""
    if not spec_equal(f.target, g.source):
        raise SourceTargetMismatch("target of first morphism differs from source of second")
    return SpecMorphism(
        f.source, g.target,
        {x: g.type_map[y] for x, y in f.type_map.items()},
        {t: g.term_map[u] for t, u in f.term_map.items()},
    )


# ---------------------------------------------------------------------------
# Pushouts
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            return x
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # deterministic representative: smaller tagged id wins
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def classes(self, items):
        out: Dict[object, List[object]] = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return out


def pushout(f: SpecMorphism, g: SpecMorphism) -> Tuple[Specification, SpecMorphism, SpecMorphism]:
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


def coproduct(s1: Specification, s2: Specification):
    """Disjoint union: pushout over the empty specification."""
    empty = Specification()
    f = SpecMorphism(empty, s1, {}, {})
    g = SpecMorphism(empty, s2, {}, {})
    return pushout(f, g)


def pushout_universal_check(f: SpecMorphism, g: SpecMorphism,
                            c1: SpecMorphism, c2: SpecMorphism) -> bool:
    """Check the universal property of pushout(f, g) against one cocone.

    c1: S1 -> T and c2: S2 -> T must agree on the span; the mediating
    morphism out of the pushout is then forced pointwise, and the check
    is that it is well defined and a valid morphism."""
    for x in f.source.types:
        if c1.type_map[f.type_map[x]] != c2.type_map[g.type_map[x]]:
            return False
    for t in f.source.terms:
        if c1.term_map[f.term_map[t]] != c2.term_map[g.term_map[t]]:
            return False
    out, in1, in2 = pushout(f, g)
    med_t: Dict[TypeName, TypeName] = {}
    med_m: Dict[TermName, TermName] = {}
    for src, inj, cone in ((f.target, in1, c1), (g.target, in2, c2)):
        for x in src.types:
            want = cone.type_map[x]
            if med_t.setdefault(inj.type_map[x], want) != want:
                return False
        for t in src.terms:
            want = cone.term_map[t]
            if med_m.setdefault(inj.term_map[t], want) != want:
                return False
    med = SpecMorphism(out, c1.target, med_t, med_m)
    return not validate_morphism(med)


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

@dataclass
class IsoResult:
    iso: Optional[SpecMorphism]
    definitive: bool  # True when absence of an iso was established

    def __bool__(self) -> bool:
        return self.iso is not None


def iso_search(s1: Specification, s2: Specification, budget: int = 200000,
               pin_types: Optional[Dict[TypeName, TypeName]] = None) -> IsoResult:
    """Backtracking search for an isomorphism of specifications.

    Returns the witnessing morphism when found.  When the budget runs out
    before the search space is exhausted the absence is reported as not
    definitive.  `pin_types` forces part of the type bijection.
    """
    pin_types = pin_types or {}
    if (len(s1.types) != len(s2.types) or len(s1.terms) != len(s2.terms)
            or len(s1.identities) != len(s2.identities)
            or len(s1.compositions) != len(s2.compositions)
            or len(s1.products) != len(s2.products)
            or len(s1.tuples) != len(s2.tuples)
            or (s1.terminal is None) != (s2.terminal is None)
            or len(s1.collapsings) != len(s2.collapsings)
            or len(s1.equations) != len(s2.equations)):
        return IsoResult(None, True)
    types1 = sorted(s1.types)
    nodes = 0
    for perm in itertools.permutations(sorted(s2.types)):
        tmap = dict(zip(types1, perm))
        nodes += max(1, len(types1))
        if nodes > budget:
            return IsoResult(None, False)
        if any(tmap.get(a) != b for a, b in pin_types.items()):
            continue
        if s1.terminal is not None and tmap[s1.terminal] != s2.terminal:
            continue
        for mmap in _all_term_bijections(s1, s2, tmap):
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


def _all_term_bijections(s1: Specification, s2: Specification, tmap):
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
