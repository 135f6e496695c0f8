"""Equational specifications and their morphisms.

A specification is a finite presentation of an equational theory: named
types, typed terms, and partial maps recording which terms play the role
of identities, composites, product projections, tuples and collapsings.
Each such "site" carries at most one mark.  Equations are unordered pairs
of parallel terms.

``MARK_KINDS``, keyed by the ``RuleTag`` of the structural rule that
concludes each of the six kinds of mark, is the one table of how a
specification stores its marks; the other code reads them through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Container, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

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

    def all_names(self) -> Set[str]:
        return set(self.types) | set(self.terms)

    def __contains__(self, name: str) -> bool:
        """Is ``name`` taken by a type or a term?  Lets a specification
        serve as the live ``taken`` set of ``fresh_name``."""
        return name in self.types or name in self.terms

    def parallel(self, t1: TermName, t2: TermName) -> bool:
        a, b = self.terms[t1], self.terms[t2]
        return a.dom == b.dom and a.cod == b.cod


# ---------------------------------------------------------------------------
# The six kinds of mark
# ---------------------------------------------------------------------------

class RuleTag(Enum):
    COMPOSITION = "composition"
    IDENTITY = "identity"
    BINARY_PRODUCT = "binary-product"
    BINARY_TUPLE = "binary-tuple"
    TERMINAL_TYPE = "terminal-type"
    COLLAPSING = "collapsing"


# the two sorts of a mark's arguments and results
TYPE, TERM = "type", "term"


class MarkKind(NamedTuple):
    """How a ``Specification`` stores the marks of one kind: the dict in
    its field ``store`` maps each site to its results, a lone argument or
    result standing bare; the terminal mark, with no arguments, is its
    lone result in the field ``terminal``, or None there."""
    name: str                  # as messages name the kind
    noun: str                  # as messages name a term that the kind makes
    store: str
    args: str                  # the sort of the arguments
    results: Tuple[str, ...]   # the sort of each result

    def at(self, args: tuple) -> str:
        """The site as messages give it: " at X", " (f,g)", or nothing."""
        return f" at {args[0]}" if len(args) == 1 else f" ({','.join(args)})" if args else ""

    def marks(self, s: Specification) -> List[Tuple[tuple, tuple]]:
        """Every mark of this kind in s, as (arguments, results)."""
        held = getattr(s, self.store)
        if not held:
            return []
        if not isinstance(held, dict):
            return [((), (held,))]
        return [(site if isinstance(site, tuple) else (site,), r if isinstance(r, tuple) else (r,))
                for site, r in held.items()]

    def made(self, s: Specification, sort: str) -> List[str]:
        """The types or terms, as ``sort`` says, that the marks make."""
        held = getattr(s, self.store)
        if sort not in self.results or held is None:
            return []
        if not isinstance(held, dict):
            return [held]
        if self.results == (sort,):
            return list(held.values())
        return [r[i] for r in held.values() for i, of in enumerate(self.results) if of == sort]

    def get(self, s: Specification, site: tuple) -> Optional[tuple]:
        """The results of the mark at the site, or None."""
        held = getattr(s, self.store)
        r = held.get(_bare(site)) if isinstance(held, dict) else held
        return r if r is None or isinstance(r, tuple) else (r,)

    def set(self, s: Specification, site: tuple, results: tuple) -> None:
        if self.store == "terminal":
            s.terminal, = results
        else:
            getattr(s, self.store)[_bare(site)] = _bare(results)

    def image(self, maps: Dict[str, Dict[str, str]], args: tuple, results: tuple):
        """The site and results of a mark under a map of each sort."""
        return (tuple(maps[self.args][a] for a in args),
                tuple(maps[sort][r] for sort, r in zip(self.results, results)))


def _bare(t: tuple):
    return t[0] if len(t) == 1 else t


# in the order of validate_morphism's messages; a type or term that
# several marks make is made by the first of them (is_entailment)
MARK_KINDS: Dict[RuleTag, MarkKind] = {
    RuleTag.IDENTITY: MarkKind("identity", "identity", "identities", TYPE, (TERM,)),
    RuleTag.COMPOSITION: MarkKind("composition", "composite", "compositions", TERM, (TERM,)),
    RuleTag.BINARY_PRODUCT: MarkKind("product", "projection", "products", TYPE,
                                     (TYPE, TERM, TERM)),
    RuleTag.BINARY_TUPLE: MarkKind("tuple", "tuple", "tuples", TERM, (TERM,)),
    RuleTag.TERMINAL_TYPE: MarkKind("terminal", "terminal", "terminal", TYPE, (TYPE,)),
    RuleTag.COLLAPSING: MarkKind("collapsing", "collapsing", "collapsings", TYPE, (TERM,)),
}


def mark_results(s: Specification, sort: str,
                 tags: Iterable[RuleTag] = MARK_KINDS) -> Set[str]:
    """The types or terms, as ``sort`` says, that the marks of the given
    kinds make."""
    return {r for tag in tags for r in MARK_KINDS[tag].made(s, sort)}


# the kinds of mark on types, whose terms the decoration forces pure
TYPE_MARKS = tuple(tag for tag, kind in MARK_KINDS.items() if kind.args == TYPE)


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
    for (t1, t2) in sorted(s.equations):
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
    image = {TYPE: m.type_map, TERM: m.term_map}
    for kind in MARK_KINDS.values():
        for args, results in kind.marks(s):
            site, want = kind.image(image, args, results)
            if kind.get(t, site) != want:
                out.append(f"{kind.name} mark{kind.at(args)} not preserved")
    for (t1, t2) in sorted(s.equations):
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
    uf = {TYPE: _UnionFind(), TERM: _UnionFind()}
    for x in s0.types:
        uf[TYPE].union((1, f.type_map[x]), (2, g.type_map[x]))
    for t in s0.terms:
        uf[TERM].union((1, f.term_map[t]), (2, g.term_map[t]))

    # every mark of both sides, tagged once: (kind, its arguments and its
    # results with their sorts, each name tagged with its side)
    tagged = [(tag, kind, tuple((side, a) for a in args),
               tuple(zip(kind.results, ((side, r) for r in results))))
              for side, sp in sides.items() for tag, kind in MARK_KINDS.items()
              for args, results in kind.marks(sp)]
    # merge marks at identified sites until stable: each result is
    # identified with the same result of the first mark seen at its site
    changed = True
    while changed:
        changed = False
        first: Dict[object, tuple] = {}
        for tag, kind, args, results in tagged:
            seen = first.setdefault((tag, tuple(map(uf[kind.args].find, args))), results)
            if seen is not results:
                for (sort, a), (_sort, b) in zip(seen, results):
                    if uf[sort].union(a, b):
                        changed = True

    # name each class by its least member, made fresh; deterministic, as
    # the classes are sorted by their sorted member names
    named: Dict[str, Dict[Tuple[int, str], str]] = {TYPE: {}, TERM: {}}
    for sort, field in ((TYPE, "types"), (TERM, "terms")):
        members = [(side, n) for side, sp in sides.items() for n in getattr(sp, field)]
        taken: Set[str] = set()
        for vs in sorted(uf[sort].classes(members).values(),
                         key=lambda vs: sorted(n for _s, n in vs)):
            nm = fresh_name(min(n for _s, n in vs), taken)
            taken.add(nm)
            named[sort].update(dict.fromkeys(vs, nm))
    # each side's names in the pushout, by sort
    names = {side: {TYPE: {x: named[TYPE][side, x] for x in sp.types},
                    TERM: {t: named[TERM][side, t] for t in sp.terms}}
             for side, sp in sides.items()}

    out = Specification()
    for side, sp in sides.items():
        nt, nm = names[side][TYPE], names[side][TERM]
        for x in sp.types:
            out.add_type(nt[x])
        for t in sp.terms.values():
            out.add_term(nm[t.name], nt[t.dom], nt[t.cod])
        for (t1, t2) in sp.equations:
            out.add_equation(nm[t1], nm[t2])
    for _tag, kind, args, results in tagged:
        kind.set(out, tuple(named[kind.args][a] for a in args),
                 tuple(named[sort][r] for sort, r in results))

    in1 = SpecMorphism(sides[1], out, names[1][TYPE], names[1][TERM])
    in2 = SpecMorphism(sides[2], out, names[2][TYPE], names[2][TERM])
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


def iso_search(s1: Specification, s2: Specification, budget: int = 200000) -> IsoResult:
    """Search for an isomorphism by colour refinement and individualisation.

    The types and terms of both sides are coloured together, first by
    sort, then round by round by the colours of each relation they are
    in, by its key and their position: a term with its dom and cod, each
    mark, and each equation in both orders.  A class with more members
    on one side refutes.  Each node tries the bijection pairing each
    class's members in sorted order (its inverse then keeps marks and
    equations too, as the sides have as many of each kind), then gives
    the least s1 element of the smallest split class a colour of its own
    with each s2 member of that class in turn, one node of ``budget``
    each.  Past the budget the absence is reported as not definitive.
    """
    elems = [(side, sort, n) for side, s in enumerate((s1, s2))
             for sort, names in ((TYPE, s.types), (TERM, s.terms)) for n in sorted(names)]
    index = {e: i for i, e in enumerate(elems)}
    n1 = len(s1.types) + len(s1.terms)
    # each element's (relation key, its position, the relation's elements)
    incid: List[List[Tuple[int, int, Tuple[int, ...]]]] = [[] for _ in elems]
    for side, s in enumerate((s1, s2)):
        rels = [(0, ((TERM, t.name), (TYPE, t.dom), (TYPE, t.cod))) for t in s.terms.values()]
        for key, kind in enumerate(MARK_KINDS.values(), 1):
            rels += [(key, tuple((kind.args, a) for a in args) + tuple(zip(kind.results, results)))
                     for args, results in kind.marks(s)]
        rels += [(7, ((TERM, a), (TERM, b))) for pair in s.equations for a, b in (pair, pair[::-1])]
        for key, names in rels:
            ids = tuple(index[(side,) + name] for name in names)
            for pos, i in enumerate(ids):
                incid[i].append((key, pos, ids))

    def refine(colour: List[int]) -> Optional[List[int]]:
        """The stable refinement of a colouring, or None when it refutes."""
        classes = len(set(colour))
        while True:
            seen: Dict[tuple, int] = {}
            colour = [seen.setdefault((c, tuple(sorted((key, pos, tuple(colour[j] for j in ids))
                                                       for key, pos, ids in inc))), len(seen))
                      for c, inc in zip(colour, incid)]
            if len(seen) == classes:
                return colour if sorted(colour[:n1]) == sorted(colour[n1:]) else None
            classes = len(seen)

    colour = refine([int(sort == TERM) for _side, sort, _n in elems])
    # (a colouring, an element of s1, the s2 members of its class not yet tried)
    stack: List[Tuple[List[int], int, Iterator[int]]] = []
    nodes = 0
    while colour is not None:
        cells: Dict[int, Tuple[List[int], List[int]]] = {}
        for i, c in enumerate(colour):
            cells.setdefault(c, ([], []))[i >= n1].append(i)
        maps: Dict[str, Dict[str, str]] = {TYPE: {}, TERM: {}}
        for ones, twos in cells.values():
            for i, j in zip(ones, twos):
                maps[elems[i][1]][elems[i][2]] = elems[j][2]
        m = SpecMorphism(s1, s2, maps[TYPE], maps[TERM])
        if not validate_morphism(m):
            return IsoResult(m, True)
        split = [cell for cell in cells.values() if len(cell[0]) > 1]
        if split:
            ones, twos = min(split, key=lambda cell: (len(cell[0]), cell[0][0]))
            stack.append((colour, ones[0], iter(twos)))
        colour = None
        while colour is None and stack:
            at, x, ys = stack[-1]
            y = next(ys, None)
            if y is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                return IsoResult(None, False)
            mine = list(at)
            mine[x] = mine[y] = len(elems)
            colour = refine(mine)
    return IsoResult(None, True)
