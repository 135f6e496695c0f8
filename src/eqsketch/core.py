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


class Term(NamedTuple):
    """A typed term, immutable.  It is a tuple of its three fields, so it
    equals the plain tuple (name, dom, cod) and orders as that tuple does."""
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
    its field ``store`` maps each site, one argument or a pair, to its
    results, a lone argument or result standing bare; the terminal mark,
    with no arguments, is its lone result in the field ``terminal``, or
    None there."""
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

    def copy(self, s: Specification, out: Specification, maps: Dict[str, Dict[str, str]]) -> None:
        """Set in out every mark of this kind in s, its names renamed by a
        map of each sort."""
        held = getattr(s, self.store)
        if not isinstance(held, dict):
            if held is not None:
                self.set(out, (), (maps[self.results[0]][held],))
            return
        a, r0 = maps[self.args], maps[self.results[0]]
        store = getattr(out, self.store)
        for site, r in held.items():
            store[(a[site[0]], a[site[1]]) if isinstance(site, tuple) else a[site]] = (
                tuple(maps[sort][x] for sort, x in zip(self.results, r))
                if isinstance(r, tuple) else r0[r])

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


def _clash_sites(kind: MarkKind, s: Specification, side: int,
                 classes: Dict[str, object]) -> List[Tuple[tuple, tuple]]:
    """The marks of one kind that side ``side`` of a pushout holds and that
    can clash: the terminal mark, and each mark with an argument among the
    side's glued names, which ``classes`` maps to their classes.  Each is
    given as (its site, the kind's store and the class of each argument,
    an unglued name being its own (side, name) class; its results)."""
    held = getattr(s, kind.store)
    if not isinstance(held, dict):
        return [] if held is None else [((kind.store,), (held,))]
    out = []
    for site, r in held.items():
        if isinstance(site, tuple):
            x, y = site
            if x in classes or y in classes:
                out.append(((kind.store, classes.get(x) or (side, x), classes.get(y) or (side, y)),
                            r if isinstance(r, tuple) else (r,)))
        elif site in classes:
            out.append(((kind.store, classes[site]), (r,)))
    return out


def _fresh_classes(name: Dict[object, str], shared: Set[str],
                   glued: Tuple[Dict[str, object], Dict[str, object]],
                   ns1: Iterable[str], ns2: Iterable[str]) -> None:
    """Rename in ``name`` the classes of one sort whose least name another
    class shares, or extends such a name with "~": each is made fresh by
    ``fresh_name`` in the order of ``pushout``'s docstring.

    ``name`` maps each glued class, keyed by its root, to its least name.
    A name that no side glues is a class of its own, keyed by its
    (side, name) node, and enters ``name`` here.  ``glued`` maps each
    side's glued names to their roots, and ``ns1`` and ``ns2`` are the
    sides' names of the sort.
    """
    # each class's members, in the order in which the sides' names meet it
    classes: Dict[object, List[str]] = {}
    for side, ns in enumerate((ns1, ns2)):
        for n in ns:
            classes.setdefault(glued[side].get(n, (side, n)), []).append(n)
    prefixes = tuple(m + "~" for m in shared)
    renamable = [(c, sorted(ms)) for c, ms in classes.items()
                 if min(ms) in shared or min(ms).startswith(prefixes)]
    taken: Set[str] = set()
    # by their sorted member names; the stable sort keeps ties in the order met
    for c, members in sorted(renamable, key=lambda cm: cm[1]):
        name[c] = nm = fresh_name(members[0], taken)
        taken.add(nm)


def pushout(f: SpecMorphism, g: SpecMorphism) -> Tuple[Specification, SpecMorphism, SpecMorphism]:
    """Pushout of the span  S1 <- S0 -> S2  in the category of specifications.

    Merged sites that would receive two marks have their result terms
    identified (the quotient is pushed further), so the "at most one mark
    per site" invariant is kept and the universal property holds.

    Each class of names is named by its least member, made fresh by
    ``fresh_name`` in the order of the classes sorted by their sorted
    member names; classes that tie keep the order in which side 1's names
    and then side 2's, each in insertion order, first meet them.

    The work grows with the part that S0 glues, plus one renamed copy of
    each side.  Only the names that S0 glues or a clash merges enter the
    union-find.  A merge pass visits only the terminal marks and the marks
    with a glued argument: a side holds one mark per site, so no other
    mark can clash.  ``fresh_name`` can rename only a class whose least
    name another class shares, or that extends such a name with "~", so
    the ordered pass runs over those classes alone.  The copy renames each
    side's names, marks and equations, and reuses every term whose name,
    dom and cod stay.
    """
    s0 = f.source
    if not spec_equal(s0, g.source):
        raise SourceTargetMismatch("pushout legs must share their source")
    sides = (f.target, g.target)
    # the union-find of the glued (side, name) nodes, by sort
    uf = {TYPE: _UnionFind(), TERM: _UnionFind()}
    for x in s0.types:
        uf[TYPE].union((0, f.type_map[x]), (1, g.type_map[x]))
    for t in s0.terms:
        uf[TERM].union((0, f.term_map[t]), (1, g.term_map[t]))
    # each side's kinds of mark that it holds
    kinds = [[kind for kind in MARK_KINDS.values() if getattr(sp, kind.store)] for sp in sides]

    # merge marks at identified sites until stable: each result is
    # identified with the same result of the first mark seen at its site
    changed = True
    while changed:
        changed = False
        first: Dict[object, tuple] = {}
        # each side's glued names and their classes, by sort
        roots = ({TYPE: {}, TERM: {}}, {TYPE: {}, TERM: {}})
        for sort, u in uf.items():
            for node in u.parent:
                roots[node[0]][sort][node[1]] = u.find(node)
        for side, sp in enumerate(sides):
            for kind in kinds[side]:
                for site, results in _clash_sites(kind, sp, side, roots[side][kind.args]):
                    mark = (side, results)
                    seen = first.setdefault(site, mark)
                    if seen is not mark:
                        for sort, a, b in zip(kind.results, seen[1], results):
                            if uf[sort].union((seen[0], a), (side, b)):
                                changed = True

    # name each class by its least member, and note each side's renamed
    # names, by sort; the roots of the last merge pass are the classes
    renamed = ({TYPE: {}, TERM: {}}, {TYPE: {}, TERM: {}})
    for sort, ns1, ns2 in ((TYPE, sides[0].types, sides[1].types),
                           (TERM, sides[0].terms.keys(), sides[1].terms.keys())):
        glued = (roots[0][sort], roots[1][sort])
        name: Dict[object, str] = {}
        for side_roots in glued:
            for n, c in side_roots.items():
                if c not in name or n < name[c]:
                    name[c] = n
        # the least names of two classes: a name that both sides hold in
        # two classes, each of which it is the least member of
        shared = set()
        for m in ns1 & ns2:
            c1, c2 = glued[0].get(m), glued[1].get(m)
            if (c1 is None or c1 != c2) and name.get(c1, m) == m == name.get(c2, m):
                shared.add(m)
        if shared:
            _fresh_classes(name, shared, glued, ns1, ns2)
        for side, side_roots in enumerate(glued):
            for n, c in side_roots.items():
                if name[c] != n:
                    renamed[side][sort][n] = name[c]
        for (side, n), nm in name.items():
            if n not in glued[side] and nm != n:
                renamed[side][sort][n] = nm

    # one copy of each side under its renaming
    out = Specification()
    maps = []
    for side, sp in enumerate(sides):
        rt, rm = renamed[side][TYPE], renamed[side][TERM]
        tmap = dict(zip(sp.types, sp.types))
        tmap.update(rt)
        mmap = dict(zip(sp.terms, sp.terms))
        mmap.update(rm)
        maps.append((tmap, mmap))
        out.types.update(tmap.values())
        for n, t in sp.terms.items():
            if n in rm or t.dom in rt or t.cod in rt:
                t = Term(mmap[n], tmap[t.dom], tmap[t.cod])
            out.terms[t.name] = t
        for (t1, t2) in sp.equations:
            out.add_equation(mmap[t1], mmap[t2])
        image = {TYPE: tmap, TERM: mmap}
        for kind in kinds[side]:
            kind.copy(sp, out, image)

    (t1, m1), (t2, m2) = maps
    return out, SpecMorphism(sides[0], out, t1, m1), SpecMorphism(sides[1], out, t2, m2)


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
