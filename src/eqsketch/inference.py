"""The logic engine: inference rules as fractions, rule application as
pushout, bounded saturation, congruence-closure term equality, and
entailment checking.

A rule is a fraction: an inclusion of the generic hypothesis figure into
its generic extension (the denominator, an entailment) together with a
selection of the conclusion inside the extension (the numerator).
Applying a rule to a matched occurrence in a specification is a pushout
along the denominator.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .core import (MARK_KINDS, TERM, TYPE, RuleTag, Specification, SpecMorphism,
                   TermName, TypeName, _UnionFind, compose, eqpair, identity_morphism,
                   pushout, spec_equal, validate, validate_morphism)
from . import models
from .errors import BudgetExceeded, NoMatch, NotParallel, SearchSpaceTooLarge
from .parameterize import (_make_marks, ensure_collapse, ensure_comp,
                           ensure_identity, ensure_terminal, ensure_tuple)
from .yoneda import ElementaryPoint, elementary


class TriState(Enum):
    EQUAL = "equal"
    DISTINCT_AT_BOUND = "distinct-at-bound"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    state: TriState
    countermodel: Optional[object] = None  # a models.FiniteModel when distinct

    def __bool__(self) -> bool:
        return self.state is TriState.EQUAL


STRUCTURAL_RULES = tuple(RuleTag)

# hypothesis figure, extension figure, conclusion figure, conclusion selection
_RULE_DATA = {
    RuleTag.COMPOSITION: (ElementaryPoint.CONS, ElementaryPoint.COMP,
                          ElementaryPoint.TERM,
                          ({"X": "X", "Y": "Z"}, {"f": "gf"})),
    RuleTag.IDENTITY: (ElementaryPoint.TYPE, ElementaryPoint.SELID,
                       ElementaryPoint.TERM,
                       ({"X": "X", "Y": "X"}, {"f": "id_X"})),
    RuleTag.BINARY_PRODUCT: (ElementaryPoint.TYPE2, ElementaryPoint.PROD2,
                             ElementaryPoint.CONE2,
                             ({"X": "P", "Y1": "Y1", "Y2": "Y2"},
                              {"f": "p1", "g": "p2"})),
    RuleTag.BINARY_TUPLE: (ElementaryPoint.CONE2, ElementaryPoint.TUPLE2,
                           ElementaryPoint.TERM,
                           ({"X": "X", "Y": "P"}, {"f": "t"})),
    RuleTag.TERMINAL_TYPE: (ElementaryPoint.UNIT, ElementaryPoint.PROD0,
                            ElementaryPoint.TYPE, ({"X": "U"}, {})),
    RuleTag.COLLAPSING: (ElementaryPoint.TYPE, ElementaryPoint.TUPLE0,
                         ElementaryPoint.TERM,
                         ({"X": "X", "Y": "U"}, {"f": "tu_X"})),
}


@dataclass
class Fraction:
    """A cospan: numerator into a common extension, denominator an
    entailment from the other endpoint into the same extension."""
    numerator: SpecMorphism    # S -> S1'
    denominator: SpecMorphism  # S1 -> S1'
    denominator_is_entailment: bool = True

    @property
    def source(self) -> Specification:
        return self.numerator.source

    @property
    def dest(self) -> Specification:
        return self.denominator.source


def identity_fraction(s: Specification) -> Fraction:
    i = identity_morphism(s)
    return Fraction(i, i)


@dataclass
class InferenceRule:
    tag: RuleTag
    hypothesis: Specification
    extension: Specification
    inclusion: SpecMorphism   # hypothesis -> extension (the denominator)
    conclusion: Specification
    selection: SpecMorphism   # conclusion -> extension (the numerator)

    def fraction(self) -> Fraction:
        return Fraction(self.selection, self.inclusion)


def rule(tag: RuleTag) -> InferenceRule:
    """One of the six structural rules as a fraction of generic figures."""
    hyp_pt, ext_pt, con_pt, (sel_t, sel_m) = _RULE_DATA[tag]
    hyp = elementary(hyp_pt)
    ext = elementary(ext_pt)
    con = elementary(con_pt)
    incl = SpecMorphism(hyp, ext, {x: x for x in hyp.types},
                        {t: t for t in hyp.terms})
    sel = SpecMorphism(con, ext, dict(sel_t), dict(sel_m))
    return InferenceRule(tag, hyp, ext, incl, con, sel)


def apply_rule(r: InferenceRule, s: Specification,
               match: SpecMorphism) -> Tuple[Specification, SpecMorphism]:
    """Pushout of the rule's denominator along a match of its hypothesis.

    The returned morphism s -> s' is an entailment by construction."""
    if not spec_equal(match.source, r.hypothesis) or not spec_equal(match.target, s):
        raise NoMatch("match must go from the rule's hypothesis into the specification")
    errs = validate_morphism(match)
    if errs:
        raise NoMatch("; ".join(errs))
    _out, _in1, in2 = pushout(r.inclusion, match)
    return _out, in2


def match_morphism(r: InferenceRule, s: Specification,
                   type_map: Dict[str, str], term_map: Dict[str, str]) -> SpecMorphism:
    return SpecMorphism(r.hypothesis, s, type_map, term_map)


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

@dataclass
class TraceStep:
    tag: RuleTag
    match: Dict[str, str]
    generated: Tuple[str, ...]

    def line(self) -> str:
        binds = " ".join(f"{k}={v}" for k, v in sorted(self.match.items()))
        gen = " ".join(self.generated)
        return f"{self.tag.value} [{binds}] -> {gen}"


@dataclass
class Saturation:
    spec: Specification
    embedding: SpecMorphism
    trace: List[TraceStep]
    depth_of: Dict[TermName, int]


def saturate(s: Specification, depth: int, cap: int = 4000) -> Saturation:
    """Apply the structural rules to fixpoint, keeping composites and
    tuples of structural depth <= depth.

    New products are only formed for pairs that already carry a product
    mark; free product formation would generate types without bound and
    adds nothing to term equality over the declared signature.

    Each round visits the pairs of its sorted snapshot of terms in
    lexicographic order, which fixes the names and the trace.  Whether a
    pair yields a term depends only on its two terms and the marks, so a
    pair whose terms were both in an earlier round's snapshot is skipped.

    Every pair of a round that is not marked yet makes one new term.  So
    a round whose pairs, less all the marks of their kind already present,
    cannot fit the cap is refused before it is built, with the
    ``BudgetExceeded`` that building it would raise.
    """
    return next(_levels(s, (depth,), cap, traced=True))


def _levels(s: Specification, depths: Iterable[int], cap: int,
            traced: bool = False) -> Iterator[Saturation]:
    """One saturation of a copy of s, grown in place and yielded closed at
    each ascending depth in turn: grown from the depth below, each least
    fixpoint is ``saturate``'s up to names and overflows the cap as it would.
    The trace is kept only when ``traced``."""
    errs = validate(s)
    if errs:
        raise ValueError("saturate requires a valid specification: " + errs[0])
    out = s.copy()
    sat = Saturation(out, SpecMorphism(s, out, {x: x for x in s.types}, {t: t for t in s.terms}),
                     [], {t: 0 for t in out.terms})
    trace, depth_of = sat.trace, sat.depth_of

    def record(tag: RuleTag, n: TermName, depth: int, *binds: str) -> None:
        """Note the term n that the rule made from a type X or terms f, g."""
        depth_of[n] = depth
        if traced:
            trace.append(TraceStep(tag, dict(zip(("X",) if len(binds) == 1 else ("f", "g"),
                                                 binds)), (n,)))
        if len(out.terms) > cap:
            raise BudgetExceeded(f"term universe exceeded {cap}")

    if out.terminal is None:
        u = ensure_terminal(out)
        if traced:
            trace.append(TraceStep(RuleTag.TERMINAL_TYPE, {}, (u,)))
    scanned: Set[TermName] = set()
    for depth in depths:
        changed = True
        while changed:
            changed = False
            if len(out.terms) > cap:
                raise BudgetExceeded(f"term universe exceeded {cap}")
            for x in sorted(out.types):
                if x not in out.identities:
                    record(RuleTag.IDENTITY, ensure_identity(out, x), 0, x)
                    changed = True
                if x not in out.collapsings:
                    record(RuleTag.COLLAPSING, ensure_collapse(out, x), 0, x)
                    changed = True
            # only terms below the depth bound take part in a pair
            snapshot = sorted(t for t in out.terms if depth_of[t] < depth)
            by_dom: Dict[str, List[TermName]] = {}
            new_by_dom: Dict[str, List[TermName]] = {}
            for t in snapshot:
                by_dom.setdefault(out.terms[t].dom, []).append(t)
                if t not in scanned:
                    new_by_dom.setdefault(out.terms[t].dom, []).append(t)
            partners = [(f, by_dom if f not in scanned else new_by_dom) for f in snapshot]
            scanned.update(snapshot)
            # each loop below makes a term for each of its unmarked pairs, of
            # which a round has at most len(snapshot) ** 2: a loop that cannot
            # fit the cap raises before it builds any of them
            most_pairs = len(snapshot) ** 2
            if most_pairs > cap - len(out.terms) and (
                    sum(len(index.get(out.terms[f].cod, ())) for f, index in partners)
                    - len(out.compositions) > cap - len(out.terms)):
                raise BudgetExceeded(f"term universe exceeded {cap}")
            for f, index in partners:
                for g in index.get(out.terms[f].cod, ()):
                    if (f, g) not in out.compositions:
                        record(RuleTag.COMPOSITION, ensure_comp(out, f, g),
                               max(depth_of[f], depth_of[g]) + 1, f, g)
                        changed = True
            if most_pairs > cap - len(out.terms) and (
                    _tuple_pairs(out, by_dom, new_by_dom) - len(out.tuples) > cap - len(out.terms)):
                raise BudgetExceeded(f"term universe exceeded {cap}")
            for f, index in partners:
                cod_f = out.terms[f].cod
                for g in index.get(out.terms[f].dom, ()):
                    key = (cod_f, out.terms[g].cod)
                    if key in out.products and (f, g) not in out.tuples:
                        record(RuleTag.BINARY_TUPLE, ensure_tuple(out, f, g),
                               max(depth_of[f], depth_of[g]) + 1, f, g)
                        changed = True
        yield sat


def _tuple_pairs(s: Specification, by_dom: Dict[str, List[TermName]],
                 new_by_dom: Dict[str, List[TermName]]) -> int:
    """The pairs of a round of ``saturate``'s tuple loop: an old f pairs
    with each new g of its domain, a new f with each g, and the pair
    counts when the codomains carry a product mark."""
    if not s.products:
        return 0
    total = 0
    for x, every in by_dom.items():
        n_all = Counter(s.terms[t].cod for t in every)
        n_new = Counter(s.terms[t].cod for t in new_by_dom.get(x, ()))
        total += sum((n_all[y1] - n_new[y1]) * n_new[y2] + n_new[y1] * n_all[y2]
                     for y1, y2 in s.products)
    return total


# ---------------------------------------------------------------------------
# Congruence closure
# ---------------------------------------------------------------------------

def congruence_classes(s: Specification) -> _UnionFind:
    """Union-find closing the spec's equations under the laws of a
    category with chosen finite products, over the declared universe.

    Each root is the lexicographically least member of its class.  Every
    round reads the roots once and builds class-level tables of the
    composition and tuple marks; two marks under one key are the
    congruence rule, and the other laws are lookups in those tables.
    Unions made during a round are seen by the next one, and a round
    without a union ends the closure.
    """
    for uf in _closure_rounds(s):
        pass
    return uf


def _closure_rounds(s: Specification) -> Iterator[_UnionFind]:
    """``congruence_classes``' one union-find, yielded once its unions of
    the equations and of the maps into the terminal type are made, and
    again after each round; the last yield is the closure.

    A round reads only its snapshot of the roots, never the live
    union-find, so it collects the pairs of classes that its laws join,
    skips those already one class in the snapshot, and makes the unions
    at its end; the partition it yields is that of unions made at once."""
    uf = _UnionFind()
    for t in s.terms:
        uf.find(t)
    for (t1, t2) in s.equations:
        uf.union(t1, t2)
    # all parallel maps into the terminal type agree; types never change
    if s.terminal is not None:
        into_unit: Dict[str, str] = {}
        for t in s.terms.values():
            if t.cod == s.terminal:
                uf.union(into_unit.setdefault(t.dom, t.name), t.name)
    products = s.products
    if products:
        prod_of = {p: key for key, (p, _1, _2) in products.items()}
        # the product of each tuple's codomain, and each map into a product
        tuple_sites = [(f, g, t, (s.terms[f].cod, s.terms[g].cod))
                       for (f, g), t in s.tuples.items()]
        tuple_sites = [site for site in tuple_sites if site[3] in products]
        into_product = [(h.name, prod_of[h.cod]) for h in s.terms.values() if h.cod in prod_of]
    yield uf
    parent, find = uf.parent, uf.find
    changed = True
    while changed:
        # a term whose parent is a root needs no find
        root: Dict[str, str] = {}
        for t in s.terms:
            p = parent[t]
            root[t] = p if parent[p] == p else find(t)
        pairs: List[Tuple[str, str]] = []   # roots that the round joins

        def table(marks: Dict[Tuple[str, str], str]) -> Dict[Tuple[str, str], str]:
            """(class of f, class of g) -> class of the mark; a second mark
            under the same key is congruent to the first."""
            out: Dict[Tuple[str, str], str] = {}
            for (f, g), c in marks.items():
                key, rc = (root[f], root[g]), root[c]
                r = out.setdefault(key, rc)
                if r != rc:
                    pairs.append((r, rc))
            return out

        comp = table(s.compositions)
        tup = table(s.tuples)
        id_classes = {root[i] for i in s.identities.values()}
        by_first: Dict[str, List[Tuple[str, str]]] = {}
        for (f, g), c in comp.items():
            by_first.setdefault(f, []).append((g, c))
            # identity laws
            if g in id_classes and c != f:
                pairs.append((c, f))
            if f in id_classes and c != g:
                pairs.append((c, g))
        # associativity: (h.g).f = h.(g.f)
        for (f, g), gf in comp.items():
            for h, r1 in by_first.get(gf, ()):
                r2 = comp.get((f, comp.get((g, h))))
                if r2 is not None and r2 != r1:
                    pairs.append((r1, r2))
        if products:
            proj = {key: (root[p1], root[p2]) for key, (_p, p1, p2) in products.items()}
            # projections of a tuple recover the components, both of them
            # even when the two projections share a class
            for f, g, t, key in tuple_sites:
                rt, (q1, q2) = root[t], proj[key]
                c, rf = comp.get((rt, q1)), root[f]
                if c is not None and c != rf:
                    pairs.append((c, rf))
                c, rg = comp.get((rt, q2)), root[g]
                if c is not None and c != rg:
                    pairs.append((c, rg))
            # a map into a product is the tuple of its projections
            for h, key in into_product:
                rh, (q1, q2) = root[h], proj[key]
                t = tup.get((comp.get((rh, q1)), comp.get((rh, q2))))
                if t is not None and t != rh:
                    pairs.append((t, rh))
        changed = False
        for a, b in pairs:
            if uf.union(a, b):
                changed = True
        yield uf


# the carrier bound (1..MAX_CARRIER per base type) of every countermodel
# search, the free-table cap of each carrier choice, and the term universe
# cap of each saturation level in terms_equal
MAX_CARRIER = 2
COUNTERMODEL_CAP = 200000
SAT_CAP = 800


def terms_equal(s: Specification, t1: TermName, t2: TermName, depth: int) -> Verdict:
    """Decide equality of two parallel terms in the presented theory:
    congruence closure on s saturated to level 0, then a search for a
    finite model that separates them, then closure on the same term
    universe grown from level 0 level by level up to the depth, a level
    over ``SAT_CAP`` ending the proof search.

    A pair that a model separates is proved at no level (``_decide``), so
    the search comes first and decides the same.  The countermodel is the
    ``canonical()``-least model separating the terms on the least carrier
    choice (sizes 1..MAX_CARRIER per base type, in ``itertools.product``
    order) that has one; the search stops at that model instead of
    listing all of them.  A choice whose free tables exceed
    ``COUNTERMODEL_CAP`` is skipped."""
    if t1 not in s.terms or t2 not in s.terms:
        raise NotParallel(f"unknown term {t1 if t1 not in s.terms else t2}")
    if not s.parallel(t1, t2):
        raise NotParallel(f"{t1} and {t2} are not parallel")
    if t1 == t2:
        return Verdict(TriState.EQUAL)
    return _decide((sat.spec for sat in _levels(s, range(depth + 1), SAT_CAP)),
                   [(t1, t2)],
                   lambda: _find_countermodel(s, t1, t2, MAX_CARRIER, COUNTERMODEL_CAP))


def _decide(walk: Iterator[Specification], pairs: List[tuple],
            refute: Callable[[], Optional[object]]) -> Verdict:
    """EQUAL when the congruence closure of the walk's first spec joins
    each pair; else DISTINCT_AT_BOUND with the countermodel that
    ``refute()`` returns; else EQUAL when the closure of a later spec of
    the walk joins them, and UNKNOWN when none does.

    Every law of the closure holds in each model, so a proof on any spec
    of the walk rules out every countermodel: the search comes before the
    specs that cost the most to grow, and decides as it would after them."""
    if _proved(itertools.islice(walk, 1), pairs):
        return Verdict(TriState.EQUAL)
    cm = refute()
    if cm is not None:
        return Verdict(TriState.DISTINCT_AT_BOUND, cm)
    if _proved(walk, pairs):
        return Verdict(TriState.EQUAL)
    return Verdict(TriState.UNKNOWN)


def _proved(walk: Iterator[Specification], pairs: List[tuple]) -> bool:
    """Does the congruence closure of some spec of the walk join each
    pair?  The walk stops at that spec, each closure at the first round
    that joins them all, and a level over its cap ends the walk."""
    try:
        return any(_joins(spec, pairs) for spec in walk)
    except BudgetExceeded:
        return False


def _joins(s: Specification, pairs: List[tuple]) -> bool:
    """Does a round of the congruence closure of s join each pair?"""
    return any(all(uf.find(a) == uf.find(b) for (a, b) in pairs) for uf in _closure_rounds(s))


def _carrier_choices(names: List[TypeName], max_carrier: int, least: int = 1):
    """Each map of ``names`` to carriers ``range(k)``, least <= k <= max_carrier,
    in the order of ``itertools.product``; one empty map when there are no
    names."""
    for sizes in itertools.product(range(least, max_carrier + 1), repeat=len(names)):
        yield {x: tuple(range(k)) for x, k in zip(names, sizes)}


def _find_countermodel(s: Specification, t1: TermName, t2: TermName,
                       max_carrier: int, cap: int):
    """The ``canonical()``-least model separating t1 and t2 on the first
    carrier choice that has one, or None.  A choice over ``cap`` is
    skipped, and so is one that gives their codomain a single element,
    where no model separates them.  Candidates are tested on their cells
    (``_least_model``): the terms are parallel, so they take equal values
    exactly where their rows hold equal ranks."""
    cod = s.terms[t1].cod
    for carriers in _carrier_choices(models.base_types(s), max_carrier):
        derived = models.derived_carriers(s, carriers)
        if len(derived[cod]) == 1:
            continue
        try:
            m = models._least_model(s, carriers, lambda row: row(t1) != row(t2), cap)
        except SearchSpaceTooLarge:
            continue
        if m is not None:
            return m
    return None


# ---------------------------------------------------------------------------
# Entailment checking
# ---------------------------------------------------------------------------

def is_entailment(tau: SpecMorphism, depth: int = 3) -> Verdict:
    """Is the extra content of the target derivable from the source?

    EQUAL means yes (tau is an entailment at this bound): every new type
    and term of the target is made from the source by the first mark that
    names it, each new mark makes the types it names, and every new
    equation and term result of a new mark holds in the congruence
    closure of the universe so made, or of one saturation of it grown
    level by level to depth min(depth, 2) within 4,000 terms.

    The universe is closed first.  When it proves nothing, the
    countermodel is the ``canonical()``-least model of the source, on the
    least carrier choice that has one, without exactly one extension
    along tau (``_semantic_entailment_check``); it gives
    DISTINCT_AT_BOUND.  Only without one are the levels grown, and a
    level that proves the obligations gives EQUAL; else the verdict is
    UNKNOWN.  Proved obligations give each source model exactly one
    extension, so no level proves what a countermodel refutes.
    """
    errs = validate_morphism(tau)
    if errs:
        raise ValueError("is_entailment requires a valid morphism: " + errs[0])
    s1, s = tau.source, tau.target
    if len(set(tau.type_map.values())) != len(tau.type_map) or \
            len(set(tau.term_map.values())) != len(tau.term_map):
        return Verdict(TriState.UNKNOWN)  # only extensions are analysed
    big = s1.copy()
    image = {TYPE: tau.type_map, TERM: tau.term_map}
    phi = {sort: {v: k for k, v in image[sort].items()} for sort in image}  # into big
    carried = {(tag, *kind.image(image, args, results))
               for tag, kind in MARK_KINDS.items() for args, results in kind.marks(s1)}
    new = [(tag, args, results)
           for tag, kind in MARK_KINDS.items() for args, results in kind.marks(s)
           if (tag, args, results) not in carried]
    # a new type or term is what the first new mark naming it makes
    made = _make_marks(new, phi, big)
    if len(phi[TYPE]) < len(s.types) or len(phi[TERM]) < len(s.terms):
        # a new type or term without a mark, or whose mark never becomes ready
        return _semantic_entailment_check(tau, MAX_CARRIER)
    # obligations: the equations of s that are not images of those of s1,
    # and the term results of its new marks; a type result that is not the
    # one made, as on a mark the source lacks, refutes a proof
    carried_eqs = {eqpair(tau.term_map[a], tau.term_map[b]) for (a, b) in s1.equations}
    obligations = [(phi[TERM][a], phi[TERM][b]) for (a, b) in s.equations
                   if (a, b) not in carried_eqs]
    for (tag, _args, results), out in zip(new, made):
        for sort, r, m in zip(MARK_KINDS[tag].results, results, out):
            if sort == TERM:
                obligations.append((m, phi[TERM][r]))
            elif m != phi[TYPE][r]:
                return _semantic_entailment_check(tau, MAX_CARRIER)
    levels = _levels(big, range(1, min(depth, 2) + 1), 4000)
    return _decide(itertools.chain([big], (sat.spec for sat in levels)), obligations,
                   lambda: _semantic_entailment_check(tau, MAX_CARRIER).countermodel)


def _semantic_entailment_check(tau: SpecMorphism, max_carrier: int) -> Verdict:
    """Look for a small model of the source without a unique extension
    along tau: the ``canonical()``-least one on the least carrier choice
    (sizes 1..max_carrier per base type) that has one refutes the
    entailment.  Extensions are counted over carriers 0..max_carrier for
    the target's new base types; a source model whose count exceeds the
    cap is passed over.

    Source models are tested on their cells (``_least_model``).  For each
    source carrier choice, the target search of each extra-carrier choice
    is built once, the first time a source model reaches it: the
    ``_model_cells`` of the target on the carriers transported along tau,
    with the image tables given empty as fixed tables.  So they count
    toward the cap as fixed tables do, and a carrier that the target
    forces otherwise gives no extension, decided before the cap.  Each
    source model's rows are the image tables' rows in each target search,
    which counts up to 2 - count extensions (``models._extensions``)."""
    s1, s = tau.source, tau.target
    image = {tau.type_map[x] for x in s1.types}
    choices = list(_carrier_choices([x for x in models.base_types(s) if x not in image],
                                    max_carrier, least=0))
    # the source table that gives each image table (the last one, as a
    # transport along tau into a dict keeps it)
    given = {tau.term_map[t]: t for t in s1.terms}

    for carriers in _carrier_choices(models.base_types(s1), max_carrier):
        derived = models.derived_carriers(s1, carriers)
        fixed = models.FiniteModel({tau.type_map[x]: derived[x] for x in s1.types},
                                   {u: {} for u in given})
        targets: list = []   # by extra choice: a search, None, or SearchSpaceTooLarge

        def not_unique(row) -> bool:
            count, rows = 0, {u: row(t) for u, t in given.items()}
            for i, extra in enumerate(choices):
                if i == len(targets):
                    try:
                        targets.append(models._model_cells(s, extra, fixed, COUNTERMODEL_CAP))
                    except SearchSpaceTooLarge:
                        targets.append(SearchSpaceTooLarge)
                if targets[i] is SearchSpaceTooLarge:
                    return False  # cannot conclude from this source model
                if targets[i] is not None:
                    count += models._extensions(targets[i], rows, 2 - count)
                if count > 1:
                    break
            return count != 1

        try:
            m = models._least_model(s1, carriers, not_unique, COUNTERMODEL_CAP)
        except SearchSpaceTooLarge:
            continue
        if m is not None:
            return Verdict(TriState.DISTINCT_AT_BOUND, m)
    return Verdict(TriState.UNKNOWN)


# ---------------------------------------------------------------------------
# Fraction composition
# ---------------------------------------------------------------------------

def compose_fractions(rho1: Fraction, rho2: Fraction) -> Fraction:
    """Cospan composition via pushout; the entailment mark propagates."""
    if not spec_equal(rho1.dest, rho2.source):
        raise ValueError("fractions are not composable")
    # pushout of rho1.denominator's target against rho2.numerator's target
    _p, q1, q2 = pushout(rho1.denominator, rho2.numerator)
    num = compose(rho1.numerator, q1)
    den = compose(rho2.denominator, q2)
    return Fraction(num, den,
                    rho1.denominator_is_entailment and rho2.denominator_is_entailment)
