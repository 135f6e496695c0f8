"""Finite set-valued models: checking, enumeration and homomorphism
search on one propagating backtracking core, parameter passing,
terminal models and the exact-parameterization report.

Chosen structure is cartesian: a marked product type carries the set of
ordered pairs of the factor carriers and the terminal type carries the
canonical one-element set ``((),)``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .core import TERM, TYPE, Specification, TermName, TypeName, mark_results
from .decorate import DecoratedSpecification, undecorate
from .errors import (IncomparableCarrier, InvalidAlpha, SearchSpaceTooLarge,
                     Unassigned)
from .parameterize import Parameterization, parameterize

UNIT_ELEMENT: Tuple = ()
DEFAULT_CANDIDATE_CAP = 10_000_000


@dataclass
class FiniteModel:
    carriers: Dict[TypeName, Tuple] = field(default_factory=dict)
    functions: Dict[TermName, Dict] = field(default_factory=dict)

    def apply(self, t: TermName, x):
        return self.functions[t][x]

    def canonical(self) -> Tuple:
        """Hashable, order-insensitive form used for comparisons and sorting."""
        cs = tuple(sorted((k, tuple(v)) for k, v in self.carriers.items()))
        fs = tuple(sorted((k, tuple(sorted(tab.items(), key=repr)))
                          for k, tab in self.functions.items()))
        return (cs, fs)


def check_model(s: Specification, m: FiniteModel) -> List[str]:
    """Empty iff m is a model of s with the chosen cartesian structure.

    Otherwise the failures: first the carriers of the product and
    terminal types and the entries of every table, then, only when
    those hold, the marks and the equations.  A type with no carrier or
    a term with no table raises ``Unassigned``.  This is
    ``_model_check``, which the model searches build once per search
    (twice with ``_unshared``)."""
    return _model_check(s, m.carriers)(m.functions)


def _model_check(s: Specification, carriers: Dict[TypeName, Sequence]):
    """The check of ``check_model`` on the given carriers, as a function
    of the tables.  The carrier checks run here, once; the function runs
    the table checks, so a search checks its models table by table only."""
    for x in s.types:
        if x not in carriers:
            raise Unassigned(f"type {x}")
    head: List[str] = []
    for (y1, y2), (p, _p1, _p2) in s.products.items():
        want = {(a, b) for a in carriers[y1] for b in carriers[y2]}
        if set(carriers[p]) != want:
            head.append(f"carrier of product type {p} is not the set of pairs")
    if s.terminal is not None and tuple(carriers[s.terminal]) != (UNIT_ELEMENT,):
        head.append(f"carrier of terminal {s.terminal} is not the canonical singleton")
    terms = s.terms
    elements = {t.cod: set(carriers[t.cod]) for t in terms.values()}
    equations = sorted(s.equations)

    def check(functions: Dict[TermName, Dict]) -> List[str]:
        for t in terms:
            if t not in functions:
                raise Unassigned(f"term {t}")
        out = list(head)
        for t in terms.values():
            tab, cod = functions[t.name], elements[t.cod]
            for x in carriers[t.dom]:
                if x not in tab:
                    out.append(f"term {t.name}: no value at {x!r}")
                elif tab[x] not in cod:
                    out.append(f"term {t.name}: value at {x!r} outside carrier of {t.cod}")
        if out:
            return out
        for x, i in s.identities.items():
            tab = functions[i]
            for v in carriers[x]:
                if tab[v] != v:
                    out.append(f"identity {i}: not the identity at {v!r}")
        for (f, g), c in s.compositions.items():
            tf, tg, tc = functions[f], functions[g], functions[c]
            for v in carriers[terms[f].dom]:
                if tc[v] != tg[tf[v]]:
                    out.append(f"composite {c} != {g} after {f} at {v!r}")
        for (p, p1, p2) in s.products.values():
            t1, t2 = functions[p1], functions[p2]
            for (a, b) in carriers[p]:
                if t1[(a, b)] != a or t2[(a, b)] != b:
                    out.append(f"projections of {p} are not coordinate projections")
                    break
        for (f, g), t in s.tuples.items():
            tf, tg, tt = functions[f], functions[g], functions[t]
            for v in carriers[terms[f].dom]:
                if tt[v] != (tf[v], tg[v]):
                    out.append(f"tuple {t} is not the pairing of {f},{g} at {v!r}")
        for x, c in s.collapsings.items():
            tab = functions[c]
            for v in carriers[x]:
                if tab[v] != UNIT_ELEMENT:
                    out.append(f"collapsing {c}: not constant at {v!r}")
        for (t1, t2) in equations:
            u1, u2 = functions[t1], functions[t2]
            for v in carriers[terms[t1].dom]:
                if u1[v] != u2[v]:
                    out.append(f"equation {t1} = {t2} fails at {v!r}")
                    break
        return out

    return check


def derived_carriers(s: Specification, base_carriers: Dict[TypeName, Sequence]) -> Dict[TypeName, Tuple]:
    """Carriers for all types: products and the terminal are forced."""
    carriers: Dict[TypeName, Tuple] = {x: tuple(v) for x, v in base_carriers.items()}
    if s.terminal is not None:
        carriers[s.terminal] = (UNIT_ELEMENT,)
    changed = True
    while changed:
        changed = False
        for (y1, y2), (p, _1, _2) in s.products.items():
            if p not in carriers and y1 in carriers and y2 in carriers:
                carriers[p] = tuple((a, b) for a in carriers[y1] for b in carriers[y2])
                changed = True
    missing = sorted(x for x in s.types if x not in carriers)
    if missing:
        raise Unassigned(f"no carrier for type(s) {', '.join(missing)}")
    return carriers


_COMP, _COMP_G, _PAIR, _EQ, _IMG = range(5)


class _Cells:
    """Table cells filled by propagation and undone through a trail.

    A cell holds the index of its value in a carrier, or -1 while unknown.
    A constraint instance is fired whenever a cell it watches is set, and
    firing sets every cell that its known cells determine, so an instance
    is checked as soon as its last cell is known.  This is the one
    backtracking core of ``enumerate_models`` and ``hom_search``.
    """

    def __init__(self):
        self.val: List[int] = []
        self.size: List[int] = []
        self.watch: Dict[int, list] = {}
        self.trail: List[int] = []

    def block(self, n: int, size: int) -> int:
        """n new unknown cells of ``size`` values each; their first index."""
        off = len(self.val)
        self.val += [-1] * n
        self.size += [size] * n
        return off

    def _on(self, cells, inst) -> None:
        for c in cells:
            self.watch.setdefault(c, []).append(inst)

    def compose(self, f: int, g: int, g_len: int, c: int, n: int) -> None:
        """c[v] = g[f[v]] for v < n, with f, g, c the first cells of
        three tables and g_len the length of g."""
        for v in range(n):
            self._on((f + v, c + v), (_COMP, f + v, g, c + v))
        # a cell g[w] fills c[v] wherever f[v] = w: one scan for all v
        self._on(range(g, g + g_len), (_COMP_G, f, g, c, n))

    def pair(self, triples, pairing) -> None:
        """Cell t = (a, b) for each (a, b, t) in ``triples``; ``pairing``
        is (index of pair (i, j) at i * n2 + j, n2, first, second)."""
        for a, b, t in triples:
            self._on({a, b, t}, (_PAIR, a, b, t) + pairing)

    def equal(self, a: int, b: int, n: int) -> None:
        """a[v] = b[v] for v < n."""
        for v in range(n):
            self._on((a + v, b + v), (_EQ, a + v, b + v))

    def image(self, src: int, dom: Sequence, table: Dict, cod: Dict, dst: int) -> None:
        """dst = cod[table[dom[src]]]: the image of src's value under a
        fixed table, with ``cod`` mapping values to indices.  A value that
        the table or ``cod`` lacks is a conflict."""
        self._on((src,), (_IMG, src, dom, table, cod, dst))

    def assign(self, todo: List[Tuple[int, int]]) -> bool:
        """Give each (cell, value) in ``todo`` its value and propagate;
        False on a conflict.  Every cell set on the way is on the trail,
        also after a conflict.  ``todo`` is used up."""
        val, trail, watch = self.val, self.trail, self.watch
        while todo:
            cell, x = todo.pop()
            cur = val[cell]
            if cur >= 0:
                if cur != x:
                    return False
            elif x < 0:
                return False
            else:
                val[cell] = x
                trail.append(cell)
                for inst in watch.get(cell, ()):
                    kind = inst[0]
                    if kind == _COMP:
                        a = val[inst[1]]
                        if a >= 0:
                            gc = inst[2] + a
                            b = val[gc]
                            if b >= 0:
                                todo.append((inst[3], b))
                            elif val[inst[3]] >= 0:
                                todo.append((gc, val[inst[3]]))
                    elif kind == _COMP_G:
                        _k, f, g, c, n = inst
                        w = cell - g
                        for v in range(n):
                            if val[f + v] == w:
                                todo.append((c + v, x))
                    elif kind == _PAIR:
                        _k, ac, bc, tc, pairs, n2, first, second = inst
                        t = val[tc]
                        if t >= 0:
                            todo.append((ac, first[t]))
                            todo.append((bc, second[t]))
                        elif val[ac] >= 0 and val[bc] >= 0:
                            todo.append((tc, pairs[val[ac] * n2 + val[bc]]))
                    elif kind == _EQ:
                        a = val[inst[1]]
                        todo.append((inst[2], a) if a >= 0 else (inst[1], val[inst[2]]))
                    else:
                        _k, sc, dom, table, cod, dst = inst
                        e = dom[val[sc]]
                        todo.append((dst, cod.get(table[e], -1) if e in table else -1))
        return True

    def undo(self, mark: int) -> None:
        """Unset the cells set since the trail had length ``mark``."""
        val, trail = self.val, self.trail
        while len(trail) > mark:
            val[trail.pop()] = -1

    def solve(self, order: Sequence[int], emit) -> bool:
        """Call ``emit`` once for every way of giving the cells in ``order``
        values that no constraint rejects, trying values in index order,
        so the ways come in the lexicographic order of ``order``.  Stops,
        and returns True, as soon as ``emit`` returns true."""
        val, size, trail, watch = self.val, self.size, self.trail, self.watch
        n = len(order)
        stack: List[list] = []   # [position in order, next value, trail mark]
        k = 0
        while True:
            while k < n and val[order[k]] >= 0:
                k += 1
            if k == n:
                if emit():
                    return True
            else:
                stack.append([k, 0, len(trail)])
            while stack:
                top = stack[-1]
                k, x, mark = top
                while len(trail) > mark:
                    val[trail.pop()] = -1
                cell = order[k]
                if x == size[cell]:
                    stack.pop()
                    continue
                top[1] = x + 1
                if cell not in watch:     # nothing to propagate
                    val[cell] = x
                    trail.append(cell)
                elif not self.assign([(cell, x)]):
                    continue
                k += 1
                break
            else:
                return False


def _indices(carriers: Dict[TypeName, Sequence]) -> Dict[TypeName, Dict]:
    return {x: {v: i for i, v in enumerate(c)} for x, c in carriers.items()}


def _pairing(carriers, index, y1: TypeName, y2: TypeName, p: TypeName):
    """The ``pairing`` argument of ``_Cells.pair`` for p = y1 x y2, or None
    when the carrier of p is not the set of pairs."""
    c1, c2, cp, ip = carriers[y1], carriers[y2], carriers[p], index[p]
    if len(ip) != len(c1) * len(c2):
        return None
    try:
        pairs = [ip[(a, b)] for a in c1 for b in c2]
    except KeyError:
        return None
    i1, i2 = index[y1], index[y2]
    return pairs, len(c2), [i1[e[0]] for e in cp], [i2[e[1]] for e in cp]


def _spec_cells(s: Specification, carriers, functions):
    """One cell per table entry of every term of s, the marks and equations
    as constraints, the marked structure and the given tables set; None on
    a conflict."""
    index = _indices(carriers)
    cells = _Cells()
    off = {name: cells.block(len(carriers[t.dom]), len(carriers[t.cod]))
           for name, t in s.terms.items()}

    def n(t: TermName) -> int:
        return len(carriers[s.terms[t].dom])

    for (f, g), c in s.compositions.items():
        cells.compose(off[f], off[g], n(g), off[c], n(f))
    pairings = {}
    for (y1, y2), (p, _1, _2) in s.products.items():
        pairings[p] = _pairing(carriers, index, y1, y2, p)
        if pairings[p] is None:
            return None
    for (f, g), t in s.tuples.items():
        p = s.products[(s.terms[f].cod, s.terms[g].cod)][0]
        cells.pair([(off[f] + v, off[g] + v, off[t] + v) for v in range(n(f))],
                   pairings[p])
    for (a, b) in s.equations:
        cells.equal(off[a], off[b], n(a))

    seeds = []
    for x, i in s.identities.items():
        seeds += [(off[i] + v, v) for v in range(len(carriers[x]))]
    for (y1, y2), (p, p1, p2) in s.products.items():
        _pairs, _n2, first, second = pairings[p]
        seeds += [(off[p1] + v, a) for v, a in enumerate(first)]
        seeds += [(off[p2] + v, b) for v, b in enumerate(second)]
    for x, c in s.collapsings.items():
        unit = index[s.terminal][UNIT_ELEMENT]
        seeds += [(off[c] + v, unit) for v in range(len(carriers[x]))]
    for t, tab in functions.items():
        if t in off:
            cod = index[s.terms[t].cod]
            seeds += [(off[t] + v, cod.get(tab[x], -1))
                      for v, x in enumerate(carriers[s.terms[t].dom]) if x in tab]
    if not cells.assign(seeds):
        return None
    return cells, off


def _model_cells(s: Specification, base_carriers: Dict[TypeName, Sequence],
                 fixed: Optional[FiniteModel], cap: int,
                 carriers: Optional[Dict[TypeName, Tuple]] = None):
    """The cells of the models of s over the base carriers extending
    ``fixed``, with the marked structure and the entries of the fixed
    tables set (None when they conflict); the order the search assigns
    them in; every table, by name, as (term, first cell, sorted domain,
    value of a rank); a function that reads the model, every table of
    it, off the cells once all are set; the ``_model_check`` of the
    carriers, which gates every model read off; and the first cell of
    every table.  No caller undoes the cells that the seeds set, so the
    tables whose cells they all set are the same in every model.  From
    the second model on, those are read once and copied into each model,
    and once a model has passed the check in full, the gate is the
    ``_model_check`` of ``_unshared``.  ``cap`` is checked as
    ``enumerate_models`` says.  The entries a fixed table lacks are
    searched without counting toward the cap; a fixed table given empty
    leaves all its cells to the search or to the caller to seed.  A fixed entry outside the domain is ignored.

    The cells work on the sorted carriers: a table's cells are its
    entries in the sorted order of its domain, and a cell's value is the
    rank of the entry's value in the sorted carrier of the codomain.  The
    models read off keep the carriers as given.  A carrier whose elements
    do not compare raises ``IncomparableCarrier``.  ``carriers``, when
    given, are the ``derived_carriers`` of the base carriers and ``fixed``'s,
    which are then not derived again."""
    fixed_carriers, fixed_funcs = (fixed.carriers, fixed.functions) if fixed else ({}, {})
    if carriers is None:
        carriers = derived_carriers(s, {**fixed_carriers, **base_carriers})
    if any(set(v) != set(carriers[x]) for x, v in fixed_carriers.items()):
        return None  # s forces another carrier on a type that fixed gives
    marked = mark_results(s, TERM)  # the tables that a mark fills from others
    terms = sorted(s.terms)
    ranked = {x: tuple(_sorted_carrier(x, c)) for x, c in carriers.items()}
    dom = {t: ranked[s.terms[t].dom] for t in terms}
    total = 1
    for t in terms:
        if t not in marked and t not in fixed_funcs:
            total *= len(carriers[s.terms[t].cod]) ** len(dom[t])
            if total > cap:
                raise SearchSpaceTooLarge(f"{total} candidates exceed cap {cap}")
    built = _spec_cells(s, ranked, fixed_funcs)
    if built is None:
        return None
    cells, off = built
    val = cells.val
    # unmarked terms first, small tables first: the marks then fill the rest
    order = [off[t] + v for t in sorted(terms, key=lambda t: (t in marked, len(dom[t]), t))
             for v in range(len(dom[t]))]
    tables = [(t, off[t], dom[t], ranked[s.terms[t].cod].__getitem__) for t in terms]
    gate, seeded = _model_check(s, carriers), len(cells.trail)
    shared: Dict[TermName, Dict] = {}
    built, passed = 0, False

    def model() -> FiniteModel:
        nonlocal built, gate
        built += 1
        if built == 2:   # the tables that the seeds set whole, read once
            preset = set(cells.trail[:seeded])
            shared.update((t, dict(zip(xs, map(cod, val[start:start + len(xs)]))))
                          for t, start, xs, cod in tables
                          if preset.issuperset(range(start, start + len(xs))))
            if passed and shared:
                gate = _model_check(_unshared(s, shared.keys()), carriers)
        return FiniteModel(dict(carriers), {
            t: shared[t].copy() if t in shared
            else dict(zip(xs, map(cod, val[start:start + len(xs)])))
            for t, start, xs, cod in tables})

    def check(functions: Dict[TermName, Dict]) -> List[str]:
        nonlocal passed
        errs = gate(functions)
        passed = passed or not errs
        return errs

    return cells, order, tables, model, check, off


def _unshared(s: Specification, shared) -> Specification:
    """s without the marks and equations that read only the tables that
    ``shared`` names, and without those tables where nothing left reads
    them: what a model still has to pass when another with the same
    shared tables has passed ``_model_check`` of s."""
    def kept(marks):
        return {k: r for k, r in marks.items() if not shared >= {*k, r}}

    compositions, tuples = kept(s.compositions), kept(s.tuples)
    equations = {e for e in s.equations if not shared >= set(e)}
    read = {t for k, r in [*compositions.items(), *tuples.items()] for t in (*k, r)}
    read.update(*equations)
    return Specification(
        types=s.types, terms={t: term for t, term in s.terms.items()
                              if t not in shared or t in read},
        identities={x: i for x, i in s.identities.items() if i not in shared},
        compositions=compositions, tuples=tuples, equations=equations,
        products={k: v for k, v in s.products.items() if not shared >= set(v[1:])},
        terminal=s.terminal,
        collapsings={x: c for x, c in s.collapsings.items() if c not in shared})


def _sorted_carrier(x: TypeName, c: Sequence, key=None) -> List:
    """sorted(c, key=key), or ``IncomparableCarrier`` naming the type x
    when the elements of its carrier c do not compare."""
    try:
        return sorted(c, key=key)
    except TypeError as e:
        raise IncomparableCarrier(
            f"the elements of the carrier of {x} do not compare: {e}") from None


def _repr_order(xs: Sequence) -> List[int]:
    """The indices of xs in the order of the repr of their elements."""
    return sorted(range(len(xs)), key=lambda v: repr(xs[v]))


def _ranks(x: TypeName, c: Sequence) -> List[int]:
    """The rank in sorted(c) of each element of c, by its index in c, for
    the carrier c of the type x."""
    out = [0] * len(c)
    for k, i in enumerate(_sorted_carrier(x, range(len(c)), key=c.__getitem__)):
        out[i] = k
    return out


def _canonical_cells(tables) -> List[int]:
    """The cells of ``_model_cells``'s tables in the order in which
    ``canonical()`` compares two models, fixed entries as constants:
    tables by term name, entries by the repr of their key.  As the cells
    hold ranks, the models compare as their values at these cells."""
    return [start + v for _t, start, xs, _cod in tables for v in _repr_order(xs)]


def enumerate_models(s: Specification,
                     base_carriers: Dict[TypeName, Sequence],
                     fixed: Optional[FiniteModel] = None,
                     cap: int = DEFAULT_CANDIDATE_CAP) -> List[FiniteModel]:
    """All models of s over the given base carriers extending ``fixed``:
    with fixed's carriers, and equal to each of fixed's tables at its
    entries in the domain; the entries a fixed table lacks are searched.

    Product/terminal carriers are forced; a fixed model that gives such a
    type another carrier has no extension.  The search assigns one table
    cell at a time and lets every mark and equation fill or check the
    cells whose inputs are known, backtracking on a conflict.  ``cap``
    bounds, before the search starts, the product of |cod|^|dom| over
    the terms that no mark and no fixed table determine, so the missing
    entries of a fixed table do not count toward it.

    Sorted by ``canonical()``, on any carriers.  A cell holds the rank of
    its value in the sorted carrier, so the values of a model at the
    cells of its tables, tables by term name and entries by the repr of
    their key, are a key in ``canonical()`` order.  The key is read off
    the cells as the search finds the model; no model is turned into a
    ``canonical()`` tuple, and the cells set before the search, the same
    in every model, are left out of the key.
    """
    built = _model_cells(s, base_carriers, fixed, cap)
    if built is None:
        return []
    cells, order, tables, model, check, _off = built
    at = cells.val.__getitem__
    canon = [c for c in _canonical_cells(tables) if at(c) < 0]
    keyed: List[Tuple[Tuple[int, ...], FiniteModel]] = []

    def emit() -> None:
        m = model()
        if not check(m.functions):
            keyed.append((tuple(map(at, canon)), m))

    cells.solve(order, emit)
    keyed.sort(key=itemgetter(0))
    return [m for _key, m in keyed]


def _least_model(s: Specification, base_carriers: Dict[TypeName, Sequence],
                 accept, cap: int = DEFAULT_CANDIDATE_CAP,
                 carriers: Optional[Dict[TypeName, Tuple]] = None) -> Optional[FiniteModel]:
    """The ``canonical()``-least model of s over the base carriers that
    ``accept`` takes, or None: the first such model of
    ``enumerate_models``'s list.  The cap is the same, and ``carriers``
    are ``_model_cells``'.

    ``accept`` tests a candidate on its cells: it is called with ``row``,
    where ``row(t)`` is the list of ranks in table t's cells, in the
    sorted order of t's domain.  Only the answer is built as a
    ``FiniteModel``, and the ``_model_check`` of the carriers gates it.

    A first-hit search finds a witness.  Then each cell, in the order of
    ``canonical()`` (``_canonical_cells``), gets the least value that a
    first-hit search from the cells set so far can still complete to a
    candidate that ``accept`` takes; values from the witness's up need
    no search.
    """
    built = _model_cells(s, base_carriers, None, cap, carriers)
    if built is None:
        return None
    cells, order, tables, model, check, _off = built
    val = cells.val
    rows = {t: slice(start, start + len(xs)) for t, start, xs, _cod in tables}

    def row(t: TermName) -> List[int]:
        return val[rows[t]]

    def witness() -> Optional[List[int]]:
        """The cells of the first candidate in search order that ``accept``
        takes, or None; the cells are left as they were."""
        mark = len(cells.trail)
        hit = cells.solve(order, lambda: accept(row))
        found = list(val) if hit else None
        cells.undo(mark)
        return found

    w = witness()
    if w is None:
        return None
    for cell in _canonical_cells(tables):
        if val[cell] >= 0:
            continue
        for x in range(w[cell]):
            mark = len(cells.trail)
            if cells.assign([(cell, x)]):
                found = witness()
                if found is not None:
                    w = found
                    break
            cells.undo(mark)
        else:
            if not cells.assign([(cell, w[cell])]):
                raise AssertionError("a witness cell conflicts with the cells set before it")
    m = model()
    errs = check(m.functions)
    if errs:
        raise AssertionError(f"least model search produced a non-model: {errs[0]}")
    return m


@dataclass
class ModelHom:
    components: Dict[TypeName, Dict]


def base_types(s: Specification) -> List[TypeName]:
    """The types whose carriers are chosen: all but products and the terminal."""
    derived = mark_results(s, TYPE)
    return sorted(x for x in s.types if x not in derived)


def hom_search(s: Specification, m: FiniteModel, n: FiniteModel,
               fix_types: Sequence[TypeName] = ()) -> List[ModelHom]:
    """All homomorphisms m -> n; components on product/terminal types are
    forced, and a type listed in ``fix_types`` has the identity component.

    The cells are the component entries.  Those on the choice types are
    searched; a product entry follows from its factors, and each entry
    fills the entry that the commutation square of every term sends it
    to.  The homs come in ``canonical()`` order of their components."""
    carriers = m.carriers
    im, ino = _indices(carriers), _indices(n.carriers)
    cells = _Cells()
    types = sorted(s.types)
    off = {x: cells.block(len(carriers[x]), len(n.carriers[x])) for x in types}
    for (y1, y2), (p, _1, _2) in s.products.items():
        pairing = _pairing(n.carriers, ino, y1, y2, p)
        if pairing is None:
            return []
        cells.pair([(off[y1] + im[y1][a], off[y2] + im[y2][b], off[p] + v)
                    for v, (a, b) in enumerate(carriers[p])], pairing)
    # the square of t: the cell of x in t's domain fills the cell of m's t(x)
    for t in s.terms.values():
        nt, mt, index = n.functions[t.name], m.functions[t.name], im[t.cod]
        for v, x in enumerate(carriers[t.dom]):
            cells.image(off[t.dom] + v, n.carriers[t.dom], nt, ino[t.cod],
                        off[t.cod] + index[mt[x]])
    seeds = [(off[x] + im[x][v], ino[x].get(v, -1)) for x in fix_types for v in carriers[x]]
    if s.terminal is not None:
        seeds.append((off[s.terminal], ino[s.terminal].get(UNIT_ELEMENT, -1)))
    # the other cells are set by propagation once the choice cells are;
    # solve skips the cells that are set already
    order = [off[x] + v for x in base_types(s) + types for v in range(len(carriers[x]))]
    found: List[List[int]] = []
    if cells.assign(seeds):
        cells.solve(order, lambda: found.append(cells.val[:]))
    if len(found) > 1:
        # canonical() order: components by type name, entries by the repr
        # of their key, values by their rank in the sorted target carrier
        rank = {x: _ranks(x, n.carriers[x]) for x in types}
        entries = [(off[x] + v, rank[x]) for x in types for v in _repr_order(carriers[x])]
        found.sort(key=lambda w: tuple(r[w[c]] for c, r in entries))
    return [ModelHom({x: dict(zip(carriers[x], map(
        n.carriers[x].__getitem__, w[off[x]:off[x] + len(carriers[x])])))
        for x in types}) for w in found]


# ---------------------------------------------------------------------------
# Parameter passing
# ---------------------------------------------------------------------------

def pass_parameter(d: DecoratedSpecification, par: Parameterization,
                   m_a: FiniteModel, alpha) -> FiniteModel:
    """Instantiate the parameter: build a model of the plain specification
    from a model of the parameterized one and an argument.

    Pure terms keep their interpretation; a general term f is interpreted
    as x |-> M(f')(alpha, x).  ``InvalidAlpha`` when alpha is not in the
    parameter carrier: one look-up of (alpha, x) in a primed table decides,
    and the carrier is scanned only when no primed table has an entry."""
    base = undecorate(d)
    carriers = {x: tuple(m_a.carriers[x]) for x in base.types}
    probe = [(m_a.functions[par.lift[f]], x) for f in sorted(d.general_terms())
             for x in carriers[base.terms[f].dom][:1]]
    try:
        known = ((alpha, probe[0][1]) in probe[0][0] if probe
                 else alpha in m_a.carriers[par.spec.parameter_type])
    except TypeError:   # an unhashable alpha keys no table
        known = False
    if not known:
        raise InvalidAlpha(repr(alpha))
    functions: Dict[TermName, Dict] = {}
    for t in sorted(base.terms):
        dom = carriers[base.terms[t].dom]
        functions[t] = ({v: m_a.apply(t, v) for v in dom} if d.is_pure(t)
                        else {v: m_a.apply(par.lift[t], (alpha, v)) for v in dom})
    return FiniteModel(carriers, functions)


def _unpass(d: DecoratedSpecification, par: Parameterization, m_0: FiniteModel,
            base_carriers: Dict[TypeName, Sequence],
            family: Sequence[FiniteModel]) -> FiniteModel:
    """The model of P(d) over m_0 whose slice at i is the model family[i]
    of d, so that ``pass_parameter`` at i gives family[i] back.  It is
    built without a search: the pure tables from m_0 (the identities,
    collapsings and projections of d are pure), each f'(i, x) from
    family[i]'s f(x), the projections of each A*X by coordinates, and
    each composite and tuple from its mark once the tables it reads are
    built.  The ``_model_check`` of P(d) then gates it once.

    A type that both ``base_carriers`` and m_0 give takes the base
    carrier, as in ``_model_cells``.  m_0 must give every pure table at
    every element of its domain; ``Unassigned`` names the first it lacks.
    """
    p = par.spec.base
    carriers = derived_carriers(
        p, {**{x: v for x, v in m_0.carriers.items() if x in p.types}, **base_carriers,
            par.spec.parameter_type: tuple(range(len(family)))})
    functions: Dict[TermName, Dict] = {}
    for t in sorted(p.terms):
        if t in d.base.terms and d.is_pure(t):
            tab, dom = m_0.functions.get(t, {}), carriers[p.terms[t].dom]
            lacks = [v for v in dom if v not in tab]
            if lacks:
                raise Unassigned(f"term {t}: m_0 has no value at {lacks[0]!r}")
            functions[t] = {v: tab[v] for v in dom}
    for f in sorted(d.general_terms()):
        dom = carriers[d.base.terms[f].dom]
        functions[par.lift[f]] = {(i, x): tab[x] for i, tab in
                                  enumerate(e.functions[f] for e in family) for x in dom}
    unbuilt = [t for t in p.terms if t not in functions]
    for (pt, p1, p2) in p.products.values():
        if p1 not in functions:   # A*X; the pure products are m_0's
            functions[p1] = {v: v[0] for v in carriers[pt]}
            functions[p2] = {v: v[1] for v in carriers[pt]}
    marks = ([(c, f, g, False) for (f, g), c in p.compositions.items()]
             + [(t, f, g, True) for (f, g), t in p.tuples.items()])
    while True:   # in rounds, as one mark may read what another makes
        ready = [m for m in marks if m[0] not in functions
                 and m[1] in functions and m[2] in functions]
        if not ready:
            break
        for r, f, g, pair in ready:
            tf, tg = functions[f], functions[g]
            functions[r] = {v: (tf[v], tg[v]) if pair else tg[tf[v]]
                            for v in carriers[p.terms[f].dom]}
    if any(t not in functions for t in unbuilt) or _model_check(p, carriers)(functions):
        raise AssertionError("terminal model construction failed the model "
                             "check or left a table unbuilt")
    for t in unbuilt:   # after the given tables, in the order of P(d)'s terms
        functions[t] = functions.pop(t)
    return FiniteModel(carriers, functions)


def terminal_model(d: DecoratedSpecification,
                   m_0: FiniteModel,
                   base_carriers: Dict[TypeName, Sequence],
                   par: Optional[Parameterization] = None,
                   cap: int = DEFAULT_CANDIDATE_CAP) -> Tuple[FiniteModel, List[FiniteModel]]:
    """The record-of-functions model: the parameter carrier is the set of
    models of the plain specification extending ``m_0``, and a primed term
    applies the record's field.

    Returns the model of the parameterized specification, ``_unpass`` of
    the extensions, together with the enumerated extension list (index i
    of the list is the carrier element i).  m_0 is as ``_unpass`` says.
    """
    if par is None:
        par = parameterize(d)
    extensions = enumerate_models(undecorate(d), base_carriers, fixed=m_0, cap=cap)
    return _unpass(d, par, m_0, base_carriers, extensions), extensions


def is_terminal(d: DecoratedSpecification, candidate: FiniteModel,
                m_0: FiniteModel, base_carriers: Dict[TypeName, Sequence],
                bound: int, par: Optional[Parameterization] = None,
                cap: int = DEFAULT_CANDIDATE_CAP) -> bool:
    """True iff every model of the parameterized specification extending
    m_0 with a parameter carrier of size <= bound has exactly one
    homomorphism into ``candidate`` fixing the shared part.  A candidate
    without a carrier or a table of P(d) is not terminal, and at
    bound >= 1 neither is one that ``check_model`` rejects.

    Only the parameter sizes 0 and ``min(bound, 1)`` are searched; the
    slices of a model make this enough.  Every term whose domain lies
    over the parameter type A (A, A*X) sends the slice of an element a
    into that slice or into the shared part, and no term maps the shared
    part into A.  So a model with |A| = s is s one-element slices over
    one shared part, each slice a model of size 1, and every model of
    size 1 is a slice of some model of size s over its shared part.  A
    hom picks its A-component element by element, and each commutation
    square involves one slice, so the homs out of a model are the
    product of the homs out of its slices.  Exactly one hom for every
    model of size <= bound is then exactly one at size 0 and, when
    bound >= 1, exactly one at each model of size 1.

    Size 0 has one model at most, whose one ``hom_search`` checks that
    the candidate agrees with m_0 on the shared part.  Size 1 is searched
    on d, not on P(d): parameter passing at the one element maps the
    models of P(d) of size 1 that extend m_0 one to one onto the models
    of d that extend m_0, f'(0, x) giving f(x).  Their homs are counted,
    not searched: every component but the parameter's is the identity
    or forced, so a hom sends the one element to a record r, and the
    squares of the primed terms f' : A*X -> Y hold exactly when r's
    fields f'(r, x) are f(x).  Every other term over A is a projection,
    or is made by marks from the primed terms, the projections and pure
    terms; as both sides are models, its square follows.  So the records
    are counted once by their fields, over the sorted domains of the
    search's tables, and the models of d are streamed, each keyed by its
    general tables read off its cell rows, until the first whose count
    is not one.  Only that model is built, and gated by the
    ``_model_check`` of d."""
    if par is None:
        par = parameterize(d)
    p = par.spec.base
    a_type = par.spec.parameter_type
    if (any(x not in candidate.carriers for x in p.types)
            or any(t not in candidate.functions for t in p.terms)
            or bound >= 1 and check_model(p, candidate)):
        return False
    fix = sorted(x for x in p.types if x != a_type and x in base_types(p))
    if any(len(hom_search(p, n, candidate, fix)) != 1
           for n in enumerate_models(p, {**base_carriers, a_type: ()}, fixed=m_0, cap=cap)):
        return False
    if bound < 1:
        return True
    built = _model_cells(d.base, base_carriers, m_0, cap)
    if built is None:
        return True
    cells, order, tables, model, check, _off = built
    val, recs = cells.val, candidate.carriers[a_type]
    # one column per entry (f, x) of a general table, by record
    general = [(start + v, cod, candidate.functions[par.lift[t]], x)
               for t, start, xs, cod in tables if not d.is_pure(t) for v, x in enumerate(xs)]
    records = Counter(zip(*[[tab[(r, x)] for r in recs] for _c, _cod, tab, x in general])
                      if general else [()] * len(recs))

    def fails() -> bool:
        key = tuple([cod(val[c]) for c, cod, _tab, _x in general])
        return records[key] != 1 and not check(model().functions)

    return not cells.solve(order, fails)


@dataclass
class ExactnessReport:
    parameter_count: int
    model_count: int
    bijection: List[Tuple[object, int]]  # (alpha, index of extending model)
    injective: bool
    surjective: bool

    @property
    def exact(self) -> bool:
        return self.injective and self.surjective

    def lines(self) -> List[str]:
        out = [f"parameter carrier size: {self.parameter_count}",
               f"models extending the fixed pure part: {self.model_count}",
               f"bijection: {'yes' if self.exact else 'no'}"]
        return out + [f"  {alpha!r} <-> model {idx}" for alpha, idx in self.bijection]


def exactness_check(d: DecoratedSpecification, m_0: FiniteModel,
                    base_carriers: Dict[TypeName, Sequence],
                    par: Optional[Parameterization] = None,
                    cap: int = DEFAULT_CANDIDATE_CAP) -> ExactnessReport:
    """Build the record model, pass every argument through it, and verify
    the arguments are in bijection with the models extending m_0.  Record
    α is built from extension α, so the model passed at α is compared with
    extension α alone: all have m_0's pure tables, and the extensions are
    distinct.  -1 pairs an α whose passed model is not its extension."""
    if par is None:
        par = parameterize(d)
    m_a, extensions = terminal_model(d, m_0, base_carriers, par=par, cap=cap)
    alphas = m_a.carriers[par.spec.parameter_type]
    hits = [pass_parameter(d, par, m_a, alpha) == extensions[alpha] for alpha in alphas]
    return ExactnessReport(len(alphas), len(extensions),
                           [(alpha, alpha if hit else -1) for alpha, hit in zip(alphas, hits)],
                           hits.count(False) <= 1, all(hits))
