"""References computed apart from eqsketch.

Nothing here imports the package under test.  A specification is
described by ``Sig``, the benchmark's own record of what it writes into a
spec file; the program's parsed objects are only ever read, never trusted.

- ``Sig.text`` writes the DSL text the program parses.
- ``model_errors`` is an evaluator: it re-checks a finite model against
  every mark and equation of a ``Sig``.
- ``models_of`` is a brute-force model enumerator (every generator table,
  derived tables filled by their recipes, then ``model_errors``).
- ``Normaliser`` puts terms in beta-normal, eta-long form over the free
  category with chosen products and rewrites unary words by the
  equations; equal normal forms prove equality.
- The closed forms count models and saturated terms.
"""
from __future__ import annotations

import itertools
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

UNIT = ()


class Sig:
    """A specification as the benchmark writes it, statement by statement."""

    def __init__(self, decorated: bool = False):
        self.types: List[str] = []
        self.terminal: Optional[str] = None
        self.products: Dict[Tuple[str, str], Tuple[str, str, str]] = {}
        self.terms: Dict[str, Tuple[str, str]] = {}
        self.identities: Dict[str, str] = {}
        self.collapsings: Dict[str, str] = {}
        self.compositions: Dict[Tuple[str, str], str] = {}
        self.tuples: Dict[Tuple[str, str], str] = {}
        self.equations: List[Tuple[str, str]] = []
        self.pure: Optional[set] = set() if decorated else None
        self.lines: List[str] = ["decorated"] if decorated else []

    # -- statements, in the DSL's own order --------------------------------

    def type(self, x: str) -> str:
        self.types.append(x)
        self.lines.append(f"type {x}")
        return x

    def unit(self, u: str) -> str:
        self.types.append(u)
        self.terminal = u
        self.lines.append(f"unit {u}")
        return u

    def term(self, f: str, dom: str, cod: str, pure: bool = False) -> str:
        self.terms[f] = (dom, cod)
        if pure:
            self.pure.add(f)
        self.lines.append(f"term {'pure ' if pure else ''}{f} : {dom} -> {cod}")
        return f

    def product(self, p: str, y1: str, y2: str, p1: str, p2: str) -> str:
        self.types.append(p)
        self.terms[p1] = (p, y1)
        self.terms[p2] = (p, y2)
        self.products[(y1, y2)] = (p, p1, p2)
        self.lines.append(f"product {p} = {y1} * {y2} with {p1} {p2}")
        return p

    def identity(self, x: str, name: str) -> str:
        self.terms.setdefault(name, (x, x))
        self.identities[x] = name
        self.lines.append(f"identity {x} = {name}")
        return name

    def collapse(self, x: str, name: str) -> str:
        self.terms.setdefault(name, (x, self.terminal))
        self.collapsings[x] = name
        self.lines.append(f"collapse {x} = {name}")
        return name

    def compose(self, c: str, g: str, f: str) -> str:
        """Mark c as g . f (first f, then g)."""
        self.terms.setdefault(c, (self.terms[f][0], self.terms[g][1]))
        self.compositions[(f, g)] = c
        self.lines.append(f"compose {c} = {g} . {f}")
        return c

    def tuple(self, t: str, f: str, g: str) -> str:
        key = (self.terms[f][1], self.terms[g][1])
        self.terms.setdefault(t, (self.terms[f][0], self.products[key][0]))
        self.tuples[(f, g)] = t
        self.lines.append(f"tuple {t} = < {f} , {g} >")
        return t

    def eq(self, a: str, b: str) -> None:
        self.equations.append((a, b))
        self.lines.append(f"eq {a} = {b}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    # -- derived structure --------------------------------------------------

    def product_of(self) -> Dict[str, Tuple[str, str]]:
        return {p: key for key, (p, _1, _2) in self.products.items()}

    def base_types(self) -> List[str]:
        derived = set(self.product_of())
        if self.terminal is not None:
            derived.add(self.terminal)
        return sorted(x for x in self.types if x not in derived)

    def recipes(self) -> Tuple[Dict[str, tuple], List[str]]:
        """One defining recipe per mark result whose ingredients resolve;
        the other terms (including those on a cycle of marks) are free."""
        marks: Dict[str, tuple] = {}
        for x, i in self.identities.items():
            marks.setdefault(i, ("identity", x))
        for (y1, y2), (p, p1, p2) in self.products.items():
            marks.setdefault(p1, ("proj1", p))
            marks.setdefault(p2, ("proj2", p))
        for x, c in self.collapsings.items():
            marks.setdefault(c, ("collapse", x))
        for (f, g), c in self.compositions.items():
            marks.setdefault(c, ("compose", f, g))
        for (f, g), t in self.tuples.items():
            marks.setdefault(t, ("tuple", f, g))
        known = {t for t in self.terms if t not in marks}
        order: List[str] = []
        progress = True
        while progress:
            progress = False
            for t, r in marks.items():
                if t in known:
                    continue
                if r[0] in ("compose", "tuple") and not (r[1] in known and r[2] in known):
                    continue
                known.add(t)
                order.append(t)
                progress = True
        recipes = {t: marks[t] for t in order}
        return recipes, sorted(t for t in self.terms if t not in recipes)


def sig_of(spec) -> Sig:
    """Read a parsed or computed eqsketch Specification into a Sig."""
    s = Sig()
    s.types = sorted(spec.types)
    s.terminal = spec.terminal
    s.products = dict(spec.products)
    s.terms = {n: (t.dom, t.cod) for n, t in spec.terms.items()}
    s.identities = dict(spec.identities)
    s.collapsings = dict(spec.collapsings)
    s.compositions = dict(spec.compositions)
    s.tuples = dict(spec.tuples)
    s.equations = sorted(spec.equations)
    return s


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

def derived_carriers(sig: Sig, base: Dict[str, Sequence]) -> Dict[str, tuple]:
    out = {x: tuple(v) for x, v in base.items()}
    if sig.terminal is not None:
        out[sig.terminal] = (UNIT,)
    prods = sig.product_of()
    while any(p not in out for p in prods):
        for p, (y1, y2) in prods.items():
            if p not in out and y1 in out and y2 in out:
                out[p] = tuple((a, b) for a in out[y1] for b in out[y2])
    return out


def model_errors(sig: Sig, carriers: Dict[str, Sequence],
                 functions: Dict[str, dict]) -> List[str]:
    """Empty iff the tables form a model of sig with cartesian products
    and the canonical one-point terminal."""
    errs: List[str] = []
    for x in sig.types:
        if x not in carriers:
            return [f"no carrier for {x}"]
    for p, (y1, y2) in sig.product_of().items():
        want = [(a, b) for a in carriers[y1] for b in carriers[y2]]
        if sorted(carriers[p], key=repr) != sorted(want, key=repr):
            errs.append(f"carrier of {p} is not {y1} x {y2}")
    if sig.terminal is not None and tuple(carriers[sig.terminal]) != (UNIT,):
        errs.append("terminal carrier is not the one-point set")
    for t, (d, c) in sig.terms.items():
        tab = functions.get(t)
        if tab is None:
            return errs + [f"no table for {t}"]
        cod = set(carriers[c])
        if set(tab) != set(carriers[d]) or any(v not in cod for v in tab.values()):
            errs.append(f"table of {t} is not a function {d} -> {c}")
    if errs:
        return errs
    fn = functions
    for x, i in sig.identities.items():
        if any(fn[i][v] != v for v in carriers[x]):
            errs.append(f"identity {i} fails")
    for (y1, y2), (p, p1, p2) in sig.products.items():
        if any(fn[p1][v] != v[0] or fn[p2][v] != v[1] for v in carriers[p]):
            errs.append(f"projections of {p} fail")
    for x, c in sig.collapsings.items():
        if any(fn[c][v] != UNIT for v in carriers[x]):
            errs.append(f"collapsing {c} fails")
    for (f, g), c in sig.compositions.items():
        if any(fn[c][v] != fn[g][fn[f][v]] for v in carriers[sig.terms[f][0]]):
            errs.append(f"composite {c} = {g} . {f} fails")
    for (f, g), t in sig.tuples.items():
        if any(fn[t][v] != (fn[f][v], fn[g][v]) for v in carriers[sig.terms[f][0]]):
            errs.append(f"tuple {t} = <{f}, {g}> fails")
    for a, b in sig.equations:
        if any(fn[a][v] != fn[b][v] for v in carriers[sig.terms[a][0]]):
            errs.append(f"equation {a} = {b} fails")
    return errs


def uf_root(parent: dict, x):
    """The root of x in a union-find parent map, read without changing it."""
    while parent[x] != x:
        x = parent[x]
    return x


def model_key(functions: Dict[str, dict]) -> tuple:
    return tuple(sorted((t, tuple(sorted(tab.items(), key=repr)))
                        for t, tab in functions.items()))


def models_of(sig: Sig, base: Dict[str, Sequence],
              fixed: Optional[Dict[str, dict]] = None) -> List[Dict[str, dict]]:
    """Every model of sig on the base carriers extending the fixed tables,
    by brute force over the free terms' tables."""
    carriers = derived_carriers(sig, base)
    recipes, free = sig.recipes()
    fixed = fixed or {}
    free = [t for t in free if t not in fixed]
    spaces = []
    for t in free:
        d, c = sig.terms[t]
        spaces.append([dict(zip(carriers[d], vals))
                       for vals in itertools.product(carriers[c], repeat=len(carriers[d]))])
    out = []
    for combo in itertools.product(*spaces):
        fn = {t: dict(tab) for t, tab in fixed.items()}
        fn.update(zip(free, combo))
        for t, r in recipes.items():
            if t in fn:
                continue
            kind = r[0]
            if kind == "identity":
                fn[t] = {v: v for v in carriers[r[1]]}
            elif kind == "proj1":
                fn[t] = {v: v[0] for v in carriers[r[1]]}
            elif kind == "proj2":
                fn[t] = {v: v[1] for v in carriers[r[1]]}
            elif kind == "collapse":
                fn[t] = {v: UNIT for v in carriers[r[1]]}
            elif kind == "compose":
                f, g = r[1], r[2]
                fn[t] = {v: fn[g][fn[f][v]] for v in carriers[sig.terms[f][0]]}
            else:
                f, g = r[1], r[2]
                fn[t] = {v: (fn[f][v], fn[g][v]) for v in carriers[sig.terms[f][0]]}
        if not model_errors(sig, carriers, fn):
            out.append(fn)
    return out


def small_carrier_choices(sig: Sig, bound: int = 2):
    base = sig.base_types()
    for sizes in itertools.product(range(1, bound + 1), repeat=len(base)):
        yield {x: tuple(range(k)) for x, k in zip(base, sizes)}


def separating_model(sig: Sig, a: str, b: str, bound: int = 2):
    """A model on carriers <= bound in which a and b differ, or None."""
    for base in small_carrier_choices(sig, bound):
        for fn in models_of(sig, base):
            if fn[a] != fn[b]:
                return base, fn
    return None


def holds_in_small_models(sig: Sig, a: str, b: str, bound: int = 2) -> bool:
    """Does a = b hold in every model on carriers <= bound?"""
    return separating_model(sig, a, b, bound) is None


def count_extensions(source: Sig, target: Sig, fixed: Dict[str, dict],
                     carriers: Dict[str, Sequence], bound: int = 2) -> int:
    """Models of target extending a model of source, with each base type
    new in target given 0..bound elements."""
    new_base = [x for x in target.base_types() if x not in carriers]
    total = 0
    for sizes in itertools.product(range(bound + 1), repeat=len(new_base)):
        base = {x: tuple(carriers[x]) for x in target.base_types() if x in carriers}
        base.update({x: tuple(range(k)) for x, k in zip(new_base, sizes)})
        total += len(models_of(target, base, fixed=fixed))
    return total


# ---------------------------------------------------------------------------
# Normaliser
# ---------------------------------------------------------------------------

VAR = ("x",)


class Normaliser:
    """Beta-normal, eta-long terms in one variable.  Values of a product
    type are always pairs and values of the terminal are ``("unit",)``,
    so projections reduce on the spot; a free term is an application
    node.  Equations whose two sides are unary words over base types are
    oriented (longer, then larger, to smaller) and applied at every
    application node; every step is an equality, so equal normal forms
    prove equality."""

    def __init__(self, sig: Sig, rules_from: Optional[Sig] = None):
        self.sig = sig
        self.prods = sig.product_of()
        self.recipes, free = sig.recipes()
        self.free = set(free)
        self.rules: List[Tuple[tuple, tuple]] = []
        self.memo: Dict[str, tuple] = {}
        rules = []
        for a, b in (rules_from or sig).equations:
            wa, wb = self.word(self.nf(a)), self.word(self.nf(b))
            if wa is not None and wb is not None and wa != wb:
                rules.append((max(wa, wb, key=_rank), min(wa, wb, key=_rank)))
        self.rules, self.memo = rules, {}

    @staticmethod
    def word(v) -> Optional[tuple]:
        """Letters applied to the variable, first applied first."""
        letters = []
        while v[0] == "app":
            letters.append(v[1])
            v = v[2]
        return tuple(reversed(letters)) if v == VAR else None

    def expand(self, v, ty: str):
        if ty == self.sig.terminal:
            return ("unit",)
        if ty in self.prods:
            y1, y2 = self.prods[ty]
            return ("pair", self.expand(("fst", v), y1), self.expand(("snd", v), y2))
        return v

    def app(self, g: str, v):
        out = ("app", g, v)
        for lhs, rhs in self.rules:
            top = []
            w = out
            while w[0] == "app" and len(top) < len(lhs):
                top.append(w[1])
                w = w[2]
            if tuple(reversed(top)) == lhs:
                for letter in rhs:
                    w = self.app(letter, w)
                return w
        return self.expand(out, self.sig.terms[g][1])

    def apply(self, t: str, v):
        if t in self.free:
            return self.app(t, v)
        r = self.recipes[t]
        kind = r[0]
        if kind == "identity":
            return v
        if kind == "proj1":
            return v[1]
        if kind == "proj2":
            return v[2]
        if kind == "collapse":
            return ("unit",)
        if kind == "compose":
            return self.apply(r[2], self.apply(r[1], v))
        return ("pair", self.apply(r[1], v), self.apply(r[2], v))

    def nf(self, t: str):
        if t not in self.memo:
            self.memo[t] = self.apply(t, self.expand(VAR, self.sig.terms[t][0]))
        return self.memo[t]


def _rank(word: tuple):
    return (len(word), word)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def count_endo(k: int) -> int:
    """A point e : 1 -> X and a map s : X -> X."""
    return k ** (k + 1)


def count_two_ops(k: int) -> int:
    return k ** (2 * k)


def count_idempotent_maps(k: int) -> int:
    return sum(comb(k, j) * j ** (k - j) for j in range(k + 1))


def count_unital_magmas(k: int) -> int:
    """A unit element and a binary operation with it as two-sided unit."""
    return k * k ** ((k - 1) ** 2)


def saturated_endo_terms(k: int, depth: int) -> int:
    """Terms of the saturation of k maps X -> X: X and the added terminal
    One each get an identity and a collapsing, and every composable pair
    of terms of depth < d gives one term of depth <= d.  Counted by
    hom-set: X->X, X->One, One->One (nothing runs One -> X)."""
    a0, b0, c0 = k + 1, 1, 2
    a, b, c = a0, b0, c0
    for _ in range(depth):
        a, b, c = a0 + a * a, b0 + a * b + b * c, c0 + c * c
    return a + b + c


def endo_word_classes(k: int, max_len: int) -> int:
    """Distinct words of length <= max_len over k letters, plus the one
    class of maps X -> One and the one of One -> One."""
    return sum(k ** n for n in range(max_len + 1)) + 2
