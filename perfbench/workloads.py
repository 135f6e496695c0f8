"""The four workloads: inputs made from a seed, and the operations run on
them with the reference each answer is checked against.

``generate`` makes every input of a workload from the seed, writes each
specification as a DSL file and parses it with ``eqsketch.dsl``.
``operations`` then computes the references (untimed) and returns the
fixed list of operations one pass runs.  An operation calls eqsketch
through module attributes at call time, so that the traced run sees it.

The seed picks names, words and constants; it never changes how many
operations a pass holds or what kind of work each does.
"""
from __future__ import annotations

import ast
import contextlib
import io
import itertools
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracles as O
from oracles import Sig

WORKLOADS = ("prove", "refute", "search", "cli")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right
    known_fault: bool = False


@dataclass
class Inputs:
    workload: str
    sigs: Dict[str, Sig]
    docs: Dict[str, object] = field(default_factory=dict)
    paths: Dict[str, str] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)


class Names:
    """Fresh identifiers: a readable stem and a seeded two-letter tag."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def __call__(self, stem: str) -> str:
        while True:
            tag = "".join(self.rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
            name = f"{stem}_{tag}"
            if name not in self.used:
                self.used.add(name)
                return name


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------

def corpus(nm: Names) -> Dict[str, Sig]:
    """The eleven-spec corpus of the test suite, under seeded names."""
    out: Dict[str, Sig] = {"empty": Sig()}
    s = out["single_type"] = Sig()
    s.type(nm("X"))
    s = out["single_term"] = Sig()
    x, y = s.type(nm("X")), s.type(nm("Y"))
    s.term(nm("f"), x, y)
    s = out["endo"] = Sig()
    u, x = s.unit(nm("U")), s.type(nm("X"))
    s.term(nm("e"), u, x)
    s.term(nm("s"), x, x)
    s = out["two_parallel"] = Sig()
    x, y = s.type(nm("X")), s.type(nm("Y"))
    s.term(nm("f"), x, y)
    s.term(nm("g"), x, y)
    s = out["with_identity"] = Sig()
    s.identity(s.type(nm("X")), nm("id"))
    s = out["comp_chain"] = Sig()
    x, y, z = s.type(nm("X")), s.type(nm("Y")), s.type(nm("Z"))
    f, g = s.term(nm("f"), x, y), s.term(nm("g"), y, z)
    s.compose(nm("gf"), g, f)
    s = out["product_pair"] = Sig()
    y1, y2 = s.type(nm("Y1")), s.type(nm("Y2"))
    s.product(nm("P"), y1, y2, nm("p1"), nm("p2"))
    s = out["product_heavy"] = Sig()
    y1, y2 = s.type(nm("Y1")), s.type(nm("Y2"))
    p = s.product(nm("P"), y1, y2, nm("p1"), nm("p2"))
    x = s.type(nm("X"))
    f, g = s.term(nm("f"), x, y1), s.term(nm("g"), x, y2)
    t = s.tuple(nm("t"), f, g)
    s.compose(nm("c1"), s.products[(y1, y2)][1], t)
    s.product(nm("Q"), y2, y1, nm("q1"), nm("q2"))
    s = out["collapse"] = Sig()
    u = s.unit(nm("U"))
    s.collapse(s.type(nm("X")), nm("tu"))
    out["monoid_core"] = monoid_core(nm)[0]
    return out


def corpus_count(name: str, k: int) -> int:
    """Models of a corpus spec with every base carrier of size k."""
    return {
        "empty": 1, "single_type": 1, "with_identity": 1, "product_pair": 1,
        "collapse": 1,
        "single_term": k ** k,
        "endo": O.count_endo(k),
        "two_parallel": k ** (2 * k),
        "comp_chain": k ** (2 * k),
        "product_heavy": k ** (2 * k),
        "monoid_core": O.count_unital_magmas(k),
    }[name]


def monoid_core(nm: Names) -> Tuple[Sig, List[Tuple[str, str]]]:
    """A unit and a binary operation with the unit laws as marks, and
    its five pairs of distinct parallel terms."""
    s = Sig()
    u, m = s.unit(nm("U")), s.type(nm("M"))
    p1, p2 = nm("p1"), nm("p2")
    s.product(nm("M2"), m, m, p1, p2)
    mul = s.term(nm("mul"), s.products[(m, m)][0], m)
    e = s.term(nm("e"), u, m)
    i = s.identity(m, nm("id"))
    tu = s.collapse(m, nm("tu"))
    ec = s.compose(nm("ec"), e, tu)
    lpair = s.tuple(nm("lpair"), ec, i)
    s.compose(i, mul, lpair)
    rpair = s.tuple(nm("rpair"), i, ec)
    s.compose(i, mul, rpair)
    return s, [(ec, i), (lpair, rpair), (mul, p1), (mul, p2), (p1, p2)]


def self_referential() -> Sig:
    """``compose c = g . c``: a valid mark eqsketch cannot fill.  Fixed
    names, so the one known failure is the same on every seed."""
    s = Sig()
    x = s.type("X")
    s.term("g", x, x)
    s.term("c", x, x)
    s.compose("c", "g", "c")
    return s


def self_referential_count(k: int) -> int:
    """Pairs (g, c) with g . c = c: g fixes the image of c."""
    return sum(k ** (k - len(set(c))) for c in itertools.product(range(k), repeat=k))


def endo_family(nm: Names, k: int) -> Tuple[Sig, List[str]]:
    """k maps X -> X, and their names."""
    s = Sig()
    x = s.type(nm("X"))
    return s, [s.term(nm("s"), x, x) for _ in range(k)]


def word_term(s: Sig, nm: Names, letters: List[str]) -> str:
    """The composite applying letters[0] first, one marked step at a time."""
    cur = letters[0]
    for a in letters[1:]:
        cur = s.compose(nm("w"), a, cur)
    return cur


def endo_decorated(n: Dict[str, str], pure: bool = False) -> Sig:
    """A pure point e : U -> X and a self-map s, general unless pure."""
    s = Sig(decorated=True)
    u, x = s.unit(n["U"]), s.type(n["X"])
    s.term(n["e"], u, x, pure=True)
    s.term(n["s"], x, x, pure=pure)
    return s


def two_ops_decorated(n: Dict[str, str], pure: Tuple[str, ...] = ()) -> Sig:
    """Two self-maps f and g, general unless named in pure."""
    s = Sig(decorated=True)
    x = s.type(n["X"])
    s.term(n["f"], x, x, pure="f" in pure)
    s.term(n["g"], x, x, pure="g" in pure)
    return s


def decorated(nm: Names, kind: str) -> Sig:
    """The decorated corpus: endo, idempotent (endo with s . s = s) and
    two_ops."""
    n = {k: nm(k) for k in ("U", "X", "e", "s", "f", "g")}
    if kind == "two_ops":
        return two_ops_decorated(n)
    s = endo_decorated(n)
    if kind == "idempotent":
        s.eq(s.compose(nm("ss"), n["s"], n["s"]), n["s"])
    return s


def extension_count(kind: str, k: int) -> int:
    """Models of a decorated corpus spec extending a fixed pure part."""
    return {"endo": k ** k, "idempotent": O.count_idempotent_maps(k),
            "two_ops": k ** (2 * k)}[kind]


def full_count(kind: str, k: int) -> int:
    return {"endo": O.count_endo(k),
            "idempotent": k * O.count_idempotent_maps(k),
            "two_ops": O.count_two_ops(k)}[kind]


# ---------------------------------------------------------------------------
# Generation: every input from the seed
# ---------------------------------------------------------------------------

def _gen_prove(rng: random.Random, sigs: Dict[str, Sig], meta: dict) -> None:
    nm = Names(rng)
    for n in (4, 8, 16):
        s = Sig()
        x = s.type(nm("X"))
        a, b = s.term(nm("s"), x, x), s.term(nm("t"), x, x)
        s.eq(a, b)
        half = {1: a}
        m = 1
        while m < n:
            half[2 * m] = s.compose(nm("b"), half[m], half[m])
            m *= 2
        sigs[f"powers{n}"] = s
        meta[f"powers{n}"] = [(half[n], word_term(s, nm, [b] * n))]
    s = Sig()
    x, y = s.type(nm("X")), s.type(nm("Y"))
    f = s.term(nm("f"), x, y)
    ix, iy = s.identity(x, nm("id")), s.identity(y, nm("id"))
    a = s.compose(nm("a"), f, ix)
    b = s.compose(nm("b"), iy, f)
    c = s.compose(nm("c"), iy, a)
    sigs["identity"], meta["identity"] = s, [(a, f), (b, f), (c, f), (a, b)]
    s = Sig()
    x, y1, y2 = s.type(nm("X")), s.type(nm("Y1")), s.type(nm("Y2"))
    p = s.product(nm("P"), y1, y2, nm("p1"), nm("p2"))
    _p, p1, p2 = s.products[(y1, y2)]
    f, g, h = s.term(nm("f"), x, y1), s.term(nm("g"), x, y2), s.term(nm("h"), x, p)
    t = s.tuple(nm("t"), f, g)
    b1, b2 = s.compose(nm("b1"), p1, t), s.compose(nm("b2"), p2, t)
    e = s.tuple(nm("e"), s.compose(nm("a1"), p1, h), s.compose(nm("a2"), p2, h))
    sigs["products"], meta["products"] = s, [(b1, f), (b2, g), (e, h)]
    s = Sig()
    u, x, y = s.unit(nm("U")), s.type(nm("X")), s.type(nm("Y"))
    u1, u2 = s.term(nm("u1"), x, u), s.term(nm("u2"), x, u)
    tx = s.collapse(x, nm("tu"))
    f = s.term(nm("f"), y, x)
    v = s.compose(nm("v"), u1, f)
    ty = s.collapse(y, nm("tu"))
    sigs["terminal"], meta["terminal"] = s, [(u1, u2), (u1, tx), (v, ty)]
    s = Sig()
    u, x = s.unit(nm("U")), s.type(nm("X"))
    s.term(nm("e"), u, x)
    a = s.term(nm("s"), x, x)
    aa = s.compose(nm("ss"), a, a)
    s.eq(aa, a)
    a3 = s.compose(nm("s3"), a, aa)
    a4 = s.compose(nm("s4"), aa, aa)
    sigs["idempotent"], meta["idempotent"] = s, [(a3, a), (a4, aa), (a4, a)]
    for k in (1, 2, 3, 4):
        sigs[f"endo{k}"] = endo_family(nm, k)[0]
    meta["entail"] = _entailment_pairs(nm, sigs, positive=True)
    meta["ell"] = _ell_cases(nm, sigs)
    for name, s in corpus(nm).items():
        sigs[f"corpus_{name}"] = s


def _entailment_pairs(nm: Names, sigs: Dict[str, Sig], positive: bool) -> List[Tuple[str, str]]:
    """(source, target) file pairs; the target adds to the source."""
    out = []

    def pair(label, build):
        src, tgt = Sig(), Sig()
        build(src, False)
        build(tgt, True)
        sigs[f"{label}_src"], sigs[f"{label}_tgt"] = src, tgt
        out.append((f"{label}_src", f"{label}_tgt"))

    n = {k: nm(k) for k in ("X", "Y", "Y1", "Y2", "P", "f", "g", "h", "id",
                            "ff", "fg", "fff", "fff2", "a", "p1", "p2", "t", "b1")}
    if positive:
        def eq_lifts(s, big):                 # f = g entails f.f = g.f
            x = s.type(n["X"])
            s.term(n["f"], x, x), s.term(n["g"], x, x)
            s.eq(n["f"], n["g"])
            if big:
                s.eq(s.compose(n["ff"], n["f"], n["f"]), s.compose(n["fg"], n["g"], n["f"]))

        def assoc(s, big):                    # (f.f).f = f.(f.f)
            x = s.type(n["X"])
            s.term(n["f"], x, x)
            if big:
                ff = s.compose(n["ff"], n["f"], n["f"])
                s.eq(s.compose(n["fff"], n["f"], ff), s.compose(n["fff2"], ff, n["f"]))

        def unit_law(s, big):                 # f . id = f
            x, y = s.type(n["X"]), s.type(n["Y"])
            s.term(n["f"], x, y)
            s.identity(x, n["id"])
            if big:
                s.eq(s.compose(n["a"], n["f"], n["id"]), n["f"])

        def beta(s, big):                     # p1 . <f, g> = f
            x, y1, y2 = s.type(n["X"]), s.type(n["Y1"]), s.type(n["Y2"])
            s.product(n["P"], y1, y2, n["p1"], n["p2"])
            s.term(n["f"], x, y1), s.term(n["g"], x, y2)
            s.tuple(n["t"], n["f"], n["g"])
            if big:
                s.eq(s.compose(n["b1"], n["p1"], n["t"]), n["f"])

        for label, build in (("eq_lifts", eq_lifts), ("assoc", assoc),
                             ("unit_law", unit_law), ("beta", beta)):
            pair(f"pos_{label}", build)
    else:
        def new_equation(s, big):             # f = g does not follow
            x = s.type(n["X"])
            s.term(n["f"], x, x), s.term(n["g"], x, x)
            if big:
                s.eq(n["f"], n["g"])

        def not_idempotent(s, big):           # f . f = f does not follow
            x = s.type(n["X"])
            s.term(n["f"], x, x)
            s.compose(n["ff"], n["f"], n["f"])
            if big:
                s.eq(n["ff"], n["f"])

        def new_type(s, big):                 # a new type is not derivable
            x = s.type(n["X"])
            s.term(n["f"], x, x)
            if big:
                s.type(n["Y"])

        def new_term(s, big):                 # a new free term is not derivable
            x = s.type(n["X"])
            s.term(n["f"], x, x)
            if big:
                s.term(n["h"], x, x)

        for label, build in (("new_equation", new_equation),
                             ("not_idempotent", not_idempotent),
                             ("new_type", new_type), ("new_term", new_term)):
            pair(f"neg_{label}", build)
    return out


def _ell_cases(nm: Names, sigs: Dict[str, Sig]) -> list:
    """The eleven decorated spec morphisms of acceptance criterion 5, as
    (label, source file, target file, (type map, term map) or None for
    the identity on names)."""
    e = {k: nm(k) for k in ("U", "X", "e", "s")}
    r = {k: nm(k) for k in ("U", "X", "e", "s")}
    o = {k: nm(k) for k in ("X", "f", "g")}
    sigs["ell_endo"] = endo_decorated(e)
    sigs["ell_endo_pure"] = endo_decorated(e, pure=True)
    big = sigs["ell_endo_big"] = endo_decorated(e)
    big.term(nm("s2"), e["X"], e["X"])
    sigs["ell_idem"] = decorated(nm, "idempotent")
    sigs["ell_ren"] = endo_decorated(r)
    sigs["ell_ren_pure"] = endo_decorated(r, pure=True)
    sigs["ell_ops"] = two_ops_decorated(o)
    sigs["ell_ops_fpure"] = two_ops_decorated(o, ("f",))
    sigs["ell_ops_fgpure"] = two_ops_decorated(o, ("f", "g"))
    to_ren = ({e["U"]: r["U"], e["X"]: r["X"]}, {e["e"]: r["e"], e["s"]: r["s"]})
    return [
        ("identity_endo", "ell_endo", "ell_endo", None),
        ("identity_idempotent", "ell_idem", "ell_idem", None),
        ("identity_two_ops", "ell_ops", "ell_ops", None),
        ("renaming", "ell_endo", "ell_ren", to_ren),
        ("renaming_purity", "ell_endo", "ell_ren_pure", to_ren),
        ("purity_in_place", "ell_endo", "ell_endo_pure", None),
        ("two_ops_swap", "ell_ops", "ell_ops",
         ({o["X"]: o["X"]}, {o["f"]: o["g"], o["g"]: o["f"]})),
        ("two_ops_one_pure", "ell_ops", "ell_ops_fpure", None),
        ("two_ops_onto_endo", "ell_ops", "ell_endo",
         ({o["X"]: e["X"]}, {o["f"]: e["s"], o["g"]: e["s"]})),
        ("embedding", "ell_endo", "ell_endo_big", None),
        ("two_ops_both_pure", "ell_ops", "ell_ops_fgpure", None),
    ]


def _gen_refute(rng: random.Random, sigs: Dict[str, Sig], meta: dict) -> None:
    nm = Names(rng)
    pairs = []
    for k in (2, 3, 4):
        for depth in (2, 3):
            for i in range(2):
                while True:
                    s, gens = endo_family(nm, k)
                    w1 = [rng.choice(gens) for _ in range(3)]
                    w2 = [rng.choice(gens) for _ in range(3)]
                    if w1[0] == w2[0]:
                        continue          # no shared prefix: the term count is fixed
                    a, b = word_term(s, nm, w1), word_term(s, nm, w2)
                    if O.separating_model(s, a, b) is not None:
                        break             # distinct, and visibly so on carriers <= 2
                name = f"words_k{k}_d{depth}_{i}"
                sigs[name] = s
                pairs.append((name, a, b, depth))
    meta["words"] = pairs
    sigs["monoid_core"], meta["monoid_pairs"] = monoid_core(nm)
    meta["entail"] = _entailment_pairs(nm, sigs, positive=False)
    sigs["selfref"] = self_referential()


def _gen_search(rng: random.Random, sigs: Dict[str, Sig], meta: dict) -> None:
    nm = Names(rng)
    for name, s in corpus(nm).items():
        sigs[f"corpus_{name}"] = s
    for kind in ("endo", "idempotent", "two_ops"):
        sigs[f"dec_{kind}"] = decorated(nm, kind)
    meta["point"] = {k: rng.randrange(k) for k in (2, 3)}
    sigs["selfref"] = self_referential()


META_CHECK_SIZES = (6, 7, 8, 9, 10)


def _gen_cli(rng: random.Random, sigs: Dict[str, Sig], meta: dict) -> None:
    nm = Names(rng)
    for kind in ("endo", "idempotent", "two_ops"):
        sigs[f"dec_{kind}"] = decorated(nm, kind)
    sigs["monoid_core"] = monoid_core(nm)[0]
    for k in (1, 2, 3):
        sigs[f"endo{k}"] = endo_family(nm, k)[0]
    meta["entail_pos"] = _entailment_pairs(nm, sigs, positive=True)[0]
    meta["entail_neg"] = _entailment_pairs(nm, sigs, positive=False)[0]
    for n in META_CHECK_SIZES:
        s = Sig()
        x = s.type(nm("X"))
        for _ in range(n):
            s.term(nm("f"), x, x)
        sigs[f"parallel{n}"] = s
    meta["alpha"] = {"endo": rng.randrange(4), "two_ops": rng.randrange(16)}


GENERATORS = {"prove": _gen_prove, "refute": _gen_refute,
              "search": _gen_search, "cli": _gen_cli}


def generate(workload: str, seed: int, workdir: Path, E) -> Inputs:
    """Make the inputs, write the spec files and parse them."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = Inputs(workload, {})
    GENERATORS[workload](rng, inputs.sigs, inputs.meta)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, sig in inputs.sigs.items():
        path = workdir / f"{name}.spec"
        path.write_text(sig.text())
        inputs.paths[name] = str(path)
        inputs.docs[name] = E.dsl.parse(path.read_text())
    return inputs


# ---------------------------------------------------------------------------
# Checks shared by the operations
# ---------------------------------------------------------------------------

def input_problems(inputs: Inputs, E) -> List[str]:
    """The parser read what was written, and dump/parse round-trips."""
    out = []
    for name, doc in inputs.docs.items():
        sig, read = inputs.sigs[name], O.sig_of(doc.spec)
        if (sorted(sig.types), sig.terminal, sig.products, sig.terms, sig.identities,
                sig.collapsings, sig.compositions, sig.tuples, sig.pure) != (
                read.types, read.terminal, read.products, read.terms, read.identities,
                read.collapsings, read.compositions, read.tuples, doc.pure) or \
                sorted(tuple(sorted(e)) for e in sig.equations) != read.equations:
            out.append(f"{name}: parsed spec differs from the written one")
        back = E.dsl.parse(E.dsl.dump(doc))
        if not E.core.spec_equal(back.spec, doc.spec) or back.pure != doc.pure:
            out.append(f"{name}: parse(dump(x)) differs from x")
    return out


def check_state(v, want: str) -> Optional[str]:
    got = v.state.value
    return None if got == want else f"verdict {got}, expected {want}"


def check_countermodel(sig: Sig, a: str, b: str, v) -> Optional[str]:
    bad = check_state(v, "distinct-at-bound")
    if bad:
        return bad
    cm = v.countermodel
    errs = O.model_errors(sig, cm.carriers, cm.functions)
    if errs:
        return f"countermodel is not a model: {errs[0]}"
    if cm.functions[a] == cm.functions[b]:
        return f"countermodel does not separate {a} and {b}"
    return None


def check_models(sig: Sig, models, want: int) -> Optional[str]:
    if len(models) != want:
        return f"{len(models)} models, expected {want}"
    keys = set()
    for m in models:
        errs = O.model_errors(sig, m.carriers, m.functions)
        if errs:
            return f"not a model: {errs[0]}"
        keys.add(O.model_key(m.functions))
    if len(keys) != len(models):
        return "models repeat"
    return None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _ops_terms_equal(inputs: Inputs, E, name: str, pairs, depth: int, label: str) -> List[Op]:
    sig = inputs.sigs[name]
    spec = inputs.docs[name].spec
    norm = O.Normaliser(sig)
    ops = []
    for a, b in pairs:
        if norm.nf(a) != norm.nf(b) or not O.holds_in_small_models(sig, a, b):
            raise AssertionError(f"{name}: {a} = {b} is not proved and checked")
        ops.append(Op(f"{label}:{a}={b}",
                      lambda a=a, b=b: E.inference.terms_equal(spec, a, b, depth=depth),
                      lambda v: check_state(v, "equal")))
    return ops


def _ops_saturate(inputs: Inputs, E, k: int, depth: int) -> Op:
    spec = inputs.docs[f"endo{k}"].spec
    want_terms = O.saturated_endo_terms(k, depth)
    want_classes = O.endo_word_classes(k, 2 ** depth)

    def run():
        sat = E.inference.saturate(spec, depth)
        return sat, E.inference.congruence_classes(sat.spec)

    def check(res) -> Optional[str]:
        sat, uf = res
        if len(sat.spec.terms) != want_terms:
            return f"{len(sat.spec.terms)} terms, expected {want_terms}"
        sig = O.sig_of(sat.spec)
        norm = O.Normaliser(sig)
        by_class: Dict[str, set] = {}
        for t in sat.spec.terms:
            by_class.setdefault(O.uf_root(uf.parent, t), set()).add((sig.terms[t], norm.nf(t)))
        if any(len(v) != 1 for v in by_class.values()):
            return "a class holds terms with different normal forms"
        if len({next(iter(v)) for v in by_class.values()}) != len(by_class):
            return "equal normal forms in different classes"
        if len(by_class) != want_classes:
            return f"{len(by_class)} classes, expected {want_classes}"
        return None

    return Op(f"saturate:k{k}:d{depth}", run, check)


def _tau(E, inputs: Inputs, src: str, tgt: str):
    s1, s2 = inputs.docs[src].spec, inputs.docs[tgt].spec
    return E.core.SpecMorphism(s1, s2, {x: x for x in s1.types},
                               {t: t for t in s1.terms})


def _ops_entail_positive(inputs: Inputs, E) -> List[Op]:
    ops = []
    for src, tgt in inputs.meta["entail"]:
        s1, s2 = inputs.sigs[src], inputs.sigs[tgt]
        norm = O.Normaliser(s2, rules_from=s1)
        for a, b in s2.equations:
            if (a, b) not in s1.equations and norm.nf(a) != norm.nf(b):
                raise AssertionError(f"{tgt}: {a} = {b} does not follow")
        tau = _tau(E, inputs, src, tgt)
        ops.append(Op(f"entail:{src}", lambda tau=tau: E.inference.is_entailment(tau, depth=2),
                      lambda v: check_state(v, "equal")))
    return ops


def _ops_entail_negative(inputs: Inputs, E) -> List[Op]:
    ops = []
    for src, tgt in inputs.meta["entail"]:
        s1, s2 = inputs.sigs[src], inputs.sigs[tgt]
        tau = _tau(E, inputs, src, tgt)

        def check(v, s1=s1, s2=s2) -> Optional[str]:
            bad = check_state(v, "distinct-at-bound")
            if bad:
                return bad
            cm = v.countermodel
            carriers = {x: cm.carriers[x] for x in s1.types}
            fixed = {t: cm.functions[t] for t in s1.terms}
            errs = O.model_errors(s1, carriers, fixed)
            if errs:
                return f"countermodel is not a model of the source: {errs[0]}"
            if O.count_extensions(s1, s2, fixed, carriers) == 1:
                return "countermodel extends uniquely to the target"
            return None

        ops.append(Op(f"entail:{src}", lambda tau=tau: E.inference.is_entailment(tau, depth=2),
                      check))
    return ops


def _ops_ell(inputs: Inputs, E) -> List[Op]:
    ops = []
    for label, n1, n2, maps in inputs.meta["ell"]:
        d1, d2 = inputs.docs[n1].decorated(), inputs.docs[n2].decorated()
        if maps is None:
            maps = ({x: x for x in d1.base.types}, {t: t for t in d1.base.terms})
        u = E.core.SpecMorphism(d1.base, d2.base, dict(maps[0]), dict(maps[1]))
        ops.append(Op(f"ell_natural:{label}",
                      lambda d1=d1, d2=d2, u=u: E.parameterize.check_ell_natural(d1, d2, u, depth=4),
                      lambda ok: None if ok is True else "not natural"))
    return ops


# The generic figures of the six rules' hypotheses (eqsketch.yoneda).
RULE_TAGS = ("COMPOSITION", "IDENTITY", "BINARY_PRODUCT", "BINARY_TUPLE",
             "TERMINAL_TYPE", "COLLAPSING")


def rule_matches(tag: str, s: Sig):
    """(type map, term map, predicted new types, predicted new terms)."""
    cod = {t: c for t, (_d, c) in s.terms.items()}
    dom = {t: d for t, (d, _c) in s.terms.items()}
    if tag == "COMPOSITION":
        for f, g in itertools.product(sorted(s.terms), repeat=2):
            if cod[f] == dom[g]:
                yield ({"X": dom[f], "Y": cod[f], "Z": cod[g]}, {"f": f, "g": g},
                       0, 0 if (f, g) in s.compositions else 1)
    elif tag == "IDENTITY":
        for x in sorted(s.types):
            yield {"X": x}, {}, 0, 0 if x in s.identities else 1
    elif tag == "BINARY_PRODUCT":
        for y1, y2 in itertools.product(sorted(s.types), repeat=2):
            new = (y1, y2) not in s.products
            yield {"Y1": y1, "Y2": y2}, {}, int(new), 2 * new
    elif tag == "BINARY_TUPLE":
        for f, g in itertools.product(sorted(s.terms), repeat=2):
            if dom[f] != dom[g]:
                continue
            key = (cod[f], cod[g])
            new_types = new_terms = 0
            if key in s.products:
                _p, p1, p2 = s.products[key]
            else:
                new_types, new_terms, p1, p2 = 1, 2, None, None
            t = s.tuples.get((f, g))
            if t is None:
                new_terms += 3       # the tuple and its two projections
            else:
                new_terms += sum((t, p) not in s.compositions for p in (p1, p2))
            yield ({"X": dom[f], "Y1": key[0], "Y2": key[1]}, {"f": f, "g": g},
                   new_types, new_terms)
    elif tag == "TERMINAL_TYPE":
        yield {}, {}, int(s.terminal is None), 0
    else:
        for x in sorted(s.types):
            yield ({"X": x}, {}, int(s.terminal is None),
                   0 if x in s.collapsings else 1)


def embedding_problems(src: Sig, out: Sig, tmap: dict, mmap: dict) -> List[str]:
    """The map into the pushout is injective and keeps every mark."""
    errs = []
    if len(set(tmap.values())) != len(tmap) or len(set(mmap.values())) != len(mmap):
        errs.append("embedding is not injective")
    for x, i in src.identities.items():
        if out.identities.get(tmap[x]) != mmap[i]:
            errs.append("identity mark lost")
    for (f, g), c in src.compositions.items():
        if out.compositions.get((mmap[f], mmap[g])) != mmap[c]:
            errs.append("composition mark lost")
    for (f, g), t in src.tuples.items():
        if out.tuples.get((mmap[f], mmap[g])) != mmap[t]:
            errs.append("tuple mark lost")
    for (y1, y2), (p, p1, p2) in src.products.items():
        if out.products.get((tmap[y1], tmap[y2])) != (tmap[p], mmap[p1], mmap[p2]):
            errs.append("product mark lost")
    for x, c in src.collapsings.items():
        if out.collapsings.get(tmap[x]) != mmap[c]:
            errs.append("collapsing mark lost")
    eqs = {tuple(sorted(e)) for e in out.equations}
    for a, b in src.equations:
        if tuple(sorted((mmap[a], mmap[b]))) not in eqs:
            errs.append("equation lost")
    return errs


def _has_conclusion(tag: str, out: Sig, tm: dict, mm: dict, img_t: dict, img_m: dict):
    if tag == "COMPOSITION":
        return (img_m[mm["f"]], img_m[mm["g"]]) in out.compositions
    if tag == "IDENTITY":
        return img_t[tm["X"]] in out.identities
    if tag == "BINARY_PRODUCT":
        return (img_t[tm["Y1"]], img_t[tm["Y2"]]) in out.products
    if tag == "BINARY_TUPLE":
        return (img_m[mm["f"]], img_m[mm["g"]]) in out.tuples
    if tag == "TERMINAL_TYPE":
        return out.terminal is not None
    return img_t[tm["X"]] in out.collapsings


def _ops_apply_rule(inputs: Inputs, E) -> List[Op]:
    corpus_names = sorted(n for n in inputs.sigs if n.startswith("corpus_"))
    ops = []
    for tag in RULE_TAGS:
        jobs = []
        for name in corpus_names:
            sig, spec = inputs.sigs[name], inputs.docs[name].spec
            for tm, mm, d_types, d_terms in rule_matches(tag, sig):
                jobs.append((sig, spec, tm, mm, d_types, d_terms))

        def run(tag=tag, jobs=jobs):
            r = E.inference.rule(getattr(E.inference.RuleTag, tag))
            return [E.inference.apply_rule(r, spec, E.core.SpecMorphism(r.hypothesis, spec, tm, mm))
                    for (_sig, spec, tm, mm, _a, _b) in jobs]

        def check(results, tag=tag, jobs=jobs) -> Optional[str]:
            for (sig, _spec, tm, mm, d_types, d_terms), (out, emb) in zip(jobs, results):
                res = O.sig_of(out)
                if (len(res.types) - len(sig.types), len(res.terms) - len(sig.terms)) != (d_types, d_terms):
                    return f"{tag} at {tm} {mm}: unexpected growth"
                errs = embedding_problems(sig, res, emb.type_map, emb.term_map)
                if errs:
                    return f"{tag} at {tm} {mm}: {errs[0]}"
                if not _has_conclusion(tag, res, tm, mm, emb.type_map, emb.term_map):
                    return f"{tag} at {tm} {mm}: conclusion missing"
            return None if len(results) == len(jobs) else "missing results"

        ops.append(Op(f"apply_rule:{tag.lower()}:{len(jobs)}", run, check))
    return ops


def ops_prove(inputs: Inputs, E) -> List[Op]:
    ops = []
    for n in (4, 8, 16):
        ops += _ops_terms_equal(inputs, E, f"powers{n}", inputs.meta[f"powers{n}"], 2, f"powers{n}")
    for name in ("identity", "products", "terminal", "idempotent"):
        ops += _ops_terms_equal(inputs, E, name, inputs.meta[name], 3, name)
    ops += [_ops_saturate(inputs, E, k, 2) for k in (1, 2, 3, 4)]
    ops += _ops_entail_positive(inputs, E)
    ops += _ops_ell(inputs, E)
    ops += _ops_apply_rule(inputs, E)
    return ops


def _distinct_op(E, label: str, sig: Sig, spec, a: str, b: str, depth: int,
                 known_fault: bool = False) -> Op:
    """terms_equal on a pair that the normaliser keeps apart and a model on
    at most 2 elements separates."""
    if O.Normaliser(sig).nf(a) == O.Normaliser(sig).nf(b) or O.separating_model(sig, a, b) is None:
        raise AssertionError(f"{label}: {a} and {b} are not visibly distinct")
    return Op(f"distinct:{label}",
              lambda: E.inference.terms_equal(spec, a, b, depth=depth),
              lambda v: check_countermodel(sig, a, b, v), known_fault)


def ops_refute(inputs: Inputs, E) -> List[Op]:
    S, D = inputs.sigs, inputs.docs
    ops = [_distinct_op(E, name, S[name], D[name].spec, a, b, depth)
           for name, a, b, depth in inputs.meta["words"]]
    ops += [_distinct_op(E, f"monoid_core:{a}={b}", S["monoid_core"], D["monoid_core"].spec, a, b, 3)
            for a, b in inputs.meta["monoid_pairs"]]
    ops += _ops_entail_negative(inputs, E)
    ops.append(_distinct_op(E, "selfref", S["selfref"], D["selfref"].spec, "g", "c", 2,
                            known_fault=True))
    return ops


def _point_model(E, k: int, kind: str, sig: Sig, point: int):
    """The fixed pure part m0: e picks the seeded point; two_ops has none."""
    X = tuple(range(k))
    x = sig.base_types()[0]
    if kind == "two_ops":
        return E.models.FiniteModel({x: X}, {}), {x: X}
    e = [t for t in sig.terms if sig.terms[t][0] == sig.terminal][0]
    return (E.models.FiniteModel({sig.terminal: (O.UNIT,), x: X}, {e: {O.UNIT: point}}),
            {x: X})


def ops_search(inputs: Inputs, E) -> List[Op]:
    S, D = inputs.sigs, inputs.docs
    ops = []
    ladders = [(n, lambda k, c=n[len("corpus_"):]: corpus_count(c, k))
               for n in sorted(S) if n.startswith("corpus_")]
    ladders += [(f"dec_{kind}", lambda k, kind=kind: full_count(kind, k))
                for kind in ("idempotent", "two_ops")]
    for name, count in ladders:
        sig, spec = S[name], D[name].spec
        for k in (1, 2, 3):
            base = {x: tuple(range(k)) for x in sig.base_types()}
            ops.append(Op(f"enumerate:{name}:{k}",
                          lambda spec=spec, base=base: E.models.enumerate_models(spec, base),
                          lambda ms, sig=sig, want=count(k): check_models(sig, ms, want)))
    sig, spec = S["selfref"], D["selfref"].spec
    want = self_referential_count(2)
    if len(O.models_of(sig, {"X": (0, 1)})) != want:
        raise AssertionError("selfref: brute force disagrees with the count")
    ops.append(Op("enumerate:selfref:2",
                  lambda: E.models.enumerate_models(spec, {"X": (0, 1)}),
                  lambda ms: check_models(sig, ms, want), known_fault=True))
    records = {}
    for kind in ("endo", "idempotent", "two_ops"):
        sig, d = S[f"dec_{kind}"], D[f"dec_{kind}"].decorated()
        par = E.parameterize.parameterize(d)
        par_sig = O.sig_of(par.spec.base)
        for k in (2, 3):
            m0, base = _point_model(E, k, kind, sig, inputs.meta["point"][k])
            m_a, _exts = E.models.terminal_model(d, m0, base, par=par)
            records[(kind, k)] = d, par, m0, base, m_a
            want = extension_count(kind, k)
            ops.append(Op(f"exact:{kind}:{k}",
                          lambda d=d, m0=m0, base=base: E.models.exactness_check(d, m0, base),
                          lambda rep, want=want: _check_exactness(rep, want)))
            ops.append(Op(f"terminal_model:{kind}:{k}",
                          lambda d=d, m0=m0, base=base: E.models.terminal_model(d, m0, base),
                          lambda res, sig=sig, par_sig=par_sig, m0=m0, want=want:
                          _check_terminal_model(sig, par_sig, m0, res, want)))
            alphas = m_a.carriers[par.spec.parameter_type]
            ops.append(Op(f"pass_parameter:{kind}:{k}",
                          lambda d=d, par=par, m_a=m_a, alphas=alphas:
                          [E.models.pass_parameter(d, par, m_a, a) for a in alphas],
                          lambda ms, sig=sig, m0=m0, want=want: _check_passed(sig, m0, ms, want)))
    for kind, k, bound in (("endo", 2, 1), ("endo", 2, 2), ("endo", 3, 1),
                           ("idempotent", 2, 1), ("idempotent", 2, 2),
                           ("idempotent", 3, 1), ("idempotent", 3, 2),
                           ("two_ops", 2, 1), ("two_ops", 2, 2)):
        d, par, m0, base, m_a = records[(kind, k)]
        ops.append(Op(f"is_terminal:{kind}:{k}:b{bound}",
                      lambda d=d, m_a=m_a, m0=m0, base=base, bound=bound, par=par:
                      E.models.is_terminal(d, m_a, m0, base, bound=bound, par=par),
                      lambda ok: None if ok is True else "not terminal"))
    return ops


def _check_exactness(rep, want: int) -> Optional[str]:
    if (rep.parameter_count, rep.model_count) != (want, want):
        return f"{rep.parameter_count} = {rep.model_count}, expected {want} = {want}"
    idx = [i for _a, i in rep.bijection]
    if not rep.exact or sorted(idx) != list(range(want)):
        return "parameters are not in bijection with the models"
    return None


def _extends(m0, fn: Dict[str, dict]) -> bool:
    return all(fn[t] == tab for t, tab in m0.functions.items())


def _check_terminal_model(sig: Sig, par_sig: Sig, m0, res, want: int) -> Optional[str]:
    m_a, exts = res
    bad = check_models(sig, exts, want)
    if bad:
        return f"extensions: {bad}"
    if not all(_extends(m0, m.functions) for m in exts):
        return "an extension does not extend m0"
    errs = O.model_errors(par_sig, m_a.carriers, m_a.functions)
    return f"record model: {errs[0]}" if errs else None


def _check_passed(sig: Sig, m0, ms, want: int) -> Optional[str]:
    bad = check_models(sig, ms, want)
    if bad:
        return bad
    return None if all(_extends(m0, m.functions) for m in ms) else "pure part not kept"


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------

def run_cli(E, argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = E.cli.main(list(argv))
    return rc, out.getvalue()


def parse_models(text: str) -> List[Tuple[Dict[str, tuple], Dict[str, dict]]]:
    """The carriers and tables of every ``model:`` block in CLI text output."""
    models: List[Tuple[Dict[str, tuple], Dict[str, dict]]] = []
    for line in text.splitlines():
        if line.startswith("model: "):
            models.append(({}, {}))
        elif line.startswith("carrier ") and models:
            name, _sep, vals = line[len("carrier "):].partition(":")
            models[-1][0][name] = tuple(ast.literal_eval(v) for v in _ELEMENT.findall(vals))
        elif line.startswith("table ") and models:
            name, cells = line[len("table "):].split(": ", 1)
            models[-1][1][name] = ast.literal_eval("{" + cells.replace(" |-> ", ": ") + "}")
    return models


_ELEMENT = re.compile(r"\([^()]*\)|[^\s()]+")


def _spec_output_problem(E, text: str, skip: Tuple[str, ...]) -> Tuple[Optional[str], object]:
    """The spec part of a command's output re-parses and validates."""
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith(skip))
    try:
        doc = E.dsl.parse(body)
    except E.errors.EqsketchError as exc:
        return f"output does not re-parse: {exc}", None
    errs = E.core.validate(doc.spec)
    return (f"output does not validate: {errs[0]}" if errs else None), doc


def ops_cli(inputs: Inputs, E) -> List[Op]:
    P, S = inputs.paths, inputs.sigs
    ops: List[Op] = []

    def add(label, argv, check):
        ops.append(Op(f"cli:{label}", lambda argv=argv: run_cli(E, argv), check))

    def expect(rc, first=None, last=None, has=None):
        def check(res):
            got_rc, text = res
            lines = text.splitlines()
            if got_rc != rc:
                return f"exit {got_rc}, expected {rc}"
            if first is not None and (not lines or lines[0] != first):
                return f"first line {lines[:1]}, expected {first!r}"
            if last is not None and (not lines or lines[-1] != last):
                return f"last line {lines[-1:]}, expected {last!r}"
            if has is not None and has not in lines:
                return f"missing line {has!r}"
            return None
        return check

    for name in ("dec_endo", "monoid_core"):
        add(f"validate:{name}", ["validate", P[name]], expect(0, first=f"{P[name]}: ok"))
    for kind in ("endo", "idempotent"):
        name = f"dec_{kind}"
        general = set(S[name].terms) - S[name].pure

        def check_param(res, general=general):
            bad = expect(0)(res)
            if bad:
                return bad
            bad, doc = _spec_output_problem(E, res[1], ("lift ",))
            if bad:
                return bad
            lifts = dict(ln[len("lift "):].split(": ") for ln in res[1].splitlines()
                         if ln.startswith("lift "))
            if not general <= set(lifts) or any(t not in doc.spec.terms for t in lifts.values()):
                return "lift lines do not name the primed terms"
            return None
        add(f"param:{kind}", ["param", P[name]], check_param)
    for kind in ("endo", "two_ops"):
        name = f"dec_{kind}"

        def check_ell(res, terms=set(S[name].terms)):
            bad = expect(0)(res)
            if bad:
                return bad
            bad, doc = _spec_output_problem(E, res[1], ("map ",))
            if bad:
                return bad
            images = {ln[4:].split(": ")[0]: ln.split(": ")[1]
                      for ln in res[1].splitlines() if ln.startswith("map ")}
            if not terms <= set(images) or any(v not in doc.spec.terms for v in images.values()):
                return "map lines do not cover the terms"
            return None
        add(f"ell:{kind}", ["ell", P[name]], check_ell)
    src, tgt = inputs.meta["entail_pos"]
    add("entail:positive", ["entail", P[src], P[tgt], "--depth", "2"],
        expect(0, first="entailment: equal"))
    src, tgt = inputs.meta["entail_neg"]

    def check_neg(res, s1=S[src], s2=S[tgt]):
        bad = expect(1, first="entailment: distinct-at-bound")(res)
        if bad:
            return bad
        ((carriers, cm),) = parse_models(res[1])
        fixed = {t: cm[t] for t in s1.terms}
        errs = O.model_errors(s1, carriers, fixed)
        if errs:
            return f"countermodel: {errs[0]}"
        return None if O.count_extensions(s1, s2, fixed, carriers) != 1 else "countermodel extends"
    add("entail:negative", ["entail", P[src], P[tgt], "--depth", "2"], check_neg)
    for kind in ("endo", "two_ops"):
        name = f"dec_{kind}"
        alpha = inputs.meta["alpha"][kind]
        x = S[name].base_types()[0]

        def check_pass(res, sig=S[name], x=x):
            bad = expect(0, last="model check: ok")(res)
            if bad:
                return bad
            ((carriers, fn),) = parse_models(res[1])
            if carriers != O.derived_carriers(sig, {x: (0, 1)}):
                return "passed model has other carriers"
            errs = O.model_errors(sig, carriers, fn)
            return f"passed model: {errs[0]}" if errs else None
        add(f"pass:{kind}", ["pass", P[name], f"--{x}=2", "--alpha", str(alpha)], check_pass)
    for kind, k in (("endo", 2), ("idempotent", 3), ("two_ops", 2)):
        name = f"dec_{kind}"
        x = S[name].base_types()[0]
        n = extension_count(kind, k)
        add(f"exact:{kind}:{k}", ["exact", P[name], f"--{x}={k}"],
            expect(0, first=f"exactness: {n} = {n} bijection"))
    for k in (1, 2, 3):
        want = O.saturated_endo_terms(k, 2)

        def check_sat(res, want=want):
            bad = expect(0)(res)
            if bad:
                return bad
            bad, doc = _spec_output_problem(E, res[1], ())
            if bad:
                return bad
            return None if len(doc.spec.terms) == want else f"{len(doc.spec.terms)} terms, expected {want}"
        add(f"saturate:endo{k}", ["saturate", P[f"endo{k}"], "--depth", "2"], check_sat)
    for name, kind, k in (("monoid_core", None, 2), ("dec_endo", "endo", 3)):
        sig = S[name]
        x = sig.base_types()[0]
        want = O.count_unital_magmas(k) if kind is None else full_count(kind, k)

        def check_models_out(res, sig=sig, x=x, k=k, want=want):
            bad = expect(0, first=f"models: {want}")(res)
            if bad:
                return bad
            ms = parse_models(res[1])
            carriers = O.derived_carriers(sig, {x: tuple(range(k))})
            if len(ms) != want or len({O.model_key(fn) for _c, fn in ms}) != want:
                return "models listed do not match the count"
            for listed, fn in ms:
                if listed != carriers:
                    return "listed model has other carriers"
                errs = O.model_errors(sig, carriers, fn)
                if errs:
                    return f"listed model: {errs[0]}"
            return None
        add(f"models:{name}:{k}", ["models", P[name], f"--{x}={k}"], check_models_out)
    for kind in ("endo", "two_ops"):
        name = f"dec_{kind}"
        x = S[name].base_types()[0]
        add(f"terminal:{kind}:2", ["terminal", P[name], f"--{x}=2", "--bound", "2"],
            expect(0, first=f"parameter carrier size: {extension_count(kind, 2)}",
                   last="terminal at bound 2: yes"))
    for n in META_CHECK_SIZES:
        path = P[f"parallel{n}"]
        add(f"meta_check:{n}", ["meta-check", path], expect(0, has=f"realization {path}: ok"))
    return ops


OPERATIONS = {"prove": ops_prove, "refute": ops_refute,
              "search": ops_search, "cli": ops_cli}


def operations(inputs: Inputs, E) -> List[Op]:
    return OPERATIONS[inputs.workload](inputs, E)
