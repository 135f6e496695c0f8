"""Parameterization: from a decorated specification to one with a
distinguished parameter type A, and parameter passing.

Types and pure terms are kept as they are; every general term
f: X -> Y is replaced by f': A*X -> Y.  The lift (written ``sharp``
below) sends a general f to f' and a pure f to the composite
f . eps_X, where proj_X: A*X -> A and eps_X: A*X -> X are the
projections of the on-demand product A*X.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import (MARK_KINDS, TERM, TYPE, RuleTag, Specification,
                   SpecMorphism, TermName, TypeName, fresh_name)
from .decorate import (DecoratedSpecification, pure_part, purify, undecorate,
                       validate_decorated)
from .errors import PurityViolation


@dataclass
class ParameterizedSpecification:
    base: Specification
    parameter_type: TypeName


@dataclass
class ParameterizedSpecificationWithConstant:
    base: ParameterizedSpecification
    parameter_constant: TermName


# ---------------------------------------------------------------------------
# ensure-helpers: the one executable form of the six structural rules.
# Each adds a derived feature to a mutable spec, reusing the existing mark
# when the site is already filled, and returns the results of the mark of
# its kind in ``core.MARK_KINDS`` (a lone result bare).  On a match, each
# gives a spec isomorphic to the pushout of ``inference.rule(tag)`` (for
# the tuple rule, up to the projection laws that ``congruence_classes``
# builds in).  Their callers: ``inference.saturate``, ``_make_marks``
# through its map ``_ENSURE`` from each kind to its helper (for
# ``inference.is_entailment`` and ``parameterize_morphism``),
# ``parameterize``, ``_with_constant`` (for ``ell`` and
# ``check_ell_natural``) and the DSL's elaboration of composite
# expressions.  Fresh names are taken against the spec itself, which is
# the live set of its names.
# ---------------------------------------------------------------------------

def ensure_identity(s: Specification, x: TypeName) -> TermName:
    if x in s.identities:
        return s.identities[x]
    n = fresh_name(f"id_{x}", s)
    s.add_term(n, x, x)
    s.identities[x] = n
    return n


def ensure_terminal(s: Specification) -> TypeName:
    if s.terminal is None:
        u = fresh_name("One", s)
        s.add_type(u)
        s.terminal = u
    return s.terminal


def ensure_collapse(s: Specification, x: TypeName) -> TermName:
    if x in s.collapsings:
        return s.collapsings[x]
    u = ensure_terminal(s)
    n = fresh_name(f"tu_{x}", s)
    s.add_term(n, x, u)
    s.collapsings[x] = n
    return n


def ensure_product(s: Specification, y1: TypeName, y2: TypeName,
                   names: Optional[Tuple[str, str, str]] = None
                   ) -> Tuple[TypeName, TermName, TermName]:
    if (y1, y2) in s.products:
        return s.products[(y1, y2)]
    hint_p, hint_1, hint_2 = names or (f"{y1}*{y2}", f"p1_{y1}*{y2}", f"p2_{y1}*{y2}")
    p = fresh_name(hint_p, s)
    s.add_type(p)
    p1 = fresh_name(hint_1, s)
    s.add_term(p1, p, y1)
    p2 = fresh_name(hint_2, s)
    s.add_term(p2, p, y2)
    s.products[(y1, y2)] = (p, p1, p2)
    return (p, p1, p2)


def ensure_comp(s: Specification, f: TermName, g: TermName) -> TermName:
    """The marked composite g . f (first f, then g)."""
    if (f, g) in s.compositions:
        return s.compositions[(f, g)]
    n = fresh_name(f"{g}_o_{f}", s)
    s.add_term(n, s.terms[f].dom, s.terms[g].cod)
    s.compositions[(f, g)] = n
    return n


def ensure_tuple(s: Specification, f: TermName, g: TermName) -> TermName:
    if (f, g) in s.tuples:
        return s.tuples[(f, g)]
    p, _1, _2 = ensure_product(s, s.terms[f].cod, s.terms[g].cod)
    n = fresh_name(f"pair_{f}_{g}", s)
    s.add_term(n, s.terms[f].dom, p)
    s.tuples[(f, g)] = n
    return n


# the ensure-helper that makes the results of each kind of mark
_ENSURE = {RuleTag.IDENTITY: ensure_identity, RuleTag.COMPOSITION: ensure_comp,
           RuleTag.BINARY_PRODUCT: ensure_product, RuleTag.BINARY_TUPLE: ensure_tuple,
           RuleTag.TERMINAL_TYPE: ensure_terminal, RuleTag.COLLAPSING: ensure_collapse}


def _make_marks(marks: List[Tuple[RuleTag, tuple, tuple]],
                phi: Dict[str, Dict[str, str]], target: Specification
                ) -> List[Optional[tuple]]:
    """Make each mark (tag, arguments, results) in ``target`` once ``phi``,
    a map of each sort into ``target``, maps its arguments: in rounds,
    since marks may chain.  A result that ``phi`` lacks is mapped to what
    the first mark naming it makes.  Returns the results each mark made,
    None for a mark whose arguments were never mapped."""
    namer: Dict[Tuple[str, str], int] = {}
    for n, (tag, _args, results) in enumerate(marks):
        for name in zip(MARK_KINDS[tag].results, results):
            namer.setdefault(name, n)
    made: List[Optional[tuple]] = [None] * len(marks)
    progress = True
    while progress:
        progress = False
        for n, (tag, args, results) in enumerate(marks):
            kind = MARK_KINDS[tag]
            if made[n] is None and all(a in phi[kind.args] for a in args):
                out = _ENSURE[tag](target, *(phi[kind.args][a] for a in args))
                made[n] = out if isinstance(out, tuple) else (out,)
                for sort, r, m in zip(kind.results, results, made[n]):
                    if namer[sort, r] == n:
                        phi[sort].setdefault(r, m)
                progress = True
    return made


def _keep_marks(s: Specification, phi: Dict[str, Dict[str, str]],
                target: Specification) -> None:
    """Keep the marks and equations of s on their images under ``phi``, a
    map of each sort into ``target``: mark each image site that has no
    mark, or equate the term results with those of the mark already
    there; and equate the images of each equation."""
    for kind in MARK_KINDS.values():
        for args, results in kind.marks(s):
            site, want = kind.image(phi, args, results)
            if kind.get(target, site) is None:
                kind.set(target, site, want)
            for sort, a, b in zip(kind.results, kind.get(target, site), want):
                if sort == TERM:
                    target.add_equation(a, b)
    for (t1, t2) in s.equations:
        target.add_equation(phi[TERM][t1], phi[TERM][t2])


# ---------------------------------------------------------------------------
# The embeddings
# ---------------------------------------------------------------------------

def embed_A(s: Specification) -> ParameterizedSpecification:
    """View a plain specification as parameterized: adjoin one fresh
    parameter type, altering nothing else."""
    out = s.copy()
    a = fresh_name("A", out)
    out.add_type(a)
    return ParameterizedSpecification(out, a)


def embed_a(p: ParameterizedSpecification) -> ParameterizedSpecificationWithConstant:
    """Adjoin a constant a: 1 -> A of the parameter type (and a terminal
    type when there is none)."""
    out = p.base.copy()
    u = ensure_terminal(out)
    a = fresh_name("a", out)
    out.add_term(a, u, p.parameter_type)
    return ParameterizedSpecificationWithConstant(
        ParameterizedSpecification(out, p.parameter_type), a)


# ---------------------------------------------------------------------------
# The parameterization translation
# ---------------------------------------------------------------------------

@dataclass
class Parameterization:
    source: DecoratedSpecification
    spec: ParameterizedSpecification
    lift: Dict[TermName, TermName]

    def __iter__(self) -> Iterator:
        # supports the two-view calling convention: spec, lift = parameterize(d)
        yield self.spec
        yield self.lift


def _aprod(spec: Specification, a: TypeName, x: TypeName
           ) -> Tuple[TypeName, TermName, TermName]:
    """A*X with its projections proj_X and eps_X."""
    return ensure_product(spec, a, x, (f"{a}*{x}", f"proj_{x}", f"eps_{x}"))


def _sharp(spec: Specification, a: TypeName, d: DecoratedSpecification,
           lift: Dict[TermName, TermName], t: TermName) -> TermName:
    """The lift of a term of the decorated base: f' when general,
    f . eps_X when pure."""
    if t in lift:
        return lift[t]
    dom = d.base.terms[t].dom
    _p, _proj, eps = _aprod(spec, a, dom)
    c = ensure_comp(spec, eps, t)
    lift[t] = c
    return c


def parameterize(d: DecoratedSpecification) -> Parameterization:
    """Replace every general feature by a parameterized one.

    Pure content is copied unchanged.  Each general f: X -> Y becomes a
    fresh f': A*X -> Y; a general composition mark g.f = c becomes the
    mark g# . <proj_X, f#> = c' and a general pairing mark <f,g> = t
    becomes <f#, g#> = t'; equations are lifted componentwise.
    """
    errs = validate_decorated(d)
    if errs:
        raise ValueError("parameterize requires a valid decorated input: " + errs[0])
    base = d.base
    p = pure_part(d)
    a = fresh_name("A", base)
    p.add_type(a)
    lift: Dict[TermName, TermName] = {}
    for f in sorted(d.general_terms()):
        dom, cod = base.terms[f].dom, base.terms[f].cod
        prod, _proj, _eps = _aprod(p, a, dom)
        prime = fresh_name(f + "'", p)
        p.add_term(prime, prod, cod)
        lift[f] = prime

    def sharp(t: TermName) -> TermName:
        return _sharp(p, a, d, lift, t)

    # a lifted result is marked once, then equated: a pure c lifts to the
    # composite c . eps_X, and a fresh c' or t' only this loop can mark
    marked = set()
    for (f, g), c in sorted(base.compositions.items()):
        if d.is_pure(f) and d.is_pure(g) and d.is_pure(c):
            continue
        x = base.terms[f].dom
        y = base.terms[g].dom
        _px, proj_x, _epsx = _aprod(p, a, x)
        fs, gs = sharp(f), sharp(g)
        _aprod(p, a, y)
        w = ensure_tuple(p, proj_x, fs)   # <proj_X, f#>: A*X -> A*Y
        cs = sharp(c)
        if (w, gs) not in p.compositions and not d.is_pure(c) and cs not in marked:
            p.compositions[(w, gs)] = cs
            marked.add(cs)
        else:
            p.add_equation(ensure_comp(p, w, gs), cs)
    marked = set()
    for (f, g), t in sorted(base.tuples.items()):
        if d.is_pure(f) and d.is_pure(g) and d.is_pure(t):
            continue
        fs, gs = sharp(f), sharp(g)
        ts = sharp(t)
        if (fs, gs) not in p.tuples and ts not in marked:
            p.tuples[(fs, gs)] = ts
            marked.add(ts)
        else:
            p.add_equation(ensure_tuple(p, fs, gs), ts)
    for (t1, t2) in sorted(base.equations):
        if d.is_pure(t1) and d.is_pure(t2):
            continue
        p.add_equation(sharp(t1), sharp(t2))
    return Parameterization(d, ParameterizedSpecification(p, a), lift)


def _check_keeps_purity(d1: DecoratedSpecification, d2: DecoratedSpecification,
                        u: SpecMorphism) -> None:
    """``PurityViolation`` unless u sends every pure term of d1 to a pure term."""
    for t in d1.base.terms:
        if d1.is_pure(t) and not d2.is_pure(u.term_map[t]):
            raise PurityViolation(f"{t} is pure but its image {u.term_map[t]} is not")


def parameterize_morphism(d1: DecoratedSpecification, d2: DecoratedSpecification,
                          u: SpecMorphism,
                          par1: Optional[Parameterization] = None,
                          par2: Optional[Parameterization] = None) -> SpecMorphism:
    """The induced morphism between parameterization outputs; the target
    may be extended by sharps of pure images on demand, and by p1's marks
    and equations kept on their images."""
    _check_keeps_purity(d1, d2, u)
    par1 = par1 or parameterize(d1)
    par2 = par2 or parameterize(d2)
    p1 = par1.spec.base
    p2 = par2.spec.base.copy()
    a1, a2 = par1.spec.parameter_type, par2.spec.parameter_type
    type_map: Dict[TypeName, TypeName] = {x: u.type_map[x] for x in d1.base.types}
    type_map[a1] = a2
    term_map: Dict[TermName, TermName] = {t: u.term_map[t] for t in d1.base.terms
                                          if d1.is_pure(t)}
    # A*X goes to A*u(X) and every lift f# to u(f)#, so that proj_X, eps_X
    # and the lifts keep their names in the target
    for (y, x), (prod, proj, eps) in p1.products.items():
        if y == a1:
            type_map[prod], term_map[proj], term_map[eps] = _aprod(p2, a2, type_map[x])
    lift2 = dict(par2.lift)
    for f, fs in par1.lift.items():
        term_map[fs] = _sharp(p2, a2, d2, lift2, u.term_map[f])
    # the rest of p1 (pair tuples, glue composites) from its marks
    phi = {TYPE: type_map, TERM: term_map}
    _make_marks([(tag, args, results) for tag, kind in MARK_KINDS.items()
                 for args, results in kind.marks(p1)
                 if any(r not in phi[sort] for sort, r in zip(kind.results, results))],
                phi, p2)
    _keep_marks(p1, phi, p2)
    return SpecMorphism(p1, p2, type_map, term_map)


# ---------------------------------------------------------------------------
# Theorem-style checks
# ---------------------------------------------------------------------------

def check_param_restricts_to_embed(s: Specification) -> bool:
    """Parameterizing the all-pure decoration of s must give exactly s
    plus a parameter type, name for name: the translation restricts to
    the plain embedding on pure content."""
    return parameterize(purify(s)).spec == embed_A(s)


# ---------------------------------------------------------------------------
# Parameter passing
# ---------------------------------------------------------------------------

@dataclass
class EllResult:
    """Substituting the distinguished constant for the parameter slot.

    ``morphism`` maps the plain specification (with a adjoined) into an
    extension of the parameterized one; ``extension`` is the inclusion of
    the parameterized specification into that extension.
    """
    morphism: SpecMorphism
    extension: SpecMorphism
    parameterization: Parameterization
    constant: TermName

    @property
    def source(self) -> Specification:
        return self.morphism.source

    @property
    def target(self) -> Specification:
        return self.morphism.target


def _with_constant(ext: Specification, a: TermName, x: TypeName,
                   fs: TermName) -> TermName:
    """fs . <a.tu_X, id_X>: the parameterized fs: A*X -> Y with the
    constant a: 1 -> A passed for its parameter."""
    idx = ensure_identity(ext, x)
    tux = ensure_collapse(ext, x)
    ax = ensure_comp(ext, tux, a)          # a . tu_X : X -> A
    w = ensure_tuple(ext, ax, idx)         # <a.tu_X, id_X>: X -> A*X
    return ensure_comp(ext, w, fs)


def ell(d: DecoratedSpecification,
        par: Optional[Parameterization] = None) -> EllResult:
    """Parameter passing: pure terms are untouched; a general f: X -> Y
    goes to f' . <a.tu_X, id_X> (the tuple plays <a, id_X> once 1*X is
    identified with X)."""
    base = undecorate(d)
    if par is None:
        par = parameterize(d)
    src_pc = embed_a(embed_A(base))
    src = src_pc.base.base
    tgt_pc = embed_a(par.spec)
    tgt0 = tgt_pc.base.base
    a_const = tgt_pc.parameter_constant
    ext = tgt0.copy()

    type_map: Dict[TypeName, TypeName] = {x: x for x in base.types}
    type_map[src_pc.base.parameter_type] = par.spec.parameter_type
    type_map[src.terminal] = ext.terminal
    term_map: Dict[TermName, TermName] = {src_pc.parameter_constant: a_const}

    for f in sorted(base.terms):
        if d.is_pure(f):
            term_map[f] = f
        else:
            term_map[f] = _with_constant(ext, a_const, base.terms[f].dom, par.lift[f])
    _keep_marks(base, {TYPE: type_map, TERM: term_map}, ext)

    morph = SpecMorphism(src, ext, type_map, term_map)
    incl = SpecMorphism(tgt0, ext, {x: x for x in tgt0.types},
                        {t: t for t in tgt0.terms})
    return EllResult(morph, incl, par, a_const)


def check_ell_natural(d1: DecoratedSpecification, d2: DecoratedSpecification,
                      u: SpecMorphism, depth: int = 4) -> bool:
    """Does substituting the parameter commute with translating along u?

    Both composites around the square are evaluated on every generator of
    d1's base; images are compared with terms_equal inside an extension of
    the parameterized target."""
    from .inference import TriState, terms_equal
    _check_keeps_purity(d1, d2, u)
    par2 = parameterize(d2)
    e2 = ell(d2, par=par2)
    ext = e2.target.copy()
    a2 = par2.spec.parameter_type
    lift2 = dict(par2.lift)
    for f in sorted(d1.base.terms):
        uf = u.term_map[f]
        path_a = e2.morphism.term_map[uf]
        if d1.is_pure(f):
            path_b = uf                      # both legs act as the identity
        else:
            fs = _sharp(ext, a2, d2, lift2, uf)
            path_b = _with_constant(ext, e2.constant, u.type_map[d1.base.terms[f].dom], fs)
        if path_a == path_b:
            continue
        if terms_equal(ext, path_a, path_b, depth).state is not TriState.EQUAL:
            return False
    return True
