"""Decorated specifications: a wide pure sub-part inside a specification.

Pure terms are the ones that will not depend on the parameter when the
specification is parameterized.  All types are pure; identities,
projections and collapsings are forced pure, and purity propagates along
marked composites and tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Set, Tuple

from .core import MARK_KINDS, TERM, TYPE, MarkKind, Specification, TermName, validate


@dataclass
class DecoratedSpecification:
    base: Specification
    pure_terms: Set[TermName] = field(default_factory=set)

    def is_pure(self, t: TermName) -> bool:
        return t in self.pure_terms

    def general_terms(self) -> Set[TermName]:
        return set(self.base.terms) - self.pure_terms


def _made_pure(s: Specification, kind: MarkKind, pure: Set[TermName]) -> Iterator[TermName]:
    """The terms that the marks of a kind force pure: those that a mark on
    types makes, and those that a mark on pure terms makes.  Lazy, so a
    term added to ``pure`` meanwhile counts for the marks after it."""
    return (r for args, results in kind.marks(s)
            if kind.args == TYPE or pure.issuperset(args)
            for sort, r in zip(kind.results, results) if sort == TERM)


def decoration_closure(d: DecoratedSpecification) -> Tuple[DecoratedSpecification, Set[TermName]]:
    """Add all forced purity marks; returns the closed decoration and what was added."""
    pure = set(d.pure_terms)
    while True:
        n = len(pure)
        for kind in MARK_KINDS.values():
            pure.update(_made_pure(d.base, kind, pure))
        if len(pure) == n:
            return DecoratedSpecification(d.base, pure), pure - set(d.pure_terms)


def validate_decorated(d: DecoratedSpecification) -> List[str]:
    """Check the decoration invariants on a valid base."""
    out = list(validate(d.base))
    s, pure = d.base, set(d.pure_terms)
    for t in d.pure_terms:
        if t not in s.terms:
            out.append(f"pure mark on unknown term {t}")
    for kind in MARK_KINDS.values():
        of = " of pure terms" if kind.args == TERM else ""
        out += [f"{kind.noun} {t}{of} must be pure"
                for t in sorted(set(_made_pure(s, kind, pure)) - pure)]
    return out


def undecorate(d: DecoratedSpecification) -> Specification:
    """Forget the decoration."""
    return d.base


def purify(s: Specification) -> DecoratedSpecification:
    """View a plain specification as a decorated one with everything pure."""
    return DecoratedSpecification(s, set(s.terms))


def pure_part(d: DecoratedSpecification) -> Specification:
    """The wide subspecification of pure terms.

    Keeps all types, the pure terms, the marks whose participants are all
    pure, and the equations between pure terms.
    """
    s = d.base
    out = Specification()
    out.types = set(s.types)
    for t in sorted(d.pure_terms):
        tm = s.terms[t]
        out.add_term(tm.name, tm.dom, tm.cod)
    for kind in MARK_KINDS.values():
        for args, results in kind.marks(s):
            terms = [r for sort, r in zip(kind.results, results) if sort == TERM]
            if kind.args == TERM:
                terms += args
            if d.pure_terms.issuperset(terms):
                kind.set(out, args, results)
    for (t1, t2) in s.equations:
        if t1 in d.pure_terms and t2 in d.pure_terms:
            out.equations.add((t1, t2))
    return out
