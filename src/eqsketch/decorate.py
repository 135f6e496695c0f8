"""Decorated specifications: a wide pure sub-part inside a specification.

Pure terms are the ones that will not depend on the parameter when the
specification is parameterized.  All types are pure; identities,
projections and collapsings are forced pure, and purity propagates along
marked composites and tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .core import (MARK_KINDS, TERM, TYPE_MARKS, RuleTag, Specification,
                   TermName, mark_results, validate)


@dataclass
class DecoratedSpecification:
    base: Specification
    pure_terms: Set[TermName] = field(default_factory=set)

    def is_pure(self, t: TermName) -> bool:
        return t in self.pure_terms

    def general_terms(self) -> Set[TermName]:
        return set(self.base.terms) - self.pure_terms


def _forced_pure(d: DecoratedSpecification) -> Set[TermName]:
    """Terms whose purity is forced by the decoration rules."""
    s = d.base
    pure = set(d.pure_terms) | mark_results(s, TERM, TYPE_MARKS)
    changed = True
    while changed:
        changed = False
        for tag in (RuleTag.COMPOSITION, RuleTag.BINARY_TUPLE):
            for args, (c,) in MARK_KINDS[tag].marks(s):
                if c not in pure and pure.issuperset(args):
                    pure.add(c)
                    changed = True
    return pure - set(d.pure_terms)


def decoration_closure(d: DecoratedSpecification) -> Tuple[DecoratedSpecification, Set[TermName]]:
    """Add all forced purity marks; returns the closed decoration and what was added."""
    added = _forced_pure(d)
    return DecoratedSpecification(d.base, set(d.pure_terms) | added), added


def validate_decorated(d: DecoratedSpecification) -> List[str]:
    """Check the decoration invariants on a valid base."""
    out = list(validate(d.base))
    s = d.base
    for t in d.pure_terms:
        if t not in s.terms:
            out.append(f"pure mark on unknown term {t}")
    for x, i in s.identities.items():
        if i not in d.pure_terms:
            out.append(f"identity {i} must be pure")
    for p in sorted(mark_results(s, TERM, (RuleTag.BINARY_PRODUCT,))):
        if p not in d.pure_terms:
            out.append(f"projection {p} must be pure")
    for x, c in s.collapsings.items():
        if c not in d.pure_terms:
            out.append(f"collapsing {c} must be pure")
    for (f, g), c in s.compositions.items():
        if f in d.pure_terms and g in d.pure_terms and c not in d.pure_terms:
            out.append(f"composite {c} of pure terms must be pure")
    for (f, g), t in s.tuples.items():
        if f in d.pure_terms and g in d.pure_terms and t not in d.pure_terms:
            out.append(f"tuple {t} of pure terms must be pure")
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
