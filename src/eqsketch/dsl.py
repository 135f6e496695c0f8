"""Text format for specifications.

Statements (one per line or separated by whitespace, `#` starts a comment):

    type X
    unit U
    term f : X -> Y
    term pure e : U -> X
    product P = Y1 * Y2 with p1 p2
    identity X = id_X
    collapse X = tu_X
    compose c = g . f          # first f, then g
    tuple t = < f , g >
    eq lhs = rhs               # sides may be composite/tuple expressions
    decorated
    parameter type A
    parameter const a

`pure` anywhere (or a bare `decorated`) makes the document decorated.
The statements `unit`, `product`, `identity`, `collapse`, `compose` and
`tuple` set their marks (``core.MARK_KINDS``) through one parser method,
which checks the site and each result's shape, so a fault is reported at
its statement's line:col.
Composite expressions in `eq` are elaborated into marked composites and
tuples before storage, so the stored equation always relates two named
terms.  The product separator `*` must stand alone between spaces: a `*`
glued to a name is part of that name.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .core import (MARK_KINDS, TERM, TYPE, TYPE_MARKS, RuleTag, Specification, mark_results,
                   validate)
from .decorate import DecoratedSpecification, decoration_closure
from .errors import DuplicateName, SyntaxError_
from .parameterize import (ParameterizedSpecification, ensure_comp, ensure_terminal,
                           ensure_tuple)

KEYWORDS = {"type", "unit", "term", "pure", "product", "with", "identity",
            "collapse", "compose", "tuple", "eq", "decorated", "parameter",
            "const"}

_TOKEN = re.compile(r"""
    (?P<comment>\#[^\n]*)
  | (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z0-9_'~][A-Za-z0-9_'~*]*)
  | (?P<punct>[:=.<>,*])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str   # ident, punct, arrow, eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SyntaxError_(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            out.append(Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


@dataclass
class SpecDocument:
    spec: Specification
    pure: Optional[Set[str]] = None          # None: plain (undecorated)
    parameter_type: Optional[str] = None
    parameter_constant: Optional[str] = None

    @property
    def is_decorated(self) -> bool:
        return self.pure is not None

    def decorated(self) -> DecoratedSpecification:
        d = DecoratedSpecification(self.spec, set(self.pure or ()))
        d, _added = decoration_closure(d)
        return d

    def parameterized(self) -> ParameterizedSpecification:
        if self.parameter_type is None:
            raise ValueError("document declares no parameter type")
        return ParameterizedSpecification(self.spec, self.parameter_type)


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.spec = Specification()
        self.pure: Set[str] = set()
        self.saw_decoration = False
        self.parameter_type: Optional[str] = None
        self.parameter_constant: Optional[str] = None

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise SyntaxError_(msg, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}", t)
        return t

    def ident(self, reserved_ok: bool = False) -> str:
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected a name, found {t.text!r}", t)
        if t.text in KEYWORDS and not reserved_ok:
            self.fail(f"{t.text!r} is a reserved word", t)
        return t.text

    # -- declarations ------------------------------------------------------

    def declare_type(self, name: str, tok: Token) -> None:
        if name in self.spec.types:
            raise DuplicateName(f"type {name} (line {tok.line})")
        self.spec.add_type(name)

    def declare_term(self, name: str, dom: str, cod: str, tok: Token) -> None:
        if name in self.spec.terms:
            raise DuplicateName(f"term {name} (line {tok.line})")
        for x in (dom, cod):
            if x not in self.spec.types:
                self.fail(f"unknown type {x!r}", tok)
        self.spec.add_term(name, dom, cod)

    def parse(self) -> SpecDocument:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident" or tok.text not in KEYWORDS:
                self.fail(f"expected a declaration keyword, found {tok.text!r}")
            kw = self.next().text
            getattr(self, "stmt_" + kw, lambda t=tok: self.fail(
                f"{kw!r} cannot start a declaration", t))()
        errs = validate(self.spec)
        if errs:
            self.fail("invalid specification: " + errs[0], self.toks[-1])
        pure = self.pure if (self.saw_decoration or self.pure) else None
        return SpecDocument(self.spec, pure,
                            self.parameter_type, self.parameter_constant)

    def stmt_type(self) -> None:
        tok = self.peek()
        self.declare_type(self.ident(), tok)

    def stmt_unit(self) -> None:
        tok = self.peek()
        self.mark(tok, RuleTag.TERMINAL_TYPE, (), [(self.ident(), None)])

    def stmt_term(self) -> None:
        tok = self.peek()
        is_pure = False
        if tok.text == "pure":
            self.next()
            is_pure = True
            self.saw_decoration = True
        name = self.ident()
        self.expect(":")
        dom = self.ident()
        t2 = self.next()
        if t2.kind != "arrow":
            self.fail(f"expected '->', found {t2.text!r}", t2)
        cod = self.ident()
        self.declare_term(name, dom, cod, tok)
        if is_pure:
            self.pure.add(name)

    def stmt_product(self) -> None:
        tok = self.peek()
        p = self.ident()
        self.expect("=")
        y1 = self.ident()
        self.expect("*")
        y2 = self.ident()
        self.expect("with")
        self.mark(tok, RuleTag.BINARY_PRODUCT, (y1, y2),
                  [(p, None), (self.ident(), (p, y1)), (self.ident(), (p, y2))])

    def stmt_identity(self) -> None:
        tok = self.peek()
        x = self.ident()
        self.expect("=")
        self.mark(tok, RuleTag.IDENTITY, (x,), [(self.ident(), (x, x))])

    def stmt_collapse(self) -> None:
        tok = self.peek()
        x = self.ident()
        self.expect("=")
        name = self.ident()
        if self.spec.terminal is None:
            self.fail("collapse requires a unit declaration first", tok)
        self.mark(tok, RuleTag.COLLAPSING, (x,), [(name, (x, self.spec.terminal))])

    def stmt_compose(self) -> None:
        tok = self.peek()
        name = self.ident()
        self.expect("=")
        g = self.lookup(self.ident(), tok)
        self.expect(".")
        f = self.lookup(self.ident(), tok)
        if self.spec.terms[f].cod != self.spec.terms[g].dom:
            self.fail(f"{g} . {f} does not compose", tok)
        self.mark(tok, RuleTag.COMPOSITION, (f, g),
                  [(name, (self.spec.terms[f].dom, self.spec.terms[g].cod))])

    def stmt_tuple(self) -> None:
        tok = self.peek()
        name = self.ident()
        self.expect("=")
        self.expect("<")
        f = self.lookup(self.ident(), tok)
        self.expect(",")
        g = self.lookup(self.ident(), tok)
        self.expect(">")
        self.mark(tok, RuleTag.BINARY_TUPLE, (f, g), [(name, self.tuple_shape(f, g, tok))])

    def mark(self, tok: Token, tag: RuleTag, site: tuple,
             results: List[Tuple[str, Optional[Tuple[str, str]]]]) -> None:
        """Set the mark of kind ``tag`` at ``site``.  Each result is (name,
        None) for a new type, or (name, (dom, cod)) for a term, which is
        declared when new and must have that shape when declared earlier."""
        kind = MARK_KINDS[tag]
        if kind.get(self.spec, site) is not None:
            self.fail(f"{kind.name} mark{kind.at(site)} is already declared", tok)
        for name, shape in results:
            if shape is None:
                self.declare_type(name, tok)
            elif name not in self.spec.terms or TYPE in kind.results:
                # the terms of a mark that makes a type are new: a taken name is a duplicate
                self.declare_term(name, *shape, tok)
            elif (self.spec.terms[name].dom, self.spec.terms[name].cod) != shape:
                self.fail(f"{name} is not of shape {shape[0]} -> {shape[1]}", tok)
        kind.set(self.spec, site, tuple(name for name, _shape in results))

    def stmt_eq(self) -> None:
        tok = self.peek()
        lhs = self.expression()
        self.expect("=")
        rhs = self.expression()
        if not self.spec.parallel(lhs, rhs):
            self.fail(f"{lhs} and {rhs} are not parallel", tok)
        if lhs != rhs:
            self.spec.add_equation(lhs, rhs)

    def stmt_decorated(self) -> None:
        self.saw_decoration = True

    def stmt_parameter(self) -> None:
        tok = self.next()
        if tok.text == "type":
            name = self.ident()
            if name not in self.spec.types:
                self.declare_type(name, tok)
            self.parameter_type = name
        elif tok.text == "const":
            name = self.ident()
            if self.parameter_type is None:
                self.fail("parameter const requires a parameter type first", tok)
            u = ensure_terminal(self.spec)
            if name not in self.spec.terms:
                self.declare_term(name, u, self.parameter_type, tok)
            elif (self.spec.terms[name].dom, self.spec.terms[name].cod) != (u, self.parameter_type):
                self.fail(f"{name} is not of shape {u} -> {self.parameter_type}", tok)
            self.parameter_constant = name
        else:
            self.fail(f"expected 'type' or 'const', found {tok.text!r}", tok)

    # -- equation expressions ---------------------------------------------

    def lookup(self, name: str, tok: Token) -> str:
        if name not in self.spec.terms:
            self.fail(f"unknown term {name!r}", tok)
        return name

    def factor(self) -> str:
        tok = self.peek()
        if tok.text == "<":
            self.next()
            f = self.expression()
            self.expect(",")
            g = self.expression()
            self.expect(">")
            self.tuple_shape(f, g, tok)
            return ensure_tuple(self.spec, f, g)
        return self.lookup(self.ident(), tok)

    def tuple_shape(self, f: str, g: str, tok: Token) -> Tuple[str, str]:
        """The dom and cod of a tuple of f and g, which must be co-initial."""
        key = (self.spec.terms[f].cod, self.spec.terms[g].cod)
        if key not in self.spec.products:
            self.fail(f"no declared product of {key[0]} and {key[1]}", tok)
        if self.spec.terms[f].dom != self.spec.terms[g].dom:
            self.fail(f"{f} and {g} are not co-initial", tok)
        return self.spec.terms[f].dom, self.spec.products[key][0]

    def expression(self) -> str:
        """A chain a . b . c applies the rightmost factor first."""
        factors = [self.factor()]
        while self.peek().text == ".":
            self.next()
            factors.append(self.factor())
        cur = factors[-1]
        for nxt in reversed(factors[:-1]):
            if self.spec.terms[cur].cod != self.spec.terms[nxt].dom:
                self.fail(f"{nxt} . {cur} does not compose")
            cur = ensure_comp(self.spec, cur, nxt)
        return cur


def parse(text: str) -> SpecDocument:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Canonical dump
# ---------------------------------------------------------------------------

def dump(doc: SpecDocument) -> str:
    """Deterministic text form; parse(dump(doc)) reconstructs the document.
    Compose and tuple marks wait, in order of result, for their arguments
    to be declared, and each pass over them emits every one that can go."""
    s = doc.spec
    lines: List[str] = []
    if doc.is_decorated:
        lines.append("decorated")
    product_types = mark_results(s, TYPE, (RuleTag.BINARY_PRODUCT,))
    type_mark_terms = mark_results(s, TERM, TYPE_MARKS)
    term_mark_terms = mark_results(s, TERM, (RuleTag.COMPOSITION, RuleTag.BINARY_TUPLE))
    if s.terminal is not None:
        lines.append(f"unit {s.terminal}")
    for x in sorted(s.types):
        if x != s.terminal and x not in product_types:
            lines.append(f"type {x}")
    for (y1, y2), (p, p1, p2) in sorted(s.products.items()):
        lines.append(f"product {p} = {y1} * {y2} with {p1} {p2}")
    pure = doc.pure or set()

    def declare(name: str) -> None:
        t = s.terms[name]
        lines.append(f"term {'pure ' if name in pure else ''}{name} : {t.dom} -> {t.cod}")
        declared.add(name)

    # a mark carries no purity, so a pure mark result is declared up front
    declared = set(type_mark_terms)
    for name in sorted(s.terms):
        if name in type_mark_terms:
            continue
        if name in pure or name not in term_mark_terms:
            declare(name)
    for x in sorted(s.identities):
        lines.append(f"identity {x} = {s.identities[x]}")
    for x in sorted(s.collapsings):
        lines.append(f"collapse {x} = {s.collapsings[x]}")
    # compose/tuple marks may use each other's result terms; emit in
    # dependency order, forward-declaring a result when stuck on a cycle
    marks = [(c, f, g, f"compose {c} = {g} . {f}")
             for (f, g), c in sorted(s.compositions.items(), key=lambda kv: (kv[1], kv[0]))]
    marks += [(t, f, g, f"tuple {t} = < {f} , {g} >")
              for (f, g), t in sorted(s.tuples.items(), key=lambda kv: (kv[1], kv[0]))]
    while marks:
        waiting: List[Tuple[str, str, str, str]] = []
        for m in marks:
            c, f, g, line = m
            if f in declared and g in declared:
                lines.append(line)
                declared.add(c)
            else:
                waiting.append(m)
        if len(waiting) == len(marks):
            # a pending mark waits for an argument that is itself the
            # result of a pending mark, which is not declared yet
            declare(next(c for c, _f, _g, _line in marks if c not in declared))
        marks = waiting
    for (a, b) in sorted(s.equations):
        lines.append(f"eq {a} = {b}")
    if doc.parameter_type is not None:
        lines.append(f"parameter type {doc.parameter_type}")
    if doc.parameter_constant is not None:
        lines.append(f"parameter const {doc.parameter_constant}")
    return "\n".join(lines) + ("\n" if lines else "")
