"""Elementary specifications: the generic figure for each kind of feature.

Each constant of :class:`ElementaryPoint` names one shape of structure a
specification can contain (a type, a term, a consecutive pair, a marked
composite, ...).  ``elementary(p)`` builds the smallest specification
exhibiting that shape with generic names; morphisms out of it into a
specification S pick out exactly the occurrences of the shape in S.
"""
from __future__ import annotations

from enum import Enum

from .core import Specification


class ElementaryPoint(Enum):
    TYPE = "type"
    TERM = "term"
    CONS = "cons"          # consecutive pair of terms
    COMP = "comp"          # consecutive pair with marked composite
    SELID = "selid"        # type with marked identity
    TYPE2 = "type2"        # pair of types
    PROD2 = "prod2"        # pair of types with marked binary product
    CONE2 = "cone2"        # co-initial pair of terms
    TUPLE2 = "tuple2"      # binary cone with marked tuple
    UNIT = "unit"          # generic figure is empty: every spec has one unit slot
    PROD0 = "prod0"        # marked terminal type
    TUPLE0 = "tuple0"      # type with marked collapsing to the terminal


def elementary(p: ElementaryPoint) -> Specification:
    """The generic specification for one elementary point."""
    s = Specification()
    if p is ElementaryPoint.TYPE:
        s.add_type("X")
    elif p is ElementaryPoint.TERM:
        s.add_type("X")
        s.add_type("Y")
        s.add_term("f", "X", "Y")
    elif p in (ElementaryPoint.CONS, ElementaryPoint.COMP):
        for x in ("X", "Y", "Z"):
            s.add_type(x)
        s.add_term("f", "X", "Y")
        s.add_term("g", "Y", "Z")
        if p is ElementaryPoint.COMP:
            s.add_term("gf", "X", "Z")
            s.compositions[("f", "g")] = "gf"
    elif p is ElementaryPoint.SELID:
        s.add_type("X")
        s.add_term("id_X", "X", "X")
        s.identities["X"] = "id_X"
    elif p is ElementaryPoint.TYPE2:
        s.add_type("Y1")
        s.add_type("Y2")
    elif p is ElementaryPoint.PROD2:
        for x in ("Y1", "Y2", "P"):
            s.add_type(x)
        s.add_term("p1", "P", "Y1")
        s.add_term("p2", "P", "Y2")
        s.products[("Y1", "Y2")] = ("P", "p1", "p2")
    elif p is ElementaryPoint.CONE2:
        for x in ("X", "Y1", "Y2"):
            s.add_type(x)
        s.add_term("f", "X", "Y1")
        s.add_term("g", "X", "Y2")
    elif p is ElementaryPoint.TUPLE2:
        for x in ("X", "Y1", "Y2", "P"):
            s.add_type(x)
        s.add_term("f", "X", "Y1")
        s.add_term("g", "X", "Y2")
        s.add_term("p1", "P", "Y1")
        s.add_term("p2", "P", "Y2")
        s.products[("Y1", "Y2")] = ("P", "p1", "p2")
        s.add_term("t", "X", "P")
        s.tuples[("f", "g")] = "t"
        # projection equations p1.t = f and p2.t = g, with the composites marked
        s.add_term("p1_o_t", "X", "Y1")
        s.add_term("p2_o_t", "X", "Y2")
        s.compositions[("t", "p1")] = "p1_o_t"
        s.compositions[("t", "p2")] = "p2_o_t"
        s.add_equation("p1_o_t", "f")
        s.add_equation("p2_o_t", "g")
    elif p is ElementaryPoint.UNIT:
        pass  # the unit slot exists in every specification; the figure is empty
    elif p is ElementaryPoint.PROD0:
        s.add_type("U")
        s.terminal = "U"
    elif p is ElementaryPoint.TUPLE0:
        s.add_type("X")
        s.add_type("U")
        s.terminal = "U"
        s.add_term("tu_X", "X", "U")
        s.collapsings["X"] = "tu_X"
    else:  # pragma: no cover
        raise ValueError(f"unknown elementary point {p}")
    return s
