"""Ready-made types and predicates: Peano naturals, polymorphic lists,
and the classic relational library over them.

Where a term is expected, the functions here also accept plain Python
values: an ``int`` becomes a ground Peano numeral, a ``str`` becomes a
variable of the expected type, and a Python list becomes a ground list
term.  The conversion happens here, at the API boundary, never inside
terms.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Union

from .derive import DeriveError, LogicType, TypeRegistry
from .goals import Goal, eq, exists, fail_goal, neg, scope
from .terms import Compound, Term, TypeMismatchError, Var, pretty, term_type

TermLike = Union[Term, int, str, Sequence]


def zero() -> Compound:
    return NAT.make("zero")


def suc(t: TermLike) -> Compound:
    return NAT.make("suc", as_nat(t))


def nat(n: int) -> Compound:
    """The ground Peano numeral for n >= 0; its child is nat(n - 1)."""
    if n < 0:
        raise ValueError("Peano numerals are nonnegative")
    with _NUMERALS_LOCK:
        while n >= len(_NUMERALS):
            _NUMERALS.append(NAT.make("suc", _NUMERALS[-1]))
    return _NUMERALS[n]


def nat_value(t: Term) -> int:
    """Inverse of nat() for ground naturals."""
    n = 0
    while isinstance(t, Compound) and t.ctor == "suc":
        n += 1
        t = t.args[0]
    if isinstance(t, Compound) and t.ctor == "zero":
        return n
    raise ValueError(f"not a ground natural: {t!r}")


def _pretty_nat(t: Compound) -> str:
    layers = 0
    while isinstance(t, Compound) and t.ctor == "suc":
        layers += 1
        t = t.args[0]
    if isinstance(t, Var):
        return f"{layers} + {t.vid.name}" if layers else t.vid.name
    return str(layers)


def _pretty_list(t: Compound) -> str:
    elems = []
    while isinstance(t, Compound) and t.ctor == "cons":
        elems.append(pretty(t.args[0]))
        t = t.args[1]
    if isinstance(t, Var):
        return " : ".join(elems + [t.vid.name])
    return "[" + ", ".join(elems) + "]"


REGISTRY = TypeRegistry()

NAT = REGISTRY.declare("nat", [("zero", []), ("suc", ["nat"])],
                       pretty_override=_pretty_nat, from_int=nat)

# nat(0..k) for the largest k asked for so far, each the child of the next.
_NUMERALS = [NAT.make("zero")]
_NUMERALS_LOCK = threading.Lock()


def list_of(elem: LogicType) -> LogicType:
    """The list type ``list(<elem>)`` over a given element type, declared
    in `elem`'s registry on first use, so lists over any registered type
    need no extra code."""
    name = f"list({elem.name})"
    if not elem.registry.knows(name):
        return elem.registry.declare(name, [("nil", []), ("cons", [elem.name, name])],
                                     pretty_override=_pretty_list)
    ltype = elem.registry.get(name)
    if ltype.element is not elem:
        raise DeriveError(f"type {name!r} is already declared and is not a list of {elem.name}")
    return ltype


NAT_LIST = list_of(NAT)


def nil(ltype: LogicType) -> Compound:
    return ltype.make("nil")


def cons(head: Term, tail: Term) -> Compound:
    return _list_type(tail).make("cons", head, tail)


def make_list(elems: Sequence[TermLike], ltype: LogicType,
              tail: Optional[TermLike] = None) -> Term:
    """A right-nested cons chain over `elems`, ending in nil or in the
    given tail (a list-typed term or variable name)."""
    elem_type = ltype.element
    if elem_type is None:
        raise TypeMismatchError(f"{ltype.name} is not a list type")
    out = nil(ltype) if tail is None else as_term(tail, ltype)
    for e in reversed(list(elems)):
        out = ltype.make("cons", as_term(e, elem_type), out)
    return out


def nat_list(elems: Sequence[TermLike], tail: Optional[TermLike] = None) -> Term:
    return make_list(elems, NAT_LIST, tail)


def as_term(x: TermLike, ltype: LogicType) -> Term:
    """Boundary conversion of Python values into terms of `ltype`."""
    tx = type(x)
    if tx is Var or tx is Compound:
        xtype = x.vid.ltype if tx is Var else x.ltype
        if xtype is not ltype:
            raise TypeMismatchError(f"expected a {ltype.name} term, got {xtype.name}")
        return x
    if isinstance(x, str):
        return ltype.var(x)
    if isinstance(x, bool):
        raise TypeMismatchError(f"cannot interpret {x!r} as a {ltype.name} term")
    if isinstance(x, int):
        if ltype.from_int is None:
            raise TypeMismatchError(f"{ltype.name} has no numeral encoding")
        return ltype.from_int(x)
    if isinstance(x, (list, tuple)):
        return make_list(x, ltype)
    raise TypeMismatchError(f"cannot interpret {x!r} as a {ltype.name} term")


def as_nat(x: TermLike) -> Term:
    return as_term(x, NAT)


def _list_type(*lists: TermLike, elem: TermLike = None) -> LogicType:
    """The type of the first term among `lists` (a list type), else the
    list type over `elem`'s type if `elem` is a term, else NAT_LIST."""
    for xs in lists:
        if type(xs) is Var or type(xs) is Compound:
            ltype = term_type(xs)
            if ltype.element is None:
                raise TypeMismatchError(f"{ltype.name} is not a list type")
            return ltype
    if type(elem) is Var or type(elem) is Compound:
        return list_of(term_type(elem))
    return NAT_LIST


# --- the predicate library ------------------------------------------------


def plus(a: TermLike, b: TermLike, c: TermLike) -> Goal:
    """a + b = c over Peano naturals, usable in any direction."""
    a, b, c = as_nat(a), as_nat(b), as_nat(c)
    return (eq(a, zero()) & eq(b, c)) | exists(NAT, lambda x: exists(
        NAT, lambda z: eq(a, suc(x)) & eq(c, suc(z)) & plus(x, b, z)))


def is_suc(x: TermLike, y: TermLike) -> Goal:
    """y is the successor of x."""
    return eq(suc(as_nat(x)), as_nat(y))


def leq(x: TermLike, y: TermLike) -> Goal:
    """x <= y over Peano naturals."""
    x, y = as_nat(x), as_nat(y)
    return exists(NAT, lambda x1: exists(NAT, lambda y1: (
        eq(x, zero()) | (eq(x, suc(x1)) & eq(y, suc(y1)) & leq(x1, y1)))))


def lt(x: TermLike, y: TermLike) -> Goal:
    """x < y, as suc(x) <= y."""
    return leq(suc(as_nat(x)), as_nat(y))


def is_head(xs: TermLike, y: TermLike) -> Goal:
    """y is the first element of xs."""
    ltype = _list_type(xs, elem=y)
    xs = as_term(xs, ltype)
    y = as_term(y, ltype.element)
    return exists(ltype, lambda tl: eq(xs, cons(y, tl)))


def is_tail(xs: TermLike, ys: TermLike) -> Goal:
    """ys is xs without its first element."""
    ltype = _list_type(xs, ys)
    xs = as_term(xs, ltype)
    ys = as_term(ys, ltype)
    return exists(ltype.element, lambda h: eq(xs, cons(h, ys)))


def member(x: TermLike, xs: TermLike) -> Goal:
    """x occurs in xs; enumerates elements in list order."""
    ltype = _list_type(xs, elem=x)
    elem_type = ltype.element
    x = as_term(x, elem_type)
    xs = as_term(xs, ltype)
    return exists(ltype, lambda tl: eq(xs, cons(x, tl))) | exists(
        elem_type, lambda hd: exists(
            ltype, lambda tl: eq(xs, cons(hd, tl)) & member(x, tl)))


def not_member(x: TermLike, xs: TermLike) -> Goal:
    """Negation-as-failure of member: weak when x or xs is unbound."""
    return neg(member(x, xs))


def sorted_with(compare: Callable[[Term, Term], Goal], v: TermLike) -> Goal:
    """The list v is ordered under the given comparison predicate."""
    ltype = _list_type(v)
    elem_type = ltype.element
    v = as_term(v, ltype)
    return (
        eq(v, nil(ltype))
        | exists(elem_type, lambda e1: eq(v, cons(e1, nil(ltype))))
        | exists(elem_type, lambda e1: exists(elem_type, lambda e2: exists(
            ltype, lambda ts: (
                eq(v, cons(e1, cons(e2, ts)))
                & compare(e1, e2)
                & sorted_with(compare, cons(e2, ts))))))
    )


def sorted_nat(v: TermLike) -> Goal:
    """The natural-number list v is in nondecreasing order."""
    return sorted_with(leq, v)


def map_p(f: Callable[[Term, Term], Goal], l1: TermLike, l2: TermLike) -> Goal:
    """Elementwise relation: f holds between corresponding elements of
    two equal-length lists.  Relational in both lists."""
    lt1 = _list_type(l1)
    lt2 = _list_type(l2)
    l1 = as_term(l1, lt1)
    l2 = as_term(l2, lt2)
    et1, et2 = lt1.element, lt2.element
    return (eq(l1, nil(lt1)) & eq(l2, nil(lt2))) | exists(et1, lambda h1: exists(
        lt1, lambda t1: exists(et2, lambda h2: exists(lt2, lambda t2: (
            eq(l1, cons(h1, t1))
            & eq(l2, cons(h2, t2))
            & f(h1, h2)
            & map_p(f, t1, t2))))))


def list_plus_one(l1: TermLike, l2: TermLike) -> Goal:
    """Every element of l2 is one more than the matching element of l1."""
    return map_p(is_suc, as_term(l1, NAT_LIST), as_term(l2, NAT_LIST))


def remainder(n: TermLike, q: TermLike, r: TermLike) -> Goal:
    """r is the remainder of n divided by q; fails finitely for q = 0.

    The zero guard commits via cut, and the surrounding scope keeps that
    cut invisible to callers.
    """
    n, q, r = as_nat(n), as_nat(q), as_nat(r)
    return scope(
        (eq(q, zero()) ^ fail_goal())
        | (lt(n, q) & eq(n, r))
        | exists(NAT, lambda diff: plus(q, diff, n) & remainder(diff, q, r))
    )


def append_list(xs: TermLike, ys: TermLike, zs: TermLike) -> Goal:
    """zs is xs followed by ys; relational in all three arguments."""
    ltype = _list_type(xs, ys, zs)
    xs, ys, zs = (as_term(t, ltype) for t in (xs, ys, zs))
    elem_type = ltype.element
    return (eq(xs, nil(ltype)) & eq(ys, zs)) | exists(elem_type, lambda h: exists(
        ltype, lambda t: exists(ltype, lambda zt: (
            eq(xs, cons(h, t)) & eq(zs, cons(h, zt)) & append_list(t, ys, zt)))))
