"""Ready-made types and predicates: Peano naturals, polymorphic lists,
and the classic relational library over them.

Where a term is expected, the functions here also accept plain Python
values: an ``int`` becomes a ground Peano numeral, a ``str`` becomes a
variable of the expected type, and a Python list becomes a ground list
term.  The conversion happens here, at the API boundary, never inside
terms.  Each predicate is compiled with `goals.predicate`: a boundary
function (`nats` for predicates over naturals) converts a call's
arguments, once per call, and the body, which sees terms of the right
types only, runs once per argument type.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Union

from .derive import DeriveError, LogicType, TypeRegistry
from .goals import Goal, eq, exists, fail_goal, neg, predicate, scope
from .terms import Compound, Term, TypeMismatchError, Var, _cons_chain, pretty, term_type

TermLike = Union[Term, int, str, Sequence]


def zero() -> Compound:
    return NAT.make("zero")


def suc(t: TermLike) -> Compound:
    return NAT.make("suc", as_nat(t))


def nat(n: int) -> Compound:
    """The ground Peano numeral for n >= 0; its child is nat(n - 1).

    Numerals up to NUMERAL_CACHE_SIZE are kept and shared, so
    ``nat(6).args[0] is nat(5)``.  A larger one is built on top of the
    largest kept one on each call, and is not kept; `make_list` builds
    the large numerals of a list in one pass, so they share too."""
    if n < len(_NUMERALS):
        if n < 0:
            raise ValueError("Peano numerals are nonnegative")
        return _NUMERALS[n]
    with _NUMERALS_LOCK:
        while len(_NUMERALS) <= min(n, NUMERAL_CACHE_SIZE):
            _NUMERALS.append(NAT.make("suc", _NUMERALS[-1]))
    if n < len(_NUMERALS):
        return _NUMERALS[n]
    t = _NUMERALS[-1]
    for _ in range(n - NUMERAL_CACHE_SIZE):
        t = Compound(NAT, "suc", (t,))
    return t


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

# nat(0..k) for the largest k asked for so far, up to NUMERAL_CACHE_SIZE,
# each the child of the next.
NUMERAL_CACHE_SIZE = 10_000
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
    given tail (a list-typed term or variable name).  An int element of
    a NAT list that is a kept numeral is read from the kept ones; every
    other element goes through `as_term`, which checks its type, as it
    does the tail's, so the cells can be built without a check."""
    elem_type = ltype.element
    if elem_type is None:
        raise TypeMismatchError(f"{ltype.name} is not a list type")
    out = nil(ltype) if tail is None else as_term(tail, ltype)
    elems = list(elems)
    numerals = ()
    if elem_type is NAT:
        _share_numerals(elems)
        numerals = _NUMERALS
    kept = len(numerals)
    return _cons_chain(ltype, out, [
        numerals[e] if type(e) is int and 0 <= e < kept else as_term(e, elem_type)
        for e in reversed(elems)])


def _share_numerals(elems: list) -> None:
    """Replace the ints above NUMERAL_CACHE_SIZE in `elems` by numerals
    built in one ascending pass, each on top of the next smaller one, so
    the list costs as many nodes as its largest numeral, not as all."""
    big = sorted({e for e in elems if type(e) is int and e > NUMERAL_CACHE_SIZE})
    if not big:
        return
    built, t, k = {}, nat(NUMERAL_CACHE_SIZE), NUMERAL_CACHE_SIZE
    for n in big:
        for _ in range(n - k):
            t = Compound(NAT, "suc", (t,))
        built[n], k = t, n
    elems[:] = [built.get(e, e) if type(e) is int else e for e in elems]


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
        try:
            return ltype.from_int(x)
        except ValueError:  # an int outside the encoding, such as -1 for nat
            raise TypeMismatchError(f"cannot interpret {x!r} as a {ltype.name} term") from None
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


def nats(*xs: TermLike) -> tuple:
    """Boundary of a predicate over naturals: every argument is a NAT term."""
    return NAT, tuple(map(as_nat, xs))


def _lists(*xs: TermLike) -> tuple:
    """Boundary of a predicate over lists of one type."""
    ltype = _list_type(*xs)
    return ltype, tuple([as_term(x, ltype) for x in xs])


def _elem_list(x: TermLike, xs: TermLike) -> tuple:
    """Boundary of an element and a list of its type."""
    ltype = _list_type(xs, elem=x)
    return ltype, (as_term(x, ltype.element), as_term(xs, ltype))


def _list_elem(xs: TermLike, y: TermLike) -> tuple:
    """Boundary of a list and an element of its type."""
    ltype = _list_type(xs, elem=y)
    return ltype, (as_term(xs, ltype), as_term(y, ltype.element))


def _relation_lists(rel: Callable, *lists: TermLike) -> tuple:
    """Boundary of a relation over elements and lists, each list of its
    own type; the relation is called when the search reaches it."""
    types = tuple(map(_list_type, lists))
    return types, (rel, *map(as_term, lists, types))


@predicate(nats)
def plus(a: Term, b: Term, c: Term) -> Goal:
    """a + b = c over Peano naturals, usable in any direction."""
    return (eq(a, zero()) & eq(b, c)) | exists(NAT, lambda x: exists(
        NAT, lambda z: eq(a, suc(x)) & eq(c, suc(z)) & plus(x, b, z)))


@predicate(nats)
def is_suc(x: Term, y: Term) -> Goal:
    """y is the successor of x."""
    return eq(suc(x), y)


@predicate(nats)
def leq(x: Term, y: Term) -> Goal:
    """x <= y over Peano naturals."""
    return exists(NAT, lambda x1: exists(NAT, lambda y1: (
        eq(x, zero()) | (eq(x, suc(x1)) & eq(y, suc(y1)) & leq(x1, y1)))))


@predicate(nats)
def lt(x: Term, y: Term) -> Goal:
    """x < y, as suc(x) <= y."""
    return leq(suc(x), y)


@predicate(_list_elem)
def is_head(xs: Term, y: Term) -> Goal:
    """y is the first element of xs."""
    return exists(term_type(xs), lambda tl: eq(xs, cons(y, tl)))


@predicate(_lists)
def is_tail(xs: Term, ys: Term) -> Goal:
    """ys is xs without its first element."""
    return exists(term_type(xs).element, lambda h: eq(xs, cons(h, ys)))


@predicate(_elem_list)
def member(x: Term, xs: Term) -> Goal:
    """x occurs in xs; enumerates elements in list order."""
    ltype = term_type(xs)
    return exists(ltype, lambda tl: eq(xs, cons(x, tl))) | exists(
        ltype.element, lambda hd: exists(
            ltype, lambda tl: eq(xs, cons(hd, tl)) & member(x, tl)))


@predicate(_elem_list)
def not_member(x: Term, xs: Term) -> Goal:
    """Negation-as-failure of member: weak when x or xs is unbound."""
    return neg(member(x, xs))


@predicate(_relation_lists)
def sorted_with(compare: Callable[[Term, Term], Goal], v: Term) -> Goal:
    """The list v is ordered under the given comparison predicate."""
    ltype = term_type(v)
    elem_type = ltype.element
    return (
        eq(v, nil(ltype))
        | exists(elem_type, lambda e1: eq(v, cons(e1, nil(ltype))))
        | exists(elem_type, lambda e1: exists(elem_type, lambda e2: exists(
            ltype, lambda ts: (
                eq(v, cons(e1, cons(e2, ts)))
                & compare(e1, e2)
                & sorted_with(compare, cons(e2, ts))))))
    )


@predicate(_lists)
def sorted_nat(v: Term) -> Goal:
    """The natural-number list v is in nondecreasing order."""
    return sorted_with(leq, v)


@predicate(_relation_lists)
def map_p(f: Callable[[Term, Term], Goal], l1: Term, l2: Term) -> Goal:
    """Elementwise relation: f holds between corresponding elements of
    two equal-length lists.  Relational in both lists."""
    lt1, lt2 = term_type(l1), term_type(l2)
    return (eq(l1, nil(lt1)) & eq(l2, nil(lt2))) | exists(lt1.element, lambda h1: exists(
        lt1, lambda t1: exists(lt2.element, lambda h2: exists(lt2, lambda t2: (
            eq(l1, cons(h1, t1))
            & eq(l2, cons(h2, t2))
            & f(h1, h2)
            & map_p(f, t1, t2))))))


@predicate(_lists)
def list_plus_one(l1: Term, l2: Term) -> Goal:
    """Every element of l2 is one more than the matching element of l1."""
    return map_p(is_suc, l1, l2)


@predicate(nats)
def remainder(n: Term, q: Term, r: Term) -> Goal:
    """r is the remainder of n divided by q; fails finitely for q = 0.

    The zero guard commits via cut, and the surrounding scope keeps that
    cut invisible to callers.
    """
    return scope(
        (eq(q, zero()) ^ fail_goal())
        | (lt(n, q) & eq(n, r))
        | exists(NAT, lambda diff: plus(q, diff, n) & remainder(diff, q, r))
    )


@predicate(_lists)
def append_list(xs: Term, ys: Term, zs: Term) -> Goal:
    """zs is xs followed by ys; relational in all three arguments."""
    ltype = term_type(xs)
    return (eq(xs, nil(ltype)) & eq(ys, zs)) | exists(ltype.element, lambda h: exists(
        ltype, lambda t: exists(ltype, lambda zt: (
            eq(xs, cons(h, t)) & eq(zs, cons(h, zt)) & append_list(t, ys, zt)))))
