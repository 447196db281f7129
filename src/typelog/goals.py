"""The goal tree and its combinators.

Goals are immutable descriptions; building one performs no search, no
unification, and allocates no variables.  Operators mirror the usual
logic connectives with Python's own precedence doing the right thing:

    ``&`` conjunction  (binds tightest of the three)
    ``^`` cut-then     (commit to the left goal's first solution)
    ``|`` disjunction  (binds loosest)

so ``eq(a, b) ^ fail_goal() | c & d`` groups as
``(eq(a, b) ^ fail_goal()) | (c & d)``.

Immutability is kept by contract, not enforced: the nodes are slotted
dataclasses, compared and hashed by value, but not frozen, because a
frozen node pays a guarded `__setattr__` per field and the solver builds
nodes on every unfolding of a predicate.  No code assigns a field after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .terms import Term, TypeMismatchError, Var


class Goal:
    """Base class for goal-tree nodes."""

    __slots__ = ()

    def __and__(self, other: "Goal") -> "Goal":
        return Conj(self, other)

    def __or__(self, other: "Goal") -> "Goal":
        return Disj(self, other)

    def __xor__(self, other: "Goal") -> "Goal":
        return CutThen(self, other)


@dataclass(slots=True, unsafe_hash=True)
class Succeed(Goal):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Fail(Goal):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Unify(Goal):
    left: Term
    right: Term


@dataclass(slots=True, unsafe_hash=True)
class Conj(Goal):
    g1: Goal
    g2: Goal


@dataclass(slots=True, unsafe_hash=True)
class Disj(Goal):
    g1: Goal
    g2: Goal


@dataclass(slots=True, unsafe_hash=True)
class Exists(Goal):
    """Introduce a fresh variable of `ltype` at evaluation time and
    evaluate `body(fresh_var)`.  Bodies must be pure: the engine may
    call them again during backtracking."""

    ltype: object
    body: Callable[[Term], Goal]


@dataclass(slots=True, unsafe_hash=True)
class Scope(Goal):
    """Delimits how far a cut fired inside `g` prunes alternatives."""

    g: Goal


@dataclass(slots=True, unsafe_hash=True)
class CutThen(Goal):
    g1: Goal
    g2: Goal


@dataclass(slots=True, unsafe_hash=True)
class IsGround(Goal):
    """Succeeds once, binding nothing, iff `term` is ground under the
    store at evaluation time."""

    term: Term


_SUCCEED = Succeed()
_FAIL = Fail()


def succeed() -> Goal:
    """The goal that holds once with no additional constraints."""
    return _SUCCEED


def fail_goal() -> Goal:
    """The goal with no solutions."""
    return _FAIL


def conj(g1: Goal, g2: Goal) -> Goal:
    return Conj(g1, g2)


def disj(g1: Goal, g2: Goal) -> Goal:
    return Disj(g1, g2)


def cut_then(g1: Goal, g2: Goal) -> Goal:
    return CutThen(g1, g2)


def eq(a: Term, b: Term) -> Goal:
    """Unification constraint.  Both terms must have the same logical
    type; that is checked here, at construction."""
    ta = a.vid.ltype if type(a) is Var else a.ltype
    tb = b.vid.ltype if type(b) is Var else b.ltype
    if ta is not tb:
        raise TypeMismatchError(
            f"eq: terms have different logical types "
            f"({getattr(ta, 'name', '?')} vs {getattr(tb, 'name', '?')})"
        )
    return Unify(a, b)


def exists(ltype, body: Callable[[Term], Goal]) -> Goal:
    """Evaluate `body` with a fresh variable of type `ltype`.

    The variable is allocated when the goal is evaluated, not when it is
    built, so each unfolding of a recursive predicate gets its own."""
    return Exists(ltype, body)


def scope(g: Goal) -> Goal:
    return Scope(g)


def neg(g: Goal) -> Goal:
    """Negation as failure: succeeds once, binding nothing, iff `g` has
    no solution.  Weak when `g` mentions unbound variables."""
    return scope(cut_then(g, fail_goal()) | succeed())


def neq(a: Term, b: Term) -> Goal:
    """Holds iff `a` and `b` do not unify (negation as failure)."""
    return neg(eq(a, b))


def is_ground(t: Term) -> Goal:
    return IsGround(t)
