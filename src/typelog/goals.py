"""The goal tree, its combinators, and compiled predicates.

Goals are immutable descriptions; building one performs no search, no
unification, and allocates no variables.  Operators mirror the usual
logic connectives with Python's own precedence doing the right thing:

    ``&`` conjunction  (binds tightest of the three)
    ``^`` cut-then     (commit to the left goal's first solution)
    ``|`` disjunction  (binds loosest)

so ``eq(a, b) ^ fail_goal() | c & d`` groups as
``(eq(a, b) ^ fail_goal()) | (c & d)``.

Immutability is kept by contract, not enforced: the nodes are slotted
classes, compared and hashed by value, but not frozen, because a frozen
node pays a guarded `__setattr__` per field.  No code assigns a field
after construction, except while a template is compiled: the
`Template` is filled in once, and its new `Exists` and `Unify` nodes
are marked for first occurrences (`_mark_first_uses`).

A predicate defined with `@predicate` is compiled once per key (its
arguments' types) into a `Template`: its body is run once on
placeholders, each `exists` in it is expanded into a numbered slot of
an environment, and each term that mentions a parameter or a slot
becomes a pattern (`terms.pattern`).  An argument that is not a term,
such as a comparison function, is a slot too, and is called when the
search reaches the call the body makes of it.  Calling the predicate
converts the arguments and builds one `Call` node; the solver runs a
`Call` by instantiating its argument patterns into a fresh environment
and jumping to the template's root, so no goal node and no closure is
built per unfolding (Warren, "An abstract Prolog instruction set", SRI
TN 309, 1983, renames clause templates the same way).  An `exists`
whose slot is first used in the right pattern of an `eq`, with no
choicepoint between that could resume, is made lazy: that occurrence
takes the subterm it meets in read mode, as the WAM's
``unify_variable`` does, and no variable is made or bound for it (see
`_mark_first_uses` and `terms.First`).  The contract that makes
compiling sound: a predicate's body may depend on its arguments'
types, not on their values.  A body that cannot be compiled, such as
one that calls a plain function recursing under `exists`, is run on
each call instead.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from types import FunctionType
from typing import Callable, Optional

from .terms import (
    Compound,
    LogicError,
    Term,
    TypeMismatchError,
    Var,
    VarId,
    mark_first,
    pattern,
    term_type,
)


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
    """Unify two terms; in a template, two patterns."""

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
    call them again during backtracking.

    In a template, `slot` is an index into the environment: the fresh
    variable is stored there and `body` is the compiled goal itself.  A
    `lazy` one stores only the number the variable's name carries: its
    first use, a `terms.First` subpattern, allocates the variable if it
    must (see `_mark_first_uses`)."""

    ltype: object
    body: Callable[[Term], Goal]
    slot: Optional[int] = None
    lazy: bool = False


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


@dataclass(slots=True, unsafe_hash=True)
class Call(Goal):
    """Run a compiled predicate: `template` on argument terms or, inside
    a template, on argument patterns.  Inside a template, `template` may
    instead be the environment index of a function argument, which is
    called on the arguments.  Costs no solver step."""

    template: object
    args: tuple

    def __repr__(self):
        return f"Call({getattr(self.template, 'name', self.template)}, {self.args!r})"


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


# --- compiled predicates ------------------------------------------------------


class Template:
    """One predicate body compiled for one key.

    The environment of a call holds the arguments at 0..n-1, then one
    slot per `exists` of the body (`pad` is their initial value).  An
    argument that is not a term, such as the relation of `map_p`, is
    kept in the environment and called when the search reaches the call
    the body makes of it, as a body built of closures would call it.
    `root` stays None when the body cannot be compiled (see
    `_translate`); a call then runs the body on its arguments when the
    search reaches it, as a plain function would."""

    __slots__ = ("name", "body", "root", "pad")

    def __init__(self, body: Callable[..., Goal]):
        self.name = body.__name__
        self.body = body
        self.root: Optional[Goal] = None
        self.pad: list = []

    def unfold(self, args: tuple) -> Goal:
        """The goal the undecorated body builds on these arguments: what
        `Call(self, args)` means."""
        return self.body(*args)

    def compile(self, args: tuple) -> None:
        slots = {}
        params = []
        for a in args:
            if type(a) is Var or type(a) is Compound:
                p = _placeholder(term_type(a))
                slots[p.vid] = len(slots)
            else:
                p = _Function()
                slots[p] = len(slots)
            params.append(p)
        arity = len(slots)
        info: dict = {}
        try:
            self.root = _translate(self.body(*params), self.name, slots, info)
        except _Uncompilable:
            return
        _mark_first_uses(self.root, info)
        self.pad = [None] * (len(slots) - arity)


class _Function:
    """What a body is run on for an argument that is not a term: calling
    it builds the `Call` the search makes of the argument."""

    __slots__ = ()

    def __call__(self, *args):
        return Call(self, args)


class _Uncompilable(Exception):
    """A body whose template `_translate` cannot finish or cannot express."""


_PLACEHOLDER = "_#"
_ids = itertools.count()
# Compilation is serialised.  Templates compiled under one outermost
# compilation are `_pending` until it finishes, and published to their
# caches only if it succeeds, so no other thread sees an unfinished one.
# A body that calls a predicate still being compiled, its own included,
# gets that pending template: recursion needs no root yet.
_LOCK = threading.RLock()
_pending: dict = {}  # (id(cache), key) -> (cache, key, Template)


def _placeholder(ltype) -> Var:
    return Var(tuple.__new__(VarId, (f"{_PLACEHOLDER}{next(_ids)}", ltype)))


def predicate(boundary: Callable[..., tuple]):
    """Decorator: compile a goal-building function into a predicate.

    ``boundary(*args)`` converts a call's arguments and returns ``(key,
    converted)``: `key` names the template to use and must determine the
    types of the term arguments and which arguments are not terms, and
    `converted` is the tuple of converted arguments the body receives.
    An argument that is not a term must be a function that builds a
    goal, such as a comparison; the body may only call it or pass it on.
    The body runs once per key, on placeholders; each call afterwards
    costs one boundary conversion and one `Call` node.  A body may
    depend on its arguments' types, not on their values, and must be
    pure.  A body that compiling cannot finish (it recurses through
    `exists` closures of a plain function) or that passes on a function
    that may refer to its variables is run on each call instead, as a
    plain function.  `templates` on the predicate is its cache of
    templates."""

    def decorate(body: Callable[..., Goal]):
        arity = body.__code__.co_argcount
        cache: dict = {}

        @functools.wraps(body)
        def call(*args):
            if len(args) != arity:
                raise TypeError(f"{body.__name__}() takes {arity} arguments ({len(args)} given)")
            key, args = boundary(*args)
            template = cache.get(key)
            if template is None:
                template = _template(body, cache, key, args)
            return Call(template, args)

        call.templates = cache
        return call

    return decorate


def _template(body, cache: dict, key, args: tuple) -> Template:
    with _LOCK:
        entry = _pending.get((id(cache), key))
        if entry is not None:
            return entry[2]
        template = cache.get(key)
        if template is not None:
            return template
        before = set(_pending)
        template = Template(body)
        _pending[(id(cache), key)] = (cache, key, template)
        try:
            template.compile(args)
            if not before:
                _publish()
        except BaseException:
            for k in set(_pending) - before:
                del _pending[k]
            raise
        return template


def _publish() -> None:
    """Check the templates of a finished outermost compilation and move
    them into their caches."""
    for _, _, template in _pending.values():
        seen = set()
        node = template.root
        while type(node) is Call and type(node.template) is Template:
            if node.template in seen:
                raise LogicError(f"predicate {template.name} calls itself without a goal between")
            seen.add(node.template)
            node = node.template.root
    for cache, key, template in _pending.values():
        cache[key] = template
    _pending.clear()


def _closed(f) -> bool:
    """Whether `f`, an argument of a call in a body that is not a term,
    can refer to no variable of the body: it is a compiled predicate, or
    a plain function with no free variables and no defaults."""
    return type(f) is FunctionType and (hasattr(f, "templates") or (
        f.__closure__ is None and not f.__defaults__ and not f.__kwdefaults__))


def _translate(goal: Goal, name: str, slots: dict, info: dict) -> Goal:
    """The template form of `goal`: each closure `Exists` expanded into
    a new slot, terms turned into patterns (`terms.pattern`) over `slots`
    (placeholder VarId or `_Function` -> environment index).  Post-order
    over an explicit stack.  `info` gets, by `id` of each node made,
    ``(mentions, plain, firsts)``: the bit mask of the slots the node
    mentions, whether it is made only of `Conj`, `Unify`, `IsGround`,
    `Succeed` and `Fail` (so it pushes no choicepoint), and for a
    `Unify`, the slots its right pattern mentions and its left does not.

    Raises `_Uncompilable` where the template cannot stand for the goal:
    at an `Exists` whose closure's code already runs on the path of
    expansions above it, since a plain function that recurses under
    `exists` would expand forever, and at a call argument that is a
    function which may refer to the body's variables."""

    mask = 0  # the slots `slot_of` gave since it was last cleared

    def slot_of(v):
        nonlocal mask
        k = slots.get(v.vid if type(v) is Var else v)
        if k is not None:
            mask |= 1 << k
            return k
        if type(v) is _Function or v.vid.name.startswith(_PLACEHOLDER):
            raise LogicError(
                f"predicate {name} refers to a variable of an enclosing predicate's body; "
                f"define it outside that body")
        return v

    def argument(a):
        if type(a) is Var or type(a) is Compound:
            return pattern(a, slot_of)
        if type(a) is _Function:
            return slot_of(a)
        if _closed(a):
            return a
        raise _Uncompilable

    def emit(node, mentions, plain, firsts=0):
        info[id(node)] = (mentions, plain, firsts)
        done.append(node)

    done: list = []
    todo: list = [(goal, None)]  # (node, path): path is (code, path) or None
    while todo:
        node, path = todo.pop()
        t = type(node)
        if t is tuple:  # assemble a node from the last results
            kind, extra = node
            g = done.pop()
            m, plain, _ = info[id(g)]
            if kind is Exists:
                emit(Exists(extra[0], g, extra[1]), m, False)
            elif kind is Scope:
                emit(Scope(g), m, False)
            else:
                g1 = done.pop()
                m1, plain1, _ = info[id(g1)]
                emit(kind(g1, g), m1 | m, kind is Conj and plain1 and plain)
        elif t is Conj or t is Disj or t is CutThen:
            todo += (((t, None), None), (node.g2, path), (node.g1, path))
        elif t is Scope:
            todo += (((Scope, None), None), (node.g, path))
        elif t is Exists:
            code = getattr(node.body, "__code__", type(node.body))
            above = path
            while above is not None:
                if above[0] is code:
                    raise _Uncompilable
                above = above[1]
            v = _placeholder(node.ltype)
            k = slots[v.vid] = len(slots)
            todo += (((Exists, (node.ltype, k)), None), (node.body(v), (code, path)))
        elif t is Unify:
            mask = 0
            left = pattern(node.left, slot_of)
            ml, mask = mask, 0
            emit(Unify(left, pattern(node.right, slot_of)), ml | mask, True, mask & ~ml)
        elif t is IsGround:
            mask = 0
            emit(IsGround(pattern(node.term, slot_of)), mask, True)
        elif t is Call:
            mask = 0
            f = node.template
            if type(f) is _Function:
                f = slot_of(f)
            emit(Call(f, tuple([argument(a) for a in node.args])), mask, False)
        elif t is Succeed or t is Fail:
            emit(node, 0, True)
        else:
            raise LogicError(f"not a goal: {node!r}")
    return done.pop()


def _mark_first_uses(root: Goal, info: dict) -> None:
    """Make lazy each `Exists` of the template `root` whose slot is first
    used in the right pattern of a `Unify`, with no choicepoint between
    them that could resume: that pattern's first occurrence of the slot
    becomes a `terms.First` (`terms.mark_first`), which takes what it
    meets.  No goal reads the slot before, and no goal can read what it
    took once backtracking has undone it.  The way down from the
    `Exists` to its `Unify` may pass through nested `Exists`,
    the left side of a `Conj`, the right side of a `Conj` whose left side
    does not mention the slot and pushes no choicepoint, and the right
    branch of a `Disj` whose left branch does not mention the slot, when
    nothing after the `Disj` in the `Exists`' body does.  Any other slot
    stays eager: its first use is in a left pattern, a `Call` or an
    `IsGround`, or under a `Scope` or a `CutThen`.

    Top-down over an explicit stack, carrying two bit masks of slots:
    those whose first use may still lie below, and those of them that a
    goal after the current node mentions.  `info` is what `_translate`
    recorded.  Marks the nodes in place: they are new and not yet
    published."""
    found = {}  # slot -> its Exists
    lazy = 0
    todo = [(root, 0, 0)]  # (node, candidates, mentioned later)
    while todo:
        node, cands, later = todo.pop()
        t = type(node)
        if t is Exists:
            found[node.slot] = node
            todo.append((node.body, cands | 1 << node.slot, later))
        elif t is Conj:
            m1, plain1, _ = info[id(node.g1)]
            first = cands & m1
            rest = cands & ~m1 if plain1 else 0
            todo.append((node.g1, first, (later | info[id(node.g2)][0]) & first))
            todo.append((node.g2, rest, later & rest))
        elif t is Disj:
            todo.append((node.g1, 0, 0))
            todo.append((node.g2, cands & ~info[id(node.g1)][0] & ~later, 0))
        elif t is CutThen:
            todo += ((node.g1, 0, 0), (node.g2, 0, 0))
        elif t is Scope:
            todo.append((node.g, 0, 0))
        elif t is Unify:
            hits = cands & info[id(node)][2]
            if hits:
                lazy |= hits
                ltypes = {}
                while hits:
                    k = (hits & -hits).bit_length() - 1
                    ltypes[k] = found[k].ltype
                    hits &= hits - 1
                node.right = mark_first(node.right, ltypes)
    for k, e in found.items():
        e.lazy = bool(lazy >> k & 1)
