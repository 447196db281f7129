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
classes, compared, hashed and printed by value by `Goal`'s methods over
each class's `_fields`, but not frozen, because a frozen node pays a
guarded `__setattr__` per field.  No code assigns a field of a goal
node after construction.

A predicate defined with `@predicate` is compiled once per key (its
arguments' types), and once per key and compiled predicates passed to
it, into a `Template`, under the contract `predicate` states: its body
is run once on placeholders, each `exists` in it is expanded into a
numbered slot of an environment (see the `terms` module docstring), and
each term that mentions a parameter or a slot becomes a pattern
(`terms.pattern`).  Calling the predicate converts the
arguments and builds one `Call` node; the solver runs a `Call` by
reading its argument patterns into a fresh environment
(`terms.terms_of`) and jumping to the template's root, so no goal node
and no closure is built per unfolding (Warren, "An abstract Prolog
instruction set", SRI TN 309, 1983, renames clause templates the same
way).  Compiling also indexes a template's disjunctions on their first
argument (see `Disj`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import weakref
from types import FunctionType
from typing import Callable, Optional

from .terms import (
    Compound,
    LogicError,
    Term,
    TypeMismatchError,
    Var,
    VarId,
    pattern,
    term_type,
)


class Goal:
    """Base class for goal-tree nodes: values over the fields each class
    lists in `_fields`.  Equality (same class, equal fields) and `repr`
    are a dataclass's, and equal goals hash equal, written once here,
    since `@dataclass` runs generated source for each class at import.
    Each walks the tree over an explicit stack, so a goal tree of any
    depth is a value; `==` and `hash` enter a shared subgoal once, and
    `repr` prints it at each place it occurs."""

    __slots__ = ()
    _fields: tuple = ()

    def __eq__(self, other):
        """Compared pair by pair, as tuples of fields compare: a pair of
        one object is equal without being entered, a pair already
        entered is not entered again, and the first difference decides.
        So two goal DAGs compare in time linear in their distinct pairs."""
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        entered = set()  # (id, id) of the pairs on or off the stack
        while stack:
            a, b = stack.pop()
            for f in a._fields:
                x, y = getattr(a, f), getattr(b, f)
                if x is y:
                    continue
                if isinstance(x, Goal) and type(x) is type(y):
                    pair = (id(x), id(y))
                    if pair not in entered:
                        entered.add(pair)
                        stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        """Merkle-style: the hash of the node's class, its non-goal field
        values and its goal fields' hashes, each distinct node hashed
        once.  So equal goals hash equal however they share subgoals, in
        time linear in their distinct nodes."""
        hashes = {}  # id(node) -> its hash
        stack = [self]
        while stack:
            g = stack[-1]
            if id(g) in hashes:
                stack.pop()
                continue
            values = [getattr(g, f) for f in g._fields]
            todo = [x for x in values if isinstance(x, Goal) and id(x) not in hashes]
            if todo:
                stack += todo
                continue
            stack.pop()
            hashes[id(g)] = hash((type(g), *[
                hashes[id(x)] if isinstance(x, Goal) else x for x in values]))
        return hashes[id(self)]

    def __repr__(self):
        out = []
        stack = [self]  # goals still to show, and text already made
        while stack:
            g = stack.pop()
            if type(g) is str:
                out.append(g)
                continue
            out.append(f"{type(g).__name__}(")
            stack.append(")")
            fields = g._fields
            for i in range(len(fields) - 1, -1, -1):
                x = getattr(g, fields[i])
                walked = isinstance(x, Goal) and type(x).__repr__ is Goal.__repr__  # not a Call
                stack.append(x if walked else repr(x))
                stack.append(f", {fields[i]}=" if i else f"{fields[i]}=")
        return "".join(out)

    def __and__(self, other: "Goal") -> "Goal":
        return Conj(self, other)

    def __or__(self, other: "Goal") -> "Goal":
        return Disj(self, other)

    def __xor__(self, other: "Goal") -> "Goal":
        return CutThen(self, other)


class Succeed(Goal):
    __slots__ = ()


class Fail(Goal):
    __slots__ = ()


class Unify(Goal):
    """Unify two terms; in a template, two patterns."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right


class Conj(Goal):
    __slots__ = _fields = ("g1", "g2")

    def __init__(self, g1: Goal, g2: Goal):
        self.g1 = g1
        self.g2 = g2


class Disj(Goal):
    """Try `g1`, then `g2`.

    In a template, `index` may be ``(slot, ctor, steps, ticks)``, the
    first-argument index that `_index` finds at compile time, as the
    WAM's `switch_on_term` does (Warren, SRI TN 309, 1983): `g1` runs,
    through `Conj` left sides and slot `Exists`, to a first `Unify` of
    `slot`, which none of those `Exists` introduced, against a pattern
    or compound of constructor `ctor`, and the nodes up to that `Unify`,
    both included, cost `steps` steps and `ticks` counter values.  When
    `slot` follows to a compound of another constructor, that `Unify`
    must clash, so the solver adds `steps` to its steps and `ticks` to
    its counter and goes on at `g2` with no choicepoint.

    No count changes: `g1` would have cost exactly those steps and
    counter values, its `Unify` would have clashed in read mode at the
    top constructor, before any bind or take, nothing outside `g1` reads
    the slots its `Exists` set, and the pop that followed would have
    restored the store length, fence, barrier, environment and
    continuation the search still has.  `g2`'s own step checks the
    budget at once, so a search runs out exactly when it would have run
    out in or after `g1`.  So answers, names, `counter_at_yield`, raw
    stores and the budget a search needs are those of the same search
    without indexes.  The index is not part of equality, hashing or
    `repr`; a `Disj` built outside a template has none."""

    __slots__ = ("g1", "g2", "index")
    _fields = ("g1", "g2")

    def __init__(self, g1: Goal, g2: Goal, index: Optional[tuple] = None):
        self.g1 = g1
        self.g2 = g2
        self.index = index


class Exists(Goal):
    """Introduce a fresh variable of `ltype` at evaluation time and
    evaluate `body(fresh_var)`.  Bodies must be pure: the engine may
    call them again during backtracking.

    In a template, `slot` is an index into the environment and `body`
    is the compiled goal itself (see the `terms` module docstring)."""

    __slots__ = _fields = ("ltype", "body", "slot")

    def __init__(self, ltype: object, body: Callable[[Term], Goal], slot: Optional[int] = None):
        self.ltype = ltype
        self.body = body
        self.slot = slot


class Scope(Goal):
    """Delimits how far a cut fired inside `g` prunes alternatives."""

    __slots__ = _fields = ("g",)

    def __init__(self, g: Goal):
        self.g = g


class CutThen(Goal):
    __slots__ = _fields = ("g1", "g2")

    def __init__(self, g1: Goal, g2: Goal):
        self.g1 = g1
        self.g2 = g2


class IsGround(Goal):
    """Succeeds once, binding nothing, iff `term` is ground under the
    store at evaluation time."""

    __slots__ = _fields = ("term",)

    def __init__(self, term: Term):
        self.term = term


class Call(Goal):
    """Run a compiled predicate: `template` on argument terms or, inside
    a template, on argument patterns.  Inside a template, `template` may
    instead be the environment index of a function argument, which is
    called on the arguments.  Its step cost: see the `solve` module
    docstring."""

    __slots__ = _fields = ("template", "args")

    def __init__(self, template: object, args: tuple):
        self.template = template
        self.args = args

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
    """Unification constraint.  Both operands must be terms of the same
    logical type; that is checked here, at construction, and either
    failure raises TypeMismatchError."""
    ta = a.vid.ltype if type(a) is Var else a.ltype if type(a) is Compound else _not_a_term(a)
    tb = b.vid.ltype if type(b) is Var else b.ltype if type(b) is Compound else _not_a_term(b)
    if ta is not tb:
        raise TypeMismatchError(
            f"eq: terms have different logical types "
            f"({getattr(ta, 'name', '?')} vs {getattr(tb, 'name', '?')})"
        )
    return Unify(a, b)


def _not_a_term(x):
    raise TypeMismatchError(f"eq: expected a term, got {type(x).__name__} {x!r}")


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
    """Holds iff `a` and `b` do not unify (negation as failure).  Its
    operands are checked as `eq` checks them."""
    return neg(eq(a, b))


def is_ground(t: Term) -> Goal:
    return IsGround(t)


# --- compiled predicates ------------------------------------------------------


class Template:
    """One predicate body compiled for one key, or for one key and the
    compiled predicates passed to it (see `predicate`).  `pad` is what a
    call's environment holds after the arguments (see the `terms` module
    docstring), and `root` stays None when the body cannot be compiled
    (see `predicate`)."""

    __slots__ = ("name", "body", "root", "pad")

    def __init__(self, body: Callable[..., Goal]):
        self.name = body.__name__
        self.body = body
        self.root: Optional[Goal] = None
        self.pad: list = []

    def compile(self, args: tuple, specialise: bool = False) -> None:
        """Run the body on a placeholder for each term in `args`, and for
        each function on a `_Function` or, with `specialise`, on the
        compiled predicate itself (at its first place only), which keeps
        its slot."""
        slots = {}
        params = []
        for a in args:
            if type(a) is Var or type(a) is Compound:
                p = _placeholder(term_type(a))
                slots[p.vid] = len(slots)
            else:
                p = a if specialise and _is_predicate(a) and a not in slots else _Function()
                slots[p] = len(slots)
            params.append(p)
        arity = len(slots)
        try:
            self.root = _translate(self.body(*params), self.name, slots)
        except _Uncompilable:
            return
        types = [key.ltype if type(key) is VarId else None for key in slots]
        self.pad = [None] * (len(slots) - arity) + [types]


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
    The body runs once per key, on placeholders; each call afterwards
    costs one boundary conversion, one type test per converted argument
    and one `Call` node.  `templates` on the predicate is its cache of
    templates by key, and ``enter(args)`` does a call's work without the
    node: it checks the arity, runs the boundary, looks up or compiles
    the template and returns ``(template, converted)``; the predicate
    itself returns ``Call(*enter(args))``.

    The contract that makes compiling sound: a body may depend on its
    arguments' types, not on their values, and must be pure.  An
    argument that is not a term must be a function that builds a goal,
    such as a comparison; the body may only call it or pass it on.  It
    is kept in a slot and called when the search reaches the call the
    body makes of it, as a body built of closures would call it.  A body
    that compiling cannot finish (it recurses through `exists` closures
    of a plain function) or that passes on a function that may refer to
    its variables (`_closed`) is run on each call instead, when the
    search reaches the call, as a plain function.

    Specialisation.  When some converted arguments are compiled
    predicates (their code is `PREDICATE_CODE`; a wrapper of one is a
    plain function), the template is looked up under the key and those
    predicates, one per key and predicate arguments, and compiled by
    running the body on the predicates themselves, so a call the body
    makes of one is a `Call` of its template, as a direct call in a
    body is, and passing one on reaches the callee's template for it
    (Mercury specialises higher-order predicates on known closures the
    same way: Somogyi, Henderson & Conway, "The execution algorithm of
    Mercury", JLP 1996).  The predicates stay in their slots, and the
    specialised templates are kept by weak reference to them: a
    template goes when one of its predicates is collected.  The key's
    template (with `_Function` placeholders) is kept under the key and
    predicates in its place when specialising could change a count of
    the search (see the `solve` module docstring), that is when
      1. compiling the specialised body raises, as a call of a predicate
         on placeholders of the wrong types or number does: the search
         raises where it reaches the call;
      2. its root is a `Call`, so no step would separate the run of
         step-free calls before it from the calls it makes;
      3. a call of one of the predicates reaches, through template
         `Call`s only, a `Call` of a function argument or of a body that
         is not compiled (or one still being compiled), which would then
         count once less in its run."""

    def decorate(body: Callable[..., Goal]):
        arity = body.__code__.co_argcount
        cache: dict = {}  # key -> Template
        specialised: dict = {}  # (key, a weak reference or None per argument) -> Template

        def specialised_key(key, args) -> tuple:
            """The key in `specialised` of `key` and the predicates in
            `args`; its entry goes when one of them is collected."""
            def drop(_):
                specialised.pop(entry, None)
            entry = (key, tuple([weakref.ref(p, drop) if _is_predicate(p) else None
                                 for p in args]))
            return entry

        def enter(args) -> tuple:
            if len(args) != arity:
                raise TypeError(f"{body.__name__}() takes {arity} arguments ({len(args)} given)")
            key, args = boundary(*args)
            for a in args:
                if type(a) is FunctionType and a.__code__ is PREDICATE_CODE:
                    refs = tuple([weakref.ref(p) if _is_predicate(p) else None for p in args])
                    template = specialised.get((key, refs))
                    if template is None:
                        template = _template(body, specialised, specialised_key(key, args), args,
                                             (cache, key))
                    return template, args
            template = cache.get(key)
            if template is None:
                template = _template(body, cache, key, args)
            return template, args

        call = functools.wraps(body)(_predicate_call(enter))
        call.templates = cache
        call.enter = enter
        return call

    return decorate


def _predicate_call(enter):
    def call(*args):
        return Call(*enter(args))
    return call


# The code of every compiled predicate, by which one is known: not by an
# attribute, which `functools.wraps` copies to a wrapper.
PREDICATE_CODE = _predicate_call(None).__code__


def _is_predicate(f) -> bool:
    return type(f) is FunctionType and f.__code__ is PREDICATE_CODE


def _template(body, cache: dict, key, args: tuple, generic: Optional[tuple] = None) -> Template:
    """The template under `key` in `cache`: published, pending, or
    compiled now.  `generic`, the ``(cache, key)`` of the key's template,
    is given for a specialised key, and is compiled and kept in its place
    if the specialised one may not be (see `predicate`)."""
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
            if generic is None:
                template.compile(args)
            elif not _specialised(template, args):
                _forget(before)  # it, and the templates since, which may call it
                template = _template(body, *generic, args)
                _pending[(id(cache), key)] = (cache, key, template)
            if not before:
                _publish()
        except BaseException:
            _forget(before)
            raise
        return template


def _forget(before: set) -> None:
    """Drop the templates pending since `before` was taken."""
    for k in set(_pending) - before:
        del _pending[k]


def _specialised(template: Template, args: tuple) -> bool:
    """Compile `template` on the compiled predicates in `args`, and say
    whether it may stand for the key's template (see `predicate`)."""
    try:
        template.compile(args, specialise=True)
    except Exception:  # rule 1; the key's template raises it again if the body is at fault
        return False
    root = template.root
    if root is None or type(root) is Call:  # not compiled, or rule 2
        return False
    bodies = {p.__wrapped__ for p in args if _is_predicate(p)}  # their templates' bodies
    todo = [root]  # rule 3
    while todo:
        node = todo.pop()
        t = type(node)
        if t is Conj or t is Disj or t is CutThen:
            todo += (node.g1, node.g2)
        elif t is Scope:
            todo.append(node.g)
        elif t is Exists:
            todo.append(node.body)
        elif (t is Call and type(node.template) is Template and node.template.body in bodies
              and not _steps_first(node.template)):
            return False
    return True


def _steps_first(template: Template) -> bool:
    """Whether running `template` goes, through template `Call`s only,
    to a node that costs a step, not to a `Call` of a function argument
    or of a body that is not compiled (or is still being compiled)."""
    seen = set()
    while template not in seen:  # a loop of Calls, which `_publish` rejects
        seen.add(template)
        root = template.root
        if type(root) is not Call:
            return root is not None
        template = root.template
        if type(template) is not Template:
            return False
    return True


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
    a plain function with no free variables and no defaults.  A wrapper
    of a compiled predicate is a plain function."""
    return _is_predicate(f) or type(f) is FunctionType and (
        f.__closure__ is None and not f.__defaults__ and not f.__kwdefaults__)


def _translate(goal: Goal, name: str, slots: dict) -> Goal:
    """The template form of `goal`: each closure `Exists` expanded into
    a new slot, terms turned into patterns (`terms.pattern`) over
    `slots` (placeholder VarId, `_Function` or compiled predicate ->
    environment index), and each `Disj` given the index `_index` finds
    for its left branch.  Post-order over an explicit stack, so each
    node is built once, final.  Raises `_Uncompilable` where the
    template cannot stand for the goal (see `predicate`): at an `Exists`
    whose closure's code already runs on the path of expansions above
    it, which would expand forever, and at a call argument that
    `_closed` rejects."""

    def slot_of(v):
        k = slots.get(v.vid if type(v) is Var else v)
        if k is not None:
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
        if _closed(a):  # read from its slot if this template is specialised on it
            return slots.get(a, a)
        raise _Uncompilable

    done: list = []
    todo: list = [(goal, None)]  # (node, path): path is (code, path) or None
    while todo:
        node, path = todo.pop()
        t = type(node)
        if t is tuple:  # assemble a node from the last results
            kind, extra = node
            g = done.pop()
            if kind is Exists:
                ltype, k = extra
                done.append(Exists(ltype, g, k))
            elif kind is Scope:
                done.append(Scope(g))
            elif kind is Disj:
                g1 = done.pop()
                done.append(Disj(g1, g, _index(g1)))
            else:
                done.append(kind(done.pop(), g))
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
            done.append(Unify(pattern(node.left, slot_of), pattern(node.right, slot_of)))
        elif t is IsGround:
            done.append(IsGround(pattern(node.term, slot_of)))
        elif t is Call:
            f = node.template
            if type(f) is _Function:
                f = slot_of(f)
            done.append(Call(f, tuple([argument(a) for a in node.args])))
        elif t is Succeed or t is Fail:
            done.append(node)
        else:
            raise LogicError(f"not a goal: {node!r}")
    return done.pop()


def _index(goal: Goal) -> Optional[tuple]:
    """The index of a template `Disj` whose left branch is `goal`, or
    None (see `Disj`); `ticks` counts the `Exists` on the way."""
    steps = ticks = 0
    introduced = set()
    while True:
        steps += 1
        t = type(goal)
        if t is Conj:
            goal = goal.g1
        elif t is Exists:
            introduced.add(goal.slot)
            ticks += 1
            goal = goal.body
        elif t is Unify:
            left, right = goal.left, goal.right
            if type(left) is not int or left in introduced:
                return None
            if type(right) is tuple:
                return left, right[1], steps, ticks
            if type(right) is Compound:
                return left, right.ctor, steps, ticks
            return None
        else:
            return None
