"""Logic terms, variables, binding stores, and unification.

A term is either a variable or a constructor application whose children
are themselves terms.  Every term belongs to exactly one logical type;
variables of the same name but different types are distinct.  Binding
stores are immutable: extending a store returns a new one, so
backtracking is just "keep the old reference".  The structural
operations recurse over `Compound.args`: one definition for every type.

Groundness invariant: every `Compound` carries a `ground` flag, computed
once at construction from its children's flags (O(arity), no recursion),
and true iff the term contains no variable as written.  A ground term
cannot change under any store, so `resolve`, `occurs_in`,
`is_ground_term` and `substitute` return at a ground subterm without
entering it, and their cost is linear in the part of the term that is
not yet ground.  `occurs_in` and `is_ground_term` walk the store with an
explicit stack (`_free_vids`) instead of building `resolve(t, store)`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union


class LogicError(Exception):
    """Base class for errors raised by the engine."""


class TypeMismatchError(LogicError):
    """Terms of different logical types were combined."""


@dataclass(frozen=True)
class VarId:
    """Identity of a logic variable: a name plus its logical type.

    The same name at two different types denotes two distinct variables.
    Engine-generated names start with "_"; user names must not.
    """

    name: str
    ltype: Any  # a LogicType; compared and hashed by identity

    def __repr__(self):
        return f"{self.name}:{getattr(self.ltype, 'name', self.ltype)}"


@dataclass(frozen=True)
class Var:
    vid: VarId

    def __repr__(self):
        return f"Var({self.vid!r})"


@dataclass(frozen=True)
class Compound:
    ltype: Any
    ctor: str
    args: tuple
    # True iff no variable occurs in the term; not part of equality.
    ground: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ground = True
        for a in self.args:
            if not (isinstance(a, Compound) and a.ground):
                ground = False
                break
        object.__setattr__(self, "ground", ground)

    def __repr__(self):
        if not self.args:
            return self.ctor
        return f"{self.ctor}({', '.join(map(repr, self.args))})"


Term = Union[Var, Compound]


def term_type(t: Term):
    """The logical type a term belongs to."""
    if isinstance(t, Var):
        return t.vid.ltype
    return t.ltype


class BindingStore:
    """Immutable map from VarId to Term: the accumulated substitution.

    A variable is bound at most once; `bind` on an already-bound variable
    is a programming error.  Because stores are never mutated, any number
    of search branches may share one safely.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[dict] = None):
        self._bindings = bindings or {}

    def lookup(self, vid: VarId) -> Optional[Term]:
        return self._bindings.get(vid)

    def bind(self, vid: VarId, term: Term) -> "BindingStore":
        if vid in self._bindings:
            raise LogicError(f"variable {vid!r} is already bound")
        if term_type(term) is not vid.ltype:
            raise TypeMismatchError(
                f"cannot bind {vid!r} to a term of type "
                f"{getattr(term_type(term), 'name', '?')}"
            )
        new = dict(self._bindings)
        new[vid] = term
        return BindingStore(new)

    def __contains__(self, vid: VarId) -> bool:
        return vid in self._bindings

    def __iter__(self) -> Iterator[VarId]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self):
        return self._bindings.items()

    def __eq__(self, other):
        return isinstance(other, BindingStore) and self._bindings == other._bindings

    def __hash__(self):
        return hash(frozenset(self._bindings.items()))

    def __repr__(self):
        inner = ", ".join(f"{k!r} -> {v!r}" for k, v in self._bindings.items())
        return "{" + inner + "}"


EMPTY_STORE = BindingStore()


def walk(t: Term, store: BindingStore) -> Term:
    """Follow variable bindings until hitting an unbound variable or a
    compound.  Shallow: does not descend into compound children."""
    while isinstance(t, Var):
        bound = store.lookup(t.vid)
        if bound is None:
            return t
        t = bound
    return t


def resolve(t: Term, store: BindingStore) -> Term:
    """Replace every bound variable in `t` by its fully resolved binding,
    recursively through compound children.  Idempotent.  Ground subterms,
    and nodes none of whose children change, are returned as they are."""
    t = walk(t, store)
    if isinstance(t, Var) or t.ground:
        return t
    args = tuple(resolve(a, store) for a in t.args)
    if all(map(operator.is_, args, t.args)):
        return t
    return Compound(t.ltype, t.ctor, args)


def _free_vids(t: Term, store: BindingStore) -> Iterator[VarId]:
    """The variables of resolve(t, store), found over an explicit stack
    without building anything; skips ground subterms and compounds
    already entered (by `id`: all stay reachable during the walk)."""
    stack = [t]
    entered = set()
    while stack:
        t = walk(stack.pop(), store)
        if isinstance(t, Var):
            yield t.vid
        elif not t.ground and id(t) not in entered:
            entered.add(id(t))
            stack.extend(t.args)


def occurs_in(vid: VarId, t: Term, store: BindingStore) -> bool:
    """True iff `vid` occurs anywhere in resolve(t, store)."""
    return vid in _free_vids(t, store)


def is_ground_term(t: Term, store: BindingStore) -> bool:
    """True iff resolve(t, store) contains no variables."""
    return next(_free_vids(t, store), None) is None


def substitute(vid: VarId, replacement: Term, t: Term) -> Term:
    """Syntactically replace every occurrence of `vid` in `t`."""
    if isinstance(t, Var):
        return replacement if t.vid == vid else t
    if t.ground:
        return t
    return Compound(t.ltype, t.ctor, tuple(substitute(vid, replacement, a) for a in t.args))


def unify(a: Term, b: Term, store: BindingStore) -> Optional[BindingStore]:
    """Compute the least extension of `store` making `a` and `b` equal.

    Returns None on clash (constructor mismatch or occurs-check
    violation); the caller keeps the original store.  After walking both
    sides, a left-side variable is bound to the right, then a right-side
    variable to the left, then constructor payloads are matched.
    """
    if term_type(a) is not term_type(b):
        raise TypeMismatchError(
            f"cannot unify terms of types {getattr(term_type(a), 'name', '?')} "
            f"and {getattr(term_type(b), 'name', '?')}"
        )
    a = walk(a, store)
    b = walk(b, store)
    if isinstance(a, Var) and isinstance(b, Var) and a.vid == b.vid:
        return store
    if isinstance(a, Var):
        return _bind_checked(a.vid, b, store)
    if isinstance(b, Var):
        return _bind_checked(b.vid, a, store)
    return unify_args(a, b, store)


def unify_args(p: Compound, q: Compound, store: BindingStore) -> Optional[BindingStore]:
    """Constructor match: same constructor, children unified pairwise."""
    if p.ctor != q.ctor:
        return None
    for x, y in zip(p.args, q.args):
        store = unify(x, y, store)
        if store is None:
            return None
    return store


def _bind_checked(vid: VarId, t: Term, store: BindingStore) -> Optional[BindingStore]:
    if occurs_in(vid, t, store):
        return None
    return store.bind(vid, t)


def pretty(t: Term) -> str:
    """Render a term.  Variables print as their name; compounds go
    through the type's pretty override when one is installed."""
    if isinstance(t, Var):
        return t.vid.name
    override = getattr(t.ltype, "pretty_override", None)
    if override is not None:
        return override(t)
    return pretty_prefix(t)


def pretty_prefix(p: Compound) -> str:
    """``ctor(child, ...)``, each child rendered by `pretty`."""
    if not p.args:
        return p.ctor
    return f"{p.ctor}({', '.join(pretty(a) for a in p.args)})"
