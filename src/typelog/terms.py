"""Logic terms, variables, binding stores, and unification.

A term is either a variable or a constructor application whose children
are themselves terms.  Every term belongs to exactly one logical type;
variables of the same name but different types are distinct.  The
structural operations work over `Compound.args`: one definition for
every type.  Every walk over a term runs over an explicit stack, so
terms of any depth are accepted: `unify`, `instantiate`, `Compound`
equality, `_fingerprint` (behind hashing), `_free_vids` (behind
`occurs_in` and `is_ground_term`, which build nothing), `_rebuild`
(behind `resolve`, `substitute` and `pattern`) and `_render` (behind
`repr` and `pretty`).

Terms are immutable by contract: `VarId` is a tuple, and `Var` and
`Compound` are slotted classes whose attributes no code assigns once
the term is built.  This is not enforced by a `__setattr__` guard,
because the engine allocates variables and compounds per unfolding,
and a guarded (frozen) constructor costs more than twice as much.
Code that mutates a term breaks sharing between search branches, the
`ground` flag and hashing.

The ground rule.  Every `Compound` carries a `ground` flag, true iff
the term contains no variable as written, set once at construction
from its children's flags: true iff every child is a ground compound
(O(arity), no recursion).  Four builders set it by this rule:
`Compound.__init__`, and `_rebuild`, `instantiate` and `_cons_chain`,
which allocate a compound without calling its class (`_new`) and set
every slot in place, since that costs less than the call into
`__init__`.  A ground term cannot change under any store, so
`resolve`, `occurs_in`, `is_ground_term` and `substitute` return at a
ground subterm without entering it, and their cost is linear in the
part of the term that is not yet ground.  For the same reason the
occurs check in `unify` walks only a non-ground compound, and looks one
level down first (`_may_occur`).

A compound's fingerprint is a Merkle-style hash of its type, its
constructor and its children's fingerprints, a variable child giving
its own hash, so equal terms have equal fingerprints however they
share.  It is lazy: the four builders leave its slot unset, since
computing it at construction cost enumerate 8%, and `_fingerprint`
computes it over an explicit stack the first time it is asked for,
caching it on every node it enters, so each node is hashed once in its
life.  It is `Compound.__hash__`, and it only ever rejects: two
compounds whose fingerprints differ are not equal, but equal
fingerprints prove nothing, so `unify` never accepts a pair on them.
For ground terms unification is equality, so `unify`'s pair loop
decides two ground compounds of one constructor that are not the same
object without binding or descending: equal if their children are
pairwise the same objects, else unequal if their fingerprints differ,
else as `==` says (`_ground_equal`).  Each step costs at most the
distinct node pairs of the two terms, not their paths.

The search store is its own trail.  Where a public `BindingStore` is
an immutable value, each search owns one `_SearchStore`, bound in
place, whose dict is its trail: a dict keeps insertion order, so a
choicepoint's mark is the dict's length, and backtracking pops every
entry added since, the bindings of a clashing `unify` included (Warren,
"An abstract Prolog instruction set", SRI TN 309, 1983); a bind costs
O(1) however long the store.  `unify` writes every binding
at one site for both kinds: into the search store's dict, or into a
copy of a public store's dict, made at the call's first bind and
returned, so a public store never changes.  The search store never
leaves its search: `solve._search` yields it live, and its callers read
each answer from it before the search resumes.

The environment.  A compiled predicate (`goals.predicate`) holds its
terms as patterns over an environment of slots: a slot index, a tuple
``(ltype, ctor, subpatterns)``, or a term that mentions no slot.  A
call's environment holds its arguments, then one slot per `exists` of
the body, then the list of the slots' types.  This module alone builds
and reads patterns: `pattern` makes one, `instantiate` builds the compound one
denotes, `terms_of` reads a tuple of goal operands, and `unify` reads
one on its left and matches one on its right (Aït-Kaci, "Warren's
Abstract Machine: A Tutorial Reconstruction", 1991).  `pattern` and
`instantiate` keep shared subterms shared, so their cost is linear in
the distinct nodes.

An `exists` stores the fresh-variable counter's value n in its slot.
The slot's first read makes its variable ``_n``, typed by that list
(`_fresh`), so names are those of an eager `exists`, except where
`unify` meets the slot on its right side with a compound: the slot
takes the compound, and no variable is made or bound, as the WAM's
``unify_variable`` loads a clause variable's first occurrence in a head
structure.  A take sets the slot off the trail, so it needs that no
choicepoint pushed since the `exists` is live: resuming one would read
what an undone branch took (a made variable's bindings are trailed, so
making one needs no such test).  So a take needs ``n >= fence``, where
a search store's `fence` is the counter value when the newest live
choicepoint was pushed, 0 with none: each choicepoint saves the fence
it replaces, a pop restores that value, and a cut restores the value
the first entry it removes saved (`solve._search`).  A take changes no
answer, name or counter, and a raw store only lacks the entries of
variables never made.  The solver sets a slot in place, which is safe:
within one call, a slot's `exists` runs again only after backtracking
to a choicepoint older than its last run, and that discards every
frame and choicepoint that could read the old value.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional, Union


class LogicError(Exception):
    """Base class for errors raised by the engine."""


class TypeMismatchError(LogicError):
    """Terms of different logical types were combined."""


class VarId(NamedTuple):
    """Identity of a logic variable: a name plus its logical type.

    The same name at two different types denotes two distinct variables.
    Engine-generated names start with "_"; user names must not.  A tuple,
    so the binding store hashes it in C, but never equal to a plain tuple.
    """

    name: str
    ltype: Any  # a LogicType; compared and hashed by identity

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is VarId and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return f"{self.name}:{getattr(self.ltype, 'name', self.ltype)}"


class Var:
    """A logic variable term, identified by its `vid`."""

    __slots__ = ("vid",)

    def __init__(self, vid: VarId):
        self.vid = vid

    def __eq__(self, other):
        if type(other) is not Var:
            return NotImplemented
        return self.vid == other.vid

    def __hash__(self):
        return hash(self.vid)

    def __repr__(self):
        return f"Var({self.vid!r})"


class Compound:
    """A constructor application: `ctor` of type `ltype` over `args`.

    `ground` follows the module docstring's ground rule, and `_fp`, the
    fingerprint, stays unset until `_fingerprint` computes it; neither
    is part of equality.  Equality is structural and enters each pair
    of nodes once, so terms that share subterms cost their distinct
    nodes, not their paths.  The hash is the fingerprint.
    """

    __slots__ = ("ltype", "ctor", "args", "ground", "_fp")

    def __init__(self, ltype, ctor: str, args: tuple):
        self.ltype = ltype
        self.ctor = ctor
        self.args = args
        for a in args:
            if type(a) is not Compound or not a.ground:
                self.ground = False
                break
        else:
            self.ground = True

    def __eq__(self, other):
        if type(other) is not Compound:
            return NotImplemented
        pairs = [(self, other)]
        entered = set()  # (id, id) of compound pairs: all stay reachable
        while pairs:
            p, q = pairs.pop()
            if p is q:
                continue
            if type(p) is not Compound or type(q) is not Compound:
                if p != q:
                    return False
            elif p.ltype != q.ltype or p.ctor != q.ctor or len(p.args) != len(q.args):
                return False
            elif (id(p), id(q)) not in entered:
                entered.add((id(p), id(q)))
                pairs.extend(zip(p.args, q.args))
        return True

    def __hash__(self):
        return _fingerprint(self)

    def __repr__(self):
        return _render(self, repr, overrides=False)


Term = Union[Var, Compound]

# Allocates a term without calling its class (the ground rule's builders).
_new = object.__new__


def _fingerprint(t: Compound) -> int:
    """`t`'s fingerprint (the module docstring's ground rule): read from
    its slot, or computed post-order over an explicit stack and cached
    on each node entered, so shared nodes are hashed once."""
    try:
        return t._fp
    except AttributeError:
        pass
    stack = [t]
    while stack:
        u = stack[-1]
        depth = len(stack)
        hashes = []
        for a in u.args:
            if type(a) is Var:
                hashes.append(hash(a))
            elif (h := getattr(a, "_fp", None)) is None:
                stack.append(a)  # hashed first, then `u` again
            else:
                hashes.append(h)
        if len(stack) == depth:
            u._fp = hash((u.ltype, u.ctor, tuple(hashes)))
            stack.pop()
    return t._fp


def _ground_equal(a: Compound, b: Compound) -> bool:
    """Whether ground compounds `a` and `b` of one type and constructor
    are equal, by the module docstring's ground rule: children pairwise
    the same objects first, so that a head just built costs no
    fingerprint, then a clash on differing fingerprints, then `==`."""
    for x, y in zip(a.args, b.args):
        if x is not y:
            return _fingerprint(a) == _fingerprint(b) and a == b
    return True


def term_type(t: Term):
    """The logical type a term belongs to."""
    if type(t) is Var:
        return t.vid.ltype
    return t.ltype


class BindingStore:
    """Immutable map from VarId to Term: the accumulated substitution.

    A variable is bound at most once; `bind` on an already-bound variable
    is a programming error.  `bind` copies, so a store is never mutated
    and any number of holders may share one safely.  The store keeps the
    dict it is given, without copying it.
    """

    __slots__ = ("_bindings",)
    fence = 0  # no choicepoints, so `unify` may always take

    def __init__(self, bindings: Optional[dict] = None):
        self._bindings = {} if bindings is None else bindings

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


class _SearchStore(BindingStore):
    """The store of one search, bound in place, its dict its trail, and
    its `fence` the bound on takes (see the module docstring).  Mutable,
    so not hashable."""

    __slots__ = ("fence",)
    __hash__ = None

    def __init__(self, bindings: Optional[dict] = None):
        self._bindings = {} if bindings is None else bindings
        self.fence = 0


def walk(t: Term, store: BindingStore) -> Term:
    """Follow variable bindings until hitting an unbound variable or a
    compound.  Shallow: does not descend into compound children."""
    bindings = store._bindings
    while type(t) is Var:
        bound = bindings.get(t.vid)
        if bound is None:
            return t
        t = bound
    return t


def resolve(t: Term, store: BindingStore) -> Term:
    """Replace every bound variable in `t` by its fully resolved binding,
    through compound children.  Idempotent.  Ground subterms, and nodes
    none of whose children change, are returned as they are."""
    return _rebuild(t, store, _same)


def _same(v: Var) -> Term:
    return v


def _rebuild(t: Term, store: BindingStore, leaf, make=Compound):
    """`t` with each position walked through `store` and each unbound
    variable `v` replaced by `leaf(v)`, called left to right, depth first,
    once per occurrence the walk enters.

    It projects every answer, and the answers of one query can hold
    nodes quadratic in its size (`append(X, Y, xs)` answers with every
    prefix of `xs`), so it is post-order over an explicit stack of
    frames, one per compound being rebuilt: the node, an iterator over
    its children, the children rebuilt so far, whether every one of
    them kept its identity, and the child being entered, which its
    rebuilt form is compared with.  So a node costs one frame, one pass
    over its children and at most one `make`.  What `leaf` returns is
    not entered.  Ground subterms, and nodes none of whose children
    change, are kept as they are; any other node becomes ``make(ltype,
    ctor, children)``, built in place when `make` is `Compound` (the
    ground rule).  Each entered compound is rebuilt once, keyed by `id`
    (all stay reachable during the walk), so bindings and subterms that
    are shared cost time linear in the distinct nodes, and the result
    keeps their sharing."""
    bindings = store._bindings
    while type(t) is Var:
        bound = bindings.get(t.vid)
        if bound is None:
            return leaf(t)
        t = bound
    if t.ground:
        return t
    built = {}
    frames = []
    node, it, out, same = t, iter(t.args), [], True
    while True:
        for a in it:
            b = a
            while type(b) is Var:
                bound = bindings.get(b.vid)
                if bound is None:
                    b = leaf(b)
                    break
                b = bound
            else:  # a compound
                if not b.ground:
                    new = built.get(id(b))
                    if new is None:  # enter it; the `for`'s `else` finishes it
                        frames.append((node, it, out, same, a))
                        node, it, out, same = b, iter(b.args), [], True
                        break
                    b = new
            out.append(b)
            if b is not a:
                same = False
        else:
            if same:
                new = node
            elif make is Compound:  # built in place: the ground rule
                new = _new(Compound)
                new.ltype, new.ctor, new.args = node.ltype, node.ctor, tuple(out)
                for b in out:
                    if type(b) is not Compound or not b.ground:
                        new.ground = False
                        break
                else:
                    new.ground = True
            else:
                new = make(node.ltype, node.ctor, tuple(out))
            built[id(node)] = new
            if not frames:
                return new
            node, it, out, same, a = frames.pop()
            out.append(new)
            if new is not a:
                same = False


def _free_vids(t: Term, store: BindingStore) -> Iterator[VarId]:
    """The variables of resolve(t, store), found over an explicit stack
    without building anything; skips ground subterms and compounds
    already entered (by `id`: all stay reachable during the walk)."""
    bindings = store._bindings
    stack = [t]
    entered = set()
    while stack:
        t = stack.pop()
        while type(t) is Var:
            bound = bindings.get(t.vid)
            if bound is None:
                break
            t = bound
        if type(t) is Var:
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
    """Syntactically replace every occurrence of `vid` in `t`, in one
    pass: `replacement` is not entered."""
    return _rebuild(t, EMPTY_STORE, lambda v: replacement if v.vid == vid else v)


def _may_occur(vid: VarId, t: Compound, bindings: dict) -> bool:
    """False when no child of `t` can contain `vid`: each is ground or an
    unbound variable other than `vid`.  One level deep; True only means
    that the full walk (`occurs_in`) must decide."""
    for c in t.args:
        if type(c) is Var:
            if c.vid in bindings or c.vid == vid:
                return True
        elif not c.ground:
            return True
    return False


def _fresh(env: list, k: int) -> Var:
    """Make the variable of slot `k`, which holds the number n of its
    `exists`: ``_n``, of the type `env[-1]` gives the slot, stored in
    the slot (see the module docstring)."""
    v = env[k] = Var(tuple.__new__(VarId, (f"_{env[k]}", env[-1][k])))
    return v


def _type_clash(ta, tb) -> TypeMismatchError:
    return TypeMismatchError(
        f"cannot unify terms of types {getattr(ta, 'name', '?')} "
        f"and {getattr(tb, 'name', '?')}"
    )


def unify(a, b, store: BindingStore, env: Optional[list] = None) -> Optional[BindingStore]:
    """Compute the least extension of `store` making `a` and `b` equal.

    Returns None on clash (constructor mismatch or occurs-check
    violation).  Each binding is written where the module docstring's
    search store paragraph says.  After following both sides' bindings, a
    left-side variable is bound to the right, then a right-side variable
    to the left, then constructor payloads are matched, children left to
    right and depth first, over an explicit stack of pairs.  Bindings
    are followed in the dict directly, as `walk` would.  Types are
    checked here, at entry, once per call: the children of matching
    constructors of one type have matching types by construction
    (`LogicType.make`).  A variable is bound only while unbound, since
    both sides are followed first, and only after the occurs check, so
    `BindingStore.bind`'s checks are not needed.  Two ground compounds
    of one constructor are not descended into: the module docstring's
    ground rule decides them (`_ground_equal`), binding nothing.

    With an environment `env`, `b` may also be a pattern, and so may
    `a`, read first, as ``terms_of((a,), env)[0]``: a slot on the left
    never takes.  A pattern met by a compound is matched in read mode:
    the constructors are compared and the children paired with the
    subpatterns, building nothing.  A pattern met by an unbound variable
    is matched in write mode: it is instantiated, and the variable is
    bound to the compound after the occurs check.  So the bindings,
    their order and the verdict are those of ``unify(a, instantiate(b,
    env), store)``.  A slot that still holds the number of its `exists`
    takes the compound it meets if the fence allows, and otherwise gets
    its variable (see the module docstring's environment).  The bindings
    of variables other than the slots' own are those made with each
    slot's variable made beforehand and bound to what it meets.

    The head match.  The commonest unification of a search is a clause
    head such as ``eq(x, suc(x1))``: a left slot whose term, its
    bindings followed, is a compound, met by a pattern whose children
    are often fresh slots.  It is matched at entry, as the WAM's
    ``get_structure`` in read mode, then ``unify_variable``: the type
    and constructor are checked as above, a child that is a compound is
    taken by a subpattern slot that still holds its number if the fence
    allows, and each other child, a variable bound to a compound too, is
    unified by a nested call, left to right, whose store the next child
    gets.  That call has a term on its left, so it runs the general path
    and never nests again.  The pair loop also finishes each child
    before the next, so every binding, take, name, verdict and step
    count is the same either way; the head match only skips the loop's
    operand dispatch and pair list.  With a public store, each nested
    call copies at its own first bind.
    """
    if type(a) is int:  # a slot: its term, or its variable made now
        t = env[a]
        if type(t) is int:
            a = _fresh(env, a)
        elif type(b) is tuple:  # the head match
            bindings = store._bindings
            while type(t) is Var:
                bound = bindings.get(t.vid)
                if bound is None:
                    break
                t = bound
            if type(t) is Compound:
                if t.ltype is not b[0]:
                    raise _type_clash(t.ltype, b[0])
                if t.ctor != b[1]:
                    return None
                for c, s in zip(t.args, b[2]):
                    if (type(s) is int and type(c) is Compound
                            and type(n := env[s]) is int and n >= store.fence):
                        env[s] = c  # a take
                        continue
                    store = unify(c, s, store, env)
                    if store is None:
                        return None
                return store
            a = t  # an unbound variable: write mode
        else:
            a = t
    elif type(a) is tuple:
        a = instantiate(a, env)
    ta = a.vid.ltype if type(a) is Var else a.ltype
    if type(b) is int:
        t = env[b]
        if type(t) is not int:
            b = t  # a slot that holds a term
    if type(b) is tuple:  # a pattern: its type comes first
        tb = b[0]
    elif type(b) is Compound:
        tb = b.ltype
    elif type(b) is Var:
        tb = b.vid.ltype
    else:  # a slot that holds its number
        tb = env[-1][b]
    if ta is not tb:
        raise _type_clash(ta, tb)
    bindings = store._bindings
    shared = type(store) is not _SearchStore
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        while type(a) is Var:
            bound = bindings.get(a.vid)
            if bound is None:
                break
            a = bound
        tb = type(b)
        if tb is int:
            k, b = b, env[b]
            if type(b) is int:  # the slot's first read
                if type(a) is not Var and b >= store.fence:
                    env[k] = a  # a take
                    continue
                b = _fresh(env, k)
        elif tb is tuple:
            if type(a) is not Var:  # read mode
                if a.ctor != b[1]:
                    return None
                pairs.extend(zip(reversed(a.args), reversed(b[2])))
                continue
            b = instantiate(b, env)  # write mode: built only to be bound
        while type(b) is Var:
            bound = bindings.get(b.vid)
            if bound is None:
                break
            b = bound
        if a is b:
            continue
        if type(a) is Var:
            if type(b) is Var:
                if a.vid == b.vid:
                    continue
            elif not b.ground and _may_occur(a.vid, b, bindings) and occurs_in(a.vid, b, store):
                return None
            vid, term = a.vid, b
        elif type(b) is Var:
            if not a.ground and _may_occur(b.vid, a, bindings) and occurs_in(b.vid, a, store):
                return None
            vid, term = b.vid, a
        elif a.ctor != b.ctor:
            return None
        elif a.ground and b.ground:  # equality: the ground rule
            if _ground_equal(a, b):
                continue
            return None
        else:
            # Reversed, so that children are popped left to right.
            pairs.extend(zip(reversed(a.args), reversed(b.args)))
            continue
        if shared:  # a public store is copied once, at its first bind
            store = BindingStore(dict(bindings))
            bindings = store._bindings
            shared = False
        bindings[vid] = term
    return store


def pattern(t: Term, slot_of):
    """`t` as a pattern over an environment, the inverse of `instantiate`:
    a variable becomes `slot_of(v)` (a slot index, or a term), a compound
    that mentions a slot becomes ``(ltype, ctor, subpatterns)``, and any
    other term stays as it is.  A subterm that occurs twice becomes one
    subpattern object, so `instantiate` builds it once."""
    return _rebuild(t, EMPTY_STORE, slot_of, _pattern_node)


def _pattern_node(ltype, ctor: str, subpatterns: tuple) -> tuple:
    return ltype, ctor, subpatterns


def instantiate(p: tuple, env: list) -> Compound:
    """The compound a pattern ``(ltype, ctor, subpatterns)`` denotes in
    `env`: a subpattern that is an int is the term in that slot, its
    variable made now if the slot still holds a number (`_fresh`, and
    see the module docstring), a tuple is instantiated in turn, and
    anything else is a term as it is.  No type check is needed: `make`
    checked every position when the template was built.  Each
    subpattern object is built once, keyed by `id` (the pattern keeps
    all of them alive), so the compound keeps the pattern's sharing.
    Each compound is built in place (the ground rule)."""
    built = {}
    frames = []
    ltype, ctor, subs = p
    i, out = 0, []
    while True:
        if i < len(subs):
            s = subs[i]
            i += 1
            ts = type(s)
            if ts is int:
                t = env[s]
                out.append(_fresh(env, s) if type(t) is int else t)
            elif ts is tuple:
                k = id(s)
                if k in built:
                    out.append(built[k])
                else:
                    frames.append((ltype, ctor, subs, i, out, k))
                    ltype, ctor, subs = s
                    i, out = 0, []
            else:
                out.append(s)
            continue
        t = _new(Compound)  # built in place: the ground rule
        t.ltype, t.ctor, t.args = ltype, ctor, tuple(out)
        for b in out:
            if type(b) is not Compound or not b.ground:
                t.ground = False
                break
        else:
            t.ground = True
        if not frames:
            return t
        ltype, ctor, subs, i, out, k = frames.pop()
        built[k] = t
        out.append(t)


def _cons_chain(ltype, tail: Term, heads) -> Term:
    """The right-nested chain of `ltype`'s "cons" cells ending in
    `tail`, over `heads` given from the last one back.  The caller has
    checked that `ltype` is a list type and each head and the tail are
    of its types.  Each cell is built in place (the ground rule)."""
    ground = type(tail) is Compound and tail.ground
    for head in heads:
        ground = ground and type(head) is Compound and head.ground
        cell = _new(Compound)  # built in place: the ground rule
        cell.ltype, cell.ctor, cell.args, cell.ground = ltype, "cons", (head, tail), ground
        tail = cell
    return tail


def terms_of(operands: tuple, env: Optional[list]) -> list:
    """The terms `operands` stand for in `env`, each read as
    `instantiate` reads a subpattern.  One call reads a whole tuple."""
    out = []
    for p in operands:
        if type(p) is int:
            t = env[p]
            out.append(_fresh(env, p) if type(t) is int else t)
        else:
            out.append(instantiate(p, env) if type(p) is tuple else p)
    return out


def unify_args(p: Compound, q: Compound, store: BindingStore) -> Optional[BindingStore]:
    """Constructor match: same constructor, then `unify`, which checks
    that `p` and `q` are of one type and unifies the children pairwise."""
    return unify(p, q, store) if p.ctor == q.ctor else None


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
    return _render(p, _var_name, overrides=True)


def _var_name(v: Var) -> str:
    return v.vid.name


def _render(p: Compound, leaf, overrides: bool) -> str:
    """`p` in prefix form, ``ctor(child, ...)``, over an explicit stack.
    A variable renders as `leaf(v)`.  With `overrides`, a child compound
    whose type has a pretty override renders through it; the root always
    renders in prefix form."""
    out = []
    stack = [p]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
        elif type(t) is Var:
            out.append(leaf(t))
        elif overrides and t is not p and (override := getattr(t.ltype, "pretty_override", None)):
            out.append(override(t))
        elif not t.args:
            out.append(t.ctor)
        else:
            out.append(t.ctor + "(")
            stack.append(")")
            for a in reversed(t.args):
                stack += (a, ", ")
            stack.pop()
    return "".join(out)
