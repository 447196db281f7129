"""Independent reference implementations used as oracles by the tests.

Deliberately simple and eager: the interpreter here materializes every
solution of a goal up front with plain recursion, sharing nothing with
the lazy solver except the goal and term datatypes it interprets.  A
predicate call runs the predicate's undecorated body on the call's
arguments, so the compiled templates are not part of the oracle.  The
interpreter and the hand-written capabilities unify through the
oracle's own unifier (`unify`), and answers are projected, and the
hand-written substitutions rebuild terms, through its own resolver
(`replace_vars`).  Both call no `terms` function but the constructors,
so a fault in the engine's `unify` or rebuild cannot hide in both.
The hand-written per-type operations mirror what derivation is
supposed to produce for naturals and lists.
The query tokenizer is kept here as it was before tokens became plain
strings.
"""

from __future__ import annotations

import itertools
import re

from typelog import goals as g
from typelog.repl import QueryParseError
from typelog.terms import (
    EMPTY_STORE,
    BindingStore,
    Compound,
    Term,
    Var,
    VarId,
    is_ground_term,
)
from typelog import prelude


def unify(a: Term, b: Term, store: BindingStore):
    """The most general extension of `store` making `a` and `b` equal,
    as a new `BindingStore`, or None on a clash.

    Rule-based (Martelli and Montanari, "An efficient unification
    algorithm", TOPLAS 1982) over an explicit worklist of pairs and a
    plain dict, with the occurs check always on.  Bindings are made as
    `terms.unify` documents: both sides' bindings are followed, a left
    variable is bound to the right side, else a right variable to the
    left, and children are paired left to right."""
    bindings = dict(store.items())

    def follow(t):
        while isinstance(t, Var) and t.vid in bindings:
            t = bindings[t.vid]
        return t

    def occurs(vid, t):
        todo = [t]
        while todo:
            u = follow(todo.pop())
            if isinstance(u, Var):
                if u.vid == vid:
                    return True
            else:
                todo.extend(u.args)
        return False

    work = [(a, b)]
    while work:
        s, t = work.pop()
        s, t = follow(s), follow(t)
        if isinstance(s, Var):
            if isinstance(t, Var) and t.vid == s.vid:
                continue  # delete
            if occurs(s.vid, t):
                return None  # check
            bindings[s.vid] = t  # eliminate
        elif isinstance(t, Var):
            if occurs(t.vid, s):
                return None
            bindings[t.vid] = s
        elif s.ctor != t.ctor or len(s.args) != len(t.args):
            return None  # conflict
        else:  # decompose, so that children are popped left to right
            work.extend(reversed(list(zip(s.args, t.args))))
    return BindingStore(bindings)


class EagerEngine:
    """Brute-force goal interpreter: full search tree, no laziness.

    eval() returns (solution stores in search order, cut_escaped flag);
    a Scope node swallows the flag.  Only terminates on goals whose
    search tree is finite.
    """

    def __init__(self):
        self.counter = 0

    def fresh(self, ltype) -> Var:
        v = Var(VarId(f"_{self.counter}", ltype))
        self.counter += 1
        return v

    def eval(self, goal, store):
        if isinstance(goal, g.Succeed):
            return [store], False
        if isinstance(goal, g.Fail):
            return [], False
        if isinstance(goal, g.Unify):
            extended = unify(goal.left, goal.right, store)
            return ([extended] if extended is not None else []), False
        if isinstance(goal, g.Conj):
            left, cut_left = self.eval(goal.g1, store)
            out = []
            for s1 in left:
                right, cut_right = self.eval(goal.g2, s1)
                out.extend(right)
                if cut_right:
                    return out, True
            return out, cut_left
        if isinstance(goal, g.Disj):
            left, cut_left = self.eval(goal.g1, store)
            if cut_left:
                return left, True
            right, cut_right = self.eval(goal.g2, store)
            return left + right, cut_right
        if isinstance(goal, g.CutThen):
            left, cut_left = self.eval(goal.g1, store)
            if not left:
                return [], cut_left
            committed, _ = self.eval(goal.g2, left[0])
            return committed, True
        if isinstance(goal, g.Scope):
            inner, _ = self.eval(goal.g, store)
            return inner, False
        if isinstance(goal, g.Exists):
            return self.eval(goal.body(self.fresh(goal.ltype)), store)
        if isinstance(goal, g.IsGround):
            return ([store] if is_ground_term(goal.term, store) else []), False
        if isinstance(goal, g.Call):
            # The undecorated body on the call's arguments: the compiled
            # template is never consulted.
            return self.eval(goal.template.body(*goal.args), store)
        raise TypeError(f"not a goal: {goal!r}")


def eager_solve(goal) -> list:
    """All solution stores of a finite goal, in search order."""
    stores, _ = EagerEngine().eval(goal, EMPTY_STORE)
    return stores


def replace_vars(t: Term, replace) -> Term:
    """`t` with each variable `v` replaced by ``replace(v)``, a pair
    ``(term, enter)``: the term is walked in turn when `enter` is true.

    The oracle's own rebuild, independent of the engine's: post-order
    over an explicit stack, so terms of any depth work, with no memo and
    no groundness shortcut; every compound is built anew, and only the
    `Compound` constructor is used."""
    todo = [(t, False)]
    done = []
    while todo:
        u, children_done = todo.pop()
        if children_done:
            n = len(u.args)
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Compound(u.ltype, u.ctor, args))
        elif isinstance(u, Var):
            new, enter = replace(u)
            if enter:
                todo.append((new, False))
            else:
                done.append(new)
        else:
            todo.append((u, True))
            todo.extend((a, False) for a in reversed(u.args))
    return done[0]


def resolve_in(t: Term, store: BindingStore) -> Term:
    """`t` with every bound variable replaced by its binding, followed
    through the store's dict and resolved in turn."""
    bindings = dict(store.items())

    def replace(v):
        bound = bindings.get(v.vid)
        return (v, False) if bound is None else (bound, True)

    return replace_vars(t, replace)


def substitute_syntactic(vid: VarId, replacement: Term, t: Term) -> Term:
    """`t` with every occurrence of `vid` replaced by `replacement`, which
    is not entered."""
    return replace_vars(t, lambda v: (replacement if v.vid == vid else v, False))


def project_user_bindings(store: BindingStore) -> dict:
    """Resolved bindings of user-named variables, keyed by name."""
    out = {}
    for vid in store:
        if not vid.name.startswith("_"):
            out[vid.name] = resolve_in(Var(vid), store)
    return out


def eager_answers(goal) -> list:
    return [project_user_bindings(s) for s in eager_solve(goal)]


# --- hand-written capabilities for naturals and lists ---------------------


def occurs_syntactic(vid: VarId, t: Term) -> bool:
    """True iff `vid` appears in `t` as written, ignoring any store."""
    if isinstance(t, Var):
        return t.vid == vid
    return any(occurs_syntactic(vid, child) for child in t.args)


def nat_unify_step(p: Compound, q: Compound, store):
    if p.ctor != q.ctor:
        return None
    if p.ctor == "suc":
        return unify(p.args[0], q.args[0], store)
    return store


def nat_occurs(vid: VarId, p: Compound) -> bool:
    return p.ctor == "suc" and occurs_syntactic(vid, p.args[0])


def nat_substitute(vid: VarId, replacement: Term, p: Compound) -> Compound:
    if p.ctor == "zero":
        return p
    return Compound(p.ltype, "suc", (substitute_syntactic(vid, replacement, p.args[0]),))


def nat_is_ground(p: Compound) -> bool:
    t = p
    while isinstance(t, Compound) and t.ctor == "suc":
        t = t.args[0]
    return isinstance(t, Compound)


def nat_pretty_prefix(p: Compound) -> str:
    # Children render through the term printer, like any derived
    # prefix printer's children would.
    if p.ctor == "zero":
        return "zero"
    from typelog.terms import pretty

    return f"suc({pretty(p.args[0])})"


def list_unify_step(p: Compound, q: Compound, store):
    if p.ctor != q.ctor:
        return None
    if p.ctor == "cons":
        store = unify(p.args[0], q.args[0], store)
        if store is None:
            return None
        return unify(p.args[1], q.args[1], store)
    return store


def list_occurs(vid: VarId, p: Compound) -> bool:
    if p.ctor == "nil":
        return False
    return occurs_syntactic(vid, p.args[0]) or occurs_syntactic(vid, p.args[1])


def list_substitute(vid: VarId, replacement: Term, p: Compound) -> Compound:
    if p.ctor == "nil":
        return p
    return Compound(
        p.ltype,
        "cons",
        (substitute_syntactic(vid, replacement, p.args[0]),
         substitute_syntactic(vid, replacement, p.args[1])),
    )


def _no_vars(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(_no_vars(a) for a in t.args)


def list_is_ground(p: Compound) -> bool:
    if p.ctor == "nil":
        return True
    return _no_vars(p.args[0]) and _no_vars(p.args[1])


def list_pretty_prefix(p: Compound) -> str:
    if p.ctor == "nil":
        return "nil"
    from typelog.terms import pretty

    return f"cons({pretty(p.args[0])}, {pretty(p.args[1])})"


# --- exhaustive term vocabularies -----------------------------------------


def nat_terms_upto(depth: int, var_names=("n",)):
    """All natural-number terms of tree depth <= depth over a fixed
    variable vocabulary."""
    if depth <= 0:
        return []
    base = [prelude.NAT.var(n) for n in var_names] + [prelude.zero()]
    if depth == 1:
        return base
    return base + [prelude.suc(t) for t in nat_terms_upto(depth - 1, var_names)]


def list_terms_upto(depth: int, list_vars=("l",), nat_vars=("n",)):
    """All nat-list terms of tree depth <= depth over a fixed variable
    vocabulary."""
    if depth <= 0:
        return []
    base = [prelude.NAT_LIST.var(n) for n in list_vars] + [prelude.nil(prelude.NAT_LIST)]
    if depth == 1:
        return base
    out = list(base)
    heads = nat_terms_upto(depth - 1, nat_vars)
    tails = list_terms_upto(depth - 1, list_vars, nat_vars)
    for h, t in itertools.product(heads, tails):
        out.append(prelude.cons(h, t))
    return out


def ground_nats(upto: int):
    return [prelude.nat(i) for i in range(upto + 1)]


def ground_nat_lists(max_len: int, elems=(0, 1, 2)):
    out = []
    for n in range(max_len + 1):
        for combo in itertools.product(elems, repeat=n):
            out.append(prelude.nat_list(list(combo)))
    return out


# --- one-way matching (is `ground` an instance of `general`?) -------------


def matches(general: Term, instance: Term) -> bool:
    """True iff `instance` can be obtained from `general` by a
    consistent substitution of general's variables.  Over an explicit
    worklist, so terms of any depth work; a variable met again is
    checked by `same_term`, not by the engine's `==`."""
    mapping = {}
    work = [(general, instance)]
    while work:
        g, i = work.pop()
        if isinstance(g, Var):
            if g.vid not in mapping:
                mapping[g.vid] = i
            elif not same_term(mapping[g.vid], i):
                return False
        elif isinstance(i, Var) or g.ctor != i.ctor or len(g.args) != len(i.args):
            return False
        else:
            work.extend(zip(g.args, i.args))
    return True


def same_term(a: Term, b: Term) -> bool:
    """Syntactic equality, path by path over an explicit worklist."""
    work = [(a, b)]
    while work:
        s, t = work.pop()
        if isinstance(s, Var) or isinstance(t, Var):
            if not (isinstance(s, Var) and isinstance(t, Var) and s.vid == t.vid):
                return False
        elif s.ltype is not t.ltype or s.ctor != t.ctor or len(s.args) != len(t.args):
            return False
        else:
            work.extend(zip(s.args, t.args))
    return True


def instantiate(t: Term, assignment: dict) -> Term:
    """Apply a VarId -> Term assignment syntactically."""
    out = t
    for vid, value in assignment.items():
        out = substitute_syntactic(vid, value, out)
    return out


# The query tokenizer as it was when each token was an object with a kind
# and a column: one `finditer` over a pattern with a named group per kind.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z][A-Za-z0-9_]*|_(?![A-Za-z0-9_]))
    | (?P<int>\d+)
    | (?P<punct>\\\+|[(),;.\[\]|])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # name | var | int | punct | end
        self.text = text
        self.pos = pos  # 1-based column


def tokenize(text: str) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # every character is in some match
        kind = m.lastgroup
        if kind == "bad":
            raise QueryParseError(f"unexpected character {m.group()!r}", m.start() + 1)
        if kind != "ws":
            tokens.append(Token(kind, m.group(), m.start() + 1))
    tokens.append(Token("end", "", len(text) + 1))
    return tokens
