"""Goal evaluation: lazy depth-first search with chronological
backtracking and scoped cut.

One loop, `_search`, runs every query.  It keeps a continuation, a
linked list of (goal, barrier, env) frames still to prove after the
current goal, and a choicepoint stack of (goal, barrier, env, mark,
continuation, fence) entries to resume on failure.  A conjunction
pushes its right goal onto the continuation, a disjunction pushes its
right goal as a choicepoint, and failure resumes the newest
choicepoint, popping the search store back to its mark (see the
`terms` module docstring for the store, the environment and the
fence).  A `Call` of a compiled predicate continues at the template's
root in a fresh environment, and every goal hands its operands and
`env` to `terms`: `Unify` to `unify`, and `IsGround` and a `Call`'s
arguments to `terms_of`.  A `Call` of a function argument, or of a
body that could not be compiled, continues at the goal it builds.  An
indexed `Disj` may skip its left branch (see `goals.Disj`).

A Scope sets the barrier to the height of the choicepoint stack; a cut
truncates the stack to the barrier of its scope, discarding every
alternative opened since the scope was entered.  Answers are yielded as
they are found, so taking the first n solutions performs only the
search needed to find them (`solve` says what each costs).  Each step
dispatches on the exact type of its goal node (`type(goal) is ...`),
not on `isinstance`: the node classes of `goals` are the whole goal
language, and an instance of a subclass of one is not a goal.

Step accounting.  Every goal node evaluated is one step against the
budget `max_steps`, except a `Call` and the cut of a `CutThen` (a
continuation frame whose goal is None), which cost none: a predicate
costs the steps its body's nodes cost, as if its goal tree were built
in place.  A slot `Exists` costs a step and a counter value, as an
eager one does, though it makes no variable.  Under a budget, a run of
step-free `Call`s of function arguments and uncompiled bodies is
bounded too: more than `max_steps` of them with no step between raise
`StepBudgetExceeded`.  Such a run is the only loop without steps, since
`goals` rejects one made of templates alone, so a budgeted search ends
even when it loops through a function argument.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Mapping, NamedTuple, Optional, Tuple

from . import goals as g
from .terms import (
    BindingStore,
    Compound,
    LogicError,
    Term,
    Var,
    VarId,
    _SearchStore,
    is_ground_term,
    resolve,
    terms_of,
    unify,
)


class StepBudgetExceeded(LogicError):
    """Raised when a solver step budget runs out mid-search."""


class Solution(NamedTuple):
    """One answer: bindings of user-named variables, fully resolved,
    plus the fresh-variable counter at the moment it was produced.  An
    immutable value, compared and printed field by field; `_replace`
    builds a changed copy and `_asdict` a dict of the fields.  A
    NamedTuple, since importing `dataclasses` would load `inspect` and
    more than triple the package's import time."""

    bindings: Mapping[VarId, Term]
    counter_at_yield: int


def _search(goal: g.Goal, max_steps: Optional[int]) -> Iterator[Tuple[_SearchStore, int, int]]:
    """Yield (store, fresh-variable counter, low) for each solution of
    `goal`, where `low` is the lowest store length resumed since the
    previous solution (0 for the first): the store's first `low` entries,
    in insertion order, are as they were at the previous solution.

    The store yielded is the live search store (see the `terms` module
    docstring).  Steps are counted as the module docstring says.  The
    frequent node types are tested first.
    """
    Conj, Unify, Disj, Exists, Call = g.Conj, g.Unify, g.Disj, g.Exists, g.Call
    new_tuple = tuple.__new__  # skips VarId's Python-level __new__
    counter = steps = 0
    run = run_at = 0  # step-free Calls of a function or body since step `run_at`
    store = _SearchStore()
    bindings = store._bindings
    barrier = low = 0
    env = None  # the environment of the innermost Call, or None
    cont = None  # (goal, barrier, env, rest) or None
    choices: list = []  # (goal, barrier, env, store length, cont, fence)
    while True:
        if goal is None:
            if len(choices) > barrier:
                store.fence = choices[barrier][5]
                del choices[barrier:]
            ok = True
        else:
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise StepBudgetExceeded(f"step budget of {max_steps} exhausted")
            t = type(goal)
            if t is Conj:
                cont = (goal.g2, barrier, env, cont)
                goal = goal.g1
                continue
            if t is Unify:
                ok = unify(goal.left, goal.right, store, env) is not None
            elif t is Disj:
                index = goal.index
                if index is not None:  # skip a left branch that must clash
                    k, ctor, n, ticks = index
                    a = env[k]
                    while type(a) is Var:
                        a = bindings.get(a.vid)
                        if a is None:
                            break
                    if type(a) is Compound and a.ctor != ctor:
                        steps += n  # g2's step, next, checks the budget
                        counter += ticks
                        goal = goal.g2
                        continue
                choices.append((goal.g2, barrier, env, len(bindings), cont, store.fence))
                store.fence = counter
                goal = goal.g1
                continue
            elif t is Exists:
                k = goal.slot
                if k is None:
                    goal = goal.body(Var(new_tuple(VarId, (f"_{counter}", goal.ltype))))
                else:  # the slot's variable is made when a read needs it
                    env[k] = counter
                    goal = goal.body
                counter += 1
                continue
            elif t is Call:
                steps -= 1  # a Call costs no step
                new = terms_of(goal.args, env)
                template = goal.template
                if type(template) is int:  # a function argument builds its goal
                    build = env[template]
                elif template.root is None:  # a body that is not compiled
                    build = template.body
                else:
                    new += template.pad
                    env = new
                    goal = template.root
                    continue
                if max_steps is not None:  # bound a run of step-free Calls
                    if run_at != steps:
                        run_at, run = steps, 0
                    run += 1
                    if run > max_steps:
                        raise StepBudgetExceeded(f"step budget of {max_steps} exhausted")
                goal = build(*new)
                continue
            elif t is g.CutThen:
                cont = (None, barrier, env, (goal.g2, barrier, env, cont))
                goal = goal.g1
                continue
            elif t is g.Scope:
                barrier = len(choices)
                goal = goal.g
                continue
            elif t is g.Succeed:
                ok = True
            elif t is g.Fail:
                ok = False
            elif t is g.IsGround:
                ok = is_ground_term(terms_of((goal.term,), env)[0], store)
            else:
                raise LogicError(f"not a goal: {goal!r}")
        if ok:
            if cont is not None:
                goal, barrier, env, cont = cont
                continue
            yield store, counter, low
            low = len(bindings)
        if not choices:
            return
        goal, barrier, env, mark, cont, store.fence = choices.pop()
        if mark < low:
            low = mark
        while len(bindings) > mark:
            bindings.popitem()


def solve_stores(goal: g.Goal, max_steps: Optional[int] = None) -> Iterator[BindingStore]:
    """Lazy stream of raw binding stores for `goal`, starting from the
    empty store.  Each is a copy of the search store at that answer, an
    immutable `BindingStore` that later answers do not change (see
    `solve` for its cost).  A top-level cut simply ends the stream.

    A raw store holds the bindings the search made, not one per engine
    variable: a slot that took a subterm has no variable and no entry
    (see the `terms` module docstring), so ``plus(20000, "B", 40000)``'s
    first store has one entry."""
    for store, _, _ in _search(goal, max_steps):
        yield BindingStore(dict(store._bindings))


def solve(goal: g.Goal, max_steps: Optional[int] = None) -> Iterator[Solution]:
    """Lazy stream of solutions in depth-first, left-to-right order.

    Each solution restricts the final store to user-named variables
    (engine-generated "_" names are dropped) with all values fully
    resolved, in the order they were bound.  Diverges when the search
    tree has an infinite leftmost path, like Prolog.

    An answer costs what changed since the previous one, not the whole
    store: O(bindings since the last answer + answer size).  With the
    low mark `_search` yields, the store positions of the bound
    user-named variables are kept between answers, and only the entries
    above the mark are read, from the dict's end.  `find_all` and
    `find_all_n` resolve one variable per answer and read no more of the
    store; `solve_stores` pays an O(store) copy per answer, the price of
    its immutable stores.
    """
    shown = []  # (store position, vid) of each bound user-named variable
    for store, counter, low in _search(goal, max_steps):
        while shown and shown[-1][0] >= low:
            shown.pop()
        bindings = store._bindings
        added = list(itertools.islice(reversed(bindings), len(bindings) - low))
        for pos, vid in enumerate(reversed(added), low):
            if not vid.name.startswith("_"):
                shown.append((pos, vid))
        yield Solution({vid: resolve(bindings[vid], store) for _, vid in shown}, counter)


def find_all(v: Var, goal: g.Goal, max_steps: Optional[int] = None) -> List[Term]:
    """The resolved value of `v` under every solution of `goal`, in
    solution order.  Diverges if the goal has infinitely many solutions;
    use find_all_n to truncate.  Values may be non-ground."""
    if not isinstance(v, Var):
        raise TypeError("find_all expects a variable term")
    return find_all_n(v, goal, None, max_steps)


def find_all_n(v: Var, goal: g.Goal, n: Optional[int],
               max_steps: Optional[int] = None) -> List[Term]:
    """Like find_all, truncated after the first `n` solutions; an `n`
    of None truncates nothing.  An `n` that is neither None nor an int
    of at least 0 raises ValueError before the search starts."""
    if not isinstance(v, Var):
        raise TypeError("find_all_n expects a variable term")
    if n is not None and (not isinstance(n, int) or n < 0):
        raise ValueError("find_all_n expects n to be None or an int >= 0")
    stream = _search(goal, max_steps)
    return [resolve(v, store) for store, _, _ in itertools.islice(stream, n)]


def holds(goal: g.Goal, max_steps: Optional[int] = None) -> bool:
    """True iff `goal` has at least one solution.  Only the first
    solution is searched for.  It is taken from `solve_stores`, so a
    wrapper of the public streams sees it, at the cost of one copy."""
    for _ in solve_stores(goal, max_steps):
        return True
    return False
