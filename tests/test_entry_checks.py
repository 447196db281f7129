"""Types are checked where terms enter the engine, not in every step of
the search: each public entry still rejects ill-typed input."""

import sys

import pytest

from typelog import goals
from typelog.derive import TypeRegistry
from typelog.prelude import NAT, NAT_LIST, as_term, member, nat, nat_list, plus, zero
from typelog.repl import default_registry, run_script_text
from typelog.solve import StepBudgetExceeded, find_all, find_all_n, holds, solve, solve_stores
from typelog.terms import (
    EMPTY_STORE,
    Compound,
    LogicError,
    TypeMismatchError,
    unify,
    unify_args,
)

ONE = nat(1)
ONES = nat_list([1])
X = NAT.var("x")

ILL_TYPED = {
    "eq": lambda: goals.eq(ONE, ONES),
    "unify": lambda: unify(ONE, ONES, EMPTY_STORE),
    "unify with a variable": lambda: unify(X, ONES, EMPTY_STORE),
    "unify_args": lambda: unify_args(Compound(NAT_LIST, "zero", ()), zero(), EMPTY_STORE),
    "BindingStore.bind": lambda: EMPTY_STORE.bind(X.vid, ONES),
    "make, child type": lambda: NAT.make("suc", ONES),
    "make, arity": lambda: NAT.make("suc"),
    "make, nullary arity": lambda: NAT.make("zero", zero()),
    "as_term": lambda: as_term(ONES, NAT),
    "solve on a built Unify": lambda: list(solve(goals.Unify(ONE, ONES))),
}


@pytest.mark.parametrize("entry", ILL_TYPED.values(), ids=ILL_TYPED.keys())
def test_entry_rejects_ill_typed_input(entry):
    with pytest.raises(TypeMismatchError):
        entry()


def test_repl_type_checker_rejects_ill_typed_query():
    code, out = run_script_text("plus([1], X, 2).", default_registry())
    assert code == 1
    assert "type error" in out


def test_solve_rejects_a_non_goal():
    with pytest.raises(LogicError, match="not a goal"):
        list(solve(object()))


def test_instance_of_a_goal_node_subclass_is_not_a_goal():
    # The solver dispatches on the exact node type.
    class Always(goals.Succeed):
        pass

    with pytest.raises(LogicError, match="not a goal"):
        list(solve(Always()))


UNCONVERTIBLE = {
    "a bool": lambda: as_term(True, NAT),
    "an int at a type without numerals": lambda: as_term(1, TypeRegistry().declare("e", [("e", [])])),
    "an object": lambda: as_term(object(), NAT),
    "a nat where a list is due": lambda: member(1, nat(2)),
    "a negative int": lambda: as_term(-1, NAT),
    "a negative int in a predicate call": lambda: plus(-1, "B", 1),
}


@pytest.mark.parametrize("entry", UNCONVERTIBLE.values(), ids=UNCONVERTIBLE.keys())
def test_boundary_rejects_what_it_cannot_convert(entry):
    with pytest.raises(TypeMismatchError):
        entry()


BAD_BUDGETS = [-1, 2.5, True, "x"]
BUDGETED = {
    "solve": lambda g, m: next(solve(g, max_steps=m)),
    "solve_stores": lambda g, m: next(solve_stores(g, max_steps=m)),
    "holds": lambda g, m: holds(g, max_steps=m),
    "find_all": lambda g, m: find_all(X, g, max_steps=m),
    "find_all_n": lambda g, m: find_all_n(X, g, 1, max_steps=m),
}


@pytest.mark.parametrize("max_steps", BAD_BUDGETS)
@pytest.mark.parametrize("entry", BUDGETED.values(), ids=BUDGETED.keys())
def test_a_budget_is_checked_before_any_search(entry, max_steps, monkeypatch):
    # Checked by the entry point, so the search never starts.
    def no_search(goal, max_steps):
        raise AssertionError("the search started")
        yield
    monkeypatch.setattr(sys.modules["typelog.solve"], "_search", no_search)
    with pytest.raises(ValueError, match=r"^max_steps must be None or an int >= 0$"):
        entry(member(X, [1]), max_steps)


@pytest.mark.parametrize("entry", BUDGETED.values(), ids=BUDGETED.keys())
def test_budgets_of_none_and_ints_from_zero_are_taken(entry):
    goal = member(X, [1])
    entry(goal, None)
    entry(goal, 100)
    with pytest.raises(StepBudgetExceeded):
        entry(goal, 0)
