"""Types are checked where terms enter the engine, not in every step of
the search: each public entry still rejects ill-typed input."""

import pytest

from typelog import goals
from typelog.derive import TypeRegistry
from typelog.prelude import NAT, NAT_LIST, as_term, member, nat, nat_list, plus, zero
from typelog.repl import default_registry, run_script_text
from typelog.solve import solve
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
