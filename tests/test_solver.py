import itertools
import sys
import time

import pytest

from typelog.goals import eq, exists, fail_goal, neg, predicate, scope, succeed
from typelog.prelude import (
    NAT,
    append_list,
    as_nat,
    is_head,
    is_suc,
    is_tail,
    leq,
    list_plus_one,
    lt,
    map_p,
    member,
    nat,
    not_member,
    nat_list,
    nat_value,
    nats,
    plus,
    remainder,
    sorted_nat,
    sorted_with,
    zero,
)
from typelog.solve import (
    Solution,
    StepBudgetExceeded,
    _search,
    find_all,
    find_all_n,
    holds,
    solve,
    solve_stores,
)
from typelog.terms import EMPTY_STORE, BindingStore, Var, VarId, resolve

from reference import eager_answers

X = NAT.var("x")
Y = NAT.var("y")


def answers(goal, limit=None):
    stream = solve(goal)
    if limit is not None:
        stream = itertools.islice(stream, limit)
    return [{vid.name: term for vid, term in s.bindings.items()} for s in stream]


class TestSolve:
    def test_plus_subtraction(self):
        assert answers(plus(2, "B", 3)) == [{"B": nat(1)}]

    def test_plus_wrong_sum(self):
        assert answers(plus(0, 0, 1)) == []

    def test_plus_enumeration_first_two(self):
        assert answers(plus("A", 1, "C"), limit=2) == [
            {"A": nat(0), "C": nat(1)},
            {"A": nat(1), "C": nat(2)},
        ]

    def test_counter_monotonic_across_solutions(self):
        counters = [s.counter_at_yield for s in itertools.islice(solve(plus("A", 1, "C")), 5)]
        assert counters == sorted(counters)

    def test_failed_branch_bindings_do_not_leak(self):
        g = (eq(X, nat(1)) & fail_goal()) | eq(X, nat(2))
        assert answers(g) == [{"x": nat(2)}]

    def test_matches_eager_reference_on_finite_goals(self):
        goals = [
            plus(2, "B", 3),
            plus("A", "B", 3),
            member("X", [1, 2, 3]),
            remainder(5, 2, "R"),
            eq(X, nat(0)) | eq(X, nat(0)),
        ]
        for g in goals:
            assert answers(g) == eager_answers(g)


class TestSolution:
    # An answer is an immutable value with the fields, constructors,
    # equality and text it had as a frozen dataclass.
    B = VarId("B", NAT)

    def test_positional_and_keyword_construction(self):
        sol = Solution({self.B: nat(1)}, 4)
        assert sol == Solution(bindings={self.B: nat(1)}, counter_at_yield=4)
        assert (sol.bindings, sol.counter_at_yield) == ({self.B: nat(1)}, 4)

    def test_answers_compare_by_value(self):
        (sol,) = solve(plus(2, "B", 3))
        assert sol == Solution({self.B: nat(1)}, 4)
        assert sol != Solution({self.B: nat(1)}, 5)
        assert sol != Solution({self.B: nat(2)}, 4)

    def test_repr(self):
        (sol,) = solve(plus(2, "B", 3))
        assert repr(sol) == "Solution(bindings={B:nat: suc(zero)}, counter_at_yield=4)"

    def test_fields_cannot_be_assigned(self):
        sol = Solution({}, 0)
        with pytest.raises(AttributeError):
            sol.counter_at_yield = 1
        with pytest.raises(AttributeError):
            sol.extra = 1

    def test_unhashable_since_bindings_is_a_dict(self):
        with pytest.raises(TypeError):
            hash(Solution({}, 0))

    def test_replace_returns_a_new_answer(self):
        sol = Solution({self.B: nat(1)}, 4)
        new = sol._replace(counter_at_yield=0)
        assert new == Solution({self.B: nat(1)}, 0)
        assert sol.counter_at_yield == 4
        assert new.bindings is sol.bindings
        assert sol._asdict() == {"bindings": {self.B: nat(1)}, "counter_at_yield": 4}


class TestFindAll:
    def test_member_enumeration(self):
        assert [nat_value(t) for t in find_all(X, member(X, [1, 2, 3]))] == [1, 2, 3]

    def test_fail_empty(self):
        assert find_all(X, fail_goal()) == []

    def test_duplicates_preserved(self):
        values = find_all(X, eq(X, zero()) | eq(X, zero()))
        assert values == [zero(), zero()]

    def test_truncated_variant(self):
        a = NAT.var("A")
        values = find_all_n(a, plus(a, 1, "C"), 3)
        assert [nat_value(t) for t in values] == [0, 1, 2]

    def test_rejects_non_variable(self):
        with pytest.raises(TypeError):
            find_all(nat(1), succeed())


class TestHolds:
    def test_is_tail(self):
        assert holds(is_tail([1, 2, 3], [2, 3]))

    def test_fail(self):
        assert not holds(fail_goal())

    def test_remainder_first_solution(self):
        r = NAT.var("R")
        stores = solve_stores(remainder(5, 2, r))
        first = next(stores)
        assert nat_value(resolve(r, first)) == 1


class TestLaziness:
    def test_first_solution_of_infinite_stream(self):
        # The full stream is infinite; one answer must come cheaply.
        stream = solve(plus("A", 1, "C"), max_steps=10_000)
        first = next(stream)
        assert {v.name: nat_value(t) for v, t in first.bindings.items()} == {"A": 0, "C": 1}

    def test_budget_exhaustion_raises(self):
        with pytest.raises(StepBudgetExceeded):
            list(solve(plus("A", 1, "C"), max_steps=200))

    @pytest.mark.parametrize("goal, steps", [
        (remainder(7, 3, "R"), 202),
        (member("X", [1, 2, 3]), 28),
        (not_member(4, [1, 2, 3]), 32),
        (plus("A", "B", 4), 50),
        (remainder(3, 0, "R"), 6),
        (sorted_nat([1, 2, 2, 5]), 105),
        (list_plus_one("X", [1, 2, 3]), 55),
        (leq(3, 1), 16),
        (lt(2, 5), 31),
        (append_list("X", "Y", [1, 2, 3]), 44),
        (is_tail("X", [2, 3]), 2),
        (is_head([1, 2], "Y"), 2),
        (is_suc("X", 3), 1),
        (map_p(lambda a, b: leq(a, b), [1, 2], [2, 3]), 74),
        (sorted_with(lambda a, b: leq(b, a), [3, 1, 0]), 55),
        (neg(plus(1, 1, 3)), 22),
    ])
    def test_smallest_budget_that_completes(self, goal, steps):
        # Every goal node evaluated is one step; the cut itself is none.
        assert len(list(solve(goal, max_steps=steps))) == len(list(solve(goal)))
        with pytest.raises(StepBudgetExceeded):
            list(solve(goal, max_steps=steps - 1))


class TestFirstArgumentIndex:
    # A template `Disj` whose left branch must clash at its first
    # unification is skipped: the search charges the branch's steps and
    # counter values and goes on at the right branch with no choicepoint.

    def test_prelude_cases_are_indexed(self):
        leq_root = leq(0, 0).template.root  # exists x1, exists y1, then the Disj
        assert leq_root.body.body.index == (0, "zero", 1, 0)
        # member's first case: exists tl (slot 2), then xs (slot 1) = cons(x, tl).
        assert member(0, [0]).template.root.index == (1, "cons", 2, 1)

    @staticmethod
    def pushes(goal):
        """The choicepoints a search of `goal` pushes: the calls of the
        append of its choicepoint stack, seen by a profile hook."""
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if (event == "c_call" and frame.f_code is _search.__code__
                    and arg.__name__ == "append" and arg.__self__ is frame.f_locals["choices"]):
                count += 1
        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            list(solve(goal))
        finally:
            sys.setprofile(before)
        return count

    @pytest.mark.parametrize("goal, pushes", [
        # Each level of leq and plus on a successor skips the zero case,
        # where the search without the index pushed a choicepoint (4 each).
        (leq(5, 3), 0),
        (leq(3, 5), 1),
        (plus(3, "B", 5), 1),
        # A cons pushes at each element; nil, at the end, skips (4 before).
        (member(2, [0, 1, 2]), 3),
    ])
    def test_a_skip_pushes_no_choicepoint(self, goal, pushes):
        assert self.pushes(goal) == pushes

    def test_a_skip_charges_the_counter_values_of_its_exists(self):
        # member(0, []) skips `exists tl, xs = cons(x, tl)` for 2 steps
        # and counter value 0; its second case's two `exists` take 1 and 2
        # before it clashes, so the answer's variable is _3.
        y = NAT.var("Y")
        goal = (member(0, nat_list([])) | succeed()) & exists(NAT, lambda v: eq(y, v))
        answer = Solution({y.vid: Var(VarId("_3", NAT))}, 4)
        assert list(solve(goal, max_steps=12)) == [answer]
        with pytest.raises(StepBudgetExceeded):
            list(solve(goal, max_steps=11))


class TestDeepSearch:
    # Search depth is bounded by memory and the step budget, not by
    # Python's recursion limit.
    def test_deep_subtraction(self):
        assert holds(plus(3000, "B", 6000))

    def test_long_member_enumeration(self):
        values = find_all(X, member(X, [i % 10 for i in range(2000)]))
        assert [nat_value(t) for t in values] == [i % 10 for i in range(2000)]

    def test_member_over_distinct_numerals(self):
        values = find_all(X, member(X, list(range(2000))))
        assert [nat_value(t) for t in values] == list(range(2000))


class TestCutContainment:
    def test_scoped_predicate_is_transparent(self):
        # remainder fails for q=0 via an internal cut; a caller's later
        # disjunct must still be tried.
        g = remainder(3, 0, "R") | eq(X, nat(1))
        assert answers(g) == [{"x": nat(1)}]

    def test_scope_equals_cutfree_equivalent(self):
        scoped = scope(eq(X, nat(0)) ^ succeed() | eq(X, nat(1)))
        cutfree = eq(X, nat(0))
        assert answers(scoped) == answers(cutfree)

    def test_toplevel_cut_prunes_to_query_root(self):
        g = (eq(X, nat(0)) ^ succeed()) | eq(X, nat(1))
        assert answers(g) == [{"x": nat(0)}]


class TestSearchStore:
    """The search binds in one store in place and undoes on backtracking;
    none of that may show outside the search."""

    def test_answer_store_outlives_the_stream(self):
        stream = solve_stores(append_list("X", "Y", [1, 2, 3]))
        first = next(stream)
        items, size, value = dict(first.items()), len(first), hash(first)
        copy = BindingStore(dict(items))
        for after in (lambda: next(stream), stream.close):
            after()
            assert first == copy and len(first) == size and dict(first.items()) == items
            assert hash(first) == value

    def test_answer_after_backtracking_below_an_earlier_answer(self):
        # The third answer resumes below x's binding, so both variables
        # are bound again, y first; keys keep the order of binding.
        goal = (eq(X, nat(1)) & (eq(Y, nat(2)) | eq(Y, nat(3)))) | (eq(Y, nat(4)) & eq(X, nat(5)))
        assert [list(s.bindings.items()) for s in solve(goal)] == [
            [(X.vid, nat(1)), (Y.vid, nat(2))],
            [(X.vid, nat(1)), (Y.vid, nat(3))],
            [(Y.vid, nat(4)), (X.vid, nat(5))],
        ]

    def test_interleaved_streams_answer_as_alone(self):
        # One stream runs two answers ahead, so each search backtracks
        # past bindings the other still holds.
        goal = append_list("X", "Y", [1, 2, 3, 4])
        alone = answers(goal)
        a, b = solve(goal), solve(goal)
        got = {a: [], b: []}
        for stream in [a, a] + [b, a] * (len(alone) - 2) + [b, b]:
            got[stream].append(next(stream))
        for stream in (a, b):
            assert [{v.name: t for v, t in s.bindings.items()} for s in got[stream]] == alone
            assert next(stream, None) is None

    @pytest.mark.parametrize("goal", [
        # x = 2 is bound before 1 = 3 clashes.
        eq(nat_list([X, 1]), nat_list([2, 3])) | eq(X, nat(5)),
        neg(eq(nat_list([X, 1]), nat_list([2, 3]))) & eq(X, nat(5)),
        (eq(nat_list([X, 1]), nat_list([2, 3])) ^ succeed()) | eq(X, nat(5)),
        # The cut commits to x = 2; then y = 3 is bound before 1 = 4 clashes.
        scope(eq(X, nat(2)) ^ eq(nat_list([Y, 1]), nat_list([3, 4]))) | eq(X, nat(5)),
    ])
    def test_clash_mid_unify_leaves_no_binding(self, goal):
        assert answers(goal) == [{"x": nat(5)}]

    def test_search_makes_no_public_bind(self, monkeypatch):
        # The public bind copies the store; the search must not use it.
        calls = []
        bind = BindingStore.bind

        def counting(store, vid, term):
            calls.append(vid)
            return bind(store, vid, term)

        monkeypatch.setattr(BindingStore, "bind", counting)
        assert holds(plus(2000, "B", 4000))
        assert find_all(X, plus(2000, X, 4000)) == [nat(2000)]
        assert calls == []
        EMPTY_STORE.bind(X.vid, nat(1))
        assert calls == [X.vid]


class TestFindAllN:
    def test_rejects_non_variable(self):
        with pytest.raises(TypeError):
            find_all_n(nat(1), succeed(), 1)

    @pytest.mark.parametrize("n", [-1, 1.5, "2"])
    def test_rejects_a_count_before_searching(self, n):
        # A budget of 0 steps would stop any search that started.
        with pytest.raises(ValueError, match=r"^find_all_n expects n to be None or an int >= 0$"):
            find_all_n(X, member(X, [1, 2]), n, max_steps=0)

    def test_accepts_none_and_zero(self):
        assert find_all_n(X, member(X, [1, 2]), 0) == []
        assert find_all_n(X, member(X, [1, 2]), None) == [nat(1), nat(2)]


@predicate(lambda f, x: ((), (f, as_nat(x))))
def apply(f, x):
    """`f` on `x`: a template whose root calls a function argument."""
    return f(x)


def apply_self(x):
    return apply(apply_self, x)


@predicate(nats)
def is_one(x):
    return eq(x, nat(1))


def nested(k, innermost=None):
    """A function that reaches `eq(x, 1)` through k calls of `apply`:
    k + 1 function Calls with no step between.  The innermost function
    is `innermost`, if given."""
    f = innermost or (lambda x: eq(x, nat(1)))
    for _ in range(k):
        f = (lambda inner: lambda x: apply(inner, x))(f)
    return f


@predicate(nats)
def far_one(x):
    """`apply(nested(3), x)`: passes on a closure, so it is not compiled."""
    return apply(nested(3), x)


@predicate(lambda f, x: ((), (f, as_nat(x))))
def after_a_step(f, x):
    return succeed() & f(x)


class TestStepFreeCalls:
    """A `Call` costs no step, so a loop of Calls takes none.  Under a
    budget, more Calls of functions or uncompiled bodies in a row than
    the budget exhaust it; without one, such a search diverges."""

    def test_loop_through_a_function_argument_exhausts_the_budget(self):
        start = time.perf_counter()
        with pytest.raises(StepBudgetExceeded, match="step budget of 1000 exhausted"):
            holds(apply(apply_self, 1), max_steps=1000)
        assert time.perf_counter() - start < 1

    def test_loop_through_an_uncompiled_body_exhausts_the_budget(self):
        @predicate(nats)
        def spin(x):
            return apply(lambda y: spin(y), x)  # the lambda refers to spin

        with pytest.raises(StepBudgetExceeded):
            holds(spin(1), max_steps=1000)
        assert spin.templates[NAT].root is None

    def test_a_run_as_long_as_the_budget_completes(self):
        assert holds(apply(nested(9), 1), max_steps=10)
        with pytest.raises(StepBudgetExceeded):
            holds(apply(nested(10), 1), max_steps=10)
        assert holds(apply(nested(2000), 1))
        assert not holds(apply(nested(2000), 2))

    @pytest.mark.parametrize("k, budget", [(0, 1), (1, 2), (3, 4), (9, 10)])
    def test_a_chain_ending_in_a_compiled_predicate_keeps_its_least_budget(self, k, budget):
        # Each lambda calls `apply` on the next function, the last on
        # `is_one`: k + 1 step-free Calls of function arguments in a run,
        # whether or not `apply` is specialised on `is_one`.
        def completes(max_steps):
            try:
                return holds(apply(nested(k, is_one), 1), max_steps=max_steps)
            except StepBudgetExceeded:
                return False

        assert not completes(budget - 1) and completes(budget)

    def test_a_call_of_an_uncompiled_predicate_argument_keeps_its_least_budget(self):
        # Two steps, then a run of six step-free Calls: of `f`, of
        # `far_one`'s body, and the four function Calls its goal makes.
        for budget, done in ((5, False), (6, True)):
            try:
                assert holds(after_a_step(far_one, 1), max_steps=budget) is done
            except StepBudgetExceeded:
                assert not done
        assert far_one.templates[NAT].root is None
