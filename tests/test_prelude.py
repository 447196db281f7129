import functools
import gc
import itertools
import tracemalloc
import weakref

import pytest

from typelog import prelude
from typelog.derive import TypeRegistry
from typelog.goals import Call, Goal, eq, exists, predicate
from typelog.prelude import (
    NAT,
    NAT_LIST,
    NUMERAL_CACHE_SIZE,
    append_list,
    cons,
    is_head,
    is_suc,
    is_tail,
    leq,
    list_of,
    list_plus_one,
    lt,
    make_list,
    map_p,
    member,
    nat,
    nat_list,
    nat_value,
    nats,
    nil,
    not_member,
    plus,
    remainder,
    sorted_nat,
    sorted_with,
    suc,
    zero,
)
from typelog.repl import parse_term
from typelog.solve import StepBudgetExceeded, find_all, holds, solve
from typelog.terms import TypeMismatchError, pretty, term_type

from reference import ground_nat_lists


def answers(goal):
    return [{vid.name: term for vid, term in s.bindings.items()} for s in solve(goal)]


class TestNumerals:
    def test_zero(self):
        assert nat(0) == zero()

    def test_two(self):
        assert nat(2) == suc(suc(zero()))

    def test_round_trip_value(self):
        for n in range(10):
            assert nat_value(nat(n)) == n

    def test_numerals_share_structure(self):
        assert nat(6).args[0] is nat(5)

    def test_numeral_cache_is_capped(self):
        # A numeral above the cap is built on the largest cached one, and
        # dropping it frees it: nothing of it stays cached.
        top = nat(NUMERAL_CACHE_SIZE)
        assert nat(NUMERAL_CACHE_SIZE + 2).args[0].args[0] is top
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            big = nat(200_000)
            grown = tracemalloc.get_traced_memory()[0] - before
            assert nat_value(big) == 200_000
            del big
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown > 10_000_000 and kept < 1_000_000
        assert len(prelude._NUMERALS) == NUMERAL_CACHE_SIZE + 1

    def test_large_numerals_of_a_list_share(self):
        # Built in one ascending pass, each on the next smaller one, so a
        # list of large numerals costs its largest one in nodes.
        top = NUMERAL_CACHE_SIZE
        ns = [top + 3, top + 1, top + 3000, top + 2, top + 1]
        for t in (nat_list(ns), parse_term("[" + ", ".join(map(str, ns)) + "]", NAT_LIST)):
            elems = []
            while t.ctor == "cons":
                elems.append(t.args[0])
                t = t.args[1]
            assert [nat_value(e) for e in elems] == ns
            assert elems[1] is elems[4] and elems[1].args[0] is nat(top)
            assert elems[3].args[0] is elems[1] and elems[0].args[0] is elems[3]
            x = elems[2]
            for _ in range(2997):
                x = x.args[0]
            assert x is elems[0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            nat(-1)

    def test_value_of_non_ground_rejected(self):
        with pytest.raises(ValueError):
            nat_value(suc(NAT.var("x")))


class TestPretty:
    def test_ground_nat_decimal(self):
        assert pretty(nat(0)) == "0"
        assert pretty(nat(7)) == "7"

    def test_partial_nat(self):
        x = NAT.var("x")
        assert pretty(suc(x)) == "1 + x"
        t = x
        for _ in range(55):
            t = suc(t)
        assert pretty(t) == "55 + x"

    def test_bare_variable(self):
        assert pretty(NAT.var("q")) == "q"

    def test_ground_list(self):
        assert pretty(nat_list([1, 2, 3])) == "[1, 2, 3]"
        assert pretty(nat_list([])) == "[]"

    def test_variable_tailed_list(self):
        t = cons(nat(1), cons(NAT.var("x"), cons(nat(5), NAT_LIST.var("xs"))))
        assert pretty(t) == "1 : x : 5 : xs"


class TestListBuilder:
    def test_ground(self):
        assert nat_list([1, 2]) == cons(nat(1), cons(nat(2), nil(NAT_LIST)))

    def test_empty(self):
        assert nat_list([]) == nil(NAT_LIST)

    def test_with_tail_variable(self):
        assert nat_list([1], tail="tl") == cons(nat(1), NAT_LIST.var("tl"))

    def test_string_elements_are_variables(self):
        assert nat_list([0, "x"]) == cons(nat(0), cons(NAT.var("x"), nil(NAT_LIST)))

    def test_kept_numerals_are_shared(self):
        t = nat_list([3, 3])
        assert t.args[0] is nat(3) and t.args[1].args[0] is nat(3)

    def test_an_int_no_numeral_stands_for_is_rejected(self):
        for x in (True, -1):
            with pytest.raises(TypeMismatchError) as err:
                nat_list([1, x, 2])
            assert str(err.value) == f"cannot interpret {x!r} as a nat term"


class TestPlus:
    def test_string_literal_is_variable(self):
        assert answers(plus(1, "x", 5)) == [{"x": nat(4)}]

    def test_ground_true(self):
        assert holds(plus(0, 0, 0))

    def test_agrees_with_integer_addition(self):
        for a, b in itertools.product(range(7), repeat=2):
            assert holds(plus(a, b, a + b))
            assert not holds(plus(a, b, a + b + 1))

    def test_relational_inversion(self):
        for c in range(7):
            pairs = answers(plus("A", "B", c))
            assert len(pairs) == c + 1
            for sol in pairs:
                assert nat_value(sol["A"]) + nat_value(sol["B"]) == c


class TestComparisons:
    def test_is_suc(self):
        assert holds(is_suc(1, 2))
        assert not holds(is_suc(1, 1))
        assert answers(is_suc("X", 1)) == [{"X": nat(0)}]

    def test_leq_zero_any(self):
        assert answers(leq(0, "Y"))[0] == {}

    def test_leq_brute_force(self):
        for a, b in itertools.product(range(4), repeat=2):
            assert holds(leq(a, b)) == (a <= b)
            assert holds(lt(a, b)) == (a < b)

    def test_leq_enumeration_order(self):
        sols = answers(leq("X", 1))
        assert [nat_value(s["X"]) for s in sols] == [0, 1]


class TestListPredicates:
    def test_is_head(self):
        assert holds(is_head([1, 2], 1))
        assert not holds(is_head([], "Y"))
        assert answers(is_head([1, 2], "X")) == [{"X": nat(1)}]

    def test_is_tail(self):
        assert holds(is_tail([1, 2, 3], [2, 3]))
        assert not holds(is_tail([1], [1]))
        assert holds(is_tail([1], []))

    def test_member(self):
        assert holds(member(2, [1, 2, 3]))
        assert not holds(member(4, [1, 2, 3]))

    def test_member_order_follows_list(self):
        x = NAT.var("x")
        assert [nat_value(t) for t in find_all(x, member(x, [3, 1, 2]))] == [3, 1, 2]

    def test_not_member(self):
        assert holds(not_member(4, [1, 2, 3]))
        assert not holds(not_member(2, [1, 2, 3]))

    def test_not_member_cannot_generate(self):
        assert not holds(not_member("X", [1]))


class TestSorted:
    def test_examples(self):
        assert holds(sorted_nat([1, 2, 2]))
        assert not holds(sorted_nat([2, 1]))
        assert holds(sorted_with(leq, []))

    def test_pairwise_oracle(self):
        for xs in ground_nat_lists(3):
            values = _to_ints(xs)
            assert holds(sorted_nat(xs)) == (values == sorted(values))


class TestMapP:
    def test_forward(self):
        assert answers(map_p(is_suc, nat_list([0, 1]), NAT_LIST.var("X"))) == [
            {"X": nat_list([1, 2])}
        ]

    def test_empty(self):
        assert answers(map_p(is_suc, nat_list([]), NAT_LIST.var("X"))) == [{"X": nat_list([])}]

    def test_inverse(self):
        assert answers(map_p(is_suc, NAT_LIST.var("X"), nat_list([1]))) == [{"X": nat_list([0])}]

    def test_elementwise_oracle(self):
        for l1 in ground_nat_lists(3):
            for l2 in ground_nat_lists(3, elems=(1, 2, 3)):
                a, b = _to_ints(l1), _to_ints(l2)
                expected = len(a) == len(b) and all(y == x + 1 for x, y in zip(a, b))
                assert holds(list_plus_one(l1, l2)) == expected


class TestRemainder:
    def test_examples(self):
        assert answers(remainder(5, 2, "R")) == [{"R": nat(1)}]
        assert answers(remainder(2, 3, "R")) == [{"R": nat(2)}]

    def test_zero_divisor_fails_finitely(self):
        assert answers(remainder(3, 0, "R")) == []

    def test_agrees_with_integer_mod(self):
        for n in range(9):
            for q in range(1, 5):
                assert answers(remainder(n, q, "R")) == [{"R": nat(n % q)}]


class TestAppend:
    def test_concatenation(self):
        assert answers(append_list([1], [2], "Z")) == [{"Z": nat_list([1, 2])}]

    def test_nil_left_identity(self):
        assert holds(append_list([], [7], [7]))

    def test_all_splits(self):
        sols = answers(append_list("X", "Y", [1, 2]))
        splits = [(_to_ints(s["X"]), _to_ints(s["Y"])) for s in sols]
        assert splits == [([], [1, 2]), ([1], [2]), ([1, 2], [])]


class TestRoundTrip:
    def test_ground_nats(self):
        for n in range(21):
            t = nat(n)
            assert parse_term(pretty(t), NAT) == t

    def test_ground_lists(self):
        for t in ground_nat_lists(4):
            assert parse_term(pretty(t), NAT_LIST) == t


def _to_ints(list_term):
    out = []
    t = list_term
    while t.ctor == "cons":
        out.append(nat_value(t.args[0]))
        t = t.args[1]
    return out


class TestTemplates:
    def test_fresh_functions_share_one_template(self):
        # A function argument is not part of the key: it is kept in the
        # environment of the call and called when the search reaches it.
        before = set(sorted_with.templates)
        goals = [sorted_with(lambda a, b: leq(a, b), [1, 2]) for _ in range(10_000)]
        assert len({g.template for g in goals}) == 1
        assert set(sorted_with.templates) <= before | {(NAT_LIST,)}
        assert holds(goals[-1]) and not holds(sorted_with(lambda a, b: leq(b, a), [1, 2]))

    def test_one_template_per_list_type(self):
        trees = TypeRegistry().declare("tree", [("leaf", [])])
        leaf = trees.make("leaf")
        g1, g2, g3 = member(leaf, [leaf]), member(trees.var("t"), [leaf, leaf]), member(1, [1])
        assert g1.template is g2.template is member.templates[list_of(trees)]
        assert g3.template is member.templates[NAT_LIST] is not g1.template
        assert holds(g1) and holds(g3)


# A compiled predicate passed as an argument is compiled into the
# callee's template (see `goals.predicate`).  Answers, counters and the
# least budget each search completes in are pinned at their values from
# before predicates passed as arguments were entered or compiled in:
# none of them moves.

def _plain_leq(x, y):  # recurses under exists, so a body using it is not compiled
    return eq(x, zero()) | exists(NAT, lambda x1: exists(NAT, lambda y1: (
        eq(x, suc(x1)) & eq(y, suc(y1)) & _plain_leq(x1, y1))))


@predicate(nats)
def _leq_uncompiled(x, y):
    return _plain_leq(x, y)


@predicate(lambda f, xs: ((NAT_LIST,), (f, prelude.as_term(xs, NAT_LIST))))
def _apply_to(f, xs):
    return f(xs)


@predicate(lambda xs: (NAT_LIST, (prelude.as_term(xs, NAT_LIST),)))
def _is_itself(xs):
    return _apply_to(lambda ys: eq(ys, xs), xs)  # passes on a closure: not compiled


def _completes(goal, max_steps):
    try:
        list(solve(goal, max_steps=max_steps))
    except StepBudgetExceeded:
        return False
    return True


def _least_budget(goal):
    steps = 1
    while not _completes(goal, steps):
        steps += 1
    return steps


LISTS = list_of(NAT_LIST)

PINNED_ARGUMENT_CALLS = {
    # name: (goal, answers shown, counter at each answer, least budget)
    "sorted_nat": (lambda: sorted_nat([0, "A", 2]),
                   [{"A": "0"}, {"A": "1"}, {"A": "2"}], [13, 19, 25], 86),
    "list_plus_one": (lambda: sorted_with(list_plus_one, make_list(
                          [nat_list([0, 1]), "M", nat_list([2, 3])], LISTS)),
                      [{"M": "[1, 2]"}], [25], 109),
    "an uncompiled predicate": (lambda: sorted_with(_leq_uncompiled, [0, "A", 2]),
                                [{"A": "0"}, {"A": "1"}, {"A": "2"}], [9, 15, 21], 86),
    # Two step-free calls in a row: of the argument, then of its body.
    "an uncompiled predicate, called first": (lambda: _apply_to(_is_itself, [1]),
                                              [{}], [0], 3),
}


@pytest.mark.parametrize("goal, shown, counters, budget",
                         PINNED_ARGUMENT_CALLS.values(), ids=PINNED_ARGUMENT_CALLS.keys())
def test_predicate_arguments_keep_answers_counters_and_budgets(goal, shown, counters, budget):
    sols = list(solve(goal()))
    assert [{vid.name: pretty(t) for vid, t in s.bindings.items()} for s in sols] == shown
    assert [s.counter_at_yield for s in sols] == counters
    assert _least_budget(goal()) == budget


def test_uncompiled_predicates_are_uncompiled():
    assert _leq_uncompiled(1, 2).template.root is None
    assert _is_itself([1]).template.root is None


def test_a_predicate_argument_of_the_wrong_arity_raises_type_error():
    with pytest.raises(TypeError, match=r"^plus\(\) takes 3 arguments \(2 given\)$"):
        holds(sorted_with(plus, [1, 2]))


def test_a_wrapper_of_a_compiled_predicate_is_called_not_entered():
    # `functools.wraps` copies the predicate's attributes, `enter` among
    # them, to the wrapper; the search must still call the wrapper.
    @functools.wraps(leq)
    def geq(x, y):
        return leq(y, x)

    assert geq.enter is leq.enter
    assert holds(sorted_with(geq, [3, 2, 2, 0]))
    assert not holds(sorted_with(geq, [0, 1]))
    a = NAT.var("A")
    assert [nat_value(t) for t in find_all(a, sorted_with(geq, [2, a, 1]))] == [1, 2]


def test_a_wrapper_over_a_body_variable_is_not_compiled_in():
    # The wrapper refers to `x`, a variable of the body: it is a plain
    # function with free variables, not a constant of a template over a
    # placeholder `x`, so `all_leq` runs uncompiled.
    @predicate(lambda x, xs: (NAT_LIST, (prelude.as_nat(x), prelude.as_term(xs, NAT_LIST))))
    def all_leq(x, xs):
        up_to_x = functools.wraps(leq)(lambda a, b: leq(b, x))
        return sorted_with(up_to_x, xs)

    def plain(x, xs):
        return sorted_with(lambda a, b: leq(b, nat(x)), xs)

    for x, xs in ((0, [0, 1]), (0, [5, 7]), (3, [5, 2]), (9, [5, 7]), (0, [0, 0])):
        assert holds(all_leq(x, xs)) == holds(plain(x, xs)), (x, xs)
    assert not holds(all_leq(0, [0, 1])) and not holds(all_leq(0, [5, 7]))
    assert all_leq.templates[NAT_LIST].root is None


@predicate(prelude._relation_lists)
def _even_with(f, xs):
    """`f` holds between each element of `xs` and itself, `xs` of even length."""
    t = term_type(xs)
    return eq(xs, nil(t)) | exists(t.element, lambda h: exists(t, lambda tl: (
        eq(xs, cons(h, tl)) & f(h, h) & _odd_with(f, tl))))


@predicate(prelude._relation_lists)
def _odd_with(f, xs):
    t = term_type(xs)
    return exists(t.element, lambda h: exists(t, lambda tl: (
        eq(xs, cons(h, tl)) & f(h, h) & _even_with(f, tl))))


def _calls(goal):
    """The `Call` nodes of a template root, not entering other templates."""
    found, todo = [], [goal]
    while todo:
        n = todo.pop()
        todo += [getattr(n, f) for f in n._fields if isinstance(getattr(n, f), Goal)]
        if type(n) is Call:
            found.append(n)
    return found


class TestSpecialisedTemplates:
    """A compiled predicate passed to a predicate is compiled into the
    callee's template (see `goals.predicate`)."""

    def test_mutually_recursive_callees_are_both_specialised(self):
        for xs in ([], [1], [1, 2], [0, 3, 3], [2, 2, 2, 2]):
            g, plain = _even_with(leq, xs), _even_with(lambda a, b: leq(a, b), xs)
            assert list(solve(g)) == list(solve(plain))
            assert _least_budget(g) == _least_budget(plain)
        (odd,) = [c.template for c in _calls(_even_with(leq, [1]).template.root)
                  if c.template.name == "_odd_with"]
        assert {c.template.name for c in _calls(odd.root)} == {"leq", "_even_with"}

    def test_each_predicate_argument_has_its_own_template(self):
        by_leq, by_lt = sorted_with(leq, [1, 2]), sorted_with(lt, [1, 2])
        assert by_leq.template is sorted_with(leq, [3, 2, 1]).template
        assert by_lt.template is not by_leq.template
        lambdas = [sorted_with(lambda a, b: leq(a, b), [1, 2]) for _ in range(100)]
        assert len({g.template for g in lambdas}) == 1
        assert lambdas[0].template not in (by_leq.template, by_lt.template)
        assert holds(by_leq) and holds(by_lt) and holds(lambdas[0])
        assert holds(sorted_with(leq, [2, 2])) and not holds(sorted_with(lt, [2, 2]))

    def test_a_predicate_made_at_run_time_is_freed(self):
        def made():
            @predicate(nats)
            def at_least(x, y):
                return leq(y, x)

            assert holds(sorted_with(at_least, [3, 2, 2, 0]))
            assert not holds(sorted_with(at_least, [0, 1]))
            g = sorted_with(at_least, [1])
            assert g.template is not sorted_with(lambda a, b: at_least(a, b), [1]).template
            # The body stays alive while a template calls its template.
            return weakref.ref(at_least), weakref.ref(at_least.__wrapped__)

        predicate_ref, body_ref = made()
        gc.collect()
        assert predicate_ref() is None and body_ref() is None
        assert holds(sorted_with(leq, [0, 1]))
