import itertools
import tracemalloc

import pytest

from typelog import prelude
from typelog.derive import TypeRegistry
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
    map_p,
    member,
    nat,
    nat_list,
    nat_value,
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
from typelog.solve import find_all, holds, solve
from typelog.terms import TypeMismatchError, pretty

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
        assert set(sorted_with.templates) <= before | {NAT_LIST}
        assert holds(goals[-1]) and not holds(sorted_with(lambda a, b: leq(b, a), [1, 2]))

    def test_one_template_per_list_type(self):
        trees = TypeRegistry().declare("tree", [("leaf", [])])
        leaf = trees.make("leaf")
        g1, g2, g3 = member(leaf, [leaf]), member(trees.var("t"), [leaf, leaf]), member(1, [1])
        assert g1.template is g2.template is member.templates[list_of(trees)]
        assert g3.template is member.templates[NAT_LIST] is not g1.template
        assert holds(g1) and holds(g3)
