import sys
import threading
import time

import pytest

from typelog import goals
from typelog.derive import TypeRegistry
from typelog.goals import (
    Call,
    Conj,
    CutThen,
    Disj,
    Exists,
    Fail,
    IsGround,
    Scope,
    Succeed,
    Unify,
    cut_then,
    eq,
    exists,
    fail_goal,
    is_ground,
    neg,
    neq,
    predicate,
    scope,
    succeed,
)
from typelog.prelude import (
    NAT,
    NAT_LIST,
    append_list,
    as_nat,
    as_term,
    cons,
    is_suc,
    leq,
    list_of,
    map_p,
    member,
    nat,
    nat_list,
    nats,
    nil,
    plus,
    remainder,
    sorted_with,
    suc,
    zero,
)
from typelog.solve import find_all, holds, solve, solve_stores
from typelog.terms import LogicError, TypeMismatchError, Var, VarId

from reference import eager_answers

X = NAT.var("x")


def answers(goal):
    return [{vid.name: term for vid, term in s.bindings.items()} for s in solve(goal)]


class TestPrimitives:
    def test_succeed_one_solution(self):
        assert answers(succeed()) == [{}]

    def test_succeed_conj_succeed(self):
        assert answers(succeed() & succeed()) == [{}]

    def test_fail_no_solutions(self):
        assert answers(fail_goal()) == []

    def test_fail_left_identity_of_disj(self):
        assert answers(fail_goal() | succeed()) == [{}]

    def test_fail_annihilates_conj(self):
        assert answers(fail_goal() & succeed()) == []


class TestConnectives:
    def test_succeed_and_fail(self):
        assert answers(succeed() & fail_goal()) == []

    def test_repeated_constraint(self):
        assert answers(eq(X, zero()) & eq(X, zero())) == [{"x": zero()}]

    def test_clashing_constraints(self):
        assert answers(eq(X, zero()) & eq(X, nat(1))) == []

    def test_paper_mixed_query(self):
        assert answers(succeed() & (fail_goal() | succeed())) == [{}]

    def test_disjunction_order_observable(self):
        assert answers(eq(X, zero()) | eq(X, nat(1))) == [{"x": nat(0)}, {"x": nat(1)}]

    def test_both_fail(self):
        assert answers(fail_goal() | fail_goal()) == []

    def test_associativity_does_not_change_order(self):
        g1 = (eq(X, nat(0)) | eq(X, nat(1))) | eq(X, nat(2))
        g2 = eq(X, nat(0)) | (eq(X, nat(1)) | eq(X, nat(2)))
        assert answers(g1) == answers(g2)


class TestEq:
    def test_forward(self):
        assert answers(eq(suc(nat(1)), X)) == [{"x": nat(2)}]

    def test_backward(self):
        assert answers(eq(suc(X), nat(1))) == [{"x": nat(0)}]

    def test_ground_equal(self):
        assert answers(eq(nat(1), nat(1))) == [{}]

    def test_type_mismatch_at_construction(self):
        with pytest.raises(TypeMismatchError):
            eq(X, nat_list([]))

    @pytest.mark.parametrize("a, b", [(1, nat(1)), (nat(1), "X"), (X, None), (X.vid, X)])
    def test_operand_that_is_not_a_term(self, a, b):
        for goal in (eq, neq):
            with pytest.raises(TypeMismatchError, match="eq: expected a term"):
                goal(a, b)


class TestExists:
    def test_fresh_binding_is_hidden(self):
        assert answers(exists(NAT, lambda v: eq(v, zero()))) == [{}]

    def test_member_singleton(self):
        assert answers(member(0, [0])) == [{}]

    def test_hygiene_no_underscore_names(self):
        for sol in solve(exists(NAT, lambda v: eq(v, X) & eq(X, nat(2)))):
            assert all(not vid.name.startswith("_") for vid in sol.bindings)

    def test_body_pure_same_goal_structure(self):
        body = lambda v: eq(v, zero()) & eq(X, v)
        g = exists(NAT, body)
        assert g.body(X) == g.body(X)


class TestGoalNodes:
    def test_structural_equality_and_hash(self):
        a = eq(X, zero()) & succeed() | fail_goal()
        b = eq(NAT.var("x"), zero()) & succeed() | fail_goal()
        assert a is not b and a == b and hash(a) == hash(b)
        assert Conj(succeed(), fail_goal()) != Disj(succeed(), fail_goal())
        assert eq(X, zero()) != eq(X, suc(zero()))

    def test_repr_names_the_fields(self):
        assert repr(eq(X, zero())) == "Unify(left=Var(x:nat), right=zero)"

    def test_no_instance_dict(self):
        assert not hasattr(eq(X, zero()) & succeed(), "__dict__")


class TestGoalValuesAtAnyDepth:
    """`==`, `hash` and `repr` walk a goal tree over an explicit stack."""

    def test_reprs_of_nested_nodes_are_pinned(self):
        # Pinned before the walk was rewritten, from the recursive form.
        cases = [
            (eq(X, nat(1)) | (succeed() & fail_goal()),
             "Disj(g1=Unify(left=Var(x:nat), right=suc(zero)), g2=Conj(g1=Succeed(), g2=Fail()))"),
            (neg(eq(X, zero())),
             "Scope(g=Disj(g1=CutThen(g1=Unify(left=Var(x:nat), right=zero), g2=Fail()), "
             "g2=Succeed()))"),
            (is_ground(X) ^ succeed(), "CutThen(g1=IsGround(term=Var(x:nat)), g2=Succeed())"),
            (Exists(NAT, Unify(0, (NAT, "suc", (1,))), 1),
             "Exists(ltype=LogicType(nat), body=Unify(left=0, right=(LogicType(nat), 'suc', (1,))), "
             "slot=1)"),
            (Disj(Succeed(), Call(plus(0, 0, 0).template, (3, 1, 4))),
             "Disj(g1=Succeed(), g2=Call(plus, (3, 1, 4)))"),
        ]
        for goal, shown in cases:
            assert repr(goal) == shown

    @staticmethod
    def chain(depth, last=0):
        g = eq(X, nat(last))
        for i in range(1, depth):
            g = g | eq(X, nat(i % 5))
        return g

    def test_a_left_nested_chain_20_000_deep(self):
        a, b = self.chain(20_000), self.chain(20_000)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert repr(a).startswith("Disj(g1=" * 19_999 + "Unify(left=Var(x:nat), right=zero), g2=")
        assert a != self.chain(20_000, last=1) and a != self.chain(19_999)

    def test_equal_goals_hash_equal_however_they_share(self):
        leaf = eq(X, nat(2))
        assert leaf | leaf == eq(X, nat(2)) | eq(NAT.var("x"), nat(2))
        assert hash(leaf | leaf) == hash(eq(X, nat(2)) | eq(NAT.var("x"), nat(2)))
        assert Conj(Call(plus(0, 0, 0).template, (nat(1),)), Succeed()) == Conj(
            Call(plus(0, 0, 0).template, (nat(1),)), Succeed())
        assert Disj(Succeed(), Fail()) != Disj(Succeed(), Succeed())

    def test_equality_does_not_enter_a_shared_subgoal(self):
        # 2**30 paths through 30 distinct nodes: `==` compares a shared
        # subgoal by identity, and stops at the first difference.
        g = eq(X, nat(1))
        for _ in range(30):
            g = Disj(g, g)
        assert Disj(g, Succeed()) == Disj(g, Succeed())
        assert Disj(g, Succeed()) != Disj(g, Fail())
        assert Conj(Fail(), g) != Conj(Succeed(), g)

    @staticmethod
    def dag(depth, leaf):
        g = eq(X, nat(leaf))
        for _ in range(depth):
            g = Disj(g, g)
        return g

    def test_separately_built_dags_compare_and_hash_in_linear_time(self):
        # 2**40 paths through 41 distinct nodes on each side: `==` enters
        # each pair of nodes once and `hash` each node once.
        start = time.perf_counter()
        a, b = self.dag(40, 1), self.dag(40, 1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != self.dag(40, 2) and Disj(a, Succeed()) != Disj(b, Fail())
        assert time.perf_counter() - start < 1

    def test_a_shared_dag_hashes_as_the_equal_tree(self):
        def tree(depth):
            return eq(X, nat(1)) if depth == 0 else Disj(tree(depth - 1), tree(depth - 1))

        shared, unshared = self.dag(8, 1), tree(8)
        assert shared == unshared and hash(shared) == hash(unshared)
        assert hash(Conj(shared, Succeed())) == hash(Conj(unshared, Succeed()))
        assert hash(Disj(shared, Fail())) != hash(Disj(shared, Succeed()))


# Every goal node class: its field names, a function returning fresh
# field values (equal, not identical, on each call where the values allow
# it), and the repr of the node built from them.
GOAL_NODES = [
    (Succeed, (), lambda: (), "Succeed()"),
    (Fail, (), lambda: (), "Fail()"),
    (Unify, ("left", "right"), lambda: (NAT.var("x"), nat(1)),
     "Unify(left=Var(x:nat), right=suc(zero))"),
    (Conj, ("g1", "g2"), lambda: (Succeed(), Fail()), "Conj(g1=Succeed(), g2=Fail())"),
    (Disj, ("g1", "g2"), lambda: (Succeed(), Fail()), "Disj(g1=Succeed(), g2=Fail())"),
    (Exists, ("ltype", "body", "slot"), lambda: (NAT, Unify(0, 1), 3),
     "Exists(ltype=LogicType(nat), body=Unify(left=0, right=1), slot=3)"),
    (Scope, ("g",), lambda: (Fail(),), "Scope(g=Fail())"),
    (CutThen, ("g1", "g2"), lambda: (Succeed(), Fail()), "CutThen(g1=Succeed(), g2=Fail())"),
    (IsGround, ("term",), lambda: (nat_list([2]),),
     "IsGround(term=cons(suc(suc(zero)), nil))"),
    (Call, ("template", "args"), lambda: (plus(0, 0, 0).template, (nat(1), NAT.var("A"))),
     "Call(plus, (suc(zero), Var(A:nat)))"),
]


@pytest.mark.parametrize("cls, names, values, shown", GOAL_NODES,
                         ids=[row[0].__name__ for row in GOAL_NODES])
class TestGoalNodeValues:
    """Goal nodes are values: equality, hashing and repr over their fields."""

    def test_equal_fields_equal_nodes(self, cls, names, values, shown):
        a, b = cls(*values()), cls(*values())
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)

    def test_keyword_construction(self, cls, names, values, shown):
        node = cls(**dict(zip(names, values())))
        assert node == cls(*values())
        assert tuple(getattr(node, n) for n in names) == values()

    def test_never_equal_to_another_value(self, cls, names, values, shown):
        node = cls(*values())
        assert (node == 3) is False and node != 3
        assert node != values() and node.__eq__(3) is NotImplemented

    def test_each_field_is_compared(self, cls, names, values, shown):
        base = values()
        for i in range(len(base)):
            changed = list(base)
            changed[i] = Fail() if base[i] != Fail() else Succeed()
            assert cls(*changed) != cls(*base)

    def test_repr(self, cls, names, values, shown):
        assert repr(cls(*values())) == shown

    def test_no_instance_dict(self, cls, names, values, shown):
        assert not hasattr(cls(*values()), "__dict__")


class TestGoalNodeClasses:
    def test_classes_with_the_same_fields_are_unequal(self):
        nodes = [Conj(Succeed(), Fail()), Disj(Succeed(), Fail()), CutThen(Succeed(), Fail())]
        for a in nodes:
            for b in nodes:
                assert (a == b) is (a is b)
                if a is not b:
                    assert a.__eq__(b) is NotImplemented
        assert Succeed() != Fail() and Succeed().__eq__(Fail()) is NotImplemented

    def test_disj_index_is_ignored(self):
        indexed = Disj(Succeed(), Fail(), (0, "zero", 2, 1))
        plain = Disj(Succeed(), Fail())
        assert indexed == plain and hash(indexed) == hash(plain)
        assert repr(indexed) == repr(plain) == "Disj(g1=Succeed(), g2=Fail())"
        assert indexed.index == (0, "zero", 2, 1)

    def test_exists_slot_is_compared(self):
        body = Unify(0, 1)
        assert Exists(NAT, body, 3) != Exists(NAT, body, 4)
        assert Exists(NAT, body, 3) != Exists(NAT, body)

    def test_constructor_defaults(self):
        assert Disj(Succeed(), Fail()).index is None
        assert Exists(NAT, succeed).slot is None
        assert repr(Exists(NAT, Succeed())) == (
            "Exists(ltype=LogicType(nat), body=Succeed(), slot=None)")


class TestCutAndScope:
    def test_cut_confined_by_scope(self):
        assert answers(scope(cut_then(succeed(), fail_goal())) | succeed()) == [{}]

    def test_scope_transparent_without_cut(self):
        assert answers(scope(succeed())) == [{}]

    def test_cut_does_not_fire_on_failed_left(self):
        assert answers(scope(cut_then(fail_goal(), fail_goal()) | succeed())) == [{}]

    def test_commits_to_first_solution(self):
        g = scope(cut_then(eq(X, nat(0)) | eq(X, nat(1)), succeed()))
        assert answers(g) == [{"x": nat(0)}]

    def test_matches_eager_reference(self):
        g = scope(cut_then(eq(X, nat(0)) | eq(X, nat(1)), succeed()))
        assert [{k: v for k, v in a.items()} for a in eager_answers(g)] == [{"x": nat(0)}]


class TestNegation:
    def test_neg_succeed_fails(self):
        assert answers(neg(succeed())) == []

    def test_neg_fail_succeeds_once(self):
        assert answers(neg(fail_goal())) == [{}]

    def test_neq_free_variables_fail(self):
        assert not holds(neq(NAT.var("a"), NAT.var("b")))

    def test_neq_ground(self):
        assert holds(neq(nat(1), nat(2)))
        assert not holds(neq(nat(1), nat(1)))

    def test_neq_half_free_fails(self):
        assert not holds(neq(X, nat(1)))

    def test_double_negation(self):
        assert answers(neg(neg(eq(X, nat(1))))) == [{}]
        assert answers(neg(neg(fail_goal()))) == []

    def test_scope_of_neg_is_neg(self):
        for g in (succeed(), fail_goal(), eq(X, nat(1))):
            assert answers(scope(neg(g))) == answers(neg(g))


class TestIsGround:
    def test_ground_term(self):
        assert holds(is_ground(nat(1)))

    def test_unbound_var_fails(self):
        assert not holds(is_ground(suc(X)))

    def test_binding_precedes_check(self):
        assert holds(exists(NAT, lambda v: eq(v, nat(1)) & is_ground(v)))

    def test_check_precedes_binding_fails(self):
        assert not holds(exists(NAT, lambda v: is_ground(v) & eq(v, nat(1))))


class TestOperatorGrouping:
    def test_precedence_matches_surface_grammar(self):
        a, b = nat(1), nat(1)
        f = fail_goal()
        c, d = succeed(), succeed()
        g = eq(a, b) ^ f | c & d
        assert isinstance(g, Disj)
        assert isinstance(g.g1, CutThen)
        assert isinstance(g.g1.g1, Unify)
        assert g.g1.g2 is f
        assert isinstance(g.g2, Conj)

    def test_construction_is_pure(self):
        # Building a goal performs no search: an absurd constraint only
        # fails at solve time.
        g = eq(nat(1), nat(2)) & fail_goal()
        assert not holds(g)

    def test_grouped_solution_count(self):
        # ((1===1) @! fail) @| (succeed @@ succeed): cut fires inside the
        # first disjunct, scope at top level prunes the second.
        g = scope(eq(nat(1), nat(1)) ^ fail_goal() | succeed() & succeed())
        assert answers(g) == []


@predicate(nats)
def double(x, y):
    """y is twice x."""
    return plus(x, x, y)


def _nat_and_lists(k, xs, ys):
    return None, (as_nat(k), as_term(xs, NAT_LIST), as_term(ys, NAT_LIST))


def add_all(k, xs, ys):
    """ys is xs with k added to each element.  A plain function: the
    function it passes to map_p refers to k."""
    return map_p(lambda a, b: plus(a, k, b), xs, ys)


def plain_leq(x, y):
    """x <= y, written as a plain function that recurses under exists."""
    return eq(x, zero()) | exists(NAT, lambda x1: exists(NAT, lambda y1: (
        eq(x, suc(x1)) & eq(y, suc(y1)) & plain_leq(x1, y1))))


class TestPredicate:
    def test_call_is_one_node(self):
        g = double(2, "Y")
        assert type(g) is Call and g == double(2, "Y") and hash(g) == hash(double(2, "Y"))
        assert repr(g) == "Call(double, (suc(suc(zero)), Var(Y:nat)))"

    def test_answers_match_the_body(self):
        assert answers(double(3, "Y")) == [{"Y": nat(6)}]
        assert answers(double("X", 4)) == eager_answers(double("X", 4)) == [{"X": nat(2)}]
        assert not holds(double(1, 3))

    def test_body_runs_once_per_key(self):
        seen = []

        @predicate(nats)
        def noted(x):
            seen.append(x)
            return eq(x, zero())

        assert holds(noted(0)) and not holds(noted(1)) and holds(noted("Z"))
        assert len(seen) == 1 and seen[0].vid.name.startswith("_")

    def test_function_argument_referring_to_the_body_runs_the_body(self):
        # The lambda add_all passes to map_p refers to k, so the template
        # cannot stand for it: each call runs the body on its arguments.
        @predicate(_nat_and_lists)
        def compiled_add_all(k, xs, ys):
            return add_all(k, xs, ys)

        for args in ((2, [1, 2, 3], "Ys"), ("K", [1, 2], [3, 4]), ("K", [1, 2], [3, 5])):
            g = compiled_add_all(*args)
            assert answers(g) == answers(add_all(*args)) == eager_answers(g)
        assert answers(compiled_add_all("K", [1, 2], [3, 4])) == [{"K": nat(2)}]
        assert compiled_add_all.templates[None].root is None

    def test_plain_recursive_relation_as_argument(self):
        # The relation is called when the search reaches it, never on
        # placeholders, so compiling sorted_with and map_p ends.
        for g in (sorted_with(plain_leq, [1, 2, 2, 5]), sorted_with(plain_leq, [3, 2]),
                  map_p(plain_leq, ["A", 1], [2, 3]), map_p(plain_leq, [1, 2], [2, 1])):
            assert answers(g) == eager_answers(g)
        assert holds(sorted_with(plain_leq, [0, 4])) and not holds(sorted_with(plain_leq, [4, 0]))
        assert answers(map_p(plain_leq, ["A"], [1])) == [{"A": nat(0)}, {"A": nat(1)}]

    def test_plain_recursive_relation_in_a_body(self):
        # Expanding the body's exists closures would not end: the body is
        # run on each call instead, and gives the closures' answers.
        @predicate(nats)
        def at_most(x, y):
            return plain_leq(x, y)

        g = at_most("X", 2)
        assert answers(g) == eager_answers(g) == [{"X": nat(n)} for n in range(3)]
        assert not holds(at_most(3, 2))
        assert at_most.templates[NAT].root is None

        @predicate(nats)
        def below(x, y):
            return exists(NAT, lambda s: eq(s, suc(x)) & at_most(s, y))

        assert answers(below("X", 2)) == [{"X": nat(0)}, {"X": nat(1)}]
        assert below.templates[NAT].root is not None

    def test_ill_typed_call_raises_when_built(self):
        with pytest.raises(TypeMismatchError):
            double(nat_list([1]), 2)
        elem = TypeRegistry().declare("elem", [("e", [])])
        before = dict(sorted_with.templates)
        with pytest.raises(TypeMismatchError):
            sorted_with(leq, [elem.make("e")])  # leq on elem terms
        assert sorted_with.templates == before
        # A relation argument runs when the search reaches it, so it
        # meets ill-typed elements there, as a closure-built body did.
        g = sorted_with(leq, as_term([elem.make("e")] * 2, list_of(elem)))
        with pytest.raises(TypeMismatchError):
            holds(g)

    def test_wrong_arity_raises(self):
        with pytest.raises(TypeError):
            double(1)

    def test_call_loop_without_a_goal_is_rejected(self):
        @predicate(nats)
        def loop(x):
            return loop(x)

        with pytest.raises(LogicError, match="calls itself"):
            loop(1)
        assert loop.templates == {}

    def test_deep_terms_in_a_body(self):
        @predicate(nats)
        def plus_3000(x, y):
            t = x
            for _ in range(3000):
                t = suc(t)
            return eq(t, y)

        assert answers(plus_3000("X", 3002)) == [{"X": nat(2)}]

    def test_shared_terms_in_a_body(self):
        tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])

        def full(x, y):
            t = x
            for _ in range(12):
                t = tree.make("node", t, t)
            return eq(y, t)

        compiled = predicate(lambda x, y: (tree, (x, y)))(full)
        leaf, y = tree.make("leaf"), tree.var("Y")
        [r] = find_all(y, compiled(leaf, y))
        assert [r] == find_all(y, full(leaf, y))
        for _ in range(12):
            assert r.args[0] is r.args[1]
            r = r.args[0]
        assert r is leaf

    def test_nested_patterns(self):
        @predicate(nats)
        def in_pair(x, y, z):
            return member(x, cons(y, cons(suc(z), nil(NAT_LIST))))

        g = in_pair("A", 1, "C")
        assert answers(g) == eager_answers(g) == [{"A": nat(1)}, {"A": suc(NAT.var("C"))}]

    def test_a_call_waiting_on_a_compilation_gets_its_template(self):
        # The second thread finds no template when it calls, waits on the
        # compile lock while the first compiles, then gets the published one.
        compiling, release, ran = threading.Event(), threading.Event(), []

        @predicate(nats)
        def slow(x):
            ran.append(x)
            compiling.set()
            release.wait(10)
            return eq(x, zero())

        results = {}

        def query(name):
            results[name] = holds(slow(0))

        first = threading.Thread(target=query, args=("first",))
        second = threading.Thread(target=query, args=("second",))
        first.start()
        try:
            assert compiling.wait(10)
            second.start()
            deadline = time.monotonic() + 10
            while sys._current_frames()[second.ident].f_code is not goals._template.__code__:
                assert time.monotonic() < deadline, "the second call never reached the lock"
                time.sleep(0.001)
        finally:
            release.set()
            first.join(10)
            if second.ident is not None:
                second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert results == {"first": True, "second": True} and len(ran) == 1


def _interrupt(v):
    raise KeyboardInterrupt


class TestInterrupts:
    """A ^C reaches an API caller as `KeyboardInterrupt` and leaves no
    shared state half-built: the tests raise it where a signal handler
    would, inside a body or a search."""

    def queries(self):
        return (answers(leq("X", 2)), holds(plus(2, 3, 5)), holds(plus(2, 3, 6)),
                [s.bindings for s in solve(member("A", [1, 2]))])

    def test_an_interrupted_compile_compiles_again(self):
        before = self.queries()
        interrupts, runs = [KeyboardInterrupt], []

        @predicate(nats)
        def inner(x):
            runs.append("inner")
            if interrupts:
                raise interrupts.pop()
            return eq(x, zero())

        @predicate(nats)
        def outer(x):
            runs.append("outer")
            return exists(NAT, lambda y: eq(x, suc(y)) & inner(y))

        with pytest.raises(KeyboardInterrupt):
            outer(1)
        assert outer.templates == {} and inner.templates == {} and goals._pending == {}
        assert answers(outer("X")) == [{"X": nat(1)}]
        assert holds(outer(1)) and not holds(outer(2))
        assert runs == ["outer", "inner", "outer", "inner"]
        assert self.queries() == before

    def test_an_interrupted_search_leaves_later_queries_as_they_were(self):
        before = self.queries()
        with pytest.raises(KeyboardInterrupt):
            holds(plus("X", 0, 0) & exists(NAT, _interrupt))
        x = NAT.var("X")
        stream = solve(leq(x, 3) & (eq(x, nat(1)) & exists(NAT, _interrupt) | succeed()))
        assert next(stream).bindings == {x.vid: nat(0)}
        with pytest.raises(KeyboardInterrupt):
            next(stream)
        assert self.queries() == before


def engine_entries(goal):
    """The engine-variable keys of each raw store `goal` answers with."""
    return [[vid.name for vid in store if vid.name.startswith("_")]
            for store in solve_stores(goal)]


class TestFirstOccurrence:
    """An `exists` slot holds a number until its first read.  Where
    `unify` meets it with a compound, and no choicepoint pushed since its
    `exists` is live, the slot takes that subterm: no variable is made
    or bound for it.  Any other first read makes the slot's variable."""

    @pytest.mark.parametrize("goal", [
        plus(1, "B", 3), leq(1, 2), member("X", [1, 2]),
        append_list([1], "Y", [1, 2]), map_p(leq, [1], [2]),
    ], ids=["plus", "leq", "member", "append_list", "map_p"])
    def test_prelude_slots_are_lazy(self, goal):
        # In read mode every slot of these predicates takes what it meets.
        stores = engine_entries(goal)
        assert stores and stores == [[]] * len(stores)
        assert answers(goal) == eager_answers(goal)

    def test_a_call_argument_stays_eager(self):
        # remainder's `diff` is read first as an argument of plus.
        g = remainder(5, 2, "R")
        [s] = solve_stores(g)
        assert s.lookup(VarId("_6", NAT)) == nat(3)
        assert answers(g) == eager_answers(g)

    @pytest.mark.parametrize("body", [
        lambda x, y: exists(NAT, lambda v: eq(suc(v), x)),
        lambda x, y: exists(NAT, lambda v: leq(x, y) & eq(x, suc(v))),
        lambda x, y: exists(NAT, lambda v: (eq(x, zero()) | eq(y, zero())) & eq(x, suc(v))),
        lambda x, y: exists(NAT, lambda v: eq(x, suc(v)) ^ succeed()),
        lambda x, y: exists(NAT, lambda v: scope(eq(x, suc(v)))),
        lambda x, y: exists(NAT, lambda v: eq(x, suc(v)) | eq(y, v)),
        lambda x, y: exists(NAT, lambda v: (eq(y, zero()) | eq(x, suc(v))) & eq(y, v)),
        lambda x, y: exists(NAT, lambda v: is_ground(v) & eq(x, v)),
    ], ids=["left pattern", "after a call", "after a disjunction", "under cut",
            "under scope", "left branch", "mentioned after a disjunction", "is_ground"])
    def test_eager_slots(self, body):
        # Shapes where a compile-time rule could not prove a take safe:
        # each takes or makes its variable as the run goes, and keeps
        # the answers of the eager form.
        compiled = predicate(nats)(body)
        for args in (("A", 2), (3, 2), (2, 3), ("A", 1)):
            g = compiled(*args)
            assert answers(g) == eager_answers(g)

    @pytest.mark.parametrize("body", [
        lambda x, y: exists(NAT, lambda v: eq(x, suc(v)) & eq(y, v)),
        lambda x, y: exists(NAT, lambda v: eq(y, zero()) & eq(x, suc(v))),
        lambda x, y: exists(NAT, lambda v: eq(y, zero()) | eq(x, suc(v)) & eq(y, v)),
        lambda x, y: exists(NAT, lambda v: exists(NAT, lambda w: eq(x, suc(v)) & eq(v, suc(w)))),
    ], ids=["then used", "after a unify", "right branch", "nested"])
    def test_lazy_slots(self, body):
        compiled = predicate(nats)(body)
        for args in ((3, 2), (3, 0), ("A", 1), (2, "B"), ("A", "B")):
            g = compiled(*args)
            if type(args[0]) is int:  # x is met in read mode
                assert all(keys == [] for keys in engine_entries(g))
            assert answers(g) == eager_answers(g)

    def test_a_choicepoint_since_the_exists_stops_a_take(self):
        # The disjunction's choicepoint is live when eq(x, suc(v)) first
        # reads v: a take of 0 would survive into the second branch.
        compiled = predicate(nats)(lambda x, y: exists(NAT, lambda v: (
            (eq(x, nat(1)) | eq(x, nat(2))) & eq(x, suc(v)) & eq(y, v))))
        g = compiled("A", "B")
        assert answers(g) == eager_answers(g) == [
            {"A": nat(1), "B": nat(0)}, {"A": nat(2), "B": nat(1)}]

    @pytest.mark.parametrize("body, y", [
        (lambda x, y: exists(NAT, lambda v: is_suc(y, x) & eq(x, suc(v))), 2),
        (lambda x, y: exists(NAT, lambda v: (
            (eq(y, zero()) | eq(y, suc(zero()))) ^ succeed()) & eq(x, suc(v))), 0),
    ], ids=["after a deterministic call", "after a cut"])
    def test_a_take_once_no_choicepoint_since_the_exists_is_live(self, body, y):
        # The call pushes no choicepoint, and the cut removes the one the
        # disjunction pushed, so v takes the 2 in x = 3: nothing is bound.
        g = predicate(nats)(body)(3, y)
        assert len(next(solve_stores(g))) == 0
        assert answers(g) == eager_answers(g) == [{}]

    def test_read_mode_binds_no_engine_variable(self):
        # With a variable bound per slot, these stores held 40001 and 40000 entries.
        assert len(next(solve_stores(plus(20000, "B", 40000)))) == 1
        assert len(next(solve_stores(leq(20000, 20001)))) == 0

    def test_unbound_argument_gets_the_numbered_variable(self):
        # plus(2, B, C) takes 2 apart in read mode and builds C in write
        # mode, each level's z allocated by its first occurrence.
        [s] = solve(plus(2, "B", "C"))
        z = Var(VarId("_3", NAT))
        assert answers(plus(2, "B", "C")) == [{"B": z, "C": suc(suc(z))}]
        assert s.counter_at_yield == 4

    def test_shared_pattern_with_a_lazy_slot(self):
        # The first occurrence of `v` lies under a subpattern shared by
        # every node, and stays there: later meetings read the slot.
        tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])

        def full(depth, bottom):
            t = bottom
            for _ in range(depth):
                t = tree.make("node", t, t)
            return t

        def balanced(depth):
            return predicate(lambda x: (tree, (x,)))(
                lambda x: exists(tree, lambda v: eq(x, full(depth, v))))

        leaf = tree.make("leaf")
        pair = tree.make("node", leaf, leaf)
        odd = tree.make("node", tree.make("node", pair, leaf), full(1, leaf))
        for depth in range(3):
            odd = tree.make("node", odd, full(depth + 2, leaf))
        five, forty = balanced(5), balanced(40)
        assert holds(five(full(5, leaf))) and holds(five(full(5, pair)))
        assert not holds(five(odd))
        assert len(next(solve_stores(five(full(5, pair))))) == 0
        t = tree.var("T")
        [r] = find_all(t, forty(t))
        assert r == full(40, Var(VarId("_0", tree)))
        nodes, todo = set(), [r]
        while todo:
            n = todo.pop()
            if type(n) is not Var and id(n) not in nodes:
                nodes.add(id(n))
                todo += n.args
        assert len(nodes) < 2 * 40


class TestCompiledBodyPaths:
    def test_body_that_mentions_an_outside_user_variable(self):
        y = NAT.var("Y")

        @predicate(nats)
        def one_past_y(x):
            return eq(x, suc(y))

        g = one_past_y(3)
        assert answers(g) == eager_answers(g) == [{"Y": nat(2)}]
        assert one_past_y.templates[NAT].root is not None

    def test_body_defining_a_predicate_over_its_own_variables(self):
        @predicate(nats)
        def outer(x):
            @predicate(nats)
            def inner(z):
                return eq(z, x)

            return inner(zero())

        with pytest.raises(LogicError, match="refers to a variable of an enclosing predicate's body"):
            outer(1)
        assert outer.templates == {}

    def test_body_that_returns_no_goal(self):
        @predicate(nats)
        def answer(x):
            return 42

        with pytest.raises(LogicError, match="not a goal: 42"):
            answer(1)
