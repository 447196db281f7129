import pytest

from typelog.goals import (
    Conj,
    CutThen,
    Disj,
    Unify,
    cut_then,
    eq,
    exists,
    fail_goal,
    is_ground,
    neg,
    neq,
    scope,
    succeed,
)
from typelog.prelude import NAT, member, nat, nat_list, suc, zero
from typelog.solve import find_all, holds, solve
from typelog.terms import TypeMismatchError

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
