import itertools
import time
import tracemalloc

import pytest

from typelog import terms
from typelog.derive import TypeRegistry
from typelog.goals import Conj, CutThen, Disj, Exists, Scope, Unify, eq, exists, predicate
from typelog.prelude import NAT, NAT_LIST, as_term, cons, nat, nat_list, nil, suc, zero
from typelog.terms import (
    EMPTY_STORE,
    BindingStore,
    Compound,
    LogicError,
    TypeMismatchError,
    Var,
    VarId,
    is_ground_term,
    occurs_in,
    pattern,
    pretty,
    resolve,
    substitute,
    unify,
    unify_args,
    walk,
)

from reference import ground_nats, instantiate, matches, nat_terms_upto

X = NAT.var("x")
Y = NAT.var("y")
Z = NAT.var("z")


def store_of(*pairs):
    s = EMPTY_STORE
    for var, term in pairs:
        s = s.bind(var.vid, term)
    return s


class TestWalk:
    def test_single_binding(self):
        s = store_of((X, zero()))
        assert walk(X, s) == zero()

    def test_unbound_fixpoint(self):
        assert walk(X, EMPTY_STORE) == X

    def test_chain_of_two(self):
        s = store_of((X, Y), (Y, suc(Z)))
        assert walk(X, s) == suc(Z)

    def test_never_returns_bound_var(self):
        s = store_of((X, Y), (Y, Z), (Z, nat(1)))
        result = walk(X, s)
        assert not (isinstance(result, Var) and result.vid in s)


class TestResolve:
    def test_one_substitution(self):
        s = store_of((X, zero()))
        assert resolve(suc(X), s) == suc(zero())

    def test_ground_fixpoint(self):
        s = store_of((X, zero()))
        assert resolve(nat(3), s) == nat(3)

    def test_idempotence(self):
        s = store_of((X, suc(Y)), (Y, zero()))
        once = resolve(suc(X), s)
        assert resolve(once, s) == once

    def test_ground_and_unchanged_terms_returned_as_is(self):
        s = store_of((X, zero()))
        t = nat(3)
        assert resolve(t, s) is t
        u = suc(Y)
        assert resolve(u, s) is u
        assert resolve(suc(X), s).ground


class TestUnify:
    def test_var_against_ground(self):
        s = unify(X, suc(zero()), EMPTY_STORE)
        assert s is not None
        assert walk(X, s) == suc(zero())

    def test_constructor_mismatch(self):
        assert unify(suc(zero()), suc(suc(zero())), EMPTY_STORE) is None

    def test_occurs_clash(self):
        assert unify(X, suc(X), EMPTY_STORE) is None

    def test_self_binding_adds_nothing(self):
        s = unify(X, X, EMPTY_STORE)
        assert s is not None and len(s) == 0

    def test_left_variable_bound_first(self):
        s = unify(X, Y, EMPTY_STORE)
        assert s.lookup(X.vid) == Y

    def test_children_unified_left_to_right_depth_first(self):
        s = unify(nat_list([X, Y]), nat_list([Y, X]), EMPTY_STORE)
        assert list(s.items()) == [(X.vid, Y)]
        s = unify(nat_list([suc(X), Z]), nat_list([suc(Y), X]), EMPTY_STORE)
        assert list(s.items()) == [(X.vid, Y), (Z.vid, Y)]

    def test_public_store_copied_once_and_never_bound_through_bind(self, monkeypatch):
        start = store_of((Z, zero()))
        xs = [NAT.var(f"v{i}") for i in range(100)]
        a, b = nat_list(xs), nat_list([i % 7 for i in range(100)])
        copies = []
        init = BindingStore.__init__

        def counted_init(store, bindings=None):
            copies.append(bindings)
            init(store, bindings)

        def refuse(store, vid, term):
            raise AssertionError("unify bound through BindingStore.bind")

        monkeypatch.setattr(BindingStore, "__init__", counted_init)
        monkeypatch.setattr(BindingStore, "bind", refuse)
        s = unify(a, b, start)
        assert len(copies) == 1
        assert list(s.items()) == [(Z.vid, zero())] + [(v.vid, nat(i % 7)) for i, v in enumerate(xs)]
        assert list(start.items()) == [(Z.vid, zero())]
        # A clash after a bind discards the copy.
        assert unify(nat_list([X, zero()]), nat_list([zero(), suc(zero())]), start) is None
        assert len(copies) == 2
        assert list(start.items()) == [(Z.vid, zero())]

    def test_unify_args_checks_constructor_then_type(self):
        assert unify_args(suc(X), suc(zero()), EMPTY_STORE).lookup(X.vid) == zero()
        assert unify_args(zero(), nil(NAT_LIST), EMPTY_STORE) is None
        with pytest.raises(TypeMismatchError):
            unify_args(Compound(NAT_LIST, "zero", ()), zero(), EMPTY_STORE)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeMismatchError):
            unify(X, nat_list([]), EMPTY_STORE)

    def test_ground_self_unify_adds_nothing(self):
        for t in ground_nats(5):
            s = unify(t, t, EMPTY_STORE)
            assert s is not None and len(s) == 0

    def test_symmetry_and_resolve_equality(self):
        terms = nat_terms_upto(4, ("x", "y"))
        for a, b in itertools.product(terms, terms):
            s_ab = unify(a, b, EMPTY_STORE)
            s_ba = unify(b, a, EMPTY_STORE)
            assert (s_ab is None) == (s_ba is None)
            if s_ab is not None:
                assert resolve(a, s_ab) == resolve(b, s_ab)
                assert resolve(a, s_ba) == resolve(b, s_ba)

    def test_most_general_on_small_instances(self):
        # Any ground instantiation equalizing the pair must be an
        # instance of the computed unifier.
        terms = nat_terms_upto(3, ("x", "y"))
        grounds = ground_nats(3)
        for a, b in itertools.product(terms, terms):
            mgu = unify(a, b, EMPTY_STORE)
            unified = resolve(a, mgu) if mgu is not None else None
            for gx, gy in itertools.product(grounds, grounds):
                assignment = {X.vid: gx, Y.vid: gy}
                ga = instantiate(a, assignment)
                gb = instantiate(b, assignment)
                if ga == gb:
                    assert mgu is not None, (a, b)
                    assert matches(unified, ga)


class TestPatterns:
    """`unify` with an environment, its right side a slot index or a
    pattern ``(ltype, ctor, subpatterns)`` over that environment."""

    def test_read_mode_builds_nothing(self, monkeypatch):
        def build(p, env):
            raise AssertionError(f"read mode instantiated {p!r}")
        monkeypatch.setattr(terms, "instantiate", build)
        three = nat(3)
        s = unify(three, (NAT, "suc", (0,)), EMPTY_STORE, [X])
        assert s.lookup(X.vid) == nat(2)
        assert s.lookup(X.vid) is three.args[0]

    def test_write_mode_binds_the_instantiated_pattern(self):
        s = unify(X, (NAT, "suc", (0,)), EMPTY_STORE, [Y])
        assert list(s.items()) == [(X.vid, suc(Y))]

    def test_write_mode_keeps_the_occurs_check(self):
        assert unify(X, (NAT, "suc", (0,)), EMPTY_STORE, [X]) is None
        s = store_of((Y, X))
        assert unify(X, (NAT, "suc", ((NAT, "suc", (0,)),)), s, [Y]) is None

    def test_read_mode_clash(self):
        assert unify(zero(), (NAT, "suc", (0,)), EMPTY_STORE, [X]) is None
        assert unify(nat(2), (NAT, "suc", (zero(),)), EMPTY_STORE, []) is None

    def test_slot_is_the_term_it_holds(self):
        s = unify(X, 0, EMPTY_STORE, [nat(1)])
        assert list(s.items()) == [(X.vid, nat(1))]
        s = unify(nat_list([X, Y]), (NAT_LIST, "cons", (1, 0)), EMPTY_STORE,
                  [nat_list([Z]), nat(4)])
        assert list(s.items()) == [(X.vid, nat(4)), (Y.vid, Z)]

    def test_types_checked_at_entry(self):
        xs = NAT_LIST.var("xs")
        with pytest.raises(TypeMismatchError):
            unify(X, (NAT_LIST, "cons", (0, 1)), EMPTY_STORE, [Y, xs])
        with pytest.raises(TypeMismatchError):
            unify(X, 0, EMPTY_STORE, [xs])

    def test_shared_subterm_is_one_subpattern_built_once(self):
        tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])
        x, leaf = tree.var("x"), tree.make("leaf")
        s = tree.make("node", x, leaf)
        p = pattern(tree.make("node", s, s), lambda v: 0)
        assert p == (tree, "node", ((tree, "node", (0, leaf)),) * 2)
        assert p[2][0] is p[2][1]
        y = tree.var("y")
        t = terms.instantiate(p, [y])
        assert t == tree.make("node", tree.make("node", y, leaf), tree.make("node", y, leaf))
        assert t.args[0] is t.args[1]


class TestFirstOccurrence:
    """A slot that still holds the number n of its `exists`: its first
    read makes the variable ``_n``, typed by the list that ends the
    environment, unless `unify` meets it with a compound and takes that."""

    def test_read_mode_takes_the_subterm_and_binds_nothing(self):
        three, env = nat(3), [7, [NAT]]
        assert unify(three, (NAT, "suc", (0,)), EMPTY_STORE, env) is EMPTY_STORE
        assert env[0] is three.args[0]
        env = [7, [NAT]]
        assert unify(three, 0, EMPTY_STORE, env) is EMPTY_STORE and env[0] is three

    def test_unbound_variable_gets_the_numbered_variable(self):
        fresh = Var(VarId("_7", NAT))
        env = [7, [NAT]]
        s = unify(suc(X), (NAT, "suc", (0,)), EMPTY_STORE, env)
        assert env[0] == fresh and list(s.items()) == [(X.vid, fresh)]
        env = [7, [NAT]]
        s = unify(X, 0, EMPTY_STORE, env)
        assert env[0] == fresh and list(s.items()) == [(X.vid, fresh)]

    def test_write_mode_allocates_it(self):
        env = [7, [NAT]]
        s = unify(X, (NAT, "suc", (0,)), EMPTY_STORE, env)
        assert env[0] == Var(VarId("_7", NAT))
        assert list(s.items()) == [(X.vid, suc(env[0]))]
        env = [7, nil(NAT_LIST), [NAT, NAT_LIST]]
        t = terms.instantiate((NAT_LIST, "cons", (0, 1)), env)
        assert t == cons(Var(VarId("_7", NAT)), nil(NAT_LIST)) and t.args[0] is env[0]

    def test_later_occurrences_read_the_slot(self):
        p = (NAT_LIST, "cons", (0, (NAT_LIST, "cons", (0, 1))))

        def env():
            return [7, nil(NAT_LIST), [NAT, NAT_LIST]]
        assert unify(nat_list([2, 2]), p, EMPTY_STORE, env()) is EMPTY_STORE
        assert unify(nat_list([2, 3]), p, EMPTY_STORE, env()) is None
        s = unify(nat_list([X, 2]), p, EMPTY_STORE, env())
        assert list(s.items()) == [(X.vid, Var(VarId("_7", NAT))), (VarId("_7", NAT), nat(2))]

    def test_a_slot_that_holds_a_term_is_read(self):
        # Once it holds a variable or a taken term, the slot is read as
        # an argument's slot is, and keeps its term.
        p = (NAT, "suc", (0,))
        two = nat(2)
        env = [two]
        assert unify(nat(3), p, EMPTY_STORE, env) is EMPTY_STORE and env[0] is two
        assert unify(nat(3), p, EMPTY_STORE, [nat(1)]) is None
        assert list(unify(suc(X), p, EMPTY_STORE, env).items()) == [(X.vid, two)]
        assert list(unify(X, 0, EMPTY_STORE, env).items()) == [(X.vid, two)]
        assert list(unify(nat(3), p, EMPTY_STORE, [Y]).items()) == [(Y.vid, two)]
        assert terms.instantiate(p, env) == nat(3) and env == [two]

    def test_a_take_needs_the_exists_at_or_after_the_fence(self):
        # A search store's fence is the counter value when its newest live
        # choicepoint was pushed: a slot numbered below it makes its variable.
        p = (NAT, "suc", (0,))
        for n, fence in ((7, 8), (8, 8), (7, 0)):
            store, env = terms._SearchStore(), [n, [NAT]]
            store.fence = fence
            assert unify(nat(3), p, store, env) is store
            if n < fence:
                assert list(store.items()) == [(VarId("_7", NAT), nat(2))]
            else:
                assert len(store) == 0 and env[0] == nat(2)

    def test_first_in_unify_order(self):
        # Slots: x 0, y 1, then v 2 and w 3.  A pattern names each slot by
        # its index; the occurrence `unify` meets first takes.
        @predicate(lambda x, y: ((), (as_term(x, NAT_LIST), as_term(y, NAT))))
        def body(x, y):
            return exists(NAT, lambda v: exists(NAT_LIST, lambda w: eq(
                x, cons(y, cons(v, cons(v, w))))))

        [u] = unifies(body("X", 1).template)
        assert u.right == (NAT_LIST, "cons", (1, (NAT_LIST, "cons", (
            2, (NAT_LIST, "cons", (2, 3))))))
        types = [NAT_LIST, NAT, NAT, NAT_LIST]

        def env():
            return [None, nat(1), 5, 6, types]
        e = env()
        xs = nat_list([1, 2, 2, 3])
        assert unify(xs, u.right, EMPTY_STORE, e) is EMPTY_STORE
        assert e[2] is xs.args[1].args[0] and e[3] is xs.args[1].args[1].args[1]
        assert unify(nat_list([1, 2, 3, 3]), u.right, EMPTY_STORE, env()) is None

        @predicate(lambda x, y: ((), (as_term(x, NAT_LIST), as_term(y, NAT))))
        def mentioned(x, y):
            return exists(NAT, lambda v: exists(NAT, lambda w: eq(
                cons(v, x), cons(w, cons(v, x)))))

        [u] = unifies(mentioned("X", 1).template)
        assert u.left == (NAT_LIST, "cons", (2, 0))
        assert u.right == (NAT_LIST, "cons", (3, (NAT_LIST, "cons", (2, 0))))

        @predicate(lambda y: ((), (as_term(y, NAT),)))
        def whole(y):
            return exists(NAT, lambda v: eq(y, v))

        [u] = unifies(whole(1).template)
        assert u.right == 1

    def test_first_in_a_shared_subpattern(self):
        tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])

        @predicate(lambda x: (tree, (x,)))
        def body(x):
            def shared(v):
                s = tree.make("node", v, v)
                return eq(x, tree.make("node", s, s))
            return exists(tree, shared)

        [u] = unifies(body(tree.var("T")).template)
        s, s2 = u.right[2]
        assert s is s2 and s == (tree, "node", (1, 1))
        leaf = tree.make("leaf")
        pair = tree.make("node", leaf, leaf)
        env = [None, 5, [tree, tree]]
        assert unify(tree.make("node", pair, pair), u.right, EMPTY_STORE, env) is EMPTY_STORE
        assert env[1] is leaf
        odd = tree.make("node", pair, tree.make("node", leaf, pair))
        assert unify(odd, u.right, EMPTY_STORE, [None, 5, [tree, tree]]) is None


class TestOperands:
    """What a template operand stands for: `terms_of` reads a tuple of
    them, and `unify` reads one on its left side."""

    def test_terms_of_reads_each_operand(self):
        two = nat(2)
        env = [two, 7, [NAT, NAT]]
        [held, made, built, plain] = terms.terms_of((0, 1, (NAT, "suc", (0,)), X), env)
        assert held is two and plain is X and built == nat(3) and built.args[0] is two
        assert made == Var(VarId("_7", NAT)) and env[1] is made
        assert env == [two, made, [NAT, NAT]]

    def test_left_slot_gets_its_variable_and_takes_nothing(self):
        env = [7, [NAT]]
        s = unify(0, nat(3), EMPTY_STORE, env)
        assert env[0] == Var(VarId("_7", NAT))
        assert list(s.items()) == [(VarId("_7", NAT), nat(3))]

    def test_left_operand_type_checked_at_entry(self):
        with pytest.raises(TypeMismatchError):
            unify(0, nil(NAT_LIST), EMPTY_STORE, [7, [NAT]])

    # The head match: a left slot that holds a compound, against a pattern
    # whose fresh slots take its children directly.

    def test_head_match_takes_at_or_after_the_fence(self):
        three = nat(3)
        for n, fence in ((7, 0), (7, 7)):
            store, env = terms._SearchStore(), [three, n, [NAT, NAT]]
            store.fence = fence
            assert unify(0, (NAT, "suc", (1,)), store, env) is store
            assert len(store) == 0 and env[1] is three.args[0]

    def test_head_match_below_the_fence_makes_and_binds_the_variable(self):
        store, env = terms._SearchStore(), [nat(3), 7, [NAT, NAT]]
        store.fence = 8
        assert unify(0, (NAT, "suc", (1,)), store, env) is store
        assert env[1] == Var(VarId("_7", NAT))
        assert list(store.items()) == [(VarId("_7", NAT), nat(2))]

    def test_head_match_in_a_public_store_always_takes(self):
        three = nat(3)
        env = [three, 7, [NAT, NAT]]
        assert unify(0, (NAT, "suc", (1,)), EMPTY_STORE, env) is EMPTY_STORE
        assert env[1] is three.args[0]

    def test_head_match_clash_of_constructors(self):
        env = [zero(), 7, [NAT, NAT]]
        assert unify(0, (NAT, "suc", (1,)), EMPTY_STORE, env) is None
        assert env == [zero(), 7, [NAT, NAT]]
        env = [nat_list([1, 2]), nat(2), 7, [NAT_LIST, NAT, NAT_LIST]]
        p = (NAT_LIST, "cons", (1, (NAT_LIST, "cons", (1, 2))))
        assert unify(0, p, EMPTY_STORE, env) is None

    def test_head_match_unbound_child_gets_the_slots_variable(self):
        env = [suc(X), 7, [NAT, NAT]]
        s = unify(0, (NAT, "suc", (1,)), EMPTY_STORE, env)
        assert env[1] == Var(VarId("_7", NAT))
        assert list(s.items()) == [(X.vid, env[1])]

    def test_head_match_follows_a_bound_variable_chain(self):
        three = nat(3)
        start = store_of((X, Y), (Y, three))
        env = [X, 7, [NAT, NAT]]
        assert unify(0, (NAT, "suc", (1,)), start, env) is start
        assert env[1] is three.args[0]
        # So is a child's: the slot takes the compound its binding ends at.
        env = [suc(X), 7, [NAT, NAT]]
        assert unify(0, (NAT, "suc", (1,)), start, env) is start and env[1] is three
        # An unbound variable at the end of the chain is matched in write mode.
        env = [X, 7, [NAT, NAT]]
        s = unify(0, (NAT, "suc", (1,)), store_of((X, Y)), env)
        assert list(s.items()) == [(X.vid, Y), (Y.vid, suc(Var(VarId("_7", NAT))))]

    def test_head_match_children_in_order_with_one_public_result(self):
        # The first child binds X to slot 1's term; the second meets X
        # again, bound now, and then nil, which slot 2 takes.  The start
        # store is left as it was.
        start = store_of((Z, zero()))
        xs = nat_list([X, X])
        env = [xs, nat(4), 5, [NAT_LIST, NAT, NAT_LIST]]
        p = (NAT_LIST, "cons", (1, (NAT_LIST, "cons", (1, 2))))
        s = unify(0, p, start, env)
        assert list(s.items()) == [(Z.vid, zero()), (X.vid, nat(4))]
        assert env[2] is xs.args[1].args[1]
        assert list(start.items()) == [(Z.vid, zero())]

    def test_head_match_checks_the_pattern_type(self):
        with pytest.raises(TypeMismatchError):
            unify(0, (NAT_LIST, "cons", (1, 2)), EMPTY_STORE,
                  [nat(3), 7, 8, [NAT, NAT, NAT_LIST]])


def unifies(template):
    """The `Unify` nodes of a compiled template, in pre-order."""
    found, todo = [], [template.root]
    while todo:
        node = todo.pop()
        t = type(node)
        if t is Unify:
            found.append(node)
        elif t is Exists:
            todo.append(node.body)
        elif t in (Conj, Disj, CutThen):
            todo += (node.g2, node.g1)
        elif t is Scope:
            todo.append(node.g)
    return found


class TestOccursAndGround:
    def test_occurs_direct(self):
        assert occurs_in(X.vid, suc(X), EMPTY_STORE)

    def test_occurs_absent(self):
        assert not occurs_in(X.vid, zero(), EMPTY_STORE)

    def test_occurs_through_store(self):
        s = store_of((Y, suc(X)))
        assert occurs_in(X.vid, Y, s)

    def test_ground_cases(self):
        assert is_ground_term(suc(zero()), EMPTY_STORE)
        assert not is_ground_term(suc(X), EMPTY_STORE)
        assert is_ground_term(suc(X), store_of((X, zero())))

    def test_occurs_check_rejects_superterm(self):
        for wrap in range(1, 4):
            t = X
            for _ in range(wrap):
                t = suc(t)
            assert unify(X, t, EMPTY_STORE) is None

    def test_occurs_through_a_binding_of_the_other_side(self):
        s = store_of((Y, suc(X)))
        assert unify(X, suc(Y), s) is None

    def test_list_tail_chain_bound_back_to_itself_clashes(self):
        xs, ys = NAT_LIST.var("xs"), NAT_LIST.var("ys")
        s = store_of((ys, cons(nat(2), xs)))
        assert unify(xs, cons(nat(1), ys), s) is None
        assert unify(cons(nat(1), ys), xs, s) is None

    def test_occurs_walk_only_for_non_ground_compounds(self, monkeypatch):
        walked = []
        free_vids = terms._free_vids

        def counting(t, store):
            walked.append(t)
            return free_vids(t, store)

        monkeypatch.setattr(terms, "_free_vids", counting)
        assert unify(X, nat(3), EMPTY_STORE) is not None
        assert unify(nat(3), X, EMPTY_STORE) is not None
        assert unify(X, Y, EMPTY_STORE) is not None
        assert unify(nat_list([X, Y]), nat_list([nat(1), Z]), EMPTY_STORE) is not None
        # A compound whose children are ground or other unbound variables
        # cannot contain X: looked at one level down, not walked.
        assert unify(X, suc(Y), EMPTY_STORE) is not None
        assert unify(suc(Y), X, EMPTY_STORE) is not None
        assert unify(NAT_LIST.var("xs"), cons(Y, nil(NAT_LIST)), EMPTY_STORE) is not None
        assert walked == []
        # The variable being bound, a bound child, or a nested non-ground
        # child sends the check to the full walk.
        assert unify(X, suc(X), EMPTY_STORE) is None
        assert walked == [suc(X)]
        y_bound = store_of((Y, nat(2)))
        assert unify(X, suc(Y), y_bound) is not None
        assert unify(suc(Y), X, y_bound) is not None
        assert walked == [suc(X), suc(Y), suc(Y)]
        assert unify(X, suc(suc(Y)), EMPTY_STORE) is not None
        assert walked == [suc(X), suc(Y), suc(Y), suc(suc(Y))]

    def test_substitute_syntactic(self):
        assert substitute(X.vid, nat(2), suc(X)) == suc(nat(2))
        assert substitute(X.vid, nat(2), suc(Y)) == suc(Y)


class TestDeepTerms:
    """Terms far deeper than Python's recursion limit."""

    DEPTH = 5000

    def test_unify_variable_with_deep_ground_term(self):
        t = nat(self.DEPTH)
        s = unify(t, NAT.var("X"), EMPTY_STORE)
        assert s is not None and s.lookup(NAT.var("X").vid) is t

    def test_deep_ground_term_is_ground(self):
        assert is_ground_term(nat(self.DEPTH), EMPTY_STORE)

    def test_occurs_over_long_binding_chain(self):
        chain = [NAT.var(f"v{i}") for i in range(self.DEPTH)]
        bindings = {v.vid: w for v, w in zip(chain, chain[1:])}
        bindings[chain[-1].vid] = nat(self.DEPTH)
        s = BindingStore(bindings)
        assert not occurs_in(NAT.var("fresh").vid, chain[0], s)

    def chain(self, bottom):
        """A numeral-shaped chain built node by node, sharing nothing with
        `nat`'s table."""
        t = bottom
        for _ in range(self.DEPTH):
            t = NAT.make("suc", t)
        return t

    def test_unify_deep_ground_terms(self):
        assert unify(nat(self.DEPTH), nat(self.DEPTH), EMPTY_STORE) is EMPTY_STORE
        assert unify(self.chain(zero()), nat(self.DEPTH), EMPTY_STORE) is EMPTY_STORE
        assert unify(self.chain(zero()), nat(self.DEPTH - 1), EMPTY_STORE) is None

    def test_unify_binds_variable_at_the_bottom(self):
        s = unify(self.chain(X), self.chain(zero()), EMPTY_STORE)
        assert s is not None and s.lookup(X.vid) == zero()
        s = unify(self.chain(zero()), self.chain(X), EMPTY_STORE)
        assert s is not None and s.lookup(X.vid) == zero()

    def test_equality_and_hash_of_distinct_deep_terms(self):
        a, b = self.chain(X), self.chain(X)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != self.chain(Y)
        assert self.chain(zero()) == nat(self.DEPTH)
        assert hash(self.chain(zero())) == hash(nat(self.DEPTH))


    def test_resolve_deep_term(self):
        assert resolve(self.chain(X), store_of((X, zero()))) == nat(self.DEPTH)

    def test_substitute_deep_chain(self):
        t = X
        for _ in range(4 * self.DEPTH):
            t = NAT.make("suc", t)
        assert substitute(X.vid, zero(), t) == nat(4 * self.DEPTH)

    def test_repr_of_deep_term(self):
        assert repr(nat(self.DEPTH)) == "suc(" * self.DEPTH + "zero" + ")" * self.DEPTH

    def test_pretty_of_deep_term_without_override(self):
        tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])
        t = tree.make("leaf")
        for _ in range(self.DEPTH):
            t = tree.make("node", t, tree.make("leaf"))
        assert pretty(t) == "node(" * self.DEPTH + "leaf" + ", leaf)" * self.DEPTH

class TestFootprint:
    def test_terms_have_no_instance_dict(self):
        assert not hasattr(zero(), "__dict__")
        assert not hasattr(X, "__dict__")

    def test_numeral_chain_bytes_per_node(self):
        n = 20000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = zero()
            for _ in range(n):
                t = NAT.make("suc", t)
            per_node = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_node <= 125


class TestEquality:
    def test_var_id_never_equals_a_plain_tuple(self):
        assert VarId("X", NAT) != ("X", NAT)
        assert ("X", NAT) != VarId("X", NAT)
        assert not VarId("X", NAT) == ("X", NAT)
        assert VarId("X", NAT) in {VarId("X", NAT)}
        assert ("X", NAT) not in {VarId("X", NAT): 1}

    def test_equal_var_ids_and_vars_hash_equal(self):
        assert VarId("X", NAT) == VarId("X", NAT)
        assert hash(VarId("X", NAT)) == hash(VarId("X", NAT))
        assert Var(VarId("X", NAT)) == Var(VarId("X", NAT))
        assert hash(Var(VarId("X", NAT))) == hash(Var(VarId("X", NAT)))
        assert repr(VarId("X", NAT)) == "X:nat"

    def test_var_id_built_without_its_constructor(self):
        vid = tuple.__new__(VarId, ("_1", NAT))
        assert type(vid) is VarId
        assert vid == VarId("_1", NAT) and VarId("_1", NAT) == vid
        assert hash(vid) == hash(VarId("_1", NAT))
        assert vid != ("_1", NAT) and ("_1", NAT) != vid

    def test_var_never_equals_a_compound(self):
        c = Compound(NAT, "x", ())
        assert X != c and c != X
        assert not X == c and not c == X
        assert X != X.vid

    def test_compound_equality_is_structural(self):
        assert Compound(NAT, "a", (X,)) != Compound(NAT, "b", (X,))
        assert suc(X) == suc(NAT.var("x"))
        assert suc(X) != suc(Y)
        assert Compound(NAT, "zero", ()) == zero()
        assert Compound(NAT_LIST, "zero", ()) != zero()
        assert repr(suc(suc(X))) == "suc(suc(Var(x:nat)))"


class TestSharedTermEquality:
    """`==` and `hash` enter each node, or pair of nodes, once: a tree
    that shares its subterms costs its depth, not its 2**depth paths."""

    def tree(self, leaf, depth=40):
        t = leaf
        for _ in range(depth):
            t = Compound(NAT, "node", (t, t))
        return t

    def test_separately_built_equal_trees(self):
        start = time.perf_counter()
        a, b = self.tree(X), self.tree(NAT.var("x"))
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert time.perf_counter() - start < 1

    def test_a_changed_leaf_compares_unequal(self):
        start = time.perf_counter()
        a, b = self.tree(X), self.tree(X, 39)
        changed = Compound(NAT, "node", (b, Compound(NAT, "node", (self.tree(X, 38), self.tree(Y, 38)))))
        assert a != changed and not a == changed and changed != a
        assert time.perf_counter() - start < 1


class TestFingerprint:
    def test_builders_leave_it_unset_and_hashing_caches_it(self):
        env = [None, suc(zero()), [NAT, NAT]]
        built = [
            Compound(NAT, "suc", (zero(),)),
            resolve(suc(suc(X)), store_of((X, zero()))),
            terms.instantiate((NAT, "suc", ((NAT, "suc", (1,)),)), env),
            nat_list([1, 2]),
        ]
        for t in built:
            assert not hasattr(t, "_fp")  # its children may be kept numerals
            hash(t)
            assert hasattr(t, "_fp") and hasattr(t.args[0], "_fp")

    def test_equal_fingerprints_never_accept(self):
        # Built anew, not from the numeral cache, so that every node can
        # be given one fingerprint, as if all of them collided.
        nodes = [Compound(NAT, "zero", ())]
        for _ in range(6):
            nodes.append(Compound(NAT, "suc", (nodes[-1],)))
        for t in nodes:
            t._fp = 0
        assert hash(nodes[6]) == hash(nodes[5])
        assert nodes[6] != nodes[5] and unify(nodes[6], nodes[5], EMPTY_STORE) is None
        # The head match: the child nodes[5] against a slot that holds nodes[4].
        env = [nodes[6], nodes[4], [NAT, NAT]]
        assert unify(0, (NAT, "suc", (1,)), EMPTY_STORE, env) is None


class _CountingDict(dict):
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


class _CountingStore(BindingStore):
    """Counts the lookups made in its dict, which the walks read directly."""

    def __init__(self, bindings):
        super().__init__(_CountingDict(bindings))

    @property
    def lookups(self):
        return self._bindings.lookups


class TestSharedBindings:
    """v0 = node(v1, v1), v1 = node(v2, v2), ..., vn = leaf: resolving v0
    gives a tree of 2^n leaves, but the store holds only n + 1 bindings."""

    N = 16

    def chain_store(self):
        reg = TypeRegistry()
        tree = reg.declare("tree", [("leaf", []), ("node", ["tree", "tree"])])
        vs = [tree.var(f"v{i}") for i in range(self.N + 1)]
        bindings = {v.vid: tree.make("node", w, w) for v, w in zip(vs, vs[1:])}
        bindings[vs[-1].vid] = tree.make("leaf")
        return tree, vs[0], _CountingStore(bindings)

    def test_occurs_in_enters_each_binding_once(self):
        tree, v0, store = self.chain_store()
        assert not occurs_in(tree.var("fresh").vid, v0, store)
        assert store.lookups <= 2 * self.N + 1

    def test_resolve_rebuilds_each_binding_once(self):
        tree, v0, store = self.chain_store()
        r = resolve(v0, store)
        for _ in range(self.N):
            assert r.ctor == "node" and r.args[0] is r.args[1]
            r = r.args[0]
        assert r == tree.make("leaf")

    def test_is_ground_term_enters_each_binding_once(self):
        _, v0, store = self.chain_store()
        assert is_ground_term(v0, store)
        assert store.lookups <= 2 * self.N + 1


class TestBindingStore:
    def test_rebinding_forbidden(self):
        s = store_of((X, zero()))
        with pytest.raises(LogicError):
            s.bind(X.vid, nat(1))

    def test_extension_leaves_original_untouched(self):
        s1 = store_of((X, zero()))
        s2 = s1.bind(Y.vid, nat(1))
        assert len(s1) == 1 and len(s2) == 2
        assert Y.vid not in s1

    def test_type_partition(self):
        # Same name at different logical types: distinct variables.
        xs = NAT_LIST.var("x")
        s = store_of((X, nat(1)))
        assert xs.vid != X.vid
        assert walk(xs, s) == xs
        s2 = s.bind(xs.vid, nil(NAT_LIST))
        assert walk(X, s2) == nat(1)
        assert walk(xs, s2) == nil(NAT_LIST)

    def test_bind_checks_type(self):
        with pytest.raises(TypeMismatchError):
            EMPTY_STORE.bind(X.vid, nil(NAT_LIST))


class TestVarNames:
    def test_reserved_prefix_rejected(self):
        with pytest.raises(ValueError):
            NAT.var("_hidden")
        with pytest.raises(ValueError):
            NAT.var("")

    def test_identity_is_name_and_type(self):
        assert NAT.var("a").vid == NAT.var("a").vid
        assert NAT.var("a").vid != NAT.var("b").vid
        assert NAT.var("a").vid != NAT_LIST.var("a").vid
