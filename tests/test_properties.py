"""Property-based checks of the unification algebra over randomly
generated natural-number and list terms."""

import functools
import operator
from types import FunctionType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    Template,
    Unify,
    eq,
    exists,
    fail_goal,
    is_ground,
    neg,
    predicate,
    scope,
    succeed,
)
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
from typelog.solve import (
    Solution,
    StepBudgetExceeded,
    _search,
    _SearchStore,
    find_all,
    find_all_n,
    holds,
    solve,
    solve_stores,
)
from typelog.terms import (
    EMPTY_STORE,
    BindingStore,
    Compound,
    TypeMismatchError,
    Var,
    VarId,
    _pattern_node,
    _rebuild,
    _same,
    instantiate,
    is_ground_term,
    occurs_in,
    pattern,
    resolve,
    substitute,
    term_type,
    terms_of,
    unify,
    walk,
)

from reference import eager_answers, matches, resolve_in
from reference import unify as reference_unify

NAT_VARS = ("x", "y", "z")
LIST_VARS = ("xs", "ys")
TREE = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])
TREE_VARS = [TREE.var(n) for n in ("a", "b", "c", "d")]


def nat_terms(max_depth=5):
    base = st.sampled_from([NAT.var(n) for n in NAT_VARS] + [zero()])
    return st.recursive(base, lambda sub: sub.map(suc), max_leaves=max_depth)


def list_terms(max_depth=4):
    base = st.sampled_from([NAT_LIST.var(n) for n in LIST_VARS] + [nil(NAT_LIST)])
    return st.recursive(
        base,
        lambda sub: st.tuples(nat_terms(3), sub).map(lambda p: cons(*p)),
        max_leaves=max_depth,
    )


def either_pair():
    return st.one_of(
        st.tuples(nat_terms(), nat_terms()),
        st.tuples(list_terms(), list_terms()),
    )


@settings(max_examples=300)
@given(either_pair())
def test_unification_symmetric_up_to_resolution(pair):
    t1, t2 = pair
    s12 = unify(t1, t2, EMPTY_STORE)
    s21 = unify(t2, t1, EMPTY_STORE)
    assert (s12 is None) == (s21 is None)
    if s12 is not None:
        assert resolve(t1, s12) == resolve(t2, s12)
        assert resolve(t1, s21) == resolve(t2, s21)


@settings(max_examples=300)
@given(either_pair())
def test_success_implies_equal_resolved_forms(pair):
    t1, t2 = pair
    store = unify(t1, t2, EMPTY_STORE)
    if store is not None:
        r = resolve(t1, store)
        # Resolution is idempotent: a resolved term has no bound variables.
        assert resolve(r, store) == r


@settings(max_examples=200)
@given(nat_terms())
def test_term_unifies_with_itself(t):
    assert unify(t, t, EMPTY_STORE) is not None


def two_pairs():
    """A variable and a term, then a pair of terms, all of one type:
    unify the first pair, then the second in the store it produced."""
    def of(ltype, names, terms):
        first = st.tuples(st.sampled_from(names).map(ltype.var), terms)
        return st.tuples(first, st.tuples(terms, terms))
    return st.one_of(of(NAT, NAT_VARS, nat_terms()), of(NAT_LIST, LIST_VARS, list_terms()))


@settings(max_examples=200)
@given(two_pairs())
def test_failure_leaves_store_unusable_but_unchanged(pairs):
    earlier, (t1, t2) = pairs
    store = unify(*earlier, EMPTY_STORE)
    assume(store is not None and len(store) > 0)
    snapshot = BindingStore(dict(store.items()))
    if unify(t1, t2, store) is None:
        assert store == snapshot
        assert len(store) == len(snapshot)


PUBLIC_BINDINGS = st.lists(st.one_of(
    st.tuples(st.sampled_from(NAT_VARS).map(NAT.var), nat_terms(3)),
    st.tuples(st.sampled_from(LIST_VARS).map(NAT_LIST.var), list_terms(3)),
), min_size=1, max_size=4)


@settings(max_examples=300)
@given(either_pair(), PUBLIC_BINDINGS)
def test_public_unify_matches_unify_in_a_search_store(pair, bindings):
    public = EMPTY_STORE
    for v, t in bindings:
        public = unify(v, t, public) or public
    assume(len(public) > 0)
    snapshot = BindingStore(dict(public.items()))
    search = _SearchStore(dict(public.items()))
    t1, t2 = pair
    result = unify(t1, t2, public)
    in_place = unify(t1, t2, search)
    assert (result is None) == (in_place is None)
    if result is not None:
        assert in_place is search and type(result) is BindingStore
        assert list(result.items()) == list(search.items())
    assert public == snapshot
    assert list(public.items()) == list(snapshot.items())


@settings(max_examples=300)
@given(either_pair())
def test_no_bound_variable_occurs_in_its_own_binding(pair):
    t1, t2 = pair
    store = unify(t1, t2, EMPTY_STORE)
    if store is not None:
        for vid in store:
            assert not occurs_in(vid, store.lookup(vid), store)


@settings(max_examples=300)
@given(either_pair())
def test_ground_results_are_variable_free(pair):
    t1, t2 = pair
    store = unify(t1, t2, EMPTY_STORE)
    if store is not None and is_ground_term(t1, store):
        assert is_ground_term(t2, store)
        assert resolve(t1, store) == resolve(t2, store)


@pytest.mark.seeded
@settings(max_examples=300)
@given(either_pair())
def test_unify_matches_the_reference_unifier(pair):
    t1, t2 = pair
    ours = unify(t1, t2, EMPTY_STORE)
    theirs = reference_unify(t1, t2, EMPTY_STORE)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert list(ours.items()) == list(theirs.items())


# Deep terms: numerals of 500-5000, lists of them, and trees up to 16
# deep that share their subterms.  A strategy draws a shape, and the
# test builds each side from its own shape, so equal subterms of the two
# sides are seldom one object; the right side is often the left's shape
# or one near it, so that pairs unify as often as they clash.

def numeral_shapes():
    """``(n, d, v)``: `d` layers of ``suc`` built anew over the kept
    numeral ``nat(n - d)``, or over the variable named `v`."""
    return st.integers(500, 5000).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.none() | st.sampled_from(NAT_VARS)))


@st.composite
def near_numeral_shapes(draw, shape):
    """`shape` again, one of the same value built another way, one of a
    value close by, or any other."""
    n, d, v = shape
    way = draw(st.integers(0, 5))
    if way <= 1:
        return shape
    if way == 2:
        return n, draw(st.integers(0, n)), v
    if way <= 4:
        d = max(0, d + draw(st.integers(-2, 2)))
        return max(d, n + draw(st.integers(-2, 2))), d, v
    return draw(numeral_shapes())


def build_numeral(shape):
    n, d, v = shape
    t = nat(n - d) if v is None else NAT.var(v)
    for _ in range(d):
        t = NAT.make("suc", t)
    return t


@st.composite
def deep_numeral_pairs(draw):
    a = draw(numeral_shapes())
    return "nat", a, draw(near_numeral_shapes(a))


@st.composite
def deep_list_pairs(draw):
    """``(elements, tail)`` shapes: numeral shapes, then nil (None) or
    the list variable of that name."""
    elems = draw(st.lists(numeral_shapes(), min_size=1, max_size=4))
    tail = draw(st.none() | st.sampled_from(LIST_VARS))
    other = [draw(near_numeral_shapes(e)) for e in elems]
    if draw(st.integers(0, 3)) == 0:
        other = other[:draw(st.integers(0, len(other)))]
    other_tail = draw(st.just(tail) | st.none() | st.sampled_from(LIST_VARS))
    return "list", (elems, tail), (other, other_tail)


def build_list(shape):
    elems, tail = shape
    t = nil(NAT_LIST) if tail is None else NAT_LIST.var(tail)
    for e in reversed(elems):
        t = cons(build_numeral(e), t)
    return t


TREE_LEAVES = st.sampled_from(["leaf", "leaf", "a", "b"])


@st.composite
def deep_tree_pairs(draw):
    """``(leaves, edges)``: two leaves, each the leaf or a variable's
    name, then node k is ``node(node i, node j)`` for the k-th
    ``(i, j)`` of `edges`, and the last node is the tree.  Children are
    drawn mostly from the newest nodes, so trees are deep and shared;
    at most 16 nodes are added, so no tree is deeper than 16.  The right
    side may change one leaf or one child."""
    def child(k):
        return max(0, k - 1 - draw(st.integers(0, 3)))

    leaves = [draw(TREE_LEAVES), draw(TREE_LEAVES)]
    edges = [(child(k), child(k)) for k in range(2, 2 + draw(st.integers(1, 16)))]
    other_leaves, other_edges = list(leaves), list(edges)
    way = draw(st.integers(0, 2))
    if way == 1:
        other_leaves[draw(st.integers(0, 1))] = draw(TREE_LEAVES)
    elif way == 2:
        k = draw(st.integers(0, len(edges) - 1))
        other_edges[k] = (draw(st.integers(0, k + 1)), edges[k][1])
    return "tree", (leaves, edges), (other_leaves, other_edges)


def build_tree(shape):
    leaves, edges = shape
    nodes = [TREE.make("leaf") if leaf == "leaf" else TREE.var(leaf) for leaf in leaves]
    for i, j in edges:
        nodes.append(TREE.make("node", nodes[i], nodes[j]))
    return nodes[-1]


DEEP_BUILDERS = {"nat": build_numeral, "list": build_list, "tree": build_tree}


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(st.one_of(deep_numeral_pairs(), deep_list_pairs(), deep_tree_pairs()))
def test_unify_matches_the_reference_unifier_on_deep_terms(case):
    # Correctness must not rest on distinct fingerprints: a `unify` that
    # took equal fingerprints for equality fails here once they collide.
    kind, left, right = case
    build = DEEP_BUILDERS[kind]
    a, b = build(left), build(right)
    ours = unify(a, b, EMPTY_STORE)
    theirs = reference_unify(a, b, EMPTY_STORE)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        for t in (a, b):
            r1, r2 = resolve_in(t, ours), resolve_in(t, theirs)
            assert matches(r1, r2) and matches(r2, r1)


NAT_SLOT_TERMS, LIST_SLOT_TERMS = nat_terms(3), list_terms(2)


def nat_patterns(slots):
    return st.recursive(
        st.one_of(st.sampled_from(slots), nat_terms(2)),
        lambda sub: sub.map(lambda p: (NAT, "suc", (p,))),
        max_leaves=4,
    )


def list_patterns(nat_slots, slots):
    return st.recursive(
        st.one_of(st.sampled_from(slots), LIST_SLOT_TERMS),
        lambda sub: st.tuples(nat_patterns(nat_slots), sub).map(lambda ps: (NAT_LIST, "cons", ps)),
        max_leaves=4,
    )


# Right sides read slots 0-3, which hold terms; left sides may also read
# slots 4 (nat) and 5 (list), which hold the numbers of their `exists`.
NAT_PATTERNS, LIST_PATTERNS = nat_patterns([0, 1]), list_patterns([0, 1], [2, 3])
NAT_LEFT, LIST_LEFT = nat_patterns([0, 1, 4]), list_patterns([0, 1, 4], [2, 3, 5])
PREBOUND = st.lists(st.one_of(
    st.tuples(st.sampled_from(NAT_VARS).map(NAT.var), nat_terms(2)),
    st.tuples(st.sampled_from(LIST_VARS).map(NAT_LIST.var), LIST_SLOT_TERMS),
), max_size=3)


@st.composite
def pattern_cases(draw):
    """(a, b, env, prebound): `b` a slot, a pattern or a term of `a`'s
    type over `env`, whose slots 0-1 hold nat terms, 2-3 list terms, and
    4-5 the numbers 40 and 50 of a nat and a list `exists`.  `a` is a
    term, a slot or a pattern; `b` reads only slots 0-3.  Patterns nest
    and repeat slots, and their leaves may be terms.  `prebound` pairs
    are unified first, so slots can hold bound chains; `a` may be a
    slot's term, so `b` can contain the variable `a` binds."""
    env = [draw(NAT_SLOT_TERMS), draw(NAT_SLOT_TERMS),
           draw(LIST_SLOT_TERMS), draw(LIST_SLOT_TERMS),
           40, 50, [NAT, NAT, NAT_LIST, NAT_LIST, NAT, NAT_LIST]]
    own_slot = draw(st.booleans())
    if draw(st.booleans()):
        a = draw(st.one_of(st.sampled_from(env[:2]) if own_slot else NAT_SLOT_TERMS,
                           st.sampled_from([0, 1, 4]), NAT_LEFT))
        b = draw(NAT_PATTERNS)
    else:
        a = draw(st.one_of(st.sampled_from(env[2:4]) if own_slot else LIST_SLOT_TERMS,
                           st.sampled_from([2, 3, 5]), LIST_LEFT))
        b = draw(LIST_PATTERNS)
    return a, b, env, draw(PREBOUND)


@pytest.mark.seeded
@settings(max_examples=500)
@given(pattern_cases())
def test_pattern_unify_matches_unify_of_the_instantiated_pattern(case):
    a, b, env, prebound = case
    s1, s2 = _SearchStore(), _SearchStore()
    for store in (s1, s2):
        for v, t in prebound:
            unify(v, t, store)
    read = list(env)  # the left side is read first, as `unify` reads it
    [left, right] = terms_of((a, b), read)
    r1 = unify(a, b, s1, env)
    r2 = unify(left, right, s2)
    assert (r1 is None) == (r2 is None)
    assert list(s1) == list(s2)
    for vid in s1:
        assert s1.lookup(vid) == s2.lookup(vid)
    assert env == read


# Right sides that also read slots 4 and 5, as often as the others
# together, so that they take.  Most are a compound at the top, as a
# clause head is, with a slot as a child more often than deeper down,
# and the slots they meet hold compounds more often.
NAT_TAKING = nat_patterns([4, 0, 4, 1])
LIST_TAKING = list_patterns([4, 0, 4, 1], [5, 2, 5, 3])
NAT_HELD = st.one_of(NAT_SLOT_TERMS, NAT_SLOT_TERMS.map(suc))
LIST_HELD = st.one_of(LIST_SLOT_TERMS, st.tuples(NAT_HELD, LIST_SLOT_TERMS).map(lambda p: cons(*p)))
NAT_CHILDREN = st.one_of(st.sampled_from([4, 0, 4, 1]), NAT_TAKING)
NAT_HEADS = st.one_of(NAT_TAKING, NAT_CHILDREN.map(lambda p: (NAT, "suc", (p,))))
LIST_HEADS = st.one_of(LIST_TAKING, st.tuples(
    NAT_CHILDREN, st.one_of(st.sampled_from([5, 2, 5, 3]), LIST_TAKING),
).map(lambda ps: (NAT_LIST, "cons", ps)))


def slots_read(p):
    """The slot indexes a pattern reads."""
    if type(p) is int:
        return {p}
    if type(p) is tuple:
        return set().union(*map(slots_read, p[2]))
    return set()


@st.composite
def taking_cases(draw):
    """(a, b, env, prebound, fence), as `pattern_cases` draws them, but
    slots 0-3 hold compounds more often, `b` may read slots 4 and 5,
    which still hold their numbers 40 and 50, and `a` is one of slots
    0-3 half of the time, to reach the head match; `a` reads slots 4 and
    5 only through a left pattern.  `fence` is None for a public store,
    or else a search store's fence, below, at, between or above those
    numbers."""
    env = [draw(NAT_HELD), draw(NAT_HELD), draw(LIST_HELD), draw(LIST_HELD),
           40, 50, [NAT, NAT, NAT_LIST, NAT_LIST, NAT, NAT_LIST]]
    slot = draw(st.booleans())
    if draw(st.booleans()):
        a = draw(st.sampled_from([0, 1]) if slot else st.one_of(NAT_SLOT_TERMS, NAT_LEFT))
        b = draw(NAT_HEADS)
    else:
        a = draw(st.sampled_from([2, 3]) if slot else st.one_of(LIST_SLOT_TERMS, LIST_LEFT))
        b = draw(LIST_HEADS)
    fence = draw(st.sampled_from([None, 0, 40, 41, 50, 51]))
    return a, b, env, draw(PREBOUND), fence


@pytest.mark.seeded
@settings(max_examples=500)
@given(taking_cases())
def test_takes_match_unify_with_the_fresh_variables_made_first(case):
    # The contract in `unify`'s docstring: a take binds nothing, and
    # every other binding is that made when each fresh slot the right
    # side reads holds its `_n` variable beforehand.
    a, b, env, prebound, fence = case
    numbers = {k: env[k] for k in slots_read(b) if type(env[k]) is int}
    made = list(env)
    for k, n in numbers.items():
        made[k] = Var(VarId(f"_{n}", env[-1][k]))
    own = {made[k].vid for k in numbers}

    def store():
        s = EMPTY_STORE if fence is None else _SearchStore()
        for v, t in prebound:
            s = unify(v, t, s) or s
        if fence is not None:
            s.fence = fence
        return s
    s1 = unify(a, b, store(), env)
    s2 = unify(a, b, store(), made)
    assert (s1 is None) == (s2 is None)
    if s1 is None:
        return
    for vid in (set(s1) | set(s2)) - own:
        assert resolve(Var(vid), s1) == resolve(Var(vid), s2)
    for k, n in numbers.items():
        if type(env[k]) is Var:
            assert env[k] == made[k]
        else:  # taken
            assert type(env[k]) is Compound and made[k].vid not in s1
            assert fence is None or n >= fence
            assert resolve(env[k], s1) == resolve(made[k], s2)


@st.composite
def shared_trees(draw, leaves):
    """A tree grown bottom-up from `leaves`: each new node takes two
    earlier nodes, so any subterm may be shared by many parents."""
    nodes = list(leaves)
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, len(nodes) - 1))
        j = draw(st.integers(0, len(nodes) - 1))
        nodes.append(TREE.make("node", nodes[i], nodes[j]))
    return nodes[draw(st.integers(0, len(nodes) - 1))]


@settings(max_examples=300)
@given(shared_trees(TREE_VARS + [TREE.make("leaf")]),
       st.lists(st.sampled_from(TREE_VARS), unique=True),
       st.lists(shared_trees([TREE.var("e"), TREE.make("leaf")]), min_size=4, max_size=4))
def test_instantiate_inverts_pattern(t, slot_vars, env):
    slots = {v.vid: k for k, v in enumerate(slot_vars)}
    p = pattern(t, lambda v: slots.get(v.vid, v))
    built = instantiate(p, env) if type(p) is tuple else env[p] if type(p) is int else p
    assert built == _rebuild(t, EMPTY_STORE, lambda v: env[slots[v.vid]] if v.vid in slots else v)


# The recursive definitions the term layer used before groundness was
# cached and the occurs check walked the store; kept as the oracle.

def is_ground_syntactic(t):
    if isinstance(t, Var):
        return False
    return all(is_ground_syntactic(child) for child in t.args)


def assert_ground_flags(t):
    """Every compound of `t` has ``ground == is_ground_syntactic(node)``,
    by the same recursion, entering each distinct node once."""
    memo = {}

    def ground(t):
        if isinstance(t, Var):
            return False
        if id(t) not in memo:
            memo[id(t)] = all([ground(child) for child in t.args])
            assert t.ground == memo[id(t)]
        return memo[id(t)]

    ground(t)


def occurs_syntactic(vid, t):
    if isinstance(t, Var):
        return t.vid == vid
    return any(occurs_syntactic(vid, child) for child in t.args)


def subterms(t):
    yield t
    if not isinstance(t, Var):
        for child in t.args:
            yield from subterms(child)


def unified_cases(pair):
    """(terms, store) for the pair and the store `unify` gives it; the
    terms are the pair, every bound value and their resolved forms."""
    t1, t2 = pair
    store = unify(t1, t2, EMPTY_STORE)
    if store is None:
        store = EMPTY_STORE
    terms = [t1, t2] + [store.lookup(vid) for vid in store]
    return terms + [resolve(t, store) for t in terms], store


@settings(max_examples=300)
@given(either_pair())
def test_ground_flag_matches_recursive_definition(pair):
    terms, _ = unified_cases(pair)
    for t in terms:
        for sub in subterms(t):
            if not isinstance(sub, Var):
                assert sub.ground == is_ground_syntactic(sub)


@settings(max_examples=300)
@given(either_pair())
def test_occurs_in_matches_occurs_in_resolved_term(pair):
    terms, store = unified_cases(pair)
    vids = {sub.vid for t in terms for sub in subterms(t) if isinstance(sub, Var)}
    vids |= {NAT.var("fresh").vid, NAT_LIST.var("fresh").vid}
    for t in terms:
        for vid in vids:
            assert occurs_in(vid, t, store) == occurs_syntactic(vid, resolve(t, store))


@settings(max_examples=300)
@given(either_pair())
def test_is_ground_term_matches_groundness_of_resolved_term(pair):
    terms, store = unified_cases(pair)
    for t in terms:
        for sub in subterms(t):
            assert is_ground_term(sub, store) == is_ground_syntactic(resolve(sub, store))


# The recursive `resolve` the term layer had before it rebuilt terms over
# an explicit stack; kept as the oracle.

def resolve_recursive(t, store):
    t = walk(t, store)
    if isinstance(t, Var):
        return t
    return Compound(t.ltype, t.ctor, tuple(resolve_recursive(a, store) for a in t.args))


# The recursive structural equality of the frozen-dataclass terms, kept
# as the oracle for the iterative `Compound.__eq__` and `__hash__`.

def equal_syntactic(a, b):
    if isinstance(a, Var) or isinstance(b, Var):
        return isinstance(a, Var) and isinstance(b, Var) and a.vid == b.vid
    return (a.ltype is b.ltype and a.ctor == b.ctor and len(a.args) == len(b.args)
            and all(map(equal_syntactic, a.args, b.args)))


def rebuilt(t):
    """A copy of `t` that shares no node with it."""
    if isinstance(t, Var):
        return Var(VarId(t.vid.name, t.vid.ltype))
    return Compound(t.ltype, t.ctor, tuple(rebuilt(a) for a in t.args))


# Two constructors of each arity, so terms can differ in constructor alone.
_SHADES = TypeRegistry()
SHADE = _SHADES.declare("shade", [("red", []), ("blue", []), ("light", ["shade"]),
                                  ("dark", ["shade"]), ("mix", ["shade", "shade"]),
                                  ("layer", ["shade", "shade"])])


def shade_terms():
    base = st.sampled_from([SHADE.var("s"), SHADE.var("t"), SHADE.make("red"), SHADE.make("blue")])
    return st.recursive(base, lambda sub: st.one_of(
        st.tuples(st.sampled_from(["light", "dark"]), sub).map(lambda p: SHADE.make(*p)),
        st.tuples(st.sampled_from(["mix", "layer"]), sub, sub).map(lambda p: SHADE.make(*p)),
    ), max_leaves=4)


@settings(max_examples=300)
@given(st.one_of(either_pair(), st.tuples(nat_terms(3), nat_terms(3)),
                 st.tuples(shade_terms(), shade_terms())))
def test_equality_and_hash_match_recursive_definition(pair):
    t1, t2 = pair
    for a, b in [(t1, t2), (t2, t1), (t1, rebuilt(t1)), (rebuilt(t2), t2)]:
        assert (a == b) == equal_syntactic(a, b)
        assert (a != b) == (not equal_syntactic(a, b))
        if a == b:
            assert hash(a) == hash(b)


@settings(max_examples=300)
@given(shared_trees(TREE_VARS + [TREE.make("leaf")]), shared_trees(TREE_VARS + [TREE.make("leaf")]))
def test_equality_of_shared_trees_matches_a_path_by_path_comparison(t1, t2):
    for a, b in [(t1, t2), (t1, rebuilt(t1)), (rebuilt(t2), t2)]:
        assert (a == b) == equal_syntactic(a, b)
        if a == b:
            assert hash(a) == hash(b)


@pytest.mark.seeded
@settings(max_examples=300)
@given(st.one_of(either_pair(), st.tuples(shade_terms(), shade_terms())))
def test_resolve_matches_recursive_definition(pair):
    terms, store = unified_cases(pair)
    for t in terms:
        for sub in subterms(t):
            assert equal_syntactic(resolve(sub, store), resolve_recursive(sub, store))


# The contract of `_rebuild`, the one walk behind `resolve`, `substitute`,
# `pattern` and the REPL's renaming, against plain recursion.

def rebuild_recursive(t, store, leaf, make):
    """`_rebuild`'s result by plain recursion that enters each compound
    once (a memo by `id`), and the variables it calls `leaf` on, in order."""
    calls, memo = [], {}

    def go(t):
        t = walk(t, store)
        if isinstance(t, Var):
            calls.append(t.vid)
            return leaf(t)
        if id(t) not in memo:
            kids = tuple(go(a) for a in t.args)
            memo[id(t)] = t if all(map(operator.is_, kids, t.args)) else make(t.ltype, t.ctor, kids)
        return memo[id(t)]

    return go(t), calls


def check_rebuild(t, store, leaf, make):
    """`_rebuild(t, store, leaf, make)` against `rebuild_recursive`: the
    same result and `leaf` calls; an input compound with no bound
    variable and no variable `leaf` changes comes back as itself; a
    compound met at two positions gives one output object; and, with
    `Compound` as `make`, every compound of the result has the `ground`
    flag its definition gives, rebuilt in place or kept."""
    called = []

    def recording(v):
        called.append(v.vid)
        return leaf(v)

    out = _rebuild(t, store, recording, make)
    expected, calls = rebuild_recursive(t, store, leaf, make)
    assert called == calls
    assert out == expected
    if make is Compound:
        assert_ground_flags(out)

    @functools.lru_cache(maxsize=None)
    def kept(t):
        if isinstance(t, Var):
            return t.vid not in store and leaf(t) is t
        return all(map(kept, t.args))

    outputs = {}  # id of each input compound reached -> its output
    pairs = [(t, out)]
    while pairs:
        t, o = pairs.pop()
        t = walk(t, store)
        if isinstance(t, Var):
            continue
        if id(t) in outputs:
            assert outputs[id(t)] is o
            continue
        outputs[id(t)] = o
        if kept(t):
            assert o is t
        else:
            pairs.extend(zip(t.args, o.args if type(o) is Compound else o[2]))
    return out


@st.composite
def rebuild_cases(draw):
    """Terms, a store binding some of their variables, and slots for some
    variables: shared trees with each of some variables bound to a shared
    tree over the variables after it, or shade terms and their unifier."""
    if draw(st.booleans()):
        store = BindingStore()
        for k, v in enumerate(TREE_VARS):
            if draw(st.booleans()):
                store = store.bind(v.vid, draw(shared_trees(TREE_VARS[k + 1:] + [TREE.make("leaf")])))
        t = draw(shared_trees(TREE_VARS + [TREE.make("leaf")]))
        terms, pool = [t] + [store.lookup(vid) for vid in store], TREE_VARS
    else:
        terms, store = unified_cases(draw(st.tuples(shade_terms(), shade_terms())))
        pool = [SHADE.var("s"), SHADE.var("t")]
    slot_vars = draw(st.lists(st.sampled_from(pool), unique=True))
    return terms, store, {v.vid: k for k, v in enumerate(slot_vars)}


LEAF = TREE.make("leaf")
# For each type of `rebuild_cases`, a variable its terms may hold, and a
# ground and a non-ground replacement for it (one that holds it too).
SUBSTITUTIONS = {
    TREE: (TREE_VARS[0], [TREE.make("node", LEAF, LEAF), TREE.make("node", TREE_VARS[0], LEAF)]),
    SHADE: (SHADE.var("s"), [SHADE.make("light", SHADE.make("red")),
                             SHADE.make("mix", SHADE.var("s"), SHADE.var("t"))]),
}


@pytest.mark.seeded
@settings(max_examples=300)
@given(rebuild_cases())
def test_rebuild_keeps_its_contract(case):
    terms, store, slots = case
    slot_of = lambda v: slots.get(v.vid, v)
    # A leaf that returns a term with variables, which must not be entered.
    swap = lambda v: terms[0] if v.vid in slots else v
    var, replacements = SUBSTITUTIONS[term_type(terms[0])]
    for t in terms:
        assert equal_syntactic(check_rebuild(t, store, _same, Compound), resolve_recursive(t, store))
        check_rebuild(t, store, swap, Compound)
        check_rebuild(t, store, slot_of, _pattern_node)
        assert pattern(t, slot_of) == check_rebuild(t, EMPTY_STORE, slot_of, _pattern_node)
        for r in replacements:
            leaf = lambda v: r if v.vid == var.vid else v
            assert substitute(var.vid, r, t) == check_rebuild(t, EMPTY_STORE, leaf, Compound)


# Write mode: `instantiate` and `terms_of` against a plain recursive build
# with the `Compound` constructor.

def instantiate_recursive(p, env):
    """The term a subpattern `p` denotes in `env`, by plain recursion
    with `Compound(...)`: a slot that holds the number n of its `exists`
    stands for the variable ``_n``.  Reads `env` without changing it."""
    if type(p) is int:
        t = env[p]
        return Var(VarId(f"_{t}", env[-1][p])) if type(t) is int else t
    if type(p) is tuple:
        return Compound(p[0], p[1], tuple(instantiate_recursive(s, env) for s in p[2]))
    return p


HELD = st.one_of(
    st.sampled_from(TREE_VARS),
    shared_trees([LEAF]),  # ground
    st.tuples(shared_trees(TREE_VARS + [LEAF]), st.sampled_from(TREE_VARS)).map(
        lambda p: TREE.make("node", *p)),  # not ground
)


@st.composite
def instantiate_cases(draw):
    """(p, operands, env): a tree pattern `p` and a tuple of operands
    over `env`, whose four slots each hold the number of an `exists`, a
    variable, a ground compound or a non-ground compound.  Patterns grow
    bottom-up from the slots and from terms, so any subpattern may be
    shared by several parents; `operands` are drawn from the same nodes."""
    env = [draw(st.one_of(st.just(40 + k), HELD)) for k in range(4)] + [[TREE] * 4]
    nodes = [0, 1, 2, 3] + draw(st.lists(st.one_of(st.just(LEAF), HELD), max_size=3))
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(nodes) - 1))
        j = draw(st.integers(0, len(nodes) - 1))
        nodes.append((TREE, "node", (nodes[i], nodes[j])))
    operands = tuple(draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4)))
    return nodes[-1], operands, env


@pytest.mark.seeded
@settings(max_examples=300)
@given(instantiate_cases())
def test_instantiate_builds_what_the_constructor_builds(case):
    p, operands, env = case
    read = list(env)
    out = instantiate(p, read)
    assert equal_syntactic(out, instantiate_recursive(p, env))
    assert_ground_flags(out)
    # One output object per subpattern object; a slot gives its term,
    # or the variable made for it, which the slot then holds.
    outputs = {}
    pairs = [(p, out)]
    while pairs:
        q, o = pairs.pop()
        if type(q) is int:
            assert o is read[q]
        elif type(q) is not tuple:
            assert o is q
        elif id(q) in outputs:
            assert outputs[id(q)] is o
        else:
            outputs[id(q)] = o
            pairs.extend(zip(q[2], o.args))
    read = list(env)
    got = terms_of(operands, read)
    assert len(got) == len(operands)
    for q, o in zip(operands, got):
        assert equal_syntactic(o, instantiate_recursive(q, env))
        assert_ground_flags(o)


# `make_list` allocates its cells and sets their slots in place: against
# the chain built cell by cell with `Compound(...)`.

NAT_LIST_LIST = list_of(NAT_LIST)
# Ints below and past the kept numerals, variable names, and terms,
# ground or not, for a NAT list; lists of those, names and list terms
# for a list of NAT lists.
MADE_NATS = st.one_of(st.integers(0, 5), st.integers(0, NUMERAL_CACHE_SIZE + 3),
                      st.sampled_from(["A", "B"]), nat_terms(3))
MADE_LISTS = st.one_of(st.lists(st.one_of(st.integers(0, 5), st.just("A")), max_size=3),
                       st.just("L"), list_terms(3))
MADE_TAILS = st.one_of(st.none(), st.just("T"), list_terms(3))


def chain_of(elems, ltype, tail):
    """What ``make_list(elems, ltype, tail)`` should build, one cell at a
    time with `Compound(...)`."""
    out = Compound(ltype, "nil", ()) if tail is None else ltype.var(tail) if type(tail) is str else tail
    for e in reversed(elems):
        if type(e) is int:
            e = nat(e)
        elif type(e) is str:
            e = ltype.element.var(e)
        elif type(e) is list:
            e = chain_of(e, ltype.element, None)
        out = Compound(ltype, "cons", (e, out))
    return out


def cells(t):
    while type(t) is Compound and t.ctor == "cons":
        yield t
        t = t.args[1]


@st.composite
def make_list_cases(draw):
    """(elems, ltype, tail): a NAT list of mixed elements over a NAT list
    tail, or a list of NAT lists over a variable or nil."""
    if draw(st.booleans()):
        return draw(st.lists(MADE_NATS, max_size=6)), NAT_LIST, draw(MADE_TAILS)
    return draw(st.lists(MADE_LISTS, max_size=4)), NAT_LIST_LIST, draw(st.sampled_from([None, "T"]))


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(make_list_cases(), st.none() | st.tuples(st.sampled_from([True, False, -1, -3]), st.integers(0, 6)))
def test_make_list_builds_what_the_constructor_builds(case, bad):
    elems, ltype, tail = case
    if bad is not None and ltype is NAT_LIST:
        # One element no numeral stands for: the error `as_term` raises.
        x, i = bad
        with pytest.raises(TypeMismatchError) as err:
            make_list(elems[:i] + [x] + elems[i:], ltype, tail)
        assert str(err.value) == f"cannot interpret {x!r} as a nat term"
        return
    out = make_list(elems, ltype, tail)
    want = chain_of(elems, ltype, tail)
    assert out == want
    # Each cell's flag by the constructor's rule; the whole term's where
    # its numerals are shallow enough for the recursive oracle.
    for got, made in zip(cells(out), cells(want)):
        assert got.ground is made.ground
    if not any(type(e) is int and e > 500 for e in elems):
        assert_ground_flags(out)
    # A kept numeral is shared, not built again.
    for cell, e in zip(cells(out), elems):
        if type(e) is int and e <= NUMERAL_CACHE_SIZE:
            assert cell.args[0] is nat(e)


# Random goal trees over every connective: the lazy solver must give the
# eager reference interpreter's answers in the same order.  The leaves
# include prelude predicate calls, whose search is finite on these
# arguments (a ground sum, a ground bound, a list of fixed length), and
# the trees are joined into a conjunction of disjunctions, so that most
# goals have several answers.

GOAL_VARS = st.sampled_from([NAT.var(n) for n in "XYZ"])
GOAL_TERMS = st.one_of(GOAL_VARS, st.sampled_from([nat(0), nat(1), nat(2), suc(NAT.var("X"))]))
GROUND_NATS = st.integers(0, 3).map(nat)
SHORT_LISTS = st.lists(GOAL_TERMS, max_size=3).map(nat_list)


def call_leaves():
    return st.one_of(
        st.tuples(GOAL_TERMS, GOAL_TERMS, GROUND_NATS).map(lambda p: plus(*p)),
        st.tuples(GOAL_TERMS, GROUND_NATS).map(lambda p: leq(*p)),
        st.tuples(GROUND_NATS, GOAL_TERMS).map(lambda p: leq(*p)),
        st.tuples(GOAL_TERMS, SHORT_LISTS).map(lambda p: member(*p)),
    )


def goal_trees():
    leaf = st.one_of(
        st.tuples(GOAL_VARS, GOAL_TERMS).map(lambda p: eq(*p)),
        st.sampled_from([succeed(), fail_goal()]),
        GOAL_TERMS.map(is_ground),
        call_leaves(),
    )

    def extend(sub):
        pair = st.tuples(sub, sub)
        return st.one_of(
            pair.map(lambda p: p[0] & p[1]),
            pair.map(lambda p: p[0] | p[1]),
            pair.map(lambda p: p[0] ^ p[1]),
            sub.map(scope),
            sub.map(neg),
            st.tuples(GOAL_TERMS, sub).map(
                lambda p: exists(NAT, lambda v: eq(v, p[0]) & p[1])),
        )
    tree = st.recursive(leaf, extend, max_leaves=12)
    choice = st.lists(tree, min_size=1, max_size=3).map(lambda ts: functools.reduce(operator.or_, ts))
    return st.lists(choice, min_size=1, max_size=2).map(lambda cs: functools.reduce(operator.and_, cs))


def renamed(answers):
    """Answers with engine variables renamed _0, _1, ... in order of first
    appearance, taking the user variables by name.  Predicate calls can
    leave engine variables in answers, and the eager interpreter numbers
    them differently: it also allocates them in branches a cut prunes."""
    out = []
    for answer in answers:
        names = {}

        def rename(t):
            if isinstance(t, Var):
                if t.vid.name.startswith("_"):
                    return Var(VarId(names.setdefault(t.vid, f"_{len(names)}"), t.vid.ltype))
                return t
            return Compound(t.ltype, t.ctor, tuple(rename(a) for a in t.args))
        out.append({name: rename(answer[name]) for name in sorted(answer)})
    return out


@pytest.mark.seeded
@settings(max_examples=1000, deadline=None)
@given(goal_trees())
def test_solver_matches_eager_reference_on_goal_trees(goal):
    lazy = [{vid.name: t for vid, t in s.bindings.items()} for s in solve(goal)]
    assert renamed(lazy) == renamed(eager_answers(goal))


# A compiled predicate call must behave exactly as the goal tree its body
# builds with `exists` closures, the form every predicate had before
# predicates were compiled: same answers in the same order, same
# fresh-variable counter at each answer, same smallest step budget.

def expanded(goal):
    """`goal` with every `Call` replaced by its undecorated body on the
    call's arguments, lazily under each `exists`."""
    t = type(goal)
    if t is Call:
        return expanded(goal.template.body(*goal.args))
    if t is Exists:
        return Exists(goal.ltype, lambda v: expanded(goal.body(v)))
    if t in (Conj, Disj, CutThen):
        return t(expanded(goal.g1), expanded(goal.g2))
    if t is Scope:
        return Scope(expanded(goal.g))
    return goal


def smallest_budget(goal):
    """The least max_steps with which solving `goal` completes."""
    lo, hi = 0, 1
    while not completes(goal, hi):
        assert hi < 1_000_000, "the search does not end"
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if completes(goal, mid) else (mid, hi)
    return hi


def completes(goal, max_steps):
    try:
        list(solve(goal, max_steps=max_steps))
    except StepBudgetExceeded:
        return False
    return True


PRELUDE_NATS = st.one_of(st.integers(0, 4), st.sampled_from(["A", "B"]))
PRELUDE_LISTS = st.lists(st.one_of(st.integers(0, 3), st.just("E")), max_size=4)
GROUND_LISTS = st.lists(st.integers(0, 3), max_size=4)


def prelude_calls():
    """Calls of every prelude predicate on arguments that keep the search
    finite, including function arguments created for each call, compiled
    predicates passed as arguments (specialised templates) and a plain
    function that recurses under `exists`.  The
    comparisons get ground lists: leq(E, E) has infinitely many answers."""
    def sorted_desc(xs):
        return sorted_with(lambda a, b: leq(b, a), xs)

    def map_leq(xs, ys):
        return map_p(lambda a, b: leq(a, b), xs, ys)

    def plain_leq(x, y):  # recurses under exists, uncompiled
        return eq(x, zero()) | exists(NAT, lambda x1: exists(NAT, lambda y1: (
            eq(x, suc(x1)) & eq(y, suc(y1)) & plain_leq(x1, y1))))
    n, xs, k, gs = PRELUDE_NATS, PRELUDE_LISTS, st.integers(0, 4), GROUND_LISTS
    return st.one_of(
        st.tuples(n, n, k).map(lambda p: plus(*p)),
        st.tuples(n, k).map(lambda p: leq(*p)),
        st.tuples(k, n).map(lambda p: lt(*p)),
        st.tuples(n, k).map(lambda p: is_suc(*p)),
        st.tuples(n, xs).map(lambda p: member(*p)),
        st.tuples(n, xs).map(lambda p: not_member(*p)),
        st.tuples(xs, n).map(lambda p: is_head(*p)),
        st.tuples(xs, st.just("T")).map(lambda p: is_tail(*p)),
        xs.map(lambda v: append_list("X", "Y", v)),
        st.tuples(k, st.integers(0, 3), n).map(lambda p: remainder(*p)),
        gs.map(sorted_nat),
        gs.map(sorted_desc),
        xs.map(lambda v: list_plus_one(v, "M")),
        st.tuples(gs, xs).map(lambda p: map_leq(*p)),
        st.tuples(gs, xs).map(lambda p: map_p(leq, *p)),
        gs.map(lambda v: sorted_with(lt, v)),
        gs.map(lambda v: sorted_with(plain_leq, v)),
        st.tuples(gs, xs).map(lambda p: map_p(plain_leq, *p)),
    )


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(prelude_calls())
def test_compiled_calls_match_their_expanded_form(goal):
    plain = expanded(goal)
    assert list(solve(goal)) == list(solve(plain))
    steps = smallest_budget(goal)
    assert completes(plain, steps) and not completes(plain, steps - 1)


# `solve` projects each answer from the part of the trail that changed
# since the previous one.  The projection it had before, a scan of the
# whole store, is kept as the oracle: same answers, same key order.

def project_whole_store(store, counter):
    visible = {}
    for vid in store:
        if not vid.name.startswith("_"):
            visible[vid] = resolve(Var(vid), store)
    return Solution(visible, counter)


PROJECTION_VARS = [NAT.var(n) for n in NAT_VARS] + [NAT_LIST.var(n) for n in LIST_VARS]


def projection_goal_trees():
    """A conjunction of disjunctions of small goal trees over naturals and
    lists, so that most goals have several answers and later answers
    resume below the trail of earlier ones.  The trees use every
    connective.  A list equation binds several variables in one `unify`
    and may clash after binding some; `exists` adds engine variables,
    bound between user-named ones."""
    nat_vars = st.sampled_from([NAT.var(n) for n in NAT_VARS])
    leaf = st.one_of(
        st.tuples(nat_vars, st.one_of(nat_vars, nat_terms(2))).map(lambda p: eq(*p)),
        st.tuples(list_terms(3), list_terms(3)).map(lambda p: eq(*p)),
        st.sampled_from([succeed(), fail_goal()]),
        nat_terms(2).map(is_ground),
    )

    def extend(sub):
        pair = st.tuples(sub, sub)
        return st.one_of(
            pair.map(lambda p: p[0] & p[1]),
            pair.map(lambda p: p[0] | p[1]),
            pair.map(lambda p: p[0] ^ p[1]),
            sub.map(scope),
            sub.map(neg),
            st.tuples(nat_terms(2), sub).map(
                lambda p: exists(NAT, lambda v: eq(suc(v), suc(p[0])) & p[1])),
        )
    tree = st.recursive(leaf, extend, max_leaves=5)
    choice = st.lists(tree, min_size=1, max_size=3).map(lambda ts: functools.reduce(operator.or_, ts))
    return st.lists(choice, min_size=1, max_size=3).map(lambda cs: functools.reduce(operator.and_, cs))


@settings(max_examples=400, deadline=None)
@given(projection_goal_trees())
def test_solve_matches_a_whole_store_projection(goal):
    expected = [project_whole_store(store, counter) for store, counter, _ in _search(goal, None)]
    got = list(solve(goal))
    assert got == expected
    assert [list(s.bindings) for s in got] == [list(s.bindings) for s in expected]


@settings(max_examples=150, deadline=None)
@given(projection_goal_trees())
def test_find_all_and_holds_match_copied_stores(goal):
    stores = list(solve_stores(goal))
    assert holds(goal) == bool(stores)
    for v in PROJECTION_VARS:
        values = [resolve(v, store) for store in stores]
        assert find_all(v, goal) == values
        for n in (0, 1, 2, len(stores) + 1):
            assert find_all_n(v, goal, n) == values[:n]


# Predicate bodies generated around the shapes that decide whether an
# `exists` slot takes what its first use meets or gets its variable (see
# the `terms` module docstring): nested `exists`, conjunctions whose left
# side does or does not push a choicepoint, disjunctions with the slot
# used in either branch or after, cut, scope, calls and groundness
# tests.  Run on ground, partly bound and unbound arguments, the compiled
# body must behave as its expanded form.  A shape is data: in its terms
# ("p", i) is parameter i, ("v", i) the i-th variable in scope counted
# from the innermost, ("z",) zero and ("s", t) the successor of t.  Left
# sides lean to the parameters and right sides to the innermost
# variables, where a slot's first use can take.
LEFT_TERMS = st.sampled_from([("p", 0), ("p", 1), ("s", ("p", 0)), ("v", 1)])
RIGHT_TERMS = st.recursive(
    st.sampled_from([("v", 0), ("v", 0), ("v", 1), ("p", 0), ("p", 1), ("z",)]),
    lambda sub: sub.map(lambda t: ("s", t)),
    max_leaves=3,
)

FIRST_USES = st.tuples(st.just("eq"), LEFT_TERMS, st.sampled_from([("v", 0), ("s", ("v", 0))]))
LEAVES = st.one_of(st.sampled_from([("succeed",), ("succeed",), ("fail",)]), st.tuples(
    st.just("eq"), LEFT_TERMS, st.sampled_from([("z",), ("s", ("z",)), ("p", 1)])))


@st.composite
def body_shapes(draw, depth=0):
    """A goal shape over the variables in scope (indices are taken modulo
    their number when the body is built)."""
    kinds = ["eq", "eq", "eq", "succeed", "fail", "ground", "leq"]
    if depth < 4:
        kinds += ["exists"] * (9 if depth == 0 else 3) + ["and"] * 3 + ["or", "or", "cut", "scope"]
    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        return kind, draw(LEFT_TERMS), draw(RIGHT_TERMS)
    if kind in ("succeed", "fail"):
        return (kind,)
    if kind == "ground":
        return kind, draw(LEFT_TERMS)
    if kind == "leq":
        return kind, draw(LEFT_TERMS), draw(st.integers(0, 2))
    if kind == "exists":
        inner = body_shapes(depth + 1)
        op = st.sampled_from(["and", "or"])
        return kind, draw(st.one_of(
            inner,
            st.tuples(op, inner, st.one_of(FIRST_USES, inner)),
            # A first use after a choicepoint that resumes it:
            st.tuples(st.just("and"), st.tuples(st.just("or"), LEAVES, LEAVES), FIRST_USES),
            # A first use in a right branch, the slot maybe used after it:
            st.tuples(st.just("and"), st.tuples(st.just("or"), inner, FIRST_USES), inner),
        ))
    if kind == "scope":
        return kind, draw(body_shapes(depth + 1))
    return kind, draw(body_shapes(depth + 1)), draw(body_shapes(depth + 1))


def shape_term(t, vs):
    if t[0] == "p":
        return vs[t[1]]
    if t[0] == "v":
        return vs[-1 - t[1] % len(vs)]
    if t[0] == "z":
        return zero()
    return suc(shape_term(t[1], vs))


def shape_goal(shape, vs):
    kind = shape[0]
    if kind == "eq":
        return eq(shape_term(shape[1], vs), shape_term(shape[2], vs))
    if kind == "succeed":
        return succeed()
    if kind == "fail":
        return fail_goal()
    if kind == "ground":
        return is_ground(shape_term(shape[1], vs))
    if kind == "leq":
        return leq(shape_term(shape[1], vs), shape[2])
    if kind == "scope":
        return scope(shape_goal(shape[1], vs))
    if kind == "exists":
        body = lambda v: shape_goal(shape[1], vs + [v])  # noqa: E731
        # A code object of its own: nested closures of one code would be
        # taken for a plain function recursing under `exists`, and the
        # body would not be compiled.
        return exists(NAT, FunctionType(body.__code__.replace(), globals(), None, None,
                                        body.__closure__))
    g1, g2 = shape_goal(shape[1], vs), shape_goal(shape[2], vs)
    return {"and": operator.and_, "or": operator.or_, "cut": operator.xor}[kind](g1, g2)


SHAPE_ARGS = st.sampled_from([0, 1, 2, "A", "B", "B", suc(NAT.var("A"))])


@pytest.mark.seeded
@settings(max_examples=400, deadline=None)
@given(body_shapes(), SHAPE_ARGS, SHAPE_ARGS)
def test_generated_bodies_match_their_expanded_form(shape, x, y):
    body = predicate(nats)(lambda x, y: shape_goal(shape, [x, y]))
    goal = body(x, y)
    assert goal.template.root is not None
    plain = expanded(goal)
    assert list(solve(goal)) == list(solve(plain))
    steps = smallest_budget(goal)
    assert completes(plain, steps) and not completes(plain, steps - 1)
    for v in (NAT.var("A"), NAT.var("B")):
        assert ([resolve(v, s) for s in solve_stores(goal)]
                == [resolve(v, s) for s in solve_stores(plain)])


# A template `Disj` whose left branch must clash at its first unification
# is skipped with the steps and counter values that branch would cost (see
# `goals.Disj`).  The same template with no index pushes a choicepoint at
# every `Disj` and runs each dead branch to its clash: it must give the
# same answers, counters and raw stores, and run out of budget at the same
# point, under every budget.

def unindexed(goal):
    """`goal` with each compiled template it reaches replaced by a copy
    whose `Disj` nodes have no index."""
    copies = {}

    def template(t):
        if t not in copies:
            c = copies[t] = Template(t.body)
            c.pad = t.pad
            c.root = None if t.root is None else node(t.root)
        return copies[t]

    def node(n):
        t = type(n)
        if t in (Conj, Disj, CutThen):
            return t(node(n.g1), node(n.g2))
        if t is Scope:
            return Scope(node(n.g))
        if t is Exists and n.slot is not None:
            return Exists(n.ltype, node(n.body), n.slot)
        if t is Call and type(n.template) is Template:
            return Call(template(n.template), n.args)
        return n
    return node(goal)


def outcome(goal, max_steps):
    """The answers found within `max_steps`, and whether the search ended."""
    found = []
    try:
        found.extend(solve(goal, max_steps=max_steps))
    except StepBudgetExceeded:
        return found, False
    return found, True


# Left branches that open, maybe under `exists`, with an equation of a
# variable and a constructor, as the prelude's cases do.  A left side
# ("v", 0) under `exists` is the slot that `exists` introduced.
GUARDS = st.tuples(
    st.just("eq"), st.sampled_from([("p", 0), ("p", 1), ("v", 0), ("v", 1)]),
    st.sampled_from([("z",), ("s", ("z",)), ("s", ("v", 0)), ("s", ("p", 1))]))


@st.composite
def guarded_shapes(draw):
    left = ("and", draw(GUARDS), draw(body_shapes(2)))
    if draw(st.booleans()):
        left = ("exists", left)
    shape = ("or", left, draw(st.one_of(body_shapes(2), guarded_shapes())))
    return ("exists", shape) if draw(st.booleans()) else shape


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(st.one_of(body_shapes(), guarded_shapes(), guarded_shapes()), SHAPE_ARGS, SHAPE_ARGS)
def test_indexed_bodies_match_their_unindexed_form(shape, x, y):
    goal = predicate(nats)(lambda x, y: shape_goal(shape, [x, y]))(x, y)
    plain = unindexed(goal)
    assert list(solve_stores(goal)) == list(solve_stores(plain))
    for steps in range(1, smallest_budget(plain) + 1):
        assert outcome(goal, steps) == outcome(plain, steps)


# Goal nodes are values: a tree built again node by node, over the same
# terms, patterns, functions and templates, is equal to the original,
# with the same hash and repr, and a `Disj`'s index is not part of its
# value.  Checked on random goal trees and on compiled template roots.

def copied(goal):
    """A structural copy of `goal`: each goal node built again."""
    t = type(goal)
    if t is Disj:
        return Disj(copied(goal.g1), copied(goal.g2), goal.index)
    if t in (Conj, CutThen):
        return t(copied(goal.g1), copied(goal.g2))
    if t is Scope:
        return Scope(copied(goal.g))
    if t is Exists:
        body = goal.body if goal.slot is None else copied(goal.body)
        return Exists(goal.ltype, body, goal.slot)
    if t is Unify:
        return Unify(goal.left, goal.right)
    if t is IsGround:
        return IsGround(goal.term)
    if t is Call:
        return Call(goal.template, tuple([*goal.args]))
    assert t in (Succeed, Fail)
    return t()


def disjunctions(goal):
    """The `Disj` nodes of `goal`, not entering closures or templates."""
    found, todo = [], [goal]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is Disj:
            found.append(n)
        if t in (Conj, Disj, CutThen):
            todo += (n.g1, n.g2)
        elif t is Scope:
            todo.append(n.g)
        elif t is Exists and n.slot is not None:
            todo.append(n.body)
    return found


def template_root(call):
    """The compiled root of a prelude call's template, or the call itself
    when its body could not be compiled."""
    return call.template.root if call.template.root is not None else call


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(st.one_of(goal_trees(), prelude_calls().map(template_root)), st.integers(0, 20))
def test_goal_nodes_are_values(goal, which):
    copy = copied(goal)
    assert copy is not goal
    assert copy == goal and hash(copy) == hash(goal) and repr(copy) == repr(goal)
    found = disjunctions(copy)
    if found:
        d = found[which % len(found)]
        d.index = (-1, "other", 1, 0) if d.index is None else None
        assert copy == goal and hash(copy) == hash(goal) and repr(copy) == repr(goal)
