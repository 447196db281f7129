"""Growth guards: queries at sizes where a cost that grows faster than
the work (a store copied at every bind, answers projected from the
whole store, a quadratic parser, a term walked path by path, ground
terms compared down to where they differ) takes far longer than the
bound.  Each check times its whole body, building its input included,
against a 10 s bound; on a 2-core host they take 0.001-1.4 s.  That
bound is checked once the work returns, so each check also has a hard
deadline of three times the bound, at which a timer signal fails it: a
cost gone exponential fails the check instead of hanging the run."""

import functools
import operator
import signal
import time

import pytest

from typelog.derive import TypeRegistry
from typelog.goals import eq, predicate
from typelog.prelude import NAT, member, nat, nat_list, not_member
from typelog.repl import run_script_text
from typelog.solve import find_all, holds, solve
from typelog.terms import EMPTY_STORE, unify

BOUND_S = 10
DEADLINE_S = 3 * BOUND_S


@pytest.fixture(autouse=True)
def deadline():
    """Fail the check running when DEADLINE_S has passed, from a SIGALRM
    handler, and put the previous handler back afterwards."""
    def expire(signum, frame):
        pytest.fail(f"still running after the {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_deep_answers_in_a_script():
    # remainder runs nested compiled predicates: plus, and lt through
    # leq.  leq and lt match their patterns against 20000-deep ground
    # numerals.
    start = time.perf_counter()
    ones, twos = "1, " * 2999, "2, " * 2999
    script = (f"plus(20000, X, 40000).\nlistPlusOne([{ones}1], M).\n"
              "remainder(20000, 7, R).\nleq(20000, 20001).\nlt(20001, 20000).\n")
    result = run_script_text(script)
    seconds = time.perf_counter() - start
    assert result == (0, f"X = 20000.\nM = [{twos}2].\nR = 1.\ntrue.\nfalse.\n")
    assert seconds < BOUND_S


def test_many_query_variables():
    # Query variables kept in a list made parsing quadratic: 12 s at 8000.
    start = time.perf_counter()
    script = "isHead([" + ", ".join(f"A{i}" for i in range(20000)) + "], 0).\n"
    result = run_script_text(script)
    seconds = time.perf_counter() - start
    assert result == (0, "A0 = 0.\n")
    assert seconds < BOUND_S


def test_many_answers():
    # Projecting each answer from the whole store took over 30 s.
    start = time.perf_counter()
    xs = [i % 10 for i in range(20000)]
    assert sum(1 for _ in solve(member("X", xs))) == 20000
    assert len(find_all(NAT.var("X"), member("X", xs))) == 20000
    assert time.perf_counter() - start < BOUND_S


def test_public_unify_of_many_variables():
    # A public store copied at every bind made this take over 20 s.
    start = time.perf_counter()
    n = 100000
    xs = nat_list([NAT.var(f"X{i}") for i in range(n)])
    assert len(unify(xs, nat_list([i % 7 for i in range(n)]), EMPTY_STORE)) == n
    assert time.perf_counter() - start < BOUND_S


def test_body_that_shares_its_subterms():
    # Built path by path, without a memo, the template and the answer of
    # this 40-deep body take over 10 s.
    start = time.perf_counter()
    tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])

    @predicate(lambda x, y: (tree, (x, y)))
    def full(x, y):
        t = x
        for _ in range(40):
            t = tree.make("node", t, t)
        return eq(y, t)

    y = tree.var("y")
    [r] = find_all(y, full(tree.make("leaf"), y))
    for _ in range(40):
        assert r.args[0] is r.args[1]
        r = r.args[0]
    assert r.ctor == "leaf"
    assert time.perf_counter() - start < BOUND_S


# Ground numerals compared down to the layer where they differ made each
# of the next three quadratic: about 20 s at 8000 elements.

def test_member_of_the_last_element():
    start = time.perf_counter()
    n = 8000
    assert holds(member(n - 1, list(range(n))))
    assert time.perf_counter() - start < BOUND_S


def test_not_member_of_a_long_list():
    start = time.perf_counter()
    n = 8000
    assert holds(not_member(n, list(range(n))))
    assert time.perf_counter() - start < BOUND_S


def test_last_fact_of_a_compiled_fact_table():
    start = time.perf_counter()
    n = 8000

    @predicate(lambda x: (NAT, (x,)))
    def fact(x):
        return functools.reduce(operator.or_, [eq(x, nat(i)) for i in range(n)])

    assert holds(fact(nat(n - 1)))
    assert not holds(fact(nat(n)))
    assert time.perf_counter() - start < BOUND_S


def test_unify_of_separately_built_shared_trees():
    # Walked path by path, two equal 40-deep trees take 2**40 steps.
    start = time.perf_counter()
    tree = TypeRegistry().declare("tree", [("leaf", []), ("node", ["tree", "tree"])])

    def full(leaf):
        t = leaf
        for _ in range(40):
            t = tree.make("node", t, t)
        return t

    leaf = tree.make("leaf")
    assert unify(full(leaf), full(leaf), EMPTY_STORE) == EMPTY_STORE
    assert unify(full(leaf), full(tree.make("node", leaf, leaf)), EMPTY_STORE) is None
    assert time.perf_counter() - start < BOUND_S
