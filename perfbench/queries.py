"""Seeded query generation for the three workloads.

Everything here is plain Python data: no module of the program under test
is imported, so the queries a run sends depend only on the workload name
and the seed.  A workload is an endless sequence of rounds; each round is
a complete, shuffled mix of the workload's query kinds and sizes, so a run
that stops after any whole number of rounds has measured the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

# enumerate: every kind once in each of SIZE_STRATA equal slices of the
# size range, at a random size within the slice, so that sizes cover the
# range evenly in every round.  The largest size stays well below the
# depth at which the solver's nested generators hit Python's recursion
# limit (about 100 for listPlusOne, also under tracing, which adds frames).
ENUMERATE_SIZES = (20, 80)
SIZE_STRATA = 20
ENUMERATE_KINDS = ("append", "member", "plus_split", "plus_double", "list_plus_one")
# Peano list elements are drawn from 0..ELEMENT_MAX, so a list of n
# elements is a term of about n * ELEMENT_MAX / 2 nodes.
ELEMENT_MAX = 20

# check: small ground yes/no queries, about half of them false.
CHECK_KINDS = ("plus", "lt", "leq", "remainder", "sorted", "not_member", "list_plus_one")
CHECK_PER_KIND = 4
CHECK_NUM_MAX = 25
CHECK_LIST_MAX = 12

# script: one REPL session per round, one query of each kind.
SCRIPT_KINDS = ("append", "member", "plus_split", "plus_solve", "list_plus_one",
                "sorted", "not_member", "remainder", "leq")
SCRIPT_LIST_SIZES = (8, 25)
SCRIPT_NUM_SIZES = (20, 60)
SCRIPT_MAX_MORE = 3

WORKLOADS = ("enumerate", "check", "script")


@dataclass(frozen=True)
class Query:
    """One query: a kind name plus Python ints and tuples of ints.

    `more` is used by the script workload only: how many further answers
    the REPL user asks for with ';' after the first one.
    """

    kind: str
    args: tuple
    more: int = 0


def rounds(workload: str, seed: int) -> Iterator[List[Query]]:
    """The workload's rounds for this seed, endlessly; deterministic."""
    make = {"enumerate": _enumerate_round, "check": _check_round,
            "script": _script_round}[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


def first_rounds(workload: str, seed: int, count: int) -> List[List[Query]]:
    stream = rounds(workload, seed)
    return [next(stream) for _ in range(count)]


def _nat_list(rng: random.Random, n: int, hi: int) -> tuple:
    return tuple(rng.randint(0, hi) for _ in range(n))


def _enumerate_round(rng: random.Random) -> List[Query]:
    lo, hi = ENUMERATE_SIZES
    out = []
    for stratum in range(SIZE_STRATA):
        for kind in ENUMERATE_KINDS:
            n = lo + int((hi - lo) * (stratum + rng.random()) / SIZE_STRATA)
            if kind in ("plus_split", "plus_double"):
                out.append(Query(kind, (n,)))
            else:
                out.append(Query(kind, (_nat_list(rng, n, ELEMENT_MAX),)))
    rng.shuffle(out)
    return out


def _check_round(rng: random.Random) -> List[Query]:
    out = []
    for kind in CHECK_KINDS:
        for _ in range(CHECK_PER_KIND):
            out.append(_check_query(rng, kind, rng.random() < 0.5))
    rng.shuffle(out)
    return out


def _check_query(rng: random.Random, kind: str, true: bool) -> Query:
    """A ground query of `kind` meant to hold iff `true`.  The oracle
    decides independently whether it holds."""
    hi = CHECK_NUM_MAX
    if kind == "plus":
        a, b = rng.randint(0, hi // 2), rng.randint(0, hi // 2)
        c = a + b if true else max(0, a + b + rng.choice((-2, -1, 1, 2)))
        return Query(kind, (a, b, c))
    if kind in ("lt", "leq"):
        a, b = sorted((rng.randint(0, hi), rng.randint(0, hi)))
        if kind == "lt" and a == b:
            b += 1
        return Query(kind, (a, b) if true else (b, a))
    if kind == "remainder":
        n = rng.randint(0, hi)
        q = 0 if rng.random() < 0.1 else rng.randint(1, 6)
        r = n % q if q and true else rng.randint(0, 5)
        return Query(kind, (n, q, r))
    length = rng.randint(2, CHECK_LIST_MAX)
    xs = list(_nat_list(rng, length, hi))
    if kind == "sorted":
        xs.sort()
        if not true:
            i = rng.randrange(length - 1)
            xs[i], xs[i + 1] = xs[i + 1] + 1, xs[i]
        return Query(kind, (tuple(xs),))
    if kind == "not_member":
        x = rng.choice(xs) if not true else rng.randint(0, hi)
        return Query(kind, (x, tuple(xs)))
    if kind == "list_plus_one":
        ys = [x + 1 for x in xs]
        if not true:
            if rng.random() < 0.5:
                ys.pop()
            else:
                ys[rng.randrange(length)] -= 1
        return Query(kind, (tuple(xs), tuple(ys)))
    raise ValueError(f"unknown check kind {kind!r}")


def _script_round(rng: random.Random) -> List[Query]:
    out = [_script_query(rng, kind) for kind in SCRIPT_KINDS]
    rng.shuffle(out)
    return out


def _script_query(rng: random.Random, kind: str) -> Query:
    n_lo, n_hi = SCRIPT_NUM_SIZES
    length = rng.randint(*SCRIPT_LIST_SIZES)
    more = rng.randint(0, SCRIPT_MAX_MORE)
    if kind in ("append", "member", "list_plus_one", "sorted"):
        xs = _nat_list(rng, length, ELEMENT_MAX)
        if kind == "sorted" and rng.random() < 0.5:
            xs = tuple(sorted(xs))
        return Query(kind, (xs,), more)
    if kind == "plus_split":
        return Query(kind, (rng.randint(n_lo, n_hi),), more)
    if kind == "plus_solve":
        c = rng.randint(n_lo, n_hi)
        return Query(kind, (rng.randint(0, c), c))
    if kind == "not_member":
        xs = _nat_list(rng, length, ELEMENT_MAX)
        x = rng.choice(xs) if rng.random() < 0.5 else rng.randint(0, ELEMENT_MAX)
        return Query(kind, (x, xs))
    if kind == "remainder":
        return Query(kind, (rng.randint(n_lo, n_hi), rng.randint(1, 9)))
    if kind == "leq":
        return Query(kind, (rng.randint(n_lo, n_hi), rng.randint(n_lo, n_hi)))
    raise ValueError(f"unknown script kind {kind!r}")


def _list_text(xs) -> str:
    return "[" + ", ".join(map(str, xs)) + "]"


def repl_line(q: Query) -> str:
    """The query as a REPL user types it."""
    a = q.args
    if q.kind == "append":
        return f"append(X, Y, {_list_text(a[0])})."
    if q.kind == "member":
        return f"member(X, {_list_text(a[0])})."
    if q.kind == "plus_split":
        return f"plus(A, B, {a[0]})."
    if q.kind == "plus_solve":
        return f"plus({a[0]}, X, {a[1]})."
    if q.kind == "list_plus_one":
        return f"listPlusOne({_list_text(a[0])}, M)."
    if q.kind == "sorted":
        return f"sorted({_list_text(a[0])})."
    if q.kind == "not_member":
        return f"notMember({a[0]}, {_list_text(a[1])})."
    if q.kind == "remainder":
        return f"remainder({a[0]}, {a[1]}, R)."
    if q.kind == "leq":
        return f"leq({a[0]}, {a[1]})."
    raise ValueError(f"unknown script kind {q.kind!r}")
