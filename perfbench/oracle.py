"""Expected answers computed without the engine under test.

Answers come from closed forms (``A + B == n``, ``X ++ Y == L``, list
order, Python's ``%``, ``sorted`` and ``in``); REPL transcripts are
rendered here from those answers.  Engine answers are decoded into
Python values by `decode`, which reads the term data structure only and
calls no engine function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from queries import Query, repl_line

Answer = Dict[str, object]


def answers(q: Query) -> List[Answer]:
    """Every answer of an enumerating query, in the solver's order: the
    bindings of the query's variables as ints and lists of ints."""
    a = q.args
    if q.kind == "append":
        xs = list(a[0])
        return [{"X": xs[:i], "Y": xs[i:]} for i in range(len(xs) + 1)]
    if q.kind == "member":
        return [{"X": x} for x in a[0]]
    if q.kind == "plus_split":
        return [{"A": i, "B": a[0] - i} for i in range(a[0] + 1)]
    if q.kind == "plus_double":
        return [{"B": a[0]}]
    if q.kind == "plus_solve":
        return [{"X": a[1] - a[0]}] if a[0] <= a[1] else []
    if q.kind == "list_plus_one":
        return [{"M": [x + 1 for x in a[0]]}]
    if q.kind == "remainder":
        return [{"R": a[0] % a[1]}]
    raise ValueError(f"{q.kind}{a!r} is not an enumerating query")


def holds(q: Query) -> bool:
    """Whether a ground yes/no query has a solution."""
    a = q.args
    if q.kind == "plus":
        return a[0] + a[1] == a[2]
    if q.kind == "lt":
        return a[0] < a[1]
    if q.kind == "leq":
        return a[0] <= a[1]
    if q.kind == "remainder":
        return a[1] != 0 and a[0] % a[1] == a[2]
    if q.kind == "sorted":
        return list(a[0]) == sorted(a[0])
    if q.kind == "not_member":
        return a[0] not in a[1]
    if q.kind == "list_plus_one":
        return len(a[0]) == len(a[1]) and all(y == x + 1 for x, y in zip(*a))
    raise ValueError(f"{q.kind}{a!r} is not a yes/no query")


_GROUND_SCRIPT_KINDS = ("sorted", "not_member", "leq")


def _render_value(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(map(str, v)) + "]"
    return str(v)


def _render_answer(ans: Answer) -> str:
    return ", ".join(f"{name} = {_render_value(v)}" for name, v in ans.items())


def repl_exchange(q: Query) -> Tuple[List[str], str]:
    """What a REPL user types for `q`, and the exact text the REPL prints
    in reply, including the "?- " prompt that precedes the query.

    After the first answer the user types ';' up to `q.more` times, and
    '.' if answers remain when they stop.
    """
    lines = [repl_line(q)]
    if q.kind in _GROUND_SCRIPT_KINDS:
        return lines, "?- " + ("true." if holds(q) else "false.") + "\n"
    sols = answers(q)
    if not sols:
        return lines, "?- false.\n"
    shown = min(q.more, len(sols) - 1) + 1
    out = [_render_answer(s) + " ;" for s in sols[:shown - 1]]
    lines += [";"] * (shown - 1)
    last = _render_answer(sols[shown - 1])
    if shown == len(sols):
        out.append(last + ".")
    else:
        out.append(last)
        lines.append(".")
    return lines, "?- " + "\n".join(out) + "\n"


def decode(term, compound_type) -> object:
    """A ground natural or natural-list term as an int or a list of ints.

    Reads only the ``ctor`` and ``args`` fields of compound terms; raises
    ValueError on anything else, such as an unbound variable.
    """
    def nat(t) -> int:
        n = 0
        while isinstance(t, compound_type) and t.ctor == "suc":
            n += 1
            t = t.args[0]
        if isinstance(t, compound_type) and t.ctor == "zero":
            return n
        raise ValueError(f"not a ground natural: {t!r}")

    if isinstance(term, compound_type) and term.ctor in ("nil", "cons"):
        out = []
        while isinstance(term, compound_type) and term.ctor == "cons":
            out.append(nat(term.args[0]))
            term = term.args[1]
        if not (isinstance(term, compound_type) and term.ctor == "nil"):
            raise ValueError(f"not a ground list: {term!r}")
        return out
    return nat(term)


def first_mismatch(expected: List[Answer], got: List[Answer]) -> Optional[str]:
    """None when the answer sequences agree, else a short description."""
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return f"answer {i + 1}: expected {e!r}, got {g!r}"
    if len(expected) != len(got):
        return f"expected {len(expected)} answers, got {len(got)}"
    return None
