"""Prolog-flavoured front end: query parser, predicate registry,
interactive REPL, and a scripted transcript mode for testing.

Queries follow Prolog surface conventions: uppercase-initial names are
variables, "," is conjunction, ";" disjunction, "\\+" negation, "_" a
wildcard, and decimal integers are Peano numerals.  Example::

    ?- plus(1, X, 5).
    X = 4.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

from . import prelude
from .derive import LogicType
from .goals import Goal, fail_goal, neg, succeed
from .solve import Solution, StepBudgetExceeded, solve
from .terms import Compound, LogicError, Term, Var, VarId, pretty

DEFAULT_SCRIPT_BUDGET = 1_000_000


class QueryParseError(LogicError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at column {position}: {message}")
        self.position = position


class QueryTypeError(LogicError):
    pass


@dataclass
class PredicateSpec:
    name: str
    arg_types: Tuple[LogicType, ...]
    impl: Callable[..., Goal]


class PredicateRegistry:
    """Named, typed predicates reachable from the query grammar."""

    def __init__(self):
        self._preds: dict = {}

    def register(self, name: str, arg_types: Sequence[LogicType],
                 impl: Callable[..., Goal]) -> None:
        key = (name, len(arg_types))
        if key in self._preds:
            raise LogicError(f"predicate {name}/{len(arg_types)} already registered")
        self._preds[key] = PredicateSpec(name, tuple(arg_types), impl)

    def lookup(self, name: str, arity: int) -> Optional[PredicateSpec]:
        return self._preds.get((name, arity))


def default_registry() -> PredicateRegistry:
    """All predicates from the bundled library, under their usual names.
    Higher-order ones are exposed pre-applied (sortedLeq, listPlusOne)
    because the grammar is first-order."""
    nat = prelude.NAT
    nlist = prelude.NAT_LIST
    reg = PredicateRegistry()
    reg.register("succeed", [], succeed)
    reg.register("fail", [], fail_goal)
    reg.register("plus", [nat, nat, nat], prelude.plus)
    reg.register("isSuc", [nat, nat], prelude.is_suc)
    reg.register("leq", [nat, nat], prelude.leq)
    reg.register("lt", [nat, nat], prelude.lt)
    reg.register("isHead", [nlist, nat], prelude.is_head)
    reg.register("isTail", [nlist, nlist], prelude.is_tail)
    reg.register("member", [nat, nlist], prelude.member)
    reg.register("notMember", [nat, nlist], prelude.not_member)
    reg.register("sorted", [nlist], prelude.sorted_nat)
    reg.register("sortedLeq", [nlist], lambda v: prelude.sorted_with(prelude.leq, v))
    reg.register("listPlusOne", [nlist, nlist], prelude.list_plus_one)
    reg.register("remainder", [nat, nat, nat], prelude.remainder)
    reg.register("append", [nlist, nlist, nlist], prelude.append_list)
    return reg


# --- tokenizer / parser ---------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z][A-Za-z0-9_]*|_(?![A-Za-z0-9_]))
    | (?P<int>\d+)
    | (?P<punct>\\\+|[(),;.\[\]|])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # name | var | int | punct | end
    text: str
    pos: int  # 1-based column


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise QueryParseError(f"unexpected character {text[i]!r}", i + 1)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), i + 1))
        i = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _QueryParser:
    """Recursive-descent parser producing a Goal directly, type-checking
    each predicate argument against its registered signature."""

    def __init__(self, text: str, registry: PredicateRegistry):
        self.tokens = _tokenize(text)
        self.i = 0
        self.registry = registry
        self.qvars: List[VarId] = []  # user variables, first-occurrence order
        self._wildcards = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.take()
        shown = tok.text if tok.kind != "end" else "end of input"
        raise QueryParseError(f"expected {text!r}, found {shown!r}", tok.pos)

    def parse_query(self) -> Goal:
        goal = self.parse_disj()
        self.expect(".")
        tok = self.peek()
        if tok.kind != "end":
            raise QueryParseError(f"unexpected input after '.': {tok.text!r}", tok.pos)
        return goal

    def parse_disj(self) -> Goal:
        goal = self.parse_conj()
        while self.peek().kind == "punct" and self.peek().text == ";":
            self.take()
            goal = goal | self.parse_conj()
        return goal

    def parse_conj(self) -> Goal:
        goal = self.parse_atom()
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.take()
            goal = goal & self.parse_atom()
        return goal

    def parse_atom(self) -> Goal:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "\\+":
            self.take()
            return neg(self.parse_atom())
        if tok.kind != "name":
            shown = tok.text if tok.kind != "end" else "end of input"
            raise QueryParseError(f"expected a predicate name, found {shown!r}", tok.pos)
        self.take()
        args: List[Term] = []
        if self.peek().kind == "punct" and self.peek().text == "(":
            self.take()
            while True:
                args.append(self._parse_raw_term())
                nxt = self.peek()
                if nxt.kind == "punct" and nxt.text == ",":
                    self.take()
                    continue
                self.expect(")")
                break
        spec = self.registry.lookup(tok.text, len(args))
        if spec is None:
            raise QueryTypeError(f"type error: unknown predicate {tok.text}/{len(args)}")
        typed = [
            self._type_arg(raw, spec, idx)
            for idx, raw in enumerate(args)
        ]
        return spec.impl(*typed)

    # Terms are parsed shape-first and typed against the signature, so a
    # raw parse tree is kept until the expected type is known.

    def _parse_raw_term(self):
        tok = self.peek()
        if tok.kind == "var":
            self.take()
            return ("var", tok.text, tok.pos)
        if tok.kind == "int":
            self.take()
            return ("int", int(tok.text), tok.pos)
        if tok.kind == "punct" and tok.text == "[":
            self.take()
            elems = []
            tail = None
            if not (self.peek().kind == "punct" and self.peek().text == "]"):
                elems.append(self._parse_raw_term())
                while self.peek().kind == "punct" and self.peek().text == ",":
                    self.take()
                    elems.append(self._parse_raw_term())
                if self.peek().kind == "punct" and self.peek().text == "|":
                    self.take()
                    tail = self._parse_raw_term()
            self.expect("]")
            return ("list", elems, tail, tok.pos)
        shown = tok.text if tok.kind != "end" else "end of input"
        raise QueryParseError(f"expected a term, found {shown!r}", tok.pos)

    def _type_arg(self, raw, spec: PredicateSpec, idx: int) -> Term:
        try:
            return self._build_term(raw, spec.arg_types[idx])
        except QueryTypeError as err:
            raise QueryTypeError(
                f"type error: {spec.name}/{len(spec.arg_types)} argument {idx + 1}: {err}"
            ) from None

    def _build_term(self, raw, ltype: LogicType) -> Term:
        kind = raw[0]
        if kind == "var":
            name = raw[1]
            if name == "_":
                self._wildcards += 1
                return Var(VarId(f"_w{self._wildcards}", ltype))
            vid = VarId(name, ltype)
            if vid not in self.qvars:
                self.qvars.append(vid)
            return Var(vid)
        if kind == "int":
            if ltype.from_int is None:
                raise QueryTypeError(f"expected {ltype.name}, got integer {raw[1]}")
            return ltype.from_int(raw[1])
        if kind == "list":
            if ltype.list_shape is None:
                raise QueryTypeError(f"expected {ltype.name}, got a list")
            _, elems, tail, _pos = raw
            # Elements left to right, then the tail: first-occurrence order.
            built = [self._build_term(e, ltype.list_shape[0]) for e in elems]
            tail_term = None if tail is None else self._build_term(tail, ltype)
            return prelude.make_list(built, ltype, tail_term)
        raise QueryTypeError(f"cannot type term {raw!r} as {ltype.name}")


def parse_term(text: str, ltype: LogicType) -> Term:
    """Parse a single term (variable, integer, or list) at the given
    logical type.  Inverse of pretty() for ground terms."""
    parser = _QueryParser(text, PredicateRegistry())
    raw = parser._parse_raw_term()
    tok = parser.peek()
    if tok.kind != "end":
        raise QueryParseError(f"unexpected input after term: {tok.text!r}", tok.pos)
    return parser._build_term(raw, ltype)


def compile_query(text: str, registry: PredicateRegistry) -> Tuple[Goal, List[VarId]]:
    """Parse and type-check one query; returns the goal plus the user
    variables in first-occurrence order."""
    parser = _QueryParser(text, registry)
    goal = parser.parse_query()
    return goal, parser.qvars


# --- answer rendering -----------------------------------------------------


def _rename_hidden_vars(terms_shown: List[Term], avoid: set) -> List[Term]:
    """Engine-generated variables left in an answer get readable display
    names (V1, V2, ...) so "_"-prefixed names never reach the user."""
    mapping: dict = {}
    counter = [0]

    def fresh_name() -> str:
        while True:
            counter[0] += 1
            name = f"V{counter[0]}"
            if name not in avoid:
                return name

    def rewrite(t: Term) -> Term:
        if isinstance(t, Var):
            if not t.vid.name.startswith("_"):
                return t
            if t.vid not in mapping:
                mapping[t.vid] = Var(VarId(fresh_name(), t.vid.ltype))
            return mapping[t.vid]
        if not t.args:
            return t
        return Compound(t.ltype, t.ctor, tuple(rewrite(a) for a in t.args))

    return [rewrite(t) for t in terms_shown]


def format_solution(sol: Solution, qvars: List[VarId]) -> Optional[str]:
    """Comma-separated bindings in query-variable order, or None when
    the solution binds no user variable (rendered as "true.")."""
    shown = [(vid, sol.bindings[vid]) for vid in qvars if vid in sol.bindings]
    if not shown:
        return None
    values = _rename_hidden_vars([t for _, t in shown], {v.name for v in qvars})
    return ", ".join(f"{vid.name} = {pretty(t)}" for (vid, _), t in zip(shown, values))


# --- query execution ------------------------------------------------------

_OK = 0
_BUDGET = 2


def _run_query(goal: Goal, qvars: List[VarId], want_next: Callable[[], bool],
               emit: Callable[[str], None], max_steps: Optional[int]) -> int:
    """Drive one query: print "false.", "true.", or binding lines.

    After a solution with bindings, the terminator depends on what
    happens next: "." when the stream is exhausted, " ;" when the next
    solution was requested, nothing when the user stopped.  Knowing a
    solution is the last one requires searching ahead for another.
    """
    stream = solve(goal, max_steps=max_steps)
    try:
        sol = next(stream, None)
        if sol is None:
            emit("false.")
            return _OK
        line = format_solution(sol, qvars)
        if line is None:
            emit("true.")
            return _OK
        while True:
            lookahead = next(stream, None)
            if lookahead is None:
                emit(line + ".")
                return _OK
            if not want_next():
                emit(line)
                return _OK
            emit(line + " ;")
            line = format_solution(lookahead, qvars)
            if line is None:
                emit("true.")
                return _OK
    except StepBudgetExceeded:
        emit("error: step budget exhausted.")
        return _BUDGET


# --- script mode ----------------------------------------------------------


def run_script_text(text: str, registry: Optional[PredicateRegistry] = None,
                    max_steps: Optional[int] = DEFAULT_SCRIPT_BUDGET) -> Tuple[int, str]:
    """Run a transcript: one query per line, a "NEXT" line requests the
    next solution of the preceding query.  Returns (exit_code, output).
    Exit codes: 0 clean, 1 parse/type error, 2 budget exhausted."""
    registry = registry or default_registry()
    lines = [ln.strip() for ln in text.splitlines()]
    out: List[str] = []
    emit = out.append
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line or line == "NEXT":
            continue
        try:
            goal, qvars = compile_query(line, registry)
        except (QueryParseError, QueryTypeError) as err:
            emit(str(err))
            return 1, "\n".join(out) + "\n"

        def want_next() -> bool:
            nonlocal i
            if i < len(lines) and lines[i] == "NEXT":
                i += 1
                return True
            return False

        status = _run_query(goal, qvars, want_next, emit, max_steps)
        if status == _BUDGET:
            return 2, "\n".join(out) + "\n"
    return 0, ("\n".join(out) + "\n") if out else ""


def run_script(path: str, registry: Optional[PredicateRegistry] = None,
               max_steps: Optional[int] = DEFAULT_SCRIPT_BUDGET,
               stdout: Optional[TextIO] = None) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    code, output = run_script_text(text, registry, max_steps)
    (stdout or sys.stdout).write(output)
    return code


# --- interactive mode -----------------------------------------------------

_BANNER = "typelog REPL — :h for help, :q to quit"
_HELP = """Enter queries ending with '.', e.g.  plus(1, X, 5).
After an answer: ';' shows the next solution, '.' stops.
Commands:  :h  this help   :q  quit"""


def repl(registry: Optional[PredicateRegistry] = None,
         max_steps: Optional[int] = None, quiet: bool = False,
         stdin: TextIO = None, stdout: TextIO = None) -> None:
    """Interactive session: prompt "?- ", one query at a time."""
    registry = registry or default_registry()
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def emit(line: str) -> None:
        stdout.write(line + "\n")
        stdout.flush()

    def read(prompt: str) -> Optional[str]:
        stdout.write(prompt)
        stdout.flush()
        line = stdin.readline()
        if line == "":
            return None
        return line.strip()

    def want_next() -> bool:
        while True:
            answer = read("")
            if answer is None or answer == ".":
                return False
            if answer == ";":
                return True
            emit("type ';' for the next solution or '.' to stop")

    if not quiet:
        emit(_BANNER)
    while True:
        line = read("?- ")
        if line is None or line == ":q":
            break
        if line == ":h":
            emit(_HELP)
            continue
        if not line:
            continue
        try:
            goal, qvars = compile_query(line, registry)
        except (QueryParseError, QueryTypeError) as err:
            emit(str(err))
            continue
        _run_query(goal, qvars, want_next, emit, max_steps)
