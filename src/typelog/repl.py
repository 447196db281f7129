"""Prolog-flavoured front end: query parser, predicate registry,
interactive REPL, and a scripted transcript mode for testing.

Queries follow Prolog surface conventions: uppercase-initial names are
variables, "," is conjunction, ";" disjunction, "\\+" negation, "_" a
wildcard, and decimal integers are Peano numerals.  Example::

    ?- plus(1, X, 5).
    X = 4.
"""

from __future__ import annotations

import io
import itertools
import re
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from . import prelude
from .derive import LogicType
from .goals import Goal, fail_goal, neg, succeed
from .solve import Solution, StepBudgetExceeded, solve
from .terms import EMPTY_STORE, LogicError, Term, Var, VarId, _rebuild, pretty

DEFAULT_SCRIPT_BUDGET = 1_000_000


class QueryParseError(LogicError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at column {position}: {message}")
        self.position = position


class QueryTypeError(LogicError):
    pass


class PredicateSpec(NamedTuple):
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

# Skips whitespace, then captures a token (group 1: a name, a variable or
# "_", an integer, or punctuation) or else the one character that starts
# none (group 2).  Only trailing whitespace is in no match.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:(
        [a-z][A-Za-z0-9_]*
      | [A-Z][A-Za-z0-9_]* | _(?![A-Za-z0-9_])
      | \d+
      | \\\+ | [(),;.\[\]|]
    ) | (\S))
    """,
    re.VERBOSE,
)

# The most digits an integer literal may have: Python's default limit for
# int(), kept as the parser's own whatever the interpreter's limit is.
LONGEST_LITERAL = 4300
# int() reads this many digits under any limit the interpreter accepts
# (any number of them before Python 3.10.7, which has no limit).
_ALWAYS_READ = getattr(sys.int_info, "str_digits_check_threshold", LONGEST_LITERAL)


def _tokenize(text: str) -> List[str]:
    """The tokens of `text` as strings, then "" for its end.  A character
    that starts no token is a parse error, at its column."""
    found = _TOKEN_RE.findall(text)
    if not found:
        return [""]
    tokens, bad = zip(*found)
    if any(bad):
        m = next(m for m in _TOKEN_RE.finditer(text) if m.group(2))
        raise QueryParseError(f"unexpected character {m.group(2)!r}", m.start(2) + 1)
    return [*tokens, ""]


def _column(text: str, i: int) -> int:
    """The 1-based column of token `i` of `text`, found by scanning it
    again: columns are only needed for an error."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i, None), None)
    return len(text) + 1 if m is None else m.start(1) + 1


def _literal(text: str) -> int:
    """The value of an integer token of at most LONGEST_LITERAL digits,
    read in pieces that int() takes under any digit limit."""
    if len(text) <= _ALWAYS_READ:
        return int(text)
    value = 0
    for k in range(0, len(text), _ALWAYS_READ):
        piece = text[k:k + _ALWAYS_READ]
        value = value * 10 ** len(piece) + int(piece)
    return value


class _QueryParser:
    """Recursive-descent parser producing a Goal directly, type-checking
    each predicate argument against its registered signature.  Tokens
    are told apart by their first character."""

    def __init__(self, text: str, registry: PredicateRegistry):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.registry = registry
        self.qvars: Dict[str, VarId] = {}  # user variables by name, first-occurrence order
        self._wildcards = 0

    def error(self, message: str, i: int) -> QueryParseError:
        return QueryParseError(message, _column(self.text, i))

    def expected(self, what: str, i: int) -> QueryParseError:
        found = self.tokens[i] or "end of input"
        return self.error(f"expected {what}, found {found!r}", i)

    def expect(self, text: str) -> None:
        if self.tokens[self.i] != text:
            raise self.expected(repr(text), self.i)
        self.i += 1

    def parse_query(self) -> Goal:
        goal = self.parse_disj()
        self.expect(".")
        if self.tokens[self.i]:
            raise self.error(f"unexpected input after '.': {self.tokens[self.i]!r}", self.i)
        return goal

    def parse_disj(self) -> Goal:
        goal = self.parse_conj()
        while self.tokens[self.i] == ";":
            self.i += 1
            goal = goal | self.parse_conj()
        return goal

    def parse_conj(self) -> Goal:
        goal = self.parse_atom()
        while self.tokens[self.i] == ",":
            self.i += 1
            goal = goal & self.parse_atom()
        return goal

    def parse_atom(self) -> Goal:
        tokens, i = self.tokens, self.i
        negations = 0
        while tokens[i] == "\\+":
            i += 1
            negations += 1
        name = tokens[i]
        if not name[:1].islower():
            raise self.expected("a predicate name", i)
        self.i = i + 1
        args: List[Term] = []
        if tokens[self.i] == "(":
            self.i += 1
            while True:
                args.append(self._parse_raw_term())
                if tokens[self.i] == ",":
                    self.i += 1
                    continue
                self.expect(")")
                break
        spec = self.registry.lookup(name, len(args))
        if spec is None:
            raise QueryTypeError(f"type error: unknown predicate {name}/{len(args)}")
        typed = [
            self._type_arg(raw, spec, idx)
            for idx, raw in enumerate(args)
        ]
        goal = spec.impl(*typed)
        for _ in range(negations):
            goal = neg(goal)
        return goal

    # Terms are parsed shape-first and typed against the signature, so a
    # raw term is kept until the expected type is known: an int, a
    # variable name, or an (elements, tail) list whose tail is None for
    # nil.

    def _parse_raw_term(self):
        # Lists nest over an explicit stack of open lists, each an
        # [elements, in the tail] frame.
        tokens, i = self.tokens, self.i
        open_lists = []
        while True:
            tok = tokens[i]
            i += 1
            first = tok[:1]
            if first.isdigit():
                if len(tok) > LONGEST_LITERAL:
                    raise self.error(f"integer literal of {len(tok)} digits is too long", i - 1)
                term = _literal(tok)
            elif first.isupper() or first == "_":
                term = tok
            elif tok == "[":
                if tokens[i] != "]":
                    open_lists.append([[], False])
                    continue
                i += 1
                term = ([], None)
            else:
                raise self.expected("a term", i - 1)
            # `term` is complete: it ends elements and tails of open lists
            # until one of them continues with "," or "|".
            while open_lists:
                elems, in_tail = open_lists[-1]
                if in_tail:
                    tail = term
                else:
                    elems.append(term)
                    tok = tokens[i]
                    if tok == ",":
                        i += 1
                        break
                    if tok == "|":
                        i += 1
                        open_lists[-1][1] = True
                        break
                    tail = None
                if tokens[i] != "]":
                    raise self.expected("']'", i)
                i += 1
                open_lists.pop()
                term = (elems, tail)
            else:
                self.i = i
                return term

    def _type_arg(self, raw, spec: PredicateSpec, idx: int) -> Term:
        try:
            return self._build_term(raw, spec.arg_types[idx])
        except QueryTypeError as err:
            raise QueryTypeError(
                f"type error: {spec.name}/{len(spec.arg_types)} argument {idx + 1}: {err}"
            ) from None

    def _build_term(self, raw, ltype: LogicType) -> Term:
        kind = type(raw)
        if kind is str:
            if raw == "_":
                self._wildcards += 1
                return Var(VarId(f"_w{self._wildcards}", ltype))
            vid = self.qvars.setdefault(raw, VarId(raw, ltype))
            if vid.ltype is not ltype:
                raise QueryTypeError(
                    f"variable {raw} is used at types {vid.ltype.name} and {ltype.name}")
            return Var(vid)
        if kind is int:
            if ltype.from_int is None:
                raise QueryTypeError(f"expected {ltype.name}, got integer {raw}")
            return ltype.from_int(raw)
        if ltype.element is None:  # a raw term is a var, an int or a list
            raise QueryTypeError(f"expected {ltype.name}, got a list")
        # Elements left to right, then the tail: first-occurrence order.
        # A tail that is a list literal continues the same cons chain.
        # An integer element is left to make_list, which builds large
        # numerals in one pass.
        built = []
        ints = ltype.element.from_int is not None
        while True:
            elems, tail = raw
            built.extend(e if ints and type(e) is int else self._build_term(e, ltype.element)
                         for e in elems)
            if type(tail) is not tuple:
                break
            raw = tail
        tail_term = None if tail is None else self._build_term(tail, ltype)
        return prelude.make_list(built, ltype, tail_term)


def parse_term(text: str, ltype: LogicType) -> Term:
    """Parse a single term (variable, integer, or list) at the given
    logical type.  Inverse of pretty() for ground terms."""
    parser = _QueryParser(text, PredicateRegistry())
    raw = parser._parse_raw_term()
    tok = parser.tokens[parser.i]
    if tok:
        raise parser.error(f"unexpected input after term: {tok!r}", parser.i)
    return parser._build_term(raw, ltype)


def compile_query(text: str, registry: PredicateRegistry,
                  max_steps: Optional[int] = None) -> Tuple[Goal, List[VarId]]:
    """Parse and type-check one query; returns the goal plus the user
    variables in first-occurrence order.  A name stands for one variable
    of one type: a name used at two types is a `QueryTypeError`.

    Errors come in a fixed order.  A character that starts no token is
    reported first, wherever it is.  Then, with `max_steps`, integer
    literals that sum to more than it raise `StepBudgetExceeded` before
    the query is parsed: the numeral n is n nodes to build, so the
    budget bounds them too.  Then parse and type errors are reported
    left to right, each predicate's type errors once its arguments are
    parsed.  An integer literal may have at most LONGEST_LITERAL digits,
    whatever Python's own limit for int() is; a longer one counts for
    nothing in the budget and is a parse error at its column."""
    parser = _QueryParser(text, registry)
    if max_steps is not None:
        total = sum(_literal(tok) for tok in filter(str.isdigit, parser.tokens)
                    if len(tok) <= LONGEST_LITERAL)
        if total > max_steps:
            try:
                shown = str(total)
            except ValueError:  # more digits than Python writes out
                shown = f"a number of over {sys.get_int_max_str_digits()} digits"
            raise StepBudgetExceeded(
                f"integer literals sum to {shown}, over the step budget of {max_steps}")
    goal = parser.parse_query()
    return goal, list(parser.qvars.values())


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

    def rename(v: Var) -> Var:
        if not v.vid.name.startswith("_"):
            return v
        if v.vid not in mapping:
            mapping[v.vid] = Var(VarId(fresh_name(), v.vid.ltype))
        return mapping[v.vid]

    return [_rebuild(t, EMPTY_STORE, rename) for t in terms_shown]


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
_ERROR = 1
_BUDGET = 2
_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process a ^C ended
_EXHAUSTED = "error: step budget exhausted."


def _run_line(line: str, registry: PredicateRegistry, want_next: Callable[[str], bool],
              emit: Callable[..., None], max_steps: Optional[int]) -> int:
    """Compile and run one query line and print its answers: "false.",
    "true.", or each answer's bindings as soon as the answer is found.

    An answer's terminator follows the search for the next answer: "."
    when none is left, " ;" when `want_next(bindings)` asked for it,
    nothing when the user stopped.  A parse or type error, a budget
    overrun or an interrupt (`KeyboardInterrupt`, while the query is
    compiled, searched or waits at the `want_next` choice) is one more
    line, after the open answer's; returns the line's exit status."""
    shown = None  # the open answer's bindings: printed, terminator not yet
    try:
        goal, qvars = compile_query(line, registry, max_steps)
        for sol in solve(goal, max_steps=max_steps):
            if shown is not None:
                if not want_next(shown):
                    emit("")
                    return _OK
                emit(" ;")
            shown = format_solution(sol, qvars)
            if shown is None:
                emit("true.")
                return _OK
            emit(shown, end="")
        emit("false." if shown is None else ".")
        return _OK
    except (QueryParseError, QueryTypeError) as err:
        emit(str(err))
        return _ERROR
    except StepBudgetExceeded:
        if shown is not None:
            emit("")
        emit(_EXHAUSTED)
        return _BUDGET
    except KeyboardInterrupt:
        if shown is not None:
            emit("")
        emit("error: interrupted.")
        return _INTERRUPTED


# --- script mode ----------------------------------------------------------


def _run_transcript(text: str, registry: Optional[PredicateRegistry],
                    max_steps: Optional[int], out: TextIO) -> int:
    """Run a transcript, writing each output line to `out` as it is
    produced; returns the exit code."""
    registry = registry or default_registry()
    lines = [ln.strip() for ln in text.splitlines()]

    def emit(text: str, end: str = "\n") -> None:
        out.write(text + end)

    i = 0

    def want_next(_shown: str) -> bool:
        nonlocal i
        if i < len(lines) and lines[i] == "NEXT":
            i += 1
            return True
        return False

    while i < len(lines):
        line = lines[i]
        i += 1
        if not line or line == "NEXT":
            continue
        status = _run_line(line, registry, want_next, emit, max_steps)
        if status != _OK:
            return status
    return _OK


def run_script_text(text: str, registry: Optional[PredicateRegistry] = None,
                    max_steps: Optional[int] = DEFAULT_SCRIPT_BUDGET) -> Tuple[int, str]:
    """Run a transcript: one query per line, a "NEXT" line requests the
    next solution of the preceding query.  Returns (exit_code, output).
    Exit codes: 0 clean, 1 parse/type error, 2 budget exhausted, by the
    search or by the query's integer literals (see `compile_query`),
    130 interrupted (`KeyboardInterrupt`) while a query ran.  Each ends
    the transcript with its error line."""
    out = io.StringIO()
    code = _run_transcript(text, registry, max_steps, out)
    return code, out.getvalue()


def run_script(path: str, registry: Optional[PredicateRegistry] = None,
               max_steps: Optional[int] = DEFAULT_SCRIPT_BUDGET) -> int:
    """Run the transcript in file `path`, writing each line to
    `sys.stdout` as it is produced, so an error that escapes a later
    query leaves the answers of the earlier ones in place.  Returns the
    exit code."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _run_transcript(text, registry, max_steps, sys.stdout)


# --- interactive mode -----------------------------------------------------

_BANNER = "typelog REPL — :h for help, :q to quit"
_HELP = """Enter queries ending with '.', e.g.  plus(1, X, 5).
After an answer: ';' shows the next solution, '.' stops.
Commands:  :h  this help   :q  quit"""


def repl(registry: Optional[PredicateRegistry] = None,
         max_steps: Optional[int] = None, quiet: bool = False,
         stdin: TextIO = None, stdout: TextIO = None) -> None:
    """Interactive session: prompt "?- ", one query at a time.  An
    interrupt (`KeyboardInterrupt`) while a query runs, or while it waits
    for ';' or '.', ends that query with "error: interrupted." and
    prompts again; one anywhere else ends the line and the session."""
    registry = registry or default_registry()
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def emit(text: str, end: str = "\n") -> None:
        stdout.write(text + end)
        stdout.flush()

    def read(prompt: str) -> Optional[str]:
        stdout.write(prompt)
        stdout.flush()
        line = stdin.readline()
        if line == "":
            return None
        return line.strip()

    def want_next(shown: str) -> bool:
        while True:
            answer = read("")
            if answer is None or answer == ".":
                return False
            if answer == ";":
                return True
            # Shown again, so that the terminator follows the bindings.
            emit("\ntype ';' for the next solution or '.' to stop")
            emit(shown, end="")

    try:
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
            _run_line(line, registry, want_next, emit, max_steps)
    except KeyboardInterrupt:
        emit("")
