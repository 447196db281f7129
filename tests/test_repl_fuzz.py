"""Fuzzed REPL scripts.  Scripts are built from the default registry's
signatures: integers, lists with `| T` tails, variables, `_`, `,`, `;`,
`\\+` and NEXT lines, sometimes a name used at two types, and sometimes a
line mutated or cut short.  Whatever the text, script mode reports
through its exit codes and raises nothing, the CLI prints the same
transcript, and every ground value printed parses back to its term.
Ground queries also count their answers against the eager reference,
and the tokenizer reads any text as the reference tokenizer does."""

import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from typelog import cli, repl
from typelog.repl import QueryParseError, compile_query, default_registry, parse_term, run_script_text
from typelog.solve import solve
from typelog.terms import EMPTY_STORE, is_ground_term

from reference import eager_answers, tokenize

BUDGET = 3000
REGISTRY = default_registry()
SIGNATURES = sorted((spec.name, spec.arg_types) for spec in REGISTRY._preds.values())
NAMES = {"nat": ["X", "Y", "N"], "list(nat)": ["L", "T", "Zs"]}
ALL_NAMES = sorted(n for names in NAMES.values() for n in names)
NOISE = "()[],;.|\\+_ XLab019?\t"
# NOISE and characters past ASCII: letters, decimal digits (which \d
# reads), a superscript digit (which it does not), spaces, a newline.
TOKEN_TEXT = NOISE + "zZ\u00e9\u03a9\u0663\u0664\u00b2\u00a0\u2003\u3000\n"
# Printed bindings are "Name = value" joined by ", "; no value contains " = ".
BINDING = re.compile(r"(?:^|, )([A-Z][A-Za-z0-9_]*) = ")


@st.composite
def terms(draw, ltype, depth=0):
    """Query text for a term of `ltype`: mostly small integers, a few
    large enough to meet the budget."""
    kind = draw(st.sampled_from(["var", "wild", "value", "value"]))
    if kind == "wild":
        return "_"
    if kind == "var":
        # Most names keep one type: drawn freely, most scripts would stop
        # at their first type error.
        pool = ALL_NAMES if draw(st.integers(0, 19)) == 0 else NAMES[ltype.name]
        return draw(st.sampled_from(pool))
    if ltype.element is None:
        return str(draw(st.integers(0, 4) | st.integers(0, 4) | st.integers(0, 4000)))
    elems = draw(st.lists(terms(ltype.element, depth + 1), max_size=3))
    text = "[" + ", ".join(elems)
    if elems and draw(st.booleans()):
        tail = draw(terms(ltype, depth + 1) if depth < 2 else st.sampled_from(NAMES[ltype.name]))
        text += " | " + tail
    return text + "]"


def ground_terms(ltype):
    """Query text for a ground term of `ltype`: an integer 0-4, or a list
    of up to three of them."""
    small = st.integers(0, 4).map(str)
    if ltype.element is None:
        return small
    return st.lists(small, max_size=3).map(lambda elems: "[" + ", ".join(elems) + "]")


@st.composite
def atoms(draw, term=terms):
    name, arg_types = draw(st.sampled_from(SIGNATURES))
    negations = "\\+ " * draw(st.sampled_from([0, 0, 1, 2]))
    if not arg_types:
        return negations + name
    return f"{negations}{name}({', '.join(draw(term(t)) for t in arg_types)})"


@st.composite
def queries(draw, atom_texts=atoms()):
    first, *rest = draw(st.lists(atom_texts, min_size=1, max_size=3))
    for atom in rest:
        first += draw(st.sampled_from([", ", "; "])) + atom
    return first + "."


@st.composite
def mutated(draw, line):
    """`line` cut short, or with one character replaced, dropped or added."""
    if not line:
        return line
    i = draw(st.integers(0, len(line) - 1))
    how = draw(st.sampled_from(["cut", "replace", "drop", "add"]))
    if how == "cut":
        return line[:i]
    if how == "drop":
        return line[:i] + line[i + 1:]
    c = draw(st.sampled_from(NOISE))
    return line[:i] + c + line[i + (how == "replace"):]


@st.composite
def scripts(draw):
    lines = []
    for query in draw(st.lists(queries(), min_size=1, max_size=4)):
        if draw(st.integers(0, 4)) == 0:
            query = draw(mutated(query))
        lines.append(query)
        lines += ["NEXT"] * draw(st.integers(0, 3))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


def run_recording(text):
    """`run_script_text` on `text`, with each (solution, user variables,
    printed bindings) that the transcript formats."""
    shown = []
    format_solution = repl.format_solution

    def recording(sol, qvars):
        line = format_solution(sol, qvars)
        shown.append((sol, qvars, line))
        return line

    with mock.patch.object(repl, "format_solution", recording):
        code, out = run_script_text(text, max_steps=BUDGET)
    return code, out, shown


def run_cli(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.txt"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--script", str(path), "--max-steps", str(BUDGET)])
    return code, out.getvalue()


@pytest.mark.seeded
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts())
def test_fuzzed_scripts(text):
    code, out, shown = run_recording(text)
    assert code in (0, 1, 2)
    cli_code, cli_out = run_cli(text)
    assert cli_code in (0, 1, 2, 3)
    assert (cli_code, cli_out) == (code, out)
    shown = [(sol, qvars, line) for sol, qvars, line in shown if line is not None]
    printed = {re.sub(r"(\.| ;)$", "", ln) for ln in out.splitlines()}
    for sol, qvars, line in shown:
        assert line in printed
        parts = BINDING.split(line)
        assert parts[0] == ""
        by_name = {vid.name: vid for vid in qvars}
        for name, value_text in zip(parts[1::2], parts[2::2]):
            vid = by_name[name]
            value = sol.bindings[vid]
            if is_ground_term(value, EMPTY_STORE):
                assert parse_term(value_text, vid.ltype) == value


@pytest.mark.seeded
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(queries(atoms(ground_terms)))
def test_ground_queries_match_the_eager_reference(text):
    goal, qvars = compile_query(text, REGISTRY)
    assert qvars == []
    count = sum(1 for _ in solve(goal))
    assert count == len(eager_answers(goal))
    assert run_script_text(text, REGISTRY) == (0, "true.\n" if count else "false.\n")


@pytest.mark.seeded
@settings(max_examples=500, deadline=None)
@given(st.text(TOKEN_TEXT, max_size=30) | queries().flatmap(mutated))
def test_tokenizer_matches_the_reference(text):
    try:
        expected = tokenize(text)
    except QueryParseError as err:
        with pytest.raises(QueryParseError) as got:
            repl._tokenize(text)
        assert (str(got.value), got.value.position) == (str(err), err.position)
        return
    assert repl._tokenize(text) == [tok.text for tok in expected]
    assert [repl._column(text, i) for i in range(len(expected))] == [tok.pos for tok in expected]
