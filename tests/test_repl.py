import contextlib
import io
import re
import sys

import pytest

from typelog import repl as repl_module
from typelog.cli import main
from typelog.goals import Conj, Disj, exists
from typelog.prelude import NAT, NAT_LIST, nat, nat_list, plus
from typelog.repl import (
    QueryParseError,
    QueryTypeError,
    compile_query,
    default_registry,
    parse_term,
    repl,
    run_script_text,
)
from typelog.solve import StepBudgetExceeded
from typelog.terms import LogicError, Var, VarId


REG = default_registry()


def script(text, **kwargs):
    return run_script_text(text, REG, **kwargs)


# Python's limit on the digits int() reads came in 3.10.7.
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int digit limit")


@contextlib.contextmanager
def int_digit_limit(limit):
    """Python's limit on the digits int() reads, set to `limit` and then
    restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestParser:
    def test_variables_collected_in_order(self):
        _, qvars = compile_query("plus(A, B, 3).", REG)
        assert [v.name for v in qvars] == ["A", "B"]

    def test_variables_in_list_literal_collected_in_order(self):
        query = "append([A, B | T], C, [1, 2, 3, 4])."
        _, qvars = compile_query(query, REG)
        assert [v.name for v in qvars] == ["A", "B", "T", "C"]
        assert script(query) == (0, "A = 1, B = 2, T = [], C = [3, 4]\n")

    def test_repeated_variable_collected_once(self):
        _, qvars = compile_query("plus(X, X, 4).", REG)
        assert [v.name for v in qvars] == ["X"]

    def test_variable_used_at_two_types_is_a_type_error(self):
        for query, types in (("plus(X, 1, 2), isHead(X, 1).", "nat and list(nat)"),
                             ("isHead(X, Y), plus(Y, 1, X).", "list(nat) and nat"),
                             ("append([X], X, L).", "nat and list(nat)")):
            with pytest.raises(QueryTypeError, match=re.escape(f"variable X is used at types {types}")):
                compile_query(query, REG)
            code, out = script(query)
            assert code == 1 and out.startswith("type error: ") and out.count("\n") == 1
        assert script("plus(X, X, 4).") == (0, "X = 2.\n")
        assert script("isHead(_, _), plus(_, 1, _).") == (0, "true.\n")

    def test_variable_typed_by_signature(self):
        _, qvars = compile_query("member(X, L).", REG)
        assert qvars == [VarId("X", NAT), VarId("L", NAT_LIST)]

    def test_connective_shape(self):
        goal, _ = compile_query("leq(X, 1), leq(1, X) ; fail.", REG)
        assert isinstance(goal, Disj)
        assert isinstance(goal.g1, Conj)

    def test_zero_arity_atoms(self):
        assert script("succeed.\nfail.") == (0, "true.\nfalse.\n")

    def test_wildcards_are_distinct(self):
        # Two wildcards must not constrain each other.
        assert script("plus(_, _, 1).") == (0, "true.\n")

    def test_list_with_tail(self):
        goal, qvars = compile_query("isTail([1 | T], [2]).", REG)
        assert qvars == [VarId("T", NAT_LIST)]

    def test_missing_dot(self):
        with pytest.raises(QueryParseError, match="expected '.'"):
            compile_query("succeed", REG)

    def test_error_reports_column(self):
        with pytest.raises(QueryParseError, match="column 9"):
            compile_query("plus(1, ), 2).", REG)

    def test_unknown_character(self):
        with pytest.raises(QueryParseError, match="unexpected character"):
            compile_query("plus(1, ?, 2).", REG)

    def test_unknown_predicate_is_type_error(self):
        with pytest.raises(QueryTypeError, match="unknown predicate minus/3"):
            compile_query("minus(3, 1, X).", REG)

    def test_wrong_arity_is_type_error(self):
        with pytest.raises(QueryTypeError, match="unknown predicate plus/2"):
            compile_query("plus(1, 2).", REG)

    def test_argument_type_mismatch_named(self):
        with pytest.raises(QueryTypeError, match="plus/3 argument 2: .*expected nat"):
            compile_query("plus(1, [2], 3).", REG)

    def test_over_long_integer_literal_is_parse_error(self):
        with pytest.raises(QueryParseError) as err:
            compile_query("isSuc(" + "7" * 5000 + ", X).", REG)
        assert err.value.position == 7
        assert script("isSuc(" + "7" * 5000 + ", X).") == (
            1, "parse error at column 7: integer literal of 5000 digits is too long\n")

    @needs_int_digit_limit
    def test_longest_integer_literal_is_the_parsers_limit(self):
        # With no limit on int(), a literal over LONGEST_LITERAL digits is
        # still a parse error, and counts for nothing in the budget.
        long = "isSuc(" + "7" * 5000 + ", X)."
        with int_digit_limit(0):
            with pytest.raises(QueryParseError) as err:
                compile_query(long, REG, max_steps=1000)
            assert err.value.position == 7
            assert script(long, max_steps=1000) == (
                1, "parse error at column 7: integer literal of 5000 digits is too long\n")
            assert script("isSuc(" + "7" * 4300 + ", X).", max_steps=1000) == (
                2, "error: step budget exhausted.\n")

    @needs_int_digit_limit
    def test_literal_up_to_the_longest_reads_under_any_int_limit(self):
        with int_digit_limit(640):
            assert parse_term("0" * 4299 + "3", NAT) == nat(3)
            compile_query("isSuc(" + "0" * 4299 + "9, X).", REG, max_steps=10)
            assert script("isSuc(" + "9" * 700 + ", X).", max_steps=1000) == (
                2, "error: step budget exhausted.\n")
            assert script("isSuc(" + "0" * 700 + "2, X).", max_steps=1000) == (0, "X = 3.\n")

    @needs_int_digit_limit
    def test_a_sum_too_long_to_write_out_is_over_the_budget(self):
        query = "plus(" + "9" * 4300 + ", " + "9" * 4300 + ", X)."
        with int_digit_limit(4300):
            assert script(query) == (2, "error: step budget exhausted.\n")
            with pytest.raises(StepBudgetExceeded, match=(
                    "sum to a number of over 4300 digits, over the step budget of 10$")):
                compile_query(query, REG, max_steps=10)

    def test_unicode_digits_are_integers(self):
        assert script("isSuc(\u0663\u0664, X).") == (0, "X = 35.\n")


class TestParseTerm:
    def test_integer(self):
        assert parse_term("3", NAT) == nat(3)

    def test_list(self):
        assert parse_term("[1, 2]", NAT_LIST) == nat_list([1, 2])

    def test_variable(self):
        assert parse_term("X", NAT) == Var(VarId("X", NAT))

    def test_trailing_junk_rejected(self):
        with pytest.raises(QueryParseError):
            parse_term("3 4", NAT)

    def test_trailing_junk_reports_its_column(self):
        with pytest.raises(QueryParseError) as err:
            parse_term("3 4", NAT)
        assert (err.value.position, str(err.value)) == (
            3, "parse error at column 3: unexpected input after term: '4'")

    def test_list_nested_in_tails_deeper_than_recursion_limit(self):
        depth = 2000
        text = "[1 | " * depth + "[]" + "]" * depth
        assert parse_term(text, NAT_LIST) == nat_list([1] * depth)


class TestScriptMode:
    def test_single_answer_ends_with_dot(self):
        assert script("plus(2, B, 3).") == (0, "B = 1.\n")

    def test_failure(self):
        assert script("plus(2, 2, 3).") == (0, "false.\n")

    def test_no_bindings_prints_true(self):
        assert script("isTail([1, 2, 3], [2, 3]).") == (0, "true.\n")

    def test_next_requests_more_solutions(self):
        code, out = script("plus(A, 1, C).\nNEXT")
        assert code == 0
        assert out == "A = 0, C = 1 ;\nA = 1, C = 2\n"

    def test_exhausted_after_next(self):
        code, out = script("leq(X, 1).\nNEXT")
        assert code == 0
        assert out == "X = 0 ;\nX = 1.\n"

    def test_stop_without_next_leaves_open_answer(self):
        # More solutions exist but none was requested: bare line, no dot.
        assert script("leq(X, 2).") == (0, "X = 0\n")

    def test_several_queries(self):
        code, out = script("plus(1, X, 5).\nmember(2, [1, 2]).\n")
        assert code == 0
        assert out == "X = 4.\ntrue.\n"

    def test_blank_lines_ignored(self):
        assert script("\n\nsucceed.\n\n") == (0, "true.\n")

    def test_parse_error_exit_1(self):
        code, out = script("plus(1, X, 5.")
        assert code == 1
        assert "parse error" in out

    def test_type_error_exit_1(self):
        code, out = script("member([1], [1]).")
        assert code == 1
        assert "type error" in out

    def test_error_stops_processing(self):
        code, out = script("nonsense(1).\nsucceed.")
        assert code == 1
        assert "true." not in out

    def test_budget_exhaustion_exit_2(self):
        # Infinitely failing search: every enumerated sum is rejected.
        code, out = script("plus(A, 1, C), fail.", max_steps=200)
        assert code == 2
        assert out.endswith("error: step budget exhausted.\n")

    def test_budget_is_per_query(self):
        text = "plus(2, B, 3).\nplus(1, B, 4)."
        assert script(text, max_steps=5_000) == (0, "B = 1.\nB = 3.\n")

    def test_literals_over_the_budget_are_not_built(self, monkeypatch):
        # The numeral n is n nodes to build, so the budget bounds the sum
        # of a query's integer literals, list elements included.
        def build(n):
            raise AssertionError(f"numeral {n} built")
        monkeypatch.setattr(NAT, "from_int", build)
        over = (2, "error: step budget exhausted.\n")
        assert script("fail, isSuc(500000, X).", max_steps=10) == over
        assert script("isSuc(6, X), isSuc(5, Y).", max_steps=10) == over
        assert script("member(X, [6, 5]).", max_steps=10) == over
        assert script("succeed.\nisSuc(11, X).\nsucceed.", max_steps=10) == (
            2, "true.\nerror: step budget exhausted.\n")

    def test_literals_that_fit_keep_the_whole_budget(self):
        # 27 is the least budget plus(2, B, 3)'s search completes in.
        assert script("plus(2, B, 3).", max_steps=27) == (0, "B = 1.\n")
        assert script("plus(2, B, 3).", max_steps=26)[0] == 2
        assert script("isSuc(10, X).", max_steps=10) == (0, "X = 11.\n")

    def test_deep_search_answers(self):
        assert script("plus(1000, X, 2000).") == (0, "X = 1000.\n")

    def test_deep_unification_answers(self):
        assert script("isSuc(5000, 5001).") == (0, "true.\n")

    def test_long_list_answer(self):
        n = 3000
        text = f"listPlusOne([{', '.join(['1'] * n)}], M)."
        assert script(text) == (0, f"M = [{', '.join(['2'] * n)}].\n")

    def test_long_run_of_negations(self):
        assert script("\\+ " * 2000 + "fail.") == (0, "false.\n")

    def test_deeply_nested_list_is_type_error(self):
        text = "member(X, " + "[" * 2000 + "]" * 2000 + ")."
        assert script(text) == (
            1, "type error: member/2 argument 2: expected nat, got a list\n")

    def test_reruns_byte_identical(self):
        text = "plus(A, B, 3).\nNEXT\nNEXT\nleq(X, 1).\nNEXT\nsorted([2, 1])."
        assert script(text) == script(text)


class TestResidualVariables:
    def test_engine_vars_renamed_for_display(self):
        code, out = script("isTail(L, [2]).")
        assert code == 0
        assert out == "L = [V1, 2].\n"

    def test_fresh_names_avoid_query_vars(self):
        # append leaves the suffix unconstrained; the display name must
        # not collide with A or be an internal "_" name.
        code, out = script("append([1], A, B).")
        assert code == 0
        assert "_" not in out
        assert out == "A = V1, B = 1 : V1.\n"

    def test_several_engine_vars_numbered_in_first_occurrence_order(self):
        assert script("append(X, Y, Z).\nNEXT\nNEXT") == (0, (
            "X = [], Y = Z ;\n"
            "X = [V1], Y = V2, Z = V1 : V2 ;\n"
            "X = [V1, V2], Y = V3, Z = V1 : V2 : V3\n"))


class TestCli:
    def test_script_flag(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("plus(1, X, 5).\n")
        assert main(["--script", str(f)]) == 0
        assert capsys.readouterr().out == "X = 4.\n"

    def test_missing_script_exit_3(self, tmp_path, capsys):
        assert main(["--script", str(tmp_path / "absent.txt")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_script_not_utf8_exit_3(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_bytes(b"plus(1, X, 5).\n\xff\n")
        assert main(["--script", str(f)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_max_steps_flag(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("plus(A, 1, C), fail.\n")
        assert main(["--script", str(f), "--max-steps", "200"]) == 2

    @pytest.mark.parametrize("value", ["-5", "x"])
    def test_bad_max_steps_is_a_usage_error(self, tmp_path, capsys, value):
        f = tmp_path / "queries.txt"
        f.write_text("plus(1, X, 5).\n")
        with pytest.raises(SystemExit) as raised:
            main(["--script", str(f), "--max-steps", value])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: repl ")
        assert "argument --max-steps" in captured.err

    def test_zero_max_steps_is_accepted(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("succeed.\n")
        assert main(["--script", str(f), "--max-steps", "0"]) == 2
        assert capsys.readouterr().out == "error: step budget exhausted.\n"

    def test_max_steps_bounds_integer_literals(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("isSuc(500000, X).\n")
        assert main(["--script", str(f), "--max-steps", "10"]) == 2
        assert capsys.readouterr().out == "error: step budget exhausted.\n"

    def test_answer_deeper_than_recursion_limit(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("plus(2000, A, C).\n")
        assert main(["--script", str(f)]) == 0
        assert capsys.readouterr().out == "A = V1, C = 2000 + V1.\n"

    def test_answers_before_and_after_a_deep_answer(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("plus(1, X, 5).\nplus(2000, A, C).\n")
        assert main(["--script", str(f)]) == 0
        assert capsys.readouterr().out == "X = 4.\nA = V1, C = 2000 + V1.\n"

    def test_interactive_session(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("plus(1, X, 2).\n:q\n"))
        assert main(["--quiet"]) == 0
        assert capsys.readouterr().out == "?- X = 1.\n?- "

    def test_interrupted_session_exits_0(self, monkeypatch):
        class Interrupted:
            def readline(self):
                raise KeyboardInterrupt
        monkeypatch.setattr("sys.stdin", Interrupted())
        assert main(["--quiet"]) == 0

    def test_interrupt_at_the_prompt_ends_the_line(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", Interrupting("plus(1, X, 2).\n", None))
        assert main(["--quiet"]) == 0
        assert capsys.readouterr().out == "?- X = 1.\n?- \n"

    def test_interrupted_script_exit_130(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(repl_module, "default_registry", lambda: INTERRUPTING)
        f = tmp_path / "queries.txt"
        f.write_text("plus(1, X, 5).\nplus(X, 0, 0) ; interrupt.\nsucceed.\n")
        assert main(["--script", str(f)]) == 130
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("X = 4.\nX = 0\nerror: interrupted.\n", "")


class TestInteractive:
    def run(self, input_text, **kwargs):
        out = io.StringIO()
        repl(REG, stdin=io.StringIO(input_text), stdout=out, **kwargs)
        return out.getvalue()

    def test_query_and_quit(self):
        out = self.run("plus(1, X, 5).\n:q\n", quiet=True)
        assert out == "?- X = 4.\n?- "

    def test_banner_unless_quiet(self):
        assert self.run(":q\n").startswith("typelog REPL")
        assert not self.run(":q\n", quiet=True).startswith("typelog REPL")

    def test_semicolon_requests_next(self):
        out = self.run("leq(X, 1).\n;\n:q\n", quiet=True)
        assert "X = 0 ;\nX = 1.\n" in out

    def test_dot_stops_enumeration(self):
        out = self.run("leq(X, 2).\n.\n:q\n", quiet=True)
        assert "X = 0\n" in out
        assert "X = 1" not in out

    def test_help_command(self):
        assert ":h  this help" in self.run(":h\n:q\n", quiet=True)

    def test_parse_error_recoverable(self):
        out = self.run("bad(.\nsucceed.\n:q\n", quiet=True)
        assert "parse error" in out
        assert "true." in out

    def test_literals_over_the_budget_recoverable(self):
        out = self.run("isSuc(500000, X).\nisSuc(1, X).\n:q\n", quiet=True, max_steps=10)
        assert out == "?- error: step budget exhausted.\n?- X = 2.\n?- "

    def test_eof_terminates(self):
        assert self.run("", quiet=True) == "?- "


class TestOnePath:
    def test_later_answer_that_binds_nothing_prints_true(self):
        assert script("plus(X, 0, 0) ; succeed.\nNEXT") == (0, "X = 0 ;\ntrue.\n")
        assert script("plus(X, 0, 0) ; succeed.") == (0, "X = 0\n")

    def test_unexpected_character_reports_its_column(self):
        assert script("plus(1,\t?, 2).") == (1, "parse error at column 9: unexpected character '?'\n")
        assert script("isSuc(_a, X).") == (1, "parse error at column 7: unexpected character '_'\n")
        # Before the literal budget and before type errors, wherever it is.
        assert script("minus(1), ?.") == (1, "parse error at column 11: unexpected character '?'\n")
        assert script("isSuc(9000000, X), ?.") == (
            1, "parse error at column 20: unexpected character '?'\n")
        assert script("plus(__, X, 1).") == (1, "parse error at column 6: unexpected character '_'\n")
        assert script("isSuc(X,\u00a0Y) ?") == (1, "parse error at column 13: unexpected character '?'\n")
        assert script("isSuc(1\u00b2, X).") == (1, "parse error at column 8: unexpected character '\u00b2'\n")
        assert script("plus(X, Y, Z) \u00e9") == (
            1, "parse error at column 15: unexpected character '\u00e9'\n")

    @pytest.mark.parametrize("query, error", [
        ("isHead(1, X).", "type error: isHead/2 argument 1: expected list(nat), got integer 1"),
        ("plus(1, X, 2). x", "parse error at column 16: unexpected input after '.': 'x'"),
        ("\\+ .", "parse error at column 4: expected a predicate name, found '.'"),
        ("plus(a_b, X, 1).", "parse error at column 6: expected a term, found 'a_b'"),
        ("a_b.", "type error: unknown predicate a_b/0"),
        ("\u3000isSuc(\u2003X, Y) x", "parse error at column 14: expected '.', found 'x'"),
        ("isSuc(\u0663 \u0664, X).", "parse error at column 9: expected ')', found '\u0664'"),
        ("isHead(\u0663, X).", "type error: isHead/2 argument 1: expected list(nat), got integer 3"),
        ("isHead([1 | T | U], X).", "parse error at column 15: expected ']', found '|'"),
        ("isHead([1, 2", "parse error at column 13: expected ']', found 'end of input'"),
        ("minus(X), isSuc(X, Y)", "type error: unknown predicate minus/1"),
    ])
    def test_error_is_one_line_and_exit_1(self, query, error):
        assert script(query + "\nsucceed.") == (1, error + "\n")

    def test_answer_found_before_the_budget_ran_out_is_printed(self):
        # The budget runs out in the search for a second answer.
        assert script("append(L, L, L).", max_steps=3000) == (
            2, "L = []\nerror: step budget exhausted.\n")

    def test_compile_query_checks_the_literal_budget_first(self, monkeypatch):
        built = []
        monkeypatch.setattr(NAT, "from_int", lambda n: built.append(n))
        with pytest.raises(StepBudgetExceeded):
            compile_query("isSuc(500000, X).", REG, max_steps=10)
        assert built == []

    def test_the_literal_budget_comes_before_parse_and_type_errors(self):
        for query in ["minus(1), isSuc(9000000, X).", "isSuc(9000000, X), )."]:
            assert script(query) == (2, "error: step budget exhausted.\n")

    def test_a_budgeted_line_is_tokenized_once(self, monkeypatch):
        calls = []
        tokenize = repl_module._tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)
        monkeypatch.setattr(repl_module, "_tokenize", counting)
        assert script("plus(1, X, 5).\nleq(X, 1).\nNEXT", max_steps=1000) == (
            0, "X = 4.\nX = 0 ;\nX = 1.\n")
        assert calls == ["plus(1, X, 5).", "leq(X, 1)."]

    def test_registering_a_predicate_twice(self):
        with pytest.raises(LogicError, match="plus/3 already registered"):
            default_registry().register("plus", [NAT, NAT, NAT], plus)


class TestInteractivePrompts:
    def run(self, input_text):
        out = io.StringIO()
        repl(REG, stdin=io.StringIO(input_text), stdout=out, quiet=True)
        return out.getvalue()

    def test_other_answer_prompts_again(self):
        assert self.run("leq(X, 1).\nyes\n;\n:q\n") == (
            "?- X = 0\ntype ';' for the next solution or '.' to stop\nX = 0 ;\nX = 1.\n?- ")

    def test_stop_after_another_answer(self):
        assert self.run("leq(X, 1).\nyes\n.\n:q\n") == (
            "?- X = 0\ntype ';' for the next solution or '.' to stop\nX = 0\n?- ")

    def test_answer_shows_before_the_choice_is_read(self):
        out = io.StringIO()
        lines = ["leq(X, 1).\n", ";\n"]
        shown = []  # stdout at each read

        class RecordingStdin:
            def readline(self):
                shown.append(out.getvalue())
                return lines.pop(0) if lines else ""
        repl(REG, stdin=RecordingStdin(), stdout=out, quiet=True)
        assert shown == ["?- ", "?- X = 0", "?- X = 0 ;\nX = 1.\n?- "]

    def test_blank_query_line_is_skipped(self):
        assert self.run("\n  \nsucceed.\n:q\n") == "?- ?- ?- true.\n?- "


def _interrupt(v):
    raise KeyboardInterrupt


# `interrupt` stands for a ^C that arrives mid-search: the search raises
# KeyboardInterrupt when it reaches the goal.
INTERRUPTING = default_registry()
INTERRUPTING.register("interrupt", [], lambda: exists(NAT, _interrupt))


class Interrupting:
    """A stdin whose lines are given in order; None raises KeyboardInterrupt
    in place of a line, as ^C does at a read."""

    def __init__(self, *lines):
        self.lines = list(lines)

    def readline(self):
        line = self.lines.pop(0) if self.lines else ""
        if line is None:
            raise KeyboardInterrupt
        return line


class TestInterrupt:
    def run(self, *lines):
        out = io.StringIO()
        repl(INTERRUPTING, stdin=Interrupting(*lines), stdout=out, quiet=True)
        return out.getvalue()

    def test_interrupt_in_a_search_ends_the_query_not_the_session(self):
        assert self.run("interrupt.\n", "plus(1, X, 2).\n") == (
            "?- error: interrupted.\n?- X = 1.\n?- ")

    def test_interrupt_while_an_answer_is_open_ends_its_line(self):
        # The search for a next answer runs before the choice is read.
        assert self.run("plus(X, 0, 0) ; interrupt.\n", "succeed.\n") == (
            "?- X = 0\nerror: interrupted.\n?- true.\n?- ")

    def test_interrupt_at_the_choice_ends_the_query(self):
        assert self.run("leq(X, 1).\n", None, "plus(1, X, 2).\n") == (
            "?- X = 0\nerror: interrupted.\n?- X = 1.\n?- ")

    def test_interrupt_at_the_prompt_ends_the_session(self):
        assert self.run("plus(1, X, 2).\n", None, "succeed.\n") == "?- X = 1.\n?- \n"

    def test_script_prints_the_transcript_so_far_and_exits_130(self):
        text = "plus(1, X, 5).\nplus(X, 0, 0) ; interrupt.\nNEXT\nsucceed.\n"
        assert run_script_text(text, INTERRUPTING) == (
            130, "X = 4.\nX = 0\nerror: interrupted.\n")
