import io

import pytest

from typelog.cli import main
from typelog.goals import Conj, Disj
from typelog.prelude import NAT, NAT_LIST, nat, nat_list
from typelog.repl import (
    QueryParseError,
    QueryTypeError,
    compile_query,
    default_registry,
    parse_term,
    repl,
    run_script_text,
)
from typelog.terms import Var, VarId


REG = default_registry()


def script(text, **kwargs):
    return run_script_text(text, REG, **kwargs)


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


class TestCli:
    def test_script_flag(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("plus(1, X, 5).\n")
        assert main(["--script", str(f)]) == 0
        assert capsys.readouterr().out == "X = 4.\n"

    def test_missing_script_exit_3(self, tmp_path, capsys):
        assert main(["--script", str(tmp_path / "absent.txt")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_max_steps_flag(self, tmp_path, capsys):
        f = tmp_path / "queries.txt"
        f.write_text("plus(A, 1, C), fail.\n")
        assert main(["--script", str(f), "--max-steps", "200"]) == 2


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

    def test_eof_terminates(self):
        assert self.run("", quiet=True) == "?- "
