"""Checks of the benchmark itself: generation, oracle, runners, output.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's test run (the file name does not match
``test_*.py``) because it drives the benchmark end to end.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import oracle
import queries
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture
def tiny(monkeypatch):
    """Workloads shrunk so that every pass takes a fraction of a second."""
    monkeypatch.setattr(queries, "ENUMERATE_SIZES", (3, 6))
    monkeypatch.setattr(queries, "CHECK_PER_KIND", 1)
    monkeypatch.setattr(queries, "SCRIPT_LIST_SIZES", (2, 5))
    monkeypatch.setattr(queries, "SCRIPT_NUM_SIZES", (3, 9))
    monkeypatch.setattr(run, "TRACE_ROUNDS", {w: 1 for w in queries.WORKLOADS})


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = queries.first_rounds(workload, 7, 3)
    assert first == queries.first_rounds(workload, 7, 3)
    assert first != queries.first_rounds(workload, 8, 3)


def test_check_mix_is_about_half_false():
    qs = [q for r in queries.first_rounds("check", 3, 40) for q in r]
    false_share = sum(not oracle.holds(q) for q in qs) / len(qs)
    assert 0.35 < false_share < 0.65


class _Shim:
    """Stands in for a module of the program, overriding one function."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _solve_corrupted(api, corrupt):
    def solve(goal):
        return iter(corrupt(list(api.solve(goal))))
    return solve


@pytest.mark.parametrize("corrupt", [
    lambda sols: sols[:-1],                      # a missing answer
    lambda sols: sols + sols[-1:],               # an extra answer
    lambda sols: sols[::-1],                     # answers out of order
])
def test_enumerate_oracle_rejects_corrupted_answers(program, corrupt):
    q = queries.Query("append", ((1, 2, 3),))
    good = run.Recorder()
    run.run_enumerate(program, q, good)
    assert (good.queries, good.failed) == (1, 0)
    shim = dataclasses.replace(program, api=_Shim(
        program.api, solve=_solve_corrupted(program.api, corrupt)))
    bad = run.Recorder()
    run.run_enumerate(shim, q, bad)
    assert bad.failed == 1


def test_enumerate_oracle_rejects_a_wrong_value(program):
    def bump(sols):
        sol = sols[0]
        bindings = {vid: program.prelude.nat(5) for vid in sol.bindings}
        return [dataclasses.replace(sol, bindings=bindings)] + sols[1:]
    q = queries.Query("plus_split", (3,))
    shim = dataclasses.replace(program, api=_Shim(
        program.api, solve=_solve_corrupted(program.api, bump)))
    rec = run.Recorder()
    run.run_enumerate(shim, q, rec)
    assert rec.failed == 1


def test_check_oracle_rejects_a_flipped_answer(program):
    q = queries.Query("lt", (2, 5))
    rec = run.Recorder()
    run.run_check(program, q, rec)
    assert rec.failed == 0
    shim = dataclasses.replace(program, api=_Shim(
        program.api, holds=lambda goal: not program.api.holds(goal)))
    run.run_check(shim, q, rec)
    assert rec.failed == 1


def test_check_counts_an_exception_as_failed(program):
    def explode(goal):
        raise RecursionError("maximum recursion depth exceeded")
    rec = run.Recorder()
    shim = dataclasses.replace(program, api=_Shim(program.api, holds=explode))
    run.run_check(shim, queries.Query("leq", (1, 2)), rec)
    assert (rec.queries, rec.failed) == (1, 1)


def test_script_oracle_rejects_one_changed_byte(program):
    session = [queries.Query("member", ((4, 5, 6),), more=1),
               queries.Query("leq", (3, 2))]
    rec = run.Recorder()
    run.run_script(program, session, rec)
    assert (rec.queries, rec.failed) == (2, 0)

    def repl(**kwargs):
        real = io.StringIO()
        program.repl.repl(**dict(kwargs, stdout=real))
        kwargs["stdout"].write(real.getvalue().replace("X = 4 ;", "X = 4 ,"))
    shim = dataclasses.replace(program, repl=_Shim(program.repl, repl=repl))
    bad = run.Recorder()
    run.run_script(shim, session, bad)
    assert bad.failed == 1


def test_repl_exchange_asks_for_further_answers():
    q = queries.Query("plus_split", (2,), more=1)
    typed, text = oracle.repl_exchange(q)
    assert typed == ["plus(A, B, 2).", ";", "."]
    assert text == "?- A = 0, B = 2 ;\nA = 1, B = 1\n"
    q = queries.Query("plus_split", (1,), more=3)
    assert oracle.repl_exchange(q) == (["plus(A, B, 1).", ";"],
                                       "?- A = 0, B = 1 ;\nA = 1, B = 0.\n")


def test_scaling_undoes_a_slow_machine():
    slow = run.Recorder(requests=[0.004, 0.006], firsts=[0.004], queries=1, busy=0.010,
                        kernel=[2 * calibrate.REFERENCE_S] * 3)
    fast = run.scaled(slow)
    assert fast.requests == pytest.approx([0.002, 0.003])
    assert fast.firsts == pytest.approx([0.002])
    assert fast.busy == pytest.approx(0.005)


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_smoke_every_workload_untraced_and_traced(program, tiny, workload):
    rec = run.merged(run.closed_loop(program, workload, 5, 0.2))
    assert rec.queries >= 1 and rec.failed == 0, rec.errors
    assert len(rec.requests) >= len(rec.firsts) >= 1
    terms = sys.modules["typelog.terms"]
    unify = terms.unify
    total, metrics, _ = run.traced(program, workload, 5, 0.0)
    assert total.failed == 0, total.errors
    assert terms.unify is unify, "tracer left a wrapper installed"
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["terms.unify.calls"][0] > 0
    assert metrics["solve.answers"][0] > 0
    assert 0.9 < metrics["trace.covered_share"][0] <= 1.0


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_command_prints_every_end_to_end_metric():
    done = _bench(run.ROOT, "--workload", "check", "--seed", "2", "--seconds", "0.3",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    info = json.loads(done.stdout.splitlines()[-2])["info"]
    assert info["src_loc"] > 0 and info["seed"] == 2 and info["python"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--workload", "check", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
