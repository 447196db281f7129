"""typelog benchmark: seeded workloads against the public API and the REPL.

    python3 perfbench/run.py --workload {enumerate,check,script} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the run stops with exit code 2 if it is not there.

One client in one thread sends queries in a closed loop for ``--seconds``
seconds: the next query starts when the previous one has finished.
Every answer is checked against `oracle`, which does not use the engine.
A query fails on a wrong, missing or extra answer, on any exception, or
on REPL output that is not byte-exact; the result counts it in `failed`.

A *request* is one call the user waits on: building the goal plus the
first ``next()`` on the answer stream, each further ``next()`` (the last,
answerless one too), a whole ``holds()`` query, or one line fed to the
REPL, timed from the ``readline`` that returns it to the REPL's next
``readline`` call.  A query's *first answer* is its first request.

``--trace 0`` prints the end-to-end metrics.  Their timings are scaled
to a reference machine speed, because the machine's own speed drifts
with other load on the host (see `calibrate`): the calibration kernel is
sampled after every CALIBRATE_EVERY_S of busy time, the timings taken
between two samples are scaled by the mean of those two, and percentiles
are taken over all scaled samples of the run.  The unscaled figures are
in the informational line.

``--trace 1`` runs a fixed batch (the seed's first rounds) alternately
untraced and traced with the `layers` spans installed, and prints
per-layer totals for one batch, each the median over the pairs run.

The last line of standard output is the result object; the line before
it holds informational fields (``src_loc``, Python version, commit,
seed, sample counts) that are not gated.

The benchmark's own checks run with ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List

import calibrate
import layers
import oracle
import queries
from queries import Query

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 15
# Busy time between two samples of the calibration kernel.
CALIBRATE_EVERY_S = 0.05
# Rounds in the traced batch: at least 50 queries, and few enough that an
# untraced and a traced pass over the batch together fit in one run.
TRACE_ROUNDS = {"enumerate": 1, "check": 12, "script": 6}

# Runs in a fresh interpreter: samples the calibration kernel, then times
# the set-up, and prints the set-up time scaled to the reference speed.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import calibrate
kernel = []
for _ in range(5):
    calibrate.sample(kernel)
t0 = time.perf_counter()
import typelog, typelog.cli
typelog.repl.default_registry()
took = time.perf_counter() - t0
sys.stdout.write(repr(took * calibrate.REFERENCE_S / sorted(kernel)[2]))
"""

clock = time.perf_counter


class ProgramMissing(Exception):
    pass


@dataclass
class Program:
    """The modules under test; functions are looked up on them at call
    time so that traced runs see the installed wrappers."""

    api: object
    prelude: object
    repl: object
    compound: type


def load_program(root: Path = ROOT) -> Program:
    package = root / "src" / "typelog"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no typelog package under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))
    import typelog
    import typelog.prelude
    import typelog.repl
    if Path(typelog.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"typelog was imported from {typelog.__file__}")
    return Program(typelog, sys.modules["typelog.prelude"],
                   sys.modules["typelog.repl"], typelog.Compound)


@dataclass
class Recorder:
    """Samples and outcomes of some queries, in seconds, plus the
    calibration kernel's timings taken between them."""

    requests: List[float] = field(default_factory=list)
    firsts: List[float] = field(default_factory=list)
    queries: int = 0
    failed: int = 0
    busy: float = 0.0
    errors: List[str] = field(default_factory=list)
    kernel: List[float] = field(default_factory=list)

    def fail(self, q: Query, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{q.kind}{q.args!r}"[:120] + f": {why}"[:300])


# --- the three workloads ---------------------------------------------------

ENUMERATE_GOALS: Dict[str, Callable] = {
    "append": lambda p, xs: p.append_list("X", "Y", xs),
    "member": lambda p, xs: p.member("X", xs),
    "plus_split": lambda p, n: p.plus("A", "B", n),
    "plus_double": lambda p, n: p.plus(n, "B", 2 * n),
    "list_plus_one": lambda p, xs: p.list_plus_one(xs, "M"),
}

CHECK_GOALS: Dict[str, Callable] = {
    "plus": lambda p, a, b, c: p.plus(a, b, c),
    "lt": lambda p, a, b: p.lt(a, b),
    "leq": lambda p, a, b: p.leq(a, b),
    "remainder": lambda p, n, q, r: p.remainder(n, q, r),
    "sorted": lambda p, xs: p.sorted_nat(xs),
    "not_member": lambda p, x, xs: p.not_member(x, xs),
    "list_plus_one": lambda p, xs, ys: p.list_plus_one(xs, ys),
}


def run_enumerate(program: Program, q: Query, rec: Recorder) -> None:
    """Drain solve() on one query, timing every next()."""
    rec.queries += 1
    sols = []
    try:
        t = clock()
        stream = program.api.solve(ENUMERATE_GOALS[q.kind](program.prelude, *q.args))
        while True:
            sol = next(stream, None)
            now = clock()
            rec.requests.append(now - t)
            rec.busy += now - t
            if not sols:
                rec.firsts.append(now - t)
            if sol is None:
                break
            sols.append(sol)
            t = clock()
        got = [{vid.name: oracle.decode(term, program.compound)
                for vid, term in sol.bindings.items()} for sol in sols]
    except Exception as err:  # any escape from the engine is a failed query
        rec.fail(q, f"{type(err).__name__}: {err}")
        return
    why = oracle.first_mismatch(oracle.answers(q), got)
    if why is not None:
        rec.fail(q, why)


def run_check(program: Program, q: Query, rec: Recorder) -> None:
    """One holds() query: a single request."""
    rec.queries += 1
    try:
        start = clock()
        result = program.api.holds(CHECK_GOALS[q.kind](program.prelude, *q.args))
        took = clock() - start
    except Exception as err:  # any escape from the engine is a failed query
        rec.fail(q, f"{type(err).__name__}: {err}")
        return
    rec.requests.append(took)
    rec.firsts.append(took)
    rec.busy += took
    if result is not oracle.holds(q):
        rec.fail(q, f"holds() returned {result!r}")


class ScriptedStdin:
    """Feeds fixed lines to the REPL and timestamps each readline call
    (`calls`) and the moment it hands a line over (`handed`)."""

    def __init__(self, lines: List[str]):
        self._lines = lines
        self.calls: List[float] = []
        self.handed: List[float] = []

    def readline(self) -> str:
        self.calls.append(clock())
        i = len(self.handed)
        if i == len(self._lines):
            return ""
        self.handed.append(clock())
        return self._lines[i] + "\n"


def run_script(program: Program, session: List[Query], rec: Recorder) -> None:
    """One REPL session over the queries of a round; output must match
    the oracle's transcript byte for byte."""
    rec.queries += len(session)
    exchanges = [oracle.repl_exchange(q) for q in session]
    lines: List[str] = []
    query_lines = set()
    for typed, _ in exchanges:
        query_lines.add(len(lines))
        lines += typed
    stdin, out = ScriptedStdin(lines), io.StringIO()
    start = clock()
    try:
        program.repl.repl(quiet=True, stdin=stdin, stdout=out)
    except Exception as err:  # any escape from the REPL fails the session
        for q in session:
            rec.fail(q, f"{type(err).__name__}: {err}")
        return
    finally:
        rec.busy += clock() - start
    for i in range(min(len(stdin.handed), len(stdin.calls) - 1)):
        took = stdin.calls[i + 1] - stdin.handed[i]
        rec.requests.append(took)
        if i in query_lines:
            rec.firsts.append(took)
    expected = [text for _, text in exchanges] + ["?- "]
    got = ["?- " + part for part in out.getvalue().split("?- ")[1:]]
    if len(got) != len(expected):
        for q in session:
            rec.fail(q, f"transcript has {len(got)} prompts, expected {len(expected)}")
        return
    for q, want, have in zip(session, expected, got):
        if want != have:
            rec.fail(q, f"REPL printed {have!r}, expected {want!r}")


RUNNERS = {"enumerate": run_enumerate, "check": run_check, "script": run_script}


def units(workload: str, rounds) -> Iterator:
    """What a runner takes: single queries, or a whole round as one
    REPL session."""
    for r in rounds:
        if workload == "script":
            yield r
        else:
            yield from r


def paced(seconds: float, items: Iterator) -> Iterator:
    """The first item, then further ones while the work done so far says
    the next will be finished within `seconds` of the start."""
    start = clock()
    done = 0
    while not done or (clock() - start) * (done + 1) / done <= seconds:
        yield next(items)
        done += 1


def closed_loop(program: Program, workload: str, seed: int, seconds: float) -> List[Recorder]:
    """Whole rounds back to back; returns the calibration windows."""
    rounds = paced(seconds, queries.rounds(workload, seed))
    return run_batch(program, workload, units(workload, rounds))


def run_batch(program: Program, workload: str, batch: Iterable) -> List[Recorder]:
    """Run the units in order; returns one Recorder per window between
    two calibration samples, holding both samples."""
    windows = [Recorder()]
    runner = RUNNERS[workload]
    calibrate.sample(windows[-1].kernel)
    for unit in batch:
        rec = windows[-1]
        runner(program, unit, rec)
        if rec.busy >= CALIBRATE_EVERY_S:
            calibrate.sample(rec.kernel)
            windows.append(Recorder(kernel=rec.kernel[-1:]))
    return windows


# --- metrics -----------------------------------------------------------------

def p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return max(samples)
    return statistics.quantiles(samples, n=10)[-1]


def setup_seconds(root: Path) -> List[float]:
    """Import time of typelog and its CLI plus building the REPL's
    predicate registry, in fresh interpreters, scaled to the reference
    speed; one untimed run first writes the bytecode cache."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(root / "src"),
           str(Path(calibrate.__file__).parent)]
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              check=True, timeout=60)
        if i:
            times.append(float(done.stdout))
    return times


def scaled(rec: Recorder) -> Recorder:
    """The window's timings as they would read on the calibration's
    reference machine."""
    f = calibrate.REFERENCE_S / statistics.median(rec.kernel)
    return replace(rec, requests=[x * f for x in rec.requests],
                   firsts=[x * f for x in rec.firsts], busy=rec.busy * f)


def merged(recs: List[Recorder]) -> Recorder:
    total = Recorder()
    for rec in recs:
        total.requests += rec.requests
        total.firsts += rec.firsts
        total.queries += rec.queries
        total.failed += rec.failed
        total.busy += rec.busy
        total.errors += rec.errors
        total.kernel += rec.kernel
    return total


def timings(rec: Recorder) -> Dict[str, tuple]:
    ms = 1000.0
    return {
        "queries_per_s": (rec.queries / rec.busy, "1/s"),
        "answer_ms_p50": (statistics.median(rec.requests) * ms, "ms"),
        "answer_ms_p90": (p90(rec.requests) * ms, "ms"),
        "first_answer_ms_p50": (statistics.median(rec.firsts) * ms, "ms"),
        "first_answer_ms_p90": (p90(rec.firsts) * ms, "ms"),
    }


def end_to_end(program: Program, workload: str, seed: int, seconds: float):
    setup = setup_seconds(ROOT)
    windows = closed_loop(program, workload, seed, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = merged(windows)
    metrics = {"setup_s": (statistics.median(setup), "s"),
               **timings(merged([scaled(w) for w in windows])),
               "peak_rss_mb": (peak_kb / 1024.0, "MB")}
    info = {"windows": len(windows), "requests": len(total.requests),
            "first_answers": len(total.firsts), "busy_s": total.busy,
            "kernel_ms_median": statistics.median(total.kernel) * 1000.0,
            "unscaled": timings(total), "setup_s_runs": setup}
    return total, metrics, info


def layer_metrics(tracer: layers.Tracer, traced: Recorder, plain: Recorder) -> Dict[str, tuple]:
    """Per-layer figures of one traced pass over the batch."""
    stats, counts = tracer.stats, tracer.counts
    out = {}
    for layer in ("terms.occurs_in", "terms.resolve", "terms.bind", "terms.unify",
                  "terms.walk", "terms.pretty", "derive.make", "goals.build",
                  "prelude.predicate", "repl.compile_query", "repl.format_solution"):
        calls, self_s = stats[layer]
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_ms"] = (self_s * 1000.0, "ms")
    binds = stats["terms.bind"][0]
    unifies = stats["terms.unify"][0]
    compile_ms = stats["repl.compile_query"][1] * 1000.0
    out.update({
        "terms.bind.store_len_mean": (counts["bind_store_len_sum"] / binds if binds else 0.0, "count"),
        "terms.bind.store_len_max": (counts["bind_store_len_max"], "count"),
        "terms.unify.clash_share": (counts["unify_clashes"] / unifies if unifies else 0.0, "share"),
        "derive.capability.lookups": (counts["capability_lookups"], "count"),
        "prelude.convert.self_ms": (stats["prelude.convert"][1] * 1000.0, "ms"),
        "solve.stream.self_ms": (stats["solve.stream"][1] * 1000.0, "ms"),
        "solve.answers": (counts["answers"], "count"),
        "repl.compile_query.chars_per_ms": (
            counts["compiled_chars"] / compile_ms if compile_ms else 0.0, "chars/ms"),
        "trace.overhead_ratio": (traced.busy / plain.busy, "ratio"),
        "trace.covered_share": (tracer.covered / traced.busy, "share"),
    })
    return out


def medians(per_pair: List[Dict[str, tuple]]) -> Dict[str, tuple]:
    return {name: (statistics.median(p[name][0] for p in per_pair), unit)
            for name, (_, unit) in per_pair[0].items()}


def traced(program: Program, workload: str, seed: int, seconds: float):
    """Alternate untraced and traced passes over the batch until the time
    is up (at least one pair); report each figure's median over pairs."""
    batch = list(units(workload, queries.first_rounds(workload, seed, TRACE_ROUNDS[workload])))
    passes: List[Recorder] = []

    def pair() -> Dict[str, tuple]:
        plain = merged(run_batch(program, workload, batch))
        tracer = layers.Tracer()
        tracer.install()
        try:
            with_spans = merged(run_batch(program, workload, batch))
        finally:
            tracer.uninstall()
        passes.extend((plain, with_spans))
        return layer_metrics(tracer, with_spans, plain)
    pairs = list(paced(seconds, (pair() for _ in itertools.count())))
    return merged(passes), medians(pairs), {"pairs": len(pairs), "batch_queries": passes[0].queries}


# --- informational fields ------------------------------------------------

def source_fields(root: Path) -> dict:
    files = sorted((root / "src" / "typelog").rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        loc += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"src_loc": loc, "src_sha256": digest.hexdigest()[:16], "commit": commit,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = load_program(ROOT)
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    rec, metrics, info = measure(program, args.workload, args.seed, args.seconds)
    info.update(source_fields(ROOT), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, queries=rec.queries,
                failed_share=rec.failed / rec.queries, errors=rec.errors)
    for line in rec.errors:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.queries,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
