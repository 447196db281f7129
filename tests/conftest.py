import re

_CRITERIA = {
    1: "transcript replay (byte-exact script output)",
    2: "cut and negation suite",
    3: "unification property suite (>= 1000 random pairs)",
    4: "solver equivalence with eager reference on ground domains",
    5: "laziness and relational checks",
    6: "derived capabilities match hand-written, depth <= 4",
    7: "pretty/parse round-trip",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "seeded: a property that CI reruns under fixed hypothesis seeds")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, keyed off the
    test_criterion_<n>_* tests in test_acceptance.py."""
    outcomes = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m:
                n = int(m.group(1))
                outcomes[n] = outcomes.get(n, True) and ok
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for n in sorted(_CRITERIA):
        verdict = "PASS" if outcomes.get(n, False) else "FAIL"
        terminalreporter.write_line(f"  criterion {n} ({_CRITERIA[n]}): {verdict}")
