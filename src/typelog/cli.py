"""Command-line front end.

Exit codes: 0 success, 1 parse/type error, 2 step budget exhausted or
a usage error (a bad option, such as a negative ``--max-steps``: the
usage line goes to stderr), 3 script unreadable (I/O error or not
UTF-8), 130 script interrupted (^C, `KeyboardInterrupt`, while a query
ran: the transcript so far and ``error: interrupted.`` are printed).
An interactive session answers an interrupt during a query with
``error: interrupted.`` and prompts again; at the prompt, it ends the
session with exit 0.  Term size and search depth are bounded only by
memory and the step budget.  With no budget, the interactive default,
a literal's numeral is built in full, at about 120 bytes a node, so
``isSuc(100000000000, X).`` runs out of memory; ``--max-steps`` refuses
a query whose literals sum to more than it before building anything.
"""

from __future__ import annotations

import argparse
import sys

from .repl import DEFAULT_SCRIPT_BUDGET, repl, run_script


def _step_budget(text: str) -> int:
    """The value of ``--max-steps``: an integer of 0 or more."""
    try:
        steps = int(text)
    except ValueError:
        steps = None
    if steps is None or steps < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")
    return steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repl",
        description="Interactive logic-programming REPL over the bundled "
                    "natural-number and list predicates.",
    )
    parser.add_argument("--script", metavar="FILE",
                        help="run queries from FILE (one per line, 'NEXT' "
                             "requests the next solution) instead of "
                             "starting an interactive session")
    parser.add_argument("--max-steps", type=_step_budget, metavar="N", default=None,
                        help="bound on solver node expansions per query, "
                             "and on the sum of its integer literals: a "
                             "query over it is not run (default: unlimited "
                             "interactively, 1e6 in script mode)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the startup banner")
    args = parser.parse_args(argv)

    if args.script is not None:
        budget = args.max_steps if args.max_steps is not None else DEFAULT_SCRIPT_BUDGET
        try:
            return run_script(args.script, max_steps=budget)
        except (OSError, UnicodeDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 3
    repl(max_steps=args.max_steps, quiet=args.quiet)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
