"""Run one `abstain-audit` CLI invocation with the outside-in tracer on.

    python3 perfbench/launcher.py SPANS_JSON RUN_ID <cli arguments...>

Installs the wrappers from `tracer.py`, calls `abstain_audit.cli.main` inside
a root span `cli.main`, writes the spans to SPANS_JSON when the command
returns, and exits with the command's exit code.  The package must be
importable (the benchmark puts `src/` on PYTHONPATH).
"""

import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    from abstain_audit import cli

    code = None
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        # preprocessing fetched but never consumed, per session
        leftover = [len(s._auth_pool) + len(s._triple_pool)
                    for s in tracer.sessions]
        tracer.dump(spans_path, {"exit_code": code, "leftover": leftover})
    return code


if __name__ == "__main__":
    sys.exit(main())
