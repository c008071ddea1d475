"""capplan's reference solver with its internals traced.

The solver command of traced benchmark runs.  It wraps the reference
solver's reader, translator, search and theory check (tracing.py), runs
capplan.refsolver.main() on stdin/stdout unchanged, and at exit appends
one JSON line with its spans and counts to the file named by the
CAPPLAN_BENCH_SOLVER_LOG environment variable, tagged with the request id
from CAPPLAN_BENCH_REQUEST.
"""

import json
import os
import sys

from capplan import refsolver

from tracing import REQUEST_ENV, SOLVER_LOG_ENV, Tracer, install_solver


def main() -> int:
    tracer = Tracer(request=os.environ.get(REQUEST_ENV))
    install_solver(tracer)
    try:
        return refsolver.main()
    finally:
        record = {"request": tracer.request, "spans": tracer.spans,
                  "counts": dict(tracer.counts)}
        with open(os.environ[SOLVER_LOG_ENV], "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
