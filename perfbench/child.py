"""One benchmark command: the fidte CLI run in a fresh interpreter.

usage: python3 perfbench/child.py RESULT_JSON TRACE -- FIDTE_ARGS...

Times the import of ``fidte.cli``, installs the tracer (every layer point
when TRACE is 1, otherwise only the few points the end-to-end metrics need),
runs ``fidte.cli.main(FIDTE_ARGS)`` and writes RESULT_JSON with the exit code,
the import time, the peak resident memory and the recorded spans.  A
``RuntimeError`` from the run (the sampler's divergence signal) is recorded
and turned into exit code 3.
"""

from __future__ import annotations

import json
import resource
import sys
import time

DIVERGED = 3


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit(__doc__)
    out_path, trace = argv[0], argv[1] == "1"
    start = time.monotonic()
    import fidte.cli

    import_s = time.monotonic() - start
    from tracer import FULL_POINTS, MINIMAL_POINTS, Tracer

    tracer = Tracer()
    tracer.install(FULL_POINTS if trace else MINIMAL_POINTS)
    error = None
    try:
        rc = fidte.cli.main(argv[3:])
    except RuntimeError as e:
        error, rc = f"RuntimeError: {e}", DIVERGED
    finally:
        tracer.restore()
    spans = tracer.spans
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    result = {
        "rc": rc,
        "error": error,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "names": names,
        "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
