"""One fresh interpreter: a `girard-lab` invocation, or the reference checks.

    python3 -I perfbench/child.py SRC_DIR run ARGV...     # one timed invocation
    python3 -I perfbench/child.py SRC_DIR trace ARGV...   # the same, layers traced
    python3 -I perfbench/child.py SRC_DIR check SPECS_JSON
    python3 -I perfbench/child.py SRC_DIR import          # warm-up: import only
    python3 -I perfbench/child.py SRC_DIR calibrate       # the speed yardstick

`run` times `import girardlab.cli` (setup_s) and the call to `main(ARGV)`
up to its return (main_s), as a CLI user pays for them, reads the
process's peak resident set, and exits with main's return code.  `trace`
wraps the layers (tracer.py) after the import and before the call.
main's output goes to stdout unchanged; the measurement is a line of
stderr prefixed with "PERFBENCH ", written even when main raises.  `check` runs
checks.reference_problems on each item's specs and reports one list of
problems per item the same way.  `calibrate` times `calibrate()` without
importing girardlab.
"""

import gc
import json
import resource
import sys
import time
from pathlib import Path

MARK = "PERFBENCH "


def calibrate() -> float:
    """Seconds taken by a fixed loop that allocates 40k small tuples and
    looks them up in a 20k-entry dict, in a fresh interpreter.

    It is the yardstick for the machine's speed at the moment.  Like a
    girard-lab invocation it grows a fresh heap by megabytes, so it slows
    down with the same memory contention from other tenants; a loop over
    a small table, or one on a warm heap, did not (see README.md).  It
    runs in its own process so that it does not add to the peak resident
    set of the invocation it calibrates.
    """
    gc.disable()
    started = time.perf_counter()
    items = [((i * 7919) % 20011, (i, -i)) for i in range(40000)]
    table = dict(items)
    total = 0
    for key, _ in reversed(items):
        total += table[key][0]
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


def _emit(payload: dict) -> None:
    sys.stdout.flush()
    print(MARK + json.dumps(payload), file=sys.stderr)


def main() -> int:
    src, mode, *rest = sys.argv[1:]
    if mode == "calibrate":
        _emit({"calibration_s": calibrate()})
        return 0
    sys.path.insert(0, src)
    started = time.perf_counter()
    import girardlab.cli

    setup_s = time.perf_counter() - started
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    if mode == "import":
        return 0
    if mode == "check":
        import checks

        _emit({"problems": [checks.reference_problems(specs) for specs in json.loads(rest[0])]})
        return 0

    tracer = None
    run = girardlab.cli.main
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.timed(run, "cli.overhead_ms", True)
    started = time.perf_counter()
    try:
        return run(rest)
    finally:  # measured even when main() raises, which then exits 1
        payload = {
            "setup_s": setup_s,
            "main_s": time.perf_counter() - started,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            payload["layers"] = tracer.metrics()
            payload["spans"] = tracer.spans
        _emit(payload)


if __name__ == "__main__":
    sys.exit(main())
