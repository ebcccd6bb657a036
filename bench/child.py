"""One measured invocation of the grpoagg command line, in its own process.

    python3 child.py SRC_DIR RESULT_JSON TRACE -- CLI_ARGS...

Imports ``grpoagg`` from SRC_DIR (timed: the set-up every CLI call pays),
calls ``grpoagg.cli.main(CLI_ARGS)`` (timed), and writes the timings, the
exit code and the peak resident set size to RESULT_JSON. With TRACE 1 the
layer spans are installed before the call and written to RESULT_JSON too.
The program's own output goes to this process's stdout and stderr.

The child also times a fixed calibration task, three times before the
import and three times after the call, on the same CPU as the program.
The runner scales every time by it, because the shared host's speed
changes by up to 1.9x over seconds (see NOTES.md).
"""

import gc
import json
import math
import os
import resource
import sys
import time

CALIBRATION_REPEATS = 3
_CALIBRATION_TEXT = json.dumps(
    [[1.0 + 0.001 * ((i * 7919 + j * 104729) % 997) for j in range(50)] for i in range(1000)]
)


def calibrate() -> float:
    """Seconds for a fixed JSON-decode and float-loop task, the program's mix."""
    gc.disable()
    try:
        start = time.perf_counter()
        for row in json.loads(_CALIBRATION_TEXT):
            math.fsum(min(r * 1.3, min(max(r, 0.8), 1.28) * 1.3) for r in row)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    src, result_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR RESULT_JSON TRACE -- CLI_ARGS...")
    calibration = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import grpoagg.cli
    setup_s = time.perf_counter() - start
    if not os.path.realpath(grpoagg.__file__).startswith(src + os.sep):
        raise SystemExit(f"grpoagg imported from {grpoagg.__file__}, not from {src}")

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.install()
    start = time.perf_counter()
    rc = grpoagg.cli.main(cli_args)
    wall_s = time.perf_counter() - start
    sys.stdout.flush()
    calibration += [calibrate() for _ in range(CALIBRATION_REPEATS)]
    result = {
        "rc": rc,
        "calibration_s": calibration,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.records
        result["absent"] = tracer.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
