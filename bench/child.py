"""Run one ``dualthresh`` command the way the console script does, timed.

Usage: child.py TIMING_JSON TRACE_JSON|- [dualthresh arguments...]

Imports ``dualthresh.cli``, marks the time, calls ``cli.main(argv)`` and
marks the time again; both marks go to TIMING_JSON on the same monotonic
clock the parent used to stamp the spawn, so the parent can split wall
time into start-up and run time. With a TRACE_JSON path the span
recorder is installed after the import and its spans are written there;
with ``-`` the recorder is never imported.
"""

import json
import sys
import time


def main() -> int:
    timing_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import dualthresh.cli as cli

    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.Tracer()
        recorder.install()

    main_start = time.monotonic()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    main_end = time.monotonic()

    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "main_start": main_start,
                "main_end": main_end,
                "rc": rc,
                "package": cli.__file__,
                "tracer_loaded": "tracer" in sys.modules,
            },
            fh,
        )
    if recorder is not None:
        recorder.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
