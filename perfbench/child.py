"""One fresh process of the benchmark.

Usage: python3 perfbench/child.py '<json spec>'

The spec holds ``spawned`` (the parent's ``time.monotonic()`` just before
it started this process), ``mode`` (setup, plain, spans or counts),
``warm`` (the (q, n) pairs whose field and group context the engine needs
before its first layer call), ``argv`` (the CLI arguments) and, for the
traced modes, ``trace_out`` and ``meta``.  The process sets the engine up,
runs ``drinfeldforms.cli.main(argv)`` once unless the mode is ``setup``,
and prints its measurements as one JSON line.  It times calibration slices
(``calibrate.py``) after set-up and after the command, in this process,
because the host's two cores do not always run at the same speed.
"""

import json
import os
import resource
import statistics
import sys
import time

import calibrate


def _cpu_s():
    """CPU seconds of this process and of every child process it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main():
    spec = json.loads(sys.argv[1])
    import drinfeldforms
    import drinfeldforms.cli

    rec = None
    if spec["mode"] in ("spans", "counts"):
        import tracing

        rec = tracing.install(counters=spec["mode"] == "counts")
    for q, n in spec["warm"]:
        drinfeldforms.fq.field(q)
        drinfeldforms.groups.group_context(q, n)
    setup_s = time.monotonic() - spec["spawned"]
    report = {"module": os.path.abspath(drinfeldforms.__file__), "setup_s": setup_s}
    slices = calibrate.slices(calibrate.SLICES_PER_SIDE)
    if spec["mode"] != "setup":
        main_fn = drinfeldforms.cli.main
        if rec is not None:
            main_fn = rec.span("cli.main", main_fn)
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        rc = main_fn(spec["argv"])
        report["wall_s"] = time.perf_counter() - wall0
        report["cpu_s"] = _cpu_s() - cpu0
        report["rc"] = rc
        slices += calibrate.slices(calibrate.SLICES_PER_SIDE)
        if rec is not None:
            rec.dump(spec["trace_out"], spec["meta"])
    report["calib_s"] = statistics.median(slices)
    # the largest resident set of this process or of any process it waited for
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    report["peak_rss_mb"] = peak_kb / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
