"""One fresh benchmark process: set up, run the case list twice, report.

Started by ``run.py``.  The first pass is cold (``wall_s``), the
second runs the same case list in the same process (``warm_wall_s``).  With
``--trace`` the library is wrapped in spans first and the per-layer metrics
of the cold pass are reported too.  The last stdout line is one JSON object.

The speed of a shared host drifts by a fifth and more within seconds, and a
process sees it in both wall and CPU time.  So a fixed reference workload
(``probe``) is timed at the start and end of each pass and, from a timer
signal, every ``PROBE_PERIOD_S`` seconds during it.  Each stretch of case
time between two probes is scaled by ``NOMINAL_PROBE_S`` over the mean of
those two probes' times.  ``wall_s`` and ``warm_wall_s`` are these scaled
times: seconds on a host where the probe takes ``NOMINAL_PROBE_S``.  Probe
time is never counted as case time.  The unscaled ``perf_counter`` times
are reported as ``raw_wall_s`` and ``raw_warm_wall_s``.  Traced passes are
probed only at their ends, so that no probe falls inside a span.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MAX_WITNESSES = 5
NOMINAL_PROBE_S = 0.010  # probe time that scaled seconds refer to
PROBE_PERIOD_S = 0.25
SPEED_PROBES = 5  # probes timed after set-up


def _probe_work():
    """Fraction arithmetic, tuple-keyed dict stores and a sort: the kind of
    interpreter and allocator work the workloads do, on no airycheck code."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 2000):
        x = Fraction(i % 13 + 1, i % 7 + 1)
        acc = acc * x + Fraction(i % 5, 3) if i % 4 else x
        table[i % 31, i % 7] = [acc, i]
    return sorted(table, key=lambda k: table[k][1])


class Speedometer:
    """Probe start and end times of one pass."""

    def __init__(self):
        self.marks = []

    def probe(self, *_signal_args):
        """Time the reference workload now, with the collector off so that
        the program's heap does not enter the measurement."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _probe_work()
        self.marks.append((t0, perf_counter()))
        if enabled:
            gc.enable()

    def run(self, fn, periodic):
        """``fn()`` probed at both ends, and every ``PROBE_PERIOD_S`` if
        ``periodic``; returns (its result, raw seconds, scaled seconds)."""
        self.marks = []
        self.probe()
        if periodic:
            old = signal.signal(signal.SIGALRM, self.probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            result = fn()
        finally:
            if periodic:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self.probe()
        return (result, *scale(self.marks))


def scale(marks):
    """(raw, scaled) seconds between consecutive probes, given the probes'
    ``(start, end)`` times."""
    raw = scaled = 0.0
    for (s0, e0), (s1, e1) in zip(marks, marks[1:]):
        raw += s1 - e0
        scaled += (s1 - e0) * 2 * NOMINAL_PROBE_S / (e0 - s0 + e1 - s1)
    return raw, scaled


def run_pass(cases):
    """Run every case once; returns the witnesses of failed cases."""
    failures = []
    for label, thunk in cases:
        try:
            witness = thunk()
        except Exception as exc:  # a raising case is a failed case
            witness = f"{type(exc).__name__}: {exc}"
        if witness is not None:
            failures.append(f"{label}: {witness}")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--canary", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if "AIRY_CACHE_DIR" in os.environ:
        sys.exit("AIRY_CACHE_DIR is set: an on-disk table cache would carry results between runs")
    import airycheck

    if Path(airycheck.__file__).resolve().parent != ROOT / "src" / "airycheck":
        sys.exit(f"airycheck imported from {airycheck.__file__}, not from this checkout")
    import tracer
    import workloads

    cases = workloads.build(args.workload, args.seed, canary=args.canary)
    ready = perf_counter()
    # the host's speed just after set-up, which run.py scales set-up by
    speed = Speedometer()
    for _ in range(SPEED_PROBES):
        speed.probe()
    out = {"ready": ready, "seed": args.seed, "cases": len(cases),
           "setup_probe_s": statistics.median(e - s for s, e in speed.marks)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tr = tracer.Tracer().install() if args.trace else None
    caches_before = tracer.cache_counts()
    gc.collect()
    cold_fail, cold_raw, cold_s = speed.run(lambda: run_pass(cases), tr is None)
    if tr is not None:
        cold_end, fibers = tr.mark(), tr.fibers
    gc.collect()
    warm_fail, warm_raw, warm_s = speed.run(lambda: run_pass(cases), tr is None)
    caches_after = tracer.cache_counts()
    out.update(
        wall_s=cold_s,
        warm_wall_s=warm_s,
        raw_wall_s=cold_raw,
        raw_warm_wall_s=warm_raw,
        attempted=2 * len(cases),
        failed=len(cold_fail) + len(warm_fail),
        witnesses=(cold_fail + warm_fail)[:MAX_WITNESSES],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tr is not None:
        calls, self_s, total_s, top = tr.summary(0, cold_end)
        out["layers"] = tracer.layer_metrics(calls, self_s, total_s, fibers,
                                             caches_before, caches_after)
        out["layers"].update(tracer.arith_micro(args.seed))
        out["top_level_s"] = top
        out["spans"] = tr.mark()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
