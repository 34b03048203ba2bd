"""airycheck benchmark: cold and warm time-to-verdict per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace|lie|loop --seed N --seconds S --trace 0|1

Each sample is a fresh, single-threaded child process (``child.py``) that
imports airycheck from ``src/``, builds the workload's cases from the seed,
runs them cold and then warm, and checks every verdict.  Children run one
after another until ``S`` seconds have passed (at least one).  With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported as
medians over the children; with ``--trace 1`` each sample is an untraced
child followed by a traced one, and the per-layer metrics are reported.
Every timing comes from ``time.perf_counter``.  The end-to-end times are
scaled to a nominal host speed measured by a reference workload timed next
to them (see ``child.py``); the unscaled times are in the report line.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
If any verdict is wrong, the metrics are left out and the exit status is 1.
The line before it is a report with the environment, the seed, every
sample and the failure witnesses.  ``--canary`` makes one case wrong on
purpose, to show that the correctness gate can fail.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import NOMINAL_PROBE_S

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 9  # extra set-up-only children per untraced run
DEADLINE_S = 170  # a run must end within 180 s


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment():
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "git_sha": None,
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))).hexdigest(),
        "timer": "time.perf_counter",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        env["git_sha"] = sha.stdout.strip() or None
    return env


class ChildFailed(RuntimeError):
    pass


def spawn(args, t_begin, *extra):
    """Run one child; returns (scaled set-up seconds, raw set-up seconds,
    its JSON result)."""
    env = {k: v for k, v in os.environ.items() if k != "AIRY_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.canary:
        cmd.append("--canary")
    timeout = max(1.0, DEADLINE_S - (perf_counter() - t_begin))
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {extra} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"child {extra} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = out["ready"] - t0
    return raw * NOMINAL_PROBE_S / out["setup_probe_s"], raw, out


def main(argv=None):
    t_begin = perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--canary", action="store_true", help="make one case wrong on purpose")
    args = ap.parse_args(argv)
    if not (SRC / "airycheck" / "__init__.py").is_file():
        print(f"error: no airycheck sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    env["load_start"] = os.getloadavg()
    # compile once so that every child's set-up reads cached bytecode
    env["bytecode_warmed"] = bool(compileall.compile_dir(SRC, quiet=1)) and bool(
        compileall.compile_dir(HERE, quiet=1))

    setups, raw_setups, children, pairs = [], [], [], []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup, raw, _ = spawn(args, t_begin, "--setup-only")
                setups.append(setup)
                raw_setups.append(raw)
        t_run = perf_counter()
        while not children or perf_counter() - t_run < args.seconds:
            setup, raw, plain = spawn(args, t_begin)
            setups.append(setup)
            raw_setups.append(raw)
            children.append(plain)
            if args.trace:
                pairs.append((plain, spawn(args, t_begin, "--trace")[2]))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["load_end"] = os.getloadavg()

    samples = {"setup_s": setups, "raw_setup_s": raw_setups}
    for key in ("wall_s", "warm_wall_s", "peak_rss_mb", "raw_wall_s", "raw_warm_wall_s"):
        samples[key] = [c[key] for c in children]
    if args.trace:
        traced = [t for _, t in pairs]
        for key in traced[0]["layers"]:
            samples[key] = [t["layers"][key] for t in traced]
        samples["traced_wall_s"] = [t["wall_s"] for t in traced]
        samples["trace_overhead_s"] = [t["wall_s"] - p["wall_s"] for p, t in pairs]
        samples["span_coverage"] = [t["top_level_s"] / t["raw_wall_s"] for t in traced]
    every = children + [t for _, t in pairs]
    attempted = sum(c["attempted"] for c in every)
    failed = sum(c["failed"] for c in every)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = {m["name"] for m in wanted} - samples.keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {}
    for m in wanted:
        vals = samples[m["name"]]
        q1, med, q3 = quartiles(vals)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"{m['name']:<42} {med:>14.6g} {m['unit']:<6} q1 {q1:.6g} q3 {q3:.6g} n={len(vals)}")
    fail_ratio = failed / attempted
    print(f"{'fail_ratio':<42} {fail_ratio:>14.6g} ratio  failed {failed} of {attempted} cases")

    report = {
        "workload": args.workload, "seeds_used": sorted({c["seed"] for c in every}),
        "seconds": args.seconds,
        "trace": args.trace, "canary": args.canary, "children": len(children),
        "fail_ratio": fail_ratio, "env": env, "samples": samples,
        "witnesses": [w for c in every for w in c["witnesses"]][:10],
    }
    print(json.dumps(report, default=str))
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics if ok else {}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
