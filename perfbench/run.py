"""orderlab benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload queries-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` every public orderlab function is wrapped and
the result holds the per-layer metrics instead, plus the tracing
overhead measured against an untraced run of the same seed in a child
process.  The traced part does a fixed amount of work (the workload's
minimum number of requests), so its counts repeat exactly for a seed.
All times are in reference seconds from ``hostclock.HostClock``.
Human-readable lines go to standard error; the last line of standard
output is the JSON result.  The exit code is 0 when the run finished,
whether or not every answer was correct; it is 2 without orderlab's
sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_ms(out, q):
    """Percentile over every request of the run; a whole campaign is one request."""
    return percentile([x * 1000.0 for x in out.latencies], q)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None,
                    help="file for the traced run's spans (default .perfbench/spans-<workload>.bin)")
    return ap.parse_args(argv)


def setup(workload, seed, clock):
    """Import orderlab and build the inputs, several times; median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # so that one repetition's garbage does not slow the next
        t0 = clock()
        lib = workloads.Library(SRC)
        inputs = workload.build(lib, seed)
        times.append(clock() - t0)
    return lib, inputs, statistics.median(times)


def untraced_items_per_s(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["items_per_s"]["value"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orderlab" / "__init__.py").is_file():
        print(f"perfbench: no orderlab sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    baseline = untraced_items_per_s(args) if args.trace else None

    with hostclock.HostClock() as clock:
        lib, inputs, setup_s = setup(workload, args.seed, clock.now)
        tracer = None
        if args.trace:
            tracer = spans.Tracer(clock=clock.now)
            traced = [getattr(lib, m) for m in layers.MODULES]
            tracer.install(traced, hook_for=layers.hook_for, scan=lib.modules())
        try:
            # Traced, a run does a fixed amount of work, the workload's minimum
            # number of requests, so that its counts repeat exactly.
            seconds = 0 if tracer else args.seconds
            out = workload.measure(lib, inputs, seconds, clock, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    errors = workload.check(lib, inputs, out, ROOT)
    left = spans.traced_functions()
    if left:
        errors.append(f"{len(left)} library functions still wrapped, e.g. {left[0]}")

    items_per_s = out.items_per_s
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (items_per_s, "1/s"),
            "query_p50_ms": (latency_ms(out, 0.50), "ms"),
            "query_p99_ms": (latency_ms(out, 0.99), "ms"),
            "peak_rss_mb": (out.peak_rss_mb, "MB"),
        }
    else:
        metrics = layers.metrics(tracer, items_per_s, baseline)
        path = Path(args.spans_out) if args.spans_out else ROOT / ".perfbench" / f"spans-{args.workload}.bin"
        path.parent.mkdir(exist_ok=True)
        tracer.write(path)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {len(out.latencies)}  items {out.attempted}", file=sys.stderr)
    print(f"  failed_frac {out.failed / max(out.attempted, 1):.6g} "
          f"({out.failed} of {out.attempted})", file=sys.stderr)
    print(f"  host slowdown {clock.slowdown():.3f} (median probe over nominal; "
          f"times below are in reference seconds)", file=sys.stderr)
    print(f"  items_per_s from wall time {out.wall_items_per_s:.6g}", file=sys.stderr)
    for note in out.notes:
        print(f"  {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    for e in errors:
        print(f"  CHECK FAILED: {e}", file=sys.stderr)

    result = {
        "correct": not errors and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    # Raw figures behind the reference clock, so that its rescaling can be
    # audited; the result line below may hold only its four fixed keys.
    audit = {
        "wall_items_per_s": out.wall_items_per_s,
        "probe_median_ms": statistics.median(clock.probes) * 1000.0,
        "probe_nominal_ms": hostclock.PROBE_REF_S * 1000.0,
        "probes": len(clock.probes),
    }
    print(json.dumps({"audit": audit}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
