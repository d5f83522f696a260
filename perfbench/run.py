"""cubicmaps benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload label-gf2 --seed 1 --seconds 10 --trace 0

With --trace 0 the run reports the end-to-end metrics:
  items_per_s  items of all timed passes over the seconds they spent in the
               package, tracing off, after an untimed warm-up pass
  setup_s      median over fresh processes, started between passes, of
               import + prepare (reference systems, inputs, warm caches)
  peak_rss_mb  peak resident memory of this process
The two times are scaled to the nominal machine speed (see reference.py);
the raw values are printed on the line before the result.
With --trace 1 it runs untraced passes for half the time, then one traced
pass, and reports the per-layer metrics (see tracing.py and README.md).

Earlier stdout lines describe the environment and each metric; the last
line is {"correct", "attempted", "failed", "metrics"}.  Golden-output
mismatches count as failed items.  Run from the root of a checkout; the
package is imported from its `src` directory.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import srcpath

SETUP_PROBES = 7
END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_TIMEOUT_S = 120


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(workload, seconds, between_passes=None):
    """A warm-up pass, then whole passes until the time is up; at least one.

    The first pass after prepare still pays one-time costs (the training
    arrays' first allocation, for one), so it is checked but not timed.
    """
    warmup = workload.run_pass()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass())
        if between_passes is not None:
            between_passes()
    return warmup, passes


def total_rate(passes):
    """Items per second over a run's passes together.

    The machine's speed drifts over tens of seconds, so a rate over the whole
    run is steadier than the median of short passes.
    """
    return sum(p.items for p in passes) / sum(p.seconds for p in passes)


class SetupProbes:
    """Set-up times of fresh processes, each timing its own import and prepare.

    Probes run between passes, spread over the run, so the median samples
    the machine's speed over the same window as items_per_s.
    """

    def __init__(self, workload_name, seed, seconds):
        self.argv = [sys.executable, str(Path(__file__).resolve().parent / "probe_setup.py"),
                     workload_name, str(seed)]
        self.interval = seconds / SETUP_PROBES
        self.last = None
        self.times = []

    def _probe(self):
        done = subprocess.run(self.argv, cwd=srcpath.ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        self.times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        self.last = time.perf_counter()

    def maybe_probe(self):
        if len(self.times) < SETUP_PROBES and (
                self.last is None or time.perf_counter() - self.last >= self.interval):
            self._probe()

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


def end_to_end(workload, args):
    import reference

    speed = reference.MachineSpeed()
    probes = SetupProbes(args.workload, args.seed, args.seconds)

    def between_passes():
        speed.maybe_sample()
        probes.maybe_probe()

    warmup, passes = measure(workload, args.seconds, between_passes)
    rate, setup, slowdown = total_rate(passes), probes.median(), speed.slowdown()
    print(f"raw: items_per_s = {rate!r}, setup_s = {setup!r}, "
          f"slowdown = {slowdown!r} over {len(speed.times)} reference blocks")
    values = {
        "items_per_s": rate * slowdown,
        "setup_s": setup / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    return [warmup, *passes], metrics, set()


def per_layer(workload, args):
    import tracing
    import workloads

    warmup, untraced = measure(workload, args.seconds / 2)
    traced_tracer = tracing.Tracer()
    with traced_tracer.installed():
        traced = workload.run_pass()
    first_touch = tracing.Tracer()
    workloads.clear_scan_caches()
    with first_touch.installed():
        workload.prepare()
    for name in sorted(set(traced_tracer.missing)):
        print(f"trace: {name} not found in the package; metrics that need it read 0")
    values = tracing.layer_metrics(first_touch, traced_tracer, traced.rate / total_rate(untraced))
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.LAYER_METRICS}
    return [warmup, *untraced, traced], metrics, tracing.COMPUTED


def main(argv=None):
    srcpath.pin_blas_threads(os.environ)
    try:
        srcpath.use_checkout_source()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import envinfo
    import workloads

    args = _parse_args(argv, sorted(workloads.WORKLOADS))
    print("env " + json.dumps(envinfo.environment(), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    passes, metrics, computed = (per_layer if args.trace else end_to_end)(workload, args)
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{args.workload}: {len(passes)} passes, {attempted} items, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}{' (computed)' if name in computed else ''}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
