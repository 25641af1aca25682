"""domrat benchmark: one workload, one seed, one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload ratio_swarm --seed 1 --seconds 35 --trace 0

--trace 0 times whole instances with nothing wrapped and reports the
end-to-end metrics, scaled to a reference host speed by a calibration loop
timed around every instance (perfbench/README.md says why).  --trace 1 wraps domrat's layer functions, alternates a
traced and an untraced pass over the same leading instances, and reports
per-layer metrics together with the tracing overhead; its spans are written
to .perfbench_out/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 every answer correct, 1 some
answer wrong or a trace check failed, 2 domrat cannot be imported from this
checkout's src/.
"""

import time

T0 = time.perf_counter()  # before any other import: set-up time starts here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
# The calibration loop's time on the reference machine in its fast phase.
# Timed figures are scaled by CAL_REF_S / (the loop's time around them).
CAL_REF_S = 0.0007
CAL_PROBES = 5  # calibration samples after each set-up probe
MAX_TRACEBACKS = 5
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it
SELF_COVERAGE_MIN = 0.98  # self times must account for this share of the traced wall

END_TO_END = {
    "solves_per_s": "1/s",
    "solve_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "stategraph.build_state_graph.busy_s": "s",
    "stategraph.min_mean_cycle.busy_s": "s",
    "stategraph.eds_exists.busy_s": "s",
    "stategraph.domination_ratio.self_s": "s",
    "core.verify_dominating.busy_s": "s",
    "core.coverage_counts.busy_s": "s",
    "core.periodic_to_blocks.busy_s": "s",
    "circulant.domination_number.busy_s": "s",
    "circulant.oracle_scan.self_s": "s",
    "blockdsl.render.busy_s": "s",
    "blockdsl.parse.busy_s": "s",
    "blockdsl.flatten.busy_s": "s",
    "bench.instance.self_s": "s",
    "stategraph.min_mean_cycle.calls": "count",
    "stategraph.eds_exists.calls": "count",
    "stategraph.eds_exists.found": "count",
    "stategraph.n_states": "count",
    "stategraph.build_state_graph.bytes": "bytes",
    "stategraph.cycle_len_sum": "count",
    "core.verify_dominating.positions": "count",
    "circulant.domination_number.calls": "count",
    "circulant.domination_number.n_sum": "count",
    "trace.instances": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
}


def tail_latency(samples):
    """(percentile, value) at the highest percentile with TAIL_BEYOND samples
    above it, or None when that percentile would fall below the median."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(samples)[k]


class Tally:
    """Latency of every attempted instance; a failed one counts as infinite."""

    def __init__(self):
        self.latencies = []
        self.failed = 0

    def run(self, solve, instance, ref):
        """Solve and check one instance; returns its latency."""
        t = time.perf_counter()
        try:
            solve(instance, ref)
        except Exception:  # a wrong or crashing instance must not end the run
            latency = math.inf
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                print(f"instance {instance!r} failed:", file=sys.stderr)
                traceback.print_exc()
        else:
            latency = time.perf_counter() - t
        self.latencies.append(latency)
        return latency

    @property
    def attempted(self):
        return len(self.latencies)


def run_passes(seconds, run_pass):
    """Run whole passes until `seconds` have passed; at least one.  Returns
    the wall time spent.  Every pass does the same work, so the figures do
    not depend on where the deadline falls."""
    start = time.perf_counter()
    while True:
        run_pass()
        wall = time.perf_counter() - start
        if wall >= seconds:
            return wall


def calibrate():
    """Time a fixed pure-Python loop that calls no domrat code.  Its time
    tracks the host's current speed, which drifts by up to 2x within minutes
    on a shared machine."""
    t = time.perf_counter()
    acc = 0
    xs = list(range(64))
    d = {}
    for i in range(6000):
        acc += xs[i & 63] * (i & 7)
        d[i & 31] = acc & 255
    return time.perf_counter() - t


def set_up(w, seed, ref, import_s):
    """Generate the inputs and solve the warm-up instance.  Returns the
    inputs and the set-up time: imports plus this, without loading the
    reference answers."""
    t = time.perf_counter()
    instances = w.generate(random.Random(seed))
    w.solve(w.warmup, ref)
    return instances, import_s + time.perf_counter() - t


def probe_setup(w, seed):
    """Median set-up time of SETUP_REPEATS fresh processes: imports happen
    once per process, so repeating set-up means starting new ones.  Returns
    it scaled to the reference speed by each process's own calibration, and
    as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", w.name, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        setup_s, cal = map(float, out.stdout.split()[-2:])
        scaled.append(setup_s * CAL_REF_S / cal)
        raw.append(setup_s)
    return statistics.median(scaled), statistics.median(raw)


def timed_run(w, ref, instances, seconds, setup):
    """Whole passes over the instances until `seconds` have passed, with the
    calibration loop timed before and after every instance.

    Each sample is scaled to the reference speed by the median of the four
    calibrations around it, and an instance's latency is its fastest scaled
    sample.  The host's speed switches every few seconds and drifts over
    minutes; scaling removes most of both, the minimum the rest."""
    tally = Tally()
    cals = [calibrate()]
    runs = []  # (instance index, latency) in the order they ran
    start = time.perf_counter()

    def run_pass():
        for k, inst in enumerate(instances):
            if len(runs) >= len(instances) and time.perf_counter() - start >= seconds:
                return  # the deadline cuts this pass short; it is dropped below
            runs.append((k, tally.run(w.solve, inst, ref)))
            cals.append(calibrate())

    wall = run_passes(seconds, run_pass)
    del runs[len(runs) - len(runs) % len(instances):]
    samples = [[] for _ in instances]
    raw = [[] for _ in instances]
    for j, (k, latency) in enumerate(runs):  # sample j ran between cals[j] and cals[j + 1]
        speed = statistics.median(cals[max(0, j - 1):j + 3])
        samples[k].append(latency * CAL_REF_S / speed)
        raw[k].append(latency)
    best = [min(s) for s in samples]
    raw_best = [min(s) for s in raw]
    tail = tail_latency(best)
    print(f"{w.name}: {tally.attempted} instances in {wall:.3f} s "
          f"({len(samples[0])} passes of {len(instances)}), "
          f"failed_frac {tally.failed / tally.attempted:g} "
          f"({tally.failed}/{tally.attempted})")
    if tail is None:
        print(f"solve_tail_s: not reported, {len(best)} samples "
              f"(needs {2 * TAIL_BEYOND} for a percentile at or above the median)")
    else:
        print(f"solve_tail_s: p{tail[0]:.2f} = {tail[1]:.6f} s "
              f"({len(best)} samples, {TAIL_BEYOND} beyond)")
    print(f"unscaled: solves_per_s {len(raw_best) / sum(raw_best):.6g}, "
          f"solve_p50_s {statistics.median(raw_best):.6g}, setup_s {setup[1]:.6g}; "
          f"calibration median {statistics.median(cals):.6g} s "
          f"against {CAL_REF_S} s at the reference speed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {
        "solves_per_s": len(best) / sum(best),
        "solve_p50_s": statistics.median(best),
        "peak_rss_mb": rss_mb,
        "setup_s": setup[0],
    }
    return tally, [], values


def traced_run(w, seed, ref, instances, seconds):
    import tracing

    targets = tracing.layer_targets()
    sample = instances[:w.trace_sample]
    tally = Tally()
    tracer = tracing.Tracer()
    passes = []  # (spans, counts, traced wall, untraced wall)

    def run_pass():
        tracer.reset()
        tracer.install(targets)
        try:
            t = time.perf_counter()
            for k, inst in enumerate(sample):
                tracer.run_instance(k, tally.run, w.solve, inst, ref)
            traced = time.perf_counter() - t
        finally:
            tracer.remove()
        t = time.perf_counter()
        for inst in sample:
            tally.run(w.solve, inst, ref)
        passes.append((tracer.spans, tracer.counts, traced, time.perf_counter() - t))

    run_passes(seconds, run_pass)

    problems = []
    counts = passes[0][1]
    if any(p[1] != counts for p in passes):
        problems.append("counts differ between passes over the same instances")
    per_pass = []
    for spans, _, traced, untraced in passes:
        times = tracing.layer_times(spans)
        times["trace.wall_s"] = traced
        times["trace.untraced_wall_s"] = untraced
        times["trace.overhead"] = traced / untraced
        times["trace.self_coverage"] = sum(tracing.self_times(spans)) / traced
        if not SELF_COVERAGE_MIN <= times["trace.self_coverage"] <= 1.0:
            problems.append(f"self times cover {times['trace.self_coverage']:.4f} "
                            "of the traced wall time")
        per_pass.append(times)
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)

    values = {}
    for name in PER_LAYER:
        if name == "trace.instances":
            values[name] = len(sample)
        elif name.endswith("_s") or name.startswith("trace."):
            values[name] = statistics.median(t.get(name, 0.0) for t in per_pass)
        else:
            values[name] = counts.get(name, 0)
    print(f"{w.name}: {len(passes)} traced/untraced pass pairs of {len(sample)} instances, "
          f"tracing overhead x{values['trace.overhead']:.3f}")
    write_spans(w.name, seed, [p[0] for p in passes])
    return tally, problems, values


def write_spans(workload, seed, passes):
    OUT_DIR.mkdir(exist_ok=True)
    origin = passes[0][0].start if passes[0] else 0.0
    rows = [[k, s.instance, s.name, s.start - origin, s.end - origin, s.parent]
            for k, spans in enumerate(passes) for s in spans]
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump({"columns": ["pass", "instance", "name", "start_s", "end_s", "parent"],
                   "spans": rows}, f)


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # one process, one thread: pin BLAS pools before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import domrat
    except ImportError as exc:
        print(f"cannot import domrat from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(domrat.__file__).resolve().parent.parent != src.resolve():
        print(f"domrat was imported from {domrat.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    import workloads

    args = parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference()
    instances, setup_s = set_up(w, args.seed, ref, import_s)
    if args.setup_probe:
        print(setup_s, statistics.median(calibrate() for _ in range(CAL_PROBES)))
        return 0
    if args.trace:
        tally, problems, values = traced_run(w, args.seed, ref, instances, args.seconds)
        units = PER_LAYER
    else:
        tally, problems, values = timed_run(w, ref, instances, args.seconds,
                                            probe_setup(w, args.seed))
        units = END_TO_END
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
