"""movkit benchmark: end-to-end metrics per workload, or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # all three workloads in turn

With ``--trace 0`` the run reports setup_s, ops_per_s, op_p50_ms, op_p90_ms
and peak_rss_mb; with ``--trace 1`` it reports per-layer self times,
counters and the tracing overhead instead. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("audit", "montecarlo", "exact")
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
WARMUP_OPS = 3
MIN_PASSES = 5  # every op is replayed, and its median latency has repeats to choose from
MIN_OPS = 100
FRESH_MODULES = ("movkit", "click", "workloads", "reference")
# output counter -> the tracer counter that must agree with it
CROSS_CHECKED = {"samples": "estimators.samples_drawn", "evaluations": "oracle.evaluations",
                 "solves": "oracle.solves", "trials": "experiments.trials",
                 "violations": "experiments.guarantee_violations"}


def load_workloads():
    """Import movkit from this checkout's src/, and the workloads, afresh.

    Modules imported before are dropped first, so that every set-up pays
    for importing movkit and click.
    """
    package = ROOT / "src" / "movkit"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no movkit sources at {package}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n.split(".")[0] in FRESH_MODULES]:
        del sys.modules[name]
    import movkit
    import workloads

    if Path(movkit.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported movkit from {movkit.__file__}, not {package}")
    return workloads


class Checker:
    """Tallies op outcomes. An op run again must reproduce its first output,
    compared by repr because each set-up imports movkit's classes anew."""

    def __init__(self):
        self.first = {}
        self.problems = []
        self.defects = Counter()
        self.counters = Counter()
        self.attempted = self.failed = 0

    def record(self, op, outcome, timed: bool, count: bool) -> None:
        problem = outcome.problem
        fingerprint = repr(outcome.fingerprint)
        if op.key not in self.first:
            self.first[op.key] = fingerprint
        elif self.first[op.key] != fingerprint and problem is None:
            problem = "output differs from an earlier run of the same op"
        if problem is not None:
            self.problems.append(f"{op.label}: {problem}")
        if timed:
            self.attempted += 1
            if problem is not None or outcome.defect is not None:
                self.failed += 1
            if outcome.defect is not None:
                self.defects[f"{op.label}: {outcome.defect}"] += 1
        if count:
            self.counters.update(outcome.counters)


def run_pass(ops, checker, *, timed=True, count=False, tracer=None, pass_no=0):
    """Run ops in order; returns each op's latency in seconds."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op = [pass_no, op.key]
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # the op's check classifies it
            result = exc
        latencies.append(time.perf_counter() - start)
        checker.record(op, op.check(result), timed=timed, count=count)
    return latencies


def run_probed_pass(ops, checker, *, count=False):
    """Run ops in order with a host-speed probe before each op and after
    the last; returns each op's latency and its reference-host latency."""
    probes = [hostspeed.probe()]
    latencies = []
    for op in ops:
        latencies += run_pass([op], checker, count=count)
        probes.append(hostspeed.probe())
    scaled = [hostspeed.to_reference(t, before, after)
              for t, before, after in zip(latencies, probes, probes[1:])]
    return latencies, scaled


def pass_count(workload, seconds):
    """Passes in the timed phase: fixed by the workload and `seconds`, never
    by the clock, so that a seed attempts, and fails, exactly the same ops
    on every run."""
    return max(MIN_PASSES, -(-MIN_OPS // len(workload.ops)),
               round(seconds / workload.nominal_pass_s))


def timed_phase(workload, checker, seconds, setups):
    raw, scaled = [], []
    for p in range(pass_count(workload, seconds)):
        latencies, in_reference = run_probed_pass(workload.ops, checker, count=p == 0)
        raw.append(latencies)
        scaled.append(in_reference)
    every = [t for latencies in raw for t in latencies]
    # Each op's median over the passes, in reference-host time (see hostspeed.py).
    typical = [statistics.median(repeats) for repeats in zip(*scaled)]
    setup_times = [t for t, _ in setups]
    print(f"  timed: {len(every)} ops in {len(raw)} passes of {len(workload.ops)},"
          f" {sum(every):.2f} s busy; set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s")
    print(f"  host speed: ops took {sum(every) / sum(map(sum, scaled)):.3f}x"
          f" their reference-host time; raw over every op run: {len(every) / sum(every):.4f}"
          f" ops/s, p50 {1000 * statistics.median(every):.4f} ms,"
          f" p90 {1000 * p90(every):.4f} ms")
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_ms": (1000 * statistics.median(typical), "ms"),
        "op_p90_ms": (1000 * p90(typical), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def traced_phase(workload, checker, seconds, spans_path):
    from tracer import Tracer

    passes = max(1, round(seconds / (2 * workload.nominal_pass_s)))
    tracer = Tracer()
    untraced = traced = 0.0
    for p in range(passes):  # alternate, so that drift in machine speed hits both sides
        untraced += sum(run_pass(workload.ops, checker, count=p == 0))
        tracer.install()
        try:
            traced += sum(run_pass(workload.ops, checker, tracer=tracer, pass_no=p))
        finally:
            tracer.remove()
    for mine, theirs in CROSS_CHECKED.items():
        if passes * checker.counters[mine] != tracer.counts[theirs]:
            checker.problems.append(f"{passes} x {mine} {checker.counters[mine]} from outputs"
                                    f" != traced {theirs} {tracer.counts[theirs]}")
    tracer.write(spans_path)
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_pct"] = (100 * (traced - untraced) / untraced, "%")
    selfs = sorted(((v, k[:-len(".self_s")]) for k, (v, _) in metrics.items()
                    if k.endswith(".self_s")), reverse=True)
    print(f"  traced: {passes} passes of {len(workload.ops)} ops, untraced {untraced:.3f} s,"
          f" traced {traced:.3f} s; spans in {spans_path.relative_to(ROOT)}")
    for value, layer in selfs:
        if value > 0:
            print(f"    {layer:32s} self {value:9.4f} s  {100 * value / traced:5.1f}%")
    print(f"    {'(outside traced layers)':32s} self {traced - sum(v for v, _ in selfs):9.4f} s")
    return metrics


def run_workload(args) -> int:
    print(f"movkit benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    checker = Checker()
    try:
        setups = []  # (seconds, reference-host seconds) of each set-up
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = hostspeed.probe()
            start = time.perf_counter()
            try:
                workloads = load_workloads()
            except ImportError as exc:
                print(f"error: cannot load movkit: {exc}", file=sys.stderr)
                return 2
            workdir.mkdir(parents=True, exist_ok=True)
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed, workdir)
            run_pass(workload.ops[:WARMUP_OPS], checker, timed=False)
            elapsed = time.perf_counter() - start
            after = hostspeed.probe()
            setups.append((elapsed, hostspeed.to_reference(elapsed, before, after)))
        print(f"  inputs: {workload.describe()}")
        if args.trace:
            spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced_phase(workload, checker, args.seconds, spans)
        else:
            metrics = timed_phase(workload, checker, args.seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:12s} {value:14.4f} {unit}")
    defects = "; ".join(f"{k} x{v}" for k, v in sorted(checker.defects.items()))
    print(f"  fail_ratio {checker.failed / checker.attempted:.4f}"
          f" ({checker.failed}/{checker.attempted} ops failed){': ' + defects if defects else ''}")
    counters = " ".join(f"{k}={v}" for k, v in sorted(checker.counters.items()))
    print(f"  counters per pass: {counters or 'none'}")
    for problem in checker.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run all three")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25,
                        help="sets the timed phase's fixed number of passes, about this many"
                             " seconds of busy time on the host the benchmark was built on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
