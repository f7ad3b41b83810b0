"""Per-layer tracing from outside the program.

The tracer replaces each traced public function at the name its caller
looks up (a module global such as ``movkit.cli.parse_election``, or a class
attribute such as ``VoteSource.draw_counts``) with a wrapper that records a
span and a few counts, and puts the originals back on ``remove``. Spans stay
in memory as (name, start, end, parent, op) tuples until ``write``.
"""

import functools
import json
import time
from collections import Counter, defaultdict

from movkit import cli, estimators, experiments, oracle


def _count_parse(counts, args, result):
    counts["io_formats.bytes_parsed"] += len(args[0].encode("utf-8"))


def _count_tally(counts, args, result):
    counts["core.ballots_tallied"] += len(args[0].votes)


def _count_solve(counts, args, result):
    counts["oracle.evaluations"] += result.evaluations
    counts["oracle.solves"] += 1


def _count_draw(counts, args, result):
    counts["estimators.samples_drawn"] += args[1]
    counts["estimators.distinct_sampled"] += len(result)


def _count_generated(counts, args, result):
    counts["generation.votes_generated"] += result.n


def _count_experiment(counts, args, result):
    counts["experiments.trials"] += len(result.rows)
    counts["experiments.guarantee_violations"] += result.summary.violations


def _count_distinguisher(counts, args, result):
    counts["experiments.trials"] += result.trials


# layer -> (counter, each (owner, attribute) at which the workloads' calls look it up)
LAYERS = {
    "cli": (None, [(cli.main, "main")]),
    "io_formats.parse_election": (_count_parse, [(cli, "parse_election")]),
    "core.winner_set": (_count_tally, [(cli, "winner_set"), (oracle, "winner_set")]),
    "oracle.mov_bounds": (None, [(cli, "mov_bounds"), (experiments, "mov_bounds")]),
    "oracle.mov_brute_force": (_count_solve, [(oracle, "mov_brute_force")]),
    "estimators.draw_counts": (_count_draw, [(estimators.VoteSource, "draw_counts")]),
    "estimators.estimate": (None, [(cli, "estimate_mov"), (experiments, "estimate_mov"),
                                   (experiments, "estimate_kapproval")]),
    "generation.generate": (_count_generated, [(experiments, "generate")]),
    "generation.ranked_to_approval": (None, [(experiments, "ranked_to_approval")]),
    "experiments.run_experiment": (_count_experiment, [(experiments, "run_experiment")]),
    "experiments.run_distinguisher": (_count_distinguisher,
                                      [(experiments, "run_distinguisher")]),
}

# Counters reported next to the layer times; ratios are derived in metrics().
COUNTERS = {
    "cli.calls": "count",
    "io_formats.parse_election.calls": "count",
    "io_formats.bytes_parsed": "bytes",
    "core.winner_set.calls": "count",
    "core.ballots_tallied": "count",
    "oracle.mov_bounds.calls": "count",
    "oracle.evaluations": "count",
    "oracle.solves": "count",
    "estimators.samples_drawn": "count",
    "estimators.distinct_sampled": "count",
    "estimators.failed": "count",
    "generation.votes_generated": "count",
    "experiments.trials": "count",
    "experiments.guarantee_violations": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._saved = []

    def install(self) -> None:
        for name, (count, sites) in LAYERS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self._wrap(name, count, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:  # a bound method found on the class, shadowed on the instance
                delattr(owner, attr)

    def _wrap(self, name, count, original):
        spans, stack = self.spans, self.stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                if name == "estimators.estimate":
                    self.counts["estimators.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict:
        """Seconds per layer spent outside any child span."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[index]
        return out

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        selfs = self.self_times()
        out = {f"{name}.self_s": (selfs.get(name, 0.0), "s") for name in LAYERS}
        out.update({name: (self.counts[name], unit) for name, unit in COUNTERS.items()})
        c = self.counts
        search_s = self.total_time("oracle.mov_brute_force")
        out["oracle.evals_per_s"] = (c["oracle.evaluations"] / search_s if search_s else 0.0, "1/s")
        out["oracle.evals_per_solve"] = (
            c["oracle.evaluations"] / c["oracle.solves"] if c["oracle.solves"] else 0.0, "count")
        out["estimators.distinct_per_sample"] = (
            c["estimators.distinct_sampled"] / c["estimators.samples_drawn"]
            if c["estimators.samples_drawn"] else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
