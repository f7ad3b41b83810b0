"""The benchmark's three workloads: inputs from a seed, ops, and output checks.

Each workload builds a fixed list of ops (one *pass*) from the seed in
``setup``. The timed phase repeats whole passes, so every run sees the same
op mix, and a later pass must reproduce the first one's outputs exactly.

``run(op)`` is the only code inside the timed region; ``check(op, result)``
runs outside it and returns an ``Outcome``.
"""

import contextlib
import hashlib
import io
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from movkit import cli, experiments, generation, oracle
from movkit.core import InputError
from movkit.generation import ImpartialCulture, PlantedGap
from movkit.io_formats import write_election

import reference as ref

# The one defect the benchmark expects to see, counted as a failed op:
# estimate_copeland builds a negative estimate, which MovEstimate rejects,
# whenever the sampled Copeland scores tie at the top.
COPELAND_DEFECT = "margin estimate cannot be negative"


def derive(seed: int, label: str) -> int:
    """64-bit child seed for one named use of the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def raw_profile(profile) -> dict:
    """Ballot -> multiplicity with raw ballots, as `reference` expects."""
    return {getattr(b, "order", None) or b.approved: c for b, c in profile.votes}


@dataclass(frozen=True)
class Op:
    key: int  # position in the pass; equal keys must give equal outputs
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "Outcome"]


@dataclass
class Outcome:
    """Verdict on one op. ``problem`` marks a failed check; ``defect`` the
    known Copeland failure; ``fingerprint`` is compared across passes."""

    fingerprint: Any
    problem: Optional[str] = None
    defect: Optional[str] = None
    counters: Counter = field(default_factory=Counter)


def _is_copeland_defect(rule_spec: str, message: str) -> bool:
    return rule_spec.startswith("copeland") and COPELAND_DEFECT in message


# ---------------------------------------------------------------------------
# audit: one analyst running CLI commands on one large election


AUDIT_N, AUDIT_M = 5000, 8
AUDIT_RULES = ("plurality", "borda", "kapproval:3", "scoring:10,6,4,3,2,1,1,0",
               "bucklin", "maximin", "copeland", "approval")
AUDIT_EPSILON = AUDIT_DELTA = Fraction(1, 20)
_ESTIMATE_RE = re.compile(
    r"estimate = \S+ \(exact (?P<value>-?\d+(?:/\d+)?)\)\n"
    r"samples = (?P<ell>\d+), seed = (?P<seed>\d+)\n"
    r"(?:note: no separating level in the sample; estimate saturated at n\n)?"
    r"guarantee: P\[ \|estimate - MoV\| <= \S+\*MoV \+ 0\.05\*n \] >= 0\.95, n = 5000\n\Z"
)


def invoke_cli(args: list[str]):
    """One in-process `movkit` run: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="movkit")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class Audit:
    name = "audit"
    nominal_pass_s = 2.5

    def setup(self, seed: int, workdir) -> None:
        ranked = generation.generate(
            ImpartialCulture(n=AUDIT_N, m=AUDIT_M, seed=derive(seed, "audit.ic")))
        approval = generation.ranked_to_approval(
            ranked, "uniform", derive(seed, "audit.approval"))
        files = {}
        for kind, profile in (("ranked", ranked), ("approval", approval)):
            files[kind] = workdir / f"{kind}.txt"
            files[kind].write_text(write_election(profile), encoding="utf-8")
        self.distinct = {"ranked": len(ranked.votes), "approval": len(approval.votes)}
        raw = {"ranked": raw_profile(ranked), "approval": raw_profile(approval)}
        self.ops = []
        for spec in AUDIT_RULES:
            kind = "approval" if spec == "approval" else "ranked"
            rule = ref.parse_rule(spec, AUDIT_M)
            base = ["-i", str(files[kind]), "-r", spec]
            expected_winner = ref.winner_text(raw[kind], AUDIT_M, rule)
            expected_bounds = ref.bounds_text(raw[kind], AUDIT_M, rule)
            ell = ref.sample_size(rule, AUDIT_M, AUDIT_EPSILON, AUDIT_DELTA)
            est_seed = derive(seed, f"audit.estimate.{spec}")
            commands = (
                ("winner", ["winner", *base], self._exact_text(expected_winner)),
                ("bounds", ["mov", "--mode", "bounds", *base], self._exact_text(expected_bounds)),
                ("estimate", ["mov", "--mode", "estimate", "--epsilon", "0.05",
                              "--delta", "0.05", "--seed", str(est_seed), *base],
                 self._estimate_form(spec, ell, est_seed)),
            )
            for command, args, check in commands:
                self.ops.append(Op(len(self.ops), f"{command} {spec}",
                                   lambda args=args: invoke_cli(args), check))

    @staticmethod
    def _exact_text(expected: str):
        def check(result) -> Outcome:
            code, out, err = result
            if code != 0:
                return Outcome(result, problem=f"exit {code}: {err.strip()[-200:]}")
            if out != expected:
                return Outcome(result, problem=f"stdout {out!r} != reference {expected!r}")
            return Outcome(result)
        return check

    @staticmethod
    def _estimate_form(spec: str, ell: int, seed: int):
        def check(result) -> Outcome:
            code, out, err = result
            if code == 2 and _is_copeland_defect(spec, err):  # raised after the draw
                return Outcome(result, defect=COPELAND_DEFECT, counters=Counter(samples=ell))
            if code != 0:
                return Outcome(result, problem=f"exit {code}: {err.strip()[-200:]}")
            match = _ESTIMATE_RE.match(out)
            if match is None:
                return Outcome(result, problem=f"malformed estimate output {out!r}")
            if Fraction(match["value"]) < 0:
                return Outcome(result, problem="negative estimate printed")
            if int(match["ell"]) != ell or int(match["seed"]) != seed:
                return Outcome(result, problem=f"samples/seed {match['ell']}/{match['seed']}"
                                               f" != {ell}/{seed}")
            return Outcome(result, counters=Counter(samples=ell))
        return check

    def describe(self) -> str:
        return (f"IC n={AUDIT_N} m={AUDIT_M}: d={self.distinct['ranked']} ranked,"
                f" {self.distinct['approval']} approval ballots")


# ---------------------------------------------------------------------------
# montecarlo: coverage trials and the distinguisher


MC_EPSILON, MC_DELTA = Fraction(1, 10), Fraction(1, 20)
MC_DIST_EPSILON = Fraction(1, 20)
MC_N = 2000
PLANTED_GEN = f"plantedgap:n={MC_N},m=3,gap=100"
IC_GEN = f"ic:n={MC_N},m=4"
# (rule, generator, oracle policy, rule as run_experiment reports it, m)
MC_TRIALS = (
    ("plurality", PLANTED_GEN, experiments.ClosedFormPolicy(), "kapproval:1", 3),
    ("borda", IC_GEN, experiments.BoundsOnlyPolicy(), "scoring:3,2,1,0", 4),
    ("bucklin", IC_GEN, experiments.BoundsOnlyPolicy(), "bucklin", 4),
    ("maximin", IC_GEN, experiments.BoundsOnlyPolicy(), "maximin", 4),
    ("copeland", IC_GEN, experiments.BoundsOnlyPolicy(), "copeland:1/2", 4),
    ("approval", IC_GEN + ",approval=uniform", experiments.BoundsOnlyPolicy(), "approval", 4),
)
MC_ROUNDS = 4  # a pass is MC_ROUNDS rounds of every trial kind plus the distinguisher
PLANTED_MOV = 50  # plurality gap 100 with a unique winner: ceil(100 / 2)
GUARANTEE_C = {"kapproval": Fraction(0), "approval": Fraction(0), "scoring": Fraction(1, 3),
               "bucklin": Fraction(1, 3), "maximin": Fraction(1, 3),
               "copeland": Fraction(5, 7)}  # copeland at m=4: (2K+1)/(2K+3), K=2


class MonteCarlo:
    name = "montecarlo"
    nominal_pass_s = 0.5

    def setup(self, seed: int, workdir) -> None:
        self.ops = []
        for rnd in range(MC_ROUNDS):
            for spec, gen, policy, reported, m in MC_TRIALS:
                config = experiments.ExperimentConfig(
                    rule_spec=spec, epsilon=MC_EPSILON, delta=MC_DELTA, trials=1,
                    base_seed=derive(seed, f"mc.{spec}.{rnd}"), policy=policy, generator=gen)
                ell = ref.sample_size(ref.parse_rule(spec, m), m, MC_EPSILON, MC_DELTA)
                self.ops.append(Op(len(self.ops), f"experiment {spec}",
                                   lambda config=config: experiments.run_experiment(config),
                                   self._trial_check(spec, reported, m, ell)))
            dist_seed = derive(seed, f"mc.distinguish.{rnd}")
            self.ops.append(Op(
                len(self.ops), "distinguisher",
                lambda dist_seed=dist_seed: experiments.run_distinguisher(
                    MC_DIST_EPSILON, MC_DELTA, 1, dist_seed, n=MC_N),
                self._distinguisher_check()))

    @staticmethod
    def _trial_check(spec, reported, m, ell):
        family = ref.parse_rule(spec, m)[0]

        def check(result) -> Outcome:
            if isinstance(result, Exception):
                if isinstance(result, InputError) and _is_copeland_defect(spec, str(result)):
                    return Outcome(str(result), defect=COPELAND_DEFECT,
                                   counters=Counter(samples=ell))
                return Outcome(repr(result), problem=f"raised {result!r}")
            (row,) = result.rows
            fail = lambda why: Outcome(result.rows, problem=why)  # noqa: E731
            if (row.rule, row.n, row.m, row.ell) != (reported, MC_N, m, ell):
                return fail(f"row {(row.rule, row.n, row.m, row.ell)}"
                            f" != {(reported, MC_N, m, ell)}")
            if row.estimate < 0:
                return fail("negative estimate")
            slack = GUARANTEE_C[family] * (row.mov_upper if row.mov_exact is None
                                           else row.mov_exact) + MC_EPSILON * MC_N
            if row.mov_exact is not None:
                if row.mov_exact != PLANTED_MOV:
                    return fail(f"closed-form MoV {row.mov_exact} != {PLANTED_MOV}")
                error = abs(row.estimate - row.mov_exact)
                within = error <= slack
            else:
                if not 0 <= row.mov_lower <= row.mov_upper:
                    return fail(f"bounds [{row.mov_lower}, {row.mov_upper}] out of order")
                error = max(row.mov_lower - row.estimate, row.estimate - row.mov_upper, 0)
                within = row.mov_lower - slack <= row.estimate <= row.mov_upper + slack
            if (row.abs_error, row.within_guarantee) != (error, within):
                return fail(f"judged {(row.abs_error, row.within_guarantee)}"
                            f" != {(error, within)}")
            if result.summary.violations != (not within):
                return fail("summary disagrees with its row")
            return Outcome(result.rows, counters=Counter(
                samples=ell, trials=1, violations=int(not within)))
        return check

    @staticmethod
    def _distinguisher_check():
        budget = ref.sample_size(("kapproval", 1), 2, MC_DIST_EPSILON, MC_DELTA)
        threshold = Fraction(3, 2) * MC_DIST_EPSILON * MC_N
        planted = Fraction(int((Fraction(1, 2) + 6 * MC_DIST_EPSILON) * MC_N), MC_N)

        def check(result) -> Outcome:
            if isinstance(result, Exception):
                return Outcome(repr(result), problem=f"raised {result!r}")
            got = (result.budget, result.threshold, result.planted_fraction, result.trials)
            want = (budget, threshold, planted, 1)
            if got != want or result.errors_x not in (0, 1) or result.errors_y not in (0, 1):
                return Outcome(result, problem=f"distinguisher {result} != {want}")
            return Outcome(result, counters=Counter(
                samples=2 * budget, trials=1,
                distinguisher_errors=result.errors_x + result.errors_y))
        return check

    def describe(self) -> str:
        return (f"{len(self.ops)} trials per pass on n={MC_N} profiles"
                " generated inside each trial")


# ---------------------------------------------------------------------------
# exact: ground-truth MoV on small elections


# Brute-force MoV of PlantedGap(winner=0, gap, n, m), recorded from
# mov_brute_force and fixed here as the expected values.
PLANTED_MOVS = {
    (12, 3, 4): {"plurality": 2, "borda": 2, "kapproval:2": 1, "bucklin": 1,
                 "maximin": 3, "copeland": 3},
    (16, 3, 4): {"plurality": 2, "borda": 3, "kapproval:2": 2, "bucklin": 1,
                 "maximin": 4, "copeland": 4},
    (12, 3, 6): {"plurality": 3, "borda": 3, "kapproval:2": 1, "bucklin": 2,
                 "maximin": 4, "copeland": 4},
    (10, 4, 4): {"plurality": 2, "borda": 2, "kapproval:2": 1, "bucklin": 1,
                 "maximin": 3, "copeland": 3},
}
# Drawn IC profiles have a heavy tail of search cost: at MoV 4 one solve takes
# 20-100 s or exceeds the work limit. Each IC slot therefore keeps the first
# draw whose MoV the reference certifies to be 1, so that runs on different
# seeds cost about the same. Such a solve still takes 1 to about 100
# evaluations, depending on where the search meets the witness, and its cost
# is two-humped. With many IC solves the median op fell between the humps
# and moved 35-45% from seed to seed, however many there were. So a pass has
# three: the 13 solves under 1.5 ms are these three and ten planted ones, and
# the median op is the cheaper of the planted (10,4,4) plurality and Borda
# solves. The 90th percentile falls among the eight heavy planted maximin
# and Copeland solves, which also set ops_per_s.


def ic_slots(seed):
    """(n, m, rule) of the IC solves in a pass: a ranked one with m=3, and
    n and rule drawn from the seed; a ranked one with n=12, m=4 and a drawn
    rule; and an approval one with n=12, m=4."""
    rng = random.Random(derive(seed, "exact.ic.slots"))
    return [(rng.randint(15, 20), 3, rng.choice(ref.RANKED_RULES)),
            (12, 4, rng.choice(ref.RANKED_RULES)),
            (12, 4, "approval")]


def check_exact(profile, rule_spec, result, expected, integer_range) -> Outcome:
    """Check one mov_brute_force result: expected value, witness, bounds."""
    if isinstance(result, Exception):
        return Outcome(repr(result), problem=f"raised {result!r}")
    fingerprint = (result.value, result.witness, result.evaluations)
    fail = lambda why: Outcome(fingerprint, problem=why)  # noqa: E731
    if result.value is None or result.witness is None:
        return fail("no margin found within budget n")
    if result.value != expected:
        return fail(f"MoV {result.value} != expected {expected}")
    if len(result.witness) != result.value:
        return fail(f"witness changes {len(result.witness)} votes for MoV {result.value}")
    lo, hi = integer_range
    if not lo <= result.value <= hi:
        return fail(f"MoV {result.value} outside the bounds' integer range [{lo}, {hi}]")
    rule = ref.parse_rule(rule_spec, profile.m)
    try:
        changed = oracle.apply_changes(profile, result.witness)
    except InputError as exc:
        return fail(f"witness does not replay: {exc}")
    if ref.winners(raw_profile(changed), profile.m, rule) == \
            ref.winners(raw_profile(profile), profile.m, rule):
        return fail("witness leaves the winner set unchanged")
    return Outcome(fingerprint, counters=Counter(evaluations=result.evaluations, solves=1))


class Exact:
    name = "exact"
    nominal_pass_s = 3.5

    def setup(self, seed: int, workdir) -> None:
        self.ops = []
        self.distinct = 0
        for slot, (n, m, spec) in enumerate(ic_slots(seed)):
            profile = self._draw_mov1(derive(seed, f"exact.ic.{slot}"), n, m, spec)
            self._add("IC", profile, spec, 1)
        for (n, m, gap), movs in PLANTED_MOVS.items():
            profile = generation.generate(PlantedGap(winner=0, gap=gap, n=n, m=m))
            for spec in ref.RANKED_RULES:
                self._add(f"planted gap={gap}", profile, spec, movs[spec])

    @staticmethod
    def _draw_mov1(seed, n, m, spec):
        for attempt in range(1000):
            draw = derive(seed, str(attempt))
            profile = generation.generate(ImpartialCulture(n=n, m=m, seed=draw))
            if spec == "approval":
                profile = generation.ranked_to_approval(profile, "uniform", draw)
            if ref.has_single_change(raw_profile(profile), m, ref.parse_rule(spec, m),
                                     ranked=spec != "approval"):
                return profile
        raise RuntimeError(f"no MoV-1 IC instance for n={n} m={m} {spec}")

    def _add(self, kind, profile, spec, expected):
        rule = experiments.resolve_rule(spec, profile.m)
        bounds = oracle.mov_bounds(profile, rule)
        window = ref.integer_range(bounds.lower, bounds.upper)
        self.distinct += len(profile.votes)
        self.ops.append(Op(
            len(self.ops), f"{kind} n={profile.n} m={profile.m} {spec}",
            lambda: oracle.mov_brute_force(profile, rule, profile.n),
            lambda result: check_exact(profile, spec, result, expected, window)))

    def describe(self) -> str:
        return (f"{len(self.ops)} solves per pass, {len(PLANTED_MOVS) * 6} planted;"
                f" d summed over solves = {self.distinct}")


WORKLOADS = {w.name: w for w in (Audit, MonteCarlo, Exact)}
