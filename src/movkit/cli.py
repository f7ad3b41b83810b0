"""Command-line interface.

Commands: winner, mov (exact | bounds | estimate), samplesize, lowerbound,
generate, experiment, distinguish. Every numeric option accepts decimals and
fractions ("0.1", "1/3"). Exit codes: 0 success, 2 input or usage error,
3 resource (work-limit) error. Seeded commands are reproducible
byte-for-byte.
"""

import bisect
import functools
import itertools
import math
import sys
from fractions import Fraction

import click

from movkit.core import InputError, RankedProfile, _entries, winner_set
from movkit.estimators import (
    VoteSource,
    estimate_mov,
    lower_bound_samples,
    sample_size,
    split_seed,
)
from movkit.experiments import (
    BoundsOnlyPolicy,
    BruteForcePolicy,
    ClosedFormPolicy,
    _approval_depth,
    resolve_rule,
    run_distinguisher,
    run_experiment,
    ExperimentConfig,
)
from movkit.generation import (
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    generate as generate_profile,
    ranked_to_approval,
)
from movkit.io_formats import (
    ParseError,
    _format_ballot,
    candidate_labels,
    parse_election,
    write_election,
    write_experiment_csv,
)
from movkit.oracle import DEFAULT_WORK_LIMIT, WorkLimitError, mov_bounds, mov_brute_force


class RationalParamType(click.ParamType):
    """Accepts integers, decimals, and fractions like 2/3; exact arithmetic."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a number (use decimals or fractions like 2/3)", param, ctx)


RATIONAL = RationalParamType()


def _friendly(fn):
    """Map domain errors to the CLI's stable exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except WorkLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (InputError, ParseError) as exc:
            raise click.UsageError(str(exc))

    return wrapper


def _fmt_number(value) -> str:
    """Integers bare, other rationals as short decimals."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return format(float(frac), ".6g")


@click.group()
def main():
    """Election winners, margins of victory, and sampling-based estimates."""


@main.command()
@click.option("--input", "-i", "handle", type=click.File("r"), required=True,
              help="Election file (see README for the format).")
@click.option("--rule", "-r", "rule_spec", required=True,
              help="plurality | borda | kapproval:K | approval | bucklin | maximin | copeland[:A] | scoring:A1,A2,...")
@_friendly
def winner(handle, rule_spec):
    """Print the winner set and per-candidate scores."""
    profile = parse_election(handle.read())
    rule = resolve_rule(rule_spec, profile.m)
    result = winner_set(profile, rule)
    labels = candidate_labels(profile)
    names = ", ".join(labels[c] for c in result.winners)
    scores = " ".join(
        f"s({labels[c]})={_fmt_number(result.scores[c])}" for c in range(profile.m)
    )
    click.echo(f"winners: {names}; {scores}")


@main.command()
@click.option("--input", "-i", "handle", type=click.File("r"), required=True)
@click.option("--rule", "-r", "rule_spec", required=True)
@click.option("--mode", type=click.Choice(["exact", "bounds", "estimate"]), default="exact",
              show_default=True)
@click.option("--budget", type=int, default=None,
              help="Max changed votes for exact mode (default: all n).")
@click.option("--work-limit", type=int, default=DEFAULT_WORK_LIMIT, show_default=True,
              help="Cap on replacement ballots plus search nodes for the exact search.")
@click.option("--epsilon", type=RATIONAL, default=Fraction(1, 10), show_default="0.1")
@click.option("--delta", type=RATIONAL, default=Fraction(1, 20), show_default="0.05")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=None,
              help="Override the estimate-mode sample count.")
@_friendly
def mov(handle, rule_spec, mode, budget, work_limit, epsilon, delta, seed, samples):
    """Margin of victory: exact search, sandwich bounds, or sampling estimate."""
    profile = parse_election(handle.read())
    rule = resolve_rule(rule_spec, profile.m)
    labels = candidate_labels(profile)
    if mode == "exact":
        result = mov_brute_force(profile, rule, budget, work_limit=work_limit)
        if result.value is None:
            click.echo(f"MoV exceeds budget {result.budget}")
            return
        click.echo(f"MoV = {result.value}")
        # the original of each vote index, read from the store without
        # expanding all n votes
        ranked = isinstance(profile, RankedProfile)
        ends = list(itertools.accumulate(profile.counts))
        originals = list(_entries(profile.rows, profile.m, ranked))
        for index, ballot in result.witness:
            original = originals[bisect.bisect_right(ends, index)]
            new = ballot.order if ranked else sorted(ballot.approved)
            click.echo(
                f"  change vote {index}: {_format_ballot(original, ranked, labels)}"
                f" -> {_format_ballot(new, ranked, labels)}"
            )
    elif mode == "bounds":
        bounds = mov_bounds(profile, rule)
        lower, upper = bounds.lower, bounds.upper
        click.echo(f"MoV in [{_fmt_number(lower)}, {_fmt_number(upper)}] ({bounds.source})")
        click.echo(f"integer range [{math.ceil(lower)}, {math.floor(upper)}]")
    else:
        est = estimate_mov(VoteSource(profile), rule, epsilon, delta, seed, ell=samples)
        click.echo(f"estimate = {format(float(est.m_bar), '.10g')} (exact {est.m_bar})")
        click.echo(f"samples = {est.ell}, seed = {est.seed}")
        click.echo(
            "guarantee: P[ |estimate - MoV| <= "
            f"{est.c}*MoV + {format(float(est.epsilon), '.6g')}*n ] >= "
            f"{format(1.0 - float(est.delta), '.6g')}, n = {profile.n}"
        )


@main.command()
@click.option("--rule", "-r", "rule_kind",
              type=click.Choice(["scoring", "kapproval", "approval", "bucklin", "maximin", "copeland"]),
              required=True)
@click.option("--m", "m", type=int, default=None, help="Number of candidates.")
@click.option("--k", "k", type=int, default=None, help="Approval depth (k-approval only).")
@click.option("--epsilon", type=RATIONAL, required=True)
@click.option("--delta", type=RATIONAL, required=True)
@_friendly
def samplesize(rule_kind, m, k, epsilon, delta):
    """Number of sampled votes the rule's estimator needs."""
    if m is None:
        if rule_kind != "kapproval" or k is None:
            raise InputError("--m is required (except for kapproval, where --k suffices)")
        m = k + 1
    click.echo(str(sample_size(rule_kind, epsilon, delta, m, k)))


@main.command()
@click.option("--c", type=RATIONAL, default=Fraction(0), show_default=True,
              help="Multiplicative term of the target guarantee.")
@click.option("--epsilon", type=RATIONAL, required=True)
@click.option("--delta", type=RATIONAL, required=True)
@_friendly
def lowerbound(c, epsilon, delta):
    """Samples any (c, epsilon, delta) margin estimator must examine."""
    click.echo(format(lower_bound_samples(c, epsilon, delta), ".10g"))


@main.command()
@click.option("--model", type=click.Choice(["ic", "plantedgap", "twocandidate"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=None)
@click.option("--gap", type=int, default=None, help="Exact plurality gap (plantedgap).")
@click.option("--winner", type=int, default=0, show_default=True, help="Planted winner (plantedgap).")
@click.option("--p", type=RATIONAL, default=None, help="a-first fraction (twocandidate).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--approval", "approval_depth", default=None,
              help='Emit approval ballots: top-K prefixes, K an integer or "uniform".')
@click.option("--output", "-o", type=click.File("w"), default="-",
              help="Output file (default: stdout).")
@_friendly
def generate(model, n, m, gap, winner, p, seed, approval_depth, output):
    """Create a synthetic election and write it in the election file format."""
    header = ""
    if model == "ic":
        if m is None:
            raise InputError("ic needs --m")
        profile = generate_profile(ImpartialCulture(n=n, m=m, seed=seed))
    elif model == "plantedgap":
        if m is None or gap is None:
            raise InputError("plantedgap needs --m and --gap")
        profile = generate_profile(PlantedGap(winner=winner, gap=gap, n=n, m=m))
    else:
        if p is None:
            raise InputError("twocandidate needs --p")
        spec = TwoCandidate(p=p, n=n)
        profile = generate_profile(spec)
        header = f"# realized a-first fraction: {spec.realized_top_fraction}\n"
    if approval_depth is not None:
        depth = _approval_depth(approval_depth)
        profile = ranked_to_approval(profile, depth, split_seed(seed, 1))
    output.write(header + write_election(profile))


def _parse_policy(text: str):
    head, _, arg = text.strip().lower().partition(":")
    if head == "brute":
        try:
            return BruteForcePolicy(budget=int(arg) if arg else None)
        except ValueError:
            raise InputError(f"oracle budget must be an integer, got {arg!r}") from None
    if head == "closed" and not arg:
        return ClosedFormPolicy()
    if head == "bounds" and not arg:
        return BoundsOnlyPolicy()
    raise InputError(f"unknown oracle policy {text!r} (use brute[:BUDGET], closed, bounds)")


@main.command()
@click.option("--rule", "-r", "rule_spec", required=True)
@click.option("--generator", "-g", "generator_spec", default=None,
              help="e.g. ic:n=50,m=3 or plantedgap:n=2000,m=2,gap=100 or twocandidate:n=10,p=1/2")
@click.option("--input", "-i", "handle", type=click.File("r"), default=None,
              help="Fixed election file instead of a generator.")
@click.option("--epsilon", type=RATIONAL, default=Fraction(1, 10), show_default="0.1")
@click.option("--delta", type=RATIONAL, default=Fraction(1, 20), show_default="0.05")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--oracle", default="brute", show_default=True,
              help="Exact-reference policy: brute[:BUDGET] | closed | bounds.")
@click.option("--output", "-o", "output_path", type=click.Path(dir_okay=False, writable=True),
              default=None, help="CSV destination (default: CSV on stdout, summary on stderr).")
@_friendly
def experiment(rule_spec, generator_spec, handle, epsilon, delta, trials, seed, oracle, output_path):
    """Monte-Carlo coverage run: estimate vs exact margin, row per trial."""
    if (generator_spec is None) == (handle is None):
        raise InputError("provide exactly one of --generator and --input")
    config = ExperimentConfig(
        rule_spec=rule_spec,
        epsilon=epsilon,
        delta=delta,
        trials=trials,
        base_seed=seed,
        policy=_parse_policy(oracle),
        generator=generator_spec,
        profile=parse_election(handle.read()) if handle is not None else None,
    )
    result = run_experiment(config)
    csv_text = write_experiment_csv(result.rows)
    s = result.summary
    verdict = "PASS" if s.passed else "FAIL"
    summary_line = (
        f"trials={s.trials} usable={s.usable} excluded={s.excluded} "
        f"violations={s.violations} rate={s.violation_rate:.6f} "
        f"threshold={s.threshold:.2f} {verdict}"
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as out:
            out.write(csv_text)
        click.echo(summary_line)
    else:
        click.echo(csv_text, nl=False)
        click.echo(summary_line, err=True)
    if not s.passed:
        sys.exit(1)


@main.command()
@click.option("--epsilon", type=RATIONAL, default=Fraction(1, 20), show_default="0.05")
@click.option("--delta", type=RATIONAL, default=Fraction(1, 20), show_default="0.05")
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n", type=int, default=2000, show_default=True)
@click.option("--c", type=RATIONAL, default=Fraction(0), show_default=True)
@click.option("--samples", type=int, default=None,
              help="Override the sample budget (e.g. to show failure below the floor).")
@_friendly
def distinguish(epsilon, delta, trials, seed, n, c, samples):
    """Separate a planted-margin population from a tied one by sampling."""
    result = run_distinguisher(
        epsilon, delta, trials, seed, n=n, c=c, budget=samples
    )
    click.echo(f"samples = {result.budget}")
    click.echo(f"population n = {result.n}, planted a-first fraction = {result.planted_fraction}")
    click.echo(f"threshold = {_fmt_number(result.threshold)}")
    click.echo(
        f"errors: planted misread as tied {result.errors_x}/{result.trials}, "
        f"tied misread as planted {result.errors_y}/{result.trials}"
    )
    click.echo(
        f"error rate = {result.error_rate:.6f} "
        f"(target <= 2*delta = {format(2.0 * float(delta), '.6g')})"
    )


if __name__ == "__main__":
    main()
