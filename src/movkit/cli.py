"""Command-line interface.

Commands: winner, mov (exact | bounds | estimate), samplesize, lowerbound,
generate, experiment, distinguish. Every numeric option accepts decimals and
fractions ("0.1", "1/3"). Exit codes: 0 success, 2 input or usage error,
3 resource (work-limit) error. Seeded commands are reproducible
byte-for-byte.
"""

import bisect
import functools
import inspect
import itertools
import math
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from movkit.core import InputError, RankedProfile, _read, winner_set
from movkit.estimators import _SAMPLE_FACTORS, VoteSource, estimate_mov, lower_bound_samples, sample_size
from movkit.experiments import (
    _MODELS,
    BoundsOnlyPolicy,
    BruteForcePolicy,
    ClosedFormPolicy,
    _approval_depth,
    _generated,
    resolve_rule,
    run_distinguisher,
    run_experiment,
    ExperimentConfig,
)
from movkit.io_formats import (
    ParseError,
    _format_ballot,
    _format_rational,
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


def _help_name(command):
    """The name of a command's help option, or None without one."""
    option = command.get_help_option(click.Context(command))
    return None if option is None else option.name


# what `Parameter.get_default` returns for an option declared without a
# default: None before Click 8.3, Click's UNSET sentinel since
_NO_DEFAULT = inspect.signature(click.Parameter).parameters["default"].default


class _Command(click.Command):
    """A command that maps domain errors to the CLI's stable exit codes. An
    input fault is a usage error of the command itself, so its message comes
    with that command's usage line."""

    @functools.cached_property
    def plain(self):
        """What `_Group` needs to bind a plain line of this command, read once
        from Click's public parameter API: each option string mapped to its
        option, the required options and the help option's name. None when
        the command has context settings or no args is help, or a parameter
        that is not an option of one value, or has an environment variable,
        a callback, a prompt or a deprecation, is eager or hides its
        value."""
        options = {}
        for param in self.params:
            if not (isinstance(param, click.Option) and param.nargs == 1 and not param.multiple
                    and not param.is_flag and not param.count and param.envvar is None
                    and param.callback is None and param.prompt is None
                    and not getattr(param, "deprecated", False) and not param.is_eager
                    and param.expose_value):
                return None
            options.update(dict.fromkeys(param.opts, param))
        if self.context_settings or self.no_args_is_help:
            return None
        return options, frozenset(param for param in self.params if param.required), _help_name(self)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WorkLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (InputError, ParseError) as exc:
            raise click.UsageError(str(exc), ctx)


class _Group(click.Group):
    """The command group. Its ``make_context`` binds a plain command line
    straight into the subcommand's own context, whose parent is the group's
    context named by ``info_name``, and ``invoke`` runs the group's callback
    and then the subcommand: no group parse, option parser or per-option
    ``handle_parse_result``.

    A line is plain when ``main`` passes no context settings, its first
    argument names a `_Command` whose ``plain`` is not None, and the rest is
    pairs of an exact option string and its value, each option at most once
    and every required option among them. Each value goes through its
    option's type with the subcommand's context (so a ``File`` registers its
    close there), each default through ``get_default`` and
    ``type_cast_value``, in Click's processing order: the help option, the
    given options in command-line order, then the others in declaration
    order. A value its type refuses raises that type's ``BadParameter``,
    which names the subcommand's context and the option, as Click's own
    path does: a plain line is converted once, and its error is the one
    Click prints. The subcommand's context is closed first, and with it a
    file that an earlier value opened. Every other line (help, completion, ``--opt=value``,
    ``-iF``, ``--``, unknown, repeated or missing options, an option with no
    value) goes whole to Click's own ``make_context``, so every message,
    usage line and exit code is Click's."""

    @functools.cached_property
    def help_name(self):
        return _help_name(self)

    def make_context(self, info_name, args, parent=None, **extra):
        ctx = None
        if parent is None and not extra and not self.context_settings and len(args) % 2:
            ctx = self._bind(info_name, args)
        return ctx if ctx is not None else super().make_context(info_name, args, parent, **extra)

    def _bind(self, info_name, args):
        """The subcommand's context for a plain line, or None."""
        command = self.commands.get(args[0])
        plain = command.plain if isinstance(command, _Command) else None
        if plain is None:
            return None
        options, required, help_name = plain
        given = {}
        for option, text in zip(args[1::2], args[2::2]):
            param = options.get(option)
            if param is None or param in given:
                return None
            given[param] = text
        if not required <= given.keys():
            return None
        parent = self.context_class(self, info_name=info_name)
        ctx = command.context_class(command, info_name=args[0], parent=parent)
        for context, name in ((parent, self.help_name), (ctx, help_name)):
            if name is not None:
                context.set_parameter_source(name, ParameterSource.DEFAULT)
        with ctx.scope(cleanup=False):
            try:
                for param, text in given.items():
                    ctx.params[param.name] = param.type_cast_value(ctx, text)
                    ctx.set_parameter_source(param.name, ParameterSource.COMMANDLINE)
                for param in command.params:
                    if param not in given:
                        value = param.get_default(ctx)
                        ctx.params[param.name] = (None if value is _NO_DEFAULT
                                                  else param.type_cast_value(ctx, value))
                        ctx.set_parameter_source(param.name, ParameterSource.DEFAULT)
            except BaseException:
                ctx.close()  # a file an earlier value opened
                raise
        return ctx

    def invoke(self, ctx):
        if ctx.command is self:
            return super().invoke(ctx)
        parent = ctx.parent
        parent.invoked_subcommand = ctx.info_name
        click.Command.invoke(self, parent)
        return ctx.command.invoke(ctx)


def _fmt_number(value) -> str:
    """Integers bare, other rationals as short decimals."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return _format_rational(frac, ".6g")


@click.group(cls=_Group)
def main():
    """Election winners, margins of victory, and sampling-based estimates."""


main.command_class = _Command


@main.command()
@click.option("--input", "-i", "handle", type=click.File("r"), required=True,
              help="Election file (see README for the format).")
@click.option("--rule", "-r", "rule_spec", required=True,
              help="plurality | borda | kapproval:K | approval | bucklin | maximin | copeland[:A] | scoring:A1,A2,...")
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
        # the original of each vote index, read from the profile's entries
        # without expanding all n votes
        ranked = isinstance(profile, RankedProfile)
        ends = list(itertools.accumulate(profile.counts))
        originals = list(profile.entries())
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
        click.echo(f"estimate = {_format_rational(est.m_bar, '.10g')} (exact {est.m_bar})")
        click.echo(f"samples = {est.ell}, seed = {est.seed}")
        click.echo(
            "guarantee: P[ |estimate - MoV| <= "
            f"{est.c}*MoV + {format(float(est.epsilon), '.6g')}*n ] >= "
            f"{format(1.0 - float(est.delta), '.6g')}, n = {profile.n}"
        )


@main.command()
@click.option("--rule", "-r", "rule_kind", type=click.Choice(list(_SAMPLE_FACTORS)), required=True)
@click.option("--m", "m", type=int, default=None, help="Number of candidates.")
@click.option("--k", "k", type=int, default=None, help="Approval depth (k-approval only).")
@click.option("--epsilon", type=RATIONAL, required=True)
@click.option("--delta", type=RATIONAL, required=True)
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
def lowerbound(c, epsilon, delta):
    """Samples any (c, epsilon, delta) margin estimator must examine."""
    click.echo(format(lower_bound_samples(c, epsilon, delta), ".10g"))


@main.command()
@click.option("--model", type=click.Choice(list(_MODELS)), required=True)
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
def generate(model, seed, approval_depth, output, **options):
    """Create a synthetic election and write it in the election file format."""
    fields, build = _MODELS[model]
    missing = [f"--{name}" for name, _, _ in fields if options[name] is None]
    if missing:
        raise InputError(f"{model} needs {' and '.join(missing)}")
    # an option the model does not read is refused once given, even at its default
    ctx, read = click.get_current_context(), {name for name, _, _ in fields}
    for name in options:
        if name not in read and ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            raise InputError(f"{model} does not take --{name}")
    spec = build(seed, **{name: options[name] for name, _, _ in fields})
    header = ""
    if model == "twocandidate":
        header = f"# realized a-first fraction: {spec.realized_top_fraction}\n"
    depth = None if approval_depth is None else _approval_depth(approval_depth)
    output.write(header + write_election(_generated(spec, depth, seed)))


def _parse_policy(text: str):
    head, _, arg = text.strip().lower().partition(":")
    if head == "brute":
        return BruteForcePolicy(budget=_read(lambda: int(arg) if arg else None,
                                             "oracle budget must be an integer, got {!r}", arg))
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
