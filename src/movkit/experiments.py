"""Monte-Carlo experiment harness: coverage runs and the distinguisher.

A coverage experiment runs many independent estimation trials and judges
each against an interval [lower, upper] that holds the margin: [MoV, MoV]
for an exact reference, the sandwich bounds otherwise. A trial violates the
guarantee when the estimate lies farther than c*upper + eps*n from the
interval, which for an exact reference is |estimate - MoV| > c*MoV + eps*n.
The count of violating trials is checked against delta. A one-sided
binomial tolerance keeps the PASS/FAIL verdict stable at practical trial
counts: PASS iff

    violations <= delta*usable + 2*sqrt(delta*(1-delta)*usable).

The distinguisher experiment reproduces the sampling lower bound's setup:
two two-candidate populations, one with a planted margin and one exactly
tied, must be told apart from samples alone via the margin estimate.

Rule and generator descriptions also live here as plain strings (shared by
the CLI and config files):

    rules:      plurality | borda | kapproval:K | approval | bucklin
                | maximin | copeland[:ALPHA] | scoring:A1,A2,...
    generators: ic:n=N,m=M | plantedgap:n=N,m=M,gap=G[,winner=W]
                | twocandidate:n=N,p=P
                (every model accepts ,approval=uniform|K to emit
                approval ballots by top-k prefix)
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from movkit.core import (
    Approval,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    Profile,
    RankedProfile,
    Rule,
    Scoring,
    _check_int,
    _read,
    _shown,
)
from movkit.estimators import (
    MovEstimate,
    VoteSource,
    _check_unit_interval,
    estimate_kapproval,
    estimate_mov,
    lower_bound_samples,
    sample_size,
    split_seed,
)
from movkit.generation import (
    GenSpec,
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    generate,
    ranked_to_approval,
)
from movkit.io_formats import ExperimentRow
from movkit.oracle import (
    TiedWinnersError,
    _gap_closed_form,
    mov_bounds,
    mov_brute_force,
)

# ---------------------------------------------------------------------------
# rule and generator descriptions


# the rules a bare head names, each built for an m-candidate election
_BARE_RULES: dict[str, Callable[[int], Rule]] = {
    "plurality": lambda m: KApproval(1),
    "borda": Scoring.borda,
    "approval": lambda m: Approval(),
    "bucklin": lambda m: Bucklin(),
    "maximin": lambda m: Maximin(),
    "copeland": lambda m: Copeland(Fraction(1, 2)),
}


def resolve_rule(spec: str, m: int) -> Rule:
    """Rule object from a rule string, bound to an m-candidate election.

    A head with no argument is read from `_BARE_RULES`; the argument of
    ``kapproval``, ``copeland`` and ``scoring`` is read by `movkit.core._read`,
    with one text that names the head. A parsed value's own fault (k below 1,
    alpha outside [0, 1], a vector of the wrong length) keeps its own
    message."""
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    head = head.lower()
    if not arg and head in _BARE_RULES:
        return _BARE_RULES[head](m)
    fault = "{} needs {}, got {!r}"
    if head == "kapproval":
        return KApproval(_read(lambda: int(arg), fault, head, "an integer k", spec))
    if head == "copeland":
        return Copeland(_read(lambda: Fraction(arg), fault, head, "a rational alpha", spec))
    if head == "scoring":
        alphas = _read(lambda: tuple(map(Fraction, arg.split(","))), fault, head,
                       "comma-separated rationals", spec)
        if len(alphas) != m:
            raise InputError(f"score vector has {len(alphas)} entries for {m} candidates")
        return Scoring(alphas)
    raise InputError(f"unknown rule {spec!r}")


def rule_to_spec(rule: Rule) -> str:
    """Canonical string form of a rule (inverse of resolve_rule)."""
    if isinstance(rule, Scoring):
        return "scoring:" + ",".join(str(a) for a in rule.alphas)
    if isinstance(rule, KApproval):
        return f"kapproval:{rule.k}"
    if isinstance(rule, (Approval, Bucklin, Maximin)):
        return rule.kind
    if isinstance(rule, Copeland):
        return f"copeland:{rule.alpha}"
    raise InputError(f"unknown rule: {rule!r}")


def _parse_kv(body: str, what: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not body:
        return params
    for piece in body.split(","):
        key, sep, value = piece.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise InputError(f"bad {what} parameter {piece!r}")
        key = key.strip().lower()
        if key in params:
            raise InputError(f"duplicate {what} parameter {key!r}")
        params[key] = value.strip()
    return params


# each generation model's parameters in reading order, as (name, type,
# default) with None for a required one, and the spec their values and a
# seed describe
_MODELS = {
    "ic": ((("n", int, None), ("m", int, None)),
           lambda seed, **values: ImpartialCulture(seed=seed, **values)),
    "plantedgap": ((("n", int, None), ("m", int, None), ("gap", int, None), ("winner", int, 0)),
                   lambda seed, **values: PlantedGap(**values)),
    "twocandidate": ((("n", int, None), ("p", Fraction, None)),
                     lambda seed, **values: TwoCandidate(**values)),
}
_TYPE_NAMES = {int: "an integer", Fraction: "rational"}


def parse_generator(spec: str) -> Callable[[int], Profile]:
    """Profile factory (seed -> profile) from a generator string."""
    spec = spec.strip()
    head, _, body = spec.partition(":")
    head = head.lower()
    params = _parse_kv(body, head or "generator")
    if head not in _MODELS:
        raise InputError(f"unknown generator {spec!r}")
    fields, build = _MODELS[head]
    depth = _approval_depth(params.pop("approval")) if "approval" in params else None
    values = {}
    for name, kind, default in fields:
        if name not in params and default is None:
            raise InputError(f"{head} needs {name}=")
        values[name] = _read(lambda: kind(params.pop(name)) if name in params else default,
                             "{} parameter {} must be {}", head, name, _TYPE_NAMES[kind])
    if params:
        raise InputError(f"unknown {head} parameter {sorted(params)[0]!r}")
    return lambda seed: _generated(build(seed, **values), depth, seed)


def _generated(spec: GenSpec, depth: Union[int, str, None], seed: int) -> Profile:
    """The profile a generation model describes, converted to approval
    ballots at ``depth`` unless it is None, with the child seed
    ``split_seed(seed, 1)``: the one pipeline of `parse_generator`'s
    factories and of ``movkit generate``."""
    profile = generate(spec)
    if depth is None:
        return profile
    return ranked_to_approval(profile, depth, split_seed(seed, 1))


def _approval_depth(text: str) -> Union[int, str]:
    """A ranked-to-approval conversion depth from user text: an integer or
    "uniform" (see `movkit.generation.ranked_to_approval`)."""
    if text == "uniform":
        return text
    return _read(lambda: int(text), 'approval depth must be an integer or "uniform", got {!r}', text)


# ---------------------------------------------------------------------------
# coverage experiments


@dataclass(frozen=True)
class BruteForcePolicy:
    """Exact reference via exhaustive search under the default work limit;
    budget=None means n per trial."""

    budget: Optional[int] = None


@dataclass(frozen=True)
class ClosedFormPolicy:
    """Exact reference via the gap closed form (k-approval/approval only)."""


@dataclass(frozen=True)
class BoundsOnlyPolicy:
    """No exact reference; judge the estimate against the sandwich bounds."""


OraclePolicy = Union[BruteForcePolicy, ClosedFormPolicy, BoundsOnlyPolicy]


@dataclass(frozen=True)
class ExperimentConfig:
    """A coverage experiment: rule, profile source, guarantee parameters.

    Exactly one of ``generator`` (a generator string) and ``profile`` (a
    fixed profile, re-sampled every trial) must be given.
    """

    rule_spec: str
    epsilon: Fraction
    delta: Fraction
    trials: int
    base_seed: int
    policy: OraclePolicy
    generator: Optional[str] = None
    profile: Optional[Profile] = None

    def __post_init__(self):
        _check_int(self.trials, "trials", 1, "positive")
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        if (self.generator is None) == (self.profile is None):
            raise InputError("exactly one of generator and profile is required")
        if not isinstance(self.policy, OraclePolicy):
            raise InputError(f"unknown oracle policy: {self.policy!r}")
        if isinstance(self.policy, ClosedFormPolicy):
            head = self.rule_spec.strip().split(":")[0].lower()
            if head not in ("kapproval", "approval", "plurality"):
                raise InputError(
                    "the closed-form oracle applies only to k-approval and approval"
                )


@dataclass(frozen=True)
class ExperimentSummary:
    """The violation count of an experiment's trials against its pass threshold."""

    trials: int
    usable: int
    violations: int
    excluded: int
    violation_rate: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ExperimentResult:
    """An experiment's rows, one per trial, and their summary."""

    rows: tuple[ExperimentRow, ...]
    summary: ExperimentSummary


def pass_threshold(delta, usable: int) -> float:
    """One-sided binomial tolerance on the violation count."""
    d = float(delta)
    return d * usable + 2.0 * math.sqrt(d * (1.0 - d) * usable)


def _exact_reference(profile: Profile, rule: Rule, policy: OraclePolicy):
    """(mov_exact, lower, upper) per policy; all None when excluded."""
    if isinstance(policy, BruteForcePolicy):
        return mov_brute_force(profile, rule, policy.budget).value, None, None
    if isinstance(policy, ClosedFormPolicy):
        # ExperimentConfig admits only k-approval and approval rules here
        try:
            return _gap_closed_form(profile, rule), None, None
        except TiedWinnersError:
            return None, None, None
    # BoundsOnlyPolicy, the last of the three that ExperimentConfig admits
    bounds = mov_bounds(profile, rule)
    return None, bounds.lower, bounds.upper


def _judge(est: MovEstimate, n: int, mov_exact, lower, upper):
    """(abs_error, within_guarantee) for one trial; (None, None) if excluded.
    The error is the distance from the estimate to [lower, upper], which is
    [mov_exact, mov_exact] for an exact reference."""
    if mov_exact is not None:
        lower = upper = mov_exact
    elif lower is None:
        return None, None
    err = max(lower - est.m_bar, est.m_bar - upper, Fraction(0))
    return err, err <= est.c * upper + est.epsilon * n


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the coverage experiment; deterministic given the base seed."""
    factory = None if config.generator is None else parse_generator(config.generator)
    rows: list[ExperimentRow] = []
    violations = excluded = 0
    for index in range(config.trials):
        gen_seed = split_seed(config.base_seed, 2 * index)
        est_seed = split_seed(config.base_seed, 2 * index + 1)
        profile = config.profile if factory is None else factory(gen_seed)
        rule = resolve_rule(config.rule_spec, profile.m)
        if isinstance(rule, Approval) and isinstance(profile, RankedProfile):
            profile = ranked_to_approval(profile, "uniform", split_seed(gen_seed, 1))
        mov_exact, lower, upper = _exact_reference(profile, rule, config.policy)
        est = estimate_mov(VoteSource(profile), rule, config.epsilon, config.delta, est_seed)
        abs_error, within = _judge(est, profile.n, mov_exact, lower, upper)
        if within is None:
            excluded += 1
        elif not within:
            violations += 1
        rows.append(ExperimentRow(
            trial=index + 1,
            seed=est_seed,
            rule=rule_to_spec(rule),
            n=profile.n,
            m=profile.m,
            epsilon=est.epsilon,
            delta=est.delta,
            ell=est.ell,
            mov_exact=mov_exact,
            mov_lower=lower,
            mov_upper=upper,
            estimate=est.m_bar,
            abs_error=abs_error,
            within_guarantee=within,
        ))
    usable = config.trials - excluded
    threshold = pass_threshold(config.delta, usable)
    summary = ExperimentSummary(
        trials=config.trials,
        usable=usable,
        violations=violations,
        excluded=excluded,
        violation_rate=(violations / usable) if usable else 0.0,
        threshold=threshold,
        passed=violations <= threshold,
    )
    return ExperimentResult(rows=tuple(rows), summary=summary)


# ---------------------------------------------------------------------------
# the distinguisher


@dataclass(frozen=True)
class DistinguishResult:
    """The errors of the planted-or-tied distinguisher over its trials."""

    budget: int
    threshold: Fraction
    trials: int
    errors_x: int
    errors_y: int
    planted_fraction: Fraction
    n: int

    @property
    def error_rate(self) -> float:
        return (self.errors_x + self.errors_y) / (2.0 * self.trials)


def run_distinguisher(
    epsilon,
    delta,
    trials: int,
    base_seed: int,
    n: int = 2000,
    c=Fraction(0),
    budget: Optional[int] = None,
) -> DistinguishResult:
    """Tell a planted-margin population from an exactly tied one by sampling.

    Population X has a 1/2 + (6*eps + 2c/n)/(1-c) fraction of a-first votes;
    population Y is an exact two-candidate tie. Each trial samples both with
    the plurality estimator and classifies by comparing the estimate against
    the threshold c + 1.5*eps*n; at the estimator's own sample budget the
    error rate stays within 2*delta. Overriding ``budget`` downward shows
    the signal disappearing below the sample-complexity floor.

    This is the construction behind `lower_bound_samples`, which checks c,
    epsilon and delta before anything is built.
    """
    lower_bound_samples(c, epsilon, delta)
    epsilon, delta_f, c = Fraction(epsilon), Fraction(delta), Fraction(c)
    _check_int(trials, "trials", 1, "positive")
    _check_int(n, "n")
    if n < 2 or n % 2 != 0:
        raise InputError(f"n must be even and at least 2, got {_shown(n)}")
    p_x = Fraction(1, 2) + (6 * epsilon + 2 * c / n) / (1 - c)
    if p_x > 1:
        raise InputError(
            f"planted fraction {p_x} exceeds 1; lower epsilon or c (needs roughly epsilon < 1/12)"
        )
    if budget is None:
        budget = sample_size("kapproval", epsilon, delta_f, m=2, k=1)
    x_source = VoteSource(generate(TwoCandidate(p=p_x, n=n)))
    y_source = VoteSource(generate(TwoCandidate(p=Fraction(1, 2), n=n)))
    threshold = c + Fraction(3, 2) * epsilon * n
    errors_x = errors_y = 0
    for index in range(trials):
        est_x = estimate_kapproval(
            x_source, 1, epsilon, delta_f, split_seed(base_seed, 2 * index), ell=budget
        )
        est_y = estimate_kapproval(
            y_source, 1, epsilon, delta_f, split_seed(base_seed, 2 * index + 1), ell=budget
        )
        if not est_x.m_bar > threshold:
            errors_x += 1
        if est_y.m_bar > threshold:
            errors_y += 1
    return DistinguishResult(
        budget=budget,
        threshold=threshold,
        trials=trials,
        errors_x=errors_x,
        errors_y=errors_y,
        planted_fraction=TwoCandidate(p=p_x, n=n).realized_top_fraction,
        n=n,
    )
