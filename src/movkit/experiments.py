"""Monte-Carlo experiment harness: coverage runs and the distinguisher.

A coverage experiment runs many independent estimation trials, obtains an
exact margin reference (or sandwich bounds) per trial, and checks the
fraction of trials violating |estimate - MoV| <= c*MoV + eps*n against
delta. A one-sided binomial tolerance keeps the PASS/FAIL verdict stable at
practical trial counts: PASS iff

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
                (ic and plantedgap accept ,approval=uniform|K to emit
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
    ScoreVector,
    Scoring,
)
from movkit.estimators import (
    MovEstimate,
    VoteSource,
    estimate_kapproval,
    estimate_mov,
    sample_size,
    split_seed,
)
from movkit.generation import (
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    generate,
    ranked_to_approval,
)
from movkit.io_formats import ExperimentRow
from movkit.oracle import (
    TiedWinnersError,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
)

# ---------------------------------------------------------------------------
# rule and generator descriptions


def resolve_rule(spec: str, m: int) -> Rule:
    """Rule object from a rule string, bound to an m-candidate election."""
    spec = spec.strip()
    head, _, arg = spec.partition(":")
    head = head.lower()
    if head == "plurality" and not arg:
        return KApproval(1)
    if head == "borda" and not arg:
        return Scoring(ScoreVector.borda(m))
    if head == "kapproval":
        try:
            return KApproval(int(arg))
        except ValueError:
            raise InputError(f"kapproval needs an integer k, got {spec!r}") from None
    if head == "approval" and not arg:
        return Approval()
    if head == "bucklin" and not arg:
        return Bucklin()
    if head == "maximin" and not arg:
        return Maximin()
    if head == "copeland":
        if not arg:
            return Copeland(Fraction(1, 2))
        try:
            return Copeland(Fraction(arg))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"copeland needs a rational alpha, got {spec!r}") from None
    if head == "scoring":
        try:
            alphas = tuple(Fraction(tok) for tok in arg.split(","))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"scoring needs comma-separated rationals, got {spec!r}") from None
        if len(alphas) != m:
            raise InputError(f"scoring vector has {len(alphas)} entries for m={m}")
        return Scoring(ScoreVector(alphas))
    raise InputError(f"unknown rule {spec!r}")


def rule_to_spec(rule: Rule) -> str:
    """Canonical string form of a rule (inverse of resolve_rule)."""
    if isinstance(rule, Scoring):
        return "scoring:" + ",".join(str(a) for a in rule.vector.alphas)
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


def _pop_int(params: dict[str, str], key: str, what: str) -> int:
    if key not in params:
        raise InputError(f"{what} needs {key}=")
    try:
        return int(params.pop(key))
    except ValueError:
        raise InputError(f"{what} parameter {key} must be an integer") from None


def parse_generator(spec: str) -> Callable[[int], Profile]:
    """Profile factory (seed -> profile) from a generator string."""
    spec = spec.strip()
    head, _, body = spec.partition(":")
    head = head.lower()
    params = _parse_kv(body, head or "generator")
    approval_depth: Union[int, str, None] = None
    if head in ("ic", "plantedgap") and "approval" in params:
        approval_depth = _approval_depth(params.pop("approval"))

    if head == "ic":
        n = _pop_int(params, "n", "ic")
        m = _pop_int(params, "m", "ic")
        _reject_extras(params, "ic")

        def factory(seed: int) -> Profile:
            profile = generate(ImpartialCulture(n=n, m=m, seed=seed))
            return _maybe_approval(profile, approval_depth, seed)

        return factory
    if head == "plantedgap":
        n = _pop_int(params, "n", "plantedgap")
        m = _pop_int(params, "m", "plantedgap")
        gap = _pop_int(params, "gap", "plantedgap")
        winner = _pop_int(params, "winner", "plantedgap") if "winner" in params else 0
        _reject_extras(params, "plantedgap")

        def factory(seed: int) -> Profile:
            profile = generate(PlantedGap(winner=winner, gap=gap, n=n, m=m, seed=seed))
            return _maybe_approval(profile, approval_depth, seed)

        return factory
    if head == "twocandidate":
        n = _pop_int(params, "n", "twocandidate")
        if "p" not in params:
            raise InputError("twocandidate needs p=")
        try:
            p = Fraction(params.pop("p"))
        except (ValueError, ZeroDivisionError):
            raise InputError("twocandidate parameter p must be rational") from None
        _reject_extras(params, "twocandidate")
        return lambda seed: generate(TwoCandidate(p=p, n=n, seed=seed))
    raise InputError(f"unknown generator {spec!r}")


def _approval_depth(text: str) -> Union[int, str]:
    """A ranked-to-approval conversion depth from user text: an integer or
    "uniform" (see `movkit.generation.ranked_to_approval`)."""
    if text == "uniform":
        return text
    try:
        return int(text)
    except ValueError:
        raise InputError(f'approval depth must be an integer or "uniform", got {text!r}') from None


def _reject_extras(params: dict[str, str], what: str) -> None:
    if params:
        raise InputError(f"unknown {what} parameter {sorted(params)[0]!r}")


def _maybe_approval(profile: RankedProfile, depth, seed: int) -> Profile:
    if depth is None:
        return profile
    return ranked_to_approval(profile, depth, split_seed(seed, 1))


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
        if self.trials < 1:
            raise InputError(f"trials must be positive, got {self.trials}")
        if (self.generator is None) == (self.profile is None):
            raise InputError("exactly one of generator and profile is required")
        if isinstance(self.policy, ClosedFormPolicy):
            head = self.rule_spec.strip().split(":")[0].lower()
            if head not in ("kapproval", "approval", "plurality"):
                raise InputError(
                    "the closed-form oracle applies only to k-approval and approval"
                )


@dataclass(frozen=True)
class ExperimentSummary:
    trials: int
    usable: int
    violations: int
    excluded: int
    violation_rate: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]
    summary: ExperimentSummary


def pass_threshold(delta, usable: int) -> float:
    """One-sided binomial tolerance on the violation count."""
    d = float(delta)
    return d * usable + 2.0 * math.sqrt(d * (1.0 - d) * usable)


def _exact_reference(profile: Profile, rule: Rule, policy: OraclePolicy):
    """(mov_exact, lower, upper) per policy; all None when excluded."""
    if isinstance(policy, BruteForcePolicy):
        budget = policy.budget if policy.budget is not None else profile.n
        result = mov_brute_force(profile, rule, budget)
        return result.value, None, None
    if isinstance(policy, ClosedFormPolicy):
        # ExperimentConfig admits only k-approval and approval rules here
        try:
            if isinstance(rule, Approval):
                return mov_approval_closed_form(profile), None, None
            return mov_kapproval_closed_form(profile, rule.k), None, None
        except TiedWinnersError:
            return None, None, None
    if isinstance(policy, BoundsOnlyPolicy):
        bounds = mov_bounds(profile, rule)
        return None, bounds.lower, bounds.upper
    raise InputError(f"unknown oracle policy: {policy!r}")


def _judge(est: MovEstimate, n: int, mov_exact, lower, upper):
    """(abs_error, within_guarantee) for one trial; (None, None) if excluded."""
    slack = est.c * Fraction(mov_exact) + est.epsilon * n if mov_exact is not None else None
    if mov_exact is not None:
        err = abs(est.m_bar - mov_exact)
        return err, err <= slack
    if lower is not None:
        margin = est.c * upper + est.epsilon * n
        within = (est.m_bar >= lower - margin) and (est.m_bar <= upper + margin)
        if est.m_bar < lower:
            err = lower - est.m_bar
        elif est.m_bar > upper:
            err = est.m_bar - upper
        else:
            err = Fraction(0)
        return err, within
    return None, None


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
        est = estimate_mov(
            VoteSource.from_profile(profile), rule, config.epsilon, config.delta, est_seed
        )
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
    """
    epsilon = Fraction(epsilon)
    delta_f = Fraction(delta)
    c = Fraction(c)
    if not 0 <= c < 1:
        raise InputError(f"c must lie in [0, 1), got {c}")
    if trials < 1:
        raise InputError(f"trials must be positive, got {trials}")
    if n < 2 or n % 2 != 0:
        raise InputError(f"n must be even and at least 2, got {n}")
    p_x = Fraction(1, 2) + (6 * epsilon + 2 * c / n) / (1 - c)
    if p_x > 1:
        raise InputError(
            f"planted fraction {p_x} exceeds 1; lower epsilon or c (needs roughly epsilon < 1/12)"
        )
    if budget is None:
        budget = sample_size("kapproval", epsilon, delta_f, m=2, k=1)
    x_profile = generate(TwoCandidate(p=p_x, n=n))
    y_profile = generate(TwoCandidate(p=Fraction(1, 2), n=n))
    x_source = VoteSource.from_profile(x_profile)
    y_source = VoteSource.from_profile(y_profile)
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
