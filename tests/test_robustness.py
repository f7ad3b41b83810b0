"""All-tied profiles and multiplicities of 10^12, for every rule.

The tied profiles list every ranking of three candidates once (n = 6), or
every approval ballot over three candidates once (n = 8), so every rule
ties all three and one changed vote breaks the tie: the margin of victory
is 1. The huge profiles are the same with every count 10^12. There one
changed vote still breaks the tie under every rule but Bucklin, whose
margin is 10^12: each candidate keeps its level-2 majority until 10^12
votes change, and a level-1 majority takes 10^12 + 1 (a strict xfail
below). Counts, sums and margins must stay exact integers or rationals at
that size.
"""

import itertools
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from movkit.cli import main
from movkit.core import (
    Approval,
    ApprovalProfile,
    Bucklin,
    Copeland,
    KApproval,
    Maximin,
    RankedProfile,
    Scoring,
    winner_set,
)
from movkit.estimators import VoteSource, estimate_mov
from movkit.experiments import resolve_rule
from movkit.io_formats import write_election
from movkit.oracle import mov_bounds, mov_brute_force

HUGE = 10**12
EPS, DELTA, SEED = F(1, 10), F(1, 20), 0
ORDERS = list(itertools.permutations(range(3)))
SUBSETS = [s for size in range(4) for s in itertools.combinations(range(3), size)]

RULES = {
    "plurality": KApproval(1),
    "kapproval:2": KApproval(2),
    "borda": Scoring.borda(3),
    "scoring:3,1,0": Scoring((F(3), F(1), F(0))),
    "bucklin": Bucklin(),
    "maximin": Maximin(),
    "copeland:0": Copeland(F(0)),
    "copeland:1/2": Copeland(F(1, 2)),
    "copeland:1": Copeland(F(1)),
    "approval": Approval(),
}


def tied(spec: str, count: int):
    if spec == "approval":
        return ApprovalProfile(3, [(subset, count) for subset in SUBSETS])
    return RankedProfile(3, [(order, count) for order in ORDERS])


SIZES = {"count-1": 1, "count-10^12": HUGE}
CASES = [(spec, size) for spec in RULES for size in SIZES]

# A finding, kept as a strict expected failure (see CHANGES.md and ROADMAP item 1 stage A2).
BUCKLIN_HUGE_MARGIN = pytest.mark.xfail(strict=True, reason=(
    "FOUND: Bucklin's margin on the 10^12 tie is 10^12 (its change floor), out of "
    "reach of the exact search, which starts at one change"))


def marked(cases, marks):
    return [pytest.param(*case, marks=marks.get(case, ())) for case in cases]


def test_specs_name_the_rules():
    assert all(resolve_rule(spec, 3) == rule for spec, rule in RULES.items())


@pytest.mark.parametrize("spec, size", CASES)
def test_every_candidate_wins_a_full_tie(spec, size):
    assert winner_set(tied(spec, SIZES[size]), RULES[spec]).winners == (0, 1, 2)


@pytest.mark.parametrize("spec, size", marked(CASES, {
    ("bucklin", "count-10^12"): BUCKLIN_HUGE_MARGIN}))
def test_bounds_contain_the_exact_margin_of_a_full_tie(spec, size):
    profile, rule = tied(spec, SIZES[size]), RULES[spec]
    result = mov_brute_force(profile, rule, 3)
    assert result.value == 1
    bounds = mov_bounds(profile, rule)
    assert bounds.lower <= result.value <= bounds.upper


@pytest.mark.parametrize("spec, size", CASES)
def test_estimates_of_a_full_tie_keep_exact_sums(spec, size):
    profile, rule = tied(spec, SIZES[size]), RULES[spec]
    source = VoteSource(profile)
    n = profile.n
    assert n == len(profile.votes) * SIZES[size]
    est = estimate_mov(source, rule, EPS, DELTA, SEED)
    counts = {profile.votes[i][0]: k for i, k in source.draw_counts(est.ell, SEED).items()}
    assert sum(counts.values()) == est.ell
    assert isinstance(est.m_bar, F) and 0 <= est.m_bar
    scores = est.estimated_scores
    if isinstance(rule, KApproval):
        assert sum(scores.values()) == rule.k * n
    elif isinstance(rule, Scoring):
        # normalized: shifted by the last entry, over the last positive shift
        shifted = [a - rule.alphas[-1] for a in rule.alphas]
        assert sum(scores.values()) == n * sum(shifted) / [v for v in shifted if v][-1]
    elif isinstance(rule, Approval):
        approvals = sum(count * len(ballot.approved) for ballot, count in counts.items())
        assert sum(scores.values()) == F(n, est.ell) * approvals
    elif isinstance(rule, Bucklin):
        assert all(row[-1] == n for row in scores.values())
    else:
        d = est.pair_margins
        assert all(d[x][y] == -d[y][x] and abs(d[x][y]) <= n
                   for x in range(3) for y in range(3))


@pytest.mark.parametrize("spec, mode", marked(
    [(spec, mode) for spec in RULES for mode in ("exact", "bounds", "estimate")],
    {("bucklin", "exact"): BUCKLIN_HUGE_MARGIN}))
def test_cli_modes_run_at_10_12(spec, mode, tmp_path):
    path = tmp_path / "tied.txt"
    path.write_text(write_election(tied(spec, HUGE)))
    # every other search finishes within 1,000 units of work; the limit only
    # cuts the Bucklin search short (about 10 s at the default 5M)
    result = CliRunner().invoke(main, ["mov", "-i", str(path), "-r", spec, "--mode", mode,
                                       "--work-limit", "100000"])
    assert result.exit_code == 0, result.output
    if mode == "exact":
        assert result.output.startswith("MoV = 1\n")


@pytest.mark.parametrize("spec", RULES)
def test_guarantee_holds_on_the_small_full_tie(spec):
    profile, rule = tied(spec, 1), RULES[spec]
    mov = mov_brute_force(profile, rule, profile.n).value
    est = estimate_mov(VoteSource(profile), rule, EPS, DELTA, SEED)
    assert abs(est.m_bar - mov) <= est.c * mov + est.epsilon * profile.n
