"""Coverage where sampling is the point: ell far below n.

Every other coverage check judges an estimate that reads more samples than
there are votes. Here each row is a pre-registered coverage experiment of
200 trials at delta = 1/20 on a planted-gap profile of n = 10^6 votes,
judged against the exact closed-form margin, so the sample is at most a
fifth of the electorate:

* at epsilon = 1/10: plurality, 2-approval and uniform-depth approval at
  m in {3, 5, 8}, with gaps of 1%, 3%, 5% and 10% of n;
* at epsilon = 1/50: the same three rules at m = 5.

The seed, trial count and thresholds were fixed before the first run. A row
that fails is a finding: it becomes a strict xfail recorded as a `FOUND`
line in CHANGES.md, and is never re-seeded, shrunk or loosened.
Planted-gap profiles have at most m distinct ballots and the draw costs
O(d + ell), so n = 10^6 costs what n = 2000 does.
"""

from fractions import Fraction as F

import pytest

from movkit.experiments import ClosedFormPolicy, ExperimentConfig, run_experiment

N = 10**6
TRIALS = 200
DELTA = F(1, 20)
SEED = 17
RULES = {"plurality": "", "kapproval:2": "", "approval": ",approval=uniform"}
GAPS = [N // 100, 3 * N // 100, 5 * N // 100, N // 10]

ROWS = [(F(1, 10), rule, m, gap) for rule in RULES for m in (3, 5, 8) for gap in GAPS]
ROWS += [(F(1, 50), rule, 5, gap) for rule in RULES for gap in GAPS]


def coverage(epsilon, rule, m, gap):
    """The experiment result of one row."""
    return run_experiment(ExperimentConfig(
        rule_spec=rule, epsilon=epsilon, delta=DELTA, trials=TRIALS, base_seed=SEED,
        policy=ClosedFormPolicy(), generator=f"plantedgap:n={N},m={m},gap={gap}" + RULES[rule],
    ))


@pytest.mark.parametrize("epsilon, rule, m, gap", ROWS,
                         ids=[f"{eps}-{rule}-m{m}-gap{gap}" for eps, rule, m, gap in ROWS])
def test_coverage_holds_with_a_sample_far_below_n(epsilon, rule, m, gap):
    result = coverage(epsilon, rule, m, gap)
    assert all(row.ell <= N // 5 for row in result.rows)
    assert result.summary.passed
