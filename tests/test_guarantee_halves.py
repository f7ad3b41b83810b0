"""Half S of the estimation guarantee: each rule's c follows from its sandwich.

`estimate_mov` returns (1 - c)*U, U the upper end of the rule's sandwich
[L, U] on the margin. For every MoV in [U/r, U] with r = (1 + c)/(1 - c),
(1 - c)*U lies within c*MoV of MoV. The margin is an integer of at least
ceil(L), so the exact half of the guarantee holds on a profile whenever

    U <= r * ceil(L),

with U the upper end of `mov_bounds` less scoring's +1. This is ROADMAP
item 19's Half S; Half C, the sample's concentration around U, is not
tested here. The property runs at any n with no exact search. The
hypothesis settings were fixed before the first run: m 2-5, up to 8 ballot
types, counts 1-9.

Bucklin's lower end is its change floor, not U/2, and a tied Copeland set
has the bounds [1, n]; on item 15's reproducers Half S fails, as strict
xfails that must fail on their assertion.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movkit.core import (
    Approval,
    ApprovalProfile,
    Bucklin,
    Copeland,
    KApproval,
    Maximin,
    RankedProfile,
    ScoreVector,
    Scoring,
    winner_set,
)
from movkit.estimators import guarantee_constant
from movkit.oracle import mov_bounds
from test_estimator_findings import BUCKLIN_TIED, BUCKLIN_UNIQUE, election

HALF_S_SETTINGS = settings(max_examples=150, deadline=None)

ITEM_15 = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 15: the sandwich [L, U] does not give this rule's c"))


def half_s_holds(profile, rule):
    """U <= r * ceil(L) for the rule's bounds on the profile, with
    r = (1 + c)/(1 - c) from `guarantee_constant`."""
    c = guarantee_constant(rule, profile.m)
    bounds = mov_bounds(profile, rule)
    upper = bounds.upper - (1 if isinstance(rule, Scoring) else 0)
    return upper <= (1 + c) / (1 - c) * math.ceil(bounds.lower)


@st.composite
def elections(draw):
    """(ranked profile, approval profile, score vector, k) over m candidates."""
    m = draw(st.integers(2, 5))
    counts = st.integers(1, 9)
    orders = draw(st.lists(st.sampled_from(list(itertools.permutations(range(m)))),
                           min_size=1, max_size=8, unique=True))
    sets = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=8,
                         unique=True))
    ranked = RankedProfile(m, [(order, draw(counts)) for order in orders])
    approval = ApprovalProfile(m, [(ballot, draw(counts)) for ballot in sets])
    vector = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                           min_size=m, max_size=m)
                  .map(lambda xs: sorted(xs, reverse=True)).filter(lambda xs: xs[0] > xs[-1]))
    return ranked, approval, ScoreVector(tuple(vector)), draw(st.integers(1, m - 1))


@HALF_S_SETTINGS
@given(elections())
def test_half_s_on_every_sandwich_rule(case):
    ranked, approval, vector, k = case
    m = ranked.m
    checks = [(ranked, Scoring(ScoreVector.borda(m))), (ranked, Scoring(vector)),
              (ranked, KApproval(k)), (approval, Approval()), (ranked, Maximin())]
    for alpha in (F(0), F(1, 2), F(1)):
        if len(winner_set(ranked, Copeland(alpha)).winners) == 1:
            checks.append((ranked, Copeland(alpha)))
    for profile, rule in checks:
        assert half_s_holds(profile, rule), rule


@ITEM_15
def test_half_s_for_bucklin_with_a_unique_winner():
    # bounds [50001, 400001]: U is 8x the certified margin
    assert half_s_holds(election(BUCKLIN_UNIQUE, 5), Bucklin())


@ITEM_15
def test_half_s_for_bucklin_with_tied_winners():
    # bounds [500, 6001]
    assert half_s_holds(election(BUCKLIN_TIED, 4), Bucklin())


@ITEM_15
def test_half_s_for_copeland_on_a_tied_cycle():
    # 10^6 copies of each cyclic ranking: bounds [1, 3*10^6], r = 6
    r = 10**6
    profile = election({"a>b>c": r, "b>c>a": r, "c>a>b": r}, 3)
    assert half_s_holds(profile, Copeland(F(1, 2)))
