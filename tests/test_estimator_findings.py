"""Pre-registered reproducers of two estimators that break their guarantee.

`estimate_mov` claims |estimate - MoV| <= c*MoV + eps*n with probability at
least 1 - delta. Each test below runs a fixed set of seeds and asserts that
claim on every one of them, against a margin certified without the exact
search. Each is a strict xfail that must fail on its assertion: every seed
violates the guarantee today, and a fixed estimator turns the xfail into an
unexpected pass. Do not shrink n to make them cheaper: the draw costs the
same at any n, and the profiles have a handful of distinct ballots.

* Bucklin's (1 - c)*U estimator reads the level gap U, which can be far
  above the margin: 8x on the unique-winner file below.
* Copeland's statistic is 0 on a tied winner set, so its estimate there is
  1, while a tied set can have a large margin.
"""

import math
from fractions import Fraction as F

import pytest

from movkit.core import Bucklin, Copeland, winner_set
from movkit.estimators import VoteSource, estimate_mov
from movkit.io_formats import parse_election
from movkit.oracle import mov_bounds

BUCKLIN_GUARANTEE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: Bucklin's estimate (2/3)*U reads the level gap U, which can be far above "
    "the margin that a change floor event certifies"))
COPELAND_TIE_GUARANTEE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: Copeland's estimate is 1 on a tied winner set whatever its margin"))


def election(counts, m):
    """The profile of {ranking text: count}."""
    return parse_election(f"m {m}\n" + "".join(f"{k}: {r}\n" for r, k in counts.items() if k))


def replayed(counts, old, new, k):
    """``counts`` with k votes of ranking ``old`` changed to ``new``."""
    changed = dict(counts)
    changed[old] -= k
    changed[new] = changed.get(new, 0) + k
    return changed


def bucklin_certified(counts, m, old, new, k):
    """The Bucklin profile of ``counts``, whose margin is certified to be k:
    ``mov_bounds``' lower end says that no change of fewer than k votes moves
    the winner set, and replaying k votes of ``old`` changed to ``new``
    moves it."""
    profile = election(counts, m)
    assert math.ceil(mov_bounds(profile, Bucklin()).lower) == k
    moved = election(replayed(counts, old, new, k), m)
    assert winner_set(moved, Bucklin()).winners != winner_set(profile, Bucklin()).winners
    return profile


def violations(profile, rule, mov, epsilon, delta, seeds):
    """The seeds whose estimate breaks |estimate - MoV| <= c*MoV + eps*n."""
    source = VoteSource(profile)
    out = []
    for seed in seeds:
        est = estimate_mov(source, rule, epsilon, delta, seed)
        if abs(est.m_bar - mov) > est.c * mov + est.epsilon * profile.n:
            out.append(seed)
    return out


# b wins with a majority at level 2; 50,001 votes of a>b>c>e>d changed to
# d>a>c>e>b give d a majority at level 2 too
BUCKLIN_UNIQUE = dict.fromkeys(
    ["a>b>c>e>d", "b>d>a>c>e", "b>e>d>a>c", "d>b>c>e>a", "d>b>e>c>a",
     "d>c>a>e>b", "e>b>a>c>d", "e>b>c>a>d", "e>b>d>a>c"], 100_000)

# b, c and d tie; 500 votes of c>b>a>d changed to b>a>d>c drop c
BUCKLIN_TIED = {"b>c>a>d": 1_000, "b>c>d>a": 1_000, "c>b>a>d": 1_000, "c>d>a>b": 1_000,
                "d>b>a>c": 1_000, "d>b>c>a": 2_000}


def test_the_bucklin_reproducers_are_certified():
    profile = bucklin_certified(BUCKLIN_UNIQUE, 5, "a>b>c>e>d", "d>a>c>e>b", 50_001)
    assert (profile.n, winner_set(profile, Bucklin()).winners) == (900_000, (1,))
    profile = bucklin_certified(BUCKLIN_TIED, 4, "c>b>a>d", "b>a>d>c", 500)
    assert (profile.n, winner_set(profile, Bucklin()).winners) == (7_000, (1, 2, 3))


@BUCKLIN_GUARANTEE
def test_bucklin_guarantee_with_a_unique_winner():
    profile = bucklin_certified(BUCKLIN_UNIQUE, 5, "a>b>c>e>d", "d>a>c>e>b", 50_001)
    assert violations(profile, Bucklin(), 50_001, F(1, 10), F(1, 20), range(40)) == []


@BUCKLIN_GUARANTEE
def test_bucklin_guarantee_with_tied_winners():
    profile = bucklin_certified(BUCKLIN_TIED, 4, "c>b>a>d", "b>a>d>c", 500)
    assert violations(profile, Bucklin(), 500, F(1, 10), F(1, 20), range(50)) == []


@COPELAND_TIE_GUARANTEE
def test_copeland_guarantee_on_a_tied_cycle():
    # r = 10^6 copies of each cyclic ranking: every pairwise net is r, one
    # changed vote moves a net by at most 2, and no Copeland score moves
    # until a pairwise result does, so MoV >= r/2. Whatever the exact margin,
    # the guarantee then implies (1 - c)*r/2 <= estimate + eps*n, c = 5/7.
    r = 10**6
    profile = election({"a>b>c": r, "b>c>a": r, "c>a>b": r}, 3)
    assert winner_set(profile, Copeland(F(1, 2))).winners == (0, 1, 2)
    source = VoteSource(profile)
    failed = []
    for seed in range(20):
        est = estimate_mov(source, Copeland(F(1, 2)), F(1, 50), F(1, 20), seed)
        if not (1 - est.c) * (r // 2) <= est.m_bar + est.epsilon * profile.n:
            failed.append(seed)
    assert failed == []
