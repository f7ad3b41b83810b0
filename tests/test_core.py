"""Core type and winner-determination tests."""

import gc
import tracemalloc
from fractions import Fraction

import pytest

from movkit import core, estimators
from movkit.core import (
    Approval,
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    RankedProfile,
    Ranking,
    ScoreVector,
    Scoring,
    rule_tally,
    winner_set,
)
from movkit.estimators import VoteSource, estimate_mov
from movkit.generation import ImpartialCulture, generate
from movkit.io_formats import parse_election, write_election
from movkit.oracle import mov_brute_force

F = Fraction
HALF = F(1, 2)


def test_ranking_is_a_permutation():
    r = Ranking((2, 0, 1))
    assert len(r.order) == 3
    assert r.order == (2, 0, 1)


@pytest.mark.parametrize("order", [(0, 0), (0, 2), (1, 2, 3)])
def test_ranking_rejects_non_permutations(order):
    with pytest.raises(InputError):
        Ranking(order)


def test_approval_ballot_accepts_empty_and_full():
    assert ApprovalBallot(frozenset()).approved == frozenset()
    assert ApprovalBallot(frozenset({0, 1, 2})).approved == frozenset({0, 1, 2})


def test_profile_merges_duplicate_ballots():
    p = RankedProfile(2, [((0, 1), 1), ((0, 1), 2), ((1, 0), 1)])
    assert p.votes == ((Ranking((0, 1)), 3), (Ranking((1, 0)), 1))
    assert p.n == 4
    assert len(p.expand()) == 4


def test_canonical_builder_matches_the_checked_constructor():
    # the builder trusts its keys, so its ballots must be indistinguishable
    # from checked ones; a ranking's key is the bytes of its order
    ranked = {(2, 0, 1): 10**12, (0, 1, 2): 1}
    p = RankedProfile._from_canonical(3, {bytes(k): c for k, c in ranked.items()}, ("x", "y", "z"))
    for ballot, _ in p.votes:
        assert type(ballot) is Ranking and type(ballot.order) is tuple
        assert ballot == Ranking(ballot.order) and hash(ballot) == hash(Ranking(ballot.order))
    assert p == RankedProfile(m=3, votes=tuple(ranked.items()), names=("x", "y", "z"))
    assert [ballot.order for ballot, _ in p.votes] == sorted(ranked)

    approval = {(1, 9, 20): 2, (): 1, (0,): 3}
    q = ApprovalProfile._from_canonical(27, approval, None)
    for (ballot, count), key in zip(q.votes, sorted(approval)):
        assert type(ballot) is ApprovalBallot and count == approval[key]
        assert ballot == ApprovalBallot(frozenset(key))
        assert hash(ballot) == hash(ApprovalBallot(frozenset(key)))
    checked = ApprovalProfile(m=27, votes=tuple((set(key), c) for key, c in approval.items()))
    assert q == checked and repr(q) == repr(checked)


def test_profile_n_is_summed_once_and_not_a_field():
    checked = RankedProfile(3, [((2, 0, 1), 10**12), ((0, 1, 2), 1)])
    built = RankedProfile._from_canonical(3, {bytes((2, 0, 1)): 10**12, bytes((0, 1, 2)): 1}, None)
    before = (repr(checked), hash(checked))
    assert checked.n == built.n == 10**12 + 1
    assert checked.__dict__["n"] == built.__dict__["n"] == 10**12 + 1  # cached on first read
    assert (repr(checked), hash(checked)) == before and "n=" not in before[0]
    assert checked == built and hash(checked) == hash(built)
    assert checked == RankedProfile(3, [((0, 1, 2), 1), ((2, 0, 1), 10**12)])  # n not read yet


@pytest.mark.parametrize("build", ["generated", "parsed"])
def test_a_profile_keeps_few_bytes_per_distinct_ranking(build):
    # IC n = 20,000 over 8 candidates has about 15,700 distinct rankings; a
    # profile that kept an object per ranking took 208 bytes for each
    spec = ImpartialCulture(n=20_000, m=8, seed=1)
    text = write_election(generate(spec)) if build == "parsed" else None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profile = generate(spec) if text is None else parse_election(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    distinct = len(profile.votes)
    assert distinct > 15_000
    assert retained / distinct <= 42


def test_profile_rejects_bad_multiplicity_and_mismatched_m():
    with pytest.raises(InputError):
        RankedProfile(2, [((0, 1), 0)])
    with pytest.raises(InputError):
        RankedProfile(3, [((0, 1), 1)])


def test_profile_names_validated():
    p = RankedProfile(2, [((0, 1), 1)], names=("left", "right"))
    assert p.names == ("left", "right")
    with pytest.raises(InputError):
        RankedProfile(2, [((0, 1), 1)], names=("x",))
    with pytest.raises(InputError):
        RankedProfile(2, [((0, 1), 1)], names=("a", "has space"))
    with pytest.raises(InputError):
        RankedProfile(2, [((0, 1), 1)], names=("dup", "dup"))


def test_score_vector_shapes():
    borda = ScoreVector.borda(3)
    assert borda.alphas == (F(2), F(1), F(0))
    assert borda.alphas[0] == 2
    with pytest.raises(InputError):
        ScoreVector((F(1), F(2)))
    with pytest.raises(InputError):
        ScoreVector((F(1),))
    with pytest.raises(InputError):
        ScoreVector((F(1), F(1)))


def test_positional_scores_examples():
    p = RankedProfile(3, [((0, 1, 2), 1), ((1, 0, 2), 1)])
    s = winner_set(p, Scoring(ScoreVector.borda(3))).scores
    assert (s[0], s[1], s[2]) == (3, 3, 0)
    p2 = RankedProfile(2, [((0, 1), 4)])
    s2 = winner_set(p2, Scoring(ScoreVector((1, 0)))).scores
    assert (s2[0], s2[1]) == (4, 0)
    p3 = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    s3 = winner_set(p3, Scoring(ScoreVector((1, 0, 0)))).scores
    assert (s3[0], s3[1], s3[2]) == (3, 2, 0)


def test_approval_scores_examples():
    p = ApprovalProfile(3, [((0,), 2), ((1,), 1)])
    s = winner_set(p, Approval()).scores
    assert (s[0], s[1], s[2]) == (2, 1, 0)
    empty = ApprovalProfile(3, [((), 5)])
    assert all(v == 0 for v in winner_set(empty, Approval()).scores.values())
    p2 = ApprovalProfile(3, [((0, 1), 2), ((1, 2), 1)])
    s2 = winner_set(p2, Approval()).scores
    assert (s2[0], s2[1], s2[2]) == (2, 3, 1)


def _top_counts(p):
    return rule_tally(Bucklin(), p.m, p.votes, True).top_counts()


def _net(p):
    return rule_tally(Maximin(), p.m, p.votes, True).net()


def test_top_k_counts_example():
    p = RankedProfile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    counts = _top_counts(p)
    assert [counts[x][0] for x in range(3)] == [2, 1, 0]
    assert [counts[x][1] for x in range(3)] == [3, 2, 1]
    assert [counts[x][2] for x in range(3)] == [3, 3, 3]
    single = _top_counts(RankedProfile(2, [((0, 1), 1)]))
    assert single[0][0] == 1 and single[1][0] == 0
    assert single[0][1] == 1 and single[1][1] == 1


def test_pairwise_matrix_examples():
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    d = _net(p)
    assert d[0][1] == 1 and d[0][2] == 1 and d[1][2] == 5
    assert d[1][0] == -1 and d[0][0] == 0
    single = _net(RankedProfile(3, [((0, 1, 2), 1)]))
    assert single[0][1] == single[0][2] == single[1][2] == 1
    tied = _net(RankedProfile(2, [((0, 1), 1), ((1, 0), 1)]))
    assert tied[0][1] == 0


def test_bucklin_scores_strict_majority():
    p = RankedProfile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    s = winner_set(p, Bucklin()).scores
    assert s[0] == 1 and s[1] == 2 and s[2] == 3
    # even n, exact half does not count as a majority
    even = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    assert winner_set(even, Bucklin()).scores == {0: 2, 1: 2}


def test_maximin_scores_example():
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    s = winner_set(p, Maximin()).scores
    assert (s[0], s[1], s[2]) == (1, -1, -5)


def test_copeland_scores_and_alpha():
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    s = winner_set(p, Copeland(HALF)).scores
    assert (s[0], s[1], s[2]) == (2, 1, 0)
    tied = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    assert winner_set(tied, Copeland(HALF)).scores == {0: HALF, 1: HALF}
    assert winner_set(tied, Copeland(F(0))).scores == {0: 0, 1: 0}
    assert winner_set(tied, Copeland(F(1))).scores == {0: 1, 1: 1}


def test_copeland_half_scores_sum_to_pair_count():
    import itertools
    import random

    rng = random.Random(11)
    for _ in range(50):
        m = rng.choice([2, 3, 4])
        n = rng.randint(1, 5)
        perms = list(itertools.permutations(range(m)))
        votes = {}
        for _ in range(n):
            b = rng.choice(perms)
            votes[b] = votes.get(b, 0) + 1
        p = RankedProfile(m, list(votes.items()))
        total = sum(winner_set(p, Copeland(HALF)).scores.values())
        assert total == F(m * (m - 1), 2)


def test_winner_set_examples():
    mm = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    res = winner_set(mm, Maximin())
    assert res.winners == (0,)
    assert res.scores[0] == 1 and res.scores[1] == -1 and res.scores[2] == -5

    cp = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    res = winner_set(cp, Copeland(HALF))
    assert res.winners == (0,)
    assert res.scores == {0: 2, 1: 1, 2: 0}

    bu = RankedProfile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    res = winner_set(bu, Bucklin())
    assert res.winners == (0,)
    assert res.scores[0] == 1

    pl = RankedProfile(2, [((0, 1), 3), ((1, 0), 1)])
    res = winner_set(pl, KApproval(1))
    assert res.winners == (0,)
    assert res.scores == {0: 3, 1: 1}


def test_winner_set_kind_and_parameter_validation():
    ranked = RankedProfile(2, [((0, 1), 1)])
    approval = ApprovalProfile(2, [((0,), 1)])
    with pytest.raises(InputError):
        winner_set(ranked, Approval())
    with pytest.raises(InputError):
        winner_set(approval, KApproval(1))
    with pytest.raises(InputError):
        winner_set(ranked, KApproval(2))  # k must stay below m


def test_kapproval_matches_equivalent_scoring_vector():
    import itertools
    import random

    rng = random.Random(23)
    for _ in range(40):
        m = rng.choice([3, 4])
        n = rng.randint(1, 5)
        perms = list(itertools.permutations(range(m)))
        votes = {}
        for _ in range(n):
            b = rng.choice(perms)
            votes[b] = votes.get(b, 0) + 1
        p = RankedProfile(m, list(votes.items()))
        k = rng.randint(1, m - 1)
        via_rule = winner_set(p, KApproval(k))
        via_vector = winner_set(p, Scoring(ScoreVector((1,) * k + (0,) * (m - k))))
        assert via_rule.winners == via_vector.winners


def test_affine_invariance_of_scoring_winners():
    import itertools
    import random

    rng = random.Random(5)
    perms = list(itertools.permutations(range(3)))
    for _ in range(40):
        votes = {}
        for _ in range(rng.randint(1, 5)):
            b = rng.choice(perms)
            votes[b] = votes.get(b, 0) + 1
        p = RankedProfile(3, list(votes.items()))
        base = winner_set(p, Scoring(ScoreVector.borda(3)))
        scaled = winner_set(p, Scoring(ScoreVector((F(7), F(4), F(1)))))
        assert base.winners == scaled.winners


def test_relabeling_equivariance():
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    perm = {0: 2, 1: 0, 2: 1}
    relabeled = RankedProfile(
        3, [(tuple(perm[c] for c in b.order), mult) for b, mult in p.votes]
    )
    for rule in [KApproval(1), Scoring(ScoreVector.borda(3)), Bucklin(), Maximin(), Copeland(HALF)]:
        orig = winner_set(p, rule)
        new = winner_set(relabeled, rule)
        assert tuple(sorted(perm[w] for w in orig.winners)) == new.winners


def test_copeland_alpha_bounds():
    with pytest.raises(InputError):
        Copeland(F(3, 2))
    with pytest.raises(InputError):
        Copeland(F(-1, 2))


# ---------------------------------------------------------------------------
# column-wise and per-ballot counts
#
# A long list of distinct rankings enters a tally column-wise, and the exact
# search and the estimators then read or step that tally; each case below
# runs once as it is and once with every tally filled by this test's own
# loop, one add per (ballot, count) pair, and must not tell the two apart.


def _loop_votes(tally, m, rows, counts, ranked):
    for i, count in enumerate(counts):
        if count:
            ballot = tuple(rows[i * m:(i + 1) * m]) if ranked else \
                tuple(c for c in range(m) if rows[i] >> c & 1)
            tally.add(ballot, count)


@pytest.fixture
def per_ballot(monkeypatch):
    """Calls a function with every tally filled one ballot at a time."""
    def run(function, *args):
        with monkeypatch.context() as patch:
            patch.setattr(core, "_add_votes", _loop_votes)
            patch.setattr(estimators, "_add_votes", _loop_votes)
            return function(*args)
    return run


EXACT_CASES = [
    (ImpartialCulture(n=400, m=5, seed=1), Maximin()),
    (ImpartialCulture(n=400, m=5, seed=2), Maximin()),
    (ImpartialCulture(n=400, m=5, seed=1), Copeland()),
    (ImpartialCulture(n=1000, m=7, seed=1), Scoring(ScoreVector.borda(7))),
    (ImpartialCulture(n=1000, m=7, seed=2), KApproval(2)),
]


@pytest.mark.parametrize("spec, rule", EXACT_CASES)
def test_exact_search_steps_a_column_built_tally(spec, rule, per_ballot):
    profile = generate(spec)
    tally = rule_tally(rule, profile.m, profile.votes, True)
    assert tally.counts_columns(len(profile.votes), profile.m)
    result = mov_brute_force(profile, rule)
    assert result == per_ballot(mov_brute_force, profile, rule)
    assert result.value is not None and result.evaluations > 0


@pytest.mark.parametrize("rule", [Scoring(ScoreVector.borda(8)), KApproval(3), Bucklin(),
                                  Maximin(), Copeland(F(1, 3))])
def test_estimate_counts_a_large_sample_column_wise(rule, per_ballot):
    source = VoteSource(generate(ImpartialCulture(n=5000, m=8, seed=3)))
    drawn = source.draw_counts(4000, 11)
    assert rule_tally(rule, 8, (), True).counts_columns(len(drawn), 8)
    estimate = estimate_mov(source, rule, F(1, 10), F(1, 20), 11, ell=4000)
    assert repr(estimate) == repr(per_ballot(estimate_mov, source, rule, F(1, 10), F(1, 20),
                                             11, 4000))


@pytest.mark.parametrize("rule", [Scoring(ScoreVector.borda(300)), Maximin()])
def test_many_candidates_take_the_per_ballot_loop(rule, per_ballot):
    # 520 distinct rankings: a column-wise count for every family at m = 16;
    # candidate 299 does not fit in a byte, so m = 300 must take the loop
    profile = generate(ImpartialCulture(n=520, m=300, seed=5))
    assert len(profile.votes) == 520
    tally = rule_tally(rule, 300, (), True)
    assert not tally.counts_columns(520, 300)
    # 520 lies below maximin's 8m = 2,400, so only a long list tests the guard
    assert not tally.counts_columns(10**6, 300)
    assert winner_set(profile, rule) == per_ballot(winner_set, profile, rule)

