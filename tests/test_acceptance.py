"""Acceptance gate: one test per release criterion, one printed verdict each.

Every expected constant in here was recomputed from the defining formulas
(high-precision arithmetic) or from the brute-force search before being
frozen. Monte-Carlo criteria use fixed seeds, so reruns are deterministic.
"""

import math
from fractions import Fraction

import pytest
from click.testing import CliRunner
from mpmath import mp, mpf
from mpmath import ceil as mpceil
from mpmath import log as mplog

from movkit.cli import main as cli_main
from movkit.core import (
    Approval,
    Bucklin,
    Copeland,
    KApproval,
    Maximin,
    ScoreVector,
    Scoring,
    approval_profile,
    ranked_profile,
    top_two,
    winner_set,
)
from movkit.estimators import (
    VoteSource,
    estimate_kapproval,
    estimate_mov,
    sample_size,
    split_seed,
)
from movkit.experiments import pass_threshold, run_distinguisher
from movkit.generation import ImpartialCulture, PlantedGap, generate, ranked_to_approval
from movkit.io_formats import parse_election, write_election
from movkit.oracle import (
    TiedWinnersError,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
)

F = Fraction
HALF = F(1, 2)
EPS = F(1, 10)
DELTA = F(1, 20)
N_BIG = 2000


def announce(capsys, number, name, passed, detail):
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"\ncriterion {number} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {number} failed: {detail}"


# --- criterion 1: sample-size formulas -------------------------------------

def test_criterion_1_sample_size_table(capsys):
    """The four closed forms at (eps, delta, m, k) = (0.1, 0.01, 5, 1).

    Expected integers recomputed at 50 digits from the printed formulas:
    1200 ln 200 = 6357.98..., 1200 ln 1000 = 8289.31..., doubled and
    octupled for the pairwise rules before the ceiling is taken.
    """
    eps, delta = F(1, 10), F(1, 100)
    got = (
        sample_size("kapproval", eps, delta, 5, 1),
        sample_size("scoring", eps, delta, 5),
        sample_size("maximin", eps, delta, 5),
        sample_size("copeland", eps, delta, 5),
    )
    mp.dps = 50
    e, d = mpf(1) / 10, mpf(1) / 100
    want = (
        int(mpceil(12 / e**2 * mplog(2 * 1 / d))),
        int(mpceil(12 / e**2 * mplog(2 * 5 / d))),
        int(mpceil(24 / e**2 * mplog(2 * 5 / d))),
        int(mpceil(96 / e**2 * mplog(2 * 5 / d))),
    )
    frozen = (6358, 8290, 16579, 66315)
    ok = got == want == frozen
    announce(capsys, 1, "sample-size formulas", ok,
             f"kapproval={got[0]} scoring={got[1]} maximin={got[2]} copeland={got[3]}")


# --- criteria 2 and 3: sandwich bounds and closed form vs brute force ------

RANKED_RULES_M3 = [
    Scoring(ScoreVector.borda(3)),
    KApproval(1),
    KApproval(2),
    Bucklin(),
    Maximin(),
    Copeland(HALF),
]
RANKED_RULES_M2 = [
    Scoring(ScoreVector.borda(2)),
    KApproval(1),
    Bucklin(),
    Maximin(),
    Copeland(HALF),
]


@pytest.fixture(scope="module")
def sandwich_suite():
    """500 impartial-culture m=3 profiles, 150 m=2 profiles, plus edge cases."""
    m3 = [
        generate(ImpartialCulture(n=1 + split_seed(77, i) % 6, m=3, seed=split_seed(88, i)))
        for i in range(500)
    ]
    m2 = [
        generate(ImpartialCulture(n=1 + split_seed(99, i) % 6, m=2, seed=split_seed(110, i)))
        for i in range(150)
    ]
    edges = [
        ranked_profile(2, [((0, 1), 1)]),
        ranked_profile(2, [((0, 1), 4)]),
        ranked_profile(2, [((0, 1), 1), ((1, 0), 1)]),
        ranked_profile(2, [((0, 1), 3), ((1, 0), 3)]),
        ranked_profile(2, [((0, 1), 2), ((1, 0), 1)]),
    ]
    m3.append(ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 2), ((2, 0, 1), 2)]))
    approval = [
        ranked_to_approval(
            generate(ImpartialCulture(n=1 + split_seed(55, i) % 6, m=3, seed=split_seed(66, i))),
            "uniform",
            split_seed(44, i),
        )
        for i in range(500)
    ]
    approval_edges = [
        approval_profile(2, [((0,), 3)]),
        approval_profile(2, [((0, 1), 2)]),
        approval_profile(3, [((), 4)]),
        approval_profile(2, [((0,), 2), ((1,), 2)]),
    ]
    return m3, m2 + edges, approval + approval_edges


def test_criterion_2_sandwich_bounds(capsys, sandwich_suite):
    m3, m2, approval = sandwich_suite
    checked = 0
    violations = 0
    for profiles, rules in [(m3, RANKED_RULES_M3), (m2, RANKED_RULES_M2)]:
        for prof in profiles:
            for rule in rules:
                exact = mov_brute_force(prof, rule, prof.n).value
                bounds = mov_bounds(prof, rule)
                checked += 1
                if not (bounds.lower <= exact <= bounds.upper):
                    violations += 1
    for prof in approval:
        exact = mov_brute_force(prof, Approval(), prof.n).value
        bounds = mov_bounds(prof, Approval())
        checked += 1
        if not (bounds.lower <= exact <= bounds.upper):
            violations += 1
    announce(capsys, 2, "sandwich bounds", violations == 0,
             f"{checked} rule-profile pairs, {violations} violations")


def test_criterion_3_kapproval_closed_form(capsys, sandwich_suite):
    m3, m2, approval = sandwich_suite
    checked = 0
    mismatches = 0
    cases = [(m3, (1, 2)), (m2, (1,))]
    for profiles, ks in cases:
        for prof in profiles:
            for k in ks:
                scores = winner_set(prof, Scoring(ScoreVector.k_approval(prof.m, k))).scores
                w, z = top_two(scores)
                if scores[w] == scores[z]:
                    continue  # tie-free instances only
                checked += 1
                brute = mov_brute_force(prof, KApproval(k), prof.n).value
                if mov_kapproval_closed_form(prof, k) != brute:
                    mismatches += 1
    for prof in approval:
        scores = winner_set(prof, Approval()).scores
        w, z = top_two(scores)
        if scores[w] == scores[z]:
            continue
        checked += 1
        brute = mov_brute_force(prof, Approval(), prof.n).value
        if mov_approval_closed_form(prof) != brute:
            mismatches += 1
    announce(capsys, 3, "closed form equals brute force", mismatches == 0,
             f"{checked} tie-free instances, {mismatches} mismatches")


# --- criterion 4: coverage of the estimation guarantee ---------------------

TWO_CANDIDATE_PAIRS = [(1200, 800), (1300, 700), (1100, 900), (1050, 950), (1500, 500)]
PLANTED_GAPS = [100, 60, 150, 30, 200]
TRIALS = 200


def two_candidate_profile(p, q):
    return ranked_profile(2, [((0, 1), p), ((1, 0), q)])


def test_two_candidate_closed_forms_match_brute_force():
    """The n=2000 coverage families rely on these scaled-down identities."""
    for p, q in [(3, 2), (4, 1), (5, 3), (4, 3), (6, 2), (2, 1)]:
        prof = two_candidate_profile(p, q)
        plurality_mov = (p - q + 1) // 2
        assert mov_brute_force(prof, KApproval(1), prof.n).value == plurality_mov
        assert mov_brute_force(prof, Maximin(), prof.n).value == plurality_mov
        assert mov_brute_force(prof, Copeland(HALF), prof.n).value == plurality_mov
        bucklin_mov = p - prof.n // 2
        assert mov_brute_force(prof, Bucklin(), prof.n).value == bucklin_mov


def coverage_verdict(violations, usable):
    return violations <= pass_threshold(DELTA, usable)


def run_family(estimate_one):
    violations = 0
    usable = 0
    for i in range(TRIALS):
        outcome = estimate_one(i)
        if outcome is None:
            continue
        m_bar, mov, c = outcome
        usable += 1
        if abs(m_bar - mov) > c * mov + EPS * N_BIG:
            violations += 1
    return violations, usable


def test_criterion_4_coverage_scoring(capsys):
    def one(i):
        gap = PLANTED_GAPS[i % len(PLANTED_GAPS)]
        prof = generate(PlantedGap(winner=0, gap=gap, n=N_BIG, m=3, seed=0))
        mov = mov_kapproval_closed_form(prof, 1)
        src = VoteSource.from_profile(prof)
        est = estimate_mov(src, Scoring(ScoreVector.plurality(3)), EPS, DELTA, split_seed(4001, i))
        return est.m_bar, mov, est.c

    violations, usable = run_family(one)
    announce(capsys, 4, "coverage: scoring", coverage_verdict(violations, usable),
             f"{violations}/{usable} violations, allowed {pass_threshold(DELTA, usable):.1f}")


def test_criterion_4_coverage_kapproval(capsys):
    def one(i):
        gap = PLANTED_GAPS[i % len(PLANTED_GAPS)]
        prof = generate(PlantedGap(winner=0, gap=gap, n=N_BIG, m=3, seed=0))
        mov = mov_kapproval_closed_form(prof, 2)
        src = VoteSource.from_profile(prof)
        est = estimate_kapproval(src, 2, EPS, DELTA, split_seed(4002, i))
        return est.m_bar, mov, est.c

    violations, usable = run_family(one)
    announce(capsys, 4, "coverage: k-approval", coverage_verdict(violations, usable),
             f"{violations}/{usable} violations, allowed {pass_threshold(DELTA, usable):.1f}")


def test_criterion_4_coverage_approval(capsys):
    def one(i):
        gap = PLANTED_GAPS[i % len(PLANTED_GAPS)]
        ranked = generate(PlantedGap(winner=0, gap=gap, n=N_BIG, m=3, seed=0))
        prof = ranked_to_approval(ranked, "uniform", split_seed(4103, i))
        try:
            mov = mov_approval_closed_form(prof)
        except TiedWinnersError:
            return None
        src = VoteSource.from_profile(prof)
        est = estimate_mov(src, Approval(), EPS, DELTA, split_seed(4003, i))
        return est.m_bar, mov, est.c

    violations, usable = run_family(one)
    assert usable >= 190  # ties are possible but must stay rare
    announce(capsys, 4, "coverage: approval", coverage_verdict(violations, usable),
             f"{violations}/{usable} violations, allowed {pass_threshold(DELTA, usable):.1f}")


def test_criterion_4_coverage_bucklin(capsys):
    def one(i):
        p, q = TWO_CANDIDATE_PAIRS[i % len(TWO_CANDIDATE_PAIRS)]
        prof = two_candidate_profile(p, q)
        mov = p - prof.n // 2
        src = VoteSource.from_profile(prof)
        est = estimate_mov(src, Bucklin(), EPS, DELTA, split_seed(4004, i))
        return est.m_bar, mov, est.c

    violations, usable = run_family(one)
    announce(capsys, 4, "coverage: bucklin", coverage_verdict(violations, usable),
             f"{violations}/{usable} violations, allowed {pass_threshold(DELTA, usable):.1f}")


def test_criterion_4_coverage_maximin(capsys):
    def one(i):
        p, q = TWO_CANDIDATE_PAIRS[i % len(TWO_CANDIDATE_PAIRS)]
        prof = two_candidate_profile(p, q)
        mov = (p - q + 1) // 2
        src = VoteSource.from_profile(prof)
        est = estimate_mov(src, Maximin(), EPS, DELTA, split_seed(4005, i))
        return est.m_bar, mov, est.c

    violations, usable = run_family(one)
    announce(capsys, 4, "coverage: maximin", coverage_verdict(violations, usable),
             f"{violations}/{usable} violations, allowed {pass_threshold(DELTA, usable):.1f}")


def test_criterion_4_coverage_copeland(capsys):
    def one(i):
        p, q = TWO_CANDIDATE_PAIRS[i % len(TWO_CANDIDATE_PAIRS)]
        prof = two_candidate_profile(p, q)
        mov = (p - q + 1) // 2
        src = VoteSource.from_profile(prof)
        est = estimate_mov(src, Copeland(HALF), EPS, DELTA, split_seed(4006, i))
        return est.m_bar, mov, est.c

    violations, usable = run_family(one)
    announce(capsys, 4, "coverage: copeland", coverage_verdict(violations, usable),
             f"{violations}/{usable} violations, allowed {pass_threshold(DELTA, usable):.1f}")


# --- criterion 5: score concentration ---------------------------------------

def test_criterion_5_concentration(capsys):
    prof = ranked_profile(4, [
        ((0, 1, 2, 3), 700),
        ((1, 2, 3, 0), 600),
        ((2, 3, 0, 1), 400),
        ((3, 0, 1, 2), 300),
    ])
    exact = winner_set(prof, Scoring(ScoreVector.plurality(4))).scores
    src = VoteSource.from_profile(prof)
    ell = sample_size("scoring", EPS, DELTA, 4)
    assert ell == 6091
    trials = 400
    limit = (EPS / 2) * prof.n
    bad = 0
    for i in range(trials):
        est = estimate_mov(src, Scoring(ScoreVector.plurality(4)), EPS, DELTA, split_seed(5000, i))
        if any(abs(est.estimated_scores[x] - exact[x]) > limit for x in range(4)):
            bad += 1
    slack = 2 * math.sqrt(float(DELTA) * (1 - float(DELTA)) / trials)
    ok = bad / trials <= float(DELTA) + slack
    announce(capsys, 5, "score concentration", ok,
             f"{bad}/{trials} trials deviated, allowed rate {float(DELTA) + slack:.4f}")


# --- criterion 6: convexity inequality --------------------------------------

def test_criterion_6_convexity_grid(capsys):
    def f(t, lam):
        return math.exp(-lam / t)

    worst = -math.inf
    points = 0
    for i in range(1, 51):
        x = 0.1 * i
        for j in range(1, 51):
            y = x + 0.1 * j
            for k in range(1, 11):
                lam = (x + y) * (2 + 0.5 * k)
                points += 1
                worst = max(worst, f(x, lam) + f(y, lam) - f(x + y, lam))
    ok = worst <= 1e-12
    announce(capsys, 6, "convexity inequality", ok,
             f"{points} grid points, max slack {worst:.3e}")


# --- criterion 7: the distinguisher -----------------------------------------

def test_criterion_7_distinguisher(capsys):
    trials = 500
    result = run_distinguisher(F(1, 20), F(1, 20), trials, 0)
    classifications = 2 * trials
    slack = 2 * math.sqrt(0.1 * 0.9 / classifications)
    ok = result.error_rate <= 2 * float(F(1, 20)) + slack
    announce(capsys, 7, "distinguisher error rate", ok,
             f"rate {result.error_rate:.4f} over {classifications}, "
             f"allowed {0.1 + slack:.4f}, budget {result.budget}")


# --- criterion 8: determinism ------------------------------------------------

SEEDED_COMMANDS = [
    ["generate", "--model", "ic", "--n", "25", "--m", "4", "--seed", "13"],
    ["generate", "--model", "ic", "--n", "20", "--m", "3", "--seed", "2", "--approval", "uniform"],
    ["generate", "--model", "plantedgap", "--n", "30", "--m", "3", "--gap", "4", "--seed", "5"],
    ["generate", "--model", "twocandidate", "--n", "12", "--p", "2/3", "--seed", "9"],
    ["mov", "-r", "plurality", "--mode", "estimate", "--seed", "21", "-i", None],
    ["mov", "-r", "copeland:1/2", "--mode", "estimate", "--seed", "3", "-i", None],
    ["experiment", "-r", "plurality", "-g", "ic:n=15,m=3", "--trials", "3",
     "--seed", "7", "--oracle", "brute"],
    ["experiment", "-r", "bucklin", "-g", "plantedgap:n=40,m=2,gap=6", "--trials", "2",
     "--seed", "8", "--oracle", "brute"],
    ["distinguish", "--trials", "4", "--seed", "17"],
]


def test_criterion_8_determinism(capsys, tmp_path):
    election = tmp_path / "fixture.txt"
    election.write_text("m 2\n8: a>b\n5: b>a\n")

    runner = CliRunner()
    unstable = []
    for args in SEEDED_COMMANDS:
        argv = [str(election) if a is None else a for a in args]
        first = runner.invoke(cli_main, argv, catch_exceptions=False)
        second = runner.invoke(cli_main, argv, catch_exceptions=False)
        assert first.exit_code == 0, first.output
        if first.output != second.output or second.exit_code != 0:
            unstable.append(argv[0])

    roundtrip_failures = 0
    for i in range(1000):
        n = 1 + split_seed(8000, i) % 8
        m = 2 + split_seed(8001, i) % 4
        prof = generate(ImpartialCulture(n=n, m=m, seed=split_seed(8002, i)))
        if i % 2:
            prof = ranked_to_approval(prof, "uniform", split_seed(8003, i))
        if parse_election(write_election(prof)) != prof:
            roundtrip_failures += 1

    ok = not unstable and roundtrip_failures == 0
    announce(capsys, 8, "determinism", ok,
             f"{len(SEEDED_COMMANDS)} seeded commands stable, "
             f"{1000 - roundtrip_failures}/1000 round-trips exact")
