"""Seeded command-line text pinned for every rule family.

`mov --mode estimate` (the default sample size, and ell = n) and
`experiment --oracle bounds` run on one small election per ballot kind with
one seed, so any change to an estimate, a bound, a sample size or a seeded
stream shows here as a text difference. The ranked rules' estimates are
also pinned at the scale of an audit: IC n=5000, m=8, seed 3, with 4,712
distinct rankings. There a sample of 4,427 to 13,844 votes walks the
binomial sampler's geometric branch at almost every ranking, and
Copeland's 55,376 votes walk mostly its BTRS branch. The Monte Carlo
shapes, `experiment -g` on generated n=2000 elections and `distinguish`,
are pinned too: they run impartial culture, the uniform approval depths
and the estimate of each freshly generated profile.
"""

import pytest
from click.testing import CliRunner

from movkit.cli import main

RANKED = "m 4\n8: d>c>b>a\n12: d>c>a>b\n2: c>d>a>b\n10: d>a>c>b\n7: b>a>d>c\n5: c>b>d>a\n"
APPROVAL = "m 4\n9: {a, b}\n4: {c}\n3: {b, c, d}\n1: {}\n6: {a, d}\n"

PINNED = {
    'scoring:3/2,1/3,0,-1/2': (
        'estimate = 10.6851639 (exact 195250/18273)\n'
        'samples = 6091, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 10.22222222 (exact 92/9)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 1.17649*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,"scoring:3/2,1/3,0,-1/2",44,4,0.1,0.05,6091,,8.000000000,17.00000000,10.72770390,0.000000000,true\n'
        '2,11307387092600937729,"scoring:3/2,1/3,0,-1/2",44,4,0.1,0.05,6091,,8.000000000,17.00000000,10.70442730,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'borda': (
        'estimate = 7.756726682 (exact 425216/54819)\n'
        'samples = 6091, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 7.555555556 (exact 68/9)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 1.17649*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,"scoring:3,2,1,0",44,4,0.1,0.05,6091,,5.833333333,12.66666667,7.849833087,0.000000000,true\n'
        '2,11307387092600937729,"scoring:3,2,1,0",44,4,0.1,0.05,6091,,5.833333333,12.66666667,7.759937248,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'kapproval:2': (
        'estimate = 2.463966534 (exact 12958/5259)\n'
        'samples = 5259, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 3 (exact 3)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 1.09321*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,kapproval:2,44,4,0.1,0.05,5259,,2.500000000,3.000000000,2.635482031,0.000000000,true\n'
        '2,11307387092600937729,kapproval:2,44,4,0.1,0.05,5259,,2.500000000,3.000000000,2.413766876,0.08623312417,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'approval': (
        'estimate = 1.567066163 (exact 9545/6091)\n'
        'samples = 6091, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.95, n = 23\n'
        'estimate = 2 (exact 2)\n'
        'samples = 23, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 1.62724*n ] >= 0.95, n = 23\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,approval,23,4,0.1,0.05,6091,,1.500000000,2.000000000,1.472664587,0.02733541290,true\n'
        '2,11307387092600937729,approval,23,4,0.1,0.05,6091,,1.500000000,2.000000000,1.591610573,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'bucklin': (
        'estimate = 10.99184589 (exact 200854/18273)\n'
        'samples = 6091, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 8.666666667 (exact 26/3)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 1.17649*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,bucklin,44,4,0.1,0.05,6091,,8.000000000,16.00000000,10.58731462,0.000000000,true\n'
        '2,11307387092600937729,bucklin,44,4,0.1,0.05,6091,,8.000000000,16.00000000,11.03037268,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'maximin': (
        'estimate = 16.75812057 (exact 612392/36543)\n'
        'samples = 12181, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 15.33333333 (exact 46/3)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 1.66381*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,maximin,44,4,0.1,0.05,12181,,12.50000000,25.00000000,16.70755001,0.000000000,true\n'
        '2,11307387092600937729,maximin,44,4,0.1,0.05,12181,,12.50000000,25.00000000,16.77497742,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'copeland:0': (
        'estimate = 18.85714286 (exact 132/7)\n'
        'samples = 48722, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 5/7*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 15.42857143 (exact 108/7)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 5/7*MoV + 3.32763*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,copeland:0,44,4,0.1,0.05,48722,,10.00000000,44.00000000,18.85714286,0.000000000,true\n'
        '2,11307387092600937729,copeland:0,44,4,0.1,0.05,48722,,10.00000000,44.00000000,18.85714286,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'copeland:1/2': (
        'estimate = 18.85714286 (exact 132/7)\n'
        'samples = 48722, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 5/7*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 17.14285714 (exact 120/7)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 5/7*MoV + 3.32763*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,copeland:1/2,44,4,0.1,0.05,48722,,11.00000000,44.00000000,18.85714286,0.000000000,true\n'
        '2,11307387092600937729,copeland:1/2,44,4,0.1,0.05,48722,,11.00000000,44.00000000,18.85714286,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
    'copeland:1': (
        'estimate = 18.85714286 (exact 132/7)\n'
        'samples = 48722, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 5/7*MoV + 0.1*n ] >= 0.95, n = 44\n'
        'estimate = 17.14285714 (exact 120/7)\n'
        'samples = 44, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 5/7*MoV + 3.32763*n ] >= 0.95, n = 44\n'
        'trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,abs_error,within_guarantee\n'
        '1,2092789425003139053,copeland:1,44,4,0.1,0.05,48722,,11.00000000,44.00000000,18.85714286,0.000000000,true\n'
        '2,11307387092600937729,copeland:1,44,4,0.1,0.05,48722,,11.00000000,44.00000000,18.85714286,0.000000000,true\n'
        'trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n'
    ),
}


@pytest.mark.parametrize("rule", PINNED)
def test_seeded_estimate_and_bounds_text(rule, tmp_path):
    path, rows = tmp_path / "e.txt", tmp_path / "rows.csv"
    path.write_text(APPROVAL if rule == "approval" else RANKED, encoding="utf-8")
    n = "23" if rule == "approval" else "44"
    runner, output = CliRunner(), ""
    for extra in ([], ["--samples", n]):
        result = runner.invoke(main, ["mov", "-i", str(path), "-r", rule, "--mode", "estimate",
                                      "--seed", "3", *extra], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        output += result.output
    result = runner.invoke(main, ["experiment", "-i", str(path), "-r", rule, "--oracle", "bounds",
                                  "--trials", "2", "--seed", "3", "-o", str(rows)],
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    output += rows.read_text(encoding="utf-8") + result.output
    assert output == PINNED[rule]


AUDIT_PINNED = {
    'plurality': (
        'estimate = 22.02394398 (exact 97500/4427)\n'
        'samples = 4427, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 22.58866049 (exact 100000/4427)\n'
        'samples = 4427, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
    'borda': (
        'estimate = 1 (exact 1)\n'
        'samples = 6922, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 7.567314704 (exact 550000/72681)\n'
        'samples = 6922, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
    'kapproval:3': (
        'estimate = 10.44386423 (exact 4000/383)\n'
        'samples = 5745, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 7.397737163 (exact 8500/1149)\n'
        'samples = 5745, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
    'scoring:10,6,4,3,2,1,1,0': (
        'estimate = 4.334007512 (exact 15000/3461)\n'
        'samples = 6922, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 16.99894058 (exact 176500/10383)\n'
        'samples = 6922, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
    'bucklin': (
        'estimate = 18.9658095 (exact 196922/10383)\n'
        'samples = 6922, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 23.7813734 (exact 246922/10383)\n'
        'samples = 6922, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
    'maximin': (
        'estimate = 8.668015025 (exact 30000/3461)\n'
        'samples = 13844, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 18.53992102 (exact 192500/10383)\n'
        'samples = 13844, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 1/3*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
    'copeland': (
        'estimate = 1 (exact 1)\n'
        'samples = 55376, seed = 3\n'
        'guarantee: P[ |estimate - MoV| <= 7/9*MoV + 0.1*n ] >= 0.95, n = 5000\n'
        'estimate = 8.888888889 (exact 80/9)\n'
        'samples = 55376, seed = 4\n'
        'guarantee: P[ |estimate - MoV| <= 7/9*MoV + 0.1*n ] >= 0.95, n = 5000\n'
    ),
}


@pytest.fixture(scope="module")
def audit_file(tmp_path_factory):
    result = CliRunner().invoke(main, ["generate", "--model", "ic", "--n", "5000", "--m", "8",
                                       "--seed", "3"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    path = tmp_path_factory.mktemp("audit") / "ic.txt"
    path.write_text(result.output, encoding="utf-8")
    return path


# seed 4 as well as 3: with seed 3, Borda's and Copeland's estimates are
# projected up onto 1, which a changed draw could leave as it is
@pytest.mark.parametrize("rule", AUDIT_PINNED)
def test_seeded_estimate_text_at_audit_scale(rule, audit_file):
    runner, output = CliRunner(), ""
    for seed in ("3", "4"):
        result = runner.invoke(main, ["mov", "-i", str(audit_file), "-r", rule, "--mode", "estimate",
                                      "--seed", seed], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        output += result.output
    assert output == AUDIT_PINNED[rule]


IC = "ic:n=2000,m=4"
HEADER = ("trial,seed,rule,n,m,epsilon,delta,ell,mov_exact,mov_lower,mov_upper,estimate,"
          "abs_error,within_guarantee\n")
PASS = "trials=2 usable=2 excluded=0 violations=0 rate=0.000000 threshold=0.72 PASS\n"
# (rule, generator, oracle policy) -> the text of `experiment --trials 2 --seed 5`
MONTECARLO_PINNED = {
    ("borda", IC, "bounds"): (
        HEADER
        + '1,7134611160154358618,"scoring:3,2,1,0",2000,4,0.1,0.05,6091,,7.500000000,16.00000000,1.000000000,6.500000000,true\n'
        + '2,4292726422858613063,"scoring:3,2,1,0",2000,4,0.1,0.05,6091,,8.166666667,17.33333333,4.086174502,4.080492165,true\n'
        + PASS
    ),
    ("bucklin", IC, "bounds"): (
        HEADER
        + "1,7134611160154358618,bucklin,2000,4,0.1,0.05,6091,,7.000000000,47.00000000,10.07946150,0.000000000,true\n"
        + "2,4292726422858613063,bucklin,2000,4,0.1,0.05,6091,,2.000000000,26.00000000,11.39287473,0.000000000,true\n"
        + PASS
    ),
    ("maximin", IC, "bounds"): (
        HEADER
        + "1,7134611160154358618,maximin,2000,4,0.1,0.05,12181,,11.00000000,22.00000000,7.771666256,3.228333744,true\n"
        + "2,4292726422858613063,maximin,2000,4,0.1,0.05,12181,,9.000000000,18.00000000,8.428426785,0.5715732151,true\n"
        + PASS
    ),
    ("copeland", IC, "bounds"): (
        HEADER
        + "1,7134611160154358618,copeland:1/2,2000,4,0.1,0.05,48722,,11.00000000,66.00000000,15.42857143,0.000000000,true\n"
        + "2,4292726422858613063,copeland:1/2,2000,4,0.1,0.05,48722,,9.000000000,54.00000000,5.142857143,3.857142857,true\n"
        + PASS
    ),
    ("approval", IC + ",approval=uniform", "bounds"): (
        HEADER
        + "1,7134611160154358618,approval,2000,4,0.1,0.05,6091,,0.5000000000,1.000000000,6.731242817,5.731242817,true\n"
        + "2,4292726422858613063,approval,2000,4,0.1,0.05,6091,,6.500000000,7.000000000,5.582006239,0.9179937613,true\n"
        + PASS
    ),
    ("plurality", "plantedgap:n=2000,m=3,gap=100", "closed"): (
        HEADER
        + "1,7134611160154358618,kapproval:1,2000,3,0.1,0.05,4427,50,,,32.07589790,17.92410210,true\n"
        + "2,4292726422858613063,kapproval:1,2000,3,0.1,0.05,4427,50,,,59.85995030,9.859950305,true\n"
        + PASS
    ),
}


@pytest.mark.parametrize("rule, generator, oracle", MONTECARLO_PINNED)
def test_seeded_experiment_text_on_generated_elections(rule, generator, oracle):
    result = CliRunner().invoke(main, ["experiment", "-r", rule, "-g", generator, "--trials", "2",
                                       "--seed", "5", "--oracle", oracle], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert result.output == MONTECARLO_PINNED[rule, generator, oracle]


def test_seeded_distinguisher_text():
    result = CliRunner().invoke(main, ["distinguish", "--trials", "3", "--seed", "5"],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert result.output == (
        "samples = 17707\n"
        "population n = 2000, planted a-first fraction = 4/5\n"
        "threshold = 150\n"
        "errors: planted misread as tied 0/3, tied misread as planted 0/3\n"
        "error rate = 0.000000 (target <= 2*delta = 0.1)\n"
    )
