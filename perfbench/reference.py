"""Reference computations the benchmark checks movkit's outputs against.

Written from the rule definitions and bound formulas documented in the
README and in movkit's docstrings, with plain integer and Fraction
arithmetic and no movkit import, so that a defect in movkit's tallies cannot
pass by agreeing with itself.

Ballots are raw values: a ranking is a tuple of candidate indices, most
preferred first; an approval ballot is a frozenset. A profile is a mapping
from ballot to multiplicity.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# (family, parameter); plurality is 1-approval, borda a scoring vector
RANKED_RULES = ("plurality", "borda", "kapproval:2", "bucklin", "maximin", "copeland")


def parse_rule(spec, m):
    """(family, parameter) for the rule strings the workloads use."""
    head, _, arg = spec.partition(":")
    if head == "plurality":
        return "kapproval", 1
    if head == "kapproval":
        return "kapproval", int(arg)
    if head == "borda":
        return "scoring", tuple(m - 1 - i for i in range(m))
    if head == "scoring":
        alphas = tuple(Fraction(a) for a in arg.split(","))
        if all(a.denominator == 1 for a in alphas):
            alphas = tuple(a.numerator for a in alphas)
        return "scoring", alphas
    if head == "copeland":
        return "copeland", Fraction(arg) if arg else Fraction(1, 2)
    if head in ("approval", "bucklin", "maximin"):
        return head, None
    raise ValueError(f"no reference for rule {spec!r}")


def _positional(profile, m, weights):
    scores = [0] * m
    for order, mult in profile.items():
        for pos, cand in enumerate(order):
            scores[cand] += mult * weights[pos]
    return scores


def _top_counts(profile, m):
    """cum[x][l-1] = votes ranking x within its top l positions."""
    at = [[0] * m for _ in range(m)]
    for order, mult in profile.items():
        for pos, cand in enumerate(order):
            at[cand][pos] += mult
    return [list(itertools.accumulate(row)) for row in at]


def _pair_margins(profile, m):
    """d[x][y] = votes ranking x above y minus votes ranking y above x."""
    d = [[0] * m for _ in range(m)]
    for order, mult in profile.items():
        for i, x in enumerate(order):
            for y in order[i + 1:]:
                d[x][y] += mult
                d[y][x] -= mult
    return d


def scores(profile, m, rule):
    """Per-candidate scores as movkit's `winner` command reports them.

    Bucklin scores are majority levels, where lower is better; every other
    family is higher-is-better.
    """
    family, param = rule
    if family == "kapproval":
        return _positional(profile, m, [1] * param + [0] * (m - param))
    if family == "scoring":
        return _positional(profile, m, param)
    if family == "approval":
        out = [0] * m
        for approved, mult in profile.items():
            for cand in approved:
                out[cand] += mult
        return out
    if family == "bucklin":
        n = sum(profile.values())
        return [
            next(lv + 1 for lv, c in enumerate(row) if 2 * c > n)
            for row in _top_counts(profile, m)
        ]
    d = _pair_margins(profile, m)
    if family == "maximin":
        return [min(d[x][y] for y in range(m) if y != x) for x in range(m)]
    if family == "copeland":
        return [
            sum(1 if d[x][y] > 0 else param if d[x][y] == 0 else 0
                for y in range(m) if y != x)
            for x in range(m)
        ]
    raise ValueError(f"unknown family {family!r}")


def winners(profile, m, rule):
    """Winner set as a sorted tuple of candidate indices."""
    s = scores(profile, m, rule)
    best = min(s) if rule[0] == "bucklin" else max(s)
    return tuple(c for c in range(m) if s[c] == best)


def fmt_number(value):
    """Integers bare, other rationals as six significant digits."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return format(float(value), ".6g")


def winner_text(profile, m, rule):
    """Expected stdout of `movkit winner` on an unnamed profile."""
    s = scores(profile, m, rule)
    best = min(s) if rule[0] == "bucklin" else max(s)
    names = ", ".join(LETTERS[c] for c in range(m) if s[c] == best)
    listed = " ".join(f"s({LETTERS[c]})={fmt_number(s[c])}" for c in range(m))
    return f"winners: {names}; {listed}\n"


def _top_two_gap(s):
    first, second = sorted(s, reverse=True)[:2]
    return first - second


def _bucklin_bounds(profile, m):
    n = sum(profile.values())
    cum = _top_counts(profile, m)
    level = [next(lv + 1 for lv, c in enumerate(row) if 2 * c > n) for row in cum]
    best = min(level)
    won = {c for c in range(m) if level[c] == best}
    w = min(won)
    upper = math.inf
    for lv in range(1, m):
        if 2 * cum[w][lv - 1] > n:
            for x in range(m):
                if x != w and 2 * cum[x][lv - 1] <= n:
                    upper = min(upper, cum[w][lv - 1] - cum[x][lv - 1] + 1)
    half = n // 2
    costs = []
    if best <= m - 1:
        costs += [cum[c][best - 1] - half for c in won]
        costs += [half + 1 - cum[x][best - 1] for x in range(m) if x not in won]
    for lv in range(1, best):
        costs += [half + 1 - cum[y][lv - 1] for y in range(m)
                  if y not in won or len(won) >= 2]
    return Fraction(min(costs)), (upper if upper == math.inf else Fraction(upper))


def _relative_margin(d, m, n, x, y, alpha):
    """Least shift t at which x's dominating rivals no longer outweigh y's."""

    def beaten(z, threshold):
        return sum(1 if d[u][z] < threshold else alpha if d[u][z] == threshold else 0
                   for u in range(m) if u != z)

    hi = (n + 1) // 2 + 1
    shifts = range(-hi, hi + 1)
    return shifts[bisect_left(shifts, True,
                              key=lambda t: beaten(x, -2 * t) <= beaten(y, 2 * t))]


def bounds(profile, m, rule):
    """(lower, upper, source) of movkit's sandwich bounds on the MoV."""
    family, param = rule
    n = sum(profile.values())
    if family == "scoring":
        gap = _top_two_gap(scores(profile, m, rule))
        spread = Fraction(param[0] - param[-1])
        return gap / (2 * spread), gap / spread + 1, "positional score gap"
    if family in ("kapproval", "approval", "maximin"):
        gap = _top_two_gap(scores(profile, m, rule))
        if gap == 0:
            return Fraction(1), Fraction(1), "tied winners"
        if family == "maximin":
            return Fraction(gap, 4), Fraction(gap, 2), "pairwise score gap"
        label = "top-k score gap" if family == "kapproval" else "approval score gap"
        return Fraction(gap, 2), Fraction((gap + 1) // 2), label
    if family == "bucklin":
        lower, upper = _bucklin_bounds(profile, m)
        return lower, upper, "majority level analysis"
    if family == "copeland":
        d = _pair_margins(profile, m)
        w = winners(profile, m, rule)[0]
        gamma = min(_relative_margin(d, m, n, w, x, param) for x in range(m) if x != w)
        if gamma < 1:
            return Fraction(1), Fraction(n), "tied winners"
        factor = 2 * ((m - 1).bit_length() + 1)
        return Fraction(gamma), Fraction(factor * gamma), "relative margin"
    raise ValueError(f"unknown family {family!r}")


def integer_range(lower, upper):
    """Integers the MoV can take inside the sandwich."""
    return math.ceil(lower), (upper if upper == math.inf else math.floor(upper))


def bounds_text(profile, m, rule):
    """Expected stdout of `movkit mov --mode bounds`."""
    lower, upper, source = bounds(profile, m, rule)
    lo, hi = integer_range(lower, upper)
    shown = "inf" if upper == math.inf else fmt_number(upper)
    return (f"MoV in [{fmt_number(lower)}, {shown}] ({source})\n"
            f"integer range [{lo}, {hi}]\n")


def sample_size(rule, m, epsilon, delta):
    """Votes the rule's estimator must draw, per the README closed forms."""
    family, param = rule
    factor = {"kapproval": 12.0, "scoring": 12.0, "approval": 12.0, "bucklin": 12.0,
              "maximin": 24.0, "copeland": 96.0}[family]
    width = param if family == "kapproval" else m
    return math.ceil(factor / float(epsilon) ** 2 * math.log(2.0 * width / float(delta)))


def universe(m, ranked):
    """Every ballot over m candidates."""
    if ranked:
        return list(itertools.permutations(range(m)))
    return [frozenset(c for c in range(m) if mask >> c & 1) for mask in range(2 ** m)]


def has_single_change(profile, m, rule, ranked=True):
    """True when replacing one vote can change the winner set (MoV = 1)."""
    base = winners(profile, m, rule)
    replacements = universe(m, ranked)
    for old in profile:
        for new in replacements:
            if new == old:
                continue
            changed = dict(profile)
            changed[old] -= 1
            changed[new] = changed.get(new, 0) + 1
            if winners({b: c for b, c in changed.items() if c}, m, rule) != base:
                return True
    return False
