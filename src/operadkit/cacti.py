"""Spineless cacti as integer arc words, with rationals only at the boundary.

A cactus of arity k is a basepointed cyclic word of arcs (lobe label,
positive length): the order in which the traversal starting at the outer
marked point crosses the lobes, and how much of each lobe it covers per
visit.  The cyclic label word must be noncrossing (no i..j..i..j pattern;
the dual graph is a tree; one stack scan finds a crossing pair), and
spinelessness is built into the encoding: each lobe's inner marked point is
its first traversal entry.

Every length is stored as an int n over one positive int denominator ``den``
shared by the whole word, with adjacent same-label arcs merged and
gcd(den, all n) = 1.  That normal form is unique (den is the lcm of the
reduced denominators of the lengths), so isotopy classes are literal data
equality, and every lemma below is an exact identity of ints.

The circle acts by moving the outer marked point: rotate(c, p/q) scales the
lengths by q and re-cuts the word at p * S, S the sum of the lengths,
splitting an arc if needed.  Partial composition pinches cactus d into lobe
i of c: over the denominator den_c * P_d, c's lengths are scaled by P_d and
d's by L_i(c), so d has perimeter L_i(c) with no division, and its word is
spliced into the label-i arcs of c window by window.

The homotopy diagonal of c is the piecewise-linear loop S^1 -> (S^1)^k whose
i-th coordinate advances at slope P/L_i while the traversal runs on lobe i
and rests otherwise.  It is stored on int moduli: breakpoint times over a
time modulus T, coordinate values over a modulus M_m per coordinate, and
int rates, a rate r standing for the slope r * T / M_m.  For diag(c),
T = S, M_m = L_m over den, and every rate is 0 or 1.  The coEnd composite
refines both moduli so that the preimages of the inner breakpoints stay
ints (see ``coend_composite``).

Verified exactly (pointwise and as full PL data where stated): the cocycle
law  diag(c)(theta+phi) = diag(rotate(c,theta))(phi) + diag(c)(theta),
equivariance of composition under rotation, and the coEnd law identifying
diag(c o_i d) with the composite of diag(c) and diag(d).  Values are
compared by cross-multiplication.  Each seeded battery takes its report and
generator from ``operads.sampled_report``, the one place where a sampled
check is seeded, draws through ``operads.randbelow``, and refuses a domain
error before it draws a sample.

The boundary is rational: the constructors take rational lengths, times,
values and slopes; ``arcs``, ``perimeter``, ``lobe_length(s)``, ``times``,
``values``, ``slopes`` and ``eval`` give Fractions; ``rotate`` and the
``verify_*`` lemmas take an int or Fraction theta; the file format and the
witness text spell lengths as reduced rationals.  Nothing inside reads those
views.

Every SpinelessCactus is valid: the rational constructor checks it, and
the operations preserve it, which the tests check, so none re-checks it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

from .exact import Q, format_rational, parse_rational
from .operads import (
    OperadInstance, _shuffled, randbelow, require_at_least, require_permutation, sampled_report,
)


def circle_point(q):
    """Reduce a rational to the fundamental domain [0, 1) of R/Z."""
    return Q(q) % 1


def _reduced(n, d):
    g = gcd(n, d)
    return n // g, d // g


def _same_points(a, b):
    """Equality of two tuples of (num, den) points of [0, 1)^k."""
    return len(a) == len(b) and all(x * e == y * d for (x, d), (y, e) in zip(a, b))


class SpinelessCactus:
    """Basepointed arc word of int lengths ``n`` over one int ``den``.

    ``word`` is ``((label, n), ...)`` with adjacent same-label arcs merged
    (never across the basepoint: first/last arcs of equal label encode an
    outer marked point interior to a lobe stretch) and gcd(den, all n) = 1.
    The constructor takes rational lengths, refusing what ``validate``
    finds; ``arcs``, ``perimeter`` and ``lobe_length(s)`` give Fractions."""

    __slots__ = ("arity", "den", "word")

    def __init__(self, arity, arcs):
        arcs = [(int(label), Q(length)) for label, length in arcs]
        den = lcm(*(ln.denominator for _, ln in arcs))
        self.arity = int(arity)
        self.den, self.word = _normal_word(
            den, [(lab, ln.numerator * (den // ln.denominator)) for lab, ln in arcs]
        )
        errors = validate(self)
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def arcs(self):
        return tuple((lab, Q(n, self.den)) for lab, n in self.word)

    @property
    def perimeter(self):
        return Q(sum(n for _, n in self.word), self.den)

    def lobe_length(self, i):
        return Q(sum(n for lab, n in self.word if lab == i), self.den)

    def __eq__(self, other):
        return (
            isinstance(other, SpinelessCactus)
            and self.arity == other.arity
            and self.den == other.den
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self.arity, self.den, self.word))

    def __repr__(self):
        body = "".join("(%d,%s)" % (lab, Q(n, self.den)) for lab, n in self.word)
        return "<cactus %d: %s>" % (self.arity, body)


def _normal_word(den, word):
    """Merge adjacent same-label arcs, then divide den and every length by
    their gcd."""
    merged = []
    for lab, n in word:
        if merged and merged[-1][0] == lab:
            merged[-1] = (lab, merged[-1][1] + n)
        else:
            merged.append((lab, n))
    g = gcd(den, *[n for _, n in merged])
    if g > 1:
        return den // g, tuple([(lab, n // g) for lab, n in merged])
    return den, tuple(merged)


def _cactus(arity, den, word):
    """The cactus of the int arcs ``word`` over ``den``, in normal form."""
    c = object.__new__(SpinelessCactus)
    c.arity = arity
    c.den, c.word = _normal_word(den, word)
    return c


def _lobe_units(c):
    """Lobe label -> total length over c.den, in first-visit order."""
    out = {}
    for lab, n in c.word:
        out[lab] = out.get(lab, 0) + n
    return out


def _crossing_pair(labels):
    """A label pair reading a..b..a..b around the cyclic label word, or
    None when the word is noncrossing, in one pass.  Around the circle such
    a pattern reads abab or baba from any cut, so the linear word is scanned
    with a stack of open labels: a label seen again closes the labels opened
    after it, and a closed label seen again crosses the label that closed
    it."""
    stack, closer = [], {}
    for lab in labels:
        if lab in closer:
            return closer[lab], lab
        if lab in stack:
            while stack[-1] != lab:
                closer[stack.pop()] = lab
        else:
            stack.append(lab)
    return None


def validate(c):
    """All invariant violations of a cactus, as strings; empty means valid."""
    errors = []
    if c.arity < 1:
        errors.append("arity must be at least 1, got %r" % c.arity)
        return errors
    if not c.word:
        errors.append("empty arc word")
        return errors
    for lab, n in c.word:
        if not 1 <= lab <= c.arity:
            errors.append("label %d outside 1..%d" % (lab, c.arity))
        if n <= 0:
            errors.append("arc (%d, %s) has nonpositive length" % (lab, Q(n, c.den)))
    # the first three missing labels lie in 1..len(labels) + 3; fold the rest
    labels = {lab for lab, _ in c.word if 1 <= lab <= c.arity}
    missing = [i for i in range(1, min(c.arity, len(labels) + 3) + 1) if i not in labels]
    errors.extend("label %d missing" % i for i in missing[:3])
    if c.arity - len(labels) > 3:
        errors.append("and %d more labels missing" % (c.arity - len(labels) - 3))
    if errors:
        return errors
    crossing = _crossing_pair([lab for lab, _ in c.word])
    if crossing:
        errors.append("labels %d and %d interleave" % crossing)
    return errors


def _recut(word, cut):
    """The cyclic int arc word re-read from ``cut``, 0 <= cut < its sum, the
    arc holding ``cut`` split in two; a cut at 0 gives the word unchanged."""
    pos = 0
    for j, (lab, n) in enumerate(word):
        end = pos + n
        if end > cut:
            out = [(lab, end - cut), *word[j + 1 :], *word[:j]]
            if cut > pos:
                out.append((lab, cut - pos))
            return out
        pos = end
    raise AssertionError("cut point beyond perimeter")


def rotate(c, theta):
    """Move the outer marked point by theta = p/q of the acting circle:
    scale the lengths by q and ``_recut`` the word at p * S."""
    q = theta.denominator
    p = theta.numerator % q
    if p == 0:
        return c
    word = [(lab, n * q) for lab, n in c.word]
    return _cactus(c.arity, c.den * q, _recut(word, p * sum(n for _, n in c.word)))


def compose_i(c, d, i):
    """Pinch d into lobe i of c: over den_c * P_d, c's lengths are scaled by
    P_d and d's by L_i(c); splice d's word into the label-i arcs of c window
    by window, and insert d's labels as the block i..i+l-1."""
    k, l = c.arity, d.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    lobe = sum(n for lab, n in c.word if lab == i)
    perim = sum(n for _, n in d.word)
    g = gcd(lobe, perim)
    lobe, perim = lobe // g, perim // g
    feed = [(lab + i - 1, n * lobe) for lab, n in d.word]
    cursor = 0
    offset = 0
    word = []
    for lab, n in c.word:
        if lab < i:
            word.append((lab, n * perim))
            continue
        if lab > i:
            word.append((lab + l - 1, n * perim))
            continue
        need = n * perim
        while need > 0:
            flab, fln = feed[cursor]
            avail = fln - offset
            if avail <= need:
                word.append((flab, avail))
                need -= avail
                cursor += 1
                offset = 0
            else:
                word.append((flab, need))
                offset += need
                need = 0
    if cursor != len(feed) or offset != 0:
        raise AssertionError("splice did not consume the inserted word")
    return _cactus(k + l - 1, c.den * perim, word)


def cactus_relabel(perm, c):
    """Symmetric action: lobe j becomes perm(j)."""
    require_permutation(perm, c.arity)
    return _cactus(c.arity, c.den, [(perm[lab - 1], n) for lab, n in c.word])


# ---------------------------------------------------------------------------
# homotopy diagonal


class PLDiagonal:
    """Piecewise-linear loop S^1 -> (S^1)^k on int moduli.

    ``breaks`` are the breakpoint times over the time modulus ``period``
    (T), ascending in [0, T) from 0; ``levels[j][m]`` is coordinate m at
    breakpoint j over its modulus ``moduli[m]`` (M_m), in [0, M_m); and
    ``rates[j][m]`` is an int rate on segment j, standing for the slope
    rate * T / M_m.  Over a segment of int width w, coordinate m advances by
    rate * w units of 1/M_m, so winding once is sum(rate * width) == M_m,
    which construction checks.

    The constructor takes rational times in [0, 1), values and slopes, and
    ``times``, ``values``, ``slopes`` and ``eval`` give them back as
    Fractions.  Two diagonals are equal when their canonical forms are, but
    ``==`` builds neither: it pairs the kept (slope-change) breakpoints of
    both sides and compares their times, values and slopes by
    cross-multiplying the int data over the two moduli.  ``canonical()``,
    which is scale-free, is the hash."""

    __slots__ = ("arity", "period", "moduli", "breaks", "levels", "rates")

    def __init__(self, arity, times, values, slopes):
        times = [Q(t) for t in times]
        values = [[Q(v) for v in row] for row in values]
        slopes = [[Q(s) for s in row] for row in slopes]
        period = lcm(*(t.denominator for t in times))
        moduli = [
            lcm(
                *(row[m].denominator for row in values),
                *((row[m] / period).denominator for row in slopes),
            )
            for m in range(arity)
        ]
        self._set(
            arity,
            period,
            moduli,
            [t.numerator * (period // t.denominator) for t in times],
            [tuple(int(v * M) % M for v, M in zip(row, moduli)) for row in values],
            [tuple(int(s * M / period) for s, M in zip(row, moduli)) for row in slopes],
        )

    def _set(self, arity, period, moduli, breaks, levels, rates):
        """Store the int data and check that it starts at 0 and winds each
        coordinate once."""
        self.arity = arity
        self.period = period
        self.moduli = tuple(moduli)
        self.breaks = tuple(breaks)
        self.levels = tuple(levels)
        self.rates = tuple(rates)
        if self.breaks[0] != 0:
            raise ValueError("breakpoint list must start at 0")
        widths = [b - a for a, b in zip(self.breaks, self.breaks[1:] + (period,))]
        for m, M in enumerate(self.moduli):
            wind = sum(row[m] * w for row, w in zip(self.rates, widths))
            if wind != M:
                raise ValueError(
                    "coordinate %d winds %s, expected 1" % (m + 1, Q(wind, M))
                )

    @property
    def times(self):
        return tuple(Q(t, self.period) for t in self.breaks)

    @property
    def values(self):
        return tuple(
            tuple(Q(v, M) for v, M in zip(row, self.moduli)) for row in self.levels
        )

    @property
    def slopes(self):
        T = self.period
        return tuple(
            tuple(Q(r * T, M) for r, M in zip(row, self.moduli)) for row in self.rates
        )

    def _at(self, p, q):
        """The point at circle time p/q (ints, q > 0) as pairs (x, D), one
        per coordinate, standing for x / D with 0 <= x < D."""
        pt = (p % q) * self.period
        j = bisect_right(self.breaks, pt // q) - 1
        dt = pt - self.breaks[j] * q
        return tuple(
            ((v * q + r * dt) % (M * q), M * q)
            for v, r, M in zip(self.levels[j], self.rates[j], self.moduli)
        )

    def eval(self, theta):
        """Exact value tuple in [0,1)^k at circle time theta."""
        return tuple(Q(x, D) for x, D in self._at(theta.numerator, theta.denominator))

    def _kept(self):
        """The indices of the slope-change breakpoints, cyclically; [0] for
        a loop with constant slopes.  Rates of one diagonal share its
        moduli, so equal rates are equal slopes."""
        rates = self.rates
        return [j for j in range(len(rates)) if rates[j] != rates[j - 1]] or [0]

    def canonical(self):
        """Slope-change breakpoints only, cyclically, as reduced (num, den)
        pairs of time, values and slopes; a loop with constant slopes is
        anchored at time 0.  Two diagonals are equal as maps iff their
        canonical forms are equal, whatever their moduli."""
        rates, T, moduli = self.rates, self.period, self.moduli
        return (
            self.arity,
            tuple(
                (
                    _reduced(self.breaks[j], T),
                    tuple(_reduced(v, M) for v, M in zip(self.levels[j], moduli)),
                    tuple(_reduced(r * T, M) for r, M in zip(rates[j], moduli)),
                )
                for j in self._kept()
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, PLDiagonal) or self.arity != other.arity:
            return False
        mine, theirs = self._kept(), other._kept()
        T, U, M, N = self.period, other.period, self.moduli, other.moduli
        return len(mine) == len(theirs) and all(
            self.breaks[j] * U == other.breaks[h] * T
            and all(v * n == w * m for v, w, m, n in zip(self.levels[j], other.levels[h], M, N))
            and all(r * T * n == s * U * m
                    for r, s, m, n in zip(self.rates[j], other.rates[h], M, N))
            for j, h in zip(mine, theirs)
        )

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return "<PLdiag %d: %d breakpoints>" % (self.arity, len(self.breaks))


def _diagonal(arity, period, moduli, breaks, levels, rates):
    """A PLDiagonal from its int data, winding checked."""
    dg = object.__new__(PLDiagonal)
    dg._set(arity, period, moduli, breaks, levels, rates)
    return dg


@lru_cache(maxsize=None)
def _unit_rows(k):
    """The k unit rate rows of arity k, as one tuple shared by its diagonals."""
    return tuple(tuple(int(m == lab) for m in range(k)) for lab in range(k))


def homotopy_diagonal(c):
    """The pinching loop of a cactus, with breakpoints at arc boundaries:
    time modulus S, coordinate moduli the lobe lengths, rates 0 or 1."""
    k = c.arity
    lobes = _lobe_units(c)
    moduli = [lobes[m] for m in range(1, k + 1)]
    unit = _unit_rows(k)
    breaks, levels, rates = [], [], []
    t = 0
    current = [0] * k
    for lab, n in c.word:
        breaks.append(t)
        levels.append(tuple(current))
        rates.append(unit[lab - 1])
        t += n
        current[lab - 1] = (current[lab - 1] + n) % moduli[lab - 1]
    return _diagonal(k, t, moduli, breaks, levels, rates)


def coend_composite(dc, dd, i):
    """The coEnd composition of two diagonals: coordinates outside the
    inserted block come from dc, coordinates inside are dd reparametrized by
    dc's i-th coordinate x.  Breakpoints are dc's own plus the exact
    preimages of dd's breakpoints under x.

    With Lambda = lcm(M_i(dc), T(dd)) and R = Lambda / M_i times the lcm of
    dc's nonzero i-th rates, time is refined to T(dc) * R and x to the
    modulus U = M_i * R, on which every preimage is an int.  dc's
    coordinates keep their rates over moduli M * R; a block coordinate is
    dd's over M(dd) * U / T(dd), with rate the product of x's and dd's."""
    k, l = dc.arity, dd.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    lam = lcm(dc.moduli[i - 1], dd.period)
    R = lcm(*(row[i - 1] for row in dc.rates if row[i - 1])) * (
        lam // dc.moduli[i - 1]
    )
    U = dc.moduli[i - 1] * R
    f = U // dd.period
    outer = [M * R for M in dc.moduli]
    inner = [M * f for M in dd.moduli]
    starts = [t * R for t in dc.breaks]
    marks = [t * f for t in dd.breaks]
    cut = set(starts)
    for j, start in enumerate(starts):
        r = dc.rates[j][i - 1]
        if r:
            end = starts[j + 1] if j + 1 < len(starts) else dc.period * R
            lo = dc.levels[j][i - 1] * R
            hi = lo + r * (end - start)
            for beta in marks:
                target = beta + ((lo - beta) // U + 1) * U
                while target < hi:
                    cut.add(start + (target - lo) // r)
                    target += U
    breaks, levels, rates = sorted(cut), [], []
    j = 0
    for tau in breaks:
        while j + 1 < len(starts) and starts[j + 1] <= tau:
            j += 1
        dt = tau - starts[j]
        rate = dc.rates[j]
        base = [
            (v * R + r * dt) % M
            for v, r, M in zip(dc.levels[j], rate, outer)
        ]
        x = base[i - 1]
        jd = bisect_right(marks, x) - 1
        dx = x - marks[jd]
        block = [
            (v * f + r * dx) % M
            for v, r, M in zip(dd.levels[jd], dd.rates[jd], inner)
        ]
        levels.append(tuple(base[: i - 1] + block + base[i:]))
        s = rate[i - 1]
        rates.append(rate[: i - 1] + tuple(s * r for r in dd.rates[jd]) + rate[i:])
    return _diagonal(
        k + l - 1, dc.period * R, outer[: i - 1] + inner + outer[i:], breaks, levels, rates
    )


# ---------------------------------------------------------------------------
# the verified lemmas


def verify_cocycle(c, theta, phi):
    """diag(c)(theta+phi) = diag(rotate(c,theta))(phi) + diag(c)(theta),
    exactly and componentwise in (R/Z)^k."""
    dc = homotopy_diagonal(c)
    p1, q1 = theta.numerator, theta.denominator
    p2, q2 = phi.numerator, phi.denominator
    at_theta = dc._at(p1, q1)
    lhs = dc._at(p1 * q2 + p2 * q1, q1 * q2)
    rotated = homotopy_diagonal(rotate(c, theta))
    rhs = rotated._at(p2, q2)
    return all(
        (x * e * g - y * d * g - z * d * e) % (d * e * g) == 0
        for (x, d), (y, e), (z, g) in zip(lhs, rhs, at_theta)
    )


def verify_equivariance(c, d, i, theta):
    """rotate(c o_i d, theta) = rotate(c, theta) o_i rotate(d, diag_i(c)(theta))."""
    lhs = rotate(compose_i(c, d, i), theta)
    x, D = homotopy_diagonal(c)._at(theta.numerator, theta.denominator)[i - 1]
    rhs = compose_i(rotate(c, theta), rotate(d, Q(x, D)), i)
    return lhs == rhs


def _coend_at(left, dc, dd, i, p, q):
    """``left`` = diag(c o_i d) agrees with the coEnd composite of dc and dd
    at circle time p/q (ints, q > 0)."""
    base = dc._at(p, q)
    inner = dd._at(*base[i - 1])
    return _same_points(left._at(p, q), base[: i - 1] + inner + base[i:])


def verify_coend(c, d, i, theta, boundary=False):
    """diag(c o_i d) agrees with the coEnd composite of diag(c) and diag(d):
    pointwise at theta and as full PL data (breakpoints and slopes).  With
    ``boundary``, returns also the verdict of the PL data and the points at
    every breakpoint of diag(c o_i d), read from the same diagonals."""
    left = homotopy_diagonal(compose_i(c, d, i))
    dc, dd = homotopy_diagonal(c), homotopy_diagonal(d)
    same = left == coend_composite(dc, dd, i)
    ok = _coend_at(left, dc, dd, i, theta.numerator, theta.denominator) and same
    if not boundary:
        return ok
    return ok, same and all(_coend_at(left, dc, dd, i, t, left.period) for t in left.breaks)


# ---------------------------------------------------------------------------
# deterministic generation


def random_cactus(k, seed, max_denominator=64):
    """Deterministic random cactus of arity k and perimeter 1: a random
    recursive lobe tree, DFS traversal, and arc lengths on the 1/D grid with
    D = max_denominator.  Lobes with children are visited more than once
    whenever an interior stretch is positive, so multi-arc labels occur.
    The int word of perimeter D is then cut at a random grid point and
    normalized, once, with no ``rotate``.  It draws through ``randbelow``."""
    require_at_least("arity", k, 1)
    require_at_least("max denominator", max_denominator, k)
    rng = random.Random("cactus-%d-%d-%d" % (k, seed, max_denominator))
    D = max_denominator
    order = _shuffled(k, rng)
    children = {v: [] for v in order}
    for n in range(1, k):
        children[order[randbelow(rng, n)]].append(order[n])
    # lobe lengths: a composition of D grid units into k positive parts
    cuts = sorted(rng.sample(range(1, D), k - 1)) if k > 1 else []
    units = dict(zip(order, (b - a for a, b in zip([0] + cuts, cuts + [D]))))

    def emit(v):
        kids = children[v]
        m = len(kids)
        grid = units[v]
        # split the lobe into m+1 visit stretches, zeros allowed, sum > 0
        bars = sorted([randbelow(rng, grid + 1) for _ in range(m)])
        parts = [b - a for a, b in zip([0] + bars, bars + [grid])]
        word = []
        for n, kid in enumerate(kids):
            if parts[n]:
                word.append((v, parts[n]))
            word.extend(emit(kid))
        if parts[m]:
            word.append((v, parts[m]))
        return word

    return _cactus(k, D, _recut(emit(order[0]), randbelow(rng, D)))


def cacti_operad_instance():
    return OperadInstance(
        name="cacti",
        arity=lambda c: c.arity,
        compose=compose_i,
        act=cactus_relabel,
        unit=_cactus(1, 1, [(1, 1)]),
    )


# ---------------------------------------------------------------------------
# seeded verification batches


def _sampled_batch(name, claim, max_arity, samples, seed, max_denominator):
    """The report and seeded generator of one battery.  A batch outside the
    domain is refused before any sample is drawn: every arity up to
    max_arity needs max_denominator >= arity for positive lengths on the
    1/D grid."""
    require_at_least("max arity", max_arity, 1)
    rep, rng = sampled_report(
        "%s-%d" % (name, max_arity), claim, {"max_arity": max_arity}, samples, seed
    )
    require_at_least("max denominator", max_denominator, max_arity)
    rep.params["max_denominator"] = max_denominator
    return rep, rng


def _sample_theta(rng, max_denominator):
    den = 1 + randbelow(rng, max_denominator)
    return Q(randbelow(rng, den), den)


def check_associativity_batch(max_arity=5, samples=1000, seed=0, max_denominator=64):
    """Nested and disjoint associativity on seeded random cacti; two cases
    per sampled triple."""
    require_at_least("max arity", max_arity, 2)
    rep, rng = _sampled_batch(
        "cacti-associativity",
        "the splice composition satisfies both operad associativity shapes",
        max_arity, samples, seed, max_denominator,
    )
    triples = [
        (k, l, m)
        for k in range(1, max_arity + 1)
        for l in range(1, max_arity + 1)
        for m in range(1, max_arity + 1)
        if k + l + m - 2 <= max_arity and (k >= 2 or l >= 2 or m >= 2)
    ]
    for n in range(samples):
        k, l, m = triples[randbelow(rng, len(triples))]
        c = random_cactus(k, randbelow(rng, 10**6), max_denominator)
        d = random_cactus(l, randbelow(rng, 10**6), max_denominator)
        e = random_cactus(m, randbelow(rng, 10**6), max_denominator)
        i = 1 + randbelow(rng, k)
        j = 1 + randbelow(rng, l)
        lhs = compose_i(compose_i(c, d, i), e, i + j - 1)
        rhs = compose_i(c, compose_i(d, e, j), i)
        rep.count(lhs == rhs, "nested n=%d %r %r %r i=%d j=%d", n, c, d, e, i, j)
        if k >= 2:
            i2, j2 = sorted(rng.sample(range(1, k + 1), 2))
            lhs = compose_i(compose_i(c, d, i2), e, j2 + l - 1)
            rhs = compose_i(compose_i(c, e, j2), d, i2)
            rep.count(lhs == rhs, "disjoint n=%d %r %r %r i=%d j=%d", n, c, d, e, i2, j2)
        else:
            rep.count(True)
    return rep


def check_cocycle(max_arity=5, samples=1000, seed=0, max_denominator=64):
    """Cocycle law on seeded random instances plus all arc-boundary times."""
    rep, rng = _sampled_batch(
        "cacti-cocycle",
        "diag(c)(theta+phi) = diag(rotate(c,theta))(phi) + diag(c)(theta)",
        max_arity, samples, seed, max_denominator,
    )
    for n in range(samples):
        k = 1 + randbelow(rng, max_arity)
        c = random_cactus(k, randbelow(rng, 2**30), max_denominator)
        theta = _sample_theta(rng, max_denominator)
        phi = _sample_theta(rng, max_denominator)
        ok = verify_cocycle(c, theta, phi)
        rep.count(ok, "c=%r theta=%s phi=%s", c, theta, phi)
    c = random_cactus(max_arity, seed, max_denominator)
    for theta in homotopy_diagonal(c).times:
        for phi in homotopy_diagonal(rotate(c, theta)).times:
            ok = verify_cocycle(c, theta, phi)
            rep.count(ok, "boundary c=%r theta=%s phi=%s", c, theta, phi)
    return rep


def check_rotation_equivariance(max_arity=4, samples=1000, seed=0, max_denominator=64):
    """Composition commutes with rotation through the i-th diagonal."""
    rep, rng = _sampled_batch(
        "cacti-equivariance",
        "rotate(c o_i d, theta) = rotate(c,theta) o_i rotate(d, diag_i(c)(theta))",
        max_arity, samples, seed, max_denominator,
    )
    for n in range(samples):
        k = 1 + randbelow(rng, max_arity)
        l = 1 + randbelow(rng, max_arity)
        c = random_cactus(k, randbelow(rng, 2**30), max_denominator)
        d = random_cactus(l, randbelow(rng, 2**30), max_denominator)
        i = 1 + randbelow(rng, k)
        theta = _sample_theta(rng, max_denominator)
        ok = verify_equivariance(c, d, i, theta)
        rep.count(ok, "c=%r d=%r i=%d theta=%s", c, d, i, theta)
    return rep


def check_coend(max_arity=4, samples=1000, seed=0, max_denominator=64):
    """The diagonal is a map into the coEnd operad: pointwise at sampled and
    arc-boundary times, and as full PL data."""
    rep, rng = _sampled_batch(
        "cacti-coend",
        "diag(c o_i d) equals the coEnd composite of diag(c) and diag(d)",
        max_arity, samples, seed, max_denominator,
    )
    for n in range(samples):
        k = 1 + randbelow(rng, max_arity)
        l = 1 + randbelow(rng, max_arity)
        c = random_cactus(k, randbelow(rng, 2**30), max_denominator)
        d = random_cactus(l, randbelow(rng, 2**30), max_denominator)
        i = 1 + randbelow(rng, k)
        theta = _sample_theta(rng, max_denominator)
        if n % 100:
            ok = verify_coend(c, d, i, theta)
        else:
            ok, boundary = verify_coend(c, d, i, theta, boundary=True)
        rep.count(ok, "c=%r d=%r i=%d theta=%s", c, d, i, theta)
        if n % 100 == 0:
            rep.count(boundary, "boundary c=%r d=%r i=%d", c, d, i)
    return rep


def check_rotation_action(max_arity=5, samples=500, seed=0, max_denominator=64):
    """rotate is an action of R/Z: identity, additivity, full cycle.  Since
    rotate(c, 0) is c itself, the identity is checked on the re-cut at 0
    that every rotation's ``_recut`` generalizes."""
    rep, rng = _sampled_batch(
        "cacti-rotation-action",
        "rotate(c,0) = c, rotate(rotate(c,a),b) = rotate(c,a+b), full cycle = c",
        max_arity, samples, seed, max_denominator,
    )
    for n in range(samples):
        k = 1 + randbelow(rng, max_arity)
        c = random_cactus(k, randbelow(rng, 2**30), max_denominator)
        a = _sample_theta(rng, max_denominator)
        b = _sample_theta(rng, max_denominator)
        ok = (
            _cactus(c.arity, c.den, _recut(list(c.word), 0)) == c
            and rotate(rotate(c, a), b) == rotate(c, circle_point(a + b))
            and rotate(rotate(c, a), 1 - a if a else Q(0)) == c
        )
        rep.count(ok, "c=%r a=%s b=%s", c, a, b)
        if n % 50 == 0:
            S = sum(m for _, m in c.word)
            bnd = all(
                rotate(rotate(c, Q(t, S)), Q(-t % S, S)) == c
                for t in accumulate((m for _, m in c.word[:-1]), initial=0)
            )
            rep.count(bnd, "boundary orbit c=%r", c)
    return rep


def check_winding(max_arity=5, samples=200, seed=0, max_denominator=64):
    """Total winding one per coordinate for every generated diagonal; the
    PLDiagonal constructor enforces it, this check exercises the generator."""
    rep, rng = _sampled_batch(
        "cacti-winding",
        "every coordinate of the homotopy diagonal winds exactly once",
        max_arity, samples, seed, max_denominator,
    )
    del rep.params["max_denominator"]  # the pinned winding params omit it
    for n in range(samples):
        k = 1 + randbelow(rng, max_arity)
        c = random_cactus(k, randbelow(rng, 2**30), max_denominator)
        try:
            homotopy_diagonal(c)
            rep.count(True)
        except ValueError as err:
            rep.count(False, "c=%r: %s", c, err)
    return rep


# ---------------------------------------------------------------------------
# file format


def cactus_to_dict(c):
    return {
        "arity": c.arity,
        "arcs": [[lab, format_rational(ln)] for lab, ln in c.arcs],
    }


def cactus_from_dict(data):
    """The cactus a JSON object describes; ValueError naming the bad field
    when the data is malformed or the cactus invalid."""
    if not isinstance(data, dict):
        raise ValueError("cactus data must be a JSON object")
    for field in ("arity", "arcs"):
        if field not in data:
            raise ValueError("missing field %r" % field)
    arity, arcs = data["arity"], data["arcs"]
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise ValueError("arity must be an int, got %r" % (arity,))
    if not isinstance(arcs, list) or not arcs:
        raise ValueError("arcs must be a non-empty list of [label, length] pairs")
    if arity > len(arcs):
        raise ValueError(
            "arity %d exceeds the arc count %d: every label needs an arc" % (arity, len(arcs))
        )
    word = []
    for n, arc in enumerate(arcs, 1):
        if not (isinstance(arc, list) and len(arc) == 2):
            raise ValueError("arc %d must be a [label, length] pair, got %r" % (n, arc))
        lab, text = arc
        if not isinstance(lab, int) or isinstance(lab, bool):
            raise ValueError("arc %d label must be an int, got %r" % (n, lab))
        try:
            word.append((lab, parse_rational(text)))
        except (ValueError, ZeroDivisionError):
            raise ValueError("arc %d length must be a rational p/q, got %r" % (n, text))
    return SpinelessCactus(arity, word)
