"""Test-only oracle: spineless cacti on exact Fraction arc lengths.

This is the rational implementation that ``operadkit.cacti`` computed with
before it moved to integer arc words over one denominator.  Every length,
breakpoint, value and slope here is a ``fractions.Fraction``, and nothing is
shared with the package, so the differential tests in
``test_cacti_integral.py`` compare two independent computations.
"""

from __future__ import annotations

import random

from fractions import Fraction as Q


def circle_point(q):
    """Reduce a rational to the fundamental domain [0, 1) of R/Z."""
    return Q(q) % 1


class SpinelessCactus:
    """Basepointed arc word; constructor merges adjacent same-label arcs
    (never across the basepoint: first/last arcs of equal label encode an
    outer marked point interior to a lobe stretch)."""

    __slots__ = ("arity", "arcs")

    def __init__(self, arity, arcs):
        self.arity = int(arity)
        merged = []
        for label, length in arcs:
            label, length = int(label), Q(length)
            if merged and merged[-1][0] == label:
                merged[-1] = (label, merged[-1][1] + length)
            else:
                merged.append((label, length))
        self.arcs = tuple(merged)

    @property
    def perimeter(self):
        return sum((ln for _, ln in self.arcs), Q(0))

    def lobe_length(self, i):
        return sum((ln for lab, ln in self.arcs if lab == i), Q(0))

    def lobe_lengths(self):
        out = {}
        for lab, ln in self.arcs:
            out[lab] = out.get(lab, Q(0)) + ln
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SpinelessCactus)
            and self.arity == other.arity
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.arity, self.arcs))

    def __repr__(self):
        body = "".join("(%d,%s)" % (lab, ln) for lab, ln in self.arcs)
        return "<cactus %d: %s>" % (self.arity, body)


def _interleaving_witness(labels):
    """Violating label pair of the cyclic noncrossing condition, or None.
    The word is re-cut at a label change, then recursively split at the
    occurrences of its leading label: a label showing up in two different
    gaps interleaves with the leading label."""
    n = len(labels)
    if n <= 1 or len(set(labels)) == 1:
        return None
    start = next(j for j in range(n) if labels[j] != labels[j - 1])
    word = labels[start:] + labels[:start]

    def walk(w):
        if not w:
            return None
        a = w[0]
        gaps, cur = [], []
        for x in w[1:]:
            if x == a:
                gaps.append(cur)
                cur = []
            else:
                cur.append(x)
        gaps.append(cur)
        seen = {}
        for gi, g in enumerate(gaps):
            for lab in set(g):
                if lab in seen and seen[lab] != gi:
                    return (a, lab)
                seen[lab] = gi
        for g in gaps:
            bad = walk(g)
            if bad:
                return bad
        return None

    return walk(word)


def validate(c):
    """All invariant violations of a cactus, as strings; empty means valid."""
    errors = []
    if c.arity < 1:
        errors.append("arity must be at least 1, got %r" % c.arity)
        return errors
    if not c.arcs:
        errors.append("empty arc word")
        return errors
    for lab, ln in c.arcs:
        if not 1 <= lab <= c.arity:
            errors.append("label %d outside 1..%d" % (lab, c.arity))
        if ln <= 0:
            errors.append("arc (%d, %s) has nonpositive length" % (lab, ln))
    lengths = c.lobe_lengths()
    for i in range(1, c.arity + 1):
        if i not in lengths:
            errors.append("label %d missing" % i)
    if errors:
        return errors
    bad = _interleaving_witness([lab for lab, _ in c.arcs])
    if bad:
        errors.append("labels %d and %d interleave" % bad)
    return errors


def _require_valid(c):
    errors = validate(c)
    if errors:
        raise ValueError("; ".join(errors))


def rotate(c, theta):
    """Move the outer marked point by theta of the acting circle: re-cut the
    cyclic arc word at global position theta * P."""
    _require_valid(c)
    cut = circle_point(theta) * c.perimeter
    if cut == 0:
        return c
    pos = Q(0)
    for n, (lab, ln) in enumerate(c.arcs):
        if pos + ln > cut:
            head = [(lab, cut - pos)] if cut > pos else []
            tail = [(lab, pos + ln - cut)]
            word = tail + list(c.arcs[n + 1 :]) + list(c.arcs[:n]) + head
            return SpinelessCactus(c.arity, word)
        pos += ln
    raise AssertionError("cut point beyond perimeter")


def compose_i(c, d, i):
    """Pinch d into lobe i of c: rescale d to perimeter L_i(c), splice its
    traversal word into the label-i arcs of c window by window, and insert
    d's labels as the block i..i+l-1."""
    _require_valid(c)
    _require_valid(d)
    k, l = c.arity, d.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    scale = c.lobe_length(i) / d.perimeter
    feed = [(lab + i - 1, ln * scale) for lab, ln in d.arcs]
    cursor = 0
    offset = Q(0)
    word = []
    for lab, ln in c.arcs:
        if lab < i:
            word.append((lab, ln))
            continue
        if lab > i:
            word.append((lab + l - 1, ln))
            continue
        need = ln
        while need > 0:
            flab, fln = feed[cursor]
            avail = fln - offset
            if avail <= need:
                word.append((flab, avail))
                need -= avail
                cursor += 1
                offset = Q(0)
            else:
                word.append((flab, need))
                offset += need
                need = Q(0)
    if cursor != len(feed) or offset != 0:
        raise AssertionError("splice did not consume the inserted word")
    return SpinelessCactus(k + l - 1, word)


def cactus_relabel(perm, c):
    """Symmetric action: lobe j becomes perm(j)."""
    if len(perm) != c.arity:
        raise ValueError("permutation size does not match arity")
    return SpinelessCactus(c.arity, [(perm[lab - 1], ln) for lab, ln in c.arcs])


# ---------------------------------------------------------------------------
# homotopy diagonal


class PLDiagonal:
    """Piecewise-linear loop S^1 -> (S^1)^k: global breakpoint times in
    [0, 1), per-coordinate values there, and per-segment slope tuples.
    Coordinate i climbs at rate P/L_i on label-i arcs and rests otherwise;
    each coordinate winds exactly once."""

    __slots__ = ("arity", "times", "values", "slopes")

    def __init__(self, arity, times, values, slopes):
        self.arity = arity
        self.times = tuple(times)
        self.values = tuple(tuple(v) for v in values)
        self.slopes = tuple(tuple(s) for s in slopes)
        if self.times[0] != 0:
            raise ValueError("breakpoint list must start at 0")
        for m in range(arity):
            wind = sum(
                self.slopes[j][m] * (self._width(j)) for j in range(len(self.times))
            )
            if wind != 1:
                raise ValueError("coordinate %d winds %s, expected 1" % (m + 1, wind))

    def _width(self, j):
        nxt = self.times[j + 1] if j + 1 < len(self.times) else Q(1)
        return nxt - self.times[j]

    def segment_at(self, theta):
        theta = circle_point(theta)
        lo, hi = 0, len(self.times)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.times[mid] <= theta:
                lo = mid
            else:
                hi = mid
        return lo

    def eval(self, theta):
        """Exact value tuple in [0,1)^k at circle time theta."""
        theta = circle_point(theta)
        j = self.segment_at(theta)
        dt = theta - self.times[j]
        return tuple(
            circle_point(self.values[j][m] + self.slopes[j][m] * dt)
            for m in range(self.arity)
        )

    def canonical(self):
        """Slope-change breakpoints only, cyclically; a loop with constant
        slopes is anchored at time 0.  Two diagonals are equal as maps iff
        their canonical forms are equal."""
        n = len(self.times)
        keep = [j for j in range(n) if self.slopes[j] != self.slopes[j - 1]]
        if not keep:
            return (self.arity, ((Q(0), self.eval(0), self.slopes[0]),))
        return (
            self.arity,
            tuple((self.times[j], self.eval(self.times[j]), self.slopes[j]) for j in keep),
        )

    def __eq__(self, other):
        return isinstance(other, PLDiagonal) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return "<PLdiag %d: %d breakpoints>" % (self.arity, len(self.times))


def homotopy_diagonal(c):
    """The pinching loop of a cactus, with breakpoints at arc boundaries."""
    _require_valid(c)
    P = c.perimeter
    lengths = c.lobe_lengths()
    times, values, slopes = [], [], []
    t = Q(0)
    current = [Q(0)] * c.arity
    for lab, ln in c.arcs:
        times.append(t)
        values.append(tuple(current))
        slopes.append(
            tuple(P / lengths[lab] if m == lab - 1 else Q(0) for m in range(c.arity))
        )
        t += ln / P
        current[lab - 1] = circle_point(current[lab - 1] + ln / lengths[lab])
    return PLDiagonal(c.arity, times, values, slopes)


def coend_composite(dc, dd, i):
    """The coEnd composition of two diagonals: coordinates outside the
    inserted block come from dc, coordinates inside are dd reparametrized by
    dc's i-th coordinate.  Breakpoints are dc's own plus the exact preimages
    of dd's breakpoints under the i-th coordinate."""
    k, l = dc.arity, dd.arity
    if not 1 <= i <= k:
        raise ValueError("slot %d out of range 1..%d" % (i, k))
    times = set(dc.times)
    lift = Q(0)
    for j in range(len(dc.times)):
        s = dc.slopes[j][i - 1]
        w = dc._width(j)
        if s > 0:
            lo, hi = lift, lift + s * w
            for beta in dd.times:
                n = int(lo - beta) - 1
                while beta + n <= hi:
                    if lo < beta + n < hi:
                        times.add(dc.times[j] + (beta + n - lo) / s)
                    n += 1
            lift = hi
    times = sorted(times)

    def composite_value(theta):
        base = dc.eval(theta)
        inner = dd.eval(base[i - 1])
        return (
            base[: i - 1] + inner + base[i:]
        )

    values, slopes = [], []
    for j, t in enumerate(times):
        values.append(composite_value(t))
        jc = dc.segment_at(t)
        s = dc.slopes[jc][i - 1]
        jd = dd.segment_at(dc.eval(t)[i - 1])
        row = list(dc.slopes[jc][: i - 1])
        row += [s * dd.slopes[jd][m] for m in range(l)]
        row += list(dc.slopes[jc][i:])
        slopes.append(tuple(row))
    return PLDiagonal(k + l - 1, times, values, slopes)


def random_cactus(k, seed, max_denominator=64):
    """Deterministic random cactus of arity k and perimeter 1: a random
    recursive lobe tree, DFS traversal, and arc lengths on the 1/D grid with
    D = max_denominator.  Lobes with children are visited more than once
    whenever an interior stretch is positive, so multi-arc labels occur."""
    if k < 1:
        raise ValueError("arity must be at least 1, got %r" % k)
    rng = random.Random("cactus-%d-%d-%d" % (k, seed, max_denominator))
    D = max_denominator
    if D < k:
        raise ValueError("need max_denominator >= arity for positive lengths")
    order = list(range(1, k + 1))
    rng.shuffle(order)
    children = {v: [] for v in order}
    for n in range(1, k):
        children[order[rng.randrange(n)]].append(order[n])
    # lobe lengths: a composition of D grid units into k positive parts
    cuts = sorted(rng.sample(range(1, D), k - 1)) if k > 1 else []
    units = [b - a for a, b in zip([0] + cuts, cuts + [D])]
    length = {v: Q(units[n], D) for n, v in enumerate(order)}

    def emit(v):
        kids = children[v]
        m = len(kids)
        grid = length[v] * D  # positive integer count of 1/D units
        # split the lobe into m+1 visit stretches, zeros allowed, sum > 0
        bars = sorted(rng.randrange(int(grid) + 1) for _ in range(m))
        parts = [b - a for a, b in zip([0] + bars, bars + [int(grid)])]
        word = []
        for n, kid in enumerate(kids):
            if parts[n]:
                word.append((v, Q(parts[n], D)))
            word.extend(emit(kid))
        if parts[m]:
            word.append((v, Q(parts[m], D)))
        return word

    c = SpinelessCactus(k, emit(order[0]))
    c = rotate(c, Q(rng.randrange(D), D))
    _require_valid(c)
    return c
