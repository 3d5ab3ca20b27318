"""Uniform operad interface and axiom-checking harness.

An operad here is a symmetric sequence (arity-indexed family with symmetric
group actions) together with partial compositions

    compose(x, y, i) : (arity k) x (arity l) -> arity k+l-1,  1 <= i <= k.

The harness verifies, on sampled elements, the two associativity shapes

    nested    (x o_i y) o_{i+j-1} z = x o_i (y o_j z)
    disjoint  (x o_i y) o_{j+l-1} z = (-1)^{|y||z|} (x o_j z) o_i y,  i < j

the equivariance law

    (sigma.x) o_{sigma(i)} (tau.y) = (sigma o_i tau).(x o_i y)

with sigma o_i tau the block insertion of permutations, and the unit laws
when a unit exists.  Operads may be ungraded (degree is None; no Koszul
signs) and non-unital (unit is None; check_units then refuses the operad).

Every sampled check is seeded in one place, ``sampled_report``: it refuses
a negative sample count, records the samples and the seed in the report's
params, and hands back the report with the one ``random.Random(seed)`` the
check draws from; beside it, ``randbelow`` is the one bounded draw of the
package, the draw of ``rng.randrange``.  Counterexamples are recorded as
replayable witness strings, formatted only for a failing case.

Each value that does not depend on the inner loop index is computed once
per sample, not once per case, since compose and act are pure functions
of their arguments.  Associativity composes x o_i y for each i, y o_j z for
each j and x o_j z for each j >= 2 once, into lists by slot, then one
composite on each side of every case; the sign (-1)^{|y||z|} is read once.
Equivariance acts by each sigma on x and by each tau on y once, composes
x o_i y for each i once, and keeps the block insertions sigma o_i tau, one
list by slot per (sigma, tau), in a dict for the call.  The identity and
the adjacent transpositions are built once per call, and only the shuffled
permutation is drawn where the plain loops draw it.  A failing case appends
its witness, and the case count grows once per block of cases.  The random
draws and the order of the cases are those of the plain loops.
"""

from __future__ import annotations

import itertools
import random

from .exact import koszul_sign, perm_block_insert, perm_identity, perm_transposition


def require_at_least(what, value, least):
    """Reject a count or arity bound below ``least``, naming the value."""
    if value < least:
        raise ValueError("%s must be at least %d, got %r" % (what, least, value))


def require_permutation(perm, k):
    """Reject anything but a permutation of 1..k, naming it."""
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (tuple(perm), k))


def require_at_most(what, value, most):
    """Reject an arity above its budget ``most``, naming the value."""
    if value > most:
        raise ValueError("%s must be at most %d, got %r" % (what, most, value))


class OperadInstance:
    """Adapter bundling one concrete operad's operations.

    compose(x, y, i), act(perm, x), arity(x) are required.  degree(x) may be
    None for ungraded operads; the elements of a graded one scale themselves,
    x.scale(s), for the Koszul signs.  Elements are compared with ==.
    """

    def __init__(self, name, compose, act, arity, degree=None, unit=None):
        self.name = name
        self.compose = compose
        self.act = act
        self.arity = arity
        self.degree = degree
        self.unit = unit


class CheckReport:
    """Outcome of one harness check; shape shared with the report renderer."""

    __slots__ = ("check_id", "claim", "params", "total", "failures")

    def __init__(self, check_id, claim, params=None):
        self.check_id = check_id
        self.claim = claim
        self.params = dict(params or {})
        self.total = 0
        self.failures = []

    @property
    def passed(self):
        """True when at least one case was checked and none failed: a check
        with no cases proves nothing, so it fails."""
        return self.total > 0 and not self.failures

    def witnesses(self):
        """Up to three reasons for a failed verdict."""
        if not self.total:
            return ["no cases were checked"]
        return self.failures[:3]

    def count(self, ok, witness="unspecified witness", *args):
        """One case; a failing case records ``witness % args``, so a passing
        case never formats its witness."""
        self.total += 1
        if not ok:
            self.failures.append(witness % args if args else witness)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else "  e.g. %s" % self.witnesses()[0]
        return "%s %s (%d cases)%s" % (status, self.check_id, self.total, extra)

    def to_dict(self):
        out = {
            "check": self.check_id,
            "claim": self.claim,
            "params": self.params,
            "cases": self.total,
            "verdict": "pass" if self.passed else "fail",
        }
        if not self.passed:
            out["witnesses"] = self.witnesses()
        return out


def sampled_report(check_id, claim, params, samples, seed):
    """The report of a sampled check, with samples and seed in its params,
    and the seeded generator its samples are drawn from."""
    require_at_least("sample count", samples, 0)
    rep = CheckReport(check_id, claim, dict(params, samples=samples, seed=seed))
    return rep, random.Random(seed)


def randbelow(rng, n):
    """``rng.randrange(n)`` for an int n >= 1, in the same state: CPython's
    rejection loop on ``getrandbits``; ``1 + randbelow(rng, n)`` is ``rng.randint(1, n)``."""
    bits, r = n.bit_length(), n
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _sign_between(op, y, z):
    if op.degree is None:
        return 1
    return koszul_sign((2, 1), (op.degree(y), op.degree(z)))


def check_associativity(op, arities, sampler, sample_count, seed=0):
    """Both associativity shapes on sampled (x, y, z) over all slot choices."""
    k, l, m = arities
    rep, rng = sampled_report(
        "%s-associativity-%d-%d-%d" % (op.name, k, l, m),
        "partial compositions satisfy the nested and disjoint associativity shapes",
        {"arities": [k, l, m]}, sample_count, seed,
    )
    compose, failures = op.compose, rep.failures
    slots_x, slots_y = range(1, k + 1), range(1, l + 1)
    disjoint = list(itertools.combinations(slots_x, 2))
    for n in range(sample_count):
        x, y, z = sampler(k, rng), sampler(l, rng), sampler(m, rng)
        xy = [compose(x, y, i) for i in slots_x]
        yz = [compose(y, z, j) for j in slots_y]
        for i in slots_x:
            xy_i = xy[i - 1]
            for j in slots_y:
                if compose(xy_i, z, i + j - 1) != compose(x, yz[j - 1], i):
                    failures.append(
                        "nested sample=%d i=%d j=%d x=%r y=%r z=%r" % (n, i, j, x, y, z)
                    )
        rep.total += k * l
        if k < 2:
            continue
        xz = [compose(x, z, j) for j in range(2, k + 1)]
        sign = _sign_between(op, y, z)
        for i, j in disjoint:
            lhs = compose(xy[i - 1], z, j + l - 1)
            rhs = compose(xz[j - 2], y, i)
            if sign != 1:
                rhs = rhs.scale(sign)
            if lhs != rhs:
                failures.append(
                    "disjoint sample=%d i=%d j=%d x=%r y=%r z=%r" % (n, i, j, x, y, z)
                )
        rep.total += len(disjoint)
    return rep


def _fixed_perms(k):
    """The identity and the adjacent transpositions of {1..k}."""
    return [perm_identity(k)] + [perm_transposition(k, a, a + 1) for a in range(1, k)]


def _shuffled(k, rng):
    """One random permutation of {1..k}, the last test permutation: the
    Fisher-Yates loop of ``rng.shuffle``, drawn through ``randbelow``."""
    full = list(range(1, k + 1))
    for i in range(k - 1, 0, -1):
        j = randbelow(rng, i + 1)
        full[i], full[j] = full[j], full[i]
    return tuple(full)


def check_equivariance(op, arities, sampler, sample_count, seed=0):
    """Sigma-compatibility of compose for generating permutations plus one
    random permutation on each side."""
    k, l = arities
    rep, rng = sampled_report(
        "%s-equivariance-%d-%d" % (op.name, k, l),
        "partial compositions are equivariant for the block insertion of permutations",
        {"arities": [k, l]}, sample_count, seed,
    )
    compose, act, failures = op.compose, op.act, rep.failures
    slots = range(1, k + 1)
    sigmas, taus = _fixed_perms(k), _fixed_perms(l)
    block_cases = k * (len(taus) + 1)
    blocks = {}
    for n in range(sample_count):
        x, y = sampler(k, rng), sampler(l, rng)
        xy = [compose(x, y, i) for i in slots]
        acted_y = {}
        for sigma in sigmas + [_shuffled(k, rng)]:
            sx = act(sigma, x)
            for tau in taus + [_shuffled(l, rng)]:
                if tau not in acted_y:
                    acted_y[tau] = act(tau, y)
                ty = acted_y[tau]
                row = blocks.get((sigma, tau))
                if row is None:
                    row = blocks[sigma, tau] = [perm_block_insert(sigma, i, tau) for i in slots]
                for i, block, xy_i in zip(slots, row, xy):
                    if compose(sx, ty, sigma[i - 1]) != act(block, xy_i):
                        failures.append(
                            "sample=%d sigma=%r tau=%r i=%d x=%r y=%r" % (n, sigma, tau, i, x, y)
                        )
            rep.total += block_cases
    return rep


def check_units(op, max_arity, sampler, sample_count, seed=0):
    """unit o_1 x = x and x o_i unit = x on sampled elements."""
    rep, rng = sampled_report(
        "%s-units" % op.name,
        "the arity-1 unit is neutral for partial composition on both sides",
        {"max_arity": max_arity}, sample_count, seed,
    )
    if op.unit is None:
        raise ValueError("operad %s is non-unital" % op.name)
    compose, unit, failures = op.compose, op.unit, rep.failures
    for n in range(sample_count):
        for k in range(1, max_arity + 1):
            x = sampler(k, rng)
            if compose(unit, x, 1) != x:
                failures.append("left unit sample=%d k=%d x=%r" % (n, k, x))
            for i in range(1, k + 1):
                if compose(x, unit, i) != x:
                    failures.append("right unit sample=%d k=%d i=%d x=%r" % (n, k, i, x))
            rep.total += k + 1
    return rep
