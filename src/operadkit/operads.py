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
signs) and non-unital (unit is None; full_gamma then requires every slot).

Sampling is deterministic from an explicit seed and counterexamples are
recorded as replayable witness strings.
"""

from __future__ import annotations

import itertools
import random

from .exact import koszul_sign, perm_block_insert, perm_identity


def require_at_least(what, value, least):
    """Reject a count or arity bound below ``least``, naming the value."""
    if value < least:
        raise ValueError("%s must be at least %d, got %r" % (what, least, value))


def require_at_most(what, value, most):
    """Reject an arity above its budget ``most``, naming the value."""
    if value > most:
        raise ValueError("%s must be at most %d, got %r" % (what, most, value))


class OperadInstance:
    """Adapter bundling one concrete operad's operations.

    compose(x, y, i), act(perm, x), arity(x) are required.  degree(x) may be
    None for ungraded operads; scale(x, s) is required when degree is given
    (Koszul signs need it).  Elements are compared with ==.
    """

    def __init__(self, name, compose, act, arity, degree=None, scale=None,
                 unit=None):
        self.name = name
        self.compose = compose
        self.act = act
        self.arity = arity
        self.degree = degree
        self.scale = scale
        self.unit = unit
        if degree is not None and scale is None:
            raise ValueError("graded operads need scale for Koszul signs")


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

    def count(self, ok, witness=None):
        self.total += 1
        if not ok:
            self.failures.append(witness or "unspecified witness")

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


def _sign_between(op, y, z):
    if op.degree is None:
        return 1
    return -1 if (op.degree(y) % 2) and (op.degree(z) % 2) else 1


def check_associativity(op, arities, sampler, sample_count, seed=0):
    """Both associativity shapes on sampled (x, y, z) over all slot choices."""
    k, l, m = arities
    rep = CheckReport(
        "%s-associativity-%d-%d-%d" % (op.name, k, l, m),
        "partial compositions satisfy the nested and disjoint associativity shapes",
        {"arities": [k, l, m], "samples": sample_count, "seed": seed},
    )
    rng = random.Random(seed)
    for n in range(sample_count):
        x, y, z = sampler(k, rng), sampler(l, rng), sampler(m, rng)
        for i in range(1, k + 1):
            for j in range(1, l + 1):
                lhs = op.compose(op.compose(x, y, i), z, i + j - 1)
                rhs = op.compose(x, op.compose(y, z, j), i)
                ok = lhs == rhs
                rep.count(
                    ok,
                    None if ok else
                    "nested sample=%d i=%d j=%d x=%r y=%r z=%r" % (n, i, j, x, y, z),
                )
        for i, j in itertools.combinations(range(1, k + 1), 2):
            lhs = op.compose(op.compose(x, y, i), z, j + l - 1)
            rhs = op.compose(op.compose(x, z, j), y, i)
            sign = _sign_between(op, y, z)
            if sign != 1:
                rhs = op.scale(rhs, sign)
            ok = lhs == rhs
            rep.count(
                ok,
                None if ok else
                "disjoint sample=%d i=%d j=%d x=%r y=%r z=%r" % (n, i, j, x, y, z),
            )
    return rep


def _test_perms(k, rng):
    """Identity, the adjacent transpositions, and one shuffled permutation."""
    perms = [perm_identity(k)]
    for a in range(1, k):
        p = list(range(1, k + 1))
        p[a - 1], p[a] = p[a], p[a - 1]
        perms.append(tuple(p))
    full = list(range(1, k + 1))
    rng.shuffle(full)
    perms.append(tuple(full))
    return perms


def check_equivariance(op, arities, sampler, sample_count, seed=0):
    """Sigma-compatibility of compose for generating permutations plus one
    random permutation on each side."""
    k, l = arities
    rep = CheckReport(
        "%s-equivariance-%d-%d" % (op.name, k, l),
        "partial compositions are equivariant for the block insertion of permutations",
        {"arities": [k, l], "samples": sample_count, "seed": seed},
    )
    rng = random.Random(seed)
    for n in range(sample_count):
        x, y = sampler(k, rng), sampler(l, rng)
        for sigma in _test_perms(k, rng):
            for tau in _test_perms(l, rng):
                for i in range(1, k + 1):
                    lhs = op.compose(op.act(sigma, x), op.act(tau, y), sigma[i - 1])
                    rhs = op.act(perm_block_insert(sigma, i, tau), op.compose(x, y, i))
                    ok = lhs == rhs
                    rep.count(
                        ok,
                        None if ok else
                        "sample=%d sigma=%r tau=%r i=%d x=%r y=%r" % (n, sigma, tau, i, x, y),
                    )
    return rep


def check_units(op, max_arity, sampler, sample_count, seed=0):
    """unit o_1 x = x and x o_i unit = x on sampled elements."""
    rep = CheckReport(
        "%s-units" % op.name,
        "the arity-1 unit is neutral for partial composition on both sides",
        {"max_arity": max_arity, "samples": sample_count, "seed": seed},
    )
    if op.unit is None:
        raise ValueError("operad %s is non-unital" % op.name)
    rng = random.Random(seed)
    for n in range(sample_count):
        for k in range(1, max_arity + 1):
            x = sampler(k, rng)
            ok = op.compose(op.unit, x, 1) == x
            rep.count(ok, None if ok else "left unit sample=%d k=%d x=%r" % (n, k, x))
            for i in range(1, k + 1):
                ok = op.compose(x, op.unit, i) == x
                rep.count(
                    ok, None if ok else "right unit sample=%d k=%d i=%d x=%r" % (n, k, i, x)
                )
    return rep


def full_gamma(op, c, ds):
    """Total composition gamma(c; d_1..d_k), substituting right-to-left."""
    k = op.arity(c)
    if len(ds) != k:
        raise ValueError("need %d arguments, got %d" % (k, len(ds)))
    out = c
    for i in range(k, 0, -1):
        out = op.compose(out, ds[i - 1], i)
    return out


def full_gamma_ltr(op, c, ds):
    """Total composition substituting left-to-right, with the Koszul
    correction that makes it agree with full_gamma."""
    k = op.arity(c)
    if len(ds) != k:
        raise ValueError("need %d arguments, got %d" % (k, len(ds)))
    out = c
    offset = 0
    for i in range(1, k + 1):
        out = op.compose(out, ds[i - 1], i + offset)
        offset += op.arity(ds[i - 1]) - 1
    # the right-to-left order reverses the inserted elements
    if op.degree is not None and koszul_sign(range(k, 0, -1), [op.degree(d) for d in ds]) < 0:
        out = op.scale(out, -1)
    return out


def check_gamma_order(op, arities, sampler, sample_count, seed=0):
    """full_gamma is independent of substitution order (after Koszul
    correction for graded operads)."""
    rep = CheckReport(
        "%s-gamma-order-%s" % (op.name, "-".join(map(str, arities))),
        "total composition is independent of the substitution order",
        {"arities": list(arities), "samples": sample_count, "seed": seed},
    )
    rng = random.Random(seed)
    for n in range(sample_count):
        c = sampler(arities[0], rng)
        ds = [sampler(a, rng) for a in arities[1:]]
        if len(ds) != op.arity(c):
            raise ValueError("arity list does not match head arity")
        lhs = full_gamma(op, c, ds)
        rhs = full_gamma_ltr(op, c, ds)
        ok = lhs == rhs
        rep.count(
            ok,
            None if ok else "sample=%d c=%r ds=%r" % (n, c, ds),
        )
    return rep
