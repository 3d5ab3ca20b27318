"""Total composition gamma(c; d_1..d_k) in both substitution orders, and the
check that they agree.  Only the tests compose totally, so these live here
and not in ``operadkit.operads``."""

import random

from operadkit.exact import koszul_sign
from operadkit.operads import CheckReport


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
        out = out.scale(-1)
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
