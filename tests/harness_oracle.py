"""The operad harness's associativity and equivariance checks as they were
before they computed each composition once per sample: every case composes
and acts from scratch.  They are kept as oracles for the harness in
``operadkit.operads``, which must give the same totals and the same
witnesses, in order, on every instance."""

import itertools
import random

from operadkit.exact import perm_block_insert, perm_identity
from operadkit.operads import CheckReport


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
                rhs = rhs.scale(sign)
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
