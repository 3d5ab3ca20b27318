"""Permutation helpers that only the tests use: composition, application,
the bijection check and list placement.  Permutations are tuples p of
{1..k} with p[i-1] the image of i, as in ``operadkit.exact``."""


def perm_check(perm):
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("not a bijection of {1..%d}: %r" % (k, perm))
    return perm


def perm_compose(sigma, tau):
    """sigma after tau: (sigma o tau)(i) = sigma(tau(i))."""
    if len(sigma) != len(tau):
        raise ValueError("size mismatch")
    return tuple(sigma[t - 1] for t in tau)


def perm_apply(perm, i):
    return perm[i - 1]


def perm_permute_list(perm, values):
    """Place values[i] at position perm(i); the list indexed by positions."""
    out = [None] * len(perm)
    for i, v in enumerate(values):
        out[perm[i] - 1] = v
    return out
