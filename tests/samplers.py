"""Random samplers of e_b and BV elements that only the tests draw from,
and the hypothesis strategy of exact scalars."""

import itertools

from hypothesis import strategies as st

from operadkit.bv import BVElement
from operadkit.exact import add_into
from operadkit.poisson import PoissonElement, enumerate_basis, mono_degree


# Small ints and rationals, zero often, so that ranks and kernels vary and
# an elimination meets both int rows and non-unit pivots (Fraction rows).
scalars = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


def random_element(k, rng, terms=3, coeff_bound=3, homogeneous=True):
    """Random integer combination of normal monomials of arity k.

    Homogeneous by default (Koszul-signed identities need a degree).
    """
    basis = enumerate_basis(k)
    if homogeneous:
        d = rng.choice(sorted({mono_degree(m) for m in basis}))
        basis = [m for m in basis if mono_degree(m) == d]
    out = {}
    for _ in range(min(terms, len(basis))):
        m = rng.choice(basis)
        add_into(out, {m: rng.randint(-coeff_bound, coeff_bound) or 1})
    return PoissonElement(range(1, k + 1), out)


def random_bv_element(k, rng, terms=3, coeff_bound=3):
    """Random homogeneous decorated element (used by harness samplers)."""
    basis = enumerate_basis(k)
    slots = list(range(1, k + 1))
    mono = basis[rng.randrange(len(basis))]
    target = mono_degree(mono) + rng.randrange(0, k + 1)
    pool = [
        (m, frozenset(s))
        for m in basis
        if 0 <= target - mono_degree(m) <= k
        for s in itertools.combinations(slots, target - mono_degree(m))
    ]
    out = {}
    for _ in range(terms):
        m, s = pool[rng.randrange(len(pool))]
        add_into(out, {(m, s): rng.randint(-coeff_bound, coeff_bound) or 1})
    return BVElement(range(1, k + 1), out)
