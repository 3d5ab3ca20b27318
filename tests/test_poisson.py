"""Bracket-product engine: normal forms, dimension tables, operad structure,
and the independent tensor-word oracle."""

import itertools
import math
import random
from fractions import Fraction as Q
from itertools import permutations

import pytest

from operadkit.exact import GradedDims, add_into, perm_transposition, poly_coeffs_product
from operadkit.poisson import (
    PoissonElement,
    _transposed,
    comb,
    compose_i,
    enumerate_basis,
    from_mono,
    gen,
    lie_normal_form,
    mono_degree,
    operad_instance,
    poincare_polynomial,
    relabel,
    relabel_tree,
    set_partitions,
    sigma_act,
    tree_bracket,
    tree_leaves,
    unit,
)
import compose_oracle
from gamma_order import check_gamma_order
from operadkit.operads import (
    check_associativity,
    check_equivariance,
    check_units,
)
from perm_helpers import perm_compose
from samplers import random_element
from wordalg import combination_to_words, tree_to_words


def lie_from_words(words):
    """Reconstruct {normal comb: coefficient} from a full word expansion.

    Reads the words led by the minimal letter (the comb on them is
    triangular, see ``tests/wordalg.py``), then re-expands and demands
    exact agreement with the input, so a wrong reconstruction cannot pass.
    """
    if not words:
        return {}
    support = set(next(iter(words)))
    for w in words:
        if set(w) != support or len(w) != len(support):
            raise ValueError("words are not permutations of a fixed letter set")
    m = min(support)
    trees = {}
    for w, c in words.items():
        if w[0] == m:
            trees[comb(m, w[1:])] = c
    if combination_to_words(trees) != words:
        raise ValueError("word data is not the expansion of a Lie element")
    return trees


def shift(x, base):
    k = len(x.support)
    return relabel(x, {i: i + base for i in range(1, k + 1)})


def random_disjoint(arities, seed):
    rng = random.Random(seed)
    out, base = [], 0
    for k in arities:
        out.append(shift(random_element(k, rng), base))
        base += k
    return out


def test_dimension_tables_match_generating_function():
    for k in range(1, 7):
        basis = enumerate_basis(k)
        assert len(basis) == math.factorial(k)
        counts = {}
        for m in basis:
            d = mono_degree(m)
            counts[d] = counts.get(d, 0) + 1
        expected = poly_coeffs_product([[1, j] for j in range(1, k)])
        assert GradedDims(counts) == expected
        assert poincare_polynomial(k) == expected


def test_dimension_tables_scaled_bracket_degree():
    # with the bracket in degree 3, every table is the b=1 table with
    # degrees tripled: coefficients of prod (1 + j t^3)
    for k in range(1, 6):
        expected = poly_coeffs_product([[1, 0, 0, j] for j in range(1, k)])
        assert poincare_polynomial(k, b=3) == expected
        assert poincare_polynomial(k, b=3) == poincare_polynomial(k).scaled_degrees(3)
        counts = {}
        for m in enumerate_basis(k, b=3):
            d = mono_degree(m, b=3)
            counts[d] = counts.get(d, 0) + 1
        assert GradedDims(counts) == expected


def test_enumerate_basis_degree_filter():
    top = enumerate_basis(4, degree=3)
    assert len(top) == 6
    assert all(mono_degree(m) == 3 for m in top)
    assert enumerate_basis(4, degree=9) == []
    by_degree = sum(len(enumerate_basis(4, degree=d)) for d in range(4))
    assert by_degree == 24


def comprehension_basis(k, degree=None, b=1):
    """enumerate_basis as it was before each block's trees were built once
    per set partition: one comb per block for every monomial."""
    out = []
    for blocks in set_partitions(tuple(range(1, k + 1))):
        if degree is not None and b * (k - len(blocks)) != degree:
            continue
        tail_choices = [list(itertools.permutations(bl[1:])) for bl in blocks]
        for tails in itertools.product(*tail_choices):
            out.append(tuple(comb(bl[0], tail) for bl, tail in zip(blocks, tails)))
    return out


@pytest.mark.parametrize("b", [1, 3])
def test_enumerate_basis_keeps_the_comprehension_order(b):
    # the Delta slices, the kernel vectors and the report witnesses all
    # read positions in this list, so its order is pinned, not just its set
    for k in range(1, 8):
        for degree in [None, 1] + [b * j for j in range(k + 1)]:
            assert enumerate_basis(k, degree, b) == comprehension_basis(k, degree, b), (k, degree)


def test_set_partitions_bell_numbers():
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        parts = list(set_partitions(tuple(range(1, n + 1))))
        assert len(parts) == bell
        assert len(set(parts)) == bell


def sorting_set_partitions(items):
    """set_partitions as it was when it sorted each grown block and then the
    blocks by minimum."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in sorting_set_partitions(rest):
        yield ((first,),) + sub
        for j in range(len(sub)):
            block = tuple(sorted((first,) + sub[j]))
            blocks = sub[:j] + (block,) + sub[j + 1:]
            yield tuple(sorted(blocks, key=lambda bl: bl[0]))


def test_set_partitions_equals_the_sorting_version_in_order():
    for items in [tuple(range(1, n + 1)) for n in range(8)] + [(2, 5, 6, 9, 11)]:
        assert list(set_partitions(items)) == list(sorting_set_partitions(items)), items


def test_enumerate_basis_holds_one_object_per_block():
    # every partition that holds a block shares its interned trees
    for k in range(1, 8):
        blocks = [t for m in enumerate_basis(k) for t in m]
        assert len({id(t) for t in blocks}) == len(set(blocks)), k
    assert len(set(blocks)) == 2372


def test_tree_bracket_returns_the_basis_blocks_themselves():
    # a bracket of two blocks of a basis monomial is a sum of basis blocks,
    # each returned as the very object the basis holds
    for k in range(2, 8):
        basis = enumerate_basis(k)
        block = {t: t for m in basis for t in m}
        for m in basis:
            for s, t in itertools.combinations(m, 2):
                for u in tree_bracket(s, t):
                    assert u is block[u], (s, t, u)


def test_generators_and_multilinearity():
    with pytest.raises(ValueError):
        gen(0)
    x1, x2 = gen(1), gen(2)
    assert unit() == x1
    assert x1.mul(x2).degree() == 0
    assert x1.bracket(x2).degree() == 1
    with pytest.raises(ValueError):
        x1.mul(gen(1))
    with pytest.raises(ValueError):
        x1.bracket(x1.mul(x2))


def test_bracket_normal_form_values():
    x1, x2, x3 = gen(1), gen(2), gen(3)
    b12 = x1.bracket(x2)
    assert b12.terms == {((1, 2),): Q(1)}
    # antisymmetry on generators: ||x|| odd, so [x2,x1] = [x1,x2]... with sign
    assert x2.bracket(x1) == b12
    # [[x1,x2],x3] expands in the comb basis
    nested = b12.bracket(x3)
    assert nested == from_mono((((1, 2), 3),))
    left = x1.bracket(x2.bracket(x3))
    assert left.terms == {(((1, 2), 3),): Q(1), (((1, 3), 2),): Q(1)}


def test_element_laws_on_random_homogeneous_elements():
    # graded commutativity, antisymmetry, Jacobi, Leibniz with the bracket
    # in degree 1: signs use |a| for the product and |a|+1 for the bracket
    shapes = [(1, 2, 2), (2, 2, 2), (2, 1, 3), (3, 2, 1), (2, 3, 1)]
    for seed in range(40):
        a, b, c = random_disjoint(shapes[seed % len(shapes)], seed)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        da, db = a.degree(), b.degree()
        assert a.mul(b) == b.mul(a).scale((-1) ** (da * db))
        sa = -((-1) ** ((da + 1) * (db + 1)))
        assert a.bracket(b) == b.bracket(a).scale(sa)
        sj = (-1) ** ((da + 1) * (db + 1))
        assert a.bracket(b.bracket(c)) == a.bracket(b).bracket(c) + b.bracket(
            a.bracket(c)
        ).scale(sj)
        sl = (-1) ** ((da + 1) * db)
        assert a.bracket(b.mul(c)) == a.bracket(b).mul(c) + b.mul(
            a.bracket(c)
        ).scale(sl)


def test_sigma_act_is_left_action():
    rng = random.Random(3)
    for k in (2, 3, 4):
        x = random_element(k, rng)
        for s in permutations(range(1, k + 1)):
            for t in permutations(range(1, k + 1)):
                lhs = sigma_act(s, sigma_act(t, x))
                assert lhs == sigma_act(perm_compose(s, t), x)


def oracle_sigma_act(perm, x):
    """sigma_act as it was before each block was relabeled on its own: every
    block goes through lie_normal_form, and the pieces are multiplied back
    together with PoissonElement.mul, which sorts them with its signs."""
    mapping = {j: perm[j - 1] for j in range(1, x.arity + 1)}
    out = PoissonElement(x.support)
    for mono, c in x.terms.items():
        acc = None
        for t in mono:
            letters = frozenset(mapping[i] for i in tree_leaves(t))
            nf = lie_normal_form(relabel_tree(t, mapping))
            piece = PoissonElement(letters, {(u,): v for u, v in nf.items()})
            acc = piece if acc is None else acc.mul(piece)
        out.add_scaled(acc, c)
    return out


def test_sigma_act_matches_the_mul_chain_oracle_on_basis_transpositions():
    # every permutation up to arity 5, whose reduced words run up to length
    # 10, and the adjacent transpositions at arity 6
    pairs = 0
    for k in range(1, 7):
        if k <= 5:
            perms = list(permutations(range(1, k + 1)))
        else:
            perms = [perm_transposition(k, a, a + 1) for a in range(1, k)]
        for mono in enumerate_basis(k):
            x = from_mono(mono)
            for p in perms:
                got, want = sigma_act(p, x), oracle_sigma_act(p, x)
                assert got.support == want.support
                assert got.terms == want.terms, (mono, p)
                pairs += 1
    assert pairs == 15017 + 3600


def test_transposition_kernel_equals_sigma_act_on_every_basis_monomial():
    # sigma_act reads the kernel letter by letter, so the reference is the
    # mul-chain oracle, with signs and coefficients
    pairs = 0
    for k in range(2, 7):
        for mono in enumerate_basis(k):
            x = from_mono(mono)
            for a in range(1, k):
                want = oracle_sigma_act(perm_transposition(k, a, a + 1), x).terms
                assert _transposed(mono, a) == want, (mono, a)
                pairs += 1
    assert pairs == 4166


def transposed_terms(a, terms):
    """(a a+1) applied linearly to a terms dict through the kernel."""
    out = {}
    for m, c in terms.items():
        add_into(out, _transposed(m, a), c)
    return out


def test_transposition_kernel_satisfies_the_coxeter_relations():
    # s_a^2 = 1, s_a s_{a+1} s_a = s_{a+1} s_a s_{a+1}, and s_a s_c = s_c s_a
    # for |a - c| >= 2, on every basis monomial up to arity 6: by the Coxeter
    # presentation of S_k, sigma_act's reduced words then define an action
    s = transposed_terms
    pairs = 0
    for k in range(2, 7):
        for mono in enumerate_basis(k):
            x = {mono: 1}
            image = {a: s(a, x) for a in range(1, k)}
            for a in range(1, k):
                assert s(a, image[a]) == x, ("square", mono, a)
                if a + 1 < k:
                    braid = s(a, s(a + 1, image[a])), s(a + 1, s(a, image[a + 1]))
                    assert braid[0] == braid[1], ("braid", mono, a)
                for c in range(a + 2, k):
                    assert s(a, image[c]) == s(c, image[a]), ("commute", mono, a, c)
                pairs += 1
    assert pairs == 4166


def test_sigma_act_matches_the_mul_chain_oracle_on_random_elements():
    rng = random.Random(11)
    for trial in range(200):
        k = rng.randrange(2, 7)
        x = random_element(k, rng, terms=6, homogeneous=trial % 2 == 0)
        if trial % 3 == 0:
            x = x.scale(Q(2, 3))
        p = list(range(1, k + 1))
        rng.shuffle(p)
        got, want = sigma_act(tuple(p), x), oracle_sigma_act(tuple(p), x)
        assert got.support == want.support
        assert got.terms == want.terms, (x, p)


def test_sigma_act_preserves_degree_and_identity():
    rng = random.Random(7)
    for k in (2, 3, 4, 5):
        x = random_element(k, rng)
        assert sigma_act(tuple(range(1, k + 1)), x) == x
        for _ in range(5):
            p = list(range(1, k + 1))
            rng.shuffle(p)
            y = sigma_act(tuple(p), x)
            assert y.degrees() == x.degrees()


def test_compose_unit_laws():
    rng = random.Random(9)
    for k in (1, 2, 3, 4):
        x = random_element(k, rng)
        assert compose_i(unit(), x, 1) == x
        for i in range(1, k + 1):
            assert compose_i(x, unit(), i) == x


def test_compose_spot_values():
    x1, x2, x3 = gen(1), gen(2), gen(3)
    prod = x1.mul(x2)
    br = x1.bracket(x2)
    # substituting a product into a bracket spreads by Leibniz
    got = compose_i(br, prod, 1)
    assert got == x1.mul(x2.bracket(x3)) + x1.bracket(x3).mul(x2)
    # substituting into the product just relabels
    assert compose_i(prod, prod, 2) == x1.mul(x2).mul(x3)
    assert compose_i(prod, br, 1) == x1.bracket(x2).mul(x3)


def _basis_triples():
    """Every (basis x, basis y, slot) with arities k, l <= 4 and k + l - 1 <= 6."""
    for k in range(1, 5):
        for l in range(1, 5):
            if k + l - 1 > 6:
                continue
            for mx in enumerate_basis(k):
                for my in enumerate_basis(l):
                    for i in range(1, k + 1):
                        yield from_mono(mx), from_mono(my), i


def test_compose_kernel_equals_the_element_rebuild_on_every_basis_triple():
    n = 0
    for x, y, i in _basis_triples():
        got, want = compose_i(x, y, i), compose_oracle.compose_i(x, y, i)
        assert got.support == want.support, (x, y, i)
        assert list(got.terms.items()) == list(want.terms.items()), (x, y, i)
        n += 1
    assert n == 1623


def test_compose_kernel_equals_the_element_rebuild_on_mixed_degrees():
    rng = random.Random(24)
    for _ in range(300):
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        x = random_element(k, rng, terms=4, homogeneous=False)
        y = random_element(l, rng, terms=4, homogeneous=False)
        i = rng.randint(1, k)
        # the rebuild adds y's even part first, so only the dicts compare
        assert compose_i(x, y, i) == compose_oracle.compose_i(x, y, i), (x, y, i)


def test_compose_kernel_builds_no_element_per_term(monkeypatch):
    rng = random.Random(5)
    cases = []
    for k, l in [(3, 2), (2, 3), (4, 3)]:
        x = random_element(k, rng, terms=4, homogeneous=False)
        y = random_element(l, rng, terms=4, homogeneous=False)
        cases += [(x, y, i) for i in range(1, k + 1)]
    want = [compose_oracle.compose_i(x, y, i) for x, y, i in cases]

    def refuse(*args):
        raise AssertionError("compose_i built an element per term")

    for name in ("mul", "bracket"):
        monkeypatch.setattr(PoissonElement, name, refuse)
    monkeypatch.setattr("operadkit.poisson.gen", refuse)
    monkeypatch.setattr("operadkit.poisson.from_mono", refuse)
    assert [compose_i(x, y, i) for x, y, i in cases] == want


def test_operad_harness_on_engine():
    op = operad_instance()
    rng = random.Random(0)

    def sampler(k, r):
        return random_element(k, r, terms=2, coeff_bound=2)

    for arities in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]:
        rep = check_associativity(op, arities, sampler, 30, seed=rng.randrange(10**6))
        assert rep.passed, rep.line()
    for arities in [(2, 2), (3, 2), (2, 3)]:
        rep = check_equivariance(op, arities, sampler, 30, seed=1)
        assert rep.passed, rep.line()
    rep = check_units(op, 4, sampler, 30, seed=2)
    assert rep.passed, rep.line()
    rep = check_gamma_order(op, (3, 2, 1, 2), sampler, 20, seed=3)
    assert rep.passed, rep.line()


def test_word_oracle_reconstructs_all_small_trees():
    # every normal Lie monomial at arities 3..5 survives the round trip
    # through the independent tensor-word expansion
    for k in (3, 4, 5):
        for mono in enumerate_basis(k, degree=k - 1):
            (tree,) = mono
            words = tree_to_words(tree)
            assert lie_from_words(words) == {tree: 1}


def test_word_oracle_agrees_with_tree_bracket():
    # [s, t] computed by the rewriting engine matches the word expansion of
    # the same bracket computed in the free associative algebra
    for mono_s in enumerate_basis(2, degree=1):
        s = mono_s[0]
        for mono_t_raw in enumerate_basis(2, degree=1):
            t = relabel(from_mono(mono_t_raw), {1: 3, 2: 4}).terms
            ((t_tree,), _), = t.items()
            engine = tree_bracket(s, t_tree)
            ws = tree_to_words(s)
            wt = tree_to_words(t_tree)
            # [u, v] = uv - (-1)^{||u|| ||v||} vu, shifted parity = leaf count;
            # both factors here have two leaves, so the second term is -vu
            prod = {}
            for u, cu in ws.items():
                for v, cv in wt.items():
                    prod[u + v] = prod.get(u + v, 0) + cu * cv
                    prod[v + u] = prod.get(v + u, 0) - cu * cv
            prod = {w: c for w, c in prod.items() if c}
            assert combination_to_words(engine) == prod
            assert lie_from_words(prod) == engine


def test_word_oracle_on_random_lie_normal_forms():
    rng = random.Random(21)
    letters = (1, 2, 3, 4, 5)
    for _ in range(25):
        # random parenthesization of a random permutation of the letters
        items = list(letters)
        rng.shuffle(items)
        while len(items) > 1:
            i = rng.randrange(len(items) - 1)
            items[i : i + 2] = [(items[i], items[i + 1])]
        tree = items[0]
        nf = lie_normal_form(tree)
        assert combination_to_words(nf) == tree_to_words(tree)
        if nf:
            assert lie_from_words(tree_to_words(tree)) == nf
