"""Exact arithmetic layer: graded dimension tables, permutations, Koszul
signs, sparse rank/kernel, rational parsing."""

import itertools
import math
from fractions import Fraction as Q

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from operadkit import exact
from operadkit.bv import BVElement, delta_apply
from operadkit.exact import (
    Echelon,
    GradedDims,
    LinComb,
    SparseMatrix,
    add_into,
    format_rational,
    koszul_sign,
    parse_rational,
    perm_block_insert,
    perm_identity,
    perm_inverse,
    perm_transposition,
    poly_coeffs_product,
)
from operadkit.poisson import (
    PoissonElement,
    compose_i,
    relabel,
)
from perm_helpers import perm_apply, perm_check, perm_compose, perm_permute_list
from samplers import random_bv_element, random_element, scalars

perms = st.integers(2, 6).flatmap(lambda k: st.permutations(range(1, k + 1)))


@st.composite
def perm_pairs(draw):
    k = draw(st.integers(2, 6))
    s = tuple(draw(st.permutations(range(1, k + 1))))
    t = tuple(draw(st.permutations(range(1, k + 1))))
    return s, t


def test_graded_dims_drops_zeros_and_totals():
    d = GradedDims({0: 1, 1: 3, 2: 0})
    assert d == GradedDims({1: 3, 0: 1})
    assert 2 not in d
    assert sum(d.values()) == 4
    assert d.shifted(2) == GradedDims({2: 1, 3: 3})
    assert d.scaled_degrees(3) == GradedDims({0: 1, 3: 3})


def test_graded_dims_prints_its_table_in_degree_order():
    d = GradedDims({2: 1, 0: 3})
    assert str(d) == "{0: 3, 2: 1}"
    assert repr(d) == "GradedDims({0: 3, 2: 1})"


def test_graded_dims_rejects_negative():
    with pytest.raises(ValueError):
        GradedDims({0: -1})


def test_poly_coeffs_product_binomials():
    # (1 + t)(1 + 2t)(1 + 3t) = 1 + 6t + 11t^2 + 6t^3
    got = poly_coeffs_product([[1, 1], [1, 2], [1, 3]])
    assert got == GradedDims({0: 1, 1: 6, 2: 11, 3: 6})
    assert poly_coeffs_product([]) == GradedDims({0: 1})


@given(perm_pairs())
def test_perm_compose_inverse(pair):
    s, t = pair
    perm_check(s)
    st_ = perm_compose(s, t)
    assert perm_compose(perm_inverse(st_), st_) == perm_identity(len(s))
    assert perm_compose(perm_inverse(t), perm_inverse(s)) == perm_inverse(st_)


@given(perms)
def test_perm_apply_matches_permute_list(p):
    p = tuple(p)
    values = list(range(100, 100 + len(p)))
    placed = perm_permute_list(p, values)
    # value from slot i lands in slot p(i)
    for i in range(1, len(p) + 1):
        assert placed[perm_apply(p, i) - 1] == values[i - 1]


def test_perm_block_insert_expands_slot():
    # insert the 2-block (2 1) at slot 2 of (2 3 1): slot 2's image 3 widens
    # to the block {3, 4} ordered by tau, images >= 3 shift up by 1
    assert perm_block_insert((2, 3, 1), 2, (2, 1)) == (2, 4, 3, 1)
    # identity blocks leave a relabeled sigma
    assert perm_block_insert((1, 2), 1, (1,)) == (1, 2)
    assert perm_block_insert((2, 1), 2, (1, 2)) == (3, 1, 2)


def test_perm_block_insert_is_multiplicative():
    # (s s') o_i (t t') = (s o_{s'(i)} t)(s' o_i t'), with (pq)(i) = p(q(i)):
    # the lemma under which equivariance on generators gives it on all of
    # S_k x S_l, over every s, s', t, t' and i with k, l <= 4, k + l - 1 <= 6
    cases = 0
    for k, l in itertools.product(range(1, 5), repeat=2):
        if k + l - 1 > 6:
            continue
        sk = list(itertools.permutations(range(1, k + 1)))
        sl = list(itertools.permutations(range(1, l + 1)))
        for s, s2 in itertools.product(sk, repeat=2):
            ss = perm_compose(s, s2)
            for t, t2 in itertools.product(sl, repeat=2):
                tt = perm_compose(t, t2)
                for i in range(1, k + 1):
                    want = perm_compose(
                        perm_block_insert(s, s2[i - 1], t), perm_block_insert(s2, i, t2)
                    )
                    assert perm_block_insert(ss, i, tt) == want, (s, s2, t, t2, i)
                    cases += 1
    assert cases == 166653


def test_koszul_sign_examples():
    assert koszul_sign(perm_identity(3), (1, 1, 1)) == 1
    swap = perm_transposition(2, 1, 2)
    assert koszul_sign(swap, (1, 1)) == -1
    assert koszul_sign(swap, (2, 1)) == 1
    assert koszul_sign(swap, (1, 2)) == 1
    assert koszul_sign(swap, (3, 5)) == -1


@given(perms)
def test_koszul_sign_trivial_on_even_degrees(p):
    p = tuple(p)
    assert koszul_sign(p, (2,) * len(p)) == 1


@given(perm_pairs())
def test_koszul_sign_is_multiplicative(pair):
    s, t = pair
    degrees = tuple((i * 7 + 3) % 4 for i in range(len(s)))
    after_t = tuple(perm_permute_list(t, list(degrees)))
    lhs = koszul_sign(perm_compose(s, t), degrees)
    rhs = koszul_sign(s, after_t) * koszul_sign(t, degrees)
    assert lhs == rhs


# Test-only copies of the sign counters that koszul_sign replaced: four
# helpers and two inline inversion counts.


def _old_inv_count(pairs):  # bv._inv_count
    n = 0
    seq = list(pairs)
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                n += 1
    return n


def _old_koszul_reorder_sign(source, target, odd):  # bv._koszul_reorder_sign
    pos = {lab: n for n, lab in enumerate(target)}
    seq = [(pos[lab], lab in odd) for lab in source]
    sign = 1
    for a in range(len(seq)):
        for c in range(a + 1, len(seq)):
            if seq[a][0] > seq[c][0] and seq[a][1] and seq[c][1]:
                sign = -sign
    return sign


def _old_parity(p):  # groups._parity
    n = 0
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                n += 1
    return n % 2


def _old_koszul_front_sign(shifted, i, j):  # stringbr._koszul_front_sign
    exp = shifted[i] * sum(shifted[:i]) + shifted[j] * (
        sum(shifted[:j]) - shifted[i]
    )
    return Q(-1) if exp % 2 else Q(1)


def _old_gamma_ltr_sign(degrees):  # inline in operads.full_gamma_ltr
    k = len(degrees)
    odd = [d % 2 for d in degrees]
    inv = sum(1 for a in range(k) for b in range(a + 1, k) if odd[a] and odd[b])
    return -1 if inv % 2 else 1


def _old_mark_sign(marking, added):  # inline in eval_bv_ast, tests/grammar.py
    inv = sum(1 for s in marking for t in added if t < s)
    return -1 if inv % 2 else 1


@st.composite
def graded_words(draw):
    n = draw(st.integers(0, 7))
    p = tuple(draw(st.permutations(range(1, n + 1))))
    degrees = tuple(draw(st.lists(st.integers(-3, 6), min_size=n, max_size=n)))
    return p, degrees


@given(graded_words())
def test_koszul_sign_matches_the_replaced_sign_counters(word):
    p, degrees = word
    n = len(p)
    ones = [1] * n
    # bv_sigma_act reads the images of the marked slots; A4 keeps even perms
    assert koszul_sign(p, ones) == (-1) ** _old_inv_count(p)
    assert koszul_sign(p, ones) == (-1) ** _old_parity(p)
    # bv_compose: the target positions of the source labels
    source = ["s%d" % m for m in range(n)]
    target = perm_permute_list(p, source)
    odd = {lab for lab, d in zip(source, degrees) if d % 2}
    pos = {lab: m for m, lab in enumerate(target)}
    got = koszul_sign([pos[lab] for lab in source], degrees)
    assert got == _old_koszul_reorder_sign(source, target, odd)
    # full_gamma_ltr: the reversal
    assert koszul_sign(range(n, 0, -1), degrees) == _old_gamma_ltr_sign(degrees)
    # stringbr: pull positions i < j to the front
    for i in range(n):
        for j in range(i + 1, n):
            order = [i, j] + [m for m in range(n) if m not in (i, j)]
            got = koszul_sign(perm_inverse([m + 1 for m in order]), degrees)
            assert got == _old_koszul_front_sign(degrees, i, j)
    # eval_bv_ast: appended marks resorted into the ascending marking word
    for h in range(n + 1):
        marking, added = set(p[:h]), sorted(p[h:])
        word = sorted(marking) + added
        assert koszul_sign(word, ones) == _old_mark_sign(marking, added)


def _dense(vec, cols):
    """A sparse kernel vector as the dense tuple of its length."""
    return tuple(vec.get(c, 0) for c in range(cols))


def _mat_vec(matrix, vec):
    """The dense product of the matrix's rows with a dense vector."""
    if len(vec) != matrix.cols:
        raise ValueError("vector length mismatch")
    return [sum(v * vec[c] for c, v in row.items()) for row in matrix.rows]


def test_sparse_matrix_rank_and_kernel():
    m = SparseMatrix(3, [{0: Q(1), 2: Q(-1)}, {1: Q(2)}])
    assert m.rank() == 2
    ker = m.kernel_basis()
    assert ker == [{0: 1, 2: 1}]
    assert all(type(v) is int for v in ker[0].values())
    assert _dense(ker[0], 3) == (Q(1), Q(0), Q(1))
    assert _mat_vec(m, _dense(ker[0], 3)) == [Q(0), Q(0)]


def test_sparse_matrix_zero_and_full():
    z = SparseMatrix(2, [{}, {}, {}])
    assert z.rank() == 0
    assert z.kernel_basis() == [{0: 1}, {1: 1}]
    full = SparseMatrix(2, [{0: Q(1)}, {1: Q(1)}])
    assert full.rank() == 2
    assert full.kernel_basis() == []


def test_sparse_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseMatrix(2, [{2: Q(1)}])
    with pytest.raises(ValueError):
        SparseMatrix(2, [{0: 1}, {-1: Q(1)}])


def _by_pivot(row, p):
    """A row divided by its entry at its pivot p: the unique reduced form."""
    return {c: Q(v, row[p]) for c, v in row.items()}


def _primitive_int_rows(ech):
    """Every row is an int dict whose least column is its pivot, with a
    positive entry there, and whose entries have gcd 1."""
    return all(
        min(row) == p
        and row[p] > 0
        and all(type(v) is int for v in row.values())
        and math.gcd(*row.values()) == 1
        for p, row in ech.rows.items()
    )


def test_kernel_entries_are_ints_when_integral_after_last_first_admission():
    # admitted last row first, the pivot 2 of the second row is met by the
    # first row, and back-substitution leaves that row 1 at its pivot and
    # 3 at column 3
    m = SparseMatrix(5, [{0: -1, 3: -3}, {0: 2, 2: 1, 4: -1}])
    ech = m._echelon()
    assert _by_pivot(ech.rows[0], 0) == {0: 1, 3: 3}
    ker = m.kernel_basis()
    assert ker == [{1: 1}, {0: -3, 2: 6, 3: 1}, {2: 1, 4: 1}]
    assert all(type(v) is int for vec in ker for v in vec.values())
    assert [_mat_vec(m, _dense(vec, 5)) for vec in ker] == [[0, 0]] * 3


def test_int_rows_stay_primitive_through_pivots_two_and_three():
    # the first vector's pivot entry is 2; the second's is -3, so its row is
    # negated, and back-substituting it scales the first row by 3
    ech = Echelon()
    for vec in [{0: 2, 1: 2, 2: 1, 4: 1}, {1: -3, 3: -1, 4: -3}]:
        assert ech.add(vec)
        assert _primitive_int_rows(ech)
    assert ech.rows == {0: {0: 6, 2: 3, 3: -2, 4: -3}, 1: {1: 3, 3: 1, 4: 3}}
    # ints exactly where an entry is integral, in the kernel and in the
    # exact remainders that reduce returns
    assert ech.kernel_basis(5) == [
        {0: Q(-1, 2), 2: 1},
        {0: Q(1, 3), 1: Q(-1, 3), 3: 1},
        {0: Q(1, 2), 1: -1, 4: 1},
    ]
    assert ech.reduce({0: 1, 4: 1}) == {2: Q(-1, 2), 3: Q(1, 3), 4: Q(3, 2)}
    assert ech.reduce({1: 1}) == {3: Q(-1, 3), 4: -1}
    for got in ech.kernel_basis(5) + [ech.reduce({1: 1}), ech.reduce({0: 4, 3: 1})]:
        assert all(type(v) is int or v.denominator != 1 for v in got.values())
    # a dependent vector meets both pivots and leaves nothing
    assert not ech.add({0: 4, 1: 1, 2: 2, 3: -1, 4: -1})
    # last-first admission: the back-substituted first row is divided by
    # its content 2, although the new row's pivot entry is 1
    ech = SparseMatrix(5, [{0: -1, 3: -3}, {0: 2, 2: 1, 4: -1}])._echelon()
    assert ech.rows == {0: {0: 1, 3: 3}, 2: {2: 1, 3: -6, 4: -1}}
    assert _primitive_int_rows(ech)


def test_reduce_gives_an_int_for_every_integral_fraction_entry():
    # the unit-pivot loop keeps Fraction arithmetic as it falls: -3/4 times
    # the row {0: 1, 1: -8} leaves 3 - 6 = Fraction(-3, 1) at column 1
    ech = Echelon()
    assert ech.add({0: Q(-1, 2), 1: 4})
    assert ech.rows == {0: {0: 1, 1: -8}}
    got = ech.reduce({0: Q(-3, 4), 1: 3, 2: -5})
    assert got == {1: -3, 2: -5}
    assert all(type(v) is int for v in got.values())
    # a non-integral entry stays a Fraction, and an int vector gives ints
    assert ech.reduce({0: Q(1, 3), 1: Q(1, 2)}) == {1: Q(19, 6)}
    got = ech.reduce({0: 2, 3: 1})
    assert got == {1: 16, 3: 1}
    assert all(type(v) is int for v in got.values())


def test_skipping_the_content_division_fails_the_primitive_row_test(monkeypatch):
    # the mutant divides a row by the sign of its pivot entry alone, so
    # back-substitution keeps the first row as {0: 2, 3: 6}
    def signed(row, p):
        if row[p] < 0:
            for c in row:
                row[c] = -row[c]
        return row[p]

    monkeypatch.setattr(exact, "_primitive", signed)
    ech = SparseMatrix(5, [{0: -1, 3: -3}, {0: 2, 2: 1, 4: -1}])._echelon()
    assert ech.rows[0] == {0: 2, 3: 6}
    with pytest.raises(AssertionError):
        test_int_rows_stay_primitive_through_pivots_two_and_three()


def _span_rank(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def test_span_rank_dependent_vectors():
    v1 = {0: Q(1), 1: Q(2)}
    v2 = {0: Q(2), 1: Q(4)}
    v3 = {1: Q(1)}
    assert _span_rank([v1, v2]) == 1
    assert _span_rank([v1, v2, v3]) == 2
    assert _span_rank([]) == 0
    # dense rows, zero entries included, enter as dicts col -> scalar
    assert _span_rank([dict(enumerate(v)) for v in [(Q(1), Q(0)), (Q(0), Q(1))]]) == 2


def _eliminate(rows):
    """Reference reduced row echelon: rows in order, each row reduced
    against every pivot found so far, pivoted at its first nonzero column,
    then back-substituted into the earlier pivot rows."""
    pivots = []
    for row in rows:
        for pc, prow in pivots:
            f = row.get(pc)
            if f:
                for c, v in prow.items():
                    nv = row.get(c, Q(0)) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        if not row:
            continue
        pc = min(row)
        inv = Q(1) / row[pc]
        for c in list(row):
            row[c] *= inv
        for _, prow in pivots:
            f = prow.get(pc)
            if f:
                for c, v in row.items():
                    nv = prow.get(c, Q(0)) - f * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        pivots.append((pc, row))
    pivots.sort(key=lambda p: p[0])
    return pivots


def _reference_kernel(pivots, cols):
    basis = []
    pivot_cols = dict(pivots)
    for c in range(cols):
        if c in pivot_cols:
            continue
        vec = [Q(0)] * cols
        vec[c] = Q(1)
        for pc, row in pivots:
            if c in row:
                vec[pc] = -row[c]
        basis.append(tuple(vec))
    return basis


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    data = [[draw(scalars) for _ in range(cols)] for _ in range(rows)]
    # a dependent row now and then: a combination of two earlier rows
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(scalars), draw(scalars)
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    return rows, cols, data


# On every run: an int -1 pivot, negated; an integral Fraction(-1) pivot
# beside a Fraction entry; a non-unit int pivot; Fraction rows that meet a
# non-unit pivot, in both admission orders.
@example((2, 3, [[-1, 2, 0], [0, -1, 3]]))
@example((2, 3, [[Q(-1), Q(1, 2), 0], [0, Q(-1), 2]]))
@example((1, 2, [[2, 1]]))
@example((2, 3, [[2, 1, 0], [Q(1, 3), Q(1, 2), Q(1, 5)]]))
@given(matrices())
def test_echelon_matches_reference_elimination(case):
    rows, cols, data = case
    dicts = [{c: v for c, v in enumerate(row) if v} for row in data]
    m = SparseMatrix(cols, dicts)
    pivots = _eliminate([dict(d) for d in dicts])
    assert m.rank() == len(pivots)
    kernel = m.kernel_basis()
    assert [_dense(vec, cols) for vec in kernel] == _reference_kernel(pivots, cols)
    # sparse: no stored zeros, ascending columns, ints when integral
    for vec in kernel:
        assert all(vec.values()) and list(vec) == sorted(vec)
        assert all(type(v) is int or v.denominator != 1 for v in vec.values())
    # add admits a row exactly when the reference rank of the prefix grows;
    # int rows that only ever meet pivots +-1 keep every entry an int
    ech = Echelon()
    integral = True
    for n, d in enumerate(dicts):
        grows = len(_eliminate([dict(e) for e in dicts[: n + 1]])) > ech.rank
        rest = ech.reduce(d)
        integral = (
            integral
            and all(type(v) is int for v in d.values())
            and (not rest or rest[min(rest)] in (1, -1))
        )
        assert ech.add(d) == grows
        if integral:
            assert all(type(v) is int for row in ech.rows.values() for v in row.values())
        assert _primitive_int_rows(ech)
    assert {p: _by_pivot(row, p) for p, row in ech.rows.items()} == dict(pivots)
    if integral:
        assert all(type(v) is int for vec in kernel for v in vec.values())


@pytest.mark.parametrize("vec", [{0: 1, 2: 3}, {1: 2, 2: Q(1, 3)}])
def test_echelon_keeps_no_admitted_vector(vec):
    # a vector that is already a reduced row, and one scaled at its pivot
    ech = Echelon()
    ech.add({0: 1, 1: 1})
    assert ech.add(vec)
    rows = {p: dict(row) for p, row in ech.rows.items()}
    rank, kernel = ech.rank, ech.kernel_basis(3)
    vec.clear()
    vec.update({0: 5, 2: 7})
    assert ech.rows == rows and ech.rank == rank and ech.kernel_basis(3) == kernel


@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_rejects_garbage():
    for bad in ["", "1/", "/2", "a/b", "1.5", "1/0", True, False, 1.5, None]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(bad)


# ---------------------------------------------------------------------------
# sparse linear combinations


def _old_vec_add(u, v, scale=Q(1)):
    """The out-of-place sparse axpy every layer used to copy: a new dict."""
    out = dict(u)
    for i, c in v.items():
        out[i] = out.get(i, Q(0)) + scale * c
    return {i: c for i, c in out.items() if c}


sparse = st.dictionaries(st.integers(0, 5), scalars, max_size=5)
nonzero_sparse = sparse.map(lambda d: {k: v for k, v in d.items() if v})


@given(nonzero_sparse, sparse, scalars)
def test_add_into_matches_the_out_of_place_sum(u, v, c):
    want = _old_vec_add(u, v, c)
    v_before = dict(v)
    acc = dict(u)
    assert add_into(acc, v, c) is acc
    assert acc == want
    assert all(acc.values())
    assert v == v_before


def _elements(kind, k, seed):
    rng = random.Random(seed)
    if kind == "poisson":
        return random_element(k, rng, homogeneous=False), random_element(k, rng)
    return random_bv_element(k, rng), random_bv_element(k, rng)


def _snapshot(*xs):
    return [(type(x), x.support, dict(x.terms)) for x in xs]


@given(
    st.sampled_from(["poisson", "bv"]),
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_lincomb_arithmetic_matches_the_out_of_place_sum(kind, k, seed, c):
    x, y = _elements(kind, k, seed)
    before = _snapshot(x, y)
    assert (x + y).terms == _old_vec_add(x.terms, y.terms)
    assert (x - y).terms == _old_vec_add(x.terms, y.terms, Q(-1))
    assert x.scale(c).terms == _old_vec_add({}, x.terms, c)
    assert (-x).terms == _old_vec_add({}, x.terms, Q(-1))
    assert all(type(z) is type(x) for z in (x + y, x - y, x.scale(c), -x))
    assert _snapshot(x, y) == before  # no operand is changed
    acc = x + type(x)(x.support)
    assert acc.add_scaled(y, c) is acc
    assert acc.terms == _old_vec_add(x.terms, y.terms, c)
    assert (acc == x + y.scale(c)) and hash(acc) == hash(x + y.scale(c))
    assert _snapshot(x, y) == before
    with pytest.raises(ValueError, match="support mismatch"):
        acc.add_scaled(type(x)(range(1, k + 2)))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
def test_engine_operations_leave_their_operands_alone(k, l, seed):
    rng = random.Random(seed)
    x, y = random_element(k, rng), random_element(l, rng)
    z = relabel(y, {j: j + k for j in range(1, l + 1)})  # letters disjoint from x
    before = _snapshot(x, y, z)
    x + x, x - x, x.scale(2), -x
    delta_apply(x)
    x.bracket(z)
    z.bracket(x)
    for i in range(1, k + 1):
        compose_i(x, y, i)
    assert _snapshot(x, y, z) == before


def test_elements_inherit_all_arithmetic_from_lincomb():
    shared = ("scale", "__add__", "__sub__", "__neg__", "__eq__", "is_zero", "arity")
    for cls in (PoissonElement, BVElement):
        assert issubclass(cls, LinComb)
        assert not set(shared) & set(vars(cls))
