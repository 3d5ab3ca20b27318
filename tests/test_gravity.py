"""Kernel of the circle operator: dimension tables, the bracket family and
its quadratic relation, closure under composition, scaled-degree models."""

import itertools
import json
import math
from pathlib import Path

import pytest

from operadkit import gravity
from operadkit.bv import delta_apply
from operadkit.exact import Echelon, GradedDims
from operadkit.gravity import (
    _degree_slices,
    _delta_slice,
    _generated,
    bracket_generator,
    check_free_module,
    check_generation,
    check_lie_embedding,
    check_suboperad_closure,
    grav4_table,
    gravity_basis,
    gravity_dims,
    moduli_dimension_oracle,
    verify_generalized_jacobi,
)
from operadkit.poisson import (
    _graft,
    _host,
    _inserted,
    compose_i,
    enumerate_basis,
    from_mono,
    gen,
    relabel,
    sigma_act,
)
from operadkit.reports import check_e2_dims

import delta_oracle

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _counts(basis):
    """Dimensions of a basis {degree: [vectors]}: its vectors, counted."""
    return GradedDims({d: len(xs) for d, xs in basis.items()})


def test_arity_two_kernel_is_the_bracket():
    ((d, (x,)),) = gravity_basis(2).items()
    assert d == 1
    assert x == gen(1).bracket(gen(2))
    assert delta_apply(x).is_zero()


def test_gravity_rejects_unary():
    with pytest.raises(ValueError):
        gravity_basis(1)
    with pytest.raises(ValueError):
        moduli_dimension_oracle(1)


@pytest.mark.parametrize(
    "entry", [gravity_basis, gravity_dims, moduli_dimension_oracle, check_free_module]
)
def test_the_arity_is_refused_before_the_bracket_degree(entry):
    with pytest.raises(ValueError, match=r"^arity must be at least 2, got 1: Delta = 0 there"):
        entry(1, 2)


@pytest.mark.parametrize("b", [2, 0, -1])
@pytest.mark.parametrize(
    "check",
    [
        lambda b: check_free_module(4, b),
        lambda b: gravity_dims(4, b),
        lambda b: check_lie_embedding(4, b),
        lambda b: check_generation(4, b),
        lambda b: verify_generalized_jacobi(3, 1, b),
        lambda b: bracket_generator(3, b),
        lambda b: check_e2_dims(4, b),
        lambda b: check_suboperad_closure(3, b),
        lambda b: gravity_basis(4, b),
        lambda b: moduli_dimension_oracle(4, b),
    ],
    ids=[
        "free-module", "dims", "lie-embedding", "generation", "jacobi", "generator", "e2-dims",
        "closure", "basis", "moduli",
    ],
)
def test_out_of_domain_bracket_degree_is_refused_before_any_work(monkeypatch, check, b):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for name in ("_degree_slices", "_generated", "delta_apply", "compose_i", "from_mono"):
        monkeypatch.setattr("operadkit.gravity." + name, no_work)
    monkeypatch.setattr("operadkit.poisson.enumerate_basis", no_work)
    with pytest.raises(ValueError, match=r"^bracket degree must be odd and positive, got %d$" % b):
        check(b)


def test_kernel_dimensions_match_oracle():
    # the dimensions from slice ranks count the kernel vectors
    for k in range(2, 8):
        dims = gravity_dims(k)
        assert dims == _counts(gravity_basis(k)) == moduli_dimension_oracle(k), k
        assert sum(dims.values()) == math.factorial(k) // 2


def test_free_module_split():
    # ker Delta = im Delta degree by degree, checked both ways
    for k in range(2, 6):
        rep = check_free_module(k)
        assert rep.passed, rep.line()


def _integral(terms):
    return all(type(c) is int for c in terms.values())


def test_engine_and_delta_eliminations_stay_integral():
    # every structure constant is an integer, so basis operations and the
    # eliminations of the Delta matrices (pivots +-1) never need a Fraction
    for k in range(1, 6):
        for m in enumerate_basis(k):
            assert _integral(delta_apply(from_mono(m)).terms), m
    for k, l in itertools.product(range(1, 6), repeat=2):
        if k + l > 6:
            continue
        ys = [from_mono(m) for m in enumerate_basis(l)]
        shifted = [relabel(y, {j: j + k for j in range(1, l + 1)}) for y in ys]
        for mx in enumerate_basis(k):
            x = from_mono(mx)
            for y, z in zip(ys, shifted):
                if k + l <= 5:
                    assert _integral(x.bracket(z).terms)
                for i in range(1, k + 1):
                    assert _integral(compose_i(x, y, i).terms)
    # the slices are admitted last row first, and still only meet pivots +-1
    for b, k in itertools.product((1, 3), range(2, 7)):
        slices = _degree_slices(k, b)
        for degree in slices:
            images = []
            matrix = _delta_slice(k, slices, degree, b, images)
            assert all(_integral(image) for image in images), (b, k, degree)
            ech = matrix._echelon()
            assert all(_integral(row) for row in ech.rows.values()), (b, k, degree)
            assert all(_integral(vec) for vec in ech.kernel_basis(matrix.cols))


def test_borel_table_is_shifted_kernel_table():
    for k in (2, 3, 4, 5):
        assert delta_oracle.borel_homology(k) == _counts(gravity_basis(k)).shifted(-1)


def test_delta_slices_match_the_per_degree_matrices():
    # one basis pass gives the per-degree enumerations, and the rows of each
    # slice are the entries of the (row, col)-keyed matrix, row by row, with
    # or without the column images, which hold the same entries by column
    for b, k in itertools.product((1, 3), range(2, 7)):
        slices = _degree_slices(k, b)
        assert list(slices) == [b * j for j in range(k)]
        for degree in slices:
            images = []
            matrix = _delta_slice(k, slices, degree, b, images)
            want, want_cols, want_rows = delta_oracle.delta_matrix(k, degree, b)
            assert slices[degree] == want_cols and matrix.cols == len(want_cols)
            assert len(matrix.rows) == len(want_rows)
            entries = {(r, c): v for r, row in enumerate(matrix.rows) for c, v in row.items()}
            assert entries == want.entries
            assert _delta_slice(k, slices, degree, b).rows == matrix.rows
            by_column = {(r, c): v for c, image in enumerate(images) for r, v in image.items()}
            assert by_column == want.entries


@pytest.mark.parametrize("b", [1, 3])
def test_gravity_basis_and_free_module_match_the_oracle(b):
    for k in range(2, 7):
        got, want = gravity_basis(k, b), delta_oracle.gravity_basis(k, b)
        assert list(got) == list(want)
        for d, xs in want.items():
            assert [list(x.terms.items()) for x in got[d]] == [
                list(x.terms.items()) for x in xs
            ], (k, d)
        assert check_free_module(k, b).to_dict() == delta_oracle.check_free_module(k, b).to_dict()


def test_gravity_basis_refuses_a_kernel_vector_that_fails_its_certificate(monkeypatch):
    # doubling one matrix entry moves the kernel, while the column images
    # the certificate reads stay those of Delta
    real = _delta_slice

    def skewed(k, slices, degree, b=1, images=None):
        matrix = real(k, slices, degree, b, images)
        if matrix.rows:
            row = matrix.rows[0]
            row[min(row)] *= 2
        return matrix

    monkeypatch.setattr("operadkit.gravity._delta_slice", skewed)
    with pytest.raises(AssertionError, match="certificate"):
        gravity_basis(4)


def test_bracket_generator_values():
    iota2 = bracket_generator(2)
    assert iota2 == gen(1).bracket(gen(2))
    iota3 = bracket_generator(3)
    assert iota3 == delta_apply(from_mono((1, 2, 3)))
    assert delta_apply(iota3).is_zero()
    with pytest.raises(ValueError):
        bracket_generator(1)


def test_generalized_jacobi_small():
    signs = {}
    for k in (2, 3, 4):
        for l in range(0, 5 - k + 1):
            rep = verify_generalized_jacobi(k, l)
            assert rep.passed, rep.line()
            signs[(k, l)] = rep.params["relation_sign"]
    # the l = 0 convention sets the left side to zero
    assert all(s == 0 for (k, l), s in signs.items() if l == 0)
    positive = {s for (k, l), s in signs.items() if l > 0}
    assert positive == {1}


def test_generalized_jacobi_scaled_degree():
    for k, l in [(2, 0), (2, 1), (3, 0), (2, 2), (3, 1)]:
        rep = verify_generalized_jacobi(k, l, b=3)
        assert rep.passed, rep.line()


def test_generalized_jacobi_builds_its_composites_once(monkeypatch):
    # one routed composite for all six pairs of k = 4, and one left side
    import operadkit.gravity as gravity

    calls = {"compose_i": 0, "bracket_generator": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(gravity, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(gravity, name, counted)
    rep = verify_generalized_jacobi(4, 1)
    assert rep.passed, rep.line()
    assert calls == {"compose_i": 2, "bracket_generator": 4}


def test_closure_under_partial_composition():
    rep = check_suboperad_closure(4)
    assert rep.passed, rep.line()
    # spot check: composing kernel classes stays in the kernel
    g2 = bracket_generator(2)
    g3 = bracket_generator(3)
    assert delta_apply(compose_i(g3, g2, 2)).is_zero()


def test_lie_embedding_and_generation():
    rep = check_lie_embedding(4)
    assert rep.passed, rep.line()
    assert rep.total > 0
    rep = check_generation(4)
    assert rep.passed, rep.line()
    assert rep.total > 0


def test_closure_workload_matches_the_benchmark_pins():
    # the [check_id, verdict, cases] tuples perfbench gates against; read only
    pinned = json.loads(REFERENCE.read_text())["workloads"]["closure"]["checks"]
    got = [check_lie_embedding(5), check_generation(4)]
    assert [[r.check_id, "pass" if r.passed else "fail", r.total] for r in got] == pinned


def test_generation_fails_on_composites_that_leave_the_kernel(monkeypatch):
    # negative control: a kernel with the suspension twist dropped grafts
    # vectors outside ker Delta, and the certificate names one of them
    real = gravity._inserted

    def untwisted(y, letters):
        slot, ys, _, rebuilt = real(y, letters)
        return slot, ys, ys, rebuilt

    monkeypatch.setattr(gravity, "_inserted", untwisted)
    rep = check_generation(5)
    assert (rep.total, len(rep.failures)) == (4, 2), rep.line()
    assert rep.failures[0].startswith(
        "arity 4: generated GradedDims({1: 1, 2: 7, 3: 6}), kernel GradedDims({1: 1, 2: 5, 3: 6}), "
        "2 admitted vectors with Delta != 0 [<x1*[[x2, x3], x4] + "
    ), rep.failures[0]
    # the stream under the same mutant lists every admitted vector that leaks
    _, leaks = _generated({m: bracket_generator(m) for m in range(2, 6)}, 5)
    assert {k: len(xs) for k, xs in leaks.items()} == {1: 0, 2: 0, 3: 0, 4: 2, 5: 30}
    assert all(not delta_apply(x).is_zero() for xs in leaks.values() for x in xs)


def test_generation_without_iota_4_falls_short_at_arity_4():
    dims, leaks = _generated({m: bracket_generator(m) for m in (2, 3, 5)}, 5)
    short = [k for k in range(2, 6) if dims[k] != gravity_dims(k)]
    assert short == [4]
    assert dims[4] == GradedDims({2: 5, 3: 6})
    assert not any(leaks.values())


def test_lie_embedding_fails_under_a_term_dropping_kernel(monkeypatch):
    # negative control: a kernel that drops one term of every composite of
    # two or more terms leaves the top degree short at arities 3..5
    real = gravity._graft

    def drop_one(hosted, ins):
        terms = real(hosted, ins)
        if len(terms) > 1:
            del terms[next(iter(terms))]
        return terms

    monkeypatch.setattr(gravity, "_graft", drop_one)
    rep = check_lie_embedding(5)
    assert (rep.total, len(rep.failures)) == (4, 3), rep.line()
    assert rep.failures[0] == "arity 3: got GradedDims({2: 1}), expected {2: 2}"


def test_stream_offers_the_pinned_candidates(monkeypatch):
    # the Lie check's (k-1)! anchored grafts are all independent, and the
    # family's stream offers iota_n and every graft: 1 + (1 + 3) + (1 + 18 + 4)
    # candidates through arity 4, of which 1 + 3 + 12 = sum k!/2 are admitted
    adds = []
    real = Echelon.add

    def counted(self, vec):
        adds.append(real(self, vec))
        return adds[-1]

    monkeypatch.setattr(Echelon, "add", counted)
    check_lie_embedding(5)
    assert (len(adds), sum(adds)) == (33, 33)
    adds.clear()
    gens = {m: bracket_generator(m) for m in range(2, 5)}
    _generated(gens, 4)
    assert (len(adds), sum(adds)) == (28, 16)


def test_closure_checks_make_no_sigma_act_call(monkeypatch):
    # the graft stream places letters by relabelling, never by the action
    def no_sigma_act(*args):
        raise AssertionError("the closure sweep called sigma_act")

    monkeypatch.setattr("operadkit.poisson.sigma_act", no_sigma_act)
    monkeypatch.setattr("operadkit.gravity.sigma_act", no_sigma_act)
    monkeypatch.setattr("operadkit.poisson._transposed", no_sigma_act)
    for rep in (check_lie_embedding(5), check_generation(4)):
        assert rep.passed, rep.line()
        assert rep.total > 0


def test_degree_tripling_table():
    rep = grav4_table(4)
    assert rep.passed, rep.line()
    for k in (2, 3, 4):
        assert moduli_dimension_oracle(k, b=3) == moduli_dimension_oracle(k).scaled_degrees(3)


def test_scaled_degree_kernel_tables():
    for k in range(2, 7):
        dims = gravity_dims(k, b=3)
        assert dims == _counts(gravity_basis(k, b=3)) == moduli_dimension_oracle(k, b=3), k


def _closure_dims_oracle(generators, max_arity, b=1):
    """Slow reference for the generated sub-sequence: every round applies
    all k! permutations and every composition to the whole span, prunes it
    to an independent subset, and stops when the dimensions stop changing."""
    span = {k: [] for k in range(1, max_arity + 1)}
    for k, x in generators:
        span[k].append(x)

    def by_degree(k, xs):
        out = {}
        for x in xs:
            if not x.is_zero():
                out.setdefault(x.degree(b), []).append(x)
        return out

    def vector(k, x):
        basis = enumerate_basis(k, degree=x.degree(b), b=b)
        index = {m: c for c, m in enumerate(basis)}
        return {index[m]: c for m, c in x.terms.items()}

    def prune(k, xs):
        kept = []
        for xs_d in by_degree(k, xs).values():
            ech = Echelon()
            for x in xs_d:
                if ech.add(vector(k, x)):
                    kept.append(x)
        return kept

    def dims():
        return {
            k: GradedDims({d: len(xs) for d, xs in by_degree(k, span[k]).items()})
            for k in span
        }

    current = None
    while True:
        grown = {k: list(xs) for k, xs in span.items()}
        for k, xs in span.items():
            for x in xs:
                for perm in itertools.permutations(range(1, k + 1)):
                    grown[k].append(sigma_act(perm, x))
            for l in range(2, max_arity + 2 - k):
                for x in xs:
                    for y in span[l]:
                        for i in range(1, k + 1):
                            grown[k + l - 1].append(compose_i(x, y, i))
        span = {k: prune(k, xs) for k, xs in grown.items()}
        nxt = dims()
        if nxt == current:
            return current
        current = nxt


@pytest.mark.parametrize("max_arity", [2, 3, 4])
def test_graft_stream_matches_full_orbits(max_arity):
    for b in (1, 3):
        lie = {2: bracket_generator(2, b)}
        family = {m: bracket_generator(m, b) for m in range(2, max_arity + 1)}
        for gens, anchored in ((lie, True), (lie, False), (family, False)):
            dims, leaks = _generated(gens, max_arity, b, anchored)
            assert dims == _closure_dims_oracle(list(gens.items()), max_arity, b)
            assert not any(leaks.values())


def test_each_graft_is_a_permuted_partial_composition():
    # x o_S y puts y's letters on S and x's, in order, on {min S} + ([n] - S):
    # sigma_act(perm, compose_i(x, y, min S)) for the perm that sends
    # compose_i's letters there, on every basis pair with n <= 5
    pairs = 0
    for k in range(1, 6):
        for l in range(1, 7 - k):
            n = k + l - 1
            xs = [from_mono(m) for m in enumerate_basis(k)]
            ys = [from_mono(m) for m in enumerate_basis(l)]
            for S in itertools.combinations(range(1, n + 1), l):
                i = S[0]
                letters = tuple(j for j in range(1, n + 1) if j == i or j not in S)
                perm = tuple(range(1, i)) + S + tuple(j for j in letters if j > i)
                for x in xs:
                    hosted = _host(x, letters)
                    for y in ys:
                        got = _graft(hosted, _inserted(y, S))
                        assert got == sigma_act(perm, compose_i(x, y, i)).terms, (x, y, S)
                        pairs += 1
    assert pairs == 2083
