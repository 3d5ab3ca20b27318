"""Circle operator and decorated elements: Delta algebra, marked-slot
composition, the relation suite and its negative control."""

import json
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from operadkit import bv, poisson
from operadkit.bv import (
    BVElement,
    bv_compose,
    bv_from_poisson,
    bv_operad_instance,
    bv_sigma_act,
    bv_unit,
    check_bv_relations,
    delta_apply,
)
import bv_relations_oracle
from grammar import eval_ast, normalize, normalize_bv, parse_expr
from operadkit.exact import add_into
from operadkit.gravity import (
    check_free_module,
    check_lie_embedding,
    check_suboperad_closure,
    verify_generalized_jacobi,
)
from operadkit.operads import check_associativity, check_equivariance, check_units
from operadkit.poisson import (
    PoissonElement,
    enumerate_basis,
    from_mono,
    gen,
    relabel,
)
from perm_helpers import perm_compose
from samplers import random_bv_element, random_element


def poisson_part(x, marking=()):
    """Poisson element collecting the terms with the given marking."""
    marking = frozenset(int(i) for i in marking)
    return PoissonElement(
        x.support, {m: c for (m, s), c in x.terms.items() if s == marking}
    )


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _tuples(reports):
    return [[r.check_id, "pass" if r.passed else "fail", r.total] for r in reports]


def shift(x, base):
    k = len(x.support)
    return relabel(x, {i: i + base for i in range(1, k + 1)})


def test_delta_on_generators_and_products():
    x1, x2, x3 = gen(1), gen(2), gen(3)
    assert delta_apply(x1).is_zero()
    assert delta_apply(x1.bracket(x2)).is_zero()
    assert delta_apply(x1.mul(x2)) == x1.bracket(x2)
    got = delta_apply(x1.mul(x2).mul(x3))
    expected = normalize("[x1, x2]*x3 + [x1, x3]*x2 + x1*[x2, x3]")
    assert got == expected


def test_delta_squares_to_zero_on_full_bases():
    for k in (2, 3, 4, 5):
        for mono in enumerate_basis(k):
            x = from_mono(mono)
            assert delta_apply(delta_apply(x)).is_zero()


def test_delta_lowers_block_count_by_one():
    for k in (3, 4):
        for mono in enumerate_basis(k):
            dx = delta_apply(from_mono(mono))
            for m in dx.terms:
                assert len(m) == len(mono) - 1


def test_deviation_identity_measures_the_bracket():
    # Delta(ac) - Delta(a)c - (-1)^{|a|} a Delta(c) = (-1)^{|a|} [a, c]
    rng = random.Random(13)
    for _ in range(30):
        ka, kc = rng.choice([(1, 2), (2, 2), (2, 3), (3, 2)])
        a = random_element(ka, rng)
        c = shift(random_element(kc, rng), ka)
        if a.is_zero() or c.is_zero():
            continue
        sa = (-1) ** a.degree()
        dev = (
            delta_apply(a.mul(c))
            - delta_apply(a).mul(c)
            - a.mul(delta_apply(c)).scale(sa)
        )
        assert dev == a.bracket(c).scale(sa)


def test_delta_is_a_derivation_of_composition():
    rng = random.Random(29)
    for _ in range(25):
        kx, ky = rng.choice([(2, 2), (2, 3), (3, 2)])
        x = random_element(kx, rng)
        y = shift(random_element(ky, rng), 0)
        if x.is_zero() or y.is_zero():
            continue
        from operadkit.poisson import compose_i

        i = rng.randrange(1, kx + 1)
        lhs = delta_apply(compose_i(x, y, i))
        sx = (-1) ** x.degree()
        rhs = compose_i(delta_apply(x), y, i) + compose_i(x, delta_apply(y), i).scale(sx)
        assert lhs == rhs


def test_marked_composition_spot_values():
    dx = normalize_bv("x1@{1}")
    prod = normalize_bv("x1*x2")
    # substituting a product into a marked slot peels off one bracket and
    # spreads the marking over the two letters
    got = bv_compose(dx, prod, 1)
    expected = (
        bv_from_poisson(normalize("[x1, x2]"))
        + normalize_bv("(x1*x2)@{1}")
        + normalize_bv("(x1*x2)@{2}")
    )
    assert got == expected
    # a marked slot into a marked slot squares the exterior generator
    assert bv_compose(dx, dx, 1) == BVElement({1})
    # unmarked composition restricts to the plain engine
    from operadkit.poisson import compose_i

    br = normalize("[x1, x2]")
    prod_p = normalize("x1*x2")
    plain = bv_compose(bv_from_poisson(prod_p), bv_from_poisson(br), 2)
    assert poisson_part(plain) == compose_i(prod_p, br, 2)


def test_marking_word_is_exterior():
    a = normalize_bv("(x1*x2)@{1}@{2}")
    b = normalize_bv("(x1*x2)@{2}@{1}")
    assert a == -b
    assert normalize_bv("(x1*x2)@{1}@{1}") == BVElement({1, 2})
    assert normalize_bv("(x1*x2)@{1,2}") == a


def test_bv_unit_and_zero():
    assert bv_unit() == bv_from_poisson(gen(1))
    assert not BVElement({1, 2}).terms
    with pytest.raises(ValueError):
        BVElement({1, 2}, {(((1, 2),), frozenset({3})): Q(1)})


def test_delta_text_evaluator():
    node = parse_expr("D(x1*x2*x3)")
    got = eval_ast(node, delta_apply)
    assert got == delta_apply(normalize("x1*x2*x3"))
    assert eval_ast(parse_expr("D(D(x1*x2*x3))"), delta_apply).is_zero()
    got = eval_ast(parse_expr("[D(x1*x2), x3] - 2*x3*D(x1*x2)"), delta_apply)
    assert got == normalize("[[x1, x2], x3] - 2*x3*[x1, x2]")
    with pytest.raises(ValueError):
        eval_ast(parse_expr("D(3)"), delta_apply)
    # slot markings are read by the BV layer only, never inside D()
    with pytest.raises(ValueError):
        eval_ast(parse_expr("D(x1@{1}*x2)"), delta_apply)
    with pytest.raises(ValueError):
        normalize_bv("D(x1@{1}*x2)")
    # a product of scalars is a bare scalar, not an element
    with pytest.raises(ValueError):
        normalize_bv("(-2)*(-3)")


def test_plain_evaluator_rejects_delta_without_a_hook():
    with pytest.raises(ValueError, match="'delta' is not part of the plain"):
        eval_ast(parse_expr("D(x1)"))


def test_normalize_bv_round_trip_via_repr_terms():
    rng = random.Random(5)
    for k in (2, 3):
        for _ in range(8):
            x = random_bv_element(k, rng)
            # rebuild from the term dict through the text grammar
            pieces = []
            for (mono, marking), c in x.terms.items():
                from operadkit.poisson import mono_to_text

                body = "(%s)" % mono_to_text(mono)
                if marking:
                    body += "@{%s}" % ",".join(str(i) for i in sorted(marking))
                pieces.append("(%s)*%s" % (c, body) if c.denominator > 1 else "%d*%s" % (c, body))
            if not pieces:
                continue
            text = " + ".join(pieces)
            assert normalize_bv(text) == x


def test_bv_sigma_act_is_left_action():
    rng = random.Random(31)
    from itertools import permutations

    for k in (2, 3):
        x = random_bv_element(k, rng)
        for s in permutations(range(1, k + 1)):
            for t in permutations(range(1, k + 1)):
                lhs = bv_sigma_act(s, bv_sigma_act(t, x))
                assert lhs == bv_sigma_act(perm_compose(s, t), x)


def test_bv_harness_small_arities():
    op = bv_operad_instance()
    rng = random.Random(0)

    def sampler(k, r):
        return random_bv_element(k, r, terms=2, coeff_bound=2)

    for arities in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]:
        rep = check_associativity(op, arities, sampler, 25, seed=rng.randrange(10**6))
        assert rep.passed, rep.line()
    for arities in [(2, 2), (3, 2)]:
        rep = check_equivariance(op, arities, sampler, 25, seed=1)
        assert rep.passed, rep.line()
    rep = check_units(op, 3, sampler, 20, seed=2)
    assert rep.passed, rep.line()


def test_relation_suite_passes_small():
    for k in (2, 3, 4):
        reps = check_bv_relations(k)
        for rep in reps:
            assert rep.passed, rep.line()


def test_relation_suite_scaled_degree():
    reps = check_bv_relations(3, b=3)
    for rep in reps:
        assert rep.passed, rep.line()


def test_relation_suite_negative_control():
    # unsigned Delta: the failure counts of (squared, deviation, derivation)
    # are those the Leibniz recursion of Delta gave, with every case counted
    expected = {3: [1, 4, 6], 4: [7, 32, 38], 5: [46, 256, 324]}
    for k, failures in expected.items():
        for b in (1, 3):
            reps = check_bv_relations(k, b, _corrupt_delta=True)
            assert [len(rep.failures) for rep in reps] == failures, (k, b)
            honest = check_bv_relations(k, b)
            assert [rep.total for rep in reps] == [rep.total for rep in honest]


def test_relation_suite_embeds_each_letter_set_once(monkeypatch):
    # every nonempty proper letter set is aset of one split and cset of its
    # complement's; its s! basis monomials are embedded once, not per side
    calls = []
    real = bv._embed

    def counted(mono, letters):
        calls.append(letters)
        return real(mono, letters)

    monkeypatch.setattr(bv, "_embed", counted)
    for k in (3, 4, 5):
        calls.clear()
        reps = check_bv_relations(k)
        assert all(rep.passed for rep in reps)
        assert len(calls) == sum(math.comb(k, s) * math.factorial(s) for s in range(1, k)), k
        assert len(set(calls)) == 2 ** k - 2


def _bracket_without_e(real):
    """``real`` (the monomial bracket) with the sign e_i of moving the block
    Bi of M out past B>i dropped: [M, N] becomes the sum over i of
    B<i . [Bi, N] . B>i, where a single block has no e."""

    def mutant(m1, m2):
        out = {}
        for i, block in enumerate(m1):
            inner = PoissonElement._of(frozenset(), real((block,), m2))
            add_into(out, from_mono(m1[:i]).mul(inner).mul(from_mono(m1[i + 1:])).terms)
        return out

    return mutant


def test_relation_suite_sees_a_bracket_without_its_sign_e(monkeypatch):
    # e_i is -1 only when a block of odd degree follows Bi, which needs three
    # letters in a, so arity 3 cannot see it; Delta does not use the monomial
    # bracket, so Delta^2 = 0 still holds.  The counts are those of the
    # battery that formed every bracket as a PoissonElement.
    monkeypatch.setattr(poisson, "_bracket_terms", _bracket_without_e(poisson._bracket_terms))
    expected = {3: [0, 0, 0], 4: [0, 4, 8], 5: [0, 40, 70]}
    for k, failures in expected.items():
        for b in (1, 3):
            reps = check_bv_relations(k, b)
            assert [len(rep.failures) for rep in reps] == failures, (k, b)


def test_relation_suite_sees_products_without_their_sign(monkeypatch):
    # merge_monos with every Koszul sign of the product dropped: the sign is
    # -1 only when an odd block of c jumps an odd block of a, so arity 3
    # cannot see it; the monomial bracket and Delta do not merge monomials,
    # so Delta^2 = 0 and the derivation law still hold.  The counts are
    # those of the battery that formed every product as a PoissonElement.
    real = poisson.merge_monos
    expected = {3: [0, 0, 0], 4: [0, 9, 0], 5: [0, 73, 0]}
    with monkeypatch.context() as m:
        m.setattr(poisson, "merge_monos", lambda m1, m2: (1, real(m1, m2)[1]))
        for k, failures in expected.items():
            for b in (1, 3):
                got = check_bv_relations(k, b)
                assert [len(rep.failures) for rep in got] == failures, (k, b)
                want = bv_relations_oracle.check_bv_relations(k, b)
                assert [(r.total, r.failures) for r in got] == [
                    (r.total, r.failures) for r in want
                ], (k, b)

    def no_mul(self, other):
        raise AssertionError("the relation sweep formed a PoissonElement product")

    monkeypatch.setattr(PoissonElement, "mul", no_mul)
    for rep in check_bv_relations(4, 1):
        assert rep.passed, rep.line()


KERNELS = (poisson._bracket_terms, poisson.merge_monos)


def test_the_b3_sweep_reads_back_the_b1_brackets_and_products():
    # neither kernel reads b, so a bounded cache of each serves b = 3 from
    # what b = 1 built, with no miss
    assert [type(kernel.cache_info().maxsize) for kernel in KERNELS] == [int, int]
    for kernel in KERNELS:
        kernel.cache_clear()
    assert all(rep.passed for rep in check_bv_relations(4, 1))
    misses = [kernel.cache_info().misses for kernel in KERNELS]
    assert min(misses) > 0
    assert all(rep.passed for rep in check_bv_relations(4, 3))
    assert [kernel.cache_info().misses for kernel in KERNELS] == misses


def test_no_caller_mutates_a_kept_bracket(monkeypatch):
    # the bv sweep, and compose_i through _bracket_sum, read the dicts the
    # cache keeps; each must still equal a fresh computation, item for item.
    # The closure check sums brackets of several terms, so a _bracket_sum
    # that took over its first kept dict and added into it is caught.
    kept = poisson._bracket_terms
    kept.cache_clear()
    used = []

    def recorded(m1, m2):
        used.append((m1, m2))
        return kept(m1, m2)

    with monkeypatch.context() as m:
        m.setattr(poisson, "_bracket_terms", recorded)
        assert all(rep.passed for rep in check_bv_relations(4, 1))
        hits = kept.cache_info().hits
        assert verify_generalized_jacobi(3, 1).passed
        assert check_lie_embedding(4).passed
        assert check_suboperad_closure(4).passed
    assert kept.cache_info().hits > hits  # the gravity checks read kept dicts
    misses = kept.cache_info().misses
    for m1, m2 in dict.fromkeys(used):
        assert list(kept(m1, m2).items()) == list(kept.__wrapped__(m1, m2).items())
    assert kept.cache_info().misses == misses


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("b", [1, 3])
def test_relation_suite_matches_the_element_by_element_oracle(b, corrupt):
    # the default suite runs arity 6; the oracle checks it honestly at b = 1
    for k in range(2, 7 if (b, corrupt) == (1, False) else 6):
        got = check_bv_relations(k, b, _corrupt_delta=corrupt)
        want = bv_relations_oracle.check_bv_relations(k, b, _corrupt_delta=corrupt)
        assert [(r.check_id, r.total, r.failures) for r in got] == [
            (r.check_id, r.total, r.failures) for r in want
        ], k


def test_relation_suite_and_kernel_match_the_benchmark_pins():
    # the [check_id, verdict, cases] tuples perfbench gates against; read only
    pinned = json.loads(REFERENCE.read_text())["workloads"]
    got = check_bv_relations(5, 1) + check_bv_relations(5, 3)
    assert _tuples(got) == pinned["bv-relations"]["checks"]
    assert _tuples([check_free_module(7)]) == pinned["kernel"]["checks"]
