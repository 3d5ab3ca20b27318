"""Generic operad harness: reports, law checks, and negative controls that
prove the checks can fail."""

import random

from operadkit.operads import (
    CheckReport,
    OperadInstance,
    check_associativity,
    check_equivariance,
    check_gamma_order,
    check_units,
    full_gamma,
    full_gamma_ltr,
)
from operadkit.poisson import (
    compose_i,
    gen,
    operad_instance,
    random_element,
    sigma_act,
    unit,
)


def sampler(k, rng):
    return random_element(k, rng, terms=2, coeff_bound=2)


def test_check_report_shape():
    rep = CheckReport("demo-check", "a claim", {"k": 2})
    rep.count(True)
    rep.count(False, "bad case")
    assert not rep.passed
    assert rep.total == 2
    assert rep.line() == "FAIL demo-check (2 cases)  e.g. bad case"
    d = rep.to_dict()
    assert d["verdict"] == "fail"
    assert d["witnesses"] == ["bad case"]
    ok = CheckReport("demo-check", "a claim")
    ok.count(True)
    assert ok.line() == "PASS demo-check (1 cases)"
    assert "witnesses" not in ok.to_dict()


def test_check_with_no_cases_fails():
    rep = CheckReport("empty-check", "a claim")
    assert not rep.passed
    assert rep.line() == "FAIL empty-check (0 cases)  e.g. no cases were checked"
    d = rep.to_dict()
    assert d["verdict"] == "fail"
    assert d["witnesses"] == ["no cases were checked"]


def test_full_gamma_insertion_orders_agree():
    op = operad_instance()
    rng = random.Random(4)
    c = random_element(3, rng)
    ds = [random_element(k, rng) for k in (2, 1, 2)]
    assert full_gamma(op, c, ds) == full_gamma_ltr(op, c, ds)
    rep = check_gamma_order(op, (3, 2, 1, 2), sampler, 15, seed=5)
    assert rep.passed, rep.line()


def corrupt_compose(x, y, i):
    out = compose_i(x, y, i)
    if i == 1 and y.arity == 2:
        out = out.scale(-1)
    return out


def test_harness_catches_broken_composition():
    bad = OperadInstance(
        name="corrupted",
        compose=corrupt_compose,
        act=sigma_act,
        arity=lambda x: x.arity,
        degree=lambda x: x.degree() if not x.is_zero() else 0,
        scale=lambda x, s: x.scale(s),
        unit=unit(),
    )
    rep = check_associativity(bad, (2, 2, 2), sampler, 40, seed=0)
    assert not rep.passed
    assert rep.failures
    assert rep.line().startswith("FAIL")


def test_harness_catches_sign_twisted_action():
    def parity(perm):
        inv = sum(
            1
            for a in range(len(perm))
            for b in range(a + 1, len(perm))
            if perm[a] > perm[b]
        )
        return -1 if inv % 2 else 1

    def twisted(perm, x):
        return sigma_act(perm, x).scale(parity(perm))

    bad = OperadInstance(
        name="sign-twisted",
        compose=compose_i,
        act=twisted,
        arity=lambda x: x.arity,
        degree=lambda x: x.degree() if not x.is_zero() else 0,
        scale=lambda x, s: x.scale(s),
        unit=unit(),
    )
    rep = check_equivariance(bad, (2, 2), sampler, 40, seed=1)
    assert not rep.passed


def test_harness_catches_wrong_unit():
    bad = OperadInstance(
        name="doubled-unit",
        compose=compose_i,
        act=sigma_act,
        arity=lambda x: x.arity,
        degree=lambda x: x.degree() if not x.is_zero() else 0,
        scale=lambda x, s: x.scale(s),
        unit=gen(1).scale(2),
    )
    rep = check_units(bad, 3, sampler, 10, seed=2)
    assert not rep.passed
    # the witnesses are formatted only on failure, with the same bytes
    assert (rep.total, len(rep.failures)) == (90, 90)
    assert rep.failures[0] == "left unit sample=0 k=1 x=<-2*x1>"
    assert rep.failures[1] == "right unit sample=0 k=1 i=1 x=<-2*x1>"
    assert rep.failures[5] == "left unit sample=0 k=3 x=<-3*x1*[x2, x3]>"
    assert rep.failures[-1] == "right unit sample=9 k=3 i=3 x=<-2*x1*x2*x3>"


def test_units_format_no_witness_for_passing_cases():
    # integer tuples under blockwise translation, unit (0,); each sampled
    # element counts how often a witness string formats it
    class Counted(tuple):
        reprs = 0

        def __repr__(self):
            Counted.reprs += 1
            return tuple.__repr__(self)

    op = OperadInstance(
        name="translation",
        compose=lambda x, y, i: x[: i - 1] + tuple(x[i - 1] + v for v in y) + x[i:],
        act=lambda perm, x: x,
        arity=len,
        unit=(0,),
    )
    rep = check_units(op, 3, lambda k, rng: Counted(rng.randrange(9) for _ in range(k)), 5)
    assert rep.passed and rep.total == 45
    assert Counted.reprs == 0


def test_graded_instance_requires_scale():
    import pytest

    with pytest.raises(ValueError):
        OperadInstance(
            name="missing-scale",
            compose=compose_i,
            act=sigma_act,
            arity=lambda x: x.arity,
            degree=lambda x: 0,
        )
