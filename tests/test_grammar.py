"""Text grammar: parsing, evaluation to normal form, printing round trips."""

import random
from fractions import Fraction as Q

import pytest

from grammar import normalize, parse_expr
from operadkit.poisson import element_to_text, gen
from samplers import random_element


def test_parse_basic_shapes():
    assert parse_expr("x1") == ("gen", 1)
    assert parse_expr("x{12}") == ("gen", 12)
    node = parse_expr("[x1, x2]")
    assert node == ("br", ("gen", 1), ("gen", 2))
    assert parse_expr("x1*x2")[0] == "mul"
    assert parse_expr("2*x1 - x1")[0] == "sub"


def test_normalize_known_expressions():
    x1, x2, x3 = gen(1), gen(2), gen(3)
    assert normalize("x1") == x1
    assert normalize("[x1, x2]") == x1.bracket(x2)
    assert normalize("[x2, x1]") == x1.bracket(x2)
    assert normalize("x1*x2 + x2*x1") == x1.mul(x2).scale(2)
    assert normalize("[[x1, x2], x3]") == x1.bracket(x2).bracket(x3)
    # Jacobi rewrites to the comb basis
    assert normalize("[x1, [x2, x3]] - [[x1, x2], x3] - [[x1, x3], x2]").is_zero()
    assert normalize("(1/2)*x1*x2") == x1.mul(x2).scale(Q(1, 2))
    assert normalize("-x1") == x1.scale(-1)


def test_normalize_rejects_non_elements():
    with pytest.raises(ValueError):
        normalize("3")
    with pytest.raises(ValueError):
        normalize("1/2")
    with pytest.raises(ValueError):
        normalize("x1 + 1")
    with pytest.raises(ValueError):
        normalize("[x1, 2]")


def test_normalize_rejects_bad_supports():
    # repeated letter
    with pytest.raises(ValueError):
        normalize("x1*x1")
    with pytest.raises(ValueError):
        normalize("[x1, x1]")
    # non-contiguous letters
    with pytest.raises(ValueError):
        normalize("x1*x3")
    # mixed arities in a sum
    with pytest.raises(ValueError):
        normalize("x1 + x1*x2")


def test_parse_errors():
    for bad in ["x1 +", "[x1, x2", "x1 x2", "@", "x", "()"]:
        with pytest.raises(ValueError):
            normalize(bad)
    # operator extension tokens are parseable but not plain expressions
    with pytest.raises(ValueError):
        normalize("D(x1)")
    with pytest.raises(ValueError):
        normalize("x1@{1}")


def test_print_parse_round_trip():
    rng = random.Random(17)
    for k in (1, 2, 3, 4):
        for _ in range(12):
            x = random_element(k, rng, terms=3, coeff_bound=5)
            assert normalize(element_to_text(x)) == x
    assert element_to_text(gen(1) - gen(1)) == "0"


def test_print_uses_brace_form_for_wide_letters():
    from operadkit.poisson import relabel

    x = relabel(gen(1).bracket(gen(2)), {1: 1, 2: 12})
    text = element_to_text(x)
    assert "x{12}" in text
    # wide-letter support is not contiguous, so check the raw parse instead
    assert parse_expr(text) == ("br", ("gen", 1), ("gen", 12))
