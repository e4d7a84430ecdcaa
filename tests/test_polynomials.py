import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import BinaryPolynomial, DomainError

from helpers import all_assignments, brute_force_energies


def test_constant_polynomial():
    p = BinaryPolynomial(3, {(): 5})
    for x in all_assignments(3):
        assert p.evaluate(x) == 5


def test_product_term():
    p = BinaryPolynomial(2, {(0, 1): 1})
    assert p.evaluate((1, 1)) == 1
    assert p.evaluate((1, 0)) == 0


def test_multilinear_reduction_at_insertion():
    p = BinaryPolynomial(2)
    p.add_term((0, 0, 1), 3)  # x0^2 x1 -> x0 x1
    assert p.terms == {(0, 1): 3}


def test_zero_coefficients_dropped():
    p = BinaryPolynomial(2)
    p.add_term((0,), 2)
    p.add_term((0,), -2)
    assert p.terms == {}


def test_length_mismatch():
    with pytest.raises(DomainError):
        BinaryPolynomial(2, {(0,): 1}).evaluate([1])


def test_variable_out_of_range():
    with pytest.raises(DomainError):
        BinaryPolynomial(2).add_term((2,), 1)


def test_multiply_is_pointwise_product():
    a = BinaryPolynomial(3, {(): 1, (0,): -1})
    b = BinaryPolynomial(3, {(1,): 1, (0, 2): 2})
    product = a.multiply(b)
    for x in all_assignments(3):
        assert product.evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_brute_force_scan_matches_evaluate(data):
    n = data.draw(st.integers(1, 5))
    terms = data.draw(
        st.dictionaries(
            st.frozensets(st.integers(0, n - 1), max_size=n).map(
                lambda s: tuple(sorted(s))
            ),
            st.integers(-9, 9).filter(lambda c: c != 0),
            max_size=8,
        )
    )
    p = BinaryPolynomial(n, terms)
    energies = brute_force_energies(p)
    bits = all_assignments(n)
    for idx in range(1 << n):
        assert energies[idx] == p.evaluate(bits[idx])


def test_json_round_trip_bit_exact():
    p = BinaryPolynomial(4, {(): 7, (0,): -3, (1, 3): 12, (0, 1, 2, 3): 1})
    q = BinaryPolynomial.from_dict(json.loads(json.dumps(p.to_dict())))
    assert q == p
    assert all(isinstance(c, int) for c in q.terms.values())


def test_from_dict_validation():
    with pytest.raises(DomainError):
        BinaryPolynomial.from_dict({"terms": []})
    with pytest.raises(DomainError):
        BinaryPolynomial.from_dict({"n_vars": 2, "terms": [{"vars": [0]}]})
