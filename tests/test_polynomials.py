import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import BinaryPolynomial, DomainError

from helpers import all_assignments, brute_force_energies, evaluate


def test_constant_polynomial():
    p = BinaryPolynomial(3, {(): 5})
    for x in all_assignments(3):
        assert evaluate(p, x) == 5


def test_product_term():
    p = BinaryPolynomial(2, {(0, 1): 1})
    assert evaluate(p, (1, 1)) == 1
    assert evaluate(p, (1, 0)) == 0


def test_multilinear_reduction_at_insertion():
    p = BinaryPolynomial(2)
    p.add_term((0, 0, 1), 3)  # x0^2 x1 -> x0 x1
    assert p.terms == {(0, 1): 3}


def test_zero_coefficients_dropped():
    p = BinaryPolynomial(2)
    p.add_term((0,), 2)
    p.add_term((0,), -2)
    assert p.terms == {}


def test_variable_out_of_range():
    with pytest.raises(DomainError):
        BinaryPolynomial(2).add_term((2,), 1)


def test_add_polynomial_rejects_more_variables():
    with pytest.raises(DomainError):
        BinaryPolynomial(2).add_polynomial(BinaryPolynomial(3, {(0,): 1}))


def test_sums_that_cancel_drop_their_monomial():
    p = BinaryPolynomial(2, {(0,): 1, (1,): 2})
    p.add_polynomial(BinaryPolynomial(2, {(0,): 1}), scale=-1)
    assert p.terms == {(1,): 2}
    a = BinaryPolynomial(2, {(0,): 1, (1,): 1})
    b = BinaryPolynomial(2, {(0,): 1, (1,): -1})
    assert a.multiply(b).terms == {(0,): 1, (1,): -1}  # the two x0*x1 products cancel


def test_multiply_is_pointwise_product():
    a = BinaryPolynomial(3, {(): 1, (0,): -1})
    b = BinaryPolynomial(3, {(1,): 1, (0, 2): 2})
    product = a.multiply(b)
    for x in all_assignments(3):
        assert evaluate(product, x) == evaluate(a, x) * evaluate(b, x)


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
        assert energies[idx] == evaluate(p, bits[idx])


def test_json_round_trip_bit_exact():
    p = BinaryPolynomial(4, {(): 7, (0,): -3, (1, 3): 12, (0, 1, 2, 3): 1})
    q = BinaryPolynomial.from_dict(json.loads(json.dumps(p.to_dict())))
    assert q == p
    assert all(isinstance(c, int) for c in q.terms.values())


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_from_dict_rejects_non_finite_coefficients(token):
    # Python's json reads these tokens as floats.
    data = json.loads(f'{{"n_vars": 2, "terms": [{{"vars": [0], "c": {token}}}]}}')
    with pytest.raises(DomainError, match="finite"):
        BinaryPolynomial.from_dict(data)


@pytest.mark.parametrize(
    "data,match",
    [
        ({"n_vars": True, "terms": []}, "'n_vars'"),
        ({"n_vars": 2, "terms": [{"vars": [True], "c": 1}]}, r"terms\[0\]\.vars"),
        ({"n_vars": 2, "terms": [{"vars": [0], "c": True}]}, r"terms\[0\]\.c"),
    ],
    ids=["n_vars", "vars", "c"],
)
def test_from_dict_rejects_booleans(data, match):
    # JSON true and false are not numbers, though Python's bool is an int.
    with pytest.raises(DomainError, match=match):
        BinaryPolynomial.from_dict(data)


def test_from_dict_validation():
    with pytest.raises(DomainError):
        BinaryPolynomial.from_dict({"terms": []})
    with pytest.raises(DomainError):
        BinaryPolynomial.from_dict({"n_vars": 2, "terms": [{"vars": [0]}]})
