"""Sparse multilinear polynomials over {0,1} variables, and their term store.

Monomials are canonical sorted tuples of distinct variable indices
(``x**2 == x`` is applied when terms are inserted), the constant term is
keyed by the empty tuple, and zero coefficients are never stored.
Coefficients stay exact Python ints whenever the inputs are integral.
``_accumulate`` is that term store, shared with ``ising.to_ising``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DomainError

Monomial = tuple[int, ...]


def _accumulate(terms: dict, mono: Monomial, coeff):
    """Add ``coeff`` to ``terms[mono]``, dropping the key when the sum is zero."""
    if coeff == 0:
        return
    new = terms.get(mono, 0) + coeff
    if new == 0:
        terms.pop(mono, None)
    else:
        terms[mono] = new


@dataclass
class BinaryPolynomial:
    """Multilinear polynomial p(x) = sum over monomials of coeff * prod(x_i)."""

    num_vars: int
    terms: dict[Monomial, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 0:
            raise DomainError(f"num_vars must be >= 0, got {self.num_vars}")
        given, self.terms = self.terms, {}
        for mono, coeff in given.items():
            self.add_term(mono, coeff)

    def add_term(self, variables: Iterable[int], coeff):
        """Accumulate ``coeff`` on the monomial of ``variables`` (multilinear)."""
        mono = tuple(sorted(set(variables)))
        for v in mono:
            if not 0 <= v < self.num_vars:
                raise DomainError(f"variable index {v} outside [0, {self.num_vars})")
        _accumulate(self.terms, mono, coeff)

    def add_polynomial(self, other: "BinaryPolynomial", scale=1):
        if other.num_vars > self.num_vars:
            raise DomainError(f"cannot add {other.num_vars} variables into {self.num_vars}")
        for mono, coeff in other.terms.items():
            _accumulate(self.terms, mono, coeff * scale)

    def multiply(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        out = BinaryPolynomial(max(self.num_vars, other.num_vars))
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out.terms, tuple(sorted({*m1, *m2})), c1 * c2)
        return out

    def to_dict(self) -> dict:
        return {
            "n_vars": self.num_vars,
            "terms": [
                {"vars": list(mono), "c": coeff}
                for mono, coeff in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BinaryPolynomial":
        if not (isinstance(data, dict) and "n_vars" in data and "terms" in data):
            raise DomainError("polynomial JSON must be an object with 'n_vars' and 'terms'")
        num_vars = data["n_vars"]
        if type(num_vars) is not int:
            raise DomainError(f"polynomial JSON field 'n_vars' = {num_vars!r} is not an integer")
        if not isinstance(data["terms"], list):
            raise DomainError("polynomial JSON field 'terms' is not a list")
        poly = cls(num_vars)
        for i, entry in enumerate(data["terms"]):
            if not (isinstance(entry, dict) and "vars" in entry and "c" in entry):
                raise DomainError(f"terms[{i}] must carry 'vars' and 'c'")
            variables, coeff = entry["vars"], entry["c"]
            if not (isinstance(variables, list) and all(type(v) is int for v in variables)):
                raise DomainError(f"terms[{i}].vars = {variables!r} is not a list of integers")
            if not (type(coeff) in (int, float) and -math.inf < coeff < math.inf):
                raise DomainError(f"terms[{i}].c = {coeff!r} is not a finite number")
            poly.add_term(variables, coeff)
        return poly
