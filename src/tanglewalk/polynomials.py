"""Sparse multilinear polynomials over {0,1} variables.

Monomials are canonical sorted tuples of distinct variable indices
(``x**2 == x`` is applied when terms are inserted), the constant term is
keyed by the empty tuple, and zero coefficients are never stored.
Coefficients stay exact Python ints whenever the inputs are integral.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import DomainError

Monomial = tuple[int, ...]


class BinaryPolynomial:
    """Multilinear polynomial p(x) = sum over monomials of coeff * prod(x_i)."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, float] | None = None):
        if num_vars < 0:
            raise DomainError(f"num_vars must be >= 0, got {num_vars}")
        self.num_vars = num_vars
        self.terms: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                self.add_term(mono, coeff)

    def add_term(self, variables: Iterable[int], coeff):
        """Accumulate ``coeff`` on the monomial of ``variables`` (multilinear)."""
        if coeff == 0:
            return
        mono = tuple(sorted(set(variables)))
        for v in mono:
            if not 0 <= v < self.num_vars:
                raise DomainError(f"variable index {v} outside [0, {self.num_vars})")
        new = self.terms.get(mono, 0) + coeff
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    def add_polynomial(self, other: "BinaryPolynomial", scale=1):
        for mono, coeff in other.terms.items():
            self.add_term(mono, coeff * scale)

    def multiply(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        out = BinaryPolynomial(max(self.num_vars, other.num_vars))
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out.add_term(set(m1) | set(m2), c1 * c2)
        return out

    def evaluate(self, x: Sequence[int]):
        if len(x) != self.num_vars:
            raise DomainError(f"expected {self.num_vars} bits, got {len(x)}")
        total = 0
        for mono, coeff in self.terms.items():
            if all(x[v] for v in mono):
                total += coeff
        return total

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"BinaryPolynomial(num_vars={self.num_vars}, terms={len(self.terms)})"

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
        if not isinstance(num_vars, int):
            raise DomainError(f"polynomial JSON field 'n_vars' = {num_vars!r} is not an integer")
        if not isinstance(data["terms"], list):
            raise DomainError("polynomial JSON field 'terms' is not a list")
        poly = cls(num_vars)
        for i, entry in enumerate(data["terms"]):
            if not (isinstance(entry, dict) and "vars" in entry and "c" in entry):
                raise DomainError(f"terms[{i}] must carry 'vars' and 'c'")
            variables, coeff = entry["vars"], entry["c"]
            if not (isinstance(variables, list) and all(isinstance(v, int) for v in variables)):
                raise DomainError(f"terms[{i}].vars = {variables!r} is not a list of integers")
            if not isinstance(coeff, (int, float)):
                raise DomainError(f"terms[{i}].c = {coeff!r} is not a number")
            poly.add_term(variables, coeff)
        return poly
