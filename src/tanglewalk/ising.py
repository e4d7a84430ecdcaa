"""Diagonal Pauli-Z Hamiltonians obtained from binary polynomials.

Convention used everywhere in the package: qubit i corresponds to index
bit i (LSB first), bit value 0 maps to Z eigenvalue +1 and bit value 1
to -1.  Substituting x_i -> (1 - Z_i)/2 turns a multilinear binary
polynomial into a Z-term list whose computational-basis energies
reproduce the binary cost exactly (dyadic-rational arithmetic).
``to_ising`` collects the Z terms through ``polynomials._accumulate``; the
``IsingPolynomial`` it builds is a frozen, validated value.

``diagonal`` scatters the constant and the term coefficients into a
vector indexed by qubit mask and applies one in-place fast Walsh-Hadamard
transform (Fino & Algazi, IEEE Trans. Computers 1976) in O(n * 2^n) time
whatever the term count.  The result is bit-identical to summing the
terms one by one whenever every coefficient is dyadic and every partial
sum is exact, which holds for all encodings built from
integer weights and dyadic penalties.  Otherwise the energies can differ
from a term-by-term sum in the last bits, by rounding of order
n * eps * (|constant| + sum |coeff|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._dense import _check_memory, _walsh_hadamard
from .errors import DomainError
from .polynomials import BinaryPolynomial, Monomial, _accumulate

@dataclass(frozen=True)
class IsingPolynomial:
    """constant + sum over qubit sets S of coeff_S * prod_{i in S} Z_i.

    Each key of ``terms`` is a non-empty sorted tuple of distinct qubits.
    """

    num_qubits: int
    terms: dict[Monomial, float] = field(default_factory=dict)
    constant: float = 0.0

    def __post_init__(self):
        n = self.num_qubits
        if n < 0:
            raise DomainError(f"num_qubits must be >= 0, got {n}")
        for key, coeff in self.terms.items():
            ints = type(key) is tuple and all(type(q) is int for q in key)
            if not (ints and key and list(key) == sorted(set(key)) and 0 <= key[0] <= key[-1] < n):
                raise DomainError(f"Z term {key!r} is not sorted distinct qubits in [0, {n})")
            if coeff == 0:
                raise DomainError(f"Z term {key!r} has a zero coefficient")


def to_ising(p: BinaryPolynomial) -> IsingPolynomial:
    """Substitute x_i -> (1 - Z_i)/2 and collect Z terms.

    Each degree-d binary monomial expands into 2^d Z terms with
    coefficients coeff / 2^d, signed by the subset parity.
    """
    terms: dict[Monomial, float] = {}
    for mono, coeff in sorted(p.terms.items()):
        d = len(mono)
        base = coeff / (2**d) if d else coeff
        for r in range(d + 1):
            sign = -1 if r % 2 else 1
            for subset in combinations(mono, r):
                _accumulate(terms, subset, sign * base)
    constant = float(terms.pop((), 0.0))
    return IsingPolynomial(p.num_vars, terms, constant)


def diagonal(h: IsingPolynomial) -> np.ndarray:
    """Vector of all 2^n basis energies, index bit i = value of qubit i; none is -0.0."""
    n = h.num_qubits
    _check_memory("diagonal", n)
    coeffs = np.zeros(1 << n)
    coeffs[0] = h.constant + 0.0  # a transform of +0.0 and nonzeros yields no -0.0
    for qubits, coeff in h.terms.items():
        coeffs[sum(1 << q for q in qubits)] = coeff
    return _walsh_hadamard(coeffs)
