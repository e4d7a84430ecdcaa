"""Diagonal Pauli-Z Hamiltonians obtained from binary polynomials.

Convention used everywhere in the package: qubit i corresponds to index
bit i (LSB first), bit value 0 maps to Z eigenvalue +1 and bit value 1
to -1.  Substituting x_i -> (1 - Z_i)/2 turns a multilinear binary
polynomial into a Z-term list whose computational-basis energies
reproduce the binary cost exactly (dyadic-rational arithmetic).
``to_ising`` collects the Z terms through ``polynomials._accumulate``; the
``IsingPolynomial`` it builds is a frozen, validated value.

``diagonal`` hands the constant and the term coefficients, by qubit mask,
to one fast Walsh-Hadamard transform (``_dense._walsh_hadamard``; Fino &
Algazi, IEEE Trans. Computers 1976) in O(n * 2^n) time whatever the term
count; the verifier's relative phases are ``diagonal`` of its residues.
The result is bit-identical to summing the terms one by one whenever
every coefficient is dyadic and every partial sum is exact, which holds
for all encodings built from integer weights and dyadic penalties.
Otherwise the energies can differ from a term-by-term sum in the last
bits, by rounding of order n * eps * (|constant| + sum |coeff|).

``_integer_levels`` gives the solver the same energies as levels
(distinct values and each state's index) from the same transform in int32.
Every float is an integer over a power of two, so some smallest 2^k
makes the constant and all the coefficients integers; call the sum of
their magnitudes S.  Every partial sum of the butterfly is a signed sum
of some of them, so its magnitude is at most S.  If 2 * S < 2^n (and
2^31), int32 holds every partial sum, and the spread of the energies,
at most 2 * S, indexes a table no longer than the state.  Under that bound
every float partial sum is a multiple of 2^-k below 2^31 * 2^-k, which
float64 holds exactly, so the float transform rounds nowhere either, and
the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._dense import _check_memory, _walsh_hadamard
from .errors import DomainError
from .polynomials import BinaryPolynomial, Monomial, _accumulate

@dataclass(frozen=True)
class IsingPolynomial:
    """constant + sum over qubit sets S of coeff_S * prod_{i in S} Z_i.

    Each key of ``terms`` is a non-empty sorted tuple of distinct qubits;
    the constant and every coefficient are finite.
    """

    num_qubits: int
    terms: dict[Monomial, float] = field(default_factory=dict)
    constant: float = 0.0

    def __post_init__(self):
        n = self.num_qubits
        if n < 0:
            raise DomainError(f"num_qubits must be >= 0, got {n}")
        if not math.isfinite(self.constant):
            raise DomainError(f"the constant {self.constant!r} is not finite")
        for key, coeff in self.terms.items():
            ints = type(key) is tuple and all(type(q) is int for q in key)
            if not (ints and key and list(key) == sorted(set(key)) and 0 <= key[0] <= key[-1] < n):
                raise DomainError(f"Z term {key!r} is not sorted distinct qubits in [0, {n})")
            if coeff == 0 or not math.isfinite(coeff):
                raise DomainError(f"Z term {key!r} has a zero or non-finite coefficient {coeff!r}")


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


def _masks(h: IsingPolynomial) -> list[int]:
    """0 for the constant, then each term's qubit mask, in ``h.terms`` order."""
    return [0, *(sum(1 << q for q in qubits) for qubits in h.terms)]


def diagonal(h: IsingPolynomial) -> np.ndarray:
    """Vector of all 2^n basis energies, index bit i = value of qubit i; none is -0.0."""
    n = h.num_qubits
    _check_memory("diagonal", n)
    # a transform of +0.0 and nonzeros yields no -0.0
    return _walsh_hadamard(n, _masks(h), [h.constant + 0.0, *h.terms.values()], np.float64)


def _integer_levels(h: IsingPolynomial) -> tuple[np.ndarray, np.ndarray] | None:
    """``_dense._levels(diagonal(h))`` built from integers, or None where that is not exact.

    The constant and the coefficients, times the smallest 2^k that makes
    them all integers, must have magnitudes summing to less than half of
    2^n (and of 2^31).  Each state's energy less the lowest then indexes a
    table no longer than the state, whose running count of the energies
    present is that state's level.
    """
    coeffs = [h.constant, *h.terms.values()]
    ratios = [float(c).as_integer_ratio() for c in coeffs]  # each denominator a power of 2
    k = max(den.bit_length() for _, den in ratios) - 1
    ints = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    if 2 * sum(map(abs, ints)) >= 1 << min(h.num_qubits, 31):
        return None
    energies = _walsh_hadamard(h.num_qubits, _masks(h), ints, np.int32)
    low = int(energies.min())
    energies -= low
    present = np.zeros(int(energies.max()) + 1, dtype=bool)
    present[energies] = True
    dtype = np.min_scalar_type(np.count_nonzero(present) - 1)
    rank = np.zeros(present.size, dtype)  # present[0]: the lowest energy has rank 0
    np.cumsum(present[1:], dtype=dtype, out=rank[1:])
    values = (np.flatnonzero(present) + low) * 2.0**-k  # exact: below 2^31, and k <= 1074
    return values, np.take(rank, energies)
