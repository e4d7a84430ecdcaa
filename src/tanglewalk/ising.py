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
transform (Fino & Algazi, IEEE Trans. Computers 1976): O(n * 2^n) time
whatever the term count, and a peak of 1.5 * 8 * 2^n bytes (the float64
vector plus a half-length temporary).  The result is bit-identical to
summing the terms one by one whenever every coefficient is dyadic and
every partial sum is exact, which holds for all encodings built from
integer weights and dyadic penalties.  Otherwise the energies can differ
from a term-by-term sum in the last bits, by rounding of order
n * eps * (|constant| + sum |coeff|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DomainError, SizeCapError
from .polynomials import BinaryPolynomial, Monomial, _accumulate

MEMORY_BUDGET = 4 << 30  # bytes any one dense path may peak at
# Peak bytes of each dense path: 1 MiB (NumPy's iterator buffers), a worst
# case per basis state, and for simulate and sweep 24 per distinct energy
# (its float64 level and complex phase).  They bound tracemalloc peaks at
# 14-21 qubits.  A diagonal or parity table is the float64 vector and a
# half-length temporary.  Simulate holds the diagonal its caller keeps, a
# level index of up to 4 bytes, a 16-byte state, 24 of half-length buffers
# and at the end 8 of |amplitude|^2.  Sweep keeps no diagonal beside its
# one state, which it refills for every grid point: the state, the buffers
# and the index, plus 4 while np.take widens half the index to intp.
# Tabulating its levels (a sorted copy of the diagonal, then
# np.searchsorted's intp positions beside the diagonal) peaks near 18.
_PEAK_BYTES_PER_STATE = {"diagonal": 12, "parity table": 12, "simulate": 60, "sweep": 48}
_PEAK_BYTES_PER_LEVEL = 24


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


def _walsh_hadamard(coeffs: np.ndarray) -> np.ndarray:
    """In place: coeffs[x] <- sum over masks S of coeffs[S] * (-1)^|S & x|.

    ``coeffs`` is a float64 vector of length 2^n indexed by qubit mask.
    Each of the n butterfly passes maps a pair (a, b) split by one index
    bit to (a + b, a - b), through one temporary of half the length.
    """
    half = coeffs.size >> 1
    diff = np.empty(half)
    stride = 1
    while stride <= half:
        pairs = coeffs.reshape(-1, 2, stride)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        tmp = diff.reshape(lo.shape)
        np.subtract(lo, hi, out=tmp)
        lo += hi
        hi[...] = tmp
        stride <<= 1
    return coeffs


def _check_memory(path: str, num_qubits: int, levels: int = 0) -> int:
    """Peak-byte estimate of ``path`` over 2^num_qubits states; SizeCapError if over budget.

    Each path calls it before allocating, so an oversized run fails at once.
    ``levels`` counts the distinct energies of simulate and sweep; before
    they are tabulated, 0 gives a lower bound that covers tabulating them.
    """
    estimate = (1 << 20) + (_PEAK_BYTES_PER_STATE[path] << num_qubits)
    estimate += _PEAK_BYTES_PER_LEVEL * levels
    if estimate > MEMORY_BUDGET:
        raise SizeCapError(
            f"{path} over {num_qubits} qubits needs about {estimate} bytes,"
            f" over the memory budget of {MEMORY_BUDGET} bytes"
        )
    return estimate


def diagonal(h: IsingPolynomial) -> np.ndarray:
    """Vector of all 2^n basis energies, index bit i = value of qubit i."""
    n = h.num_qubits
    _check_memory("diagonal", n)
    coeffs = np.zeros(1 << n)
    coeffs[0] = h.constant
    for qubits, coeff in h.terms.items():
        coeffs[sum(1 << q for q in qubits)] = coeff
    return _walsh_hadamard(coeffs)
