"""Binary cost encodings of tangle walk instances, and their decoders.

Two encodings are provided:

* QUBO: one bit per (time step, oriented vertex), degree <= 2, built from
  a one-hot penalty per step, an edge-following penalty between steps,
  and the squared node-frequency mismatch.
* HUBO: each step stores an oriented-vertex *index* in n = ceil(log2(2N))
  bits (LSB first), so only n*T variables are needed at the price of
  higher-degree indicator products.

Both encodings agree with the walk cost on every assignment that decodes
to a valid walk; penalty terms make everything else more expensive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .graphs import OrientedGraph, Walk
from .polynomials import BinaryPolynomial

DEFAULT_ONE_HOT_PENALTY = 10  # Lambda_1
DEFAULT_EDGE_PENALTY = 5  # Lambda_2
DEFAULT_HUBO_EDGE_PENALTY = 10  # Lambda_1 for the HUBO edge bracket


@dataclass(frozen=True)
class QuboLayout:
    """Variable layout var(t, a) = (t-1)*2N + a for steps t=1..T, oriented ids a."""

    T: int
    N: int

    def __post_init__(self):
        if self.T < 1:
            raise DomainError(f"T must be >= 1, got {self.T}")
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")

    @property
    def num_vars(self) -> int:
        return 2 * self.N * self.T

    def var(self, t: int, oriented: int) -> int:
        if not 1 <= t <= self.T:
            raise DomainError(f"step {t} outside [1, {self.T}]")
        if not 0 <= oriented < 2 * self.N:
            raise DomainError(f"oriented id {oriented} outside [0, {2 * self.N})")
        return (t - 1) * 2 * self.N + oriented


@dataclass(frozen=True)
class HuboLayout:
    """Variable layout var(t, k) = (t-1)*n + k; bit k=0 is least significant."""

    T: int
    bits_per_step: int

    def __post_init__(self):
        if self.T < 1:
            raise DomainError(f"T must be >= 1, got {self.T}")
        if self.bits_per_step < 1:
            raise DomainError(f"bits_per_step must be >= 1, got {self.bits_per_step}")

    @property
    def num_vars(self) -> int:
        return self.bits_per_step * self.T

    def var(self, t: int, k: int) -> int:
        if not 1 <= t <= self.T:
            raise DomainError(f"step {t} outside [1, {self.T}]")
        if not 0 <= k < self.bits_per_step:
            raise DomainError(f"bit {k} outside [0, {self.bits_per_step})")
        return (t - 1) * self.bits_per_step + k

    @classmethod
    def for_graph(cls, g: OrientedGraph, T: int) -> "HuboLayout":
        return cls(T, max(1, (2 * g.node_count - 1).bit_length()))


def _add_square(poly: BinaryPolynomial, variables: list[int], target, scale):
    """Add scale * (sum of ``variables`` - target)^2, reduced with x^2 = x on bits."""
    poly.add_term((), scale * target * target)
    for v in variables:
        poly.add_term((v,), scale * (1 - 2 * target))
    for i, u in enumerate(variables):
        for v in variables[i + 1 :]:
            poly.add_term((u, v), scale * 2)


def _finite(poly: BinaryPolynomial) -> BinaryPolynomial:
    """``poly``, or DomainError if a penalty so large made a coefficient overflow."""
    if not all(-math.inf < coeff < math.inf for coeff in poly.terms.values()):
        raise DomainError("penalty multipliers too large: a coefficient of the encoding overflows")
    return poly


def encode_qubo(
    g: OrientedGraph,
    T: int,
    one_hot_penalty=DEFAULT_ONE_HOT_PENALTY,
    edge_penalty=DEFAULT_EDGE_PENALTY,
) -> BinaryPolynomial:
    """Quadratic cost polynomial over the one-bit-per-(step, oriented-vertex) layout.

    The three contributions are, per assignment:
      * one-hot: penalty * sum_t (sum_a x[t,a] - 1)^2
      * edge following: penalty * sum_t (1 - sum_{(a,b) in E} x[t,a] x[t+1,b])
      * frequency: sum_v (sum_t x[t,2v] + x[t,2v+1] - w(v))^2
    """
    layout = QuboLayout(T, g.node_count)
    if not (0 < one_hot_penalty < math.inf and 0 < edge_penalty < math.inf):
        raise DomainError("penalty multipliers must be positive and finite")
    poly = BinaryPolynomial(layout.num_vars)
    top = g.num_oriented

    for t in range(1, T + 1):
        _add_square(poly, [layout.var(t, a) for a in range(top)], 1, one_hot_penalty)

    for t in range(1, T):
        poly.add_term((), edge_penalty)
        for a, b in g.edges:
            poly.add_term((layout.var(t, a), layout.var(t + 1, b)), -edge_penalty)

    for node in range(g.node_count):
        node_vars = [layout.var(t, 2 * node + o) for t in range(1, T + 1) for o in (0, 1)]
        _add_square(poly, node_vars, g.weights[node], 1)
    return _finite(poly)


def indicator_polynomial(i: int, t: int, layout: HuboLayout) -> BinaryPolynomial:
    """Polynomial that evaluates to 1 exactly when step t encodes the integer i.

    Product over bits of (1 - b_k - x + 2*b_k*x), i.e. x for set target
    bits and (1 - x) for clear ones.
    """
    n = layout.bits_per_step
    if not 0 <= i < 2**n:
        raise DomainError(f"indicator target {i} outside [0, {2 ** n})")
    poly = BinaryPolynomial(layout.num_vars, {(): 1})
    for k in range(n):
        var = layout.var(t, k)
        factor = BinaryPolynomial(layout.num_vars)
        if (i >> k) & 1:
            factor.add_term((var,), 1)
        else:
            factor.add_term((), 1)
            factor.add_term((var,), -1)
        poly = poly.multiply(factor)
    return poly


def encode_hubo(
    g: OrientedGraph, T: int, edge_penalty=DEFAULT_HUBO_EDGE_PENALTY
) -> BinaryPolynomial:
    """Higher-order cost polynomial over the binary step-index layout.

    Edge bracket: penalty * sum_{t<T} [1 - sum_{(i,j) in E} ind(X_t = i) * ind(X_{t+1} = j)]
    Frequency:    sum_nodes [sum_t (ind(X_t = 2v) + ind(X_t = 2v+1)) - w(v)]^2

    Out-of-range step values (2N <= X_t < 2^n) are penalised implicitly:
    no indicator fires, so the edge bracket contributes its full penalty.
    """
    layout = HuboLayout.for_graph(g, T)
    if not 0 < edge_penalty < math.inf:
        raise DomainError("penalty multipliers must be positive and finite")
    poly = BinaryPolynomial(layout.num_vars)

    indicators: dict[tuple[int, int], BinaryPolynomial] = {}

    def ind(t: int, i: int) -> BinaryPolynomial:
        key = (t, i)
        if key not in indicators:
            indicators[key] = indicator_polynomial(i, t, layout)
        return indicators[key]

    for t in range(1, T):
        poly.add_term((), edge_penalty)
        for a, b in g.edges:
            poly.add_polynomial(ind(t, a).multiply(ind(t + 1, b)), -edge_penalty)

    for node in range(g.node_count):
        bracket = BinaryPolynomial(layout.num_vars, {(): -g.weights[node]})
        for t in range(1, T + 1):
            bracket.add_polynomial(ind(t, 2 * node))
            bracket.add_polynomial(ind(t, 2 * node + 1))
        poly.add_polynomial(bracket.multiply(bracket))
    return _finite(poly)


@dataclass(frozen=True)
class DecodedWalk:
    """Result of mapping a bit assignment back to a walk.

    ``steps`` is None when the assignment is structurally infeasible
    (one-hot or range violation); ``bad_steps`` lists the offending
    1-based step positions.  ``invalid_edges`` lists positions t where
    (step_t, step_{t+1}) is not an edge, which still yields a walk.
    """

    steps: Walk | None
    bad_steps: tuple[int, ...] = ()
    invalid_edges: tuple[int, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.steps is not None

    @property
    def valid(self) -> bool:
        return self.feasible and not self.invalid_edges


def _decoded(g: OrientedGraph, steps: list[int], bad: list[int]) -> DecodedWalk:
    """The walk ``steps`` with its missing edges flagged, or infeasible at steps ``bad``."""
    if bad:
        return DecodedWalk(None, bad_steps=tuple(bad))
    walk = tuple(steps)
    invalid = (t + 1 for t, (a, b) in enumerate(zip(walk, walk[1:])) if not g.has_edge(a, b))
    return DecodedWalk(walk, invalid_edges=tuple(invalid))


def decode_qubo(x: Sequence[int], layout: QuboLayout, g: OrientedGraph) -> DecodedWalk:
    """Decode a one-hot assignment; reports every step violating one-hot."""
    if len(x) != layout.num_vars:
        raise DomainError(f"expected {layout.num_vars} bits, got {len(x)}")
    steps = []
    bad = []
    for t in range(1, layout.T + 1):
        chosen = [a for a in range(2 * layout.N) if x[layout.var(t, a)]]
        if len(chosen) == 1:
            steps.append(chosen[0])
        else:
            bad.append(t)
    return _decoded(g, steps, bad)


def decode_hubo(x: Sequence[int], layout: HuboLayout, g: OrientedGraph) -> DecodedWalk:
    """Decode binary step indices; steps decoding to >= 2N are out of range."""
    if len(x) != layout.num_vars:
        raise DomainError(f"expected {layout.num_vars} bits, got {len(x)}")
    steps = []
    bad = []
    for t in range(1, layout.T + 1):
        value = sum(
            (1 << k) for k in range(layout.bits_per_step) if x[layout.var(t, k)]
        )
        if value >= g.num_oriented:
            bad.append(t)
        else:
            steps.append(value)
    return _decoded(g, steps, bad)
