"""Dense kernels over all 2^n basis states, and the memory rule that bounds them.

Before allocating, each dense path (``ising.diagonal``, also the verifier's
phase table, ``qaoa.simulate``, ``iterative_qaoa`` and ``sweep``) checks its
peak-byte estimate against ``MEMORY_BUDGET`` and raises SizeCapError if it
does not fit.  The mixer layer is cache-blocked as in qHiPSTER
(arXiv:1601.07195) and the Intel Quantum Simulator (arXiv:2001.10554).
Within a block, the mixer and the Walsh-Hadamard transform take Pease's
constant-geometry passes (J. ACM 15(2), 1968): each reads adjacent pairs
and writes contiguous halves, where a stride loop would read short runs.

Bit-identity rests on four NumPy behaviours (checked on NumPy 2.4.6):
``np.multiply(g, a)`` and ``np.multiply(a, g)`` round a complex product
differently, so every product puts the scalar first; an in-place multiply
of a single complex element takes a scalar loop that rounds differently
from the vector loop; NumPy scalars square with other rounding than
arrays do; and a stride-2 operand (``a[0::2]``) rounds a complex product
as a contiguous one does, which the constant-geometry passes and
``_light_cone`` rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeCapError

MEMORY_BUDGET = 4 << 30  # bytes any one dense path may peak at
# Peak bytes of each dense path: 1 MiB (NumPy's iterator buffers, and
# _scratch below 19 qubits), a worst case per basis state, and for simulate
# and sweep 24 per distinct energy (its float64 level and complex phase).
# They bound tracemalloc peaks at 14-20 qubits.  diagonal (the verifier's
# too): the float64 vector and a half-length temporary (one chunk below 15
# qubits).  simulate: the 16-byte state, an index of up to 4, 1.5 of
# _scratch, then 8 of |amplitude|^2;
# tabulating the levels peaks near 20 from the float diagonal, and near 13
# plus 16 per level from integers (the int32 energies, a count table and
# its ranks of up to 1 + 4, the index), and sample holds a normalised copy
# of the distribution and int64 counts beside it.  sweep: the state,
# _light_cone's stages (24, which serve as its _scratch) and the index.
_PEAK_BYTES_PER_STATE = {"diagonal": 12, "simulate": 30, "sweep": 44}
_PEAK_BYTES_PER_LEVEL = 24


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


_CHUNK_QUBITS = 14  # 2^14 amplitudes and their products fit a 2 MB L2 cache
_STRIP_WIDTH = 1024  # columns per strip of the (2^(n - 14), 2^14) view


def _walsh_hadamard(num_qubits: int, masks, coeffs, dtype) -> np.ndarray:
    """sum over i of coeffs[i] * (-1)^|masks[i] & x|, for every x < 2^num_qubits.

    ``coeffs`` go into a zero vector of ``dtype`` at the distinct ``masks``,
    the one place anything is placed by qubit mask; an integer ``dtype`` must
    hold every partial sum (see ``ising._integer_levels``).  Each of the n
    butterfly passes maps a pair (a, b) split by one index bit to (a + b,
    a - b).  Bits below ``_CHUNK_QUBITS`` take constant-geometry passes
    (``_constant_geometry``) one chunk at a time; each higher bit takes one
    pass in place over (lo, hi) runs of at least 2^_CHUNK_QUBITS entries.
    The one buffer, of ``dtype``, is half the length, or one chunk if longer.
    """
    table = np.zeros(1 << num_qubits, dtype)
    table[masks] = coeffs
    low = min(num_qubits, _CHUNK_QUBITS)
    half = table.size >> 1
    buf = np.empty(max(half, 1 << low), dtype)

    def butterfly(_, lo, hi, out):
        np.add(lo, hi, out=out[: lo.size])
        np.subtract(lo, hi, out=out[lo.size :])

    for chunk in table.reshape(-1, 1 << low):
        _constant_geometry(chunk, buf[: 1 << low], butterfly, range(low))
    stride = 1 << low
    while stride <= half:
        pairs = table.reshape(-1, 2, stride)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        tmp = buf[:half].reshape(lo.shape)
        np.subtract(lo, hi, out=tmp)
        lo += hi
        hi[...] = tmp
        stride <<= 1
    return table


def _product_state(phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the product of cos(phi_q/2)|0> + sin(phi_q/2)|1>, qubit 0 lowest.

    Qubit k doubles the filled prefix: amp1 * prefix goes after it, then
    the prefix is scaled by amp0, scalar first in both, as the chain of
    ``np.kron(amp, state)`` it replaces multiplied them.
    """
    out[0] = 1
    for k, angle in enumerate(phi):
        amp = np.array([np.cos(angle / 2), np.sin(angle / 2)], dtype=complex)
        prefix = out[: 1 << k]
        np.multiply(amp[1], prefix, out=out[1 << k : 2 << k])
        np.multiply(amp[0], prefix, out=prefix)
    return out


def _levels(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct energies and each state's index into them, in the smallest type."""
    levels = np.unique(energies)
    level = np.searchsorted(levels, energies)
    return levels, level.astype(np.min_scalar_type(len(levels) - 1))


def _table_phase(state: np.ndarray, gamma: float, levels, level, block: np.ndarray):
    """In place: state *= exp(-i gamma E), one exp per distinct energy (``_levels``).

    The phase is gathered into ``block[0]`` half a chunk at a time (or in one
    piece), so no slice is one amplitude of a longer state (the scalar loop).
    """
    table = np.multiply(-1j * gamma, levels)
    np.exp(table, out=table)
    width = min(block.shape[1], 1 << _CHUNK_QUBITS >> 1)
    for start in range(0, state.size, width):
        part = slice(start, start + width)
        buf = block[0, : state[part].size]
        # mode="raise" (the default) would gather into a buffered copy of ``out``
        np.take(table, level[part], out=buf, mode="clip")
        np.multiply(state[part], buf, out=state[part])


def _scratch(n: int) -> np.ndarray:
    """``_mix_layer``'s three buffers over n qubits, each as long as the greater need.

    Within a chunk, rows 0 and 1 together hold its second copy and row 2
    one product; across a strip, each row holds one product of its low half.
    """
    low = min(n, _CHUNK_QUBITS)
    width = max(1 << low >> 1, (1 << n >> low >> 1) * _STRIP_WIDTH, 2)
    return np.empty((3, width), dtype=complex)


def _half_butterfly(g0, g1, lo: np.ndarray, hi: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """out = g0 * lo + g1 * hi, rounded as on fresh arrays; ``tmp`` is as long as ``out``."""
    np.multiply(g0, lo, out=out)
    np.multiply(g1, hi, out=tmp)
    out += tmp


def _constant_geometry(chunk: np.ndarray, other: np.ndarray, butterfly, args):
    """In place: one constant-geometry pass (Pease 1968) per bit of ``chunk``'s index, bit 0 first.

    Pass k calls ``butterfly(args[k], lo, hi, out)`` on the adjacent pairs
    lo = src[0::2], hi = src[1::2] of one buffer, with the other as ``out``:
    its first half takes the results for bit 0, its second half those for
    bit 1.  Each pass rotates the index right by one bit, so after one pass
    per bit the order is natural again.  The passes alternate between
    ``chunk`` and ``other`` (as long); an odd number ends with one copy back.
    """
    src, dst = chunk, other
    for arg in args:
        butterfly(arg, src[0::2], src[1::2], dst)
        src, dst = dst, src
    if src is not chunk:
        chunk[...] = src


def _mix(pairs: np.ndarray, gate: np.ndarray, block: np.ndarray):
    """In place: the 2x2 ``gate`` on (lo, hi) = (pairs[:, 0], pairs[:, 1]), a strip's high qubit.

    Each of the four products goes to a contiguous slice of ``block``
    before its sum goes back into ``pairs``, and ``lo`` is overwritten
    only once no product needs it, so every amplitude is computed exactly as
    ``gate[b, 0] * lo + gate[b, 1] * hi`` on fresh arrays would be.
    """
    lo, hi = pairs[:, 0], pairs[:, 1]
    t0, t1, t2 = (buf[: lo.size].reshape(lo.shape) for buf in block)
    np.multiply(gate[0, 0], lo, out=t0)
    np.multiply(gate[0, 1], hi, out=t1)
    np.multiply(gate[1, 0], lo, out=t2)
    np.add(t0, t1, out=lo)
    np.multiply(gate[1, 1], hi, out=t0)
    np.add(t2, t0, out=hi)


def _mix_layer(state: np.ndarray, gates, block: np.ndarray):
    """In place: apply ``gates[q]`` to qubit q of a 2^n statevector, for every q.

    Qubits below ``_CHUNK_QUBITS`` are mixed one contiguous chunk of
    2^_CHUNK_QUBITS amplitudes at a time, by constant-geometry passes
    (``_constant_geometry``) between the chunk and ``block``'s first
    2^_CHUNK_QUBITS entries, with ``block[2]`` holding one product.  The
    others act on the row index of the (2^(n - _CHUNK_QUBITS),
    2^_CHUNK_QUBITS) view and are mixed one strip of ``_STRIP_WIDTH``
    columns at a time (``_mix``), so each pass over a qubit works on data
    that stays in cache.  ``block`` is ``_scratch(n)`` or wider.
    """
    low = min(len(gates), _CHUNK_QUBITS)
    rows = state.reshape(-1, 1 << low)
    other, tmp = block.reshape(-1)[: 1 << low], block[2, : 1 << low >> 1]

    def butterfly(gate, lo, hi, out):
        _half_butterfly(gate[0, 0], gate[0, 1], lo, hi, out[: lo.size], tmp)
        _half_butterfly(gate[1, 0], gate[1, 1], lo, hi, out[lo.size :], tmp)

    for chunk in rows:
        _constant_geometry(chunk, other, butterfly, gates[:low])
    for start in range(0, rows.shape[1], _STRIP_WIDTH):
        strip = rows[:, start : start + _STRIP_WIDTH]
        for q in range(low, len(gates)):
            _mix(strip.reshape(-1, 2, 1 << (q - low), strip.shape[1]), gates[q], block)


def _light_cone(state: np.ndarray, gates, targets, block: np.ndarray) -> np.ndarray:
    """Amplitudes at the sorted indices ``targets`` after one mixer pass per qubit.

    Pass q applies ``gates[q]`` to qubit q, as ``_mix_layer`` does, but keeps
    only the slices whose index bits 0..q match some target: later passes
    never mix those bits, so the other slices cannot reach a target.
    Each kept slice is stored contiguously, holding the amplitudes of
    one low-bit pattern in ascending order of the high bits.  The stages
    alternate between ``state`` and the first two thirds of ``block``
    (3 x 2^(n-1)); the last third holds one product.  ``state`` is overwritten.
    """
    areas = (block.reshape(-1), state)
    src, patterns = state, [0]
    for q, gate in enumerate(gates):
        mask = (2 << q) - 1
        kept = sorted({t & mask for t in targets})
        parent = {pattern: row for row, pattern in enumerate(patterns)}
        rows = src.reshape(len(patterns), -1)
        width = rows.shape[1] >> 1
        out = areas[q & 1][: len(kept) * width].reshape(len(kept), width)
        tmp = block[2, :width]
        for row, pattern in enumerate(kept):
            b = pattern >> q
            parent_row = rows[parent[pattern & (mask >> 1)]]
            lo, hi = parent_row[0::2], parent_row[1::2]
            _half_butterfly(gate[b, 0], gate[b, 1], lo, hi, out[row], tmp)
        src, patterns = out.reshape(-1), kept
    return src
