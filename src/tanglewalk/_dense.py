"""Dense kernels over all 2^n basis states, and the memory rule that bounds them.

Before allocating, each dense path (``ising.diagonal``, also the verifier's
phase table, ``qaoa.simulate``, ``iterative_qaoa`` and ``sweep``) checks its
peak-byte estimate against ``MEMORY_BUDGET`` and raises SizeCapError if it
does not fit.  The mixer layer and the Walsh-Hadamard transform share one
butterfly driver, ``_passes``, cache-blocked as in qHiPSTER
(arXiv:1601.07195) and the Intel Quantum Simulator (arXiv:2001.10554): the
low index bits one 2^14-entry chunk at a time, the high bits one column
strip of the (2^(n-14), 2^14) view at a time.  Both blocks take Pease's
constant-geometry passes (J. ACM 15(2), 1968): each reads adjacent pairs
(of entries, or of rows) and writes contiguous halves, where a stride loop
would read short runs.

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
# too): the float64 vector and one strip of its passes, 1 (a 128 KiB chunk
# up to 17 qubits).  simulate: the 16-byte state, an index of up to 4, 1.5
# of _scratch, then 8 of |amplitude|^2; tabulating the levels peaks near 20
# plus 8 per level from the float diagonal (its vector and an int64 index,
# not the transform), and near 13 plus 16 per level from integers (the
# int32 energies, a count table and its ranks of up to 1 + 4, the index),
# and sample holds a normalised copy of the distribution and int64 counts
# beside it.  sweep: the state, _light_cone's stages (24, which serve as
# its _scratch) and the index.
_PEAK_BYTES_PER_STATE = {"diagonal": 9, "simulate": 30, "sweep": 44}
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
_STRIP_BYTES = 16 << 10  # per row of a column strip of the (2^(n - 14), 2^14) view


def _walsh_hadamard(num_qubits: int, masks, coeffs, dtype) -> np.ndarray:
    """sum over i of coeffs[i] * (-1)^|masks[i] & x|, for every x < 2^num_qubits.

    ``coeffs`` go into a zero vector of ``dtype`` at the distinct ``masks``,
    the one place anything is placed by qubit mask; an integer ``dtype`` must
    hold every partial sum (see ``ising._integer_levels``).  Each of the n
    butterfly passes (``_passes``) maps a pair (a, b) split by one index bit
    to (a + b, a - b) through one buffer of ``dtype`` (``_copy_length``).
    """
    table = np.zeros(1 << num_qubits, dtype)
    table[masks] = coeffs
    buf = np.empty(_copy_length(num_qubits, table.itemsize), dtype)

    def butterfly(_, lo, hi, out):
        np.add(lo, hi, out=out[: len(lo)])
        np.subtract(lo, hi, out=out[len(lo) :])

    _passes(table, buf, butterfly, range(num_qubits))
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

    Rows 0 and 1 together hold ``_passes``'s second copy, and row 2 one
    product, half as long.
    """
    width = max(_copy_length(n, 16), 4) >> 1  # complex128
    return np.empty((3, width), dtype=complex)


def _half_butterfly(g0, g1, lo: np.ndarray, hi: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """out = g0 * lo + g1 * hi, rounded as on fresh arrays; ``tmp`` is as long as ``out``."""
    np.multiply(g0, lo, out=out)
    np.multiply(g1, hi, out=tmp)
    out += tmp


def _constant_geometry(chunk: np.ndarray, other: np.ndarray, butterfly, args):
    """In place: one constant-geometry pass (Pease 1968) per bit of ``chunk``'s first index.

    Pass k, bit 0 first, calls ``butterfly(args[k], lo, hi, out)`` on the
    adjacent pairs lo = src[0::2], hi = src[1::2] of one buffer (entries of
    a chunk, rows of a strip), with the other as ``out``: its first len(lo)
    take the results for bit 0, the rest those for bit 1.  Each pass rotates
    the index right by one bit, so after one pass per bit the order is
    natural again.  The passes alternate between ``chunk`` and ``other`` (as
    long); an odd number ends with one copy back.
    """
    src, dst = chunk, other
    for arg in args:
        butterfly(arg, src[0::2], src[1::2], dst)
        src, dst = dst, src
    if src is not chunk:
        chunk[...] = src


def _copy_length(n: int, itemsize: int) -> int:
    """Entries of ``_passes``'s second copy over 2^n entries: one chunk or one strip, the longer."""
    return max(1 << min(n, _CHUNK_QUBITS), (1 << n >> _CHUNK_QUBITS) * (_STRIP_BYTES // itemsize))


def _passes(array: np.ndarray, other: np.ndarray, butterfly, args):
    """In place: a ``_constant_geometry`` pass over every index bit of ``array``.

    ``array`` holds 2^len(args) entries, and bit k's pass takes ``args[k]``.
    Bits below ``_CHUNK_QUBITS`` are passed over one contiguous chunk of
    2^_CHUNK_QUBITS entries at a time.  The others index the rows of the
    (2^(n - _CHUNK_QUBITS), 2^_CHUNK_QUBITS) view, passed over one column
    strip of ``_STRIP_BYTES`` per row at a time: there ``lo`` and ``hi`` are
    pairs of rows and ``out`` splits into halves of rows, so every pass
    works on long contiguous runs that stay in cache.
    ``other``, contiguous and of ``array``'s dtype, holds the second copy, of
    at least ``_copy_length`` entries.
    """
    low = min(len(args), _CHUNK_QUBITS)
    rows = array.reshape(-1, 1 << low)
    for chunk in rows:
        _constant_geometry(chunk, other[: 1 << low], butterfly, args[:low])
    if len(rows) == 1:
        return
    width = _STRIP_BYTES // array.itemsize
    for start in range(0, rows.shape[1], width):
        strip = rows[:, start : start + width]
        _constant_geometry(strip, other[: strip.size].reshape(strip.shape), butterfly, args[low:])


def _mix_layer(state: np.ndarray, gates, block: np.ndarray):
    """In place: apply ``gates[q]`` to qubit q of a 2^n statevector, for every q.

    One ``_passes`` call ping-pongs the state with ``block``'s rows 0 and 1;
    each output half is ``gate[b, 0] * lo + gate[b, 1] * hi``, its second
    product held in ``block[2]``.  ``block`` is ``_scratch(n)`` or wider.
    """

    def butterfly(gate, lo, hi, out):
        tmp = block[2, : lo.size].reshape(lo.shape)
        _half_butterfly(gate[0, 0], gate[0, 1], lo, hi, out[: len(lo)], tmp)
        _half_butterfly(gate[1, 0], gate[1, 1], lo, hi, out[len(lo) :], tmp)

    _passes(state, block[:2].reshape(-1), butterfly, gates)


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
