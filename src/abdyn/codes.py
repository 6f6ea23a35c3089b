"""Edge codes: an edge {u, v}, u < v, of a graph on node ids below 2**32
as the uint64 ``(u << 32) | v``.

Sorted code arrays carry whole graphs and large deltas between numpy and
:class:`~abdyn.graph.DynGraph`. This module holds the coding, the 64-bit mix
of a code that the graph fingerprint folds (:func:`edge_token`), the check of
a sorted code array (:func:`check_codes`) and the build of a graph's
read-only CSR base from one (:func:`csr_base`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InputError


# An edge {a, b} with a < b is coded as the 64-bit integer (a << 32) | b, so
# node ids must stay below 2**32. Its token is splitmix64 of that code
# (Steele, Lea & Flood, OOPSLA 2014); the fingerprint of a graph on n nodes is
# splitmix64(n) XOR the tokens of all its edges. Since a < n, no edge code
# equals n, so the seed is never the token of an edge.

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INT32_MAX = 2 ** 31 - 1   # the largest node id or base entry count held in int32
CODE_CHUNK = 1 << 16      # codes per step when a whole code array is filled


def splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def splitmix64_array(codes: np.ndarray) -> np.ndarray:
    """splitmix64 of every element; uint64 arithmetic wraps modulo 2**64."""
    z = codes + np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def pair_codes(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """uint64 codes (u << 32) | v of the pairs (us[k], vs[k]), each u < v."""
    return (us.astype(np.uint64, copy=False) << _SHIFT) | vs.astype(np.uint64, copy=False)


def code_ends(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger endpoint of each edge code."""
    return codes >> _SHIFT, codes & _LOW32


def code_pairs(codes: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (u, v) of the edge codes, in their order, as Python ints."""
    us, vs = code_ends(codes)
    return list(zip(us.tolist(), vs.tolist()))


def edge_token(u: int, v: int) -> int:
    """64-bit mixing of one undirected edge, stable across runs.

    The graph fingerprint is the XOR fold of these tokens, so it can be
    maintained incrementally under edge toggles. Distinct graphs may in
    principle collide; any machinery that must never report a false match
    (cycle detection) compares exact edge sets instead.
    """
    a, b = (u, v) if u < v else (v, u)
    return splitmix64((a << 32) | b)


def range_error(u: int, n: int) -> InputError:
    """The refusal of node id u on n nodes."""
    return InputError(f"node id {u} out of range 0..{n - 1}")


def pair_error(n: int, u: int, v: int) -> Optional[InputError]:
    """add_edge's refusal of the pair (u, v) on n nodes, or None."""
    if not 0 <= u < n:
        return range_error(u, n)
    if not 0 <= v < n:
        return range_error(v, n)
    if u == v:
        return InputError(f"self-loop at node {u} not allowed")
    return None


def check_codes(n: int, codes: np.ndarray) -> None:
    """Refuse the first code in ``codes`` that ``DynGraph.from_codes`` does not take."""
    us, vs = code_ends(codes)
    bad = (vs >= n) | (us >= vs)
    bad[1:] |= codes[1:] <= codes[:-1]
    if not bad.any():
        return
    i = int(np.argmax(bad))
    code = int(codes[i])
    u, v = code >> 32, code & 0xFFFFFFFF
    error = pair_error(n, u, v)
    if error is not None:
        raise error
    if u > v:
        raise InputError(f"edge code {code} holds the pair ({u},{v}) with u > v")
    prev = int(codes[i - 1])
    if code == prev:
        raise InputError(f"edge ({u},{v}) listed twice")
    raise InputError(f"edge codes not sorted ascending: ({u},{v}) at index {i} "
                     f"follows ({prev >> 32},{prev & 0xFFFFFFFF})")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def csr_base(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only base arrays ``(indptr, indices)`` of the graph on n
    nodes with the sorted unique edge codes ``codes``: row u holds u's
    neighbours ascending, those below u and then those above it. int32 where
    the counts allow. Besides the result it holds one array of m codes, the
    swapped ones sorted in place, and CODE_CHUNK codes' temporaries."""
    m = len(codes)
    chunks = range(0, m, CODE_CHUNK)
    above = np.zeros(n, dtype=np.int64)
    below = np.zeros(n, dtype=np.int64)
    swapped = np.empty(m, dtype=np.uint64)      # the codes (v << 32) | u
    for a in chunks:
        part = codes[a:a + CODE_CHUNK]
        us, vs = code_ends(part)
        above += np.bincount(us.astype(np.intp), minlength=n)
        below += np.bincount(vs.astype(np.intp), minlength=n)
        swapped[a:a + len(part)] = (vs << _SHIFT) | us
    swapped.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(above + below, out=indptr[1:])
    indices = np.empty(2 * m, dtype=np.int32 if n <= _INT32_MAX else np.int64)
    # Both code arrays ascend, so each lists its rows' entries in row order,
    # ascending within a row: the j-th code of row r goes to the start of
    # r's part plus j less the number of codes before row r.
    for keys, starts, counts in ((swapped, indptr[:-1], below),
                                 (codes, indptr[:-1] + below, above)):
        offset = starts - (np.cumsum(counts) - counts)
        for a in chunks:
            rows, nbrs = code_ends(keys[a:a + CODE_CHUNK])
            indices[offset[rows.astype(np.intp)] + np.arange(a, a + len(rows))] = nbrs
    del swapped
    if indptr[-1] <= _INT32_MAX:
        indptr = indptr.astype(np.int32)
    return _read_only(indptr), _read_only(indices)
