"""Mutable simple undirected graph with the structural queries local rules need.

Node ids are dense integers 0..n-1 and the node set is fixed for the lifetime
of a graph; only edges change. Adjacency is kept in hash sets so that common
neighbor counting is a single C-level intersection. Once its fingerprint has
been asked for, a graph keeps it up to date under every edit (Zobrist
hashing: each toggle XORs one edge token).

Thread safety: read-only queries may run concurrently; mutation requires
exclusive access.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ContractError, InputError


def norm_pair(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair representation."""
    return (u, v) if u < v else (v, u)


class DynGraph:
    """Simple undirected graph on a fixed node set."""

    __slots__ = ("_adj", "_m", "_fp")

    def __init__(self, n: int):
        if n < 0:
            raise InputError(f"node count must be nonnegative, got {n}")
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0
        self._fp: Optional[int] = None      # the fingerprint, once asked for

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DynGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    @property
    def fingerprint(self) -> int:
        """:func:`graph_fingerprint` of the graph. The first access folds the
        whole graph; from then on every edit through this class XORs in the
        tokens of the edges it toggles, so a read costs O(1)."""
        if self._fp is None:
            self._fp = graph_fingerprint(self)
        return self._fp

    def _check(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise InputError(f"node id {u} out of range 0..{len(self._adj) - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def add_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise InputError(f"self-loop at node {u} not allowed")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1
            if self._fp is not None:
                self._fp ^= edge_token(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._m -= 1
            if self._fp is not None:
                self._fp ^= edge_token(u, v)

    def neighbors(self, u: int) -> set[int]:
        """Live neighbor set of u. Callers must not mutate it."""
        self._check(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def common_neighbors(self, u: int, v: int) -> int:
        """Number of nodes adjacent to both u and v; u and v never count."""
        self._check(u)
        self._check(v)
        if u == v:
            raise InputError("common_neighbors requires two distinct nodes")
        return len(self._adj[u] & self._adj[v])

    def common_neighbor_edges(self, u: int, v: int) -> int:
        """Number of edges whose endpoints are both common neighbors of u and v."""
        self._check(u)
        self._check(v)
        if u == v:
            raise InputError("common_neighbor_edges requires two distinct nodes")
        common = self._adj[u] & self._adj[v]
        if len(common) < 2:
            return 0
        total = 0
        for w in common:
            total += len(self._adj[w] & common)
        return total // 2

    def apply_delta(self, delta: "EdgeDelta") -> None:
        """Toggle exactly the listed edges. The delta must be valid against
        the current graph; a violation indicates an engine bug."""
        delta.validate(self)
        for u, v in delta.removals:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
        for u, v in delta.additions:
            self._adj[u].add(v)
            self._adj[v].add(u)
        self._m += len(delta.additions) - len(delta.removals)
        if self._fp is not None:
            fp = self._fp
            for u, v in chain(delta.additions, delta.removals):
                fp ^= edge_token(u, v)
            self._fp = fp

    def toggle_codes(self, codes: np.ndarray, born: np.ndarray) -> None:
        """Toggle the edges whose codes (see :func:`pair_codes`) are in the
        uint64 array ``codes``: add those where the bool array ``born`` holds,
        remove the others. Unlike :meth:`apply_delta` it does not validate:
        the caller guarantees that exactly the born edges are absent, as a
        stepper does from the adjacency it tracks."""
        adj = self._adj
        us, vs = code_ends(codes)
        for u, v, new in zip(us.tolist(), vs.tolist(), born.tolist()):
            if new:
                adj[u].add(v)
                adj[v].add(u)
            else:
                adj[u].discard(v)
                adj[v].discard(u)
        self._m += 2 * int(np.count_nonzero(born)) - len(codes)
        if self._fp is not None:
            self._fp ^= int(np.bitwise_xor.reduce(_splitmix64_array(codes)))

    def copy(self) -> "DynGraph":
        g = DynGraph.__new__(DynGraph)
        g._adj = [set(s) for s in self._adj]
        g._m = self._m
        g._fp = self._fp
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):  # mutable; identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"DynGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EdgeDelta:
    """One synchronous round's edge update, as disjoint add/remove lists."""

    additions: tuple[tuple[int, int], ...] = ()
    removals: tuple[tuple[int, int], ...] = ()

    @classmethod
    def build(cls, additions, removals) -> "EdgeDelta":
        return cls(
            additions=tuple(sorted(norm_pair(*e) for e in additions)),
            removals=tuple(sorted(norm_pair(*e) for e in removals)),
        )

    @classmethod
    def from_codes(cls, codes: np.ndarray, born: np.ndarray) -> "EdgeDelta":
        """The delta of the edges whose codes are in the ascending uint64
        array ``codes``: additions where ``born`` holds, removals elsewhere.
        Ascending codes give the pairs in the order :meth:`build` sorts them."""
        def pairs(part):
            us, vs = code_ends(part)
            return tuple(zip(us.tolist(), vs.tolist()))
        return cls(additions=pairs(codes[born]), removals=pairs(codes[~born]))

    @property
    def empty(self) -> bool:
        return not self.additions and not self.removals

    def __len__(self) -> int:
        return len(self.additions) + len(self.removals)

    def validate(self, g: DynGraph) -> None:
        adds = set(self.additions)
        rems = set(self.removals)
        if len(adds) != len(self.additions) or len(rems) != len(self.removals):
            raise ContractError("delta contains duplicate pairs")
        if adds & rems:
            raise ContractError(f"delta adds and removes the same pairs: {sorted(adds & rems)[:5]}")
        # read the adjacency directly: the inline range test costs less than
        # two has_edge range checks per pair, or than one pass over the ids
        adj = g._adj
        n = len(adj)
        for u, v in adds:
            if u == v:
                raise ContractError(f"delta contains self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                g._check(u)
                g._check(v)
            if v in adj[u]:
                raise ContractError(f"delta adds existing edge ({u},{v})")
        for u, v in rems:
            if not (0 <= u < n and 0 <= v < n):
                g._check(u)
                g._check(v)
            if v not in adj[u]:
                raise ContractError(f"delta removes missing edge ({u},{v})")


# ---------------------------------------------------------------------------
# Fingerprints

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
FOLD_BLOCK = 4096          # nodes per block when coding a whole graph


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_array(codes: np.ndarray) -> np.ndarray:
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


def edge_token(u: int, v: int) -> int:
    """64-bit mixing of one undirected edge, stable across runs.

    The graph fingerprint is the XOR fold of these tokens, so it can be
    maintained incrementally under edge toggles. Distinct graphs may in
    principle collide; any machinery that must never report a false match
    (cycle detection) compares exact edge sets instead.
    """
    a, b = (u, v) if u < v else (v, u)
    return _splitmix64((a << 32) | b)


def _edge_code_blocks(g: DynGraph) -> Iterator[np.ndarray]:
    """Codes of the edges leaving each block of FOLD_BLOCK nodes towards
    larger ids, unsorted, one uint64 array per block. Walking the adjacency
    block by block keeps the temporary arrays small."""
    adj = g._adj
    for lo in range(0, len(adj), FOLD_BLOCK):
        sets = adj[lo:lo + FOLD_BLOCK]
        lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        nbrs = np.fromiter(chain.from_iterable(sets), dtype=np.int64,
                           count=int(lens.sum())).view(np.uint64)    # int64 converts faster
        srcs = np.repeat(np.arange(lo, lo + len(sets), dtype=np.uint64), lens)
        keep = srcs < nbrs
        yield pair_codes(srcs[keep], nbrs[keep])


def edge_codes(g: DynGraph) -> np.ndarray:
    """Sorted uint64 codes (a << 32) | b of all edges {a, b}, a < b."""
    out = np.empty(g.m, dtype=np.uint64)
    pos = 0
    for codes in _edge_code_blocks(g):
        codes.sort()    # blocks cover ascending sources, so sorted blocks concatenate sorted
        out[pos:pos + len(codes)] = codes
        pos += len(codes)
    return out


def graph_fingerprint(g: DynGraph) -> int:
    acc = _splitmix64(g.n)
    for codes in _edge_code_blocks(g):
        acc ^= int(np.bitwise_xor.reduce(_splitmix64_array(codes)))
    return acc


def fingerprint_hex(fp: int) -> str:
    return f"{fp:016x}"


# ---------------------------------------------------------------------------
# Induced balls

def ball_nodes(g: DynGraph, u: int, v: int, radius: int) -> set[int]:
    """Nodes within the given distance of u or v."""
    g._check(u)
    g._check(v)
    seen = {u, v}
    frontier = [u, v]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in g._adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return seen


def induced_ball(g: DynGraph, u: int, v: int, radius: int) -> tuple[DynGraph, list[int]]:
    """Induced subgraph on the radius-ball around the pair (u, v).

    Returns the fragment (dense new ids) and the new-to-old id mapping.
    Its edges are all that a local rule of that radius may depend on.
    """
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    nodes = sorted(ball_nodes(g, u, v, radius))
    old_to_new = {x: i for i, x in enumerate(nodes)}
    frag = DynGraph(len(nodes))
    for x in nodes:
        nx = old_to_new[x]
        for y in g._adj[x]:
            if y > x and y in old_to_new:
                frag.add_edge(nx, old_to_new[y])
    return frag, nodes
