"""Mutable simple undirected graph with the structural queries local rules need.

Node ids are dense integers 0..n-1 and the node set is fixed for the lifetime
of a graph; only edges change. The adjacency has two layers:

* the base, an immutable CSR pair of arrays (``_indptr``, ``_indices``; int32
  where the counts allow, marked read-only): node u's neighbours are
  ``_indices[_indptr[u]:_indptr[u + 1]]``, ascending. :meth:`DynGraph.from_codes`
  (and ``from_edges``, which goes through it) builds it from edge codes in
  O(m) array steps (:func:`abdyn.codes.csr_base`); ``DynGraph(n)`` has none.
  Copies share it.
* the overlay ``_adj``, a list holding per node its neighbour set, or None
  while the node's row is in the base only; sets make common neighbor
  counting a single C-level intersection. A node's set is built when the
  node is edited or its neighbour set is read (:meth:`neighbors`,
  :meth:`has_edge`, the common neighbour counts); from then on it is the
  node's row. ``DynGraph(n)`` starts with every row a set, and so does a
  :meth:`copy`, whose source first builds the sets it lacks.

The bulk readers (:attr:`DynGraph.degrees`, :func:`edge_codes`,
:func:`edge_code_xor`, the fingerprint fold, :meth:`DynGraph.csr_rows`,
:meth:`DynGraph.edges` and equality) read both layers and build no set, so a huge graph of which a run
edits a few nodes holds sets for those nodes only. Once its fingerprint has
been asked for, a graph keeps it up to date under every edit (Zobrist
hashing: each toggle XORs one edge token); so it does with the list of
node degrees (:attr:`DynGraph.degrees`). It also holds tables that every
edit drops: per node function h, the values h(graph, u) found so far (see
:meth:`DynGraph.node_table`), and the common neighbor edge counts of the
pairs that a caller asked it to keep (see
:meth:`DynGraph.keep_common_neighbor_edges`).

An :class:`EdgeDelta` comes in two forms. Built from pairs it keeps its
tuples, and its check and its writes loop over them. Built from edge codes
with at least ``CODE_FORM_PAIRS`` pairs it is a :class:`_CodeDelta`, which
keeps the sorted uint64 codes: it is checked, folded into the fingerprint
and netted on arrays, and builds its tuples only when they are read.

Only this module writes the overlay, the base arrays and the degree list:
the constructors of :class:`DynGraph` and its edit methods (``add_edge``,
``remove_edge``, and ``apply_delta`` for any multi-edge delta); a read adds
a row to the overlay but changes no edge. Other modules read the adjacency
through ``neighbors``, ``has_edge``, ``has_edges``, ``degree``, ``degrees``,
``csr_rows``, ``edge_codes``, ``edge_code_xor`` and the fingerprint, and
nothing else may write it, or the fingerprint, the degrees and the tables
go stale.

Thread safety: read-only queries may run concurrently; mutation requires
exclusive access. A read may add a row to the overlay, build the degree list
or fill a table; each is idempotent, since a value depends only on the
current edges.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import is_not
from typing import Callable, Collection, Iterable, Iterator, Optional

import numpy as np

from .codes import (check_codes, code_ends, code_pairs, csr_base, edge_token, pair_codes,
                    pair_error, range_error, splitmix64, splitmix64_array)
from .errors import ContractError, InputError


def norm_pair(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair representation."""
    return (u, v) if u < v else (v, u)


class DynGraph:
    """Simple undirected graph on a fixed node set."""

    __slots__ = ("_n", "_indptr", "_indices", "_adj", "_lazy", "_m", "_fp", "_deg", "_tables")

    def __init__(self, n: int):
        self._attach(None, None, [set() for _ in range(_node_count(n))], lazy=False)
        self._m = 0
        self._fp: Optional[int] = None      # the fingerprint, once asked for
        self._deg: Optional[list[int]] = None   # the degree list, once asked for
        # {h: {node: h(self, node)}} for the current edges, and under _CE the
        # kept counts {(u, v): common_neighbor_edges(u, v)}; None after an edit
        self._tables: Optional[dict] = None

    def _attach(self, indptr: Optional[np.ndarray], indices: Optional[np.ndarray], rows: list,
                lazy: bool) -> None:
        """Set the base arrays, None for a graph built without them, and the
        overlay ``rows``: per node its set, or None while its row is in the
        base only. ``lazy`` says whether a row may be None; once it is
        false, no reader tests and the base is not read."""
        self._n = len(rows)
        self._indptr = indptr
        self._indices = indices
        self._adj = rows
        self._lazy = lazy

    def _row(self, u: int) -> set[int]:
        """u's neighbour set, put in the overlay from the base if it is not
        there yet; u must be in range."""
        row = self._adj[u]
        if row is None:
            indptr = self._indptr
            row = self._adj[u] = set(self._indices[indptr[u]:indptr[u + 1]].tolist())
        return row

    def _overlay(self, nodes: Collection[int]) -> list:
        """The overlay, with the rows of ``nodes``, ids in range, in it. Once
        they are all there, as from a run's second round on, one C-level pass
        finds every row true (a row that is None or empty sends it to the
        loop)."""
        adj = self._adj
        if self._lazy and not all(map(adj.__getitem__, nodes)):
            for u in nodes:
                if adj[u] is None:
                    self._row(u)
        return adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DynGraph":
        """The graph on n nodes with the given edges. A pair may come in
        either orientation and more than once. An entry that is not a pair
        is refused; a self-loop or a node id out of range raises add_edge's
        error for the first such pair."""
        _node_count(n)
        pairs = list(edges)
        if any(len(p) != 2 for p in pairs):
            raise InputError("every edge must be a pair of node ids")
        try:
            ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                               count=2 * len(pairs)).reshape(-1, 2)
            valid = bool((ends >= 0).all() and (ends < n).all()
                         and (ends[:, 0] != ends[:, 1]).all())
        except OverflowError:       # an id past int64, out of range
            valid = False
        if not valid:
            for u, v in pairs:
                error = pair_error(n, u, v)
                if error is not None:
                    raise error
        codes = np.sort(pair_codes(ends.min(axis=1), ends.max(axis=1)))
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = codes[1:] != codes[:-1]
        return cls.from_codes(n, codes[fresh])

    @classmethod
    def from_codes(cls, n: int, codes: np.ndarray) -> "DynGraph":
        """The graph on n nodes whose edges have the codes (u << 32) | v in
        ``codes`` (see :func:`pair_codes`): a one-dimensional uint64 array,
        each code with u < v, sorted ascending and unique.

        The first offending code is refused with an ``InputError``: a node
        id out of range or a self-pair with add_edge's message, a code that
        repeats the one before it with read_edgelist's, and a pair with
        u > v, a code below the one before it or an array of another dtype
        or shape with a message of its own. The edges go into the base in
        O(m) array steps; the overlay starts empty, so no set is built."""
        _node_count(n)
        if not isinstance(codes, np.ndarray) or codes.dtype != np.uint64 or codes.ndim != 1:
            raise InputError(f"edge codes must be a one-dimensional uint64 array, got "
                             f"{getattr(codes, 'dtype', type(codes).__name__)} of shape "
                             f"{np.shape(codes)}")
        check_codes(n, codes)
        g = cls.__new__(cls)
        g._attach(*csr_base(n, codes), [None] * n, lazy=True)
        g._m = len(codes)
        g._fp = None
        g._deg = None
        g._tables = None
        return g

    @property
    def n(self) -> int:
        return self._n

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

    @property
    def degrees(self) -> list[int]:
        """The degree of every node, as a list. The first access builds it
        from the base row lengths and the overlay's sets; from then on every
        edit through this class keeps it current, and a copy of the graph
        carries a copy of it. Callers must not mutate it."""
        if self._deg is None:
            self._deg = (list(map(len, self._adj)) if not self._lazy else
                         [d if row is None else len(row)
                          for row, d in zip(self._adj, np.diff(self._indptr).tolist())])
        return self._deg

    def node_table(self, h: Callable) -> dict:
        """The values of the node function h known for the current edges, as
        a dict from node u to h(self, u) that callers fill on demand. h must
        read only the graph and static data; the next edit drops every
        table. The tables hold no reference to the graph."""
        tables = self._tables
        if tables is None:
            tables = self._tables = {}
        table = tables.get(h)
        if table is None:
            table = tables[h] = {}
        return table

    def _check(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise range_error(u, self._n)

    def has_edge(self, u: int, v: int) -> bool:
        n = self._n
        if not (0 <= u < n and 0 <= v < n):
            self._check(u)
            self._check(v)
        row = self._adj[u]
        return v in (row if row is not None else self._row(u))

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """has_edge(us[k], vs[k]) for every k, as a bool array, from two int
        arrays of equal length whose ids are in range, as in a validated
        interaction set: unlike has_edge it does not check them, which cost
        a tenth of a call on 500 pairs. The lookups run in C."""
        us = us.tolist()
        adj = self._overlay(us) if self._lazy else self._adj
        return np.fromiter(map(set.__contains__, map(adj.__getitem__, us), vs.tolist()),
                           dtype=bool, count=len(us))

    def add_edge(self, u: int, v: int) -> None:
        error = pair_error(self._n, u, v)
        if error is not None:
            raise error
        adj = self._overlay((u, v)) if self._lazy else self._adj
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            self._m += 1
            self._tables = None
            if self._fp is not None:
                self._fp ^= edge_token(u, v)
            if self._deg is not None:
                self._deg[u] += 1
                self._deg[v] += 1

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        adj = self._overlay((u, v)) if self._lazy else self._adj
        if v in adj[u]:
            adj[u].discard(v)
            adj[v].discard(u)
            self._m -= 1
            self._tables = None
            if self._fp is not None:
                self._fp ^= edge_token(u, v)
            if self._deg is not None:
                self._deg[u] -= 1
                self._deg[v] -= 1

    def neighbors(self, u: int) -> set[int]:
        """Live neighbor set of u, put in the overlay on the first read.
        Callers must not mutate it."""
        if not 0 <= u < self._n:
            raise range_error(u, self._n)
        row = self._adj[u]
        return row if row is not None else self._row(u)

    def degree(self, u: int) -> int:
        self._check(u)
        row = self._adj[u]
        return len(row) if row is not None else int(self._indptr[u + 1] - self._indptr[u])

    def csr_rows(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``nodes``, a sequence of node ids, as CSR arrays
        ``(indptr, indices)``: the neighbours of ``nodes[i]`` are
        ``indices[indptr[i]:indptr[i + 1]]``, ascending for a row still in
        the base and in set order for one in the overlay; both are int64.
        No set is built."""
        ids = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if ids.size and not (0 <= ids.min() and ids.max() < self._n):
            self._check(int(ids[(ids < 0) | (ids >= self._n)][0]))
        rows = list(map(self._adj.__getitem__, ids.tolist()))      # None for a base row
        held = np.fromiter(map(is_not, rows, repeat(None)), dtype=bool, count=len(rows))
        sets = rows if held.all() else list(compress(rows, held))
        set_lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        values = np.fromiter(chain.from_iterable(sets), dtype=np.int64,
                             count=int(set_lens.sum()))
        lens = set_lens
        if len(sets) < len(rows):
            lens = (self._indptr[ids + 1] - self._indptr[ids]).astype(np.int64)
            lens[held] = set_lens
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        if len(sets) == len(rows):
            return indptr, values
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        base = ~held
        indices[_spans(indptr[:-1][base], lens[base])] = \
            self._indices[_spans(self._indptr[ids[base]], lens[base])]
        indices[_spans(indptr[:-1][held], lens[held])] = values
        return indptr, indices

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge (u, v), u < v, once, by u ascending: an overlay row's
        in set order, a base row's ascending. No set is built."""
        indptr = self._indptr
        for u, nbrs in enumerate(self._adj):
            for v in self._indices[indptr[u]:indptr[u + 1]].tolist() if nbrs is None else nbrs:
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
        adj = self._overlay((u, v))
        return len(adj[u] & adj[v])

    def common_neighbor_edges(self, u: int, v: int) -> int:
        """Number of edges whose endpoints are both common neighbors of u and v."""
        self._check(u)
        self._check(v)
        if u == v:
            raise InputError("common_neighbor_edges requires two distinct nodes")
        adj = self._overlay((u, v))
        common = adj[u] & adj[v]
        if len(common) < 2:
            return 0
        adj = self._overlay(common)
        total = 0
        for w in common:
            total += len(adj[w] & common)
        return total // 2

    def keep_common_neighbor_edges(self, u: int, v: int) -> int:
        """:meth:`common_neighbor_edges` of u and v, counted afresh and kept
        for the current edges, where :meth:`kept_common_neighbor_edges` reads
        it until the next edit drops it with the node tables. A caller keeps
        only the pairs that a later reader counts again on the same state, so
        the results kept per state are no more than the pairs it counts."""
        total = self.common_neighbor_edges(u, v)
        self.node_table(_CE)[(u, v) if u < v else (v, u)] = total
        return total

    def kept_common_neighbor_edges(self, u: int, v: int) -> int:
        """:meth:`common_neighbor_edges` of u and v: the result kept for the
        current edges by :meth:`keep_common_neighbor_edges`, else counted
        afresh and not kept."""
        tables = self._tables
        if tables is not None:
            kept = tables.get(_CE)
            if kept is not None:
                total = kept.get((u, v) if u < v else (v, u))
                if total is not None:
                    return total
        return self.common_neighbor_edges(u, v)

    def apply_delta(self, delta: "EdgeDelta") -> None:
        """Toggle exactly the listed edges. The delta must be valid against
        the current graph; a violation indicates an engine bug. The first
        apply builds the degree list."""
        delta.validate(self)        # which puts the rows of the delta's endpoints in the overlay
        adj = self._adj
        deg = self.degrees
        if delta.array_backed:
            add_us, add_vs, rem_us, rem_vs = delta._end_lists()
            added, removed = len(add_us), len(rem_us)
            for u, v in zip(rem_us, rem_vs):
                adj[u].discard(v)
                adj[v].discard(u)
            for u, v in zip(add_us, add_vs):
                adj[u].add(v)
                adj[v].add(u)
            for x in delta.endpoints():
                deg[x] = len(adj[x])
        else:
            adds, rems = delta.additions, delta.removals
            added, removed = len(adds), len(rems)
            for u, v in rems:
                adj[u].discard(v)
                adj[v].discard(u)
                deg[u] -= 1
                deg[v] -= 1
            for u, v in adds:
                adj[u].add(v)
                adj[v].add(u)
                deg[u] += 1
                deg[v] += 1
        self._m += added - removed
        if added or removed:
            self._tables = None
        if self._fp is not None and (added or removed):
            fp = self._fp
            if not delta.array_backed and added + removed < CODE_FORM_PAIRS:
                for u, v in chain(adds, rems):
                    fp ^= splitmix64((u << 32) | v)
            else:
                fp ^= int(np.bitwise_xor.reduce(splitmix64_array(delta.code_arrays()[0])))
            self._fp = fp

    def copy(self) -> "DynGraph":
        """An independent graph with the same edges. It shares the base
        arrays, which nothing writes, and copies the overlay's sets. The
        first copy of a graph builds every set its source lacks, so that
        copies made to be run build no row again: on a 2-core Xeon guest,
        reading all 200 rows of G(200, 0.05) cost 190 us when built from
        the base and 52 us for a set copy and the reads."""
        if self._lazy:
            self._overlay(range(self._n))
            self._lazy = False
        g = DynGraph.__new__(DynGraph)
        g._attach(self._indptr, self._indices, list(map(set, self._adj)), lazy=False)
        g._m = self._m
        g._fp = self._fp
        g._deg = None if self._deg is None else self._deg.copy()
        g._tables = None
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynGraph):
            return NotImplemented
        # the edge codes: a graph on the base and one of sets compare by edges alone
        return (self._n == other._n and self._m == other._m
                and np.array_equal(edge_codes(self), edge_codes(other)))

    def __hash__(self):  # mutable; identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"DynGraph(n={self.n}, m={self.m})"


def _node_count(n: int) -> int:
    if n < 0:
        raise InputError(f"node count must be nonnegative, got {n}")
    return n


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions starts[i], ..., starts[i] + lens[i] - 1 for every i, in order."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(int(ends[-1]) if len(ends) else 0)


def _unordered(u: int, v: int) -> ContractError:
    """A delta pair not ordered u < v: with its reverse it would pass the duplicate test."""
    return ContractError(f"delta contains self-loop ({u},{v})" if u == v else
                         f"delta pair ({u},{v}) is not ordered u < v")


_set = object.__setattr__      # how a delta fills its own slots


class EdgeDelta:
    """One synchronous round's edge update: pairs (u, v), u < v, to add and
    to remove, disjoint.

    A delta holds one of two forms; deltas that hold the same pairs are equal
    whatever their forms. Built from pairs (``EdgeDelta(additions,
    removals)`` or :meth:`build`) it keeps its tuples, and its check, its
    writes and its fingerprint fold loop over them with no numpy call. Built
    by :meth:`from_codes` with at least ``CODE_FORM_PAIRS`` pairs it is a
    :class:`_CodeDelta`, which keeps the ascending uint64 codes of all its
    pairs with a mask of the added ones: it is checked, folded and netted on
    those arrays, and builds ``additions`` and ``removals`` only when they
    are first read. A delta is immutable.
    """

    __slots__ = ("additions", "removals")
    array_backed = False        # whether the delta holds the code form

    def __init__(self, additions: tuple[tuple[int, int], ...] = (),
                 removals: tuple[tuple[int, int], ...] = ()):
        _set(self, "additions", tuple(additions))
        _set(self, "removals", tuple(removals))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"an EdgeDelta is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"an EdgeDelta is immutable; cannot delete {name!r}")

    def __reduce__(self):       # copy and pickle rebuild through __init__
        return EdgeDelta, (self.additions, self.removals)

    @classmethod
    def build(cls, additions, removals) -> "EdgeDelta":
        return cls(
            additions=tuple(sorted(norm_pair(*e) for e in additions)),
            removals=tuple(sorted(norm_pair(*e) for e in removals)),
        )

    @staticmethod
    def from_codes(codes: np.ndarray, born: np.ndarray) -> "EdgeDelta":
        """The delta of the edges whose codes are in the ascending uint64
        array ``codes``: additions where the bool array ``born`` holds,
        removals elsewhere. Ascending codes give the pairs in the order
        :meth:`build` sorts them. With ``CODE_FORM_PAIRS`` codes or more the
        delta keeps both arrays, uncopied, so the caller must not write them;
        with fewer it holds their pairs as tuples. The order of the codes is
        checked when the delta is validated."""
        if not (isinstance(codes, np.ndarray) and codes.dtype == np.uint64 and codes.ndim == 1
                and isinstance(born, np.ndarray) and born.dtype == bool
                and born.shape == codes.shape):
            raise ContractError("a delta takes a one-dimensional uint64 code array and a "
                                "bool array of the same shape")
        if len(codes) < CODE_FORM_PAIRS or not len(codes):
            return EdgeDelta(additions=tuple(code_pairs(codes[born])),
                             removals=tuple(code_pairs(codes[~born])))
        return _CodeDelta(codes, born)

    @staticmethod
    def from_code_sets(additions: np.ndarray, removals: np.ndarray) -> "EdgeDelta":
        """The delta that adds the pairs of the ascending uint64 edge codes
        ``additions`` and removes those of ``removals``, two disjoint
        arrays; in the code form from ``CODE_FORM_PAIRS`` pairs up."""
        if len(additions) + len(removals) < CODE_FORM_PAIRS:
            return EdgeDelta(additions=tuple(code_pairs(additions)),
                             removals=tuple(code_pairs(removals)))
        codes = np.concatenate((additions, removals))
        order = np.argsort(codes, kind="stable")    # merges the two runs
        return EdgeDelta.from_codes(codes[order], order < len(additions))

    @property
    def empty(self) -> bool:
        return not self.additions and not self.removals

    def __len__(self) -> int:
        return len(self.additions) + len(self.removals)

    @property
    def counts(self) -> tuple[int, int]:
        """The numbers of pairs added and removed."""
        return len(self.additions), len(self.removals)

    def pairs(self) -> Iterable[tuple[int, int]]:
        """Every pair the delta toggles, once each, additions first."""
        return self.additions + self.removals

    def endpoints(self) -> Iterable[int]:
        """The endpoints of the toggled pairs, each node once; ascending in
        the code form."""
        return set(chain.from_iterable(self.pairs()))

    def code_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The codes of every pair the delta toggles as a uint64 array, in
        the order of :meth:`pairs` (ascending in the code form), and whether
        each pair is added."""
        pairs = self.pairs()
        ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                           count=2 * len(pairs)).view(np.uint64)
        return (pair_codes(ends[0::2], ends[1::2]),
                np.arange(len(pairs)) < len(self.additions))

    def then(self, later: "EdgeDelta") -> "EdgeDelta":
        """The net delta of this one followed by ``later``, sorted as by
        :meth:`build`: a pair in both is back in its state and drops out.
        Two valid deltas in a row never both add or both remove a pair;
        such a pair raises ``ContractError`` and names the first in order.
        Both forms are netted on their code arrays."""
        (first, first_born), (second, second_born) = self.code_arrays(), later.code_arrays()
        codes = np.concatenate((first, second))
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        born = np.concatenate((first_born, second_born))[order]
        # a pair in both sits at i and i + 1
        again = np.flatnonzero(codes[1:] == codes[:-1])
        same = born[again] == born[again + 1]
        if same.any():
            i = int(again[np.argmax(same)])
            code = int(codes[i])
            raise ContractError(f"both deltas {'add' if born[i] else 'remove'} the pair "
                                f"({code >> 32},{code & 0xFFFFFFFF})")
        keep = np.ones(len(codes), dtype=bool)
        keep[again] = keep[again + 1] = False
        return EdgeDelta.from_codes(codes[keep], born[keep])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeDelta):
            return NotImplemented
        return self.additions == other.additions and self.removals == other.removals

    def __hash__(self) -> int:
        return hash((self.additions, self.removals))

    def __repr__(self) -> str:
        return f"EdgeDelta(additions={self.additions!r}, removals={self.removals!r})"

    def validate(self, g: DynGraph) -> None:
        """Raise unless the delta can be applied to g: its pairs ordered
        u < v, in range, none listed twice or both added and removed, every
        addition a non-edge and every removal an edge."""
        adds = set(self.additions)
        rems = set(self.removals)
        if len(adds) != len(self.additions) or len(rems) != len(self.removals):
            raise ContractError("delta contains duplicate pairs")
        if adds & rems:
            raise ContractError(f"delta adds and removes the same pairs: {sorted(adds & rems)[:5]}")
        # read the adjacency directly: the inline range test costs less than
        # two has_edge range checks per pair, or than one pass over the ids
        n = g.n
        adj = g._overlay([x for x in chain.from_iterable(self.pairs())
                          if 0 <= x < n]) if g._lazy else g._adj
        for u, v in self.additions:
            if u >= v:
                raise _unordered(u, v)
            if not (0 <= u < n and 0 <= v < n):
                g._check(u)
                g._check(v)
            if v in adj[u]:
                raise ContractError(f"delta adds existing edge ({u},{v})")
        for u, v in self.removals:
            if u >= v:
                raise _unordered(u, v)
            if not (0 <= u < n and 0 <= v < n):
                g._check(u)
                g._check(v)
            if v not in adj[u]:
                raise ContractError(f"delta removes missing edge ({u},{v})")


class _CodeDelta(EdgeDelta):
    """The code form of :class:`EdgeDelta`: ``codes``, the ascending uint64
    codes of all its pairs, and ``born``, where they are added. It holds at
    least one pair. Its tuples and its lists of ends are built on first use
    and kept."""

    __slots__ = ("_codes", "_born", "_adds", "_rems", "_lists", "_ends")
    array_backed = True

    def __init__(self, codes: np.ndarray, born: np.ndarray):
        for name, value in (("_codes", codes), ("_born", born), ("_adds", None),
                            ("_rems", None), ("_lists", None), ("_ends", None)):
            _set(self, name, value)

    def __reduce__(self):
        return _CodeDelta, (self._codes, self._born)

    @property
    def additions(self) -> tuple[tuple[int, int], ...]:
        if self._adds is None:
            add_us, add_vs, _, _ = self._end_lists()
            _set(self, "_adds", tuple(zip(add_us, add_vs)))
        return self._adds

    @property
    def removals(self) -> tuple[tuple[int, int], ...]:
        if self._rems is None:
            _, _, rem_us, rem_vs = self._end_lists()
            _set(self, "_rems", tuple(zip(rem_us, rem_vs)))
        return self._rems

    def _end_lists(self) -> tuple[list[int], ...]:
        """The smaller and larger ends of the additions, then of the
        removals, as four lists of Python ints."""
        if self._lists is None:
            codes, born = self._codes, self._born
            ends = code_ends(codes[born]) + code_ends(codes[~born])
            _set(self, "_lists", tuple(end.tolist() for end in ends))
        return self._lists

    @property
    def empty(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def counts(self) -> tuple[int, int]:
        added = int(np.count_nonzero(self._born))
        return added, len(self._codes) - added

    def pairs(self) -> Iterable[tuple[int, int]]:
        add_us, add_vs, rem_us, rem_vs = self._end_lists()
        return chain(zip(add_us, add_vs), zip(rem_us, rem_vs))

    def endpoints(self) -> Iterable[int]:
        if self._ends is None:
            ends = np.concatenate(code_ends(self._codes))
            ends.sort()
            _set(self, "_ends", ends[np.concatenate(([True], ends[1:] != ends[:-1]))].tolist())
        return self._ends

    def code_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._codes, self._born

    def validate(self, g: DynGraph) -> None:
        """:meth:`EdgeDelta.validate` on the arrays: order, range, repeats
        and overlap, then one adjacency lookup per pair; the codes must
        ascend. On a fault it runs the pair-by-pair check of the same pairs,
        so the first offending pair and the message are the same in both
        forms."""
        codes = self._codes
        us, vs = code_ends(codes)
        if (codes[1:] > codes[:-1]).all() and (us < vs).all() and vs.max() < g.n:
            add_us, add_vs, rem_us, rem_vs = self._end_lists()
            has, row = set.__contains__, g._overlay(self.endpoints()).__getitem__
            if (not any(map(has, map(row, add_us), add_vs))
                    and all(map(has, map(row, rem_us), rem_vs))):
                return
        EdgeDelta(self.additions, self.removals).validate(g)
        # the pairs pass one by one, so only the order of the codes is at fault
        i = int(np.argmax(codes[1:] < codes[:-1])) + 1
        code, prev = int(codes[i]), int(codes[i - 1])
        raise ContractError(f"delta edge codes not sorted ascending: ({code >> 32},"
                            f"{code & 0xFFFFFFFF}) at index {i} follows "
                            f"({prev >> 32},{prev & 0xFFFFFFFF})")


# ---------------------------------------------------------------------------
# Fingerprints: splitmix64(n) XOR the edge tokens (see abdyn.codes) of every edge

FOLD_BLOCK = 4096          # nodes per block when coding a whole graph
# A delta of this many pairs or more is held as codes by EdgeDelta.from_codes, and
# folded into the fingerprint as one array in either form: numpy's fixed cost per
# call outweighs a short pair loop. On a 2-core Xeon guest folding 16 pairs took
# 11 us one by one and 13 us as an array, 24 pairs 16 us and 14 us.
CODE_FORM_PAIRS = 20
_CE = "common_neighbor_edges"      # the kept counts' key among the tables; no node function is a str


def _edge_code_blocks(g: DynGraph) -> Iterator[tuple[np.ndarray, bool]]:
    """Codes of the edges leaving each block of FOLD_BLOCK nodes towards
    larger ids, one uint64 array per block, with whether it is ascending. A
    node's edges come from its overlay set if it has one, else from its base
    row; an edge that changed has both ends in the overlay. Walking block by
    block keeps the temporary arrays small, and no set is built."""
    adj, indptr, indices = g._adj, g._indptr, g._indices
    for lo in range(0, g.n, FOLD_BLOCK):
        hi = min(g.n, lo + FOLD_BLOCK)
        rows = adj[lo:hi]
        ids = np.arange(lo, hi, dtype=np.uint64)
        parts = []
        held = np.fromiter(map(is_not, rows, repeat(None)), dtype=bool,
                           count=len(rows)) if g._lazy else None
        if held is not None and not held.all():
            counts = np.diff(indptr[lo:hi + 1])
            nbrs = indices[indptr[lo]:indptr[hi]].astype(np.uint64)
            srcs = np.repeat(ids, counts)
            keep = (srcs < nbrs) & ~np.repeat(held, counts)
            parts.append(pair_codes(srcs[keep], nbrs[keep]))
            rows = list(compress(rows, held))
            ids = ids[held]
        if rows:
            lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            nbrs = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                               count=int(lens.sum())).view(np.uint64)    # int64 converts faster
            srcs = np.repeat(ids, lens)
            keep = srcs < nbrs
            parts.append(pair_codes(srcs[keep], nbrs[keep]))
        # a base row is ascending and the rows come in order
        yield (parts[0] if len(parts) == 1 else np.concatenate(parts)), not rows


def edge_codes(g: DynGraph) -> np.ndarray:
    """Sorted uint64 codes (a << 32) | b of all edges {a, b}, a < b."""
    out = np.empty(g.m, dtype=np.uint64)
    pos = 0
    for codes, ascending in _edge_code_blocks(g):
        if not ascending:
            codes.sort()    # blocks cover ascending sources, so sorted blocks concatenate sorted
        out[pos:pos + len(codes)] = codes
        pos += len(codes)
    return out


def edge_code_xor(g: DynGraph, codes: np.ndarray) -> np.ndarray:
    """Sorted codes of the edges in g or in ``codes``, sorted unique codes
    of pairs of g's nodes, but not in both: ``np.setxor1d(edge_codes(g),
    codes)``. It compares one block of source nodes at a time, so its
    temporaries are a block's size rather than a few copies of m codes (31
    MB at the round-0 check of a W=4 rule-110 assembly), and a block wholly
    in the base that has not changed costs one comparison."""
    ends = np.searchsorted(codes, np.arange(FOLD_BLOCK, g.n + FOLD_BLOCK, FOLD_BLOCK,
                                            dtype=np.uint64) << np.uint64(32)).tolist()
    parts = [codes[:0]]
    start = 0
    for (block, _), end in zip(_edge_code_blocks(g), ends):
        # setxor1d sorts; a block wholly in the base ascends like codes, so an
        # unchanged one matches at once
        if not np.array_equal(block, codes[start:end]):
            parts.append(np.setxor1d(block, codes[start:end], assume_unique=True))
        start = end
    return np.concatenate(parts)


def graph_fingerprint(g: DynGraph) -> int:
    acc = splitmix64(g.n)
    for codes, _ in _edge_code_blocks(g):
        acc ^= int(np.bitwise_xor.reduce(splitmix64_array(codes)))
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
            for y in g.neighbors(x):
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
        for y in g.neighbors(x):
            if y > x and y in old_to_new:
                frag.add_edge(nx, old_to_new[y])
    return frag, nodes
