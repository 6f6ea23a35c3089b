"""Interaction schedulers: generators of the per-round pair sets.

Every scheduler declares its fairness contract. A declared
``fairness_period`` P promises that every unordered pair is scheduled within
any window of P consecutive rounds; schedulers without one either follow the
current edge set or are stochastic, and the engine adjusts its stabilization
verdict accordingly.
"""

from __future__ import annotations

import math
import random
from itertools import chain, starmap
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ConfigError
from .graph import DynGraph, norm_pair, pair_codes

# Most 32-bit words that one batch of UniformRandomScheduler.skip_until draws.
BATCH_WORDS = 4096


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def all_pairs(n: int) -> Iterator[tuple[int, int]]:
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


def rank_pair(i: int, j: int) -> int:
    """Rank of the pair (i, j), i < j, among all pairs ordered by j then i."""
    return (j * (j - 1) >> 1) + i


def unrank_pair(k: int) -> tuple[int, int]:
    """The pair (i, j), i < j, of rank k; inverse of :func:`rank_pair`."""
    # isqrt(8k + 1) is 2j - 1 or 2j for k = j(j - 1)/2 + i with i < j
    j = (1 + math.isqrt(8 * k + 1)) // 2
    return k - j * (j - 1) // 2, j


def in_sorted(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bool mask of the ``values`` that occur in the sorted array ``keys``."""
    if not keys.size:
        return np.zeros(len(values), dtype=bool)
    return keys.take(np.searchsorted(keys, values), mode="clip") == values


class InteractionSet:
    """An unordered collection of distinct node pairs activated in one round.

    A set is held as tuples, as two int64 arrays ``us < vs``
    (:meth:`from_arrays`), or, when complete, by its node count alone, so
    that no quadratic structure is materialized for large graphs. A set
    built from tuples builds its arrays on the first :meth:`arrays` call,
    and one built from arrays its tuples on the first iteration; an array
    set iterates in the order of its arrays.
    """

    __slots__ = ("_pairs", "_us", "_vs", "_n")

    def __init__(self, pairs: Iterable[tuple[int, int]] | None = None, complete_n: int | None = None):
        self._us = self._vs = None
        if complete_n is not None:
            self._pairs = None
            self._n = complete_n
        else:
            given = pairs if type(pairs) in (list, tuple) else list(pairs or ())
            self._pairs = frozenset(starmap(norm_pair, given))
            self._n = None
            if len(self._pairs) != len(given):
                seen = set()
                for pair in given:
                    u, v = pair = norm_pair(*pair)
                    if pair in seen:
                        raise ConfigError(f"interaction set holds pair ({u},{v}) twice")
                    seen.add(pair)

    @classmethod
    def from_arrays(cls, us: np.ndarray, vs: np.ndarray) -> "InteractionSet":
        """The set of the pairs (us[k], vs[k]), from two one-dimensional int64
        arrays of equal length, taken uncopied: the caller must not write
        them afterwards. :meth:`validate` checks that every pair is in range
        with us[k] < vs[k] and that no pair repeats."""
        if not (isinstance(us, np.ndarray) and isinstance(vs, np.ndarray)
                and us.dtype == vs.dtype == np.int64 and us.ndim == vs.ndim == 1
                and len(us) == len(vs)):
            raise ConfigError("an interaction set takes two one-dimensional int64 arrays "
                              "of equal length")
        inter = cls.__new__(cls)
        inter._pairs = inter._n = None
        inter._us, inter._vs = us, vs
        return inter

    def __iter__(self) -> Iterator[tuple[int, int]]:
        if self._n is not None:
            return all_pairs(self._n)
        if self._pairs is None:
            self._pairs = tuple(zip(self._us.tolist(), self._vs.tolist()))
        return iter(self._pairs)

    def __len__(self) -> int:
        if self._n is not None:
            return pair_count(self._n)
        return len(self._us) if self._pairs is None else len(self._pairs)

    @property
    def complete(self) -> bool:
        """Whether the set holds every pair of its nodes."""
        return self._n is not None

    @property
    def array_backed(self) -> bool:
        """Whether :meth:`arrays` costs no conversion."""
        return self._us is not None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs as two int64 arrays ``us``, ``vs``, in iteration order;
        callers must not write them."""
        if self._us is None:
            if self._n is not None:
                self._us, self._vs = np.triu_indices(self._n, 1)
            else:
                ends = np.fromiter(chain.from_iterable(self._pairs), dtype=np.int64,
                                   count=2 * len(self._pairs))
                self._us, self._vs = ends[0::2], ends[1::2]
        return self._us, self._vs

    def validate(self, n: int) -> None:
        """Raise ConfigError naming the first offending pair, in iteration
        order: a self-pair, a pair outside 0..n-1, a pair (u, v) with u > v
        or a pair given twice. A complete set must be on n nodes."""
        if self._n is not None:
            if self._n != n:
                raise ConfigError(f"complete interaction set on {self._n} nodes "
                                  f"for a graph on {n} nodes")
            return
        if self._us is None:
            for u, v in self._pairs:
                if not 0 <= u < v < n:
                    raise _pair_refusal(u, v, n)
            return
        us, vs = self._us, self._vs
        bad = ((us >= vs) | (us < 0) | (vs >= n)).nonzero()[0]
        end = int(bad[0]) if bad.size else len(us)
        # the pairs before the first bad one have 0 <= u < v < n, so their
        # keys u * n + v, below n**2 (within int64 for any n a graph in
        # memory can have), are distinct exactly when the pairs are
        keys = us[:end] * n + vs[:end]
        if np.count_nonzero(keys[1:] <= keys[:-1]):
            order = np.argsort(keys, kind="stable")
            ranked = keys[order]
            again = order[1:][ranked[1:] == ranked[:-1]]
            if again.size:
                i = int(again.min())
                raise ConfigError(f"interaction set holds pair ({us[i]},{vs[i]}) twice")
        if end < len(us):
            raise _pair_refusal(int(us[end]), int(vs[end]), n)


def _pair_refusal(u: int, v: int, n: int) -> ConfigError:
    """The refusal of the pair (u, v), which is not 0 <= u < v < n."""
    if u == v:
        return ConfigError(f"interaction set contains self-pair ({u},{v})")
    if not (0 <= u < n and 0 <= v < n):
        return ConfigError(f"interaction pair ({u},{v}) out of range for n={n}")
    return ConfigError(f"interaction pair ({u},{v}) is not ordered u < v")


class Scheduler:
    """Base scheduler. Subclasses override ``interactions``.

    ``deterministic`` marks schedulers whose output is a function of the
    round index and current graph only, which makes exact cycle detection
    sound. ``graph_driven`` marks schedulers whose output depends only on the
    current graph (no round phase), for which a single quiet round proves
    stabilization.
    """

    name = "scheduler"
    fairness_period: Optional[int] = None
    is_complete = False
    deterministic = True
    graph_driven = False

    def reset(self, graph: DynGraph) -> None:
        """Called by the engine at the start of every run."""

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        raise NotImplementedError

    def phase(self, t: int) -> int:
        """Scheduler state entering round t, as a cycle-detection key."""
        return 0

    def params(self) -> dict:
        return {}


class CompleteScheduler(Scheduler):
    """Every pair, every round."""

    name = "complete"
    fairness_period = 1
    is_complete = True

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        return InteractionSet(complete_n=graph.n)


class CurrentEdgesScheduler(Scheduler):
    """Exactly the current edge set each round.

    Not weakly fair: once an edge is gone its pair never comes back. The
    engine's stabilization verdict for this scheduler is that a round changed
    nothing, which also freezes the interaction set itself.
    """

    name = "current_edges"
    fairness_period = None
    graph_driven = True

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        return InteractionSet(graph.edges())


class UniformRandomScheduler(Scheduler):
    """One pair per round, uniform over all pairs, reproducible from the seed."""

    name = "uniform"
    fairness_period = None
    deterministic = False

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self, graph: DynGraph) -> None:
        if graph.n < 2:
            raise ConfigError("uniform scheduler needs at least 2 nodes")
        self._rng = random.Random(self.seed)
        self._pairs = pair_count(graph.n)

    def draw(self) -> int:
        """Rank (see :func:`rank_pair`) of the next round's pair: one
        ``randrange`` call, the reference for :meth:`skip_until`."""
        return self._rng.randrange(self._pairs)

    def skip_until(self, active: np.ndarray, limit: int) -> tuple[int, Optional[int]]:
        """Draw the ranks of up to ``limit`` rounds, stopping at the first one
        in the sorted int64 array ``active``. Return how many rounds drew a
        rank outside it, and that rank (None if ``limit`` rounds missed).

        The generator ends where as many :meth:`draw` calls would leave it.
        ``randrange(N)`` with N < 2**32 takes the top ``N.bit_length()`` bits
        of one 32-bit word and draws again while the value is N or more, so a
        batch is one ``getrandbits`` call read as words; after a hit, or
        once ``limit`` is reached, the generator is rewound and advanced by
        the words used up to then. No drawn word outlives the call.
        """
        rng = self._rng
        npairs = self._pairs
        if npairs >= 1 << 32:
            members = set(active.tolist())
            for quiet in range(limit):
                k = rng.randrange(npairs)
                if k in members:
                    return quiet, k
            return limit, None
        bits = npairs.bit_length()
        # about the number of words that draw the first active rank
        words = min(BATCH_WORDS, max(64, (1 << bits) // max(1, len(active))))
        quiet = 0
        while quiet < limit:
            batch = min(words, limit - quiet)
            state = rng.getstate()
            drawn = np.frombuffer(rng.getrandbits(32 * batch).to_bytes(4 * batch, "little"),
                                  dtype="<u4") >> (32 - bits)
            # a batch of at most limit - quiet words cannot overshoot the limit
            used = np.flatnonzero(drawn < npairs)
            ranks = drawn[used].astype(np.int64)
            hits = np.flatnonzero(in_sorted(active, ranks))
            if hits.size:
                j = int(hits[0])
                quiet, found = quiet + j, int(ranks[j])
            elif quiet + used.size == limit:
                j, quiet, found = used.size - 1, limit, None
            else:
                quiet += used.size
                words = min(2 * words, BATCH_WORDS)
                continue
            if used[j] + 1 < batch:
                rng.setstate(state)
                rng.getrandbits(32 * (int(used[j]) + 1))
            return quiet, found
        return limit, None

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        return InteractionSet([unrank_pair(self.draw())])

    def params(self) -> dict:
        return {"seed": self.seed}


class FairRoundRobinScheduler(Scheduler):
    """All pairs in a fixed cyclic order, a batch per round.

    The order is that of :func:`all_pairs`, held as one read-only pair array
    per end; a round emits a slice of them, or two where the batch wraps.
    The pair stream is continuous across rounds, so any window of
    ceil(#pairs / batch) consecutive rounds covers every pair.
    """

    name = "round_robin"

    def __init__(self, batch_size: int):
        if batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self._us = self._vs = np.empty(0, dtype=np.int64)

    def reset(self, graph: DynGraph) -> None:
        us, vs = np.triu_indices(graph.n, 1)
        self._us, self._vs = _read_only(us), _read_only(vs)
        self.fairness_period = max(1, math.ceil(len(self._us) / self.batch_size))

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        us, vs = self._us, self._vs
        total = len(us)
        if total == 0:
            return InteractionSet([])
        start = (t * self.batch_size) % total
        end = start + min(self.batch_size, total)
        if end <= total:
            return InteractionSet.from_arrays(us[start:end], vs[start:end])
        wrap = end - total
        return InteractionSet.from_arrays(np.concatenate((us[start:], us[:wrap])),
                                          np.concatenate((vs[start:], vs[:wrap])))

    def phase(self, t: int) -> int:
        total = len(self._us)
        return (t * self.batch_size) % total if total else 0

    def params(self) -> dict:
        return {"batch_size": self.batch_size}


class ScriptedScheduler(Scheduler):
    """Replays a fixed per-round script, optionally cyclically.

    Each round is held as read-only pair arrays, sorted. When fairness is
    claimed the script's union must cover every pair; the constructor
    rejects scripts that do not, naming the missing pairs.
    """

    name = "scripted"

    def __init__(self, script: list[list[tuple[int, int]]], n: int,
                 repeat: bool = True, claim_fair: bool = False):
        if not script:
            raise ConfigError("script must contain at least one round")
        sizes = np.fromiter(map(len, script), dtype=np.int64, count=len(script))
        flat = list(chain.from_iterable(script))
        if not set(map(len, flat)) <= {2}:
            raise ConfigError("every scripted pair must hold two node ids")
        try:
            ends = np.fromiter(chain.from_iterable(flat), dtype=np.int64, count=2 * len(flat))
        except OverflowError:
            raise ConfigError(f"script holds a node id out of range for n={n}") from None
        us = np.minimum(ends[0::2], ends[1::2])
        vs = np.maximum(ends[0::2], ends[1::2])
        rid = np.repeat(np.arange(len(script)), sizes)
        bad = ((us == vs) | (us < 0) | (vs >= n)).nonzero()[0]
        end = int(bad[0]) if bad.size else len(us)
        # the pairs before the first invalid one are in range, so their codes
        # identify them; lexsort is stable, so a repeated pair's first
        # occurrence in a round sorts before the later ones
        codes = pair_codes(us[:end], vs[:end])
        order = np.lexsort((codes, rid[:end]))
        key_r, key_c = rid[order], codes[order]
        again = order[1:][(key_r[1:] == key_r[:-1]) & (key_c[1:] == key_c[:-1])]
        if again.size:
            i = int(again.min())
            raise ConfigError(f"script round {rid[i]} holds pair ({us[i]},{vs[i]}) twice")
        if end < len(us):
            raise ConfigError(f"script round {rid[end]} holds invalid pair "
                              f"({us[end]},{vs[end]}) for n={n}")
        cuts = np.cumsum(sizes)[:-1]
        self._rounds = list(zip(np.split(_read_only(us[order]), cuts),
                                np.split(_read_only(vs[order]), cuts)))
        self.repeat = repeat
        self.n = n
        self.claims_fair = claim_fair
        if claim_fair:
            if not repeat:
                raise ConfigError("fairness claim requires a repeating script")
            covered = np.sort(codes)
            fresh = np.ones(covered.size, dtype=bool)
            fresh[1:] = covered[1:] != covered[:-1]
            covered = covered[fresh]
            if covered.size != pair_count(n):
                every = pair_codes(*np.triu_indices(n, 1))
                missing = every[~in_sorted(covered, every)]
                shown = ", ".join(f"({c >> 32},{c & 0xFFFFFFFF})"
                                  for c in missing[:10].tolist())
                more = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
                raise ConfigError(f"script does not cover all pairs; missing {shown}{more}")
            self.fairness_period = len(script)

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        rounds = self._rounds
        if self.repeat:
            return InteractionSet.from_arrays(*rounds[t % len(rounds)])
        if t < len(rounds):
            return InteractionSet.from_arrays(*rounds[t])
        return InteractionSet([])

    def phase(self, t: int) -> int:
        if self.repeat:
            return t % len(self._rounds)
        return min(t, len(self._rounds))

    def params(self) -> dict:
        return {"rounds": len(self._rounds), "repeat": self.repeat,
                "claim_fair": self.claims_fair}


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only, so that the slices a scheduler hands out
    cannot be written."""
    a.flags.writeable = False
    return a


class SocialScheduler(Scheduler):
    """Interaction rules of the social toy model.

    Per round the scheduler activates, excluding enemy pairs entirely:
    adjacent pairs with at most ``gamma`` common neighbors (stronger
    friendships are left alone), and non-adjacent pairs whose distance lies
    in (1, x(u) + x(v)] where x is per-node extroversion.
    """

    name = "social"
    fairness_period = None
    graph_driven = True

    def __init__(self, profile, gamma: int):
        self.profile = profile
        self.gamma = gamma

    def interactions(self, t: int, graph: DynGraph) -> InteractionSet:
        prof = self.profile
        n = graph.n
        pairs = []
        reach = [self._reachable(graph, u, prof.extroversion[u] + max(prof.extroversion))
                 for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in prof.enemies:
                    continue
                if graph.has_edge(u, v):
                    if graph.common_neighbors(u, v) <= self.gamma:
                        pairs.append((u, v))
                else:
                    limit = prof.extroversion[u] + prof.extroversion[v]
                    dist = reach[u].get(v)
                    if dist is not None and 1 < dist <= limit:
                        pairs.append((u, v))
        return InteractionSet(pairs)

    @staticmethod
    def _reachable(graph: DynGraph, source: int, depth: int) -> dict[int, int]:
        dist = {source: 0}
        frontier = [source]
        for d in range(1, depth + 1):
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
            if not frontier:
                break
        return dist

    def params(self) -> dict:
        return {"gamma": self.gamma}
