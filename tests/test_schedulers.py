import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdyn import generators, schedulers
from abdyn.engine import RunConfig, run
from abdyn.errors import ConfigError
from abdyn.graph import DynGraph
from abdyn.potentials import min_degree_potential
from abdyn.schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                              FairRoundRobinScheduler, InteractionSet,
                              ScriptedScheduler, SocialScheduler,
                              UniformRandomScheduler, all_pairs, rank_pair,
                              unrank_pair)
from abdyn.social import SocialProfile

from conftest import random_graph, triangle


def test_interaction_set_invariants():
    s = InteractionSet([(1, 0), (2, 0)])
    assert len(s) == 2 and set(s) == {(0, 1), (0, 2)}
    # a pair given twice, or with its reverse, is refused, not merged
    for given in ([(1, 0), (0, 1), (2, 0)], [(0, 2), (0, 1), (0, 2)], iter([(3, 4), (4, 3)])):
        with pytest.raises(ConfigError, match=r"interaction set holds pair \(\d,\d\) twice"):
            InteractionSet(given)
    with pytest.raises(ConfigError, match=r"pair \(0,1\) twice"):
        InteractionSet([(1, 0), (0, 2), (0, 1)])
    with pytest.raises(ConfigError):
        InteractionSet([(0, 0)]).validate(3)
    with pytest.raises(ConfigError):
        InteractionSet([(0, 9)]).validate(3)
    InteractionSet(complete_n=100).validate(100)


def _arrays(pairs):
    return InteractionSet.from_arrays(np.array([u for u, _ in pairs], dtype=np.int64),
                                      np.array([v for _, v in pairs], dtype=np.int64))


@pytest.mark.parametrize("pairs,message", [
    ([(0, 1), (2, 5), (1, 9)], r"^interaction pair \(2,5\) out of range for n=5$"),
    ([(0, 1), (-1, 2)], r"^interaction pair \(-1,2\) out of range for n=5$"),
    ([(0, 1), (3, 3), (2, 1)], r"^interaction set contains self-pair \(3,3\)$"),
    ([(0, 1), (2, 1), (3, 3)], r"^interaction pair \(2,1\) is not ordered u < v$"),
    ([(1, 3), (0, 1), (1, 3), (0, 9)], r"^interaction set holds pair \(1,3\) twice$"),
    ([(0, 1), (1, 3), (0, 9), (1, 3)], r"^interaction pair \(0,9\) out of range for n=5$"),
], ids=["range_high", "range_negative", "self_pair", "u_above_v", "repeat", "first_wins"])
def test_array_sets_refuse_the_first_offending_pair(pairs, message):
    inter = _arrays(pairs)
    assert inter.array_backed and list(inter) == pairs and len(inter) == len(pairs)
    with pytest.raises(ConfigError, match=message):
        inter.validate(5)


def test_array_sets_take_int64_vectors_uncopied():
    us, vs = np.array([0, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)
    inter = InteractionSet.from_arrays(us, vs)
    inter.validate(5)
    assert inter.arrays()[0] is us and inter.arrays()[1] is vs
    for bad in ((us.astype(np.int32), vs), (us, vs[:1]), (us.reshape(2, 1), vs),
                ([0, 2], vs)):
        with pytest.raises(ConfigError, match="two one-dimensional int64 arrays"):
            InteractionSet.from_arrays(*bad)
    # a tuple set builds its arrays on request, in its own iteration order
    tuples = InteractionSet([(4, 1), (0, 2)])
    assert not tuples.array_backed
    got = tuples.arrays()
    assert tuples.array_backed and list(zip(*(a.tolist() for a in got))) == list(tuples)
    tuples.validate(5)
    complete = InteractionSet(complete_n=4)
    assert list(zip(*(a.tolist() for a in complete.arrays()))) == list(all_pairs(4))


class _OversizedComplete(CompleteScheduler):
    """Claims every pair of a graph with three more nodes than the run's."""

    is_complete = False

    def interactions(self, t, graph):
        return InteractionSet(complete_n=graph.n + 3)


@pytest.mark.parametrize("engine", ["auto", "naive"])
def test_a_complete_set_of_the_wrong_size_is_refused(engine):
    with pytest.raises(ConfigError, match=r"^complete interaction set on 13 nodes "
                                          r"for a graph on 10 nodes$"):
        run(RunConfig(graph=generators.gnp(10, 0.3, seed=1),
                      potential=min_degree_potential(2, 10),
                      scheduler=_OversizedComplete(), max_rounds=5, engine=engine))


class _BothOrientations(UniformRandomScheduler):
    def interactions(self, t, graph):
        return InteractionSet([(0, 1), (2, 3), (1, 0)])


def test_a_scheduler_emitting_a_pair_and_its_reverse_is_refused():
    with pytest.raises(ConfigError, match=r"interaction set holds pair \(0,1\) twice"):
        run(RunConfig(graph=random_graph(6, 0.5, 1), potential=min_degree_potential(2, 10),
                      scheduler=_BothOrientations(1), max_rounds=5, engine="naive"))


def test_complete_scheduler_counts():
    sched = CompleteScheduler()
    for n, count in [(2, 1), (3, 3), (5, 10)]:
        g = DynGraph(n)
        inter = sched.interactions(0, g)
        assert len(inter) == count
        assert set(inter) == set(all_pairs(n))
    assert sched.fairness_period == 1


def test_current_edges_scheduler():
    sched = CurrentEdgesScheduler()
    assert set(sched.interactions(0, triangle())) == {(0, 1), (0, 2), (1, 2)}
    assert len(sched.interactions(0, DynGraph(4))) == 0
    assert sched.fairness_period is None


def test_uniform_scheduler_reproducible():
    g = DynGraph(6)
    a = UniformRandomScheduler(42)
    b = UniformRandomScheduler(42)
    a.reset(g)
    b.reset(g)
    seq_a = [tuple(a.interactions(t, g))[0] for t in range(50)]
    seq_b = [tuple(b.interactions(t, g))[0] for t in range(50)]
    assert seq_a == seq_b
    g2 = DynGraph(2)
    a.reset(g2)
    assert tuple(a.interactions(0, g2))[0] == (0, 1)
    with pytest.raises(ConfigError):
        a.reset(DynGraph(1))


def test_pair_ranks_order_pairs_by_larger_then_smaller_node():
    pairs = sorted(all_pairs(9), key=lambda p: (p[1], p[0]))
    assert [unrank_pair(k) for k in range(len(pairs))] == pairs
    assert [rank_pair(*p) for p in pairs] == list(range(len(pairs)))
    # the first and last rank of each larger node, and random ranks below 2**62
    rng = random.Random(5)
    for j in [2, 3, 1 << 20, (1 << 31) - 1, 3037000499] + [rng.randrange(2, 1 << 31)
                                                            for _ in range(200)]:
        for i in (0, j - 1, rng.randrange(j)):
            assert unrank_pair(rank_pair(i, j)) == (i, j)
    for k in (rng.randrange(1 << 62) for _ in range(2000)):
        i, j = unrank_pair(k)
        assert 0 <= i < j and rank_pair(i, j) == k


def test_uniform_scheduler_draws_one_stream():
    g = DynGraph(7)
    a = UniformRandomScheduler(3)
    b = UniformRandomScheduler(3)
    a.reset(g)
    b.reset(g)
    drawn = [unrank_pair(a.draw()) for _ in range(200)]
    assert drawn == [tuple(b.interactions(t, g))[0] for t in range(200)]


# pair counts of 2, 3, 200 and 5,000 nodes, one just past 2**31, and one at
# which randrange needs two words per draw
PAIR_COUNTS = [1, 3, 19_900, 12_497_500, 2**31 + 7, 2**32 + 5]


def _uniform(npairs, seed):
    sched = UniformRandomScheduler(seed)
    sched.reset(DynGraph(2))
    sched._pairs = npairs       # the graph with this many pairs is never built
    return sched


def _upcoming(ref, npairs, count):
    """The next ``count`` ranks that ``ref.randrange(npairs)`` returns, and
    for each the index of the 32-bit word it was read from (None at two
    words per draw), without advancing ``ref``."""
    peek = random.Random()
    peek.setstate(ref.getstate())
    if npairs >= 1 << 32:
        return [peek.randrange(npairs) for _ in range(count)], [None] * count
    shift = 32 - npairs.bit_length()
    ranks, words, w = [], [], 0
    while len(ranks) < count:
        k = peek.getrandbits(32) >> shift
        if k < npairs:
            ranks.append(k)
            words.append(w)
        w += 1
    return ranks, words


def _reference_skip(ref, npairs, active, limit):
    members = set(active)
    for quiet in range(limit):
        k = ref.randrange(npairs)
        if k in members:
            return quiet, k
    return limit, None


@settings(max_examples=60)
@given(st.sampled_from(PAIR_COUNTS), st.integers(0, 2**32), st.sampled_from([64, None]),
       st.data())
def test_skip_until_leaves_the_stream_where_draw_would(npairs, seed, batch_words, data):
    # 64-word batches put the first and last word of a batch at known
    # indices: words 0, 63, 64, 127, 128, ... of each call
    sched = _uniform(npairs, seed)
    ref = random.Random(seed)
    with mock.patch.object(schedulers, "BATCH_WORDS", batch_words or schedulers.BATCH_WORDS):
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                assert sched.draw() == ref.randrange(npairs)
                continue
            limit = data.draw(st.sampled_from([1, 2, 63, 64, 65, 129, 4096, 4097, 13_000]))
            ranks, words = _upcoming(ref, npairs, limit)
            edges = {0, 63, 64, 127, 128, 4095, 4096}
            at_edge = [i for i, w in enumerate(words) if w in edges]
            targets = data.draw(st.lists(st.sampled_from(at_edge or [limit - 1]), max_size=2))
            targets += data.draw(st.lists(st.integers(0, limit - 1), max_size=2))
            others = data.draw(st.lists(st.integers(0, npairs - 1), max_size=4))
            active = sorted({ranks[i] for i in targets} | set(others))
            got = sched.skip_until(np.array(active, dtype=np.int64), limit)
            assert got == _reference_skip(ref, npairs, active, limit)
    assert [sched.draw() for _ in range(3)] == [ref.randrange(npairs) for _ in range(3)]


@pytest.mark.parametrize("npairs", [19_900, 2**31 + 7])
@pytest.mark.parametrize("word", [0, 63, 64, 127, 128])
def test_skip_until_hits_the_edge_words_of_a_batch(npairs, word):
    for seed in range(100):
        ref = random.Random(seed)
        ranks, words = _upcoming(ref, npairs, 200)
        if word in words and ranks.count(ranks[words.index(word)]) == 1:
            break
    hit = words.index(word)
    sched = _uniform(npairs, seed)
    with mock.patch.object(schedulers, "BATCH_WORDS", 64):
        assert sched.skip_until(np.array([ranks[hit]]), 200) == (hit, ranks[hit])
        # a limit that ends on the word: the last draw taken is that word's
        sched = _uniform(npairs, seed)
        assert sched.skip_until(np.array([], dtype=np.int64), hit + 1) == (hit + 1, None)
    assert sched.draw() == ranks[hit + 1]


def test_skip_until_past_several_full_batches():
    sched = _uniform(19_900, 7)
    ref = random.Random(7)
    limit = 3 * schedulers.BATCH_WORDS + 5
    assert sched.skip_until(np.array([], dtype=np.int64), limit) == (limit, None)
    for _ in range(limit):
        ref.randrange(19_900)
    assert sched.draw() == ref.randrange(19_900)


def test_uniform_scheduler_frequencies():
    n = 5
    g = DynGraph(n)
    sched = UniformRandomScheduler(7)
    sched.reset(g)
    counts = {p: 0 for p in all_pairs(n)}
    draws = 100_000
    for t in range(draws):
        counts[tuple(sched.interactions(t, g))[0]] += 1
    for p, c in counts.items():
        assert abs(c / draws - 0.1) < 0.01, (p, c)


def test_round_robin_periods():
    g = DynGraph(3)
    sched = FairRoundRobinScheduler(1)
    sched.reset(g)
    assert sched.fairness_period == 3
    rounds = [set(sched.interactions(t, g)) for t in range(6)]
    assert rounds[:3] == [{(0, 1)}, {(0, 2)}, {(1, 2)}]
    assert rounds[3:] == rounds[:3]

    g4 = DynGraph(4)
    full = FairRoundRobinScheduler(6)
    full.reset(g4)
    assert full.fairness_period == 1
    assert set(full.interactions(0, g4)) == set(all_pairs(4))

    batch4 = FairRoundRobinScheduler(4)
    batch4.reset(g4)
    assert batch4.fairness_period == 2
    for t in range(8):
        window = set(batch4.interactions(t, g4)) | set(batch4.interactions(t + 1, g4))
        assert window == set(all_pairs(4))


@pytest.mark.parametrize("batch", [3, 10, 13])
def test_round_robin_batches_follow_the_cyclic_order(batch):
    # 10 pairs: a batch below, equal to and above the pair count; batch 3
    # wraps past the end of the order in rounds 3, 6 and 9. An array-backed
    # set iterates in the order of its arrays, which is the emission order.
    g = DynGraph(5)
    sched = FairRoundRobinScheduler(batch)
    sched.reset(g)
    order = list(all_pairs(5))
    for t in range(12):
        start = t * batch % len(order)
        want = [order[(start + k) % len(order)] for k in range(min(batch, len(order)))]
        emitted = sched.interactions(t, g)
        assert emitted.array_backed and list(emitted) == want, t


@pytest.mark.parametrize("n,batch", [(4, 1), (5, 3), (6, 7)])
def test_declared_fairness_window_holds(n, batch):
    g = DynGraph(n)
    sched = FairRoundRobinScheduler(batch)
    sched.reset(g)
    period = sched.fairness_period
    for t in range(0, 3 * period, 2):
        seen = set()
        for k in range(period):
            seen |= set(sched.interactions(t + k, g))
        assert seen == set(all_pairs(n))


def test_scripted_scheduler_validation():
    with pytest.raises(ConfigError):
        ScriptedScheduler([], n=3)
    with pytest.raises(ConfigError, match="invalid pair"):
        ScriptedScheduler([[(0, 7)]], n=3)
    with pytest.raises(ConfigError, match="invalid pair"):
        ScriptedScheduler([[(-1, 1)]], n=3)
    script = [[(0, 1)], [(0, 2)], [(1, 2)]]
    sched = ScriptedScheduler(script, n=3, repeat=True, claim_fair=True)
    assert sched.fairness_period == 3
    with pytest.raises(ConfigError, match=r"missing \(1,2\)"):
        ScriptedScheduler([[(0, 1)], [(0, 2)]], n=3, repeat=True, claim_fair=True)


def test_scripted_scheduler_refuses_a_pair_twice_in_a_round():
    # a pair and its reverse in one round would be scheduled once
    with pytest.raises(ConfigError, match=r"^script round 1 holds pair \(0,1\) twice$"):
        ScriptedScheduler([[(0, 2)], [(0, 1), (1, 0)]], n=3)


def test_scripted_rounds_are_sorted_pair_arrays():
    g = DynGraph(4)
    script = [[(2, 3), (1, 0), (3, 0)], [(2, 1)], []]
    sched = ScriptedScheduler(script, n=4, repeat=True)
    for t in range(6):
        inter = sched.interactions(t, g)
        want = sorted(tuple(sorted(p)) for p in script[t % 3])
        assert inter.array_backed and list(inter) == want, t
        with pytest.raises(ValueError):
            inter.arrays()[0][:1] = 3       # the script cannot be written through a round


def test_scripted_coverage_and_pair_shape_refusals():
    pairs = list(all_pairs(7))
    shown = ", ".join(f"({u},{v})" for u, v in pairs[:20:2])
    with pytest.raises(ConfigError, match=re.escape(f"missing {shown} and 1 more")):
        ScriptedScheduler([pairs[1::2][::-1]], n=7, claim_fair=True)
    with pytest.raises(ConfigError, match="two node ids"):
        ScriptedScheduler([[(0, 1, 2)]], n=3)


def test_scripted_scheduler_replay_and_padding():
    g = DynGraph(3)
    sched = ScriptedScheduler([[(0, 1)], []], n=3, repeat=False)
    assert set(sched.interactions(0, g)) == {(0, 1)}
    assert len(sched.interactions(1, g)) == 0
    assert len(sched.interactions(5, g)) == 0
    rep = ScriptedScheduler([[(0, 1)], []], n=3, repeat=True)
    assert set(rep.interactions(2, g)) == {(0, 1)}


def _profile(n, enemies=(), extroversion=1):
    return SocialProfile(niceness=tuple(1.0 for _ in range(n)),
                         extroversion=tuple(extroversion for _ in range(n)),
                         enemies=frozenset(enemies))


def test_social_scheduler_excludes_enemies():
    g = triangle()
    prof = _profile(3, enemies=[(0, 1)])
    sched = SocialScheduler(prof, gamma=5)
    inter = set(sched.interactions(0, g))
    assert (0, 1) not in inter
    all_enemies = _profile(3, enemies=[(0, 1), (0, 2), (1, 2)])
    assert len(SocialScheduler(all_enemies, 5).interactions(0, g)) == 0


def test_social_scheduler_gamma_protects_strong_ties():
    # K4: adjacent pairs share 2 common neighbors
    g = random_graph(4, 1.1, 0)
    weak = SocialScheduler(_profile(4), gamma=1)
    assert len(weak.interactions(0, g)) == 0
    strong = SocialScheduler(_profile(4), gamma=2)
    assert len(strong.interactions(0, g)) == 6


def test_social_scheduler_distance_window():
    g = DynGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    prof = _profile(4, extroversion=1)
    sched = SocialScheduler(prof, gamma=0)
    inter = set(sched.interactions(0, g))
    # distance-2 pairs are reachable with x(u)+x(v)=2; distance-3 is not
    assert (0, 2) in inter and (1, 3) in inter
    assert (0, 3) not in inter
    # adjacent pairs with no common neighbors pass the gamma=0 gate
    assert (0, 1) in inter
