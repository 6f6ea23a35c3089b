import random

import pytest

from abdyn.errors import ConfigError
from abdyn.graph import DynGraph
from abdyn.schedulers import (CompleteScheduler, CurrentEdgesScheduler,
                              FairRoundRobinScheduler, InteractionSet,
                              ScriptedScheduler, SocialScheduler,
                              UniformRandomScheduler, all_pairs, rank_pair,
                              unrank_pair)
from abdyn.social import SocialProfile

from conftest import random_graph, triangle


def test_interaction_set_invariants():
    s = InteractionSet([(1, 0), (0, 1), (2, 0)])
    assert len(s) == 2 and set(s) == {(0, 1), (0, 2)}
    with pytest.raises(ConfigError):
        InteractionSet([(0, 0)]).validate(3)
    with pytest.raises(ConfigError):
        InteractionSet([(0, 9)]).validate(3)
    InteractionSet(complete_n=100).validate(100)


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
