import numpy as np

import gen


def test_endsystem_arrivals_are_deterministic_per_seed():
    a = gen.endsystem_arrivals(7)
    b = gen.endsystem_arrivals(7)
    c = gen.endsystem_arrivals(8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    for arr in a:
        assert np.all(np.diff(arr) > 0)
        assert arr[0] >= 0.0


def test_campaign_seeds_are_deterministic_distinct_and_stratified():
    def stratum(s):
        return s % 3

    seeds = gen.campaign_seeds(5, stratum, strata=[0, 1, 2], count=30)
    assert seeds == gen.campaign_seeds(5, stratum, strata=[0, 1, 2], count=30)
    assert seeds != gen.campaign_seeds(6, stratum, strata=[0, 1, 2], count=30)
    assert len(set(seeds)) == 30
    assert [sum(stratum(s) == k for s in seeds) for k in range(3)] == [10, 10, 10]


def test_population_is_deterministic_with_distinct_ids():
    a = gen.population(3, n_streams=2000, churn_ops=100, window=50)
    b = gen.population(3, n_streams=2000, churn_ops=100, window=50)
    for field in a.__dataclass_fields__:
        assert np.array_equal(getattr(a, field), getattr(b, field))
    joined = np.concatenate([a.sids, a.churn_join, a.window_join])
    assert len(np.unique(joined)) == len(joined)
    leaving = np.concatenate([a.churn_leave, a.window_leave])
    assert len(np.unique(leaving)) == len(leaving)
    assert not np.isin(a.senders, leaving).any()
    assert np.isin(leaving, a.sids).all()
    assert a.weights.min() >= 1 and a.weights.max() <= 4


def test_plan_packets_covers_every_aggregate():
    senders = np.arange(40)
    aggregates = senders % 4
    weights = [1, 1, 2, 4]
    plan = gen.plan_packets(1, senders, aggregates, weights, window=80)
    assert np.array_equal(plan, gen.plan_packets(1, senders, aggregates, weights, 80))
    per_aggregate = np.bincount(plan % 4, minlength=4)
    assert list(per_aggregate) == [17, 17, 32, 62]
