"""Seeded input generators.

Each generator turns the workload seed into plain inputs (arrays of
times, stream ids, weights and seeds).  They import nothing from the
program, so the program never sees the seed or the random generator,
only what is generated here.  Two are given what the program's public
API says about candidates: :func:`campaign_seeds` the size of a
scenario seed, :func:`plan_packets` the aggregate of each sender and
the weight of each aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: DWCS shares of the four endsystem streams (Figures 8 and 9).
SHARES = (1, 1, 2, 4)
FRAME_BYTES = 1500
#: Frames per second the 128 Mbit/s playout link drains.
LINK_FPS = 128e6 / (FRAME_BYTES * 8)
#: Bursts per endsystem run.
BURSTS = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def endsystem_arrivals(seed: int) -> list[np.ndarray]:
    """Per-stream arrival times (us) of ``BURSTS`` Figure 9 style bursts.

    In every burst each stream offers the same number of frames at the
    same rate; together they offer about three times what the playout
    link drains, so all four queues build up.  The gap after a burst
    lets the whole backlog drain before the next one starts.  Burst
    sizes, rates and gaps are seeded.
    """
    rng = _rng(seed, 1)
    n = len(SHARES)
    phase = rng.uniform(0.0, 1.0, size=n)
    times: list[list[np.ndarray]] = [[] for _ in range(n)]
    start = 0.0
    for _ in range(BURSTS):
        size = int(rng.integers(800, 1201))
        rate = float(rng.uniform(7_000.0, 9_000.0))
        step = 1e6 / rate
        for sid in range(n):
            times[sid].append(start + (np.arange(size) + phase[sid]) * step)
        length = size * step
        backlog = n * size - LINK_FPS * length / 1e6
        drain = backlog / LINK_FPS * 1e6
        start += length + drain * float(rng.uniform(1.2, 1.5))
    return [np.concatenate(t) for t in times]


def campaign_seeds(seed: int, stratum_of, strata, count: int) -> list[int]:
    """``count`` distinct scenario seeds drawn from a wide range.

    A scenario's cost depends steeply on its size, so the draw is
    stratified: each of ``strata`` gets an equal quota of the seeds for
    which ``stratum_of(seed)`` returns it.  Workload seeds then differ in
    which scenarios they run, not in how many of each size.
    """
    rng = _rng(seed, 2)
    strata = list(strata)
    quota = {k: count // len(strata) + (i < count % len(strata)) for i, k in enumerate(strata)}
    chosen: set[int] = set()
    for _ in range(1000 * count):
        if not any(quota.values()):
            break
        candidate = int(rng.integers(1 << 31))
        key = stratum_of(candidate)
        if quota.get(key, 0) and candidate not in chosen:
            quota[key] -= 1
            chosen.add(candidate)
    else:
        raise ValueError(f"strata left unfilled: {[k for k, n in quota.items() if n]}")
    return sorted(chosen)


@dataclass(frozen=True)
class Population:
    """Streams, churn and packets of one aggregation run."""

    sids: np.ndarray
    weights: np.ndarray
    #: churn phase: ``leave[i]`` (weight ``leave_w[i]``) then ``join[i]``
    churn_leave: np.ndarray
    churn_leave_w: np.ndarray
    churn_join: np.ndarray
    churn_join_w: np.ndarray
    #: service window: one leave and one join before each decision cycle
    window_leave: np.ndarray
    window_leave_w: np.ndarray
    window_join: np.ndarray
    window_join_w: np.ndarray
    #: candidate senders for the packets of the service phase
    senders: np.ndarray


def population(
    seed: int, n_streams: int, churn_ops: int, window: int
) -> Population:
    """A weighted population with churn, all ids distinct.

    Weights are uniform over 1..4.  Streams that leave are drawn from
    the joined population without repeats; streams that join are new
    ids.  Senders are drawn from the streams that are still members
    when the service phase starts.
    """
    rng = _rng(seed, 3)
    total = n_streams + churn_ops + window
    ids = rng.choice(np.int64(1) << 40, size=total, replace=False)
    weights = rng.integers(1, 5, size=total)
    sids, w = ids[:n_streams], weights[:n_streams]
    new = ids[n_streams:]
    new_w = weights[n_streams:]
    leaving = rng.permutation(n_streams)[: churn_ops + window]
    staying = np.setdiff1d(np.arange(n_streams), leaving, assume_unique=True)
    senders = sids[rng.choice(staying, size=8 * window, replace=False)]
    cl, wl = leaving[:churn_ops], leaving[churn_ops:]
    return Population(
        sids=sids,
        weights=w,
        churn_leave=sids[cl],
        churn_leave_w=w[cl],
        churn_join=new[:churn_ops],
        churn_join_w=new_w[:churn_ops],
        window_leave=sids[wl],
        window_leave_w=w[wl],
        window_join=new[churn_ops:],
        window_join_w=new_w[churn_ops:],
        senders=senders,
    )


def plan_packets(
    seed: int, senders, sender_aggregates, aggregate_weights, window: int
) -> np.ndarray:
    """Sender ids of the service-phase packets, in submission order.

    Aggregate ``a`` is expected to serve ``window * w_a / sum(w)``
    packets in the window; it gets half as many again plus two, drawn
    from its own senders, so that it stays backlogged throughout.
    """
    senders = np.asarray(senders)
    sender_aggregates = np.asarray(sender_aggregates)
    weights = np.asarray(aggregate_weights, dtype=np.float64)
    need = np.ceil(1.5 * window * weights / weights.sum()).astype(np.int64) + 2
    order = np.argsort(sender_aggregates, kind="stable")
    grouped = senders[order]
    starts = np.searchsorted(sender_aggregates[order], np.arange(len(weights)))
    ends = np.searchsorted(sender_aggregates[order], np.arange(len(weights)), side="right")
    packets = []
    for a, n in enumerate(need.tolist()):
        own = grouped[starts[a] : ends[a]]
        if len(own) == 0:
            raise ValueError(f"aggregate {a} has no senders")
        packets.append(np.resize(own, n))
    out = np.concatenate(packets)
    return out[_rng(seed, 4).permutation(len(out))]
