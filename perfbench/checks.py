"""Output checks and digests, as pure functions of program outputs.

Every check returns how many of its items failed; the workloads add
the failures to ``failed`` and the items checked to ``attempted``.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Relative band around each expected share, as in the Figure 8/10
#: share objectives of the conformance monitor.
FIG8_TOLERANCE = 0.25


def digest(*arrays) -> str:
    """Short SHA-256 over the raw bytes of the given arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def exactly_once(expected_counts: np.ndarray, seen_ids: np.ndarray) -> int:
    """Items lost, duplicated or unknown.

    ``expected_counts[i]`` is how often id ``i`` was offered and
    ``seen_ids`` lists the ids the program delivered.
    """
    expected_counts = np.asarray(expected_counts, dtype=np.int64)
    seen_ids = np.asarray(seen_ids, dtype=np.int64)
    n = len(expected_counts)
    unknown = int(np.count_nonzero((seen_ids < 0) | (seen_ids >= n)))
    seen = np.bincount(seen_ids[(seen_ids >= 0) & (seen_ids < n)], minlength=n)
    return int(np.abs(seen - expected_counts).sum()) + unknown


def frames_exactly_once(offered: list[int], sids, seqs) -> int:
    """Frames lost or duplicated across all streams."""
    sids = np.asarray(sids, dtype=np.int64)
    seqs = np.asarray(seqs, dtype=np.int64)
    failed = 0
    for sid, n in enumerate(offered):
        failed += exactly_once(np.ones(n, dtype=np.int64), seqs[sids == sid])
    failed += int(np.count_nonzero((sids < 0) | (sids >= len(offered))))
    return failed


def packets_exactly_once(submitted, serviced) -> int:
    """Packets not serviced exactly once, matched by stream id."""
    keys, counts = np.unique(np.asarray(submitted, dtype=np.int64), return_counts=True)
    serviced = np.asarray(serviced, dtype=np.int64)
    idx = np.searchsorted(keys, serviced)
    known = idx < len(keys)
    known[known] = keys[idx[known]] == serviced[known]
    return exactly_once(counts, np.where(known, idx, -1))


def backlogged_counts(arrivals: list[np.ndarray], dep_sids, dep_times) -> np.ndarray:
    """Per-stream services made while every stream had a backlog.

    A service counts when, at the previous departure (the moment the
    scheduler picked it on a busy link), each stream had more frames
    arrived than departed.
    """
    dep_sids = np.asarray(dep_sids, dtype=np.int64)
    dep_times = np.asarray(dep_times, dtype=np.float64)
    if len(dep_sids) < 2:
        return np.zeros(len(arrivals), dtype=np.int64)
    decided = dep_times[:-1]
    everyone = np.ones(len(decided), dtype=bool)
    for sid, arr in enumerate(arrivals):
        arrived = np.searchsorted(np.sort(arr), decided, side="right")
        departed = np.cumsum(dep_sids == sid)[:-1]
        everyone &= arrived > departed
    served = dep_sids[1:][everyone]
    return np.bincount(served, minlength=len(arrivals))[: len(arrivals)]


def share_error(served, expected_share) -> float:
    """Largest |served share - expected share| / expected share."""
    served = np.asarray(served, dtype=np.float64)
    expected = np.asarray(expected_share, dtype=np.float64)
    total = served.sum()
    if total <= 0:
        return float("inf")
    expected = expected / expected.sum()
    return float(np.max(np.abs(served / total - expected) / expected))


def band_failures(served, expected_share) -> int:
    """Streams whose served share lies outside the Figure 8 band,
    ``expected * (1 ± FIG8_TOLERANCE)``."""
    served = np.asarray(served, dtype=np.float64)
    expected = np.asarray(expected_share, dtype=np.float64)
    total = served.sum()
    if total <= 0:
        return len(served)
    expected = expected / expected.sum()
    return int(np.count_nonzero(np.abs(served / total - expected) > FIG8_TOLERANCE * expected))


def campaign_failures(passed: bool, divergent: int, dead: int) -> int:
    """Divergent plus lost seeds; a failed campaign never reads 0."""
    failed = divergent + dead
    return failed if passed or failed else 1
