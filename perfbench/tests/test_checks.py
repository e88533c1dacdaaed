import numpy as np

import checks


def test_frames_exactly_once_accepts_a_clean_result():
    sids = [0, 1, 0, 1, 1]
    seqs = [0, 0, 1, 1, 2]
    assert checks.frames_exactly_once([2, 3], sids, seqs) == 0


def test_frames_exactly_once_rejects_lost_duplicated_and_unknown_frames():
    assert checks.frames_exactly_once([2, 3], [0, 1, 0, 1], [0, 0, 1, 1]) == 1
    assert checks.frames_exactly_once([2, 3], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]) == 1
    assert checks.frames_exactly_once([2, 3], [0, 1, 0, 1, 1, 7], [0, 0, 1, 1, 2, 0]) == 1
    assert checks.frames_exactly_once([2, 3], [0, 1, 0, 1, 1], [0, 0, 5, 1, 2]) == 2


def test_packets_exactly_once():
    submitted = [50, 7, 50, 9]
    assert checks.packets_exactly_once(submitted, [7, 50, 9, 50]) == 0
    assert checks.packets_exactly_once(submitted, [7, 50, 9]) == 1
    assert checks.packets_exactly_once(submitted, [7, 50, 9, 50, 9]) == 1
    assert checks.packets_exactly_once(submitted, [7, 50, 9, 51]) == 2


def test_bands_accept_fair_shares_and_reject_skewed_ones():
    shares = (1, 1, 2, 4)
    assert checks.band_failures([100, 110, 190, 400], shares) == 0
    assert checks.band_failures([60, 60, 120, 760], shares) == 4
    assert checks.band_failures([0, 0, 0, 0], shares) == 4
    assert checks.share_error([100, 100, 200, 400], shares) == 0.0
    assert checks.share_error([50, 100, 250, 400], shares) == 0.5


def test_backlogged_counts_only_count_picks_while_all_are_backlogged():
    arrivals = [np.array([0.0, 0.0]), np.array([0.0, 0.0, 10.0])]
    # picks at 1, 2, 3 (after the first), then stream 0 is empty
    dep_sids = [0, 1, 0, 1, 1]
    dep_times = [1.0, 2.0, 3.0, 4.0, 11.0]
    assert list(checks.backlogged_counts(arrivals, dep_sids, dep_times)) == [1, 1]


def test_campaign_failures():
    assert checks.campaign_failures(True, 0, 0) == 0
    assert checks.campaign_failures(False, 2, 1) == 3
    assert checks.campaign_failures(False, 0, 0) == 1


def test_digest_sees_order_and_values():
    a = np.array([[0, 1], [1, 2]])
    assert checks.digest(a) == checks.digest(a.copy())
    assert checks.digest(a) != checks.digest(a[::-1])
    assert checks.digest(a) != checks.digest(a.astype(np.float64))
