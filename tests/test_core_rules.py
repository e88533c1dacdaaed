"""Tests for the Table 2 pairwise ordering rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.attributes import HardwareAttributes
from repro.core.rules import (
    Rule,
    compare,
    compare_with_rule,
    evaluate,
    ordering_key,
)
from repro.core.fields import serial_cmp


def attrs(
    sid=0, deadline=0, x=0, y=0, arrival=0, valid=True
) -> HardwareAttributes:
    return HardwareAttributes(
        sid=sid,
        deadline=deadline,
        loss_numerator=x,
        loss_denominator=y,
        arrival=arrival,
        valid=valid,
    )


attr_strategy = st.builds(
    attrs,
    sid=st.integers(0, 31),
    deadline=st.integers(0, 200),
    x=st.integers(0, 8),
    y=st.integers(0, 8),
    arrival=st.integers(0, 50),
    valid=st.booleans(),
)


class TestRule1EarliestDeadline:
    def test_earlier_deadline_wins(self):
        r = evaluate(attrs(deadline=5), attrs(deadline=9))
        assert r.result == -1
        assert r.rule is Rule.EARLIEST_DEADLINE

    def test_wrapped_deadline(self):
        # 65530 is "earlier" than 2 across the 16-bit boundary.
        r = evaluate(attrs(deadline=65530), attrs(deadline=2))
        assert r.result == -1

    def test_ideal_mode_disables_wrap(self):
        r = evaluate(attrs(deadline=65530), attrs(deadline=2), wrap=False)
        assert r.result == 1


class TestSerialHorizon:
    """The inlined 16-bit serial compare at the comparison horizon.

    ``a`` follows ``b`` when ``(a - b) mod 2**16 < 2**15``.  At a
    difference of exactly ``2**15`` both orders read "first operand
    precedes" — the serial-number ambiguity the hardware comparator
    shares, pinned here in both directions.
    """

    # (a - b, compare(a, b), compare(b, a))
    CASES = [
        (1 << 15, -1, -1),
        ((1 << 15) - 1, 1, -1),
        ((1 << 15) + 1, -1, 1),
    ]

    @pytest.mark.parametrize("delta,forward,reverse", CASES)
    @pytest.mark.parametrize("base", [0, 100, 0xFFFF])
    def test_deadline(self, delta, forward, reverse, base):
        a = attrs(deadline=(base + delta) & 0xFFFF)
        b = attrs(deadline=base)
        assert compare_with_rule(a, b) == (forward, Rule.EARLIEST_DEADLINE)
        assert compare_with_rule(b, a) == (reverse, Rule.EARLIEST_DEADLINE)
        assert serial_cmp(a.deadline, b.deadline) == forward
        assert evaluate(a, b).result == forward

    @pytest.mark.parametrize("delta,forward,reverse", CASES)
    @pytest.mark.parametrize("base", [0, 100, 0xFFFF])
    def test_arrival(self, delta, forward, reverse, base):
        a = attrs(deadline=7, x=1, y=2, arrival=(base + delta) & 0xFFFF)
        b = attrs(deadline=7, x=1, y=2, arrival=base)
        assert compare_with_rule(a, b) == (forward, Rule.FCFS)
        assert compare_with_rule(b, a) == (reverse, Rule.FCFS)
        assert serial_cmp(a.arrival, b.arrival) == forward
        assert evaluate(a, b).result == forward

    @pytest.mark.parametrize("delta", [case[0] for case in CASES])
    def test_ideal_mode_is_plain_order(self, delta):
        later = attrs(deadline=delta)
        assert compare_with_rule(later, attrs(), wrap=False) == (
            1, Rule.EARLIEST_DEADLINE,
        )
        assert compare_with_rule(attrs(), later, wrap=False) == (
            -1, Rule.EARLIEST_DEADLINE,
        )
        tie = attrs(arrival=delta)
        assert compare_with_rule(tie, attrs(), wrap=False) == (1, Rule.FCFS)
        assert compare_with_rule(attrs(), tie, wrap=False) == (-1, Rule.FCFS)

    def test_congruent_unmasked_values(self):
        # Unequal but congruent mod 2**16: the serial difference is 0,
        # which reads as "follows", exactly as serial_cmp decides.
        a, b = attrs(deadline=1 << 16), attrs(deadline=0)
        assert compare_with_rule(a, b)[0] == serial_cmp(1 << 16, 0) == 1


class TestRule2LowestWindowConstraint:
    def test_lower_constraint_wins(self):
        # 1/4 < 1/2 with equal deadlines.
        r = evaluate(attrs(deadline=5, x=1, y=4), attrs(deadline=5, x=1, y=2))
        assert r.result == -1
        assert r.rule is Rule.LOWEST_WINDOW_CONSTRAINT

    def test_zero_beats_nonzero(self):
        r = evaluate(attrs(deadline=5, x=0, y=4), attrs(deadline=5, x=1, y=2))
        assert r.result == -1
        assert r.rule is Rule.LOWEST_WINDOW_CONSTRAINT

    def test_cross_multiplication_equivalence(self):
        # 2/4 == 1/2 -> rule 2 does not fire; falls through to rule 4.
        r = evaluate(attrs(deadline=5, x=2, y=4), attrs(deadline=5, x=1, y=2))
        assert r.rule is Rule.LOWEST_NUMERATOR_EQUAL_WC


class TestRule3HighestDenominatorZeroWC:
    def test_higher_denominator_wins(self):
        r = evaluate(attrs(deadline=5, x=0, y=9), attrs(deadline=5, x=0, y=3))
        assert r.result == -1
        assert r.rule is Rule.HIGHEST_DENOMINATOR_ZERO_WC

    def test_requires_both_zero(self):
        r = evaluate(attrs(deadline=5, x=0, y=9), attrs(deadline=5, x=1, y=3))
        assert r.rule is Rule.LOWEST_WINDOW_CONSTRAINT


class TestRule4LowestNumeratorEqualWC:
    def test_lower_numerator_wins(self):
        # 1/2 vs 2/4: equal ratios, numerator 1 first.
        r = evaluate(attrs(deadline=5, x=1, y=2), attrs(deadline=5, x=2, y=4))
        assert r.result == -1
        assert r.rule is Rule.LOWEST_NUMERATOR_EQUAL_WC


class TestRule5FCFS:
    def test_earlier_arrival_wins(self):
        r = evaluate(
            attrs(deadline=5, x=1, y=2, arrival=3),
            attrs(deadline=5, x=1, y=2, arrival=7),
        )
        assert r.result == -1
        assert r.rule is Rule.FCFS


class TestValidityAndTieBreak:
    def test_invalid_always_loses(self):
        r = evaluate(attrs(deadline=1, valid=False), attrs(deadline=99))
        assert r.result == 1
        assert r.rule is Rule.VALIDITY

    def test_total_tie_breaks_on_sid(self):
        r = evaluate(attrs(sid=2, deadline=5), attrs(sid=7, deadline=5))
        assert r.result == -1
        assert r.rule is Rule.STREAM_ID

    def test_never_returns_zero(self):
        r = evaluate(attrs(sid=1), attrs(sid=1))
        assert r.result in (-1, 1)


class TestDeadlineOnlyMode:
    def test_ignores_window_fields(self):
        # Equal deadlines, different windows: falls to FCFS.
        r = evaluate(
            attrs(deadline=5, x=0, y=9, arrival=7),
            attrs(deadline=5, x=1, y=2, arrival=3),
            deadline_only=True,
        )
        assert r.rule is Rule.FCFS
        assert r.result == 1


class TestConsistency:
    @given(a=attr_strategy, b=attr_strategy)
    def test_fast_path_matches_evaluate(self, a, b):
        for wrap in (True, False):
            for deadline_only in (True, False):
                full = evaluate(a, b, wrap=wrap, deadline_only=deadline_only)
                fast = compare_with_rule(
                    a, b, wrap=wrap, deadline_only=deadline_only
                )
                assert (full.result, full.rule) == fast

    @given(a=attr_strategy, b=attr_strategy)
    def test_antisymmetry(self, a, b):
        ab = compare(a, b, wrap=False)
        ba = compare(b, a, wrap=False)
        if a == b:
            # sid tie-break favors the first operand on exact ties.
            assert ab == -1 and ba == -1
        else:
            assert ab == -ba or (a.sid == b.sid)

    @given(a=attr_strategy, b=attr_strategy)
    def test_matches_ordering_key(self, a, b):
        result = compare(a, b, wrap=False)
        ka, kb = ordering_key(a), ordering_key(b)
        if ka < kb:
            assert result == -1
        elif kb < ka:
            assert result == 1

    @given(a=attr_strategy, b=attr_strategy, c=attr_strategy)
    def test_transitivity_ideal(self, a, b, c):
        # The ordering-key formulation is a total order, hence the
        # pairwise rules are transitive in ideal-arithmetic mode.
        if compare(a, b, wrap=False) < 0 and compare(b, c, wrap=False) < 0:
            assert compare(a, c, wrap=False) < 0

    def test_predicate_vector_exposed(self):
        r = evaluate(attrs(deadline=1), attrs(deadline=2))
        assert r.predicates["deadline_lt"] is True
        assert r.predicates["deadline_eq"] is False
        assert "both_zero_wc" in r.predicates
