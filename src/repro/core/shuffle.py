"""Recirculating shuffle-exchange network of Decision blocks.

The ShareStreams architecture conserves area by arranging only ``N/2``
Decision blocks in a *single* network stage and recirculating the
attribute bundles through it (Section 3: "a recirculating shuffle ...
conserves area, and scales better by using only N/2 decision blocks in
a single-stage recirculating shuffle").  Each pass performs a perfect
shuffle of the ``N`` bundle positions followed by a compare-exchange of
adjacent pairs; ``log2(N)`` passes deliver the maximum-priority stream
to position 0 (a tournament folded onto one stage).

Sorting schedules
-----------------
``schedule="paper"``
    The paper's ``log2(N)``-pass recirculation.  It *certifies* the
    maximum (and, with reversed comparison on the mirrored pairs, the
    minimum); the rest of the emitted *block* is the partial order the
    hardware would produce.  This is the default, matching the paper.
``schedule="bitonic"``
    A full Batcher bitonic sorting schedule executed on the same
    ``N/2`` comparators, taking ``log2(N) * (log2(N)+1) / 2`` passes.
    It produces a certified total order; experiments that need an exact
    sorted block use it, and the ablation bench compares the two.

See DESIGN.md ("Known interpretation points") for why both exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.core.attributes import HardwareAttributes
from repro.core.decision_block import DecisionBlock
from repro.core.rules import compare

__all__ = ["NetworkResult", "ShuffleExchangeNetwork", "perfect_shuffle", "is_pow2"]


def is_pow2(n: int) -> bool:
    """Whether ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def perfect_shuffle(items: list) -> list:
    """Perfect shuffle: interleave the two halves of ``items``.

    ``[a, b, c, d] -> [a, c, b, d]`` — position ``2i`` receives element
    ``i`` and position ``2i+1`` receives element ``i + N/2``.  This is
    the fixed wiring between the register file and the decision stage.
    """
    n = len(items)
    if not is_pow2(n):
        raise ValueError(f"shuffle width must be a power of two, got {n}")
    half = n // 2
    out = [None] * n
    for i in range(half):
        out[2 * i] = items[i]
        out[2 * i + 1] = items[i + half]
    return out


@cache
def _pass_schedule(
    n_slots: int, schedule: str
) -> tuple[tuple[tuple[int, int, int, int, int], ...], ...]:
    """Comparator wiring of every pass of one SCHEDULE phase.

    One tuple per pass, holding per comparator
    ``(block, src_a, src_b, dst_winner, dst_loser)``: Decision block
    ``block`` orders positions ``src_a`` and ``src_b`` of the state the
    pass reads and writes its winner and loser to positions
    ``dst_winner`` and ``dst_loser`` of the state it emits.  Every
    position is read and written exactly once per pass.  The wiring
    depends only on the width and schedule, so it is derived once per
    ``(n_slots, schedule)`` on first use.
    """
    half = n_slots // 2
    if schedule == "paper":
        # Perfect shuffle then compare-exchange of adjacent pairs: block
        # ``j`` receives elements ``j`` and ``j + N/2``.
        exchange = tuple(
            (j, j, j + half, 2 * j, 2 * j + 1) for j in range(half)
        )
        return (exchange,) * (n_slots.bit_length() - 1)
    # Batcher bitonic geometry; each stage maps onto one recirculation
    # pass of the N/2 physical comparators (the steering muxes select
    # the operand routing).  Ascending pairs put the higher-priority
    # bundle at the lower index.
    passes = []
    k = 2
    while k <= n_slots:
        j = k // 2
        while j >= 1:
            stage = []
            for i in range(n_slots):
                partner = i ^ j
                if partner > i:
                    dst = (i, partner) if (i & k) == 0 else (partner, i)
                    stage.append((len(stage), i, partner) + dst)
            passes.append(tuple(stage))
            j //= 2
        k *= 2
    return tuple(passes)


@dataclass(frozen=True, slots=True)
class NetworkResult:
    """Outcome of one full recirculation (one SCHEDULE phase).

    Attributes
    ----------
    order:
        Attribute bundles in emitted priority order, position 0 being
        the highest-priority (winner) stream.  Under winner-only
        routing this contains just the winner.
    passes:
        Number of network passes (hardware cycles) consumed.
    comparisons:
        Total pairwise decisions made across all passes.
    """

    order: list[HardwareAttributes]
    passes: int
    comparisons: int

    @property
    def winner(self) -> HardwareAttributes:
        """The maximum-priority bundle (block head)."""
        return self.order[0]


class ShuffleExchangeNetwork:
    """Single-stage recirculating network over ``n_slots`` bundles.

    Parameters
    ----------
    n_slots:
        Number of stream-slots (power of two, 2..32 on one Virtex chip).
    wrap:
        16-bit serial deadline/arrival comparison (hardware behavior).
    deadline_only:
        Simple-comparator mode for fair-queuing service tags.
    schedule:
        ``"paper"`` (log2 N recirculation) or ``"bitonic"`` (full sort).
    """

    def __init__(
        self,
        n_slots: int,
        *,
        wrap: bool = True,
        deadline_only: bool = False,
        schedule: str = "paper",
    ) -> None:
        if not is_pow2(n_slots) or n_slots < 2:
            raise ValueError(
                f"n_slots must be a power of two >= 2, got {n_slots}"
            )
        if schedule not in ("paper", "bitonic"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.n_slots = n_slots
        self.schedule = schedule
        self.wrap = wrap
        self.deadline_only = deadline_only
        # The single physical stage: N/2 decision blocks, reused each pass.
        self.blocks = [
            DecisionBlock(index=i, wrap=wrap, deadline_only=deadline_only)
            for i in range(n_slots // 2)
        ]
        self._plans: dict[str, tuple] = {}

    # ------------------------------------------------------------------

    @property
    def passes_per_decision(self) -> int:
        """Network passes one SCHEDULE phase consumes."""
        k = self.n_slots.bit_length() - 1
        if self.schedule == "paper":
            return k
        return k * (k + 1) // 2

    def _plan(self, schedule: str) -> tuple:
        """``_pass_schedule`` bound to this network's blocks."""
        plan = self._plans.get(schedule)
        if plan is None:
            orders = [block.order for block in self.blocks]
            plan = tuple(
                tuple((orders[k], *wiring) for k, *wiring in stage)
                for stage in _pass_schedule(self.n_slots, schedule)
            )
            self._plans[schedule] = plan
        return plan

    # ------------------------------------------------------------------

    def run(
        self,
        bundles: list[HardwareAttributes],
        *,
        winner_only: bool = False,
    ) -> NetworkResult:
        """Execute one SCHEDULE phase over the slot attribute bundles.

        Parameters
        ----------
        bundles:
            One attribute bundle per stream-slot, in slot order.
        winner_only:
            Winner-only (WR / max-finding) routing: only the winner is
            emitted.  The pass count is identical (the tournament depth
            does not change); only the interconnect differs, which the
            area/clock model captures separately.
        """
        if len(bundles) != self.n_slots:
            raise ValueError(
                f"expected {self.n_slots} bundles, got {len(bundles)}"
            )
        plan = self._plan(
            "bitonic"
            if self.schedule == "bitonic" and not winner_only
            else "paper"
        )
        n = self.n_slots
        order = bundles
        for stage in plan:
            nxt = [None] * n
            for order_pair, src_a, src_b, dst_w, dst_l in stage:
                nxt[dst_w], nxt[dst_l] = order_pair(order[src_a], order[src_b])
            order = nxt
        passes = len(plan)
        comparisons = passes * (n // 2)
        if winner_only:
            order = [order[0]]
        return NetworkResult(order=order, passes=passes, comparisons=comparisons)

    def reference_order(
        self, bundles: list[HardwareAttributes]
    ) -> list[HardwareAttributes]:
        """Certified total order via direct pairwise comparison.

        Uses an insertion sort driven by the same Table 2 comparator —
        the oracle the property tests compare network output against.
        """
        order: list[HardwareAttributes] = []
        for bundle in bundles:
            lo = 0
            while lo < len(order) and compare(
                order[lo], bundle, wrap=self.wrap, deadline_only=self.deadline_only
            ) < 0:
                lo += 1
            order.insert(lo, bundle)
        return order

    def reset_counters(self) -> None:
        """Clear all decision-block counters."""
        for block in self.blocks:
            block.reset_counters()
