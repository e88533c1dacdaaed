"""Hardware bit-field definitions and wrap-aware (serial) arithmetic.

The ShareStreams hardware stores per-stream service attributes in fixed
width registers (Figure 4 of the paper gives every field length in bits):

====================  =====  =========================================
Field                 Bits   Role
====================  =====  =========================================
deadline              16     absolute deadline of the head packet
loss numerator        8      window-constraint numerator ``x``
loss denominator      8      window-constraint denominator ``y``
arrival time          16     head-packet arrival-time offset
stream / register id  5      slot identity (up to 32 slots on one chip)
====================  =====  =========================================

Because deadlines and arrival times are 16-bit offsets while experiments
run for tens of thousands of time units, the hardware compares them with
*serial-number* (wrap-aware) ordering: ``a`` precedes ``b`` when the
signed 16-bit difference ``(a - b) mod 2**16`` interpreted two's
complement is negative.  This is the same scheme RFC 1982 specifies for
DNS serial numbers and the scheme TCP uses for sequence numbers; it is
what a synchronous comparator on offset-encoded timestamps implements.

The module exposes both the wrapped comparators used by the
cycle-level hardware model and an *ideal* (unbounded integer) mode used
to cross-validate against the pure-software reference disciplines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DEADLINE_BITS",
    "LOSS_NUM_BITS",
    "LOSS_DEN_BITS",
    "ARRIVAL_BITS",
    "STREAM_ID_BITS",
    "MAX_STREAM_SLOTS",
    "FieldSpec",
    "wrap",
    "serial_lt",
    "serial_le",
    "serial_gt",
    "serial_cmp",
    "serial_add",
    "serial_distance",
]

#: Width of the packet-deadline field (bits), per Figure 4.
DEADLINE_BITS = 16
#: Width of the window-constraint (loss-tolerance) numerator ``x`` (bits).
LOSS_NUM_BITS = 8
#: Width of the window-constraint denominator ``y`` (bits).
LOSS_DEN_BITS = 8
#: Width of the packet arrival-time offset exchanged over PCI (bits).
ARRIVAL_BITS = 16
#: Width of the Stream/Register ID (bits); 2**5 = 32 slots max per chip.
STREAM_ID_BITS = 5

#: Largest stream-slot count a single scheduler instance supports.
MAX_STREAM_SLOTS = 1 << STREAM_ID_BITS


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Width and derived masks of one hardware register field.

    Attributes
    ----------
    name:
        Human-readable field name (used in error messages and traces).
    bits:
        Field width in bits.
    modulus:
        Number of representable values (``2**bits``).
    mask:
        Bit mask selecting the field (``2**bits - 1``).
    half:
        Half the modulus; the serial-arithmetic comparison horizon.

    The derived values are computed once at construction: :meth:`check`
    runs on every attribute-bundle snapshot.
    """

    name: str
    bits: int
    modulus: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)
    half: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", 1 << self.bits)
        object.__setattr__(self, "mask", (1 << self.bits) - 1)
        object.__setattr__(self, "half", 1 << (self.bits - 1))

    def check(self, value: int) -> int:
        """Validate that ``value`` fits in the field and return it.

        Raises
        ------
        ValueError
            If ``value`` is negative or does not fit in ``bits`` bits.
        """
        if not 0 <= value <= self.mask:
            raise ValueError(
                f"{self.name} value {value} does not fit in {self.bits} bits"
            )
        return value


DEADLINE_FIELD = FieldSpec("deadline", DEADLINE_BITS)
LOSS_NUM_FIELD = FieldSpec("loss_numerator", LOSS_NUM_BITS)
LOSS_DEN_FIELD = FieldSpec("loss_denominator", LOSS_DEN_BITS)
ARRIVAL_FIELD = FieldSpec("arrival", ARRIVAL_BITS)
STREAM_ID_FIELD = FieldSpec("stream_id", STREAM_ID_BITS)


def wrap(value: int, bits: int = DEADLINE_BITS) -> int:
    """Reduce ``value`` into an unsigned ``bits``-bit representation."""
    return value & ((1 << bits) - 1)


def serial_cmp(a: int, b: int, bits: int = DEADLINE_BITS) -> int:
    """Wrap-aware three-way comparison of two ``bits``-bit serials.

    Returns ``-1`` if ``a`` precedes ``b`` on the wrapped number circle,
    ``0`` if equal, ``+1`` if ``a`` follows ``b``.

    The comparison interprets the unsigned difference as a two's
    complement signed value, so it is correct as long as the two
    timestamps are within half the modulus (``2**(bits-1)``) of each
    other — the standard serial-number-arithmetic contract.  The
    hardware guarantees this by construction: the control unit never
    lets live deadlines spread further than the comparison horizon.
    """
    if a == b:
        return 0
    half = 1 << (bits - 1)
    diff = (a - b) & ((1 << bits) - 1)
    return 1 if diff < half else -1


def serial_lt(a: int, b: int, bits: int = DEADLINE_BITS) -> bool:
    """True when serial ``a`` strictly precedes ``b`` (wrap-aware)."""
    return serial_cmp(a, b, bits) < 0


def serial_le(a: int, b: int, bits: int = DEADLINE_BITS) -> bool:
    """True when serial ``a`` precedes or equals ``b`` (wrap-aware)."""
    return serial_cmp(a, b, bits) <= 0


def serial_gt(a: int, b: int, bits: int = DEADLINE_BITS) -> bool:
    """True when serial ``a`` strictly follows ``b`` (wrap-aware)."""
    return serial_cmp(a, b, bits) > 0


def serial_add(a: int, delta: int, bits: int = DEADLINE_BITS) -> int:
    """Advance serial ``a`` by ``delta`` with wrap-around."""
    return (a + delta) & ((1 << bits) - 1)


def serial_distance(a: int, b: int, bits: int = DEADLINE_BITS) -> int:
    """Signed distance ``a - b`` on the wrapped circle.

    The result lies in ``[-2**(bits-1), 2**(bits-1))`` and satisfies
    ``serial_add(b, serial_distance(a, b)) == a``.
    """
    modulus = 1 << bits
    half = modulus >> 1
    diff = (a - b) & (modulus - 1)
    return diff - modulus if diff >= half else diff
