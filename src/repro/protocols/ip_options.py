"""IP options parsers (Figures 11 and 12): the Variable-Length Formats study.

IP options are a type-length-value (TLV) encoding: each option starts with a
one-byte type and a one-byte length, followed by up to six bytes of data.  The
*generic* parser reads a fixed number of option slots, dispatching on the
length byte to a state that extracts the right number of data bytes and shifts
them into the slot's value register.  The *timestamp-specialised* parser adds a
dedicated state for the Timestamp option (type 0x44, length 6) that extracts
its fields individually.  Both accept exactly the same packets.

The figures in the paper use three option slots and 48-bit value registers;
the evaluated version (Table 2, "Variable-length parsing", 30 states) uses two
slots.  Both the slot count and the maximum data length are parameters here so
tests and benchmarks can pick their size.
"""

from __future__ import annotations

from ..p4a.builder import AutomatonBuilder
from ..p4a.syntax import ACCEPT, P4Automaton

START = "parse_0"

#: Option type/length pairs that terminate the option list immediately:
#: End-of-Options (0x00) and No-Operation (0x01), both with length 0.
_TERMINATORS = (("0x00", "0x00"), ("0x01", "0x00"))

TIMESTAMP_TYPE = "0x44"


def _value_bits(max_data_bytes: int) -> int:
    return 8 * max_data_bytes


def _next_state(slot: int, slots: int) -> str:
    return ACCEPT if slot + 1 >= slots else f"parse_{slot + 1}"


def generic_parser(slots: int = 2, max_data_bytes: int = 6) -> P4Automaton:
    """The generic TLV parser of Figure 11 with ``slots`` option slots."""
    if slots < 1:
        raise ValueError("need at least one option slot")
    if not 1 <= max_data_bytes <= 31:
        raise ValueError("max_data_bytes out of range")
    builder = AutomatonBuilder(f"ip_options_generic_{slots}x{max_data_bytes}")
    value_bits = _value_bits(max_data_bytes)
    for size in range(1, max_data_bytes + 1):
        builder.header(f"scratch{8 * size}", 8 * size)
    for slot in range(slots):
        builder.header(f"T{slot}", 8).header(f"L{slot}", 8).header(f"v{slot}", value_bits)
    for slot in range(slots):
        _add_generic_slot(builder, slot, slots, max_data_bytes, timestamp=False)
    return builder.build()


def timestamp_parser(slots: int = 2, max_data_bytes: int = 6) -> P4Automaton:
    """The Timestamp-specialised TLV parser of Figure 12.

    Identical to the generic parser except that each slot has an extra,
    higher-priority case for the Timestamp option (type 0x44, length 6) that
    extracts the pointer/overflow/flag/timestamp fields separately.  Requires
    ``max_data_bytes == 6`` so the specialised state consumes the same number
    of bits as the generic length-6 case.
    """
    if max_data_bytes != 6:
        raise ValueError("the Timestamp option is 6 bytes long")
    builder = AutomatonBuilder(f"ip_options_timestamp_{slots}x{max_data_bytes}")
    value_bits = _value_bits(max_data_bytes)
    for size in range(1, max_data_bytes + 1):
        builder.header(f"scratch{8 * size}", 8 * size)
    for slot in range(slots):
        builder.header(f"T{slot}", 8).header(f"L{slot}", 8).header(f"v{slot}", value_bits)
        builder.header(f"ptr{slot}", 8).header(f"over{slot}", 4)
        builder.header(f"flag{slot}", 4).header(f"time{slot}", 32)
    for slot in range(slots):
        _add_generic_slot(builder, slot, slots, max_data_bytes, timestamp=True)
        _add_timestamp_state(builder, slot, slots)
    return builder.build()


def _add_generic_slot(
    builder: AutomatonBuilder, slot: int, slots: int, max_data_bytes: int, timestamp: bool
) -> None:
    """The ``parse_<slot>`` dispatch state plus its per-length data states."""
    cases = [((t, l), ACCEPT) for t, l in _TERMINATORS]
    if timestamp:
        cases.append(((TIMESTAMP_TYPE, "0x06"), f"parse_stamp{slot}"))
    for size in range(1, max_data_bytes + 1):
        cases.append((("_", f"0x{size:02x}"), f"parse_v{slot}_{size}"))
    builder.state(f"parse_{slot}").extract(f"T{slot}").extract(f"L{slot}").select(
        [f"T{slot}", f"L{slot}"], cases
    )
    value_bits = _value_bits(max_data_bytes)
    nxt = _next_state(slot, slots)
    for size in range(1, max_data_bytes + 1):
        data_bits = 8 * size
        state = builder.state(f"parse_v{slot}_{size}").extract(f"scratch{data_bits}")
        if data_bits == value_bits:
            state.assign(f"v{slot}", f"scratch{data_bits}").goto(nxt)
        else:
            state.assign(
                f"v{slot}", f"scratch{data_bits} ++ v{slot}[{data_bits}:{value_bits - 1}]"
            ).goto(nxt)


def _add_timestamp_state(builder: AutomatonBuilder, slot: int, slots: int) -> None:
    nxt = _next_state(slot, slots)
    (
        builder.state(f"parse_stamp{slot}")
        .extract(f"ptr{slot}")
        .extract(f"over{slot}")
        .extract(f"flag{slot}")
        .extract(f"time{slot}")
        .goto(nxt)
    )


def broken_generic(slots: int = 2, max_data_bytes: int = 6) -> P4Automaton:
    """A generic parser with an off-by-one in one length case: the length-2
    state extracts only one byte.  Not equivalent to :func:`generic_parser`."""
    if max_data_bytes < 2:
        raise ValueError("need at least two data lengths to inject the bug")
    aut = generic_parser(slots=slots, max_data_bytes=max_data_bytes)
    builder = AutomatonBuilder(f"ip_options_generic_broken_{slots}x{max_data_bytes}")
    for name, size in aut.headers.items():
        builder.header(name, size)
    value_bits = _value_bits(max_data_bytes)
    for slot in range(slots):
        cases = [((t, l), ACCEPT) for t, l in _TERMINATORS]
        for size in range(1, max_data_bytes + 1):
            cases.append((("_", f"0x{size:02x}"), f"parse_v{slot}_{size}"))
        builder.state(f"parse_{slot}").extract(f"T{slot}").extract(f"L{slot}").select(
            [f"T{slot}", f"L{slot}"], cases
        )
        nxt = _next_state(slot, slots)
        for size in range(1, max_data_bytes + 1):
            data_bits = 8 * size
            read_bits = 8 if size == 2 else data_bits  # the injected bug
            state = builder.state(f"parse_v{slot}_{size}").extract(f"scratch{read_bits}")
            if read_bits == value_bits:
                state.assign(f"v{slot}", f"scratch{read_bits}").goto(nxt)
            else:
                state.assign(
                    f"v{slot}", f"scratch{read_bits} ++ v{slot}[{read_bits}:{value_bits - 1}]"
                ).goto(nxt)
    return builder.build()
