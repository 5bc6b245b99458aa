"""Immutable bitvector values.

Bitvectors in Leapfrog are finite strings over ``{0, 1}``.  Bit index 0 is the
*first* bit of the string — the first bit read off the wire — matching the
paper's zero-indexed, inclusive slicing convention (Definition 3.1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union


class Bits:
    """An immutable sequence of bits.

    The representation is a Python string of ``'0'``/``'1'`` characters, which
    keeps slicing and concatenation simple and fast enough for simulation and
    testing purposes.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Union[str, Iterable[int], "Bits"] = "") -> None:
        if isinstance(bits, Bits):
            self._bits = bits._bits
            return
        if isinstance(bits, str):
            if bits and set(bits) - {"0", "1"}:
                raise ValueError(f"invalid bit string: {bits!r}")
            self._bits = bits
            return
        chars = []
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"invalid bit value: {b!r}")
            chars.append("1" if b else "0")
        self._bits = "".join(chars)

    @classmethod
    def _trusted(cls, bits: str) -> "Bits":
        """Wrap ``bits`` unchecked: only for strings already known to be bits
        (slices and concatenations of valid bit strings, formatted integers)."""
        value = object.__new__(cls)
        value._bits = bits
        return value

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(width: int) -> "Bits":
        return Bits._trusted("0" * width)

    @staticmethod
    def ones(width: int) -> "Bits":
        return Bits._trusted("1" * width)

    @staticmethod
    def from_int(value: int, width: int) -> "Bits":
        """Most-significant-bit-first encoding of ``value`` into ``width`` bits."""
        if value < 0:
            raise ValueError("negative values are not representable")
        if width < 0:
            raise ValueError("negative width")
        if value >= (1 << width) and width > 0:
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width == 0:
            if value != 0:
                raise ValueError("nonzero value in zero width")
            return Bits._trusted("")
        return Bits._trusted(format(value, f"0{width}b"))

    @staticmethod
    def from_bytes(data: bytes) -> "Bits":
        return Bits._trusted("".join(format(byte, "08b") for byte in data))

    # -- accessors -----------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self._bits)

    def to_int(self) -> int:
        """Interpret the bits MSB-first as an unsigned integer."""
        if not self._bits:
            return 0
        return int(self._bits, 2)

    def to_bitstring(self) -> str:
        return self._bits

    def to_tuple(self) -> tuple:
        return tuple(1 if c == "1" else 0 for c in self._bits)

    # -- operations ----------------------------------------------------------

    def concat(self, other: "Bits") -> "Bits":
        return Bits._trusted(self._bits + other._bits)

    def slice(self, n1: int, n2: int) -> "Bits":
        """The paper's clamped, inclusive slice ``w[n1:n2]`` (Definition 3.1).

        The slice starts at ``min(n1, |w| - 1)`` and ends at ``min(n2, |w| - 1)``,
        inclusive.  Slicing the empty bitvector yields the empty bitvector.
        """
        if self.width == 0:
            return EMPTY
        lo = min(n1, self.width - 1)
        hi = min(n2, self.width - 1)
        if lo > hi:
            return EMPTY
        return Bits._trusted(self._bits[lo : hi + 1])

    def take(self, n: int) -> "Bits":
        return Bits._trusted(self._bits[:n])

    def drop(self, n: int) -> "Bits":
        return Bits._trusted(self._bits[n:])

    def bit(self, index: int) -> int:
        return 1 if self._bits[index] == "1" else 0

    # -- dunder --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return (1 if c == "1" else 0 for c in self._bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Bits._trusted(self._bits[index])
        return self.bit(index)

    def __add__(self, other: "Bits") -> "Bits":
        return self.concat(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bits):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(("Bits", self._bits))

    def __repr__(self) -> str:
        return f"Bits({self._bits!r})"

    def __str__(self) -> str:
        return self._bits if self._bits else "ε"


def bits(value: Union[str, int, Bits], width: int = None) -> Bits:
    """Convenience constructor.

    ``bits("0101")`` builds from a literal bit string; ``bits(5, 4)`` builds
    from an integer and an explicit width.
    """
    if isinstance(value, Bits):
        return value
    if isinstance(value, int):
        if width is None:
            raise ValueError("integer bit literals require an explicit width")
        return Bits.from_int(value, width)
    return Bits(value)


EMPTY = Bits("")
