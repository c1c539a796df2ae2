"""Physical address mapping onto crossbar cells.

The RowHammer exploit the paper references (Seaborn et al.) needs "the
correct address mapping between the physical and virtual memory space to
hammer the correct cells".  This module provides that substrate for the
ReRAM case: a deterministic, invertible mapping from byte addresses to
(bank, crossbar tile, row, column) bit locations, plus the adjacency queries
an attacker needs ("which addresses are physically adjacent to this one?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import AddressingError

Cell = Tuple[int, int]


@dataclass(frozen=True)
class BitLocation:
    """Physical location of one bit."""

    bank: int
    tile: int
    row: int
    column: int

    def cell(self) -> Cell:
        """Crossbar cell coordinate within the tile."""
        return (self.row, self.column)


@dataclass
class AddressMapping:
    """Row-major interleaved mapping of byte addresses to crossbar bits.

    Layout: each crossbar tile stores ``rows x columns`` bits; consecutive
    bits of a byte live in consecutive columns of the same row; consecutive
    bytes fill a tile row-major; tiles fill a bank; banks interleave last.
    """

    rows: int = 64
    columns: int = 64
    tiles_per_bank: int = 16
    banks: int = 4

    def __post_init__(self) -> None:
        for name in ("rows", "columns", "tiles_per_bank", "banks"):
            if getattr(self, name) < 1:
                raise AddressingError(f"{name} must be at least 1")
        if self.columns % 8 != 0:
            raise AddressingError("columns must be a multiple of 8 so bytes do not straddle rows")

    # -- capacity ------------------------------------------------------------

    @property
    def bits_per_tile(self) -> int:
        """Storage bits in one crossbar tile."""
        return self.rows * self.columns

    @property
    def bytes_per_tile(self) -> int:
        """Storage bytes in one crossbar tile."""
        return self.bits_per_tile // 8

    @property
    def capacity_bytes(self) -> int:
        """Total capacity of the mapped memory [bytes]."""
        return self.bytes_per_tile * self.tiles_per_bank * self.banks

    # -- forward mapping -------------------------------------------------------

    def locate_bit(self, byte_address: int, bit_index: int) -> BitLocation:
        """Physical location of bit ``bit_index`` of the byte at ``byte_address``."""
        if not 0 <= bit_index < 8:
            raise AddressingError("bit_index must be in [0, 8)")
        self._check_address(byte_address)
        global_bit = byte_address * 8 + bit_index
        bits_per_bank = self.bits_per_tile * self.tiles_per_bank
        bank = global_bit // bits_per_bank
        within_bank = global_bit % bits_per_bank
        tile = within_bank // self.bits_per_tile
        within_tile = within_bank % self.bits_per_tile
        row = within_tile // self.columns
        column = within_tile % self.columns
        return BitLocation(bank=bank, tile=tile, row=row, column=column)

    def locate_byte(self, byte_address: int) -> List[BitLocation]:
        """Physical locations of all 8 bits of a byte."""
        return [self.locate_bit(byte_address, bit) for bit in range(8)]

    # -- inverse mapping --------------------------------------------------------

    def address_of(self, location: BitLocation) -> Tuple[int, int]:
        """Inverse mapping: (byte_address, bit_index) of a physical bit."""
        if not (0 <= location.bank < self.banks):
            raise AddressingError(f"bank {location.bank} out of range")
        if not (0 <= location.tile < self.tiles_per_bank):
            raise AddressingError(f"tile {location.tile} out of range")
        if not (0 <= location.row < self.rows and 0 <= location.column < self.columns):
            raise AddressingError(f"cell ({location.row}, {location.column}) out of range")
        global_bit = (
            location.bank * self.tiles_per_bank * self.bits_per_tile
            + location.tile * self.bits_per_tile
            + location.row * self.columns
            + location.column
        )
        return global_bit // 8, global_bit % 8

    # -- adjacency (what the attacker needs) -------------------------------------

    def physically_adjacent_bits(self, location: BitLocation) -> List[BitLocation]:
        """Bits whose cells share a word or bit line segment next to ``location``.

        These are the aggressor candidates for flipping the given bit with
        NeuroHammer: the same-row and same-column nearest neighbours inside
        the same tile.
        """
        neighbours = []
        for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            row, column = location.row + dr, location.column + dc
            if 0 <= row < self.rows and 0 <= column < self.columns:
                neighbours.append(
                    BitLocation(bank=location.bank, tile=location.tile, row=row, column=column)
                )
        return neighbours

    def aggressor_addresses_for(self, byte_address: int, bit_index: int) -> List[Tuple[int, int]]:
        """(byte_address, bit_index) pairs the attacker must own to hammer a bit."""
        victim = self.locate_bit(byte_address, bit_index)
        return [self.address_of(neighbour) for neighbour in self.physically_adjacent_bits(victim)]

    # -- helpers -----------------------------------------------------------------

    def _check_address(self, byte_address: int) -> None:
        if not 0 <= byte_address < self.capacity_bytes:
            raise AddressingError(
                f"byte address {byte_address:#x} outside capacity {self.capacity_bytes:#x}"
            )
