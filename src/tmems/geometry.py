"""Aperture geometry for rectangular skins of identical square unit cells.

The skin lies in the z = 0 plane. Row index p (1..rows) positions a cell
along x, column index q (1..cols) along y, so cells sharing one column-wise
modulation signal share p. The lattice is centered on the origin, which makes
cell barycenters exactly mirror-symmetric: x of row ``rows - p + 1`` is the
negation of x of row ``p``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def check_integer(name: str, value, low: int, high: float = np.inf) -> None:
    """Raise ValueError unless value is an int or a numpy integer, not a
    bool, in [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        span = f">= {low}" if high == np.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


@dataclass(frozen=True)
class EmsGeometry:
    """Rectangular lattice of square cells plus the carrier that sizes them."""

    rows: int
    cols: int
    cell_size_wl: float = 0.45
    f0_hz: float = 5.5e9

    def __post_init__(self):
        check_integer("geometry: rows", self.rows, 1)
        check_integer("geometry: cols", self.cols, 1)
        if not (0.0 < self.cell_size_wl < np.inf):
            raise ValueError("geometry: cell_size_wl must be positive and finite")
        if not (0.0 < self.f0_hz < np.inf):
            raise ValueError("geometry: f0_hz must be positive and finite")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.f0_hz

    @property
    def k0(self) -> float:
        """Free-space wavenumber at the carrier, rad/m."""
        return 2.0 * np.pi / self.wavelength_m

    @property
    def omega0(self) -> float:
        return 2.0 * np.pi * self.f0_hz

    @property
    def cell_edge_m(self) -> float:
        return self.cell_size_wl * self.wavelength_m

    @property
    def cell_area_m2(self) -> float:
        return self.cell_edge_m**2

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @cached_property
    def row_x_m(self) -> np.ndarray:
        """Barycenter x of each row, shape (rows,). Mirror-exact by construction."""
        p = np.arange(1, self.rows + 1, dtype=float)
        x = (p - 0.5 * (self.rows + 1)) * self.cell_edge_m
        x.setflags(write=False)
        return x

    @cached_property
    def col_y_m(self) -> np.ndarray:
        """Barycenter y of each column, shape (cols,)."""
        q = np.arange(1, self.cols + 1, dtype=float)
        y = (q - 0.5 * (self.cols + 1)) * self.cell_edge_m
        y.setflags(write=False)
        return y

    @cached_property
    def cell_xy_m(self) -> np.ndarray:
        """Barycenters of all cells, shape (n_cells, 2), row-major in (p, q)."""
        xx, yy = np.meshgrid(self.row_x_m, self.col_y_m, indexing="ij")
        xy = np.column_stack([xx.ravel(), yy.ravel()])
        xy.setflags(write=False)
        return xy
