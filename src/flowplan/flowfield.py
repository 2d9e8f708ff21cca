"""Planar disturbance velocity fields with additive Gaussian noise, and
flowplan's CSV tables.

Two field variants share one interface: an analytic wind-driven gyre and a
grid of sampled velocities with bilinear interpolation (the stand-in for
externally produced current estimates). A field's noise is its per-axis
standard deviations; the simulator draws it.

This module owns the CSV format on both sides: :func:`load_grid_field`
reads a sampled field in one pass of the csv module, with numpy reading a
plain body, and :func:`write_table` writes every table the commands emit;
:func:`write_keyed_table` writes one whose rows come in runs that share
their first cell.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FieldFormatError

_COORD_TOL_KM = 1e-6
_HEADER = ["x_km", "y_km", "vx_kmh", "vy_kmh"]
# Characters of a CSV body that keep it from numpy's reader: the csv module's
# quote, and the ASCII separators that numpy's float parser strips as
# whitespace where ``float`` does not.
_LOADTXT_REFUSED = '"\x1c\x1d\x1e\x1f'
# How far outside its rectangle a point may lie and still be in the domain.
_DOMAIN_TOL_KM = 1e-9
# The line terminator of every table written: CRLF, the csv module's default.
_EOL = "\r\n"


class Point2(NamedTuple):
    x: float
    y: float


class Velocity2(NamedTuple):
    vx: float
    vy: float


@dataclass(frozen=True)
class GyreParams:
    """Analytic recirculation-cell parameters.

    ``strength_kmh`` scales the current speed (peak speed is pi times this
    value); ``size_km`` is the side length of one circulation cell.
    """

    strength_kmh: float
    size_km: float

    def __post_init__(self) -> None:
        if not self.size_km > 0:
            raise ValueError(f"gyre size must be positive, got {self.size_km}")
        if not math.isfinite(self.strength_kmh):
            raise ValueError("gyre strength must be finite")


@dataclass(frozen=True)
class NoiseParams:
    """Per-axis standard deviations (km/h) of the velocity disturbance."""

    sigma_x: float
    sigma_y: float

    def __post_init__(self) -> None:
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise ValueError("noise standard deviations must be non-negative")

    @classmethod
    def isotropic(cls, sigma: float) -> "NoiseParams":
        return cls(sigma, sigma)


@dataclass(frozen=True, eq=False)
class GridSamples:
    """Velocity samples on a rectangular lattice, row-major in y then x."""

    origin: Point2
    cell_km: float
    nx: int
    ny: int
    vx: np.ndarray  # shape (ny, nx)
    vy: np.ndarray  # shape (ny, nx)

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid fields need at least 2 samples per axis")
        if self.cell_km <= 0:
            raise ValueError("lattice spacing must be positive")
        for name in ("vx", "vy"):
            arr = getattr(self, name)
            if arr.shape != (self.ny, self.nx):
                raise ValueError(f"{name} must have shape (ny, nx) = ({self.ny}, {self.nx})")

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lattice origin and the last cell's (i, j) as arrays, and per
        lattice cell j * (nx - 1) + i the (vx, vy) samples at its corners (i,
        j), (i + 1, j), (i, j + 1) and (i + 1, j + 1): shape (cells, 4, 2),
        for one gather per row."""
        v = np.stack([self.vx, self.vy], axis=-1)
        corners = np.stack([v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]], axis=2)
        last = np.array([self.nx - 2, self.ny - 2])
        return np.array(self.origin, dtype=float), last, corners.reshape(-1, 4, 2)


@dataclass(frozen=True, eq=False)
class FlowField:
    """A velocity field over a rectangular planar domain.

    Exactly one of ``gyre`` or ``grid`` is set. ``origin`` and ``extent``
    bound the domain; queries outside raise :class:`DomainError`.
    """

    noise: NoiseParams
    origin: Point2
    extent: tuple[float, float]  # (width_km, height_km)
    gyre: GyreParams | None = None
    grid: GridSamples | None = None

    def __post_init__(self) -> None:
        if (self.gyre is None) == (self.grid is None):
            raise ValueError("exactly one of gyre or grid must be provided")
        if self.extent[0] <= 0 or self.extent[1] <= 0:
            raise ValueError("domain extent must be positive")

    def contains(self, p: Point2 | np.ndarray) -> bool | np.ndarray:
        """Whether a point lies in the domain, up to 1e-9 km outside its
        rectangle; for an (n, 2) array of points, whether each row does."""
        lo, hi = self._bounds
        p = np.asarray(p, dtype=float)
        inside = ((lo - _DOMAIN_TOL_KM <= p) & (p <= hi + _DOMAIN_TOL_KM)).all(axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The domain's lower and upper corners, as arrays for ``contains``
        and ``clamp``."""
        lo = np.array(self.origin, dtype=float)
        return lo, lo + np.array(self.extent, dtype=float)

    def clamp(self, points: np.ndarray) -> np.ndarray:
        """Project each row of ``points`` onto the domain, component-wise,
        as Python's ``min(max(x, lo), hi)`` does (a signed zero included)."""
        lo, hi = self._bounds
        points = np.where(points < lo, lo, points)
        return np.where(points > hi, hi, points)


def gyre_field(
    params: GyreParams,
    noise: NoiseParams,
    extent: tuple[float, float] = (40.0, 40.0),
    origin: Point2 = Point2(0.0, 0.0),
) -> FlowField:
    return FlowField(noise=noise, origin=origin, extent=extent, gyre=params)


def grid_field(samples: GridSamples, noise: NoiseParams) -> FlowField:
    extent = ((samples.nx - 1) * samples.cell_km, (samples.ny - 1) * samples.cell_km)
    return FlowField(noise=noise, origin=samples.origin, extent=extent, grid=samples)


def field_velocities(field: FlowField, points: np.ndarray | Sequence[Point2]) -> np.ndarray:
    """Noise-free velocity at each row of ``points``, as an (n, 2) array;
    raises DomainError, naming the first row outside ``FlowField.contains``.

    The gyre and the grid's bilinear interpolation are numpy
    array expressions, in the order of operations of the one-point formulas:
    numpy's float64 sine and cosine round as ``math.sin`` and ``math.cos``
    do, and the bilinear weights and their sum are elementwise products and
    sums (``tests/test_flowfield.py`` checks both bit for bit). The model
    build and the simulator step share this one path.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    inside = field.contains(points)
    if not inside.all():
        first = np.argmin(inside)
        raise DomainError(f"point {tuple(points[first].tolist())} outside field domain")
    if field.gyre is None:
        assert field.grid is not None
        return _bilinear(field.grid, points)
    a = math.pi * field.gyre.strength_kmh
    k = math.pi * points / field.gyre.size_km
    sin, cos = np.sin(k), np.cos(k)
    out = np.empty_like(k)
    out[:, 0] = -a * sin[:, 0] * cos[:, 1]
    out[:, 1] = a * cos[:, 0] * sin[:, 1]
    return out


def _bilinear(samples: GridSamples, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the samples at each (x, y) row of ``points``,
    with the lattice cell clamped to the grid, as an (n, 2) array. Each row is
    ``((w00 c00 + w10 c10) + w01 c01) + w11 c11`` with the weights of the
    one-row formula. The cell index is clamped as an integer, as the formula
    clamps ``math.floor``, so no signed zero of a float clamp reaches the
    weights."""
    origin, last, corners = samples._cells
    uv = (points - origin) / samples.cell_km
    ij = np.minimum(np.maximum(np.floor(uv).astype(np.int64), 0), last)
    f = uv - ij
    g = 1.0 - f
    w = np.stack([g[:, 0] * g[:, 1], f[:, 0] * g[:, 1], g[:, 0] * f[:, 1], f[:, 0] * f[:, 1]], axis=1)
    terms = w[:, :, None] * corners[ij[:, 1] * (samples.nx - 1) + ij[:, 0]]
    return ((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3]


def field_velocity(field: FlowField, p: Point2) -> Velocity2:
    """Noise-free velocity at ``p``: :func:`field_velocities` on one row."""
    return Velocity2(*field_velocities(field, [p])[0].tolist())


def _cluster(values: np.ndarray) -> np.ndarray:
    """Collapse sorted coordinates that agree within the keying tolerance:
    a cluster is its least value and every value at most 1e-6 km above it,
    found by one ``searchsorted`` per cluster (subtracting a constant keeps
    the order). The stable sort lets the first of +0.0 and -0.0 lead."""
    v = np.sort(values, kind="stable")
    leaders, i = [], 0
    while i < len(v):
        leaders.append(i)
        i += int(np.searchsorted(v[i:] - v[i], _COORD_TOL_KM, side="right"))
    return v[leaders]


def _nearest(lattice: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the lattice coordinate nearest each value (sorted lattice of
    two or more), the lower index on a tie as ``np.argmin`` gives."""
    hi = np.clip(np.searchsorted(lattice, values), 1, len(lattice) - 1)
    lo = hi - 1
    return np.where(np.abs(lattice[lo] - values) <= np.abs(lattice[hi] - values), lo, hi)


def _loadtxt_body(body: list[str]) -> np.ndarray | None:
    """The (records, 4) table of the lines after a CSV header by
    ``np.loadtxt``, or None where numpy's reader might read them apart from
    the csv module: where they are blank (numpy would warn of no data), hold
    a character of ``_LOADTXT_REFUSED`` or a line longer than the csv
    module's field size limit, or are not four finite columns to numpy.
    What numpy reads is the csv module's table to the bit: both parse a
    number as ``float`` does, and numpy refuses the spellings only ``float``
    takes, such as ``1_0`` and non-ASCII digits.
    """
    text = "".join(body)
    if not text or text.isspace() or any(c in text for c in _LOADTXT_REFUSED):
        return None
    if max(map(len, body)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 4 or not np.isfinite(table).all():
        return None
    return table


def _read_table(lines: list[str]) -> np.ndarray:
    """The (records, 4) body table of a CSV input, in one pass of one
    ``csv.reader``; FieldFormatError for input that holds no such table.

    The reader finds the header, and :func:`_loadtxt_body` reads the lines
    after it. Where numpy refuses them, the reader goes on record by record
    and stops at the first bad record, naming the physical line the record
    starts on; an error of the csv module names the line it arose on.
    """
    reader = csv.reader(lines)
    try:
        header = next((row for row in reader if "".join(row).strip()), None)
        if header is None:
            raise FieldFormatError("empty input")
        header = [cell.strip() for cell in header]
        if header != _HEADER:
            raise FieldFormatError(f"unexpected header {header}")
        table = _loadtxt_body(lines[reader.line_num :])
        if table is not None:
            return table
        records, first = [], reader.line_num + 1
        for row in reader:
            if "".join(row).strip():
                if len(row) != 4:
                    raise FieldFormatError(f"line {first}: expected 4 fields, got {len(row)}")
                try:
                    records.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise FieldFormatError(f"line {first}: {exc}") from exc
                if not all(map(math.isfinite, records[-1])):
                    raise FieldFormatError(f"line {first}: values must be finite, got {row}")
            first = reader.line_num + 1
    except csv.Error as exc:
        raise FieldFormatError(f"line {reader.line_num}: {exc}") from exc
    return np.array(records, dtype=float).reshape(-1, 4)


def load_grid_field(source: str | Path | Iterable[str], noise: NoiseParams) -> FlowField:
    """Build a grid-sampled field from CSV records.

    Expects header ``x_km,y_km,vx_kmh,vy_kmh`` and one record per lattice
    point; row order is free, points are keyed by coordinates with a 1e-6 km
    tolerance. Missing, duplicate, off-lattice or non-finite records raise
    :class:`FieldFormatError`.

    One ``csv.reader`` reads the input once (:func:`_read_table`): the body
    goes to ``np.loadtxt`` where that gives the csv module's table to the
    bit (:func:`_loadtxt_body`), and the reader parses it record by record
    otherwise, naming the line of the first bad record. Either way the same
    inputs are accepted, with the same values; a malformed input, the csv
    module's own errors included, raises :class:`FieldFormatError`.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return load_grid_field(fh.readlines(), noise)
    table = _read_table(list(source))
    xs = _cluster(table[:, 0])
    ys = _cluster(table[:, 1])
    nx, ny = len(xs), len(ys)
    if nx < 2 or ny < 2:
        raise FieldFormatError(f"lattice must be at least 2x2, got {nx}x{ny}")
    if nx * ny != len(table):
        raise FieldFormatError(f"expected {nx}x{ny} = {nx * ny} lattice records, got {len(table)}")
    dxs = np.diff(xs)
    dys = np.diff(ys)
    cell = float(dxs[0])
    if not (np.allclose(dxs, cell, atol=_COORD_TOL_KM) and np.allclose(dys, cell, atol=_COORD_TOL_KM)):
        raise FieldFormatError("lattice spacing is not uniform and square")

    # Key each record to its nearest lattice point. Every coordinate lies
    # within the tolerance of its own cluster, so only duplicates can clash;
    # with the count check passed, no duplicate means no missing point.
    slot = _nearest(ys, table[:, 1]) * nx + _nearest(xs, table[:, 0])
    repeat = np.ones(len(slot), dtype=bool)
    repeat[np.unique(slot, return_index=True)[1]] = False
    if repeat.any():
        x, y = table[int(np.argmax(repeat)), :2].tolist()
        raise FieldFormatError(f"duplicate record at ({x}, {y})")
    velocity = np.empty((nx * ny, 2))
    velocity[slot] = table[:, 2:]
    vx, vy = velocity.T.reshape(2, ny, nx)
    samples = GridSamples(Point2(float(xs[0]), float(ys[0])), cell, nx, ny, vx, vy)
    return grid_field(samples, noise)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table: the header, then each row of ``rows`` as it comes.

    Cells are written as ``str`` gives them (a float's shortest repr), comma
    separated and CRLF terminated, as the csv module's default dialect would
    write them; they are never quoted, so no cell may hold a comma, a quote
    or a line break.
    """
    line = ",".join(["{}"] * len(header)) + _EOL
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _EOL)
        fh.writelines(itertools.starmap(line.format, rows))


def write_keyed_table(
    path: str | Path, header: Sequence[str], runs: Iterable[tuple[object, Iterable[Sequence[str]]]]
) -> None:
    """Write a CSV table whose rows come in runs that share their first cell.

    ``runs`` yields ``(key, rows)`` pairs: the run's first cell and the rows'
    other cells, already formatted as strings. The bytes are those of
    :func:`write_table` given the same cells, but each run is joined into one
    string behind its ``"{key},"`` prefix, so no row is formatted on its own.
    A run with no rows writes nothing.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _EOL)
        for key, rows in runs:
            lines = list(map(",".join, rows))
            if lines:
                pre = f"{key},"
                fh.write(pre + (_EOL + pre).join(lines) + _EOL)
