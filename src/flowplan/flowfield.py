"""Planar disturbance velocity fields with additive Gaussian noise, and
flowplan's CSV tables.

Two field variants share one interface: an analytic wind-driven gyre and a
grid of sampled velocities with bilinear interpolation (the stand-in for
externally produced current estimates). Noise is white in space and time:
each query draws fresh, independent per-axis Gaussian perturbations.

This module owns the CSV format on both sides: :func:`load_grid_field`
reads a sampled field, and :func:`write_table` writes every table the
commands emit.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FieldFormatError

_COORD_TOL_KM = 1e-6


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

    def contains(self, p: Point2, tol: float = 1e-9) -> bool:
        return (
            self.origin.x - tol <= p[0] <= self.origin.x + self.extent[0] + tol
            and self.origin.y - tol <= p[1] <= self.origin.y + self.extent[1] + tol
        )

    def clamp(self, points: np.ndarray) -> np.ndarray:
        """Project each row of ``points`` onto the domain, component-wise,
        as Python's ``min(max(x, lo), hi)`` does (a signed zero included)."""
        lo = np.array(self.origin)
        hi = np.array([self.origin.x + self.extent[0], self.origin.y + self.extent[1]])
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


def gyre_velocity(p: Point2, params: GyreParams) -> Velocity2:
    """Deterministic gyre current at a point.

    The field is divergence-free; speed peaks at pi * strength on the
    circulation-cell midlines and vanishes at cell corners.
    """
    a = math.pi * params.strength_kmh
    kx = math.pi * p[0] / params.size_km
    ky = math.pi * p[1] / params.size_km
    return Velocity2(-a * math.sin(kx) * math.cos(ky), a * math.cos(kx) * math.sin(ky))


def _bilinear(samples: GridSamples, p: Point2) -> Velocity2:
    u = (p[0] - samples.origin.x) / samples.cell_km
    v = (p[1] - samples.origin.y) / samples.cell_km
    i = min(max(int(math.floor(u)), 0), samples.nx - 2)
    j = min(max(int(math.floor(v)), 0), samples.ny - 2)
    fx = u - i
    fy = v - j
    w00 = (1.0 - fx) * (1.0 - fy)
    w10 = fx * (1.0 - fy)
    w01 = (1.0 - fx) * fy
    w11 = fx * fy
    vx = (
        w00 * samples.vx[j, i]
        + w10 * samples.vx[j, i + 1]
        + w01 * samples.vx[j + 1, i]
        + w11 * samples.vx[j + 1, i + 1]
    )
    vy = (
        w00 * samples.vy[j, i]
        + w10 * samples.vy[j, i + 1]
        + w01 * samples.vy[j + 1, i]
        + w11 * samples.vy[j + 1, i + 1]
    )
    return Velocity2(float(vx), float(vy))


def field_velocity(field: FlowField, p: Point2) -> Velocity2:
    """Noise-free velocity at ``p``; raises DomainError outside the domain."""
    if not field.contains(p):
        raise DomainError(f"point {tuple(p)} outside field domain")
    if field.gyre is not None:
        return gyre_velocity(p, field.gyre)
    assert field.grid is not None
    return _bilinear(field.grid, p)


def sample_noise(noise: NoiseParams, rng: np.random.Generator, scale: float = 1.0) -> tuple[float, float]:
    """Independent per-axis Gaussian velocity noise, x drawn before y, each
    draw multiplied by ``scale``. Two scalar draws: one draw of both axes
    gives the same numbers but costs several times as long."""
    return scale * rng.normal(0.0, noise.sigma_x), scale * rng.normal(0.0, noise.sigma_y)


def sample_disturbance(field: FlowField, p: Point2, rng: np.random.Generator) -> Velocity2:
    """Field velocity plus independent per-axis Gaussian noise."""
    base = field_velocity(field, p)
    wx, wy = sample_noise(field.noise, rng)
    return Velocity2(base.vx + wx, base.vy + wy)


def _cluster(values: list[float]) -> list[float]:
    """Collapse sorted coordinates that agree within the keying tolerance."""
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > _COORD_TOL_KM:
            out.append(v)
    return out


def _nearest(lattice: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the lattice coordinate nearest each value (sorted lattice of
    two or more), the lower index on a tie as ``np.argmin`` gives."""
    hi = np.clip(np.searchsorted(lattice, values), 1, len(lattice) - 1)
    lo = hi - 1
    return np.where(np.abs(lattice[lo] - values) <= np.abs(lattice[hi] - values), lo, hi)


def load_grid_field(source: str | Path | Iterable[str], noise: NoiseParams) -> FlowField:
    """Build a grid-sampled field from CSV records.

    Expects header ``x_km,y_km,vx_kmh,vy_kmh`` and one record per lattice
    point; row order is free, points are keyed by coordinates with a 1e-6 km
    tolerance. Missing, duplicate, off-lattice or non-finite records raise
    :class:`FieldFormatError`.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return load_grid_field(list(fh), noise)

    reader = csv.reader(io.StringIO("".join(line for line in source)))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise FieldFormatError("empty input")
    header = [cell.strip() for cell in rows[0]]
    if header != ["x_km", "y_km", "vx_kmh", "vy_kmh"]:
        raise FieldFormatError(f"unexpected header {header}")

    records: list[tuple[float, float, float, float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise FieldFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            record = tuple(float(cell) for cell in row)
        except ValueError as exc:
            raise FieldFormatError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, record)):
            raise FieldFormatError(f"line {lineno}: values must be finite, got {row}")
        records.append(record)  # type: ignore[arg-type]

    xs = _cluster([r[0] for r in records])
    ys = _cluster([r[1] for r in records])
    nx, ny = len(xs), len(ys)
    if nx < 2 or ny < 2:
        raise FieldFormatError(f"lattice must be at least 2x2, got {nx}x{ny}")
    if nx * ny != len(records):
        raise FieldFormatError(
            f"expected {nx}x{ny} = {nx * ny} lattice records, got {len(records)}"
        )
    dxs = np.diff(xs)
    dys = np.diff(ys)
    cell = float(dxs[0])
    if not (np.allclose(dxs, cell, atol=_COORD_TOL_KM) and np.allclose(dys, cell, atol=_COORD_TOL_KM)):
        raise FieldFormatError("lattice spacing is not uniform and square")

    # Key each record to its nearest lattice point. Every coordinate lies
    # within the tolerance of its own cluster, so only duplicates can clash;
    # with the count check passed, no duplicate means no missing point.
    table = np.array(records)
    slot = _nearest(np.asarray(ys), table[:, 1]) * nx + _nearest(np.asarray(xs), table[:, 0])
    repeat = np.ones(len(slot), dtype=bool)
    repeat[np.unique(slot, return_index=True)[1]] = False
    if repeat.any():
        x, y = records[int(np.argmax(repeat))][:2]
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
    line = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(itertools.starmap(line.format, rows))
