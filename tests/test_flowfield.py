import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan import flowfield
from flowplan.errors import DomainError, FieldFormatError
from flowplan.flowfield import (
    GridSamples,
    GyreParams,
    NoiseParams,
    Point2,
    Velocity2,
    field_velocities,
    field_velocity,
    grid_field,
    gyre_field,
    load_grid_field,
)

NO_NOISE = NoiseParams.isotropic(0.0)


def gyre_velocity(p, params):
    """Reference gyre current at one point: the analytic formula that
    ``field_velocities`` evaluates row by row. It is divergence-free; its
    speed peaks at pi * strength on the circulation-cell midlines and
    vanishes at cell corners."""
    a = math.pi * params.strength_kmh
    kx = math.pi * p[0] / params.size_km
    ky = math.pi * p[1] / params.size_km
    return Velocity2(-a * math.sin(kx) * math.cos(ky), a * math.cos(kx) * math.sin(ky))


def sample_disturbance(field, p, rng):
    """Field velocity plus independent per-axis Gaussian noise."""
    base = field_velocity(field, p)
    wx, wy = rng.normal(0.0, field.noise.sigma_x), rng.normal(0.0, field.noise.sigma_y)
    return Velocity2(base.vx + wx, base.vy + wy)


def test_gyre_zero_at_origin():
    v = gyre_velocity(Point2(0.0, 0.0), GyreParams(0.5, 20.0))
    assert v == (0.0, 0.0)


def test_gyre_half_cell_point():
    # sin(pi/2) = 1, cos(0) = 1: vx = -pi*A, vy = 0
    v = gyre_velocity(Point2(10.0, 0.0), GyreParams(0.5, 20.0))
    assert v.vx == pytest.approx(-1.5707963267948966, abs=1e-12)
    assert v.vy == pytest.approx(0.0, abs=1e-12)


def test_gyre_max_speed_matches_reported_value():
    # peak current speed for A=0.5 is pi/2 km/h
    params = GyreParams(0.5, 20.0)
    pts = [Point2(x, y) for x in np.linspace(0, 40, 201) for y in np.linspace(0, 40, 7)]
    speed = max(math.hypot(*gyre_velocity(p, params)) for p in pts)
    assert speed == pytest.approx(math.pi / 2, rel=1e-6)


@given(
    x=st.floats(0.0, 40.0),
    y=st.floats(0.0, 40.0),
    a=st.floats(0.1, 3.0),
    s=st.floats(5.0, 40.0),
)
def test_gyre_speed_bound(x, y, a, s):
    v = gyre_velocity(Point2(x, y), GyreParams(a, s))
    assert math.hypot(*v) <= math.pi * a * math.sqrt(2) + 1e-12


@given(x=st.floats(0.5, 39.5), y=st.floats(0.5, 39.5))
@settings(max_examples=50)
def test_gyre_divergence_free(x, y):
    params = GyreParams(0.5, 20.0)
    h = 1e-4
    dvx = (gyre_velocity(Point2(x + h, y), params).vx - gyre_velocity(Point2(x - h, y), params).vx)
    dvy = (gyre_velocity(Point2(x, y + h), params).vy - gyre_velocity(Point2(x, y - h), params).vy)
    div = (dvx + dvy) / (2 * h)
    assert abs(div) < 1e-6 * math.pi * params.strength_kmh / params.size_km


def _uniform_grid(vx, vy, n=3, cell=2.0):
    return grid_field(
        GridSamples(
            Point2(0.0, 0.0),
            cell,
            n,
            n,
            np.full((n, n), vx, dtype=float),
            np.full((n, n), vy, dtype=float),
        ),
        NO_NOISE,
    )


def test_constant_grid_field_everywhere():
    field = _uniform_grid(1.0, 0.0)
    for p in [Point2(0.3, 0.7), Point2(2.0, 2.0), Point2(3.9, 0.1)]:
        v = field_velocity(field, p)
        assert v.vx == pytest.approx(1.0, abs=1e-15)
        assert v.vy == pytest.approx(0.0, abs=1e-15)


def test_grid_corner_points_exact():
    vx = np.arange(9, dtype=float).reshape(3, 3)
    vy = -2.0 * vx
    field = grid_field(GridSamples(Point2(1.0, 1.0), 2.0, 3, 3, vx, vy), NO_NOISE)
    for j in range(3):
        for i in range(3):
            v = field_velocity(field, Point2(1.0 + 2.0 * i, 1.0 + 2.0 * j))
            assert v.vx == pytest.approx(vx[j, i], abs=1e-12)
            assert v.vy == pytest.approx(vy[j, i], abs=1e-12)


def test_bilinear_cell_midpoint():
    # corner vx values {0, 0, 2, 2} along y: midpoint averages to 1
    vx = np.array([[0.0, 0.0], [2.0, 2.0]])
    field = grid_field(GridSamples(Point2(0.0, 0.0), 2.0, 2, 2, vx, np.zeros((2, 2))), NO_NOISE)
    assert field_velocity(field, Point2(1.0, 1.0)).vx == pytest.approx(1.0, abs=1e-12)


@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    c=st.floats(-2, 2),
    x=st.floats(0.0, 6.0),
    y=st.floats(0.0, 6.0),
)
@settings(max_examples=60)
def test_bilinear_reproduces_affine_fields(a, b, c, x, y):
    xs = np.arange(4) * 2.0
    gx, gy = np.meshgrid(xs, xs)
    vx = a * gx + b * gy + c
    field = grid_field(GridSamples(Point2(0.0, 0.0), 2.0, 4, 4, vx, -vx), NO_NOISE)
    got = field_velocity(field, Point2(x, y))
    want = a * x + b * y + c
    assert got.vx == pytest.approx(want, abs=1e-9)
    assert got.vy == pytest.approx(-want, abs=1e-9)


def _reference_bilinear(samples, p):
    """The one-point bilinear lookup that the row kernel replaced."""
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


def _reference_field_velocity(field, p):
    """The one-point velocity query that the row kernel replaced."""
    if not field.contains(p):
        raise DomainError(f"point {tuple(p)} outside field domain")
    if field.gyre is not None:
        return gyre_velocity(p, field.gyre)
    return _reference_bilinear(field.grid, p)


def _kernel_fields():
    rng = np.random.default_rng(5)
    samples = GridSamples(Point2(0.5, -1.25), 40.0 / 24.0, 7, 5, rng.normal(size=(5, 7)), rng.normal(size=(5, 7)))
    return {
        "gyre": gyre_field(GyreParams(0.5, 20.0), NO_NOISE, extent=(40.0, 30.0), origin=Point2(-3.0, 2.5)),
        "grid": grid_field(samples, NO_NOISE),
    }


@pytest.mark.parametrize("kind", ["gyre", "grid"])
def test_field_velocities_equal_the_one_point_reference(kind):
    field = _kernel_fields()[kind]
    (x0, y0), (w, h) = field.origin, field.extent
    cell = field.grid.cell_km if field.grid is not None else 2.5
    rng = np.random.default_rng(17)
    lines_x = x0 + cell * np.arange(int(w / cell) + 1)
    lines_y = y0 + cell * np.arange(int(h / cell) + 1)
    rows = np.vstack(
        [
            np.column_stack([rng.uniform(x0, x0 + w, 60), rng.uniform(y0, y0 + h, 60)]),
            np.column_stack([lines_x, rng.uniform(y0, y0 + h, len(lines_x))]),  # on cell edges
            np.column_stack([rng.uniform(x0, x0 + w, len(lines_y)), lines_y]),
            [[x0, y0], [x0 + w, y0 + h], [x0, y0 + h / 3], [x0 + w / 2, y0 + h]],  # on the domain edge
            [[x0 - 5e-10, y0 + 1.0], [x0 + w + 9e-10, y0 + h + 9e-10], [x0 + 1.0, y0 - 1e-9]],  # within tolerance
        ]
    )
    got = field_velocities(field, rows)
    assert got.shape == (len(rows), 2)
    want = np.array([_reference_field_velocity(field, Point2(x, y)) for x, y in rows.tolist()])
    assert np.array_equal(got, want)
    assert [field_velocity(field, Point2(x, y)) for x, y in rows.tolist()] == [tuple(v) for v in want.tolist()]
    assert field_velocities(field, np.empty((0, 2))).shape == (0, 2)


def _bilinear_rows(samples, rows):
    """The per-row loop that the grid's array kernel replaced: bilinear
    interpolation at each (x, y) row in Python floats, with the lattice cell
    clamped to the grid; the (vx, vy) pairs in one flat list."""
    vx, vy = samples.vx.tolist(), samples.vy.tolist()
    x0, y0, cell = samples.origin.x, samples.origin.y, samples.cell_km
    i_max, j_max = samples.nx - 2, samples.ny - 2
    flat = []
    for x, y in rows:
        u = (x - x0) / cell
        v = (y - y0) / cell
        i = min(max(math.floor(u), 0), i_max)
        j = min(max(math.floor(v), 0), j_max)
        fx = u - i
        fy = v - j
        w00 = (1.0 - fx) * (1.0 - fy)
        w10 = fx * (1.0 - fy)
        w01 = (1.0 - fx) * fy
        w11 = fx * fy
        row0, row1 = vx[j], vx[j + 1]
        bx = w00 * row0[i] + w10 * row0[i + 1] + w01 * row1[i] + w11 * row1[i + 1]
        row0, row1 = vy[j], vy[j + 1]
        by = w00 * row0[i] + w10 * row0[i + 1] + w01 * row1[i] + w11 * row1[i + 1]
        flat += (bx, by)
    return flat


@pytest.mark.parametrize(
    "origin, cell, nx, ny",
    [
        ((0.0, 0.0), 1.0, 41, 41),  # the csv-wall-k2 lattice
        ((0.5, -1.25), 40.0 / 24.0, 7, 5),
        ((-0.0, 0.3), 0.7, 2, 3),  # one cell wide; a -0.0 origin
        ((-3.0, 2.5), 2.5e-3, 9, 4),
    ],
)
def test_the_bilinear_kernel_equals_the_row_loop_bit_for_bit(origin, cell, nx, ny):
    rng = np.random.default_rng(np.random.SeedSequence([23, nx, ny]))
    samples = GridSamples(Point2(*origin), cell, nx, ny, rng.normal(size=(ny, nx)), rng.normal(size=(ny, nx)))
    # A first cell whose sum shows the sign of a zero weight: at (-0.0, -0.0)
    # with the origin at +0.0, the loop's weights are 1, -0.0, -0.0 and +0.0.
    samples.vx[:2, :2] = [[-0.0, 1.0], [1.0, -1.0]]
    field = grid_field(samples, NO_NOISE)
    (x0, y0), (w, h) = field.origin, field.extent
    lo, hi = np.array([x0, y0]), np.array([x0 + w, y0 + h])
    gx, gy = np.meshgrid(x0 + cell * np.arange(nx), y0 + cell * np.arange(ny))
    lattice = np.clip(np.column_stack([gx.ravel(), gy.ravel()]), lo, hi)
    across = np.vstack([np.nextafter(lattice, np.inf), np.nextafter(lattice, -np.inf)])  # 1 ulp off each point
    lines = np.vstack(  # 1 ulp either side of every cell edge, the other coordinate random
        [
            np.column_stack([np.nextafter(gx[0], side), rng.uniform(y0, y0 + h, nx)])
            for side in (np.inf, -np.inf)
        ]
        + [
            np.column_stack([rng.uniform(x0, x0 + w, ny), np.nextafter(gy[:, 0], side)])
            for side in (np.inf, -np.inf)
        ]
    )
    edges = [
        [x0, y0], [x0 + w, y0 + h], [x0 + w, y0], [x0, y0 + h],  # corners
        [x0 + w / 3, y0], [x0 + w, y0 + h / 3], [x0, y0 + h / 2], [x0 + w / 2, y0 + h],  # edges
        [x0 - 5e-10, y0 + h / 4], [x0 + w + 9e-10, y0 + h + 9e-10], [x0 + w / 5, y0 - 1e-9],  # within tolerance
        [-0.0, -0.0], [-0.0, y0 + h / 2],  # -0.0 coordinates
    ]
    last_column = np.column_stack([np.full(40, x0 + w), rng.uniform(y0, y0 + h, 40)])  # clamps into cell nx - 2
    last_row = np.column_stack([rng.uniform(x0, x0 + w, 40), np.full(40, y0 + h)])  # and into row ny - 2
    rows = np.vstack(
        [
            np.column_stack([rng.uniform(x0, x0 + w, 30_000), rng.uniform(y0, y0 + h, 30_000)]),
            lattice,
            np.clip(across, lo, hi),
            np.clip(lines, lo, hi),
            [p for p in edges if field.contains(p)],
            last_column,
            last_row,
        ]
    )
    rows = rows[[field.contains(p) for p in rows.tolist()]]
    assert len(rows) >= 30_000
    got = field_velocities(field, rows)
    want = np.array(_bilinear_rows(samples, rows.tolist())).reshape(-1, 2)
    differ = int((got.view(np.int64) != want.view(np.int64)).sum())
    assert differ == 0, f"{differ} of {want.size} components differ from the row loop"


# Printed when a trig kernel test fails: the kernels take numpy's float64 sin
# and cos for math's, and the CI log's numpy.show_runtime() names the host's
# SIMD extensions.
LIBM_NOTE = (
    "the kernel relies on numpy's float64 sin/cos rounding as libm's math.sin/math.cos do, "
    "which this host's numpy does not"
)


@pytest.mark.parametrize("strength, size", [(0.5, 20.0), (1.3, 7.0), (0.05, 3.3), (2.0, 55.0)])
def test_the_gyre_kernel_equals_the_math_reference_bit_for_bit(strength, size):
    params = GyreParams(strength, size)
    field = gyre_field(params, NO_NOISE, extent=(80.0, 60.0), origin=Point2(-20.0, -10.0))
    rng = np.random.default_rng(np.random.SeedSequence([41, int(size * 10)]))
    corners = size * np.arange(-3, 12)  # cell edges: sin is 0 there (a signed zero at 0) or nearly so
    rows = np.vstack(
        [
            np.column_stack([rng.uniform(-20.0, 60.0, 30_000), rng.uniform(-10.0, 50.0, 30_000)]),
            np.column_stack([corners, np.full(len(corners), size / 2)]),
            np.column_stack([np.full(len(corners), size / 2), corners]),
        ]
    )
    rows = rows[[field.contains(p) for p in rows.tolist()]]
    assert len(rows) >= 30_000
    got = field_velocities(field, rows)
    want = np.array([gyre_velocity(p, params) for p in rows.tolist()])
    differ = int((got.view(np.int64) != want.view(np.int64)).sum())
    assert differ == 0, f"{differ} of {want.size} gyre components differ from the math reference: {LIBM_NOTE}"


@pytest.mark.parametrize("kind", ["gyre", "grid"])
def test_field_velocities_name_the_first_row_outside(kind):
    field = _kernel_fields()[kind]
    (x0, y0), (w, h) = field.origin, field.extent
    rows = [[x0 + 1.0, y0 + 1.0], [x0 + w + 2e-9, y0 + 1.0], [x0 + 1.0, y0 - 3.0]]
    with pytest.raises(DomainError) as err:
        field_velocities(field, rows)
    assert str(err.value) == f"point {(x0 + w + 2e-9, y0 + 1.0)} outside field domain"


def test_contains_takes_one_point_or_rows():
    # Rows on, just inside and just outside the 1e-9 km band of every edge,
    # against the one-point comparison chain that contains used to write.
    field = _kernel_fields()["gyre"]
    (x0, y0), (w, h) = field.origin, field.extent
    xs = [x0 - 2e-9, x0 - 1e-9, x0, x0 + 7.0, x0 + w, x0 + w + 1e-9, x0 + w + 2e-9, math.nan]
    ys = [y0 - 2e-9, y0 - 1e-9, y0, y0 + 3.0, y0 + h, y0 + h + 1e-9, y0 + h + 2e-9]
    rows = np.array([(x, y) for x in xs for y in ys])
    want = [x0 - 1e-9 <= x <= x0 + w + 1e-9 and y0 - 1e-9 <= y <= y0 + h + 1e-9 for x, y in rows.tolist()]
    got = field.contains(rows)
    assert got.dtype == bool and got.tolist() == want
    assert [field.contains(Point2(*p)) for p in rows.tolist()] == want
    assert all(type(field.contains(p)) is bool for p in rows[:3])
    assert field.contains(np.empty((0, 2))).shape == (0,)


def test_out_of_domain_rejected():
    field = gyre_field(GyreParams(0.5, 20.0), NO_NOISE)
    with pytest.raises(DomainError):
        field_velocity(field, Point2(41.0, 5.0))
    with pytest.raises(DomainError):
        field_velocity(field, Point2(5.0, -0.1))


def test_zero_noise_sampling_is_deterministic(rng):
    field = gyre_field(GyreParams(0.5, 20.0), NO_NOISE)
    p = Point2(7.0, 11.0)
    assert sample_disturbance(field, p, rng) == field_velocity(field, p)


def test_noise_statistics_match_parameters():
    field = gyre_field(GyreParams(0.5, 20.0), NoiseParams.isotropic(1.0))
    p = Point2(7.0, 11.0)
    rng = np.random.default_rng(7)
    samples = np.array([sample_disturbance(field, p, rng) for _ in range(100_000)])
    base = field_velocity(field, p)
    assert abs(samples[:, 0].mean() - base.vx) < 0.02
    assert abs(samples[:, 0].std() - 1.0) < 0.02
    wx = samples[:, 0] - base.vx
    wy = samples[:, 1] - base.vy
    corr = np.corrcoef(wx, wy)[0, 1]
    assert abs(corr) < 0.02


def test_fixed_seed_reproducible_bitwise():
    field = gyre_field(GyreParams(0.5, 20.0), NoiseParams.isotropic(2.0))
    p = Point2(3.0, 3.0)
    a = [sample_disturbance(field, p, np.random.default_rng(42)) for _ in range(1)]
    b = [sample_disturbance(field, p, np.random.default_rng(42)) for _ in range(1)]
    assert a == b


def _csv_lines(points):
    lines = ["x_km,y_km,vx_kmh,vy_kmh\n"]
    lines += [f"{x},{y},{vx},{vy}\n" for x, y, vx, vy in points]
    return lines


def test_load_zero_lattice():
    pts = [(2.0 * i, 2.0 * j, 0.0, 0.0) for j in range(2) for i in range(2)]
    field = load_grid_field(_csv_lines(pts), NO_NOISE)
    assert field_velocity(field, Point2(1.0, 1.7)) == (0.0, 0.0)


def test_load_round_trips_lattice_values():
    pts = [(2.0 * i, 2.0 * j, float(i * j), float(i - j)) for j in range(3) for i in range(3)]
    field = load_grid_field(_csv_lines(pts), NO_NOISE)
    for x, y, vx, vy in pts:
        got = field_velocity(field, Point2(x, y))
        assert got.vx == pytest.approx(vx, abs=1e-12)
        assert got.vy == pytest.approx(vy, abs=1e-12)


def test_load_missing_point_rejected():
    pts = [(2.0 * i, 2.0 * j, 0.0, 0.0) for j in range(3) for i in range(3)][:-1]
    with pytest.raises(FieldFormatError):
        load_grid_field(_csv_lines(pts), NO_NOISE)


def test_load_duplicate_point_rejected():
    pts = [(2.0 * i, 2.0 * j, 0.0, 0.0) for j in range(2) for i in range(2)]
    pts.append((0.0, 0.0, 1.0, 1.0))
    with pytest.raises(FieldFormatError):
        load_grid_field(_csv_lines(pts), NO_NOISE)


def test_load_names_the_first_duplicate_in_file_order():
    # Two slots are filled twice: (2, 2) by records 3 and 5 and (0, 4) by
    # records 7 and 9, so (4, 0) and (4, 4) are missing but every lattice
    # coordinate still occurs. Record 3 sits within the keying tolerance of
    # (2, 2); the offending record is record 5, the slot's second one.
    pts = [[2.0 * i, 2.0 * j, 0.0, 0.0] for j in range(3) for i in range(3)]
    pts[2][:2] = [2.0000004, 2.0]
    pts[8][:2] = [0.0, 4.0]
    with pytest.raises(FieldFormatError, match=r"^duplicate record at \(2\.0, 2\.0\)$"):
        load_grid_field(_csv_lines(pts), NO_NOISE)


def test_load_keys_records_within_tolerance_to_their_node():
    pts = [(2.0 * i, 2.0 * j, float(i), float(j)) for j in range(3) for i in range(4)]
    jitter = [(x + 4e-7 * (k % 3 - 1), y - 3e-7 * (k % 2), vx, vy) for k, (x, y, vx, vy) in enumerate(pts)]
    field = load_grid_field(_csv_lines(jitter[::-1]), NO_NOISE)
    assert field.grid.vx.tolist() == [[0.0, 1.0, 2.0, 3.0]] * 3
    assert field.grid.vy.tolist() == [[float(j)] * 4 for j in range(3)]


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", [0, 2, 3])
def test_load_non_finite_record_rejected_with_its_line(bad, column):
    pts = [[2.0 * i, 2.0 * j, 0.0, 0.0] for j in range(2) for i in range(2)]
    pts[2][column] = bad
    with pytest.raises(FieldFormatError, match=r"^line 4: "):
        load_grid_field(_csv_lines(pts), NO_NOISE)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({3: "0.0,2.0,0.0\n", 5: "abc,4.0,0.0,0.0\n"}, "line 4: expected 4 fields, got 3"),
        ({2: "abc,0.0,0.0,0.0\n", 4: "2.0,2.0,0.0,0.0,0.0\n"}, "line 3: could not convert string to float: 'abc'"),
        ({2: "inf,0.0,0.0,0.0\n", 5: "2.0\n"}, r"line 3: values must be finite, got \['inf', '0.0', '0.0', '0.0'\]"),
        # Eight cells on the two lines, as on two good ones.
        ({3: "0.0,2.0,0.0\n", 6: "2.0,4.0,0.0,0.0,0.0\n"}, "line 4: expected 4 fields, got 3"),
    ],
    ids=["short-before-unparsable", "unparsable-before-long", "non-finite-before-short", "short-and-long"],
)
def test_load_names_the_first_bad_line_whatever_its_fault(faults, message):
    lines = _csv_lines([(2.0 * i, 2.0 * j, 0.0, 0.0) for j in range(3) for i in range(3)])
    for index, text in faults.items():
        lines[index] = text
    with pytest.raises(FieldFormatError, match=f"^{message}$"):
        load_grid_field(lines, NO_NOISE)


def test_load_names_the_physical_line_after_blank_lines():
    lines = ["x_km,y_km,vx_kmh,vy_kmh\n", "\n", "\n", "0,0,0,0\n", "2,0,abc,0\n"]
    with pytest.raises(FieldFormatError, match="^line 5: could not convert string to float: 'abc'$"):
        load_grid_field(lines, NO_NOISE)


def test_load_names_a_record_over_lines_by_its_first_line():
    # The quote opened on line 3 is never closed: its record runs to the end.
    lines = _csv_lines([(2.0 * i, 2.0 * j, 0.0, 0.0) for j in range(2) for i in range(2)])
    lines[2] = '2.0,0.0,0.0,"0.0\n'
    with pytest.raises(FieldFormatError) as excinfo:
        load_grid_field(lines, NO_NOISE)
    cell = "0.0\n0.0,2.0,0.0,0.0\n2.0,2.0,0.0,0.0\n"
    assert str(excinfo.value) == f"line 3: could not convert string to float: {cell!r}"


@pytest.mark.parametrize("line", [1, 4], ids=["header", "body"])
def test_load_names_the_line_of_a_cell_over_the_csv_field_limit(line, tmp_path):
    lines = _csv_lines([(2.0 * i, 2.0 * j, 0.0, 0.0) for j in range(2) for i in range(2)])
    lines[line - 1] = "1" * (csv.field_size_limit() + 1) + lines[line - 1]
    message = rf"^line {line}: field larger than field limit \({csv.field_size_limit()}\)$"
    with pytest.raises(FieldFormatError, match=message):
        load_grid_field(lines, NO_NOISE)
    path = tmp_path / "field.csv"
    path.write_text("".join(lines))
    with pytest.raises(FieldFormatError, match=message):
        load_grid_field(path, NO_NOISE)


def test_load_skips_blank_and_whitespace_lines():
    lines = _csv_lines([(2.0 * i, 2.0 * j, float(i), float(j)) for j in range(2) for i in range(2)])
    lines[2:2] = ["\n", " , ,\t\n", "\r\n"]
    field = load_grid_field(lines + ["  \n"], NO_NOISE)
    assert field.grid.vx.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    assert field.grid.vy.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_load_28x28_lattice_extent():
    # 28x28 at 2 km spacing spans a 54x54 km box
    pts = [(2.0 * i, 2.0 * j, 0.1, -0.1) for j in range(28) for i in range(28)]
    field = load_grid_field(_csv_lines(pts), NO_NOISE)
    assert field.grid.nx == 28 and field.grid.ny == 28
    assert field.extent == (54.0, 54.0)
    assert field.contains(Point2(54.0, 54.0))
    assert not field.contains(Point2(54.1, 0.0))


def _reference_cluster(values):
    """The record loop that ``flowfield._cluster`` replaced: a sorted value
    opens a new cluster when it lies more than 1e-6 km above the current
    cluster's first value."""
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > 1e-6:
            out.append(v)
    return out


def _cluster_inputs():
    """Shuffled lattice coordinates, each repeated and jittered well within
    the tolerance; a chain whose steps each lie within 1e-6 km of the last
    value but not of the chain's first; and signed zeros."""
    rng = np.random.default_rng(23)
    cases = {}
    for cell, origin, n in [(1.0 / 0.6, 0.0, 9), (40.0 / 24.0, -3.2, 25), (0.3, 1e5, 40)]:
        lattice = origin + cell * np.arange(n)
        values = np.repeat(lattice, 7) + rng.uniform(-4e-7, 4e-7, 7 * n)
        cases[f"jittered-{n}"] = rng.permutation(values)
    chain = 2.0 + 0.6e-6 * np.arange(12)
    cases["chain"] = rng.permutation(np.concatenate([chain, chain + 5.0, [2.0 + 1e-6, 2.0 + 1e-6 + 1e-12]]))
    cases["signed-zeros"] = np.array([0.0, -0.0, 5e-7, -0.0, 1.0, -1e-7, 1.0 + 1e-6])
    cases["negative-zero-first"] = np.array([-0.0, 0.0, 3.0, 3.0])
    # Long enough that an unstable sort may put a -0.0 first.
    cases["many-signed-zeros"] = np.concatenate([np.tile([0.0, -0.0], 8), [2.0, 2.0 + 1e-7, 1.0]])
    return cases


@pytest.mark.parametrize("name", list(_cluster_inputs()))
def test_cluster_equals_the_record_loop(name):
    values = _cluster_inputs()[name]
    got = flowfield._cluster(values)
    want = np.array(_reference_cluster(values.tolist()))
    assert got.tobytes() == want.tobytes()  # the sign of a zero too
    if name == "chain":
        # A threshold on consecutive differences would find fewer clusters.
        assert 1 + (np.diff(np.sort(values)) > 1e-6).sum() < len(want)


def _reference_load_grid_field(lines, noise):
    """The csv-module reader that ``np.loadtxt`` stands in for: every
    record through ``csv.reader`` and ``float``, then the lattice checks. A
    record is named by the line it ends on, which is the line it starts on
    for every record of ``_csv_inputs``."""
    reader = csv.reader(lines)
    records = [(reader.line_num, row) for row in reader if "".join(row).strip()]
    if not records:
        raise FieldFormatError("empty input")
    header = [cell.strip() for cell in records[0][1]]
    if header != ["x_km", "y_km", "vx_kmh", "vy_kmh"]:
        raise FieldFormatError(f"unexpected header {header}")
    body = []
    for lineno, row in records[1:]:
        if len(row) != 4:
            raise FieldFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            body.append([float(cell) for cell in row])
        except ValueError as exc:
            raise FieldFormatError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, body[-1])):
            raise FieldFormatError(f"line {lineno}: values must be finite, got {row}")
    table = np.array(body, dtype=float).reshape(-1, 4)
    xs = _reference_cluster(table[:, 0].tolist())
    ys = _reference_cluster(table[:, 1].tolist())
    nx, ny = len(xs), len(ys)
    if nx < 2 or ny < 2:
        raise FieldFormatError(f"lattice must be at least 2x2, got {nx}x{ny}")
    if nx * ny != len(table):
        raise FieldFormatError(f"expected {nx}x{ny} = {nx * ny} lattice records, got {len(table)}")
    dxs, dys = np.diff(xs), np.diff(ys)
    cell = float(dxs[0])
    if not (np.allclose(dxs, cell, atol=1e-6) and np.allclose(dys, cell, atol=1e-6)):
        raise FieldFormatError("lattice spacing is not uniform and square")
    slot = flowfield._nearest(np.asarray(ys), table[:, 1]) * nx + flowfield._nearest(np.asarray(xs), table[:, 0])
    repeat = np.ones(len(slot), dtype=bool)
    repeat[np.unique(slot, return_index=True)[1]] = False
    if repeat.any():
        x, y = table[int(np.argmax(repeat)), :2].tolist()
        raise FieldFormatError(f"duplicate record at ({x}, {y})")
    velocity = np.empty((nx * ny, 2))
    velocity[slot] = table[:, 2:]
    vx, vy = velocity.T.reshape(2, ny, nx)
    return grid_field(GridSamples(Point2(float(xs[0]), float(ys[0])), cell, nx, ny, vx, vy), noise)


def _load_outcome(load, lines):
    """What a loader makes of ``lines``: the samples as bytes, or the
    FieldFormatError message."""
    try:
        grid = load(list(lines), NO_NOISE).grid
    except FieldFormatError as exc:
        return "error", str(exc)
    return grid.nx, grid.ny, np.array([*grid.origin, grid.cell_km]).tobytes(), grid.vx.tobytes(), grid.vy.tobytes()


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Spellings of a cell value that both readers take, and spellings that only
# the csv module's float reads (quoted, underscores, non-ASCII digits) or
# neither does (a trailing ASCII separator, which numpy strips as whitespace;
# a trailing comma; non-finite values).
_PLAIN = {
    "repr": repr,
    "exponent": lambda v: f"{v:.17e}",
    "padded": lambda v: f" {v!r}\t",
    "short": lambda v: f"{v:.3g}",  # rounds: for velocities only
}
_ODD = {
    "quoted": lambda v: f'"{v!r}"',
    "underscore": lambda v: f"{v:.3f}".replace(".", "_0."),
    "arabic-indic": lambda v: repr(v).translate(_ARABIC_INDIC),
    "separator": lambda v: f"{v!r}\x1c",
    "trailing-comma": lambda v: f"{v!r},",
    "nan": lambda v: "nan",
    "inf": lambda v: "-inf",
}
_EXTRA_LINES = ["\n", "\r\n", "  \t\n", " , ,\n", "# a comment\n"]


@st.composite
def _csv_inputs(draw):
    """A small lattice field as CSV lines: shuffled records of plain cells,
    at most one odd cell, blank or other extra lines, and now and then a
    header without a body or a wrong header."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    cell = draw(st.sampled_from([1.0, 0.7, 40.0 / 24.0, 2.5e-3]))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (-3.0, 2.5), (0.3, -1.1)]))
    value = st.floats(-5.0, 5.0, allow_subnormal=False)
    records = [[x0 + i * cell, y0 + j * cell, draw(value), draw(value)] for j in range(ny) for i in range(nx)]
    records = draw(st.permutations(records))
    coordinate, velocity = st.sampled_from(["repr", "exponent", "padded"]), st.sampled_from(list(_PLAIN))
    cells = [[_PLAIN[draw(coordinate if k < 2 else velocity)](v) for k, v in enumerate(r)] for r in records]
    odd = draw(st.sampled_from([None] * len(_ODD) + list(_ODD)))
    if odd is not None:
        r, k = draw(st.integers(0, len(cells) - 1)), draw(st.integers(0, 3))
        cells[r][k] = _ODD[odd](records[r][k])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) + end for row in cells]
    if draw(st.sampled_from([False] * 7 + [True])):
        lines = []  # a header with no body
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(_EXTRA_LINES[:2] * 3 + _EXTRA_LINES[2:]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    header = draw(st.sampled_from(["x_km,y_km,vx_kmh,vy_kmh"] * 6 + [" x_km , y_km,vx_kmh,vy_kmh\t", "x,y,vx,vy"]))
    return ["\n"] * draw(st.integers(0, 1)) + [header + end] + lines


@given(lines=_csv_inputs())
@settings(max_examples=300, deadline=None)
def test_load_grid_field_reads_as_the_csv_module_does(lines):
    assert _load_outcome(load_grid_field, lines) == _load_outcome(_reference_load_grid_field, lines)


def _plain_lines(end="\n"):
    rng = np.random.default_rng(3)
    points = [(i / 0.6, j / 0.6, *rng.normal(size=2).tolist()) for j in range(3) for i in range(4)]
    return [f"x_km,y_km,vx_kmh,vy_kmh{end}", end] + [f"{x!r},{y!r},{u!r},{v!r}{end}" for x, y, u, v in points]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_a_plain_body_takes_numpys_reader(end, tmp_path, monkeypatch):
    lines = _plain_lines(end)
    table = flowfield._loadtxt_body(lines[1:])
    assert table is not None and table.tobytes() == flowfield._read_table(lines).tobytes()
    path = tmp_path / "field.csv"
    path.write_text("".join(lines), newline="")
    assert _load_outcome(lambda _, noise: load_grid_field(path, noise), lines) == _load_outcome(
        _reference_load_grid_field, lines
    )
    monkeypatch.setattr(flowfield, "_loadtxt_body", lambda body: None)  # the record loop alone
    assert table.tobytes() == flowfield._read_table(lines).tobytes()


@pytest.mark.parametrize(
    "cell",
    ['"1.0"', "1_0.0", "١.0", "1.0\x1c", "nan", " , "],
    ids=["quoted", "underscore", "non-ascii-digit", "ascii-separator", "non-finite", "blank-cell"],
)
def test_a_body_numpy_may_read_apart_goes_to_the_csv_module(cell):
    lines = _plain_lines()
    lines[3] = lines[3].replace(lines[3].split(",")[2], cell, 1)
    assert flowfield._loadtxt_body(lines[1:]) is None


@pytest.mark.parametrize("body", [[], ["\n", "\r\n"], ["  \t\n", "\n"]], ids=["none", "empty-lines", "whitespace"])
def test_a_header_without_records_never_reaches_loadtxt(body, monkeypatch):
    # np.loadtxt warns "input contained no data" here, and a warning fails the suite.
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    with pytest.raises(FieldFormatError, match=r"^lattice must be at least 2x2, got 0x0$"):
        load_grid_field(["x_km,y_km,vx_kmh,vy_kmh\n", *body], NO_NOISE)
