import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan.errors import DomainError, FieldFormatError
from flowplan.flowfield import (
    GridSamples,
    GyreParams,
    NoiseParams,
    Point2,
    field_velocity,
    grid_field,
    gyre_field,
    gyre_velocity,
    load_grid_field,
    sample_disturbance,
)

NO_NOISE = NoiseParams.isotropic(0.0)


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


def test_load_28x28_lattice_extent():
    # 28x28 at 2 km spacing spans a 54x54 km box
    pts = [(2.0 * i, 2.0 * j, 0.1, -0.1) for j in range(28) for i in range(28)]
    field = load_grid_field(_csv_lines(pts), NO_NOISE)
    assert field.grid.nx == 28 and field.grid.ny == 28
    assert field.extent == (54.0, 54.0)
    assert field.contains(Point2(54.0, 54.0))
    assert not field.contains(Point2(54.1, 0.0))
