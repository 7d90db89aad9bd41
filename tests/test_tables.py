"""contour_points against the former per-edge loop, bit for bit."""

import math
from functools import lru_cache

import numpy as np
import pytest

from workreal.squeezing import squeeze_grid_sweep
from workreal.tables import contour_points


def former_contour_points(x_values, y_values, z, level):
    """The former contour_points: one Python test per node and per edge, the points
    gathered in a set and sorted."""
    f = z - level
    points = set()
    for i, j in zip(*np.nonzero(f == 0.0)):
        points.add((float(x_values[i]), float(y_values[j])))
    for i in range(f.shape[0] - 1):
        for j in range(f.shape[1]):
            a, b = f[i, j], f[i + 1, j]
            if (a < 0 < b) or (b < 0 < a):
                t = a / (a - b)
                points.add((float(x_values[i] + t * (x_values[i + 1] - x_values[i])),
                            float(y_values[j])))
    for i in range(f.shape[0]):
        for j in range(f.shape[1] - 1):
            a, b = f[i, j], f[i, j + 1]
            if (a < 0 < b) or (b < 0 < a):
                t = a / (a - b)
                points.add((float(x_values[i]),
                            float(y_values[j] + t * (y_values[j + 1] - y_values[j]))))
    if not points:
        return np.empty((0, 2))
    return np.array(sorted(points))


@lru_cache(maxsize=None)
def k_en_grid(beta, spec, n_max=None, middle_entropy="initial"):
    start, stop, count = spec
    grid = np.linspace(start, stop, count)
    table = squeeze_grid_sweep(beta, grid, grid, n_max=n_max,
                               middle_entropy=middle_entropy)
    return grid, table.column("k_en").reshape(count, count)


def assert_same_points(x, y, z, level):
    points = contour_points(x, y, z, level)
    expected = former_contour_points(x, y, z, level)
    assert points.shape == expected.shape and points.dtype == expected.dtype
    assert np.array_equal(points, expected)
    assert np.array_equal(np.signbit(points), np.signbit(expected))
    return len(points)


# the CLI's default grid, and the smaller grids the benchmark and tests run
@pytest.mark.parametrize("beta, spec", [
    (0.1, (0.0, 0.1, 101)), (0.1, (0.0, 0.1, 21)), (1.0, (0.0, 0.1, 21)),
    (0.1, (0.0, 0.1, 31)), (3.0, (0.0, 0.1, 41)),
], ids=["default", "21-beta-0.1", "21-beta-1", "31-beta-0.1", "41-beta-3"])
@pytest.mark.parametrize("unit", [1.0, math.log(2)], ids=["nats", "bits"])
def test_sweep_grids_equal_the_former_loop(beta, spec, unit):
    grid, z = k_en_grid(beta, spec)
    counts = [assert_same_points(grid, grid, z / unit, level) for level in (0.0, -0.05)]
    assert counts[0] > 0


def test_a_grid_with_crossings_at_both_levels():
    """With the middle entropy measured at beta 1, the deepest cell of the
    0:0.3:7 grid is about -0.045 nats, below the -0.05 level in bits."""
    grid, z = k_en_grid(1.0, (0.0, 0.3, 7), n_max=96, middle_entropy="measured")
    counts = [assert_same_points(grid, grid, z / math.log(2), level)
              for level in (0.0, -0.05)]
    assert min(counts) > 0


def test_zeros_of_both_signs():
    """A grid that starts at -0, with node zeros of both signs, and two crossings
    whose t underflows to 0: the x edge from (-0, -0) lands on (+0, -0) and the y
    edge on (-0, +0).  They are equal points; the one found first, on the x edge,
    stays, as it did in the former set."""
    x = np.array([-0.0, 0.5, 1.0])
    y = np.array([-0.0, 1.0, 2.0])
    z = np.array([[-5e-324, 1e300, 0.0],
                  [1e300, -1.0, 0.5],
                  [-0.0, 2.0, -3.0]])
    points = contour_points(x, y, z, 0.0)
    assert assert_same_points(x, y, z, 0.0) == len(points) > 4
    assert [np.signbit(v) for v in points[0]] == [False, True]
    assert_same_points(x, y, z, 1.0)
    assert contour_points(x, y, np.ones((3, 3)), 0.0).shape == (0, 2)


def test_many_points_equal_but_for_the_sign_of_zero():
    """Forty such pairs: the x edges from x = -0 give (+0, y_j) and the y edges
    along x = -0 give (-0, y_j), with t underflowing to 0 or rounding to 1.  Of
    each pair the x-edge point, found first, stays."""
    y = np.arange(80) * 0.25
    row = np.where(np.arange(80) % 2 == 0, -5e-324, 1e300)
    z = np.stack([row, np.full(80, 1e300)])
    x = np.array([-0.0, 1.0])
    points = contour_points(x, y, z, 0.0)
    assert assert_same_points(x, y, z, 0.0) == 40
    assert not np.any(np.signbit(points[:, 0]))


def test_a_zero_node_next_to_a_negative_one_is_no_crossing():
    """An edge from a negative node to a zero node is not crossed: its t would be
    1, and 0.7 + (0.1 - 0.7) lands one ulp below the zero node at x = 0.1."""
    x = np.array([0.7, 0.1])
    y = np.array([0.7, 0.1, -0.5])
    z = np.array([[-1.0, 0.0, 1.0],
                  [0.0, -2.0, 0.5]])
    assert assert_same_points(x, y, z, 0.0) == 3
