"""Geometry kernels checked against brute-force point-sampling oracles and
against all-boxes numpy reference kernels."""
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posgraph
from posgraph import Box, GapRect, Pose, RobotProfile, WorldModel, builtin_scenario, pose_distance
from posgraph.world import (
    DEFAULT_METRIC_WEIGHTS,
    GRID_CELL,
    TWO_PI,
    DiscFootprint,
    RectFootprint,
    VolumeSpec,
    _disc_hits_any,
    _floor_solid_batch,
    _linspace,
    _rect_corner_tuples,
    _rect_hits_any,
    _volume_clear_batch,
    floor_point_solid,
    floor_solid,
    gap_within,
    interpolate_poses,
    normalize_angle,
    parabola_clear,
    sample_pose,
    segment_crosses_gap,
    sweep_open,
    sweep_steps,
    swept_clear,
    volume_clear,
)

from conftest import make_random_world, near_edge_pose, near_edge_worlds, step_from


# -- oracles --------------------------------------------------------------


def disc_hits_box_oracle(cx, cy, r, zlo, zhi, box, step=0.0005):
    """Sample the disc interior; penetration means some sample strictly
    inside the box while the z bands overlap."""
    if not (zlo < box.z[1] and box.z[0] < zhi):
        return False
    n = int(r / step)
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            dx, dy = i * step, j * step
            if dx * dx + dy * dy >= r * r:
                continue
            x, y = cx + dx, cy + dy
            if box.x[0] < x < box.x[1] and box.y[0] < y < box.y[1]:
                return True
    return False


def rect_hits_box_oracle(cx, cy, theta, length, width, box, step=0.002):
    """Sample the oriented rectangle interior against the box interior."""
    ct, st = math.cos(theta), math.sin(theta)
    nu = int(length / 2 / step)
    nv = int(width / 2 / step)
    for i in range(-nu, nu + 1):
        for j in range(-nv, nv + 1):
            u, v = i * step, j * step
            x = cx + u * ct - v * st
            y = cy + u * st + v * ct
            if box.x[0] < x < box.x[1] and box.y[0] < y < box.y[1]:
                return True
    return False


def point_box_clearance(px, py, box):
    dx = max(box.x[0] - px, px - box.x[1], 0.0)
    dy = max(box.y[0] - py, py - box.y[1], 0.0)
    return math.hypot(dx, dy)


# -- numpy reference kernels ----------------------------------------------
# Every sample against every box, by the float expressions the library's
# scalar kernels evaluate, so the two must agree bit for bit. The library
# adds a broad phase per sweep and arc; these references have none.


def obstacle_rows(world):
    """[xlo, xhi, ylo, yhi, zlo, zhi] per obstacle."""
    return np.array([[*b.x, *b.y, *b.z] for b in world.obstacles], dtype=float).reshape(-1, 6)


def gap_rows(world):
    """[xlo, xhi, ylo, yhi] per floor gap."""
    return np.array([[*g.x, *g.y] for g in world.gaps], dtype=float).reshape(-1, 4)


def band_rows(world, z_band):
    """The [xlo, xhi, ylo, yhi] rows of the obstacles strictly overlapping the z band."""
    obs = obstacle_rows(world)
    zlo, zhi = z_band
    return obs[(obs[:, 4] < zhi) & (obs[:, 5] > zlo)][:, 0:4]


def discs_hit_aabbs(xs, ys, radius, sel) -> bool:
    """True if any disc strictly penetrates any row of [xlo, xhi, ylo, yhi]."""
    xs = np.asarray(xs, dtype=float)[:, None]
    ys = np.asarray(ys, dtype=float)[:, None]
    dx = np.maximum(np.maximum(sel[None, :, 0] - xs, xs - sel[None, :, 1]), 0.0)
    dy = np.maximum(np.maximum(sel[None, :, 2] - ys, ys - sel[None, :, 3]), 0.0)
    return bool((dx * dx + dy * dy < radius * radius).any())


def rects_overlap_aabbs(xs, ys, thetas, length, width, rects) -> np.ndarray:
    """Overlap matrix, placements x rows, in one separating-axis pass."""
    c = np.array([math.cos(t) for t in thetas])[:, None]
    s = np.array([math.sin(t) for t in thetas])[:, None]
    cx = np.asarray(xs, dtype=float)[:, None]
    cy = np.asarray(ys, dtype=float)[:, None]
    hl = 0.5 * length
    hw = 0.5 * width
    bcx = 0.5 * (rects[:, 0] + rects[:, 1])
    bcy = 0.5 * (rects[:, 2] + rects[:, 3])
    bhx = 0.5 * (rects[:, 1] - rects[:, 0])
    bhy = 0.5 * (rects[:, 3] - rects[:, 2])
    ac = np.abs(c)
    as_ = np.abs(s)
    ox = np.abs(cx - bcx) < ac * hl + as_ * hw + bhx
    oy = np.abs(cy - bcy) < as_ * hl + ac * hw + bhy
    cu = c * cx + s * cy
    cw = -s * cx + c * cy
    ou = np.abs(cu - (c * bcx + s * bcy)) < hl + ac * bhx + as_ * bhy
    ow = np.abs(cw - (-s * bcx + c * bcy)) < hw + as_ * bhx + ac * bhy
    return ox & oy & ou & ow


def spheres_hit_boxes(xs, ys, zs, radius, obs) -> bool:
    """True if any sphere strictly penetrates any obstacle row."""
    xs, ys, zs = (np.asarray(v, dtype=float)[:, None] for v in (xs, ys, zs))
    dx = np.maximum(np.maximum(obs[None, :, 0] - xs, xs - obs[None, :, 1]), 0.0)
    dy = np.maximum(np.maximum(obs[None, :, 2] - ys, ys - obs[None, :, 3]), 0.0)
    dz = np.maximum(np.maximum(obs[None, :, 4] - zs, zs - obs[None, :, 5]), 0.0)
    return bool((dx * dx + dy * dy + dz * dz < radius * radius).any())


def rect_corners(cx, cy, theta, length, width) -> np.ndarray:
    """The four corners of an oriented rectangle, one row each."""
    u = np.array([math.cos(theta), math.sin(theta)]) * (0.5 * length)
    w = np.array([-math.sin(theta), math.cos(theta)]) * (0.5 * width)
    ctr = np.array([cx, cy], dtype=float)
    return np.array([ctr + u + w, ctr + u - w, ctr - u + w, ctr - u - w])


def reference_interpolate(p0, p1, n):
    """xs, ys, thetas of `interpolate_poses`, by numpy."""
    t = np.linspace(0.0, 1.0, n + 1)
    r = np.mod(p0.theta + normalize_angle(p1.theta - p0.theta) * t + math.pi, TWO_PI)
    r[r == 0.0] = TWO_PI
    return np.linspace(p0.x, p1.x, n + 1), np.linspace(p0.y, p1.y, n + 1), r - math.pi


def reference_volume_clear_batch(xs, ys, thetas, vol, world) -> bool:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    bx, by = world.bounds_x, world.bounds_y
    if not ((xs >= bx[0]) & (xs <= bx[1]) & (ys >= by[0]) & (ys <= by[1])).all():
        return False
    sel = band_rows(world, vol.z_band)
    if sel.shape[0] == 0:
        return True
    fp = vol.footprint
    if isinstance(fp, DiscFootprint):
        return not discs_hit_aabbs(xs, ys, fp.radius, sel)
    return not rects_overlap_aabbs(xs, ys, thetas, fp.length, fp.width, sel).any()


def reference_swept_clear(p0, p1, vol, world, res) -> bool:
    xs, ys, ths = reference_interpolate(p0, p1, sweep_steps(p0, p1, vol, res))
    return reference_volume_clear_batch(xs, ys, ths, vol, world)


def reference_parabola_clear(p0, p1, apex_rise, radius, world, res) -> bool:
    dx, dy, dz = p1.x - p0.x, p1.y - p0.y, p1.h - p0.h
    chord = math.hypot(dx, dy)
    n = max(2, math.ceil(math.sqrt(chord * chord + (abs(dz) + 4.0 * apex_rise) ** 2) / res))
    s = np.linspace(0.0, 1.0, n + 1)
    zs = p0.h + dz * s + 4.0 * apex_rise * s * (1.0 - s)
    return not spheres_hit_boxes(p0.x + dx * s, p0.y + dy * s, zs, radius, obstacle_rows(world))


# -- strict-interior disc test -------------------------------------------


def test_disc_near_box_face_worked_example():
    """A 0.25 m disc whose center sits 0.26 m from a box face is clear;
    at 0.24 m it penetrates. Touching exactly does not collide."""
    box = Box((-1.0, 0.0), (-1.0, 1.0), (0.0, 2.0))
    world = WorldModel((-2.0, 3.0), (-2.0, 2.0), (box,), ())
    vol = VolumeSpec(DiscFootprint(0.25), (0.5, 1.5))

    assert volume_clear(Pose(0.26, 0.0, 0.0, 1.0), vol, world)
    assert not volume_clear(Pose(0.24, 0.0, 0.0, 1.0), vol, world)
    assert volume_clear(Pose(0.25, 0.0, 0.0, 1.0), vol, world)  # touching

    assert not disc_hits_box_oracle(0.26, 0.0, 0.25, 0.5, 1.5, box)
    assert disc_hits_box_oracle(0.24, 0.0, 0.25, 0.5, 1.5, box)


def test_disc_box_fuzz_against_oracle():
    rng = random.Random(11)
    box = Box((2.0, 3.0), (2.0, 3.5), (0.0, 1.0))
    boxes = WorldModel((0, 5), (0, 5), (box,), ()).band((0.2, 0.8))
    checked = 0
    for _ in range(300):
        cx = rng.uniform(1.0, 4.0)
        cy = rng.uniform(1.0, 4.5)
        r = rng.uniform(0.05, 0.4)
        clearance = point_box_clearance(cx, cy, box)
        if abs(clearance - r) < 2e-3:
            continue  # boundary cases are the sampling oracle's blind spot
        got = _disc_hits_any(cx, cy, r, boxes)
        want = disc_hits_box_oracle(cx, cy, r, 0.2, 0.8, box, step=0.001)
        assert got == want, (cx, cy, r)
        checked += 1
    assert checked > 200


def test_disc_z_band_disjoint_never_hits():
    world = WorldModel((0, 2), (0, 2), (Box((0.0, 1.0), (0.0, 1.0), (0.0, 0.6)),), ())
    assert not _disc_hits_any(0.5, 0.5, 0.3, world.band((0.7, 1.5)))
    # touching bands do not overlap
    assert not _disc_hits_any(0.5, 0.5, 0.3, world.band((0.6, 1.5)))
    assert _disc_hits_any(0.5, 0.5, 0.3, world.band((0.59, 1.5)))


def test_rect_box_fuzz_against_oracle():
    rng = random.Random(21)
    box = Box((2.0, 3.2), (1.5, 2.4), (0.0, 1.0))
    boxes = WorldModel((0, 5), (0, 4), (box,), ()).band((0.0, 1.0))
    checked = 0
    for _ in range(150):
        cx = rng.uniform(1.0, 4.2)
        cy = rng.uniform(0.5, 3.4)
        th = rng.uniform(-math.pi, math.pi)
        got = _rect_hits_any(cx, cy, math.cos(th), math.sin(th), 0.9, 0.5, boxes)
        want = rect_hits_box_oracle(cx, cy, th, 0.9, 0.5, box)
        if got != want:
            # only tolerable when the configuration is within sampling slop
            # of the boundary; re-test with a slightly grown/shrunk rect
            grown = _rect_hits_any(cx, cy, math.cos(th), math.sin(th), 0.91, 0.51, boxes)
            shrunk = _rect_hits_any(cx, cy, math.cos(th), math.sin(th), 0.89, 0.49, boxes)
            assert grown != shrunk, (cx, cy, th)
            continue
        checked += 1
    assert checked > 100


def test_rect_corners_shape():
    c = _rect_corner_tuples(1.0, 2.0, math.cos(math.pi / 2), math.sin(math.pi / 2), 0.9, 0.5)
    assert np.array(c).shape == (4, 2)
    # rotated 90 deg: length now along y
    ys = sorted(p[1] for p in c)
    assert ys[0] == pytest.approx(2.0 - 0.45)
    assert ys[-1] == pytest.approx(2.0 + 0.45)


# -- poses ----------------------------------------------------------------


def test_normalize_angle_half_open_range():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.0) == 0.0
    for a in (-9.0, -1.2, 0.4, 7.7):
        n = normalize_angle(a)
        assert -math.pi < n <= math.pi
        assert math.cos(n) == pytest.approx(math.cos(a))
        assert math.sin(n) == pytest.approx(math.sin(a))


def test_pose_rejects_negative_height():
    with pytest.raises(ValueError):
        Pose(0, 0, 0, -0.1)


def test_pose_rejects_non_finite_fields_by_name():
    # Pose(0, 0, nan, nan) used to construct, and an infinite theta raised
    # a bare "math domain error"
    for i, name in enumerate(("x", "y", "theta", "h")):
        for bad in (math.nan, math.inf, -math.inf):
            fields = [1.0, 2.0, 0.5, 1.0]
            fields[i] = bad
            with pytest.raises(ValueError, match=f"pose {name} must be finite, got {bad}"):
                Pose(*fields)
    # the first non-finite field is the one named
    with pytest.raises(ValueError, match="pose theta must be finite"):
        Pose(0, 0, math.nan, math.nan)
    # huge finite fields are fine, even where their sum overflows
    p = Pose(1e308, 1e308, 1e308, 1e308)
    assert (p.x, p.y, p.h) == (1e308, 1e308, 1e308) and -math.pi < p.theta <= math.pi


def test_pose_distance_shortest_arc_and_weights():
    a = Pose(0, 0, 3.0, 1.0)
    b = Pose(0, 0, -3.0, 1.0)
    # heading difference is 2*pi - 6 = 0.283, weighted by 0.3
    d = pose_distance(a, b)
    assert d == pytest.approx(0.3 * (2 * math.pi - 6.0))
    assert pose_distance(a, b) == pose_distance(b, a)
    assert pose_distance(a, a) == 0.0
    c = Pose(3, 4, 3.0, 1.0)
    assert pose_distance(a, c) == pytest.approx(5.0)
    assert DEFAULT_METRIC_WEIGHTS == (1.0, 1.0, 0.3, 1.0)
    # at the +-pi tie the heading difference may take either sign; its square
    # is the same float
    p, q = Pose(0, 0, math.pi, 1), Pose(0, 0, 0, 1)
    assert pose_distance(p, q) == math.sqrt((0.3 * normalize_angle(q.theta - p.theta)) ** 2)


def test_pose_distance_triangle_inequality_fuzz():
    rng = random.Random(5)
    for _ in range(200):
        ps = [Pose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-7, 7), rng.uniform(0, 2)) for _ in range(3)]
        ab = pose_distance(ps[0], ps[1])
        bc = pose_distance(ps[1], ps[2])
        ac = pose_distance(ps[0], ps[2])
        assert ac <= ab + bc + 1e-9


# -- world construction ---------------------------------------------------


def test_world_rejects_out_of_bounds_obstacle():
    with pytest.raises(ValueError, match="obstacle 0"):
        WorldModel((0, 5), (0, 5), (Box((4, 6), (0, 1), (0, 1)),), ())


def test_world_rejects_out_of_bounds_gap():
    with pytest.raises(ValueError, match="gap 1"):
        WorldModel(
            (0, 5),
            (0, 5),
            (),
            (GapRect((0, 1), (0, 1)), GapRect((4, 5.5), (0, 1))),
        )


def test_box_requires_ascending_ranges():
    with pytest.raises(ValueError):
        Box((1, 0), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        Box((0, 1), (0, 1), (2, 1))


def test_world_geometry_must_be_finite():
    # an infinite obstacle top made the ceiling, and so sampled heights, infinite
    cases = [
        (lambda: Box((0, 1), (0, 1), (0, math.inf)), "box z interval must be finite"),
        (lambda: Box((-math.inf, 1), (0, 1), (0, 1)), "box x interval must be finite"),
        (lambda: Box((0, 1), (0, math.nan), (0, 1)), "box y interval must be finite"),
        (lambda: GapRect((0, math.inf), (0, 1)), "gap x interval must be finite"),
        (lambda: GapRect((0, 1), (math.nan, 1)), "gap y interval must be finite"),
        (lambda: WorldModel((0, 1e400), (0, 5), (), ()), "world bounds must be finite"),
        (lambda: WorldModel((0, 5), (math.nan, 5), (), ()), "world bounds must be finite"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=message):
            make()
    # large finite geometry stays valid
    assert WorldModel((0, 1e308), (0, 5), (Box((0, 1), (0, 1), (0, 1e300)),), ()).ceiling == 1e300


def test_ceiling_property():
    w = WorldModel((0, 5), (0, 5), (), ())
    assert w.ceiling == 2.0
    w2 = WorldModel((0, 5), (0, 5), (Box((0, 1), (0, 1), (0, 3.2)),), ())
    assert w2.ceiling == 3.2


def test_ceiling_is_found_once_and_read_only():
    w = WorldModel((0, 5), (0, 5), (Box((0, 1), (0, 1), (0, 3.2)),), ())
    w.obstacles = ()  # the obstacles are not scanned again
    assert w.ceiling == 3.2
    with pytest.raises(AttributeError):
        w.ceiling = 5.0


# -- sweeps ---------------------------------------------------------------


def test_sweep_steps_formula():
    vol = VolumeSpec(DiscFootprint(0.25), (0.0, 1.6))
    p0 = Pose(0, 0, 0, 1.0)
    assert sweep_steps(p0, Pose(1.0, 0, 0, 1.0), vol, 0.05) == 20
    # pure rotation: arc length pi * 0.25, so ceil(0.7853/0.05) = 16
    assert sweep_steps(p0, Pose(0, 0, math.pi, 1.0), vol, 0.05) == 16
    # degenerate: at least one step
    assert sweep_steps(p0, p0, vol, 0.05) == 1
    # height change counts as translation
    assert sweep_steps(p0, Pose(0, 0, 0, 0.3), vol, 0.05) == 14


def test_interpolate_poses_endpoints_and_shortest_arc():
    p0 = Pose(1, 2, 3.0, 1.0)
    p1 = Pose(2, 1, -3.0, 0.3)
    xs, ys, ths = interpolate_poses(p0, p1, 10)
    assert len(xs) == len(ys) == len(ths) == 11
    assert (xs[0], ys[0]) == (1, 2)
    assert (xs[-1], ys[-1]) == (2, 1)
    assert ths[0] == pytest.approx(3.0)
    assert abs(abs(ths[5]) - math.pi) < 0.2  # midpoint crosses the pi seam
    assert math.cos(ths[-1]) == pytest.approx(math.cos(-3.0))


def test_swept_clear_through_doorway():
    walls = (
        Box((2.0, 3.0), (0.0, 0.7), (0.0, 2.0)),
        Box((2.0, 3.0), (1.3, 2.0), (0.0, 2.0)),
    )
    world = WorldModel((0, 5), (0, 2), walls, ())
    vol = VolumeSpec(DiscFootprint(0.25), (0.0, 1.6))
    mid = swept_clear(Pose(1.0, 1.0, 0, 1.0), Pose(4.0, 1.0, 0, 1.0), vol, world, 0.05)
    assert mid
    low = swept_clear(Pose(1.0, 0.4, 0, 1.0), Pose(4.0, 0.4, 0, 1.0), vol, world, 0.05)
    assert not low


def test_swept_clear_rect_rotation_catches_wall():
    wall = Box((0.0, 2.0), (0.40, 1.0), (0.0, 1.0))
    world = WorldModel((-2, 2), (-1, 1), (wall,), ())
    vol = VolumeSpec(RectFootprint(0.9, 0.5), (0.0, 0.6))
    p = Pose(0.0, 0.0, 0.0, 0.3)
    # aligned with x the rect's half-width 0.25 stays clear of the wall at 0.40
    assert volume_clear(p, vol, world)
    # rotating in place swings the 0.45 half-length into it
    q = Pose(0.0, 0.0, math.pi / 2, 0.3)
    assert not volume_clear(q, vol, world)
    assert not swept_clear(p, q, vol, world, 0.05)


# -- floor ----------------------------------------------------------------


def test_floor_point_solid_gap_strict_interior():
    world = WorldModel((0, 10), (0, 6), (), (GapRect((4.0, 5.0), (0.0, 6.0)),))
    assert floor_point_solid(3.99, 1.0, world)
    assert floor_point_solid(4.0, 1.0, world)  # boundary is solid
    assert not floor_point_solid(4.5, 1.0, world)
    assert floor_point_solid(5.0, 1.0, world)
    assert not floor_point_solid(-0.1, 1.0, world)  # out of bounds


def test_floor_solid_disc_margin():
    world = WorldModel((0, 10), (0, 6), (), (GapRect((4.0, 5.0), (0.0, 6.0)),))
    foot = DiscFootprint(0.25)
    assert floor_solid(Pose(3.75, 3.0, 0, 1.0), foot, world)  # touching edge
    assert not floor_solid(Pose(3.80, 3.0, 0, 1.0), foot, world)
    assert floor_solid(Pose(5.25, 3.0, 0, 1.0), foot, world)
    # fully inside bounds requirement
    assert not floor_solid(Pose(0.2, 3.0, 0, 1.0), foot, world)
    assert floor_solid(Pose(0.25, 3.0, 0, 1.0), foot, world)


def test_floor_solid_rect_orientation_matters():
    world = WorldModel((0, 10), (0, 6), (), (GapRect((4.0, 5.0), (1.0, 6.0)),))
    foot = RectFootprint(0.9, 0.5)
    along_y = Pose(4.5, 0.4, math.pi / 2, 0.3)  # long axis parallel to gap edge
    assert not floor_solid(along_y, foot, world)  # rect pokes into the gap
    below = Pose(4.5, 0.7, 0.0, 0.3)
    assert floor_solid(below, foot, world)


# -- ballistic arc clearance ---------------------------------------------


def test_parabola_clear_open_world():
    world = WorldModel((0, 10), (0, 6), (), (GapRect((4.0, 5.0), (0.0, 6.0)),))
    # gaps never block flight
    assert parabola_clear(Pose(3.5, 3.0, 0, 1.0), Pose(5.5, 3.0, 0, 0.3), 0.4, 0.35, world, 0.05)


def test_parabola_blocked_by_overhead_bar():
    bar = Box((4.0, 4.4), (0.0, 6.0), (0.7, 1.9))
    world = WorldModel((0, 10), (0, 6), (bar,), ())
    assert not parabola_clear(Pose(3.5, 3.0, 0, 1.0), Pose(5.0, 3.0, 0, 0.3), 0.2, 0.35, world, 0.05)
    assert not parabola_clear(Pose(3.5, 3.0, 0, 1.0), Pose(5.0, 3.0, 0, 0.3), 0.6, 0.35, world, 0.05)


def test_parabola_apex_clears_low_block():
    block = Box((4.1, 4.4), (0.0, 6.0), (0.0, 0.62))
    world = WorldModel((0, 10), (0, 6), (block,), ())
    p0 = Pose(3.8, 3.0, 0, 1.0)
    p1 = Pose(5.0, 3.0, 0, 0.3)
    # low arc: body sphere comes within 0.35 of the block top over it
    assert not parabola_clear(p0, p1, 0.2, 0.35, world, 0.05)
    # a higher apex buys the clearance back
    assert parabola_clear(p0, p1, 0.6, 0.35, world, 0.05)


def test_parabola_rejects_negative_apex():
    world = WorldModel((0, 10), (0, 6), (), ())
    with pytest.raises(ValueError):
        parabola_clear(Pose(1, 1, 0, 1.0), Pose(2, 1, 0, 0.3), -0.1, 0.35, world, 0.05)


# -- gaps under segments --------------------------------------------------


def test_segment_crosses_gap_cases():
    world = WorldModel((0, 10), (0, 6), (), (GapRect((4.0, 5.0), (2.0, 4.0)),))
    assert segment_crosses_gap(world, 3.0, 3.0, 6.0, 3.0)
    assert not segment_crosses_gap(world, 3.0, 1.0, 6.0, 1.0)  # passes south
    assert not segment_crosses_gap(world, 3.0, 2.0, 6.0, 2.0)  # skims the border
    assert not segment_crosses_gap(world, 0.0, 0.0, 4.0, 3.0)  # ends at the border
    assert segment_crosses_gap(world, 4.2, 2.5, 4.4, 3.5)  # fully inside
    assert segment_crosses_gap(world, 4.5, 0.0, 4.5, 6.0)  # vertical through


# -- sampling -------------------------------------------------------------


def test_sample_pose_deterministic_and_in_range():
    world = WorldModel((1, 4), (2, 8), (Box((1, 2), (2, 3), (0, 2.6)),), ())
    a = random.Random(3)
    b = random.Random(3)
    pa = [sample_pose(world, a) for _ in range(50)]
    pb = [sample_pose(world, b) for _ in range(50)]
    assert pa == pb
    for p in pa:
        assert 1 <= p.x <= 4 and 2 <= p.y <= 8
        assert -math.pi < p.theta <= math.pi
        assert 0 <= p.h <= 2.6


def test_robot_profile_validation():
    RobotProfile()  # defaults are coherent
    with pytest.raises(ValueError):
        RobotProfile(h_walk=0.2)  # walk band below crawl band
    with pytest.raises(ValueError):
        RobotProfile(jump_angle_min=1.5, jump_angle_max=1.0)
    for bad in ({"stride": 0.0}, {"g": -9.81}, {"v_max": math.inf}, {"h_walk": math.nan}, {"r_jump": "0.35"}, {"res": True}):
        with pytest.raises(ValueError, match=f"profile {next(iter(bad))} must be"):
            RobotProfile(**bad)


# -- scalar single-pose kernels vs the batch kernels -----------------------


def _reference_volume_clear(pose, vol, world):
    """One-pose numpy test over all obstacles, z band filtered per call."""
    return reference_volume_clear_batch([pose.x], [pose.y], [pose.theta], vol, world)


def _reference_floor_solid(pose, fp, world):
    """Footprint support by numpy over every gap row."""
    bx, by = world.bounds_x, world.bounds_y
    if isinstance(fp, DiscFootprint):
        corners = np.array([[pose.x - fp.radius, pose.y - fp.radius], [pose.x + fp.radius, pose.y + fp.radius]])
    else:
        corners = rect_corners(pose.x, pose.y, pose.theta, fp.length, fp.width)
    if not (
        (corners[:, 0] >= bx[0] - 1e-12).all()
        and (corners[:, 0] <= bx[1] + 1e-12).all()
        and (corners[:, 1] >= by[0] - 1e-12).all()
        and (corners[:, 1] <= by[1] + 1e-12).all()
    ):
        return False
    g = gap_rows(world)
    if g.shape[0] == 0:
        return True
    if isinstance(fp, DiscFootprint):
        return not discs_hit_aabbs([pose.x], [pose.y], fp.radius, g)
    return not rects_overlap_aabbs([pose.x], [pose.y], [pose.theta], fp.length, fp.width, g).any()


# floor-level volumes (walk and crawl bodies, thin probes) and a band that
# only raised bars reach
KERNEL_VOLUMES = (
    VolumeSpec(DiscFootprint(0.25), (0.0, 1.6)),
    VolumeSpec(DiscFootprint(0.05), (0.05, 1.5)),
    VolumeSpec(RectFootprint(0.9, 0.5), (0.0, 0.6)),
    VolumeSpec(RectFootprint(0.95, 0.55), (0.0, 1.6)),
    VolumeSpec(DiscFootprint(0.3), (1.0, 1.6)),
    VolumeSpec(RectFootprint(0.9, 0.5), (1.0, 1.6)),
    VolumeSpec(DiscFootprint(0.625), (0.0, 1.5)),
    VolumeSpec(RectFootprint(1.0, 0.5), (0.0, 0.5)),
)
KERNEL_FOOTPRINTS = (
    DiscFootprint(0.25),
    DiscFootprint(0.625),
    RectFootprint(0.9, 0.5),
    RectFootprint(0.95, 0.55),
    RectFootprint(1.0, 0.5),
)


def _check_kernels_agree(world, poses):
    for vol in KERNEL_VOLUMES:
        for p in poses:
            want = _reference_volume_clear(p, vol, world)
            assert volume_clear(p, vol, world) == want, (p, vol)
            assert _volume_clear_batch([p.x], [p.y], [p.theta], vol, world) == want, (p, vol)
        xs, ys, ths = ([getattr(p, a) for p in poses] for a in ("x", "y", "theta"))
        assert _volume_clear_batch(xs, ys, ths, vol, world) == all(volume_clear(p, vol, world) for p in poses)
    for fp in KERNEL_FOOTPRINTS:
        for p in poses:
            want = _reference_floor_solid(p, fp, world)
            assert floor_solid(p, fp, world) == want, (p, fp)
            assert _floor_solid_batch([p.x], [p.y], [p.theta], fp, world) == want, (p, fp)
    for p in poses:
        g = gap_rows(world)
        inside = ((g[:, 0] < p.x) & (p.x < g[:, 1]) & (g[:, 2] < p.y) & (p.y < g[:, 3])).any()
        assert floor_point_solid(p.x, p.y, world) == (world.contains(p.x, p.y) and not inside), p


def test_scalar_kernels_match_batch_on_random_poses():
    checked = 0
    for seed in range(6):
        rng = random.Random(100 + seed)
        world = make_random_world(rng, with_gaps=True)
        poses = [
            Pose(rng.uniform(-0.2, 10.2), rng.uniform(-0.2, 8.2), rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 1.2))
            for _ in range(120)
        ]
        _check_kernels_agree(world, poses)
        checked += len(poses)
    assert checked == 720


def _tie(lhs, rhs, c):
    """A value within 32 ulps of c where lhs(value) == rhs exactly, or None."""
    for _ in range(32):
        c = math.nextafter(c, -math.inf)
    for _ in range(64):
        if lhs(c) == rhs:
            return c
        c = math.nextafter(c, math.inf)
    return None


def _exact_contacts():
    """A world with dyadic bounds, named poses whose shapes touch its boxes
    and gap exactly, the same contacts found by ulp search for rotated
    rectangles, and copies of all of these nudged by 1e-12 and turned."""
    world = WorldModel(
        (0.0, 8.0),
        (0.0, 8.0),
        (Box((2.0, 3.0), (2.0, 3.0), (0.0, 2.0)), Box((5.0, 6.0), (1.0, 7.0), (0.75, 1.875))),
        (GapRect((2.0, 3.0), (5.0, 6.0)),),
    )
    named = {
        # disc touching a face, then a corner (a 3-4-5 triangle scaled by 1/8)
        "face": Pose(2.0 - 0.625, 2.5, 0.0, 1.0),
        "corner": Pose(3.0 + 0.375, 3.0 + 0.5, 0.0, 1.0),
        # a disc touching the face of a raised bar
        "under": Pose(5.0 - 0.625, 4.0, 0.0, 1.0),
        # rectangle face and corner contacts, heading along x
        "rect_face": Pose(1.5, 2.5, 0.0, 0.3),
        "rect_corner": Pose(1.5, 1.75, 0.0, 0.3),
        # disc and rectangle touching the gap rim from outside
        "rim": Pose(2.5, 5.0 - 0.625, 0.0, 1.0),
        "rect_rim": Pose(1.5, 5.5, 0.0, 0.3),
    }
    # a rotated rectangle whose corner touches a box face: only the world
    # axis separates them, and only by a tie
    ties = []
    for th in (0.3, 1.1, -2.0, 2.7, 0.7, -1.3):
        c, s = math.cos(th), math.sin(th)
        # a corner on a box face (the world axis separates) ...
        dx = abs(c) * 0.5 + abs(s) * 0.25 + 0.5
        dy = abs(s) * 0.5 + abs(c) * 0.25 + 0.5
        ties.append((_tie(lambda x: abs(x - 2.5), dx, 2.5 - dx), 2.5, th))
        ties.append((2.5, _tie(lambda y: abs(y - 2.5), dy, 2.5 + dy), th))
        # ... and a box corner on a rectangle face (a rectangle axis does)
        du = 0.5 + abs(c) * 0.5 + abs(s) * 0.5
        cy = 2.5 - s * du
        cu = c * 2.5 + s * 2.5
        ties.append((_tie(lambda x: abs(c * x + s * cy - cu), du, 2.5 - c * du), cy, th))
        dw = 0.25 + abs(s) * 0.5 + abs(c) * 0.5
        cx = 2.5 + s * dw
        cw = -s * 2.5 + c * 2.5
        ties.append((cx, _tie(lambda y: abs(-s * cx + c * y - cw), dw, 2.5 - c * dw), th))
    contacts = list(named.values()) + [Pose(x, y, th, 0.3) for x, y, th in ties if None not in (x, y)]
    nudged = [
        Pose(p.x + dx, p.y + dy, th, p.h)
        for p in contacts
        for dx in (-1e-12, 0.0, 1e-12)
        for dy in (-1e-12, 0.0, 1e-12)
        for th in (0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4)
    ]
    return world, named, contacts, nudged


def test_scalar_kernels_match_batch_on_exact_contacts():
    """Face and corner contacts built from dyadic numbers, so `<` versus
    `<=` decides each answer; one ulp inward must flip it."""
    world, named, contacts, nudged = _exact_contacts()
    face, corner, under = named["face"], named["corner"], named["under"]
    walk = VolumeSpec(DiscFootprint(0.625), (0.0, 1.5))
    crawl = VolumeSpec(RectFootprint(1.0, 0.5), (0.0, 0.5))
    bar = VolumeSpec(DiscFootprint(0.625), (1.0, 1.5))
    assert volume_clear(face, walk, world) and volume_clear(corner, walk, world)
    assert not volume_clear(Pose(math.nextafter(face.x, 9.0), face.y, 0.0, 1.0), walk, world)
    assert not volume_clear(Pose(corner.x, math.nextafter(corner.y, 0.0), 0.0, 1.0), walk, world)
    # the raised bar only counts in its own band
    assert volume_clear(under, bar, world)
    assert not volume_clear(Pose(math.nextafter(under.x, 9.0), 4.0, 0.0, 1.0), bar, world)
    assert volume_clear(named["rect_face"], crawl, world) and volume_clear(named["rect_corner"], crawl, world)
    assert not volume_clear(Pose(math.nextafter(1.5, 9.0), 2.5, 0.0, 0.3), crawl, world)
    disc = DiscFootprint(0.625)
    rim = named["rim"]
    assert floor_solid(rim, disc, world)
    assert not floor_solid(Pose(2.5, math.nextafter(rim.y, 9.0), 0.0, 1.0), disc, world)
    rect = RectFootprint(1.0, 0.5)
    assert floor_solid(named["rect_rim"], rect, world)
    assert not floor_solid(Pose(math.nextafter(1.5, 9.0), 5.5, 0.0, 0.3), rect, world)
    # a footprint touching the world edge is inside; one ulp out is not
    assert floor_solid(Pose(0.625, 7.0, 0.0, 1.0), disc, world)
    assert floor_point_solid(2.0, 5.5, world) and not floor_point_solid(math.nextafter(2.0, 9.0), 5.5, world)
    _check_kernels_agree(world, contacts + nudged)


# -- the pure-Python kernel layer -------------------------------------------


def test_import_does_not_load_numpy():
    src = Path(posgraph.__file__).resolve().parents[1]
    code = "import posgraph, sys; assert 'numpy' not in sys.modules, 'posgraph imported numpy'"
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def _bits(values):
    return [float(v).hex() for v in values]


def test_linspace_matches_numpy_bit_for_bit():
    rng = random.Random(17)
    cases = [
        (0.0, 0.0, 5),
        (-0.0, 0.0, 3),
        (1.5, 1.5, 2),
        (-2.25, -2.25, 9),
        (3.0, -2.0, 2),
        (0.0, 1.0, 2),
        (0.0, 5e-324, 5),  # the step underflows to zero
        (5e-324, 0.0, 7),
    ]
    for _ in range(3000):
        a = rng.uniform(-20.0, 20.0)
        kind = rng.randrange(4)
        if kind == 0:
            b = a  # equal endpoints
        elif kind == 1:
            b = a - rng.uniform(0.0, 10.0)  # a negative span
        elif kind == 2:
            b = math.nextafter(a, math.inf)
        else:
            b = rng.uniform(-20.0, 20.0)
        cases.append((a, b, rng.choice((2, 3, rng.randint(2, 200)))))
    for a, b, num in cases:
        assert _bits(_linspace(a, b, num)) == _bits(np.linspace(a, b, num)), (a, b, num)


def test_interpolate_poses_matches_numpy_bit_for_bit():
    rng = random.Random(23)
    for _ in range(500):
        p0, p1 = (Pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-7, 7), rng.uniform(0, 2)) for _ in "ab")
        n = rng.randint(1, 60)
        xs, ys, ths = interpolate_poses(p0, p1, n)
        for got, want in zip((xs, ys, ths), reference_interpolate(p0, p1, n)):
            assert _bits(got) == _bits(want), (p0, p1, n)


def _random_sweeps(rng, world, count):
    """Pose pairs from anywhere in (and just beyond) the world, with spans
    from a few samples to several metres."""
    (bx0, bx1), (by0, by1) = world.bounds_x, world.bounds_y
    pairs = []
    for _ in range(count):
        p0 = Pose(rng.uniform(bx0 - 0.2, bx1 + 0.2), rng.uniform(by0 - 0.2, by1 + 0.2), rng.uniform(-3.2, 3.2), 1.0)
        d = rng.uniform(0.0, rng.choice((0.05, 0.3, 1.0, 3.0)))
        a = rng.uniform(-math.pi, math.pi)
        p1 = Pose(p0.x + d * math.cos(a), p0.y + d * math.sin(a), rng.uniform(-3.2, 3.2), rng.uniform(0.3, 1.2))
        pairs.append((p0, p1))
    return pairs


def _check_sweeps_agree(world, pairs, res=0.05):
    """Every sweep kernel with its broad phase against the all-boxes numpy
    reference; returns (blocked, clear) counts of the volume sweeps."""
    outcomes = []
    for p0, p1 in pairs:
        for vol in KERNEL_VOLUMES:
            want = reference_swept_clear(p0, p1, vol, world, res)
            assert swept_clear(p0, p1, vol, world, res) == want, (p0, p1, vol)
            outcomes.append(want)
        # the two endpoints and a third placement as one scattered batch
        mid = Pose(0.5 * (p0.x + p1.x) + 0.4, 0.5 * (p0.y + p1.y) - 0.3, p1.theta, 1.0)
        xs, ys, ths = ([getattr(p, a) for p in (p0, mid, p1)] for a in ("x", "y", "theta"))
        for vol in KERNEL_VOLUMES:
            assert _volume_clear_batch(xs, ys, ths, vol, world) == reference_volume_clear_batch(xs, ys, ths, vol, world)
        for fp in KERNEL_FOOTPRINTS:
            want = all(_reference_floor_solid(p, fp, world) for p in (p0, mid, p1))
            assert _floor_solid_batch(xs, ys, ths, fp, world) == want, (p0, p1, fp)
        for apex in (0.0, 0.2, 0.6):
            for radius in (0.35, 0.625):
                want = reference_parabola_clear(p0, p1, apex, radius, world, res)
                assert parabola_clear(p0, p1, apex, radius, world, res) == want, (p0, p1, apex, radius)
    return outcomes.count(False), outcomes.count(True)


def test_broad_phase_keeps_every_box_a_sample_hits():
    """Sweeps, batches and arcs, each with one broad-phase pass, agree with
    the numpy reference that tests every box: in the 160-box hallway, in
    cluttered random worlds, and along exact face and corner contacts."""
    rng = random.Random(31)
    hallway = builtin_scenario("hallway").world
    blocked, clear = _check_sweeps_agree(hallway, _random_sweeps(rng, hallway, 60))
    assert blocked > 50 and clear > 50
    for seed in range(4):
        world = make_random_world(random.Random(200 + seed), with_gaps=True)
        blocked, clear = _check_sweeps_agree(world, _random_sweeps(rng, world, 40))
        assert blocked > 20 and clear > 20
    world, _, contacts, nudged = _exact_contacts()
    # sweeps that start at a contact and end on a nudged copy of it, or slide
    # 0.1 along a world axis
    pairs = [(p, q) for p in contacts for q in nudged if abs(q.x - p.x) < 1e-9 and abs(q.y - p.y) < 1e-9]
    pairs += [(p, Pose(p.x + dx, p.y + dy, p.theta, p.h)) for p in contacts for dx, dy in ((0.1, 0), (0, 0.1), (-0.1, 0))]
    _check_sweeps_agree(world, pairs)
    xs, ys, ths = ([getattr(p, a) for p in contacts + nudged] for a in ("x", "y", "theta"))
    for vol in KERNEL_VOLUMES:
        assert _volume_clear_batch(xs, ys, ths, vol, world) == reference_volume_clear_batch(xs, ys, ths, vol, world)


# -- the volume_clear grid ----------------------------------------------------


def _band_volume_clear(pose, vol, world):
    """volume_clear with the all-boxes kernel over the volume's whole z band."""
    if not world.contains(pose.x, pose.y):
        return False
    boxes = world.band(vol.z_band)
    fp = vol.footprint
    if isinstance(fp, DiscFootprint):
        return not _disc_hits_any(pose.x, pose.y, fp.radius, boxes)
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return not _rect_hits_any(pose.x, pose.y, c, s, fp.length, fp.width, boxes)


def _straddling_world(rng, origin, span):
    """Boxes in three z bands, most with an edge on or one ulp off a grid
    line, over a world whose corner sits at `origin` (negative here)."""
    boxes = []
    for _ in range(rng.randint(10, 30)):
        k = rng.randrange(int(span / GRID_CELL))
        x0 = origin + k * GRID_CELL + rng.choice((0.0, -0.3, 0.7, -GRID_CELL / 2))
        x0 = rng.choice((x0, math.nextafter(x0, -math.inf), math.nextafter(x0, math.inf)))
        y0 = origin + rng.randrange(int(span / GRID_CELL)) * GRID_CELL + rng.uniform(-0.5, 0.5)
        w, d = rng.choice((0.05, 0.3, GRID_CELL, 2.5 * GRID_CELL)), rng.uniform(0.05, 2.0)
        z = rng.choice(((0.0, 2.2), (0.7, 1.9), (0.0, 0.4)))
        x0 = min(max(x0, origin), origin + span - w)
        y0 = min(max(y0, origin), origin + span - d)
        boxes.append(Box((x0, x0 + w), (y0, y0 + d), z))
    return WorldModel((origin, origin + span), (origin, origin + span), tuple(boxes), ())


def _grid_poses(rng, world):
    """Poses on cell edges and corners (and one ulp either side), at box
    faces grown by a reach, uniform ones, and ones outside the bounds."""
    (bx0, bx1), (by0, by1) = world.bounds_x, world.bounds_y
    poses = []
    for _ in range(150):
        x = math.floor(rng.uniform(bx0, bx1) / GRID_CELL) * GRID_CELL
        y = rng.uniform(by0, by1)
        if rng.random() < 0.5:
            y = math.floor(y / GRID_CELL) * GRID_CELL
        x = rng.choice((x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)))
        if rng.random() < 0.5:
            x, y = y, x
        poses.append(Pose(x, y, rng.uniform(-math.pi, math.pi), 1.0))
    for b in world.obstacles:
        for r in (0.05, 0.25, 0.3, 0.5):
            poses.append(Pose(b.x[0] - r, rng.uniform(*b.y), 0.0, 1.0))
            poses.append(Pose(rng.uniform(*b.x), b.y[1] + r, math.pi / 2, 1.0))
    poses += [Pose(rng.uniform(bx0, bx1), rng.uniform(by0, by1), rng.uniform(-3.2, 3.2), 1.0) for _ in range(150)]
    poses += [Pose(bx0 - 1e-9, by0, 0.0, 1.0), Pose(bx1, by1 + 0.5, 0.0, 1.0), Pose(-1e300, 1e300, 0.0, 1.0)]
    return poses


def test_grid_volume_clear_equals_the_whole_band():
    """The grid hands the narrow phase a subset of the band; the answer must
    be the all-boxes answer everywhere, cell borders and contacts included."""
    rng = random.Random(41)
    blocked = clear = 0
    for seed in range(5):
        wrng = random.Random(300 + seed)
        world = _straddling_world(wrng, -7.0 - 3.3 * seed, 12.0)
        for p in _grid_poses(wrng, world):
            for vol in KERNEL_VOLUMES:
                want = _band_volume_clear(p, vol, world)
                assert volume_clear(p, vol, world) == want, (seed, p, vol)
                blocked += not want
                clear += want
    assert blocked > 1000 and clear > 1000
    world, _, contacts, nudged = _exact_contacts()
    for p in contacts + nudged:
        for vol in KERNEL_VOLUMES:
            assert volume_clear(p, vol, world) == _band_volume_clear(p, vol, world), (p, vol)
    # 1e300 coordinates, inside a world that reaches them
    far = WorldModel(
        (-2e300, 2e300), (-2e300, 2e300), (Box((1e300, 1.5e300), (-1.0, 1.0), (0.0, 2.0)), Box((-1.0, 1.0), (-1.0, 1.0), (0.0, 2.0)))
    )
    for x in (1e300, math.nextafter(1e300, 0.0), 1.5e300, 1.6e300, -1e300, 0.0, 1.2, 1.3):
        for y in (0.0, 1.2, 1.3, 1e300):
            for vol in KERNEL_VOLUMES:
                p = Pose(x, y, rng.uniform(-3.0, 3.0), 1.0)
                assert volume_clear(p, vol, far) == _band_volume_clear(p, vol, far), (p, vol)
    assert not volume_clear(Pose(1e300, 0.0, 0.0, 1.0), KERNEL_VOLUMES[0], far)
    assert volume_clear(Pose(1.6e300, 0.0, 0.0, 1.0), KERNEL_VOLUMES[0], far)


def test_grid_fills_only_the_cells_queried():
    """A 1e6 m world holds 1e12 cells; only the queried ones are built."""
    world = WorldModel((0.0, 1e6), (0.0, 1e6), (Box((5.0, 6.0), (5.0, 6.0), (0.0, 2.2)), Box((9e5, 9e5 + 1), (3.0, 4.0), (0.0, 2.2))))
    vol = KERNEL_VOLUMES[0]
    xs = (5.5, 5.5, 5.9, 4.8, 9e5 + 0.5, 1e6, 123456.789)
    hits = [volume_clear(Pose(x, 5.5, 0.0, 1.0), vol, world) for x in xs]
    assert hits == [False, False, False, False, True, True, True]
    assert not volume_clear(Pose(9e5 + 0.5, 3.5, 0.0, 1.0), vol, world)
    built = sum(len(cells) for cells in world._grids.values())
    assert built == len({math.floor(x / GRID_CELL) for x in xs}) + 1
    # off-world poses need no cell
    assert not volume_clear(Pose(-1e300, 5.0, 0.0, 1.0), vol, world)
    assert not volume_clear(Pose(5.0, 2e6, 0.0, 1.0), vol, world)
    assert sum(len(cells) for cells in world._grids.values()) == built


def test_grid_hands_hallway_few_boxes(monkeypatch):
    """On hallway's 160 boxes, a lattice of walk and crawl poses hands the
    narrow phase a small fraction of its band, with unchanged answers."""
    import posgraph.world as world_mod

    handed = []
    for name in ("_disc_hits_any", "_rect_hits_any"):
        kernel = getattr(world_mod, name)
        monkeypatch.setattr(world_mod, name, lambda *a, k=kernel: handed.append(len(a[-1])) or k(*a))
    world = builtin_scenario("hallway").world
    vols = (VolumeSpec(DiscFootprint(0.05), (0.05, 1.5)), VolumeSpec(DiscFootprint(0.25), (0.0, 1.6)), VolumeSpec(RectFootprint(0.9, 0.5), (0.0, 1.6)))
    assert all(len(world.band(v.z_band)) == 160 for v in vols)
    poses = [Pose(0.05 * i, 0.05 * j, 0.1 * i, 1.0) for i in range(241) for j in range(81)]
    for vol in vols:
        for p in poses:
            assert volume_clear(p, vol, world) == _band_volume_clear(p, vol, world)
    # the reference calls the test module's own unpatched kernels
    assert len(handed) == len(vols) * len(poses)
    assert sum(handed) / len(handed) < 16  # a tenth of the band


def test_gap_within_bounds_every_jump_segment():
    """A segment shorter than the reach from a point that no gap comes
    within reach of crosses no gap: the jump-seeding filter is exact."""
    rng = random.Random(43)
    reach = RobotProfile().jump_range_max
    near = far = 0
    for seed in range(20):
        world = make_random_world(random.Random(400 + seed), with_gaps=True)
        if not world.gaps:
            continue
        for _ in range(300):
            x, y = rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 9.0)
            if gap_within(world, x, y, reach + 1e-6 * (1.0 + abs(x) + abs(y))):
                near += 1
                continue
            far += 1
            for _ in range(8):
                a = rng.uniform(-math.pi, math.pi)
                span = rng.choice((reach, rng.uniform(0.0, reach)))
                assert not segment_crosses_gap(world, x, y, x + span * math.cos(a), y + span * math.sin(a))
    assert near > 500 and far > 500


def test_robot_profile_apex_grid_validation():
    assert RobotProfile(apex_grid=[1, 0.5]).apex_grid == (1.0, 0.5)
    assert all(type(a) is float for a in RobotProfile(apex_grid=(0, 2)).apex_grid)
    for bad in (5, (), [-0.2], ["0.2"], [True], [float("nan")], [float("inf")], "0.2", [0.2, 1e308]):
        with pytest.raises(ValueError, match="apex_grid"):
            RobotProfile(apex_grid=bad)


def test_apex_grid_cap_is_the_rise_of_the_steepest_jump():
    """A rise above the chord's midpoint of g T^2 / 8 belongs to a flight of
    time T; the cap is that rise for the longest flight the launch angle
    window admits, the longest jump at the steepest angle from the top of
    the walk band to the foot of the crawl band."""
    p = RobotProfile()
    d = p.jump_range_max
    dz = (p.h_crawl - p.delta_crawl) - (p.h_walk + p.delta_walk)
    # tan(jump_angle_max) = (dz + g T^2 / 2) / d
    top = p.g * (2.0 * (d * math.tan(p.jump_angle_max) - dz) / p.g) / 8.0
    assert RobotProfile(apex_grid=[0.2, top * (1 - 1e-12)]).apex_grid[1] > 2.3
    with pytest.raises(ValueError, match="profile apex_grid rises must be <= 2.37673"):
        RobotProfile(apex_grid=[0.2, top * (1 + 1e-12)])


# -- the open-step accept and sampled floor support ----------------------------

# the padded sweep volumes of walk and crawl (`GaitAction.sweep_volume`: r_walk
# and the crawl rectangle grown by half of res) with the bodies they pad
OPEN_STEP_VOLUMES = (
    (VolumeSpec(DiscFootprint(0.275), (0.0, 1.6)), DiscFootprint(0.25)),
    (VolumeSpec(RectFootprint(0.95, 0.55), (0.0, 0.6)), RectFootprint(0.9, 0.5)),
)


def test_open_step_accept_implies_the_sampled_sweep_and_its_floor():
    """When `sweep_open` passes, the sampled sweep of the padded volume passes
    (by the kernels and by the all-boxes numpy reference), so does its floor
    support at every sample, and the padded body at either end is clear and
    supported; steps near the bounds, gap edges, box faces and cell borders."""
    rng = random.Random(2103)
    opened = 0
    for world, lines in near_edge_worlds(rng):
        for vol, body in OPEN_STEP_VOLUMES:
            body_vol = VolumeSpec(body, vol.z_band)
            for _ in range(1000):
                p0 = near_edge_pose(rng, world, lines, 1.0)
                p1 = step_from(rng, p0, rng.choice((0.3, rng.uniform(0.0, 0.45), rng.uniform(0.45, 2.0))), 1.0)
                if not sweep_open(p0, p1, vol, world):
                    continue
                opened += 1
                # sampled as the padded volume needs, and as `sufficient_edge` does
                for n in {sweep_steps(p0, p1, vol, 0.05), sweep_steps(p0, p1, body_vol, 0.05)}:
                    xs, ys, ths = interpolate_poses(p0, p1, n)
                    assert _volume_clear_batch(xs, ys, ths, vol, world), (p0, p1, vol)
                    assert reference_volume_clear_batch(xs, ys, ths, vol, world), (p0, p1, vol)
                    assert _floor_solid_batch(xs, ys, ths, vol.footprint, world), (p0, p1, vol)
                    assert all(floor_solid(Pose(x, y, th, 0.0), vol.footprint, world) for x, y, th in zip(xs, ys, ths))
                for p in (p0, p1):
                    assert volume_clear(p, body_vol, world) and floor_solid(p, body, world), (p, body)
    assert opened > 5000, opened


def test_floor_early_accept_equals_the_per_sample_loop():
    """`_floor_solid_batch` must give the answer `floor_solid` gives at every
    sample, near the bounds and gap edges too; the steps include many whose
    samples, grown by the footprint's reach, lie inside the bounds with no gap
    near, and many that some sample refuses."""
    rng = random.Random(2104)
    early = refused = 0
    footprints = KERNEL_FOOTPRINTS + tuple(vol.footprint for vol, _ in OPEN_STEP_VOLUMES)
    for world, lines in near_edge_worlds(rng):
        for fp in footprints:
            vol = VolumeSpec(fp, (0.0, 1.0))
            reach = fp.max_radius + 1e-6
            for _ in range(300):
                p0 = near_edge_pose(rng, world, lines, 1.0)
                p1 = step_from(rng, p0, rng.choice((0.0, 0.3, rng.uniform(0.0, 2.0))), 1.0)
                xs, ys, ths = interpolate_poses(p0, p1, sweep_steps(p0, p1, vol, 0.05))
                want = all(floor_solid(Pose(x, y, th, 0.0), fp, world) for x, y, th in zip(xs, ys, ths))
                assert _floor_solid_batch(xs, ys, ths, fp, world) == want, (p0, p1, fp)
                xlo, xhi, ylo, yhi = min(xs) - reach, max(xs) + reach, min(ys) - reach, max(ys) + reach
                gap_near = any(g[0] <= xhi and g[1] >= xlo and g[2] <= yhi and g[3] >= ylo for g in world._gap_boxes)
                inside = xlo >= world.bounds_x[0] and xhi <= world.bounds_x[1] and ylo >= world.bounds_y[0] and yhi <= world.bounds_y[1]
                early += inside and not gap_near
                refused += not want
    assert early > 8000 and refused > 6000, (early, refused)
