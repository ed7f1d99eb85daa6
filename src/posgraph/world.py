"""2.5D world model and the geometric queries behind action feasibility checks.

The exploration space is a planar pose plus a posture height: (x, y, theta, h).
Worlds are axis-aligned: box obstacles in 3D, rectangular floor gaps, and a
solid floor at z = 0 everywhere else. Angled structures are expected to be
approximated by staircases of boxes before they get here.

Every collision and floor query runs on one family of scalar pure-Python
kernels over tuples of box bounds, (xlo, xhi, ylo, yhi) in the plane and
(xlo, xhi, ylo, yhi, zlo, zhi) for the sphere: a disc, an oriented rectangle
or a sphere against a list of boxes. Obstacles and floor gaps are kept in
that one form only; the rectangle kernel derives each box's centre and half
extents as it tests it. The obstacles of a z band are filtered once per
world and cached. A single pose in `volume_clear` looks up the cell of a
uniform grid (Ericson, Real-Time Collision Detection, 2004) that lists the
band's boxes within the footprint's reach of the cell, and calls the kernel
on that list only; cells are filled on first use, one grid per volume. A
sampled sweep or arc first makes one broad-phase pass (`_near`) that keeps
only the boxes overlapping the samples' bounding box, grown by the shape's
reach, and then calls the same kernel per sample. `floor_solid` and
`floor_point_solid` test every gap.

Early accepts settle a sampled test from its broad phase alone, and each
returns what the per-sample loop would. The open-step accept (`sweep_open`)
grows the two end poses' planar bounding box by the footprint's reach plus
the 1e-6 that `_near` adds; when that box lies inside the bounds and meets no
box of the band and no gap, every sample of the sweep between the poses is
clear and supported, so the sweep is never interpolated. `swept_clear` makes
the same test, gaps aside, before it samples. Floor support of a sampled
sweep (`_floor_solid_batch`) tests every sample against every gap: worlds
hold a few gaps, and a broad phase over them measured as no faster.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

TWO_PI = 2.0 * math.pi

# Side of a `volume_clear` grid cell, in metres. A power of two, so x / GRID_CELL
# and i * GRID_CELL are exact and a pose always lies in the cell it is filed
# under; >= 1 so x / GRID_CELL cannot overflow for any finite x.
GRID_CELL = 1.0

# Weights over (dx, dy, shortest-arc dtheta, dh) used wherever a single scalar
# distance between poses is needed. Heading is deliberately cheap.
DEFAULT_METRIC_WEIGHTS = (1.0, 1.0, 0.3, 1.0)


def normalize_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]. The tie at pi resolves to +pi."""
    a = math.remainder(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    return a


@dataclass(frozen=True, slots=True)
class Pose:
    """A reduced-space configuration: planar position, heading, posture height."""

    x: float
    y: float
    theta: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        # v * 0.0 is 0.0 for a finite v and NaN otherwise
        if self.x * 0.0 + self.y * 0.0 + self.theta * 0.0 + self.h * 0.0 != 0.0:
            for name in ("x", "y", "theta", "h"):
                v = getattr(self, name)
                if not math.isfinite(v):
                    raise ValueError(f"pose {name} must be finite, got {v}")
        if self.h < 0.0:
            raise ValueError(f"pose height must be >= 0, got {self.h}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


def pose_distance(a: Pose, b: Pose, weights: tuple[float, float, float, float] = DEFAULT_METRIC_WEIGHTS) -> float:
    """Weighted Euclidean distance over (dx, dy, shortest-arc dtheta, dh)."""
    # remainder differs from normalize_angle only at the pi tie, by a sign
    # that the square drops
    dth = math.remainder(b.theta - a.theta, TWO_PI)
    return math.sqrt(
        (weights[0] * (b.x - a.x)) ** 2
        + (weights[1] * (b.y - a.y)) ** 2
        + (weights[2] * dth) ** 2
        + (weights[3] * (b.h - a.h)) ** 2
    )


@dataclass(frozen=True)
class DiscFootprint:
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("disc footprint radius must be > 0")

    @property
    def max_radius(self) -> float:
        return self.radius


@dataclass(frozen=True)
class RectFootprint:
    """Oriented rectangle: length runs along the heading, width across it."""

    length: float
    width: float

    def __post_init__(self):
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError("rect footprint extents must be > 0")

    @property
    def max_radius(self) -> float:
        return 0.5 * math.hypot(self.length, self.width)


Footprint = DiscFootprint | RectFootprint


@dataclass(frozen=True)
class VolumeSpec:
    """A footprint extruded over an absolute z band [z_low, z_high]."""

    footprint: Footprint
    z_band: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.z_band
        if not lo < hi:
            raise ValueError(f"volume z band must be ascending, got {self.z_band}")
        object.__setattr__(self, "z_band", (lo, hi))  # a hashable key for WorldModel.band


@dataclass(frozen=True)
class Box:
    """Axis-aligned obstacle: x, y, z intervals."""

    x: tuple[float, float]
    y: tuple[float, float]
    z: tuple[float, float]

    def __post_init__(self):
        for name, interval in (("x", self.x), ("y", self.y), ("z", self.z)):
            _check_interval(f"box {name}", interval)


@dataclass(frozen=True)
class GapRect:
    """Axis-aligned rectangular hole in the floor."""

    x: tuple[float, float]
    y: tuple[float, float]

    def __post_init__(self):
        for name, interval in (("x", self.x), ("y", self.y)):
            _check_interval(f"gap {name}", interval)


def _check_interval(what: str, interval) -> None:
    """Raises unless both ends of the interval are finite and ascending."""
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} interval must be finite, got {interval}")
    if not lo < hi:
        raise ValueError(f"{what} interval must be ascending, got {interval}")


@dataclass
class RobotProfile:
    """Robot geometry, posture bands, and jump physics limits."""

    h_walk: float = 1.0
    delta_walk: float = 0.15
    h_crawl: float = 0.3
    delta_crawl: float = 0.15
    body_top_walk: float = 1.6
    body_top_crawl: float = 0.6
    r_walk: float = 0.25
    crawl_len: float = 0.9
    crawl_wid: float = 0.5
    r_necessary: float = 0.05
    jump_range_max: float = 1.5
    v_max: float = 4.0
    g: float = 9.81
    r_jump: float = 0.35
    stride: float = 0.4
    res: float = 0.05
    apex_grid: tuple[float, ...] = (0.2, 0.4, 0.6)
    jump_angle_min: float = math.radians(15.0)
    jump_angle_max: float = math.radians(80.0)

    def __post_init__(self):
        self.apex_grid = _apex_grid(self.apex_grid)
        for f in fields(self):
            if f.name == "apex_grid":
                continue
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"profile {f.name} must be a finite number, got {v!r}")
        for name in _POSITIVE_FIELDS:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"profile {name} must be > 0")
        if not 0.0 < self.h_crawl < self.h_walk:
            raise ValueError("profile requires 0 < h_crawl < h_walk")
        if self.h_crawl + self.delta_crawl >= self.h_walk - self.delta_walk:
            raise ValueError("profile posture bands overlap: crawl band must sit below walk band")
        if self.r_necessary >= self.r_walk:
            raise ValueError("profile r_necessary must be smaller than r_walk")
        if self.r_necessary >= 0.5 * self.crawl_wid:
            raise ValueError("profile r_necessary must be smaller than half the crawl width")
        if self.stride < self.res:
            raise ValueError("profile stride must be >= res")
        # v_max * v_max, not v_max ** 2: a square past the float range is then
        # inf, not an OverflowError
        if self.jump_range_max > self.v_max * self.v_max / self.g + 1e-9:
            raise ValueError("profile jump_range_max exceeds the level-ground ballistic range v_max^2/g")
        if not 0.0 <= self.jump_angle_min < self.jump_angle_max < 0.5 * math.pi:
            raise ValueError("profile jump angle window must satisfy 0 <= min < max < pi/2")
        # a flight of time T rises g T^2 / 8 above its chord's midpoint, and
        # the launch angle window caps g T^2 / 2 at d tan(jump_angle_max) - dz
        # (`confirm.solve_jump_bvp`), d at most jump_range_max and -dz at most
        # the drop from the top of the walk band to the foot of the crawl band
        drop = self.h_walk + self.delta_walk - (self.h_crawl - self.delta_crawl)
        top = (self.jump_range_max * math.tan(self.jump_angle_max) + drop) / 4.0
        rise = max(self.apex_grid)
        if rise > top:
            raise ValueError(f"profile apex_grid rises must be <= {top:.6g}, the rise of the steepest jump, got {rise!r}")


# a zero or negative stride never ends the foothold loop of a gait
# confirmation job, and the others divide or scale sweeps and flights
_POSITIVE_FIELDS = ("stride", "res", "r_jump", "v_max", "g")


def _apex_grid(grid) -> tuple[float, ...]:
    """The apex rises as a tuple of floats; raises unless grid is a non-empty
    sequence of finite numbers >= 0."""
    message = f"profile apex_grid must be a non-empty list of numbers >= 0, got {grid!r}"
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ValueError(message)
    for a in grid:
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0.0 <= a < math.inf:
            raise ValueError(message)
    return tuple(float(a) for a in grid)


@dataclass
class WorldModel:
    """Bounded 2.5D world: rectangle bounds, box obstacles, floor gaps."""

    bounds_x: tuple[float, float]
    bounds_y: tuple[float, float]
    obstacles: tuple[Box, ...] = ()
    gaps: tuple[GapRect, ...] = ()
    _obs: tuple = field(init=False, repr=False, compare=False)  # (xlo, xhi, ylo, yhi, zlo, zhi) per box
    _gap_boxes: tuple = field(init=False, repr=False, compare=False)  # (xlo, xhi, ylo, yhi) per gap
    _bands: dict = field(init=False, repr=False, compare=False)
    _grids: dict = field(init=False, repr=False, compare=False)
    _ceiling: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.bounds_x, *self.bounds_y))):
            raise ValueError(f"world bounds must be finite, got x {self.bounds_x} and y {self.bounds_y}")
        if not self.bounds_x[0] < self.bounds_x[1] or not self.bounds_y[0] < self.bounds_y[1]:
            raise ValueError("world bounds must be ascending intervals")
        self.obstacles = tuple(self.obstacles)
        self.gaps = tuple(self.gaps)
        for i, b in enumerate(self.obstacles):
            if not self._interval_inside(b.x, self.bounds_x) or not self._interval_inside(b.y, self.bounds_y):
                raise ValueError(f"obstacle {i} lies outside world bounds")
        for i, g in enumerate(self.gaps):
            if not self._interval_inside(g.x, self.bounds_x) or not self._interval_inside(g.y, self.bounds_y):
                raise ValueError(f"gap {i} lies outside world bounds")
        self._obs = tuple(tuple(float(v) for v in (*b.x, *b.y, *b.z)) for b in self.obstacles)
        self._gap_boxes = tuple(tuple(float(v) for v in (*g.x, *g.y)) for g in self.gaps)
        self._bands = {}
        self._grids = {}
        self._ceiling = max(2.0, max((b.z[1] for b in self.obstacles), default=0.0))

    def band(self, z_band: tuple[float, float]) -> tuple:
        """The (xlo, xhi, ylo, yhi) boxes of the obstacles strictly overlapping
        the z band, filtered once per band."""
        boxes = self._bands.get(z_band)
        if boxes is None:
            zlo, zhi = z_band
            boxes = self._bands[z_band] = tuple(o[:4] for o in self._obs if o[4] < zhi and o[5] > zlo)
        return boxes

    def cell(self, vol: VolumeSpec, x: float, y: float) -> tuple:
        """The (xlo, xhi, ylo, yhi) boxes of vol's band that a placement of vol
        at (x, y) can touch, in band order, for either footprint.

        These are the boxes overlapping the grid cell holding (x, y), grown by
        the footprint's reach plus the 1e-6 that `_near` adds. The cell
        contains x and y exactly, and rounding is monotone, so this keeps
        every box `_near` keeps for the one sample. A cell is filled the first
        time a query lands in it.
        """
        grid = self._grids.get(vol)
        if grid is None:
            grid = self._grids[vol] = {}
        i = math.floor(x / GRID_CELL)
        j = math.floor(y / GRID_CELL)
        boxes = grid.get((i, j))
        if boxes is None:
            x0, y0 = i * GRID_CELL, j * GRID_CELL
            reach = vol.footprint.max_radius + 1e-6
            near = _near(self.band(vol.z_band), (x0, x0 + GRID_CELL), (y0, y0 + GRID_CELL), reach)
            boxes = grid[(i, j)] = tuple(near)
        return boxes

    @staticmethod
    def _interval_inside(inner: tuple[float, float], outer: tuple[float, float]) -> bool:
        return inner[0] >= outer[0] - 1e-9 and inner[1] <= outer[1] + 1e-9

    @property
    def ceiling(self) -> float:
        """Upper bound for sampled posture heights: 2.0 or the top of the
        highest obstacle, found once, since the obstacles never change."""
        return self._ceiling

    def contains(self, x: float, y: float) -> bool:
        return (
            self.bounds_x[0] <= x <= self.bounds_x[1]
            and self.bounds_y[0] <= y <= self.bounds_y[1]
        )


# ---------------------------------------------------------------------------
# collision kernels


def _disc_hits_any(x, y, radius, boxes) -> bool:
    """True if the disc strictly penetrates any (xlo, xhi, ylo, yhi) box."""
    rr = radius * radius
    for x0, x1, y0, y1 in boxes:
        dx = max(x0 - x, x - x1, 0.0)
        dy = max(y0 - y, y - y1, 0.0)
        if dx * dx + dy * dy < rr:
            return True
    return False


def _rect_hits_any(cx, cy, c, s, length, width, boxes) -> bool:
    """Strict-interior overlap of one rectangle, turned to cosine c and sine s,
    with any (xlo, xhi, ylo, yhi) box: a separating-axis test on the two world
    axes and the two rectangle axes, over each box's centre and half extents."""
    hl = 0.5 * length
    hw = 0.5 * width
    ac = abs(c)
    as_ = abs(s)
    ex = ac * hl + as_ * hw
    ey = as_ * hl + ac * hw
    cu = c * cx + s * cy
    cw = -s * cx + c * cy
    for x0, x1, y0, y1 in boxes:
        bcx, bcy, bhx, bhy = 0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * (x1 - x0), 0.5 * (y1 - y0)
        if (
            abs(cx - bcx) < ex + bhx
            and abs(cy - bcy) < ey + bhy
            and abs(cu - (c * bcx + s * bcy)) < hl + ac * bhx + as_ * bhy
            and abs(cw - (-s * bcx + c * bcy)) < hw + as_ * bhx + ac * bhy
        ):
            return True
    return False


def _sphere_hits_any(x, y, z, radius, boxes) -> bool:
    """True if the sphere strictly penetrates any (xlo, xhi, ylo, yhi, zlo, zhi) box."""
    rr = radius * radius
    for x0, x1, y0, y1, z0, z1 in boxes:
        dx = max(x0 - x, x - x1, 0.0)
        dy = max(y0 - y, y - y1, 0.0)
        dz = max(z0 - z, z - z1, 0.0)
        if dx * dx + dy * dy + dz * dz < rr:
            return True
    return False


def _near(boxes, xs, ys, reach) -> list:
    """Broad phase: the (xlo, xhi, ylo, yhi, ...) boxes that overlap the
    samples' planar bounding box grown by `reach`. A shape that stays within
    `reach` of its sample cannot meet any other box; callers add 1e-6 to the
    shape's reach to cover rounding in the narrow-phase tests."""
    xlo = min(xs) - reach
    xhi = max(xs) + reach
    ylo = min(ys) - reach
    yhi = max(ys) + reach
    return [b for b in boxes if b[0] <= xhi and b[1] >= xlo and b[2] <= yhi and b[3] >= ylo]


def _rect_corner_tuples(cx, cy, c, s, length, width) -> tuple[tuple[float, float], ...]:
    hl = 0.5 * length
    hw = 0.5 * width
    ux, uy = c * hl, s * hl
    wx, wy = -s * hw, c * hw
    return (
        (cx + ux + wx, cy + uy + wy),
        (cx + ux - wx, cy + uy - wy),
        (cx - ux + wx, cy - uy + wy),
        (cx - ux - wx, cy - uy - wy),
    )


def _volume_clear_batch(xs, ys, thetas, vol: VolumeSpec, world: WorldModel) -> bool:
    """All sampled placements (one or more) inside bounds and free of strict
    obstacle overlap."""
    if min(xs) < world.bounds_x[0] or max(xs) > world.bounds_x[1]:
        return False
    if min(ys) < world.bounds_y[0] or max(ys) > world.bounds_y[1]:
        return False
    fp = vol.footprint
    boxes = _near(world.band(vol.z_band), xs, ys, fp.max_radius + 1e-6)
    if not boxes:
        return True
    if isinstance(fp, DiscFootprint):
        return not any(_disc_hits_any(x, y, fp.radius, boxes) for x, y in zip(xs, ys))
    return not any(
        _rect_hits_any(x, y, math.cos(th), math.sin(th), fp.length, fp.width, boxes) for x, y, th in zip(xs, ys, thetas)
    )


def volume_clear(pose: Pose, vol: VolumeSpec, world: WorldModel) -> bool:
    """True iff the volume at this pose stays inside bounds and off every obstacle.

    A pose outside the world bounds is reported as not clear rather than an
    error, so callers can probe freely.
    """
    x, y = pose.x, pose.y
    if not world.contains(x, y):
        return False
    boxes = world.cell(vol, x, y)
    fp = vol.footprint
    if isinstance(fp, DiscFootprint):
        return not _disc_hits_any(x, y, fp.radius, boxes)
    return not _rect_hits_any(x, y, math.cos(pose.theta), math.sin(pose.theta), fp.length, fp.width, boxes)


def sweep_steps(p0: Pose, p1: Pose, vol: VolumeSpec, res: float) -> int:
    """Number of interpolation intervals so sample spacing stays <= res."""
    trans = math.sqrt((p1.x - p0.x) ** 2 + (p1.y - p0.y) ** 2 + (p1.h - p0.h) ** 2)
    rot = abs(normalize_angle(p1.theta - p0.theta)) * vol.footprint.max_radius
    return max(1, math.ceil((trans + rot) / res))


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` >= 2 evenly spaced samples from start to stop, both included, by
    the expressions numpy.linspace evaluates, so the two agree bit for bit."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        # a zero or underflowing step: scale each fraction of the span instead
        out = [i / div * delta + start for i in range(num)]
    else:
        out = [i * step + start for i in range(num)]
    out[-1] = stop
    return out


def interpolate_poses(p0: Pose, p1: Pose, n: int):
    """(n+1)-sample planar interpolation with exact endpoints, as lists xs, ys,
    thetas; theta runs along the shortest arc."""
    dth = normalize_angle(p1.theta - p0.theta)
    thetas = []
    for t in _linspace(0.0, 1.0, n + 1):
        # % lands ties at 0; push them to 2*pi so the result stays in (-pi, pi]
        r = (p0.theta + dth * t + math.pi) % TWO_PI
        thetas.append((r or TWO_PI) - math.pi)
    return _linspace(p0.x, p1.x, n + 1), _linspace(p0.y, p1.y, n + 1), thetas


def sweep_open(p0: Pose, p1: Pose, vol: VolumeSpec, world: WorldModel) -> bool:
    """The open-step accept: one broad-phase test for a whole sweep of vol.

    True when the planar bounding box of p0 and p1, grown by the footprint's
    reach plus the 1e-6 that `_near` adds, lies inside the bounds and meets no
    box of vol's z band and no gap. Every sample between p0 and p1 lies in
    that box, so `_volume_clear_batch` and `_floor_solid_batch` with vol's
    footprint pass at the samples, and so do `volume_clear` and `floor_solid`
    at either end for any footprint within the same reach and any z band
    inside vol's.
    """
    reach = vol.footprint.max_radius + 1e-6
    return _open_box(p0, p1, reach, world, world.band(vol.z_band), world._gap_boxes)


def _open_box(p0: Pose, p1: Pose, reach: float, world: WorldModel, *box_lists) -> bool:
    """The planar bounding box of p0 and p1, grown by `reach` as `_near` grows
    one, lies inside the bounds and overlaps no (xlo, xhi, ylo, yhi, ...) box
    of the lists."""
    x0, x1 = (p0.x, p1.x) if p0.x <= p1.x else (p1.x, p0.x)
    y0, y1 = (p0.y, p1.y) if p0.y <= p1.y else (p1.y, p0.y)
    xlo, xhi, ylo, yhi = x0 - reach, x1 + reach, y0 - reach, y1 + reach
    if not (world.bounds_x[0] <= xlo and xhi <= world.bounds_x[1] and world.bounds_y[0] <= ylo and yhi <= world.bounds_y[1]):
        return False
    for boxes in box_lists:
        for b in boxes:
            if b[0] <= xhi and b[1] >= xlo and b[2] <= yhi and b[3] >= ylo:
                return False
    return True


def swept_clear(p0: Pose, p1: Pose, vol: VolumeSpec, world: WorldModel, res: float) -> bool:
    """volume_clear along the straight interpolation from p0 to p1, endpoints
    included; True without sampling when no box of the band is near (`_open_box`)."""
    if _open_box(p0, p1, vol.footprint.max_radius + 1e-6, world, world.band(vol.z_band)):
        return True
    n = sweep_steps(p0, p1, vol, res)
    xs, ys, thetas = interpolate_poses(p0, p1, n)
    return _volume_clear_batch(xs, ys, thetas, vol, world)


# ---------------------------------------------------------------------------
# floor support


def floor_point_solid(x: float, y: float, world: WorldModel) -> bool:
    """A single support point: inside bounds and not strictly inside any gap."""
    if not world.contains(x, y):
        return False
    for gx0, gx1, gy0, gy1 in world._gap_boxes:
        if gx0 < x < gx1 and gy0 < y < gy1:
            return False
    return True


def segment_crosses_gap(world: WorldModel, x0: float, y0: float, x1: float, y1: float) -> bool:
    """True when the open planar segment passes strictly inside some gap.

    Exact slab test per gap rectangle; touching a gap boundary does not
    count, matching the strict-interior convention everywhere else.
    """
    dx = x1 - x0
    dy = y1 - y0
    for gx0, gx1, gy0, gy1 in world._gap_boxes:
        t_lo, t_hi = 0.0, 1.0
        ok = True
        for p, d, lo, hi in ((x0, dx, gx0, gx1), (y0, dy, gy0, gy1)):
            if abs(d) < 1e-15:
                if not lo < p < hi:
                    ok = False
                    break
            else:
                ta = (lo - p) / d
                tb = (hi - p) / d
                if ta > tb:
                    ta, tb = tb, ta
                t_lo = max(t_lo, ta)
                t_hi = min(t_hi, tb)
        if ok and t_lo < t_hi:
            return True
    return False


def gap_within(world: WorldModel, x: float, y: float, reach: float) -> bool:
    """True when some gap's open rectangle comes closer than `reach` to
    (x, y); a segment from (x, y) shorter than that cannot cross a gap."""
    return _disc_hits_any(x, y, reach, world._gap_boxes)


FOOT_BEARING = 0.04


def _floor_points_solid(xs, ys, world: WorldModel) -> bool:
    """Discrete footholds: every point carries a small square bearing pad that
    must sit inside the world and clear of every gap.

    A point exactly on a gap lip has zero bearing area and cannot take a
    step, so the pad makes gaps effectively a bearing-width larger than the
    footprint-based support checks see them.
    """
    e = FOOT_BEARING
    bx, by = world.bounds_x, world.bounds_y
    for x, y in zip(xs, ys):
        if not (
            x - e >= bx[0] - 1e-12 and x + e <= bx[1] + 1e-12 and y - e >= by[0] - 1e-12 and y + e <= by[1] + 1e-12
        ):
            return False
        for gx0, gx1, gy0, gy1 in world._gap_boxes:
            if gx0 - e < x < gx1 + e and gy0 - e < y < gy1 + e:
                return False
    return True


def floor_solid(pose: Pose, footprint: Footprint, world: WorldModel) -> bool:
    """The whole footprint is supported: inside bounds, no strict gap overlap.

    Disc footprints ignore pose.theta and pose.h entirely.
    """
    return _supported(pose.x, pose.y, pose.theta, footprint, world)


def _supported(x, y, theta, footprint: Footprint, world: WorldModel) -> bool:
    """`floor_solid` at one placement."""
    if isinstance(footprint, DiscFootprint):
        r = footprint.radius
        if not (
            x - r >= world.bounds_x[0] - 1e-12
            and x + r <= world.bounds_x[1] + 1e-12
            and y - r >= world.bounds_y[0] - 1e-12
            and y + r <= world.bounds_y[1] + 1e-12
        ):
            return False
        return not _disc_hits_any(x, y, r, world._gap_boxes)
    c, s = math.cos(theta), math.sin(theta)
    for cx, cy in _rect_corner_tuples(x, y, c, s, footprint.length, footprint.width):
        if not (
            cx >= world.bounds_x[0] - 1e-12
            and cx <= world.bounds_x[1] + 1e-12
            and cy >= world.bounds_y[0] - 1e-12
            and cy <= world.bounds_y[1] + 1e-12
        ):
            return False
    return not _rect_hits_any(x, y, c, s, footprint.length, footprint.width, world._gap_boxes)


def _floor_solid_batch(xs, ys, thetas, footprint: Footprint, world: WorldModel) -> bool:
    """`floor_solid` at every sample, each against every gap."""
    return all(_supported(x, y, th, footprint, world) for x, y, th in zip(xs, ys, thetas))


# ---------------------------------------------------------------------------
# ballistic arc probe


def parabola_clear(
    p0: Pose, p1: Pose, apex_rise: float, radius: float, world: WorldModel, res: float
) -> bool:
    """Carry a sphere along a vertical-plane parabola between the two poses.

    The arc starts at (p0.x, p0.y, p0.h), ends at (p1.x, p1.y, p1.h), and peaks
    apex_rise above the chord midpoint. Only box obstacles matter; floor gaps
    are irrelevant to a body in flight.
    """
    if apex_rise < 0.0:
        raise ValueError("apex_rise must be >= 0")
    dx = p1.x - p0.x
    dy = p1.y - p0.y
    dz = p1.h - p0.h
    chord = math.hypot(dx, dy)
    # |dP/ds| <= sqrt(chord^2 + (|dz| + 4a)^2); spacing <= res along the arc
    lmax = math.sqrt(chord * chord + (abs(dz) + 4.0 * apex_rise) ** 2)
    n = max(2, math.ceil(lmax / res))
    s = _linspace(0.0, 1.0, n + 1)
    xs = [p0.x + dx * t for t in s]
    ys = [p0.y + dy * t for t in s]
    zs = [p0.h + dz * t + 4.0 * apex_rise * t * (1.0 - t) for t in s]
    return not _spheres_hit_boxes(xs, ys, zs, radius, world._obs)


def _spheres_hit_boxes(xs, ys, zs, radius, obs) -> bool:
    """True if a sphere at any sample strictly penetrates any obstacle."""
    near = _near(obs, xs, ys, radius + 1e-6)
    return bool(near) and any(_sphere_hits_any(x, y, z, radius, near) for x, y, z in zip(xs, ys, zs))


def sample_pose(world: WorldModel, rng: random.Random) -> Pose:
    """Uniform sample over bounds x bounds x (-pi, pi] x [0, ceiling]."""
    x = rng.uniform(*world.bounds_x)
    y = rng.uniform(*world.bounds_y)
    theta = rng.uniform(-math.pi, math.pi)
    h = rng.uniform(0.0, world.ceiling)
    return Pose(x, y, theta, h)
