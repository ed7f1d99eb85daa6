import math
import random

import pytest

from posgraph import Pose, RobotProfile, WorldModel


@pytest.fixture
def profile():
    return RobotProfile()


@pytest.fixture
def open_world():
    """Flat 10 x 8 floor, no obstacles, no gaps."""
    return WorldModel((0.0, 10.0), (0.0, 8.0), (), ())


def make_random_world(rng: random.Random, with_gaps: bool = False) -> WorldModel:
    """A cluttered world for fuzzing: mixed bars, walls and tall blocks."""
    from posgraph import Box, GapRect

    obstacles = []
    for _ in range(rng.randint(3, 6)):
        x0 = rng.uniform(0.5, 8.0)
        y0 = rng.uniform(0.5, 6.0)
        w = rng.uniform(0.3, 1.5)
        d = rng.uniform(0.3, 1.5)
        kind = rng.randrange(3)
        if kind == 0:
            z = (0.7, 1.9)
        elif kind == 1:
            z = (0.0, 2.2)
        else:
            z = (0.0, rng.uniform(0.3, 1.2))
        obstacles.append(Box((x0, min(x0 + w, 9.5)), (y0, min(y0 + d, 7.5)), z))
    gaps = []
    if with_gaps:
        for _ in range(rng.randrange(3)):
            x0 = rng.uniform(0.5, 8.5)
            y0 = rng.uniform(0.5, 6.5)
            gaps.append(GapRect((x0, min(x0 + rng.uniform(0.3, 1.0), 9.5)), (y0, min(y0 + rng.uniform(0.3, 1.0), 7.5))))
    return WorldModel((0.0, 10.0), (0.0, 8.0), tuple(obstacles), tuple(gaps))


def random_pose(rng: random.Random, world: WorldModel, h_max: float = 2.0) -> Pose:
    return Pose(
        rng.uniform(world.bounds_x[0], world.bounds_x[1]),
        rng.uniform(world.bounds_y[0], world.bounds_y[1]),
        rng.uniform(-3.14, 3.14),
        rng.uniform(0.0, h_max),
    )


# the reaches of the gait bodies: thin probe, walk disc, padded walk disc,
# crawl half length and half width, padded ones, and the rectangles' radii
EDGE_REACHES = (0.0, 0.05, 0.25, 0.275, 0.45, 0.475, 0.5148, 0.5489)
EDGE_NUDGES = (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 2e-6, -2e-6, 1e-3, -1e-3)


def edge_lines(world: WorldModel, axis: int) -> list[float]:
    """The lines a test near edges aims at along one axis: the world bounds,
    every gap and box face, and every grid-cell border inside the bounds."""
    from posgraph.world import GRID_CELL

    lo, hi = (world.bounds_x, world.bounds_y)[axis]
    lines = [lo, hi]
    for g in world.gaps:
        lines += (g.x, g.y)[axis]
    for b in world.obstacles:
        lines += (b.x, b.y)[axis]
    lines += [k * GRID_CELL for k in range(math.ceil(lo / GRID_CELL), math.floor(hi / GRID_CELL) + 1)]
    return lines


def near_edge_pose(rng: random.Random, world: WorldModel, lines, h: float) -> Pose:
    """A pose whose x and y each lie either anywhere in the bounds or one body
    reach, give or take a nudge, from a line of `lines`, the x and y
    `edge_lines` of the world."""
    coords = []
    for axis in (0, 1):
        lo, hi = (world.bounds_x, world.bounds_y)[axis]
        if rng.random() < 0.2:
            v = rng.uniform(lo, hi)
        else:
            v = rng.choice(lines[axis]) + rng.choice((-1.0, 1.0)) * rng.choice(EDGE_REACHES)
            v += rng.choice(EDGE_NUDGES)
        coords.append(min(max(v, lo - 0.1), hi + 0.1))
    return Pose(coords[0], coords[1], rng.choice((0.0, math.pi / 2, rng.uniform(-math.pi, math.pi))), h)


def near_edge_worlds(rng: random.Random) -> list:
    """The five builtin worlds and five `make_random_world` ones with gaps,
    each with its x and y `edge_lines`."""
    from posgraph import BUILTIN_NAMES, builtin_scenario

    worlds = [builtin_scenario(n).world for n in BUILTIN_NAMES] + [make_random_world(rng, with_gaps=True) for _ in range(5)]
    return [(w, (edge_lines(w, 0), edge_lines(w, 1))) for w in worlds]


def step_from(rng: random.Random, p0: Pose, length: float, h: float) -> Pose:
    """A pose `length` from p0 in a direction drawn from the axes, the
    diagonals and anywhere, heading along the step or anywhere."""
    a = rng.choice((0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4, rng.uniform(-math.pi, math.pi)))
    theta = rng.choice((a, rng.uniform(-math.pi, math.pi)))
    return Pose(p0.x + length * math.cos(a), p0.y + length * math.sin(a), theta, h)
