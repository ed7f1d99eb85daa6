"""Benchmark worlds and the JSON scenario format.

A scenario bundles a world, a robot profile, endpoints, and the set of
enabled actions. Three builtin families cover the interesting regimes:
corridor worlds where low bars force crawling, a hallway with slanted bar
rows and a floor gap, and a two-gap world that needs two standing jumps.

Bars sit at z 0.7 to 1.9: low enough to block walking and any jump arc, high
enough to crawl under. Floor gaps are 0.6 m wide, which leaves margin inside
the 1.5 m jump range once launch footing (0.25 m) and the half-length of the
landing rectangle (0.45 m) are paid on the two banks.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .world import Box, GapRect, Pose, RobotProfile, WorldModel

DEFAULT_ACTIONS = ("walk", "crawl", "jump")

BAR_Z = (0.7, 1.9)
WALL_Z = (0.0, 2.2)
# x extent of a slanted bar, and the y extent of each of its segments
STAIR_DEPTH = 0.4
STAIR_GRANULARITY = 0.1


@dataclass(frozen=True)
class Scenario:
    name: str
    world: WorldModel
    profile: RobotProfile
    start: Pose
    goals: tuple[Pose, ...]
    actions: tuple[str, ...] = DEFAULT_ACTIONS


# -- JSON parsing ---------------------------------------------------------

_TOP_KEYS = {"name", "bounds", "obstacles", "gaps", "start", "goals", "profile", "actions"}
_PROFILE_FIELDS = {f.name for f in dataclasses.fields(RobotProfile)}


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{where} must be a two-number list")
    try:
        return float(value[0]), float(value[1])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} must be a two-number list") from None


def _parse_pose(value, where: str, default_h: float) -> Pose:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object with x and y")
    extra = set(value) - {"x", "y", "theta", "h"}
    if extra:
        raise ValueError(f"{where} has unknown keys: {sorted(extra)}")
    if "x" not in value or "y" not in value:
        raise ValueError(f"{where} requires x and y")
    try:
        return Pose(
            float(value["x"]),
            float(value["y"]),
            float(value.get("theta", 0.0)),
            float(value.get("h", default_h)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_scenario(data: dict, name: str = "custom") -> Scenario:
    """Build a scenario from a parsed JSON object, naming the offending
    entity on any validation failure."""
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("bounds", "start", "goals"):
        if key not in data:
            raise ValueError(f"scenario requires a {key!r} entry")

    bounds = data["bounds"]
    if not isinstance(bounds, dict) or set(bounds) != {"x", "y"}:
        raise ValueError("bounds must be an object with x and y ranges")
    bx = _pair(bounds["x"], "bounds.x")
    by = _pair(bounds["y"], "bounds.y")

    prof_data = data.get("profile", {})
    if not isinstance(prof_data, dict):
        raise ValueError("profile must be an object")
    bad = set(prof_data) - _PROFILE_FIELDS
    if bad:
        raise ValueError(f"unknown profile fields: {sorted(bad)}")
    try:
        kwargs = {
            k: tuple(v) if isinstance(v, list) else v for k, v in prof_data.items()
        }
        profile = RobotProfile(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"profile: {exc}") from None

    for key in ("obstacles", "gaps"):
        if not isinstance(data.get(key, []), list):
            raise ValueError(f"{key} must be a list")

    obstacles = []
    for i, entry in enumerate(data.get("obstacles", [])):
        where = f"obstacles[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"x", "y", "z"}:
            raise ValueError(f"{where} must be an object with x, y and z ranges")
        try:
            obstacles.append(
                Box(_pair(entry["x"], f"{where}.x"), _pair(entry["y"], f"{where}.y"), _pair(entry["z"], f"{where}.z"))
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    gaps = []
    for i, entry in enumerate(data.get("gaps", [])):
        where = f"gaps[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"x", "y"}:
            raise ValueError(f"{where} must be an object with x and y ranges")
        try:
            gaps.append(GapRect(_pair(entry["x"], f"{where}.x"), _pair(entry["y"], f"{where}.y")))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    world = WorldModel(bx, by, tuple(obstacles), tuple(gaps))

    start = _parse_pose(data["start"], "start", profile.h_walk)
    goals_data = data["goals"]
    if not isinstance(goals_data, list) or not goals_data:
        raise ValueError("goals must be a non-empty list")
    goals = tuple(_parse_pose(g, f"goals[{i}]", profile.h_walk) for i, g in enumerate(goals_data))

    return Scenario(
        name=str(data.get("name", name)),
        world=world,
        profile=profile,
        start=start,
        goals=goals,
        actions=parse_actions(data.get("actions", list(DEFAULT_ACTIONS))),
    )


def parse_actions(actions) -> tuple[str, ...]:
    """The action names of a non-empty list, in first-seen order without
    repeats; raises on any name that is not an action."""
    if not isinstance(actions, list) or not actions:
        raise ValueError("actions must be a non-empty list")
    for a in actions:
        if a not in DEFAULT_ACTIONS:
            raise ValueError(f"unknown action name: {a!r}")
    return tuple(dict.fromkeys(actions))


def emit_scenario(s: Scenario) -> dict:
    """Inverse of parse_scenario: a JSON-ready dict that round-trips."""

    def pose_dict(p: Pose) -> dict:
        return {"x": p.x, "y": p.y, "theta": p.theta, "h": p.h}

    return {
        "name": s.name,
        "bounds": {"x": list(s.world.bounds_x), "y": list(s.world.bounds_y)},
        "obstacles": [
            {"x": list(b.x), "y": list(b.y), "z": list(b.z)} for b in s.world.obstacles
        ],
        "gaps": [{"x": list(g.x), "y": list(g.y)} for g in s.world.gaps],
        "start": pose_dict(s.start),
        "goals": [pose_dict(g) for g in s.goals],
        "profile": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(s.profile).items()
        },
        "actions": list(s.actions),
    }


def scenario_from_json(text: str, name: str = "custom") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario is not valid JSON: {exc}") from None
    return parse_scenario(data, name)


# -- builtin worlds -------------------------------------------------------


def _bar(x0: float, x1: float, y0: float, y1: float) -> Box:
    return Box((x0, x1), (y0, y1), BAR_Z)


def _wall(x0: float, x1: float, y0: float, y1: float) -> Box:
    return Box((x0, x1), (y0, y1), WALL_Z)


def staircase_bar(base_x: float, slope: float, y0: float, y1: float) -> list[Box]:
    """A low bar crossing the floor at a slight angle, approximated by
    axis-aligned segments about STAIR_GRANULARITY wide."""
    if not -math.tan(math.radians(15.0)) <= slope <= math.tan(math.radians(15.0)):
        raise ValueError("staircase slope must stay shallow")
    boxes = []
    n = max(1, round((y1 - y0) / STAIR_GRANULARITY))
    for i in range(n):
        ya = y0 + (y1 - y0) * i / n
        yb = y0 + (y1 - y0) * (i + 1) / n
        cx = base_x + slope * (ya - y0)
        boxes.append(_bar(cx - STAIR_DEPTH / 2, cx + STAIR_DEPTH / 2, ya, yb))
    return boxes


def _three_routes(variant: str) -> Scenario:
    obstacles = [
        _wall(2.0, 7.8, 1.8, 2.2),
        _wall(2.0, 7.8, 3.8, 4.2),
        _bar(3.4, 3.8, 0.0, 1.8),
        _bar(6.0, 6.4, 0.0, 1.8),
        _bar(4.8, 5.2, 4.2, 6.0),
    ]
    gaps = []
    if variant in ("b", "c"):
        obstacles.append(_bar(4.6, 5.0, 2.2, 3.8))
    if variant == "c":
        gaps.append(GapRect((9.0, 9.6), (0.0, 6.0)))
    profile = RobotProfile()
    world = WorldModel((0.0, 11.2), (0.0, 6.0), tuple(obstacles), tuple(gaps))
    return Scenario(
        name=f"three_routes_{variant}",
        world=world,
        profile=profile,
        start=Pose(0.8, 3.0, 0.0, profile.h_walk),
        goals=(Pose(10.2, 3.0, 0.0, profile.h_walk),),
    )


def _hallway() -> Scenario:
    obstacles: list[Box] = []
    for base, slope in ((9.4, -0.15), (8.3, 0.12), (7.2, -0.10), (6.4, 0.14)):
        obstacles.extend(staircase_bar(base, slope, 0.0, 4.0))
    profile = RobotProfile()
    world = WorldModel(
        (0.0, 12.0),
        (0.0, 4.0),
        tuple(obstacles),
        (GapRect((3.3, 3.9), (0.0, 4.0)),),
    )
    return Scenario(
        name="hallway",
        world=world,
        profile=profile,
        start=Pose(11.2, 2.0, math.pi, profile.h_walk),
        goals=(Pose(0.8, 2.0, math.pi, profile.h_walk),),
    )


def _double_jump() -> Scenario:
    profile = RobotProfile()
    world = WorldModel(
        (0.0, 12.0),
        (0.0, 6.0),
        (_wall(5.6, 6.4, 0.0, 4.2),),
        (GapRect((2.8, 3.4), (0.0, 6.0)), GapRect((8.6, 9.2), (0.0, 6.0))),
    )
    return Scenario(
        name="double_jump",
        world=world,
        profile=profile,
        start=Pose(10.8, 3.0, math.pi, profile.h_walk),
        goals=(Pose(1.2, 3.0, math.pi, profile.h_walk),),
    )


_BUILTIN = {
    "three_routes_a": lambda: _three_routes("a"),
    "three_routes_b": lambda: _three_routes("b"),
    "three_routes_c": lambda: _three_routes("c"),
    "hallway": _hallway,
    "double_jump": _double_jump,
}

BUILTIN_NAMES = tuple(_BUILTIN)


def builtin_scenario(name: str) -> Scenario:
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin scenario {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()
