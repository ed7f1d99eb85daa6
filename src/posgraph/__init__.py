"""Multi-action motion planning in a reduced exploration space.

The planner searches over planar position, heading and body height while
three actions (walking, crawling, standing long jumps) propose vertices and
edges under cheap necessary conditions. Expensive sufficient checks run
lazily, and only when a candidate start-to-goal path appears.
"""
from .actions import GaitAction, JumpAction, build_actions
from .confirm import ConfirmationError, ConfirmationQueue, JumpTrajectory, solve_jump_bvp
from .graph import EdgeStatus, PathResult, PossibilityGraph
from .planner import Planner, PlannerConfig, PlannerInputError, find_path
from .render import render_svg
from .scenarios import (
    BUILTIN_NAMES,
    Scenario,
    builtin_scenario,
    emit_scenario,
    parse_scenario,
    scenario_from_json,
)
from .world import Box, GapRect, Pose, RobotProfile, WorldModel, pose_distance

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BUILTIN_NAMES",
    "ConfirmationError",
    "ConfirmationQueue",
    "EdgeStatus",
    "GaitAction",
    "GapRect",
    "JumpAction",
    "JumpTrajectory",
    "PathResult",
    "Planner",
    "PlannerConfig",
    "PlannerInputError",
    "Pose",
    "PossibilityGraph",
    "RobotProfile",
    "Scenario",
    "WorldModel",
    "build_actions",
    "builtin_scenario",
    "emit_scenario",
    "find_path",
    "parse_scenario",
    "pose_distance",
    "render_svg",
    "scenario_from_json",
    "solve_jump_bvp",
    "__version__",
]
