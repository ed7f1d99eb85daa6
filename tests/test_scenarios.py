"""Scenario format, builtin worlds, and grid oracle structure claims."""
import json
import math

import pytest

from posgraph import (
    BUILTIN_NAMES,
    builtin_scenario,
    emit_scenario,
    parse_scenario,
    scenario_from_json,
)
from posgraph.scenarios import BAR_Z, staircase_bar

from grid_oracle import GridOracle


def minimal_data(**overrides):
    data = {
        "bounds": {"x": [0, 10], "y": [0, 6]},
        "start": {"x": 1, "y": 3},
        "goals": [{"x": 9, "y": 3}],
    }
    data.update(overrides)
    return data


# -- parsing --------------------------------------------------------------


def test_minimal_scenario_defaults():
    s = parse_scenario(minimal_data(), name="tiny")
    assert s.name == "tiny"
    assert s.world.bounds_x == (0.0, 10.0)
    assert s.start.theta == 0.0
    assert s.start.h == s.profile.h_walk
    assert s.actions == ("walk", "crawl", "jump")
    assert s.goals[0].x == 9.0


def test_pose_theta_and_h_overrides():
    s = parse_scenario(
        minimal_data(start={"x": 1, "y": 3, "theta": 3.14, "h": 0.3})
    )
    assert s.start.theta == 3.14
    assert s.start.h == 0.3


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(extra=1), "unknown scenario keys: \\['extra'\\]"),
        (lambda d: d.pop("bounds"), "scenario requires a 'bounds' entry"),
        (lambda d: d.pop("start"), "scenario requires a 'start' entry"),
        (lambda d: d.pop("goals"), "scenario requires a 'goals' entry"),
        (lambda d: d.update(bounds={"x": [0, 10]}), "bounds must be an object"),
        (lambda d: d.update(bounds={"x": [0, 10], "y": [0]}), "bounds.y must be a two-number list"),
        (lambda d: d.update(obstacles=[{"x": [0, 1]}]), "obstacles\\[0\\] must be an object with x, y and z"),
        (lambda d: d.update(obstacles=[{"x": [1, 0], "y": [0, 1], "z": [0, 1]}]), "obstacles\\[0\\]"),
        (lambda d: d.update(gaps=[{"x": [0, 1]}]), "gaps\\[0\\] must be an object with x and y"),
        (lambda d: d.update(goals=[]), "goals must be a non-empty list"),
        (lambda d: d.update(goals=[{"y": 3}]), "goals\\[0\\] requires x and y"),
        (lambda d: d.update(goals=[{"x": 9, "y": 3, "z": 1}]), "goals\\[0\\] has unknown keys"),
        (lambda d: d.update(profile={"wingspan": 2}), "unknown profile fields: \\['wingspan'\\]"),
        (lambda d: d.update(profile={"h_crawl": 2.0}), "profile:"),
        (lambda d: d.update(actions=["walk", "fly"]), "unknown action name: 'fly'"),
        (lambda d: d.update(actions=[]), "actions must be a non-empty list"),
    ],
)
def test_parse_failures_name_the_offender(mutate, message):
    data = minimal_data()
    mutate(data)
    with pytest.raises(ValueError, match=message):
        parse_scenario(data)


def test_profile_fields_and_action_dedup():
    s = parse_scenario(
        minimal_data(
            profile={"h_walk": 1.2, "apex_grid": [0.3, 0.5]},
            actions=["walk", "walk", "jump"],
        )
    )
    assert s.profile.h_walk == 1.2
    assert s.profile.apex_grid == (0.3, 0.5)
    assert s.actions == ("walk", "jump")
    assert s.start.h == 1.2  # default start height follows the profile


def test_scenario_from_json_rejects_bad_text():
    with pytest.raises(ValueError, match="not valid JSON"):
        scenario_from_json("{nope")


def test_round_trip_all_builtins():
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        blob = json.dumps(emit_scenario(s))
        again = scenario_from_json(blob)
        assert again == s, name


def test_unknown_builtin_lists_choices():
    with pytest.raises(ValueError, match="three_routes_a"):
        builtin_scenario("nope")


# -- builtin structure ----------------------------------------------------


def test_builtin_names_stable():
    assert BUILTIN_NAMES == (
        "three_routes_a",
        "three_routes_b",
        "three_routes_c",
        "hallway",
        "double_jump",
    )


def test_bars_crawlable_but_not_walkable():
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        for box in s.world.obstacles:
            # every obstacle either reaches the floor (wall/block) or is a bar
            # hanging above crawl height and below standing height
            if box.z[0] > 0.0:
                assert box.z == BAR_Z
                assert s.profile.body_top_crawl < box.z[0]
                assert box.z[0] < s.profile.body_top_walk


def test_three_routes_variants_nest():
    a = builtin_scenario("three_routes_a")
    b = builtin_scenario("three_routes_b")
    c = builtin_scenario("three_routes_c")
    assert set(a.world.obstacles) < set(b.world.obstacles)
    assert set(b.world.obstacles) == set(c.world.obstacles)
    assert a.world.gaps == b.world.gaps == ()
    assert len(c.world.gaps) == 1
    assert a.start == c.start and a.goals == c.goals


def test_gaps_span_full_width_and_fit_jump_budget():
    for name, count in (("three_routes_c", 1), ("hallway", 1), ("double_jump", 2)):
        s = builtin_scenario(name)
        assert len(s.world.gaps) == count, name
        for gap in s.world.gaps:
            assert gap.y == s.world.bounds_y
            width = gap.x[1] - gap.x[0]
            # launch foothold + gap + centered landing rectangle within range
            assert width == pytest.approx(0.6)
            assert 0.25 + width + 0.45 <= s.profile.jump_range_max


def test_staircase_bar_segments():
    boxes = staircase_bar(5.0, 0.1, 0.0, 2.0)
    assert len(boxes) == 20
    assert all(b.z == BAR_Z for b in boxes)
    assert boxes[0].x[0] == pytest.approx(4.8)
    # each segment recentres along the slope
    assert boxes[-1].x[0] > boxes[0].x[0]
    span = boxes[-1].x[0] - boxes[0].x[0]
    assert span == pytest.approx(0.1 * 1.9, abs=1e-9)
    with pytest.raises(ValueError, match="shallow"):
        staircase_bar(5.0, 0.5, 0.0, 2.0)


def test_endpoints_valid_in_their_worlds():
    from posgraph import Planner, PlannerConfig

    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        pl = Planner(s.world, s.profile, s.start, list(s.goals), s.actions, PlannerConfig())
        pl._init_endpoints()  # raises if any endpoint fails its manifold


# -- reachability structure (grid oracle) ---------------------------------


def oracle_for(name):
    s = builtin_scenario(name)
    return s, GridOracle(s.world, s.profile)


def test_three_routes_a_walk_and_crawl_suffice():
    s, orc = oracle_for("three_routes_a")
    assert orc.reachable((s.start.x, s.start.y), (s.goals[0].x, s.goals[0].y), allow_jump=False)


def test_three_routes_c_needs_a_jump():
    s, orc = oracle_for("three_routes_c")
    start, goal = (s.start.x, s.start.y), (s.goals[0].x, s.goals[0].y)
    assert not orc.reachable(start, goal, allow_jump=False)
    assert orc.reachable(start, goal, allow_jump=True)


def test_hallway_needs_a_jump():
    s, orc = oracle_for("hallway")
    start, goal = (s.start.x, s.start.y), (s.goals[0].x, s.goals[0].y)
    assert not orc.reachable(start, goal, allow_jump=False)
    assert orc.reachable(start, goal, allow_jump=True)


def test_double_jump_needs_jumps():
    s, orc = oracle_for("double_jump")
    start, goal = (s.start.x, s.start.y), (s.goals[0].x, s.goals[0].y)
    assert not orc.reachable(start, goal, allow_jump=False)
    assert orc.reachable(start, goal, allow_jump=True)


@pytest.mark.parametrize("grid", [5, [-0.2], [], ["high"]])
def test_bad_apex_grid_rejected_at_parse(grid):
    with pytest.raises(ValueError, match="profile: profile apex_grid must be a non-empty list of numbers >= 0"):
        parse_scenario(minimal_data(profile={"apex_grid": grid}))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("stride", 0, "stride must be > 0"),
        ("stride", -0.4, "stride must be > 0"),
        ("stride", 1e-7, "stride must be >= res"),
        ("res", math.inf, "res must be a finite number"),
        ("r_jump", math.nan, "r_jump must be a finite number"),
    ],
)
def test_bad_profile_number_rejected_at_parse(field, value, message):
    with pytest.raises(ValueError, match=f"profile: profile {message}"):
        parse_scenario(minimal_data(profile={field: value}))


def test_huge_v_max_is_judged_like_any_other_profile():
    # v_max ** 2 overflowed, and the OverflowError named no field
    assert parse_scenario(minimal_data(profile={"v_max": 1e200})).profile.v_max == 1e200
    with pytest.raises(ValueError, match="profile: profile jump angle window"):
        parse_scenario(minimal_data(profile={"v_max": 1e200, "jump_angle_min": 1.5, "jump_angle_max": 1.0}))
