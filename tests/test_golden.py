"""Recorded digests of seed-0 builtin solves: a determinism check that spans
commits. A change that alters the graph dump or the event log of any builtin
at workers=1 fails here, even if every other test still passes."""
import hashlib
import json
from pathlib import Path

import pytest

from posgraph import BUILTIN_NAMES, Planner, PlannerConfig, builtin_scenario

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_builtins_seed0.json").read_text())["sha256"]


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seed0_solve_reproduces_recorded_digest(name):
    sc = builtin_scenario(name)
    planner = Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, PlannerConfig(t_max=60.0, seed=0, workers=1))
    assert planner.find_path() is not None
    text = planner.graph.dump() + planner.event_log()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
