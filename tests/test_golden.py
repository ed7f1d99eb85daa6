"""Recorded digests of builtin solves: a determinism check that spans commits.
A change that alters the graph dump, the event log or the JSON path
description of any builtin with a fixed seed fails here, even if every other
test still passes. The seed-0 dump and log digests hold for the library and
for a CLI solve with default flags alike; seeds 1-39 are checked through the
library."""
import hashlib
import json
from pathlib import Path

import pytest

from posgraph import BUILTIN_NAMES, Planner, PlannerConfig, builtin_scenario
from posgraph import graph as graph_module
from posgraph.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_builtins_seed0.json").read_text())["sha256"]
GOLDEN_SEEDS = json.loads((DATA / "golden_builtins_seeds1to9.json").read_text())["sha256"]
GOLDEN_PATHS = json.loads((DATA / "golden_paths.json").read_text())["sha256"]
GOLDEN_WIDE = json.loads((DATA / "golden_builtins_seeds10to39.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _solve(name, seed):
    """The solved planner, the dump+log digest and the path-JSON digest."""
    sc = builtin_scenario(name)
    planner = Planner(sc.world, sc.profile, sc.start, list(sc.goals), sc.actions, PlannerConfig(t_max=60.0, seed=seed))
    path = planner.find_path()
    assert path is not None
    text = planner.graph.dump() + planner.event_log()
    return planner, _sha256(text), _sha256(json.dumps(planner.describe_path(path), sort_keys=True))


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == sorted(BUILTIN_NAMES)
    assert sorted(GOLDEN_SEEDS) == sorted(BUILTIN_NAMES)
    assert all(sorted(GOLDEN_SEEDS[name], key=int) == [str(s) for s in range(1, 10)] for name in BUILTIN_NAMES)
    assert sorted(GOLDEN_PATHS) == sorted(BUILTIN_NAMES)
    assert all(sorted(GOLDEN_PATHS[name], key=int) == [str(s) for s in range(10)] for name in BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seed0_solve_reproduces_recorded_digest(name):
    planner, digest, path_digest = _solve(name, 0)
    assert digest == GOLDEN[name]
    assert path_digest == GOLDEN_PATHS[name]["0"]
    # every live edge still passes its necessary condition on the stored
    # poses, which is why confirmation does not check it again
    planner.graph.audit()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seed0_solve_through_the_vertex_grid_reproduces_recorded_digest(name, monkeypatch):
    """Builtin graphs stay below SCAN_VERTICES vertices a tag, so the
    recorded solves never reach subgraph_closest's vertex grid; with the
    threshold at 0 the grid answers from the first vertex on, and must give
    the same graph, log and path."""
    monkeypatch.setattr(graph_module, "SCAN_VERTICES", 0)
    planner, digest, path_digest = _solve(name, 0)
    # every gait grew through its tag's grid
    assert sorted(planner.graph._grids) == sorted(a.tag for a in planner.actions if a.tag != "jump")
    assert digest == GOLDEN[name]
    assert path_digest == GOLDEN_PATHS[name]["0"]


@pytest.mark.parametrize("seed", range(1, 10))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seed_matrix_solve_reproduces_recorded_digest(name, seed):
    _, digest, path_digest = _solve(name, seed)
    assert digest == GOLDEN_SEEDS[name][str(seed)]
    assert path_digest == GOLDEN_PATHS[name][str(seed)]


def test_wide_golden_covers_every_builtin_and_seed():
    for key in ("sha256", "path_sha256"):
        assert sorted(GOLDEN_WIDE[key]) == sorted(BUILTIN_NAMES)
        assert all(sorted(GOLDEN_WIDE[key][name], key=int) == [str(s) for s in range(10, 40)] for name in BUILTIN_NAMES)


@pytest.mark.parametrize("seed", range(10, 40))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_wide_seed_matrix_solve_reproduces_recorded_digest(name, seed):
    _, digest, path_digest = _solve(name, seed)
    assert digest == GOLDEN_WIDE["sha256"][name][str(seed)]
    assert path_digest == GOLDEN_WIDE["path_sha256"][name][str(seed)]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_default_flag_cli_solve_reproduces_recorded_digest(name, tmp_path, capsys):
    dump, log = tmp_path / "graph.txt", tmp_path / "events.log"
    assert main(["solve", "--builtin", name, "--seed", "0", "--dump", str(dump), "--log", str(log)]) == EXIT_OK
    text = dump.read_text() + log.read_text()
    assert _sha256(text) == GOLDEN[name]
