"""Command line behavior: exit codes, artifacts, determinism."""
import csv
import json
import math
import time

import pytest

from posgraph import emit_scenario, scenario_from_json
from posgraph.cli import EXIT_INPUT, EXIT_NO_PATH, EXIT_OK, main, run_benchmark
from posgraph.scenarios import builtin_scenario


def small_scenario_file(tmp_path, **extra):
    data = {
        "name": "mini",
        "bounds": {"x": [0, 6], "y": [0, 4]},
        "obstacles": [{"x": [2.8, 3.2], "y": [0, 3], "z": [0, 2.2]}],
        "gaps": [],
        "start": {"x": 1, "y": 2},
        "goals": [{"x": 5, "y": 2}],
        "actions": ["walk"],
    }
    data.update(extra)
    p = tmp_path / "mini.json"
    p.write_text(json.dumps(data))
    return p


def solve_args(path, *more):
    return [
        "solve", "--scenario", str(path), "--seed", "0",
        "--time-limit", "30", *more,
    ]


def test_solve_builtin_exits_zero(capsys):
    rc = main(["solve", "--builtin", "three_routes_a", "--actions", "walk", "--time-limit", "30"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "three_routes_a: solved" in out
    assert "walk:" in out


def test_solve_writes_artifacts(tmp_path, capsys):
    scn = small_scenario_file(tmp_path)
    out = tmp_path / "path.json"
    dump = tmp_path / "graph.txt"
    log = tmp_path / "events.log"
    svg = tmp_path / "world.svg"
    rc = main(solve_args(scn, "--out", str(out), "--dump", str(dump),
                         "--log", str(log), "--svg", str(svg)))
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "mini"
    assert payload["seed"] == 0
    assert payload["cost"] > 4.0
    for e in payload["edges"]:
        assert e["action"] == "walk"
        assert e["status"] in ("sufficient-confirmed", "job-confirmed")
        assert set(e) >= {"action", "status", "cost", "from", "to"}
    dump_text = dump.read_text()
    assert dump_text.startswith("V 0 walk")
    assert "\nE " in dump_text
    log_text = log.read_text()
    assert log_text.startswith("CYCLE 1")
    assert "GROW walk" in log_text
    svg_text = svg.read_text()
    assert svg_text.startswith("<?xml") and svg_text.rstrip().endswith("</svg>")


def test_solve_deterministic_artifacts_across_runs(tmp_path):
    scn = small_scenario_file(tmp_path)
    blobs = []
    for run in range(2):
        out = tmp_path / f"p{run}.json"
        dump = tmp_path / f"g{run}.txt"
        rc = main(solve_args(scn, "--out", str(out), "--dump", str(dump)))
        assert rc == EXIT_OK
        blobs.append((out.read_bytes(), dump.read_bytes()))
    assert blobs[0] == blobs[1]


def test_solve_timeout_exits_two(tmp_path, capsys):
    # goal walled off entirely: only timeout can end the search
    scn = small_scenario_file(
        tmp_path,
        obstacles=[{"x": [2.8, 3.2], "y": [0, 4], "z": [0, 2.2]}],
    )
    rc = main(["solve", "--scenario", str(scn), "--time-limit", "2"])
    assert rc == EXIT_NO_PATH
    assert "no path found within 2.0s" in capsys.readouterr().out


@pytest.mark.parametrize("seed", range(3))
def test_walk_jump_without_crawl_solves_without_traceback(seed, capsys):
    # jump landings sit on the crawl manifold; linking them with crawl edges
    # graded by the disabled crawl action raised KeyError: 'crawl'
    argv = ["solve", "--builtin", "double_jump", "--actions", "walk,jump", "--seed", str(seed), "--time-limit", "20"]
    assert main(argv) in (EXIT_OK, EXIT_NO_PATH)
    assert "Traceback" not in capsys.readouterr().err


def test_bad_inputs_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")

    def scenario_with(name, **extra):
        (tmp_path / name).mkdir()
        return str(small_scenario_file(tmp_path / name, **extra))

    # a NaN theta or h got past every check and died in the search with
    # "error: cannot convert float NaN to integer"
    named = {
        scenario_with("nan_theta", start={"x": 1, "y": 2, "theta": math.nan}): "error: start: ",
        scenario_with("inf_h", goals=[{"x": 5, "y": 2}, {"x": 5, "y": 3, "h": math.inf}]): "error: goals[1]: ",
        scenario_with("huge_x", start={"x": 10**400, "y": 2}): "error: start: int too large to convert to float",
        scenario_with("huge_profile", profile={"h_walk": 10**400}): "error: profile: int too large to convert to float",
    }
    # an infinite bound made show print Infinity and render write width="inf",
    # and an infinite obstacle top failed the search on an infinite pose height
    geometry = {
        scenario_with("inf_bound", bounds={"x": [0, math.inf], "y": [0, 4]}): "error: world bounds must be finite",
        scenario_with(
            "inf_top", obstacles=[{"x": [2.8, 3.2], "y": [0, 3], "z": [0, math.inf]}]
        ): "error: obstacles[0]: box z interval must be finite",
        scenario_with("nan_gap", gaps=[{"x": [4.0, math.nan], "y": [0, 4]}]): "error: gaps[0]: gap x interval must be finite",
        # a JSON integer beyond float range died in float() with an OverflowError traceback
        scenario_with("huge_bound", bounds={"x": [0, 10**400], "y": [0, 4]}): "error: bounds.x must be a two-number list",
        scenario_with(
            "huge_top", obstacles=[{"x": [2.8, 3.2], "y": [0, 3], "z": [0, 10**400]}]
        ): "error: obstacles[0]: obstacles[0].z must be a two-number list",
    }
    named.update(geometry)
    svg = tmp_path / "world.svg"
    cases = [
        ["solve", "--scenario", str(bad)],
        ["solve", "--scenario", str(tmp_path / "missing.json")],
        ["solve", "--builtin", "three_routes_a", "--actions", "walk,fly"],
        ["solve", "--builtin", "three_routes_a", "--actions", " , "],
        ["show", "--scenario", str(bad)],
        # --actions skipped the scenario parser's name check, so show printed
        # "actions": ["fly"] and render drew the world
        ["show", "--builtin", "hallway", "--actions", "fly"],
        ["render", "--out", str(svg), "--builtin", "hallway", "--actions", "fly"],
        # a NaN limit ran no cycle and exited 2, "no path found within nans"
        ["solve", "--builtin", "three_routes_a", "--time-limit", "nan"],
        # no trials printed a row of nan and exited 2
        ["bench", "--builtin", "three_routes_a", "--trials", "0"],
        ["bench", "--builtin", "three_routes_a", "--trials", "-3"],
    ] + [["solve", "--scenario", path] for path in named]
    for path in geometry:
        cases += [["show", "--scenario", path], ["render", "--out", str(svg), "--scenario", path]]
    for argv in cases:
        assert main(argv) == EXIT_INPUT, argv
        out, err = capsys.readouterr()
        assert "error:" in err and "nan" not in out and "Traceback" not in err, argv
        if argv[-1] in named:
            assert named[argv[-1]] in err, err
    assert not svg.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dump", "{}"],
        ["solve", "--out", "{}"],
        ["solve", "--log", "{}"],
        ["solve", "--svg", "{}"],
        ["bench", "--trials", "1", "--csv", "{}"],
        ["render", "--out", "{}"],
    ],
    ids=["solve-dump", "solve-out", "solve-log", "solve-svg", "bench-csv", "render-out"],
)
def test_unwritable_output_exits_one_without_traceback(tmp_path, capsys, argv):
    # the solve ran to the end and then died with a FileNotFoundError traceback
    scn = small_scenario_file(tmp_path)
    target = tmp_path / "missing" / "artifact"
    argv = [a.format(target) for a in argv] + ["--scenario", str(scn)]
    if argv[0] != "render":
        argv += ["--time-limit", "30"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dump", "{missing}"],
        ["solve", "--out", "{missing}"],
        ["solve", "--svg", "{dir}"],
        ["bench", "--trials", "1", "--csv", "{missing}"],
        ["bench", "--trials", "1", "--csv", "{dir}"],
    ],
    ids=["solve-dump-missing-dir", "solve-out-missing-dir", "solve-svg-is-dir", "bench-csv-missing-dir", "bench-csv-is-dir"],
)
def test_unwritable_output_fails_before_the_search(tmp_path, capsys, argv):
    # walk,crawl cannot solve three_routes_c, so the search used to run out
    # its whole 20 s limit before the output was opened; the check takes
    # about 2 ms
    flag, target = argv[-2:]
    path = target.format(missing=tmp_path / "missing" / "g.txt", dir=tmp_path)
    reason = "is a directory" if target == "{dir}" else f"directory {tmp_path / 'missing'} does not exist"
    argv = argv[:-1] + [path, "--builtin", "three_routes_c", "--actions", "walk,crawl", "--time-limit", "20"]
    t0 = time.monotonic()
    assert main(argv) == EXIT_INPUT
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err == f"error: {flag} {path}: {reason}\n"


def test_repeated_action_flag_round_trips_through_show(tmp_path, capsys):
    # --actions walk,walk printed both names, which the parser then merged
    assert main(["show", "--builtin", "hallway", "--actions", "walk,walk"]) == EXIT_OK
    text = capsys.readouterr().out
    assert json.loads(text)["actions"] == ["walk"]
    scn = tmp_path / "hallway.json"
    scn.write_text(text)
    assert main(["show", "--scenario", str(scn)]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_show_round_trips(tmp_path, capsys):
    rc = main(["show", "--builtin", "hallway"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    sc = scenario_from_json(text)
    assert sc == builtin_scenario("hallway")


def test_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "w.svg"
    rc = main(["render", "--builtin", "double_jump", "--out", str(out)])
    assert rc == EXIT_OK
    text = out.read_text()
    assert text.startswith("<?xml")
    assert text.count("<rect") > 3  # floor, wall, gaps


def test_bench_table_and_csv(tmp_path, capsys):
    scn = small_scenario_file(tmp_path)
    csv_path = tmp_path / "runs.csv"
    argv = [
        "bench", "--scenario", str(scn), "--trials", "3", "--seed", "7",
        "--time-limit", "30", "--csv", str(csv_path),
    ]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "scenario" in out and "success" in out
    assert "mini" in out and "100.0%" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "actions", "trial", "seed", "solved", "elapsed", "cost"]
    assert len(rows) == 4
    assert [r[3] for r in rows[1:]] == ["7", "8", "9"]
    assert all(r[4] == "1" for r in rows[1:])
    # appending keeps one header
    assert main(argv) == EXIT_OK
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7
    assert sum(1 for r in rows if r[0] == "scenario") == 1


def test_run_benchmark_keep_edges_snapshots():
    sc = builtin_scenario("three_routes_a")
    res = run_benchmark(sc, trials=2, base_seed=0, time_limit=30.0)
    assert res.successes == 2
    for r in res.records:
        assert r.tags and len(r.edges) == len(r.tags)
        for snap, status in r.edges:
            assert status in ("sufficient-confirmed", "job-confirmed")
            assert snap.tag == r.tags[r.edges.index((snap, status))]


def test_missing_required_args_exit_usage_error(capsys):
    for argv in (
        ["solve"],
        ["solve", "--builtin", "nope"],
        ["solve", "--builtin", "hallway", "--seed", "abc"],
        ["solve", "--builtin", "hallway", "--workers", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT, argv  # usage failure is bad input, not EXIT_NO_PATH
        err = capsys.readouterr().err
        assert err.startswith("usage: posgraph") and "error:" in err, argv


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--time-limit" in capsys.readouterr().out


@pytest.mark.parametrize("grid", [5, [-0.2]])
def test_bad_apex_grid_exits_one_without_traceback(tmp_path, capsys, grid):
    # a jump scenario, so a grid that slipped through would reach the parabola probe
    scn = small_scenario_file(
        tmp_path,
        gaps=[{"x": [2.8, 3.4], "y": [0, 4]}],
        obstacles=[],
        actions=["walk", "crawl", "jump"],
        profile={"apex_grid": grid},
    )
    assert main(solve_args(scn)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: profile: profile apex_grid")
    assert "Traceback" not in err


def test_unbounded_world_diagonal_exits_one_without_traceback(tmp_path, capsys):
    # the chain limit of connect, ceil(diagonal / step), overflowed mid-search
    scn = small_scenario_file(tmp_path, bounds={"x": [0, 1e308], "y": [0, 4]})
    assert main(solve_args(scn)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: world diagonal")
    assert "Traceback" not in err


def test_far_from_origin_world_exits_one_without_traceback(tmp_path, capsys):
    # finite bounds whose 1 cm quantization overflows died in quantize_pose
    # with "OverflowError: cannot convert float infinity to integer"
    scn = small_scenario_file(
        tmp_path,
        bounds={"x": [1e307, 1.0000000000001e307], "y": [0, 6]},
        obstacles=[],
        start={"x": 1e307, "y": 3},
        goals=[{"x": 1e307, "y": 4}],
    )
    assert main(solve_args(scn)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: world bound x low 1e+307")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("stride", 0), ("stride", -0.4), ("res", float("inf")), ("r_jump", float("nan"))])
def test_bad_profile_number_exits_one_at_once(tmp_path, capsys, field, value):
    # three_routes_b spawns gait confirmation jobs, whose foothold loop never
    # ended on a stride <= 0; json writes inf and nan as Infinity and NaN
    data = emit_scenario(builtin_scenario("three_routes_b"))
    data["profile"][field] = value
    scn = tmp_path / "bad_profile.json"
    scn.write_text(json.dumps(data))
    t0 = time.monotonic()
    assert main(["solve", "--scenario", str(scn), "--seed", "0", "--time-limit", "5"]) == EXIT_INPUT
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: profile: profile {field} must be")
    assert "Traceback" not in err
