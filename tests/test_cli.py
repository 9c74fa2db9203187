import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from berkline.cli import main
from berkline.errors import PreconditionError, SceneError
from berkline.serialize import FORMATS, run_scene
from berkline.spec import TASKS

SCENES = Path(__file__).resolve().parent.parent / "scenes"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, hash_seed=None):
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "-m", "berkline.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def write_scene(tmp_path, body, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def test_flow_scene_endpoint():
    res = run_cli("--scene", str(SCENES / "flow_plane.json"))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["endpoint"] == ["1", "1"]
    assert payload["total"] == "2"


def test_skeleton_scene_dot_star():
    res = run_cli("--scene", str(SCENES / "skeleton_three_points.json"))
    assert res.returncode == 0
    assert res.stdout.startswith("graph skeleton {")
    assert 'label="gauss"' in res.stdout
    assert res.stdout.count(" -- ") == 3


def test_skeleton_scene_json_depth_two():
    res = run_cli("--scene", str(SCENES / "skeleton_depth_two.json"))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    finite = [e for e in payload["edges"] if e["length"] != "inf"]
    assert [e["length"] for e in finite] == ["2"]
    assert len(payload["vertices"]) == 5


def test_family_scene_four_classes():
    res = run_cli("--scene", str(SCENES / "family_four_types.json"))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    members = sorted(tuple(v) for v in payload["classes"].values())
    assert members == [("1/5",), ("2",), ("5",), ("6", "26")]


def test_newton_scene_matches_worked_example():
    res = run_cli("--scene", str(SCENES / "newton_branching_quadratic.json"))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["events"] == ["1"]
    first, second = payload["pieces"]
    assert first["roots"] == [{"intercept": "0", "mult": 2, "slope": "1"}]
    assert second["roots"] == [{"intercept": "1/2", "mult": 2, "slope": "1/2"}]


def test_format_override_and_out_file(tmp_path):
    out = tmp_path / "profile.csv"
    res = run_cli(
        "--scene",
        str(SCENES / "newton_branching_quadratic.json"),
        "--format",
        "csv",
        "--out",
        str(out),
    )
    assert res.returncode == 0
    assert res.stdout == ""
    text = out.read_text()
    assert text.splitlines()[0] == "lo,hi,slope,intercept,mult"


def test_svg_scene_smoke():
    res = run_cli("--scene", str(SCENES / "newton_profile_plot.json"))
    assert res.returncode == 0
    assert res.stdout.startswith("<svg ")
    assert res.stdout.rstrip().endswith("</svg>")


def test_determinism_all_bundled_scenes(tmp_path):
    for scene in sorted(SCENES.glob("*.json")):
        a = tmp_path / (scene.stem + ".a")
        b = tmp_path / (scene.stem + ".b")
        # two pinned hash seeds, so a dependence on set order shows every run
        r1 = run_cli("--scene", str(scene), "--out", str(a), hash_seed="0")
        r2 = run_cli("--scene", str(scene), "--out", str(b), hash_seed="1")
        assert r1.returncode == 0 and r2.returncode == 0, scene.name
        assert a.read_bytes() == b.read_bytes(), scene.name


@pytest.mark.parametrize("scene", sorted(p.stem for p in SCENES.glob("*.json")))
def test_bundled_scene_bytes_match_golden(scene):
    # tests/golden/<scene>.<fmt> holds the bytes of every format the scene's
    # task renders; every other format must be refused as a malformed scene
    body = json.loads((SCENES / f"{scene}.json").read_text())
    for fmt in FORMATS:
        golden = GOLDEN / f"{scene}.{fmt}"
        for check in (False, True):
            if golden.exists():
                assert run_scene(body, fmt=fmt, check=check) == golden.read_bytes(), (fmt, check)
            else:
                with pytest.raises(SceneError):
                    run_scene(body, fmt=fmt, check=check)


CLI_RUNS = [
    (scene, fmt, check)
    for scene in sorted(p.stem for p in SCENES.glob("*.json"))
    for fmt in (None,) + FORMATS
    for check in (False, True)
]


@pytest.mark.parametrize("scene,fmt,check", CLI_RUNS)
def test_cli_run_matches_golden(scene, fmt, check, capsysbinary):
    # each bundled scene with its own format and with every --format, with
    # and without --check, run in-process: a format the task renders gives
    # the golden bytes, any other exits 1 naming the formats it renders
    path = SCENES / f"{scene}.json"
    body = json.loads(path.read_text())
    (task,) = (t for t in TASKS if t in body)
    args = ["--scene", str(path)] + (["--format", fmt] if fmt else []) + (["--check"] if check else [])
    code = main(args)
    out, err = capsysbinary.readouterr()
    golden = GOLDEN / f"{scene}.{fmt or body.get('format', 'json')}"
    if golden.exists():
        assert (code, out, err) == (0, golden.read_bytes(), b"")
    else:
        assert (code, out) == (1, b"")
        prefix = f"scene error: {task} scenes render as ".encode()
        assert err.startswith(prefix) and err.endswith(b"\n"), err
        named = set(err[len(prefix) : -1].decode().replace(",", " ").split()) - {"or"}
        assert named == {p.suffix[1:] for p in GOLDEN.glob(f"{scene}.*")}, err


def test_newton_root_at_y_zero_renders_as_inf():
    # y (y^2 + 5x - x^2): beside the roots of the quadratic, the root y = 0
    # has valuation inf on every piece
    field = {"kind": "padic", "p": 5}
    cover = {"field": field, "newton": {"center": "0", "coeffs": [[], ["0", "5", "-1"], [], ["1"]]}}
    quad = {"field": field, "newton": {"center": "0", "coeffs": [["0", "5", "-1"], [], ["1"]]}}
    with_inf, without = (json.loads(run_scene(s, fmt="json")) for s in (cover, quad))
    assert with_inf["events"] == without["events"]
    assert [p["roots"] for p in with_inf["pieces"]] == [
        p["roots"] + [{"mult": 1, "value": "inf"}] for p in without["pieces"]
    ]
    rows = run_scene(cover, fmt="csv").decode().splitlines()
    assert [r for r in rows if ",inf,inf," not in r] == run_scene(quad, fmt="csv").decode().splitlines()
    assert [r.split(",")[:2] for r in rows if ",inf,inf," in r] == [["0", "1"], ["1", "inf"]]
    # the svg draws only finite valuations
    assert run_scene(cover, fmt="svg") == run_scene(quad, fmt="svg")


FUZZ_TASKS = ("skeleton", "retract", "newton", "trop", "flow", "family")
FUZZ_SCENES = [
    body
    for body in (json.loads(p.read_text()) for p in sorted(SCENES.glob("*.json")))
    if any(task in body for task in FUZZ_TASKS)
]
FUZZ_VALUES = [0, 1, -1, 3, None, True, "1/0", "x", [], {}, [[1]], [[[]]], [1, [2]]]


def entries(node):
    """(container, key) of every key or list entry at or below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from entries(value)


def assert_names_path(exc, body):
    # a scene error starts with the path of the offending value, rooted at
    # a top-level key of the scene: "flow.functionals[1].alpha.a: ..."
    message = str(exc)
    root = re.match(r"[^.\[:]*", message).group(0)
    assert root in body and message[len(root)] in ".[:", message


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_scene_fuzz_fails_only_as_scene_or_precondition_error(data):
    # one key of the task block or the field, or one entry nested below it,
    # takes a value from the pool
    body = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_SCENES))))
    task = next(task for task in FUZZ_TASKS if task in body)
    part = body[data.draw(st.sampled_from([task, "field"]))]
    node, key = data.draw(st.sampled_from(list(entries(part))))
    node[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    try:
        out = run_scene(body, check=data.draw(st.booleans()))
    except SceneError as exc:
        assert_names_path(exc, body)
        return
    except PreconditionError:
        return
    assert isinstance(out, bytes)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scene_fuzz_renamed_key_is_a_scene_error(data):
    # renaming one key of any object, the top level included, leaves a key
    # that no spec knows
    body = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_SCENES))))
    keyed = [(node, key) for node, key in entries(body) if isinstance(node, dict)]
    node, key = data.draw(st.sampled_from(keyed))
    node[key + data.draw(st.sampled_from(["_", "x", "s"]))] = node.pop(key)
    with pytest.raises(SceneError) as info:
        run_scene(body)
    assert_names_path(info.value, body)


@pytest.mark.parametrize("t", ["0", "1", "3/2"])
def test_flow_check_accepts_time_running_out(t):
    # with a finite time the endpoint need not be stable yet
    body = json.loads((SCENES / "flow_plane.json").read_text())
    body["flow"]["t"] = t
    assert run_scene(body, check=True) == run_scene(body)


def test_json_artifacts_reparse_canonically():
    for scene in sorted(SCENES.glob("*.json")):
        body = json.loads(scene.read_text())
        if body.get("format") != "json":
            continue
        res = run_cli("--scene", str(scene))
        assert res.returncode == 0
        parsed = json.loads(res.stdout)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == res.stdout


def test_check_flag_passes_on_bundled_scenes():
    for name in (
        "retract_deep_point.json",
        "flow_three_coordinates.json",
        "family_four_types.json",
        "trop_quadratic_embedding.json",
    ):
        res = run_cli("--scene", str(SCENES / name), "--check", "--seed", "3")
        assert res.returncode == 0, (name, res.stderr)


def test_nonprime_field_exits_one(tmp_path):
    path = write_scene(
        tmp_path,
        {"field": {"kind": "padic", "p": 4}, "skeleton": {"divisor": ["0", "inf"]}},
    )
    res = run_cli("--scene", path)
    assert res.returncode == 1
    assert "p not prime" in res.stderr


def test_two_task_blocks_exit_one(tmp_path):
    path = write_scene(
        tmp_path,
        {
            "field": {"kind": "padic", "p": 5},
            "skeleton": {"divisor": ["0", "inf"]},
            "retract": {"divisor": ["0", "inf"], "point": "1"},
        },
    )
    res = run_cli("--scene", path)
    assert res.returncode == 1
    assert "exactly one task block" in res.stderr


def test_missing_scene_file_exits_one(tmp_path):
    res = run_cli("--scene", str(tmp_path / "absent.json"))
    assert res.returncode == 1


def test_non_utf8_scene_file_exits_one(tmp_path):
    path = tmp_path / "scene.json"
    path.write_bytes(b"\xff\xfe")
    res = run_cli("--scene", str(path))
    assert res.returncode == 1
    assert "scene error" in res.stderr
    assert "Traceback" not in res.stderr


def test_out_into_missing_directory_exits_one(tmp_path):
    res = run_cli(
        "--scene", str(SCENES / "flow_plane.json"), "--out", str(tmp_path / "absent" / "out.json")
    )
    assert res.returncode == 1
    assert "cannot write output" in res.stderr
    assert "Traceback" not in res.stderr


def test_huge_p_exits_one(tmp_path):
    path = write_scene(
        tmp_path,
        {"field": {"kind": "padic", "p": 10**400 + 1}, "skeleton": {"divisor": ["0", "inf"]}},
    )
    res = run_cli("--scene", path)
    assert res.returncode == 1
    assert "field.p:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "body, path",
    [
        # a bool is not a rational, so it is no field element either
        ({"skeleton": {"divisor": [True, "inf"]}}, "skeleton.divisor[0]: expected a point"),
        # misspelled keys are rejected, not ignored
        ({"newton": {"coeffs": [["0", "1"], ["1"]], "centre": "3"}}, "newton.centre: unknown key"),
        (
            {"flow": {"w": ["a", "h"], "h": "h", "functionals": [{"alpha": {"a": 1}}],
                      "regon": [{"alpha": {"a": 1}}], "start": ["-1", "2"]}},
            "flow.regon: unknown key",
        ),
        (
            {"flow": {"w": ["a", "h"], "h": "h", "functionals": [{"alpha": {"a": 1}}, {"alpha": {"a": "1/0"}}],
                      "start": ["0", "0"]}},
            "flow.functionals[1].alpha.a: expected a rational",
        ),
        ({"retract": {"divisor": ["0", "inf"]}}, "retract.point: missing required key"),
        ({"trop": {"map": [["1"]], "points": [["1", "2", "3"]]}}, "trop.points[0]: expected a list of 2"),
        ({"family": {"divisor": [{"affine": ["1"]}], "samples": ["1"]}}, "family.divisor[0].affine:"),
        ({"skeleton": {"divisor": [{"chart": "std", "center": "0", "radius": "x"}]}},
         "skeleton.divisor[0].radius: expected a rational or inf"),
    ],
    ids=["bool-entry", "newton-centre", "flow-regon", "alpha-zero-denominator", "missing-point",
         "trop-triple", "affine-single", "bad-radius"],
)
def test_malformed_scene_names_its_path(tmp_path, body, path):
    path_file = write_scene(tmp_path, {"field": {"kind": "padic", "p": 5}, **body})
    res = run_cli("--scene", path_file)
    assert res.returncode == 1
    assert res.stderr.startswith(f"scene error: {path}"), res.stderr


def test_unsupported_format_exits_one(tmp_path):
    path = write_scene(
        tmp_path,
        {
            "field": {"kind": "padic", "p": 5},
            "retract": {"divisor": ["0", "inf"], "point": "1"},
            "format": "svg",
        },
    )
    res = run_cli("--scene", path)
    assert res.returncode == 1
    assert "render" in res.stderr


def test_precondition_exits_two(tmp_path):
    path = write_scene(
        tmp_path,
        {
            "field": {"kind": "padic", "p": 5},
            "newton": {"coeffs": [["1", "1"]], "center": "0"},
        },
    )
    res = run_cli("--scene", path)
    assert res.returncode == 2


@pytest.mark.parametrize(
    "flow_block",
    [
        {"w": 5, "h": "h", "start": ["0"]},
        {
            "w": ["a", "h"],
            "h": "h",
            "functionals": [{"alpha": {"a": "1/0"}, "c": 0}],
            "start": ["0", "0"],
        },
        {"w": ["a", "h"], "h": "z", "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "start": ["1/0", "0"]},
        {"w": ["a", "h"], "h": "h", "functionals": 5, "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "functionals": [5], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "functionals": [[1, 2, 3]], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "functionals": [{"alpha": "11"}], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "xi": 5, "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "region": [{"alpha": 5}], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "symmetry": [5], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "symmetry": [["a", "h"]], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "start": 5},
        {"w": ["a", "h"], "h": "h", "start": "31"},
        {"w": ["a", "h"], "h": "h", "start": ["0", "0"], "t": "-1"},
        {"w": ["a", "h"], "h": "h", "functionals": [], "start": ["0", "0"]},
        {"w": ["a", "h"], "h": "h", "functionals": [{"alpha": {"h": 1}}], "start": ["0", "0"]},
    ],
    ids=[
        "w-not-a-list",
        "zero-denominator",
        "h-not-in-w",
        "bad-start",
        "functionals-not-a-list",
        "functional-not-a-block",
        "functional-not-a-pair",
        "alpha-a-string",
        "xi-not-a-list",
        "alpha-not-a-list",
        "symmetry-entry-not-a-map",
        "symmetry-entry-a-list",
        "start-not-a-list",
        "start-a-string",
        "negative-t",
        "no-functionals",
        "functionals-miss-a-coordinate",
    ],
)
def test_malformed_flow_layout_exits_one(tmp_path, flow_block):
    path = write_scene(tmp_path, {"field": {"kind": "padic", "p": 5}, "flow": flow_block})
    res = run_cli("--scene", path)
    assert res.returncode == 1
    assert "scene error" in res.stderr
    assert "Traceback" not in res.stderr


def test_flow_inconsistency_exits_three(tmp_path):
    path = write_scene(
        tmp_path,
        {
            "field": {"kind": "padic", "p": 5},
            "flow": {
                "w": ["a", "b", "h"],
                "h": "h",
                "functionals": [
                    {"alpha": {"a": 1, "b": 1}, "c": 0},
                    {"alpha": {"a": 1}, "c": 0},
                    {"alpha": {"h": 1}, "c": 0},
                ],
                "start": ["4", "-4", "0"],
                "t": "inf",
            },
        },
    )
    res = run_cli("--scene", path)
    assert res.returncode == 3
    assert "inconsistency" in res.stderr
