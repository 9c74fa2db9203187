"""Tests of the benchmark itself: checkers, tracer and command line.

    python3 -m pytest -q bench/tests

Every checker must accept the program's real answers and reject a
corrupted one.  The tracer must restore the package, nest spans and
compute self time, and repeat its counts exactly from round to round.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles as O  # noqa: E402
import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

bl = R.fresh_import()

SEED = 3


def first_round(wl, seed=SEED):
    data = wl.generate(seed)
    state = wl.setup(bl, data)
    return state, [thunk() for _, thunk in wl.ops(bl, state)]


@pytest.fixture(scope="module")
def core():
    return (W.GflowCore(),) + first_round(W.GflowCore())


@pytest.fixture(scope="module")
def flows():
    return (W.GflowFlow(),) + first_round(W.GflowFlow())


@pytest.fixture(scope="module")
def trees():
    return (W.BallTree(),) + first_round(W.BallTree())


@pytest.fixture(scope="module")
def newton():
    return (R.WORKLOADS["newton_scenes"],) + first_round(R.WORKLOADS["newton_scenes"])


@pytest.mark.parametrize("name", ["core", "flows", "trees", "newton"])
def test_checkers_accept_the_program_answers(name, request):
    wl, state, answers = request.getfixturevalue(name)
    for i, answer in enumerate(answers):
        assert wl.check(state, i, answer) == [], f"op {i}"


def test_core_checker_rejects_a_lowered_bound(core):
    wl, state, answers = core
    for i in (0, 6, len(answers) - 1):
        K, found, bounds = answers[i]
        for name in bounds:
            m, c = bounds[name]
            lowered = dict(bounds, **{name: (m, c - 1)})
            assert wl.check(state, i, (K, found, lowered)), (i, name)


def test_core_checker_rejects_a_dropped_cell(core):
    wl, state, answers = core
    for i in (0, 6, len(answers) - 1):
        K, found, bounds = answers[i]
        for k in (0, len(found) // 2, len(found) - 1):
            assert wl.check(state, i, (K, found[:k] + found[k + 1:], bounds)), (i, k)


def test_flow_checker_rejects_a_nudged_endpoint(flows):
    wl, state, answers = flows
    for i in range(0, len(answers), 17):
        full, part, rest, again = answers[i]
        nudged = tuple(g + Fraction(1, 7) if j == 0 else g for j, g in enumerate(full.endpoint))
        bad = dataclasses.replace(full, endpoint=nudged)
        assert wl.check(state, i, (bad, part, rest, again)), i


def without_vertex(tree, v):
    """The tree with vertex v spliced out: its children hang from its
    parent, their edges lengthened by v's edge."""
    keep = [i for i in range(tree.n) if i != v]
    new = {old: k for k, old in enumerate(keep)}
    parent, lengths = [], []
    for i in keep:
        p, ln = tree.parent[i], tree.lengths[i]
        if p == v:
            p, ln = tree.parent[v], ln + tree.lengths[v]
        parent.append(None if p is None else new[p])
        lengths.append(ln)
    return bl.MetricTree(
        points=tuple(tree.points[i] for i in keep),
        parent=tuple(parent),
        lengths=tuple(lengths),
        tags=tuple(tree.tags[i] for i in keep),
        root=new[tree.root],
    )


def test_tree_checker_rejects_a_removed_vertex(trees):
    wl, state, answers = trees
    builds = len(state["data"]["divisors"])
    for i in range(builds):
        tree = answers[i]
        inner = [v for v in range(tree.n) if v != tree.root and not tree.points[v].is_simple]
        for v in inner[:3]:
            assert wl.check(state, i, without_vertex(tree, v)), (i, v)


def test_tree_checker_rejects_a_wrong_retraction(trees):
    wl, state, answers = trees
    builds = len(state["data"]["divisors"])
    q, again, on, off = answers[builds]
    moved = bl.PLinePoint(q.chart, q.center, q.radius + 1)
    assert wl.check(state, builds, (moved, moved, on, off))
    assert wl.check(state, builds, (q, again, on, True))


def test_family_checker_rejects_a_merged_class(trees):
    wl, state, answers = trees
    i = len(answers) - 1
    classes = answers[i]
    first, second = list(classes)[:2]
    merged = dict(classes)
    merged[first] = classes[first] + merged.pop(second)
    assert wl.check(state, i, merged)


def shifted(profile, k):
    """The profile with the first finite root of piece k moved up by 1."""
    pieces = list(profile.pieces)
    lo, hi, roots = pieces[k]
    (fn, mult), rest = roots[0], roots[1:]
    (slope, icpt), = fn.terms
    bumped = bl.MinAffine([(slope, icpt + 1)])
    pieces[k] = (lo, hi, ((bumped, mult),) + rest)
    return bl.RootProfile(tuple(pieces))


def test_newton_checker_rejects_a_shifted_root_valuation(newton):
    wl, state, answers = newton
    for i in range(len(state["covers"])):
        profile = answers[i]
        for k in (0, len(profile.pieces) - 1):
            assert wl.check(state, i, shifted(profile, k)), (i, k)


def test_scene_checker_rejects_differing_bytes(newton):
    wl, state, answers = newton
    i = len(state["covers"])
    assert wl.check(state, i, answers[i]) == []
    assert wl.check(state, i + 1, answers[i + 1] + b" ")


def test_oracle_cells_match_a_hand_count():
    # the quadrant cut by x = 0, h = 0 and x - h = 0: 13 sign cells
    funcs = [((Fraction(1), Fraction(0)), Fraction(0)),
             ((Fraction(0), Fraction(1)), Fraction(0)),
             ((Fraction(1), Fraction(-1)), Fraction(0))]
    assert len(O.arrangement_cells(funcs, 2)) == 13


def test_oracle_skeleton_of_three_points():
    ring = O.Ring(5)
    tree = O.skeleton_oracle(ring, [Fraction(0), Fraction(25), Fraction(1)])
    gauss = (0, frozenset({0, 1, 2}))
    deep = (2, frozenset({0, 1}))
    assert tree[deep] == (gauss, 2)
    assert tree[(None, frozenset({2}))] == (gauss, None)


def test_tracer_nests_spans_and_restores_the_package():
    import berkline.pline as pline

    original = pline.join
    tracer = T.Tracer()
    patches = T.install(tracer)
    try:
        assert pline.join is not original
        tracer.enabled = True
        tracer.begin("op.test", op=1)
        Q5 = bl.PAdicField(5)
        pline.skeleton(Q5, [bl.simple_point(Q5, a) for a in (0, 1, 25)])
        tracer.end()
    finally:
        T.uninstall(patches)
    assert pline.join is original
    by_id = {s[0]: s for s in tracer.spans}
    skel = [s for s in tracer.spans if s[3] == "pline.skeleton"]
    joins = [s for s in tracer.spans if s[3] == "pline.join"]
    assert len(skel) == 1 and joins
    assert all(s[2] == 1 for s in tracer.spans)
    assert by_id[skel[0][1]][3] == "op.test"
    assert all(by_id[s[1]][3] in ("pline.skeleton", "pline.join") for s in joins)
    children = sum(s[5] - s[4] for s in tracer.spans if s[1] == skel[0][0])
    assert tracer.self_ns["pline.skeleton"] == (skel[0][5] - skel[0][4]) - children
    assert tracer.calls["pline.join"] == len(joins)
    assert tracer.calls["fields.val"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    wl = R.WORKLOADS["newton_scenes"]
    data = wl.generate(SEED)
    state = wl.setup(bl, data)
    run = R.Run(wl, bl, state, R.HostClock())
    values = R.run_traced(run, 0.0, tmp_path / "trace.json")
    assert run.correct, run.problems
    summary = json.loads((tmp_path / "trace.json").read_text())["summary"]
    assert summary["rounds_traced"] == 2 and summary["counts_repeat"] is True
    newton_scenes = sum("newton" in scene for scene in state["scenes"])
    # each cover once, each newton scene with and without check
    assert values["newton.root_valuations_along_path.calls"][0] == len(data["covers"]) + 2 * newton_scenes
    assert values["polys.taylor_shift.calls"][0] > 0
    assert set(values) == {name for name, _ in R.PER_LAYER}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gflow_core", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in R.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in R.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(R.WORKLOADS)
