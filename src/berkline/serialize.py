"""Scene files, canonical JSON, and export renderers.

A scene is a JSON object carrying a "field" description and exactly one
task block among skeleton, retract, newton, trop, flow, family, plus an
optional "format" (json, dot, svg, csv), in the shapes that
:mod:`berkline.spec` declares.  :func:`run_scene` reads the whole scene
before a task runs, so the runners below only compute and render.
Rendering is deterministic: object keys are sorted, rationals are
printed in lowest terms, and no run-dependent data (timestamps,
addresses, float noise) ever reaches the output, so re-running a scene
reproduces its artifact byte for byte.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .errors import InconsistencyError, SceneError
from .fields import field_from_json
from .gamma import Gamma, INF
from .gflow import assemble_complex, cell_dimension, final_image_membership, flow
from .newton import branch_events, root_valuations_along_path
from .pline import (
    PLinePoint,
    gauss_point,
    infinity_point,
    normalize_point,
    psi_divisor,
    read_point,
    retract,
    skeleton,
    skeleton_contains,
)
from .polyhedra import double_description
from .spec import FORMAT, FORMATS, SCENE, TASKS, walk
from .topo import family_sweep
from .trop import tau_h

__all__ = [
    "FORMATS",
    "TASKS",
    "canon_json",
    "load_scene",
    "point_json",
    "run_scene",
    "tree_dot",
    "tree_json",
]


def canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def rat_str(x) -> str:
    return str(Fraction(x))


def gamma_json(g: Gamma) -> str:
    return "inf" if g.is_inf else rat_str(g.finite)


def point_json(field, p: PLinePoint) -> dict:
    q = normalize_point(field, p)
    return {
        "chart": q.chart,
        "center": field.elem_to_json(q.center),
        "radius": gamma_json(q.radius),
    }


def _elem_str(field, a) -> str:
    enc = field.elem_to_json(a)
    if isinstance(enc, str):
        return enc
    return json.dumps(enc, sort_keys=True, separators=(",", ":"))


def _point_label(field, q: PLinePoint) -> str:
    if q == gauss_point(field):
        return "gauss"
    if q == infinity_point(field):
        return "infinity"
    prefix = "x" if q.chart == "std" else "1/x"
    if q.radius.is_inf:
        return f"{prefix}={_elem_str(field, q.center)}"
    return f"B_{prefix}({_elem_str(field, q.center)}; {gamma_json(q.radius)})"


def tree_json(field, tree) -> dict:
    vertices = [
        {"point": point_json(field, q), "tags": sorted(tree.tags[i])}
        for i, q in enumerate(tree.points)
    ]
    edges = [
        {"child": i, "parent": p, "length": gamma_json(tree.lengths[i])}
        for i, p in enumerate(tree.parent)
        if p is not None
    ]
    return {"root": tree.root, "vertices": vertices, "edges": edges}


def tree_dot(field, tree, name: str = "skeleton") -> str:
    lines = [f"graph {name} {{", '  node [fontname="monospace"];']
    for i, q in enumerate(tree.points):
        label = _point_label(field, q)
        if tree.tags[i]:
            label += " {" + ",".join(sorted(tree.tags[i])) + "}"
        label = label.replace('"', '\\"')
        lines.append(f'  v{i} [label="{label}"];')
    for p, c, ln in tree.edges():
        lines.append(f'  v{p} -- v{c} [label="{gamma_json(ln)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_scene(path) -> dict:
    """The parsed JSON of a scene file; :func:`run_scene` checks its shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SceneError(f"scene is not valid JSON: {exc}") from exc


def run_scene(scene: dict, fmt=None, seed: int = 0, check: bool = False) -> bytes:
    top = walk(SCENE, scene)
    present = [t for t in TASKS if t in scene]
    if len(present) != 1:
        raise SceneError(f"scene needs exactly one task block, found {present or 'none'}")
    task = present[0]
    field = field_from_json(top["field"])
    chosen = top["format"] if fmt is None else walk(FORMAT, fmt, "format")
    runner, renders = _RUNNERS[task]
    if chosen not in renders.replace(",", "").split():
        raise SceneError(f"{task} scenes render as {renders}")
    args = walk(TASKS[task], scene[task], task, {"field": field})
    return runner(field, args, chosen, seed, check).encode("utf-8")


# --- skeleton -------------------------------------------------------------


def _run_skeleton(field, args, fmt, seed, check) -> str:
    pts = [read_point(field, p) for p in args["divisor"]]
    tree = skeleton(field, pts)
    if check:
        _check_skeleton(field, tree, pts)
    return canon_json(tree_json(field, tree)) if fmt == "json" else tree_dot(field, tree)


def _check_skeleton(field, tree, pts) -> None:
    tree.validate()
    if tree.points[tree.root] != gauss_point(field):
        raise InconsistencyError("skeleton root is not the Gauss point")
    for d in pts:
        q = normalize_point(field, d)
        if retract(field, q, pts) != q:
            raise InconsistencyError("divisor point moved by its own retraction")


# --- retract --------------------------------------------------------------


def _run_retract(field, args, fmt, seed, check) -> str:
    pts = [read_point(field, p) for p in args["divisor"]]
    a = read_point(field, args["point"])
    q = retract(field, a, pts)
    if check:
        _check_retract(field, a, q, pts, seed)
    return canon_json({"image": point_json(field, q)})


def _check_retract(field, a, q, pts, seed) -> None:
    rng = random.Random(seed)
    if retract(field, q, pts) != q:
        raise InconsistencyError("retraction is not idempotent")
    tree = skeleton(field, pts)
    if not skeleton_contains(field, tree, q):
        raise InconsistencyError("retraction image left the skeleton")
    base = psi_divisor(field, 0, a, pts)
    for _ in range(5):
        t = Fraction(rng.randint(0, 24), rng.randint(1, 4))
        via = psi_divisor(field, 0, psi_divisor(field, t, a, pts), pts)
        if via != base:
            raise InconsistencyError("homotopy endpoint depends on the stopover time")


# --- newton ---------------------------------------------------------------


def _run_newton(field, args, fmt, seed, check) -> str:
    profile = root_valuations_along_path(field, args["coeffs"], args["center"])
    events = branch_events(profile)
    if check:
        _check_newton(profile, events)
    if fmt == "json":
        return canon_json(_profile_json(profile, events))
    return _profile_csv(profile) if fmt == "csv" else _profile_svg(profile)


def _root_json(fn, mult) -> dict:
    if fn.is_infinite:
        return {"mult": mult, "value": "inf"}
    (s, o), = fn.terms
    return {"mult": mult, "slope": rat_str(s), "intercept": rat_str(o)}


def _profile_json(profile, events) -> dict:
    pieces = []
    for lo, hi, roots in profile.pieces:
        pieces.append(
            {
                "lo": gamma_json(lo),
                "hi": gamma_json(hi),
                "roots": [_root_json(fn, m) for fn, m in roots],
            }
        )
    return {"pieces": pieces, "events": [gamma_json(e) for e in events]}


def _profile_csv(profile) -> str:
    lines = ["lo,hi,slope,intercept,mult"]
    for lo, hi, roots in profile.pieces:
        for fn, mult in roots:
            if fn.is_infinite:
                s = o = "inf"
            else:
                (sl, ic), = fn.terms
                s, o = rat_str(sl), rat_str(ic)
            lines.append(f"{gamma_json(lo)},{gamma_json(hi)},{s},{o},{mult}")
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _px(x) -> str:
    return f"{float(x):.2f}"


def _profile_svg(profile) -> str:
    """Root-valuation graphs over the radius interval [0, 10]."""
    horizon = Fraction(10)
    segs = []
    ys = [Fraction(0)]
    for lo, hi, roots in profile.pieces:
        a = lo.finite
        if a > horizon:
            continue
        b = horizon if hi.is_inf or hi.finite > horizon else hi.finite
        for fn, mult in roots:
            if fn.is_infinite:
                continue
            (s, o), = fn.terms
            y0, y1 = s * a + o, s * b + o
            segs.append((a, y0, b, y1, mult))
            ys.extend([y0, y1])
    lo_y, hi_y = min(ys), max(ys)
    if hi_y == lo_y:
        hi_y = lo_y + 1
    width, height, margin = 640, 400, 50

    def sx(t):
        return margin + (t / horizon) * (width - 2 * margin)

    def sy(v):
        return height - margin - ((v - lo_y) / (hi_y - lo_y)) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width - margin}" y="{height - margin + 20}" '
        f'font-size="12" text-anchor="end">t = {rat_str(horizon)}</text>',
        f'<text x="{margin - 8}" y="{margin}" font-size="12" '
        f'text-anchor="end">{rat_str(hi_y)}</text>',
        f'<text x="{margin - 8}" y="{height - margin}" font-size="12" '
        f'text-anchor="end">{rat_str(lo_y)}</text>',
    ]
    for lo, hi, _ in profile.pieces[:-1]:
        if hi.is_inf or hi.finite > horizon:
            continue
        x = sx(hi.finite)
        parts.append(
            f'<line x1="{_px(x)}" y1="{margin}" x2="{_px(x)}" '
            f'y2="{height - margin}" stroke="#999999" stroke-dasharray="4 3"/>'
        )
    for k, (a, y0, b, y1, mult) in enumerate(segs):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<line x1="{_px(sx(a))}" y1="{_px(sy(y0))}" x2="{_px(sx(b))}" '
            f'y2="{_px(sy(y1))}" stroke="{color}" stroke-width="{1 + mult}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _flat_values(roots, t):
    out = []
    for fn, mult in roots:
        v = fn.eval(t)
        out.extend([gamma_json(v)] * mult)
    return sorted(out)


def _check_newton(profile, events) -> None:
    masses = {sum(m for _, m in roots) for _, _, roots in profile.pieces}
    if len(masses) != 1:
        raise InconsistencyError("root mass is not conserved across pieces")
    for (lo1, hi1, r1), (lo2, hi2, r2) in zip(profile.pieces, profile.pieces[1:]):
        if hi1 != lo2:
            raise InconsistencyError("profile pieces do not abut")
        if _flat_values(r1, hi1) != _flat_values(r2, lo2):
            raise InconsistencyError("root valuations jump at a piece boundary")
    for a, b in zip(events, events[1:]):
        if not a < b:
            raise InconsistencyError("branch events are not strictly increasing")


# --- trop -----------------------------------------------------------------


def _run_trop(field, args, fmt, seed, check) -> str:
    table = args["map"]
    # homogeneous coordinates stay a pair; every other input is a point
    inputs = [x if isinstance(x, list) else read_point(field, x) for x in args["points"]]
    values = [tau_h(field, table, x) for x in inputs]
    if check:
        _check_trop(field, table, inputs, values, seed)
    if fmt == "json":
        return canon_json({"values": [[gamma_json(g) for g in v.coords] for v in values]})
    lines = [",".join(f"g{i}" for i in range(len(values[0].coords)))]
    lines += [",".join(gamma_json(g) for g in v.coords) for v in values]
    return "\n".join(lines) + "\n"


def _check_trop(field, table, inputs, values, seed) -> None:
    rng = random.Random(seed)
    for x, v in zip(inputs, values):
        if not isinstance(x, list):
            continue
        lam = field.coerce(Fraction(rng.randint(1, 30)))
        scaled = [lam * u for u in x]
        if tau_h(field, table, scaled) != v:
            raise InconsistencyError("tropical image is not scaling invariant")


# --- flow -----------------------------------------------------------------


def _run_flow(field, args, fmt, seed, check) -> str:
    K = assemble_complex(args)
    unit_h = [int(j == K.h_index) for j in range(K.n)]
    if double_description([alpha for alpha, _ in K._rows] + [unit_h], (), K.n)[0]:
        # a direction unseen by every functional and by h is a lineality
        # direction of every cell, so no cell is stable
        raise SceneError("flow.functionals: expected functionals spanning the coordinates with h")
    t, start = args["t"], args["start"]
    res = flow(K, t, start)
    if check:
        _check_flow(K, t, start, res, seed)
    return canon_json({
        "endpoint": [gamma_json(g) for g in res.endpoint],
        "steps": [
            {
                "cell": "".join(s.cell.pattern),
                "duration": gamma_json(s.duration),
                "direction": [rat_str(d) for d in s.direction],
            }
            for s in res.steps
        ],
        "total": gamma_json(res.total_time),
    })


def _check_flow(K, t, start, res, seed) -> None:
    rng = random.Random(seed)
    # a finite time may run out before the flow reaches the stable set
    reached = t.is_inf or res.total_time < t
    if reached and not final_image_membership(K, res.endpoint):
        raise InconsistencyError("flow endpoint escapes the stable set")
    dims = [cell_dimension(K, s.cell) for s in res.steps]
    if dims != sorted(dims, reverse=True) or len(set(dims)) != len(dims):
        raise InconsistencyError("visited cell dimensions fail to decrease")
    for s in res.steps:
        if s.direction[K.h_index] != 0:
            raise InconsistencyError("flow direction moves the preserved height")
    # a run split at an intermediate time s must end where the whole run does
    if t.is_inf:
        s, rest = Fraction(rng.randint(0, 40), rng.randint(1, 4)), INF
    else:
        s = t.finite * Fraction(rng.randint(0, 8), 8)
        rest = t.finite - s
    if flow(K, rest, flow(K, s, start).endpoint).endpoint != res.endpoint:
        raise InconsistencyError("flow fails the semigroup law")


# --- family ---------------------------------------------------------------


def _family_callable(divisor):
    """b -> the divisor, from entries "inf", "b", {"affine": [c0, c1]} or constants."""

    def entry(e, b):
        if isinstance(e, dict):
            c0, c1 = e["affine"]
            return c0 + c1 * b
        return b if isinstance(e, str) and e == "b" else e

    return lambda b: [entry(e, b) for e in divisor]


def _run_family(field, args, fmt, seed, check) -> str:
    samples, divisor = args["samples"], args["divisor"]
    fam = _family_callable(divisor)
    classes = family_sweep(field, fam, samples)
    if check:
        _check_family(field, fam, samples, classes, len(divisor), seed)
    if fmt == "json":
        return canon_json({
            "classes": {
                code: [field.elem_to_json(b) for b in members]
                for code, members in classes.items()
            }
        })
    if fmt == "dot":
        graphs = []
        for idx, code in enumerate(sorted(classes)):
            pts = [read_point(field, e) for e in fam(classes[code][0])]
            graphs.append(tree_dot(field, skeleton(field, pts), name=f"class{idx}"))
        return "".join(graphs)
    lines = ["class,sample"]
    for idx, code in enumerate(sorted(classes)):
        for b in classes[code]:
            lines.append(f"{idx},{_elem_str(field, b)}")
    return "\n".join(lines) + "\n"


def _check_family(field, fam, samples, classes, width, seed) -> None:
    if width <= 5 and len(classes) > 16:
        raise InconsistencyError("family produced more classes than the finiteness bound")
    shuffled = list(samples)
    random.Random(seed).shuffle(shuffled)
    again = family_sweep(field, fam, shuffled)

    def norm(cl):
        return {k: sorted(_elem_str(field, b) for b in v) for k, v in cl.items()}

    if norm(again) != norm(classes):
        raise InconsistencyError("family partition depends on sample order")


# each task's runner and the formats it renders, as its refusal lists them
_RUNNERS = {
    "skeleton": (_run_skeleton, "json or dot"),
    "retract": (_run_retract, "json"),
    "newton": (_run_newton, "json, csv, or svg"),
    "trop": (_run_trop, "json or csv"),
    "flow": (_run_flow, "json"),
    "family": (_run_family, "json, dot, or csv"),
}
