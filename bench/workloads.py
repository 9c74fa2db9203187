"""The four benchmark workloads.

Each workload has three stages.

* ``generate(seed)`` makes the inputs as plain data (strings, ``Fraction``,
  coefficient tuples) without touching berkline.  It is not timed.
* ``setup(bl, data)`` turns the data into program objects through the
  program's own constructors; it is timed together with the import as
  ``setup_s``.
* ``ops(bl, state)`` returns one round: a list of ``(kind, thunk)`` pairs.
  Every round runs the same operations on freshly built objects, so a
  round's work and its counts do not depend on how many rounds ran.

``check(state, i, result)`` returns a list of problems with the answer of
operation ``i``; it compares against :mod:`oracles`, never against a
stored copy of an earlier output.

The ``bl`` namespace is looked up at call time (``bl.gflow.flow(...)``),
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import oracles as O

# --- gflow inputs -----------------------------------------------------------


def acceptance_layout(rng, n, extra):
    """The acceptance tests' complex shape: coordinate hyperplanes plus
    ``extra`` difference functionals x_i - x_j = c, c in {0, 0, 1, -1},
    xi = x_h, region x >= 0."""
    names = [chr(ord("a") + i) for i in range(n - 1)] + ["h"]
    funcs = [{"alpha": {nm: "1"}, "c": "0"} for nm in names]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs[:extra]:
        funcs.append({
            "alpha": {names[i]: "1", names[j]: "-1"},
            "c": str(rng.choice([0, 0, 1, -1])),
        })
    return {
        "w": names,
        "h": "h",
        "functionals": funcs,
        "xi": [{"alpha": {"h": "1"}, "c": "0"}],
        "region": [{"alpha": {nm: "1"}, "c": "0"} for nm in names],
    }


def _affine(block, w):
    return (
        tuple(Fraction(block["alpha"].get(nm, 0)) for nm in w),
        Fraction(block.get("c", 0)),
    )


def local_functionals(layout):
    """The layout's functionals with repeats removed, as build_complex
    documents it: one per positive rescaling of (alpha, c)."""
    w = layout["w"]
    out, seen = [], set()
    for block in layout["functionals"]:
        alpha, c = _affine(block, w)
        lead = abs(next(a for a in alpha if a != 0))
        key = (tuple(a / lead for a in alpha), c / lead)
        if key not in seen:
            seen.add(key)
            out.append((alpha, c))
    return out


def _fracs(point):
    return tuple(g.finite for g in point)


class GflowCore:
    """Cold build_complex -> cells -> core_bounds on small complexes."""

    name = "gflow_core"
    # (coordinates, extra functionals, cells): strata of near-equal cost,
    # ordered by cost.  Of the 20 operations of a round the median falls
    # in the middle of the (2, 1) stratum (ranks 7-15) and the 90th
    # percentile in the middle of the (2, 2) stratum (ranks 18-20): an
    # order statistic at the edge of a stratum follows the costliest
    # complexes a seed draws and the host's noise on them.
    STRATA = (((2, 0, 9), 6), ((2, 1, 19), 9), ((3, 0, 27), 2), ((2, 2, 23), 3))

    def generate(self, seed):
        rng = random.Random(seed)
        layouts = []
        for (n, extra, ncells), count in self.STRATA:
            made = 0
            while made < count:
                layout = acceptance_layout(rng, n, extra)
                funcs = local_functionals(layout)
                if len(O.arrangement_cells(funcs, n)) != ncells:
                    continue
                layouts.append(layout)
                made += 1
        starts = [
            [tuple(Fraction(rng.randint(0, 8), rng.choice((1, 2))) for _ in lay["w"]) for _ in range(4)]
            for lay in layouts
        ]
        return {"layouts": layouts, "starts": starts}

    def setup(self, bl, data):
        # parse every layout once, as a user loads their input; each
        # operation then builds its own cold complex
        for layout in data["layouts"]:
            bl.gflow.build_complex(layout)
        return {"data": data, "bl": bl, "funcs": [local_functionals(l) for l in data["layouts"]]}

    def ops(self, bl, state):
        def op(layout):
            K = bl.gflow.build_complex(layout)
            found = bl.gflow.cells(K)
            bounds = bl.gflow.core_bounds(K)
            return K, found, bounds

        return [("core", lambda l=l: op(l)) for l in state["data"]["layouts"]]

    def check(self, state, i, result):
        K, found, bounds = result
        layout = state["data"]["layouts"][i]
        funcs = state["funcs"][i]
        n = len(layout["w"])
        errs = []
        if [(f.alpha, f.c) for f in K.functionals] != funcs:
            errs.append("functional list differs from the layout")
        patterns = [c.pattern for c in found]
        if len(set(patterns)) != len(patterns):
            errs.append("cells repeats a pattern")
        if set(patterns) != O.arrangement_cells(funcs, n):
            errs.append("cells differs from the local enumeration")
        for x in O.grid_points(n, 2) + state["data"]["starts"][i]:
            if O.sign_pattern(funcs, x) not in set(patterns):
                errs.append(f"sampled point {x} has a pattern outside cells")
                break
        if set(bounds) != set(layout["w"]):
            errs.append("core_bounds keys differ from the coordinates")
            return errs
        h = layout["w"].index(layout["h"])
        for x in O.grid_points(n, 2, halves=False) + state["data"]["starts"][i]:
            end = _fracs(state["bl"].gflow.flow(K, state["bl"].INF, x).endpoint)
            for j, name in enumerate(layout["w"]):
                m, c = bounds[name]
                if not (isinstance(m, int) and m >= 0):
                    errs.append(f"bound multiplier {m!r} is not a natural number")
                elif end[j] > m * end[h] + c:
                    errs.append(f"endpoint {end} breaks the bound on {name}")
        return errs


def flow_signature(layout):
    """(extras through the origin, extras that involve x_h): two layouts
    of one shape and signature cut Q^n into near-equal arrangements."""
    extras = layout["functionals"][len(layout["w"]):]
    zero = sum(b["c"] == "0" for b in extras)
    with_h = sum(layout["h"] in b["alpha"] for b in extras)
    return zero, with_h


class GflowFlow:
    """Full, split and repeated flows on 4-6 coordinate complexes whose
    per-cell caches fill lazily within each round."""

    name = "gflow_flow"
    # (coordinates, extra functionals, signature)
    SHAPES = ((4, 2, (1, 1)), (4, 3, (1, 2)), (5, 1, (0, 1)), (5, 2, (1, 1)), (6, 1, (0, 1))) * 2
    STARTS = 20

    def generate(self, seed):
        rng = random.Random(seed)
        layouts, runs = [], []
        for n, extra, signature in self.SHAPES:
            layout = acceptance_layout(rng, n, extra)
            while flow_signature(layout) != signature:
                layout = acceptance_layout(rng, n, extra)
            layouts.append(layout)
            runs.append([
                (
                    tuple(Fraction(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(n)),
                    Fraction(rng.randint(0, 10), rng.choice((1, 2))),
                )
                for _ in range(self.STARTS)
            ])
        return {"layouts": layouts, "runs": runs}

    def setup(self, bl, data):
        complexes = [bl.gflow.build_complex(l) for l in data["layouts"]]
        return {
            "data": data,
            "complexes": complexes,
            "funcs": [local_functionals(l) for l in data["layouts"]],
            "xis": [[_affine(b, l["w"]) for b in l["xi"]] for l in data["layouts"]],
        }

    def ops(self, bl, state):
        gflow = bl.gflow

        def op(K, x, s):
            full = gflow.flow(K, bl.INF, x)
            part = gflow.flow(K, s, x)
            rest = gflow.flow(K, bl.INF, part.endpoint)
            again = gflow.flow(K, bl.INF, full.endpoint)
            return full, part, rest, again

        out = []
        for K0, runs in zip(state["complexes"], state["data"]["runs"]):
            # a fresh complex per round: its caches start empty every round
            K = gflow.CellComplex(K0.w, K0.h, K0.functionals, K0.xis, K0.region)
            out.extend(("flow", lambda K=K, x=x, s=s: op(K, x, s)) for x, s in runs)
        return out

    def check(self, state, i, result):
        k, r = divmod(i, self.STARTS)
        layout = state["data"]["layouts"][k]
        funcs = state["funcs"][k]
        x, s = state["data"]["runs"][k][r]
        n = len(x)
        h = layout["w"].index(layout["h"])
        full, part, rest, again = result
        errs = []
        for label, res, budget in (("full", full, None), ("split", part, s)):
            pos = x
            dims = []
            for step in res.steps:
                if O.sign_pattern(funcs, pos) != step.cell.pattern:
                    errs.append(f"{label} flow: step cell is not the cell of its start")
                e = step.direction
                if e[h] != 0:
                    errs.append(f"{label} flow: direction moves x_h")
                dims.append(O.cell_dim(funcs, step.cell.pattern, n))
                pos = tuple(a - step.duration.finite * b for a, b in zip(pos, e))
            if _fracs(res.endpoint) != pos:
                errs.append(f"{label} flow: endpoint differs from the replayed steps")
            if any(b >= a for a, b in zip(dims, dims[1:])):
                errs.append(f"{label} flow: visited cell dimensions do not strictly decrease")
            if budget is not None and sum(step.duration.finite for step in res.steps) > budget:
                errs.append("split flow ran past its time budget")
        end = _fracs(full.endpoint)
        if end[h] != x[h]:
            errs.append("x_h changed along the flow")
        for alpha, c in state["xis"][k]:
            if O.dot(alpha, end) - c != O.dot(alpha, x) - c:
                errs.append("xi is not preserved")
        if rest.endpoint != full.endpoint:
            errs.append("split flow disagrees with the full flow")
        if again.steps != () or again.endpoint != full.endpoint:
            errs.append("re-flow from the endpoint moved")
        return errs


# --- ball trees -------------------------------------------------------------

# Simple points of the unit disk are six base-5 digits: an integer over Q5,
# a polynomial in t over Q(t).  Points share digit prefixes in a fixed
# pattern (shaped_digits), so a divisor size fixes the skeleton's shape and
# the seed picks only the digits.
DIGITS = 6


def shaped_digits(rng, n, prefix=()):
    """n digit strings whose prefix tree splits each group of m > 1
    points into min(5, max(2, ceil(m / 2))) near-equal subgroups."""
    if n == 1:
        return [prefix + tuple(rng.randrange(5) for _ in range(DIGITS - len(prefix)))]
    k = min(5, max(2, (n + 1) // 2))
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    out = []
    for digit, size in zip(rng.sample(range(5), k), sizes):
        out.extend(shaped_digits(rng, size, prefix + (digit,)))
    return out


def _point(digits, p):
    if p:
        return Fraction(sum(d * 5**k for k, d in enumerate(digits)))
    return O.tpoly(*digits)


def _divisor(rng, n, p):
    pts = [_point(ds, p) for ds in shaped_digits(rng, n)]
    rng.shuffle(pts)
    return pts


def _query_point(rng, pts, p):
    """A unit-disk simple point off the divisor."""
    while True:
        q = _point([rng.randrange(5) for _ in range(DIGITS)], p)
        if q not in pts:
            return q


class BallTree:
    """Skeleton builds over Q5 and Q(t), retract and membership queries
    against them, and sweeps of the family [0, 1, b, inf]."""

    name = "ball_tree"
    # (field, divisor size, builds per round); the N = 20 over Q5 and
    # N = 10 over Q(t) builds cost about the same and hold the 90th
    # percentile, the N = 40 build sits above it
    BUILDS = ((5, 5, 4), (0, 5, 2), (5, 10, 2), (5, 20, 3), (0, 10, 3), (5, 40, 1))
    QUERIES = 4  # queries per divisor of size 10 or 20
    FAMILIES = 4
    SAMPLES = 8

    def generate(self, seed):
        rng = random.Random(seed)
        divisors, queries = [], []
        for p, n, count in self.BUILDS:
            for _ in range(count):
                pts = _divisor(rng, n, p)
                divisors.append((p, pts))
                if n in (10, 20):
                    for _ in range(self.QUERIES):
                        queries.append((len(divisors) - 1, _query_point(rng, pts, p)))
        families = []
        for _ in range(self.FAMILIES):
            samples = []
            for kind in range(4):
                for _ in range(self.SAMPLES // 4):
                    samples.append(_family_sample(rng, kind))
            rng.shuffle(samples)
            families.append(samples)
        return {"divisors": divisors, "queries": queries, "families": families}

    def setup(self, bl, data):
        fields = {5: bl.PAdicField(5), 0: bl.TAdicField()}
        points = []
        for p, pts in data["divisors"]:
            points.append([bl.simple_point(fields[p], _elem(bl, p, a)) for a in pts])
        queries = []
        for d, q in data["queries"]:
            p = data["divisors"][d][0]
            queries.append(bl.simple_point(fields[p], _elem(bl, p, q)))
        return {"data": data, "fields": fields, "points": points, "queries": queries}

    def ops(self, bl, state):
        pline = bl.pline
        fields = state["fields"]
        data = state["data"]
        trees = {}
        out = []

        def build(d):
            p = data["divisors"][d][0]
            trees[d] = pline.skeleton(fields[p], state["points"][d])
            return trees[d]

        def query(qi):
            d = data["queries"][qi][0]
            p = data["divisors"][d][0]
            field, divisor = fields[p], state["points"][d]
            q = pline.retract(field, state["queries"][qi], divisor)
            again = pline.retract(field, q, divisor)
            # a ball inside the query's branch, strictly below its image
            deeper = bl.PLinePoint(bl.STD, state["queries"][qi].center, q.radius + 1)
            return q, again, pline.skeleton_contains(field, trees[d], q), \
                pline.skeleton_contains(field, trees[d], deeper)

        def sweep(f):
            Q5 = fields[5]
            return bl.topo.family_sweep(Q5, lambda b: [0, 1, b, "inf"], data["families"][f])

        for d in range(len(data["divisors"])):
            out.append(("build", lambda d=d: build(d)))
        for qi in range(len(data["queries"])):
            out.append(("query", lambda qi=qi: query(qi)))
        for f in range(len(data["families"])):
            out.append(("family", lambda f=f: sweep(f)))
        return out

    def check(self, state, i, result):
        data = state["data"]
        nd, nq = len(data["divisors"]), len(data["queries"])
        if i < nd:
            p, pts = data["divisors"][i]
            return check_skeleton(O.Ring(p), pts, result)
        if i < nd + nq:
            d, a = data["queries"][i - nd]
            p, pts = data["divisors"][d]
            return check_query(O.Ring(p), pts, a, result)
        return check_family(data["families"][i - nd - nq], result)


def _family_sample(rng, kind):
    """b on the zero leg, the infinity leg, the one leg, or a unit away
    from 0 and 1 (the Gauss vertex), in the style of the acceptance test."""
    while True:
        u = Fraction(rng.randint(1, 80), rng.randint(1, 80))
        if O.val(5, u) != 0:
            continue
        k = rng.randint(1, 3)
        b = (u * 5**k, u / 5**k, 1 + u * 5**k, u)[kind]
        if kind == 3 and O.val(5, b - 1) != 0:
            continue
        return b


def _elem(bl, p, a):
    return a if p else bl.RatFunc(a)


def _local(p, elem):
    """A program field element as oracle data (a polynomial in t stays one)."""
    if p:
        return Fraction(elem)
    if elem.den != (Fraction(1),):
        raise ValueError(f"expected a polynomial in t, got {elem!r}")
    return O.tpoly(*elem.num)


def _radius(g):
    return None if g.is_inf else g.finite


def point_key(ring, pts, point):
    """Oracle key (radius, members) of a std-chart unit-disk point."""
    if point.chart != "std":
        raise ValueError("point outside the unit disk chart")
    r = _radius(point.radius)
    return r, O.ball_members(ring, pts, _local(ring.p, point.center), r)


def check_skeleton(ring, pts, tree):
    want = O.skeleton_oracle(ring, pts)
    try:
        keys = [point_key(ring, pts, q) for q in tree.points]
    except ValueError as exc:
        return [f"skeleton vertex: {exc}"]
    errs = []
    if len(set(keys)) != len(keys):
        errs.append("skeleton repeats a vertex")
    got = {}
    for i, key in enumerate(keys):
        if tree.parent[i] is None:
            if key != (0, frozenset(range(len(pts)))):
                errs.append("skeleton root is not the Gauss point")
            continue
        got[key] = (keys[tree.parent[i]], _radius(tree.lengths[i]))
    if got != want:
        errs.append(f"skeleton differs from the oracle ({len(got) + 1} vs {len(want) + 1} vertices)")
    for i in range(len(pts)):
        hits = [key for key, tags in zip(keys, tree.tags) if str(i) in tags]
        if hits != [(None, frozenset([i]))]:
            errs.append(f"divisor label {i} is not on its simple point")
            break
    return errs


def check_query(ring, pts, a, result):
    q, again, on, off = result
    errs = []
    try:
        key = point_key(ring, pts, q)
    except ValueError as exc:
        return [f"retraction image: {exc}"]
    if key != O.retract_oracle(ring, pts, a):
        errs.append("retraction image differs from the oracle ball")
    elif ring.val(ring.sub(_local(ring.p, q.center), a)) < key[0]:
        errs.append("retraction image does not contain the query point")
    if again != q:
        errs.append("retraction is not idempotent")
    if on is not True:
        errs.append("retraction image is not on the skeleton")
    if off is not False:
        errs.append("a ball below the retraction image is on the skeleton")
    return errs


def check_family(samples, classes):
    errs = []
    members = [b for group in classes.values() for b in group]
    if sorted(members) != sorted(samples):
        errs.append("family classes do not partition the samples")
    rules = []
    for group in classes.values():
        kinds = {O.leg_rule(5, b) for b in group}
        if len(kinds) != 1:
            errs.append("a family class mixes leg rules")
        rules.extend(kinds)
    if len(rules) != len(set(rules)):
        errs.append("one leg rule is split over several classes")
    return errs


# --- Newton profiles and scenes -------------------------------------------


def _cover(rng, p, degree):
    """Roots g_i = alpha_i + beta_i (x - c) (+ gamma_i (x - c)^2) around a
    centre c, with val(alpha_i) = i mod 9, val(beta_i) = i mod 2 and a
    quadratic term on every third root, so the root valuations
    min(val alpha_i, val beta_i + t, ...) break at many radii.  The seed
    picks the centre and the units among numbers of one height, not the
    valuations, so the exact arithmetic costs about the same for every
    seed.  Returned expanded in x, as the program receives them."""
    ring = O.Ring(p)
    sign = (-1, 1)
    if p:
        c = Fraction(rng.choice(sign) * rng.choice((7, 11, 13)), 2)

        def unit():
            return Fraction(rng.choice(sign) * rng.choice((11, 13, 17, 19)), rng.choice((7, 11, 13)))

        def pi(k):
            return Fraction(p) ** k
    else:
        c = O.tpoly(rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2)))

        def unit():
            return O.tpoly(rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))

        def pi(k):
            return O.tpoly(*([0] * k + [1]))
    roots = []
    for i in range(degree):
        shifted = [ring.mul(unit(), pi(i % 9)), ring.mul(unit(), pi(i % 2))]
        if i % 3 == 0:
            shifted.append(ring.mul(unit(), pi(1)))
        roots.append(_expand(ring, shifted, c))
    return c, roots


def _expand(ring, shifted, c):
    """Coefficients in x of sum_j b_j (x - c)^j."""
    out = [ring.zero] * len(shifted)
    negc = ring.sub(ring.zero, c)
    for j, b in enumerate(shifted):
        # (x - c)^j = sum_i C(j, i) x^i (-c)^(j - i)
        for i in range(j + 1):
            term = b
            for _ in range(j - i):
                term = ring.mul(term, negc)
            out[i] = ring.add(out[i], ring.scale(comb(j, i), term))
    return out


class NewtonScenes:
    """Root-valuation profiles of covers prod (y - g_i(x)) over Q3, Q5 and
    Q(t), and every bundled scene through run_scene with and without check."""

    name = "newton_scenes"
    # (field, y-degree, profiles per round): the eight degree-12 profiles
    # hold the 90th percentile, the two of degree 16 sit above it, and the
    # many small ones and the scenes hold the median
    COVERS = ((3, 4, 6), (5, 4, 6), (0, 4, 4), (3, 8, 3), (5, 8, 3), (3, 12, 4), (5, 12, 4), (3, 16, 1), (5, 16, 1))

    def __init__(self, scenes_dir):
        self.scenes_dir = Path(scenes_dir)

    def generate(self, seed):
        rng = random.Random(seed)
        covers = []
        for p, degree, count in self.COVERS:
            for _ in range(count):
                c, roots = _cover(rng, p, degree)
                ring = O.Ring(p)
                covers.append({"p": p, "center": c, "roots": roots,
                               "rows": O.product_rows(ring, roots)})
        scenes = sorted(str(path) for path in self.scenes_dir.glob("*.json"))
        if not scenes:
            raise FileNotFoundError(f"no scenes under {self.scenes_dir}")
        return {"covers": covers, "scenes": scenes}

    def setup(self, bl, data):
        fields = {3: bl.PAdicField(3), 5: bl.PAdicField(5), 0: bl.TAdicField()}
        covers = []
        for cov in data["covers"]:
            p = cov["p"]
            rows = [[_elem(bl, p, a) for a in row] for row in cov["rows"]]
            covers.append((fields[p], rows, _elem(bl, p, cov["center"])))
        scenes = [bl.serialize.load_scene(path) for path in data["scenes"]]
        return {"data": data, "covers": covers, "scenes": scenes, "plain": {}}

    def ops(self, bl, state):
        out = []
        for field, rows, center in state["covers"]:
            out.append(("profile", lambda f=field, r=rows, c=center:
                        bl.newton.root_valuations_along_path(f, r, c)))
        for scene in state["scenes"]:
            out.append(("scene", lambda s=scene: bl.serialize.run_scene(s)))
            out.append(("scene_check", lambda s=scene: bl.serialize.run_scene(s, check=True)))
        return out

    def check(self, state, i, result):
        covers = state["data"]["covers"]
        if i < len(covers):
            return check_profile(covers[i], result)
        k, checked = divmod(i - len(covers), 2)
        name = Path(state["data"]["scenes"][k]).name
        if not isinstance(result, bytes) or not result.endswith(b"\n"):
            return [f"scene {name}: output is not newline-terminated bytes"]
        if not checked:
            state["plain"][k] = result
            if state["scenes"][k].get("format", "json") == "json":
                try:
                    json.loads(result)
                except ValueError:
                    return [f"scene {name}: output is not JSON"]
            return []
        if result != state["plain"].get(k):
            return [f"scene {name}: bytes differ with and without check"]
        return []


def radii(cov):
    """Sample radii: every breakpoint of the oracle's valuations, the
    midpoints between them, and a few points past the last one."""
    ring = O.Ring(cov["p"])
    cuts = set()
    for g in cov["roots"]:
        vals = [(j, ring.val(b)) for j, b in enumerate(O.binomial_shift(ring, g, cov["center"]))]
        vals = [(j, v) for j, v in vals if v is not None]
        for j1, v1 in vals:
            for j2, v2 in vals:
                if j2 > j1 and v1 > v2:
                    cuts.add(Fraction(v1 - v2, j2 - j1))
    pts = sorted(cuts | {Fraction(0)})
    out = set(pts)
    out.update((a + b) / 2 for a, b in zip(pts, pts[1:]))
    out.update(pts[-1] + Fraction(k, 3) for k in range(1, 4))
    return sorted(out)


def check_profile(cov, profile):
    ring = O.Ring(cov["p"])
    errs = []
    for t in radii(cov):
        want = O.root_valuations(ring, cov["roots"], cov["center"], t)
        try:
            got = []
            for g, mult in profile.values_at(t):
                got.extend([_radius(g)] * mult)
        except Exception as exc:  # a profile that cannot answer is wrong
            return [f"profile fails at radius {t}: {exc}"]
        got.sort(key=lambda v: (v is None, v))
        if got != want:
            errs.append(f"root valuations at radius {t} differ from the shift oracle")
            break
    return errs
