"""Piecewise-linear downhill flows on a finite product of value coordinates.

A cell complex is cut out of Q^w by finitely many affine functionals;
cells are the nonempty sign patterns.  A distinguished coordinate h
measures height.  Cells on which every coordinate is bounded by a
natural-number multiple of x_h plus a constant are stable; every other
cell carries the exact barycenter direction of its recession slice
[v_h = 0, sum v = 1], and the flow moves points against that direction
until they reach the stable set or exhaust their time budget.  Points
with x_h = infinity never move.

All geometry is exact: feasibility and suprema run through the rational
simplex in polyhedra, recession cones through the double description
method, one run per cell: its state after the equality rows gives the
cell's dimension, its final state the recession cone, and the cone of the
recession slice is that state cut by v_h = 0 in one more DD step.  The
complex keeps the functional and region rows (alpha, c) as given, as the
record of its input, and computes on one primitive integer row for each,
a positive multiple that changes no sign, feasible set, LP optimum, exit
ratio or recession cone: cells, core bounds, cell location, the region
test of a flow's start, exit times and cones all read those rows, against
points brought to one common denominator.
Steps compose as x - tau * e_C and restart in the cell cut out by the
functionals binding at the exit time tau, which is 0 for a direction
leaving its cell's affine hull; cell dimensions strictly decrease at
each crossing, so runs terminate, and the two situations the
construction cannot produce (a zero exit time, and an unbounded
recession slice on an unstable cell) stop the run with an inconsistency
error instead of guessing.  The flow needs
the functionals' alphas together with e_h to span Q^w: otherwise a
direction all of them miss is a lineality direction of every cell, no
cell is stable, and every flow at finite height stops with that error.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Mapping, Sequence

from .errors import InconsistencyError, PreconditionError, SceneError
from .gamma import Gamma, INF, as_gamma, rational
from .polyhedra import (
    OPTIMAL,
    UNBOUNDED,
    dd_step,
    dot,
    double_description,
    integer_row,
    lp_max,
    over_common_denominator,
    strict_feasible,
)
from .spec import FLOW_LAYOUT, GAMMA_POINT, walk

LT, EQ, GT = "<", "=", ">"


@dataclass(frozen=True, slots=True)
class Functional:
    """Affine functional x -> alpha . x - c, as the layout gives it."""

    alpha: tuple
    c: Fraction


@dataclass(frozen=True, slots=True)
class Cell:
    """Sign pattern over the complex's functional list."""

    pattern: tuple


@dataclass(frozen=True, slots=True)
class FlowStep:
    duration: Gamma
    cell: Cell
    direction: tuple


@dataclass(frozen=True, slots=True)
class FlowResult:
    steps: tuple
    endpoint: tuple

    @property
    def total_time(self) -> Gamma:
        total = Gamma(0)
        for s in self.steps:
            total = total + s.duration
        return total


class CellComplex:
    """Immutable decomposition data; geometric caches fill in lazily."""

    def __init__(self, w, h, functionals, xis=(), region=()):
        self.w = tuple(w)
        self.h = h
        self.h_index = self.w.index(h)
        self.functionals = tuple(functionals)
        self.xis = tuple(xis)
        self.region = tuple(region)
        self.n = len(self.w)
        self._cells = None
        self._memo = {}

    @cached_property
    def _rows(self) -> tuple:
        """Each functional as one primitive integer row (alpha, c), the row
        every sign, constraint and LP of the complex reads."""
        return tuple(_integer_pair(f.alpha, f.c) for f in self.functionals)

    @cached_property
    def _region_rows(self) -> tuple:
        """Each region row alpha . x >= c as one primitive integer (alpha, c)."""
        return tuple(_integer_pair(a, c) for a, c in self.region)

    def point(self, x) -> tuple:
        """A name map over w, or a list or tuple aligned with w, as Gamma values."""
        try:
            return walk(GAMMA_POINT, x, "point", {"w": self.w})
        except SceneError as exc:
            raise PreconditionError(str(exc)) from exc


def _integer_pair(alpha: Sequence, c) -> tuple:
    row = integer_row((*alpha, c))
    return row[:-1], row[-1]


def build_complex(layout: Mapping) -> CellComplex:
    """Assemble a complex from a layout in the shape of ``spec.FLOW_LAYOUT``.

    "w" names the coordinates and "h" the distinguished one; "functionals",
    "xi" and "region" list {"alpha", "c"} blocks, alpha a name map or a list
    aligned with w (functional sign and region sense are alpha . x - c vs 0,
    region meaning alpha . x >= c); the functionals are closed under the
    group the "symmetry" permutations generate.  A malformed layout raises
    PreconditionError naming the offending path.
    """
    try:
        parts = walk(FLOW_LAYOUT, layout)
    except SceneError as exc:
        raise PreconditionError(str(exc)) from exc
    return assemble_complex(parts)


def assemble_complex(parts: Mapping) -> CellComplex:
    """The complex of a layout already read by ``spec.FLOW_LAYOUT``."""
    w = parts["w"]
    funcs, seen = [], set()

    def add(alpha, c) -> bool:
        key = integer_row(alpha + (c,))
        if key in seen:
            return False
        seen.add(key)
        funcs.append(Functional(alpha, c))
        return True

    for f in parts["functionals"]:
        add(f["alpha"], f["c"])
    changed = True
    while changed:
        changed = False
        for perm in parts["symmetry"]:
            # coordinate j of a functional moves to coordinate perm[w[j]]
            source = {perm[name]: j for j, name in enumerate(w)}
            for f in list(funcs):
                changed |= add(tuple(f.alpha[source[name]] for name in w), f.c)
    xis = [(f["alpha"], f["c"]) for f in parts["xi"]]
    region = [(f["alpha"], f["c"]) for f in parts["region"]]
    return CellComplex(w, parts["h"], funcs, xis, region)


def locate_cell(K: CellComplex, x) -> Cell:
    """Sign pattern of a point with all-finite coordinates."""
    return Cell(_pattern_at(K._rows, _finite_coords(K.point(x))))


def _pattern_at(rows: Sequence, coords: Sequence) -> tuple:
    """Signs of the integer rows at a point with exact rational coordinates."""
    X, d = over_common_denominator(coords)
    return tuple(_sign(_value(alpha, c, X, d)) for alpha, c in rows)


def _value(alpha: Sequence, c: int, X: Sequence, d: int) -> int:
    """d * (alpha . x - c) for an integer row (alpha, c) and the point x = X / d."""
    return sum(a * v for a, v in zip(alpha, X)) - c * d


def _sign(v) -> str:
    return EQ if v == 0 else (GT if v > 0 else LT)


def _finite_coords(pt: tuple) -> tuple:
    if any(v.is_inf for v in pt):
        raise PreconditionError("point must have all-finite coordinates")
    return tuple(v.finite for v in pt)


def _checked_pattern(K: CellComplex, cell: Cell) -> tuple:
    if len(cell.pattern) != len(K._rows):
        raise PreconditionError("cell pattern does not match the complex")
    return cell.pattern


def _cone_rows(K: CellComplex, cell: Cell) -> tuple:
    """Integer (equality, inequality) rows of the cell's recession cone."""
    eqs, gts = _pattern_constraints(K._rows, _checked_pattern(K, cell))
    return [a for a, _ in eqs], [a for a, _ in gts]


def _pattern_constraints(rows: Sequence, pattern: tuple) -> tuple:
    """(equalities, strict inequalities) as (alpha, rhs) with alpha.x > rhs,
    from the signs of the first len(pattern) rows (alpha, c)."""
    eqs, gts = [], []
    for (alpha, c), s in zip(rows, pattern):
        if s == EQ:
            eqs.append((alpha, c))
        elif s == GT:
            gts.append((alpha, c))
        elif s == LT:
            gts.append((tuple(-a for a in alpha), -c))
        else:
            raise PreconditionError(f"invalid sign {s!r} in cell pattern")
    return eqs, gts


def _per_cell(fn):
    """Memoize fn(K, cell) in K._memo under (fn, cell pattern)."""

    @wraps(fn)
    def memoized(K: CellComplex, cell: Cell):
        if not (isinstance(cell, Cell) and isinstance(cell.pattern, tuple)):
            raise PreconditionError(f"expected a Cell with a tuple sign pattern, got {cell!r}")
        key = (fn, cell.pattern)
        if key not in K._memo:
            K._memo[key] = fn(K, cell)
        return K._memo[key]

    return memoized


def cell_dimension(K: CellComplex, cell: Cell) -> int:
    """The size of the lineality basis the cell's equality rows leave."""
    return len(_recession(K, cell)[0][0])


@_per_cell
def _recession(K: CellComplex, cell: Cell) -> tuple:
    """(hull, cone): the DD states (basis, rays, rows) after the cell's
    equality rows and after all its recession cone rows, from one run."""
    eqs, ges = _cone_rows(K, cell)
    hull = cone = double_description(eqs, (), K.n)
    for row in ges:
        cone = dd_step(cone, row, False)
    return hull, cone


def _m_bound(K: CellComplex, cell: Cell, i: int):
    """Minimal m in N with x_i <= m*x_h + c valid on the cell, or None."""
    basis, rays, _ = _recession(K, cell)[1]
    h = K.h_index
    # lo = lo_n / lo_d and hi = hi_n / hi_d with positive denominators, the
    # ratios g_i / g_h compared by cross-multiplication
    lo_n, lo_d = 0, 1
    hi = None
    # the cone is span(basis) + cone(rays): each lineality direction l counts
    # as the two rays l and -l, whose bounds together pin m to l_i / l_h
    for g in [r for r, _ in rays] + basis + [tuple(-a for a in l) for l in basis]:
        gi, gh = g[i], g[h]
        if gh == 0:
            if gi > 0:
                return None
        elif gh > 0:
            if gi * lo_d > lo_n * gh:
                lo_n, lo_d = gi, gh
        elif hi is None or -gi * hi[1] < hi[0] * -gh:
            hi = (-gi, -gh)
    m = -(-lo_n // lo_d)  # ceil
    if hi is not None and m * hi[1] > hi[0]:
        return None
    return m


@_per_cell
def classify_D0(K: CellComplex, cell: Cell) -> bool:
    """True when every coordinate is bounded by some m*x_h + c on the cell."""
    return all(_m_bound(K, cell, i) is not None for i in range(K.n))


@_per_cell
def recession_barycenter(K: CellComplex, cell: Cell) -> tuple:
    """Flow direction: 0 on stable cells, else the exact barycenter of
    the recession slice [v_h = 0, sum v = 1], which must be a nonempty
    bounded polytope with nonnegative vertices."""
    if classify_D0(K, cell):
        return tuple(Fraction(0) for _ in range(K.n))
    # the slice's cone is the recession cone cut by v_h = 0: one more DD step
    unit_h = tuple(int(j == K.h_index) for j in range(K.n))
    lin, rays, _ = dd_step(_recession(K, cell)[1], unit_h, True)
    if lin:
        raise InconsistencyError(
            "recession slice of an unstable cell has a lineality direction"
        )
    if not rays:
        raise InconsistencyError("recession slice of an unstable cell is empty")
    vertices = []
    for r, _ in rays:
        s = sum(r)
        if s <= 0:
            raise InconsistencyError(
                "recession slice of an unstable cell is unbounded"
            )
        vertices.append(tuple(Fraction(x, s) for x in r))
    k = Fraction(len(vertices))
    e = tuple(sum(col, Fraction(0)) / k for col in zip(*vertices))
    if any(x < 0 for x in e):
        raise InconsistencyError("flow direction has a negative component")
    return e


def exit_time(K: CellComplex, cell: Cell, e: Sequence, x) -> Gamma:
    """First time x - t*e leaves the cell: 0 when e leaves the cell's affine
    hull, infinite when the point never leaves."""
    coords = _finite_coords(K.point(x))
    if Cell(_pattern_at(K._rows, coords)) != cell:
        raise PreconditionError("point does not lie in the given cell")
    if not isinstance(e, abc.Sequence) or isinstance(e, str):
        raise PreconditionError(f"direction must be a sequence, got {type(e).__name__}")
    e = tuple(map(rational, e))
    if len(e) != K.n:
        raise PreconditionError(f"direction has {len(e)} coordinates, the complex has {K.n}")
    if all(v == 0 for v in e):
        raise PreconditionError("exit time needs a nonzero direction")
    return _exit(K, cell, e, coords)[0]


def _exit(K: CellComplex, cell: Cell, e: Sequence, coords: tuple) -> tuple:
    """(tau, cell entered at tau) for x - t*e from a point of the cell: tau is
    the least f(x) / (alpha . e) over the functionals moving toward zero, so
    an = sign with alpha . e != 0 gives 0, and at tau the strict signs whose
    functionals reach zero become = while every other sign stays."""
    X, d = over_common_denominator(coords)
    E, de = over_common_denominator(e)
    hits = {}
    for i, ((alpha, c), s) in enumerate(zip(K._rows, cell.pattern)):
        ae = sum(a * v for a, v in zip(alpha, E))
        if (ae > 0 and s != LT) or (ae < 0 and s != GT):
            hits[i] = Fraction(_value(alpha, c, X, d) * de, d * ae)
    if not hits:
        return INF, cell
    tau = min(hits.values())
    pattern = tuple(EQ if hits.get(i) == tau else s for i, s in enumerate(cell.pattern))
    return Gamma(tau), Cell(pattern)


def flow(K: CellComplex, t, x) -> FlowResult:
    """Run the downhill flow for time t (infinite t runs to termination)."""
    t = as_gamma(t)
    if t < 0:
        raise PreconditionError("flow time must be nonnegative")
    pt = K.point(x)
    if pt[K.h_index].is_inf:
        return FlowResult((), pt)
    coords = _finite_coords(pt)
    X, d = over_common_denominator(coords)
    if not all(_value(alpha, c, X, d) >= 0 for alpha, c in K._region_rows):
        raise PreconditionError("start point lies outside the region")
    steps = []
    remaining = t
    prev_dim = None
    cell = Cell(_pattern_at(K._rows, coords))
    while True:
        dim = cell_dimension(K, cell)
        if prev_dim is not None and dim >= prev_dim:
            raise InconsistencyError("flow re-entered a cell of equal or higher dimension")
        prev_dim = dim
        if classify_D0(K, cell):
            break
        e = recession_barycenter(K, cell)
        tau, entered = _exit(K, cell, e, coords)
        if tau == 0:
            raise InconsistencyError("flow direction leaves the cell's affine hull")
        if remaining.is_inf and tau.is_inf:
            raise InconsistencyError("trajectory never reaches the stable set")
        dt = tau if tau < remaining else remaining
        coords = tuple(c - dt.finite * ei for c, ei in zip(coords, e))
        steps.append(FlowStep(dt, cell, e))
        if remaining <= tau:
            break
        remaining = remaining - dt
        cell = entered
    endpoint = tuple(Gamma(c) for c in coords)
    return FlowResult(tuple(steps), endpoint)


def final_image_membership(K: CellComplex, x) -> bool:
    """True on the stable set: x_h infinite or the located cell stable."""
    pt = K.point(x)
    if pt[K.h_index].is_inf:
        return True
    return classify_D0(K, Cell(_pattern_at(K._rows, _finite_coords(pt))))


def cells(K: CellComplex) -> tuple:
    """All nonempty sign cells, found by witness propagation."""
    if K._cells is not None:
        return K._cells
    # each partial pattern carries the signs of its witness on every row
    partial = [((), _pattern_at(K._rows, (0,) * K.n))]
    for i in range(len(K._rows)):
        grown = []
        for pattern, signs in partial:
            grown.append((pattern + (signs[i],), signs))
            for s in (LT, EQ, GT):
                if s == signs[i]:
                    continue
                eqs, gts = _pattern_constraints(K._rows, pattern + (s,))
                found = strict_feasible(eqs, [], gts, K.n)
                if found is not None:
                    grown.append((pattern + (s,), _pattern_at(K._rows, found)))
        partial = grown
    K._cells = tuple(Cell(p) for p in sorted(p for p, _ in partial))
    return K._cells


def _is_face(c: tuple, d: tuple) -> bool:
    """True when the nonempty cell with pattern c lies in the closure of
    the cell with pattern d: every sign of c is = or agrees with d's."""
    return all(s == EQ or s == t for s, t in zip(c, d))


def core_bounds(K: CellComplex) -> dict:
    """Per-coordinate (m, c) with x_i <= m*x_h + c on the stable set
    intersected with the region; vacuous coordinates report (0, 0).

    Only stable cells that are maximal among stable cells run LPs: a
    stable face has a smaller closure and recession cone than its cell,
    so its region test, objective values and m never exceed the cell's,
    and its LP is unbounded only if the cell's is.
    """
    if not K._region_rows:
        raise PreconditionError("core bounds need a bounded-below region")
    stable = [cell for cell in cells(K) if classify_D0(K, cell)]
    active = []
    for cell in stable:
        if any(d != cell and _is_face(cell.pattern, d.pattern) for d in stable):
            continue
        eqs, gts = _pattern_constraints(K._rows, cell.pattern)
        closure = gts + list(K._region_rows)
        if strict_feasible(eqs, closure, [], K.n) is None:
            continue
        active.append((cell, eqs, closure))
    out = {}
    for i, name in enumerate(K.w):
        if not active:
            out[name] = (0, Fraction(0))
            continue
        m = max(_m_bound(K, cell, i) for cell, _, _ in active)
        best = None
        for _, eqs, closure in active:
            obj = tuple(int(j == i) - m * int(j == K.h_index) for j in range(K.n))
            status, val, _ = lp_max(obj, eqs, closure, K.n)
            if status == UNBOUNDED:
                raise InconsistencyError(
                    "stable cell is unbounded above within the region"
                )
            if status == OPTIMAL and (best is None or val > best):
                best = val
        out[name] = (m, Fraction(0) if best is None else best)
    return out


def lipschitz_bound(K: CellComplex) -> Fraction:
    """Product bound on endpoint displacement per unit of start offset.

    Every trajectory visits each cell at most once, and within one cell
    the exit map x -> x - tau(x) e stretches sup-norm distances by at
    most 1 + |e|_inf * |alpha|_1 / (alpha . e) for the binding exit
    constraint, so the product over all unstable cells bounds the whole
    endpoint map along any chain.
    """
    L = Fraction(1)
    for cell in cells(K):
        if classify_D0(K, cell):
            continue
        eqs, gts = _pattern_constraints(K._rows, cell.pattern)
        if K._region_rows and strict_feasible(eqs, K._region_rows, gts, K.n) is None:
            # trajectories stay inside the region, so cells that never
            # meet it cannot contribute a stretch factor
            continue
        e = recession_barycenter(K, cell)
        factor = None
        einf = max(abs(v) for v in e)
        for alpha, _ in gts:
            ae = dot(alpha, e)
            if ae > 0:
                f = 1 + einf * sum(abs(a) for a in alpha) / ae
                factor = f if factor is None else max(factor, f)
        if factor is not None:
            L *= factor
    return L


def xi_value(K: CellComplex, index: int, x) -> Fraction:
    """Value of the indexed preserved function at a finite point."""
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < len(K.xis):
        raise PreconditionError(
            f"xi index {index!r} is out of range: the complex has {len(K.xis)} xis"
        )
    alpha, c = K.xis[index]
    return dot(alpha, _finite_coords(K.point(x))) - c
