"""Declarative shapes of scene input, and the one walker that reads them.

``SCENE`` is the top level, ``FIELD`` the field description, ``TASKS``
one spec per task and ``FLOW_LAYOUT`` what ``gflow.build_complex`` reads.
A spec is a tree of kinds, readers ``kind(value, path, ctx)``; :func:`walk`
reads a value in one pass and returns the parsed values, and a value that
does not fit raises SceneError naming its path, as in
``flow.functionals[1].alpha.a: expected a rational``.  Unknown keys are
rejected at every object level.  ``ctx["field"]`` reads field elements.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import PreconditionError, SceneError
from .gamma import INF, Gamma, rational

__all__ = ["FIELD", "FLOW_LAYOUT", "FORMAT", "FORMATS", "GAMMA_POINT", "INF_WORDS", "SCENE", "TASKS", "walk"]

INF_WORDS = ("inf", "oo")
FORMATS = ("json", "dot", "svg", "csv")


def walk(kind, value, root: str = "", ctx: dict | None = None):
    """Read ``value`` as ``kind``; a mismatch names its path below ``root``."""
    return kind(value, root, {} if ctx is None else ctx)


def _below(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _fail(path: str, message: str):
    raise SceneError(f"{path}: {message}" if path else message)


def leaf(expected: str, fn=None, test=None):
    """A scalar that ``test(v, ctx)`` accepts, parsed by ``fn(v, ctx)``; either
    may also refuse it by raising PreconditionError."""

    def read(v, path, ctx):
        try:
            if test is None or test(v, ctx):
                return v if fn is None else fn(v, ctx)
        except PreconditionError:
            pass
        _fail(path, f"expected {expected}")

    return read


def seq(item, nonempty=False, size=None):
    expected = f"a list of {size} entries" if size else "a nonempty list" if nonempty else "a list"

    def read(v, path, ctx):
        if not isinstance(v, (list, tuple)) or (nonempty and not v) or size not in (None, len(v)):
            _fail(path, f"expected {expected}")
        return [item(x, f"{path}[{i}]", ctx) for i, x in enumerate(v)]

    return read


def obj(required: dict, optional: dict | None = None):
    """An object of ``required`` {key: kind} and ``optional`` {key: (kind, default)}."""
    optional = optional or {}
    known = ", ".join([*required, *optional])

    def read(v, path, ctx):
        if not isinstance(v, Mapping):
            _fail(path, "expected an object")
        for key in v:
            if key not in required and key not in optional:
                _fail(_below(path, key), f"unknown key, expected one of {known}")
        out = {}
        for key, kind in required.items():
            if key not in v:
                _fail(_below(path, key), "missing required key")
            out[key] = kind(v[key], _below(path, key), ctx)
        for key, (kind, default) in optional.items():
            out[key] = kind(v.get(key, default), _below(path, key), ctx)
        return out

    read.required, read.optional = required, optional
    return read


def coords(item, default=None):
    """A tuple with one value per name of ``ctx["w"]``, from a list as long as
    w or from a name map whose absent names take ``default``."""

    def read(v, path, ctx):
        w = ctx["w"]
        if not isinstance(v, Mapping):
            return tuple(seq(item, size=len(w))(v, path, ctx))
        for key in v:
            if key not in w:
                _fail(_below(path, key), f"unknown coordinate, expected one of {', '.join(w)}")
        return tuple(item(v.get(name, default), _below(path, name), ctx) for name in w)

    return read


def choice(expected: str, *options):
    """The kind of the first (test, kind) option whose test (None: any) accepts the value."""

    def read(v, path, ctx):
        for test, kind in options:
            if test is None or test(v):
                return kind(v, path, ctx)
        _fail(path, f"expected {expected}")

    return read


def gamma(v, ctx=None) -> Gamma:
    """An element of Gamma: a Gamma as it is, a rational, or inf spelled as one of INF_WORDS."""
    if isinstance(v, Gamma):
        return v
    return INF if isinstance(v, str) and v in INF_WORDS else Gamma(rational(v))


def _elem_or(*words):
    """A field element or one of ``words``; the word "inf" takes every spelling in INF_WORDS."""
    spelled = {w: w for w in words} | {s: "inf" for s in INF_WORDS if "inf" in words}

    def fn(v, ctx):
        return spelled[v] if isinstance(v, str) and v in spelled else ctx["field"].elem_from_json(v)

    return fn


def _names(v, ctx) -> bool:
    return isinstance(v, (list, tuple)) and all(isinstance(n, str) for n in v) \
        and 0 < len(v) == len(set(v))


def _permutes_w(v, ctx) -> bool:
    w = set(ctx["w"])
    return isinstance(v, Mapping) and set(v) == w \
        and all(isinstance(x, str) for x in v.values()) and set(v.values()) == w


RATIONAL = leaf("a rational", lambda v, ctx: rational(v))
GAMMA = leaf("a rational or inf", gamma)
GAMMA_POINT = coords(GAMMA)  # a flow scene's start and the input of CellComplex.point
ELEM = leaf("a field element", _elem_or())
ANY = leaf("any value")
# a point is "inf", a field element (a simple point) or a ball object
BALL = (lambda v: isinstance(v, dict) and "chart" in v, obj(
    {"chart": leaf("std or inv", test=lambda v, ctx: v in ("std", "inv"))},
    {"center": (ELEM, 0), "radius": (GAMMA, "inf")},
))
POINT = (None, leaf("a point: inf, a field element or a ball", _elem_or("inf")))
POINTS = seq(choice("a point", BALL, POINT), nonempty=True)
ROWS = seq(seq(ELEM), nonempty=True)
# functionals, xi and region entries parse to {"alpha": tuple aligned with w, "c": rational}
AFFINES = seq(obj({}, {"alpha": (coords(RATIONAL, default=0), {}), "c": (RATIONAL, 0)}))

FLOW_LAYOUT = obj(
    {
        # w is recorded in ctx for the keys after it
        "w": leaf("a nonempty list of distinct names", lambda v, ctx: ctx.setdefault("w", tuple(v)),
                  _names),
        "h": leaf("a name in w", test=lambda v, ctx: isinstance(v, str) and v in ctx["w"]),
    },
    {
        "functionals": (AFFINES, ()),
        "xi": (AFFINES, ()),
        "region": (AFFINES, ()),
        "symmetry": (seq(leaf("a permutation of w as a name map", test=_permutes_w)), ()),
    },
)

TASKS = {
    "skeleton": obj({"divisor": POINTS}),
    "retract": obj({"divisor": POINTS, "point": choice("a point", BALL, POINT)}),
    "newton": obj({"coeffs": ROWS}, {"center": (ELEM, 0)}),
    # a list among the points is a pair of homogeneous coordinates
    "trop": obj({"map": ROWS, "points": seq(choice(
        "a point", (lambda v: isinstance(v, (list, tuple)), seq(ELEM, size=2)), BALL, POINT
    ), nonempty=True)}),
    "flow": obj(
        {**FLOW_LAYOUT.required, "start": GAMMA_POINT},
        {**FLOW_LAYOUT.optional, "t": (
            leaf("a nonnegative rational or inf", gamma, lambda v, ctx: gamma(v) >= 0), "inf"
        )},
    ),
    # divisor entries parse to "inf", "b", {"affine": [c0, c1]} or an element
    "family": obj({
        "divisor": seq(choice(
            "a family entry",
            (lambda v: isinstance(v, dict) and "affine" in v, obj({"affine": seq(ELEM, size=2)})),
            (None, leaf("inf, b, an affine entry or a field element", _elem_or("inf", "b"))),
        ), nonempty=True),
        "samples": seq(ELEM, nonempty=True),
    }),
}

FORMAT = leaf(f"one of {', '.join(FORMATS)}", test=lambda v, ctx: v in FORMATS)
# the field and the task block are read apart, by FIELD and TASKS
SCENE = obj({"field": ANY}, {"format": (FORMAT, "json"), **{task: (ANY, None) for task in TASKS}})

FIELD = choice(
    "a field description: {kind: padic, p} or {kind: tadic}",
    (lambda v: isinstance(v, Mapping) and v.get("kind") == "padic", obj({
        "kind": ANY,
        "p": leaf("an integer", test=lambda v, ctx: isinstance(v, int) and not isinstance(v, bool)),
    })),
    (lambda v: isinstance(v, Mapping) and v.get("kind") == "tadic", obj({"kind": ANY})),
)
