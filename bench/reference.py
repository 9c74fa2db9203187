"""Reference rows: sizes swept one at a time, each timing with its counts.

    python3 bench/reference.py    # about five minutes on 2 cores

Rows: ``skeleton`` of N random Q5 points for N = 10, 20, 40, 80;
``root_valuations_along_path`` on dense tables of y-degree 4, 8, 16, 32;
``cells`` and ``core_bounds`` on each of the twenty acceptance complexes;
every bundled scene through ``run_scene`` with and without check.  Each
row is timed once without tracing, then run again under the tracer for
its counts.  These are figures, not workloads: they have no bounds.
Results are printed and written to ``bench/results/reference.json``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

# the acceptance tests' twenty complexes: (coordinates, extra functionals)
ACCEPTANCE_SIZES = (
    [(3, 2)] * 6 + [(3, 3)] * 6 + [(4, 2)] * 2 + [(4, 3)] * 2
    + [(5, 1)] * 2 + [(5, 2)] + [(6, 1)]
)
COUNTS = (
    "polyhedra.lp_max", "polyhedra.strict_feasible", "gflow.cells",
    "pline.join", "pline.skeleton", "polys.taylor_shift",
    "newton.root_valuations_along_path", "serialize.run_scene",
)


def measure(bl, thunk):
    """(seconds untraced, counts from a traced repeat, extra counts)."""
    t0 = time.perf_counter()
    thunk()
    seconds = time.perf_counter() - t0
    tracer = T.Tracer()
    tracer.keep_spans = False
    patches = T.install(tracer)
    tracer.enabled = True
    try:
        thunk()
    finally:
        T.uninstall(patches)
    counts = {name: tracer.calls[name] for name in COUNTS if tracer.calls[name]}
    counts.update(tracer.extra)
    return seconds, counts


def rows(bl):
    rng = random.Random(2024)
    Q5 = bl.PAdicField(5)
    for n in (10, 20, 40, 80):
        values = set()
        while len(values) < n:
            values.add(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
        pts = [bl.simple_point(Q5, v) for v in sorted(values)]
        yield f"skeleton N={n}", lambda pts=pts: bl.pline.skeleton(Q5, pts)
    for d in (4, 8, 16, 32):
        table = [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3)] for _ in range(d + 1)]
        yield f"profile degree={d}", lambda t=table: bl.newton.root_valuations_along_path(Q5, t, Fraction(1, 3))
    layout_rng = random.Random(707)
    for k, (n, extra) in enumerate(ACCEPTANCE_SIZES):
        layout = W.acceptance_layout(layout_rng, n, extra)

        def cells(layout=layout):
            return bl.gflow.cells(bl.gflow.build_complex(layout))

        def core(layout=layout):
            K = bl.gflow.build_complex(layout)
            bl.gflow.cells(K)
            return bl.gflow.core_bounds(K)

        yield f"acceptance complex {k} n={n} extra={extra} cells", cells
        yield f"acceptance complex {k} n={n} extra={extra} cells+core_bounds", core
    for path in sorted((ROOT / "scenes").glob("*.json")):
        scene = bl.serialize.load_scene(path)
        yield f"scene {path.name}", lambda s=scene: bl.serialize.run_scene(s)
        yield f"scene {path.name} --check", lambda s=scene: bl.serialize.run_scene(s, check=True)


def main():
    bl = R.fresh_import()
    out = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rows": [],
    }
    for name, thunk in rows(bl):
        seconds, counts = measure(bl, thunk)
        out["rows"].append({"name": name, "seconds": seconds, "counts": counts})
        shown = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{name:58s} {seconds * 1e3:11.1f} ms  {shown}", flush=True)
    R.RESULTS.mkdir(exist_ok=True)
    (R.RESULTS / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
