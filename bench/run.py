"""Benchmark for berkline: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload gflow_core --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Run from the root of a checkout.  One process, one thread, closed loop:
each operation starts when the previous one has returned.  A run repeats
whole rounds of the workload's fixed batch until ``--seconds`` of
operation time have passed and at least MIN_OPS operations were timed.
Answers of the first round are checked against independent oracles,
answers of later rounds must equal those of the first.  Times are scaled
to a reference host speed by an interleaved probe (see hostclock.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds,
reports per-layer metrics per round, and writes the spans of the first
traced round to ``bench/results/``.  With ``--workload all`` the metrics
are keyed ``<workload>.<metric>``.  The exit code is 0 only if every
answer passed its check and no operation raised.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import typing
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from hostclock import REF_S, HostClock  # noqa: E402

WORKLOADS = {w.name: w for w in (W.GflowCore(), W.GflowFlow(), W.BallTree(), W.NewtonScenes(ROOT / "scenes"))}
MIN_OPS = 100
SETUP_REPEATS = 21
RESULTS = BENCH / "results"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics, each read off one traced round: (name, unit)
PER_LAYER = (
    ("polyhedra.lp_max.calls", "count"),
    ("polyhedra.lp_max.self_s", "s"),
    ("polyhedra.strict_feasible.calls", "count"),
    ("polyhedra.strict_feasible.found_ratio", "ratio"),
    ("polyhedra.cone_generators.calls", "count"),
    ("polyhedra.cone_generators.self_s", "s"),
    ("polyhedra.nullspace.calls", "count"),
    ("polyhedra.nullspace.self_s", "s"),
    ("gflow.cells.self_s", "s"),
    ("gflow.cells.count", "count"),
    ("gflow.core_bounds.self_s", "s"),
    ("gflow.flow.calls", "count"),
    ("gflow.flow.self_s", "s"),
    ("gflow.flow.steps", "count"),
    ("gflow.locate_cell.self_s", "s"),
    ("gflow.exit_time.self_s", "s"),
    ("gflow.classify_D0.calls", "count"),
    ("gflow.classify_D0.self_s", "s"),
    ("gflow.classify_D0.distinct_ratio", "ratio"),
    ("gflow.recession_barycenter.self_s", "s"),
    ("pline.skeleton.calls", "count"),
    ("pline.skeleton.self_s", "s"),
    ("pline.skeleton.vertices", "count"),
    ("pline.join.calls", "count"),
    ("pline.join.self_s", "s"),
    ("pline.join.per_vertex", "ratio"),
    ("pline.normalize_point.self_s", "s"),
    ("pline.retract.self_s", "s"),
    ("pline.skeleton_contains.self_s", "s"),
    ("topo.family_sweep.self_s", "s"),
    ("newton.root_valuations_along_path.calls", "count"),
    ("newton.root_valuations_along_path.self_s", "s"),
    ("newton.root_valuations_along_path.pieces", "count"),
    ("newton.coeff_val_path.self_s", "s"),
    ("polys.taylor_shift.calls", "count"),
    ("polys.taylor_shift.self_s", "s"),
    ("fields.val.calls", "count"),
    ("serialize.run_scene.self_s", "s"),
    ("trop.tau_h.self_s", "s"),
    ("trace.wall_ratio", "ratio"),
    ("host.probe_ms", "ms"),
)


def drop_package():
    """Forget every loaded berkline module.  typing's caches of subscripted
    annotations (``Optional[Gamma]``) hold the old classes and with them
    the whole old package, so they are cleared too; ``_cleanups`` is the
    only handle typing gives on them."""
    for name in [n for n in sys.modules if n == "berkline" or n.startswith("berkline.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def fresh_import():
    """Import berkline from the checkout's src/ as a first-time user would."""
    drop_package()
    return import_package()


def import_package():
    bl = importlib.import_module("berkline")
    for sub in ("gflow", "newton", "pline", "polyhedra", "polys", "serialize", "topo", "trop"):
        importlib.import_module(f"berkline.{sub}")
    return bl


def timed_setup(wl, data, clock):
    """Median of SETUP_REPEATS (import + build inputs); keeps the objects
    of the last repeat.  The previous repeat's package and inputs are
    freed before the next import, so only one copy is ever alive."""
    def once():
        bl = import_package()
        return bl, wl.setup(bl, data)

    times = []
    for _ in range(SETUP_REPEATS):
        bl = state = None
        drop_package()
        gc.collect()
        (bl, state), seconds = clock.measure(once)
        times.append(seconds)
    return bl, state, statistics.median(times)


class Run:
    """Accumulates one run's timings, failures and answer checks.

    ``latencies`` hold every untraced operation's time scaled to the
    reference host.
    """

    def __init__(self, wl, bl, state, clock):
        self.wl, self.bl, self.state, self.clock = wl, bl, state, clock
        self.attempted = 0
        self.errors = []  # operations that raised
        self.problems = []  # answers that failed a check
        self.first = None
        self.latencies = []

    def round(self, tracer=None):
        """One whole round; returns its operation time, scaled and as
        measured (the latter spends the run's time budget)."""
        gc.collect()
        ops = self.wl.ops(self.bl, self.state)
        answers = []
        scaled, raw = [], 0.0
        clock = self.clock
        for i, (kind, thunk) in enumerate(ops):
            self.attempted += 1
            clock.before()
            if tracer is not None:
                tracer.begin(f"op.{kind}", op=self.attempted)
            t0 = time.perf_counter()
            try:
                result = thunk()
            except Exception as exc:  # counted, reported, and the run goes on
                result = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            clock.add(dt, scaled.append)
            raw += dt
            if isinstance(result, Exception):
                self.errors.append(f"op {i} ({kind}) raised {type(result).__name__}: {result}")
            answers.append(result)
        clock.flush()
        if tracer is None:
            self.latencies.extend(scaled)
        self._judge(answers)
        return sum(scaled), raw

    def _judge(self, answers):
        if self.first is None:
            self.first = answers
            for i, result in enumerate(answers):
                if not isinstance(result, Exception):
                    self.problems.extend(
                        f"op {i}: {msg}" for msg in self.wl.check(self.state, i, result)
                    )
            return
        for i, (a, b) in enumerate(zip(self.first, answers)):
            if isinstance(a, Exception) or isinstance(b, Exception):
                continue
            if _answer_key(a) != _answer_key(b):
                self.problems.append(f"op {i}: answer differs from the first round")

    @property
    def failed(self):
        return len(self.errors)

    @property
    def correct(self):
        return not self.problems


def _answer_key(result):
    """Comparable form of an answer; complexes compare by their data."""
    if isinstance(result, tuple) and result and type(result[0]).__name__ == "CellComplex":
        return result[1:]
    return result


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def run_untraced(run, seconds):
    """Whole rounds until ``seconds`` of operation time and MIN_OPS ops."""
    walls = []
    spent = 0.0
    while spent < seconds or run.attempted < MIN_OPS:
        wall, raw = run.round()
        walls.append(wall)
        spent += raw
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "op_p90_ms": (_p90(run.latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_traced(run, seconds, trace_path):
    """Alternate untraced and traced rounds; per-layer figures per round.

    Self times are scaled like the operation times: by the ratio of the
    traced round's scaled to raw time."""
    tracer = T.Tracer()
    patches = T.install(tracer)
    plain, traced, rounds = [], [], []
    spent = 0.0
    try:
        while spent < seconds or len(traced) < 2:
            wall, raw = run.round()
            plain.append(wall)
            spent += raw
            tracer.enabled = True
            tracer.reset_round()
            wall, raw = run.round(tracer)
            tracer.enabled = False
            tracer.keep_spans = False
            traced.append(wall)
            spent += raw
            rounds.append((tracer.calls, tracer.self_ns, tracer.extra, wall / raw))
    finally:
        T.uninstall(patches)
    calls, _, extra, _ = rounds[0]
    repeat = all(r[0] == calls and r[2] == extra for r in rounds)

    def self_s(name):
        return statistics.median(r[1][name] * r[3] for r in rounds) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name, unit in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if name == "trace.wall_ratio":
            v = statistics.median(traced) / statistics.median(plain)
        elif name == "host.probe_ms":
            v = statistics.median(run.clock.probes) * 1e3
        elif what == "calls":
            v = calls[layer]
        elif what == "self_s":
            v = self_s(layer)
        elif what == "found_ratio":
            v = ratio(extra["polyhedra.strict_feasible.found"], calls[layer])
        elif what == "distinct_ratio":
            v = ratio(extra["gflow.classify_D0.distinct"], calls[layer])
        elif what == "per_vertex":
            v = ratio(calls[layer], extra["pline.skeleton.vertices"])
        else:
            v = extra[name]
        values[name] = (v, unit)
    summary = {
        "rounds_traced": len(traced),
        "counts_repeat": repeat,
        "spans_kept": len(tracer.spans),
        "metrics": {k: v for k, (v, _) in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.write(trace_path, summary)
    if not repeat:
        run.problems.append("per-layer counts differ between traced rounds")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "berkline" / "__init__.py").is_file():
        print(f"berkline sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    data = wl.generate(args.seed)
    clock = HostClock()
    bl, state, setup_s = timed_setup(wl, data, clock)
    run = Run(wl, bl, state, clock)
    if args.trace:
        trace_path = RESULTS / f"trace-{wl.name}-seed{args.seed}.json"
        metrics = run_traced(run, args.seconds, trace_path)
    else:
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update(run_untraced(run, args.seconds))
    for p in (run.errors + run.problems)[:20]:
        print(f"problem: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:14s} {name:44s} {value:14.6f} {unit}")
    print(f"{wl.name:14s} host probe median {statistics.median(clock.probes) * 1e3:.3f} ms "
          f"(reference {REF_S * 1e3:.3f} ms, {len(clock.probes)} probes)")
    print(f"{wl.name:14s} attempted {run.attempted} failed {run.failed} correct {run.correct}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.correct and not run.failed else 1


def run_all(args):
    """Every workload in its own process, one after the other; one JSON
    line for all of them, metrics keyed ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            total["correct"] = False
            status = status or 1
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(total))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
