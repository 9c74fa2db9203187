"""Command-line surface: run one scene file and emit one artifact.

Exit codes: 0 success, 1 malformed scene or unwritable output, 2 violated
kernel precondition, 3 flagged mathematical inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InconsistencyError, PreconditionError, SceneError
from .serialize import FORMATS, load_scene, run_scene


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="berkline",
        description=(
            "Exact computations on the ball model of the projective line: "
            "skeleta, retractions, moving Newton polygons, tropical images, "
            "piecewise-linear flows, and divisor-family sweeps."
        ),
    )
    parser.add_argument("--scene", required=True, help="path to a JSON scene file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=FORMATS,
        help="override the scene's output format",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the task's invariant suite on this instance",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for sampled invariant checks"
    )
    args = parser.parse_args(argv)

    try:
        scene = load_scene(args.scene)
        payload = run_scene(scene, fmt=args.fmt, seed=args.seed, check=args.check)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3

    if not args.out:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    try:
        Path(args.out).write_bytes(payload)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
