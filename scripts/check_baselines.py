#!/usr/bin/env python
"""Assert every pinned baseline regenerates bit-identically.

Any change that is supposed to be simulation-neutral must not move a
single simulated number. This regenerates each row of
``repro.experiments.baselines.BASELINES`` (all of them, or the ids
given) and diffs it exactly against ``baselines/<id>.json``; ``--write``
re-pins the files instead.

Exit status 0 on bit-identity, 1 on any drift (each drifting
``id.path`` printed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.experiments.baselines import BASELINES, diff, regenerate

BASELINE_DIR = pathlib.Path(__file__).resolve().parent.parent / "baselines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "ids", nargs="*", metavar="ID",
        help=f"rows to check (default: all of {', '.join(BASELINES)})",
    )
    parser.add_argument("--write", action="store_true", help="re-pin the files")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.ids) - set(BASELINES))
    if unknown:
        parser.error(f"unknown baseline ids {unknown}")
    drifted = 0
    for baseline_id in args.ids or BASELINES:
        path = BASELINE_DIR / f"{baseline_id}.json"
        current = regenerate(baseline_id)
        if args.write:
            path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
            print(f"{baseline_id}: written to {path}")
            continue
        drifts = (
            diff(json.loads(path.read_text()), current, baseline_id)
            if path.exists()
            else [f"{baseline_id}: no file {path}"]
        )
        for drift in drifts:
            print(f"DRIFT: {drift}", file=sys.stderr)
        drifted += bool(drifts)
        print(f"{baseline_id}: {'DRIFTED' if drifts else 'bit-identical'} ({path.name})")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
