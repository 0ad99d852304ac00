#!/usr/bin/env python
"""Assert every figure on every substrate is bit-identical to its baseline.

Any change that is supposed to be simulation-neutral must not move a
single bit of the paper figures. This regenerates every
``repro.experiments.figures.FIGURES`` entry on every registered
substrate and compares every value exactly against the committed
``baselines/figures.json`` (``{substrate: {figure id: points}}``);
``--write`` re-pins it instead.

Exit status 0 on bit-identity, 1 on any drift (drifting points printed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.experiments.figures import FIGURES, as_json
from repro.pim.substrate import available_substrates, get_substrate

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "baselines" / "figures.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-pin the baseline")
    args = parser.parse_args(argv)
    current = {
        substrate: {
            figure_id: as_json(figure.points(get_substrate(substrate).config))
            for figure_id, figure in FIGURES.items()
        }
        for substrate in available_substrates()
    }
    if args.write:
        BASELINE.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE}")
        return 0
    baseline = json.loads(BASELINE.read_text())
    drifts = []
    for substrate in sorted(set(baseline) | set(current)):
        base, cur = baseline.get(substrate, {}), current.get(substrate, {})
        for figure_id in sorted(set(base) | set(cur)):
            b, c = base.get(figure_id, []), cur.get(figure_id, [])
            drifts += [
                f"{substrate}/{figure_id}[{i}]"
                for i in range(max(len(b), len(c)))
                if b[i:i + 1] != c[i:i + 1]  # a missing point differs
            ]
    for drift in drifts:
        print(f"DRIFT: {drift}", file=sys.stderr)
    if drifts:
        return 1
    print(f"{len(FIGURES)} figures bit-identical to {BASELINE.name} on {', '.join(sorted(baseline))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
