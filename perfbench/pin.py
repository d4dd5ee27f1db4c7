"""Pin the per-event heap referee's fingerprints into ``pinned.json``.

    python3 perfbench/pin.py --seeds 0-31

Runs the referee of every scale regime of ``scale-mix``, at its default
size, for each seed that has no pin yet, and stores the fingerprints.  Existing pins are
never rewritten: they are the data a changed program is checked against.
Timed runs with a pinned seed are checked against these; the invoke-hot
round trips in the same file are the paper-calibrated values.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, load_pins
from regimes import REGIMES, referee_part


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    path = HERE / "pinned.json"
    pins = load_pins(path)
    for regime in REGIMES:
        table = pins.setdefault(regime.name, {}).setdefault(str(regime.size), {})
        for seed in seeds:
            if str(seed) in table:
                continue
            table[str(seed)] = referee_part(regime, seed, regime.size)["fingerprint"]
            print(regime.name, seed, flush=True)
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
