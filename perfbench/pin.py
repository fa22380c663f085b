"""Regenerate ``pins.json``: the reference results the harness checks.

Usage, from the repository root::

    python3 perfbench/pin.py                 # seeds 0-31 and the held-out seed
    python3 perfbench/pin.py --seeds 0 1009  # only these seeds (merged in)

For each seed it stores

* ``dense_hour``, ``battery_hour``, ``commuter_train``: a digest of each
  body's ``SimulationResult.to_dict()`` (bit-identity);
* ``cohort_analytic``: the analytic cohort's aggregates (checked within
  the cohort validation bounds);
* ``cohort_hybrid``: the aggregates of the same cohort on the exact
  kernel (the hybrid run is checked against them within the macro-tick
  envelope).

Regenerate only when a change is meant to alter results; the diff of this
file is then the evidence.
"""

from __future__ import annotations

import argparse
import json
import time

from run import setup
from workloads import PINS_PATH, WORKLOADS, load_pins

#: The seed kept out of every tuning run.
HELD_OUT_SEED = 1009
DEFAULT_SEEDS = tuple(range(32)) + (HELD_OUT_SEED,)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(DEFAULT_SEEDS))
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    pins = load_pins()
    pins["held_out_seed"] = HELD_OUT_SEED
    for name in args.workloads:
        table = pins.setdefault(name, {})
        for seed in args.seeds:
            started = time.perf_counter()
            workload = WORKLOADS[name]()
            setup(workload, seed)
            table[str(seed)] = workload.reference()
            print(f"{name} seed {seed}: "
                  f"{time.perf_counter() - started:.2f} s", flush=True)
        pins[name] = dict(sorted(table.items(), key=lambda item:
                                 int(item[0])))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
