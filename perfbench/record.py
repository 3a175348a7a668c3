"""Record every query's value, so that later runs can report values_changed.

    python3 perfbench/record.py --seeds 0-31

Answers each query of every workload once per seed and merges the values,
as round-trip float reprs keyed by ``Query.key()``, into
``reference_values.json``. Run it on the commit whose answers are the
reference; a change that argues for new values re-records them.
"""

import argparse
import json

from run import REFERENCE_VALUES, load_program


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, as in 0-31")
    p.add_argument("--workloads", nargs="*", help="default: every workload")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    load_program()
    import workloads

    values = json.loads(REFERENCE_VALUES.read_text())
    for name in args.workloads or workloads.WORKLOADS:
        for seed in range(int(lo), int(hi or lo) + 1):
            for q in workloads.build(name, seed):
                value, _, _ = workloads.answer(q)
                values[q.key()] = repr(value)
            print(f"{name} seed {seed}: {len(values)} values", flush=True)
            REFERENCE_VALUES.write_text(json.dumps(values, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
