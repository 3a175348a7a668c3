"""Check the metrics on the last line of a perfbench report.

    python3 .github/check_metrics.py nonzero RUN_FILE METRIC...
    python3 .github/check_metrics.py pin RUN_FILE METRIC=VALUE...

``nonzero`` fails for each metric that is missing or reads 0; ``pin`` fails
for each metric that does not read exactly VALUE.  On a failure it prints one
line per metric and then the whole report, and exits 1.
"""

import json
import sys


def main(argv: list[str]) -> int:
    mode, path, specs = argv[0], argv[1], argv[2:]
    with open(path) as f:
        text = f.read()
    metrics = json.loads(text.splitlines()[-1])["metrics"]
    bad = []
    for spec in specs:
        if mode == "nonzero":
            if not metrics.get(spec, {}).get("value", 0) > 0:
                bad.append(f"{spec} reads 0")
        elif mode == "pin":
            name, want = spec.split("=")
            got = metrics.get(name, {}).get("value")
            if got != int(want):
                bad.append(f"{name} reads {got} not {want}")
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    if bad:
        print("\n".join(bad))
        print(text, end="")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
