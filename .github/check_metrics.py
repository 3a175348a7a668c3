"""Check the metrics of a perfbench report.

    python3 .github/check_metrics.py nonzero RUN_FILE METRIC...
    python3 .github/check_metrics.py pin RUN_FILE METRIC=VALUE...
    python3 .github/check_metrics.py max RUN_FILE METRIC=VALUE...

A metric is read from the ``metrics`` of the report's last line, which is
JSON, or else from its ``name value unit`` text lines, which print 6
significant digits.  ``nonzero`` fails for each metric that is missing or
not above 0; ``pin`` fails for each metric that does not read exactly VALUE;
``max`` fails for each metric that is missing or above VALUE.  On a failure
it prints one line per metric and then the whole report, and exits 1.
"""

import json
import sys


def read_metrics(text: str) -> dict[str, float]:
    lines = text.splitlines()
    metrics = {}
    for line in lines[:-1]:
        parts = line.split()
        try:
            metrics[parts[0]] = float(parts[1])
        except (IndexError, ValueError):
            pass
    metrics.update((k, v["value"]) for k, v in json.loads(lines[-1])["metrics"].items())
    return metrics


def main(argv: list[str]) -> int:
    mode, path, specs = argv[0], argv[1], argv[2:]
    with open(path) as f:
        text = f.read()
    metrics = read_metrics(text)
    bad = []
    for spec in specs:
        if mode == "nonzero":
            if not metrics.get(spec, 0) > 0:
                bad.append(f"{spec} reads {metrics.get(spec)}, not above 0")
        elif mode == "pin":
            name, want = spec.split("=")
            got = metrics.get(name)
            if got != int(want):
                bad.append(f"{name} reads {got} not {want}")
        elif mode == "max":
            name, bound = spec.split("=")
            got = metrics.get(name)
            if got is None or got > float(bound):
                bad.append(f"{name} reads {got}, not at most {bound}")
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    if bad:
        print("\n".join(bad))
        print(text, end="")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
