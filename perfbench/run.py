"""stochlp benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload ladder-exact --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports stochlp from that checkout's
``src`` and nowhere else. It sets up the workload (import, generate,
serialize), answers every query repeatedly for ``--seconds``, then checks each
answer against an independent reference, outside every timed region. With
``--trace 0`` the final line carries the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and carries the per-layer metrics. Everything before the final line is
a human-readable report: environment, per-query results and every metric with
its unit and sample count.
"""

import os

# Pin the BLAS/OpenMP pools before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_VALUES = HERE / "reference_values.json"
# set-ups per run: this process plus fresh processes that only set up
SETUP_SAMPLES = 7


def load_program() -> None:
    """Import stochlp from the checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "stochlp" / "__init__.py").is_file():
        raise SystemExit(f"error: no stochlp sources under {src}")
    sys.path.insert(0, str(src))
    import stochlp

    if Path(stochlp.__file__).resolve().parent != src / "stochlp":
        raise SystemExit(f"error: imported stochlp from {stochlp.__file__}, not from {src}")


@dataclass
class Result:
    value: float | None
    report: object
    budget: object
    error: str | None
    seconds: float
    trace: tuple | None = None


def run_pass(queries, answer, tracer=None) -> tuple[float, list[Result]]:
    """Answer every query once; return the pass's wall time and the results."""
    results = []
    start = time.perf_counter()
    for q in queries:
        t0 = time.perf_counter()
        try:
            value, report, budget = answer(q)
            error = None
        except Exception as exc:  # a query that raises is a failed query, not a failed run
            value = report = budget = None
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        results.append(Result(value, report, budget, error, elapsed,
                              tracer.take() if tracer is not None else None))
    return time.perf_counter() - start, results


def measure(queries, seconds: float, trace: bool):
    """Repeat passes until ``seconds`` have gone; alternate traced passes in."""
    import tracing
    import workloads

    plain, traced = [], []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(queries, workloads.answer))
        if trace:
            with tracing.traced(tracer):
                traced.append(run_pass(queries, workloads.answer, tracer))
        if time.perf_counter() >= deadline:
            return plain, traced


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _ratio(queries, results, span: str, small: int, big: int) -> float:
    """Time in ``span`` on queries of size ``big`` over size ``small``
    (0 when the workload has no such pair)."""
    sums = {small: 0.0, big: 0.0}
    for q, r in zip(queries, results):
        if q.size in sums and span in r.trace[0]:
            sums[q.size] += r.trace[0][span].total_s
    return sums[big] / sums[small] if sums[small] and sums[big] else 0.0


def layer_metrics(queries, results) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    import tracing

    spans: dict[str, tracing.Span] = {name: tracing.Span() for _, _, name, _ in tracing.PATCH_POINTS}
    counts: dict[str, float] = {}
    for r in results:
        for name, span in r.trace[0].items():
            total = spans[name]
            total.calls += span.calls
            total.total_s += span.total_s
            total.self_s += span.self_s
        for name, amount in r.trace[1].items():
            combine = max if name.endswith(".peak") else (lambda a, b: a + b)
            counts[name] = combine(counts.get(name, 0), amount)
    m = {f"{name}.ms": span.self_s * 1e3 for name, span in spans.items()}
    m["decomposition.prepare_context.ms"] = spans["decomposition.prepare_context"].total_s * 1e3
    m["decomposition.validate_td.calls"] = spans["decomposition.validate_td"].calls
    m["symbolic.multiply.calls"] = spans["symbolic.multiply"].calls
    m["staircase.cells"] = sum(r.report.cells_used for q, r in zip(queries, results)
                               if q.solver == "approx" and r.report is not None)
    m["staircase.table_bytes.peak"] = counts.get("staircase.table_bytes.peak", 0)
    budgets = [r.budget for r in results if r.budget is not None]
    m["symbolic.terms.peak"] = max((b.terms_peak for b in budgets), default=0)
    m["symbolic.regions.peak"] = max((b.regions_peak for b in budgets), default=0)
    m["symbolic.work"] = sum(b.work_used for b in budgets)
    terms_in = counts.get("symbolic.truncate.terms_in", 0)
    m["symbolic.truncate.kept_frac"] = counts.get("symbolic.truncate.terms_out", 0) / terms_in if terms_in else 0.0
    m["decomposition.build_context.doubling"] = _ratio(queries, results, "decomposition.build_context", 150, 300)
    m["staircase.bag_staircase.doubling"] = _ratio(queries, results, "staircase.bag_staircase", 12, 24)
    m["exactexp.merge_bag.doubling"] = _ratio(queries, results, "exactexp.merge_bag", 4, 8)
    total_self = sum(span.self_s for span in spans.values())
    for layer in tracing.LAYERS:
        own = sum(span.self_s for name, span in spans.items() if name.startswith(layer + "."))
        m[f"layer.{layer}.share"] = own / total_self if total_self else 0.0
    return m


def _fmt(samples) -> str:
    return " ".join(f"{s:.3f}" for s in samples)


def unit_of(name: str) -> str:
    if name.endswith(".ms") or name.startswith("query_ms."):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "staircase.table_bytes.peak":
        return "bytes"
    if name.endswith((".calls", ".peak", ".cells", ".work")) or name == "values_changed":
        return "count"
    return "ratio"


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
    }


def git_sha() -> str:
    """Commit of the checkout, read from its .git directory when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    queries = workloads.build(args.workload, args.seed)
    setup = [time.perf_counter() - t0]
    if args.probe_setup:
        print(repr(setup[0]))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for entry in wanted:
        if unit_of(entry["name"]) != entry["unit"]:
            raise SystemExit(f"error: BENCHMARK.json gives {entry['name']} unit {entry['unit']!r}, "
                             f"the benchmark measures {unit_of(entry['name'])!r}")
    recorded = json.loads(REFERENCE_VALUES.read_text())
    setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    plain, traced = measure(queries, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # --- checks, outside every timed region
    first = plain[0][1]
    checker = workloads.Checker()
    problems = []
    for i, q in enumerate(queries):
        seen = {repr(results[i].value) for _, results in plain + traced}
        if len(seen) > 1:
            problems.append(f"{q.name}: values differ between passes: {sorted(seen)}")
    verdicts = [r.error or checker.check(q, r.value, r.report) for q, r in zip(queries, first)]
    passes = len(plain) + len(traced)
    attempted = passes * len(queries)
    failed = passes * sum(v is not None for v in verdicts)
    checked = [(q, r) for q, r in zip(queries, first) if r.value is not None and q.key() in recorded]
    changed = [q.name for q, r in checked if recorded[q.key()] != repr(r.value)]
    if changed:
        problems.append(f"values differ from {REFERENCE_VALUES.name}: {changed}")

    # --- metrics
    per_query_ms = [statistics.median(results[i].seconds for _, results in plain) * 1e3
                    for i in range(len(queries))]
    walls = [wall for wall, _ in plain]
    metrics = {
        "wall_s": (statistics.median(walls), f"median of {len(walls)} passes: {_fmt(walls)}"),
        "query_ms.p50": (statistics.median(per_query_ms),
                         f"{len(queries)} queries, each the median of {len(walls)} passes"),
        "peak_rss_mb": (peak_rss_mb, "1 process"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} set-ups: {_fmt(setup)}"),
        "failed_frac": (failed / attempted, f"{failed} of {attempted} attempted"),
        "values_changed": (len(changed), f"{len(checked)} of {len(queries)} queries recorded"),
    }
    if traced:
        per_pass = [layer_metrics(queries, results) for _, results in traced]
        for name in per_pass[0]:
            metrics[name] = (statistics.median(m[name] for m in per_pass),
                             f"median of {len(traced)} traced passes")
        overhead = statistics.median(w for w, _ in traced) / statistics.median(walls) - 1
        metrics["trace.overhead_frac"] = (overhead, f"{len(traced)} traced vs {len(walls)} plain passes")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(environment()))
    for q, r, ms, verdict in zip(queries, first, per_query_ms, verdicts):
        print(f"  {q.name:32s} {r.value!r:>24}  {ms:10.2f} ms  {verdict or 'ok'}")
    for p in problems:
        print("problem: " + p)
    for name, (value, samples) in metrics.items():
        print(f"  {name:40s} {value:16.6g} {unit_of(name):6s} {samples}")

    out = {e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]} for e in wanted}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
