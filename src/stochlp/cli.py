"""Unified command-line front end.

Every command writes one JSON record to stdout: the command, its inputs, its
fields and the version.  A solver's fields are its value, its guarantee, its
own keys, then every field its report shares with the other solvers.  A
failure, or a solver ``value`` that is not a probability (non-finite or
outside [0, 1]; the JSON and exit code stay as they are), also writes one line
to stderr.  Exit codes: 0 on success, 1 on input errors, 2 on budget aborts, 3
on internal errors (a failed invariant check or a divergent integral, i.e. a
bug).  Output is byte-identical for fixed inputs; timings only under ``--timings``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .decomposition import SolveReport, parse_td, validate_td
from .errors import (Budget, BudgetExceeded, DivergentIntegral, InputError,
                     InvariantViolation, StochLPError)
from .exactexp import exact_exp
from .generate import generate, graph_text, td_text
from .graph import parse_graph
from .oracles import monte_carlo, riemann_bracket, series_parallel_exact
from .staircase import approx_dag
from .taylor import approx_taylor


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; remap to input error
        raise InputError(message)


# JSON string escapes: a short form where JSON has one, else \u00XX for a
# control character
_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('\\"\n\t\r\b\f', '\\"ntrbf')})


def _render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        # JSON has no inf or nan
        out.append(format(obj, ".17g") if math.isfinite(obj) else "null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_ESCAPES) + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _render(str(k), out)
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot render {type(obj)}")


def render_json(obj) -> str:
    out: list[str] = []
    _render(obj, out)
    return "".join(out)


def _rational_field(q: Fraction) -> dict | None:
    if len(str(q.numerator)) <= 64 and len(str(q.denominator)) <= 64:
        return {"num": str(q.numerator), "den": str(q.denominator)}
    return None


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {what} file {path}: {e}")


def _write(path: str, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {what} file {path}: {e}")


def _parse_x(raw: str) -> Fraction:
    # argparse hands "--x=--" over as a list
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InputError(f"cannot parse horizon {raw!r}")


def _float_x(raw: str) -> float:
    try:
        return float(_parse_x(raw))
    except OverflowError:
        raise InputError(f"horizon {raw!r} is outside the floating-point range") from None


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def build_parser() -> _Parser:
    p = _Parser(prog="stochlp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, td=True):
        sp.add_argument("--graph", required=True)
        if td:
            sp.add_argument("--td", default=None)
        sp.add_argument("--x", required=True)
        sp.add_argument("--threads", type=int, default=None,
                        help="worker hint; results are identical for any value")
        sp.add_argument("--timings", action="store_true")

    sp = sub.add_parser("approx", help="grid FPTAS for uniform edge lengths")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--grid-m", type=int, default=None)
    sp.add_argument("--max-cells", type=int, default=None)

    sp = sub.add_parser("exact-exp", help="exact solver for standard-exponential lengths")
    common(sp)
    sp.add_argument("--emit-symbolic", action="store_true")

    sp = sub.add_parser("taylor", help="Taylor truncation for oracle distributions")
    common(sp)
    sp.add_argument("--epsilon-additive", type=float, default=None)
    sp.add_argument("--tau", type=int, default=None)
    sp.add_argument("--oracle", default=None)

    sp = sub.add_parser("mc", help="Monte Carlo estimate")
    common(sp, td=False)
    sp.add_argument("--samples", type=int, default=10**6)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("bracket", help="rigorous Riemann volume bracket (uniform)")
    common(sp, td=False)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--max-cells", type=int, default=None)

    sp = sub.add_parser("sp-exact", help="exact series-parallel composition")
    common(sp, td=False)

    sp = sub.add_parser("validate-td", help="check the three decomposition conditions")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--td", required=True)

    sp = sub.add_parser("gen", help="emit a graph + decomposition pair")
    sp.add_argument("--shape", required=True, choices=["chain", "diamond-ladder", "random-tw"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dist", default="uniform")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--max-edges", type=int, default=None)
    sp.add_argument("--out-graph", required=True)
    sp.add_argument("--out-td", required=True)
    return p


# the command itself, and the flags that cannot change the answer (a budget
# only decides whether one comes) or only choose which fields are shown
_NOT_INPUTS = {"command", "threads", "timings", "max_cells", "emit_symbolic"}


def _record(args, **fields) -> dict:
    """JSON of every command: the command, its inputs (its own flags in
    declaration order, less ``_NOT_INPUTS``), ``fields`` and the version."""
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    return {"command": args.command, "inputs": inputs, **fields, "version": __version__}


_SHARED = ["per_bag" if f.name == "bag_fields" else f.name for f in dataclasses.fields(SolveReport)
           if f.name not in ("value", "bag_columns")]


def _solved(args, rep: SolveReport, **own) -> dict:
    """A solver's record: its value and guarantee, ``own`` (the solver's own
    keys), then each ``SolveReport`` field after ``value`` in declaration
    order, with the bag columns shown as the ``per_bag`` records."""
    return _record(args, value=rep.value, guarantee=rep.guarantee, **own,
                   **{name: getattr(rep, name) for name in _SHARED})


def _run(args) -> dict:
    if args.command == "gen":
        inst = generate(args.shape, args.n, seed=args.seed, dist=args.dist,
                        k=args.k, max_edges=args.max_edges)
        _write(args.out_graph, graph_text(inst.dag), "graph")
        _write(args.out_td, td_text(inst.dag, inst.td), "decomposition")
        return _record(args, n=inst.dag.n, m=inst.dag.m, width=inst.td.width)
    g = parse_graph(_read(args.graph, "graph"))
    td = None
    if getattr(args, "td", None) is not None:
        labels = {label: i for i, label in enumerate(g.labels)}
        td = parse_td(_read(args.td, "decomposition")).relabel(labels)
    if args.command == "approx":
        _, rep = approx_dag(g, td, _float_x(args.x), epsilon=args.epsilon, m_override=args.grid_m,
                            budget=Budget.default(max_cells=args.max_cells))
        return _solved(args, rep, M=rep.m_res)
    if args.command == "exact-exp":
        _, rep = exact_exp(g, td, _parse_x(args.x), emit_symbolic=args.emit_symbolic)
        return _solved(args, rep, **({"symbolic": rep.symbolic} if args.emit_symbolic else {}))
    if args.command == "taylor":
        _, rep = approx_taylor(g, td, _parse_x(args.x), eps_additive=args.epsilon_additive,
                               tau=args.tau, oracle=args.oracle)
        return _solved(args, rep, tau=rep.tau, theoretical_bound=rep.theoretical_bound)
    if args.command == "mc":
        est, stderr = monte_carlo(g, _float_x(args.x), args.samples, args.seed, Budget.default())
        return _record(args, estimate=est, stderr=stderr,
                       guarantee={"kind": "statistical", "stderr": stderr})
    if args.command == "bracket":
        br = riemann_bracket(g, _float_x(args.x), args.resolution,
                             Budget.default(max_cells=args.max_cells))
        return _record(args, lower=br.lower_float, upper=br.upper_float,
                       lower_exact=_rational_field(br.lower),
                       upper_exact=_rational_field(br.upper), guarantee={"kind": "bracket"})
    if args.command == "sp-exact":
        value = series_parallel_exact(g, _parse_x(args.x))
        exact = {"exact": _rational_field(value)} if isinstance(value, Fraction) else {}
        return _record(args, value=float(value), guarantee={"kind": "exact"}, **exact)
    if args.command == "validate-td":
        report = validate_td(g, td)
        return _record(args, valid=report.valid, condition=report.condition,
                       witness=repr(report.witness) if report.witness is not None else None,
                       message=report.message)
    raise InputError(f"unknown command {args.command!r}")


def dispatch(argv: list[str]) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        report = _run(args)
        value = report.get("value")
        if isinstance(value, float) and not 0.0 <= value <= 1.0:
            sys.stderr.write(f"stochlp: warning: value {value!r} outside [0, 1]\n")
        if not getattr(args, "timings", False):
            report = _strip_timings(report)
        sys.stdout.write(render_json(report) + "\n")
        return 0
    except BudgetExceeded as e:
        sys.stderr.write(f"stochlp: budget exceeded: {e}\n")
        sys.stdout.write(render_json({"error": str(e), "kind": "budget"}) + "\n")
        return 2
    except (InvariantViolation, DivergentIntegral) as e:
        sys.stderr.write(f"stochlp: internal error: {e}\n")
        sys.stdout.write(render_json({"error": str(e), "kind": "internal"}) + "\n")
        return 3
    except StochLPError as e:
        sys.stderr.write(f"stochlp: error: {e}\n")
        sys.stdout.write(render_json({"error": str(e), "kind": "input"}) + "\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
