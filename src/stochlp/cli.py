"""Unified command-line front end.

JSON goes to stdout, a one-line failure message to stderr, and a one-line
warning to stderr when a solver's ``value`` is not a probability (non-finite
or outside [0, 1]; the JSON and exit code stay as they are).  Exit codes: 0 on
success, 1 on input errors, 2 on budget aborts, 3 on internal errors (a
failed invariant check or a divergent integral, i.e. a bug).  Output is
byte-identical across runs for fixed inputs; wall-clock timings only appear
under ``--timings``.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .decomposition import TreeDecomposition, parse_td, validate_td
from .errors import (Budget, BudgetExceeded, DivergentIntegral, InputError,
                     InvariantViolation, StochLPError)
from .exactexp import exact_exp
from .generate import generate, graph_text, td_text
from .graph import Dag, parse_graph
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


def _load_graph(path: str) -> Dag:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read graph file {path}: {e}")
    return parse_graph(text)


def _load_td(path: str | None, g: Dag) -> TreeDecomposition | None:
    if path is None:
        return None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read decomposition file {path}: {e}")
    td = parse_td(text)
    label_to_internal = {label: i for i, label in enumerate(g.labels)}
    return td.relabel(label_to_internal)


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


def _run(args) -> dict:
    if args.command == "approx":
        g = _load_graph(args.graph)
        td = _load_td(args.td, g)
        if args.epsilon is None and args.grid_m is None:
            raise InputError("approx needs --epsilon or --grid-m")
        x = _float_x(args.x)
        value, rep = approx_dag(g, td, x, epsilon=args.epsilon, m_override=args.grid_m,
                                budget=Budget.default(max_cells=args.max_cells))
        guarantee = ({"kind": "multiplicative", "epsilon": float(args.epsilon)}
                     if args.grid_m is None else {"kind": "staircase-sandwich"})
        return {
            "command": "approx",
            "inputs": {"graph": args.graph, "td": args.td, "x": args.x,
                       "epsilon": args.epsilon, "grid_m": args.grid_m},
            "value": value,
            "guarantee": guarantee,
            "M": rep.m_res,
            "separated_width": rep.separated_width,
            "separated_n": rep.separated_n,
            "bag_count": rep.bag_count,
            "cells_used": rep.cells_used,
            "per_bag": rep.per_bag,
            "elapsed_ms": rep.elapsed_ms,
            "version": __version__,
        }
    if args.command == "exact-exp":
        g = _load_graph(args.graph)
        td = _load_td(args.td, g)
        x = _parse_x(args.x)
        value, rep = exact_exp(g, td, x, emit_symbolic=args.emit_symbolic)
        out = {
            "command": "exact-exp",
            "inputs": {"graph": args.graph, "td": args.td, "x": args.x},
            "value": value,
            "guarantee": {"kind": "exact", "evaluation_radius": rep.error_radius},
            "separated_width": rep.separated_width,
            "separated_n": rep.separated_n,
            "bag_count": rep.bag_count,
            "regions_peak": rep.regions_peak,
            "terms_peak": rep.terms_peak,
            "elapsed_ms": rep.elapsed_ms,
            "version": __version__,
        }
        if args.emit_symbolic:
            out["symbolic"] = rep.symbolic
        return out
    if args.command == "taylor":
        g = _load_graph(args.graph)
        td = _load_td(args.td, g)
        x = _parse_x(args.x)
        if args.epsilon_additive is None and args.tau is None:
            raise InputError("taylor needs --epsilon-additive or --tau")
        value, rep = approx_taylor(g, td, x, eps_additive=args.epsilon_additive,
                                   tau=args.tau, oracle=args.oracle)
        return {
            "command": "taylor",
            "inputs": {"graph": args.graph, "td": args.td, "x": args.x,
                       "epsilon_additive": args.epsilon_additive, "tau": args.tau,
                       "oracle": args.oracle},
            "value": value,
            "guarantee": {"kind": "additive", "bound": rep.theoretical_bound},
            "tau": rep.tau,
            "theoretical_bound": rep.theoretical_bound,
            "monomials_peak": rep.terms_peak,
            "separated_width": rep.separated_width,
            "bag_count": rep.bag_count,
            "elapsed_ms": rep.elapsed_ms,
            "version": __version__,
        }
    if args.command == "mc":
        g = _load_graph(args.graph)
        x = _float_x(args.x)
        est, stderr = monte_carlo(g, x, args.samples, args.seed)
        return {
            "command": "mc",
            "inputs": {"graph": args.graph, "x": args.x, "samples": args.samples,
                       "seed": args.seed},
            "estimate": est,
            "stderr": stderr,
            "guarantee": {"kind": "statistical", "stderr": stderr},
            "version": __version__,
        }
    if args.command == "bracket":
        g = _load_graph(args.graph)
        x = _float_x(args.x)
        budget = Budget.default(max_cells=args.max_cells)
        br = riemann_bracket(g, x, args.resolution, budget)
        return {
            "command": "bracket",
            "inputs": {"graph": args.graph, "x": args.x, "resolution": args.resolution},
            "lower": br.lower_float,
            "upper": br.upper_float,
            "lower_exact": _rational_field(br.lower),
            "upper_exact": _rational_field(br.upper),
            "guarantee": {"kind": "bracket"},
            "version": __version__,
        }
    if args.command == "sp-exact":
        g = _load_graph(args.graph)
        x = _parse_x(args.x)
        value = series_parallel_exact(g, x)
        out = {
            "command": "sp-exact",
            "inputs": {"graph": args.graph, "x": args.x},
            "value": float(value),
            "guarantee": {"kind": "exact"},
            "version": __version__,
        }
        if isinstance(value, Fraction):
            out["exact"] = _rational_field(value)
        return out
    if args.command == "validate-td":
        g = _load_graph(args.graph)
        td = _load_td(args.td, g)
        report = validate_td(g, td)
        return {
            "command": "validate-td",
            "inputs": {"graph": args.graph, "td": args.td},
            "valid": report.valid,
            "condition": report.condition,
            "witness": repr(report.witness) if report.witness is not None else None,
            "message": report.message,
            "version": __version__,
        }
    if args.command == "gen":
        inst = generate(args.shape, args.n, seed=args.seed, dist=args.dist,
                        k=args.k, max_edges=args.max_edges)
        Path(args.out_graph).write_text(graph_text(inst.dag), encoding="utf-8")
        Path(args.out_td).write_text(td_text(inst.dag, inst.td), encoding="utf-8")
        return {
            "command": "gen",
            "shape": args.shape,
            "n": inst.dag.n,
            "m": inst.dag.m,
            "width": inst.td.width,
            "seed": args.seed,
            "graph_file": args.out_graph,
            "td_file": args.out_td,
            "version": __version__,
        }
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
