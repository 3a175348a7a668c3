"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are pinned here, not configurable.
"""

import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from stochlp import (
    approx_dag,
    binarize_td,
    choose_M,
    heuristic_td,
    irwin_hall,
    monte_carlo,
    parse_graph,
    riemann_bracket,
    separate,
    validate_td,
)
from stochlp.cli import dispatch
from stochlp.decomposition import prepare_context
from stochlp.exactexp import exact_exp
from stochlp.generate import gen_chain, gen_diamond_ladder, gen_random_tw
from stochlp.taylor import approx_taylor, choose_tau
from stochlp import symbolic as sy


def _ok(n: int, msg: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_exact_exponential_closed_forms():
    cases = [
        ("2 1\n1 2 exp\n", 1, 1 - math.exp(-1)),
        ("3 2\n1 2 exp\n2 3 exp\n", 2, 1 - 3 * math.exp(-2)),
        ("4 4\n1 2 exp\n1 3 exp\n2 4 exp\n3 4 exp\n", 2, (1 - 3 * math.exp(-2)) ** 2),
    ]
    worst = 0.0
    for text, x, want in cases:
        t0 = time.perf_counter()
        v, _ = exact_exp(parse_graph(text), None, x)
        dt = time.perf_counter() - t0
        assert dt < 10.0
        err = abs(v - want)
        assert err <= 1e-9
        worst = max(worst, err)
    _ok(1, f"three closed forms within 1e-9 (worst error {worst:.2e})")


def test_criterion_2_exact_vs_monte_carlo():
    t0 = time.perf_counter()
    insts = [gen_random_tw(2, 5 + (seed % 2), seed=seed, dist="exp", max_edges=8)
             for seed in range(8)]
    insts.append(gen_diamond_ladder(2, dist="exp"))
    insts.append(gen_chain(7, dist="exp"))
    assert len(insts) == 10
    worst = 0.0
    for idx, inst in enumerate(insts):
        assert inst.dag.m <= 8 and inst.td.width <= 2
        for x in (1, 2):
            v, _ = exact_exp(inst.dag, inst.td, x)
            est, se = monte_carlo(inst.dag, float(x), 10**6, seed=100 + idx)
            dev = abs(v - est) / max(se, 1e-12)
            assert dev <= 3.5, (idx, x, dev)
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _ok(2, f"10 instances x 2 horizons within 3.5 sigma (worst {worst:.2f}, {elapsed:.1f}s)")


def test_criterion_3_decomposition_independence():
    worst = 0.0
    for seed in (0, 2, 5, 7, 9):
        inst = gen_random_tw(2, 5, seed=seed, dist="exp", max_edges=7)
        td2 = heuristic_td(inst.dag)
        assert inst.td.bags != td2.bags  # genuinely different decompositions
        assert validate_td(inst.dag, inst.td).valid and validate_td(inst.dag, td2).valid
        v1, _ = exact_exp(inst.dag, inst.td, F(3, 2))
        v2, _ = exact_exp(inst.dag, td2, F(3, 2))
        worst = max(worst, abs(v1 - v2))
        assert abs(v1 - v2) <= 1e-12
    _ok(3, f"5 instances agree across decompositions (worst gap {worst:.2e})")


def test_criterion_4_fptas_sandwich():
    t0 = time.perf_counter()
    corpus = [
        gen_chain(3, dist="uniform"),
        gen_chain(4, dist="uniform-mixed", seed=5),
        gen_diamond_ladder(1, dist="uniform"),
        gen_random_tw(2, 4, seed=1, dist="uniform-mixed", max_edges=6),
        gen_random_tw(2, 5, seed=3, dist="uniform", max_edges=6),
        gen_random_tw(2, 4, seed=6, dist="uniform", max_edges=6),
    ]
    checks = 0
    for inst in corpus:
        g, td = inst.dag, inst.td
        assert g.m <= 6
        amax = sum(d.scale for _, _, d in g.edges)
        for j in range(1, 6):
            x = amax * j / 6.1  # grid of five horizons, deliberately misaligned
            for M in (8, 16, 32):
                v, rep = approx_dag(g, td, x, m_override=M)
                lo = riemann_bracket(g, x, 9)
                assert lo.lower_float <= v + 1e-12, (x, M, v, lo.lower_float)
                inflated = x * (1 + (rep.separated_width + 1) * rep.separated_n / M)
                hi = riemann_bracket(g, inflated, 9)
                assert v <= hi.upper_float + 1e-12, (x, M, v, hi.upper_float)
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    _ok(4, f"{checks} sandwich checks hold ({elapsed:.1f}s)")


def test_criterion_5_formula_m_end_to_end():
    t0 = time.perf_counter()
    g = parse_graph("2 1\n1 2 uniform 1\n")
    assert choose_M(1, 2, 1, 1.0) == 24
    v, rep = approx_dag(g, None, 0.5, epsilon=1.0)
    elapsed = time.perf_counter() - t0
    assert rep.m_res == 24
    assert 0.5 <= v <= 0.75
    assert v / 0.5 <= 2.0  # 1 + epsilon
    assert elapsed < 1.0
    _ok(5, f"formula-M run: M=24, V'={v:.6f} in [0.5, 0.75], ratio {v/0.5:.4f} <= 2")


def test_criterion_6_fptas_convergence():
    t0 = time.perf_counter()
    g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
    exact = float(irwin_hall(2, 1))
    errs = []
    for M in (8, 16, 32, 64):
        v, _ = approx_dag(g, None, 1.0, m_override=M)
        errs.append(abs(v - exact))
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(3))
    assert errs[-1] <= 0.1
    assert time.perf_counter() - t0 < 120
    _ok(6, "errors " + ", ".join(f"{e:.4f}" for e in errs) + " nonincreasing, final <= 0.1")


def test_criterion_7_taylor_additive_soundness():
    t0 = time.perf_counter()
    graphs = [
        ("2 1\n1 2 oracle expcdf\n", "2 1\n1 2 exp\n"),
        ("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n", "3 2\n1 2 exp\n2 3 exp\n"),
    ]
    for o_text, e_text in graphs:
        go, ge = parse_graph(o_text), parse_graph(e_text)
        for tau in (4, 6, 8, 10):
            for x in (F(1, 2), F(1), F(2)):
                v, rep = approx_taylor(go, None, x, tau=tau)
                ve, _ = exact_exp(ge, None, x)
                assert abs(v - ve) <= rep.theoretical_bound, (tau, x)
    err10 = abs(
        approx_taylor(parse_graph(graphs[0][0]), None, 1, tau=10)[0]
        - exact_exp(parse_graph(graphs[0][1]), None, 1)[0]
    )
    assert err10 <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _ok(7, f"24 bound checks hold; measured error at tau=10, x=1 is {err10:.2e} <= 1e-4")


def test_criterion_8_choose_tau_spot_check():
    tau = choose_tau(1, 1.0, 16, 0.1)
    assert tau == 60
    _ok(8, "choose_tau(k=1, x=1, b=16, eps'=0.1) == 60")


def test_criterion_9_decomposition_invariants():
    t0 = time.perf_counter()
    rng = random.Random(123)
    count = 0
    for trial in range(100):
        k = rng.choice((1, 2))
        n = rng.randint(k + 2, 7)
        inst = gen_random_tw(k, n, seed=trial, dist="uniform", max_edges=9)
        td_bin = binarize_td(inst.td)
        _, children, _ = td_bin.rooted()
        assert all(len(c) <= 2 for c in children)
        assert td_bin.b <= 4 * inst.dag.n
        g_star, td_star = separate(inst.dag, td_bin)
        assert td_star.width <= 3 * inst.td.width + 2
        # build_context re-verifies: edge partition, bag/subtree role
        # disjointness, the T' successor condition, the separation property
        # between ancestor and descendant bag remainders, glue containment,
        # and the two computations of the new-internal-vertex sets
        ctx = prepare_context(inst.dag, inst.td)
        owned = [e for i in range(ctx.b) for e in ctx.bag_edges[i]]
        assert len(owned) == len(set(owned)) == ctx.dag.m
        for i in range(ctx.b):
            assert ctx.J[i] == ctx.S_prime[i] | ctx.T_prime[i]
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _ok(9, f"{count} random instances pass the full invariant battery ({elapsed:.1f}s)")


def test_criterion_10_symbolic_calculus_properties():
    t0 = time.perf_counter()
    rng = random.Random(77)
    Z = sy.ZERO_ATOM

    def v(i):
        return sy.var_atom(i)

    checks = 0
    for _ in range(50):
        # fundamental-theorem round trip on a density-like sum over 0 < z
        terms = sy.SymbolicSum.zero()
        for _ in range(rng.randint(1, 3)):
            terms = terms + sy.SymbolicSum.term(
                F(rng.randint(1, 4)), powers={9: rng.randint(1, 3)},
                exps={9: rng.choice([-2, -1, 0])},
            )
        f = sy.multiply(sy.multiply(terms, sy.SymbolicSum.term(1, powers={9: 1})),
                        sy.SymbolicSum.guard(Z, v(9)))
        back = sy.cumulate(sy.differentiate(f, 9), 9, fresh=99)
        probe = F(rng.randint(1, 5), rng.randint(1, 3))
        want, _ = sy.evaluate(f, {9: probe})
        got, _ = sy.evaluate(back, {9: probe})
        assert got == pytest.approx(want, abs=1e-11)

        # mass of a density times a CDF factor stays at most 1
        dens = sy.multiply(sy.SymbolicSum.guard(Z, v(1)), sy.SymbolicSum.term(1, exps={1: -1}))
        cdf = sy.multiply(
            sy.SymbolicSum.guard(v(2), v(1)),
            sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={1: -1, 2: 1}),
        )
        res = sy.integrate_out(sy.multiply(dens, cdf), 1)
        val, _ = sy.evaluate(res, {2: F(rng.randint(0, 3))})
        assert val <= 1.0 + 1e-12
        checks += 1

    # guard region growth: bag densities stay under (w+1)! regions
    from stochlp.exactexp import bag_density_exp

    for seed in (0, 3):
        inst = gen_random_tw(2, 5, seed=seed, dist="exp", max_edges=7)
        ctx = prepare_context(inst.dag, inst.td)
        bound = math.factorial(ctx.td.width + 1)
        for i in ctx.post_order:
            for _, ssum in bag_density_exp(ctx, i).parts:
                assert len(ssum.regions) <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _ok(10, f"{checks} randomized round-trip and mass checks; region bound holds ({elapsed:.1f}s)")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(argv)
    return rc, out.getvalue()


def test_criterion_11_determinism(tmp_path):
    gp, tp = str(tmp_path / "g.txt"), str(tmp_path / "t.td")
    rc, _ = _run_cli(["gen", "--shape", "random-tw", "--n", "6", "--k", "2",
                      "--seed", "5", "--dist", "uniform", "--max-edges", "6",
                      "--out-graph", gp, "--out-td", tp])
    assert rc == 0
    ge = str(tmp_path / "ge.txt")
    te = str(tmp_path / "te.td")
    rc, _ = _run_cli(["gen", "--shape", "chain", "--n", "4", "--dist", "exp",
                      "--out-graph", ge, "--out-td", te])
    assert rc == 0
    commands = [
        ["approx", "--graph", gp, "--td", tp, "--x", "1.3", "--grid-m", "8",
         "--threads", "2"],
        ["exact-exp", "--graph", ge, "--td", te, "--x", "1.7", "--threads", "2"],
        ["taylor", "--graph", _oracle_file(tmp_path), "--x", "1", "--tau", "6",
         "--threads", "2"],
        ["mc", "--graph", gp, "--x", "1.3", "--samples", "300000", "--seed", "9",
         "--threads", "2"],
        ["bracket", "--graph", gp, "--x", "1.3", "--resolution", "6"],
        ["sp-exact", "--graph", ge, "--x", "1.7"],
    ]
    for cmd in commands:
        rc1, out1 = _run_cli(cmd)
        rc2, out2 = _run_cli(cmd)
        assert rc1 == rc2 == 0, cmd
        assert out1.encode() == out2.encode(), cmd
    # Monte Carlo across thread counts
    outs = set()
    for threads in ("1", "2", "8"):
        rc, out = _run_cli(["mc", "--graph", gp, "--x", "1.3",
                            "--samples", "300000", "--seed", "9",
                            "--threads", threads])
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1
    _ok(11, "six commands byte-identical across runs; mc identical across thread counts")


def _oracle_file(tmp_path) -> str:
    p = tmp_path / "oracle.txt"
    p.write_text("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n", encoding="utf-8")
    return str(p)
