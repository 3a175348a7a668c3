import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stochlp import (DivergentIntegral, InvariantViolation, approx_dag, approx_taylor, exact_exp,
                     parse_graph, parse_td)
from stochlp.cli import dispatch, render_json


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def chain_files(tmp_path):
    rc, _, _ = run([
        "gen", "--shape", "chain", "--n", "3", "--dist", "uniform",
        "--out-graph", str(tmp_path / "g.txt"), "--out-td", str(tmp_path / "t.td"),
    ])
    assert rc == 0
    return str(tmp_path / "g.txt"), str(tmp_path / "t.td")


@pytest.fixture
def exp_files(tmp_path):
    rc, _, _ = run([
        "gen", "--shape", "chain", "--n", "3", "--dist", "exp",
        "--out-graph", str(tmp_path / "ge.txt"), "--out-td", str(tmp_path / "te.td"),
    ])
    assert rc == 0
    return str(tmp_path / "ge.txt"), str(tmp_path / "te.td")


class TestDispatch:
    def test_validate_ok(self, chain_files):
        g, t = chain_files
        rc, out, _ = run(["validate-td", "--graph", g, "--td", t])
        assert rc == 0
        assert json.loads(out)["valid"] is True

    def test_approx_needs_resolution(self, chain_files):
        g, t = chain_files
        rc, out, err = run(["approx", "--graph", g, "--td", t, "--x", "1"])
        assert rc == 1
        assert "epsilon" in err

    def test_distribution_mismatch(self, chain_files):
        g, t = chain_files
        rc, out, err = run(["exact-exp", "--graph", g, "--td", t, "--x", "1"])
        assert rc == 1
        assert "mismatch" in err

    def test_unknown_flag(self, chain_files):
        g, _ = chain_files
        rc, _, _ = run(["mc", "--graph", g, "--x", "1", "--frobnicate"])
        assert rc == 1

    def test_budget_abort_exit_2(self, chain_files):
        g, t = chain_files
        rc, out, _ = run([
            "approx", "--graph", g, "--td", t, "--x", "1",
            "--grid-m", "64", "--max-cells", "10",
        ])
        assert rc == 2
        assert json.loads(out)["kind"] == "budget"

    def test_missing_file(self):
        rc, _, err = run(["mc", "--graph", "/nonexistent", "--x", "1"])
        assert rc == 1 and "cannot read" in err

    def test_error_line_with_control_characters_is_json(self, tmp_path):
        path = str(tmp_path / "a\tb\x01.txt")
        rc, out, _ = run(["mc", "--graph", path, "--x", "1"])
        assert rc == 1 and out.count("\n") == 1
        doc = json.loads(out)
        assert doc["kind"] == "input" and path in doc["error"]
        assert render_json({"p": "a\tb\x01\r\b\f\x1f"}) == '{"p": "a\\tb\\u0001\\r\\b\\f\\u001f"}'

    def test_approx_json_fields(self, chain_files):
        g, t = chain_files
        rc, out, _ = run(["approx", "--graph", g, "--td", t, "--x", "1", "--grid-m", "8"])
        assert rc == 0
        doc = json.loads(out)
        for key in ("value", "M", "separated_width", "separated_n", "per_bag"):
            assert key in doc
        assert "elapsed_ms" not in doc  # timings only on request

    def test_timings_flag(self, chain_files):
        g, t = chain_files
        rc, out, _ = run(["approx", "--graph", g, "--td", t, "--x", "1",
                          "--grid-m", "8", "--timings"])
        assert rc == 0 and "elapsed_ms" in json.loads(out)

    def test_exact_exp_symbolic(self, exp_files):
        g, t = exp_files
        rc, out, _ = run(["exact-exp", "--graph", g, "--td", t, "--x", "1",
                          "--emit-symbolic"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["guarantee"]["kind"] == "exact" and doc["symbolic"]

    @pytest.mark.parametrize("argv", [
        ["approx", "--epsilon", "nan"],
        ["taylor", "--tau", "-1"],
        ["taylor", "--tau", "-2"],
    ])
    def test_bad_solver_parameter_is_input_error(self, tmp_path, argv):
        command, *flags = argv
        g, t = tmp_path / "g.txt", tmp_path / "t.td"
        dist = "uniform" if command == "approx" else "oracle:expcdf"
        rc, _, _ = run(["gen", "--shape", "chain", "--n", "3", "--dist", dist,
                        "--out-graph", str(g), "--out-td", str(t)])
        assert rc == 0
        rc, out, err = run([command, "--graph", str(g), "--td", str(t), "--x", "1", *flags])
        assert rc == 1 and err.startswith("stochlp: error: ")
        assert out.count("\n") == 1 and json.loads(out)["kind"] == "input"

    @pytest.mark.parametrize("max_edges, code", [("-1", 1), ("0", 0)])
    def test_gen_max_edges(self, tmp_path, max_edges, code):
        g = tmp_path / "g.txt"
        rc, out, err = run(["gen", "--shape", "random-tw", "--n", "6", "--max-edges", max_edges,
                            "--out-graph", str(g), "--out-td", str(tmp_path / "t.td")])
        assert rc == code and out.count("\n") == 1
        if code:
            assert json.loads(out)["kind"] == "input" and "max_edges" in err
        else:
            # zero keeps the one-edge fallback
            assert json.loads(out)["m"] == 1 and g.read_text().splitlines()[0] == "6 1"

    def test_taylor_requires_order(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("2 1\n1 2 oracle expcdf\n")
        rc, _, err = run(["taylor", "--graph", str(p), "--x", "1"])
        assert rc == 1 and "tau" in err

    @pytest.mark.parametrize("error", [InvariantViolation, DivergentIntegral])
    def test_internal_error_exit_3(self, exp_files, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("bag 0: check failed")

        monkeypatch.setattr("stochlp.cli.exact_exp", broken)
        g, t = exp_files
        rc, out, err = run(["exact-exp", "--graph", g, "--td", t, "--x", "1"])
        assert rc == 3 and "internal error" in err
        assert json.loads(out) == {"error": "bag 0: check failed", "kind": "internal"}

    @pytest.mark.parametrize("command, dist, extra, x, want", [
        ("approx", "uniform", ["--grid-m", "4"], "1e400", "input"),
        ("taylor", "oracle:expcdf", ["--tau", "3"], "1e400", "input"),
        ("mc", "uniform", ["--samples", "10"], "1e400", "input"),
        ("bracket", "uniform", ["--resolution", "2"], "1e400", "input"),
        ("approx", "uniform", ["--grid-m", "4"], "--", "input"),
        ("exact-exp", "exp", [], "1e400", 1),
        ("sp-exact", "exp", [], "1e400", 1),
    ])
    def test_horizon_outside_float_range(self, tmp_path, command, dist, extra, x, want):
        g = str(tmp_path / "g.txt")
        rc, _, _ = run(["gen", "--shape", "chain", "--n", "3", "--dist", dist,
                        "--out-graph", g, "--out-td", str(tmp_path / "t.td")])
        assert rc == 0
        rc, out, _ = run([command, "--graph", g, f"--x={x}", *extra])
        doc = json.loads(out)
        if want == "input":
            assert rc == 1 and doc["kind"] == "input"
        else:
            assert rc == 0 and doc["value"] == want

    @pytest.mark.parametrize("x, key", [("1e100", "bound"), ("1e200", "value")])
    def test_non_finite_floats_render_as_null(self, tmp_path, x, key):
        g = tmp_path / "g.txt"
        g.write_text("2 1\n1 2 oracle expcdf\n")
        rc, out, _ = run(["taylor", "--graph", str(g), "--x", x, "--tau", "2"])
        assert rc == 0
        doc = json.loads(out)
        assert (doc["guarantee"] if key == "bound" else doc)[key] is None
        assert render_json([1.5, float("inf"), -float("inf"), float("nan")]) == "[1.5, null, null, null]"

    @pytest.mark.parametrize("x, shown", [("1e100", "-5e+199"), ("1e200", "-inf")])
    def test_value_outside_unit_interval_warns(self, tmp_path, x, shown):
        g = tmp_path / "g.txt"
        g.write_text("2 1\n1 2 oracle expcdf\n")
        rc, out, err = run(["taylor", "--graph", str(g), "--x", x, "--tau", "2"])
        assert rc == 0
        assert err == f"stochlp: warning: value {shown} outside [0, 1]\n"
        value = json.loads(out)["value"]
        assert value is None if shown == "-inf" else value == -5e199

    def test_sp_exact_rational_field(self, chain_files):
        g, _ = chain_files
        rc, out, _ = run(["sp-exact", "--graph", g, "--x", "1"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["exact"] == {"num": "1", "den": "2"}
        assert doc["value"] == 0.5


class TestRecord:
    """What the goldens do not cover: the oracle commands' inputs and the
    solver guarantees the CLI copies from the reports."""

    @pytest.mark.parametrize("argv, keys", [
        (["mc", "--x", "1", "--samples", "100", "--threads", "2"], ["graph", "x", "samples", "seed"]),
        (["bracket", "--x", "1", "--resolution", "4", "--max-cells", "10000"],
         ["graph", "x", "resolution"]),
        (["sp-exact", "--x", "1"], ["graph", "x"]),
        (["validate-td", "--td", "T"], ["graph", "td"]),
    ])
    def test_oracle_inputs_in_declaration_order(self, chain_files, argv, keys):
        g, t = chain_files
        command, *flags = argv
        rc, out, _ = run([command, "--graph", g, *(t if f == "T" else f for f in flags)])
        assert rc == 0
        doc = json.loads(out)
        assert list(doc)[:2] == ["command", "inputs"] and doc["command"] == command
        assert list(doc["inputs"]) == keys and doc["inputs"]["graph"] == g

    def test_grid_m_wins_over_epsilon(self, chain_files):
        g, t = chain_files
        rc, out, _ = run(["approx", "--graph", g, "--td", t, "--x", "1",
                          "--epsilon", "0.5", "--grid-m", "8"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["guarantee"] == {"kind": "staircase-sandwich"} and doc["M"] == 8

    @pytest.mark.parametrize("dist, argv, solver, kwargs", [
        ("uniform", ["approx", "--epsilon", "0.5"], approx_dag, {"epsilon": 0.5}),
        ("uniform", ["approx", "--grid-m", "8"], approx_dag, {"m_override": 8}),
        ("exp", ["exact-exp"], exact_exp, {}),
        ("oracle:expcdf", ["taylor", "--tau", "3"], approx_taylor, {"tau": 3}),
    ])
    def test_guarantee_is_the_reports(self, tmp_path, dist, argv, solver, kwargs):
        g, t = tmp_path / "g.txt", tmp_path / "t.td"
        rc, _, _ = run(["gen", "--shape", "chain", "--n", "3", "--dist", dist,
                        "--out-graph", str(g), "--out-td", str(t)])
        assert rc == 0
        command, *flags = argv
        rc, out, _ = run([command, "--graph", str(g), "--td", str(t), "--x", "0.75", *flags])
        assert rc == 0
        graph = parse_graph(g.read_text())
        td = parse_td(t.read_text()).relabel({label: i for i, label in enumerate(graph.labels)})
        _, rep = solver(graph, td, 0.75, **kwargs)
        assert json.loads(out)["guarantee"] == rep.guarantee


class TestDeterminism:
    def test_gen_reproducible(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            gp, tp = str(tmp_path / f"g{tag}"), str(tmp_path / f"t{tag}")
            rc, _, _ = run(["gen", "--shape", "random-tw", "--n", "12", "--k", "2",
                            "--seed", "7", "--out-graph", gp, "--out-td", tp])
            assert rc == 0
            paths.append((open(gp).read(), open(tp).read()))
        assert paths[0] == paths[1]

    def test_byte_identical_runs(self, chain_files, exp_files):
        g, t = chain_files
        ge, te = exp_files
        cmds = [
            ["approx", "--graph", g, "--td", t, "--x", "0.7", "--grid-m", "8"],
            ["exact-exp", "--graph", ge, "--td", te, "--x", "1.5"],
            ["mc", "--graph", g, "--x", "0.9", "--samples", "200000", "--seed", "3"],
            ["bracket", "--graph", g, "--x", "0.9", "--resolution", "13"],
            ["sp-exact", "--graph", g, "--x", "0.9"],
        ]
        for cmd in cmds:
            rc1, out1, _ = run(cmd)
            rc2, out2, _ = run(cmd)
            assert rc1 == rc2 == 0
            assert out1 == out2, cmd

    def test_mc_thread_count_irrelevant(self, chain_files):
        g, _ = chain_files
        outs = []
        for threads in ("1", "4"):
            rc, out, _ = run(["mc", "--graph", g, "--x", "0.8",
                              "--samples", "100000", "--seed", "1",
                              "--threads", threads])
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_json_roundtrip(self, chain_files):
        g, t = chain_files
        _, out, _ = run(["approx", "--graph", g, "--td", t, "--x", "1", "--grid-m", "8"])
        doc = json.loads(out)
        assert json.loads(render_json(doc)) == doc


class TestEnvironment:
    def test_budget_env_override(self, chain_files, monkeypatch):
        g, t = chain_files
        monkeypatch.setenv("STOCHLP_BUDGET", "10")
        rc, out, _ = run(["approx", "--graph", g, "--td", t, "--x", "1", "--grid-m", "32"])
        assert rc == 2 and json.loads(out)["kind"] == "budget"
        monkeypatch.delenv("STOCHLP_BUDGET")
        rc, _, _ = run(["approx", "--graph", g, "--td", t, "--x", "1", "--grid-m", "32"])
        assert rc == 0

    def test_negative_seed_accepted(self, chain_files):
        g, _ = chain_files
        rc, out1, _ = run(["mc", "--graph", g, "--x", "1", "--samples", "1000", "--seed", "-3"])
        rc2, out2, _ = run(["mc", "--graph", g, "--x", "1", "--samples", "1000", "--seed", "-3"])
        assert rc == rc2 == 0 and out1 == out2


class TestBadDecompositionFiles:
    def test_td_with_unknown_vertex(self, chain_files, tmp_path):
        g, _ = chain_files
        bad = tmp_path / "bad.td"
        bad.write_text("s td 1 5 3\nb 1 1 2 3 9\n", encoding="utf-8")
        rc, _, err = run(["validate-td", "--graph", g, "--td", str(bad)])
        assert rc == 1 and "unknown vertex" in err
