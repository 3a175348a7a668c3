"""Default CLI stdout, byte for byte, against recorded files.

Inputs and recorded outputs live in ``tests/golden/``.  Each command runs
with that directory as working directory and relative file names, so the
paths under ``inputs`` are the bare file names.  The approx horizon is
dyadic (2.5 at M=8), so every table entry is an exact dyadic and the bytes
do not depend on the summation order.  To re-record a case after a change
that is meant to alter output, run its argv from ``tests/golden/`` with
``PYTHONPATH=../../src python3 -m stochlp.cli ARGV > NAME.out``.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stochlp.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "approx-given": ["approx", "--graph", "ladder-uniform.txt", "--td", "ladder-uniform.td",
                     "--x", "2.5", "--grid-m", "8"],
    "approx-heuristic": ["approx", "--graph", "ladder-uniform.txt", "--x", "2.5", "--grid-m", "8"],
    "exact-exp-given": ["exact-exp", "--graph", "ladder-exp.txt", "--td", "ladder-exp.td",
                        "--x", "2", "--emit-symbolic"],
    "exact-exp-heuristic": ["exact-exp", "--graph", "ladder-exp.txt", "--x", "2", "--emit-symbolic"],
    "taylor-given": ["taylor", "--graph", "diamond-oracle.txt", "--td", "diamond-oracle.td",
                     "--x", "1", "--tau", "4"],
    "taylor-heuristic": ["taylor", "--graph", "diamond-oracle.txt", "--x", "1", "--tau", "4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(CASES[name])
    assert rc == 0, err.getvalue()
    assert out.getvalue() == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# the tau=4 series on the given decomposition evaluates to a negative value
STDERR = {"taylor-given": "stochlp: warning: value -0.00640707671957672 outside [0, 1]\n"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stderr_only_warns_outside_unit_interval(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        dispatch(CASES[name])
    assert err.getvalue() == STDERR.get(name, "")


def test_relabel_reuses_the_rooted_walk(monkeypatch):
    # one walk for the parsed decomposition, whose relabelled copy keeps it,
    # and one for the separated decomposition that build_context roots
    from functools import cached_property

    from stochlp.decomposition import TreeDecomposition

    walk = TreeDecomposition.__dict__["_rooted"].func
    calls = []

    def counted(td):
        calls.append(td)
        return walk(td)

    prop = cached_property(counted)
    prop.__set_name__(TreeDecomposition, "_rooted")
    monkeypatch.setattr(TreeDecomposition, "_rooted", prop)
    monkeypatch.chdir(GOLDEN)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert dispatch(CASES["exact-exp-given"]) == 0
    assert len(calls) == 2
