"""The package's public surface: what ``import stochlp`` exports."""

import stochlp

# the three solvers, the oracles that check them and what the CLI reads; the
# submodules are not exported, and test-only references live in tests/reference.py
PUBLIC = [
    "ApproxReport", "BUILTIN_ORACLES", "Budget", "BudgetExceeded", "CycleError", "Dag",
    "DecompositionContext", "DistKind", "DistSpec", "DistributionMismatchError",
    "DistributionOracle", "DivergentIntegral", "ExactExpReport", "GraphFormatError", "GridSpec",
    "InputError", "Instance", "InvariantViolation", "NotSeriesParallelError", "PiecewisePoly",
    "SolveReport", "StaircaseTable", "StochLPError", "TaylorReport", "TdFormatError",
    "TreeDecomposition", "VolumeBracket", "accumulate", "approx_dag", "approx_taylor",
    "bag_density_exp", "bag_staircase", "bag_taylor", "binarize_td", "build_context", "choose_M",
    "choose_tau", "exact_exp", "finite_difference", "format_td", "generate", "graph_text",
    "heuristic_td", "irwin_hall", "merge_subtree", "monte_carlo", "parse_graph", "parse_td",
    "prepare_context", "resolve_oracle", "riemann_bracket", "separate", "series_parallel_exact",
    "static_longest_path", "td_text", "validate_td",
]


def test_all_is_pinned():
    assert sorted(stochlp.__all__) == sorted(PUBLIC)
    assert all(hasattr(stochlp, name) for name in PUBLIC)
