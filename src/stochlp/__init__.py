"""stochlp: distribution of the longest path length in bounded-treewidth DAGs
with random edge lengths."""

from types import ModuleType as _ModuleType

from .errors import (
    Budget,
    BudgetExceeded,
    CycleError,
    DistributionMismatchError,
    DivergentIntegral,
    GraphFormatError,
    InputError,
    InvariantViolation,
    NotSeriesParallelError,
    StochLPError,
    TdFormatError,
)
from .graph import (
    Dag,
    DistKind,
    DistSpec,
    parse_graph,
    static_longest_path,
)
from .decomposition import (
    DecompositionContext,
    SolveReport,
    TreeDecomposition,
    binarize_td,
    build_context,
    format_td,
    heuristic_td,
    parse_td,
    prepare_context,
    separate,
    validate_td,
)
from .staircase import (
    ApproxReport,
    GridSpec,
    StaircaseTable,
    accumulate,
    approx_dag,
    bag_staircase,
    choose_M,
    finite_difference,
    merge_subtree,
)

__version__ = "0.1.0"

from .exactexp import ExactExpReport, bag_density_exp, exact_exp
from .taylor import (
    BUILTIN_ORACLES,
    DistributionOracle,
    TaylorReport,
    approx_taylor,
    bag_taylor,
    choose_tau,
    resolve_oracle,
)
from .oracles import (
    PiecewisePoly,
    VolumeBracket,
    irwin_hall,
    monte_carlo,
    riemann_bracket,
    series_parallel_exact,
)
from .generate import Instance, generate, graph_text, td_text

# the names bound above, without the submodules that importing them binds;
# ``generate`` is the function, which shadows its submodule
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
