"""Exception hierarchy, rooted at ``StochLPError``, and the resource budget
of one solver run."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar, Iterator


class StochLPError(Exception):
    """Base class for all package errors."""


class InputError(StochLPError):
    """Bad user input: malformed files, invalid parameters, mismatched
    distributions.  Maps to CLI exit code 1."""


class GraphFormatError(InputError):
    pass


class CycleError(GraphFormatError):
    pass


class TdFormatError(InputError):
    pass


class DistributionMismatchError(InputError):
    pass


class NotSeriesParallelError(InputError):
    pass


class InvariantViolation(StochLPError):
    """A structural invariant that should hold by construction failed.
    Every invalid input decomposition is rejected with InputError before any
    solver runs, so this signals a bug.  Maps to CLI exit code 3."""


def finite_horizon(x):
    """Return the horizon ``x``; ``InputError`` if it is NaN or infinite."""
    if x != x or x in (math.inf, -math.inf):
        raise InputError(f"horizon must be finite, got {x}")
    return x


class BudgetExceeded(StochLPError):
    """A configured resource budget was exhausted.  Maps to CLI exit code 2."""


class DivergentIntegral(StochLPError):
    """A symbolic integral has a non-vanishing tail at an infinite bound.
    Signals a bug.  Maps to CLI exit code 3."""


_DEFAULT_MAX_CELLS = 10**9
_DEFAULT_MAX_REGIONS = 10**6
# terms are dict-of-tuple entries costing hundreds of bytes each; the default
# keeps the worst case in the hundreds of megabytes
_DEFAULT_MAX_TERMS = 2 * 10**6
# pairwise term-combination operations across one run; bounds wall-clock time
_DEFAULT_MAX_WORK = 2 * 10**9


def _env_budget() -> int | None:
    raw = os.environ.get("STOCHLP_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"STOCHLP_BUDGET must be an integer, got {raw!r}")


@dataclass
class Budget:
    """Mutable resource accounting for one solver run.

    ``max_cells`` bounds grid-corner evaluations (FPTAS and Riemann
    bracketing) and Monte Carlo samples; ``max_regions``/``max_terms`` bound
    the symbolic calculus and ``max_work`` its term-combination work.  The
    STOCHLP_BUDGET environment variable, when set, overrides all four in
    ``Budget.default``.
    """

    max_cells: int = _DEFAULT_MAX_CELLS
    max_regions: int = _DEFAULT_MAX_REGIONS
    max_terms: int = _DEFAULT_MAX_TERMS
    max_work: int = _DEFAULT_MAX_WORK
    cells_used: int = 0
    regions_peak: int = 0
    terms_peak: int = 0
    work_used: int = 0
    _charges: ClassVar[list | None] = None  # (method, amount) per charge while recording

    @classmethod
    def default(cls, max_cells: int | None = None) -> "Budget":
        env = _env_budget()
        b = cls()
        if env is not None:
            b.max_cells = env
            b.max_regions = env
            b.max_terms = env
            b.max_work = env
        if max_cells is not None:
            b.max_cells = max_cells
        return b

    @contextmanager
    def recording(self) -> Iterator[list]:
        """Yield the list of cell and work charges made in the block, for ``replay``."""
        self._charges = charges = []
        try:
            yield charges
        finally:
            self._charges = None

    def replay(self, charges: list) -> None:
        """Make the recorded ``charges`` again, one at a time and in order."""
        for charge, amount in charges:
            charge(self, amount)

    def charge_cells(self, amount: int) -> None:
        if self._charges is not None:
            self._charges.append((Budget.charge_cells, amount))
        self.cells_used += amount
        if self.cells_used > self.max_cells:
            raise BudgetExceeded(
                f"cell budget exceeded: {self.cells_used} > {self.max_cells} "
                f"corner evaluations or samples; raise --max-cells or shrink M or --samples"
            )

    def note_regions(self, count: int) -> None:
        if count > self.regions_peak:
            self.regions_peak = count
        if count > self.max_regions:
            raise BudgetExceeded(
                f"region budget exceeded: {count} > {self.max_regions} guard regions"
            )

    def note_terms(self, count: int) -> None:
        if count > self.terms_peak:
            self.terms_peak = count
        if count > self.max_terms:
            raise BudgetExceeded(
                f"term budget exceeded: {count} > {self.max_terms} symbolic terms"
            )

    def charge_work(self, amount: int) -> None:
        if self._charges is not None:
            self._charges.append((Budget.charge_work, amount))
        self.work_used += amount
        if self.work_used > self.max_work:
            raise BudgetExceeded(
                f"work budget exceeded: {self.work_used} > {self.max_work} "
                f"term combinations; shrink the truncation order or the instance"
            )
