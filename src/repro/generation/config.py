"""Configuration for comparison-query generation and notebook assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.base import BACKEND_NAMES, default_backend_name
from repro.errors import QueryError
from repro.insights.significance import SignificanceConfig
from repro.parallel.config import ParallelConfig
from repro.queries.distance import DEFAULT_WEIGHTS, DistanceWeights
from repro.queries.interestingness import InterestingnessConfig
from repro.relational.aggregates import DEFAULT_COMPARISON_AGGREGATES, is_aggregate


@dataclass(frozen=True, slots=True)
class SamplingSpec:
    """Offline sampling for the statistical tests (Section 5.1.2).

    ``strategy`` is ``"random"`` or ``"unbalanced"``; ``rate`` the kept
    fraction.  Tests run on the sample; support checking, credibility, and
    interestingness always use the full relation (as the paper notes for
    the credibility component).
    """

    strategy: str
    rate: float

    def __post_init__(self) -> None:
        if self.strategy not in ("random", "unbalanced"):
            raise QueryError(f"unknown sampling strategy {self.strategy!r}")
        if not 0 < self.rate <= 1:
            raise QueryError(f"sampling rate must be in (0, 1], got {self.rate}")


@dataclass(frozen=True, slots=True)
class GenerationConfig:
    """Everything Algorithm 1 / Algorithm 2 need.

    Attributes
    ----------
    aggregates:
        Aggregate functions enabled for comparison queries (paper default:
        sum and avg).
    insight_types:
        Insight type codes (default: ``("M", "V")``).
    significance:
        Statistical-test settings (permutations, threshold, BH).
    interestingness:
        Component switches for Definition 4.3.
    distance_weights:
        Weighted-Hamming weights of Section 4.2.
    sampling:
        Optional offline sampling spec for the tests.
    exclude_functional_dependencies:
        Pre-processing step of Section 6.1: skip (grouping, selection)
        attribute pairs linked by an FD.
    prune_transitive:
        Section 3.3: drop insights deducible by transitivity.
    evaluator:
        ``"pairwise"`` — the §5.2.1 bounding (one 2-group-by per attribute
        pair); ``"setcover"`` — Algorithm 2; ``"naive"`` — re-aggregate
        per hypothesis query (the unbounded Algorithm 1, ablation only).
    backend:
        Execution engine for scans and group-by aggregation:
        ``"columnar"`` (in-process NumPy, default) or ``"sqlite"``
        (pushdown to stdlib :mod:`sqlite3`).  The default honours the
        ``REPRO_BACKEND`` environment variable (CI matrix hook).
    memory_budget_bytes:
        Byte budget for Algorithm 2's cache (None = unlimited).
    parallel:
        The sharded execution layer's settings
        (:class:`~repro.parallel.config.ParallelConfig`): worker count
        for the test and support phases (Section 6.3.3), restart budget,
        shard size.  The default honours ``REPRO_WORKERS``.
    max_pairs_per_attribute:
        Optional cap on enumerated value pairs per attribute (explicitly
        reported when it truncates).
    """

    aggregates: tuple[str, ...] = DEFAULT_COMPARISON_AGGREGATES
    insight_types: tuple[str, ...] = ("M", "V")
    significance: SignificanceConfig = field(default_factory=SignificanceConfig)
    interestingness: InterestingnessConfig = field(default_factory=InterestingnessConfig)
    distance_weights: DistanceWeights = DEFAULT_WEIGHTS
    sampling: SamplingSpec | None = None
    exclude_functional_dependencies: bool = True
    prune_transitive: bool = True
    evaluator: str = "pairwise"
    backend: str = field(default_factory=default_backend_name)
    memory_budget_bytes: int | None = None
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    max_pairs_per_attribute: int | None = None

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise QueryError("at least one aggregate function is required")
        for agg in self.aggregates:
            if not is_aggregate(agg):
                raise QueryError(f"unknown aggregate {agg!r}")
        if self.evaluator not in ("pairwise", "setcover", "naive"):
            raise QueryError(f"unknown evaluator {self.evaluator!r}")
        if self.backend not in BACKEND_NAMES:
            raise QueryError(
                f"unknown execution backend {self.backend!r}; known: {BACKEND_NAMES}"
            )
