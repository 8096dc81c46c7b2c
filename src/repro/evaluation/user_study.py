"""Simulated user study (substitute for the paper's Section 6.5).

The paper's 9 volunteers rated six 10-query notebooks on the four criteria
of Bar El et al. [11]: informativity, comprehensibility, expertise, and
human equivalence.  A live study is impossible offline, so we model the
raters: each criterion is a latent score computed from *notebook-intrinsic
features* (insight mass, significance, credibility, conciseness, coherence
of the browsing path, and diversity), perturbed by per-rater bias and
per-rating noise, mapped onto the 1-7 scale.

The latent models encode the qualitative mechanisms the paper discusses:
coherent (low-distance) sequences help comprehensibility but *hurt* human
equivalence ("values of ε_d favoring solutions where comparison queries
are very close to each other ... might explain the low scores on the
Human equivalence criterion"), significance and credibility drive
perceived expertise, and covered insight mass drives informativity.

The reproduction target is the paper's *statistical conclusions* (which
generator differences are significant under a t-test), not absolute bar
heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ReproError
from repro.generation.generator import GeneratedQuery
from repro.queries.distance import DEFAULT_WEIGHTS, DistanceWeights, query_distance
from repro.queries.interestingness import conciseness
from repro.stats.rng import derive_rng

CRITERIA = ("informativity", "comprehensibility", "expertise", "human_equivalence")


@dataclass(frozen=True, slots=True)
class NotebookFeatures:
    """Intrinsic features of one generated notebook."""

    n_queries: int
    insight_mass: float
    n_distinct_insights: int
    insight_density: float  # distinct insights per query, saturating at 2
    mean_significance: float
    mean_credibility_ratio: float
    mean_conciseness: float
    coherence: float  # 1 / (1 + mean consecutive distance); 1 = identical queries
    diversity: float  # mean fraction of distinct parts across queries

    @classmethod
    def of(
        cls,
        queries: Sequence[GeneratedQuery],
        weights: DistanceWeights = DEFAULT_WEIGHTS,
    ) -> "NotebookFeatures":
        if not queries:
            raise ReproError("cannot featurize an empty notebook")
        seen: dict[tuple, float] = {}
        significances: list[float] = []
        credibilities: list[float] = []
        for g in queries:
            for evidence in g.supported:
                seen[evidence.insight.key] = evidence.insight.significance
                significances.append(evidence.insight.significance)
                credibilities.append(evidence.credibility_ratio)
        consecutive = [
            query_distance(queries[i].query, queries[i + 1].query, weights)
            for i in range(len(queries) - 1)
        ]
        mean_distance = float(np.mean(consecutive)) if consecutive else 0.0
        conc = [conciseness(g.tuples_aggregated, g.n_groups) for g in queries]
        n = len(queries)
        distinct_fraction = np.mean(
            [
                len({g.query.selection_attribute for g in queries}) / n,
                len({g.query.group_by for g in queries}) / n,
                len({g.query.measure for g in queries}) / n,
                len({frozenset((g.query.val, g.query.val_other)) for g in queries}) / n,
            ]
        )
        return cls(
            n_queries=n,
            insight_mass=float(sum(seen.values())),
            n_distinct_insights=len(seen),
            insight_density=min(1.0, len(seen) / (2.0 * n)),
            mean_significance=float(np.mean(significances)) if significances else 0.0,
            mean_credibility_ratio=float(np.mean(credibilities)) if credibilities else 0.0,
            mean_conciseness=float(np.mean(conc)),
            coherence=1.0 / (1.0 + mean_distance),
            diversity=float(distinct_fraction),
        )


def _latent_scores(features: NotebookFeatures) -> dict[str, float]:
    """Criterion latents in [0, 1]; see module docstring for the rationale.

    Informativity is keyed on what a rater can *see in the notebook* —
    insight density per query, how significant they look, and diversity —
    not on dataset-level quantities like total insight mass (a rater who
    never saw the dataset cannot know what was missed; this is exactly why
    the paper's sampling variants were not rated worse despite missing
    insights).
    """
    return {
        "informativity": 0.4 * features.insight_density
        + 0.4 * features.mean_significance
        + 0.2 * features.diversity,
        "comprehensibility": 0.55 * features.coherence + 0.45 * features.mean_conciseness,
        "expertise": 0.55 * features.mean_significance
        + 0.30 * features.mean_credibility_ratio
        + 0.15 * features.mean_conciseness,
        "human_equivalence": 0.45 * features.diversity
        + 0.30 * (1.0 - features.coherence)
        + 0.25 * features.mean_significance,
    }


@dataclass(slots=True)
class StudyResult:
    """Ratings per generator: array of shape (n_raters, n_criteria)."""

    ratings: dict[str, np.ndarray]
    features: dict[str, NotebookFeatures]

    def mean_table(self) -> list[tuple[str, float, float, float, float]]:
        rows = []
        for name, matrix in self.ratings.items():
            rows.append((name, *[float(matrix[:, c].mean()) for c in range(len(CRITERIA))]))
        return rows

    def t_test(self, first: str, second: str, criterion: str) -> float:
        """Two-sided Welch t-test p-value between two generators' ratings."""
        from scipy import stats as scipy_stats
        c = CRITERIA.index(criterion)
        a = self.ratings[first][:, c]
        b = self.ratings[second][:, c]
        result = scipy_stats.ttest_ind(a, b, equal_var=False)
        return float(result.pvalue)

    def significant_difference(
        self, first: str, second: str, criterion: str, alpha: float = 0.05
    ) -> bool:
        return self.t_test(first, second, criterion) < alpha


def simulate_user_study(
    notebooks: Mapping[str, Sequence[GeneratedQuery]],
    n_raters: int = 9,
    seed: int = 0,
    rater_bias_sigma: float = 0.08,
    noise_sigma: float = 0.12,
    weights: DistanceWeights = DEFAULT_WEIGHTS,
) -> StudyResult:
    """Rate each notebook with ``n_raters`` simulated volunteers.

    Ratings are ``1 + 6 * clip(latent + bias + noise, 0, 1)`` rounded to
    the nearest integer, mirroring a 1-7 Likert response.
    """
    if not notebooks:
        raise ReproError("no notebooks to rate")
    features = {name: NotebookFeatures.of(qs, weights) for name, qs in notebooks.items()}
    rng = derive_rng(seed, "user-study", tuple(sorted(notebooks)))
    biases = rng.normal(0.0, rater_bias_sigma, n_raters)
    ratings: dict[str, np.ndarray] = {}
    for name, feats in features.items():
        latents = _latent_scores(feats)
        matrix = np.zeros((n_raters, len(CRITERIA)))
        for r in range(n_raters):
            for c, criterion in enumerate(CRITERIA):
                value = latents[criterion] + biases[r] + rng.normal(0.0, noise_sigma)
                matrix[r, c] = 1.0 + 6.0 * float(np.clip(value, 0.0, 1.0))
        ratings[name] = np.round(matrix)
    return StudyResult(ratings, features)
