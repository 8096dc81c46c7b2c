"""Tests for the end-to-end pipeline and the Table 3/7 presets."""

import pytest

from repro import ReproConfig, Session, generate_notebook
from repro.errors import ReproError, TAPError
from repro.generation import GenerationConfig, preset, preset_names
from repro.queries import sequence_distance
from repro.datasets import covid_table


@pytest.fixture(scope="module")
def covid_small():
    return covid_table(400)


@pytest.fixture(scope="module")
def default_run(covid_small):
    return generate_notebook(covid_small, config=ReproConfig(budget=5))


def run_config(table, config: ReproConfig, **overrides):
    with Session(table, config=config) as session:
        return session.generate(**overrides)


class TestNotebookGenerator:
    """The notebook generator end to end, through ``Session.generate``."""

    def test_budget_bounds_selection(self, default_run):
        assert len(default_run.selected) <= 5

    def test_selection_matches_solution_order(self, default_run):
        selected_keys = [g.query.key for g in default_run.selected]
        solution_keys = [
            default_run.outcome.queries[i].query.key for i in default_run.solution.indices
        ]
        assert selected_keys == solution_keys

    def test_distance_bound_respected(self, default_run):
        queries = [g.query for g in default_run.selected]
        assert sequence_distance(queries) <= default_run.epsilon_distance + 1e-9

    def test_tap_timing_recorded(self, default_run):
        assert default_run.timings.tap_solving >= 0.0

    def test_exact_solver_on_small_q(self, covid_small):
        generation = GenerationConfig(
            insight_types=("M",), aggregates=("avg",),
            sampling=None,
        )
        exact = ReproConfig(generation=generation, solver="exact", exact_timeout=30.0)
        run = run_config(covid_small, exact, budget=3, epsilon_distance=6.0)
        heuristic = run_config(
            covid_small, ReproConfig(generation=generation),
            budget=3, epsilon_distance=6.0,
        )
        assert run.report.stage("tap").rung == "exact"
        assert run.solution.interest >= heuristic.solution.interest - 1e-9

    def test_exact_refuses_oversized_q(self, covid_small):
        # The exact solver needs the full distance matrix; past the size
        # guard it refuses, and the report says the run fell back to the
        # Algorithm 3 heuristic.
        config = ReproConfig(solver="exact", max_exact_queries=3)
        run = run_config(covid_small, config, budget=5)
        assert len(run.outcome.queries) > 3
        tap = run.report.stage("tap")
        assert tap.rung == "heuristic"
        assert run.report.degraded
        assert tap.degradations == ["fell back to the Algorithm 3 heuristic"]
        assert any("max_exact_queries=3" in w for w in tap.warnings)
        assert not run.solution.optimal
        assert 0 < len(run.selected) <= 5

    def test_unknown_solver(self):
        with pytest.raises(ReproError, match="solver"):
            ReproConfig(solver="annealing")

    def test_to_notebook(self, covid_small, default_run):
        notebook = default_run.to_notebook(covid_small, table_name="covid")
        assert notebook.n_queries == len(default_run.selected)


class TestPresets:
    def test_all_presets_construct(self):
        for name in preset_names():
            assert isinstance(preset(name), ReproConfig)

    def test_unknown_preset(self):
        with pytest.raises(TAPError, match="unknown preset"):
            preset("wsc-hyperdrive")

    def test_naive_exact_uses_exact_solver(self):
        assert preset("naive-exact").solver == "exact"
        assert preset("wsc-approx").solver == "heuristic"

    def test_sampling_presets_configured(self):
        unb = preset("wsc-unb-approx", sample_rate=0.3)
        assert unb.generation.sampling.strategy == "unbalanced"
        assert unb.generation.sampling.rate == 0.3
        rand = preset("wsc-rand-approx")
        assert rand.generation.sampling.strategy == "random"

    def test_interestingness_variants(self):
        sig = preset("wsc-approx-sig").generation.interestingness
        assert not sig.use_conciseness and not sig.use_credibility
        sig_cred = preset("wsc-approx-sig-cred").generation.interestingness
        assert not sig_cred.use_conciseness and sig_cred.use_credibility

    def test_wsc_presets_use_setcover(self):
        for name in ("wsc-approx", "wsc-unb-approx", "wsc-rand-approx"):
            assert preset(name).generation.evaluator == "setcover"
        for name in ("naive-exact", "naive-approx"):
            assert preset(name).generation.evaluator == "pairwise"

    def test_presets_generate_notebooks(self, covid_small):
        for name in ("wsc-approx", "wsc-rand-approx"):
            run = run_config(covid_small, preset(name, sample_rate=0.4), budget=4)
            assert len(run.selected) <= 4
