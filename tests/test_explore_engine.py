"""Tests for the exploration engine (repro.explore.engine).

The acceptance-critical behaviours: every evaluated point is
journalled, the frontier is non-trivial, and a re-run against the same
store performs zero duplicate compiles (asserted through the engine's
compile counters *and* a spy on the evaluation function).
"""

import json

import pytest

import repro.exec.runtime as runtime_mod
from repro import Session, paper_case_study
from repro.explore import (
    Categorical,
    Explorer,
    ExploreError,
    LogInteger,
    RunStore,
    SearchSpace,
    default_space,
    make_strategy,
    register_strategy,
    strategy_names,
)
from repro.explore.store import StoreError
from repro.explore.strategies import Proposal, Strategy, unregister_strategy
from repro.frontend import preprocess
from repro.models import tiny_sequential

BUDGET = 10


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


def small_space(**kwargs):
    """A compact space keeping engine tests fast."""
    return default_space(max_extra_pes=16, max_rows_per_set=4, **kwargs)


def explore(canonical, **kwargs):
    kwargs.setdefault("space", small_space())
    kwargs.setdefault("budget", BUDGET)
    kwargs.setdefault("seed", 7)
    return Explorer(canonical, **kwargs).run()


class TestRunBasics:
    def test_budget_is_honoured(self, canonical):
        result = explore(canonical, strategy="random")
        assert result.counters.processed == BUDGET
        assert result.counters.evaluated_full == BUDGET
        assert len(result.results) == BUDGET

    def test_every_point_journalled(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = explore(canonical, strategy="random", store=path)
        lines = [json.loads(line) for line in open(path).read().splitlines()]
        records = [entry for entry in lines if entry["kind"] == "record"]
        assert len(records) == result.counters.evaluated_full == BUDGET
        fingerprints = {r["fingerprint"] for r in records}
        assert fingerprints == {r.fingerprint for r in result.results}

    def test_frontier_nontrivial_latency_energy(self, canonical):
        """Warm-start anchors guarantee the latency/energy tradeoff
        corners are visited, so the frontier has real tradeoffs."""
        result = explore(canonical, strategy="random")
        assert len(result.frontier) >= 2
        latencies = {e.values["latency"] for e in result.frontier}
        energies = {e.values["energy"] for e in result.frontier}
        assert len(latencies) >= 2 and len(energies) >= 2

    def test_all_objectives_scored_on_full_points(self, canonical):
        result = explore(canonical, strategy="random")
        for r in result.results:
            assert set(r.objectives) >= {"latency", "energy", "utilization"}
            assert r.objectives["latency"] > 0

    def test_same_seed_same_results(self, canonical):
        a = explore(canonical, strategy="random")
        b = explore(canonical, strategy="random")
        assert [r.fingerprint for r in a.results] == [
            r.fingerprint for r in b.results
        ]

    def test_invalid_budget_and_objective(self, canonical):
        with pytest.raises(ExploreError):
            Explorer(canonical, budget=0)
        with pytest.raises(KeyError):
            Explorer(canonical, objectives=("latency", "speed"))

    def test_summary_mentions_compiles(self, canonical):
        result = explore(canonical, strategy="random")
        assert f"compiles this run: {result.counters.compiles}" in result.summary()


class TestResume:
    def test_second_run_compiles_nothing(self, canonical, tmp_path, monkeypatch):
        """The acceptance property: a resumed identical exploration is a
        pure journal replay — zero compiles, asserted three ways."""
        path = str(tmp_path / "run.jsonl")
        first = explore(canonical, strategy="random", store=path)
        assert first.counters.compiles == BUDGET

        compile_calls = []
        original = runtime_mod.execute_job

        def spy(*args, **kwargs):
            compile_calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runtime_mod, "execute_job", spy)
        second = explore(canonical, strategy="random", store=path)
        # 1. the engine's own counters
        assert second.counters.compiles == 0
        assert second.counters.reused_full == BUDGET
        # 2. no job reached the compile path
        assert len(compile_calls) == 0
        # 3. the frontier is rebuilt identically from the journal
        assert {e.key for e in second.frontier} == {
            e.key for e in first.frontier
        }

    def test_store_reuse_hits_counted(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(canonical, strategy="random", store=path)
        store = RunStore.open(path, _fp(canonical))
        assert store.loaded == BUDGET
        # resuming through an explicitly-passed store counts its hits
        result = explore(canonical, strategy="random", store=store)
        assert result.counters.compiles == 0
        assert store.reuse_hits >= BUDGET

    def test_bigger_budget_extends_incrementally(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(canonical, strategy="random", store=path, budget=6)
        result = explore(canonical, strategy="random", store=path, budget=12)
        assert result.counters.reused_full == 6
        assert result.counters.evaluated_full == 6

    def test_resume_false_refuses_existing(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(canonical, strategy="random", store=path)
        with pytest.raises(StoreError):
            explore(canonical, strategy="random", store=path, resume=False)

    def test_store_for_other_model_refused(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        RunStore.open(path, "other-model")  # creates the file + header
        with pytest.raises(StoreError):
            explore(canonical, strategy="random", store=path)
        # an in-memory store for another model is rejected too
        with pytest.raises(StoreError):
            explore(canonical, strategy="random",
                    store=RunStore(None, "other-model"))

    def test_stores_shared_across_strategies(self, canonical, tmp_path):
        """The journal is strategy-agnostic: grid reuses random's work."""
        path = str(tmp_path / "run.jsonl")
        explore(canonical, strategy="random", store=path)
        result = explore(canonical, strategy="grid", store=path)
        assert result.counters.reused_full > 0


def _fp(graph):
    from repro.core.cache import CompilationCache

    return CompilationCache().fingerprint(graph)


class TestStrategies:
    def test_builtin_names(self):
        assert set(strategy_names()) >= {
            "grid", "random", "successive-halving", "evolutionary",
        }

    def test_grid_exhausts_small_space(self, canonical):
        space = SearchSpace(
            [
                Categorical("scheduling", ["layer-by-layer", "clsa-cim"]),
                LogInteger("extra_pes", 4, 8),
            ]
        )
        result = explore(canonical, strategy="grid", space=space, budget=50)
        # 2 x 2 grid, plus nothing else: strategy runs dry under budget
        assert result.counters.evaluated_full == 4

    def test_successive_halving_screens_with_proxies(self, canonical):
        result = explore(
            canonical,
            strategy="successive-halving",
            strategy_options={"eta": 3},
            budget=6,
        )
        assert result.counters.evaluated_proxy > 0
        assert result.counters.evaluated_full + result.counters.reused_full == 6
        # proxy latencies journal without energy/utilization
        proxies = [r for r in result.results if r.fidelity == "proxy"]
        assert proxies and all("energy" not in r.objectives for r in proxies)

    def test_successive_halving_promotes_fastest(self, canonical):
        result = explore(
            canonical,
            strategy="successive-halving",
            strategy_options={"eta": 3},
            budget=6,
        )
        proxy_latency = {
            r.fingerprint: r.objectives["latency"]
            for r in result.results
            if r.fidelity == "proxy"
        }
        promoted = [r for r in result.results if r.fidelity == "full" and not r.reused]
        assert promoted
        # anchors aside, promoted points came from the screened pool
        screened_points = [
            r.point for r in result.results if r.fidelity == "proxy"
        ]
        for r in promoted[4:]:  # skip the 4 warm-start anchors
            assert r.point in screened_points

    def test_evolutionary_archive_grows(self, canonical):
        result = explore(
            canonical,
            strategy="evolutionary",
            strategy_options={"population": 4, "mutation_rate": 0.3},
            budget=12,
        )
        assert result.counters.evaluated_full + result.counters.reused_full == 12
        assert len(result.frontier) >= 2

    def test_strategy_options_validated(self, canonical):
        with pytest.raises(ValueError):
            explore(canonical, strategy="successive-halving",
                    strategy_options={"eta": 1})
        with pytest.raises(ValueError):
            explore(canonical, strategy="evolutionary",
                    strategy_options={"population": 1})
        with pytest.raises(ValueError):
            explore(canonical, strategy="evolutionary",
                    strategy_options={"mutation_rate": 2.0})

    def test_unknown_strategy(self, canonical):
        with pytest.raises(KeyError):
            explore(canonical, strategy="simulated-annealing")

    def test_register_strategy_plugin(self, canonical):
        class FixedStrategy(Strategy):
            """Proposes one hand-picked point, then stops."""

            def __init__(self, space, **kwargs):
                super().__init__(space, **kwargs)
                self._done = False

            def propose(self, limit):
                if self._done:
                    return []
                self._done = True
                point = self.space.canonicalize(
                    {name: self.space.dimension(name).choices[0]
                     for name in self.space.names}
                )
                return [Proposal(point)]

        register_strategy("fixed", FixedStrategy)
        try:
            result = explore(
                canonical, strategy="fixed", budget=20, warm_start=False
            )
            assert result.counters.evaluated_full == 1
        finally:
            unregister_strategy("fixed")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_strategy("random", Strategy)
        with pytest.raises(ValueError):
            unregister_strategy("random")

    def test_make_strategy_passes_options(self):
        strategy = make_strategy(
            "successive-halving", small_space(), seed=1, eta=4
        )
        assert strategy.eta == 4


class TestWarmStart:
    def test_anchors_cover_mapping_scheduling_combos(self, canonical):
        result = explore(canonical, strategy="random", budget=4)
        combos = {
            (r.point["mapping"], r.point["scheduling"]) for r in result.results
        }
        assert combos == {
            ("none", "layer-by-layer"), ("none", "clsa-cim"),
            ("wdup", "layer-by-layer"), ("wdup", "clsa-cim"),
        }

    def test_warm_start_disabled(self, canonical):
        result = explore(
            canonical, strategy="random", budget=4, warm_start=False
        )
        assert result.counters.processed == 4  # all from the strategy

    def test_anchors_not_reproposed_by_strategy(self, canonical):
        """Anchor points are claimed on the strategy, so a fresh run
        never wastes budget re-visiting them (regression: random search
        used to pay a reused slot for an anchor duplicate)."""
        result = explore(canonical, strategy="random", budget=BUDGET)
        assert result.counters.reused_full == 0
        assert result.counters.evaluated_full == BUDGET
        assert len({r.fingerprint for r in result.results}) == BUDGET


class TestFeasibility:
    def test_chip_budget_journals_infeasible(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = explore(
            canonical,
            strategy="random",
            store=path,
            max_total_pes=12,
            warm_start=False,
        )
        assert result.counters.infeasible > 0
        assert result.counters.infeasible + result.counters.evaluated_full == BUDGET
        records = [json.loads(line) for line in open(path).read().splitlines()][1:]
        infeasible = [r for r in records if not r["feasible"]]
        assert len(infeasible) == result.counters.infeasible
        # infeasible points never reach the frontier
        keys = {e.key for e in result.frontier}
        assert not keys & {r["fingerprint"] for r in infeasible}

    def test_infeasible_points_not_recompiled_on_resume(self, canonical, tmp_path):
        path = str(tmp_path / "run.jsonl")
        explore(canonical, strategy="random", store=path,
                max_total_pes=12, warm_start=False)
        again = explore(canonical, strategy="random", store=path,
                        max_total_pes=12, warm_start=False)
        assert again.counters.compiles == 0


class TestSessionIntegration:
    def test_session_explore_by_name(self, tmp_path):
        session = Session(paper_case_study(1))
        result = session.explore(
            "tiny_sequential",
            space=small_space(),
            strategy="random",
            budget=6,
            store=str(tmp_path / "run.jsonl"),
            seed=3,
        )
        assert result.counters.evaluated_full == 6
        assert len(result.frontier) >= 1

    def test_session_cache_shared_with_exploration(self, canonical):
        session = Session(paper_case_study(1))
        session.explore(
            canonical, space=small_space(), strategy="random", budget=4
        )
        # exploration populated the session cache (stage hits recorded)
        assert session.cache.hits > 0

    def test_parallel_jobs_match_serial(self, canonical):
        serial = explore(canonical, strategy="random", seed=5)
        parallel = explore(canonical, strategy="random", seed=5, jobs=2)
        assert {e.key for e in serial.frontier} == {
            e.key for e in parallel.frontier
        }
        assert [r.fingerprint for r in serial.results] == [
            r.fingerprint for r in parallel.results
        ]

    def test_custom_objectives(self, canonical):
        result = explore(
            canonical, strategy="random",
            objectives=("latency", "utilization"),
        )
        assert result.objectives == ("latency", "utilization")
        for entry in result.frontier:
            assert set(entry.values) == {"latency", "utilization"}
