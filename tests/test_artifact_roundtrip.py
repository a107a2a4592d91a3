"""Artifact round-trip tests: CompiledModel.save() → load().

Satellite acceptance: identical makespan, placement, and ``evaluate()``
metrics for at least two models × two configurations.
"""

import json

import pytest

from repro import CompiledModel, ScheduleOptions, Session, paper_case_study
from repro.frontend import preprocess
from repro.ir import serialize
from repro.mapping import minimum_pe_requirement
from repro.models import build

MODELS = ("tiny_sequential", "tiny_csp")
CONFIGS = {
    "wdup+xinf": ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
    "layer-by-layer": ScheduleOptions(mapping="none", scheduling="layer-by-layer"),
}

#: Corruptions of an artifact's ``dependencies`` record and the load error each raises.
CORRUPTIONS = {
    "dropped": r"no entry for set \['[^']+', \d+\]",
    "duplicated": "listed twice",
    "unknown-layer": "unknown layer 'nowhere'",
    "index-out-of-range": "has no set 1000000",
    "not-a-pair": r"is not a \[layer, index\] pair",
}


@pytest.fixture(scope="module")
def compiled_grid():
    grid = {}
    for model in MODELS:
        canonical = preprocess(build(model), quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        session = Session(paper_case_study(min_pes + 4))
        for config_name, options in CONFIGS.items():
            grid[(model, config_name)] = session.compile(
                canonical, options, assume_canonical=True
            )
    return grid


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestRoundTrip:
    def test_save_load_identical(self, compiled_grid, tmp_path, model, config_name):
        compiled = compiled_grid[(model, config_name)]
        path = tmp_path / f"{model}-{config_name}.json"
        compiled.save(str(path))
        loaded = CompiledModel.load(str(path))

        assert loaded.schedule.makespan == compiled.schedule.makespan
        assert loaded.schedule.policy == compiled.schedule.policy
        assert loaded.schedule.tasks == compiled.schedule.tasks
        assert loaded.placement.pe_ranges == compiled.placement.pe_ranges
        assert loaded.placement.tilings == compiled.placement.tilings
        assert loaded.sets == compiled.sets
        assert loaded.options == compiled.options
        assert loaded.arch == compiled.arch
        assert loaded.evaluate() == compiled.evaluate()

    def test_loaded_graphs_match(self, compiled_grid, tmp_path, model, config_name):
        compiled = compiled_grid[(model, config_name)]
        path = tmp_path / "artifact.json"
        compiled.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.canonical.topological_order() == (
            compiled.canonical.topological_order()
        )
        assert loaded.mapped.topological_order() == compiled.mapped.topological_order()
        if compiled.options.mapping == "none":
            # no rewrite: the mapped graph is stored as a reference
            assert loaded.mapped is loaded.canonical

    def test_gantt_and_origins_survive(self, compiled_grid, tmp_path, model, config_name):
        compiled = compiled_grid[(model, config_name)]
        path = tmp_path / "artifact.json"
        compiled.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.gantt() == compiled.gantt()
        for layer in loaded.schedule.layers():
            assert loaded.origin_of_layer(layer) == compiled.origin_of_layer(layer)


class TestArtifactDetails:
    def _one(self, compiled_grid):
        return compiled_grid[("tiny_sequential", "wdup+xinf")]

    def test_duplication_and_rewrite_round_trip(self, compiled_grid, tmp_path):
        compiled = self._one(compiled_grid)
        assert compiled.duplication is not None  # wdup actually duplicated
        path = tmp_path / "artifact.json"
        compiled.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.duplication.d == compiled.duplication.d
        assert loaded.duplication.method == compiled.duplication.method
        assert loaded.duplication.objective == compiled.duplication.objective
        assert loaded.duplication.pes_used == compiled.duplication.pes_used
        assert loaded.rewrite.origin_of == compiled.rewrite.origin_of
        assert set(loaded.rewrite.duplicated) == set(compiled.rewrite.duplicated)

    def test_dependencies_opt_in(self, compiled_grid, tmp_path):
        compiled = self._one(compiled_grid)
        path = tmp_path / "artifact.json"
        compiled.save(str(path))
        assert CompiledModel.load(str(path)).dependencies is None

        compiled.save(str(path), include_dependencies=True)
        loaded = CompiledModel.load(str(path))
        assert loaded.dependencies is not None
        assert loaded.dependencies == compiled.dependencies

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_dependencies_rejected_at_load(self, compiled_grid, corruption):
        """The ``dependencies`` record decodes to CSR at load, so a broken
        entry fails there with an error naming it, not at first use."""
        record = serialize.compiled_to_dict(
            self._one(compiled_grid), include_dependencies=True
        )
        entries = record["dependencies"]
        ref = entries[-1][2][0]  # the last set's first predecessor
        if corruption == "dropped":
            del entries[3]
        elif corruption == "duplicated":
            entries.append(entries[3])
        elif corruption == "unknown-layer":
            ref[0] = "nowhere"
        elif corruption == "index-out-of-range":
            ref[1] = 10**6
        else:
            entries[-1][2][0] = ref[:1]
        with pytest.raises(ValueError, match=CORRUPTIONS[corruption]):
            serialize.compiled_from_dict(record)

    def test_readers_of_artifact_without_dependencies(self, tmp_path):
        """Saved without its set graph (the default), a CLSA-CIM artifact
        reruns Stage II for every reader: the same energy (NoC term
        included), simulation, buffer report and critical path."""
        from repro.analysis import critical_path
        from repro.sim import NocCostModel, analyze_buffers, estimate_energy, simulate

        canonical = preprocess(build("tinyyolov4"), quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        compiled = Session(paper_case_study(min_pes + 16)).compile(
            canonical, CONFIGS["wdup+xinf"], assume_canonical=True
        )
        path = tmp_path / "artifact.json"
        compiled.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.dependencies is None

        energy = estimate_energy(loaded)
        assert energy == estimate_energy(compiled) and energy.noc_uj > 0
        for cost_model in (None, NocCostModel(compiled.mapped, compiled.placement)):
            assert simulate(loaded, cost_model) == simulate(compiled, cost_model)
        assert analyze_buffers(loaded) == analyze_buffers(compiled)
        assert critical_path(loaded) == critical_path(compiled)

    def test_to_json_is_the_artifact_document(self, compiled_grid):
        compiled = self._one(compiled_grid)
        record = json.loads(compiled.to_json())
        assert record["format"] == serialize.ARTIFACT_FORMAT
        assert record["format_version"] == serialize.ARTIFACT_FORMAT_VERSION
        again = serialize.compiled_from_dict(record)
        assert again.schedule.makespan == compiled.schedule.makespan

    def test_wrong_format_rejected(self, compiled_grid):
        compiled = self._one(compiled_grid)
        record = serialize.compiled_to_dict(compiled)
        record["format"] = "something-else"
        with pytest.raises(ValueError, match="artifact"):
            serialize.compiled_from_dict(record)

    def test_wrong_version_rejected(self, compiled_grid):
        compiled = self._one(compiled_grid)
        record = serialize.compiled_to_dict(compiled)
        record["format_version"] = serialize.ARTIFACT_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            serialize.compiled_from_dict(record)

    def test_recorded_engine_is_dropped(self, compiled_grid, tmp_path):
        """Artifacts written while ``ScheduleOptions`` had an ``engine``
        field (both values scheduled identically) load and re-evaluate
        to the same latency."""
        compiled = self._one(compiled_grid)
        record = json.loads(compiled.to_json())
        assert "engine" not in record["options"]
        record["options"]["engine"] = "python"
        path = tmp_path / "engine-era.json"
        path.write_text(json.dumps(record))
        loaded = CompiledModel.load(str(path))
        assert loaded.options == compiled.options
        assert loaded.evaluate() == compiled.evaluate()
        recompiled = Session(loaded.arch).compile(
            loaded.canonical, loaded.options, assume_canonical=True
        )
        assert recompiled.latency_cycles == compiled.latency_cycles

    def test_unknown_options_field_rejected(self, compiled_grid, tmp_path):
        record = json.loads(self._one(compiled_grid).to_json())
        record["options"]["turbo"] = True
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="unknown schedule options field.*turbo"):
            CompiledModel.load(str(path))

    def test_missing_artifact_field_named(self, compiled_grid):
        record = serialize.compiled_to_dict(self._one(compiled_grid))
        del record["arch"]
        with pytest.raises(ValueError, match="artifact record is missing field 'arch'"):
            serialize.compiled_from_dict(record)

    def test_missing_arch_field_named(self, compiled_grid):
        with pytest.raises(ValueError, match="architecture record .* field 'tile'"):
            serialize.arch_from_dict({"num_pes": 4})
        record = serialize.compiled_to_dict(self._one(compiled_grid))
        del record["arch"]["noc"]
        with pytest.raises(ValueError, match="architecture record .* field 'noc'"):
            serialize.compiled_from_dict(record)

    def test_options_decoder_defaults_and_names_bad_fields(self):
        defaults = serialize.options_to_dict(ScheduleOptions())
        partial = {"mapping": "none", "order_mode": "static"}
        assert serialize.options_from_dict(partial) == ScheduleOptions(
            mapping="none", order_mode="static"
        )
        assert serialize.options_from_dict(defaults) == ScheduleOptions()
        for bad in ({"rows_per_set": 0}, {"rows": 1}, "coarse"):
            with pytest.raises(ValueError, match="granularity"):
                serialize.options_from_dict({**defaults, "granularity": bad})

    def test_plugin_artifact_loads_without_plugin(self, tmp_path):
        """An artifact compiled with a registered plugin scheduler must
        load (and evaluate) in a process where the plugin is absent."""
        from repro.core.passes import register_scheduler, unregister_scheduler
        from repro.core.schedule import Schedule, SetTask

        def sequential(ctx):
            cursor, tasks = 0, []
            for layer in ctx.sets:
                for index, rect in enumerate(ctx.sets[layer]):
                    tasks.append(SetTask(layer, index, rect, cursor, cursor + rect.area))
                    cursor += rect.area
            return Schedule(policy="plugin-sequential", tasks=tasks)

        canonical = preprocess(build("tiny_sequential"), quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        path = tmp_path / "plugin.json"
        register_scheduler("plugin-sequential", sequential, needs_dependencies=False)
        try:
            compiled = Session(paper_case_study(min_pes + 4)).compile(
                canonical,
                ScheduleOptions(mapping="none", scheduling="plugin-sequential"),
                assume_canonical=True,
            )
            compiled.save(str(path))
        finally:
            unregister_scheduler("plugin-sequential")

        # Plugin is gone: the name no longer validates...
        with pytest.raises(ValueError):
            ScheduleOptions(scheduling="plugin-sequential")
        # ...but the artifact still loads, evaluates, and re-serializes.
        loaded = CompiledModel.load(str(path))
        assert loaded.options.scheduling == "plugin-sequential"
        assert loaded.schedule.makespan == compiled.schedule.makespan
        assert loaded.evaluate() == compiled.evaluate()
        assert json.loads(loaded.to_json())["options"]["scheduling"] == (
            "plugin-sequential"
        )

    def test_timings_and_diagnostics_preserved(self, compiled_grid, tmp_path):
        compiled = self._one(compiled_grid)
        path = tmp_path / "artifact.json"
        compiled.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.timings == compiled.timings
        assert loaded.diagnostics == compiled.diagnostics
