"""Tests for the compile-service wire codecs (repro.service.wire).

Every encoded payload goes through ``json.dumps``/``json.loads`` before
decoding — the tests exercise exactly what crosses the HTTP boundary,
including float exactness and tuple/list round-trips.
"""

import dataclasses
import json

import pytest

from repro import ScheduleOptions, Session, paper_case_study
from repro.core import SetGranularity
from repro.core.cache import graph_fingerprint
from repro.exec import (
    CompileJob,
    EvaluateJob,
    ExploreJob,
    JobResult,
    SweepJob,
)
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_sequential
from repro.service import (
    WIRE_VERSION,
    WireError,
    decode_job,
    decode_result,
    encode_job,
    encode_result,
)

COARSE = SetGranularity(rows_per_set=4)
COARSE_OPTIONS = ScheduleOptions(granularity=COARSE)


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture(scope="module")
def arch(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + 4)


def roundtrip(record):
    """The exact transformation the HTTP layer applies."""
    return json.loads(json.dumps(record))


class TestJobCodecs:
    def test_compile_job_with_graph_options_arch(self, canonical, arch):
        job = CompileJob(
            canonical, COARSE_OPTIONS, arch=arch,
            assume_canonical=True, key="c1",
        )
        decoded = decode_job(roundtrip(encode_job(job)))
        assert isinstance(decoded, CompileJob)
        assert decoded.key == "c1"
        assert decoded.assume_canonical is True
        assert decoded.options == COARSE_OPTIONS
        assert decoded.arch == arch
        assert graph_fingerprint(decoded.graph) == graph_fingerprint(canonical)

    def test_recorded_engine_dropped_unknown_option_rejected(self, canonical, arch):
        record = roundtrip(encode_job(CompileJob(canonical, COARSE_OPTIONS, arch=arch)))
        record["options"]["engine"] = "csr"  # written while the field existed
        assert decode_job(record).options == COARSE_OPTIONS
        record["options"]["turbo"] = True
        with pytest.raises(ValueError, match="turbo"):
            decode_job(record)

    def test_sweep_overrides_drop_engine_and_name_unknown_keys(self):
        overrides = {"granularity": COARSE, "order_mode": "static"}
        record = roundtrip(encode_job(SweepJob(("tinyyolov3",), options_overrides=overrides)))
        record["options_overrides"]["engine"] = "python"
        assert decode_job(record).options_overrides == overrides
        record["options_overrides"]["turbo"] = True
        with pytest.raises(WireError, match="turbo"):
            decode_job(record)

    def test_evaluate_job_model_name_and_flags(self):
        job = EvaluateJob("tinyyolov3", want_energy=False, key="e1")
        decoded = decode_job(roundtrip(encode_job(job)))
        assert isinstance(decoded, EvaluateJob)
        assert decoded.graph == "tinyyolov3"
        assert decoded.want_energy is False
        assert decoded.options is None and decoded.arch is None

    def test_sweep_job_with_spec_graphs_and_overrides(self, canonical):
        spec = BenchmarkSpec("tiny", (8, 8, 3), base_layers=3, min_pes=4)
        job = SweepJob(
            (spec, "tinyyolov3"),
            xs=(2, 4),
            options_overrides={"granularity": COARSE, "mapping": "wdup"},
            graphs={"tiny": canonical},
            key="s1",
        )
        decoded = decode_job(roundtrip(encode_job(job)))
        assert isinstance(decoded, SweepJob)
        assert decoded.benchmarks[0] == spec
        assert decoded.benchmarks[1] == "tinyyolov3"
        assert decoded.xs == (2, 4)
        assert decoded.options_overrides["granularity"] == COARSE
        assert decoded.options_overrides["mapping"] == "wdup"
        assert graph_fingerprint(decoded.graphs["tiny"]) == graph_fingerprint(
            canonical
        )

    def test_explore_job_carries_default_space_bound(self):
        job = ExploreJob("tinyyolov3", budget=7, seed=3, max_total_pes=64)
        record = roundtrip(encode_job(job))
        record["max_extra_pes"] = 32
        decoded = decode_job(record)
        assert isinstance(decoded, ExploreJob)
        assert decoded.model == "tinyyolov3"
        assert decoded.budget == 7 and decoded.seed == 3
        assert decoded.max_total_pes == 64
        assert decoded.space is not None  # default_space(max_extra_pes=32)

    def test_explore_job_without_bound_keeps_space_none(self):
        decoded = decode_job(roundtrip(encode_job(ExploreJob("tinyyolov3"))))
        assert decoded.space is None

    def test_verify_jobs_rejected(self, canonical):
        with pytest.raises(WireError, match="verify"):
            encode_job(EvaluateJob(canonical, verify=True))

    def test_custom_search_space_rejected(self):
        from repro.explore import default_space

        with pytest.raises(WireError, match="SearchSpace"):
            encode_job(ExploreJob("tinyyolov3", space=default_space()))

    def test_unknown_override_type_rejected(self):
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_job(
                SweepJob(("tinyyolov3",), options_overrides={"hooks": object()})
            )

    def test_wrong_version_rejected(self):
        record = encode_job(EvaluateJob("tinyyolov3"))
        record["version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_job(record)

    def test_missing_field_named(self, arch):
        with pytest.raises(WireError, match="job payload is missing field 'graph'"):
            decode_job({"version": WIRE_VERSION, "kind": "compile"})
        with pytest.raises(WireError, match="job payload is missing field 'benchmarks'"):
            decode_job({"version": WIRE_VERSION, "kind": "sweep"})
        record = roundtrip(encode_job(EvaluateJob("tinyyolov3", arch=arch)))
        del record["arch"]["tile"]
        with pytest.raises(ValueError, match="architecture record .* field 'tile'"):
            decode_job(record)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="unknown job kind"):
            decode_job({"version": WIRE_VERSION, "kind": "teleport"})


class TestResultCodecs:
    @pytest.fixture(scope="class")
    def evaluate_envelope(self, canonical, arch):
        session = Session(arch)
        result = session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="e")
        ).result()
        session.close()
        assert result.ok
        return result

    def test_evaluate_envelope_roundtrip(self, evaluate_envelope):
        decoded = decode_result(roundtrip(encode_result("evaluate", evaluate_envelope)))
        assert decoded.ok
        assert decoded.key == evaluate_envelope.key
        assert decoded.value.metrics == evaluate_envelope.value.metrics
        assert decoded.value.energy == evaluate_envelope.value.energy
        assert decoded.timings == evaluate_envelope.timings
        assert decoded.cache_misses == evaluate_envelope.cache_misses
        assert decoded.cache_stages == evaluate_envelope.cache_stages
        assert decoded.attempts == evaluate_envelope.attempts
        assert decoded.backend == evaluate_envelope.backend

    def test_missing_field_named(self, evaluate_envelope):
        with pytest.raises(WireError, match="result envelope is missing field 'key'"):
            decode_result({"version": WIRE_VERSION})
        record = roundtrip(encode_result("evaluate", evaluate_envelope))
        del record["value"]["evaluation"]
        with pytest.raises(
            WireError, match="result envelope is missing field 'evaluation'"
        ):
            decode_result(record)

    def test_compile_envelope_roundtrip(self, canonical, arch):
        session = Session(arch)
        result = session.submit(
            CompileJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        ).result()
        session.close()
        decoded = decode_result(roundtrip(encode_result("compile", result)))
        assert decoded.ok
        local = result.value.evaluate()
        remote = decoded.value.evaluate()
        assert dataclasses.asdict(remote) == dataclasses.asdict(local)

    def test_sweep_envelope_roundtrip(self, canonical):
        spec = BenchmarkSpec(
            "tiny",
            canonical.shape_of(canonical.input_names()[0]).hwc,
            base_layers=len(canonical.base_layers()),
            min_pes=minimum_pe_requirement(canonical, paper_case_study(1).crossbar),
        )
        session = Session(paper_case_study(1))
        result = session.submit(
            SweepJob(
                (spec,), xs=(2,),
                options_overrides={"granularity": COARSE},
                graphs={spec.name: canonical},
            )
        ).result()
        session.close()
        decoded = decode_result(roundtrip(encode_result("sweep", result)))
        assert decoded.ok
        (local,) = result.value
        (remote,) = decoded.value
        assert remote.benchmark == local.benchmark
        assert remote.min_pes == local.min_pes
        assert remote.baseline == local.baseline
        assert remote.baseline_cache == local.baseline_cache
        assert remote.points == local.points
        assert remote.failures == local.failures

    def test_failed_envelope_roundtrip(self):
        session = Session(paper_case_study(1))
        result = session.submit(SweepJob(("no-such-benchmark",))).result()
        session.close()
        assert not result.ok
        decoded = decode_result(roundtrip(encode_result("sweep", result)))
        assert not decoded.ok
        assert decoded.error is not None
        assert decoded.error.kind == result.error.kind
        assert decoded.error.message == result.error.message
        assert decoded.error.traceback == result.error.traceback

    def test_result_version_rejected(self, evaluate_envelope):
        record = encode_result("evaluate", evaluate_envelope)
        record["version"] = 99
        with pytest.raises(WireError, match="version"):
            decode_result(record)

    def test_unknown_result_kind_rejected(self):
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_result("teleport", JobResult(key="x", value=object()))
