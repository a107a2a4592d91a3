"""Verifier wiring through the stack: Session, PassManager, jobs, CLI.

The verifier is not a standalone library — every layer exposes it:
``Session.verify`` accepts graphs, compiled models and artifact paths;
``PassManager(verify=...)`` runs it during compilation; job envelopes
carry reports when ``verify=True``; and the ``repro verify`` CLI turns
reports into exit codes.  A hypothesis property test closes the loop:
any random model that compiles must verify clean.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cross_layer_schedule_dynamic

from repro.arch import paper_case_study
from repro.core import VERIFY_MODES, ScheduleOptions
from repro.core.passes import CompilationContext, PassManager
from repro.exec.jobs import CompileJob, EvaluateJob
from repro.frontend import preprocess
from repro.ir import Graph, GraphBuilder
from repro.mapping import minimum_pe_requirement
from repro.models import build
from repro.session import Session
from repro.verify import VerifyReport


def min_pes_for(canonical: Graph) -> int:
    return minimum_pe_requirement(canonical, paper_case_study(1).crossbar)


def roomy_arch(num_pes):
    arch = paper_case_study(num_pes)
    tile = dataclasses.replace(
        arch.tile, input_buffer_bytes=1 << 20, output_buffer_bytes=1 << 20
    )
    return dataclasses.replace(arch, tile=tile)


@pytest.fixture(scope="module")
def canonical():
    return preprocess(build("tiny_sequential"), quantization=None).graph


@pytest.fixture(scope="module")
def session(canonical):
    return Session(roomy_arch(min_pes_for(canonical) + 4))


@pytest.fixture(scope="module")
def compiled(session, canonical):
    return session.compile(canonical, assume_canonical=True)


# ---------------------------------------------------------------------------
# Session.verify — one entry point, three target kinds
# ---------------------------------------------------------------------------


class TestSessionVerify:
    def test_compiled_model(self, session, compiled):
        report = session.verify(compiled)
        assert isinstance(report, VerifyReport)
        assert report.clean

    def test_graph_uses_session_arch(self, canonical):
        # a 1-PE session cannot hold the weights: arch rules fire
        report = Session(paper_case_study(1)).verify(canonical)
        assert not report.ok
        assert report.by_rule("arch.pe-capacity")

    def test_artifact_path(self, session, compiled, tmp_path):
        path = tmp_path / "m.json"
        compiled.save(path)
        report = session.verify(str(path))
        assert report.clean

    def test_rule_selection(self, session, compiled):
        report = session.verify(compiled, rules=("schedule.raw-race",))
        assert report.rules_run == ("schedule.raw-race",)

    def test_cheap_cost_skips_full_rules(self, session, compiled):
        report = session.verify(compiled, cost="cheap")
        assert "schedule.buffer-capacity" not in report.rules_run
        assert "schedule.buffer-capacity" in report.rules_skipped


# ---------------------------------------------------------------------------
# PassManager verify modes
# ---------------------------------------------------------------------------


class TestPassManagerVerify:
    def _ctx(self, canonical, arch):
        return CompilationContext(
            graph=canonical,
            arch=arch,
            options=ScheduleOptions(),
            assume_canonical=True,
        )

    def test_modes_constant(self):
        assert VERIFY_MODES == ("off", "final", "each_pass")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="verify must be one of"):
            PassManager(verify="sometimes")

    def test_off_mode_records_nothing(self, canonical):
        ctx = PassManager(verify="off").run(
            self._ctx(canonical, roomy_arch(min_pes_for(canonical) + 4))
        )
        assert ctx.verify_report is None

    def test_final_mode_clean(self, canonical):
        ctx = PassManager(verify="final").run(
            self._ctx(canonical, roomy_arch(min_pes_for(canonical) + 4))
        )
        assert ctx.verify_report is not None
        assert ctx.verify_report.clean
        assert not any("verify (" in line for line in ctx.diagnostics)

    def test_final_mode_records_findings(self, canonical):
        arch = roomy_arch(min_pes_for(canonical) + 4)
        tile = dataclasses.replace(
            arch.tile, input_buffer_bytes=0, output_buffer_bytes=0
        )
        ctx = PassManager(verify="final").run(
            self._ctx(canonical, dataclasses.replace(arch, tile=tile))
        )
        report = ctx.verify_report
        assert report is not None and not report.ok
        assert report.by_rule("arch.buffers")
        # findings surface as compilation diagnostics, never as aborts
        assert any(
            "verify (final): error[arch.buffers]" in line
            for line in ctx.diagnostics
        )

    def test_each_pass_mode_merges_reports(self, canonical):
        ctx = PassManager(verify="each_pass").run(
            self._ctx(canonical, roomy_arch(min_pes_for(canonical) + 4))
        )
        report = ctx.verify_report
        assert report is not None and report.clean
        # the final full pass ran on top of the per-pass cheap runs
        assert "schedule.buffer-capacity" in report.rules_run

    def test_session_with_verifying_pass_manager(self, canonical):
        session = Session(
            roomy_arch(min_pes_for(canonical) + 4),
            pass_manager=PassManager(verify="final"),
        )
        compiled = session.compile(canonical, assume_canonical=True)
        assert compiled.latency_cycles > 0


# ---------------------------------------------------------------------------
# job envelopes
# ---------------------------------------------------------------------------


class TestJobVerifyReports:
    def test_evaluate_job_carries_report(self, session):
        result = session.submit(
            EvaluateJob(graph="tiny_sequential", verify=True)
        ).result()
        assert isinstance(result.verify_report, VerifyReport)
        assert result.verify_report.clean

    def test_default_is_no_report(self, session):
        result = session.submit(EvaluateJob(graph="tiny_sequential")).result()
        assert result.verify_report is None

    def test_compile_job_carries_report(self, session):
        result = session.submit(
            CompileJob(graph="tiny_sequential", verify=True)
        ).result()
        assert result.verify_report is not None
        assert result.verify_report.clean
        assert result.value.latency_cycles > 0


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------


def test_sweep_attaches_reports(session, canonical):
    from repro.models.zoo import BenchmarkSpec

    spec = BenchmarkSpec(
        "tiny_sequential",
        input_shape=canonical.infer_shapes()[canonical.input_names()[0]].hwc,
        base_layers=0,
        min_pes=min_pes_for(canonical),
    )
    [result] = session.sweep([spec], xs=(4,), verify=True)
    assert result.baseline_verify_report is not None
    assert result.baseline_verify_report.ok
    for point in result.points:
        assert point.verify_report is not None
        assert point.verify_report.ok


def test_sweep_default_attaches_nothing(session, canonical):
    from repro.models.zoo import BenchmarkSpec

    spec = BenchmarkSpec(
        "tiny_sequential",
        input_shape=canonical.infer_shapes()[canonical.input_names()[0]].hwc,
        base_layers=0,
        min_pes=min_pes_for(canonical),
    )
    [result] = session.sweep([spec], xs=(4,))
    assert result.baseline_verify_report is None
    assert all(point.verify_report is None for point in result.points)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_schedule_verify_save_then_verify_artifact(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "tiny.json"
        code = main(
            [
                "schedule",
                "--model",
                "tiny_sequential",
                "--verify",
                "--save",
                str(artifact),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"artifact written to {artifact}" in out
        assert "rule(s) run" in out  # the verify summary line
        assert artifact.exists()

        assert main(["verify", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "tiny_sequential" in out

    def test_verify_json_output(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "tiny.json"
        assert (
            main(
                ["schedule", "--model", "tiny_sequential", "--save", str(artifact)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["verify", str(artifact), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "rules_run" in payload

        # rule selection flows through
        assert (
            main(
                [
                    "verify",
                    str(artifact),
                    "--rules",
                    "schedule.raw-race",
                    "schedule.exclusivity",
                ]
            )
            == 0
        )
        assert "2 rule(s) run" in capsys.readouterr().out

    def test_verify_missing_artifact_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["verify", str(tmp_path / "nope.json")]) == 2
        assert "no such artifact" in capsys.readouterr().err

    def test_verify_corrupt_artifact_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("this is not an artifact")
        assert main(["verify", str(bad)]) == 2
        assert "verify:" in capsys.readouterr().err

    def test_verify_unknown_rule_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "tiny.json"
        assert (
            main(
                ["schedule", "--model", "tiny_sequential", "--save", str(artifact)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["verify", str(artifact), "--rules", "schedule.nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# property: anything that compiles verifies clean
# ---------------------------------------------------------------------------


@st.composite
def random_models(draw):
    """Small random CNNs (chains, pooling, branches, residuals)."""
    b = GraphBuilder("random")
    size = draw(st.sampled_from([8, 12, 16]))
    x = b.input((size, size, 2), name="in")
    current_size = size
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(st.sampled_from(["conv", "conv_pool", "branch", "residual"]))
        channels = draw(st.sampled_from([2, 4, 6]))
        kernel = draw(st.sampled_from([1, 3]))
        if choice == "conv":
            x = b.relu(b.conv2d(x, channels, kernel=kernel, padding="same"))
        elif choice == "conv_pool" and current_size >= 4:
            x = b.maxpool(b.conv2d(x, channels, kernel=kernel, padding="same"), 2)
            current_size //= 2
        elif choice == "branch":
            left = b.conv2d(x, channels, kernel=kernel, padding="same")
            right = b.conv2d(x, channels, kernel=1, padding="same")
            x = b.concat([left, right])
        else:
            inner = b.conv2d(x, channels, kernel=kernel, padding="same")
            skip = b.conv2d(x, channels, kernel=1, padding="same")
            x = b.relu(b.add([inner, skip]))
    return b.graph


@settings(max_examples=15, deadline=None)
@given(model=random_models(), source=st.sampled_from(["csr", "python"]))
def test_property_random_compile_verifies_clean(model, source):
    """Kernel schedules and the oracle's row-form ones verify clean."""
    canonical = preprocess(model, quantization=None).graph
    session = Session(roomy_arch(min_pes_for(canonical) + 4))
    compiled = session.compile(canonical, assume_canonical=True)
    if source == "python":
        schedule = cross_layer_schedule_dynamic(compiled.mapped, compiled.dependencies)
        compiled = dataclasses.replace(compiled, schedule=schedule)
    report = session.verify(compiled)
    assert report.clean, report.format()
