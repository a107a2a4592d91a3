"""Unit tests for the unified static verifier (repro.verify).

Covers the diagnostics vocabulary, the rule registry, the IR and
architecture rule packs (including their error paths), the
placement/sets/duplication rules, and the plain-string and raising
graph checks (``graph_issues``/``assert_graph``).
"""

import dataclasses

import pytest

from repro.arch import paper_case_study
from repro.arch.memory import DramSpec
from repro.arch.tile import GpeuSpec
from repro.frontend import preprocess
from repro.ir import Graph, GraphBuilder, GraphError, Identity, Input
from repro.mapping import minimum_pe_requirement
from repro.session import Session
from repro.verify import (
    Diagnostic,
    Location,
    Rule,
    Severity,
    VerificationError,
    VerifyContext,
    VerifyReport,
    assert_graph,
    graph_issues,
    register_rule,
    resolve_rule,
    rule_names,
    rules_for,
    unregister_rule,
    verify_context,
    verify_graph,
)


def tiny_graph() -> Graph:
    b = GraphBuilder("tiny")
    x = b.input((8, 8, 2), name="in")
    c = b.conv2d(x, 4, kernel=3, padding="same", name="c1")
    r = b.relu(c, name="r1")
    b.maxpool(r, 2, name="p1")
    return b.graph


@pytest.fixture(scope="module")
def compiled_tiny():
    """One compiled tiny model shared by the placement/sets rule tests."""
    from repro.models import build

    canonical = preprocess(build("tiny_sequential"), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    session = Session(paper_case_study(min_pes + 4))
    return session.compile(canonical, assume_canonical=True)


# ---------------------------------------------------------------------------
# diagnostics model
# ---------------------------------------------------------------------------


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_str(self):
        assert str(Severity.ERROR) == "error"

    def test_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.parse(30) is Severity.ERROR
        assert Severity.parse(Severity.INFO) is Severity.INFO

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")


class TestLocation:
    def test_empty_is_falsy(self):
        assert not Location()
        assert Location(layer="c1")

    def test_str_and_dict(self):
        loc = Location(layer="c1", set_index=3, pe=7, cycle=100)
        assert str(loc) == "layer=c1 set=3 pe=7 cycle=100"
        assert loc.to_dict() == {"layer": "c1", "set_index": 3, "pe": 7, "cycle": 100}


class TestDiagnostic:
    def test_format(self):
        diag = Diagnostic(
            rule="x.y",
            severity=Severity.ERROR,
            message="boom",
            location=Location(layer="c1"),
            hint="fix it",
        )
        assert diag.format() == "error[x.y] boom (at layer=c1) — hint: fix it"

    def test_format_bare(self):
        diag = Diagnostic(rule="x.y", severity=Severity.INFO, message="note")
        assert diag.format() == "info[x.y] note"


class TestVerifyReport:
    def _report(self) -> VerifyReport:
        report = VerifyReport(target="m", rules_run=("a", "b"))
        report.extend(
            [
                Diagnostic(rule="a", severity=Severity.ERROR, message="e1"),
                Diagnostic(rule="b", severity=Severity.WARNING, message="w1"),
            ]
        )
        return report

    def test_flags(self):
        report = self._report()
        assert not report.ok
        assert not report.clean
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert report.max_severity is Severity.ERROR
        assert report.fired_rules() == ("a", "b")
        assert [d.message for d in report.by_rule("a")] == ["e1"]
        assert len(report.at_least("warning")) == 2
        assert len(report.at_least(Severity.ERROR)) == 1

    def test_clean_report(self):
        report = VerifyReport(target="m", rules_run=("a",))
        assert report.ok and report.clean
        assert report.max_severity is None
        assert "clean" in report.summary()

    def test_extend_dedupes(self):
        report = self._report()
        report.extend([Diagnostic(rule="a", severity=Severity.ERROR, message="e1")])
        assert len(report) == 2

    def test_merged(self):
        other = VerifyReport(rules_run=("c",))
        other.extend([Diagnostic(rule="c", severity=Severity.INFO, message="i1")])
        merged = self._report().merged(other)
        assert len(merged) == 3
        assert merged.rules_run == ("a", "b", "c")

    def test_format_and_json(self):
        report = self._report()
        text = report.format()
        assert "1 error(s), 1 warning(s)" in text
        assert "error[a] e1" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["counts"] == {"error": 1, "warning": 1, "info": 0}

    def test_raise_if_errors(self):
        with pytest.raises(VerificationError) as excinfo:
            self._report().raise_if_errors()
        # historical raising validators used AssertionError
        assert isinstance(excinfo.value, AssertionError)
        assert excinfo.value.report.errors


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_register_and_run_custom_rule(self):
        def check(ctx):
            return [
                Diagnostic(
                    rule="test.always",
                    severity=Severity.INFO,
                    message=f"saw graph {ctx.graph.name}",
                )
            ]

        rule = Rule(name="test.always", check=check, requires=("graph",))
        register_rule(rule)
        try:
            assert "test.always" in rule_names()
            report = verify_graph(tiny_graph())
            assert [d.message for d in report.by_rule("test.always")] == [
                "saw graph tiny"
            ]
        finally:
            unregister_rule("test.always")
        assert "test.always" not in rule_names()

    def test_duplicate_registration_refused(self):
        rule = Rule(name="test.dup", check=lambda ctx: [])
        register_rule(rule)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_rule(rule)
            register_rule(rule, replace=True)  # explicit replace is fine
        finally:
            unregister_rule("test.dup")

    def test_builtins_protected(self):
        with pytest.raises(ValueError, match="built-in"):
            unregister_rule("schedule.raw-race")

    def test_unregister_unknown(self):
        with pytest.raises(KeyError):
            unregister_rule("test.nope")

    def test_resolve_unknown(self):
        with pytest.raises(KeyError, match="unknown rule"):
            resolve_rule("test.nope")

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="cost"):
            Rule(name="x", check=lambda ctx: [], cost="medium")
        with pytest.raises(ValueError, match="unknown field"):
            Rule(name="x", check=lambda ctx: [], requires=("nonsense",))
        with pytest.raises(ValueError, match="non-empty"):
            Rule(name="", check=lambda ctx: [])

    def test_rules_for_filters_by_requirements(self):
        names = {r.name for r in rules_for(("graph",))}
        assert "ir.inputs" in names
        assert "schedule.raw-race" not in names

    def test_rules_for_cheap_drops_full_rules(self):
        available = ("graph", "arch", "mapped", "placement", "sets",
                     "dependencies", "schedule")
        all_names = {r.name for r in rules_for(available)}
        cheap = {r.name for r in rules_for(available, cost="cheap")}
        assert "schedule.buffer-capacity" in all_names - cheap
        assert "sets.partition" in all_names - cheap

    def test_crashing_rule_becomes_diagnostic(self):
        def check(ctx):
            raise RuntimeError("kaboom")

        register_rule(Rule(name="test.crash", check=check, requires=("graph",)))
        try:
            report = verify_graph(tiny_graph())
            [diag] = report.by_rule("test.crash")
            assert diag.severity is Severity.ERROR
            assert "rule crashed" in diag.message
        finally:
            unregister_rule("test.crash")


# ---------------------------------------------------------------------------
# IR rules (the historical validate_graph error paths, now per-rule)
# ---------------------------------------------------------------------------


class TestIrRules:
    def test_clean_graph(self):
        report = verify_graph(tiny_graph())
        assert report.clean
        assert "ir.inputs" in report.rules_run
        # schedule rules cannot run on a bare graph
        assert "schedule.raw-race" in report.rules_skipped

    def test_no_inputs(self):
        g = Graph("empty")
        g.add(Identity("a", []))
        report = verify_graph(g)
        assert report.by_rule("ir.inputs")[0].message == "graph has no Input nodes"
        assert (
            report.by_rule("ir.producers")[0].message
            == "non-input node 'a' has no producers"
        )

    def test_cycle(self):
        g = Graph("cyc")
        g.add(Input("in", shape=(4, 4, 1)))
        g.add(Identity("a", ["b"]))
        g.add(Identity("b", ["a"]))
        report = verify_graph(g)
        assert report.fired_rules() == ("ir.structure",)
        assert "cycle" in report.by_rule("ir.structure")[0].message

    def test_bad_regions(self):
        class BadRegions(Identity):
            def input_regions(self, out_rect, input_shapes, out_shape):
                return []

        b = GraphBuilder("badr")
        b.input((4, 4, 1), name="in")
        g = b.graph
        g.add(BadRegions("bad", ["in"]))
        report = verify_graph(g)
        assert (
            report.by_rule("ir.regions")[0].message
            == "'bad' returned 0 input regions for 1 inputs"
        )

    def test_region_out_of_bounds(self):
        from repro.ir.tensor import Rect

        class HugeRegions(Identity):
            def input_regions(self, out_rect, input_shapes, out_shape):
                return [Rect(0, 0, 100, 100)]

        b = GraphBuilder("huge")
        b.input((4, 4, 1), name="in")
        g = b.graph
        g.add(HugeRegions("big", ["in"]))
        report = verify_graph(g)
        [diag] = report.by_rule("ir.regions")
        assert "exceeds bounds" in diag.message

    def test_dead_layer(self):
        # Shape forbids zero dims, so a zero-element base layer can only
        # arise from a corrupted/injected shape table — exercise the
        # rule through the context memo.
        class FakeShape:
            num_elements = 0

        g = tiny_graph()
        ctx = VerifyContext(graph=g, target="t")
        ctx._memo["topo_order"] = g.topological_order()
        shapes = dict.fromkeys(g.topological_order(), FakeShape())
        ctx._memo["graph_shapes"] = shapes
        report = verify_context(ctx, rules=("ir.dead-layer",))
        assert (
            report.by_rule("ir.dead-layer")[0].message
            == "base layer 'c1' has an empty output"
        )

    def test_unconsumed_input_is_warning(self):
        b = GraphBuilder("un")
        x = b.input((4, 4, 1), name="used")
        b.input((4, 4, 1), name="dangling")
        b.relu(x, name="r")
        report = verify_graph(b.graph)
        assert report.ok  # warnings do not fail verification
        [diag] = report.by_rule("ir.unconsumed")
        assert diag.severity is Severity.WARNING
        assert diag.message == "input 'dangling' is never consumed"

    def test_inference_failure_is_structural(self):
        b = GraphBuilder("t")
        x = b.input((4, 4, 1), name="in")
        b.conv2d(x, 2, kernel=1, name="c")
        g = b.graph
        g["c"].out_channels = 0  # corrupt: Shape rejects 0 channels
        report = verify_graph(g)
        assert report.fired_rules() == ("ir.structure",)


# ---------------------------------------------------------------------------
# architecture rules (the historical check_requirements paths)
# ---------------------------------------------------------------------------


class TestArchRules:
    def test_clean(self):
        g = tiny_graph()
        arch = paper_case_study(minimum_pe_requirement(g, paper_case_study(1).crossbar))
        assert verify_graph(g, arch).clean

    def test_pe_capacity(self):
        b = GraphBuilder("wide")
        x = b.input((8, 8, 2), name="in")
        b.conv2d(x, 300, kernel=3, padding="same", name="c1")  # 2 crossbars
        report = verify_graph(b.graph, paper_case_study(1))
        [diag] = report.by_rule("arch.pe-capacity")
        assert "weights must be storable at least once" in diag.message

    def test_no_buffers(self):
        arch = paper_case_study(150)
        tile = dataclasses.replace(
            arch.tile, input_buffer_bytes=0, output_buffer_bytes=0
        )
        report = verify_graph(tiny_graph(), dataclasses.replace(arch, tile=tile))
        assert (
            report.by_rule("arch.buffers")[0].message
            == "tiles have no buffers for partial IFM/OFM data"
        )

    def test_gpeu_unsupported_op(self):
        arch = paper_case_study(150)
        tile = dataclasses.replace(
            arch.tile, gpeu=GpeuSpec(supported_ops=("Identity",))
        )
        report = verify_graph(tiny_graph(), dataclasses.replace(arch, tile=tile))
        messages = [d.message for d in report.by_rule("arch.gpeu-support")]
        assert "GPEU does not support non-base op type 'MaxPool'" in messages

    def test_dram_too_small(self):
        arch = dataclasses.replace(
            paper_case_study(150), dram=DramSpec(capacity_bytes=1)
        )
        report = verify_graph(tiny_graph(), arch)
        assert (
            report.by_rule("arch.dram-capacity")[0].message
            == "feature maps exceed global DRAM capacity"
        )


# ---------------------------------------------------------------------------
# placement / duplication / set-partition rules
# ---------------------------------------------------------------------------


class TestMappingRules:
    def test_clean_compile_passes_all(self, compiled_tiny):
        from repro.verify import verify_compiled

        assert verify_compiled(compiled_tiny).clean

    def _with_placement(self, compiled, pe_ranges):
        placement = dataclasses.replace(
            compiled.placement, pe_ranges=dict(pe_ranges)
        )
        return dataclasses.replace(compiled, placement=placement)

    def test_place_bounds(self, compiled_tiny):
        from repro.verify import verify_compiled

        ranges = dict(compiled_tiny.placement.pe_ranges)
        layer = next(iter(ranges))
        lo, hi = ranges[layer]
        ranges[layer] = (lo, compiled_tiny.arch.num_pes + 50)
        report = verify_compiled(
            self._with_placement(compiled_tiny, ranges),
            rules=("place.bounds",),
        )
        [diag] = report.by_rule("place.bounds")
        assert "invalid PE range" in diag.message
        assert diag.location.layer == layer

    def test_place_overlap(self, compiled_tiny):
        from repro.verify import verify_compiled

        ranges = dict(compiled_tiny.placement.pe_ranges)
        layers = list(ranges)
        assert len(layers) >= 2
        ranges[layers[1]] = ranges[layers[0]]  # collide two layers
        report = verify_compiled(
            self._with_placement(compiled_tiny, ranges),
            rules=("place.overlap",),
        )
        assert report.by_rule("place.overlap")
        assert "PE oversubscription" in report.by_rule("place.overlap")[0].message

    def test_place_capacity_unplaced_layer(self, compiled_tiny):
        from repro.verify import verify_compiled

        ranges = dict(compiled_tiny.placement.pe_ranges)
        layer, _ = ranges.popitem()
        report = verify_compiled(
            self._with_placement(compiled_tiny, ranges),
            rules=("place.capacity",),
        )
        messages = [d.message for d in report.by_rule("place.capacity")]
        assert f"base layer '{layer}' is not placed on any PEs" in messages

    def test_place_capacity_wrong_width(self, compiled_tiny):
        from repro.verify import verify_compiled

        ranges = dict(compiled_tiny.placement.pe_ranges)
        layer = next(iter(ranges))
        lo, hi = ranges[layer]
        ranges[layer] = (lo, hi + 1)
        report = verify_compiled(
            self._with_placement(compiled_tiny, ranges),
            rules=("place.capacity",),
        )
        assert any(
            "crossbar tiling needs" in d.message
            for d in report.by_rule("place.capacity")
        )

    def test_duplication_ghost(self, compiled_tiny):
        from repro.verify import verify_compiled

        if compiled_tiny.rewrite is None or not compiled_tiny.rewrite.duplicated:
            pytest.skip("tiny model has no duplicated layers at this budget")
        rewrite = compiled_tiny.rewrite
        original, dup = next(iter(rewrite.duplicated.items()))
        corrupted = dataclasses.replace(
            dup, duplicates=list(dup.duplicates) + ["ghost"]
        )
        bad = dataclasses.replace(
            rewrite, duplicated={**rewrite.duplicated, original: corrupted}
        )
        report = verify_compiled(
            dataclasses.replace(compiled_tiny, rewrite=bad),
            rules=("mapping.duplication",),
        )
        assert any(
            "'ghost'" in d.message and "missing" in d.message
            for d in report.by_rule("mapping.duplication")
        )

    def test_sets_partition_gap_and_overlap(self, compiled_tiny):
        from repro.verify import verify_compiled

        layer = next(l for l, rects in compiled_tiny.sets.items() if len(rects) > 1)
        # gap: drop one set
        gapped = {**compiled_tiny.sets, layer: compiled_tiny.sets[layer][1:]}
        report = verify_compiled(
            dataclasses.replace(compiled_tiny, sets=gapped),
            rules=("sets.partition",),
        )
        assert any("uncovered" in d.message for d in report.by_rule("sets.partition"))
        # overlap: duplicate one set
        doubled = {
            **compiled_tiny.sets,
            layer: list(compiled_tiny.sets[layer]) + [compiled_tiny.sets[layer][0]],
        }
        report = verify_compiled(
            dataclasses.replace(compiled_tiny, sets=doubled),
            rules=("sets.partition",),
        )
        assert any("overlap" in d.message for d in report.by_rule("sets.partition"))


# ---------------------------------------------------------------------------
# plain-string and raising graph checks
# ---------------------------------------------------------------------------


class TestShims:
    def test_validate_graph_message_parity(self):
        g = Graph("empty")
        g.add(Identity("a", []))
        issues = graph_issues(g)
        assert sorted(issues) == sorted(d.message for d in verify_graph(g).errors)
        assert any("no Input nodes" in issue for issue in issues)

    def test_check_graph_raises(self):
        with pytest.raises(GraphError, match="failed validation"):
            assert_graph(Graph("empty"))

    def test_assert_graph_no_warning(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert_graph(tiny_graph())  # the supported path is warning-free
