"""Observability layer: metrics registry, span tracer, reports.

The load-bearing contracts:

* disabled observability is *invisible* — simulation, serving and cache
  results are bit-identical with the registry off and on;
* traces are deterministic — two identical runs export byte-identical
  Chrome JSON, and every timestamp comes from a simulated clock;
* the traced interpreter is bit-identical to the untraced fast path,
  and trace exports match digests pinned when tracing moved onto it.
"""

import hashlib
import json

import pytest

from repro.arch import GENERATIONS, TPUV4I
from repro.compiler import compile_model
from repro.engine.cache import EvalCache
from repro.engine.lowered import lowered_program
from repro.engine.modules import built_module
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    build_trace,
    collecting_metrics,
    diff_snapshots,
    metrics,
    profile_result,
    render_snapshot,
    tier_report,
)
from repro.sim import TensorCoreSim
from repro.sim.lowered import FastReplay
from repro.workloads import PRODUCTION_APPS, RequestGenerator, app_by_name

#: sha256 of ``build_trace(app, chip, serve=False).tracer.export_json()``,
#: captured from the lowered-IR traced replay that the interpreter's
#: tracing replaced. The exports must stay byte-identical.
TRACE_DIGESTS = {
    ("mlp0", "TPUv1"): (
        "16c55568699dc8136ee952ec10bbf547cb5fb6307874f589253ad6ecf00f51e4"),
    ("mlp0", "TPUv2"): (
        "faba5ab28603a062963e8effef519b2ec6638832968f7be50094eb177868faf6"),
    ("mlp0", "TPUv3"): (
        "2dd3ba17826da5c051a22ffdfd2e44a85ada06181b1c293ee46c23328bb32f99"),
    ("mlp0", "TPUv4i"): (
        "cc5f29cdf6725032a88ab238af800010936a76126b30161e897666b78b3f5e4a"),
    ("mlp1", "TPUv1"): (
        "7ff665223ac65646756ef14b0ec72529a93690a444165b135ab769f08a334ff4"),
    ("mlp1", "TPUv2"): (
        "2f8577c619714ba1e89c23a28c7af6e81e4d3bbcf1f4257cf303d3eff294a4df"),
    ("mlp1", "TPUv3"): (
        "03f489f2ea4b150974667ec573667dd5e3ba43082383672989457568e6eb6ad1"),
    ("mlp1", "TPUv4i"): (
        "07b34b7a70d8178cb482b9cf32f782dce48093759493eb05cea21061665021be"),
    ("cnn0", "TPUv1"): (
        "c5357586ebe7fba46641635aafd6a5e617d453074d6c279ecc16b4ba328a7292"),
    ("cnn0", "TPUv2"): (
        "4eab03a9441bcf72c4c998d8f06927bbdbda919ffd020bcb8264075377df90f2"),
    ("cnn0", "TPUv3"): (
        "c418582486c946ceb4abb3542b613d2725be3841cd03b2093e6cce61416336e5"),
    ("cnn0", "TPUv4i"): (
        "69f49b15a405cf0c115662717d30f861dd00d104d6bda992f16875dfa5856224"),
    ("cnn1", "TPUv1"): (
        "ed963786424f7c6cb865f48d360555d13cbbbd9b19343846fbcd915ba81fc4a7"),
    ("cnn1", "TPUv2"): (
        "b1b0ce6e25d7fe8de48c3f73a9981af0914514a3f801b0df52fb525fbc0443f8"),
    ("cnn1", "TPUv3"): (
        "ce482587fcf28b251a8e6e81a814c1a18352c48edfb87ee6181faef091897cea"),
    ("cnn1", "TPUv4i"): (
        "d31a0dd4eeb487da17aa4dfd9070f28ce1886048185de29234c475db5a6f267e"),
    ("rnn0", "TPUv1"): (
        "aa5c2a372aa7c0792e7ff5b6c9eb2c36d79c3a926f10d86fa3cad4a8b17323d8"),
    ("rnn0", "TPUv2"): (
        "fdd7a6d9acd2872375c2fead887e4bf47b0e375a05be25e94a4a9d7dee20d27f"),
    ("rnn0", "TPUv3"): (
        "666ff5692ae50827ad7c45fef2321676b21c00809f09cf32a12aa26ed985295f"),
    ("rnn0", "TPUv4i"): (
        "c119c3bd9310c1e0b2622dc875f6bf7f40e3fe2a9f2f489dafd8064f95450fda"),
    ("rnn1", "TPUv1"): (
        "3e0b27520d1b4f495994db7082f5a7772dc72eab96a1f73c928dae8898fded85"),
    ("rnn1", "TPUv2"): (
        "47c47ebd20beeda5ed6cbd0c855e6995756ed562ff0dc2aceacd3b99a60cfef4"),
    ("rnn1", "TPUv3"): (
        "d97579354953e9eb76b752b781f7b7ba9c0c1b17916c011cced594d465e26a50"),
    ("rnn1", "TPUv4i"): (
        "6e6c039d77e2f38a90b2389cf6eeeeed1e5ed579dff270cee205f4fade3cba44"),
    ("bert0", "TPUv1"): (
        "9a6840d910f648c5fc231327858df859f5e2b5db1039d51a80716e420fe6be93"),
    ("bert0", "TPUv2"): (
        "b82019a52d031b440fa74f8a18bfcbd767f80eef452eaf47b7f3a01eacac1437"),
    ("bert0", "TPUv3"): (
        "2381989eac079e53605a029c7a1d490984028efbe290837bd354d538c5efef2b"),
    ("bert0", "TPUv4i"): (
        "cf7b568f8e283abac7f7ab13921b3aa6be44a375109aee2e55619aa6d2b2c8b5"),
    ("bert1", "TPUv1"): (
        "e5cb09718f36948a14116da58a991052a4415deb99f716f49df6e190b68db4b2"),
    ("bert1", "TPUv2"): (
        "c80669c0dc10cb5b20877b393801a1e103958f95bf5c60da4728b66b7a5e0147"),
    ("bert1", "TPUv3"): (
        "3a67f2bd0f6d763d16cb20aada186e1ae1c0ff3c8b122df0db6300bb0a71d0dd"),
    ("bert1", "TPUv4i"): (
        "1986b9b01b81a01053679e16781da13fe42fd723505649f5a976f4748f737dc8"),
}

#: The same for ``repro trace resnet50 tpuv4i`` (cnn0, serve phase on).
SERVE_TRACE_DIGEST = (
    "255d037735e81cfbd7b5dde221a7e138e70e2bcbf8d7551201837201e2a70c60")


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("c")
        reg.count("c", 2)
        reg.set_gauge("g", 7.5)
        for value in (0.5, 3.0, 100.0):
            reg.observe("h", value)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 3
        assert snap["g"]["value"] == 7.5
        assert snap["h"]["count"] == 3
        assert snap["h"]["min"] == 0.5 and snap["h"]["max"] == 100.0

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("c")
        reg.observe("h", 1.0)
        reg.set_gauge("g", 1.0)
        with reg.timer("t"):
            pass
        assert reg.snapshot() == {}
        assert reg.op_count == 0

    def test_histogram_bucketing(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("h", (1, 10, 100))
        for value in (0.5, 5, 50, 500):
            hist.observe(value)
        snap = hist.as_dict()
        # One observation per bucket: <=1, <=10, <=100, overflow.
        assert list(snap["buckets"].values()) == [1, 1, 1, 1]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry(enabled=True).histogram("h", (1, 1, 2))
        with pytest.raises(ValueError):
            MetricsRegistry(enabled=True).histogram("h2", ())

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_timer_accumulates_wall_time(self):
        reg = MetricsRegistry(enabled=True)
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        assert reg.snapshot()["t"]["value"] >= 0.0

    def test_collecting_metrics_restores_previous(self):
        before = metrics()
        with collecting_metrics() as reg:
            assert metrics() is reg
            assert reg.enabled
            reg.count("inside")
        assert metrics() is before
        assert not metrics().enabled

    def test_diff_snapshots(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("c", 5)
        reg.set_gauge("g", 1.0)
        before = reg.snapshot()
        reg.count("c", 3)
        reg.set_gauge("g", 9.0)
        delta = diff_snapshots(reg.snapshot(), before)
        assert delta["c"]["value"] == 3
        assert delta["g"]["value"] == 9.0  # gauges are levels, not flows

    def test_render_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("c", 2)
        reg.observe("h", 1.0)
        text = render_snapshot(reg.snapshot())
        assert "c" in text and "h" in text


class TestDisabledPathIdentity:
    """With the registry off (the default), results never change."""

    def _serve(self, point):
        from repro.serving import BatchPolicy, ServingSimulator, Slo

        spec = app_by_name("cnn0")
        server = ServingSimulator(point, spec,
                                  BatchPolicy(max_batch=4, max_wait_s=0.001),
                                  Slo(spec.slo_ms / 1e3))
        requests = RequestGenerator(3).poisson(spec.name, 2000.0, 0.05)
        return server.simulate(requests)

    def test_serving_stats_identical_on_off(self, v4i_point):
        assert not metrics().enabled
        baseline = self._serve(v4i_point)
        with collecting_metrics() as reg:
            instrumented = self._serve(v4i_point)
            assert reg.op_count > 0  # the instrumentation did fire
        assert instrumented == baseline

    def test_design_point_run_identical_on_off(self):
        from repro.core import DesignPoint

        spec = app_by_name("mlp0")
        off = DesignPoint(TPUV4I, cache=EvalCache()).run(spec, 4)
        with collecting_metrics():
            on = DesignPoint(TPUV4I, cache=EvalCache()).run(spec, 4)
        assert on.cycles == off.cycles
        assert on.counters == off.counters
        assert on.report == off.report

    def test_fault_schedule_identical_on_off(self):
        from repro.faults import FaultModel

        model = FaultModel(seed=5, core_mtbf_s=0.2, slowdown_mtbf_s=0.4)
        off = model.schedule(4, 2.0)
        with collecting_metrics() as reg:
            on = model.schedule(4, 2.0)
            snap = reg.snapshot()
        assert on == off
        assert snap["faults.schedules"]["value"] == 1
        assert snap["faults.core_outages"]["value"] == len(
            [d for d in off.down]) - snap["faults.chip_outages"]["value"] * 4

    def test_cache_counters_report(self):
        from repro.core import DesignPoint

        spec = app_by_name("mlp0")
        with collecting_metrics() as reg:
            point = DesignPoint(TPUV4I, cache=EvalCache())
            point.run(spec, 4)
            DesignPoint(TPUV4I, cache=point._engine_cache()).run(spec, 4)
            snap = reg.snapshot()
        assert snap["engine.cache.misses"]["value"] == 1
        assert snap["engine.cache.hits"]["value"] == 1
        assert snap["tier.compile_s"]["value"] > 0
        assert snap["tier.sim_s"]["value"] > 0


class TestTracedReplay:
    """Tracing through the reference interpreter."""

    def _traced(self, app="mlp0", batch=4):
        spec = app_by_name(app)
        program = compile_model(built_module(spec, batch), TPUV4I).program
        tracer = SpanTracer()
        result = TensorCoreSim(TPUV4I).run_interpreted(program,
                                                       tracer=tracer)
        return program, result, tracer

    def test_bit_identical_to_fast_replay(self):
        program, traced, tracer = self._traced()
        reference = FastReplay(TPUV4I).run(lowered_program(program, TPUV4I))
        assert traced.cycles == reference.cycles
        assert traced.counters == reference.counters
        assert traced.report == reference.report
        assert len(tracer.spans) > 0

    def test_spans_cover_simulated_time(self):
        _, result, tracer = self._traced()
        horizon_us = result.seconds * 1e6
        for span in tracer.spans:
            assert span.ts_us >= 0.0
            assert span.end_us <= horizon_us * (1 + 1e-9)

    def test_matches_interpreter_trace_spans(self):
        """Every span has its unit's name, category, track and args."""
        _, result, tracer = self._traced(app="cnn0")
        layout = {
            "mxm": ("compute", "mxu", ("macs",)),
            "mxm.fixed": ("compute", "mxu", ()),
            "vector": ("compute", "vpu", ("alu_ops",)),
            "dma": ("memory", None, ("bytes",)),
            "sync.wait": ("sync", "sync", ("flag",)),
        }
        macs = 0
        for span in tracer.spans:
            cat, track, keys = layout[span.name]
            assert span.cat == cat and span.group == "core"
            if track is None:
                assert span.track.startswith("dma.")
            else:
                assert span.track == track
            assert tuple(key for key, _ in span.args) == keys
            macs += dict(span.args).get("macs", 0)
        assert macs == result.counters.macs
        assert {s.name for s in tracer.spans} >= {"mxm", "dma", "vector"}


class TestTraceDigests:
    @pytest.mark.parametrize("spec", PRODUCTION_APPS, ids=lambda s: s.name)
    def test_core_trace_export_unchanged(self, spec):
        for chip in GENERATIONS:
            export = build_trace(spec, chip, serve=False).tracer.export_json()
            digest = hashlib.sha256(export.encode()).hexdigest()
            assert digest == TRACE_DIGESTS[(spec.name, chip.name)], chip.name

    def test_serve_trace_export_unchanged(self):
        export = build_trace(app_by_name("cnn0"), TPUV4I).tracer.export_json()
        digest = hashlib.sha256(export.encode()).hexdigest()
        assert digest == SERVE_TRACE_DIGEST


class TestSpanTracer:
    def test_capacity_truncates_silently(self):
        tracer = SpanTracer(capacity=2)
        for index in range(5):
            tracer.record(f"s{index}", "cat", "g", "t", float(index), 1.0)
        assert len(tracer.spans) == 2
        assert tracer.truncated

    def test_chrome_trace_structure(self):
        tracer = SpanTracer()
        tracer.record("a", "compute", "core", "mxu", 0.0, 2.0,
                      (("cycles", 10),))
        tracer.record("b", "compute", "core", "vpu", 2.0, 1.0)
        trace = tracer.chrome_trace()
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"core", "mxu", "vpu"}
        assert len(complete) == 2
        assert complete[0]["args"] == {"cycles": 10}
        # Distinct tracks get distinct thread ids inside one process.
        assert complete[0]["pid"] == complete[1]["pid"]
        assert complete[0]["tid"] != complete[1]["tid"]

    def test_export_is_byte_stable(self):
        def build():
            tracer = SpanTracer()
            tracer.record("a", "c", "g", "t", 0.0, 1.0, (("k", "v"),))
            return tracer.export_json()

        first, second = build(), build()
        assert first == second
        assert json.loads(first)["otherData"]["truncated"] is False


class TestBuildTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        return build_trace(app_by_name("mlp0"), TPUV4I, batch=4,
                           serve=True, serve_duration_s=0.05)

    def test_export_deterministic(self, traced):
        again = build_trace(app_by_name("mlp0"), TPUV4I, batch=4,
                            serve=True, serve_duration_s=0.05)
        assert traced.tracer.export_json() == again.tracer.export_json()

    def test_all_groups_present(self, traced):
        groups = {span.group for span in traced.tracer.spans}
        assert groups == {"pipeline", "core", "serving"}

    def test_pipeline_phases_ordered(self, traced):
        phases = traced.tracer.by_group("pipeline")
        names = [s.name for s in phases]
        assert names == ["compile", "lower", "replay", "serve"]
        for earlier, later in zip(phases, phases[1:]):
            assert later.ts_us == pytest.approx(earlier.end_us)

    def test_summary_matches_result(self, traced):
        summary = traced.summary_dict()
        assert summary["cycles"] == traced.result.cycles
        assert summary["spans"] == len(traced.tracer.spans)

    def test_serve_spans_on_core_tracks(self, traced):
        serving = traced.tracer.by_group("serving")
        assert serving
        assert all(s.track.startswith("core") for s in serving)


class TestReports:
    def test_profile_result_fractions(self, v4i_point):
        result = v4i_point.run(app_by_name("mlp0"), 4)
        profile = profile_result(result)
        assert profile.cycles == result.cycles
        assert 0.0 < profile.mxu_fraction <= 1.0
        assert 0.0 <= profile.other_fraction <= 1.0
        assert "mxu busy" in profile.render()

    def test_tier_report_attributes_time(self):
        snapshot = {
            "tier.compile_s": {"type": "counter", "value": 3.0},
            "tier.sim_s": {"type": "counter", "value": 1.0},
            "engine.cache.hits": {"type": "counter", "value": 2},
            "engine.cache.disk_hits": {"type": "counter", "value": 0},
            "engine.cache.misses": {"type": "counter", "value": 2},
        }
        text = tier_report(snapshot)
        assert "75.0%" in text
        assert "50% hit rate" in text

    def test_tier_report_empty(self):
        assert "nothing attributed" in tier_report({})
