"""Tests for the streaming quality monitor (Section VI-B, live)."""

from __future__ import annotations

import json
from unittest import mock

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.metrics import compare_edge_sets, ground_truth_edges
from repro.obs import (AuditLog, Observability, QualityMonitor, QualityRule)
from repro.obs import quality
from repro.stream.generator import StreamConfig, StreamGenerator
from tests.conftest import make_message


def generated_stream(count: int = 800, seed: int = 7):
    config = StreamConfig(
        seed=seed, days=count / 100_000.0, messages_per_day=100_000,
        user_count=max(count // 10, 50), events_per_day=240.0)
    return StreamGenerator(config).generate_list()[:count]


def monitored_engine(**quality_kwargs):
    obs = Observability()
    obs.quality = QualityMonitor(obs.registry, **quality_kwargs)
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=50),
                               obs=obs)
    return engine, obs.quality


class TestOfflineAgreement:
    """The live monitor and the offline evaluation cannot disagree."""

    def test_cumulative_equals_compare_edge_sets_on_full_replay(self):
        messages = generated_stream()
        engine, monitor = monitored_engine()
        for message in messages:
            engine.ingest(message)

        offline = compare_edge_sets(engine.edge_pairs(),
                                    ground_truth_edges(messages))
        live = monitor.cumulative()
        assert live == offline  # same frozen dataclass, field for field
        assert live.accuracy == offline.accuracy
        assert live.coverage == offline.coverage
        assert live.f1 == offline.f1
        assert monitor.observed == len(messages)
        # The replay exercised something real on both sides.
        assert offline.reference_size > 0
        assert offline.candidate_size > 0

    def test_agreement_holds_on_every_prefix(self):
        messages = generated_stream(count=300)
        engine, monitor = monitored_engine()
        for index, message in enumerate(messages):
            engine.ingest(message)
            if index % 50 == 49:
                offline = compare_edge_sets(
                    engine.edge_pairs(),
                    ground_truth_edges(messages[:index + 1]))
                assert monitor.cumulative() == offline

    def test_gauges_read_the_same_values(self):
        messages = generated_stream(count=400)
        engine, monitor = monitored_engine()
        for message in messages:
            engine.ingest(message)
        value = engine.obs.registry.value
        cumulative = monitor.cumulative()
        assert value("repro_quality_accuracy") == cumulative.accuracy
        assert value("repro_quality_return") == cumulative.coverage
        assert value("repro_quality_f1") == cumulative.f1
        assert value("repro_quality_matched") == cumulative.matched
        assert (value("repro_quality_reference")
                == cumulative.reference_size)
        windowed = monitor.windowed()
        assert (value("repro_quality_window_accuracy")
                == windowed.accuracy)
        assert value("repro_quality_window_return") == windowed.coverage


class TestWindowedView:
    @mock.patch.object(quality, "WINDOW", 4)
    def test_window_only_sees_recent_observations(self):
        monitor = QualityMonitor()
        # Four early misses, then four perfect hits: the cumulative
        # view remembers the misses, the window has forgotten them.
        for i in range(4):
            monitor._push((100 + i, 1), (100 + i, 99))  # wrong parent
        for i in range(4):
            monitor._push((200 + i, 2), (200 + i, 2))   # exact match
        assert monitor.windowed().accuracy == 1.0
        assert monitor.windowed().coverage == 1.0
        assert monitor.cumulative().accuracy == 0.5
        assert monitor.cumulative().coverage == 0.5

    def test_note_shed_costs_return_but_not_accuracy(self):
        monitor = QualityMonitor()
        message = make_message(5, "body", hours=0.0)
        object.__setattr__(message, "parent_id", 3)
        monitor.note_shed(message)
        view = monitor.cumulative()
        assert view.reference_size == 1
        assert view.candidate_size == 0
        assert view.coverage == 0.0

    def test_truthless_streams_keep_empty_set_conventions(self):
        monitor = QualityMonitor()
        engine, _ = None, None
        for i in range(5):
            monitor.observe(make_message(i, f"#t{i} body", hours=0.0),
                            None)
        view = monitor.cumulative()
        assert view.reference_size == 0
        assert view.accuracy == 1.0  # empty candidate vs empty reference
        assert view.coverage == 1.0


@mock.patch.multiple(quality, WINDOW=16, CHECK_EVERY=4, MIN_REFERENCE=4)
class TestThresholdRules:
    def degraded_monitor(self, audit=None, rung=2):
        rule = QualityRule(name="accu-floor", metric="accuracy",
                           min_value=0.8)
        return QualityMonitor(rules=(rule,), rung=lambda: rung,
                              audit=audit), rule

    def push_bad(self, monitor, count=8, start=0):
        for i in range(count):
            msg_id = 1000 + start + i
            monitor._push((msg_id, 1), (msg_id, 2))  # every edge wrong

    def push_good(self, monitor, count=8, start=0):
        for i in range(count):
            msg_id = 2000 + start + i
            monitor._push((msg_id, 7), (msg_id, 7))

    def test_alert_is_edge_triggered_once_per_excursion(self):
        monitor, rule = self.degraded_monitor()
        self.push_bad(monitor, count=16)
        assert len(monitor.alerts) == 1  # not one per check
        alert = monitor.alerts[0]
        assert alert["rule"] == "accu-floor"
        assert alert["metric"] == "accuracy"
        assert alert["value"] < rule.min_value
        assert alert["rung"] == 2

    def test_recovery_rearms_the_rule(self):
        monitor, _ = self.degraded_monitor()
        self.push_bad(monitor, count=8)
        assert len(monitor.alerts) == 1
        self.push_good(monitor, count=24)   # window goes clean
        self.push_bad(monitor, count=24, start=100)
        assert len(monitor.alerts) == 2     # second excursion, second alert

    def test_only_degraded_rules_stay_quiet_on_normal_rung(self):
        monitor, _ = self.degraded_monitor(rung=0)
        self.push_bad(monitor, count=32)
        assert monitor.alerts == []

    @mock.patch.object(quality, "ONLY_DEGRADED", False)
    def test_always_on_rule_fires_regardless_of_rung(self):
        monitor, _ = self.degraded_monitor(rung=0)
        self.push_bad(monitor, count=8)
        assert len(monitor.alerts) == 1

    def test_min_reference_gates_early_noise(self):
        monitor, _ = self.degraded_monitor()
        self.push_bad(monitor, count=3)  # below min_reference=4... but
        # check_every=4 means no check ran yet either; push one more
        # with the reference still tiny after the window view.
        assert monitor.alerts == []

    def test_alert_lands_in_the_audit_stream(self, tmp_path):
        sink = tmp_path / "audit.jsonl"
        audit = AuditLog(sink=sink)
        monitor, rule = self.degraded_monitor(audit=audit)
        self.push_bad(monitor, count=8)
        audit.close()
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        alerts = [line for line in lines if line["type"] == "alert"]
        assert len(alerts) == 1
        payload = alerts[0]
        assert payload["rule"] == rule.name
        assert payload["threshold"] == rule.min_value
        assert payload["seq"] == 0
        assert monitor.alerts == alerts

    def test_alert_counter_is_exported_per_rule(self):
        monitor, rule = self.degraded_monitor()
        self.push_bad(monitor, count=8)
        assert monitor.registry.value(
            "repro_quality_alerts_total", labels={"rule": rule.name}) == 1
        assert monitor.registry.value("repro_quality_alerts") == 1
