"""Unit tests for the overload-resilience layer.

Everything here runs on injected clocks and hand-fed observations, so
each piece of the machinery — admission control, the degradation
ladder, the circuit breaker, the guarded spill sink — is exercised
deterministically.  The end-to-end surge behaviour lives in
``test_surge.py`` (the chaos suite).
"""

from __future__ import annotations

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import ConfigurationError, StorageError
from repro.reliability.overload import (REDUCED_CANDIDATE_CAP, Admission,
                                        AdmissionController, CircuitBreaker,
                                        DegradationLadder, GuardedSink,
                                        HealthState, OverloadConfig,
                                        OverloadController)
from tests.conftest import make_message


class FakeClock:
    """A settable monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestOverloadConfig:
    def test_defaults_are_valid(self):
        OverloadConfig()

    @pytest.mark.parametrize("kwargs", [
        {"rate_limit": 0.0},
        {"rate_limit": -1.0},
        {"burst": 0},
        {"max_queue": -1},
        {"latency_target": 0.0},
        {"burst": -1},
        {"latency_target": -1.0},
        {"escalate_after": -1},
        {"recover_after": -1},
        {"escalate_after": 0},
        {"recover_after": 0},
        {"max_queue": -5},
        {"breaker_reset_after": -0.5},
        {"breaker_failures": -1},
        {"breaker_failures": 0},
        {"breaker_reset_after": -1.0},
    ])
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OverloadConfig(**kwargs)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def msg(self, i: int):
        return make_message(i, f"hello #topic{i}", hours=i * 0.01)

    def test_unlimited_rate_admits_everything(self):
        ctl = AdmissionController(OverloadConfig(rate_limit=None))
        for i in range(50):
            assert ctl.offer(self.msg(i), float(i)) is Admission.ADMITTED
        assert ctl.stats.admitted == 50
        assert ctl.queue_depth == 0
        assert ctl.stats.reconciles(ctl.queue_depth)

    def test_burst_is_absorbed_then_deferred(self):
        ctl = AdmissionController(
            OverloadConfig(rate_limit=1.0, burst=3, max_queue=10))
        # All arrivals at t=0: the bucket holds exactly `burst` tokens.
        verdicts = [ctl.offer(self.msg(i), 0.0) for i in range(5)]
        assert verdicts == [Admission.ADMITTED] * 3 + [Admission.DEFERRED] * 2
        assert ctl.queue_depth == 2

    def test_queue_overflow_drops(self):
        ctl = AdmissionController(
            OverloadConfig(rate_limit=1.0, burst=1, max_queue=2))
        verdicts = [ctl.offer(self.msg(i), 0.0) for i in range(5)]
        assert verdicts == [Admission.ADMITTED, Admission.DEFERRED,
                            Admission.DEFERRED, Admission.DROPPED,
                            Admission.DROPPED]
        assert ctl.stats.dropped_queue_full == 2
        assert ctl.stats.reconciles(ctl.queue_depth)

    def test_release_respects_accrued_tokens(self):
        ctl = AdmissionController(
            OverloadConfig(rate_limit=1.0, burst=1, max_queue=10))
        for i in range(4):
            ctl.offer(self.msg(i), 0.0)   # 1 admitted, 3 deferred
        assert ctl.release(0.5) == []     # only half a token accrued
        # The bucket caps at burst=1, so even a long gap releases one.
        assert [m.msg_id for m in ctl.release(9.0)] == [1]
        assert [m.msg_id for m in ctl.release(10.0)] == [2]
        assert ctl.stats.released == 2
        assert ctl.stats.reconciles(ctl.queue_depth)

    def test_nothing_overtakes_the_queue(self):
        ctl = AdmissionController(
            OverloadConfig(rate_limit=1.0, burst=1, max_queue=10))
        ctl.offer(self.msg(0), 0.0)                       # admitted
        ctl.offer(self.msg(1), 0.0)                       # deferred
        # Tokens have accrued, but the queue is non-empty: the new
        # arrival must defer behind msg 1, not steal its token.
        assert ctl.offer(self.msg(2), 5.0) is Admission.DEFERRED
        assert [m.msg_id for m in ctl.release(5.0)] == [1]
        assert [m.msg_id for m in ctl.release(6.0)] == [2]

    def test_shed_only_drops_and_counts(self):
        ctl = AdmissionController(OverloadConfig(rate_limit=None))
        assert ctl.offer(self.msg(0), 0.0,
                         shed_only=True) is Admission.DROPPED
        assert ctl.stats.dropped_shed_only == 1
        assert ctl.stats.reconciles(ctl.queue_depth)

    def test_drain_empties_the_backlog(self):
        ctl = AdmissionController(
            OverloadConfig(rate_limit=1.0, burst=1, max_queue=10))
        for i in range(4):
            ctl.offer(self.msg(i), 0.0)
        drained = ctl.drain()
        assert [m.msg_id for m in drained] == [1, 2, 3]
        assert ctl.queue_depth == 0
        assert ctl.stats.reconciles(0)

    def test_accounting_conservation_across_mixed_traffic(self):
        ctl = AdmissionController(
            OverloadConfig(rate_limit=2.0, burst=2, max_queue=3))
        for i in range(40):
            ctl.offer(self.msg(i), i * 0.1, shed_only=(i % 7 == 0))
            if i % 3 == 0:
                ctl.release(i * 0.1)
        stats = ctl.stats
        assert stats.offered == 40
        assert stats.reconciles(ctl.queue_depth)
        assert (stats.admitted + stats.deferred + stats.dropped
                == stats.offered)


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------


def ladder(**kwargs) -> DegradationLadder:
    kwargs.setdefault("latency_target", 0.010)
    kwargs.setdefault("escalate_after", 3)
    kwargs.setdefault("recover_after", 4)
    return DegradationLadder(OverloadConfig(**kwargs))


class TestDegradationLadder:
    def test_starts_normal_and_idle(self):
        lad = ladder()
        assert lad.state is HealthState.NORMAL
        assert lad.observe(queue_fraction=0.0) is HealthState.NORMAL

    def test_single_spike_does_not_escalate(self):
        lad = ladder()
        lad.note_latency(1.0)  # EWMA jumps far above target
        assert lad.observe(queue_fraction=0.0) is HealthState.NORMAL
        assert lad.observe(queue_fraction=0.0) is HealthState.NORMAL

    def test_streak_escalates_one_rung_at_a_time(self):
        lad = ladder()
        lad.note_latency(1.0)
        states = [lad.observe(queue_fraction=0.0) for _ in range(6)]
        assert states == [HealthState.NORMAL, HealthState.NORMAL,
                          HealthState.REDUCED, HealthState.REDUCED,
                          HealthState.REDUCED, HealthState.SKELETON]

    def test_escalates_to_shed_only_and_stops(self):
        lad = ladder(escalate_after=1)
        lad.note_latency(1.0)
        states = [lad.observe(queue_fraction=0.0) for _ in range(5)]
        assert states[-1] is HealthState.SHED_ONLY
        # Further overload cannot move past the last rung.
        assert lad.observe(queue_fraction=0.0) is HealthState.SHED_ONLY

    def test_recovery_needs_a_longer_streak(self):
        lad = ladder(escalate_after=1, recover_after=4)
        lad.note_latency(1.0)
        lad.observe(queue_fraction=0.0)
        assert lad.state is HealthState.REDUCED
        lad.latency_ewma = 0.0  # load vanishes
        states = [lad.observe(queue_fraction=0.0) for _ in range(4)]
        assert states == [HealthState.REDUCED] * 3 + [HealthState.NORMAL]

    def test_dead_band_freezes_both_streaks(self):
        # RECOVER_PRESSURE=0.7: pressure 0.85 is neither overloaded nor
        # healthy, so a mid-band observation must not advance recovery.
        lad = ladder(escalate_after=1, recover_after=2)
        lad.note_latency(1.0)
        lad.observe(queue_fraction=0.0)
        assert lad.state is HealthState.REDUCED
        lad.latency_ewma = 0.0085  # pressure 0.85: dead band
        for _ in range(10):
            assert lad.observe(queue_fraction=0.0) is HealthState.REDUCED
        lad.latency_ewma = 0.0     # now genuinely healthy
        lad.observe(queue_fraction=0.0)
        assert lad.observe(queue_fraction=0.0) is HealthState.NORMAL

    def test_queue_pressure_signal(self):
        lad = ladder()  # QUEUE_HIGH_FRACTION=0.5
        value, signal = lad.pressure(queue_fraction=0.6)
        assert signal == "queue"
        assert value == pytest.approx(1.2)

    def test_transitions_are_recorded(self):
        lad = ladder(escalate_after=1, recover_after=1)
        lad.note_latency(1.0)
        lad.observe(queue_fraction=0.0)
        lad.latency_ewma = 0.0
        lad.observe(queue_fraction=0.0)
        moves = [(t.previous, t.state) for t in lad.transitions]
        assert moves == [(HealthState.NORMAL, HealthState.REDUCED),
                         (HealthState.REDUCED, HealthState.NORMAL)]
        assert lad.transitions[0].signal == "latency"


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def breaker(self, clock, **kwargs) -> CircuitBreaker:
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_after", 10.0)
        return CircuitBreaker(clock=clock, **kwargs)

    def test_stays_closed_below_threshold(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_half_open_after_reset_period(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()          # the single probe
        assert not breaker.allow()      # no second probe

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()        # one failed probe is enough
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2


# ---------------------------------------------------------------------------
# Guarded spill sink
# ---------------------------------------------------------------------------


class FlakySink:
    """A BundleSink whose append fails while ``sick`` is set."""

    def __init__(self) -> None:
        self.sick = False
        self.appended: list[int] = []

    def append(self, bundle) -> None:
        if self.sick:
            raise StorageError("injected sick disk")
        self.appended.append(bundle.bundle_id)


def make_bundle(bundle_id: int):
    from repro.core.bundle import Bundle
    bundle = Bundle(bundle_id)
    bundle.insert(make_message(bundle_id, f"spill me #b{bundle_id}"),
                  frozenset({"spill"}))
    return bundle


class TestGuardedSink:
    def build(self, clock):
        sink = FlakySink()
        breaker = CircuitBreaker(failure_threshold=2, reset_after=10.0,
                                 clock=clock)
        return sink, GuardedSink(sink, breaker)

    def test_healthy_disk_passes_through(self):
        sink, guarded = self.build(FakeClock())
        guarded.append(make_bundle(1))
        assert sink.appended == [1]
        assert guarded.spilled == 1
        assert guarded.parked_count == 0

    def test_failures_park_instead_of_raising(self):
        sink, guarded = self.build(FakeClock())
        sink.sick = True
        for i in range(5):
            guarded.append(make_bundle(i))   # never raises
        assert guarded.parked_count == 5
        assert guarded.spilled == 0
        # After the threshold the breaker stopped even attempting.
        assert guarded.breaker.state == CircuitBreaker.OPEN

    def test_recovery_flushes_parked_backlog(self):
        clock = FakeClock()
        sink, guarded = self.build(clock)
        sink.sick = True
        for i in range(4):
            guarded.append(make_bundle(i))
        sink.sick = False
        clock.advance(11.0)                  # breaker goes half-open
        guarded.append(make_bundle(99))      # successful probe
        assert guarded.parked_count == 0
        assert guarded.flushed == 4
        # Probe first, then the backlog oldest-first.
        assert sink.appended == [99, 0, 1, 2, 3]
        assert guarded.breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reparks_and_reopens(self):
        clock = FakeClock()
        sink, guarded = self.build(clock)
        sink.sick = True
        for i in range(3):
            guarded.append(make_bundle(i))
        clock.advance(11.0)
        guarded.append(make_bundle(99))      # probe fails, parks
        assert guarded.parked_count == 4
        assert guarded.breaker.state == CircuitBreaker.OPEN


# ---------------------------------------------------------------------------
# Controller façade + engine knobs
# ---------------------------------------------------------------------------


class TestOverloadController:
    def engine(self) -> ProvenanceIndexer:
        return ProvenanceIndexer(IndexerConfig.partial_index(pool_size=20))

    def test_attach_wraps_store_once(self, tmp_path):
        """The supervisor builds the one GuardedSink, on the
        controller's breaker; the controller adopts it."""
        from repro.reliability.supervisor import ResilientIndexer
        from repro.storage.wal import JournaledIndexer, MessageJournal

        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=20),
                                   store=FlakySink())
        ctl = OverloadController(OverloadConfig(), clock=FakeClock())
        journaled = JournaledIndexer(engine,
                                     MessageJournal(tmp_path / "ingest.wal"))
        ResilientIndexer(journaled, overload=ctl)
        assert isinstance(engine.store, GuardedSink)
        assert ctl.guarded is engine.store
        assert engine.store.breaker is ctl.breaker
        guard = engine.store
        ResilientIndexer(journaled, overload=ctl)   # idempotent
        ctl.attach(engine)
        assert engine.store is guard is ctl.guarded
        journaled.close()

    def test_apply_mode_sets_engine_knobs(self):
        engine = self.engine()
        ctl = OverloadController(OverloadConfig(), clock=FakeClock())
        ctl.attach(engine)
        ctl.ladder.state = HealthState.REDUCED
        ctl.apply_mode(engine)
        assert engine.candidate_cap == REDUCED_CANDIDATE_CAP
        assert engine.skeleton_matching is False
        ctl.ladder.state = HealthState.SKELETON
        ctl.apply_mode(engine)
        assert engine.skeleton_matching is True
        ctl.ladder.state = HealthState.NORMAL
        ctl.apply_mode(engine)
        assert engine.candidate_cap is None
        assert engine.skeleton_matching is False

    def test_health_report_reconciles_and_renders(self):
        engine = self.engine()
        ctl = OverloadController(
            OverloadConfig(rate_limit=1.0, burst=1, max_queue=2,
                           escalate_after=99),
            clock=FakeClock())
        ctl.attach(engine)
        for i in range(5):
            ctl.offer(make_message(i, f"surge #s{i}"), 0.0)
        ctl.note_ingest(HealthState.NORMAL, 0.001)
        report = ctl.health_report()
        assert report.reconciles
        assert report.queue_depth == 2
        assert report.mode_ingests["normal"] == 1
        rendered = {name: value for name, value in report.rows()}
        assert rendered["health state"] == "normal"
        assert rendered["accounting"] == "reconciles"

    def test_wall_clock_latency_is_the_last_row(self):
        import dataclasses

        ctl = OverloadController(clock=FakeClock())
        ctl.attach(self.engine())
        report = ctl.health_report()
        slower = dataclasses.replace(report, latency_ewma=0.5)
        assert report.rows()[:-1] == slower.rows()[:-1]
        assert report.rows()[-1][0] == slower.rows()[-1][0] == "latency ewma"
        assert report.rows()[-1] != slower.rows()[-1]

    def test_offer_does_no_per_bundle_work(self, monkeypatch):
        """Admission runs per arrival, so it must not walk the pool
        (a per-arrival memory read was 80% of a hostile stream's wall)."""
        from repro.core.bundle import Bundle

        engine = ProvenanceIndexer(IndexerConfig.full_index())
        engine.ingest_batch([
            make_message(i, f"story {i % 200} #tag{i % 200}", user=f"u{i}",
                         hours=i * 0.001)
            for i in range(600)])
        assert len(engine.pool) == 200
        ctl = OverloadController(OverloadConfig(), clock=FakeClock())
        ctl.attach(engine)

        walked = []
        with monkeypatch.context() as patch:
            patch.setattr(
                Bundle, "approximate_memory_bytes",
                lambda bundle: walked.append(bundle.bundle_id) or 0)
            for i in range(500):
                ctl.offer(make_message(1000 + i, f"arrival {i}"), float(i))
        assert walked == []

    def test_dead_letter_latency_counts_without_mode_ingest(self):
        ctl = OverloadController(OverloadConfig(), clock=FakeClock())
        ctl.note_ingest(HealthState.NORMAL, 0.5, indexed=False)
        assert ctl.mode_ingests[HealthState.NORMAL] == 0
        assert ctl.ladder.latency_ewma > 0.0


class TestEngineDegradationKnobs:
    """The engine-side hooks the ladder drives."""

    def messages(self, count: int = 40):
        return [make_message(i, f"game at #stadium tonight crowd {i % 7}",
                             user=f"u{i % 9}", hours=i * 0.05)
                for i in range(count)]

    def test_candidate_cap_tightens_fan_in(self):
        capped = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=30))
        capped.candidate_cap = 1
        for message in self.messages():
            capped.ingest(message)
        assert capped.stats.messages_ingested == 40

    def test_skeleton_mode_skips_keyword_extraction(self):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=30))
        engine.skeleton_matching = True
        for message in self.messages(10)[:10]:
            engine.ingest(message)
        assert engine.stats.skeleton_ingests == 10
        # No keyword postings were registered anywhere.
        for bundle in engine.pool:
            assert not bundle.keyword_counts

    def test_skeleton_mode_still_matches_exact_indicants(self):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=30))
        engine.skeleton_matching = True
        first = make_message(0, "kickoff #bigmatch http://bit.ly/x")
        second = make_message(1, "watching too #bigmatch", hours=0.2)
        r0 = engine.ingest(first)
        r1 = engine.ingest(second)
        assert r1.bundle_id == r0.bundle_id

    def test_index_update_timer_is_attributed(self):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=30))
        for message in self.messages(10):
            engine.ingest(message)
        timers = engine.timers
        assert timers.index_update > 0.0
        assert timers.total == pytest.approx(
            timers.bundle_match + timers.message_placement
            + timers.index_update + timers.memory_refinement)
