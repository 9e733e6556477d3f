"""Overload resilience: admission control, degradation ladder, breaker.

A micro-blog indexer that falls over under a flash crowd is worse than
one that degrades: the paper's whole point (Sec. V) is keeping provenance
maintenance cheap enough to sustain stream rates, and when a surge outruns
the hardware the system must *choose* what to give up.  This module makes
that choice explicit with four cooperating pieces:

* :class:`AdmissionController` — a token-bucket rate limiter plus a
  bounded backlog queue in front of ingestion, with full accounting of
  everything admitted, deferred or dropped (no silent loss);
* :class:`DegradationLadder` — a health state machine
  ``NORMAL → REDUCED → SKELETON → SHED_ONLY`` driven by observed ingest
  latency (EWMA over :class:`~repro.core.engine.StageTimers` wall time)
  and backlog depth.  REDUCED caps the candidate-bundle fan-in of
  Algorithm 1 at :data:`REDUCED_CANDIDATE_CAP` (and tightens an
  attached ingest guard's thresholds);
  SKELETON skips keyword-similarity scoring entirely and matches on the
  exact indicants only (RT ancestry / URL / hashtag — the cheap Eq. 1
  components); SHED_ONLY stops admitting new messages while the backlog
  drains.  Escalation and recovery both require a *streak* of
  consistent observations (hysteresis), so the ladder cannot flap on a
  single noisy sample;
* :class:`CircuitBreaker` + :class:`GuardedSink` — spill I/O to the
  on-disk bundle store trips open after consecutive failures, after
  which evicted bundles are *parked in memory* instead of stalling
  ingest on a sick disk; one half-open probe resumes spilling (and
  flushes the parked backlog) once the disk recovers;
* :class:`OverloadController` — the façade the
  :class:`~repro.reliability.supervisor.ResilientIndexer` owns: it wires
  the pieces to an engine, applies the current mode's knobs before each
  ingest, feeds the ladder after it, and renders ``repro health``'s
  report.

Everything takes an injectable clock and explicit ``now`` values, so the
surge/chaos suite is fully deterministic.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.errors import ConfigurationError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bundle import Bundle
    from repro.core.engine import ProvenanceIndexer
    from repro.core.message import Message
    from repro.reliability.guard import IngestGuard

__all__ = [
    "Admission",
    "AdmissionController",
    "AdmissionStats",
    "CircuitBreaker",
    "DegradationLadder",
    "GuardedSink",
    "HealthReport",
    "HealthState",
    "OverloadConfig",
    "OverloadController",
    "Transition",
]


class HealthState(enum.IntEnum):
    """The degradation ladder, cheapest-to-run last."""

    NORMAL = 0      #: full Eq. 1 matching, no caps
    REDUCED = 1     #: candidate-bundle fan-in capped
    SKELETON = 2    #: exact indicants only — no keyword similarity
    SHED_ONLY = 3   #: new arrivals dropped; backlog drains

    @property
    def label(self) -> str:
        """Lower-case name for reports."""
        return self.name.lower()


class Admission(enum.Enum):
    """Verdict of the admission controller for one arrival."""

    ADMITTED = "admitted"
    DEFERRED = "deferred"
    DROPPED = "dropped"


@dataclass(frozen=True, slots=True)
class OverloadConfig:
    """Knobs of the load-regulation layer.

    Parameters
    ----------
    rate_limit / burst:
        Token-bucket admission: sustainable messages per second and the
        bucket capacity absorbing short spikes.  ``rate_limit=None``
        disables rate limiting (every arrival is admitted immediately
        and the queue stays empty).
    max_queue:
        Bound on the backlog of deferred messages; arrivals beyond it
        are dropped (and counted).
    latency_target:
        Per-message ingest wall-time budget in seconds; the EWMA of
        observed latencies is compared against it.
    escalate_after / recover_after:
        Consecutive overloaded / healthy observations required to move
        one rung up / down the ladder.
    breaker_failures / breaker_reset_after:
        Circuit breaker: consecutive spill failures that trip it open,
        and seconds before its one half-open probe.
    """

    rate_limit: "float | None" = None
    burst: int = 64
    max_queue: int = 512
    latency_target: float = 0.005
    escalate_after: int = 3
    recover_after: int = 8
    breaker_failures: int = 5
    breaker_reset_after: float = 30.0

    def __post_init__(self) -> None:
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ConfigurationError(
                f"rate_limit must be positive, got {self.rate_limit}")
        if self.burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")
        if self.max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {self.max_queue}")
        if self.latency_target <= 0:
            raise ConfigurationError(
                f"latency_target must be positive, got {self.latency_target}")
        if self.escalate_after < 1 or self.recover_after < 1:
            raise ConfigurationError(
                "escalate_after and recover_after must be >= 1")
        if self.breaker_failures < 1:
            raise ConfigurationError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}")
        if self.breaker_reset_after < 0:
            raise ConfigurationError(
                "breaker_reset_after must be >= 0, got "
                f"{self.breaker_reset_after}")


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class _TokenBucket:
    """Classic token bucket; ``rate=None`` means unlimited."""

    def __init__(self, rate: "float | None", capacity: int) -> None:
        self.rate = rate
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._last = None  # type: float | None

    def refill(self, now: float) -> None:
        if self.rate is None:
            return
        if self._last is None:
            self._last = now
            return
        elapsed = now - self._last
        if elapsed > 0:
            self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self._last = now

    def try_take(self, now: float) -> bool:
        if self.rate is None:
            return True
        self.refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(slots=True)
class AdmissionStats:
    """Every arrival ends up in exactly one of these buckets."""

    offered: int = 0
    admitted: int = 0             # passed straight through
    deferred: int = 0             # parked in the backlog queue
    released: int = 0             # later admitted from the backlog
    dropped_queue_full: int = 0
    dropped_shed_only: int = 0
    queue_peak: int = 0

    @property
    def dropped(self) -> int:
        """Total arrivals refused outright."""
        return self.dropped_queue_full + self.dropped_shed_only

    def reconciles(self, queue_depth: int) -> bool:
        """Conservation law: nothing vanished unaccounted."""
        return (self.offered
                == self.admitted + self.deferred + self.dropped
                and self.deferred == self.released + queue_depth)


class AdmissionController:
    """Token-bucket rate limiting with a bounded backlog queue.

    The controller never ingests anything itself: :meth:`offer` issues a
    verdict for one arrival, :meth:`release` hands back queued messages
    whose tokens have since accrued, and :meth:`drain` empties the
    backlog at end of stream.  Every path is counted in :attr:`stats`.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.bucket = _TokenBucket(config.rate_limit, config.burst)
        self.queue: "deque[Message]" = deque()
        self.stats = AdmissionStats()

    @property
    def queue_depth(self) -> int:
        """Messages currently parked in the backlog."""
        return len(self.queue)

    @property
    def queue_fraction(self) -> float:
        """Backlog fill level in [0, 1]."""
        if self.config.max_queue <= 0:
            return 0.0
        return len(self.queue) / self.config.max_queue

    def offer(self, message: "Message", now: float, *,
              shed_only: bool = False) -> Admission:
        """Issue a verdict for one arrival at time ``now``."""
        self.stats.offered += 1
        if shed_only:
            self.stats.dropped_shed_only += 1
            return Admission.DROPPED
        # The backlog keeps arrival order: nothing overtakes the queue.
        if not self.queue and self.bucket.try_take(now):
            self.stats.admitted += 1
            return Admission.ADMITTED
        if len(self.queue) < self.config.max_queue:
            self.queue.append(message)
            self.stats.deferred += 1
            self.stats.queue_peak = max(self.stats.queue_peak,
                                        len(self.queue))
            return Admission.DEFERRED
        self.stats.dropped_queue_full += 1
        return Admission.DROPPED

    def release(self, now: float) -> "list[Message]":
        """Queued messages whose tokens have accrued, oldest first."""
        released: "list[Message]" = []
        while self.queue and self.bucket.try_take(now):
            released.append(self.queue.popleft())
        self.stats.released += len(released)
        return released

    def drain(self) -> "list[Message]":
        """Empty the backlog unconditionally (end of stream)."""
        drained = list(self.queue)
        self.queue.clear()
        self.stats.released += len(drained)
        return drained


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------

#: Backlog fill fraction treated as full pressure (1.0 on the pressure
#: scale).
QUEUE_HIGH_FRACTION = 0.5
#: Hysteresis band: pressure must fall to this (not merely below 1.0)
#: to count as a healthy observation.
RECOVER_PRESSURE = 0.7
#: Smoothing factor of the latency EWMA.
EWMA_ALPHA = 0.2
#: Candidate-bundle fan-in cap applied from REDUCED mode onward.
REDUCED_CANDIDATE_CAP = 8


@dataclass(frozen=True, slots=True)
class Transition:
    """One ladder move, for the health report and the chaos tests."""

    observation: int
    previous: HealthState
    state: HealthState
    pressure: float
    signal: str


class DegradationLadder:
    """Hysteresis state machine over latency and backlog pressure.

    Pressure is the max of the normalised signals (1.0 = at the
    configured limit).  ``escalate_after`` consecutive observations at
    pressure ≥ 1.0 move one rung up; ``recover_after`` consecutive
    observations at or below :data:`RECOVER_PRESSURE` move one rung
    down.  The dead band between the two thresholds resets neither
    streak outright but counts toward neither, which is what keeps the
    ladder stable around the boundary.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.state = HealthState.NORMAL
        self.transitions: "list[Transition]" = []
        self.observations = 0
        self.latency_ewma = 0.0
        self.last_pressure = 0.0
        self.last_signal = "idle"
        self._overloaded_streak = 0
        self._healthy_streak = 0

    def note_latency(self, seconds: float) -> None:
        """Feed one observed per-message ingest latency into the EWMA."""
        self.latency_ewma += EWMA_ALPHA * (seconds - self.latency_ewma)

    def pressure(self, *, queue_fraction: float) -> tuple[float, str]:
        """Normalised pressure and the name of the dominant signal."""
        signals = {
            "latency": self.latency_ewma / self.config.latency_target,
            "queue": queue_fraction / QUEUE_HIGH_FRACTION,
        }
        signal = max(signals, key=lambda name: signals[name])
        return signals[signal], signal

    def observe(self, *, queue_fraction: float) -> HealthState:
        """Record one observation; maybe move one rung. Returns the state."""
        self.observations += 1
        value, signal = self.pressure(queue_fraction=queue_fraction)
        self.last_pressure = value
        self.last_signal = signal
        if value >= 1.0:
            self._overloaded_streak += 1
            self._healthy_streak = 0
            if (self._overloaded_streak >= self.config.escalate_after
                    and self.state < HealthState.SHED_ONLY):
                self._move(HealthState(self.state + 1), value, signal)
                self._overloaded_streak = 0
        elif value <= RECOVER_PRESSURE:
            self._healthy_streak += 1
            self._overloaded_streak = 0
            if (self._healthy_streak >= self.config.recover_after
                    and self.state > HealthState.NORMAL):
                self._move(HealthState(self.state - 1), value, signal)
                self._healthy_streak = 0
        return self.state

    def _move(self, to: HealthState, pressure: float, signal: str) -> None:
        self.transitions.append(Transition(
            observation=self.observations, previous=self.state,
            state=to, pressure=pressure, signal=signal))
        self.state = to


# ---------------------------------------------------------------------------
# Circuit breaker + guarded spill sink
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Closed → open after N consecutive failures; one half-open probe.

    The breaker is policy only — it neither performs nor retries the
    guarded operation.  :class:`GuardedSink` consults it around every
    spill append.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, *, failure_threshold: int = 5,
                 reset_after: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.clock = clock
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probe_ready = False
        self.consecutive_failures = 0
        self.failures_total = 0
        self.successes_total = 0
        self.opens = 0

    @property
    def state(self) -> str:
        """Current state; an expired open period surfaces as half-open."""
        if (self._state == self.OPEN
                and self.clock() - self._opened_at >= self.reset_after):
            self._state = self.HALF_OPEN
            self._probe_ready = True
        return self._state

    def allow(self) -> bool:
        """Whether the next guarded operation may be attempted."""
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and self._probe_ready:
            self._probe_ready = False
            return True
        return False

    def record_success(self) -> None:
        """A guarded operation succeeded; half-open closes the breaker."""
        self.successes_total += 1
        self.consecutive_failures = 0
        if self._state != self.CLOSED:
            self._state = self.CLOSED

    def record_failure(self) -> None:
        """A guarded operation failed; maybe trip open."""
        self.failures_total += 1
        self.consecutive_failures += 1
        tripped = (self._state == self.HALF_OPEN
                   or (self._state == self.CLOSED
                       and self.consecutive_failures
                       >= self.failure_threshold))
        if tripped:
            self._state = self.OPEN
            self._opened_at = self.clock()
            self.opens += 1
            self.consecutive_failures = 0


class GuardedSink:
    """A :class:`~repro.core.pool.BundleSink` that survives a sick disk.

    Wraps the real store: while the breaker allows, appends pass
    through; on failure the bundle is *parked in memory* (never lost)
    and the failure is recorded; while the breaker is open every append
    parks immediately, so refinement/shedding keep running memory-only
    instead of stalling ingest.  A successful append (e.g. a half-open
    probe) flushes the parked backlog back to disk.
    """

    def __init__(self, sink, breaker: CircuitBreaker) -> None:
        self.sink = sink
        self.breaker = breaker
        self.parked: "list[Bundle]" = []
        self.spilled = 0
        self.parked_total = 0
        self.flushed = 0
        self.parked_peak = 0

    # -- BundleSink protocol ------------------------------------------------

    def append(self, bundle: "Bundle") -> None:
        """Spill one bundle, parking it if the disk is sick."""
        if not self.breaker.allow():
            self._park(bundle)
            return
        if self._try_append(bundle):
            self.flush()

    # -- plumbing -----------------------------------------------------------

    def _park(self, bundle: "Bundle") -> None:
        self.parked.append(bundle)
        self.parked_total += 1
        self.parked_peak = max(self.parked_peak, len(self.parked))

    def _try_append(self, bundle: "Bundle") -> bool:
        try:
            self.sink.append(bundle)
        except (OSError, StorageError):
            self.breaker.record_failure()
            self._park(bundle)
            return False
        self.breaker.record_success()
        self.spilled += 1
        return True

    def flush(self) -> int:
        """Try to re-spill parked bundles; returns how many made it."""
        flushed = 0
        while self.parked and self.breaker.allow():
            bundle = self.parked.pop(0)
            if not self._try_append(bundle):
                break
            flushed += 1
        self.flushed += flushed
        return flushed

    def settle(self) -> None:
        """Flush the parked backlog ahead of a checkpoint; raises
        :class:`StorageError` while a bundle is still off disk, since a
        snapshot holds only the pool and the checkpoint must wait."""
        self.flush()
        if self.parked:
            raise StorageError(
                f"{len(self.parked)} spilled bundle(s) still parked "
                "off disk")

    @property
    def parked_count(self) -> int:
        """Bundles currently held in memory awaiting a healthy disk."""
        return len(self.parked)

    def parked_bytes(self) -> int:
        """Approximate memory held by parked bundles."""
        return sum(bundle.approximate_memory_bytes()
                   for bundle in self.parked)


# ---------------------------------------------------------------------------
# The controller façade
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HealthReport:
    """Point-in-time snapshot of the load-regulation layer."""

    state: HealthState
    observations: int
    pressure: float
    signal: str
    latency_ewma: float
    transitions: tuple[Transition, ...]
    mode_ingests: "dict[str, int]"
    admission: AdmissionStats
    queue_depth: int
    breaker_state: str
    breaker_opens: int
    spilled: int
    parked: int
    flushed: int

    @property
    def reconciles(self) -> bool:
        """Whether the admission accounting conserves every arrival."""
        return self.admission.reconciles(self.queue_depth)

    def rows(self) -> "list[list[str]]":
        """``[property, value]`` rows for table rendering."""
        admission = self.admission
        modes = ", ".join(f"{name}={count}"
                          for name, count in self.mode_ingests.items()
                          if count) or "none yet"
        ladder = " → ".join(
            f"{t.previous.label}→{t.state.label}@{t.observation}"
            for t in self.transitions[-6:]) or "none"
        return [
            ["health state", self.state.label],
            ["pressure", f"{self.pressure:.2f} ({self.signal})"],
            ["latency ewma", f"{self.latency_ewma * 1000:.2f} ms"],
            ["observations", str(self.observations)],
            ["transitions", ladder],
            ["ingests by mode", modes],
            ["admitted / deferred / dropped",
             f"{admission.admitted + admission.released} / "
             f"{admission.deferred} / {admission.dropped}"],
            ["queue depth (peak)",
             f"{self.queue_depth} ({admission.queue_peak})"],
            ["breaker", f"{self.breaker_state} "
                        f"({self.breaker_opens} open(s))"],
            ["spilled / parked / flushed",
             f"{self.spilled} / {self.parked} / {self.flushed}"],
            ["accounting", "reconciles" if self.reconciles
             else "DOES NOT RECONCILE"],
        ]


class OverloadController:
    """Owns the ladder, admission control and the spill breaker.

    The :class:`~repro.reliability.supervisor.ResilientIndexer` drives
    it: :meth:`attach` adopts the breaker-guarded spill store,
    :meth:`offer`/:meth:`release`/:meth:`drain` regulate arrivals, and
    :meth:`apply_mode`/:meth:`note_ingest` bracket each actual ingest.
    """

    def __init__(self, config: "OverloadConfig | None" = None, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or OverloadConfig()
        self.clock = clock
        self.ladder = DegradationLadder(self.config)
        self.admission = AdmissionController(self.config)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_after=self.config.breaker_reset_after,
            clock=clock)
        self.guarded: "GuardedSink | None" = None
        self.ingest_guard: "IngestGuard | None" = None
        self._engine: "ProvenanceIndexer | None" = None
        self.mode_ingests: "dict[HealthState, int]" = {
            state: 0 for state in HealthState}

    # -- wiring -------------------------------------------------------------

    def attach(self, engine: "ProvenanceIndexer") -> None:
        """Bind to ``engine``, adopting the :class:`GuardedSink` the
        supervisor put in front of its spill store (built on
        :attr:`breaker`)."""
        self._engine = engine
        if isinstance(engine.store, GuardedSink):
            self.guarded = engine.store
        self._register_metrics(engine)

    def attach_guard(self, guard: "IngestGuard") -> None:
        """From now on :meth:`apply_mode` also pushes the rung into
        ``guard``: REDUCED and worse swap in its tightened thresholds."""
        self.ingest_guard = guard

    def _register_metrics(self, engine: "ProvenanceIndexer") -> None:
        """Export the regulation signals through the engine's registry.

        All gauges are callback-backed views over the authoritative
        state, and gauges stay live even on a disabled registry.
        """
        registry = engine.obs.registry
        ladder = self.ladder
        registry.gauge("repro_overload_rung",
                       help="Degradation ladder rung "
                            "(0=normal 1=reduced 2=skeleton 3=shed_only)",
                       callback=lambda: int(ladder.state))
        registry.gauge("repro_overload_pressure",
                       help="Last observed pressure (1.0 = at the limit)",
                       callback=lambda: ladder.last_pressure)
        registry.gauge("repro_latency_ewma_seconds", unit="seconds",
                       help="EWMA of observed per-ingest latency",
                       callback=lambda: ladder.latency_ewma)
        registry.gauge("repro_backlog_depth",
                       help="Messages parked in the admission backlog",
                       callback=lambda: self.admission.queue_depth)
        stats = self.admission.stats
        for verdict, field_name in (("admitted", "admitted"),
                                    ("deferred", "deferred"),
                                    ("released", "released"),
                                    ("dropped", "dropped")):
            registry.counter(
                "repro_admission_total",
                help="Admission verdicts issued, by kind",
                labels={"verdict": verdict},
                callback=(lambda f=field_name: getattr(stats, f)))

    @property
    def state(self) -> HealthState:
        """The ladder's current rung."""
        return self.ladder.state

    def now(self, now: "float | None" = None) -> float:
        """Resolve an explicit arrival time or fall back to the clock."""
        return self.clock() if now is None else now

    # -- arrival regulation -------------------------------------------------

    def offer(self, message: "Message", now: float) -> Admission:
        """Observe pressure, maybe move the ladder, and admit or not."""
        state = self.ladder.observe(
            queue_fraction=self.admission.queue_fraction)
        return self.admission.offer(
            message, now, shed_only=state is HealthState.SHED_ONLY)

    def release(self, now: float) -> "list[Message]":
        """Backlog messages whose tokens have accrued."""
        return self.admission.release(now)

    def drain(self) -> "list[Message]":
        """The whole backlog (end of stream)."""
        return self.admission.drain()

    # -- per-ingest bracketing ----------------------------------------------

    def apply_mode(self, engine: "ProvenanceIndexer") -> HealthState:
        """Push the current rung's knobs into the engine; returns it."""
        state = self.ladder.state
        # Stamp the rung on the engine so audit records carry the mode
        # each decision was made under.
        engine.current_rung = int(state)
        if state is HealthState.NORMAL:
            engine.candidate_cap = None
            engine.skeleton_matching = False
        elif state is HealthState.REDUCED:
            engine.candidate_cap = REDUCED_CANDIDATE_CAP
            engine.skeleton_matching = False
        else:  # SKELETON, and SHED_ONLY's backlog drain
            engine.candidate_cap = REDUCED_CANDIDATE_CAP
            engine.skeleton_matching = True
        if self.ingest_guard is not None:
            self.ingest_guard.set_tightened(state >= HealthState.REDUCED)
        return state

    def note_ingest(self, state: HealthState, latency: float, *,
                    indexed: bool = True) -> None:
        """Count one completed ingest and feed its latency to the EWMA.

        ``indexed=False`` (a dead-lettered message) still contributes
        its latency — a poison storm is load too — without inflating
        the per-mode ingest counters.
        """
        if indexed:
            self.mode_ingests[state] += 1
        self.ladder.note_latency(latency)

    # -- reporting ----------------------------------------------------------

    def health_report(self) -> HealthReport:
        """Snapshot everything ``repro health`` shows."""
        guarded = self.guarded
        return HealthReport(
            state=self.ladder.state,
            observations=self.ladder.observations,
            pressure=self.ladder.last_pressure,
            signal=self.ladder.last_signal,
            latency_ewma=self.ladder.latency_ewma,
            transitions=tuple(self.ladder.transitions),
            mode_ingests={state.label: count
                          for state, count in self.mode_ingests.items()},
            admission=self.admission.stats,
            queue_depth=self.admission.queue_depth,
            breaker_state=self.breaker.state,
            breaker_opens=self.breaker.opens,
            spilled=guarded.spilled if guarded else 0,
            parked=guarded.parked_count if guarded else 0,
            flushed=guarded.flushed if guarded else 0,
        )

