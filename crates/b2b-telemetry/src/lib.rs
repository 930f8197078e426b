//! Deterministic observability for the B2BObjects middleware.
//!
//! The paper argues safety and liveness over *protocol rounds* (§4.3 state
//! coordination, §4.5 membership); this crate makes those rounds visible
//! without disturbing them:
//!
//! - [`metrics`] — a deterministic metrics registry: named counters and
//!   virtual-time histograms, per-coordinator, mergeable fleet-wide, with
//!   JSON and table exporters.
//! - [`trace`] — a span/event flight recorder: the [`trace::TraceSink`]
//!   trait with a bounded ring-buffer recorder and a line-writer sink.
//!   Events are stamped with virtual `TimeMs` only, so traces from the
//!   seeded simulator are byte-identical across reruns.
//!
//! [`Telemetry`] bundles both behind one cheap `Clone + Send + Sync` handle.
//! The default handle has a live metrics registry (atomically cheap) and no
//! trace sink; every instrumentation point is written so that the no-sink
//! path does not even format its detail string.

pub mod assemble;
pub mod ctx;
pub mod metrics;
pub mod trace;

pub use assemble::{assemble, chrome_trace_json, DistributedTrace};
pub use ctx::{SpanIds, TraceContext};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use trace::{LineWriter, NoopSink, RingRecorder, TraceEvent, TraceSink};

use std::sync::Arc;

/// Well-known metric names emitted by the middleware layers.
///
/// Keeping them in one place makes exported metrics and dashboards stable
/// across crates; nothing prevents registering ad-hoc names as well.
pub mod names {
    /// State-coordination rounds entered, at the proposer when it sends
    /// m1 and at each recipient when it starts tracking the proposal.
    pub const ROUNDS_STARTED: &str = "rounds_started";
    /// Rounds that installed the proposed state.
    pub const ROUNDS_COMMITTED: &str = "rounds_committed";
    /// Rounds that ended in rollback/abort.
    pub const ROUNDS_ABORTED: &str = "rounds_aborted";
    /// Rounds lost purely to the group's concurrency control whose
    /// updates were requeued for re-proposal instead of surfacing a veto.
    pub const ROUNDS_RETRIED: &str = "rounds_retried";
    /// Phase-1 responses that validated and counted.
    pub const VOTES_VALID: &str = "votes_valid";
    /// Phase-1 responses rejected (bad signature, stale run, misbehaviour).
    pub const VOTES_INVALID: &str = "votes_invalid";
    /// Signature verifications performed.
    pub const SIG_VERIFY_COUNT: &str = "sig_verify_count";
    /// Signature checks answered from the per-coordinator verification
    /// cache instead of re-running the public-key operation.
    pub const SIG_CACHE_HITS: &str = "sig_cache_hits";
    /// Canonical encodings answered from a message's memo instead of
    /// re-encoding the signed part.
    pub const CANONICAL_CACHE_HITS: &str = "canonical_cache_hits";
    /// Wire serialisations avoided by multicast fan-out (a payload
    /// serialised once and shared across n−1 sends counts n−2 here).
    pub const FANOUT_SERIALIZATIONS_AVOIDED: &str = "fanout_serializations_avoided";
    /// Explicit flushes issued by the write-ahead log (one per append in
    /// durable mode; one per protocol step in group-commit mode).
    pub const WAL_FLUSHES: &str = "wal_flushes";
    /// Evidence records appended to the store.
    pub const EVIDENCE_RECORDS_APPENDED: &str = "evidence_records_appended";
    /// Crash recoveries of a replica refused because the party's log
    /// faults or disagrees with its checkpoint.
    pub const RECOVERIES_REFUSED: &str = "recoveries_refused";
    /// Frames appended to the write-ahead log.
    pub const WAL_APPENDS: &str = "wal_appends";
    /// Payload retransmissions by the reliable layer.
    pub const RETRANSMITS: &str = "retransmits";
    /// Duplicate payloads suppressed by the reliable layer.
    pub const DEDUP_DROPS: &str = "dedup_drops";
    /// Membership changes (connects/disconnects) installed.
    pub const MEMBERSHIP_CHANGES: &str = "membership_changes";
    /// Histogram: virtual-time latency of completed rounds.
    pub const ROUND_LATENCY_MS: &str = "round_latency_ms";
    /// Simulator: datagrams discarded by an active partition (per-link
    /// breakdowns are registered ad hoc as `partition_drops:<from>-><to>`).
    pub const PARTITION_DROPS: &str = "partition_drops";
    /// Simulator: datagrams the installed intruder acted upon (per-link
    /// breakdowns as `intruder_actions:<from>-><to>`).
    pub const INTRUDER_ACTIONS: &str = "intruder_actions";
    /// Checker: fault schedules explored by `b2b-check`.
    pub const SCHEDULES_EXPLORED: &str = "schedules_explored";
    /// Checker: schedules on which at least one oracle reported a
    /// violation.
    pub const VIOLATIONS_FOUND: &str = "violations_found";
    /// Checker: shrinking steps attempted while minimising a failing
    /// schedule (accepted and rejected candidates both count).
    pub const SHRINK_STEPS: &str = "shrink_steps";
    /// Application updates that rode along in another update's signed
    /// coordination round instead of paying for their own (a batch of `k`
    /// updates coalesces `k − 1` rounds).
    pub const ROUNDS_COALESCED: &str = "rounds_coalesced";
    /// Histogram of batch occupancy: how many application updates each
    /// dispatched state-coordination round carried (1 = unbatched).
    pub const BATCH_OCCUPANCY: &str = "batch_occupancy";
    /// Signature checks settled through a single batched verification
    /// call (`b2b_crypto::sig::verify_batch`) rather than one public-key
    /// operation per signature.
    pub const SIG_BATCH_VERIFIES: &str = "sig_batch_verifies";
    /// Sharded runtime: sends that found the destination inbox full and
    /// parked head-of-line until it drained — the runtime's backpressure
    /// signal.
    pub const INBOX_FULL_STALLS: &str = "inbox_full_stalls";
    /// Sharded runtime: events processed, per shard (registered as
    /// `shard_events:shard<i>`).
    pub const SHARD_EVENTS: &str = "shard_events";
    /// Sharded runtime: groups resident on each shard at registration
    /// time (registered as `shard_occupancy:shard<i>`).
    pub const SHARD_OCCUPANCY: &str = "shard_occupancy";
    /// Sharded runtime: histogram of sampled shard-inbox queue depths.
    pub const SHARD_QUEUE_DEPTH: &str = "shard_queue_depth";
    /// Sharded runtime: timers fired from the per-shard timer wheels.
    pub const SHARD_TIMER_FIRES: &str = "shard_timer_fires";
    /// Sharded runtime: frames dropped because the destination group node
    /// was crashed or unknown.
    pub const SHARD_UNDELIVERABLE: &str = "shard_undeliverable";
    /// Multiplexed sharded TCP transport: connections established to
    /// peer endpoints (one socket pair carries every group).
    pub const MUX_CONNECTS: &str = "mux_connects";
    /// Multiplexed transport: connections re-established after a loss —
    /// a subset of [`MUX_CONNECTS`].
    pub const MUX_RECONNECTS: &str = "mux_reconnects";
    /// Multiplexed transport: frames handed to the wire.
    pub const MUX_FRAMES_SENT: &str = "mux_frames_sent";
    /// Multiplexed transport: payload bytes handed to the wire (framing
    /// overhead excluded).
    pub const MUX_BYTES_SENT: &str = "mux_bytes_sent";
    /// Multiplexed transport: `write(2)` calls issued; the ratio
    /// [`MUX_FRAMES_SENT`]` / MUX_WRITE_SYSCALLS` is the write-coalescing
    /// factor (frames per syscall).
    pub const MUX_WRITE_SYSCALLS: &str = "mux_write_syscalls";
    /// Multiplexed transport: readiness-poll iterations of the reactor.
    pub const MUX_POLL_ROUNDS: &str = "mux_poll_rounds";
    /// Multiplexed transport: reads deferred because a decoded frame is
    /// still waiting for shard-inbox space (inbound backpressure: the
    /// socket's receive window pushes back on the peer).
    pub const MUX_READ_STALLS: &str = "mux_read_stalls";
    /// Multiplexed transport: frames whose header names no group (torn,
    /// foreign or old-layout frames); the frame is dropped but the
    /// length-prefixed stream stays in sync.
    pub const MUX_BAD_FRAMES: &str = "mux_bad_frames";
    /// Order server: HTTP requests served (every status code).
    pub const SERVE_REQUESTS: &str = "serve_requests";
    /// Order server: requests answered `429` because the target group's
    /// pending-update queue was at `PENDING_UPDATES_MAX` (the HTTP face
    /// of the coordinator's backpressure).
    pub const SERVE_BACKPRESSURE_429: &str = "serve_backpressure_429";
    /// Order server: update requests that reached a terminal outcome and
    /// installed.
    pub const SERVE_INSTALLED: &str = "serve_installed";
    /// Order server: update requests that reached a terminal outcome and
    /// were vetoed/aborted (the validation-veto race surfacing as `409`
    /// or a failed ticket).
    pub const SERVE_VETOED: &str = "serve_vetoed";
    /// Histogram: end-to-end request latency in milliseconds for
    /// synchronous-mode calls (client send → outcome known). Milliseconds
    /// fit the bucket ladder; exact-sample percentiles in finer units
    /// belong to the load driver, not the live histogram.
    pub const SERVE_LATENCY_MS_SYNC: &str = "serve_latency_ms_sync";
    /// Histogram: submit→terminal-ticket latency in milliseconds for
    /// deferred-synchronous calls (includes `/tickets/:id` polling).
    pub const SERVE_LATENCY_MS_DEFERRED: &str = "serve_latency_ms_deferred";
    /// Histogram: submit→terminal-ticket latency in milliseconds for
    /// asynchronous calls (outcome observed by opportunistic polling).
    pub const SERVE_LATENCY_MS_ASYNC: &str = "serve_latency_ms_async";

    /// Returns the metric key carrying a `group` label for `name`:
    /// `<name>|group=<g>`. [`crate::MetricsSnapshot::to_prometheus`]
    /// renders such keys as a Prometheus `group` label (aggregating
    /// instead when a family's group cardinality exceeds the cap).
    pub fn with_group(name: &str, group: u64) -> String {
        format!("{name}|group={group}")
    }
}

/// A cheap, shareable handle bundling a metrics registry and an optional
/// trace sink.
///
/// `Telemetry::default()` is the opt-out state: metrics still accumulate
/// (they cost one mutex-guarded map bump) but no trace events are built or
/// recorded. Attach a sink with [`Telemetry::with_sink`] or
/// [`Telemetry::set_sink`] to turn on the flight recorder.
#[derive(Clone, Default)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    sink: Option<Arc<dyn TraceSink>>,
}

impl Telemetry {
    /// Creates a handle with a fresh registry and no trace sink.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Creates a handle recording trace events into `sink`.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::default(),
            sink: Some(sink),
        }
    }

    /// Attaches (or replaces) the trace sink.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// The underlying metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Returns `true` when a trace sink is attached.
    pub fn tracing_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Increments counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.metrics.add(name, 1);
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        self.metrics.add(name, delta);
    }

    /// Records `value_ms` (virtual milliseconds) into histogram `name`.
    pub fn observe_ms(&self, name: &str, value_ms: u64) {
        self.metrics.observe(name, value_ms);
    }

    /// Records a trace event if a sink is attached.
    ///
    /// `detail` is a closure so the no-sink path never formats the string —
    /// the instrumentation cost without a sink is one `Option` check.
    pub fn trace(
        &self,
        time_ms: u64,
        party: &str,
        span: &str,
        phase: &str,
        detail: impl FnOnce() -> String,
    ) {
        self.trace_span(time_ms, party, span, phase, SpanIds::default(), detail);
    }

    /// Records a trace event stamped with causal ids if a sink is attached.
    ///
    /// Like [`Telemetry::trace`], the no-sink path never formats `detail`.
    /// `ids` carries the episode identity a coordinator allocated for the
    /// message (or timer) it is currently handling; `SpanIds::default()`
    /// marks the event untraced.
    pub fn trace_span(
        &self,
        time_ms: u64,
        party: &str,
        span: &str,
        phase: &str,
        ids: SpanIds,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                time_ms,
                party: party.to_string(),
                span: span.to_string(),
                phase: phase.to_string(),
                detail: detail(),
                trace_id: ids.trace_id,
                span_id: ids.span_id,
                parent_span: ids.parent_span,
            });
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracing_enabled", &self.tracing_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_counts_but_does_not_trace() {
        let tel = Telemetry::new();
        assert!(!tel.tracing_enabled());
        tel.inc(names::ROUNDS_STARTED);
        let mut formatted = false;
        tel.trace(1, "a", "state_run", "propose", || {
            formatted = true;
            String::new()
        });
        assert!(!formatted, "no-sink path must not format details");
        assert_eq!(tel.metrics().snapshot().counter(names::ROUNDS_STARTED), 1);
    }

    #[test]
    fn sink_receives_events() {
        let ring = Arc::new(RingRecorder::new(8));
        let tel = Telemetry::with_sink(ring.clone());
        tel.trace(7, "org1", "net", "send", || "to=org2".to_string());
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_ms, 7);
        assert_eq!(events[0].party, "org1");
        assert_eq!(events[0].detail, "to=org2");
    }

    #[test]
    fn clones_share_the_registry() {
        let tel = Telemetry::new();
        let clone = tel.clone();
        clone.inc(names::RETRANSMITS);
        assert_eq!(tel.metrics().snapshot().counter(names::RETRANSMITS), 1);
    }
}
