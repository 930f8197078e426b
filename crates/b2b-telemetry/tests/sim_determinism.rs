//! End-to-end determinism of the flight recorder: two identical seeded
//! simulations over a lossy network must produce byte-identical trace
//! buffers and identical metrics snapshots, and attaching telemetry must
//! not change what the simulation delivers.

use b2b_crypto::{PartyId, TimeMs};
use b2b_net::reliable::Inbound;
use b2b_net::{FaultPlan, NetNode, NodeCtx, ReliableMux, SimNet};
use b2b_telemetry::{names, MetricsSnapshot, RingRecorder, Telemetry};
use std::sync::Arc;

/// A node that reliably sends a fixed batch on start and records every
/// payload delivered up the stack.
struct Endpoint {
    id: PartyId,
    peer: PartyId,
    mux: ReliableMux,
    to_send: Vec<Vec<u8>>,
    delivered: Vec<Vec<u8>>,
}

impl NetNode for Endpoint {
    fn id(&self) -> PartyId {
        self.id.clone()
    }
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        for m in std::mem::take(&mut self.to_send) {
            let peer = self.peer.clone();
            self.mux.send(peer, m, ctx);
        }
    }
    fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
        if let Inbound::Deliver(m, _) = self.mux.on_message(from, payload, ctx) {
            self.delivered.push(m.to_vec());
        }
        self.mux.flush_acks(ctx);
    }
    fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) {
        self.mux.on_timer(timer, ctx);
    }
}

struct RunResult {
    trace: String,
    metrics_json: String,
    delivered_at_b: Vec<Vec<u8>>,
}

/// Runs a two-endpoint batch exchange over a lossy, jittery network.
/// With `traced`, every layer shares one telemetry handle recording into
/// a ring buffer; without, the endpoints run with the no-op default.
fn run_sim(seed: u64, traced: bool) -> RunResult {
    let ring = Arc::new(RingRecorder::new(16_384));
    let tel = if traced {
        Telemetry::with_sink(ring.clone())
    } else {
        Telemetry::new()
    };
    let mut net: SimNet<Endpoint> = SimNet::new(seed);
    net.set_telemetry(tel.clone());
    net.set_default_plan(
        FaultPlan::new()
            .drop_rate(0.3)
            .dup_rate(0.2)
            .delay(TimeMs(1), TimeMs(20)),
    );
    let make = |id: &str, peer: &str, epoch: u64, batch: Vec<Vec<u8>>| {
        let mut mux = ReliableMux::new(TimeMs(50), epoch);
        mux.set_telemetry(tel.clone(), PartyId::new(id));
        Endpoint {
            id: PartyId::new(id),
            peer: PartyId::new(peer),
            mux,
            to_send: batch,
            delivered: Vec::new(),
        }
    };
    let batch_a: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4]).collect();
    let batch_b: Vec<Vec<u8>> = (0..8u8).map(|i| vec![0x40 + i; 4]).collect();
    net.add_node(make("a", "b", 1, batch_a));
    net.add_node(make("b", "a", 2, batch_b));
    net.run_until_quiet(TimeMs(600_000));
    RunResult {
        trace: ring.render(),
        metrics_json: tel.metrics().snapshot().to_json(),
        delivered_at_b: net.node(&PartyId::new("b")).delivered.clone(),
    }
}

/// The headline determinism claim: same seed, same recording, byte for
/// byte — trace buffer and metrics snapshot alike.
#[test]
fn identical_seeded_runs_record_identical_traces() {
    let first = run_sim(0xB2B, true);
    let second = run_sim(0xB2B, true);
    assert!(!first.trace.is_empty(), "lossy run must produce events");
    assert_eq!(first.trace, second.trace);
    assert_eq!(first.metrics_json, second.metrics_json);

    // The fault plan actually exercised the layers under test.
    let snap = MetricsSnapshot::from_json(&first.metrics_json).expect("parses");
    assert!(
        snap.counter(names::RETRANSMITS) > 0,
        "loss forces retransmits"
    );
    assert!(
        snap.counter(names::DEDUP_DROPS) > 0,
        "dup_rate forces dedup drops"
    );
}

/// Different seeds must diverge — the recorder reflects the actual
/// schedule, not some seed-independent summary.
#[test]
fn different_seeds_record_different_traces() {
    let first = run_sim(1, true);
    let second = run_sim(2, true);
    assert_ne!(first.trace, second.trace);
}

/// Telemetry is observation only: the traced and untraced runs of the
/// same seed deliver exactly the same payloads in the same order.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let traced = run_sim(42, true);
    let untraced = run_sim(42, false);
    assert_eq!(traced.delivered_at_b, untraced.delivered_at_b);
    assert!(untraced.trace.is_empty(), "no-sink run records nothing");
}

/// No-op-sink overhead smoke test: a sink-less handle takes the cheap
/// path — the detail closure never runs — across a large event volume.
#[test]
fn noop_path_never_formats_details() {
    let tel = Telemetry::new();
    let mut formatted = 0u64;
    for t in 0..100_000u64 {
        tel.trace(t, "org1", "net", "send", || {
            formatted += 1;
            String::new()
        });
    }
    assert_eq!(formatted, 0);
}
