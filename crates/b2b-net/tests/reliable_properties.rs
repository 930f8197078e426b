//! Randomized tests of the reliable-delivery layer: *eventual, once-only
//! delivery* (paper §4.2) must hold for arbitrary message batches under
//! arbitrary loss/duplication/jitter schedules, and across crash-recovery
//! epochs; acks riding on data frames must eventually ack every frame;
//! one timer per peer must keep every frame's own back-off schedule; and
//! frames of the previous layout must never be delivered.
//!
//! These were property-based (proptest) tests; the offline build vendors no
//! proptest, so each property runs as a seeded deterministic loop instead.

use b2b_crypto::{PartyId, TimeMs};
use b2b_net::intruder::SharedTap;
use b2b_net::reliable::{data_body, Inbound};
use b2b_net::{FaultPlan, NetNode, NodeCtx, ReliableMux, SimNet};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

const CASES: u64 = 24;

fn bytes(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(min_len..=max_len);
    (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect()
}

fn batch(rng: &mut StdRng, max_items: usize, max_len: usize) -> Vec<Vec<u8>> {
    let n = rng.gen_range(0..=max_items);
    (0..n).map(|_| bytes(rng, 0, max_len)).collect()
}

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

/// Every payload is delivered exactly once, whatever the fault plan.
#[test]
fn once_only_delivery_under_arbitrary_faults() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2E11AB1E ^ case);
        let seed = rng.gen_range(0..10_000u64);
        let drop_rate = rng.gen_range(0..600u64) as f64 / 1000.0;
        let dup_rate = rng.gen_range(0..500u64) as f64 / 1000.0;
        let max_delay = rng.gen_range(1..60u64);
        let batch_a = batch(&mut rng, 14, 32);
        let batch_b = batch(&mut rng, 14, 32);

        let mut net: SimNet<Endpoint> = SimNet::new(seed);
        net.set_default_plan(
            FaultPlan::new()
                .drop_rate(drop_rate)
                .dup_rate(dup_rate)
                .delay(TimeMs(1), TimeMs(max_delay)),
        );
        net.add_node(Endpoint {
            id: PartyId::new("a"),
            peer: PartyId::new("b"),
            mux: ReliableMux::new(TimeMs(80), 1),
            to_send: batch_a.clone(),
            delivered: vec![],
        });
        net.add_node(Endpoint {
            id: PartyId::new("b"),
            peer: PartyId::new("a"),
            mux: ReliableMux::new(TimeMs(80), 2),
            to_send: batch_b.clone(),
            delivered: vec![],
        });
        net.run_until_quiet(TimeMs(600_000));

        let mut got_b = net.node(&PartyId::new("b")).delivered.clone();
        let mut want_b = batch_a;
        got_b.sort();
        want_b.sort();
        assert_eq!(got_b, want_b, "b receives a's batch exactly once");

        let mut got_a = net.node(&PartyId::new("a")).delivered.clone();
        let mut want_a = batch_b;
        got_a.sort();
        want_a.sort();
        assert_eq!(got_a, want_a, "a receives b's batch exactly once");
        assert!(net.node(&PartyId::new("a")).mux.all_acked());
        assert!(net.node(&PartyId::new("b")).mux.all_acked());
    }
}

/// A receiver crash (losing dedup state) never manufactures duplicate
/// *new-epoch* deliveries: payloads sent after the receiver's recovery
/// under a fresh sender epoch arrive exactly once.
#[test]
fn fresh_epochs_deliver_exactly_once_after_dedup_loss() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE90C ^ case);
        let seed = rng.gen_range(0..10_000u64);
        let n = rng.gen_range(1..10usize);
        let payloads: Vec<Vec<u8>> = (0..n).map(|_| bytes(&mut rng, 1, 16)).collect();

        // Model: two muxes; receiver state reset mid-stream; sender
        // restarts with a new epoch (as the coordinator does on recovery).
        let from = PartyId::new("tx");
        let mut rx = ReliableMux::new(TimeMs(10), 0);
        let mut delivered = Vec::new();

        // Pre-crash epoch delivers some traffic.
        let mut tx1 = ReliableMux::new(TimeMs(10), seed.wrapping_add(1));
        for p in &payloads {
            let mut ctx = NodeCtx::new(TimeMs(0));
            tx1.send(PartyId::new("rx"), p.clone(), &mut ctx);
            for (_, frame) in ctx.take_outgoing() {
                let mut rctx = NodeCtx::new(TimeMs(1));
                if let Inbound::Deliver(m, _) = rx.on_message(&from, &frame, &mut rctx) {
                    delivered.push(m.to_vec());
                }
            }
        }
        // Receiver crashes: dedup state lost.
        rx = ReliableMux::new(TimeMs(10), 99);
        let mut post = Vec::new();
        // Sender also restarts with a fresh epoch and re-sends everything.
        let mut tx2 = ReliableMux::new(TimeMs(10), seed.wrapping_add(2));
        for p in &payloads {
            let mut ctx = NodeCtx::new(TimeMs(2));
            tx2.send(PartyId::new("rx"), p.clone(), &mut ctx);
            for (_, frame) in ctx.take_outgoing() {
                let mut rctx = NodeCtx::new(TimeMs(3));
                if let Inbound::Deliver(m, _) = rx.on_message(&from, &frame, &mut rctx) {
                    post.push(m.to_vec());
                }
                // A duplicate of the same frame is suppressed.
                let mut rctx2 = NodeCtx::new(TimeMs(4));
                assert_eq!(rx.on_message(&from, &frame, &mut rctx2), Inbound::Duplicate);
            }
        }
        assert_eq!(post, payloads);
        let _ = delivered;
    }
}

/// A node that answers every payload it is handed — so its acks ride on
/// the answers — and also sends payloads of its own at scheduled times.
/// Malformed frames are counted, never delivered.
struct Echo {
    id: PartyId,
    peer: PartyId,
    mux: ReliableMux,
    delivered: Vec<Vec<u8>>,
    malformed: usize,
}

impl NetNode for Echo {
    fn id(&self) -> PartyId {
        self.id.clone()
    }
    fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
        match self.mux.on_message(from, payload, ctx) {
            Inbound::Deliver(m, _) => {
                let m = m.to_vec();
                // Answer originals only (a leading 0), so the exchange ends.
                if m.first() == Some(&0) {
                    let mut answer = m.clone();
                    answer[0] = 1;
                    self.mux.send(from.clone(), answer, ctx);
                }
                self.delivered.push(m);
            }
            Inbound::Malformed => self.malformed += 1,
            Inbound::Duplicate | Inbound::Ack => {}
        }
        self.mux.flush_acks(ctx);
    }
    fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) {
        self.mux.on_timer(timer, ctx);
    }
}

fn echo(id: &str, peer: &str, epoch: u64) -> Echo {
    Echo {
        id: PartyId::new(id),
        peer: PartyId::new(peer),
        mux: ReliableMux::new(TimeMs(80), epoch),
        delivered: Vec::new(),
        malformed: 0,
    }
}

fn sorted(mut v: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    v.sort();
    v
}

/// Under random loss, duplication and reordering, with most acks riding
/// on answers: every payload and every answer is delivered exactly once,
/// and at quiescence every frame either side sent has been acked.
#[test]
fn piggybacked_acks_ack_every_frame_under_faults() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xACC5 ^ case);
        let seed = rng.gen_range(0..10_000u64);
        let plan = FaultPlan::new()
            .drop_rate(rng.gen_range(0..500u64) as f64 / 1000.0)
            .dup_rate(rng.gen_range(0..400u64) as f64 / 1000.0)
            .delay(TimeMs(1), TimeMs(rng.gen_range(1..80u64)));
        let mut net: SimNet<Echo> = SimNet::new(seed);
        net.set_default_plan(plan);
        net.add_node(echo("a", "b", 1));
        net.add_node(echo("b", "a", 2));
        let mut sent: BTreeMap<&str, Vec<Vec<u8>>> = BTreeMap::new();
        for i in 0..rng.gen_range(1..30u32) {
            let who = if rng.gen_bool(0.5) { "a" } else { "b" };
            let mut m = vec![0u8];
            m.extend_from_slice(who.as_bytes());
            m.extend_from_slice(&i.to_be_bytes());
            sent.entry(who).or_default().push(m.clone());
            let at = TimeMs(rng.gen_range(0..400u64));
            net.at(at, PartyId::new(who), move |n: &mut Echo, ctx| {
                let peer = n.peer.clone();
                n.mux.send(peer, m, ctx);
            });
        }
        net.run_until_quiet(TimeMs(600_000));
        for (me, peer) in [("a", "b"), ("b", "a")] {
            let mut want = sent.get(peer).cloned().unwrap_or_default();
            // Answers to my own originals come back too.
            want.extend(sent.get(me).into_iter().flatten().map(|m| {
                let mut answer = m.clone();
                answer[0] = 1;
                answer
            }));
            let node = net.node(&PartyId::new(me));
            assert_eq!(
                sorted(node.delivered.clone()),
                sorted(want),
                "case {case}: {me} receives everything exactly once"
            );
            assert!(node.mux.all_acked(), "case {case}: {me} has unacked frames");
            assert_eq!(node.malformed, 0);
        }
    }
}

/// Every transmission of every frame, by payload, from a sender whose
/// peer never answers: the k-th retransmission of each frame leaves
/// base·2^(k-1) after the one before it (capped at 32 × base), whatever
/// other frames are outstanding on the same peer's timer.
#[test]
fn each_frame_keeps_its_own_backoff_under_a_shared_timer() {
    const BASE: u64 = 80;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xBAC0FF ^ case);
        let mut net: SimNet<Echo> = SimNet::new(case);
        let tap = SharedTap::new();
        net.set_intruder(tap.clone());
        // Every frame from a to b is lost; b never hears anything.
        net.set_link_plan(
            PartyId::new("a"),
            PartyId::new("b"),
            FaultPlan::new().drop_rate(1.0),
        );
        net.add_node(echo("a", "b", 1));
        net.add_node(echo("b", "a", 2));
        let frames = rng.gen_range(1..12u32);
        for i in 0..frames {
            let at = TimeMs(rng.gen_range(0..5_000u64));
            net.at(at, PartyId::new("a"), move |n: &mut Echo, ctx| {
                let peer = n.peer.clone();
                n.mux.send(peer, i.to_be_bytes(), ctx);
            });
        }
        let horizon = 40_000;
        net.run_until(TimeMs(horizon));
        let mut sends: BTreeMap<Vec<u8>, Vec<u64>> = BTreeMap::new();
        for (from, _, raw, at) in tap.seen() {
            assert_eq!(from.as_str(), "a");
            let body = data_body(&raw).expect("only data frames leave a");
            sends.entry(body.to_vec()).or_default().push(at.0);
        }
        assert_eq!(sends.len(), frames as usize, "case {case}");
        for (body, times) in &sends {
            let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let want: Vec<u64> = (0..gaps.len())
                .map(|k| (BASE << k.min(20)).min(32 * BASE))
                .collect();
            assert_eq!(gaps, want, "case {case}: frame {body:?} sent at {times:?}");
            let last = *times.last().unwrap();
            let next_gap = (BASE << gaps.len().min(20)).min(32 * BASE);
            assert!(last + next_gap > horizon, "case {case}: a probe is missing");
        }
        assert_eq!(
            net.node(&PartyId::new("a")).mux.max_timers_per_peer(),
            1,
            "case {case}: one timer for every frame to b"
        );
    }
}

/// Frames of the previous layout — an 8-byte group envelope, then
/// `kind (0 data, 1 ack) | epoch | seq | trace`, then the body — and the
/// same header without the envelope are malformed: counted, never
/// delivered, never acked, whatever their contents.
#[test]
fn previous_layout_frames_are_malformed_and_never_delivered() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x01D ^ case);
        let mut net: SimNet<Echo> = SimNet::new(case);
        net.add_node(echo("a", "b", 1));
        net.add_node(echo("b", "a", 2));
        let count = rng.gen_range(1..20usize);
        for i in 0..count {
            let mut old = vec![rng.gen_range(0..=1u32) as u8];
            old.extend_from_slice(&rng.gen_range(0..=u64::MAX).to_be_bytes());
            old.extend_from_slice(&rng.gen_range(0..=u64::MAX).to_be_bytes());
            old.extend_from_slice(&bytes(&mut rng, 17, 17));
            old.extend_from_slice(&bytes(&mut rng, 0, 40));
            if i % 2 == 0 {
                // Group ids of a real deployment: far below 2^60.
                let gid = rng.gen_range(0..1u64 << 40);
                let mut enveloped = gid.to_be_bytes().to_vec();
                enveloped.extend_from_slice(&old);
                old = enveloped;
            }
            let at = TimeMs(rng.gen_range(0..100u64));
            net.at(at, PartyId::new("a"), move |_n: &mut Echo, ctx| {
                ctx.send(PartyId::new("b"), old);
            });
        }
        net.run_until_quiet(TimeMs(60_000));
        let b = net.node(&PartyId::new("b"));
        assert_eq!(b.malformed, count, "case {case}");
        assert!(
            b.delivered.is_empty(),
            "case {case}: an old frame was delivered"
        );
        assert_eq!(
            b.mux.standalone_acks(),
            0,
            "case {case}: an old frame drew an ack"
        );
        assert_eq!(
            net.stats().sent,
            count as u64,
            "case {case}: nothing answered"
        );
    }
}
