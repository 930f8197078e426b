//! What the signature-verification cache may — and may not — skip (§4.4).
//!
//! The cache memoises *successful* verifications of exact
//! `(party, digest, signature)` triples, so it can only ever skip work that
//! would succeed again against the same key material. These tests pin down
//! the two boundaries of that claim:
//!
//! * a cached accept must not outlive the key ring that produced it —
//!   [`b2b_core::Coordinator::update_ring`] clears the cache, so a message
//!   that was verified (and cached) under the old ring is re-verified, and
//!   rejected, under the new one;
//! * caching must be behaviourally invisible — the same seeded scenario
//!   with the cache on and off produces byte-identical flight-recorder
//!   traces and identical metrics except for the verification-work
//!   counters (`sig_verify_count` / `sig_cache_hits` /
//!   `sig_batch_verifies`: whether the misses at m3 aggregation are
//!   numerous enough to form a batch is itself a function of the cache).

mod common;

use b2b_core::messages::WireMsg;
use b2b_core::{CoordinatorConfig, Misbehaviour};
use b2b_crypto::{KeyPair, PartyId, Signer, TimeMs};
use b2b_net::intruder::{FnIntruder, Injection, InterceptAction, Intruder};
use b2b_net::reliable::data_body;
use b2b_net::FaultPlan;
use b2b_telemetry::{names, MetricsSnapshot, RingRecorder, Telemetry};
use common::*;
use std::sync::{Arc, Mutex};

fn peek(raw: &[u8]) -> Option<WireMsg> {
    WireMsg::from_bytes(data_body(raw)?)
}

/// Re-frames a recorded protocol message under a fresh reliable-layer
/// identity so the dedup layer does not swallow the re-delivery.
fn reframe(frame: &[u8], epoch: u64) -> Vec<u8> {
    b2b_net::reliable::reframe(frame, epoch, 0).expect("a data frame")
}

fn inject_to_org1(payload: Vec<u8>) -> impl Intruder + 'static {
    FnIntruder::new(move |_f: &PartyId, to: &PartyId, _raw: &[u8], _n| {
        if to.as_str() == "org1" {
            InterceptAction::Inject(vec![Injection {
                from: PartyId::new("org0"),
                to: to.clone(),
                payload: payload.clone(),
                after: TimeMs(5),
            }])
        } else {
            InterceptAction::Deliver
        }
    })
}

fn bad_propose_sig_from(cluster: &Cluster, who: usize, claimed: &PartyId) -> bool {
    cluster.net.node(&party(who)).detected().iter().any(|m| {
        matches!(m, Misbehaviour::BadSignature { claimed: c, message }
            if c == claimed && message == "propose")
    })
}

#[test]
fn ring_update_invalidates_cached_signature_accepts() {
    let recorded: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let rec = recorded.clone();

    let mut cluster = Cluster::new(2, 91);
    cluster.setup_object("counter", counter_factory);
    cluster.net.set_intruder(FnIntruder::new(
        move |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
            if let Some(WireMsg::Propose(_)) = peek(raw) {
                rec.lock().unwrap().get_or_insert_with(|| raw.to_vec());
            }
            InterceptAction::Deliver
        },
    ));
    let run1 = cluster.propose(0, "counter", enc(5));
    assert!(cluster.outcome(1, &run1).unwrap().is_installed());
    let frame = recorded.lock().unwrap().clone().expect("recorded m1");

    // Control: re-delivering the recorded m1 while the ring is unchanged is
    // a cache hit followed by the idempotent completed-run reply — no
    // misbehaviour is recorded and the legitimate runs still install.
    cluster
        .net
        .set_intruder(inject_to_org1(reframe(&frame, 0xdead_beef)));
    let run2 = cluster.propose(0, "counter", enc(6));
    assert!(cluster.outcome(1, &run2).unwrap().is_installed());
    cluster.run();
    assert!(!bad_propose_sig_from(&cluster, 1, &party(0)));
    assert_eq!(dec(&cluster.state(1, "counter")), 6);

    // org1 learns a new key for org0 mid-session. The cached accept for the
    // recorded m1 must die with the old ring.
    let mut new_ring = cluster.ring.clone();
    new_ring.register(party(0), KeyPair::generate_from_seed(4242).public_key());
    cluster.net.invoke(&party(1), move |c, _| {
        c.update_ring(new_ring);
    });

    // Re-deliver the very same m1 (fresh reliable-layer identity again).
    // Were the cache not cleared, the stale accept would short-circuit
    // verification and org1 would answer idempotently; instead the
    // signature is re-checked against the new ring and rejected.
    cluster
        .net
        .set_intruder(inject_to_org1(reframe(&frame, 0xfeed_face)));
    let oid = b2b_core::ObjectId::new("counter");
    cluster.net.invoke(&party(1), move |c, ctx| {
        // Any outbound traffic draws a reply to org1, which triggers the
        // injection above.
        let _ = c.propose_overwrite(&oid, enc(7), ctx);
    });
    cluster.run();
    assert!(
        bad_propose_sig_from(&cluster, 1, &party(0)),
        "replayed m1 must fail verification after the ring update"
    );
    // The replay changed nothing: org1 still holds the last agreed state
    // it installed under the old ring.
    assert_eq!(dec(&cluster.state(1, "counter")), 6);
}

/// Runs a seeded lossy scenario with per-party flight recorders and returns
/// `(rendered traces, metrics, final state)` for each party.
fn traced_scenario(
    seed: u64,
    config: CoordinatorConfig,
) -> (Vec<String>, Vec<MetricsSnapshot>, Vec<u8>) {
    let n = 3;
    let recorders: Vec<Arc<RingRecorder>> =
        (0..n).map(|_| Arc::new(RingRecorder::new(4096))).collect();
    let telemetry: Vec<Telemetry> = recorders
        .iter()
        .map(|r| Telemetry::with_sink(r.clone() as Arc<dyn b2b_telemetry::TraceSink>))
        .collect();
    let mut cluster = Cluster::with_config_and_telemetry(
        n,
        seed,
        config,
        FaultPlan::new()
            .drop_rate(0.2)
            .dup_rate(0.1)
            .delay(TimeMs(1), TimeMs(30)),
        telemetry.clone(),
    );
    cluster.setup_object("c", counter_factory);
    for v in [4u64, 9, 2, 11] {
        cluster.propose((v % 3) as usize, "c", enc(v));
    }
    let traces = recorders.iter().map(|r| r.render()).collect();
    let metrics = telemetry.iter().map(|t| t.metrics().snapshot()).collect();
    let state = cluster.state(1, "c");
    (traces, metrics, state)
}

#[test]
fn cache_on_and_off_runs_are_identical_except_verification_counters() {
    let seed = 20_026;
    let (traces_on, metrics_on, state_on) = traced_scenario(seed, CoordinatorConfig::default());
    let (traces_off, metrics_off, state_off) =
        traced_scenario(seed, CoordinatorConfig::default().sig_cache_capacity(0));

    assert_eq!(state_on, state_off);
    assert_eq!(
        traces_on, traces_off,
        "flight-recorder traces must be byte-identical cache on vs off"
    );

    let mut saw_hits = false;
    for (on, off) in metrics_on.iter().zip(metrics_off.iter()) {
        // With the cache off every check is a real verification and nothing
        // ever hits; with it on, hits replace exactly that many verifies.
        assert_eq!(off.counter(names::SIG_CACHE_HITS), 0);
        let hits = on.counter(names::SIG_CACHE_HITS);
        saw_hits |= hits > 0;
        assert_eq!(
            on.counter(names::SIG_VERIFY_COUNT) + hits,
            off.counter(names::SIG_VERIFY_COUNT),
        );

        // With the cache off, every m3 aggregation re-checks all its
        // responses, so the misses form batches; cached runs verify at
        // most as often in batch form.
        assert!(off.counter(names::SIG_BATCH_VERIFIES) > 0);
        assert!(on.counter(names::SIG_BATCH_VERIFIES) <= off.counter(names::SIG_BATCH_VERIFIES));

        // Every other counter and histogram is identical.
        let strip = |snap: &MetricsSnapshot| {
            let mut s = snap.clone();
            s.counters.remove(names::SIG_VERIFY_COUNT);
            s.counters.remove(names::SIG_CACHE_HITS);
            s.counters.remove(names::SIG_BATCH_VERIFIES);
            s
        };
        assert_eq!(strip(on), strip(off));
    }
    assert!(saw_hits, "the default cache must absorb some verifications");
}
