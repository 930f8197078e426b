//! A completed run's re-reply is the reply it sent, byte for byte.
//!
//! A replica keeps a completed run's reply only as the sequence number of
//! its own evidence record that carries it: the proposer's decide, the
//! recipient's response. These tests answer duplicate protocol messages
//! after the round, after a crash and recovery, and with a checkpoint
//! store that holds nothing but core documents, and compare the protocol
//! message each answer carries with the one first sent.

mod common;

use b2b_core::messages::WireMsg;
use b2b_core::{Coordinator, CoordinatorConfig, ObjectId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2b_evidence::{EvidenceRecord, EvidenceStore, MemStore, SnapshotStore, StoreError};
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::{data_body, reframe};
use b2b_net::{NetNode, SimNet};
use common::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The first m1, m2 and m3 frames of a round, as they crossed the wire.
#[derive(Default)]
struct Recorded {
    m1: Option<Vec<u8>>,
    m2: Option<Vec<u8>>,
    m3: Option<Vec<u8>>,
}

/// An intruder that delivers everything and records the first frame of
/// each protocol step.
fn recorder(into: Arc<Mutex<Recorded>>) -> impl b2b_net::intruder::Intruder {
    FnIntruder::new(move |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
        let msg = data_body(raw).and_then(WireMsg::from_bytes);
        let mut rec = into.lock().unwrap();
        let slot = match msg {
            Some(WireMsg::Propose(_)) => &mut rec.m1,
            Some(WireMsg::Respond(_)) => &mut rec.m2,
            Some(WireMsg::Decide(_)) => &mut rec.m3,
            _ => return InterceptAction::Deliver,
        };
        slot.get_or_insert_with(|| raw.to_vec());
        InterceptAction::Deliver
    })
}

/// Delivers `frame` from `from` to `to` under a fresh reliable-layer
/// identity (a duplicate the mux does not suppress), and returns the
/// protocol messages `to` sent in answer, as raw bodies.
fn answer<N: NetNode>(
    net: &mut SimNet<N>,
    from: usize,
    to: usize,
    frame: &[u8],
    epoch: u64,
) -> Vec<Vec<u8>> {
    let dup = reframe(frame, epoch, 0).expect("a data frame");
    net.invoke(&party(to), move |node, ctx| {
        node.on_message(&party(from), &dup, ctx);
        ctx.take_outgoing()
            .into_iter()
            .filter_map(|(_, f)| data_body(&f).map(<[u8]>::to_vec))
            .collect()
    })
}

fn body(frame: &Option<Vec<u8>>) -> Vec<u8> {
    data_body(frame.as_deref().expect("recorded"))
        .expect("a data frame")
        .to_vec()
}

/// Every round kind re-replies alike: a state round of org0's, polling
/// org1, and org2's admission, sponsored by org1 and polling org0.
#[test]
fn duplicates_after_the_round_and_after_recovery_get_the_original_bytes() {
    for join in [false, true] {
        let rec = Arc::new(Mutex::new(Recorded::default()));
        let mut cluster = Cluster::new(2 + usize::from(join), 71);
        let oid = ObjectId::new("counter");
        let o = oid.clone();
        cluster.net.invoke(&party(0), move |c, _| {
            c.register_object(o, Box::new(counter_factory)).unwrap();
        });
        let o = oid.clone();
        cluster.net.invoke(&party(1), move |c, ctx| {
            c.request_connect(o, Box::new(counter_factory), party(0), ctx)
                .unwrap();
        });
        cluster.run();
        cluster.net.set_intruder(recorder(rec.clone()));
        let (proposer, recipient) = if join {
            let o = oid.clone();
            cluster.net.invoke(&party(2), move |c, ctx| {
                c.request_connect(o, Box::new(counter_factory), party(1), ctx)
                    .unwrap();
            });
            cluster.run();
            assert!(cluster.net.node(&party(2)).is_member(&oid));
            (1, 0)
        } else {
            let run = cluster.propose(0, "counter", enc(5));
            assert!(cluster.outcome(1, &run).unwrap().is_installed());
            (0, 1)
        };
        let (m1, m2, m3) = {
            let r = rec.lock().unwrap();
            (
                r.m1.clone().unwrap(),
                r.m2.clone().unwrap(),
                r.m3.clone().unwrap(),
            )
        };
        let (m2_body, m3_body) = (body(&Some(m2.clone())), body(&Some(m3)));

        // The recipient answers a duplicate m1 with its response, and the
        // proposer a duplicate m2 with its decide.
        let net = &mut cluster.net;
        let (p, r) = (proposer, recipient);
        assert_eq!(
            answer(net, p, r, &m1, 0xd0),
            vec![m2_body.clone()],
            "{join}"
        );
        assert_eq!(
            answer(net, r, p, &m2, 0xd1),
            vec![m3_body.clone()],
            "{join}"
        );

        // Both crash and recover: the replicas come back from their
        // checkpoints, and the answers are the same bytes.
        let t = cluster.net.now();
        for who in [p, r] {
            cluster.net.crash_at(t + TimeMs(1), party(who));
            cluster.net.recover_at(t + TimeMs(50), party(who));
        }
        cluster.run();
        let net = &mut cluster.net;
        assert_eq!(answer(net, p, r, &m1, 0xd2), vec![m2_body], "{join}");
        assert_eq!(answer(net, r, p, &m2, 0xd3), vec![m3_body], "{join}");
    }
}

/// An in-memory store whose reply-document writes fail while `failing` is
/// set.
struct FlakyReplies {
    inner: MemStore,
    failing: AtomicBool,
}

impl EvidenceStore for FlakyReplies {
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError> {
        self.inner.append(record)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        self.inner.get(seq)
    }
    fn records(&self) -> Vec<EvidenceRecord> {
        self.inner.records()
    }
}

impl SnapshotStore for FlakyReplies {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        if key.contains("-reply-") && self.failing.load(Ordering::SeqCst) {
            return Err(StoreError::Io(std::io::Error::other("disk full")));
        }
        self.inner.put_snapshot(key, bytes)
    }
    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.get_snapshot(key)
    }
}

#[test]
fn a_reply_whose_document_write_failed_is_still_resent() {
    let (p0, p1) = (party(0), party(1));
    let (k0, k1) = (
        KeyPair::generate_from_seed(1000),
        KeyPair::generate_from_seed(1001),
    );
    let mut ring = KeyRing::new();
    ring.register(p0.clone(), k0.public_key());
    ring.register(p1.clone(), k1.public_key());
    let flaky = Arc::new(FlakyReplies {
        inner: MemStore::new(),
        failing: AtomicBool::new(true),
    });
    let mut net = SimNet::new(72);
    net.add_node(
        Coordinator::builder(p0.clone(), k0)
            .ring(ring.clone())
            .config(CoordinatorConfig::default())
            .store(Arc::new(MemStore::new()))
            .seed(1)
            .build(),
    );
    net.add_node(
        Coordinator::builder(p1.clone(), k1)
            .ring(ring)
            .config(CoordinatorConfig::default())
            .store(Arc::clone(&flaky))
            .seed(2)
            .build(),
    );
    let oid = ObjectId::new("counter");
    let o = oid.clone();
    net.invoke(&p0, move |c, _| {
        c.register_object(o, Box::new(counter_factory)).unwrap();
    });
    let o = oid.clone();
    net.invoke(&p1, move |c, ctx| {
        c.request_connect(o, Box::new(counter_factory), party(0), ctx)
            .unwrap();
    });
    net.run_until_quiet(QUIET);
    assert!(net.node(&p1).is_member(&oid));

    let rec = Arc::new(Mutex::new(Recorded::default()));
    net.set_intruder(recorder(rec.clone()));
    let o = oid.clone();
    let run = net.invoke(&p0, move |c, ctx| {
        c.propose_overwrite(&o, enc(5), ctx).unwrap()
    });
    net.run_until_quiet(QUIET);
    assert!(net.node(&p1).outcome_of(&run).unwrap().is_installed());
    let (m1, m2_body) = {
        let r = rec.lock().unwrap();
        (r.m1.clone().unwrap(), body(&r.m2))
    };
    // The store has no reply document, yet a duplicate m1 is answered
    // with the original response.
    assert_eq!(answer(&mut net, 0, 1, &m1, 0xe0), vec![m2_body.clone()]);

    // Once writes succeed again, the next checkpoint writes the held
    // reply, and the answer — now read from the store — is the same.
    flaky.failing.store(false, Ordering::SeqCst);
    let o = oid.clone();
    net.invoke(&p0, move |c, ctx| {
        c.propose_overwrite(&o, enc(6), ctx).unwrap()
    });
    net.run_until_quiet(QUIET);
    let t = net.now();
    net.crash_at(t + TimeMs(1), p1.clone());
    net.recover_at(t + TimeMs(50), p1.clone());
    net.run_until_quiet(QUIET);
    assert_eq!(answer(&mut net, 0, 1, &m1, 0xe1), vec![m2_body]);
}

/// An in-memory store that keeps the index and the core document of the
/// `counter` object, and refuses every other put.
struct CoreOnly(MemStore);

impl EvidenceStore for CoreOnly {
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError> {
        self.0.append(record)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        self.0.get(seq)
    }
    fn records(&self) -> Vec<EvidenceRecord> {
        self.0.records()
    }
}

impl SnapshotStore for CoreOnly {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        match key {
            "objects" | "pending-connects" | "obj-counter" => self.0.put_snapshot(key, bytes),
            _ => Err(StoreError::Io(std::io::Error::other("refused"))),
        }
    }
    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.0.get_snapshot(key)
    }
}

#[test]
fn core_documents_alone_carry_re_replies_across_a_crash() {
    let keys = [
        KeyPair::generate_from_seed(1000),
        KeyPair::generate_from_seed(1001),
    ];
    let mut ring = KeyRing::new();
    for (i, k) in keys.iter().enumerate() {
        ring.register(party(i), k.public_key());
    }
    let mut net = SimNet::new(73);
    for (i, k) in keys.into_iter().enumerate() {
        net.add_node(
            Coordinator::builder(party(i), k)
                .ring(ring.clone())
                .config(CoordinatorConfig::default())
                .store(Arc::new(CoreOnly(MemStore::new())))
                .seed(i as u64 + 1)
                .build(),
        );
    }
    let oid = ObjectId::new("counter");
    let o = oid.clone();
    net.invoke(&party(0), move |c, _| {
        c.register_object(o, Box::new(counter_factory)).unwrap();
    });
    let o = oid.clone();
    net.invoke(&party(1), move |c, ctx| {
        c.request_connect(o, Box::new(counter_factory), party(0), ctx)
            .unwrap();
    });
    net.run_until_quiet(QUIET);
    assert!(net.node(&party(1)).is_member(&oid));

    let rec = Arc::new(Mutex::new(Recorded::default()));
    net.set_intruder(recorder(rec.clone()));
    let o = oid.clone();
    let run = net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&o, enc(5), ctx).unwrap()
    });
    net.run_until_quiet(QUIET);
    assert!(net.node(&party(1)).outcome_of(&run).unwrap().is_installed());
    let (m1, m2, m2_body, m3_body) = {
        let r = rec.lock().unwrap();
        (
            r.m1.clone().unwrap(),
            r.m2.clone().unwrap(),
            body(&r.m2),
            body(&r.m3),
        )
    };

    // The proposer and the recipient crash after the round and come back
    // from their core documents and their logs.
    let t = net.now();
    for who in [0, 1] {
        net.crash_at(t + TimeMs(1), party(who));
        net.recover_at(t + TimeMs(50), party(who));
    }
    net.run_until_quiet(QUIET);
    // The recipient answers a duplicate m1 with its response, and the
    // proposer a duplicate m2 with its decide.
    assert_eq!(answer(&mut net, 0, 1, &m1, 0xf0), vec![m2_body]);
    assert_eq!(answer(&mut net, 1, 0, &m2, 0xf1), vec![m3_body]);
}
