//! Evidence-content checks: time-stamping of all signed evidence (§4.2),
//! event-stream semantics, and traffic accounting queries.

mod common;

use b2b_core::{CoordEventKind, ObjectId};
use b2b_crypto::CanonicalDecode;
use b2b_evidence::{EvidenceKind, EvidenceStore};
use common::*;

#[test]
fn all_signed_evidence_is_time_stamped_when_tsa_present() {
    // §4.2: "all signed evidence must be time-stamped". The cluster
    // harness configures a TSA, so every signed record must carry a
    // verifying token.
    let mut cluster = Cluster::new(2, 600);
    cluster.setup_object("c", counter_factory);
    cluster.propose(0, "c", enc(5));
    let tsa_key = cluster.tsa.public_key();
    for who in 0..2 {
        for rec in cluster.stores[&party(who)].records() {
            if rec.signature.is_some() {
                let ts = rec
                    .timestamp
                    .as_ref()
                    .unwrap_or_else(|| panic!("signed {} record lacks a time-stamp", rec.kind));
                assert!(
                    ts.verify(&tsa_key, &rec.payload).is_ok(),
                    "time-stamp on {} record verifies",
                    rec.kind
                );
            }
        }
    }
}

#[test]
fn timestamps_carry_protocol_time_order() {
    let mut cluster = Cluster::new(2, 601);
    cluster.setup_object("c", counter_factory);
    cluster.propose(0, "c", enc(5));
    let records = cluster.stores[&party(0)].records();
    let times: Vec<u64> = records.iter().map(|r| r.logged_at.as_millis()).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "log order follows protocol time");
}

#[test]
fn take_events_drains_and_preserves_order() {
    let mut cluster = Cluster::new(2, 602);
    cluster.setup_object("c", counter_factory);
    cluster.net.invoke(&party(0), |c, _| {
        let _ = c.take_events(); // clear setup noise
    });
    let run1 = cluster.propose(0, "c", enc(1));
    let run2 = cluster.propose(0, "c", enc(2));
    let events = cluster.net.invoke(&party(0), |c, _| c.take_events());
    let completed: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.event, CoordEventKind::Completed { .. }))
        .map(|e| e.run)
        .collect();
    assert_eq!(completed, vec![run1, run2], "completions in order");
    // Drained: a second take returns nothing new.
    let events = cluster.net.invoke(&party(0), |c, _| c.take_events());
    assert!(events.is_empty());
}

#[test]
fn message_counts_break_down_by_kind() {
    let mut cluster = Cluster::new(3, 603);
    cluster.setup_object("c", counter_factory);
    cluster.propose(0, "c", enc(5));
    let counts = cluster
        .net
        .invoke(&party(0), |c, _| c.message_counts().clone());
    assert_eq!(counts.get("propose"), Some(&2), "m1 to both recipients");
    assert_eq!(counts.get("decide"), Some(&2), "m3 to both recipients");
    // org0 sponsored org1's admission: one connect-propose… to nobody
    // (singleton), so no entry; it sent the welcome though.
    assert!(counts.contains_key("welcome"));
    let recipient_counts = cluster
        .net
        .invoke(&party(1), |c, _| c.message_counts().clone());
    assert_eq!(recipient_counts.get("respond"), Some(&1));
}

#[test]
fn checkpoint_records_reference_installed_tuples() {
    let mut cluster = Cluster::new(2, 604);
    cluster.setup_object("c", counter_factory);
    let run = cluster.propose(0, "c", enc(9));
    let agreed = cluster
        .net
        .node(&party(0))
        .agreed_id(&ObjectId::new("c"))
        .unwrap();
    let checkpoints: Vec<b2b_core::StateId> = cluster.stores[&party(0)]
        .records_for_run(&run.to_hex())
        .into_iter()
        .filter(|r| r.kind == EvidenceKind::Checkpoint)
        .filter_map(|r| b2b_core::StateId::from_canonical(&r.payload).ok())
        .collect();
    assert_eq!(checkpoints, vec![agreed]);
}

#[test]
fn validate_locally_preflights_policy() {
    let mut cluster = Cluster::new(2, 605);
    cluster.setup_object("c", counter_factory);
    cluster.propose(0, "c", enc(10));
    let (ok, bad) = cluster.net.invoke(&party(1), |c, _| {
        (
            c.validate_locally(&ObjectId::new("c"), &enc(11)).unwrap(),
            c.validate_locally(&ObjectId::new("c"), &enc(2)).unwrap(),
        )
    });
    assert!(ok.is_accept());
    assert!(!bad.is_accept());
    let err = cluster.net.invoke(&party(1), |c, _| {
        c.validate_locally(&ObjectId::new("nope"), &enc(1))
    });
    assert!(err.is_err());
}
