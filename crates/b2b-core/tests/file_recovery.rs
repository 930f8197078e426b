//! Crash recovery backed by the real on-disk WAL ([`FileStore`]) rather
//! than the in-memory store: the full §3 persistence story — evidence log,
//! checkpoints and active-run state all surviving on disk.

mod common;

use b2b_core::{Coordinator, ObjectId};
use b2b_crypto::{CanonicalDecode, KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2b_evidence::{EvidenceStore, FileStore};
use b2b_net::{FaultPlan, SimNet};
use common::{counter_factory, dec, enc};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("b2b-file-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn org(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

#[test]
fn crash_recovery_from_disk_wal() {
    let dir = temp_dir("e2e");
    let mut ring = KeyRing::new();
    let kp0 = KeyPair::generate_from_seed(1);
    let kp1 = KeyPair::generate_from_seed(2);
    ring.register(org(0), kp0.public_key());
    ring.register(org(1), kp1.public_key());
    let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(9));

    let store0 = Arc::new(FileStore::open(dir.join("org0")).unwrap());
    let store1 = Arc::new(FileStore::open(dir.join("org1")).unwrap());

    let mut net = SimNet::new(42);
    net.set_default_plan(FaultPlan::new().delay(TimeMs(10), TimeMs(10)));
    net.add_node(
        Coordinator::builder(org(0), kp0)
            .ring(ring.clone())
            .tsa(tsa.clone())
            .store(store0.clone())
            .seed(1)
            .build(),
    );
    net.add_node(
        Coordinator::builder(org(1), kp1)
            .ring(ring)
            .tsa(tsa)
            .store(store1.clone())
            .seed(2)
            .build(),
    );

    // Set up the shared object and agree one value.
    net.invoke(&org(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    let sponsor = org(0);
    net.invoke(&org(1), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    net.run_until_quiet(TimeMs(600_000));
    let oid = ObjectId::new("c");
    net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(11), ctx).unwrap();
    });
    net.run_until_quiet(TimeMs(600_000));

    // Crash org1 mid-way through a second run; the WAL carries it across.
    let t0 = net.now();
    net.crash_at(t0 + TimeMs(15), org(1)); // after m1 arrives, around respond
    net.recover_at(t0 + TimeMs(3_000), org(1));
    let oid = ObjectId::new("c");
    let run = net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(25), ctx).unwrap()
    });
    net.run_until_quiet(TimeMs(600_000));

    assert!(net.node(&org(0)).outcome_of(&run).unwrap().is_installed());
    assert_eq!(
        dec(&net.node(&org(1)).agreed_state(&ObjectId::new("c")).unwrap()),
        25
    );
    // The evidence files really exist on disk and replay cleanly.
    drop(net);
    let reopened = FileStore::open(dir.join("org1")).unwrap();
    assert!(reopened.len() > 0, "org1's WAL holds evidence records");
    let kinds: Vec<_> = reopened.records().iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&b2b_evidence::EvidenceKind::StateRespond));
    assert!(kinds.contains(&b2b_evidence::EvidenceKind::Checkpoint));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn evidence_on_disk_supports_arbitration_after_restart() {
    // Write a full run through FileStores, drop everything, reopen the
    // logs cold and let the arbiter judge from them.
    let dir = temp_dir("arbit");
    let mut ring = KeyRing::new();
    let kp0 = KeyPair::generate_from_seed(5);
    let kp1 = KeyPair::generate_from_seed(6);
    ring.register(org(0), kp0.public_key());
    ring.register(org(1), kp1.public_key());

    {
        let store0 = Arc::new(FileStore::open(dir.join("org0")).unwrap());
        let store1 = Arc::new(FileStore::open(dir.join("org1")).unwrap());
        let mut net = SimNet::new(7);
        net.add_node(
            Coordinator::builder(org(0), kp0)
                .ring(ring.clone())
                .store(store0)
                .seed(1)
                .build(),
        );
        net.add_node(
            Coordinator::builder(org(1), kp1)
                .ring(ring.clone())
                .store(store1)
                .seed(2)
                .build(),
        );
        net.invoke(&org(0), |c, _| {
            c.register_object(ObjectId::new("c"), Box::new(counter_factory))
                .unwrap();
        });
        let sponsor = org(0);
        net.invoke(&org(1), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        net.run_until_quiet(TimeMs(600_000));
        let oid = ObjectId::new("c");
        net.invoke(&org(0), move |c, ctx| {
            c.propose_overwrite(&oid, enc(9), ctx).unwrap();
        });
        net.run_until_quiet(TimeMs(600_000));
    } // everything dropped; only the files remain

    let cold = FileStore::open(dir.join("org0")).unwrap();
    let records = cold.records();
    // Find the installed state tuple from the checkpoint record.
    let state: b2b_core::StateId = records
        .iter()
        .filter(|r| r.kind == b2b_evidence::EvidenceKind::Checkpoint)
        .filter_map(|r| b2b_core::StateId::from_canonical(&r.payload).ok())
        .next_back()
        .expect("checkpoint exists");
    let arbiter = b2b_core::Arbiter::new(ring);
    let claim = b2b_core::Claim::StateValid {
        object: ObjectId::new("c"),
        state,
    };
    assert!(arbiter.judge(&claim, &cold).is_upheld());
    std::fs::remove_dir_all(&dir).unwrap();
}
