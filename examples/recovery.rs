//! Crash recovery demo (§3 check-pointing): a party crashes mid-run,
//! recovers from its on-disk write-ahead log, and the run completes —
//! evidence and checkpoints surviving on real files.
//!
//! Run with: `cargo run --example recovery`

use b2bobjects::apps::SharedCell;
use b2bobjects::core::{Coordinator, Decision, ObjectId};
use b2bobjects::crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2bobjects::evidence::{EvidenceStore, FileStore};
use b2bobjects::net::{FaultPlan, SimNet};
use std::sync::Arc;

fn counter() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(SharedCell::new(0u64).with_validator(|_w, old, new| {
        if new >= old {
            Decision::accept()
        } else {
            Decision::reject("no decreases")
        }
    }))
}

fn main() {
    let dir = std::env::temp_dir().join(format!("b2b-recovery-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("write-ahead logs under {}", dir.display());

    let alice = PartyId::new("alice");
    let bob = PartyId::new("bob");
    let kp_a = KeyPair::generate_from_seed(1);
    let kp_b = KeyPair::generate_from_seed(2);
    let mut ring = KeyRing::new();
    ring.register(alice.clone(), kp_a.public_key());
    ring.register(bob.clone(), kp_b.public_key());

    let store_a = Arc::new(FileStore::open(dir.join("alice")).unwrap());
    let store_b = Arc::new(FileStore::open(dir.join("bob")).unwrap());

    let mut net = SimNet::new(1);
    net.set_default_plan(FaultPlan::new().delay(TimeMs(10), TimeMs(10)));
    net.add_node(
        Coordinator::builder(alice.clone(), kp_a)
            .ring(ring.clone())
            .store(store_a)
            .seed(1)
            .build(),
    );
    net.add_node(
        Coordinator::builder(bob.clone(), kp_b)
            .ring(ring)
            .store(store_b.clone())
            .seed(2)
            .build(),
    );

    net.invoke(&alice, |c, _| {
        c.register_object(ObjectId::new("ledger"), Box::new(counter))
            .unwrap();
    });
    let sponsor = alice.clone();
    net.invoke(&bob, move |c, ctx| {
        c.request_connect(ObjectId::new("ledger"), Box::new(counter), sponsor, ctx)
            .unwrap();
    });
    net.run_until_quiet(TimeMs(60_000));
    println!(
        "group formed: {:?}",
        net.node(&alice).members(&ObjectId::new("ledger")).unwrap()
    );

    // Crash bob right as a run starts; recover him 3 seconds later.
    let t0 = net.now();
    net.crash_at(t0 + TimeMs(15), bob.clone());
    net.recover_at(t0 + TimeMs(3_000), bob.clone());
    println!("bob will crash at t+15ms and recover at t+3000ms");

    let oid = ObjectId::new("ledger");
    let run = net.invoke(&alice, move |c, ctx| {
        c.propose_overwrite(&oid, serde_json::to_vec(&42u64).unwrap(), ctx)
            .unwrap()
    });
    net.run_until_quiet(TimeMs(600_000));

    println!(
        "run outcome at alice: {:?}",
        net.node(&alice).outcome_of(&run).unwrap()
    );
    let bob_state: u64 = serde_json::from_slice(
        &net.node(&bob)
            .agreed_state(&ObjectId::new("ledger"))
            .unwrap(),
    )
    .unwrap();
    println!("bob's state after recovering from its WAL: {bob_state}");
    println!(
        "bob's on-disk evidence log holds {} records (replayed on recovery)",
        store_b.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
