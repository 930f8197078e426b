//! Dispute resolution from non-repudiation logs (§4.1 / §4.4): after a
//! vetoed cheat, the honest party proves the veto to an offline arbiter —
//! and the cheat cannot be passed off as agreed.
//!
//! Run with: `cargo run --example dispute`

use b2bobjects::apps::SharedCell;
use b2bobjects::core::{Arbiter, Claim, Coordinator, Decision, ObjectId, Outcome, StateId};
use b2bobjects::crypto::{sha256, KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2bobjects::evidence::{EvidenceStore, LogAuditor, MemStore};
use b2bobjects::net::SimNet;
use std::sync::Arc;

fn counter() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(SharedCell::new(0u64).with_validator(|_w, old, new| {
        if new >= old {
            Decision::accept()
        } else {
            Decision::reject("the counter may not decrease")
        }
    }))
}

fn main() {
    let honest = PartyId::new("honest-org");
    let shady = PartyId::new("shady-org");
    let kp_h = KeyPair::generate_from_seed(1);
    let kp_s = KeyPair::generate_from_seed(2);
    let mut ring = KeyRing::new();
    ring.register(honest.clone(), kp_h.public_key());
    ring.register(shady.clone(), kp_s.public_key());
    let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(9));

    let store_h = Arc::new(MemStore::new());
    let store_s = Arc::new(MemStore::new());
    let mut net = SimNet::new(3);
    net.add_node(
        Coordinator::builder(honest.clone(), kp_h)
            .ring(ring.clone())
            .tsa(tsa.clone())
            .store(store_h.clone())
            .seed(1)
            .build(),
    );
    net.add_node(
        Coordinator::builder(shady.clone(), kp_s)
            .ring(ring.clone())
            .tsa(tsa.clone())
            .store(store_s.clone())
            .seed(2)
            .build(),
    );

    net.invoke(&honest, |c, _| {
        c.register_object(ObjectId::new("balance"), Box::new(counter))
            .unwrap();
    });
    let sponsor = honest.clone();
    net.invoke(&shady, move |c, ctx| {
        c.request_connect(ObjectId::new("balance"), Box::new(counter), sponsor, ctx)
            .unwrap();
    });
    net.run_until_quiet(TimeMs(60_000));

    // A legitimate agreed value, then a shady attempt to shrink it.
    let oid = ObjectId::new("balance");
    net.invoke(&shady, move |c, ctx| {
        c.propose_overwrite(&oid, serde_json::to_vec(&100u64).unwrap(), ctx)
            .unwrap();
    });
    net.run_until_quiet(TimeMs(60_000));
    let oid = ObjectId::new("balance");
    let cheat_run = net.invoke(&shady, move |c, ctx| {
        c.propose_overwrite(&oid, serde_json::to_vec(&1u64).unwrap(), ctx)
            .unwrap()
    });
    net.run_until_quiet(TimeMs(60_000));
    match net.node(&shady).outcome_of(&cheat_run).unwrap() {
        Outcome::Invalidated { vetoers } => {
            println!(
                "shady-org proposed 1 (down from 100): vetoed by {}",
                vetoers[0].0
            )
        }
        other => println!("unexpected: {other:?}"),
    }

    // --- arbitration, offline, from the logs alone ---
    let arbiter = Arbiter::new(ring.clone());

    // 1. honest-org proves the veto from ITS OWN log.
    let veto_claim = Claim::StateVetoed {
        object: ObjectId::new("balance"),
        run: cheat_run,
    };
    println!(
        "arbiter on honest-org's log, claim \"run was vetoed\": {:?}",
        arbiter.judge(&veto_claim, &*store_h)
    );

    // 2. shady-org cannot get the cheat upheld as valid — not even from
    //    its own log, which contains honest-org's signed rejection.
    let bogus = Claim::StateValid {
        object: ObjectId::new("balance"),
        state: StateId {
            seq: 2,
            rand_hash: sha256(b"anything"),
            state_hash: sha256(&serde_json::to_vec(&1u64).unwrap()),
        },
    };
    println!(
        "arbiter on shady-org's log, claim \"cheat state is valid\": {:?}",
        arbiter.judge(&bogus, &*store_s)
    );

    // 3. the agreed value 100 IS provably valid, from either log.
    let agreed = net
        .node(&honest)
        .agreed_id(&ObjectId::new("balance"))
        .unwrap();
    let valid = Claim::StateValid {
        object: ObjectId::new("balance"),
        state: agreed,
    };
    println!(
        "arbiter on honest-org's log, claim \"value 100 was agreed\": {:?}",
        arbiter.judge(&valid, &*store_h)
    );

    // 4. full cryptographic audit of both logs.
    let auditor = LogAuditor::new(ring, Some(tsa.public_key()));
    for (name, store) in [("honest-org", &store_h), ("shady-org", &store_s)] {
        let report = auditor.audit(&**store);
        println!(
            "{name}: {} evidence records, {} verified, clean={}",
            report.total,
            report.valid,
            report.is_clean()
        );
    }
    println!(
        "(evidence record count includes proposals, responses, decides, checkpoints: {})",
        store_h.len()
    );
}
