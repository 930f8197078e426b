//! Quickstart: two organisations share a grow-only counter.
//!
//! Demonstrates the minimal B2BObjects lifecycle — register, connect,
//! coordinate a valid change, watch an invalid change get vetoed — on the
//! deterministic simulator.
//!
//! Run with: `cargo run --example quickstart`

use b2bobjects::apps::SharedCell;
use b2bobjects::core::{Coordinator, Decision, ObjectId, Outcome};
use b2bobjects::crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2bobjects::net::SimNet;

fn counter() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(SharedCell::new(0u64).with_validator(|_who, old, new| {
        if new >= old {
            Decision::accept()
        } else {
            Decision::reject("the counter may not decrease")
        }
    }))
}

fn main() {
    // Every party has a signing key; the shared ring lets each verify the
    // others' signatures (paper §4.2).
    let (alice, bob) = (PartyId::new("alice-corp"), PartyId::new("bob-ltd"));
    let kp_a = KeyPair::generate_from_seed(1);
    let kp_b = KeyPair::generate_from_seed(2);
    let mut ring = KeyRing::new();
    ring.register(alice.clone(), kp_a.public_key());
    ring.register(bob.clone(), kp_b.public_key());

    let mut net = SimNet::new(42);
    net.add_node(
        Coordinator::builder(alice.clone(), kp_a)
            .ring(ring.clone())
            .seed(1)
            .build(),
    );
    net.add_node(
        Coordinator::builder(bob.clone(), kp_b)
            .ring(ring)
            .seed(2)
            .build(),
    );

    // alice-corp creates the shared object; bob-ltd joins via the
    // connection protocol (§4.5), sponsored by alice-corp.
    net.invoke(&alice, |c, _| {
        c.register_object(ObjectId::new("contract-counter"), Box::new(counter))
            .unwrap();
    });
    let sponsor = alice.clone();
    net.invoke(&bob, move |c, ctx| {
        c.request_connect(
            ObjectId::new("contract-counter"),
            Box::new(counter),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    net.run_until_quiet(TimeMs(60_000));
    println!(
        "members: {:?}",
        net.node(&alice)
            .members(&ObjectId::new("contract-counter"))
            .unwrap()
    );

    // A valid increase: unanimously agreed and installed at both replicas.
    let oid = ObjectId::new("contract-counter");
    let run = net.invoke(&bob, move |c, ctx| {
        c.propose_overwrite(&oid, serde_json::to_vec(&10u64).unwrap(), ctx)
            .unwrap()
    });
    net.run_until_quiet(TimeMs(60_000));
    println!(
        "bob proposes 10 → {:?}",
        net.node(&bob).outcome_of(&run).unwrap()
    );

    // An invalid decrease: vetoed by alice-corp's local policy, with
    // non-repudiable evidence of the veto at both parties.
    let oid = ObjectId::new("contract-counter");
    let run = net.invoke(&bob, move |c, ctx| {
        c.propose_overwrite(&oid, serde_json::to_vec(&3u64).unwrap(), ctx)
            .unwrap()
    });
    net.run_until_quiet(TimeMs(60_000));
    match net.node(&bob).outcome_of(&run).unwrap() {
        Outcome::Invalidated { vetoers } => {
            println!(
                "bob proposes 3 → vetoed by {} ({})",
                vetoers[0].0, vetoers[0].1
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    let state: u64 = serde_json::from_slice(
        &net.node(&alice)
            .agreed_state(&ObjectId::new("contract-counter"))
            .unwrap(),
    )
    .unwrap();
    println!("agreed counter value at both parties: {state}");
    println!(
        "evidence records held by alice-corp: {}",
        b2bobjects::evidence::EvidenceStore::len(net.node(&alice).evidence())
    );
}
