//! Stress tests: real-thread concurrency over the in-process sharded
//! runtime, and protocol tolerance of heavy message reordering (the paper
//! requires no ordering from the communication system, §4.2).

mod common;

use b2b_core::{CoordError, Coordinator, ObjectId, Outcome};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2b_net::{FaultPlan, GroupId, ShardedNet};
use common::*;
use std::time::Duration;

fn build_sharded(n: usize) -> (ShardedNet<Coordinator>, Vec<PartyId>) {
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for i in 0..n {
        let kp = KeyPair::generate_from_seed(500 + i as u64);
        ring.register(party(i), kp.public_key());
        keys.push(kp);
    }
    let nodes = keys
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .seed(i as u64)
                .build()
        })
        .collect();
    let net = ShardedNet::builder()
        .shards(1)
        .add_group(GroupId(0), nodes)
        .spawn()
        .expect("spawn worker pool");
    (net, (0..n).map(party).collect())
}

#[test]
fn threaded_contending_proposers_never_diverge() {
    // Both parties hammer the same object from real threads. The busy rule
    // rejects overlaps; retries eventually land; replicas never diverge.
    let (net, parties) = build_sharded(2);
    let a = net.handle(GroupId(0), &parties[0]);
    let b = net.handle(GroupId(0), &parties[1]);
    a.invoke(|c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    let sponsor = parties[0].clone();
    b.invoke(move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    assert!(b.wait_until(Duration::from_secs(10), |c| c
        .is_member(&ObjectId::new("c"))));

    let mut threads = Vec::new();
    for (idx, handle) in [a.clone(), b.clone()].into_iter().enumerate() {
        threads.push(std::thread::spawn(move || {
            let mut installed = 0u32;
            for i in 0..30u64 {
                // Keep values monotone across both threads so the
                // grow-only policy never vetoes: round-major numbering.
                let value = 10 * (i + 1) + idx as u64;
                let run = handle
                    .invoke(|c, ctx| c.propose_overwrite(&ObjectId::new("c"), enc(value), ctx));
                match run {
                    Ok(run) => {
                        let done = handle
                            .wait_until(Duration::from_secs(5), |c| c.outcome_of(&run).is_some());
                        assert!(done, "outcome must arrive");
                        let (outcome, agreed) = handle.read(|c| {
                            let outcome = c.outcome_of(&run).unwrap().clone();
                            (outcome, c.agreed_id(&ObjectId::new("c")))
                        });
                        let collided = matches!(&outcome, Outcome::Invalidated { vetoers }
                            if vetoers.iter().all(|(_, r)| r == "concurrent coordination run active"));
                        if outcome.is_installed() {
                            installed += 1;
                        } else if collided && idx == 1 {
                            // A collision with the peer's run: both threads
                            // see their vetoes at once, so waiting for the
                            // object to go idle would send both next
                            // proposals in lockstep again. Party 1 yields
                            // until the agreed tuple moves — party 0's retry
                            // installed — bounded for when party 0 has no
                            // proposal left. A condition wait (not a guessed
                            // sleep) cannot flake on a loaded machine.
                            handle.wait_until(Duration::from_millis(200), |c| {
                                c.agreed_id(&ObjectId::new("c")) != agreed
                            });
                        } else {
                            // Party 0 retries once the object is idle; so
                            // does party 1 after a veto of the counter's.
                            handle.wait_until(Duration::from_millis(20 + 30 * idx as u64), |c| {
                                !c.is_busy(&ObjectId::new("c"))
                            });
                        }
                    }
                    Err(CoordError::Busy { .. }) => {
                        handle.wait_until(Duration::from_millis(20 + 20 * idx as u64), |c| {
                            !c.is_busy(&ObjectId::new("c"))
                        });
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            installed
        }));
    }
    let installed: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(installed > 0, "some proposals must land");

    // Drain and compare replicas.
    let quiesced = a.wait_until(Duration::from_secs(10), |c| !c.is_busy(&ObjectId::new("c")))
        && b.wait_until(Duration::from_secs(10), |c| !c.is_busy(&ObjectId::new("c")));
    assert!(quiesced);
    let (sa, ia) = a.read(|c| {
        (
            c.agreed_state(&ObjectId::new("c")).unwrap(),
            c.agreed_id(&ObjectId::new("c")).unwrap(),
        )
    });
    // b may still be processing the final decide; wait for its tuple to match.
    assert!(b.wait_until(Duration::from_secs(10), move |c| {
        c.agreed_id(&ObjectId::new("c")) == Some(ia)
    }));
    let sb = b.read(|c| c.agreed_state(&ObjectId::new("c")).unwrap());
    assert_eq!(sa, sb, "replicas agree after contention");
    net.shutdown();
}

#[test]
fn protocol_tolerates_heavy_reordering() {
    // §4.2: "There is no requirement for the communications system to
    // order messages." A wide delay window scrambles delivery order.
    for seed in [500u64, 501, 502] {
        let mut cluster = Cluster::with_config(
            4,
            seed,
            b2b_core::CoordinatorConfig::default(),
            FaultPlan::new().delay(TimeMs(1), TimeMs(150)),
        );
        cluster.setup_object("c", counter_factory);
        for v in [5u64, 6, 9, 12] {
            let run = cluster.propose((v % 4) as usize, "c", enc(v));
            for who in 0..4 {
                assert!(
                    cluster
                        .outcome(who, &run)
                        .map(|o| o.is_installed())
                        .unwrap_or(false),
                    "seed {seed} v {v} org{who}"
                );
            }
        }
        for who in 0..4 {
            assert_eq!(dec(&cluster.state(who, "c")), 12, "seed {seed}");
        }
    }
}

#[test]
fn many_objects_coordinate_independently() {
    // 10 objects between 3 parties, interleaved proposals — object runs
    // are independent, so all complete despite interleaving.
    let mut cluster = Cluster::new(3, 510);
    for i in 0..10 {
        cluster.setup_object(&format!("obj{i}"), counter_factory);
    }
    // Fire one proposal per object without draining between them.
    let mut runs = Vec::new();
    for i in 0..10usize {
        let oid = ObjectId::new(format!("obj{i}"));
        let v = enc(i as u64 + 1);
        let run = cluster.net.invoke(&party(i % 3), move |c, ctx| {
            c.propose_overwrite(&oid, v, ctx).unwrap()
        });
        runs.push(run);
    }
    cluster.run();
    for (i, run) in runs.iter().enumerate() {
        assert!(
            cluster.outcome(i % 3, run).unwrap().is_installed(),
            "obj{i} proposal must install"
        );
        for who in 0..3 {
            assert_eq!(dec(&cluster.state(who, &format!("obj{i}"))), i as u64 + 1);
        }
    }
}
