//! Integration tests of the connection and disconnection protocols (§4.5).

mod common;

use b2b_apps::SharedCell;
use b2b_core::{ConnectStatus, Decision, ObjectId};
use common::*;

#[test]
fn sequential_joins_agree_on_membership_and_sponsor() {
    let mut cluster = Cluster::new(4, 30);
    cluster.setup_object("counter", counter_factory);
    let expected: Vec<_> = (0..4).map(party).collect();
    for who in 0..4 {
        assert_eq!(cluster.members(who, "counter"), expected);
        assert_eq!(
            cluster
                .net
                .node(&party(who))
                .sponsor_of(&ObjectId::new("counter")),
            Some(party(3)),
            "sponsor is the most recently joined member"
        );
    }
    // Group identifiers agree everywhere.
    let gid = cluster.net.node(&party(0)).group(&ObjectId::new("counter"));
    for who in 1..4 {
        assert_eq!(
            cluster
                .net
                .node(&party(who))
                .group(&ObjectId::new("counter")),
            gid
        );
    }
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "7936b31f3baeb2214d9a21c97d7948c72a1a25e1df2e95b90ba809fca1beaa24",
    );
    assert_shape(
        &cluster,
        "counter",
        "8137461831434e05d17d72c5fd44ad1cc05c49ac5c9626206d7fd85548fe0728",
    );
}

#[test]
fn joiner_receives_current_agreed_state() {
    let mut cluster = Cluster::new(3, 31);
    // Set up a 2-party group first, mutate state, then connect org2.
    let oid = ObjectId::new("counter");
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(counter_factory))
            .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(
            ObjectId::new("counter"),
            Box::new(counter_factory),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();
    cluster.propose(0, "counter", enc(77));

    let sponsor = party(1); // most recently joined
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.request_connect(
            ObjectId::new("counter"),
            Box::new(counter_factory),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();
    assert!(cluster.net.node(&party(2)).is_member(&oid));
    assert_eq!(dec(&cluster.state(2, "counter")), 77);
    // And the joiner participates in validation immediately.
    let run = cluster.propose(2, "counter", enc(80));
    assert!(cluster.outcome(2, &run).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(0, "counter")), 80);
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "873db3e41769f1f13c185f8c041165d2e91cdde2c1dc478e6215fd5a63658d21",
    );
    assert_shape(
        &cluster,
        "counter",
        "811664691e77810ce4927df48d84072aee2751f2441e59dd7977a6ea08291a0b",
    );
}

#[test]
fn connect_vetoed_by_member_is_indistinguishable_from_immediate_reject() {
    // org0 registers with a validator that rejects org2's admission; org1
    // joins fine; org2's request is vetoed by org0.
    let mut cluster = Cluster::new(3, 32);
    let picky = || {
        let cell = SharedCell::new(0u64);
        struct Picky(SharedCell<u64>);
        impl b2b_core::B2BObject for Picky {
            fn get_state(&self) -> Vec<u8> {
                self.0.get_state()
            }
            fn apply_state(&mut self, s: &[u8]) {
                self.0.apply_state(s)
            }
            fn validate_state(&self, w: &b2b_crypto::PartyId, c: &[u8], p: &[u8]) -> Decision {
                self.0.validate_state(w, c, p)
            }
            fn validate_connect(&self, subject: &b2b_crypto::PartyId) -> Decision {
                if subject.as_str() == "org2" {
                    Decision::reject("org2 not welcome")
                } else {
                    Decision::accept()
                }
            }
        }
        Box::new(Picky(cell)) as Box<dyn b2b_core::B2BObject>
    };
    cluster.net.invoke(&party(0), move |c, _| {
        c.register_object(ObjectId::new("obj"), Box::new(picky))
            .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(
            ObjectId::new("obj"),
            Box::new(counter_factory),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();
    assert!(cluster.net.node(&party(1)).is_member(&ObjectId::new("obj")));

    // org2 asks the legitimate sponsor (org1, newest); org0 vetoes.
    let sponsor = party(1);
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.request_connect(
            ObjectId::new("obj"),
            Box::new(counter_factory),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();
    assert_eq!(
        cluster
            .net
            .node(&party(2))
            .connect_status(&ObjectId::new("obj")),
        Some(&ConnectStatus::Rejected)
    );
    // Membership unchanged at the insiders.
    assert_eq!(cluster.members(0, "obj").len(), 2);
    assert_eq!(cluster.members(1, "obj").len(), 2);
    assert_history(&cluster, "obj");
    assert_golden(
        &cluster,
        "obj",
        "24c2ba0d4dae664df334115606cfc1873f865777520752157e1fc11cdb7be2e2",
    );
    assert_shape(
        &cluster,
        "obj",
        "fe0ac487ba28c074c951a37630aea4f07d646d28abf76ae1de71ee1f61386362",
    );
}

#[test]
fn immediate_rejection_by_sponsor() {
    // The sponsor itself refuses: same observable result for the subject.
    let mut cluster = Cluster::new(2, 33);
    let picky = || {
        struct NoOne(SharedCell<u64>);
        impl b2b_core::B2BObject for NoOne {
            fn get_state(&self) -> Vec<u8> {
                self.0.get_state()
            }
            fn apply_state(&mut self, s: &[u8]) {
                self.0.apply_state(s)
            }
            fn validate_state(&self, w: &b2b_crypto::PartyId, c: &[u8], p: &[u8]) -> Decision {
                self.0.validate_state(w, c, p)
            }
            fn validate_connect(&self, _subject: &b2b_crypto::PartyId) -> Decision {
                Decision::reject("closed group")
            }
        }
        Box::new(NoOne(SharedCell::new(0u64))) as Box<dyn b2b_core::B2BObject>
    };
    cluster.net.invoke(&party(0), move |c, _| {
        c.register_object(ObjectId::new("obj"), Box::new(picky))
            .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(
            ObjectId::new("obj"),
            Box::new(counter_factory),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();
    assert_eq!(
        cluster
            .net
            .node(&party(1))
            .connect_status(&ObjectId::new("obj")),
        Some(&ConnectStatus::Rejected)
    );
    assert_history(&cluster, "obj");
    assert_golden(
        &cluster,
        "obj",
        "23c9bebb55fb92c997de2417bc46b1672cad28576104bc90e10ac2175f64f3e5",
    );
    assert_shape(
        &cluster,
        "obj",
        "c8eadd2beb6fe91228a53c9d171f5b9f05c6f2c4bcca8549776c016988dbad9f",
    );
}

#[test]
fn voluntary_disconnect_of_sponsor_rotates_sponsorship() {
    let mut cluster = Cluster::new(3, 34);
    cluster.setup_object("counter", counter_factory);
    // org2 (the sponsor) leaves; the disconnect sponsor is org1.
    cluster.net.invoke(&party(2), |c, ctx| {
        c.request_disconnect(&ObjectId::new("counter"), ctx)
            .unwrap();
    });
    cluster.run();
    assert!(!cluster
        .net
        .node(&party(2))
        .is_member(&ObjectId::new("counter")));
    for who in 0..2 {
        assert_eq!(cluster.members(who, "counter"), vec![party(0), party(1)]);
        assert_eq!(
            cluster
                .net
                .node(&party(who))
                .sponsor_of(&ObjectId::new("counter")),
            Some(party(1))
        );
    }
    // The remaining pair still coordinates.
    let run = cluster.propose(0, "counter", enc(9));
    assert!(cluster.outcome(1, &run).unwrap().is_installed());
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "d2d39c308badadb5b7526c50a4b94896c8e3fb47158b1e014e057edcc89516a1",
    );
    assert_shape(
        &cluster,
        "counter",
        "a2fd433877a4e2c12abe459baca4c279ed55eb2728945dba4e09b8521215899a",
    );
}

#[test]
fn two_party_disconnect_leaves_singleton() {
    let mut cluster = Cluster::new(2, 35);
    cluster.setup_object("counter", counter_factory);
    cluster.net.invoke(&party(1), |c, ctx| {
        c.request_disconnect(&ObjectId::new("counter"), ctx)
            .unwrap();
    });
    cluster.run();
    assert!(!cluster
        .net
        .node(&party(1))
        .is_member(&ObjectId::new("counter")));
    assert_eq!(cluster.members(0, "counter"), vec![party(0)]);
    // Singleton keeps working (trivially unanimous).
    let run = cluster.propose(0, "counter", enc(50));
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "e8c2c0cae12d3910daa974c1d55e9283e40a9dd11199c7b421a229bf4ae3ed32",
    );
    assert_shape(
        &cluster,
        "counter",
        "8abf5bf5a3d9b63302dc5835ca116a65e74cf8133559ded252e55d37d477c482",
    );
}

#[test]
fn eviction_excludes_subject_from_the_vote() {
    let mut cluster = Cluster::new(3, 36);
    cluster.setup_object("counter", counter_factory);
    let before = cluster.net.node(&party(1)).messages_sent();
    cluster.net.invoke(&party(0), |c, ctx| {
        c.request_evict(&ObjectId::new("counter"), vec![party(1)], ctx)
            .unwrap();
    });
    cluster.run();
    // org1 sent nothing during its own eviction.
    assert_eq!(cluster.net.node(&party(1)).messages_sent(), before);
    for who in [0usize, 2] {
        assert_eq!(cluster.members(who, "counter"), vec![party(0), party(2)]);
    }
    // The evictee still believes it is a member (it was not consulted)…
    assert!(cluster
        .net
        .node(&party(1))
        .is_member(&ObjectId::new("counter")));
    // …but can no longer get anything installed: the remaining group's
    // identifiers have moved on.
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(1), move |c, ctx| {
        c.propose_overwrite(&oid, enc(99), ctx).unwrap()
    });
    cluster.run();
    assert!(
        !cluster
            .outcome(1, &run)
            .map(|o| o.is_installed())
            .unwrap_or(false),
        "evictee cannot impose state on the new group"
    );
    assert_eq!(dec(&cluster.state(0, "counter")), 0);
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "7d853b4c5fb189518bf4fbbb3d274914557908180f33b99b64158a38e3008719",
    );
    assert_shape(
        &cluster,
        "counter",
        "0e87298971aeca390cc581ca8a04af6216deb3cab5dd689e41d4a5afb7a179d5",
    );
}

#[test]
fn subset_eviction_forms_cooperating_subgroup() {
    let mut cluster = Cluster::new(4, 37);
    cluster.setup_object("counter", counter_factory);
    cluster.net.invoke(&party(0), |c, ctx| {
        c.request_evict(&ObjectId::new("counter"), vec![party(1), party(2)], ctx)
            .unwrap();
    });
    cluster.run();
    for who in [0usize, 3] {
        assert_eq!(cluster.members(who, "counter"), vec![party(0), party(3)]);
    }
    // The remaining subgroup makes forward progress (§4.5.4).
    let run = cluster.propose(3, "counter", enc(5));
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "c9630b89263840fde3d89a42deee27514be2276bec261330a8db07f777329d52",
    );
    assert_shape(
        &cluster,
        "counter",
        "382524d6aa4c0b474f1c400c8ad1915117b49f315f2c41ba15e6c34a560ecf9a",
    );
}

#[test]
fn membership_requests_queue_behind_active_run() {
    // A connect request arriving while a state run is active is deferred,
    // not lost (§4.5.1 sponsor blocking).
    let mut cluster = Cluster::new(2, 38);
    cluster.setup_object("counter", counter_factory);
    // Partition org1 so the state run stays active at org0 (no response).
    cluster
        .net
        .partition([party(0)], [party(1)], b2b_crypto::TimeMs(5_000));
    let oid = ObjectId::new("counter");
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(1), ctx).unwrap();
    });
    // org2 does not exist in this 2-party cluster; instead verify the
    // sponsor queues a disconnect request from org1 arriving later. Use
    // run-until to let the partition heal and everything drain.
    cluster.run();
    // After healing, the run completes and the object is idle again.
    assert!(!cluster
        .net
        .node(&party(0))
        .is_busy(&ObjectId::new("counter")));
    assert_eq!(dec(&cluster.state(1, "counter")), 1);
    assert_history(&cluster, "counter");
    assert_golden(
        &cluster,
        "counter",
        "fdd1440ffe4d7b7f0bd65b17709a25587b54dfc33fd388bb39a0967388072bd3",
    );
    assert_shape(
        &cluster,
        "counter",
        "5a81611f52718b76e6aeaba4d72810251c64546b956349367fdf18b85e424748",
    );
}

#[test]
fn third_party_joins_while_state_run_in_flight_queues() {
    let mut cluster = Cluster::new(3, 39);
    // Two-party group; org2 will ask to join exactly while a state run is
    // active at the sponsor.
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();

    // Slow the org0→org1 link so the state run stays in flight.
    cluster.net.set_link_plan(
        party(0),
        party(1),
        b2b_net::FaultPlan::new().delay(b2b_crypto::TimeMs(500), b2b_crypto::TimeMs(500)),
    );
    let oid = ObjectId::new("c");
    let t0 = cluster.net.now();
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(5), ctx).unwrap();
    });
    // m1 reaches org1 at t0+500 and the decide only at ~t0+1001, so at
    // t0+700 org1 holds an active Recipient run: a connect request arriving
    // now must be queued behind it (§4.5.1), not lost.
    cluster.net.run_until(t0 + b2b_crypto::TimeMs(700));
    let sponsor = party(1);
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    // Both the state change and the (queued) admission complete.
    assert_eq!(dec(&cluster.state(0, "c")), 5);
    assert!(cluster.net.node(&party(2)).is_member(&ObjectId::new("c")));
    assert_eq!(cluster.members(0, "c").len(), 3);
    assert_eq!(dec(&cluster.state(2, "c")), 5);
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "2261ee5400afab81abf1c2a9ce7c7a673ed75f0ffb928493ed39e9dd73e7d807",
    );
    assert_shape(
        &cluster,
        "c",
        "82d9e1d614ae00111fbee3bf2ddd55602cefb43d59b4057f2f07cad4d6e46827",
    );
}

#[test]
fn membership_change_message_cost() {
    // Connection: request + (n−1 propose) + (n−1 respond) + (n−1 decide)
    // + welcome = 3n − 1 messages for a group growing from n to n+1.
    const GOLDEN: [&str; 3] = [
        "898e098e057deff188255e4274cd024235f4e16594802b168e0c4ddb80f3d0b8",
        "cad2bef1cf789354fc094190ded7877c40144660f5231dcaaed7d6e9746099b6",
        "b9506b61a036fb7ef351f7cf181321bd7a87ce28f12714176ce19598743f5e58",
    ];
    const SHAPES: [&str; 3] = [
        "8c87814d212bca41d0a861e35990df414fbc8f495a312358c8b33e03afbec9fe",
        "aae4d8eaeae133cc9de04716d65a9290bf99c97ae681bdf8a93eea2a3c0cd8b1",
        "435c4f6babd4ea83dbc9131c797ee899d52395e5764070541a541690469630a0",
    ];
    for n in 2..=4u64 {
        let mut cluster = Cluster::new(n as usize + 1, 40 + n);
        // Build group of n first.
        cluster.net.invoke(&party(0), |c, _| {
            c.register_object(ObjectId::new("c"), Box::new(counter_factory))
                .unwrap();
        });
        for i in 1..n as usize {
            let sponsor = party(i - 1);
            cluster.net.invoke(&party(i), move |c, ctx| {
                c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                    .unwrap();
            });
            cluster.run();
        }
        let before = cluster.total_protocol_messages();
        let sponsor = party(n as usize - 1);
        let joiner = party(n as usize);
        cluster.net.invoke(&joiner, move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        cluster.run();
        let after = cluster.total_protocol_messages();
        assert_eq!(after - before, 3 * n - 1, "connect into group of {n}");
        assert_history(&cluster, "c");
        assert_golden(&cluster, "c", GOLDEN[n as usize - 2]);
        assert_shape(&cluster, "c", SHAPES[n as usize - 2]);
    }
}

#[test]
fn sponsor_files_the_signed_request_of_every_change_it_puts_to_a_vote() {
    use b2b_core::messages::{MemberChange, MemberRequest};
    use b2b_crypto::CanonicalDecode;
    use b2b_evidence::{verify_record, EvidenceKind, EvidenceStore};
    let mut cluster = Cluster::new(3, 37);
    cluster.setup_object("counter", counter_factory);
    let oid = ObjectId::new("counter");
    // org0 asks the sponsor, org2, to evict org1; then org0 leaves.
    let evict = oid.clone();
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.request_evict(&evict, vec![party(1)], ctx).unwrap();
    });
    cluster.run();
    assert_eq!(cluster.members(2, "counter"), vec![party(0), party(2)]);
    let leave = oid.clone();
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.request_disconnect(&leave, ctx).unwrap();
    });
    cluster.run();
    assert_eq!(cluster.members(2, "counter"), vec![party(2)]);
    let filed: Vec<MemberChange> = cluster.stores[&party(2)]
        .records()
        .into_iter()
        .filter(|r| r.kind == EvidenceKind::MemberRequest && r.origin == party(0))
        .map(|r| {
            assert_eq!(verify_record(&r, &cluster.ring, None), Ok(()));
            MemberRequest::from_canonical(&r.payload).unwrap().change
        })
        .collect();
    let evicted = MemberChange::Evict {
        subjects: vec![party(1)],
    };
    assert_eq!(filed, vec![evicted, MemberChange::Leave]);
}
