//! Edge cases of the membership protocols: rejoin after leaving, double
//! disconnects, eviction of the proposer's sponsor, stale requests, and
//! sponsor legitimacy enforcement.

mod common;

use b2b_core::{ConnectStatus, CoordError, ObjectId};
use common::*;

#[test]
fn leaver_can_rejoin_later() {
    let mut cluster = Cluster::new(3, 400);
    cluster.setup_object("c", counter_factory);
    cluster.propose(0, "c", enc(5));
    // org1 leaves…
    cluster.net.invoke(&party(1), |c, ctx| {
        c.request_disconnect(&ObjectId::new("c"), ctx).unwrap();
    });
    cluster.run();
    assert!(!cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    // State advances without it.
    cluster.propose(0, "c", enc(9));
    // …and rejoins via the current sponsor (org2, most recent member).
    let err = cluster.net.invoke(&party(1), |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), party(2), ctx)
    });
    // The old detached replica still occupies the alias at org1: rejoin
    // under the same alias is a DuplicateObject — callers use a fresh
    // coordinator or a new alias. This documents the boundary.
    assert!(matches!(err, Err(CoordError::DuplicateObject(_))));
    assert_golden(
        &cluster,
        "c",
        "a6f0c59785fb1c2ed438a1a1d3853d3b23b9b315715cd4d698d2ccbeda4e2547",
    );
}

#[test]
fn double_disconnect_is_rejected_locally() {
    let mut cluster = Cluster::new(2, 401);
    cluster.setup_object("c", counter_factory);
    cluster.net.invoke(&party(1), |c, ctx| {
        c.request_disconnect(&ObjectId::new("c"), ctx).unwrap();
    });
    cluster.run();
    let err = cluster.net.invoke(&party(1), |c, ctx| {
        c.request_disconnect(&ObjectId::new("c"), ctx)
    });
    assert!(matches!(err, Err(CoordError::NotMember { .. })));
    assert_golden(
        &cluster,
        "c",
        "2b01582d960ca4047cd8604b2c646c7db52dd8109ca95bc7d9a99e5f1a628262",
    );
}

#[test]
fn detached_party_cannot_propose() {
    let mut cluster = Cluster::new(2, 402);
    cluster.setup_object("c", counter_factory);
    cluster.net.invoke(&party(1), |c, ctx| {
        c.request_disconnect(&ObjectId::new("c"), ctx).unwrap();
    });
    cluster.run();
    let err = cluster.net.invoke(&party(1), |c, ctx| {
        c.propose_overwrite(&ObjectId::new("c"), enc(1), ctx)
    });
    assert!(matches!(err, Err(CoordError::NotMember { .. })));
    assert_golden(
        &cluster,
        "c",
        "2aa79b6405a9cd60c042f792b78ebda0229e257af4ed6290c23a54a3867ad688",
    );
}

#[test]
fn evicting_the_current_sponsor_moves_sponsorship() {
    let mut cluster = Cluster::new(4, 403);
    cluster.setup_object("c", counter_factory);
    // org3 is the sponsor; org0 proposes evicting it. The disconnect
    // sponsor is then org2 (most recent member not leaving).
    cluster.net.invoke(&party(0), |c, ctx| {
        c.request_evict(&ObjectId::new("c"), vec![party(3)], ctx)
            .unwrap();
    });
    cluster.run();
    for who in 0..3 {
        assert_eq!(
            cluster.members(who, "c"),
            vec![party(0), party(1), party(2)]
        );
        assert_eq!(
            cluster
                .net
                .node(&party(who))
                .sponsor_of(&ObjectId::new("c")),
            Some(party(2))
        );
    }
    // New joins go through org2 now.
    // (org3's replica still believes in the old group — checked elsewhere.)
    let run = cluster.propose(1, "c", enc(3));
    assert!(cluster.outcome(1, &run).unwrap().is_installed());
    assert_golden(
        &cluster,
        "c",
        "4cf956bbc0c0f75db2e2ad6f6041752aaae40809dfb2e15ef20e062d0af5f28d",
    );
}

#[test]
fn connect_request_to_non_sponsor_is_forwarded() {
    let mut cluster = Cluster::new(3, 404);
    // Group of 2: org0, org1 (sponsor = org1). org2 asks org0 — the wrong
    // member — which forwards to the legitimate sponsor, and the admission
    // still completes (sponsored by org1, per §4.5.1: "any member of the
    // group can identify the legitimate sponsor … and provide this
    // information").
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

    let wrong_sponsor = party(0);
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.request_connect(
            ObjectId::new("c"),
            Box::new(counter_factory),
            wrong_sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();
    assert_eq!(
        cluster
            .net
            .node(&party(2))
            .connect_status(&ObjectId::new("c")),
        Some(&ConnectStatus::Member)
    );
    assert_eq!(cluster.members(0, "c"), vec![party(0), party(1), party(2)]);
    assert_golden(
        &cluster,
        "c",
        "f8788b6123d56293d1cd095dcc1ecb33faf83d4832cb60015d784204d8d87a0d",
    );
}

#[test]
fn sole_member_disconnect_is_local() {
    let mut cluster = Cluster::new(1, 405);
    cluster.setup_object("c", counter_factory);
    cluster.net.invoke(&party(0), |c, ctx| {
        c.request_disconnect(&ObjectId::new("c"), ctx).unwrap();
    });
    cluster.run();
    assert!(!cluster.net.node(&party(0)).is_member(&ObjectId::new("c")));
    assert_golden(
        &cluster,
        "c",
        "90cf6c0256ece9032f9e06813f7b2b21839486cbd80d545abb540a3443379d24",
    );
}

#[test]
fn eviction_by_non_member_is_rejected() {
    let mut cluster = Cluster::new(3, 406);
    // Group contains only org0, org1.
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
    // org2 has no replica at all:
    let err = cluster.net.invoke(&party(2), |c, ctx| {
        c.request_evict(&ObjectId::new("c"), vec![party(0)], ctx)
    });
    assert!(matches!(err, Err(CoordError::UnknownObject(_))));
    // And evicting yourself is rejected.
    let err = cluster.net.invoke(&party(0), |c, ctx| {
        c.request_evict(&ObjectId::new("c"), vec![party(0)], ctx)
    });
    assert!(matches!(err, Err(CoordError::NotMember { .. })));
    assert_golden(
        &cluster,
        "c",
        "80360685657e0e02acc880052532b1b02671899275384cf8b3755860b2634b5c",
    );
}

#[test]
fn queued_connects_are_served_in_order() {
    // Two joiners ask the same sponsor while a slow state run is active;
    // both are admitted afterwards, in request order.
    let mut cluster = Cluster::new(4, 407);
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
    // Slow the org0→org1 link so a state run stays active at org1 …no:
    // keep it simple — block org1 (the sponsor) with a slow recipient run.
    cluster.net.set_link_plan(
        party(0),
        party(1),
        b2b_net::FaultPlan::new().delay(b2b_crypto::TimeMs(400), b2b_crypto::TimeMs(400)),
    );
    let t0 = cluster.net.now();
    let oid = ObjectId::new("c");
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(2), ctx).unwrap();
    });
    cluster.net.run_until(t0 + b2b_crypto::TimeMs(500)); // org1 mid-run
    for joiner in [2usize, 3] {
        let sponsor = party(1);
        cluster.net.invoke(&party(joiner), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
    }
    cluster.run();
    assert_eq!(
        cluster.members(0, "c"),
        vec![party(0), party(1), party(2), party(3)],
        "joiners admitted in request order after the run"
    );
    assert_eq!(dec(&cluster.state(3, "c")), 2);
    assert_golden(
        &cluster,
        "c",
        "754a63308a62b83e8ff53b87232cd8975f114efd50a58074285a7c527d278acd",
    );
}
