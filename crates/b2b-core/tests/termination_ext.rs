//! §7 termination extensions: deadline-driven resolution by majority
//! decision, and the safety boundary it moves.

mod common;

use b2b_core::{CoordinatorConfig, DecisionRule, ObjectId, Outcome};
use b2b_crypto::TimeMs;
use b2b_net::FaultPlan;
use common::*;

fn majority_cluster(n: usize, seed: u64, deadline: u64) -> Cluster {
    let config = CoordinatorConfig::new()
        .decision_rule(DecisionRule::Majority)
        .run_deadline(TimeMs(deadline));
    Cluster::with_config(n, seed, config, FaultPlan::default())
}

#[test]
fn majority_resolves_run_with_silent_party() {
    let mut cluster = majority_cluster(5, 200, 500);
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    // org4 goes silent forever.
    cluster.net.partition(
        [party(4)],
        (0..4).map(party).collect::<Vec<_>>(),
        TimeMs(u64::MAX),
    );
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(5), ctx).unwrap()
    });
    // Drive bounded (retransmission toward org4 keeps the queue alive).
    cluster.net.run_until(t0 + TimeMs(5_000));
    // The proposer and every reachable recipient install by majority.
    for who in 0..4 {
        assert_eq!(
            cluster.outcome(who, &run),
            Some(Outcome::Installed {
                state: cluster
                    .net
                    .node(&party(who))
                    .agreed_id(&ObjectId::new("counter"))
                    .unwrap()
            }),
            "org{who} should resolve by majority"
        );
        assert_eq!(dec(&cluster.state(who, "counter")), 5);
    }
    // The silent party, once healed, is behind but has installed nothing
    // invalid (safety preserved for it).
    assert_eq!(dec(&cluster.state(4, "counter")), 0);
}

#[test]
fn majority_vetoes_still_invalidate() {
    // 3 parties, majority = 2. One veto out of two recipients means the
    // proposer + one acceptor form a majority — the veto is overridden.
    // With TWO vetoes (both recipients), the run is invalidated.
    let mut cluster = majority_cluster(3, 201, 1_000);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(10));
    // A decrease violates both recipients' policy: invalidated.
    let run = cluster.propose(0, "counter", enc(1));
    assert!(matches!(
        cluster.outcome(0, &run).unwrap(),
        Outcome::Invalidated { .. }
    ));
    assert_eq!(dec(&cluster.state(1, "counter")), 10);
}

#[test]
fn majority_overrides_single_veto_documented_tradeoff() {
    // The §7 extension weakens the base safety property deliberately: a
    // strict majority can impose a state one party vetoed. This test
    // documents the boundary (see DESIGN.md).
    use b2b_apps::SharedCell;
    use b2b_core::{B2BObject, Decision};
    let strict = || -> Box<dyn B2BObject> {
        Box::new(SharedCell::new(0u64).with_validator(|_w, _o, n: &u64| {
            if *n == 666 {
                Decision::reject("org-specific policy")
            } else {
                Decision::accept()
            }
        }))
    };
    let lax = || -> Box<dyn B2BObject> { Box::new(SharedCell::new(0u64)) };

    let mut cluster = majority_cluster(3, 202, 1_000);
    // org0 (proposer) and org2 lax, org1 strict.
    cluster.net.invoke(&party(0), move |c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(lax))
            .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(ObjectId::new("counter"), Box::new(strict), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    let sponsor = party(1);
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.request_connect(ObjectId::new("counter"), Box::new(lax), sponsor, ctx)
            .unwrap();
    });
    cluster.run();

    let run = cluster.propose(0, "counter", enc(666));
    // 2 accepts (org0 implicit + org2) vs 1 reject: majority installs.
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(2, "counter")), 666);
    // The vetoing party also follows the group decision under majority —
    // its local policy was outvoted (the documented §7 trade-off).
    assert_eq!(dec(&cluster.state(1, "counter")), 666);
}

#[test]
fn unanimous_rule_never_overrides_a_veto() {
    // Control for the trade-off above: under the paper's base rule the
    // same single veto invalidates the run everywhere.
    let mut cluster = Cluster::new(3, 203);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(10));
    let run = cluster.propose(1, "counter", enc(2));
    for who in 0..3 {
        assert!(!cluster
            .outcome(who, &run)
            .map(|o| o.is_installed())
            .unwrap_or(false));
        assert_eq!(dec(&cluster.state(who, "counter")), 10);
    }
}
