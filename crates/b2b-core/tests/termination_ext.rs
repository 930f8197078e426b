//! §7 termination extensions: deadline-driven resolution by majority
//! decision, and the safety boundary it moves.

mod common;

use b2b_core::{ConnectStatus, CoordinatorConfig, DecisionRule, ObjectId, Outcome};
use b2b_crypto::TimeMs;
use b2b_net::FaultPlan;
use common::*;

fn majority_cluster(n: usize, seed: u64, deadline: u64) -> Cluster {
    let config = CoordinatorConfig::new()
        .decision_rule(DecisionRule::Majority)
        .run_deadline(TimeMs(deadline));
    Cluster::with_config(n, seed, config, FaultPlan::default())
}

/// The paper's unanimous rule with a proposer-side deadline and no TTP.
fn unanimous_cluster(n: usize, seed: u64, deadline: u64) -> Cluster {
    let config = CoordinatorConfig::new().run_deadline(TimeMs(deadline));
    Cluster::with_config(n, seed, config, FaultPlan::default())
}

/// The counter's next update, proposed by org0, installs at every member.
fn next_update_installs_everywhere(cluster: &mut Cluster, n: usize, value: u64) {
    let run = cluster.propose(0, "counter", enc(value));
    for who in 0..n {
        assert!(
            cluster.outcome(who, &run).is_some_and(|o| o.is_installed()),
            "org{who} installs the next update"
        );
        assert_eq!(dec(&cluster.state(who, "counter")), value);
    }
}

#[test]
fn a_state_round_aborted_at_its_deadline_frees_every_member_that_answered() {
    // org2 is silent through org0's deadline. Without a TTP org0 aborts,
    // and its decide — the responses in hand — ends the run at org1 one
    // link delay later instead of leaving it active there for good.
    let mut cluster = unanimous_cluster(3, 204, 500);
    cluster.setup_object("counter", counter_factory);
    let oid = ObjectId::new("counter");
    let t0 = cluster.net.now();
    cluster
        .net
        .partition([party(2)], [party(0), party(1)], t0 + TimeMs(2_000));
    let o = oid.clone();
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&o, enc(5), ctx).unwrap()
    });
    cluster.net.run_until(t0 + TimeMs(502));
    let expired = Outcome::Aborted {
        reason: "response deadline expired".into(),
    };
    for who in 0..2 {
        assert_eq!(
            cluster.outcome(who, &run),
            Some(expired.clone()),
            "org{who}"
        );
        assert!(!cluster.net.node(&party(who)).is_busy(&oid), "org{who}");
        assert_eq!(dec(&cluster.state(who, "counter")), 0);
    }
    // Once healed, org2 hears the same abort; the group goes on.
    cluster.run();
    assert_eq!(cluster.outcome(2, &run), Some(expired));
    next_update_installs_everywhere(&mut cluster, 3, 7);
}

#[test]
fn a_connect_aborted_at_its_deadline_frees_every_member_that_answered() {
    // org0..org2 share the counter and org1 is silent while org2 sponsors
    // org3: at the deadline the sponsor rejects org3, and its decide ends
    // the connect at org0 one link delay later.
    let mut cluster = unanimous_cluster(4, 205, 500);
    let oid = ObjectId::new("counter");
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..3 {
        let sponsor = party(i - 1);
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(
                ObjectId::new("counter"),
                Box::new(counter_factory),
                sponsor,
                ctx,
            )
            .unwrap();
        });
        cluster.run();
    }
    let t0 = cluster.net.now();
    let others: Vec<_> = [0, 2, 3].into_iter().map(party).collect();
    cluster
        .net
        .partition([party(1)], others, t0 + TimeMs(2_000));
    cluster.net.invoke(&party(3), move |c, ctx| {
        c.request_connect(
            ObjectId::new("counter"),
            Box::new(counter_factory),
            party(2),
            ctx,
        )
        .unwrap();
    });
    // The request reaches the sponsor one link delay after t0, and the
    // deadline runs from there.
    cluster.net.run_until(t0 + TimeMs(503));
    for who in [0, 2] {
        assert!(!cluster.net.node(&party(who)).is_busy(&oid), "org{who}");
        assert_eq!(cluster.members(who, "counter").len(), 3, "org{who}");
    }
    assert_eq!(
        cluster.net.node(&party(3)).connect_status(&oid),
        Some(&ConnectStatus::Rejected)
    );
    cluster.run();
    assert!(!cluster.net.node(&party(1)).is_busy(&oid));
    next_update_installs_everywhere(&mut cluster, 3, 7);
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

/// Three parties under the majority rule, org1 with a stricter policy
/// than org0 and org2; org0 proposes what org1 vetoes.
fn outvoted_veto() -> (Cluster, b2b_core::RunId) {
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
    (cluster, run)
}

#[test]
fn majority_overrides_single_veto_documented_tradeoff() {
    // The §7 extension weakens the base safety property deliberately: a
    // strict majority can impose a state one party vetoed. This test
    // documents the boundary (see DESIGN.md).
    let (cluster, run) = outvoted_veto();
    // 2 accepts (org0 implicit + org2) vs 1 reject: majority installs.
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(2, "counter")), 666);
    // The vetoing party also follows the group decision under majority —
    // its local policy was outvoted (the documented §7 trade-off).
    assert_eq!(dec(&cluster.state(1, "counter")), 666);
}

#[test]
fn an_outvoted_party_recovers_the_majority_s_state() {
    // Recovery reads the outvoted party's log under its own rule, where
    // the decide that carries its veto installs.
    use b2b_net::NetNode;
    let (mut cluster, _) = outvoted_veto();
    cluster.net.invoke(&party(1), |c, ctx| {
        c.on_crash();
        c.on_recover(ctx);
    });
    cluster.run();
    assert!(cluster.net.node(&party(1)).detected().is_empty());
    assert_eq!(dec(&cluster.state(1, "counter")), 666);
    next_update_installs_everywhere(&mut cluster, 3, 700);
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

#[test]
fn majority_never_resolves_a_membership_change_from_a_partial_set() {
    // A connection needs every polled member's acceptance whatever the
    // state rule (§4.5). org0..org2 share the counter, org1 is silent, and
    // org2 sponsors org3: at the deadline the sponsor, with no TTP to
    // appeal to, aborts the round and rejects the subject instead of
    // deciding on org0's response alone.
    let mut cluster = majority_cluster(4, 203, 500);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..3 {
        let sponsor = party(i - 1);
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(
                ObjectId::new("counter"),
                Box::new(counter_factory),
                sponsor,
                ctx,
            )
            .unwrap();
        });
        cluster.run();
    }
    let others: Vec<_> = [0, 2, 3].into_iter().map(party).collect();
    cluster.net.partition([party(1)], others, TimeMs(u64::MAX));
    let t0 = cluster.net.now();
    cluster.net.invoke(&party(3), move |c, ctx| {
        c.request_connect(
            ObjectId::new("counter"),
            Box::new(counter_factory),
            party(2),
            ctx,
        )
        .unwrap();
    });
    cluster.net.run_until(t0 + TimeMs(5_000));
    let sponsor = cluster.net.node(&party(2));
    assert!(!sponsor.is_busy(&ObjectId::new("counter")));
    // The sponsor's abort decide reached org0, the polled member that
    // answered: it is not left holding the run.
    assert!(!cluster
        .net
        .node(&party(0))
        .is_busy(&ObjectId::new("counter")));
    assert_eq!(cluster.members(2, "counter").len(), 3);
    assert_eq!(
        cluster
            .net
            .node(&party(3))
            .connect_status(&ObjectId::new("counter")),
        Some(&ConnectStatus::Rejected)
    );
}
