//! Integration tests of the state coordination protocol (§4.3) across
//! simulated organisations.

mod common;

use b2b_apps::SharedCell;
use b2b_core::{Decision, ObjectId, Outcome, Verdict};
use b2b_evidence::{EvidenceKind, EvidenceStore};
use common::*;

#[test]
fn two_party_unanimous_install() {
    let mut cluster = Cluster::new(2, 1);
    cluster.setup_object("counter", counter_factory);
    let run = cluster.propose(0, "counter", enc(5));
    for who in 0..2 {
        assert!(
            cluster.outcome(who, &run).unwrap().is_installed(),
            "org{who} should install"
        );
        assert_eq!(dec(&cluster.state(who, "counter")), 5);
    }
}

#[test]
fn two_party_veto_keeps_agreed_state() {
    let mut cluster = Cluster::new(2, 2);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(10));
    // A decrease violates the recipient's local policy.
    let run = cluster.propose(1, "counter", enc(3));
    for who in 0..2 {
        match cluster.outcome(who, &run).unwrap() {
            Outcome::Invalidated { vetoers } => {
                assert_eq!(vetoers.len(), 1);
                assert_eq!(vetoers[0].0, party(0));
                assert!(vetoers[0].1.contains("decrease"));
            }
            other => panic!("org{who}: expected invalidation, got {other:?}"),
        }
        assert_eq!(dec(&cluster.state(who, "counter")), 10);
    }
}

#[test]
fn five_party_propose_from_middle() {
    let mut cluster = Cluster::new(5, 3);
    cluster.setup_object("counter", counter_factory);
    let run = cluster.propose(2, "counter", enc(42));
    for who in 0..5 {
        assert!(cluster.outcome(who, &run).unwrap().is_installed());
        assert_eq!(dec(&cluster.state(who, "counter")), 42);
    }
}

#[test]
fn state_run_costs_3n_minus_3_messages() {
    // §7: the protocol is efficient in messages — m1, m2, m3 each cross
    // n−1 links, so one run costs exactly 3(n−1).
    for n in 2..=6 {
        let mut cluster = Cluster::new(n, 4);
        cluster.setup_object("counter", counter_factory);
        let before = cluster.total_protocol_messages();
        cluster.propose(0, "counter", enc(7));
        let after = cluster.total_protocol_messages();
        assert_eq!(
            after - before,
            3 * (n as u64 - 1),
            "state run with n={n} parties"
        );
    }
}

#[test]
fn sequential_runs_alternating_proposers() {
    let mut cluster = Cluster::new(3, 5);
    cluster.setup_object("counter", counter_factory);
    for (i, v) in [1u64, 2, 5, 9, 20].iter().enumerate() {
        let run = cluster.propose(i % 3, "counter", enc(*v));
        assert!(cluster.outcome(i % 3, &run).unwrap().is_installed());
    }
    for who in 0..3 {
        assert_eq!(dec(&cluster.state(who, "counter")), 20);
    }
}

#[test]
fn update_proposal_applies_delta_everywhere() {
    let mut cluster = Cluster::new(3, 6);
    cluster.setup_object("log", append_log_factory);
    let oid = ObjectId::new("log");
    let update = serde_json::to_vec(&"hello".to_string()).unwrap();
    let run = cluster.net.invoke(&party(1), move |c, ctx| {
        c.propose_update(&oid, update, ctx).unwrap()
    });
    cluster.run();
    for who in 0..3 {
        assert!(cluster.outcome(who, &run).unwrap().is_installed());
        let entries: Vec<String> = serde_json::from_slice(&cluster.state(who, "log")).unwrap();
        assert_eq!(entries, vec!["hello".to_string()]);
    }
}

#[test]
fn update_proposal_vetoed_by_content_rule() {
    let mut cluster = Cluster::new(2, 7);
    cluster.setup_object("log", append_log_factory);
    let oid = ObjectId::new("log");
    let update = serde_json::to_vec(&"forbidden word".to_string()).unwrap();
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_update(&oid, update, ctx).unwrap()
    });
    cluster.run();
    assert!(matches!(
        cluster.outcome(0, &run).unwrap(),
        Outcome::Invalidated { .. }
    ));
    let entries: Vec<String> = serde_json::from_slice(&cluster.state(1, "log")).unwrap();
    assert!(entries.is_empty());
}

#[test]
fn null_transition_rejected_by_default() {
    let mut cluster = Cluster::new(2, 8);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(4));
    let run = cluster.propose(0, "counter", enc(4)); // same state again
    match cluster.outcome(0, &run).unwrap() {
        Outcome::Invalidated { vetoers } => {
            assert!(vetoers[0].1.contains("null"));
        }
        other => panic!("expected null-transition veto, got {other:?}"),
    }
}

#[test]
fn null_transition_allowed_when_configured() {
    // §4.4: "it may be legitimate to propose the re-installation of an
    // earlier state" — re-proposing the *current* state is a policy knob.
    let config = b2b_core::CoordinatorConfig::new().reject_null_transitions(false);
    let mut cluster = Cluster::with_config(2, 9, config, b2b_net::FaultPlan::default());
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(4));
    let run = cluster.propose(0, "counter", enc(4));
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
}

#[test]
fn concurrent_proposals_stay_consistent() {
    // Two proposers fire in the same instant. The busy rule may invalidate
    // one or both runs, but replicas must never diverge.
    for seed in 10..20 {
        let mut cluster = Cluster::new(3, seed);
        cluster.setup_object("counter", counter_factory);
        let oid = ObjectId::new("counter");
        let oid2 = oid.clone();
        let run_a = cluster.net.invoke(&party(0), move |c, ctx| {
            c.propose_overwrite(&oid, enc(100), ctx).unwrap()
        });
        let run_b = cluster.net.invoke(&party(1), move |c, ctx| {
            c.propose_overwrite(&oid2, enc(200), ctx).unwrap()
        });
        cluster.run();
        let states: Vec<u64> = (0..3).map(|w| dec(&cluster.state(w, "counter"))).collect();
        assert!(
            states.iter().all(|s| *s == states[0]),
            "seed {seed}: replicas diverged: {states:?}"
        );
        let installed = [run_a, run_b]
            .iter()
            .filter(|r| {
                cluster
                    .outcome(0, r)
                    .map(|o| o.is_installed())
                    .unwrap_or(false)
            })
            .count();
        assert!(
            installed <= 1,
            "seed {seed}: both concurrent runs installed"
        );
    }
}

#[test]
fn rejected_proposer_can_retry_after_invalidation() {
    let mut cluster = Cluster::new(2, 21);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(10));
    let bad = cluster.propose(1, "counter", enc(1));
    assert!(!cluster.outcome(1, &bad).unwrap().is_installed());
    let good = cluster.propose(1, "counter", enc(11));
    assert!(cluster.outcome(1, &good).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(0, "counter")), 11);
}

#[test]
fn evidence_logs_cover_all_three_steps() {
    let mut cluster = Cluster::new(2, 22);
    cluster.setup_object("counter", counter_factory);
    let run = cluster.propose(0, "counter", enc(5));
    let run_hex = run.to_hex();
    // Proposer log: its propose, the recipient's respond, the decide.
    let proposer_log = cluster.stores[&party(0)].records_for_run(&run_hex);
    let kinds: Vec<EvidenceKind> = proposer_log.iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&EvidenceKind::StatePropose));
    assert!(kinds.contains(&EvidenceKind::StateRespond));
    assert!(kinds.contains(&EvidenceKind::StateDecide));
    assert!(kinds.contains(&EvidenceKind::Checkpoint));
    // Recipient log: same coverage.
    let recipient_log = cluster.stores[&party(1)].records_for_run(&run_hex);
    let kinds: Vec<EvidenceKind> = recipient_log.iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&EvidenceKind::StatePropose));
    assert!(kinds.contains(&EvidenceKind::StateRespond));
    assert!(kinds.contains(&EvidenceKind::StateDecide));
}

#[test]
fn response_events_surface_progress() {
    let mut cluster = Cluster::new(3, 23);
    cluster.setup_object("counter", counter_factory);
    let run = cluster.propose(0, "counter", enc(5));
    let events = cluster.net.invoke(&party(0), |c, _| c.take_events());
    let responses: Vec<Verdict> = events
        .iter()
        .filter_map(|e| match &e.event {
            b2b_core::CoordEventKind::ResponseReceived { verdict, .. } if e.run == run => {
                Some(*verdict)
            }
            _ => None,
        })
        .collect();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|v| *v == Verdict::Accept));
}

#[test]
fn asymmetric_validators_enforce_roles() {
    // Same object, different local policy per party — the heart of §2's
    // "locally determined, evaluated and enforced policy".
    let mut cluster = Cluster::new(2, 24);
    let oid = ObjectId::new("doc");
    // org0 accepts anything; org1 only accepts even values.
    cluster.net.invoke(&party(0), move |c, _| {
        c.register_object(
            ObjectId::new("doc"),
            Box::new(|| Box::new(SharedCell::new(0u64))),
        )
        .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(
            ObjectId::new("doc"),
            Box::new(|| {
                Box::new(SharedCell::new(0u64).with_validator(|_w, _o, n: &u64| {
                    if n.is_multiple_of(2) {
                        Decision::accept()
                    } else {
                        Decision::reject("org1 accepts even values only")
                    }
                }))
            }),
            sponsor,
            ctx,
        )
        .unwrap();
    });
    cluster.run();

    let odd = cluster.propose(0, "doc", enc(3));
    assert!(!cluster.outcome(0, &odd).unwrap().is_installed());
    let even = cluster.propose(0, "doc", enc(4));
    assert!(cluster.outcome(0, &even).unwrap().is_installed());
    let _ = oid;
}
