//! One party's log read as a history (`b2b_core::history`): every round
//! ending the fold knows — a unanimous decide, a veto, a deadline abort, a
//! TTP resolution, a proposal that polls nobody — over logs of real runs.

mod common;

use b2b_core::history::{self, FaultKind, Install};
use b2b_core::messages::WireMsg;
use b2b_core::{CoordinatorConfig, ObjectId};
use b2b_crypto::{PartyId, TimeMs};
use b2b_evidence::{EvidenceKind, EvidenceStore, MemStore, RecordFault};
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::data_body;
use b2b_net::FaultPlan;
use common::*;

fn installs(cluster: &Cluster, who: usize) -> Vec<Install> {
    let log = &*cluster.stores[&party(who)];
    let tsa = cluster.tsa.public_key();
    let history = history::check(log, &ObjectId::new("counter"), &cluster.ring, Some(&tsa));
    if let Some(fault) = history.fault {
        panic!("org{who}: {fault}");
    }
    history.installs
}

#[test]
fn every_member_reads_the_same_history_from_its_own_log() {
    let mut cluster = Cluster::new(3, 120);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(1, "counter", enc(4));
    cluster.propose(2, "counter", enc(1)); // vetoed: installs nothing
    cluster.propose(0, "counter", enc(6));
    let agreed = cluster
        .net
        .node(&party(0))
        .agreed_id(&ObjectId::new("counter"));
    let states = |who| -> Vec<_> {
        installs(&cluster, who)
            .into_iter()
            .map(|i| i.tuple)
            .filter(|tuple| tuple.seq > 0)
            .collect()
    };
    // org0 founded the object: a proposal that polled nobody admitted
    // org1. org1 and org2 start from the answer that welcomed them.
    let founder = installs(&cluster, 0);
    assert_eq!(founder[0].by, EvidenceKind::StatePropose);
    assert_eq!(founder[0].members, vec![party(0), party(1)]);
    assert_eq!(installs(&cluster, 2)[0].by, EvidenceKind::MemberAnswer);
    for who in 0..3 {
        let last = installs(&cluster, who).pop().unwrap();
        assert_eq!(Some(last.tuple), agreed, "org{who}");
        assert_eq!(last.by, EvidenceKind::StateDecide, "org{who}");
    }
    assert_eq!(states(1), states(2));
    assert_eq!(states(1).len(), 2, "two state installs, the veto none");
}

#[test]
fn a_leave_and_an_eviction_move_the_history_s_group() {
    let mut cluster = Cluster::new(4, 121);
    cluster.setup_object("counter", counter_factory);
    let oid = ObjectId::new("counter");
    let o = oid.clone();
    cluster.net.invoke(&party(3), move |c, ctx| {
        c.request_disconnect(&o, ctx).unwrap()
    });
    cluster.run();
    let o = oid.clone();
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.request_evict(&o, vec![party(1)], ctx).unwrap()
    });
    cluster.run();
    cluster.propose(2, "counter", enc(3));
    assert_history(&cluster, "counter");
    let last = |who| installs(&cluster, who).pop().unwrap();
    // The leaver's history ends at the answer that let it go.
    assert_eq!(last(3).by, EvidenceKind::MemberAnswer);
    assert_eq!(last(3).members, vec![party(0), party(1), party(2)]);
    // The evictee was not polled: its history still holds the old group.
    assert_eq!(last(1).members, vec![party(0), party(1), party(2)]);
    for who in [0, 2] {
        assert_eq!(last(who).members, vec![party(0), party(2)]);
        assert_eq!(dec(&cluster.state(who, "counter")), 3);
    }
}

#[test]
fn a_crashed_recipient_and_proposer_still_log_histories() {
    let mut cluster = Cluster::new(3, 122);
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    let plan = FaultPlan::new().delay(TimeMs(20), TimeMs(20));
    cluster.net.set_default_plan(plan);
    cluster.net.crash_at(t0 + TimeMs(25), party(0));
    cluster.net.recover_at(t0 + TimeMs(5_000), party(0));
    cluster.net.crash_at(t0 + TimeMs(30), party(2));
    cluster.net.recover_at(t0 + TimeMs(3_000), party(2));
    let run = cluster.propose(0, "counter", enc(7));
    assert!(cluster.outcome(2, &run).unwrap().is_installed());
    assert_history(&cluster, "counter");
    assert_eq!(installs(&cluster, 2).pop().unwrap().run, run);
}

#[test]
fn a_deadline_abort_ends_its_round_without_an_install() {
    let config = CoordinatorConfig::new().run_deadline(TimeMs(500));
    let mut cluster = Cluster::with_config(3, 123, config, FaultPlan::default());
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    let healed = t0 + TimeMs(2_000);
    cluster
        .net
        .partition([party(2)], [party(0), party(1)], healed);
    let run = cluster.propose(0, "counter", enc(5));
    assert!(!cluster.outcome(0, &run).unwrap().is_installed());
    cluster.propose(0, "counter", enc(6));
    assert_history(&cluster, "counter");
    for who in 0..3 {
        let history = installs(&cluster, who);
        assert!(history.iter().all(|i| i.run != run), "org{who}");
        assert_eq!(dec(&cluster.state(who, "counter")), 6);
    }
}

#[test]
fn a_ttp_resolution_installs_where_the_decide_was_lost() {
    // org3 is the TTP and no member. Every decide is dropped: org0
    // installs on its own decide, org1 and org2 on the certified decision.
    let config = CoordinatorConfig::new()
        .run_deadline(TimeMs(500))
        .ttp(party(3));
    let mut cluster = Cluster::with_config(4, 124, config, FaultPlan::default());
    let oid = ObjectId::new("counter");
    let o = oid.clone();
    cluster.net.invoke(&party(0), move |c, _| {
        c.register_object(o, Box::new(counter_factory)).unwrap()
    });
    for i in 1..3 {
        let o = oid.clone();
        cluster.net.invoke(&party(i), move |c, ctx| {
            let factory = Box::new(counter_factory);
            c.request_connect(o, factory, party(i - 1), ctx).unwrap()
        });
        cluster.run();
    }
    cluster
        .net
        .set_intruder(FnIntruder::new(|_f, _t, raw: &[u8], _n| {
            match data_body(raw).and_then(WireMsg::from_bytes) {
                Some(WireMsg::Decide(_)) => InterceptAction::Drop,
                _ => InterceptAction::Deliver,
            }
        }));
    let run = cluster.propose(0, "counter", enc(7));
    assert_history(&cluster, "counter");
    for (who, by) in [
        (0, EvidenceKind::StateDecide),
        (1, EvidenceKind::TtpAbort),
        (2, EvidenceKind::TtpAbort),
    ] {
        let last = installs(&cluster, who).pop().unwrap();
        assert_eq!((last.run, last.by), (run, by), "org{who}");
    }
    assert!(installs(&cluster, 3).is_empty(), "the TTP holds no history");
    // Unsigned, a resolution proves nothing, whichever party it names.
    let (stripped, mut at) = (MemStore::new(), None);
    for mut record in cluster.stores[&party(1)].records() {
        if record.kind == EvidenceKind::TtpAbort && record.origin == party(3) {
            (record.origin, record.signature) = (PartyId::new("nobody"), None);
            at.get_or_insert(record.seq);
        }
        stripped.append(record).unwrap();
    }
    let tsa = cluster.tsa.public_key();
    let fault = history::check(&stripped, &oid, &cluster.ring, Some(&tsa));
    let fault = fault.fault.unwrap();
    assert_eq!(fault.record, at.unwrap());
    let unsigned = FaultKind::Record(RecordFault::MissingSignature("ttp-abort".into()));
    assert_eq!(fault.kind, unsigned, "{fault}");
}
