//! One party's log read as a history (`b2b_core::history`): every round
//! ending the fold knows — a unanimous decide, a veto, a deadline abort, a
//! TTP resolution, a proposal that polls nobody — over logs of real runs;
//! and crash recovery, which restores a replica from the history of its
//! own log and refuses a checkpoint the log does not bear out.

mod common;

use b2b_core::history::{self, FaultKind, Install};
use b2b_core::messages::WireMsg;
use b2b_core::replica::CoreDoc;
use b2b_core::DecisionRule::Unanimous;
use b2b_core::{Coordinator, CoordinatorConfig, Misbehaviour, ObjectId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2b_evidence::{
    EvidenceKind, EvidenceRecord, EvidenceStore, FileStore, MemStore, RecordFault, SnapshotStore,
    StoreError,
};
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::data_body;
use b2b_net::{FaultPlan, NetNode, SimNet};
use b2b_telemetry::{names, Telemetry};
use common::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn installs(cluster: &Cluster, who: usize) -> Vec<Install> {
    let log = &*cluster.stores[&party(who)];
    let tsa = cluster.tsa.public_key();
    let history = history::check(
        log,
        &ObjectId::new("counter"),
        &cluster.ring,
        Some(&tsa),
        Unanimous,
    );
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
    let fault = history::check(&stripped, &oid, &cluster.ring, Some(&tsa), Unanimous);
    let fault = fault.fault.unwrap();
    assert_eq!(fault.record, at.unwrap());
    let unsigned = FaultKind::Record(RecordFault::MissingSignature("ttp-abort".into()));
    assert_eq!(fault.kind, unsigned, "{fault}");
}

/// Crashes `who` and brings it back from its log and checkpoint.
fn crash_and_recover(cluster: &mut Cluster, who: usize) {
    cluster.net.invoke(&party(who), |c, ctx| {
        c.on_crash();
        c.on_recover(ctx);
    });
    cluster.run();
}

#[test]
fn a_checkpoint_whose_state_was_edited_is_refused_at_restore_and_counted() {
    let telemetry = Telemetry::new();
    let (config, plan) = (CoordinatorConfig::default(), FaultPlan::default());
    let observers = vec![Telemetry::new(), telemetry.clone()];
    let mut cluster = Cluster::with_config_and_telemetry(2, 125, config, plan, observers);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(4));
    let store = &cluster.stores[&party(1)];
    let mut core = CoreDoc::from_bytes(&store.get_snapshot("obj-counter").unwrap()).unwrap();
    core.agreed_state = enc(40);
    store.put_snapshot("obj-counter", core.to_bytes()).unwrap();
    crash_and_recover(&mut cluster, 1);
    let org1 = cluster.net.node(&party(1));
    let oid = ObjectId::new("counter");
    assert!(
        org1.replica(&oid).is_none(),
        "the edited replica is not restored"
    );
    assert!(org1.detected().iter().any(|m| matches!(
        m,
        Misbehaviour::UnexpectedMessage { detail } if detail.contains("recovery of counter refused")
    )));
    let refused = telemetry.metrics().counter(names::RECOVERIES_REFUSED);
    assert_eq!(refused, 1);
    // org0's checkpoint is as it wrote it: it comes back.
    crash_and_recover(&mut cluster, 0);
    assert_eq!(dec(&cluster.state(0, "counter")), 4);
}

#[test]
fn a_checkpoint_that_reaches_past_its_log_is_refused_at_restore_and_counted() {
    let telemetry = Telemetry::new();
    let (config, plan) = (CoordinatorConfig::default(), FaultPlan::default());
    let observers = vec![Telemetry::new(), telemetry.clone()];
    let mut cluster = Cluster::with_config_and_telemetry(2, 127, config, plan, observers);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(4));
    let store = &cluster.stores[&party(1)];
    let mut core = CoreDoc::from_bytes(&store.get_snapshot("obj-counter").unwrap()).unwrap();
    core.logged = store.len() as u64 + 1;
    store.put_snapshot("obj-counter", core.to_bytes()).unwrap();
    crash_and_recover(&mut cluster, 1);
    let org1 = cluster.net.node(&party(1));
    assert!(org1.replica(&ObjectId::new("counter")).is_none());
    assert_eq!(telemetry.metrics().counter(names::RECOVERIES_REFUSED), 1);
}

#[test]
fn a_leaver_an_evictee_and_a_sole_leaver_recover_as_they_stood() {
    let mut cluster = Cluster::new(4, 126);
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
    // org2 also holds an object of its own, and leaves it alone: no log
    // holds that leave, only the checkpoint.
    let solo = ObjectId::new("solo");
    let o = solo.clone();
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.register_object(o.clone(), Box::new(counter_factory))
            .unwrap();
        c.request_disconnect(&o, ctx).unwrap()
    });
    let view = |cluster: &Cluster, who: usize, oid: &ObjectId| {
        let rep = cluster.net.node(&party(who)).replica(oid).unwrap();
        let members = rep.members().to_vec();
        (
            members,
            rep.agreed(),
            rep.replay_window(),
            rep.is_detached(),
        )
    };
    let before = [
        view(&cluster, 1, &oid),
        view(&cluster, 3, &oid),
        view(&cluster, 2, &solo),
    ];
    for who in [1, 2, 3] {
        crash_and_recover(&mut cluster, who);
    }
    let after = [
        view(&cluster, 1, &oid),
        view(&cluster, 3, &oid),
        view(&cluster, 2, &solo),
    ];
    assert_eq!(after, before);
    // The leaver's log ends at the answer that let it go, and the sole
    // leaver's checkpoint says it left; the evictee was not consulted, so
    // its log holds the group it was evicted from, and it still believes
    // it a member.
    assert!(after[1].3 && after[2].3);
    assert!(!after[0].3 && cluster.net.node(&party(1)).is_member(&oid));
    assert_history(&cluster, "counter");
}

/// A group-commit [`FileStore`] that checks the commit rule at every core
/// checkpoint put: the log on disk already holds every record appended.
struct CommitProbe {
    store: FileStore,
    late: Mutex<Vec<String>>,
}

/// The records in the log file at `dir`, counted frame by frame.
fn records_on_disk(dir: &Path) -> usize {
    let bytes = std::fs::read(dir.join("evidence.wal")).unwrap_or_default();
    let (mut at, mut count) = (0, 0);
    while at + 8 <= bytes.len() {
        at += 8 + u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        count += usize::from(at <= bytes.len());
    }
    count
}

impl EvidenceStore for CommitProbe {
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError> {
        self.store.append(record)
    }
    fn len(&self) -> usize {
        self.store.len()
    }
    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        self.store.get(seq)
    }
    fn records(&self) -> Vec<EvidenceRecord> {
        self.store.records()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.store.flush()
    }
}

impl SnapshotStore for CommitProbe {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        let (on_disk, appended) = (records_on_disk(self.store.dir()), self.store.len());
        if key.starts_with("obj-") && !key.contains("-reply-") && on_disk != appended {
            let late = format!("{key}: {on_disk} of {appended} records on disk");
            self.late.lock().unwrap().push(late);
        }
        self.store.put_snapshot(key, bytes)
    }
    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.store.get_snapshot(key)
    }
}

#[test]
fn a_group_commit_log_holds_every_record_its_checkpoint_depends_on() {
    let dir: PathBuf = std::env::temp_dir().join(format!("b2b-commit-rule-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut ring, mut net, mut probes) = (KeyRing::new(), SimNet::new(127), Vec::new());
    let keys: Vec<KeyPair> = (0..2)
        .map(|i| KeyPair::generate_from_seed(1000 + i))
        .collect();
    for (i, kp) in keys.iter().enumerate() {
        ring.register(party(i), kp.public_key());
    }
    for (i, kp) in keys.into_iter().enumerate() {
        let store = FileStore::open(dir.join(format!("org{i}"))).unwrap();
        let probe = Arc::new(CommitProbe {
            store: store.group_commit(true),
            late: Mutex::new(Vec::new()),
        });
        let builder = Coordinator::builder(party(i), kp).ring(ring.clone());
        net.add_node(builder.store(probe.clone()).seed(i as u64).build());
        probes.push(probe);
    }
    let oid = ObjectId::new("counter");
    let o = oid.clone();
    net.invoke(&party(0), move |c, _| {
        c.register_object(o, Box::new(counter_factory)).unwrap()
    });
    let o = oid.clone();
    net.invoke(&party(1), move |c, ctx| {
        let factory = Box::new(counter_factory);
        c.request_connect(o, factory, party(0), ctx).unwrap()
    });
    net.run_until_quiet(QUIET);
    // Installed rounds from either side, and a veto (the counter may not
    // fall).
    for (who, value) in [(0, 5), (1, 9), (0, 2)] {
        let o = oid.clone();
        net.invoke(&party(who), move |c, ctx| {
            c.propose_overwrite(&o, enc(value), ctx).unwrap()
        });
        net.run_until_quiet(QUIET);
    }
    for (i, probe) in probes.iter().enumerate() {
        assert_eq!(*probe.late.lock().unwrap(), Vec::<String>::new(), "org{i}");
        // Reopened from disk, the log reaches as far as the checkpoint.
        let core = CoreDoc::from_bytes(&probe.get_snapshot("obj-counter").unwrap()).unwrap();
        let reopened = FileStore::open(probe.store.dir()).unwrap();
        assert!(reopened.len() as u64 >= core.logged, "org{i}");
    }
    net.invoke(&party(1), |c, ctx| {
        c.on_crash();
        c.on_recover(ctx);
    });
    net.run_until_quiet(QUIET);
    assert_eq!(dec(&net.node(&party(1)).agreed_state(&oid).unwrap()), 9);
    drop((net, probes));
    std::fs::remove_dir_all(&dir).unwrap();
}
