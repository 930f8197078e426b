//! End-to-end dispute resolution: claims judged against the
//! non-repudiation logs produced by real protocol runs.

mod common;

use b2b_core::history::{self, FaultKind};
use b2b_core::messages::{
    DecideMsg, MemberAnswer, MemberChange, MemberRequest, MemberVerdict, Proposal, ProposalKind,
    RespondMsg, Response,
};
use b2b_core::DecisionRule::Unanimous;
use b2b_core::{
    members_digest, Arbiter, Claim, Coordinator, Decision, GroupId, ObjectId, Ruling, RunId,
    StateId,
};
use b2b_crypto::{sha256, CanonicalEncode, KeyPair, KeyRing, Signer, TimeMs};
use b2b_evidence::{EvidenceKind, EvidenceRecord, EvidenceStore, FileStore, MemStore};
use b2b_net::SimNet;
use common::*;
use std::sync::Arc;

fn state_id_of(cluster: &Cluster, who: usize, alias: &str) -> StateId {
    cluster
        .net
        .node(&party(who))
        .agreed_id(&ObjectId::new(alias))
        .unwrap()
}

#[test]
fn proposer_proves_validity_of_installed_state_from_its_own_log() {
    let mut cluster = Cluster::new(3, 90);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(5));
    let state = state_id_of(&cluster, 0, "counter");

    let arbiter = Arbiter::new(cluster.ring.clone());
    let claim = Claim::StateValid {
        object: ObjectId::new("counter"),
        state,
    };
    let ruling = arbiter.judge(&claim, &*cluster.stores[&party(0)]);
    assert!(ruling.is_upheld(), "ruling: {ruling:?}");
}

#[test]
fn a_fault_later_in_the_log_leaves_earlier_installs_provable() {
    // A checkpoint no install accounts for, filed between two rounds: the
    // state agreed before it is still proven, the one after it is not.
    let mut cluster = Cluster::new(3, 90);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(5));
    let before = state_id_of(&cluster, 0, "counter");
    let log = &*cluster.stores[&party(0)];
    let bogus = StateId::genesis(sha256(b"bogus"), b"99").canonical_bytes();
    let fault = log.records().len() as u64;
    let (kind, stamp) = (EvidenceKind::Checkpoint, TimeMs(0));
    let record = EvidenceRecord::new(kind, "counter", "", party(0), bogus, None, None, stamp);
    log.append(record).unwrap();
    cluster.propose(0, "counter", enc(6));
    let after = state_id_of(&cluster, 0, "counter");
    let arbiter = Arbiter::new(cluster.ring.clone());
    let object = ObjectId::new("counter");
    let ruling = |state| {
        let claim = Claim::StateValid {
            object: object.clone(),
            state,
        };
        arbiter.judge(&claim, &*cluster.stores[&party(0)])
    };
    assert!(ruling(before).is_upheld());
    let Ruling::Rejected { reason } = ruling(after) else {
        panic!("a state agreed after the fault is upheld");
    };
    assert!(reason.contains(&format!("record {fault}")), "{reason}");
}

#[test]
fn recipient_can_also_prove_validity_from_its_log() {
    // The decide aggregation reaches every recipient, so any party can
    // demonstrate validity ("any party can compute the group's decision").
    let mut cluster = Cluster::new(3, 91);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(1, "counter", enc(8));
    let state = state_id_of(&cluster, 2, "counter");

    let arbiter = Arbiter::new(cluster.ring.clone());
    let claim = Claim::StateValid {
        object: ObjectId::new("counter"),
        state,
    };
    assert!(arbiter
        .judge(&claim, &*cluster.stores[&party(2)])
        .is_upheld());
}

#[test]
fn vetoed_state_cannot_be_misrepresented_as_valid() {
    // §4.1: "no party can misrepresent the validity of object state".
    let mut cluster = Cluster::new(2, 92);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(10));
    let run = cluster.propose(1, "counter", enc(2)); // vetoed decrease
    let arbiter = Arbiter::new(cluster.ring.clone());

    // The (dishonest) proposer cannot get the vetoed tuple upheld — even
    // from its own log, which contains the signed rejection.
    let fake_state = StateId {
        seq: 2,
        rand_hash: sha256(b"whatever"),
        state_hash: sha256(&enc(2)),
    };
    let claim = Claim::StateValid {
        object: ObjectId::new("counter"),
        state: fake_state,
    };
    assert!(!arbiter
        .judge(&claim, &*cluster.stores[&party(1)])
        .is_upheld());

    // Conversely the veto itself is provable by either party.
    let veto_claim = Claim::StateVetoed {
        object: ObjectId::new("counter"),
        run,
    };
    assert!(arbiter
        .judge(&veto_claim, &*cluster.stores[&party(0)])
        .is_upheld());
    assert!(arbiter
        .judge(&veto_claim, &*cluster.stores[&party(1)])
        .is_upheld());
}

#[test]
fn valid_state_cannot_be_misrepresented_as_vetoed() {
    let mut cluster = Cluster::new(3, 93);
    cluster.setup_object("counter", counter_factory);
    let run = cluster.propose(0, "counter", enc(5));
    let arbiter = Arbiter::new(cluster.ring.clone());
    for who in 0..3 {
        let claim = Claim::StateVetoed {
            object: ObjectId::new("counter"),
            run,
        };
        assert!(
            !arbiter
                .judge(&claim, &*cluster.stores[&party(who)])
                .is_upheld(),
            "org{who} must not be able to prove a veto of an agreed state"
        );
    }
}

#[test]
fn whole_log_audit_is_clean_after_honest_runs() {
    let mut cluster = Cluster::new(3, 94);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(1));
    cluster.propose(1, "counter", enc(2));
    let auditor =
        b2b_evidence::LogAuditor::new(cluster.ring.clone(), Some(cluster.tsa.public_key()));
    for who in 0..3 {
        let report = auditor.audit(&*cluster.stores[&party(who)]);
        assert!(report.is_clean(), "org{who} log audit: {:?}", report.faults);
        assert!(report.total > 0);
    }
}

/// Appends one record per (kind, signer, payload) to `log`, each signed
/// by its signer, but a decide, which nobody signs.
fn file(log: &dyn EvidenceStore, label: &str, records: Vec<(EvidenceKind, usize, Vec<u8>)>) {
    for (kind, by, payload) in records {
        let key = KeyPair::generate_from_seed(1000 + by as u64);
        let sig = (kind != EvidenceKind::StateDecide).then(|| key.sign(&payload));
        let (origin, stamp) = (party(by), TimeMs(0));
        let record = EvidenceRecord::new(kind, "counter", label, origin, payload, sig, None, stamp);
        log.append(record).unwrap();
    }
}

#[test]
fn colluders_cannot_shrink_the_group_behind_a_claim() {
    // Each case files a forged round in one log — org0's proposal of
    // `state` in `group`, org1's accepting response, a decide of the two
    // — and claims `state` from that log.
    // - "partial": org0 files it in the group of three. The log's history
    //   says org2 is a member too, so the decide is partial: an abort,
    //   which installs nothing.
    // - "re-welcome": org0 first files org1's join request and its own
    //   welcome of the pair. org0 is in a group already, so the history
    //   refuses the welcome.
    // - "own proposal": in a group of two, org1 files the proposal in
    //   org0's name but signs it itself, to be the only member polled.
    //   The history refuses a proposal its proposer did not sign.
    let object = ObjectId::new("counter");
    let pair = [party(0), party(1)];
    for case in ["partial", "re-welcome", "own proposal"] {
        let mut cluster = Cluster::new(if case == "own proposal" { 2 } else { 3 }, 95);
        cluster.setup_object("counter", counter_factory);
        let agreed = state_id_of(&cluster, 0, "counter");
        let group = match case {
            "own proposal" => cluster.net.node(&party(0)).group(&object).unwrap(),
            _ => GroupId {
                seq: 1,
                rand_hash: sha256(b"pair"),
                members_hash: members_digest(&pair),
            },
        };
        let state = StateId {
            seq: agreed.seq + 1,
            rand_hash: sha256(b"collusion"),
            state_hash: sha256(&enc(1_000)),
        };
        let authenticator = [7u8; 32];
        let proposal = Proposal {
            object: object.clone(),
            proposer: party(0),
            group,
            prev: agreed,
            proposed: state,
            auth_commit: sha256(&authenticator),
            kind: ProposalKind::Overwrite,
        };
        let run = proposal.run_id();
        let response = Response {
            object: object.clone(),
            responder: party(1),
            group,
            run,
            prev: agreed,
            proposed: state,
            body_ok: true,
            decision: Decision::accept(),
        };
        let vote = RespondMsg {
            sig: KeyPair::generate_from_seed(1001).sign(&response.canonical_bytes()),
            response,
            memo: Default::default(),
        };
        let decide = DecideMsg {
            object: object.clone(),
            run,
            authenticator,
            responses: vec![vote.clone()],
        };
        let filer = usize::from(case == "own proposal");
        let log = &*cluster.stores[&party(filer)];
        let forged = log.records().len() as u64;
        if case == "re-welcome" {
            let request = MemberRequest {
                object: object.clone(),
                requester: party(1),
                change: MemberChange::Join,
                nonce_hash: sha256(b"rejoin"),
            };
            let verdict = MemberVerdict::Accepted {
                run: RunId(sha256(b"rejoin")),
                group,
                members: pair.to_vec(),
                agreed,
            };
            let answer = MemberAnswer {
                object: object.clone(),
                sponsor: party(0),
                request_digest: request.canonical_digest(),
                verdict,
            };
            let records = vec![
                (EvidenceKind::MemberRequest, 1, request.canonical_bytes()),
                (EvidenceKind::MemberAnswer, 0, answer.canonical_bytes()),
            ];
            file(log, "", records);
        }
        let records = vec![
            (
                EvidenceKind::StatePropose,
                filer,
                proposal.canonical_bytes(),
            ),
            (
                EvidenceKind::StateRespond,
                1,
                vote.response_bytes().to_vec(),
            ),
            (EvidenceKind::StateDecide, filer, decide.canonical_bytes()),
        ];
        file(log, &run.to_hex(), records);
        let history = history::check(log, &object, &cluster.ring, None, Unanimous);
        assert!(history.installs.iter().all(|i| i.tuple != state), "{case}");
        let fault = history.fault.map(|f| (f.record, f.kind));
        match case {
            "partial" => assert_eq!(fault, None),
            "re-welcome" => assert_eq!(fault, Some((forged + 1, FaultKind::Answer))),
            _ => assert_eq!(fault, Some((forged, FaultKind::Origin))),
        }
        let claim = Claim::StateValid {
            object: object.clone(),
            state,
        };
        let ruling = Arbiter::new(cluster.ring.clone()).judge(&claim, log);
        assert!(!ruling.is_upheld(), "{case}: {ruling:?}");
    }
}

/// The frames of a WAL file (`[len][crc][body]` each), in order.
fn frames(wal: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < wal.len() {
        let len = u32::from_be_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        out.push(&wal[at..at + 8 + len]);
        at += 8 + len;
    }
    out
}

#[test]
fn a_dropped_reordered_or_duplicated_decide_is_named_by_the_history_check() {
    let dir = std::env::temp_dir().join(format!("b2b-dispute-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let object = ObjectId::new("counter");
    let keys: Vec<KeyPair> = (0..2)
        .map(|i| KeyPair::generate_from_seed(1000 + i))
        .collect();
    let mut ring = KeyRing::new();
    for (i, kp) in keys.iter().enumerate() {
        ring.register(party(i), kp.public_key());
    }
    {
        let mut net = SimNet::new(96);
        for (i, kp) in keys.into_iter().enumerate() {
            let store = Arc::new(FileStore::open(dir.join(format!("org{i}"))).unwrap());
            let coordinator = Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .store(store);
            net.add_node(coordinator.seed(i as u64).build());
        }
        let oid = object.clone();
        net.invoke(&party(0), move |c, _| {
            c.register_object(oid, Box::new(counter_factory)).unwrap()
        });
        let oid = object.clone();
        net.invoke(&party(1), move |c, ctx| {
            c.request_connect(oid, Box::new(counter_factory), party(0), ctx)
                .unwrap()
        });
        net.run_until_quiet(QUIET);
        for v in 1..=3 {
            let oid = object.clone();
            net.invoke(&party(0), move |c, ctx| {
                c.propose_overwrite(&oid, enc(v), ctx).unwrap();
            });
            net.run_until_quiet(QUIET);
        }
    }
    let original = dir.join("org0");
    let log = FileStore::open(&original).unwrap();
    let history = history::check(&log, &object, &ring, None, Unanimous);
    assert_eq!((history.installs.len(), history.fault), (4, None));
    let records = log.records();
    let decide = records
        .iter()
        .filter(|r| r.kind == EvidenceKind::StateDecide)
        .nth(1)
        .expect("a decide of the second state round")
        .seq as usize;
    let wal = std::fs::read(original.join("evidence.wal")).unwrap();
    let frames = frames(&wal);
    assert_eq!(frames.len(), records.len());
    let mut dropped = frames.clone();
    dropped.remove(decide);
    let mut reordered = frames.clone();
    reordered.swap(decide, decide + 1);
    let mut duplicated = frames.clone();
    duplicated.insert(decide, frames[decide]);
    for (tag, copy) in [
        ("drop", dropped),
        ("reorder", reordered),
        ("dup", duplicated),
    ] {
        // A byte copy keeps every record's own sequence number.
        let copy_dir = dir.join(tag);
        std::fs::create_dir_all(&copy_dir).unwrap();
        std::fs::write(copy_dir.join("evidence.wal"), copy.concat()).unwrap();
        let fault = history::check(
            &FileStore::open(&copy_dir).unwrap(),
            &object,
            &ring,
            None,
            Unanimous,
        );
        assert_eq!(fault.fault.unwrap().record, decide as u64, "{tag}");
        // Filed afresh, the records are renumbered, and the history itself
        // breaks at the same place: a checkpoint with no install before it,
        // or a decide of a run that already ended.
        let renumbered = MemStore::new();
        for record in FileStore::open(&copy_dir).unwrap().records() {
            renumbered.append(record).unwrap();
        }
        let fault = history::check(&renumbered, &object, &ring, None, Unanimous)
            .fault
            .unwrap();
        let at = decide as u64 + u64::from(tag == "dup");
        assert_eq!(fault.record, at, "{tag}: {fault}");
        assert!(
            matches!(
                fault.kind,
                FaultKind::Checkpoint(..) | FaultKind::NoOpenRound
            ),
            "{tag}: {fault}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
