//! Replaying an update chain through `B2BObject::fold_updates`.
//!
//! - The default fold is exactly the per-update `apply_update` /
//!   `validate_update` sequence (pinned here for `SharedCell` and
//!   `CompositeObject`, which keep the default).
//! - A responder replays a single update and a batch through one shared
//!   fold. For a forged update, an inapplicable update and a vetoed update
//!   — each at a known index, batched and alone — the decision (index
//!   included), the misbehaviour records and every party's evidence bytes
//!   are pinned to what the per-update replay this fold replaced produced:
//!   the `GOLDEN` digests were recorded at that parent commit.

mod common;

use b2b_apps::{CompositeObject, SharedCell};
use b2b_core::messages::{decode_batch_body, encode_batch_body, ProposalKind, WireMsg};
use b2b_core::{B2BObject, CoordinatorConfig, Decision, FoldStep, ObjectId};
use b2b_crypto::{sha256, CanonicalEncode, PartyId, TimeMs};
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::{data_body, with_body};
use b2b_net::FaultPlan;
use common::*;

// ---------------------------------------------------------------------
// The default fold
// ---------------------------------------------------------------------

/// The per-update calls the default fold must equal, spelled out.
fn per_update_calls(
    object: &dyn B2BObject,
    proposer: Option<&PartyId>,
    current: &[u8],
    updates: &[Vec<u8>],
) -> Vec<FoldStep> {
    let mut state = current.to_vec();
    updates
        .iter()
        .map(|u| {
            let verdict = proposer.map(|p| object.validate_update(p, &state, u));
            let next = object.apply_update(&state, u);
            if let Ok(next) = &next {
                state = next.clone();
            }
            FoldStep { next, verdict }
        })
        .collect()
}

fn assert_default_fold(object: &dyn B2BObject, current: &[u8], updates: &[Vec<u8>]) {
    let who = PartyId::new("org0");
    for proposer in [None, Some(&who)] {
        let folded = object.fold_updates(proposer, current, updates);
        assert_eq!(folded, per_update_calls(object, proposer, current, updates));
        assert_eq!(folded.len(), updates.len());
        assert_eq!(
            folded.iter().all(|s| s.verdict.is_some()),
            proposer.is_some() || updates.is_empty()
        );
    }
}

#[test]
fn default_fold_of_shared_cell_and_composite_equals_per_update_calls() {
    let grow_only = || {
        SharedCell::new(0u64).with_validator(|_who, old: &u64, new: &u64| {
            if new >= old {
                Decision::accept()
            } else {
                Decision::reject("counter may not decrease")
            }
        })
    };
    let cell = grow_only();
    let updates: Vec<Vec<u8>> = vec![enc(3), enc(2), b"junk".to_vec(), enc(9), enc(9)];
    assert_default_fold(&cell, &cell.get_state(), &updates);
    assert_default_fold(&cell, b"undecodable", &updates);
    assert_default_fold(&cell, &cell.get_state(), &[]);

    let composite = CompositeObject::new()
        .with_component("grower", grow_only())
        .with_component("free", SharedCell::new(String::new()));
    let delta = |name: &str, bytes: Vec<u8>| {
        let map: std::collections::BTreeMap<String, Vec<u8>> =
            [(name.to_string(), bytes)].into_iter().collect();
        serde_json::to_vec(&map).unwrap()
    };
    let updates = vec![
        delta("grower", enc(5)),
        delta("free", serde_json::to_vec("x").unwrap()),
        delta("grower", enc(1)),
        delta("nobody", enc(1)),
        b"junk".to_vec(),
        delta("grower", enc(7)),
    ];
    assert_default_fold(&composite, &composite.get_state(), &updates);
    assert_default_fold(&composite, b"undecodable", &updates);
}

// ---------------------------------------------------------------------
// Failures at a known index: decision, misbehaviour and evidence pinned
// ---------------------------------------------------------------------

fn entry(s: &str) -> Vec<u8> {
    serde_json::to_vec(&s.to_string()).unwrap()
}

/// An append log whose replica at party `me` cannot apply the entry
/// `no-<me>` — so an update its proposer applied is inapplicable here.
struct Picky {
    me: &'static str,
    log: AppendLog,
}

impl B2BObject for Picky {
    fn get_state(&self) -> Vec<u8> {
        self.log.get_state()
    }
    fn apply_state(&mut self, state: &[u8]) {
        self.log.apply_state(state)
    }
    fn validate_state(&self, who: &PartyId, current: &[u8], proposed: &[u8]) -> Decision {
        self.log.validate_state(who, current, proposed)
    }
    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        if update == entry(&format!("no-{}", self.me)).as_slice() {
            return Err(format!("{} will not append that", self.me));
        }
        self.log.apply_update(current, update)
    }
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The intruder swaps the update at the index in the unsigned body.
    Forged,
    /// org1's replica cannot apply the update at the index.
    Inapplicable,
    /// Every responder's validation vetoes the update at the index.
    Vetoed,
}

/// Runs one round of `len` updates (a batch, or one plain update when
/// `len == 1`) from org0 to org1 and org2 with `fault` at `index`, and
/// returns what it decided and a digest of everything it left behind:
/// org0's outcome, every party's detected misbehaviours and the
/// canonical bytes of every party's evidence records, and its
/// [`scenario_shape`].
fn faulty_round(fault: Fault, len: usize, index: usize) -> (String, String, String) {
    let mut cluster = Cluster::with_config(3, 321, CoordinatorConfig::default(), FaultPlan::new());
    let oid = ObjectId::new("log");
    let picky = |me: &'static str| {
        move || {
            Box::new(Picky {
                me,
                log: AppendLog::new(),
            }) as Box<dyn B2BObject>
        }
    };
    cluster.net.invoke(&party(0), {
        let oid = oid.clone();
        move |c, _| c.register_object(oid, Box::new(picky("org0"))).unwrap()
    });
    for (i, me) in [(1, "org1"), (2, "org2")] {
        let oid = oid.clone();
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(oid, Box::new(picky(me)), party(i - 1), ctx)
                .unwrap()
        });
        cluster.run();
    }
    if let Fault::Forged = fault {
        cluster.net.set_intruder(FnIntruder::new(
            move |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
                let Some(WireMsg::Propose(mut m)) = data_body(raw).and_then(WireMsg::from_bytes)
                else {
                    return InterceptAction::Deliver;
                };
                match m.proposal.kind {
                    ProposalKind::Batch { .. } => {
                        let mut updates = decode_batch_body(&m.body).unwrap();
                        updates[index] = entry("forged");
                        m.body = encode_batch_body(&updates);
                    }
                    ProposalKind::Update { .. } => m.body = entry("forged"),
                    _ => return InterceptAction::Deliver,
                }
                let out = with_body(raw, &WireMsg::Propose(m).to_bytes());
                InterceptAction::Replace(out.expect("a data frame"))
            },
        ));
    }
    let entries: Vec<Vec<u8>> = (0..len)
        .map(|i| match (fault, i == index) {
            (Fault::Inapplicable, true) => entry("no-org1"),
            (Fault::Vetoed, true) => entry(&format!("forbidden-{i}")),
            _ => entry(&format!("e{i}")),
        })
        .collect();
    // Submitted 30 ms after set-up: the virtual time these rows' evidence
    // timestamps were recorded at.
    let (sent, submitted) = std::sync::mpsc::channel();
    let at = TimeMs(cluster.net.now().as_millis() + 30);
    cluster.net.at(at, party(0), {
        let oid = oid.clone();
        move |c, ctx| {
            let tickets = c.submit_updates(&oid, entries, ctx).unwrap();
            sent.send(tickets[0]).unwrap();
        }
    });
    cluster.run();
    let ticket = submitted.recv().unwrap();

    let outcome = format!(
        "{:?}",
        cluster.net.node(&party(0)).outcome_of_ticket(&ticket)
    );
    let mut digest_input = outcome.clone().into_bytes();
    for i in 0..3 {
        let node = cluster.net.node(&party(i));
        digest_input.extend(format!("{:?}", node.detected()).into_bytes());
        for record in node.evidence().records() {
            digest_input.extend(record.canonical_bytes());
        }
    }
    let shape = scenario_shape(&cluster, "log");
    (outcome, sha256(&digest_input).to_string(), shape)
}

/// `(fault, len, index, digest, shape)`. The `Forged` rows log a
/// `Misbehaviour` record, so their digests also pin its canonical payload.
const GOLDEN: &[(Fault, usize, usize, &str, &str)] = &[
    (
        Fault::Forged,
        4,
        2,
        "c8a0fd3c121468f33399a755597c3274f6157299ba527ad4e4fcd7007b760d5f",
        "bc2131f7fc2901d3c8f851e6b59117bac051ae94396afea76fee7ed1ea620096",
    ),
    (
        Fault::Inapplicable,
        4,
        1,
        "b4d8abfaa0dedc5ecffeab70ad13c873c6ddd16cb9afaa832f70785bc327a092",
        "c070c9389b5659ad661df2a6ffcfc406923735ce7121a711dd1b325aa5bf4255",
    ),
    (
        Fault::Vetoed,
        4,
        3,
        "f28f955e7411b7122a2a4632a480e7e9f2af6c25072ce3d325b7ab36940b6bc7",
        "af336f3cc388c966c7bed7869709e5b13c82425ce4e3d7cb9f149279dd8e4924",
    ),
    (
        Fault::Forged,
        1,
        0,
        "a800f9e49a74e6bac5ceec40f3b468929e693b7c4d21df30c2a3d7b388028d1c",
        "849edc40f874ce7d6cea36c46a16ed7945361875630e43ef4bb4924993e01b27",
    ),
    (
        Fault::Inapplicable,
        1,
        0,
        "908c237b20985675c11845b84856834a644b2c4faf4a81d2e55094cb1b67bff7",
        "2d4817991f4ecf11d4a80059fe3b21ecb534fb6e3d56e226598f846f24deedd0",
    ),
    (
        Fault::Vetoed,
        1,
        0,
        "d636cf4ef092e0903d582fd2c01e7eb83ad06879224c04d305feb7600db2919d",
        "c6861ce08cf2c207368dd47f033e25d15bfdccd7e4d8f9a3f7084fbbd3135f6a",
    ),
];

#[test]
fn failures_inside_a_replayed_chain_keep_decision_misbehaviour_and_evidence() {
    for &(fault, len, index, golden, shape) in GOLDEN {
        let (outcome, digest, got_shape) = faulty_round(fault, len, index);
        // The decision names the failing update's index inside a batch.
        let expect = match (fault, len) {
            (Fault::Forged, 1) => "body does not match signed hashes".to_string(),
            (Fault::Forged, _) => format!("batch[{index}]: update does not match signed hash"),
            (Fault::Inapplicable, 1) => "update not applicable: org1 will not append".into(),
            (Fault::Inapplicable, _) => {
                format!("batch[{index}]: update not applicable: org1 will not append")
            }
            (Fault::Vetoed, 1) => "forbidden entry".into(),
            (Fault::Vetoed, _) => format!("batch[{index}]: forbidden entry"),
        };
        assert!(
            outcome.contains(&expect),
            "{fault:?} at {index} of {len}: {outcome}"
        );
        assert_eq!(
            digest, golden,
            "{fault:?} at {index} of {len}: decision, misbehaviour or evidence bytes moved ({outcome})"
        );
        assert_eq!(
            got_shape, shape,
            "{fault:?} at {index} of {len}: scenario shape moved"
        );
    }
}
