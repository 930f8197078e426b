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
        "2c3e87c064288fae4463632444bebb031605e813370bd1f4291e6c382731f396",
        "12f22826177096f78ada09a7b0ce683fe5d770d556ce40b85d93b45464139e4a",
    ),
    (
        Fault::Inapplicable,
        4,
        1,
        "a268d2034dbc5fa171590d1a7e5f5c4e9c98941d36d9a5146bf69ffd69754266",
        "f2fd852b55eb13ce69bb373456a02dc30db9defdfce9b2c1063629bafbaf2cc9",
    ),
    (
        Fault::Vetoed,
        4,
        3,
        "fcdd92690fb7c7ea820a1455f4f3028d535356ab17eb7b0d00d46b432f1d3dac",
        "5b55578c22e09afc3dda9d3af9675e103e6cd72e79d4ef8090fa7c5c52b5ad72",
    ),
    (
        Fault::Forged,
        1,
        0,
        "cef4e145979edb72f00d1fd035831943d3c626b127e6ad2adc1116bfefd193b8",
        "15eb1e0eda4aae5a8c2c05f177546a8720870b932e84152c7bbc13824dfb7bd8",
    ),
    (
        Fault::Inapplicable,
        1,
        0,
        "7ea283bb40df9ba31f9f7c144439624f492b8b9b7386bff8e701f2c217e3d1ad",
        "1877f1f4ca9cadef3641cfd87d274b603ca7acaf0e0196753e526388d1ad9d2f",
    ),
    (
        Fault::Vetoed,
        1,
        0,
        "559aa8b9e4633393bc19c8cbee863f14dc96152815a16e8a98053b8c45bc9fcd",
        "81ae91e94d35bf8ce4a6f66c8ab11ec89b306cb874fcaf85637157231717c357",
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
