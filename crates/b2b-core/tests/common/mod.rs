#![allow(dead_code)]

//! Shared test harness: a simulated cluster of coordinators with a common
//! CA-less key ring, per-party in-memory stores, and helpers for the
//! recurring setup (register an object, connect members, drive the net).

use b2b_apps::SharedCell;
use b2b_core::{B2BObject, Coordinator, CoordinatorConfig, Decision, ObjectId, Outcome, RunId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2b_evidence::MemStore;
use b2b_net::{FaultPlan, SimNet};
use std::collections::HashMap;
use std::sync::Arc;

pub const QUIET: TimeMs = TimeMs(600_000);

pub struct Cluster {
    pub net: SimNet<Coordinator>,
    pub parties: Vec<PartyId>,
    pub stores: HashMap<PartyId, Arc<MemStore>>,
    pub ring: KeyRing,
    pub tsa: TimeStampAuthority,
}

pub fn party(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

impl Cluster {
    /// Builds `n` coordinators with shared ring/TSA on a perfect network.
    pub fn new(n: usize, seed: u64) -> Cluster {
        Cluster::with_config(n, seed, CoordinatorConfig::default(), FaultPlan::default())
    }

    pub fn with_config(n: usize, seed: u64, config: CoordinatorConfig, plan: FaultPlan) -> Cluster {
        Cluster::with_config_and_telemetry(n, seed, config, plan, Vec::new())
    }

    /// Like [`Cluster::with_config`], but attaches `telemetry[i]` to party
    /// `i` (parties beyond the slice get a private, sink-less handle).
    pub fn with_config_and_telemetry(
        n: usize,
        seed: u64,
        config: CoordinatorConfig,
        plan: FaultPlan,
        telemetry: Vec<b2b_telemetry::Telemetry>,
    ) -> Cluster {
        let mut ring = KeyRing::new();
        let mut keys = Vec::new();
        for i in 0..n {
            let kp = KeyPair::generate_from_seed(1000 + i as u64);
            ring.register(party(i), kp.public_key());
            keys.push(kp);
        }
        let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(9999));
        let mut net = SimNet::new(seed);
        net.set_default_plan(plan);
        let mut stores = HashMap::new();
        for (i, kp) in keys.into_iter().enumerate() {
            let store = Arc::new(MemStore::new());
            stores.insert(party(i), store.clone());
            let mut builder = Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .tsa(tsa.clone())
                .config(config.clone())
                .store(store)
                .seed(seed.wrapping_add(i as u64));
            if let Some(t) = telemetry.get(i) {
                builder = builder.telemetry(t.clone());
            }
            net.add_node(builder.build());
        }
        Cluster {
            net,
            parties: (0..n).map(party).collect(),
            stores,
            ring,
            tsa,
        }
    }

    /// Registers `alias` at org0 and connects org1..orgN-1 sequentially
    /// (each sponsored by the most recently joined member, per §4.5.1).
    pub fn setup_object<F>(&mut self, alias: &str, factory: F)
    where
        F: Fn() -> Box<dyn B2BObject> + Clone + Send + 'static,
    {
        let oid = ObjectId::new(alias);
        let f0 = factory.clone();
        self.net.invoke(&party(0), move |c, _| {
            c.register_object(oid, Box::new(f0)).unwrap();
        });
        for i in 1..self.parties.len() {
            let oid = ObjectId::new(alias);
            let fi = factory.clone();
            let sponsor = party(i - 1);
            self.net.invoke(&party(i), move |c, ctx| {
                c.request_connect(oid, Box::new(fi), sponsor, ctx).unwrap();
            });
            self.run();
            let oid = ObjectId::new(alias);
            assert!(
                self.net.node(&party(i)).is_member(&oid),
                "org{i} failed to join {alias}"
            );
        }
    }

    /// Runs the network until quiescent.
    pub fn run(&mut self) {
        self.net.run_until_quiet(QUIET);
    }

    /// Proposes an overwrite from `who` and runs the net to completion.
    pub fn propose(&mut self, who: usize, alias: &str, state: Vec<u8>) -> RunId {
        let oid = ObjectId::new(alias);
        let run = self.net.invoke(&party(who), move |c, ctx| {
            c.propose_overwrite(&oid, state, ctx).unwrap()
        });
        self.run();
        run
    }

    pub fn outcome(&self, who: usize, run: &RunId) -> Option<Outcome> {
        self.net.node(&party(who)).outcome_of(run).cloned()
    }

    pub fn state(&self, who: usize, alias: &str) -> Vec<u8> {
        self.net
            .node(&party(who))
            .agreed_state(&ObjectId::new(alias))
            .expect("state present")
    }

    pub fn members(&self, who: usize, alias: &str) -> Vec<PartyId> {
        self.net
            .node(&party(who))
            .members(&ObjectId::new(alias))
            .expect("members present")
    }

    /// Sum of protocol-level messages sent across all parties.
    pub fn total_protocol_messages(&self) -> u64 {
        self.parties
            .iter()
            .map(|p| self.net.node(p).messages_sent())
            .sum()
    }
}

/// SHA-256 over what every party of `cluster` holds about `alias`: its
/// evidence (canonical record bytes, in log order), its `obj-<alias>`
/// checkpoint, and the outcome of every run its evidence names. Pins the
/// bytes a scenario produces, so a refactor of the protocol code can show
/// it changed none of them.
pub fn scenario_digest(cluster: &Cluster, alias: &str) -> String {
    use b2b_crypto::{CanonicalEncode, Digest32};
    use b2b_evidence::{EvidenceStore, SnapshotStore};
    let mut input = Vec::new();
    for p in &cluster.parties {
        let store = &cluster.stores[p];
        let records = store.records();
        for record in &records {
            input.extend(record.canonical_bytes());
        }
        let checkpoint = store.get_snapshot(&format!("obj-{alias}"));
        input.push(u8::from(checkpoint.is_some()));
        input.extend(checkpoint.unwrap_or_default());
        let mut runs: Vec<&str> = Vec::new();
        for record in &records {
            if !runs.contains(&record.run.as_str()) {
                runs.push(&record.run);
            }
        }
        for hex in runs.into_iter().filter(|h| h.len() == 64) {
            let Some(bytes) = (0..32)
                .map(|i| u8::from_str_radix(hex.get(2 * i..2 * i + 2)?, 16).ok())
                .collect::<Option<Vec<u8>>>()
            else {
                continue;
            };
            let run = RunId(Digest32(bytes.try_into().expect("32 bytes")));
            if let Some(outcome) = cluster.net.node(p).outcome_of(&run) {
                input.extend(format!("{hex}={outcome:?};").into_bytes());
            }
        }
    }
    b2b_crypto::sha256(&input).to_string()
}

/// Asserts [`scenario_digest`] equals `golden`.
pub fn assert_golden(cluster: &Cluster, alias: &str, golden: &str) {
    assert_eq!(
        scenario_digest(cluster, alias),
        golden,
        "evidence, checkpoint or outcome bytes of {alias} changed"
    );
}

/// Asserts that every party's log of `alias` reads as a history
/// ([`b2b_core::history::check`]): each record verifies against the ring
/// and the TSA, and each install extends what the log itself established.
pub fn assert_history(cluster: &Cluster, alias: &str) {
    let oid = ObjectId::new(alias);
    let tsa = cluster.tsa.public_key();
    for p in &cluster.parties {
        let log = &*cluster.stores[p];
        let history = b2b_core::history::check(
            log,
            &oid,
            &cluster.ring,
            Some(&tsa),
            b2b_core::DecisionRule::Unanimous,
        );
        if let Some(fault) = history.fault {
            panic!("{p}'s log of {alias} is not a history: {fault}");
        }
    }
}

/// SHA-256 over what a scenario *did*, blind to the bytes of membership
/// messages and to the names their evidence kinds once had. Per party of
/// `cluster`:
/// - the sequence of (round step, signer) in log order, with the payload
///   bytes of the state-round records (propose, respond, decide,
///   checkpoint);
/// - the outcome of every run its evidence names, keyed by the run's order
///   of first appearance in the log rather than by its label;
/// - the final members, agreed tuple and agreed state of `alias`.
///
/// The step of a record is its kind: the propose, respond and decide of
/// every round are filed as `State…` steps, and a subject's request and
/// answer as `MemberRequest` and `MemberAnswer` (the log once had a kind
/// per membership step; this digest was recorded mapping them onto
/// these). A record belongs to a membership round when its run's proposal
/// is a membership change.
///
/// A change to the wire layout of membership rounds, or to the kinds their
/// records are filed under, moves [`scenario_digest`] but not this; a
/// change to who signed what, to any state-round byte or to any outcome
/// moves both.
pub fn scenario_shape(cluster: &Cluster, alias: &str) -> String {
    use b2b_core::messages::Proposal;
    use b2b_crypto::{CanonicalDecode, CanonicalEncode};
    use b2b_evidence::{EvidenceKind, EvidenceStore};
    let oid = ObjectId::new(alias);
    let logs: Vec<_> = cluster
        .parties
        .iter()
        .map(|p| cluster.stores[p].records())
        .collect();
    let member_runs: std::collections::HashSet<&str> = logs
        .iter()
        .flatten()
        .filter(|r| {
            r.kind == EvidenceKind::StatePropose
                && Proposal::from_canonical(&r.payload).is_ok_and(|p| p.kind.is_membership())
        })
        .map(|r| r.run.as_str())
        .collect();
    let mut input = Vec::new();
    for (p, records) in cluster.parties.iter().zip(&logs) {
        let node = cluster.net.node(p);
        let mut runs: Vec<&str> = Vec::new();
        for record in records {
            input.extend(format!("{:?}/{};", record.kind, record.origin).into_bytes());
            if matches!(
                record.kind,
                EvidenceKind::StatePropose
                    | EvidenceKind::StateRespond
                    | EvidenceKind::StateDecide
                    | EvidenceKind::Checkpoint
            ) && !member_runs.contains(record.run.as_str())
            {
                input.extend(&record.payload);
            }
            if !runs.contains(&record.run.as_str()) {
                runs.push(&record.run);
            }
        }
        for (i, hex) in runs.into_iter().enumerate() {
            let Some(run) = run_of_hex(hex) else {
                continue;
            };
            if let Some(outcome) = node.outcome_of(&run) {
                input.extend(format!("#{i}={outcome:?};").into_bytes());
            }
        }
        input.extend(format!("{:?}|", node.members(&oid)).into_bytes());
        input.extend(
            node.agreed_id(&oid)
                .map(|id| id.canonical_bytes())
                .unwrap_or_default(),
        );
        input.extend(node.agreed_state(&oid).unwrap_or_default());
    }
    b2b_crypto::sha256(&input).to_string()
}

/// The run label a record names, if it is one (64 hex digits).
fn run_of_hex(hex: &str) -> Option<RunId> {
    if hex.len() != 64 {
        return None;
    }
    let bytes = (0..32)
        .map(|i| u8::from_str_radix(hex.get(2 * i..2 * i + 2)?, 16).ok())
        .collect::<Option<Vec<u8>>>()?;
    Some(RunId(b2b_crypto::Digest32(bytes.try_into().ok()?)))
}

/// Asserts [`scenario_shape`] equals `golden`.
pub fn assert_shape(cluster: &Cluster, alias: &str, golden: &str) {
    assert_eq!(
        scenario_shape(cluster, alias),
        golden,
        "evidence kinds, signers, state-round bytes, outcomes or final state of {alias} changed"
    );
}

/// A grow-only shared counter: a transition is valid iff the value does
/// not decrease. JSON-encoded `u64`.
pub fn counter_factory() -> Box<dyn B2BObject> {
    Box::new(SharedCell::new(0u64).with_validator(|_who, old, new| {
        if new >= old {
            Decision::accept()
        } else {
            Decision::reject("counter may not decrease")
        }
    }))
}

pub fn enc(v: u64) -> Vec<u8> {
    serde_json::to_vec(&v).unwrap()
}

pub fn dec(bytes: &[u8]) -> u64 {
    serde_json::from_slice(bytes).unwrap()
}

/// An append-only log object with true *update* semantics: an update is a
/// single entry appended to the JSON `Vec<String>` state. Validation
/// rejects entries containing "forbidden".
pub struct AppendLog {
    entries: Vec<String>,
}

impl AppendLog {
    pub fn new() -> AppendLog {
        AppendLog {
            entries: Vec::new(),
        }
    }
}

impl B2BObject for AppendLog {
    fn get_state(&self) -> Vec<u8> {
        serde_json::to_vec(&self.entries).unwrap()
    }

    fn apply_state(&mut self, state: &[u8]) {
        if let Ok(v) = serde_json::from_slice(state) {
            self.entries = v;
        }
    }

    fn validate_state(&self, _who: &PartyId, current: &[u8], proposed: &[u8]) -> Decision {
        let cur: Vec<String> = serde_json::from_slice(current).unwrap_or_default();
        let Ok(next) = serde_json::from_slice::<Vec<String>>(proposed) else {
            return Decision::reject("undecodable");
        };
        if next.len() != cur.len() + 1 || next[..cur.len()] != cur[..] {
            return Decision::reject("not a single append");
        }
        if next.last().map(|e| e.contains("forbidden")).unwrap_or(true) {
            return Decision::reject("forbidden entry");
        }
        Decision::accept()
    }

    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        let mut cur: Vec<String> = serde_json::from_slice(current).map_err(|e| e.to_string())?;
        let entry: String = serde_json::from_slice(update).map_err(|e| e.to_string())?;
        cur.push(entry);
        Ok(serde_json::to_vec(&cur).unwrap())
    }
}

pub fn append_log_factory() -> Box<dyn B2BObject> {
    Box::new(AppendLog::new())
}
