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
