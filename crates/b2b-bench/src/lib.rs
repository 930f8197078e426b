#![warn(missing_docs)]

//! Benchmark harness for the B2BObjects reproduction.
//!
//! The DSN 2002 paper's evaluation is qualitative, so the quantitative
//! experiments here measure the paper's *prose* claims (message
//! complexity, 3-step latency, liveness under bounded failures, the cost
//! of the non-repudiation machinery) plus the design-choice ablations
//! called out in `DESIGN.md`. Every experiment in `EXPERIMENTS.md` is
//! regenerated by the `exp` binary
//! (`cargo run -p b2b-bench --release --bin exp -- <e1..e9|all>`).

pub mod sharded;

use b2b_apps::SharedCell;
use b2b_core::{B2BObject, Coordinator, CoordinatorConfig, Decision, ObjectId, Outcome, RunId};
use b2b_crypto::{InsecureSigner, KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2b_evidence::MemStore;
use b2b_net::{FaultPlan, SimNet};
use b2b_telemetry::{MetricsSnapshot, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Virtual-time budget for driving a workload to quiescence.
pub const QUIET: TimeMs = TimeMs(60_000_000);

/// Which signature scheme the fleet uses (crypto ablation, E4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crypto {
    /// Production Ed25519 signatures.
    Ed25519,
    /// Forgeable truncated-hash signatures — isolates signing cost.
    Insecure,
}

/// Adds a non-member TTP node named "notary" to serve §7 termination
/// appeals; returns its id. Call before any traffic.
pub fn add_notary(fleet: &mut Fleet, seed: u64) -> PartyId {
    let notary = PartyId::new("notary");
    let kp = KeyPair::generate_from_seed(7777);
    fleet.ring.register(notary.clone(), kp.public_key());
    // Members must know the notary's key: rebuild their rings is not
    // possible post-hoc, so fleets that need a notary register it in the
    // shared ring up front via `with_notary`.
    fleet.net.add_node(
        Coordinator::builder(notary.clone(), kp)
            .ring(fleet.ring.clone())
            .seed(seed)
            .telemetry(fleet.telemetry.clone())
            .build(),
    );
    notary
}

/// A simulated fleet of coordinators for experiments.
pub struct Fleet {
    /// The simulated network.
    pub net: SimNet<Coordinator>,
    /// Party ids, in index order.
    pub parties: Vec<PartyId>,
    /// Each party's in-memory store.
    pub stores: HashMap<PartyId, Arc<MemStore>>,
    /// The shared key ring.
    pub ring: KeyRing,
    /// Fleet-wide observability handle, shared by every coordinator and
    /// the simulated network; its registry accumulates metrics for the
    /// whole experiment.
    pub telemetry: Telemetry,
}

/// Returns the canonical party id for index `i`.
pub fn party(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

/// Serialises a `u64` as coordination state.
pub fn enc(v: u64) -> Vec<u8> {
    serde_json::to_vec(&v).unwrap()
}

/// A grow-only counter object (the standard experiment workload).
pub fn counter_factory() -> Box<dyn B2BObject> {
    Box::new(SharedCell::new(0u64).with_validator(|_w, old, new| {
        if new >= old {
            Decision::accept()
        } else {
            Decision::reject("decrease")
        }
    }))
}

/// A blob with genuine §4.3.1 *update* semantics: the coordinated state is
/// a byte vector and an update is a chunk appended to it — so update runs
/// ship only the delta while overwrite runs ship the whole state.
pub struct AppendBlob {
    data: Vec<u8>,
}

impl AppendBlob {
    /// An empty blob.
    pub fn new() -> AppendBlob {
        AppendBlob { data: Vec::new() }
    }
}

impl Default for AppendBlob {
    fn default() -> Self {
        AppendBlob::new()
    }
}

impl B2BObject for AppendBlob {
    fn get_state(&self) -> Vec<u8> {
        self.data.clone()
    }
    fn apply_state(&mut self, state: &[u8]) {
        self.data = state.to_vec();
    }
    fn validate_state(&self, _w: &PartyId, _c: &[u8], _p: &[u8]) -> Decision {
        Decision::accept()
    }
    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        let mut next = current.to_vec();
        next.extend_from_slice(update);
        Ok(next)
    }
}

/// Factory for [`AppendBlob`].
pub fn append_blob_factory() -> Box<dyn B2BObject> {
    Box::new(AppendBlob::new())
}

impl Fleet {
    /// Builds `n` coordinators on a perfect 1 ms network.
    pub fn new(n: usize, seed: u64) -> Fleet {
        Fleet::with_options(
            n,
            seed,
            CoordinatorConfig::default(),
            FaultPlan::default(),
            Crypto::Ed25519,
            true,
        )
    }

    /// Full-control constructor (fresh sink-less telemetry).
    pub fn with_options(
        n: usize,
        seed: u64,
        config: CoordinatorConfig,
        plan: FaultPlan,
        crypto: Crypto,
        with_tsa: bool,
    ) -> Fleet {
        Fleet::with_telemetry(n, seed, config, plan, crypto, with_tsa, Telemetry::new())
    }

    /// [`Fleet::with_options`] with a caller-supplied telemetry handle —
    /// attach a trace sink before construction to flight-record the whole
    /// fleet (`exp -- trace` does exactly this).
    #[allow(clippy::too_many_arguments)]
    pub fn with_telemetry(
        n: usize,
        seed: u64,
        config: CoordinatorConfig,
        plan: FaultPlan,
        crypto: Crypto,
        with_tsa: bool,
        telemetry: Telemetry,
    ) -> Fleet {
        let mut ring = KeyRing::new();
        if config.ttp == Some(PartyId::new("notary")) {
            // Pre-register the notary key so members can verify its
            // resolutions; the node itself is added by `add_notary`.
            ring.register(
                PartyId::new("notary"),
                KeyPair::generate_from_seed(7777).public_key(),
            );
        }
        let mut signers: Vec<Box<dyn Fn() -> Box<dyn Signer> + Send>> = Vec::new();
        for i in 0..n {
            match crypto {
                Crypto::Ed25519 => {
                    let kp = KeyPair::generate_from_seed(1000 + i as u64);
                    ring.register(party(i), kp.public_key());
                    signers.push(Box::new(move || Box::new(kp.clone())));
                }
                Crypto::Insecure => {
                    let s = InsecureSigner::from_seed(1000 + i as u64);
                    ring.register(party(i), s.public_key());
                    signers.push(Box::new(move || Box::new(s.clone())));
                }
            }
        }
        let tsa = with_tsa.then(|| match crypto {
            Crypto::Ed25519 => TimeStampAuthority::new(KeyPair::generate_from_seed(9999)),
            Crypto::Insecure => TimeStampAuthority::new(InsecureSigner::from_seed(9999)),
        });
        let mut net = SimNet::new(seed);
        net.set_default_plan(plan);
        net.set_telemetry(telemetry.clone());
        let mut stores = HashMap::new();
        for (i, make_signer) in signers.into_iter().enumerate() {
            let store = Arc::new(MemStore::new());
            stores.insert(party(i), store.clone());
            let mut builder = Coordinator::builder(party(i), make_signer())
                .ring(ring.clone())
                .config(config.clone())
                .store(store)
                .seed(seed.wrapping_add(i as u64))
                .telemetry(telemetry.clone());
            if let Some(tsa) = &tsa {
                builder = builder.tsa(tsa.clone());
            }
            net.add_node(builder.build());
        }
        Fleet {
            net,
            parties: (0..n).map(party).collect(),
            stores,
            ring,
            telemetry,
        }
    }

    /// Registers `alias` at org0 and joins the rest sequentially.
    pub fn setup_object<F>(&mut self, alias: &str, factory: F)
    where
        F: Fn() -> Box<dyn B2BObject> + Clone + Send + 'static,
    {
        let f0 = factory.clone();
        let a = alias.to_string();
        self.net.invoke(&party(0), move |c, _| {
            c.register_object(ObjectId::new(a), Box::new(f0)).unwrap();
        });
        for i in 1..self.parties.len() {
            let fi = factory.clone();
            let sponsor = party(i - 1);
            let a = alias.to_string();
            self.net.invoke(&party(i), move |c, ctx| {
                c.request_connect(ObjectId::new(a), Box::new(fi), sponsor, ctx)
                    .unwrap();
            });
            self.run();
        }
    }

    /// Drives the network to quiescence.
    pub fn run(&mut self) {
        self.net.run_until_quiet(QUIET);
    }

    /// Proposes an overwrite from `who` and drives to quiescence.
    pub fn propose(&mut self, who: usize, alias: &str, state: Vec<u8>) -> RunId {
        let oid = ObjectId::new(alias.to_string());
        let run = self.net.invoke(&party(who), move |c, ctx| {
            c.propose_overwrite(&oid, state, ctx).unwrap()
        });
        self.run();
        run
    }

    /// Proposes an update delta from `who` and drives to quiescence.
    pub fn propose_update(&mut self, who: usize, alias: &str, update: Vec<u8>) -> RunId {
        let oid = ObjectId::new(alias.to_string());
        let run = self.net.invoke(&party(who), move |c, ctx| {
            c.propose_update(&oid, update, ctx).unwrap()
        });
        self.run();
        run
    }

    /// The outcome of `run` at `who`.
    pub fn outcome(&self, who: usize, run: &RunId) -> Option<Outcome> {
        self.net.node(&party(who)).outcome_of(run).cloned()
    }

    /// Sum of protocol-level messages across parties.
    pub fn total_protocol_messages(&self) -> u64 {
        self.parties
            .iter()
            .map(|p| self.net.node(p).messages_sent())
            .sum()
    }

    /// A point-in-time snapshot of the fleet-wide metrics registry.
    ///
    /// Every coordinator shares the fleet's [`Telemetry`] handle, so this
    /// already aggregates across parties; use
    /// [`MetricsSnapshot::merge`] to combine several fleets.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.telemetry.metrics().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_runs_a_basic_workload() {
        let mut fleet = Fleet::new(3, 1);
        fleet.setup_object("c", counter_factory);
        let run = fleet.propose(0, "c", enc(5));
        assert!(fleet.outcome(0, &run).unwrap().is_installed());
    }

    #[test]
    fn insecure_crypto_fleet_also_works() {
        let mut fleet = Fleet::with_options(
            2,
            2,
            CoordinatorConfig::default(),
            FaultPlan::default(),
            Crypto::Insecure,
            false,
        );
        fleet.setup_object("c", counter_factory);
        let run = fleet.propose(1, "c", enc(9));
        assert!(fleet.outcome(0, &run).unwrap().is_installed());
    }
}
