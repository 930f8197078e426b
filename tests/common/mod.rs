//! Shared harness for the cross-crate scenario tests: a simulated network
//! of coordinators driven through the public facade API.

#![allow(dead_code)]

use b2bobjects::core::{B2BObject, Coordinator, ObjectId, Outcome, RunId};
use b2bobjects::crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2bobjects::evidence::{EvidenceStore, MemStore};
use b2bobjects::net::{
    GroupHandle, GroupId, NetStats, ShardedNet, ShardedTcpConfig, ShardedTcpNet, SimNet,
};
use b2bobjects::telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

pub const QUIET: TimeMs = TimeMs(600_000);

/// Real-clock deadline for TCP scenario steps: generous enough that a
/// healthy run never approaches it (conditions are polled, not slept on).
pub const TCP_STEP: Duration = Duration::from_secs(30);

pub struct World {
    pub net: SimNet<Coordinator>,
    pub parties: Vec<PartyId>,
    pub stores: HashMap<PartyId, Arc<MemStore>>,
    pub ring: KeyRing,
}

impl World {
    /// Builds coordinators named after `names` on a perfect network.
    pub fn new(names: &[&str], seed: u64) -> World {
        let telemetry = names.iter().map(|_| Telemetry::new()).collect();
        World::with_telemetry(names, seed, telemetry)
    }

    /// [`World::new`] with one caller-supplied telemetry handle per party
    /// — attach trace sinks before construction to flight-record the
    /// whole scenario, bring-up included.
    pub fn with_telemetry(names: &[&str], seed: u64, telemetry: Vec<Telemetry>) -> World {
        assert_eq!(names.len(), telemetry.len());
        let mut ring = KeyRing::new();
        let mut keys = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let kp = KeyPair::generate_from_seed(500 + i as u64);
            ring.register(PartyId::new(*name), kp.public_key());
            keys.push((PartyId::new(*name), kp));
        }
        let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(777));
        let mut net = SimNet::new(seed);
        let mut stores = HashMap::new();
        for (i, ((id, kp), tel)) in keys.into_iter().zip(telemetry).enumerate() {
            let store = Arc::new(MemStore::new());
            stores.insert(id.clone(), store.clone());
            net.add_node(
                Coordinator::builder(id, kp)
                    .ring(ring.clone())
                    .tsa(tsa.clone())
                    .store(store)
                    .seed(seed + i as u64)
                    .telemetry(tel)
                    .build(),
            );
        }
        World {
            net,
            parties: names.iter().map(|n| PartyId::new(*n)).collect(),
            stores,
            ring,
        }
    }

    pub fn run(&mut self) {
        self.net.run_until_quiet(QUIET);
    }

    /// Registers an object at `owner` and joins the remaining `joiners` in
    /// order, each sponsored by the previously joined member.
    pub fn share<F>(&mut self, alias: &str, owner: &str, joiners: &[&str], factory: F)
    where
        F: Fn() -> Box<dyn B2BObject> + Clone + Send + 'static,
    {
        let f = factory.clone();
        self.net.invoke(&PartyId::new(owner), move |c, _| {
            c.register_object(ObjectId::new(alias.to_string()), Box::new(f))
                .unwrap();
        });
        let mut sponsor = PartyId::new(owner);
        let alias = alias.to_string();
        for joiner in joiners {
            let f = factory.clone();
            let s = sponsor.clone();
            let a = alias.clone();
            self.net.invoke(&PartyId::new(*joiner), move |c, ctx| {
                c.request_connect(ObjectId::new(a), Box::new(f), s, ctx)
                    .unwrap();
            });
            self.run();
            assert!(
                self.net
                    .node(&PartyId::new(*joiner))
                    .is_member(&ObjectId::new(alias.clone())),
                "{joiner} failed to join {alias}"
            );
            sponsor = PartyId::new(*joiner);
        }
    }

    /// Joins with a party-specific factory (e.g. a TTP holding different
    /// rules than the players).
    pub fn join_with(
        &mut self,
        alias: &str,
        joiner: &str,
        sponsor: &str,
        factory: impl Fn() -> Box<dyn B2BObject> + Send + 'static,
    ) {
        let s = PartyId::new(sponsor);
        let a = alias.to_string();
        self.net.invoke(&PartyId::new(joiner), move |c, ctx| {
            c.request_connect(ObjectId::new(a), Box::new(factory), s, ctx)
                .unwrap();
        });
        self.run();
        assert!(self
            .net
            .node(&PartyId::new(joiner))
            .is_member(&ObjectId::new(alias)));
    }

    /// Proposes `state` on `alias` from `who`; drives to quiescence and
    /// returns the run and its outcome at the proposer.
    pub fn propose(&mut self, who: &str, alias: &str, state: Vec<u8>) -> (RunId, Outcome) {
        let a = ObjectId::new(alias);
        let run = self.net.invoke(&PartyId::new(who), move |c, ctx| {
            c.propose_overwrite(&a, state, ctx).unwrap()
        });
        self.run();
        let outcome = self
            .net
            .node(&PartyId::new(who))
            .outcome_of(&run)
            .cloned()
            .expect("run completed");
        (run, outcome)
    }

    pub fn state(&self, who: &str, alias: &str) -> Vec<u8> {
        self.net
            .node(&PartyId::new(who))
            .agreed_state(&ObjectId::new(alias))
            .expect("state present")
    }
}

/// The evidence a log holds, minus the two time-dependent fields (TSA
/// token, local append time). Two runs of the same scenario script produce
/// identical projections regardless of the transport underneath.
pub type EvidenceProjection = Vec<(
    String,
    String,
    String,
    PartyId,
    Vec<u8>,
    Option<b2bobjects::crypto::Signature>,
)>;

pub fn evidence_projection(store: &MemStore) -> EvidenceProjection {
    store
        .records()
        .into_iter()
        .map(|r| {
            (
                r.kind.name().to_string(),
                r.object,
                r.run,
                r.origin,
                r.payload,
                r.signature,
            )
        })
        .collect()
}

/// The socket fabric a [`ShardedWorld`] runs its worker pool over.
pub enum ShardFabric {
    /// In-process delivery between slots (the default).
    Inproc(ShardedNet<Coordinator>),
    /// One multiplexed loopback TCP socket pair per party pair.
    Tcp(ShardedTcpNet<Coordinator>),
}

impl ShardFabric {
    pub fn handle(&self, gid: GroupId, party: &PartyId) -> GroupHandle<Coordinator> {
        match self {
            ShardFabric::Inproc(net) => net.handle(gid, party),
            ShardFabric::Tcp(net) => net.handle(gid, party),
        }
    }

    pub fn crash(&self, gid: GroupId, party: &PartyId) {
        match self {
            ShardFabric::Inproc(net) => net.crash(gid, party),
            ShardFabric::Tcp(net) => net.crash(gid, party),
        }
    }

    pub fn recover(&self, gid: GroupId, party: &PartyId) {
        match self {
            ShardFabric::Inproc(net) => net.recover(gid, party),
            ShardFabric::Tcp(net) => net.recover(gid, party),
        }
    }

    /// Drops both directions of the TCP socket pair between two parties.
    /// No-op on the in-process fabric, which has no connections to kill.
    pub fn kill_connection(&self, a: &PartyId, b: &PartyId) {
        if let ShardFabric::Tcp(net) = self {
            net.kill_connection(a, b);
        }
    }

    pub fn stats(&self) -> NetStats {
        match self {
            ShardFabric::Inproc(net) => net.stats(),
            ShardFabric::Tcp(net) => net.stats(),
        }
    }

    pub fn shutdown(self) {
        match self {
            ShardFabric::Inproc(net) => net.shutdown(),
            ShardFabric::Tcp(net) => net.shutdown(),
        }
    }
}

/// The [`World`] harness on the sharded multi-group runtime, pinned to a
/// single group: identical key material, seeds and script driving as
/// [`World`], with real-clock condition waits in place of virtual-time
/// quiescence, so a one-group sharded run must produce the same evidence
/// projection and the same canonical trace DAGs as the simulator.
pub struct ShardedWorld {
    pub net: ShardFabric,
    pub parties: Vec<PartyId>,
    pub stores: HashMap<PartyId, Arc<MemStore>>,
    pub ring: KeyRing,
}

/// Builds the coordinator set every [`ShardedWorld`] fabric shares: key
/// material, TSA and per-coordinator seeds match [`World::new`] exactly,
/// so evidence is byte-comparable across fabrics.
fn sharded_nodes(
    names: &[&str],
    seed: u64,
    telemetry: Vec<Telemetry>,
) -> (
    Vec<Coordinator>,
    Vec<PartyId>,
    HashMap<PartyId, Arc<MemStore>>,
    KeyRing,
) {
    assert_eq!(names.len(), telemetry.len());
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let kp = KeyPair::generate_from_seed(500 + i as u64);
        ring.register(PartyId::new(*name), kp.public_key());
        keys.push((PartyId::new(*name), kp));
    }
    let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(777));
    let mut stores = HashMap::new();
    let mut nodes = Vec::new();
    for (i, ((id, kp), tel)) in keys.into_iter().zip(telemetry).enumerate() {
        let store = Arc::new(MemStore::new());
        stores.insert(id.clone(), store.clone());
        nodes.push(
            Coordinator::builder(id, kp)
                .ring(ring.clone())
                .tsa(tsa.clone())
                .store(store)
                .seed(seed + i as u64)
                .telemetry(tel)
                .build(),
        );
    }
    let parties = names.iter().map(|n| PartyId::new(*n)).collect();
    (nodes, parties, stores, ring)
}

/// The single group a [`ShardedWorld`] runs.
pub const SHARD_GROUP: GroupId = GroupId(0);

impl ShardedWorld {
    /// Builds coordinators named after `names` inside one group on a
    /// small fixed worker pool. Key material and coordinator seeds match
    /// [`World::new`] exactly.
    pub fn new(names: &[&str], seed: u64) -> ShardedWorld {
        let telemetry = names.iter().map(|_| Telemetry::new()).collect();
        ShardedWorld::with_telemetry(names, seed, telemetry)
    }

    /// [`ShardedWorld::new`] over multiplexed loopback TCP sockets: same
    /// coordinators, same seeds, but every inter-party frame crosses a
    /// real socket.
    pub fn new_tcp(names: &[&str], seed: u64) -> ShardedWorld {
        let telemetry = names.iter().map(|_| Telemetry::new()).collect();
        ShardedWorld::with_telemetry_tcp(names, seed, telemetry)
    }

    /// [`ShardedWorld::with_telemetry`] with one caller-supplied telemetry
    /// handle per party, mirroring [`World::with_telemetry`].
    pub fn with_telemetry(names: &[&str], seed: u64, telemetry: Vec<Telemetry>) -> ShardedWorld {
        let (nodes, parties, stores, ring) = sharded_nodes(names, seed, telemetry);
        let net = ShardedNet::builder()
            .shards(2)
            .add_group(SHARD_GROUP, nodes)
            .spawn()
            .expect("spawn worker pool");
        ShardedWorld {
            net: ShardFabric::Inproc(net),
            parties,
            stores,
            ring,
        }
    }

    /// [`ShardedWorld::new_tcp`] with caller-supplied telemetry.
    pub fn with_telemetry_tcp(
        names: &[&str],
        seed: u64,
        telemetry: Vec<Telemetry>,
    ) -> ShardedWorld {
        let (nodes, parties, stores, ring) = sharded_nodes(names, seed, telemetry);
        let net = ShardedTcpNet::spawn_loopback_with(
            vec![(SHARD_GROUP, nodes)],
            ShardedTcpConfig::new().shards(2),
        )
        .expect("spawn TCP worker pool");
        ShardedWorld {
            net: ShardFabric::Tcp(net),
            parties,
            stores,
            ring,
        }
    }

    pub fn handle(&self, who: &str) -> GroupHandle<Coordinator> {
        self.net.handle(SHARD_GROUP, &PartyId::new(who))
    }

    /// Registers an object at `owner` and joins the remaining `joiners`
    /// in order, each sponsored by the previously joined member.
    pub fn share<F>(&mut self, alias: &str, owner: &str, joiners: &[&str], factory: F)
    where
        F: Fn() -> Box<dyn B2BObject> + Clone + Send + 'static,
    {
        let f = factory.clone();
        self.handle(owner).invoke(move |c, _| {
            c.register_object(ObjectId::new(alias.to_string()), Box::new(f))
                .unwrap();
        });
        let mut sponsor = PartyId::new(owner);
        let alias = alias.to_string();
        for joiner in joiners {
            let f = factory.clone();
            let s = sponsor.clone();
            let a = alias.clone();
            self.handle(joiner).invoke(move |c, ctx| {
                c.request_connect(ObjectId::new(a), Box::new(f), s, ctx)
                    .unwrap();
            });
            let a = ObjectId::new(alias.clone());
            assert!(
                self.handle(joiner)
                    .wait_until(TCP_STEP, move |c| c.is_member(&a)),
                "{joiner} failed to join {alias} on the sharded runtime"
            );
            let a = ObjectId::new(alias.clone());
            let sp = sponsor.clone();
            assert!(
                self.net
                    .handle(SHARD_GROUP, &sp)
                    .wait_until(TCP_STEP, move |c| !c.is_busy(&a)),
                "sponsor {sp} still busy after admitting {joiner}"
            );
            sponsor = PartyId::new(*joiner);
        }
        // A join round touches every existing member, not just the
        // sponsor — the owner can still be installing the final
        // membership change when the last welcome lands. Drain every
        // member so the caller's first proposal starts from an idle
        // group.
        let a = ObjectId::new(alias);
        for p in &self.parties {
            let h = self.net.handle(SHARD_GROUP, p);
            if !h.read(|c| c.is_member(&a)) {
                continue;
            }
            assert!(
                h.wait_until(TCP_STEP, |c| !c.is_busy(&a)),
                "{p} still busy on {a:?} after the join chain settled"
            );
        }
    }

    /// Proposes `state` on `alias` from `who`; waits until every member
    /// has recorded the run's outcome and returns it as seen by the
    /// proposer.
    pub fn propose(&mut self, who: &str, alias: &str, state: Vec<u8>) -> (RunId, Outcome) {
        let run = self.propose_async(who, alias, state);
        let oid = ObjectId::new(alias);
        for p in &self.parties {
            let h = self.net.handle(SHARD_GROUP, p);
            let o = oid.clone();
            if !h.read(move |c| c.is_member(&o)) {
                continue;
            }
            assert!(
                h.wait_until(TCP_STEP, move |c| c.outcome_of(&run).is_some()),
                "{p} never recorded the outcome of {who}'s run"
            );
        }
        let outcome = self
            .handle(who)
            .read(move |c| c.outcome_of(&run).cloned())
            .expect("run completed");
        (run, outcome)
    }

    /// Submits the proposal without waiting for its outcome — the hook
    /// for crash-in-flight tests that need to act mid-round.
    pub fn propose_async(&self, who: &str, alias: &str, state: Vec<u8>) -> RunId {
        let a = ObjectId::new(alias);
        self.handle(who)
            .invoke(move |c, ctx| c.propose_overwrite(&a, state, ctx).unwrap())
    }

    pub fn state(&self, who: &str, alias: &str) -> Vec<u8> {
        let a = ObjectId::new(alias);
        self.handle(who)
            .read(move |c| c.agreed_state(&a))
            .expect("state present")
    }
}
