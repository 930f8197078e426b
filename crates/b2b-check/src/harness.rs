//! The whole-group protocol harness the explorer drives.
//!
//! A [`Fleet`] is a simulated cluster of coordinators (shared key ring and
//! TSA, per-party in-memory evidence stores) brought up on perfect links,
//! onto which one [`SchedulePlan`] is applied: the link fault plan, the
//! crash/partition timeline, and a wire tap chained with the plan's
//! scripted intruder. Scenarios ([`crate::scenario`]) then drive protocol
//! runs and, for the misbehaving-insider cases, speak raw frames on
//! behalf of a compromised member.

use crate::plan::{FaultEvent, SchedulePlan};
use b2b_core::messages::WireMsg;
use b2b_core::{
    CoordEvent, Coordinator, CoordinatorConfig, MutationFlags, ObjectId, Outcome, RunId, StateId,
};
use b2b_crypto::{
    CanonicalEncode, Encoder, KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority,
};
use b2b_evidence::{EvidenceStore, MemStore};
use b2b_net::intruder::{Chain, ScriptedIntruder, SharedTap};
use b2b_net::SimNet;
use b2b_telemetry::{RingRecorder, Telemetry, TraceEvent};
use std::sync::Arc;

/// Virtual-time ceiling for settling the network (absolute, generous: the
/// fault budget keeps every crash and partition window far below it).
const QUIET: TimeMs = TimeMs(600_000);

/// Reliable-layer frame header: kind(1) + epoch(8) + seq(8) + trace(17).
const FRAME_HEADER_LEN: usize = 34;

/// Flight-recorder capacity shared by a whole fleet. Shrunk schedules are
/// short; the bound only matters for runaway exploration runs, where
/// dropping the oldest events is deterministic per seed and so preserves
/// replay-comparability.
const RECORDER_CAPACITY: usize = 16_384;

/// Epoch namespace for frames forged by insider scenarios, far away from
/// the reliable layer's organic epochs and the intruder's replay epochs.
const FORGED_EPOCH_BASE: u64 = 0xb2bc_c4af_0000_0000;

/// The deterministic party name for scenario index `i` (key seed
/// `1000 + i`, like every harness in the workspace).
pub fn party(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

/// A simulated cluster plus the wire tap and bookkeeping the oracles need.
pub struct Fleet {
    /// The simulator (public: scenarios script arbitrary node actions).
    pub net: SimNet<Coordinator>,
    parties: Vec<PartyId>,
    stores: Vec<Arc<MemStore>>,
    ring: KeyRing,
    tsa: TimeStampAuthority,
    object: ObjectId,
    per_group: usize,
    tap: SharedTap,
    baseline: Vec<StateId>,
    crashed_ever: Vec<bool>,
    forged_epochs: u64,
    /// The fleet-wide flight recorder every coordinator traces into;
    /// events carry party labels, so one merged ring serves the trace
    /// assembler directly.
    recorder: Arc<RingRecorder>,
}

impl Fleet {
    /// Builds `n` coordinators with the given mutation flags on perfect
    /// links and connects them all to one grow-only counter object.
    pub fn new(n: usize, seed: u64, mutation: MutationFlags) -> Fleet {
        Fleet::new_grouped(n, 1, seed, mutation)
    }

    /// Builds `groups` *independent* coordination groups of `per_group`
    /// organisations each, all in one simulated process — the explorer's
    /// model of the sharded multi-group runtime. Party indexes are laid
    /// out group-major (`group_of(i) = i / per_group`); every group
    /// coordinates its own instance of the grow-only counter, and the
    /// groups share nothing but the process: key ring, TSA and the wire
    /// live side by side, exactly like co-scheduled groups on the worker
    /// pool.
    pub fn new_grouped(
        per_group: usize,
        groups: usize,
        seed: u64,
        mutation: MutationFlags,
    ) -> Fleet {
        let n = per_group * groups;
        assert!(
            per_group >= 2,
            "a coordination group needs at least two organisations"
        );
        assert!(groups >= 1, "a fleet needs at least one group");
        let mut ring = KeyRing::new();
        let mut keys = Vec::new();
        for i in 0..n {
            let kp = KeyPair::generate_from_seed(1000 + i as u64);
            ring.register(party(i), kp.public_key());
            keys.push(kp);
        }
        let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(9999));
        let mut net = SimNet::new(seed);
        let mut stores = Vec::new();
        let config = CoordinatorConfig::default().mutation(mutation);
        let recorder = Arc::new(RingRecorder::new(RECORDER_CAPACITY));
        for (i, kp) in keys.into_iter().enumerate() {
            let store = Arc::new(MemStore::new());
            stores.push(store.clone());
            net.add_node(
                Coordinator::builder(party(i), kp)
                    .ring(ring.clone())
                    .tsa(tsa.clone())
                    .config(config.clone())
                    .store(store)
                    .seed(seed.wrapping_add(i as u64))
                    .telemetry(Telemetry::with_sink(recorder.clone()))
                    .build(),
            );
        }
        let mut fleet = Fleet {
            net,
            parties: (0..n).map(party).collect(),
            stores,
            ring,
            tsa,
            object: ObjectId::new("counter"),
            per_group,
            tap: SharedTap::new(),
            baseline: Vec::new(),
            crashed_ever: vec![false; n],
            forged_epochs: 0,
            recorder,
        };
        fleet.setup();
        fleet
    }

    /// Per group: registers the shared counter at the group's first
    /// member and connects the rest sequentially (sponsored by the
    /// previously joined member, §4.5.1). The groups share the object
    /// *alias* but never a membership — group identity lives in the
    /// signed group id, and messages are point-to-point between members,
    /// so the instances are fully isolated.
    fn setup(&mut self) {
        for g in 0..self.groups() {
            let members = self.group_members(g);
            let oid = self.object.clone();
            self.net.invoke(&party(members[0]), {
                let oid = oid.clone();
                move |c, _| c.register_object(oid, counter_factory()).unwrap()
            });
            for w in members.windows(2) {
                let (sponsor, joiner) = (w[0], w[1]);
                let oid = oid.clone();
                let sponsor = party(sponsor);
                self.net.invoke(&party(joiner), move |c, ctx| {
                    c.request_connect(oid, counter_factory(), sponsor, ctx)
                        .unwrap();
                });
                self.run();
                assert!(
                    self.net.node(&party(joiner)).is_member(&self.object),
                    "org{joiner} failed to join group {g}'s object"
                );
            }
        }
    }

    /// Number of independent coordination groups.
    pub fn groups(&self) -> usize {
        self.parties.len() / self.per_group
    }

    /// The group party `i` belongs to.
    pub fn group_of(&self, i: usize) -> usize {
        i / self.per_group
    }

    /// The party indexes of group `g`, in join order.
    pub fn group_members(&self, g: usize) -> Vec<usize> {
        (g * self.per_group..(g + 1) * self.per_group).collect()
    }

    /// The fleet index of `p`, if it names a fleet member.
    pub fn index_of(&self, p: &PartyId) -> Option<usize> {
        self.parties.iter().position(|q| q == p)
    }

    /// Applies a schedule plan: settles and drains all setup traffic and
    /// events, records the per-party baseline state, then installs the
    /// link faults, the tap + scripted intruder, and the crash/partition
    /// timeline (plan offsets are relative to this instant).
    pub fn apply(&mut self, plan: &SchedulePlan) {
        self.run();
        self.baseline = (0..self.parties.len())
            .map(|i| {
                self.net.invoke(&party(i), |c, _| {
                    let _ = c.take_events();
                });
                self.agreed_id(i)
            })
            .collect();
        // The artifact trace should cover the schedule under test, not
        // the fleet bring-up.
        self.recorder.clear();
        let t0 = self.net.now();
        self.net.set_default_plan(plan.link);
        self.net.set_intruder(Chain::new(
            self.tap.clone(),
            ScriptedIntruder::new(plan.script()),
        ));
        for ev in &plan.events {
            match *ev {
                FaultEvent::Crash {
                    party: p,
                    at,
                    until,
                } => {
                    self.crashed_ever[p] = true;
                    self.net.crash_at(TimeMs(t0.0 + at.0), party(p));
                    self.net.recover_at(TimeMs(t0.0 + until.0), party(p));
                }
                FaultEvent::Isolate { party: p, until } => {
                    let others = (0..self.parties.len()).filter(|&j| j != p).map(party);
                    self.net
                        .partition([party(p)], others, TimeMs(t0.0 + until.0));
                }
                FaultEvent::Script(_) => {} // lives inside the intruder
            }
        }
    }

    /// Runs the network until quiescent.
    pub fn run(&mut self) {
        self.net.run_until_quiet(QUIET);
    }

    /// The flight-recorder events captured since the plan was applied —
    /// the raw material of a counterexample's distributed trace.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.recorder.events()
    }

    /// Number of organisations.
    pub fn len(&self) -> usize {
        self.parties.len()
    }

    /// `true` only for the degenerate empty fleet (never constructed).
    pub fn is_empty(&self) -> bool {
        self.parties.is_empty()
    }

    /// The shared object every fleet coordinates.
    pub fn object(&self) -> ObjectId {
        self.object.clone()
    }

    /// The shared key ring (all member verification keys).
    pub fn ring(&self) -> &KeyRing {
        &self.ring
    }

    /// The shared timestamping authority.
    pub fn tsa(&self) -> &TimeStampAuthority {
        &self.tsa
    }

    /// The signing key of party `i` — available to scenarios because a
    /// misbehaving *insider* is a group member using its own key.
    pub fn keypair(&self, i: usize) -> KeyPair {
        KeyPair::generate_from_seed(1000 + i as u64)
    }

    /// Party `i`'s agreed state id (panics if the object is unknown).
    pub fn agreed_id(&self, i: usize) -> StateId {
        self.net
            .node(&party(i))
            .agreed_id(&self.object)
            .expect("fleet object present")
    }

    /// Party `i`'s agreed state bytes.
    pub fn agreed_state(&self, i: usize) -> Vec<u8> {
        self.net
            .node(&party(i))
            .agreed_state(&self.object)
            .expect("fleet object present")
    }

    /// Party `i`'s agreed state id at the instant the plan was applied.
    pub fn baseline(&self, i: usize) -> StateId {
        self.baseline[i]
    }

    /// Whether the plan ever crashes party `i` (its volatile protocol
    /// events are lost, so per-party history oracles must skip it).
    pub fn crashed_ever(&self, i: usize) -> bool {
        self.crashed_ever[i]
    }

    /// Proposes `value` from party `i` and settles the net. `None` when
    /// the coordinator refuses the proposal (e.g. replica busy).
    pub fn propose(&mut self, i: usize, value: u64) -> Option<RunId> {
        let oid = self.object.clone();
        let body = serde_json::to_vec(&value).unwrap();
        let run = self.net.invoke(&party(i), move |c, ctx| {
            c.propose_overwrite(&oid, body, ctx).ok()
        });
        self.run();
        run
    }

    /// Party `i`'s outcome for `run`, if decided.
    pub fn outcome(&self, i: usize, run: &RunId) -> Option<Outcome> {
        self.net.node(&party(i)).outcome_of(run).cloned()
    }

    /// Drains party `i`'s coordination events (empty for a currently
    /// crashed node — a crashed party has no event history to judge).
    pub fn take_events(&mut self, i: usize) -> Vec<CoordEvent> {
        if self.net.is_crashed(&party(i)) {
            return Vec::new();
        }
        self.net.invoke(&party(i), |c, _| c.take_events())
    }

    /// Sends `msg` from party `i` to party `j` as raw one-shot data
    /// frames, outside any reliable mux. Three copies go out under
    /// distinct forged epochs so a single probabilistic drop cannot
    /// silently disarm an insider scenario; the receiver's coordinator
    /// dedups the extras at the protocol layer (replay detection /
    /// already-decided outcome).
    pub fn send_forged(&mut self, i: usize, j: usize, msg: &WireMsg) {
        let body = msg.to_bytes();
        for _ in 0..3 {
            self.forged_epochs += 1;
            let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
            frame.push(0u8);
            frame.extend_from_slice(&(FORGED_EPOCH_BASE + self.forged_epochs).to_be_bytes());
            frame.extend_from_slice(&0u64.to_be_bytes());
            frame.extend_from_slice(&[0u8; 17]); // trace context (untraced)
            frame.extend_from_slice(&body);
            let to = party(j);
            self.net
                .invoke(&party(i), move |_c, ctx| ctx.send(to, frame));
        }
    }

    /// Every protocol message the wire tap has seen since the plan was
    /// applied, decoded: `(from, to, message, at)`. Includes frames the
    /// fault plan or intruder subsequently dropped — the tap records at
    /// send time, which is exactly the Dolev-Yao observer the lineage and
    /// freshness oracles need.
    pub fn wire(&self) -> Vec<(PartyId, PartyId, WireMsg, TimeMs)> {
        self.tap
            .seen()
            .into_iter()
            .filter_map(|(from, to, raw, at)| {
                if raw.len() <= FRAME_HEADER_LEN || raw[0] != 0 {
                    return None; // ack or malformed
                }
                WireMsg::from_bytes(&raw[FRAME_HEADER_LEN..]).map(|m| (from, to, m, at))
            })
            .collect()
    }

    /// Party `i`'s evidence store.
    pub fn store(&self, i: usize) -> &Arc<MemStore> {
        &self.stores[i]
    }

    /// Hex SHA-256 over party `i`'s evidence records in their canonical
    /// form (the WAL frame bodies), as one length-prefixed sequence — the
    /// replay-stability fingerprint of a whole schedule.
    pub fn evidence_digest(&self, i: usize) -> String {
        let records = self.stores[i].records();
        let mut enc = Encoder::new();
        enc.put_u64(records.len() as u64);
        for record in &records {
            enc.put_bytes(&record.canonical_bytes());
        }
        hex::encode(b2b_crypto::sha256(&enc.finish()).as_ref())
    }
}

/// The fleet's shared object: a grow-only counter (JSON `u64`; a
/// transition is valid iff the value does not decrease) — the same
/// application the paper's order-processing example reduces to, and rich
/// enough to give insiders an application-level veto to exploit.
fn grow_only_counter() -> Box<dyn b2b_core::B2BObject> {
    Box::new(
        b2b_apps::SharedCell::new(0u64).with_validator(|_who, old, new| {
            if new >= old {
                b2b_core::Decision::accept()
            } else {
                b2b_core::Decision::reject("counter may not decrease")
            }
        }),
    )
}

fn counter_factory() -> b2b_core::ObjectFactory {
    Box::new(grow_only_counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_comes_up_and_coordinates_on_perfect_links() {
        let mut fleet = Fleet::new(3, 7, MutationFlags::default());
        fleet.apply(&SchedulePlan::quiescent(7));
        let run = fleet.propose(0, 5).expect("proposal accepted");
        assert!(fleet.outcome(0, &run).unwrap().is_installed());
        for i in 0..3 {
            assert_eq!(fleet.agreed_id(i).seq, fleet.baseline(i).seq + 1);
        }
        // The tap saw the full post-plan round: m1, m2s, m3.
        let wire = fleet.wire();
        assert!(wire
            .iter()
            .any(|(_, _, m, _)| matches!(m, WireMsg::Propose(_))));
        assert!(wire
            .iter()
            .any(|(_, _, m, _)| matches!(m, WireMsg::Respond(_))));
        assert!(wire
            .iter()
            .any(|(_, _, m, _)| matches!(m, WireMsg::Decide(_))));
    }

    #[test]
    fn grouped_fleet_keeps_groups_isolated() {
        // Two 2-party groups in one process: each advances its own chain
        // and never learns the neighbour's state.
        let mut fleet = Fleet::new_grouped(2, 2, 13, MutationFlags::default());
        assert_eq!(fleet.groups(), 2);
        assert_eq!(fleet.group_members(1), vec![2, 3]);
        fleet.apply(&SchedulePlan::quiescent(13));
        let run_a = fleet.propose(0, 5).expect("group 0 proposal accepted");
        let run_b = fleet.propose(2, 9).expect("group 1 proposal accepted");
        assert!(fleet.outcome(0, &run_a).unwrap().is_installed());
        assert!(fleet.outcome(2, &run_b).unwrap().is_installed());
        for i in [0, 1] {
            assert_eq!(fleet.agreed_state(i), b"5".to_vec(), "group 0 member {i}");
            assert!(
                fleet.outcome(i, &run_b).is_none(),
                "group 0 saw group 1's run"
            );
        }
        for i in [2, 3] {
            assert_eq!(fleet.agreed_state(i), b"9".to_vec(), "group 1 member {i}");
            assert!(
                fleet.outcome(i, &run_a).is_none(),
                "group 1 saw group 0's run"
            );
        }
    }

    #[test]
    fn evidence_digests_are_replay_stable() {
        let digest = |_| {
            let mut fleet = Fleet::new(2, 11, MutationFlags::default());
            fleet.apply(&SchedulePlan::generate(11, &[party(0), party(1)], &[0, 1]));
            fleet.propose(0, 3);
            (fleet.evidence_digest(0), fleet.evidence_digest(1))
        };
        assert_eq!(digest(0), digest(1));
    }
}
