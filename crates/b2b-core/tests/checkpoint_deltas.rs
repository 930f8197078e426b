//! The checkpoint layout (`b2b_core::replica`): what a protocol step writes
//! to the snapshot store, and that recovery from any prefix of those writes
//! resumes the run.
//!
//! * bytes and puts per round do not depend on how full the replay windows
//!   and the re-reply ring are, and stay within a small multiple of what
//!   the round itself moved;
//! * a crash landing just before any checkpoint put of a run — state
//!   round, vetoed round, connection, disconnection — leaves a store from
//!   which the crashed party recovers, the run completes, and every party
//!   ends up exactly where an uncrashed run leaves it.

mod common;

use b2b_core::replica::{ReplayWindow, StoredReply};
use b2b_core::{Coordinator, CoordinatorConfig, GroupId, ObjectId, RunId, StateId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2b_evidence::{
    EvidenceRecord, EvidenceStore, LogAuditor, MemStore, SnapshotStore, StoreError,
};
use b2b_net::{NetNode, NodeCtx, SimNet};
use common::{counter_factory, enc, party, QUIET};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A [`MemStore`] that logs every replica-checkpoint put (`obj-…` keys) and
/// can be told to fail from the n-th such put on — the disk a crashing
/// process leaves behind. The `objects` / `pending-connects` index blobs
/// are not part of the layout under test and are never the failing put.
struct ProbeStore {
    inner: MemStore,
    /// `(key, blob length)` of every checkpoint put that landed.
    log: Mutex<Vec<(String, usize)>>,
    /// Index (into `log`) of the first put that fails.
    fail_from: AtomicUsize,
    /// A put has failed; every later put fails too, until healed.
    tripped: AtomicBool,
}

impl ProbeStore {
    fn new() -> ProbeStore {
        ProbeStore {
            inner: MemStore::new(),
            log: Mutex::new(Vec::new()),
            fail_from: AtomicUsize::new(usize::MAX),
            tripped: AtomicBool::new(false),
        }
    }

    fn puts(&self) -> usize {
        self.log.lock().unwrap().len()
    }

    fn bytes(&self) -> usize {
        self.log.lock().unwrap().iter().map(|(_, len)| len).sum()
    }

    fn heal(&self) {
        self.fail_from.store(usize::MAX, Ordering::SeqCst);
        self.tripped.store(false, Ordering::SeqCst);
    }
}

impl EvidenceStore for ProbeStore {
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError> {
        self.inner.append(record)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        self.inner.get(seq)
    }
    fn records(&self) -> Vec<EvidenceRecord> {
        self.inner.records()
    }
}

impl SnapshotStore for ProbeStore {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        let crashed = || StoreError::Io(std::io::Error::other("process crashed"));
        if self.tripped.load(Ordering::SeqCst) {
            return Err(crashed());
        }
        if key.starts_with("obj-") {
            let mut log = self.log.lock().unwrap();
            if log.len() >= self.fail_from.load(Ordering::SeqCst) {
                self.tripped.store(true, Ordering::SeqCst);
                return Err(crashed());
            }
            log.push((key.to_string(), bytes.len()));
        }
        self.inner.put_snapshot(key, bytes)
    }
    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.get_snapshot(key)
    }
}

/// A coordinator that dies the moment its store fails a put: the handler
/// that was running takes no effect beyond the puts that landed before —
/// the messages and timers it queued are never released, as when a process
/// dies mid-step — and the node stays deaf until [`Crashing::recover`].
struct Crashing {
    inner: Coordinator,
    store: Arc<ProbeStore>,
    down: bool,
}

impl Crashing {
    /// Runs a client operation under the same crash rule as a handler.
    fn client<R>(
        &mut self,
        ctx: &mut NodeCtx,
        f: impl FnOnce(&mut Coordinator, &mut NodeCtx) -> R,
    ) -> R {
        let result = f(&mut self.inner, ctx);
        self.die_if_tripped(ctx);
        result
    }

    fn die_if_tripped(&mut self, ctx: &mut NodeCtx) {
        if !self.down && self.store.tripped.load(Ordering::SeqCst) {
            ctx.take_outgoing();
            ctx.take_timers();
            self.inner.on_crash();
            self.down = true;
        }
    }

    fn recover(&mut self, ctx: &mut NodeCtx) {
        self.store.heal();
        self.down = false;
        self.inner.on_recover(ctx);
    }
}

impl NetNode for Crashing {
    fn id(&self) -> PartyId {
        self.inner.id()
    }
    fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
        if !self.down {
            self.inner.on_message(from, payload, ctx);
            self.die_if_tripped(ctx);
        }
    }
    fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) {
        if !self.down {
            self.inner.on_timer(timer, ctx);
            self.die_if_tripped(ctx);
        }
    }
}

struct World {
    net: SimNet<Crashing>,
    stores: Vec<Arc<ProbeStore>>,
    ring: KeyRing,
}

const OBJECT: &str = "counter";

fn oid() -> ObjectId {
    ObjectId::new(OBJECT)
}

impl World {
    /// `n` coordinators; the first `members` of them share the counter.
    fn new(n: usize, members: usize, seed: u64) -> World {
        let mut ring = KeyRing::new();
        let keys: Vec<KeyPair> = (0..n)
            .map(|i| KeyPair::generate_from_seed(1000 + i as u64))
            .collect();
        for (i, kp) in keys.iter().enumerate() {
            ring.register(party(i), kp.public_key());
        }
        let mut net = SimNet::new(seed);
        let mut stores = Vec::new();
        for (i, kp) in keys.into_iter().enumerate() {
            let store = Arc::new(ProbeStore::new());
            let inner = Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .config(CoordinatorConfig::default())
                .store(store.clone())
                .seed(seed.wrapping_add(i as u64))
                .build();
            net.add_node(Crashing {
                inner,
                store: store.clone(),
                down: false,
            });
            stores.push(store);
        }
        let mut world = World { net, stores, ring };
        world.net.invoke(&party(0), |c, _| {
            c.inner
                .register_object(oid(), Box::new(counter_factory))
                .unwrap();
        });
        for i in 1..members {
            world.connect(i, i - 1);
            world.settle();
            assert!(world.coord(i).is_member(&oid()), "org{i} failed to join");
        }
        world
    }

    fn coord(&self, i: usize) -> &Coordinator {
        &self.net.node(&party(i)).inner
    }

    fn connect(&mut self, subject: usize, sponsor: usize) {
        self.net.invoke(&party(subject), move |c, ctx| {
            c.client(ctx, |c, ctx| {
                c.request_connect(oid(), Box::new(counter_factory), party(sponsor), ctx)
                    .unwrap()
            })
        });
    }

    fn propose(&mut self, who: usize, value: u64) -> RunId {
        self.net.invoke(&party(who), move |c, ctx| {
            c.client(ctx, |c, ctx| {
                c.propose_overwrite(&oid(), enc(value), ctx).unwrap()
            })
        })
    }

    fn leave(&mut self, who: usize) {
        self.net.invoke(&party(who), |c, ctx| {
            c.client(ctx, |c, ctx| c.request_disconnect(&oid(), ctx).unwrap())
        });
    }

    /// Runs the network to quiescence, bringing back any node that died on
    /// the way (its peers keep retransmitting meanwhile).
    fn settle(&mut self) {
        loop {
            while self.net.step() {
                if self.down().is_some() {
                    break;
                }
            }
            let Some(dead) = self.down() else {
                return;
            };
            let until = self.net.now() + TimeMs(500);
            self.net.run_until(until);
            self.net.invoke(&party(dead), |c, ctx| c.recover(ctx));
            assert!(self.net.now() < QUIET, "the run never completed");
        }
    }

    fn down(&self) -> Option<usize> {
        (0..self.stores.len()).find(|i| self.net.node(&party(*i)).down)
    }

    fn image(&self, i: usize) -> Option<Image> {
        let rep = self.coord(i).replica(&oid())?;
        Some(Image {
            members: rep.members().to_vec(),
            group: rep.group(),
            agreed: rep.agreed(),
            state: rep.agreed_state().to_vec(),
            window: rep.replay_window(),
            replies: rep
                .completed()
                .into_iter()
                .map(|(run, reply)| (run, reply.clone()))
                .collect(),
            busy: rep.active().is_some(),
            detached: rep.is_detached(),
        })
    }

    fn images(&self) -> Vec<Option<Image>> {
        (0..self.stores.len()).map(|i| self.image(i)).collect()
    }

    fn assert_audits_clean(&self) {
        let auditor = LogAuditor::new(self.ring.clone(), None);
        for (i, store) in self.stores.iter().enumerate() {
            let report = auditor.audit(store.as_ref());
            assert!(report.is_clean(), "org{i}: {:?}", report.faults);
        }
    }
}

/// Everything about a replica that recovery has to bring back.
#[derive(Debug, PartialEq)]
struct Image {
    members: Vec<PartyId>,
    group: GroupId,
    agreed: StateId,
    state: Vec<u8>,
    window: ReplayWindow,
    replies: Vec<(RunId, StoredReply)>,
    busy: bool,
    detached: bool,
}

/// A seven-digit counter value: every round's state has the same length.
fn value(round: u64) -> u64 {
    1_000_000 + round
}

#[test]
fn checkpoint_bytes_per_round_do_not_grow_with_the_windows() {
    let mut world = World::new(2, 2, 41);
    // (puts, bytes) per party, and wire bytes, of each round.
    let mut rounds: Vec<([(usize, usize); 2], u64)> = Vec::new();
    for round in 0..300u64 {
        let before: Vec<(usize, usize)> =
            world.stores.iter().map(|s| (s.puts(), s.bytes())).collect();
        let wire_before = world.net.stats().bytes_sent;
        let run = world.propose((round % 2) as usize, value(round));
        world.settle();
        assert!(world.coord(0).outcome_of(&run).unwrap().is_installed());
        let delta = |i: usize| {
            let s = &world.stores[i];
            (s.puts() - before[i].0, s.bytes() - before[i].1)
        };
        rounds.push((
            [delta(0), delta(1)],
            world.net.stats().bytes_sent - wire_before,
        ));
    }
    // The windows and the ring (64 each) are full long before round 200.
    let (runs, tuples) = world.coord(0).replica(&oid()).unwrap().replay_window();
    assert_eq!((runs.len(), tuples.len()), (64, 64));
    assert_eq!(
        world.coord(0).replica(&oid()).unwrap().completed().len(),
        64
    );

    let state_len = enc(value(0)).len() as u64;
    for (round, (parties, wire)) in rounds.iter().enumerate() {
        for (puts, bytes) in parties {
            assert_eq!(*puts, 3, "round {round}: a run's start, its reply, its end");
            // Every round moves state + m1 + m2 + m3 (`wire`, which also
            // counts the acks); a party checkpoints under three times that.
            assert!(
                (*bytes as u64) < 3 * (state_len + wire),
                "round {round}: {bytes} checkpoint bytes for {wire} wire bytes"
            );
        }
    }
    let mean = |range: std::ops::Range<usize>, who: usize| {
        let total: usize = rounds[range.clone()].iter().map(|(p, _)| p[who].1).sum();
        total as f64 / range.len() as f64
    };
    for who in 0..2 {
        let (early, late) = (mean(10..20, who), mean(200..300, who));
        // Flat — or rather a little *lower* once the window has moved past
        // the run that formed the group: that run has no reply slot, so
        // its one window entry (41 bytes) rides in the core document, two
        // writes a round, for the first 64 rounds.
        assert!(
            late <= 1.01 * early && early - late <= 2.0 * 41.0 + 0.01 * early,
            "org{who}: {early} bytes per round while the windows fill, {late} once full"
        );
    }
}

#[test]
fn a_vetoed_round_checkpoints_no_more_than_an_installed_one() {
    let mut world = World::new(2, 2, 42);
    let run = world.propose(0, value(5));
    world.settle();
    assert!(world.coord(1).outcome_of(&run).unwrap().is_installed());
    let before: Vec<usize> = world.stores.iter().map(|s| s.puts()).collect();
    // The counter may not decrease: org1 vetoes.
    let run = world.propose(0, value(1));
    world.settle();
    assert!(!world.coord(0).outcome_of(&run).unwrap().is_installed());
    for (i, store) in world.stores.iter().enumerate() {
        let puts = store.puts() - before[i];
        assert!(
            (1..=3).contains(&puts),
            "org{i}: {puts} puts for a vetoed round"
        );
    }
}

#[test]
fn a_four_party_proposer_checkpoints_once_per_recorded_response() {
    let mut world = World::new(4, 4, 43);
    let before: Vec<usize> = world.stores.iter().map(|s| s.puts()).collect();
    let run = world.propose(0, value(9));
    world.settle();
    let puts: Vec<usize> = world
        .stores
        .iter()
        .zip(&before)
        .map(|(s, b)| s.puts() - b)
        .collect();
    // Proposer: the start, the first two responses, then (the third
    // completing the run) its reply and its end. Recipients: as ever.
    assert_eq!(puts, vec![5, 3, 3, 3]);
    for i in 0..4 {
        assert!(world.coord(i).outcome_of(&run).unwrap().is_installed());
    }
    // The puts of the run in progress are the core document alone.
    let log = world.stores[0].log.lock().unwrap();
    let keys: Vec<&str> = log[before[0]..].iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys[..3], ["obj-counter"; 3]);
    assert!(keys[3].starts_with("obj-counter-reply-"));
    assert_eq!(keys[4], "obj-counter");
}

/// One run to crash through: how many coordinators, how many of them are
/// members to begin with, and how the run is started.
struct Scenario {
    name: &'static str,
    parties: usize,
    members: usize,
    /// The parties whose own decision starts the run: the proposer; for a
    /// membership change the sponsor and, if it is a member, the
    /// requester. A crash before the first put of one of *those* leaves no
    /// run to resume (a sponsor that never recorded its proposal makes a
    /// new one, under new nonces), so that one point is not a case.
    initiators: &'static [usize],
    start: fn(&mut World),
}

const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "two-party state round",
        parties: 2,
        members: 2,
        initiators: &[0],
        start: |w| {
            w.propose(0, value(7));
        },
    },
    Scenario {
        name: "four-party state round",
        parties: 4,
        members: 4,
        initiators: &[1],
        start: |w| {
            w.propose(1, value(7));
        },
    },
    Scenario {
        name: "vetoed round",
        parties: 2,
        members: 2,
        initiators: &[1],
        start: |w| {
            w.propose(1, 3);
        },
    },
    Scenario {
        name: "connection",
        parties: 4,
        members: 3,
        initiators: &[2],
        start: |w| w.connect(3, 2),
    },
    Scenario {
        name: "disconnection",
        parties: 3,
        members: 3,
        initiators: &[0, 2],
        start: |w| w.leave(0),
    },
];

impl Scenario {
    /// A world with some history behind it — enough rounds that the reply
    /// ring has wrapped were it small — ready for the run under test.
    fn world(&self) -> World {
        let mut world = World::new(self.parties, self.members, 44);
        for round in 0..3 {
            world.propose(round as usize % self.members, value(100 + round));
            world.settle();
        }
        world
    }
}

#[test]
fn a_crash_before_any_checkpoint_put_of_a_run_is_recovered_from() {
    for scenario in &SCENARIOS {
        let mut reference = scenario.world();
        let before: Vec<usize> = reference.stores.iter().map(|s| s.puts()).collect();
        (scenario.start)(&mut reference);
        reference.settle();
        let expected = reference.images();
        assert!(
            expected.iter().flatten().all(|image| !image.busy),
            "{}: the uncrashed run completes",
            scenario.name
        );
        let mut cases = 0;
        for (victim, &before) in before.iter().enumerate() {
            let puts = reference.stores[victim].puts() - before;
            // The subject of a connection has no replica, hence no
            // checkpoint, until the welcome that ends the run.
            if before == 0 {
                continue;
            }
            for nth in 0..puts {
                if nth == 0 && scenario.initiators.contains(&victim) {
                    continue;
                }
                let mut world = scenario.world();
                world.stores[victim]
                    .fail_from
                    .store(before + nth, Ordering::SeqCst);
                (scenario.start)(&mut world);
                world.settle();
                assert!(
                    world.stores[victim].puts() > before + nth,
                    "{}: org{victim} never reached put {nth}",
                    scenario.name
                );
                assert_eq!(
                    world.images(),
                    expected,
                    "{}: org{victim} crashed before put {nth} of {puts}",
                    scenario.name
                );
                world.assert_audits_clean();
                cases += 1;
            }
        }
        assert!(cases >= 4, "{}: only {cases} crash points", scenario.name);
    }
}

#[test]
fn every_party_recovers_what_it_had() {
    // Crash-recover every party of a settled group at once: what comes back
    // from the store is what was in memory.
    let mut world = World::new(3, 3, 45);
    for round in 0..70 {
        let run = world.propose(
            round as usize % 3,
            if round % 7 == 3 { 0 } else { value(round) },
        );
        world.settle();
        assert_eq!(
            world.coord(0).outcome_of(&run).unwrap().is_installed(),
            round % 7 != 3
        );
    }
    let live = world.images();
    for i in 0..3 {
        world.net.invoke(&party(i), |c, ctx| {
            c.inner.on_crash();
            c.recover(ctx);
        });
    }
    world.settle();
    assert_eq!(world.images(), live);
}
