//! Deterministic discrete-event network simulator.
//!
//! [`SimNet`] drives a set of [`NetNode`] protocol engines under virtual
//! time with seeded randomness, so every scenario — including adversarial
//! and faulty ones — replays identically from the same seed. It implements
//! the failure model of paper §4.2: messages may be lost, duplicated,
//! delayed and reordered (per-link [`FaultPlan`]s); network partitions heal
//! eventually; nodes crash and eventually recover. A Dolev-Yao
//! [`Intruder`] may additionally be installed in the network path.
//!
//! # Determinism and the simultaneous-event tie-break
//!
//! Events are ordered by `(virtual time, insertion sequence)`: when two
//! events fall on the same millisecond, the one *scheduled first* fires
//! first. Together with the seeded RNG this makes every schedule a pure
//! function of `(seed, scripted inputs)` — the property `b2b-check` relies
//! on to replay a shrunk counterexample byte-identically. The tie-break is
//! pinned by a unit test and must not change.
//!
//! # Example
//!
//! ```
//! use b2b_crypto::{PartyId, TimeMs};
//! use b2b_net::{NetNode, NodeCtx, SimNet};
//!
//! /// A node that echoes every payload back to its sender.
//! struct Echo(PartyId);
//! impl NetNode for Echo {
//!     fn id(&self) -> PartyId { self.0.clone() }
//!     fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
//!         if payload != b"pong" {
//!             ctx.send(from.clone(), b"pong".to_vec());
//!         }
//!     }
//! }
//!
//! let mut net = SimNet::new(42);
//! net.add_node(Echo(PartyId::new("a")));
//! net.add_node(Echo(PartyId::new("b")));
//! net.invoke(&PartyId::new("a"), |_node, ctx| {
//!     ctx.send(PartyId::new("b"), b"ping".to_vec());
//! });
//! net.run_until_quiet(TimeMs(1_000));
//! assert_eq!(net.stats().delivered, 2); // ping + pong
//! ```

use crate::fault::FaultPlan;
use crate::intruder::{InterceptAction, Intruder, PassThrough};
use crate::node::{NetNode, NodeCtx, Payload};
use crate::stats::NetStats;
use b2b_crypto::{PartyId, TimeMs};
use b2b_telemetry::{names, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A scripted action run against a node at a virtual time.
type NodeAction<N> = Box<dyn FnOnce(&mut N, &mut NodeCtx) + Send>;

enum EventKind<N> {
    Deliver {
        from: PartyId,
        to: PartyId,
        payload: Payload,
    },
    Timer {
        node: PartyId,
        id: u64,
    },
    Crash {
        node: PartyId,
    },
    Recover {
        node: PartyId,
    },
    Action {
        node: PartyId,
        f: NodeAction<N>,
    },
}

struct Event<N> {
    time: TimeMs,
    seq: u64,
    kind: EventKind<N>,
}

impl<N> PartialEq for Event<N> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<N> Eq for Event<N> {}
impl<N> PartialOrd for Event<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for Event<N> {
    // Reversed so the max-heap pops the earliest event first.
    //
    // The tie-break for simultaneous events is the PINNED, load-bearing
    // part: `seq` is the global insertion order, so events scheduled for
    // the same virtual time fire strictly in the order they were pushed
    // (schedule-time FIFO). Counterexample replay in `b2b-check` depends
    // on this being stable — see `simultaneous_events_fire_in_insertion_
    // order` — so any change here is a breaking change to every committed
    // fault-plan fixture.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct NodeSlot<N> {
    node: Option<N>,
    crashed: bool,
}

/// An active partition separating two sets of nodes until a heal time.
#[derive(Debug, Clone)]
struct Partition {
    side_a: HashSet<PartyId>,
    side_b: HashSet<PartyId>,
    heals_at: TimeMs,
}

impl Partition {
    fn separates(&self, x: &PartyId, y: &PartyId, now: TimeMs) -> bool {
        now < self.heals_at
            && ((self.side_a.contains(x) && self.side_b.contains(y))
                || (self.side_b.contains(x) && self.side_a.contains(y)))
    }
}

/// The deterministic network simulator.
///
/// All nodes must share one engine type `N`; the B2BObjects coordinator is
/// that type in practice. Scripted client activity is injected with
/// [`SimNet::invoke`] (immediately) or [`SimNet::at`] (at a virtual time).
pub struct SimNet<N: NetNode> {
    nodes: HashMap<PartyId, NodeSlot<N>>,
    queue: BinaryHeap<Event<N>>,
    now: TimeMs,
    seq: u64,
    rng: StdRng,
    default_plan: FaultPlan,
    link_plans: HashMap<(PartyId, PartyId), FaultPlan>,
    partitions: Vec<Partition>,
    intruder: Box<dyn Intruder>,
    stats: NetStats,
    telemetry: Telemetry,
}

impl<N: NetNode> SimNet<N> {
    /// Creates an empty simulated network with the given randomness seed.
    pub fn new(seed: u64) -> SimNet<N> {
        SimNet {
            nodes: HashMap::new(),
            queue: BinaryHeap::new(),
            now: TimeMs::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            default_plan: FaultPlan::default(),
            link_plans: HashMap::new(),
            partitions: Vec::new(),
            intruder: Box::new(PassThrough),
            stats: NetStats::new(),
            telemetry: Telemetry::default(),
        }
    }

    /// Attaches an observability handle. When its sink is set, the driver
    /// emits `net/send`, `net/deliver` and `net/drop` trace events stamped
    /// with virtual time; and [`SimNet::stats`] surfaces the registry's
    /// reliable-layer counters (`retransmits`, `dedup_drops`) — share the
    /// same handle with the nodes' [`crate::ReliableMux`]es to see them.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sets the fault plan applied to links without a specific plan.
    pub fn set_default_plan(&mut self, plan: FaultPlan) {
        self.default_plan = plan;
    }

    /// Sets the fault plan for the directed link `from → to`.
    pub fn set_link_plan(&mut self, from: PartyId, to: PartyId, plan: FaultPlan) {
        self.link_plans.insert((from, to), plan);
    }

    /// Installs a network intruder (replacing any previous one).
    pub fn set_intruder(&mut self, intruder: impl Intruder + 'static) {
        self.intruder = Box::new(intruder);
    }

    /// Adds a node and immediately runs its `on_start` callback.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same id is already present.
    pub fn add_node(&mut self, node: N) {
        let id = node.id();
        assert!(
            !self.nodes.contains_key(&id),
            "duplicate node id {id} added to SimNet"
        );
        self.nodes.insert(
            id.clone(),
            NodeSlot {
                node: Some(node),
                crashed: false,
            },
        );
        self.with_node(&id, |n, ctx| n.on_start(ctx));
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// Traffic statistics so far.
    ///
    /// The `retransmits`/`dedup_drops` fields are harvested from the
    /// attached telemetry registry (zero without one — the driver itself
    /// cannot see inside the nodes' reliable layers).
    pub fn stats(&self) -> NetStats {
        let mut stats = self.stats;
        let snap = self.telemetry.metrics().snapshot();
        stats.retransmits = snap.counter(names::RETRANSMITS);
        stats.dedup_drops = snap.counter(names::DEDUP_DROPS);
        stats
    }

    /// Immutable access to a node's engine for assertions.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn node(&self, id: &PartyId) -> &N {
        self.nodes
            .get(id)
            .and_then(|s| s.node.as_ref())
            .unwrap_or_else(|| panic!("unknown node {id}"))
    }

    /// Returns `true` if the node is currently crashed.
    pub fn is_crashed(&self, id: &PartyId) -> bool {
        self.nodes.get(id).map(|s| s.crashed).unwrap_or(false)
    }

    /// Runs `f` against a node right now (a scripted client action), then
    /// applies the effects it queued. Returns `f`'s result.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the node is crashed.
    pub fn invoke<R>(&mut self, id: &PartyId, f: impl FnOnce(&mut N, &mut NodeCtx) -> R) -> R {
        assert!(!self.is_crashed(id), "invoke on crashed node {id}");
        self.with_node(id, f)
    }

    /// Schedules `f` to run against `node` at virtual time `at`.
    pub fn at(
        &mut self,
        at: TimeMs,
        node: PartyId,
        f: impl FnOnce(&mut N, &mut NodeCtx) + Send + 'static,
    ) {
        self.push_event(
            at,
            EventKind::Action {
                node,
                f: Box::new(f),
            },
        );
    }

    /// Schedules a crash of `node` at time `at`. In-flight messages to a
    /// crashed node are lost; its timers are discarded on delivery.
    pub fn crash_at(&mut self, at: TimeMs, node: PartyId) {
        self.push_event(at, EventKind::Crash { node });
    }

    /// Schedules recovery of `node` at time `at` (runs `on_recover`).
    pub fn recover_at(&mut self, at: TimeMs, node: PartyId) {
        self.push_event(at, EventKind::Recover { node });
    }

    /// Partitions the network into two sides that cannot exchange messages
    /// until `heals_at`.
    pub fn partition(
        &mut self,
        side_a: impl IntoIterator<Item = PartyId>,
        side_b: impl IntoIterator<Item = PartyId>,
        heals_at: TimeMs,
    ) {
        self.partitions.push(Partition {
            side_a: side_a.into_iter().collect(),
            side_b: side_b.into_iter().collect(),
            heals_at,
        });
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "virtual time went backwards");
        self.now = event.time;
        match event.kind {
            EventKind::Deliver { from, to, payload } => {
                let deliverable = match self.nodes.get(&to) {
                    Some(slot) => !slot.crashed,
                    None => false,
                };
                if deliverable {
                    self.stats.delivered += 1;
                    self.telemetry.trace(
                        self.now.as_millis(),
                        to.as_str(),
                        "net",
                        "deliver",
                        || format!("from={from} bytes={}", payload.len()),
                    );
                    // Another frame for the same node at this instant is
                    // delivered next: the handler may leave work for it.
                    let follows = matches!(
                        self.queue.peek(),
                        Some(Event { time, kind: EventKind::Deliver { to: next, .. }, .. })
                            if *time == self.now && *next == to
                    );
                    self.with_node(&to, |n, ctx| {
                        ctx.set_frame_follows(follows);
                        n.on_message(&from, &payload, ctx)
                    });
                } else {
                    self.stats.undeliverable += 1;
                    self.telemetry
                        .trace(self.now.as_millis(), to.as_str(), "net", "drop", || {
                            format!("from={from} reason=crashed_or_unknown")
                        });
                }
            }
            EventKind::Timer { node, id } => {
                let live = self.nodes.get(&node).map(|s| !s.crashed).unwrap_or(false);
                if live {
                    self.with_node(&node, |n, ctx| n.on_timer(id, ctx));
                }
            }
            EventKind::Crash { node } => {
                if let Some(slot) = self.nodes.get_mut(&node) {
                    slot.crashed = true;
                    if let Some(n) = slot.node.as_mut() {
                        n.on_crash();
                    }
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.nodes.get_mut(&node) {
                    slot.crashed = false;
                }
                self.with_node(&node, |n, ctx| n.on_recover(ctx));
            }
            EventKind::Action { node, f } => {
                let live = self.nodes.get(&node).map(|s| !s.crashed).unwrap_or(false);
                if live {
                    self.with_node(&node, |n, ctx| f(n, ctx));
                }
            }
        }
        true
    }

    /// Runs events until the queue is empty or virtual time would exceed
    /// `max_time`. Returns the virtual time reached.
    pub fn run_until_quiet(&mut self, max_time: TimeMs) -> TimeMs {
        while let Some(event) = self.queue.peek() {
            if event.time > max_time {
                break;
            }
            self.step();
        }
        self.now
    }

    /// Runs events until virtual time reaches `until` (events after it stay
    /// queued).
    pub fn run_until(&mut self, until: TimeMs) {
        while let Some(event) = self.queue.peek() {
            if event.time > until {
                break;
            }
            self.step();
        }
        if self.now < until {
            self.now = until;
        }
    }

    fn push_event(&mut self, at: TimeMs, kind: EventKind<N>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            time: at.max(self.now),
            seq,
            kind,
        });
    }

    fn with_node<R>(&mut self, id: &PartyId, f: impl FnOnce(&mut N, &mut NodeCtx) -> R) -> R {
        let slot = self
            .nodes
            .get_mut(id)
            .unwrap_or_else(|| panic!("unknown node {id}"));
        let mut node = slot.node.take().expect("node re-entered");
        let mut ctx = NodeCtx::new(self.now);
        let out = f(&mut node, &mut ctx);
        self.nodes.get_mut(id).expect("node slot vanished").node = Some(node);
        self.apply_effects(id.clone(), ctx);
        out
    }

    fn apply_effects(&mut self, from: PartyId, mut ctx: NodeCtx) {
        for (id, after) in ctx.take_timers() {
            let at = self.now + after;
            self.push_event(
                at,
                EventKind::Timer {
                    node: from.clone(),
                    id,
                },
            );
        }
        for (to, payload) in ctx.take_outgoing() {
            self.stats.sent += 1;
            self.stats.bytes_sent += payload.len() as u64;
            self.telemetry
                .trace(self.now.as_millis(), from.as_str(), "net", "send", || {
                    format!("to={to} bytes={}", payload.len())
                });
            let action = self.intruder.intercept(&from, &to, &payload, self.now);
            if action != InterceptAction::Deliver {
                self.stats.intruder_actions += 1;
                self.telemetry.inc(names::INTRUDER_ACTIONS);
                self.telemetry
                    .inc(&format!("intruder_actions:{from}->{to}"));
            }
            match action {
                InterceptAction::Deliver => {
                    self.route(from.clone(), to, payload, TimeMs::ZERO);
                }
                InterceptAction::Drop => {
                    self.stats.dropped += 1;
                }
                InterceptAction::Replace(replacement) => {
                    self.route(from.clone(), to, replacement.into(), TimeMs::ZERO);
                }
                InterceptAction::Delay(extra) => {
                    self.route(from.clone(), to, payload, extra);
                }
                InterceptAction::Inject(injections) => {
                    self.route(from.clone(), to, payload, TimeMs::ZERO);
                    for inj in injections {
                        self.route(inj.from, inj.to, inj.payload.into(), inj.after);
                    }
                }
            }
        }
    }

    /// Applies partition/fault-plan semantics and schedules delivery.
    ///
    /// Duplication clones the shared payload handle, not the bytes.
    fn route(&mut self, from: PartyId, to: PartyId, payload: Payload, extra_delay: TimeMs) {
        if self
            .partitions
            .iter()
            .any(|p| p.separates(&from, &to, self.now))
        {
            self.stats.undeliverable += 1;
            self.stats.partition_drops += 1;
            self.telemetry.inc(names::PARTITION_DROPS);
            self.telemetry.inc(&format!("partition_drops:{from}->{to}"));
            self.telemetry
                .trace(self.now.as_millis(), from.as_str(), "net", "drop", || {
                    format!("to={to} reason=partition")
                });
            return;
        }
        let plan = self
            .link_plans
            .get(&(from.clone(), to.clone()))
            .copied()
            .unwrap_or(self.default_plan);
        if plan.drop_rate > 0.0 && self.rng.gen_bool(plan.drop_rate) {
            self.stats.dropped += 1;
            self.telemetry
                .trace(self.now.as_millis(), from.as_str(), "net", "drop", || {
                    format!("to={to} reason=fault_plan")
                });
            return;
        }
        let delay = if plan.max_delay > plan.min_delay {
            TimeMs(
                self.rng
                    .gen_range(plan.min_delay.as_millis()..=plan.max_delay.as_millis()),
            )
        } else {
            plan.min_delay
        };
        let deliver_at = self.now + delay + extra_delay;
        if plan.dup_rate > 0.0 && self.rng.gen_bool(plan.dup_rate) {
            self.stats.duplicated += 1;
            let dup_delay = TimeMs(
                self.rng
                    .gen_range(plan.min_delay.as_millis()..=plan.max_delay.as_millis()),
            );
            self.push_event(
                self.now + dup_delay + extra_delay,
                EventKind::Deliver {
                    from: from.clone(),
                    to: to.clone(),
                    payload: payload.clone(),
                },
            );
        }
        self.push_event(deliver_at, EventKind::Deliver { from, to, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intruder::FnIntruder;
    use std::collections::VecDeque;

    /// Test node: records received payloads; can be told to send.
    struct Probe {
        id: PartyId,
        received: Vec<(PartyId, Vec<u8>)>,
        timers_fired: Vec<u64>,
        crashes: u32,
        recoveries: u32,
        start_sends: VecDeque<(PartyId, Vec<u8>)>,
    }

    impl Probe {
        fn new(name: &str) -> Probe {
            Probe {
                id: PartyId::new(name),
                received: Vec::new(),
                timers_fired: Vec::new(),
                crashes: 0,
                recoveries: 0,
                start_sends: VecDeque::new(),
            }
        }
    }

    impl NetNode for Probe {
        fn id(&self) -> PartyId {
            self.id.clone()
        }
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            while let Some((to, payload)) = self.start_sends.pop_front() {
                ctx.send(to, payload);
            }
        }
        fn on_message(&mut self, from: &PartyId, payload: &[u8], _ctx: &mut NodeCtx) {
            self.received.push((from.clone(), payload.to_vec()));
        }
        fn on_timer(&mut self, timer: u64, _ctx: &mut NodeCtx) {
            self.timers_fired.push(timer);
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_recover(&mut self, _ctx: &mut NodeCtx) {
            self.recoveries += 1;
        }
    }

    fn two_probe_net(seed: u64) -> SimNet<Probe> {
        let mut net = SimNet::new(seed);
        net.add_node(Probe::new("a"));
        net.add_node(Probe::new("b"));
        net
    }

    #[test]
    fn delivers_messages_in_time_order() {
        let mut net = two_probe_net(1);
        net.invoke(&PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![1]);
            ctx.send(PartyId::new("b"), vec![2]);
        });
        net.run_until_quiet(TimeMs(100));
        let b = net.node(&PartyId::new("b"));
        assert_eq!(b.received.len(), 2);
        assert_eq!(b.received[0].1, vec![1]);
        assert_eq!(b.received[1].1, vec![2]);
    }

    #[test]
    fn timers_fire_after_requested_delay() {
        let mut net = two_probe_net(1);
        net.invoke(&PartyId::new("a"), |_n, ctx| ctx.set_timer(7, TimeMs(50)));
        net.run_until(TimeMs(49));
        assert!(net.node(&PartyId::new("a")).timers_fired.is_empty());
        net.run_until(TimeMs(50));
        assert_eq!(net.node(&PartyId::new("a")).timers_fired, vec![7]);
    }

    #[test]
    fn drop_faults_lose_messages() {
        let mut net: SimNet<Probe> = SimNet::new(3);
        net.set_default_plan(FaultPlan::new().drop_rate(1.0));
        net.add_node(Probe::new("a"));
        net.add_node(Probe::new("b"));
        net.invoke(&PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![9]);
        });
        net.run_until_quiet(TimeMs(100));
        assert!(net.node(&PartyId::new("b")).received.is_empty());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut net: SimNet<Probe> = SimNet::new(4);
        net.set_default_plan(FaultPlan::new().dup_rate(1.0));
        net.add_node(Probe::new("a"));
        net.add_node(Probe::new("b"));
        net.invoke(&PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![9]);
        });
        net.run_until_quiet(TimeMs(100));
        assert_eq!(net.node(&PartyId::new("b")).received.len(), 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn crashed_node_loses_messages_until_recovery() {
        let mut net = two_probe_net(5);
        net.crash_at(TimeMs(10), PartyId::new("b"));
        net.at(TimeMs(20), PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![1]);
        });
        net.recover_at(TimeMs(30), PartyId::new("b"));
        net.at(TimeMs(40), PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![2]);
        });
        net.run_until_quiet(TimeMs(100));
        let b = net.node(&PartyId::new("b"));
        assert_eq!(b.crashes, 1);
        assert_eq!(b.recoveries, 1);
        assert_eq!(b.received.len(), 1);
        assert_eq!(b.received[0].1, vec![2]);
        assert_eq!(net.stats().undeliverable, 1);
    }

    #[test]
    fn partitions_block_then_heal() {
        let mut net = two_probe_net(6);
        net.partition([PartyId::new("a")], [PartyId::new("b")], TimeMs(100));
        net.at(TimeMs(10), PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![1]);
        });
        net.at(TimeMs(150), PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![2]);
        });
        net.run_until_quiet(TimeMs(500));
        let b = net.node(&PartyId::new("b"));
        assert_eq!(b.received.len(), 1);
        assert_eq!(b.received[0].1, vec![2]);
    }

    #[test]
    fn intruder_can_tamper_payloads() {
        let mut net = two_probe_net(7);
        net.set_intruder(FnIntruder::new(
            |_f: &PartyId, _t: &PartyId, p: &[u8], _n| {
                let mut m = p.to_vec();
                m[0] = 0xee;
                InterceptAction::Replace(m)
            },
        ));
        net.invoke(&PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![1]);
        });
        net.run_until_quiet(TimeMs(100));
        assert_eq!(net.node(&PartyId::new("b")).received[0].1, vec![0xee]);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut net: SimNet<Probe> = SimNet::new(seed);
            net.set_default_plan(FaultPlan::new().drop_rate(0.3).delay(TimeMs(1), TimeMs(20)));
            net.add_node(Probe::new("a"));
            net.add_node(Probe::new("b"));
            for i in 0..20u8 {
                net.at(TimeMs(u64::from(i)), PartyId::new("a"), move |_n, ctx| {
                    ctx.send(PartyId::new("b"), vec![i]);
                });
            }
            net.run_until_quiet(TimeMs(1_000));
            net.node(&PartyId::new("b")).received.clone()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        // PIN: events scheduled for the same virtual millisecond fire in
        // the order they were scheduled (global insertion sequence), for
        // every event kind. Counterexample fixtures committed by b2b-check
        // replay against exactly this order; do not weaken this test.
        let mut net = two_probe_net(1);
        let (a, b) = (PartyId::new("a"), PartyId::new("b"));
        for i in 0..5u8 {
            net.at(TimeMs(10), a.clone(), move |_n, ctx| {
                ctx.send(PartyId::new("b"), vec![i]);
            });
        }
        net.run_until_quiet(TimeMs(1_000));
        let order: Vec<u8> = net.node(&b).received.iter().map(|(_, p)| p[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);

        // Timers armed for the same instant also fire in arming order.
        let mut net2 = two_probe_net(1);
        net2.invoke(&a, |_n, ctx| {
            ctx.set_timer(3, TimeMs(20));
            ctx.set_timer(1, TimeMs(20));
            ctx.set_timer(2, TimeMs(20));
        });
        net2.run_until_quiet(TimeMs(100));
        assert_eq!(net2.node(&a).timers_fired, vec![3, 1, 2]);
    }

    #[test]
    fn partition_drops_are_counted_per_link() {
        let mut net = two_probe_net(8);
        let tel = Telemetry::new();
        net.set_telemetry(tel.clone());
        net.partition([PartyId::new("a")], [PartyId::new("b")], TimeMs(100));
        net.at(TimeMs(10), PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), vec![1]);
            ctx.send(PartyId::new("b"), vec![2]);
        });
        net.run_until_quiet(TimeMs(500));
        let stats = net.stats();
        assert_eq!(stats.partition_drops, 2);
        assert_eq!(stats.undeliverable, 2, "partition drops stay a subset");
        let snap = tel.metrics().snapshot();
        assert_eq!(snap.counter(names::PARTITION_DROPS), 2);
        assert_eq!(snap.counter("partition_drops:a->b"), 2);
        assert_eq!(snap.counter("partition_drops:b->a"), 0);
    }

    #[test]
    fn intruder_actions_are_counted() {
        let mut net = two_probe_net(9);
        let tel = Telemetry::new();
        net.set_telemetry(tel.clone());
        net.set_intruder(FnIntruder::new(
            |_f: &PartyId, _t: &PartyId, p: &[u8], _n| {
                if p == b"seen" {
                    InterceptAction::Deliver
                } else {
                    InterceptAction::Drop
                }
            },
        ));
        net.invoke(&PartyId::new("a"), |_n, ctx| {
            ctx.send(PartyId::new("b"), b"seen".to_vec());
            ctx.send(PartyId::new("b"), b"gone".to_vec());
            ctx.send(PartyId::new("b"), b"gone".to_vec());
        });
        net.run_until_quiet(TimeMs(100));
        let stats = net.stats();
        assert_eq!(stats.intruder_actions, 2, "Deliver decisions not counted");
        assert_eq!(stats.dropped, 2);
        let snap = tel.metrics().snapshot();
        assert_eq!(snap.counter(names::INTRUDER_ACTIONS), 2);
        assert_eq!(snap.counter("intruder_actions:a->b"), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_rejected() {
        let mut net: SimNet<Probe> = SimNet::new(1);
        net.add_node(Probe::new("a"));
        net.add_node(Probe::new("a"));
    }

    #[test]
    fn jitter_reorders_messages() {
        // With a wide delay window some pair of messages must arrive out of
        // send order for at least one seed; use a fixed seed known to reorder.
        let mut net: SimNet<Probe> = SimNet::new(2);
        net.set_default_plan(FaultPlan::new().delay(TimeMs(1), TimeMs(100)));
        net.add_node(Probe::new("a"));
        net.add_node(Probe::new("b"));
        for i in 0..10u8 {
            net.at(TimeMs(u64::from(i)), PartyId::new("a"), move |_n, ctx| {
                ctx.send(PartyId::new("b"), vec![i]);
            });
        }
        net.run_until_quiet(TimeMs(1_000));
        let order: Vec<u8> = net
            .node(&PartyId::new("b"))
            .received
            .iter()
            .map(|(_, p)| p[0])
            .collect();
        assert_eq!(order.len(), 10);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "expected at least one reordering");
    }
}
