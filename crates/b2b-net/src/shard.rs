//! Sharded multi-group runtime: thousands of coordination groups on a
//! fixed worker pool.
//!
//! The paper's middleware assumes many independent information-sharing
//! objects coexist — every game, order book or auction is its own
//! coordination group. Rather than one OS thread per node, which tops
//! out at a few hundred nodes per process, this module multiplexes:
//!
//! * a **shard map** — every group is pinned to one of ≈ `num_cpus`
//!   shards at registration (`GroupId → shard`, frozen before the workers
//!   start, so routing is lock-free reads of an immutable table);
//! * a **group id in every frame header** — each engine callback runs
//!   with a [`NodeCtx`] naming its group, and the reliable layer writes
//!   that id into the one header it builds per frame, so one socket
//!   carries traffic for many groups ([`crate::shard_tcp`] demultiplexes
//!   on it) while in process a frame travels untouched beside its group;
//! * **per-shard timer wheels** — a hashed wheel per worker replaces the
//!   per-node binary heaps, so 20k nodes' retransmit timers cost one
//!   wheel advance per shard tick instead of 20k thread wakeups;
//! * **bounded shard inboxes with order-preserving backpressure** —
//!   every slot sends through its own FIFO outbox; when a destination
//!   shard's inbox is full the outbox parks head-of-line (counting
//!   [`names::INBOX_FULL_STALLS`]) and the slot's owning worker
//!   re-drains it. Frames are never shed or reordered: the reliable
//!   layer dedups duplicates but delivers in arrival order, and the
//!   coordination protocols' pipelined rounds require per-link FIFO
//!   (a round-`i+1` proposal overtaking round `i`'s decision reads as a
//!   predecessor mismatch and draws an honest veto).
//!
//! The per-node engine state lives in *slots* (`(GroupId, PartyId) →
//! Mutex<engine>`), driven by clients through
//! [`GroupHandle::invoke`]/[`GroupHandle::wait_until`] — engines run
//! unmodified, and a single-group sharded run produces the same protocol
//! traffic (hence byte-identical evidence and trace DAGs) as the
//! simulator. Crash/recovery mirrors the simulator:
//! crashing a node bumps its epoch (stale timers are lazily discarded),
//! drops its inbound frames, and recovery replays the engine's
//! `on_recover`.

use crate::compact::Compact;
use crate::node::{NetNode, NodeCtx, Payload};
use crate::stats::NetStats;
use b2b_crypto::{PartyId, TimeMs};
use b2b_telemetry::{names, Telemetry};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identity of one coordination group inside a sharded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Default bound of each shard's event inbox. A shard serves many groups,
/// so its inbox is sized far above the handful of frames one round puts
/// in flight per peer.
pub const DEFAULT_SHARD_INBOX_CAPACITY: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Milliseconds per wheel tick. Protocol timers (retransmit backoff, run
/// deadlines) are tens of milliseconds and up; 4 ms resolution is far below
/// any timer the engines arm.
const WHEEL_TICK_MS: u64 = 4;
/// Buckets per wheel: a 1.024 s horizon before entries overflow.
const WHEEL_BUCKETS: usize = 256;

struct TimerEntry {
    deadline: TimeMs,
    gid: GroupId,
    party: PartyId,
    timer_id: u64,
    /// Crash epoch of the slot when the timer was armed; a fire whose
    /// epoch no longer matches is a timer of a crashed incarnation and is
    /// discarded (the simulator cancels timers on crash; the wheel
    /// cancels lazily).
    epoch: u64,
}

/// A hashed timer wheel: O(1) insert, O(buckets-passed) advance,
/// amortising every timer in the shard into one data structure.
struct TimerWheel {
    buckets: Vec<Vec<TimerEntry>>,
    /// Absolute tick the cursor bucket corresponds to.
    cursor_tick: u64,
    /// Entries with deadlines beyond the wheel horizon, re-hashed when
    /// the cursor wraps.
    overflow: Vec<TimerEntry>,
    len: usize,
}

impl TimerWheel {
    fn new(now: TimeMs) -> TimerWheel {
        TimerWheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            cursor_tick: now.0 / WHEEL_TICK_MS,
            overflow: Vec::new(),
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn insert(&mut self, entry: TimerEntry) {
        self.len += 1;
        let tick = entry.deadline.0 / WHEEL_TICK_MS;
        if tick >= self.cursor_tick + WHEEL_BUCKETS as u64 {
            self.overflow.push(entry);
        } else {
            // Past-due entries land in the cursor bucket and fire on the
            // next advance.
            let tick = tick.max(self.cursor_tick);
            self.buckets[(tick % WHEEL_BUCKETS as u64) as usize].push(entry);
        }
    }

    /// Advances the cursor to `now`, returning every due entry.
    fn advance(&mut self, now: TimeMs) -> Vec<TimerEntry> {
        let target_tick = now.0 / WHEEL_TICK_MS;
        let mut due = Vec::new();
        loop {
            let idx = (self.cursor_tick % WHEEL_BUCKETS as u64) as usize;
            let bucket = std::mem::take(&mut self.buckets[idx]);
            for entry in bucket {
                if entry.deadline.0 <= now.0 {
                    due.push(entry);
                } else {
                    // Due later inside the tick `now` falls in.
                    self.buckets[idx].push(entry);
                }
            }
            // The tick `now` falls in has not fully elapsed, so the cursor
            // stays on it and the next advance visits its bucket again.
            // Stepping past it would strand the entries kept above for a
            // whole revolution of the wheel.
            if self.cursor_tick >= target_tick {
                break;
            }
            self.cursor_tick += 1;
            if idx == WHEEL_BUCKETS - 1 && !self.overflow.is_empty() {
                // Cursor wrapped: pull overflow entries that are now
                // within the horizon back onto the wheel.
                let horizon = self.cursor_tick + WHEEL_BUCKETS as u64;
                let (near, far): (Vec<_>, Vec<_>) = std::mem::take(&mut self.overflow)
                    .into_iter()
                    .partition(|e| e.deadline.0 / WHEEL_TICK_MS < horizon);
                self.overflow = far;
                for entry in near {
                    self.len -= 1; // insert re-counts it
                    self.insert(entry);
                }
            }
        }
        self.len -= due.len();
        due
    }
}

// ---------------------------------------------------------------------------
// Slots and events
// ---------------------------------------------------------------------------

struct SlotInner<N> {
    node: N,
    crashed: bool,
    /// Bumped on every crash; timers armed before the bump never fire.
    epoch: u64,
    /// Outgoing events not yet accepted by their destination — a local
    /// shard's inbox or the external transport — in send order. Drained
    /// front-first; a full destination parks the whole queue
    /// (head-of-line) so per-link FIFO holds.
    outbox: VecDeque<(OutDest, ShardEvent)>,
    /// Whether this slot is registered on its shard's parked list.
    outbox_blocked: bool,
    /// Threads blocked in [`GroupHandle::wait_until`] on this slot. Changed
    /// only under the slot lock, around the wait, so a notifier holding
    /// the lock that reads zero has no one to wake.
    waiters: usize,
}

/// One node's engine state, resident on exactly one shard.
struct Slot<N> {
    gid: GroupId,
    party: PartyId,
    shard: usize,
    inner: Mutex<SlotInner<N>>,
    cv: Condvar,
}

impl<N> Slot<N> {
    /// Wakes the threads waiting on this slot's engine, if there are any:
    /// a notify with no waiter would still cost a syscall (caller holds
    /// the slot lock).
    fn notify(&self, inner: &SlotInner<N>) {
        if inner.waiters > 0 {
            self.cv.notify_all();
        }
    }
}

enum ShardEvent {
    /// A frame for `(gid, to)`, exactly as its sender built it.
    Deliver {
        gid: GroupId,
        from: PartyId,
        to: PartyId,
        frame: Payload,
    },
    /// Recompute the loop deadline (a client armed a timer or wants the
    /// loop to notice state it changed).
    Wake,
    Stop,
}

/// Where an outbox entry is headed: a local worker shard, or out of the
/// process through the configured [`ExternalRoute`].
enum OutDest {
    Shard(usize),
    External,
}

/// A transport's answer to one offered frame.
pub(crate) enum RouteOffer {
    /// Accepted; the transport owns the frame now.
    Sent,
    /// Transport queue full — the sender's outbox parks head-of-line and
    /// the offer is retried, so per-link FIFO carries across the socket.
    Full,
    /// No route to that party; the frame is dropped (a lost message, as
    /// the paper's model allows).
    Unroutable,
}

/// A transport bridging this process's slots to remote endpoints.
///
/// Installed once per [`ShardedNet`] (see
/// [`ShardedNet::set_external_route`]); sends to parties without a local
/// slot are offered here instead of being dropped.
pub(crate) trait ExternalRoute: Send + Sync {
    /// Offers one `frame` of group `gid` addressed to `to`. Must not
    /// block: backpressure is expressed through [`RouteOffer::Full`].
    fn try_send(&self, gid: GroupId, to: &PartyId, frame: &Payload) -> RouteOffer;
}

/// An inbound sink handed to a transport: `(raw group id, sender,
/// frame) → accepted?`. Returns `false` when the destination
/// shard's inbox is full — the transport must hold the frame and retry
/// (its socket receive window then pushes back on the peer).
pub(crate) type ExternalInjector = Arc<dyn Fn(u64, PartyId, Payload) -> bool + Send + Sync>;

// ---------------------------------------------------------------------------
// The core: routing table, shard inboxes, wheels
// ---------------------------------------------------------------------------

struct Core<N> {
    start: Instant,
    /// Frozen before workers start: group → shard.
    shard_of: HashMap<GroupId, usize>,
    slots: HashMap<(GroupId, PartyId), Arc<Slot<N>>>,
    shard_txs: Vec<Sender<ShardEvent>>,
    wheels: Vec<Mutex<TimerWheel>>,
    /// Approximate queued events per shard (sampled into
    /// [`names::SHARD_QUEUE_DEPTH`]).
    depths: Vec<AtomicUsize>,
    /// Per *source* shard: slots whose outbox parked on a full
    /// destination inbox, awaiting a re-drain by their owning worker.
    parked: Vec<Mutex<Vec<(GroupId, PartyId)>>>,
    /// Set once (before any engine runs) when a transport bridges this
    /// process to remote endpoints; sends to parties without a local
    /// slot route here. Never set for a purely in-process net.
    external: OnceLock<Arc<dyn ExternalRoute>>,
    telemetry: Telemetry,
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

impl<N: NetNode> Core<N> {
    fn now(&self) -> TimeMs {
        TimeMs(self.start.elapsed().as_millis() as u64)
    }

    /// Sends one outgoing payload from `slot`: offered to its destination
    /// at once while the slot's outbox is empty, queued behind the outbox
    /// otherwise or if the destination is full (caller holds the slot
    /// lock). Returns whether the payload is headed for a local shard.
    fn send_out(
        &self,
        slot: &Slot<N>,
        inner: &mut SlotInner<N>,
        to: &PartyId,
        payload: Payload,
    ) -> bool {
        self.sent.fetch_add(1, Ordering::Relaxed);
        let Some(&shard) = self.shard_of.get(&slot.gid) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let dest = if self.slots.contains_key(&(slot.gid, to.clone())) {
            OutDest::Shard(shard)
        } else if self.external.get().is_some() {
            // The party lives on a remote endpoint: route through the
            // transport, in the same FIFO as local frames.
            OutDest::External
        } else {
            // Unknown destination: undeliverable, silently lost (the
            // paper's model treats it as a lost message).
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let local = matches!(dest, OutDest::Shard(_));
        let event = ShardEvent::Deliver {
            gid: slot.gid,
            from: slot.party.clone(),
            to: to.clone(),
            frame: payload,
        };
        if !inner.outbox.is_empty() {
            inner.outbox.push_back((dest, event));
        } else if let Err(full) = self.offer_out(dest, event) {
            inner.outbox.push_back(full);
        }
        local
    }

    /// Offers one outbox entry to its destination — a local shard inbox or
    /// the external transport — handing it back if the destination is full.
    /// Never blocks.
    fn offer_out(&self, dest: OutDest, event: ShardEvent) -> Result<(), (OutDest, ShardEvent)> {
        match dest {
            OutDest::Shard(d) => match self.offer(d, event) {
                Ok(()) => {}
                Err(TrySendError::Disconnected(_)) => {
                    // Shutting down; the frame is lost with the pool.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Full(event)) => return Err((OutDest::Shard(d), event)),
            },
            OutDest::External => {
                let Some(route) = self.external.get() else {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                };
                let ShardEvent::Deliver { gid, to, frame, .. } = &event else {
                    return Ok(());
                };
                match route.try_send(*gid, to, frame) {
                    RouteOffer::Sent => {}
                    RouteOffer::Unroutable => {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    RouteOffer::Full => return Err((OutDest::External, event)),
                }
            }
        }
        Ok(())
    }

    /// Offers `slot`'s outbox to the destinations in send order, stopping
    /// at the first full one (head-of-line — nothing is shed and nothing
    /// overtakes). Never blocks, so workers cannot deadlock on each other's
    /// full inboxes. Returns whether the outbox emptied; an emptied outbox
    /// gives back its capacity, since only a full destination fills it
    /// (caller holds the slot lock).
    fn try_drain(&self, inner: &mut SlotInner<N>) -> bool {
        while let Some((dest, event)) = inner.outbox.pop_front() {
            if let Err(full) = self.offer_out(dest, event) {
                inner.outbox.push_front(full);
                return false;
            }
        }
        inner.outbox.release_if_empty();
        true
    }

    /// [`Core::try_drain`], plus parking: a still-blocked outbox is
    /// registered (once per stall) with its owning worker for re-drains,
    /// counting [`names::INBOX_FULL_STALLS`] (caller holds the slot
    /// lock).
    fn drain_outbox(&self, slot: &Slot<N>, inner: &mut SlotInner<N>) {
        if self.try_drain(inner) {
            inner.outbox_blocked = false;
            return;
        }
        if !inner.outbox_blocked {
            inner.outbox_blocked = true;
            self.telemetry.inc(names::INBOX_FULL_STALLS);
            self.parked[slot.shard]
                .lock()
                .push((slot.gid, slot.party.clone()));
            self.wake(slot.shard);
        }
    }

    /// Applies a context's effects after an engine callback: timers go
    /// onto the owning shard's wheel, then sends leave through the slot's
    /// FIFO outbox — timers first, so a worker woken by one of the frames
    /// already sees them (caller holds the slot lock).
    ///
    /// Returns whether the owning worker must be sent a
    /// [`ShardEvent::Wake`] to see a timer armed from outside it: the
    /// callback armed one, and nothing headed for the shard's own inbox
    /// whose delivery would make the worker recompute its deadline anyway.
    /// (A frame still stuck behind a full inbox has parked the outbox,
    /// which already woke the worker into its short re-drain poll.)
    #[must_use]
    fn flush(&self, slot: &Slot<N>, inner: &mut SlotInner<N>, ctx: &mut NodeCtx) -> bool {
        let timers = ctx.take_timers();
        let armed = !timers.is_empty();
        if armed {
            let now = self.now();
            let mut wheel = self.wheels[slot.shard].lock();
            for (timer_id, after) in timers {
                wheel.insert(TimerEntry {
                    deadline: now + after,
                    gid: slot.gid,
                    party: slot.party.clone(),
                    timer_id,
                    epoch: inner.epoch,
                });
            }
        }
        let mut to_own_inbox = inner
            .outbox
            .iter()
            .any(|(dest, _)| matches!(dest, OutDest::Shard(_)));
        for (to, payload) in ctx.take_outgoing() {
            to_own_inbox |= self.send_out(slot, inner, &to, payload);
        }
        self.drain_outbox(slot, inner);
        armed && !to_own_inbox
    }

    /// Offers `event` to `shard`'s inbox, counting it into the shard's
    /// depth *before* the send: the worker may dequeue (and decrement) as
    /// soon as the send lands, so counting after it could drive the depth
    /// below zero. A refused event is uncounted again.
    fn offer(&self, shard: usize, event: ShardEvent) -> Result<(), TrySendError<ShardEvent>> {
        self.depths[shard].fetch_add(1, Ordering::Relaxed);
        let sent = self.shard_txs[shard].try_send(event);
        if sent.is_err() {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    fn wake(&self, shard: usize) {
        // Full or stopped: either way the worker is busy and will re-check
        // its deadline soon.
        let _ = self.offer(shard, ShardEvent::Wake);
    }

    /// Offers an externally received frame to its
    /// destination shard's inbox. Returns `false` when the inbox is full
    /// — the transport must hold the frame and retry later, never shed
    /// or reorder it.
    fn try_inject(&self, gid_raw: u64, from: PartyId, to: PartyId, frame: Payload) -> bool {
        let gid = GroupId(gid_raw);
        let Some(&shard) = self.shard_of.get(&gid) else {
            // Unknown group on this endpoint: consumed, counted, lost.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.telemetry.inc(names::SHARD_UNDELIVERABLE);
            return true;
        };
        let event = ShardEvent::Deliver {
            gid,
            from,
            to,
            frame,
        };
        match self.offer(shard, event) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => false,
            // Shutting down; consume the frame with the pool.
            Err(TrySendError::Disconnected(_)) => true,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

/// Telemetry deltas batched worker-locally so the hot loop touches the
/// shared registry only every flush, not every event.
#[derive(Default)]
struct LocalCounters {
    events: u64,
    timer_fires: u64,
    undeliverable: u64,
}

const COUNTER_FLUSH_EVERY: u64 = 512;
const QUEUE_DEPTH_SAMPLE_EVERY: u64 = 64;
/// Events consumed per loop iteration before the worker re-checks its
/// parked outboxes and timer wheel. Bursting matters under saturation:
/// sweeping thousands of parked slots per single consumed event would
/// crawl, while a burst frees a burst-sized slice of inbox capacity per
/// sweep.
const EVENT_BURST: u64 = 256;

fn run_shard<N: NetNode>(shard: usize, rx: Receiver<ShardEvent>, core: Arc<Core<N>>) {
    let events_name = format!("{}:shard{shard}", names::SHARD_EVENTS);
    let mut local = LocalCounters::default();
    let flush_local = |local: &mut LocalCounters| {
        if local.events > 0 {
            core.telemetry.add(&events_name, local.events);
        }
        if local.timer_fires > 0 {
            core.telemetry
                .add(names::SHARD_TIMER_FIRES, local.timer_fires);
        }
        if local.undeliverable > 0 {
            core.telemetry
                .add(names::SHARD_UNDELIVERABLE, local.undeliverable);
        }
        *local = LocalCounters::default();
    };
    loop {
        // Re-drain outboxes that parked on a full destination inbox.
        let parked = std::mem::take(&mut *core.parked[shard].lock());
        for key in parked {
            let Some(slot) = core.slots.get(&key) else {
                continue;
            };
            let mut inner = slot.inner.lock();
            if core.try_drain(&mut inner) {
                inner.outbox_blocked = false;
            } else {
                // Still blocked: keep the registration (and the stall
                // already counted) until the destination drains.
                core.parked[shard].lock().push(key);
            }
        }
        let parked_pending = !core.parked[shard].lock().is_empty();
        let timers_pending = !core.wheels[shard].lock().is_empty();
        let timeout = if parked_pending {
            Duration::from_millis(1)
        } else if timers_pending {
            Duration::from_millis(WHEEL_TICK_MS)
        } else {
            Duration::from_millis(100)
        };
        let mut stop = false;
        let mut next = match rx.recv_timeout(timeout) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut burst = 0;
        while let Some(event) = next {
            core.depths[shard].fetch_sub(1, Ordering::Relaxed);
            local.events += 1;
            burst += 1;
            // Take the following event first: whether it is a frame for
            // the same slot tells the engine if its acks can wait for it.
            let following = if burst < EVENT_BURST {
                rx.try_recv().ok()
            } else {
                None
            };
            match event {
                ShardEvent::Deliver {
                    gid,
                    from,
                    to,
                    frame,
                } => {
                    let follows = matches!(
                        &following,
                        Some(ShardEvent::Deliver { gid: g, to: t, .. }) if *g == gid && *t == to
                    );
                    deliver(&core, gid, &from, &to, &frame, follows, &mut local)
                }
                ShardEvent::Wake => {}
                ShardEvent::Stop => {
                    stop = true;
                    break;
                }
            }
            if local.events % QUEUE_DEPTH_SAMPLE_EVERY == 0 {
                let depth = core.depths[shard].load(Ordering::Relaxed) as u64;
                core.telemetry.observe_ms(names::SHARD_QUEUE_DEPTH, depth);
            }
            next = following;
        }
        if stop {
            break;
        }
        // Fire due timers across every group resident on this shard.
        let due = core.wheels[shard].lock().advance(core.now());
        for entry in due {
            let Some(slot) = core.slots.get(&(entry.gid, entry.party.clone())) else {
                continue;
            };
            let mut ctx = NodeCtx::with_group(core.now(), entry.gid.0);
            let mut inner = slot.inner.lock();
            if inner.crashed || inner.epoch != entry.epoch {
                continue; // a crashed incarnation's timer
            }
            local.timer_fires += 1;
            inner.node.on_timer(entry.timer_id, &mut ctx);
            // On the worker itself: the loop recomputes its deadline next.
            let _ = core.flush(slot, &mut inner, &mut ctx);
            slot.notify(&inner);
        }
        if local.events >= COUNTER_FLUSH_EVERY {
            flush_local(&mut local);
        }
    }
    flush_local(&mut local);
}

/// Hands one frame to its slot's engine; `follows` says whether the
/// worker's next event is another frame for the same slot.
fn deliver<N: NetNode>(
    core: &Core<N>,
    gid: GroupId,
    from: &PartyId,
    to: &PartyId,
    frame: &[u8],
    follows: bool,
    local: &mut LocalCounters,
) {
    let Some(slot) = core.slots.get(&(gid, to.clone())) else {
        local.undeliverable += 1;
        return;
    };
    let mut ctx = NodeCtx::with_group(core.now(), gid.0);
    let mut inner = slot.inner.lock();
    if inner.crashed {
        local.undeliverable += 1;
        return;
    }
    core.delivered.fetch_add(1, Ordering::Relaxed);
    ctx.set_frame_follows(follows);
    inner.node.on_message(from, frame, &mut ctx);
    let _ = core.flush(slot, &mut inner, &mut ctx);
    slot.notify(&inner);
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A handle for interacting with one node of one group in a
/// [`ShardedNet`] (or a [`crate::ShardedTcpNet`]): local calls, reads and
/// condition waits against the engine — how the synchronous
/// communication mode is realised.
pub struct GroupHandle<N: NetNode> {
    slot: Arc<Slot<N>>,
    core: Arc<Core<N>>,
}

impl<N: NetNode> Clone for GroupHandle<N> {
    fn clone(&self) -> Self {
        GroupHandle {
            slot: Arc::clone(&self.slot),
            core: Arc::clone(&self.core),
        }
    }
}

impl<N: NetNode> GroupHandle<N> {
    /// The group this handle addresses.
    pub fn group(&self) -> GroupId {
        self.slot.gid
    }

    /// This node's identity.
    pub fn id(&self) -> &PartyId {
        &self.slot.party
    }

    /// Runs a local call against the engine, applies its effects (sends
    /// and timers), and returns the call's result.
    pub fn invoke<R>(&self, f: impl FnOnce(&mut N, &mut NodeCtx) -> R) -> R {
        let mut ctx = NodeCtx::with_group(self.core.now(), self.slot.gid.0);
        let (result, wake) = {
            let mut inner = self.slot.inner.lock();
            let result = f(&mut inner.node, &mut ctx);
            let wake = self.core.flush(&self.slot, &mut inner, &mut ctx);
            self.slot.notify(&inner);
            (result, wake)
        };
        if wake {
            // The worker recomputes its loop deadline to take in the timer.
            self.core.wake(self.slot.shard);
        }
        result
    }

    /// Reads from the engine without applying effects.
    pub fn read<R>(&self, f: impl FnOnce(&N) -> R) -> R {
        f(&self.slot.inner.lock().node)
    }

    /// Changes engine state that has no network effects (draining a
    /// buffer, say): unlike [`GroupHandle::invoke`], nothing is flushed
    /// and the shard is not woken.
    pub fn update<R>(&self, f: impl FnOnce(&mut N) -> R) -> R {
        f(&mut self.slot.inner.lock().node)
    }

    /// Blocks until `pred` holds or `timeout` elapses; returns whether
    /// the predicate was satisfied. Re-evaluated after every event the
    /// node processes.
    pub fn wait_until(&self, timeout: Duration, mut pred: impl FnMut(&N) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.slot.inner.lock();
        loop {
            if pred(&inner.node) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            inner.waiters += 1;
            let timed_out = self.slot.cv.wait_until(&mut inner, deadline).timed_out();
            inner.waiters -= 1;
            if timed_out {
                return pred(&inner.node);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Builder and net
// ---------------------------------------------------------------------------

/// Configures a [`ShardedNet`] before any worker starts.
pub struct ShardedNetBuilder<N: NetNode> {
    groups: Vec<(GroupId, Vec<N>)>,
    shards: usize,
    inbox_capacity: usize,
    telemetry: Telemetry,
}

/// A spawned-but-not-started pool plus its registration list, in
/// registration order (the [`ShardedNet::start_all`] argument).
pub(crate) type Unstarted<N> = (ShardedNet<N>, Vec<(GroupId, PartyId)>);

impl<N: NetNode> ShardedNetBuilder<N> {
    /// Registers one group's nodes. Insertion order is the placement
    /// order: group *i* lands on shard `i % shards`.
    ///
    /// # Panics
    ///
    /// Panics if `gid` was already added or two nodes share an id.
    pub fn add_group(mut self, gid: GroupId, nodes: Vec<N>) -> Self {
        assert!(
            !self.groups.iter().any(|(g, _)| *g == gid),
            "duplicate group {gid} in ShardedNet"
        );
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                assert!(a.id() != b.id(), "duplicate node id {} in {gid}", a.id());
            }
        }
        self.groups.push((gid, nodes));
        self
    }

    /// Overrides the worker-pool size (default: available parallelism).
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        self.shards = shards;
        self
    }

    /// Overrides the per-shard inbox bound
    /// (default [`DEFAULT_SHARD_INBOX_CAPACITY`]).
    pub fn inbox_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "inbox capacity must be positive");
        self.inbox_capacity = capacity;
        self
    }

    /// Attaches a telemetry handle (shard occupancy, queue depth, stall
    /// and undeliverable counters).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Freezes the shard map, starts the worker pool and runs every
    /// node's `on_start` (groups in registration order).
    ///
    /// # Errors
    ///
    /// Returns the OS error if a worker thread cannot be spawned; the
    /// workers already started are stopped and joined first, so a failed
    /// spawn leaves no partial pool behind (and no engine has run
    /// `on_start` yet).
    pub fn spawn(self) -> io::Result<ShardedNet<N>> {
        let (net, started) = self.spawn_without_start()?;
        net.start_all(&started);
        Ok(net)
    }

    /// Like [`ShardedNetBuilder::spawn`] but without running any
    /// engine's `on_start`, returning the registration list instead.
    /// Transports that must install an [`ExternalRoute`] before the
    /// first send (the multiplexed TCP bridge) start the pool, wire the
    /// route, then call [`ShardedNet::start_all`].
    pub(crate) fn spawn_without_start(self) -> io::Result<Unstarted<N>> {
        let shards = self.shards;
        let start = Instant::now();
        let mut shard_of = HashMap::new();
        let mut slots = HashMap::new();
        let mut occupancy = vec![0u64; shards];
        let mut started: Vec<(GroupId, PartyId)> = Vec::new();
        for (i, (gid, nodes)) in self.groups.into_iter().enumerate() {
            let shard = i % shards;
            shard_of.insert(gid, shard);
            occupancy[shard] += 1;
            for node in nodes {
                let party = node.id();
                started.push((gid, party.clone()));
                slots.insert(
                    (gid, party.clone()),
                    Arc::new(Slot {
                        gid,
                        party,
                        shard,
                        inner: Mutex::new(SlotInner {
                            node,
                            crashed: false,
                            epoch: 0,
                            outbox: VecDeque::new(),
                            outbox_blocked: false,
                            waiters: 0,
                        }),
                        cv: Condvar::new(),
                    }),
                );
            }
        }
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = bounded(self.inbox_capacity);
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        for (i, groups) in occupancy.iter().enumerate() {
            self.telemetry
                .add(&format!("{}:shard{i}", names::SHARD_OCCUPANCY), *groups);
        }
        let core = Arc::new(Core {
            start,
            shard_of,
            slots,
            shard_txs,
            wheels: (0..shards)
                .map(|_| Mutex::new(TimerWheel::new(TimeMs(0))))
                .collect(),
            depths: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            parked: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            external: OnceLock::new(),
            telemetry: self.telemetry,
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        let mut threads = Vec::with_capacity(shards);
        for (i, rx) in shard_rxs.into_iter().enumerate() {
            let worker_core = Arc::clone(&core);
            match std::thread::Builder::new()
                .name(format!("b2b-shard-{i}"))
                .spawn(move || run_shard(i, rx, worker_core))
            {
                Ok(t) => threads.push(t),
                Err(e) => {
                    // Unwind the partial pool: stop and join the workers
                    // already running, then surface the OS error instead
                    // of panicking the process.
                    for tx in &core.shard_txs[..threads.len()] {
                        let _ = tx.send(ShardEvent::Stop);
                    }
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok((ShardedNet { core, threads }, started))
    }
}

/// A running sharded multi-group network.
///
/// Dropping the net stops the worker pool.
///
/// # Example
///
/// ```
/// use b2b_crypto::PartyId;
/// use b2b_net::{GroupId, NetNode, NodeCtx, ShardedNet};
/// use std::time::Duration;
///
/// struct Counter { id: PartyId, seen: u32 }
/// impl NetNode for Counter {
///     fn id(&self) -> PartyId { self.id.clone() }
///     fn on_message(&mut self, _f: &PartyId, _p: &[u8], _c: &mut NodeCtx) { self.seen += 1; }
/// }
///
/// let net = ShardedNet::builder()
///     .add_group(GroupId(0), vec![
///         Counter { id: PartyId::new("a"), seen: 0 },
///         Counter { id: PartyId::new("b"), seen: 0 },
///     ])
///     .add_group(GroupId(1), vec![
///         Counter { id: PartyId::new("a"), seen: 0 },
///         Counter { id: PartyId::new("b"), seen: 0 },
///     ])
///     .spawn()
///     .expect("spawn worker pool");
/// net.handle(GroupId(1), &PartyId::new("a")).invoke(|_n, ctx| {
///     ctx.send(PartyId::new("b"), vec![1]);
/// });
/// let b = net.handle(GroupId(1), &PartyId::new("b"));
/// assert!(b.wait_until(Duration::from_secs(2), |n| n.seen == 1));
/// // Group 0's "b" saw nothing: groups are isolated.
/// assert_eq!(net.handle(GroupId(0), &PartyId::new("b")).read(|n| n.seen), 0);
/// ```
pub struct ShardedNet<N: NetNode> {
    core: Arc<Core<N>>,
    threads: Vec<JoinHandle<()>>,
}

impl<N: NetNode> ShardedNet<N> {
    /// Starts configuring a sharded net. Defaults: one shard per
    /// available CPU, [`DEFAULT_SHARD_INBOX_CAPACITY`], no telemetry
    /// sink.
    pub fn builder() -> ShardedNetBuilder<N> {
        ShardedNetBuilder {
            groups: Vec::new(),
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            inbox_capacity: DEFAULT_SHARD_INBOX_CAPACITY,
            telemetry: Telemetry::default(),
        }
    }

    /// Returns the handle for `party` in `gid`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is unknown.
    pub fn handle(&self, gid: GroupId, party: &PartyId) -> GroupHandle<N> {
        let slot = self
            .core
            .slots
            .get(&(gid, party.clone()))
            .unwrap_or_else(|| panic!("unknown node {party} in {gid}"));
        GroupHandle {
            slot: Arc::clone(slot),
            core: Arc::clone(&self.core),
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.threads.len()
    }

    /// Runs `on_start` for every listed slot (registration order) —
    /// the second half of [`ShardedNetBuilder::spawn_without_start`].
    pub(crate) fn start_all(&self, started: &[(GroupId, PartyId)]) {
        for (gid, party) in started {
            self.handle(*gid, party).invoke(|n, ctx| n.on_start(ctx));
        }
    }

    /// Installs the transport that carries frames for parties without a
    /// local slot. First call wins; must happen before any engine runs
    /// (pair with [`ShardedNetBuilder::spawn_without_start`]).
    pub(crate) fn set_external_route(&self, route: Arc<dyn ExternalRoute>) {
        let _ = self.core.external.set(route);
    }

    /// An inbound sink delivering externally received frames to `to`'s
    /// slots on this net (every slot of one endpoint belongs to the same
    /// party). The transport calls it with the raw group id from the
    /// frame header and the sender learned from the connection's hello.
    pub(crate) fn injector(&self, to: PartyId) -> ExternalInjector {
        let core = Arc::clone(&self.core);
        Arc::new(move |gid_raw, from, frame| core.try_inject(gid_raw, from, to.clone(), frame))
    }

    /// Crashes `party` in `gid`: inbound frames are dropped, armed
    /// timers never fire, and the engine's `on_crash` runs (mirroring
    /// the simulator's crash semantics).
    pub fn crash(&self, gid: GroupId, party: &PartyId) {
        let slot = self.handle(gid, party).slot;
        let mut inner = slot.inner.lock();
        if !inner.crashed {
            inner.crashed = true;
            inner.epoch += 1;
            inner.node.on_crash();
            slot.notify(&inner);
        }
    }

    /// Recovers a crashed `party` in `gid`, running the engine's
    /// `on_recover` and applying its effects.
    pub fn recover(&self, gid: GroupId, party: &PartyId) {
        let slot = self.handle(gid, party).slot;
        let wake = {
            let mut ctx = NodeCtx::with_group(self.core.now(), gid.0);
            let mut inner = slot.inner.lock();
            if !inner.crashed {
                return;
            }
            inner.crashed = false;
            inner.node.on_recover(&mut ctx);
            let wake = self.core.flush(&slot, &mut inner, &mut ctx);
            slot.notify(&inner);
            wake
        };
        if wake {
            self.core.wake(slot.shard);
        }
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        NetStats {
            sent: self.core.sent.load(Ordering::Relaxed),
            delivered: self.core.delivered.load(Ordering::Relaxed),
            dropped: self.core.dropped.load(Ordering::Relaxed),
            ..NetStats::default()
        }
    }

    /// Stops the worker pool and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for tx in &self.core.shard_txs {
            let _ = tx.send(ShardEvent::Stop);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<N: NetNode> Drop for ShardedNet<N> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PingPong {
        id: PartyId,
        peer: PartyId,
        pings_received: u32,
        pongs_received: u32,
        timer_fires: u32,
        crashes: u32,
        recoveries: u32,
    }

    impl PingPong {
        fn new(id: &str, peer: &str) -> PingPong {
            PingPong {
                id: PartyId::new(id),
                peer: PartyId::new(peer),
                pings_received: 0,
                pongs_received: 0,
                timer_fires: 0,
                crashes: 0,
                recoveries: 0,
            }
        }
    }

    impl NetNode for PingPong {
        fn id(&self) -> PartyId {
            self.id.clone()
        }
        fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
            match payload {
                b"ping" => {
                    self.pings_received += 1;
                    ctx.send(from.clone(), b"pong".to_vec());
                }
                b"pong" => self.pongs_received += 1,
                _ => {}
            }
        }
        fn on_timer(&mut self, _timer: u64, _ctx: &mut NodeCtx) {
            self.timer_fires += 1;
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_recover(&mut self, _ctx: &mut NodeCtx) {
            self.recoveries += 1;
        }
    }

    fn pair() -> Vec<PingPong> {
        vec![PingPong::new("a", "b"), PingPong::new("b", "a")]
    }

    #[test]
    fn groups_are_isolated_on_a_small_pool() {
        let net = ShardedNet::builder()
            .shards(2)
            .add_group(GroupId(0), pair())
            .add_group(GroupId(1), pair())
            .add_group(GroupId(2), pair())
            .spawn()
            .expect("spawn worker pool");
        for g in 0..3 {
            let a = net.handle(GroupId(g), &PartyId::new("a"));
            let peer = a.read(|n| n.peer.clone());
            a.invoke(|_n, ctx| ctx.send(peer, b"ping".to_vec()));
        }
        for g in 0..3 {
            let a = net.handle(GroupId(g), &PartyId::new("a"));
            assert!(
                a.wait_until(Duration::from_secs(5), |n| n.pongs_received == 1),
                "group {g} pong"
            );
            let b = net.handle(GroupId(g), &PartyId::new("b"));
            assert_eq!(
                b.read(|n| n.pings_received),
                1,
                "group {g} exactly one ping"
            );
        }
        assert_eq!(net.shard_count(), 2);
        net.shutdown();
    }

    #[test]
    fn timers_fire_from_the_shard_wheel() {
        let net = ShardedNet::builder()
            .shards(1)
            .add_group(GroupId(7), pair())
            .spawn()
            .expect("spawn worker pool");
        let a = net.handle(GroupId(7), &PartyId::new("a"));
        a.invoke(|_n, ctx| {
            ctx.set_timer(1, TimeMs(10));
            ctx.set_timer(2, TimeMs(40));
        });
        assert!(a.wait_until(Duration::from_secs(5), |n| n.timer_fires == 2));
        net.shutdown();
    }

    #[test]
    fn crash_drops_frames_and_timers_until_recovery() {
        let net = ShardedNet::builder()
            .shards(1)
            .add_group(GroupId(0), pair())
            .spawn()
            .expect("spawn worker pool");
        let gid = GroupId(0);
        let a_id = PartyId::new("a");
        let b_id = PartyId::new("b");
        let b = net.handle(gid, &b_id);
        // Arm a timer on b, then crash it: the timer must never fire.
        b.invoke(|_n, ctx| ctx.set_timer(9, TimeMs(10)));
        net.crash(gid, &b_id);
        assert_eq!(b.read(|n| n.crashes), 1);
        let a = net.handle(gid, &a_id);
        a.invoke(|_n, ctx| ctx.send(PartyId::new("b"), b"ping".to_vec()));
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(b.read(|n| (n.pings_received, n.timer_fires)), (0, 0));
        net.recover(gid, &b_id);
        assert_eq!(b.read(|n| n.recoveries), 1);
        // Delivery works again after recovery.
        a.invoke(|_n, ctx| ctx.send(PartyId::new("b"), b"ping".to_vec()));
        assert!(b.wait_until(Duration::from_secs(5), |n| n.pings_received == 1));
        assert!(
            !b.read(|n| n.timer_fires > 0),
            "crashed incarnation's timer stayed dead"
        );
        net.shutdown();
    }

    #[test]
    fn crash_with_parked_timers_cancels_near_and_overflow_entries() {
        let net = ShardedNet::builder()
            .shards(1)
            .add_group(GroupId(0), pair())
            .spawn()
            .expect("spawn worker pool");
        let gid = GroupId(0);
        let b_id = PartyId::new("b");
        let b = net.handle(gid, &b_id);
        // Park one timer inside the wheel horizon and one beyond it (the
        // overflow list), then crash with both still armed: they belong
        // to the dead incarnation and must be discarded lazily — on the
        // wheel pass for the near entry, and on the overflow re-hash
        // after the cursor wraps for the far one.
        b.invoke(|_n, ctx| {
            ctx.set_timer(1, TimeMs(50));
            ctx.set_timer(2, TimeMs(1_500));
        });
        net.crash(gid, &b_id);
        net.recover(gid, &b_id);
        // A timer armed by the recovered incarnation fires normally.
        b.invoke(|_n, ctx| ctx.set_timer(3, TimeMs(40)));
        assert!(b.wait_until(Duration::from_secs(5), |n| n.timer_fires == 1));
        // Outlive both stale deadlines (and the wheel wrap that re-hashes
        // the overflow entry): neither may fire.
        std::thread::sleep(Duration::from_millis(1_800));
        assert_eq!(
            b.read(|n| n.timer_fires),
            1,
            "a crashed incarnation's parked timers (near and overflow) must stay dead"
        );
        net.shutdown();
    }

    #[test]
    fn wheel_orders_near_far_and_overflow_deadlines() {
        let mut wheel = TimerWheel::new(TimeMs(0));
        let entry = |ms: u64, id: u64| TimerEntry {
            deadline: TimeMs(ms),
            gid: GroupId(0),
            party: PartyId::new("p"),
            timer_id: id,
            epoch: 0,
        };
        wheel.insert(entry(3, 1)); // same tick as now
        wheel.insert(entry(500, 2)); // mid-wheel
        wheel.insert(entry(5_000, 3)); // beyond the 1.024 s horizon
        assert_eq!(
            wheel
                .advance(TimeMs(4))
                .iter()
                .map(|e| e.timer_id)
                .collect::<Vec<_>>(),
            [1]
        );
        assert!(wheel.advance(TimeMs(400)).is_empty());
        assert_eq!(
            wheel
                .advance(TimeMs(600))
                .iter()
                .map(|e| e.timer_id)
                .collect::<Vec<_>>(),
            [2]
        );
        assert!(wheel.advance(TimeMs(4_900)).is_empty());
        assert_eq!(
            wheel
                .advance(TimeMs(5_003))
                .iter()
                .map(|e| e.timer_id)
                .collect::<Vec<_>>(),
            [3]
        );
        assert!(wheel.is_empty());
    }

    /// A deadline later inside the very tick it was armed in fires as
    /// soon as that deadline passes, not a wheel revolution (1.024 s)
    /// later.
    #[test]
    fn wheel_fires_a_deadline_later_in_the_current_tick() {
        for k in [0u64, 7, 255, 256, 1_000] {
            let base = k * WHEEL_TICK_MS;
            let mut wheel = TimerWheel::new(TimeMs(base + 1));
            wheel.insert(TimerEntry {
                deadline: TimeMs(base + 3),
                gid: GroupId(0),
                party: PartyId::new("p"),
                timer_id: 9,
                epoch: 0,
            });
            assert!(wheel.advance(TimeMs(base + 1)).is_empty());
            let fired = wheel.advance(TimeMs(base + 4));
            assert_eq!(fired.len(), 1, "k={k}: fired within the next tick");
            assert_eq!(fired[0].timer_id, 9);
            assert!(wheel.is_empty());
        }
    }

    struct Recorder {
        id: PartyId,
        received: Vec<u8>,
    }

    impl NetNode for Recorder {
        fn id(&self) -> PartyId {
            self.id.clone()
        }
        fn on_message(&mut self, _from: &PartyId, payload: &[u8], _ctx: &mut NodeCtx) {
            self.received.push(payload[0]);
        }
    }

    #[test]
    fn backpressure_preserves_per_link_fifo() {
        // An inbox far smaller than the burst: the sender's outbox must
        // park head-of-line and drain in order — the coordination
        // protocols rely on per-link FIFO (the reliable layer dedups but
        // does not reorder), so a full inbox may delay frames, never
        // overtake or shed them.
        let net = ShardedNet::builder()
            .shards(1)
            .inbox_capacity(2)
            .add_group(
                GroupId(0),
                vec![
                    Recorder {
                        id: PartyId::new("a"),
                        received: Vec::new(),
                    },
                    Recorder {
                        id: PartyId::new("b"),
                        received: Vec::new(),
                    },
                ],
            )
            .spawn()
            .expect("spawn worker pool");
        let a = net.handle(GroupId(0), &PartyId::new("a"));
        a.invoke(|_n, ctx| {
            for i in 0..200u8 {
                ctx.send(PartyId::new("b"), vec![i]);
            }
        });
        let b = net.handle(GroupId(0), &PartyId::new("b"));
        assert!(b.wait_until(Duration::from_secs(10), |n| n.received.len() == 200));
        assert!(
            b.read(|n| n.received.iter().enumerate().all(|(i, &v)| v == i as u8)),
            "frames were reordered under backpressure"
        );
        assert_eq!(
            net.stats().dropped,
            0,
            "frames were shed under backpressure"
        );
        net.shutdown();
    }

    #[test]
    fn thousand_groups_on_a_small_pool_all_roundtrip() {
        let mut builder = ShardedNet::builder().shards(4);
        for g in 0..1000 {
            builder = builder.add_group(GroupId(g), pair());
        }
        let net = builder.spawn().expect("spawn worker pool");
        for g in 0..1000 {
            net.handle(GroupId(g), &PartyId::new("a"))
                .invoke(|_n, ctx| ctx.send(PartyId::new("b"), b"ping".to_vec()));
        }
        for g in 0..1000 {
            let a = net.handle(GroupId(g), &PartyId::new("a"));
            assert!(
                a.wait_until(Duration::from_secs(10), |n| n.pongs_received == 1),
                "group {g} roundtrip"
            );
        }
        let stats = net.stats();
        assert!(stats.delivered >= 2000);
        net.shutdown();
    }
}
