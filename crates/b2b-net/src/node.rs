//! The event-driven node interface that protocol engines implement.
//!
//! Engines are deterministic state machines: every effect (send a message,
//! arm a timer) is expressed through the [`NodeCtx`] handed to each event
//! callback. The same engine then runs unmodified under the deterministic
//! simulator ([`crate::sim::SimNet`]) and the real-clock sharded runtime
//! ([`crate::shard::ShardedNet`], [`crate::shard_tcp::ShardedTcpNet`]).

use b2b_crypto::{PartyId, TimeMs};
use std::sync::Arc;

/// A wire payload: reference-counted immutable bytes.
///
/// Multicast fan-out and retransmission both re-send the same bytes, so the
/// transports share one allocation instead of cloning `Vec<u8>`s; `Vec<u8>`
/// converts into a `Payload` wherever one is expected.
pub type Payload = Arc<[u8]>;

/// A network-attached protocol participant.
///
/// Implementations must be deterministic functions of (current state,
/// event): all randomness comes from seeded generators held in the node
/// state, and all time comes from [`NodeCtx::now`].
pub trait NetNode: Send + 'static {
    /// This node's identity on the network.
    fn id(&self) -> PartyId;

    /// Called once when the network starts (or the node is added).
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        let _ = ctx;
    }

    /// Called for every payload delivered to this node.
    fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx);

    /// Called when a timer armed via [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) {
        let _ = (timer, ctx);
    }

    /// Called when the node crashes: volatile state is about to be lost.
    ///
    /// Implementations simulating crash-recovery should discard any state
    /// not held in persistent storage.
    fn on_crash(&mut self) {}

    /// Called when a crashed node recovers and rejoins the network.
    fn on_recover(&mut self, ctx: &mut NodeCtx) {
        let _ = ctx;
    }
}

/// The effect context handed to every [`NetNode`] callback.
///
/// Records sends and timer requests; the driving network applies them after
/// the callback returns.
///
/// # Example
///
/// ```
/// use b2b_crypto::{PartyId, TimeMs};
/// use b2b_net::NodeCtx;
///
/// let mut ctx = NodeCtx::new(TimeMs(100));
/// ctx.send(PartyId::new("peer"), b"hello".to_vec());
/// ctx.set_timer(1, TimeMs(50));
/// assert_eq!(ctx.now(), TimeMs(100));
/// assert_eq!(ctx.take_outgoing().len(), 1);
/// assert_eq!(ctx.take_timers(), vec![(1, TimeMs(50))]);
/// ```
#[derive(Debug)]
pub struct NodeCtx {
    now: TimeMs,
    /// The group the node's frames are addressed in; 0 outside a
    /// multi-group runtime.
    group: u64,
    /// Whether the driver delivers another frame to this node right after
    /// this callback.
    frame_follows: bool,
    outgoing: Vec<(PartyId, Payload)>,
    timers: Vec<(u64, TimeMs)>,
}

impl NodeCtx {
    /// Creates a context at the given time.
    pub fn new(now: TimeMs) -> NodeCtx {
        NodeCtx::with_group(now, 0)
    }

    /// Creates a context at the given time for a node of `group`: the
    /// reliable layer writes the group into every frame header, where a
    /// transport carrying many groups over one connection reads it.
    pub fn with_group(now: TimeMs, group: u64) -> NodeCtx {
        NodeCtx {
            now,
            group,
            frame_follows: false,
            outgoing: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The current (virtual or real) time.
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// The group this node's frames are addressed in.
    pub fn group(&self) -> u64 {
        self.group
    }

    /// Whether the driver delivers another frame to this node right after
    /// this callback — the next event in its queue at the same instant, or
    /// in its inbox, is one. Work that can wait for that frame's handler
    /// (an ack a reply may yet carry) waits.
    pub fn frame_follows(&self) -> bool {
        self.frame_follows
    }

    /// Marks that another frame for this node follows this callback
    /// (driver use).
    pub(crate) fn set_frame_follows(&mut self, follows: bool) {
        self.frame_follows = follows;
    }

    /// Queues `payload` for delivery to `to`.
    ///
    /// Accepts anything convertible into a [`Payload`]; pass a `Payload`
    /// clone to fan the same allocation out to several peers.
    pub fn send(&mut self, to: PartyId, payload: impl Into<Payload>) {
        self.outgoing.push((to, payload.into()));
    }

    /// Arms timer `id` to fire `after` from now.
    ///
    /// Timer ids are chosen by the engine; an id may be re-armed, in which
    /// case both firings are delivered (engines treat stale firings as
    /// no-ops).
    pub fn set_timer(&mut self, id: u64, after: TimeMs) {
        self.timers.push((id, after));
    }

    /// Drains the queued sends (driver use).
    pub fn take_outgoing(&mut self) -> Vec<(PartyId, Payload)> {
        std::mem::take(&mut self.outgoing)
    }

    /// Drains the queued timer requests (driver use).
    pub fn take_timers(&mut self) -> Vec<(u64, TimeMs)> {
        std::mem::take(&mut self.timers)
    }

    /// Returns `true` if no effects are queued.
    pub fn is_quiet(&self) -> bool {
        self.outgoing.is_empty() && self.timers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_records_and_drains_effects() {
        let mut ctx = NodeCtx::new(TimeMs(5));
        assert!(ctx.is_quiet());
        ctx.send(PartyId::new("a"), vec![1]);
        ctx.send(PartyId::new("b"), vec![2]);
        ctx.set_timer(9, TimeMs(10));
        assert!(!ctx.is_quiet());
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, PartyId::new("a"));
        assert_eq!(ctx.take_timers(), vec![(9, TimeMs(10))]);
        assert!(ctx.is_quiet());
    }
}
