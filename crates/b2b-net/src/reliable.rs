//! Reliable delivery: masking lossy links to present *eventual, once-only*
//! message delivery.
//!
//! Paper §4.2: "It is assumed that the communications infrastructure
//! provides eventual, once-only message delivery. If the underlying
//! communications system does not support these semantics then the
//! coordination middleware masks this and presents the assumed semantics.
//! There is no requirement for the communications system to order
//! messages."
//!
//! [`ReliableMux`] is that masking layer: per-peer sequence numbers,
//! cumulative acks, timer-driven retransmission and duplicate suppression.
//! It deliberately does **not** order messages — the coordination
//! protocols above tolerate reordering, exactly as the paper states.
//!
//! Nothing in §4.2 asks for an ack per frame, and in §4.3 every message
//! but the last already answers the one before it. So acks ride on data:
//! every data frame carries a cumulative ack for its peer, and an ack goes
//! out in a frame of its own only when a handler ends with no data frame
//! having left for that peer and no further frame queued for this node
//! ([`ReliableMux::flush_acks`]). Each peer with frames outstanding has one
//! retransmit timer, armed for the earliest frame deadline; every frame
//! keeps its own attempt count and back-off.

use crate::compact::Compact;
use crate::node::{NodeCtx, Payload};
use b2b_crypto::{PartyId, TimeMs};
use b2b_telemetry::{ctx::WIRE_LEN, names, Telemetry, TraceContext};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Timer ids at or above this value belong to the reliable layer; protocol
/// engines must allocate their own timer ids strictly below it.
pub const RELIABLE_TIMER_BASE: u64 = 1 << 62;

/// The frame layout's version, in the high nibble of a frame's first byte.
/// The previous layout — a group envelope, then `kind (0 | 1) | epoch | seq
/// | trace` — starts with the group id's top byte (or, unwrapped, the
/// kind), whose high nibble is 0 for every group id below 2⁶⁰: it is
/// refused as malformed, never misread.
const FRAME_VERSION: u8 = 0x20;
const VERSION_MASK: u8 = 0xF0;
/// Kind flags, in the low nibble of the first byte: a frame carries data,
/// an ack, or both.
const FLAG_DATA: u8 = 0x01;
const FLAG_ACK: u8 = 0x02;

/// `tag (1) | group (8, BE)`: present in every frame.
const PREFIX_LEN: usize = 9;
/// `epoch (8) | seq (8) | trace context (17)`: present with [`FLAG_DATA`].
const DATA_HEADER_LEN: usize = 16 + WIRE_LEN;
/// `ack epoch (8) | low (8) | count (1)`, then `count` sparse seqs of 8
/// bytes: present with [`FLAG_ACK`].
const ACK_FIXED_LEN: usize = 17;

/// How many delivered seqs above the cumulative low watermark one ack
/// reports; any further ones are reported by a later ack, once the
/// watermark has moved.
const MAX_SPARSE_ACKS: usize = 8;

/// What [`ReliableMux::on_message`] concluded about an incoming frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inbound<'a> {
    /// A payload delivered for the first time, with the causal trace
    /// context the sender stamped on it: hand it to the protocol. The body
    /// is read in place, from the frame as it arrived.
    Deliver(&'a [u8], TraceContext),
    /// A duplicate of an already-delivered payload: suppressed.
    Duplicate,
    /// A frame carrying only an ack for our outstanding sends: bookkeeping
    /// only.
    Ack,
    /// A frame that failed to parse (corrupt, foreign or old-layout
    /// traffic).
    Malformed,
}

/// A cumulative ack: every seq of `epoch` below `low` has been delivered,
/// and so have the first `count` entries of `above`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ack {
    epoch: u64,
    low: u64,
    count: u8,
    above: [u64; MAX_SPARSE_ACKS],
}

impl Ack {
    fn sparse(&self) -> &[u64] {
        &self.above[..self.count as usize]
    }

    fn covers(&self, seq: u64) -> bool {
        seq < self.low || self.sparse().contains(&seq)
    }

    fn wire_len(&self) -> usize {
        ACK_FIXED_LEN + 8 * self.count as usize
    }
}

/// One parsed frame, borrowing its body from the received bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame<'a> {
    group: u64,
    /// `(epoch, seq, trace)` of a data frame.
    data: Option<(u64, u64, TraceContext)>,
    ack: Option<Ack>,
    body: &'a [u8],
}

/// An unacknowledged outbound frame plus its retransmission history.
#[derive(Debug)]
struct OutFrame {
    seq: u64,
    /// The exact frame on the wire; retransmits clone the reference count,
    /// not the bytes.
    frame: Payload,
    /// How many times this frame has been retransmitted; drives the
    /// exponential backoff of the next retransmission delay.
    attempts: u32,
    /// When the next retransmission of this frame is due.
    due: TimeMs,
}

#[derive(Debug)]
struct PeerState {
    id: PartyId,
    next_send_seq: u64,
    /// Unacknowledged outbound frames, in ascending seq order.
    outstanding: Vec<OutFrame>,
    /// Deadlines of this peer's retransmit timers still pending. The
    /// runtime cannot cancel a timer, so an acked frame leaves its timer
    /// armed; a frame due no earlier than a pending timer arms none.
    armed: Vec<TimeMs>,
    /// The latest retransmit deadline any frame to this peer was given,
    /// acked or not: the timer runs until it, as a timer per frame did.
    horizon: TimeMs,
    /// Inbound data frames already delivered upward.
    delivered: Delivered,
    /// Sender epoch of the last data frame received from this peer: the
    /// window every ack to the peer reports.
    ack_epoch: Option<u64>,
    /// A data frame arrived since the last ack left for this peer.
    ack_owed: bool,
}

impl PeerState {
    fn new(id: PartyId) -> PeerState {
        PeerState {
            id,
            next_send_seq: 0,
            outstanding: Vec::new(),
            armed: Vec::new(),
            horizon: TimeMs::ZERO,
            delivered: Delivered::default(),
            ack_epoch: None,
            ack_owed: false,
        }
    }

    /// The cumulative ack this peer is owed, if it ever sent us data; the
    /// debt is paid by whatever frame carries it.
    fn take_ack(&mut self) -> Option<Ack> {
        self.ack_owed = false;
        let epoch = self.ack_epoch?;
        Some(self.delivered.ack(epoch))
    }

    fn apply_ack(&mut self, ack: &Ack) {
        self.outstanding.retain(|out| !ack.covers(out.seq));
    }
}

/// Which `(epoch, seq)` data frames of one peer have been delivered. The
/// epoch distinguishes the peer's pre-crash sends from its post-recovery
/// sends, which restart sequence numbering.
///
/// A sender numbers its frames 0, 1, 2, … per epoch, so what has been
/// delivered is a contiguous prefix plus — while frames are in flight out
/// of order — a few numbers beyond it. Keeping the prefix as one
/// watermark bounds this by the reordering in flight, not by the frames
/// ever received, and is exactly what a cumulative ack reports.
#[derive(Debug, Default)]
struct Delivered {
    /// One window per sender epoch seen (one per incarnation of the peer).
    epochs: Vec<(u64, SeqWindow)>,
}

#[derive(Debug, Default)]
struct SeqWindow {
    /// Every sequence number below this has been delivered.
    low: u64,
    /// Delivered sequence numbers at or above `low` (never `low` itself).
    above: BTreeSet<u64>,
}

impl Delivered {
    /// Records `(epoch, seq)`; `false` if it had been recorded before.
    fn insert(&mut self, epoch: u64, seq: u64) -> bool {
        let window = match self.epochs.iter().position(|(e, _)| *e == epoch) {
            Some(i) => &mut self.epochs[i].1,
            None => {
                // One window per incarnation of the peer, held for the
                // mux's life: sized to the windows it holds.
                self.epochs.push_small((epoch, SeqWindow::default()));
                &mut self.epochs.last_mut().expect("just pushed").1
            }
        };
        if seq < window.low {
            return false;
        }
        if seq > window.low {
            return window.above.insert(seq);
        }
        window.low += 1;
        while window.above.remove(&window.low) {
            window.low += 1;
        }
        true
    }

    /// The cumulative ack for `epoch`: its watermark and the first
    /// [`MAX_SPARSE_ACKS`] seqs delivered above it.
    fn ack(&self, epoch: u64) -> Ack {
        let mut ack = Ack {
            epoch,
            low: 0,
            count: 0,
            above: [0; MAX_SPARSE_ACKS],
        };
        if let Some((_, window)) = self.epochs.iter().find(|(e, _)| *e == epoch) {
            ack.low = window.low;
            for (slot, seq) in ack.above.iter_mut().zip(&window.above) {
                *slot = *seq;
                ack.count += 1;
            }
        }
        ack
    }
}

/// Reliable, once-only (but unordered) delivery over unreliable links, for
/// one node talking to many peers.
///
/// # Integration contract
///
/// * Send with [`ReliableMux::send`] instead of [`NodeCtx::send`].
/// * Feed every raw payload to [`ReliableMux::on_message`] and act only on
///   [`Inbound::Deliver`].
/// * Call [`ReliableMux::flush_acks`] at the end of every
///   [`crate::NetNode::on_message`]: acks no data frame carried leave then,
///   unless the driver delivers another frame to this node next.
/// * Forward timer ids `>= RELIABLE_TIMER_BASE` to
///   [`ReliableMux::on_timer`].
///
/// # Example
///
/// ```
/// use b2b_crypto::{PartyId, TimeMs};
/// use b2b_net::{NodeCtx, ReliableMux};
/// use b2b_net::reliable::Inbound;
///
/// let mut alice = ReliableMux::new(TimeMs(100), 1);
/// let mut bob = ReliableMux::new(TimeMs(100), 2);
/// let (a, b) = (PartyId::new("alice"), PartyId::new("bob"));
///
/// // Alice sends; the frame is what actually crosses the wire.
/// let mut ctx = NodeCtx::new(TimeMs(0));
/// alice.send(b.clone(), b"hi".to_vec(), &mut ctx);
/// let (_to, frame) = ctx.take_outgoing().pop().unwrap();
///
/// // Bob receives the frame once: delivered. Twice: suppressed.
/// use b2b_telemetry::TraceContext;
/// let mut bob_ctx = NodeCtx::new(TimeMs(1));
/// assert_eq!(
///     bob.on_message(&a, &frame, &mut bob_ctx),
///     Inbound::Deliver(&b"hi"[..], TraceContext::NONE)
/// );
/// assert_eq!(bob.on_message(&a, &frame, &mut bob_ctx), Inbound::Duplicate);
///
/// // Bob had nothing to send back, so his ack leaves on its own when his
/// // handler ends.
/// bob.flush_acks(&mut bob_ctx);
/// let (_to, ack) = bob_ctx.take_outgoing().pop().unwrap();
/// assert_eq!(alice.on_message(&b, &ack, &mut ctx), Inbound::Ack);
/// assert!(alice.all_acked());
/// ```
#[derive(Debug)]
pub struct ReliableMux {
    /// Peers in first-contact order; a peer's index names its retransmit
    /// timer (`RELIABLE_TIMER_BASE + index`). A group has a handful of
    /// peers, so a scan beats hashing their names.
    peers: Vec<PeerState>,
    retransmit_after: TimeMs,
    /// Ceiling of the exponential retransmission backoff: the delay doubles
    /// from `retransmit_after` on every unacknowledged retransmission of a
    /// frame, capped here, so a long partition costs a bounded trickle of
    /// probes instead of an unbounded constant-rate storm.
    retransmit_max: TimeMs,
    /// Identifies this mux incarnation; a node picks a fresh random epoch
    /// after crash-recovery so receivers do not mistake its restarted
    /// sequence numbers for duplicates of pre-crash traffic.
    epoch: u64,
    /// Count of protocol-level payloads sent (excluding retransmits/acks).
    sent_payloads: u64,
    /// Count of retransmitted frames.
    retransmits: u64,
    /// Count of duplicate data frames suppressed before delivery.
    dedup_drops: u64,
    /// Count of acks that left in a frame of their own.
    standalone_acks: u64,
    /// Observability handle; the default handle records counters into a
    /// private registry and traces nothing.
    telemetry: Telemetry,
    /// Party label stamped on trace events (the node owning this mux).
    owner: Option<PartyId>,
}

impl ReliableMux {
    /// Creates a mux with the given base retransmission interval and
    /// incarnation epoch (pick a fresh random epoch after every crash
    /// recovery).
    ///
    /// The first retransmission of a frame fires `retransmit_after` after
    /// the send; each subsequent one doubles the delay up to a cap of
    /// 32 × `retransmit_after`.
    pub fn new(retransmit_after: TimeMs, epoch: u64) -> ReliableMux {
        ReliableMux {
            peers: Vec::new(),
            retransmit_after,
            retransmit_max: TimeMs(retransmit_after.0.saturating_mul(32)),
            epoch,
            sent_payloads: 0,
            retransmits: 0,
            dedup_drops: 0,
            standalone_acks: 0,
            telemetry: Telemetry::default(),
            owner: None,
        }
    }

    /// Sets the backoff ceiling: no retransmission delay ever exceeds
    /// `max` (values below the base interval are clamped up to it, which
    /// degenerates to the old fixed-interval behaviour).
    #[cfg(test)]
    fn with_retransmit_max(mut self, max: TimeMs) -> ReliableMux {
        self.retransmit_max = TimeMs(max.0.max(self.retransmit_after.0));
        self
    }

    /// The delay before retransmission attempt `attempts + 1` of a frame:
    /// `base << attempts`, saturating, capped at the configured maximum.
    fn backoff_delay(&self, attempts: u32) -> TimeMs {
        let shifted = if attempts >= 63 {
            u64::MAX
        } else {
            self.retransmit_after.0.saturating_mul(1u64 << attempts)
        };
        TimeMs(shifted.min(self.retransmit_max.0))
    }

    /// Attaches an observability handle; `owner` labels trace events with
    /// the party this mux belongs to. Retransmissions and duplicate drops
    /// are counted into the handle's registry and, when a sink is attached,
    /// emitted as `net/retransmit` and `net/dedup_drop` trace events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, owner: PartyId) {
        self.telemetry = telemetry;
        self.owner = Some(owner);
    }

    /// This mux incarnation's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn owner_label(&self) -> &str {
        self.owner.as_ref().map(PartyId::as_str).unwrap_or("?")
    }

    fn peer_index(&mut self, id: &PartyId) -> usize {
        match self.peers.iter().position(|p| p.id == *id) {
            Some(i) => i,
            None => {
                self.peers.push_small(PeerState::new(id.clone()));
                self.peers.len() - 1
            }
        }
    }

    /// Sends `payload` to `to` with at-least-once retransmission; the
    /// receiver's mux suppresses duplicates, yielding once-only delivery.
    ///
    /// Accepts any byte source, so a multicast caller can serialize a
    /// message once and pass the same shared buffer for every peer; the
    /// per-peer frame (which carries the peer's sequence number and the
    /// ack owed to it) is built once, straight into the shared allocation
    /// that both the wire and the retransmit buffer hold.
    pub fn send(&mut self, to: PartyId, payload: impl AsRef<[u8]>, ctx: &mut NodeCtx) {
        self.send_traced(to, payload, TraceContext::NONE, ctx);
    }

    /// Like [`ReliableMux::send`], stamping `trace` into the frame header
    /// so the receiver can continue the causal trace. Retransmissions
    /// reuse the original frame, trace bytes included — a retransmitted
    /// frame is the *same* causal step, not a new one.
    pub fn send_traced(
        &mut self,
        to: PartyId,
        payload: impl AsRef<[u8]>,
        trace: TraceContext,
        ctx: &mut NodeCtx,
    ) {
        let idx = self.peer_index(&to);
        let due = ctx.now() + self.backoff_delay(0);
        let peer = &mut self.peers[idx];
        let seq = peer.next_send_seq;
        peer.next_send_seq += 1;
        let ack = peer.take_ack();
        let frame = encode_frame(
            ctx.group(),
            Some((self.epoch, seq, &trace)),
            ack.as_ref(),
            payload.as_ref(),
        );
        peer.outstanding.push(OutFrame {
            seq,
            frame: frame.clone(),
            attempts: 0,
            due,
        });
        peer.horizon = peer.horizon.max(due);
        self.sent_payloads += 1;
        ctx.send(to, frame);
        self.arm(idx, ctx);
    }

    /// Processes a raw inbound payload: applies the ack it carries and
    /// classifies its data for the caller. A data frame — a duplicate
    /// too, since the previous ack may have been lost — leaves an ack
    /// owed to its sender, paid by the next data frame to that peer or by
    /// [`ReliableMux::flush_acks`].
    pub fn on_message<'a>(
        &mut self,
        from: &PartyId,
        raw: &'a [u8],
        ctx: &mut NodeCtx,
    ) -> Inbound<'a> {
        let Some(frame) = decode_frame(raw) else {
            return Inbound::Malformed;
        };
        let Some((epoch, seq, trace)) = frame.data else {
            // Ack only: bookkeeping for a peer we have sent to, if any.
            if let (Some(ack), Some(peer)) = (
                frame.ack.filter(|a| a.epoch == self.epoch),
                self.peers.iter_mut().find(|p| p.id == *from),
            ) {
                peer.apply_ack(&ack);
            }
            return Inbound::Ack;
        };
        let idx = self.peer_index(from);
        let peer = &mut self.peers[idx];
        if let Some(ack) = frame.ack.filter(|a| a.epoch == self.epoch) {
            peer.apply_ack(&ack);
        }
        peer.ack_owed = true;
        peer.ack_epoch = Some(epoch);
        if peer.delivered.insert(epoch, seq) {
            Inbound::Deliver(frame.body, trace)
        } else {
            self.dedup_drops += 1;
            self.telemetry.inc(names::DEDUP_DROPS);
            self.telemetry.trace(
                ctx.now().as_millis(),
                self.owner_label(),
                "net",
                "dedup_drop",
                || format!("from={from} epoch={epoch} seq={seq}"),
            );
            Inbound::Duplicate
        }
    }

    /// Sends every ack still owed in a frame of its own: call it at the end
    /// of a message handler, after the protocol has had its chance to send
    /// data that carries them. When the driver delivers another frame to
    /// this node next ([`NodeCtx::frame_follows`]) the acks wait for that
    /// handler: the m2s of a group arriving together are all acked by the
    /// one m3 they produce.
    pub fn flush_acks(&mut self, ctx: &mut NodeCtx) {
        if ctx.frame_follows() {
            return;
        }
        for peer in self.peers.iter_mut().filter(|p| p.ack_owed) {
            if let Some(ack) = peer.take_ack() {
                let frame = encode_frame(ctx.group(), None, Some(&ack), &[]);
                self.standalone_acks += 1;
                ctx.send(peer.id.clone(), frame);
            }
        }
    }

    /// Handles a reliable-layer timer; returns `true` if the id belonged to
    /// this mux (otherwise the caller should treat it as a protocol timer).
    ///
    /// A peer's timer resends each of its frames whose own deadline has
    /// passed, backs each off by its own attempt count, and re-arms for the
    /// earliest deadline left — so a frame's retransmit schedule is the
    /// same however many other frames share the timer.
    pub fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) -> bool {
        if timer < RELIABLE_TIMER_BASE {
            return false;
        }
        let idx = (timer - RELIABLE_TIMER_BASE) as usize;
        let Some(peer) = self.peers.get_mut(idx) else {
            return true;
        };
        let now = ctx.now();
        peer.armed.retain(|at| *at > now);
        for i in 0..self.peers[idx].outstanding.len() {
            let out = &self.peers[idx].outstanding[i];
            if out.due > now {
                continue;
            }
            let attempts = out.attempts + 1;
            let next_due = now + self.backoff_delay(attempts);
            self.peers[idx].horizon = self.peers[idx].horizon.max(next_due);
            let out = &mut self.peers[idx].outstanding[i];
            out.attempts = attempts;
            out.due = next_due;
            let (seq, frame) = (out.seq, out.frame.clone());
            self.retransmits += 1;
            self.telemetry.inc(names::RETRANSMITS);
            let peer_id = &self.peers[idx].id;
            self.telemetry.trace(
                now.as_millis(),
                self.owner.as_ref().map(PartyId::as_str).unwrap_or("?"),
                "net",
                "retransmit",
                || {
                    format!(
                        "to={peer_id} seq={seq} epoch={} attempt={attempts}",
                        self.epoch
                    )
                },
            );
            ctx.send(peer_id.clone(), frame);
        }
        self.arm(idx, ctx);
        true
    }

    /// Arms peer `idx`'s timer for its earliest frame deadline — or, with
    /// every frame acked, for its horizon — unless a timer already pending
    /// fires at or before it. A peer past its horizon with every frame
    /// acked and no timer pending is quiet: its frame and timer lists give
    /// their capacity back until it is sent to again.
    fn arm(&mut self, idx: usize, ctx: &mut NodeCtx) {
        let peer = &mut self.peers[idx];
        let next = match peer.outstanding.iter().map(|out| out.due).min() {
            Some(due) => due,
            None if peer.horizon > ctx.now() => peer.horizon,
            None => {
                if peer.armed.is_empty() {
                    peer.outstanding.release_if_empty();
                    peer.armed.release_if_empty();
                }
                return;
            }
        };
        if peer.armed.iter().any(|at| *at <= next) {
            return;
        }
        peer.armed.push(next);
        ctx.set_timer(
            RELIABLE_TIMER_BASE + idx as u64,
            next.saturating_sub(ctx.now()),
        );
    }

    /// Number of distinct payloads submitted for sending.
    pub fn sent_payloads(&self) -> u64 {
        self.sent_payloads
    }

    /// Number of retransmitted frames so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Number of duplicate data frames suppressed so far.
    pub fn dedup_drops(&self) -> u64 {
        self.dedup_drops
    }

    /// Number of acks that left in a frame of their own, because no data
    /// frame to their peer carried them.
    pub fn standalone_acks(&self) -> u64 {
        self.standalone_acks
    }

    /// The most retransmit timers pending for any one peer.
    pub fn max_timers_per_peer(&self) -> usize {
        self.peers.iter().map(|p| p.armed.len()).max().unwrap_or(0)
    }

    /// Returns `true` if every sent payload has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.peers.iter().all(|p| p.outstanding.is_empty())
    }
}

/// Returns `true` if `raw` parses as a reliable-layer frame carrying a
/// protocol payload (as opposed to a bare ack or foreign traffic).
/// Intruder scripts use this to target protocol-bearing datagrams only.
pub fn is_data_frame(raw: &[u8]) -> bool {
    data_body(raw).is_some_and(|body| !body.is_empty())
}

/// The protocol payload of a data frame, read in place; `None` for a bare
/// ack or a malformed frame.
pub fn data_body(raw: &[u8]) -> Option<&[u8]> {
    decode_frame(raw)
        .filter(|f| f.data.is_some())
        .map(|f| f.body)
}

/// The group a frame is addressed to, read from its header; `None` if
/// `raw` is not a frame of this layout. Transports that carry many groups
/// over one connection demultiplex on it.
pub fn frame_group(raw: &[u8]) -> Option<u64> {
    if raw.len() < PREFIX_LEN || raw[0] & VERSION_MASK != FRAME_VERSION {
        return None;
    }
    Some(u64::from_be_bytes(raw[1..PREFIX_LEN].try_into().ok()?))
}

/// A one-shot data frame of `group` carrying `body` under `(epoch, seq)`,
/// untraced and acking nothing: what a forger outside any mux injects.
pub fn data_frame(group: u64, epoch: u64, seq: u64, body: &[u8]) -> Vec<u8> {
    encode_frame(group, Some((epoch, seq, &TraceContext::NONE)), None, body).to_vec()
}

/// `raw`'s header — identity, trace context and ack — around a different
/// body: a tampered copy of a recorded data frame. `None` for acks and
/// malformed frames.
pub fn with_body(raw: &[u8], body: &[u8]) -> Option<Vec<u8>> {
    let old = data_body(raw)?;
    let header = &raw[..raw.len() - old.len()];
    let mut out = Vec::with_capacity(header.len() + body.len());
    out.extend_from_slice(header);
    out.extend_from_slice(body);
    Some(out)
}

/// Re-wraps a captured data frame's body under a fresh `(epoch, seq)`
/// identity, so a replayed copy is not suppressed by the receiver's
/// duplicate filter (which keys on the pair). The captured group and trace
/// context are preserved — the intruder replays the frame bytes it
/// recorded — and the ack it carried is not. Returns `None` for acks and
/// malformed frames. This is the Dolev-Yao "replay at will" primitive: the
/// intruder controls the network and can re-frame recorded traffic.
pub fn reframe(raw: &[u8], epoch: u64, seq: u64) -> Option<Vec<u8>> {
    let frame = decode_frame(raw)?;
    let (_, _, trace) = frame.data?;
    Some(encode_frame(frame.group, Some((epoch, seq, &trace)), None, frame.body).to_vec())
}

/// Writes one frame — `tag | group`, then the data header and the ack if
/// present, then the body — straight into the shared allocation the wire
/// and the retransmit buffer hold.
fn encode_frame(
    group: u64,
    data: Option<(u64, u64, &TraceContext)>,
    ack: Option<&Ack>,
    body: &[u8],
) -> Payload {
    let mut tag = FRAME_VERSION;
    let mut len = PREFIX_LEN + body.len();
    if data.is_some() {
        tag |= FLAG_DATA;
        len += DATA_HEADER_LEN;
    }
    if let Some(ack) = ack {
        tag |= FLAG_ACK;
        len += ack.wire_len();
    }
    // An exact-size iterator collects into one allocation of `len` bytes.
    let mut frame: Payload = std::iter::repeat_n(0u8, len).collect();
    let out = Arc::get_mut(&mut frame).expect("freshly allocated");
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&[tag]);
    put(&group.to_be_bytes());
    if let Some((epoch, seq, trace)) = data {
        put(&epoch.to_be_bytes());
        put(&seq.to_be_bytes());
        put(&trace.encode());
    }
    if let Some(ack) = ack {
        put(&ack.epoch.to_be_bytes());
        put(&ack.low.to_be_bytes());
        put(&[ack.count]);
        for seq in ack.sparse() {
            put(&seq.to_be_bytes());
        }
    }
    put(body);
    frame
}

fn read_u64(raw: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_be_bytes(raw.get(at..at + 8)?.try_into().ok()?))
}

/// Parses a frame of this layout; `None` for anything else — a wrong
/// version, unknown kind flags, a truncated header, an ack reporting more
/// than [`MAX_SPARSE_ACKS`] seqs or a seq its watermark already covers,
/// or a bare ack with trailing bytes.
fn decode_frame(raw: &[u8]) -> Option<Frame<'_>> {
    let tag = *raw.first()?;
    let flags = tag & !VERSION_MASK;
    if tag & VERSION_MASK != FRAME_VERSION || flags == 0 || flags & !(FLAG_DATA | FLAG_ACK) != 0 {
        return None;
    }
    let group = read_u64(raw, 1)?;
    let mut at = PREFIX_LEN;
    let data = if flags & FLAG_DATA != 0 {
        let epoch = read_u64(raw, at)?;
        let seq = read_u64(raw, at + 8)?;
        let trace = TraceContext::decode(raw.get(at + 16..at + DATA_HEADER_LEN)?)?;
        at += DATA_HEADER_LEN;
        Some((epoch, seq, trace))
    } else {
        None
    };
    let ack = if flags & FLAG_ACK != 0 {
        let epoch = read_u64(raw, at)?;
        let low = read_u64(raw, at + 8)?;
        let count = *raw.get(at + 16)?;
        if count as usize > MAX_SPARSE_ACKS {
            return None;
        }
        at += ACK_FIXED_LEN;
        let mut above = [0u64; MAX_SPARSE_ACKS];
        for slot in above.iter_mut().take(count as usize) {
            *slot = read_u64(raw, at)?;
            if *slot < low {
                return None;
            }
            at += 8;
        }
        Some(Ack {
            epoch,
            low,
            count,
            above,
        })
    } else {
        None
    };
    let body = &raw[at..];
    if data.is_none() && !body.is_empty() {
        return None;
    }
    Some(Frame {
        group,
        data,
        ack,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::node::NetNode;
    use crate::sim::SimNet;

    /// The trace context used by frame-level tests.
    fn tctx() -> TraceContext {
        TraceContext {
            trace_id: 0xaaaa_bbbb_cccc_dddd,
            parent_span: 0x1111_2222_3333_4444,
            hop: 3,
        }
    }

    fn ack_of(epoch: u64, low: u64, sparse: &[u64]) -> Ack {
        let mut above = [0; MAX_SPARSE_ACKS];
        above[..sparse.len()].copy_from_slice(sparse);
        Ack {
            epoch,
            low,
            count: sparse.len() as u8,
            above,
        }
    }

    fn data(epoch: u64, seq: u64, body: &[u8]) -> Payload {
        encode_frame(0, Some((epoch, seq, &TraceContext::NONE)), None, body)
    }

    fn bare_ack(epoch: u64, low: u64) -> Payload {
        encode_frame(0, None, Some(&ack_of(epoch, low, &[])), &[])
    }

    #[test]
    fn reframe_changes_identity_but_not_body() {
        let f = encode_frame(
            9,
            Some((7, 42, &tctx())),
            Some(&ack_of(3, 1, &[4])),
            b"payload",
        );
        assert!(is_data_frame(&f));
        let r = reframe(&f, 99, 3).unwrap();
        let frame = decode_frame(&r).unwrap();
        assert_eq!(frame.data, Some((99, 3, tctx())));
        assert_eq!((frame.group, frame.body), (9, &b"payload"[..]));
        // The replay carries the recorded trace bytes, not the ack.
        assert_eq!(frame.ack, None);
        // A receiver treats the reframed copy as fresh traffic.
        let mut rx = ReliableMux::new(TimeMs(10), 0);
        let mut ctx = NodeCtx::new(TimeMs(0));
        let from = PartyId::new("tx");
        assert_eq!(
            rx.on_message(&from, &f, &mut ctx),
            Inbound::Deliver(b"payload", tctx())
        );
        assert_eq!(
            rx.on_message(&from, &r, &mut ctx),
            Inbound::Deliver(b"payload", tctx())
        );
        // Acks cannot be reframed into data.
        let ack = bare_ack(7, 42);
        assert!(!is_data_frame(&ack));
        assert!(reframe(&ack, 1, 1).is_none());
    }

    #[test]
    fn frame_roundtrip_with_and_without_an_ack() {
        let plain = encode_frame(5, Some((7, 42, &tctx())), None, b"payload");
        assert_eq!(plain.len(), PREFIX_LEN + DATA_HEADER_LEN + 7);
        let ack = ack_of(11, 6, &[8, 9]);
        let carried = encode_frame(5, Some((7, 42, &tctx())), Some(&ack), b"payload");
        assert_eq!(carried.len(), plain.len() + ACK_FIXED_LEN + 16);
        for (raw, want_ack) in [(&plain, None), (&carried, Some(ack))] {
            let f = decode_frame(raw).unwrap();
            assert_eq!(f.group, 5);
            assert_eq!(f.data, Some((7, 42, tctx())));
            assert_eq!(f.ack, want_ack);
            assert_eq!(f.body, b"payload");
            assert_eq!(frame_group(raw), Some(5));
            assert_eq!(data_body(raw), Some(&b"payload"[..]));
        }
        let bare = encode_frame(5, None, Some(&ack), &[]);
        assert_eq!(bare.len(), PREFIX_LEN + ACK_FIXED_LEN + 16);
        let f = decode_frame(&bare).unwrap();
        assert_eq!((f.data, f.ack), (None, Some(ack)));
        assert_eq!(data_body(&bare), None);
        // A tampered body keeps the whole header, ack included.
        let swapped = with_body(&carried, b"other").unwrap();
        let f = decode_frame(&swapped).unwrap();
        assert_eq!((f.ack, f.body), (Some(ack), &b"other"[..]));
    }

    #[test]
    fn old_layout_and_bad_headers_are_refused() {
        // The previous layout: `kind | epoch | seq | trace | body`, with or
        // without the 8-byte group envelope in front.
        let mut old = vec![0u8];
        old.extend_from_slice(&7u64.to_be_bytes());
        old.extend_from_slice(&42u64.to_be_bytes());
        old.extend_from_slice(&tctx().encode());
        old.extend_from_slice(b"payload");
        let mut enveloped = 3u64.to_be_bytes().to_vec();
        enveloped.extend_from_slice(&old);
        let mut old_ack = vec![1u8];
        old_ack.extend_from_slice(&[0u8; 33]);
        let good = encode_frame(0, Some((7, 42, &tctx())), None, b"payload").to_vec();
        let mut bad_flags = good.clone();
        bad_flags[0] = FRAME_VERSION | 0x04;
        let mut no_kind = good.clone();
        no_kind[0] = FRAME_VERSION;
        let mut bare_with_tail = bare_ack(1, 1).to_vec();
        bare_with_tail.push(0);
        let mut too_sparse = bare_ack(1, 1).to_vec();
        too_sparse[PREFIX_LEN + 16] = MAX_SPARSE_ACKS as u8 + 1;
        let below_low = encode_frame(0, None, Some(&ack_of(1, 5, &[4])), &[]);
        for (name, raw) in [
            ("old data", &old[..]),
            ("old enveloped", &enveloped[..]),
            ("old ack", &old_ack[..]),
            ("unknown flag", &bad_flags[..]),
            ("no kind", &no_kind[..]),
            ("bare ack with a tail", &bare_with_tail[..]),
            ("too many sparse seqs", &too_sparse[..]),
            ("sparse seq below the watermark", &below_low[..]),
            ("truncated", &good[..PREFIX_LEN + 3]),
        ] {
            assert!(decode_frame(raw).is_none(), "{name} accepted");
            let mut mux = ReliableMux::new(TimeMs(10), 1);
            let mut ctx = NodeCtx::new(TimeMs(0));
            assert_eq!(
                mux.on_message(&PartyId::new("x"), raw, &mut ctx),
                Inbound::Malformed,
                "{name}"
            );
            mux.flush_acks(&mut ctx);
            assert!(ctx.is_quiet(), "{name} drew an ack");
        }
    }

    #[test]
    fn frames_carry_the_group_of_their_context() {
        let mut tx = ReliableMux::new(TimeMs(10), 1);
        let mut ctx = NodeCtx::with_group(TimeMs(0), 0xDEAD_BEEF);
        tx.send(PartyId::new("b"), b"m", &mut ctx);
        let (_, frame) = ctx.take_outgoing().remove(0);
        assert_eq!(frame_group(&frame), Some(0xDEAD_BEEF));
        assert_eq!(frame_group(&[FRAME_VERSION | FLAG_DATA, 1, 2]), None);
    }

    #[test]
    fn traced_send_reaches_the_receiver_with_its_context() {
        let mut tx = ReliableMux::new(TimeMs(10), 1);
        let mut rx = ReliableMux::new(TimeMs(10), 2);
        let (pa, pb) = (PartyId::new("a"), PartyId::new("b"));
        let mut ctx = NodeCtx::new(TimeMs(0));
        tx.send_traced(pb, b"m", tctx(), &mut ctx);
        let (_, frame) = ctx.take_outgoing().remove(0);
        let mut rctx = NodeCtx::new(TimeMs(1));
        assert_eq!(
            rx.on_message(&pa, &frame, &mut rctx),
            Inbound::Deliver(b"m", tctx())
        );
        // Untraced sends carry the all-zero sentinel.
        let mut ctx2 = NodeCtx::new(TimeMs(2));
        tx.send(PartyId::new("b"), b"n", &mut ctx2);
        let (_, frame2) = ctx2.take_outgoing().remove(0);
        let (_, _, t) = decode_frame(&frame2).unwrap().data.unwrap();
        assert_eq!(t, TraceContext::NONE);
    }

    #[test]
    fn new_epoch_is_not_a_duplicate() {
        // A recovered sender restarts seq numbering under a new epoch; the
        // receiver must deliver, not suppress.
        let mut rx = ReliableMux::new(TimeMs(10), 0);
        let from = PartyId::new("tx");
        let mut ctx = NodeCtx::new(TimeMs(0));
        let before = data(1, 0, b"pre-crash");
        let after = data(2, 0, b"post-crash");
        assert_eq!(
            rx.on_message(&from, &before, &mut ctx),
            Inbound::Deliver(b"pre-crash", TraceContext::NONE)
        );
        assert_eq!(
            rx.on_message(&from, &after, &mut ctx),
            Inbound::Deliver(b"post-crash", TraceContext::NONE)
        );
        assert_eq!(rx.on_message(&from, &after, &mut ctx), Inbound::Duplicate);
        assert_eq!(rx.dedup_drops(), 1);
    }

    #[test]
    fn telemetry_counts_retransmits_and_dedup_drops() {
        use b2b_telemetry::names;
        let tel = Telemetry::new();
        let mut a = ReliableMux::new(TimeMs(10), 1);
        a.set_telemetry(tel.clone(), PartyId::new("a"));
        let pb = PartyId::new("b");
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m"[..], &mut ctx);
        let (tid, _) = ctx.take_timers()[0];
        let mut ctx2 = NodeCtx::new(TimeMs(10));
        a.on_timer(tid, &mut ctx2);
        assert_eq!(tel.metrics().snapshot().counter(names::RETRANSMITS), 1);

        let mut rx = ReliableMux::new(TimeMs(10), 0);
        rx.set_telemetry(tel.clone(), PartyId::new("rx"));
        let frame = data(1, 0, b"x");
        let mut rctx = NodeCtx::new(TimeMs(1));
        rx.on_message(&PartyId::new("tx"), &frame, &mut rctx);
        rx.on_message(&PartyId::new("tx"), &frame, &mut rctx);
        assert_eq!(tel.metrics().snapshot().counter(names::DEDUP_DROPS), 1);
        assert_eq!(rx.dedup_drops(), 1);
    }

    #[test]
    fn stale_epoch_ack_is_ignored() {
        let mut tx = ReliableMux::new(TimeMs(10), 5);
        let to = PartyId::new("rx");
        let mut ctx = NodeCtx::new(TimeMs(0));
        tx.send(to.clone(), &b"m"[..], &mut ctx);
        // An ack for another epoch must not clear our outstanding send.
        tx.on_message(&to, &bare_ack(4, 1), &mut ctx);
        assert!(!tx.all_acked());
        tx.on_message(&to, &bare_ack(5, 1), &mut ctx);
        assert!(tx.all_acked());
    }

    #[test]
    fn short_frames_are_malformed() {
        assert!(decode_frame(&[1, 2, 3]).is_none());
        let mut mux = ReliableMux::new(TimeMs(10), 1);
        let mut ctx = NodeCtx::new(TimeMs(0));
        assert_eq!(
            mux.on_message(&PartyId::new("x"), &[1, 2, 3], &mut ctx),
            Inbound::Malformed
        );
    }

    #[test]
    fn a_lone_ack_clears_outstanding() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let mut b = ReliableMux::new(TimeMs(10), 2);
        let (pa, pb) = (PartyId::new("a"), PartyId::new("b"));
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m"[..], &mut ctx);
        let (_, frame) = ctx.take_outgoing().remove(0);
        assert!(!a.all_acked());

        let mut bctx = NodeCtx::new(TimeMs(1));
        b.on_message(&pa, &frame, &mut bctx);
        assert!(bctx.is_quiet(), "the ack waits for the handler to end");
        bctx.set_frame_follows(true);
        b.flush_acks(&mut bctx);
        assert!(bctx.is_quiet(), "and for the next frame's handler");
        bctx.set_frame_follows(false);
        b.flush_acks(&mut bctx);
        let (_, ack) = bctx.take_outgoing().remove(0);
        assert_eq!(b.standalone_acks(), 1);
        b.flush_acks(&mut bctx);
        assert!(bctx.is_quiet(), "an ack is owed once");

        let mut actx = NodeCtx::new(TimeMs(2));
        assert_eq!(a.on_message(&pb, &ack, &mut actx), Inbound::Ack);
        assert!(a.all_acked());
    }

    #[test]
    fn a_reply_carries_the_ack_and_no_lone_ack_follows() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let mut b = ReliableMux::new(TimeMs(10), 2);
        let (pa, pb) = (PartyId::new("a"), PartyId::new("b"));
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m1"[..], &mut ctx);
        let (_, m1) = ctx.take_outgoing().remove(0);

        let mut bctx = NodeCtx::new(TimeMs(1));
        assert!(matches!(
            b.on_message(&pa, &m1, &mut bctx),
            Inbound::Deliver(..)
        ));
        b.send(pa.clone(), &b"m2"[..], &mut bctx);
        b.flush_acks(&mut bctx);
        let out = bctx.take_outgoing();
        assert_eq!(out.len(), 1, "the reply alone leaves");
        assert_eq!(b.standalone_acks(), 0);

        let mut actx = NodeCtx::new(TimeMs(2));
        assert_eq!(
            a.on_message(&pb, &out[0].1, &mut actx),
            Inbound::Deliver(b"m2", TraceContext::NONE)
        );
        assert!(a.all_acked(), "m2 acked m1");
    }

    #[test]
    fn sparse_seqs_above_the_watermark_are_acked() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let mut b = ReliableMux::new(TimeMs(10), 2);
        let (pa, pb) = (PartyId::new("a"), PartyId::new("b"));
        let mut ctx = NodeCtx::new(TimeMs(0));
        let frames: Vec<Payload> = (0..4u8)
            .map(|i| {
                a.send(pb.clone(), [i], &mut ctx);
                ctx.take_outgoing().remove(0).1
            })
            .collect();
        // Frame 0 is lost; 1..=3 arrive.
        let mut bctx = NodeCtx::new(TimeMs(1));
        for f in &frames[1..] {
            b.on_message(&pa, f, &mut bctx);
        }
        b.flush_acks(&mut bctx);
        let (_, ack) = bctx.take_outgoing().remove(0);
        assert_eq!(
            decode_frame(&ack).unwrap().ack,
            Some(ack_of(1, 0, &[1, 2, 3]))
        );
        a.on_message(&pb, &ack, &mut ctx);
        assert!(!a.all_acked());
        assert_eq!(a.peers[0].outstanding.len(), 1);
        assert_eq!(a.peers[0].outstanding[0].seq, 0);
    }

    #[test]
    fn retransmit_fires_only_while_outstanding() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let pb = PartyId::new("b");
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m"[..], &mut ctx);
        let timers = ctx.take_timers();
        assert_eq!(timers.len(), 1);
        let (tid, after) = timers[0];
        assert!(tid >= RELIABLE_TIMER_BASE);
        assert_eq!(after, TimeMs(10));

        // Fire the timer while unacked: retransmits and re-arms.
        let mut ctx2 = NodeCtx::new(TimeMs(10));
        assert!(a.on_timer(tid, &mut ctx2));
        assert_eq!(ctx2.take_outgoing().len(), 1);
        assert_eq!(a.retransmits(), 1);
        let (tid2, _) = ctx2.take_timers()[0];
        assert_eq!(tid2, tid, "one timer id per peer");

        // Ack arrives; the pending timer becomes a no-op.
        let mut ctx3 = NodeCtx::new(TimeMs(15));
        a.on_message(&pb, &bare_ack(1, 1), &mut ctx3);
        let mut ctx4 = NodeCtx::new(TimeMs(30));
        assert!(a.on_timer(tid2, &mut ctx4));
        assert!(ctx4.take_outgoing().is_empty());
        assert!(ctx4.take_timers().is_empty());
        assert_eq!(a.max_timers_per_peer(), 0);
    }

    #[test]
    fn a_quiet_peer_gives_back_its_capacity() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let pb = PartyId::new("b");
        let mut ctx = NodeCtx::new(TimeMs(0));
        for body in [&b"m1"[..], b"m2"] {
            a.send(pb.clone(), body, &mut ctx);
        }
        let (tid, _) = ctx.take_timers()[0];
        a.on_message(&pb, &bare_ack(1, 2), &mut NodeCtx::new(TimeMs(1)));
        assert!(a.all_acked());
        assert!(a.peers[0].outstanding.capacity() > 0);
        // The timer runs out at the horizon with nothing to resend.
        assert!(a.on_timer(tid, &mut NodeCtx::new(TimeMs(10))));
        assert_eq!(a.peers[0].outstanding.capacity(), 0);
        assert_eq!(a.peers[0].armed.capacity(), 0);
        assert_eq!(a.peers.capacity(), 1);
        // The peer is sent to again as before.
        let mut ctx = NodeCtx::new(TimeMs(20));
        a.send(pb.clone(), b"m3", &mut ctx);
        assert_eq!(ctx.take_timers(), vec![(tid, TimeMs(10))]);
        assert_eq!(a.peers[0].outstanding[0].seq, 2);
    }

    #[test]
    fn frames_to_one_peer_share_one_timer() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let pb = PartyId::new("b");
        for t in 0..5u64 {
            let mut ctx = NodeCtx::new(TimeMs(t));
            a.send(pb.clone(), [t as u8], &mut ctx);
            let armed = ctx.take_timers();
            assert_eq!(armed.len(), usize::from(t == 0), "send at {t}");
        }
        assert_eq!(a.max_timers_per_peer(), 1);
        // Another peer gets a timer of its own.
        let mut ctx = NodeCtx::new(TimeMs(5));
        a.send(PartyId::new("c"), b"x", &mut ctx);
        let armed = ctx.take_timers();
        assert_eq!(armed.len(), 1);
        assert_eq!(armed[0].0, RELIABLE_TIMER_BASE + 1);
    }

    #[test]
    fn retransmit_backoff_doubles_to_cap() {
        // First retry after the base interval (behaviour-compatible), then
        // doubling, then pinned at the configured ceiling.
        let mut a = ReliableMux::new(TimeMs(10), 1).with_retransmit_max(TimeMs(80));
        let pb = PartyId::new("b");
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m"[..], &mut ctx);
        let (tid, first) = ctx.take_timers()[0];
        assert_eq!(first, TimeMs(10));

        let mut delays = Vec::new();
        let mut now = 10u64;
        for _ in 0..6 {
            let mut tctx = NodeCtx::new(TimeMs(now));
            assert!(a.on_timer(tid, &mut tctx));
            assert_eq!(tctx.take_outgoing().len(), 1, "still unacked: resend");
            let (next_tid, delay) = tctx.take_timers()[0];
            assert_eq!(next_tid, tid);
            delays.push(delay.0);
            now += delay.0;
        }
        assert_eq!(delays, vec![20, 40, 80, 80, 80, 80]);
        assert_eq!(a.retransmits(), 6);
    }

    #[test]
    fn retransmit_max_defaults_to_32x_base_and_clamps_up() {
        let a = ReliableMux::new(TimeMs(200), 1);
        assert_eq!(a.retransmit_max, TimeMs(6_400));
        // A cap below the base degenerates to the fixed interval.
        let b = ReliableMux::new(TimeMs(50), 1).with_retransmit_max(TimeMs(5));
        assert_eq!(b.retransmit_max, TimeMs(50));
        assert_eq!(b.backoff_delay(0), TimeMs(50));
        assert_eq!(b.backoff_delay(7), TimeMs(50));
        // Huge attempt counts saturate instead of overflowing the shift.
        let c = ReliableMux::new(TimeMs(10), 1).with_retransmit_max(TimeMs(640));
        assert_eq!(c.backoff_delay(200), TimeMs(640));
    }

    #[test]
    fn backoff_bounds_retransmits_across_a_partition() {
        // Deterministic simulator pin: tx's peer is unreachable for 4000 ms
        // of virtual time. Under the old fixed 10 ms timer that costs ~400
        // retransmits; capped exponential backoff (10·2^k, cap 160) probes
        // at t = 10, 30, 70, 150, 310, 470, 630, … — the exact schedule
        // (and so the exact count) is pinned here, and delivery still
        // completes once the partition heals.
        let (tx, rx) = (PartyId::new("tx"), PartyId::new("rx"));
        let mut net: SimNet<ReliProbe> = SimNet::new(42);
        net.add_node(ReliProbe {
            id: rx.clone(),
            mux: ReliableMux::new(TimeMs(10), 10).with_retransmit_max(TimeMs(160)),
            peer: tx.clone(),
            to_send: vec![],
            delivered: vec![],
        });
        net.add_node(ReliProbe {
            id: tx.clone(),
            mux: ReliableMux::new(TimeMs(10), 11).with_retransmit_max(TimeMs(160)),
            peer: rx.clone(),
            to_send: vec![b"probe".to_vec()],
            delivered: vec![],
        });
        net.partition([tx.clone()], [rx.clone()], TimeMs(4_000));
        net.run_until(TimeMs(3_999));
        // Retransmit times: 10, 30, 70, 150, then every 160 ms from 310.
        // Within (0, 4000): 4 doubling probes + floor((3999-150)/160) = 24
        // capped probes = 28 — versus ~399 with the fixed interval.
        assert_eq!(net.node(&tx).mux.retransmits(), 28);
        net.run_until_quiet(TimeMs(60_000));
        assert_eq!(net.node(&rx).delivered, vec![b"probe".to_vec()]);
        assert!(net.node(&tx).mux.all_acked());
    }

    #[test]
    fn dedup_state_stays_constant_over_an_in_order_stream() {
        let mut d = Delivered::default();
        for seq in 0..100_000u64 {
            assert!(d.insert(7, seq));
        }
        assert_eq!(d.epochs.len(), 1);
        assert_eq!(d.epochs[0].1.low, 100_000);
        assert!(d.epochs[0].1.above.is_empty());
        // Anything below the watermark is still a duplicate.
        assert!(!d.insert(7, 0) && !d.insert(7, 99_999));
        // A new incarnation of the peer restarts numbering.
        assert!(d.insert(8, 0));
    }

    #[test]
    fn reordered_and_duplicated_frames_classify_as_a_plain_set_would() {
        // A deterministic burst: two epochs, each sequence number sent up
        // to three times, shuffled within a sliding window.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut burst: Vec<(u64, u64)> = Vec::new();
        for seq in 0..2_000u64 {
            for _ in 0..=(next() % 3) {
                burst.push((1 + seq % 2, seq / 2));
            }
        }
        for i in 0..burst.len() {
            let j = (i + (next() % 40) as usize).min(burst.len() - 1);
            burst.swap(i, j);
        }
        let mut d = Delivered::default();
        let mut model = BTreeSet::new();
        for (epoch, seq) in burst {
            assert_eq!(d.insert(epoch, seq), model.insert((epoch, seq)));
        }
        // Every number was delivered, so both windows closed up.
        for (_, window) in &d.epochs {
            assert_eq!(window.low, 1_000);
            assert!(window.above.is_empty());
        }
    }

    #[test]
    fn duplicates_below_the_watermark_are_still_acked() {
        let (a, b) = (PartyId::new("a"), PartyId::new("b"));
        let mut alice = ReliableMux::new(TimeMs(50), 1);
        let mut bob = ReliableMux::new(TimeMs(50), 2);
        let mut ctx = NodeCtx::new(TimeMs(0));
        let mut frames = Vec::new();
        for i in 0..3u8 {
            alice.send(b.clone(), vec![i], &mut ctx);
            frames.push(ctx.take_outgoing().pop().unwrap().1);
        }
        let mut bob_ctx = NodeCtx::new(TimeMs(1));
        for frame in &frames {
            assert!(matches!(
                bob.on_message(&a, frame, &mut bob_ctx),
                Inbound::Deliver(..)
            ));
        }
        bob.flush_acks(&mut bob_ctx);
        bob_ctx.take_outgoing();
        // A late retransmission of frame 0, now below the watermark.
        assert_eq!(
            bob.on_message(&a, &frames[0], &mut bob_ctx),
            Inbound::Duplicate
        );
        bob.flush_acks(&mut bob_ctx);
        let acks = bob_ctx.take_outgoing();
        assert_eq!(acks.len(), 1, "the duplicate is acked again");
        assert_eq!(alice.on_message(&b, &acks[0].1, &mut ctx), Inbound::Ack);
        assert!(alice.all_acked());
    }

    #[test]
    fn protocol_timer_ids_are_not_consumed() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let mut ctx = NodeCtx::new(TimeMs(0));
        assert!(!a.on_timer(5, &mut ctx));
    }

    /// End-to-end: a flooding sender and a counting receiver over a lossy,
    /// duplicating, reordering network still achieve exactly-once delivery
    /// of every payload.
    struct ReliProbe {
        id: PartyId,
        mux: ReliableMux,
        peer: PartyId,
        to_send: Vec<Vec<u8>>,
        delivered: Vec<Vec<u8>>,
    }

    impl NetNode for ReliProbe {
        fn id(&self) -> PartyId {
            self.id.clone()
        }
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            for m in std::mem::take(&mut self.to_send) {
                let peer = self.peer.clone();
                self.mux.send(peer, m, ctx);
            }
        }
        fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
            if let Inbound::Deliver(m, _) = self.mux.on_message(from, payload, ctx) {
                self.delivered.push(m.to_vec());
            }
            self.mux.flush_acks(ctx);
        }
        fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) {
            self.mux.on_timer(timer, ctx);
        }
    }

    #[test]
    fn once_only_delivery_over_lossy_network() {
        for seed in [1u64, 2, 3, 4, 5] {
            let mut net: SimNet<ReliProbe> = SimNet::new(seed);
            net.set_default_plan(
                FaultPlan::new()
                    .drop_rate(0.4)
                    .dup_rate(0.3)
                    .delay(TimeMs(1), TimeMs(30)),
            );
            let msgs: Vec<Vec<u8>> = (0..25u8).map(|i| vec![i]).collect();
            net.add_node(ReliProbe {
                id: PartyId::new("rx"),
                mux: ReliableMux::new(TimeMs(40), 10),
                peer: PartyId::new("tx"),
                to_send: vec![],
                delivered: vec![],
            });
            net.add_node(ReliProbe {
                id: PartyId::new("tx"),
                mux: ReliableMux::new(TimeMs(40), 11),
                peer: PartyId::new("rx"),
                to_send: msgs.clone(),
                delivered: vec![],
            });
            net.run_until_quiet(TimeMs(60_000));
            let rx = net.node(&PartyId::new("rx"));
            let mut got = rx.delivered.clone();
            got.sort();
            let mut want = msgs;
            want.sort();
            assert_eq!(got, want, "seed {seed}: every payload exactly once");
            assert!(net.node(&PartyId::new("tx")).mux.all_acked());
        }
    }
}
