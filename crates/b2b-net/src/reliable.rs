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
//! [`ReliableMux`] is that masking layer: per-peer sequence numbers, acks,
//! timer-driven retransmission and duplicate suppression. It deliberately
//! does **not** order messages — the coordination protocols above tolerate
//! reordering, exactly as the paper states.

use crate::node::{NodeCtx, Payload};
use b2b_crypto::{PartyId, TimeMs};
use b2b_telemetry::{names, Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Timer ids at or above this value belong to the reliable layer; protocol
/// engines must allocate their own timer ids strictly below it.
pub const RELIABLE_TIMER_BASE: u64 = 1 << 62;

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;

/// Frame layout: `kind (1) | epoch (8) | seq (8) | trace context (17)`,
/// then the body. The trace context rides in every frame (zeroed on acks
/// and untraced sends) so all three fabrics — which transmit mux frames
/// opaquely — propagate causality without knowing about it.
const FRAME_HEADER_LEN: usize = 17 + b2b_telemetry::ctx::WIRE_LEN;

/// What [`ReliableMux::on_message`] concluded about an incoming frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inbound {
    /// A payload delivered for the first time, with the causal trace
    /// context the sender stamped on it: hand it to the protocol.
    Deliver(Vec<u8>, TraceContext),
    /// A duplicate of an already-delivered payload: suppressed.
    Duplicate,
    /// An ack for one of our outstanding sends: bookkeeping only.
    Ack,
    /// A frame that failed to parse (corrupt or foreign traffic).
    Malformed,
}

/// An unacknowledged outbound frame plus its retransmission history.
#[derive(Debug)]
struct OutFrame {
    /// The exact frame on the wire; retransmits clone the reference count,
    /// not the bytes.
    frame: Payload,
    /// How many times this frame has been retransmitted; drives the
    /// exponential backoff of the next retransmission delay.
    attempts: u32,
}

#[derive(Debug, Default)]
struct PeerState {
    next_send_seq: u64,
    /// Unacknowledged outbound *frames* by sequence number. The stored
    /// allocation is the same one handed to the transport, so a retransmit
    /// clones a reference count, not the bytes.
    outstanding: BTreeMap<u64, OutFrame>,
    /// Inbound data frames already delivered upward.
    delivered: Delivered,
}

/// Which `(epoch, seq)` data frames of one peer have been delivered. The
/// epoch distinguishes the peer's pre-crash sends from its post-recovery
/// sends, which restart sequence numbering.
///
/// A sender numbers its frames 0, 1, 2, … per epoch, so what has been
/// delivered is a contiguous prefix plus — while frames are in flight out
/// of order — a few numbers beyond it. Keeping the prefix as one
/// watermark bounds this by the reordering in flight, not by the frames
/// ever received.
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
                self.epochs.push((epoch, SeqWindow::default()));
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
}

/// Reliable, once-only (but unordered) delivery over unreliable links, for
/// one node talking to many peers.
///
/// # Integration contract
///
/// * Send with [`ReliableMux::send`] instead of [`NodeCtx::send`].
/// * Feed every raw payload to [`ReliableMux::on_message`] and act only on
///   [`Inbound::Deliver`].
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
///     Inbound::Deliver(b"hi".to_vec(), TraceContext::NONE)
/// );
/// assert_eq!(bob.on_message(&a, &frame, &mut bob_ctx), Inbound::Duplicate);
/// ```
#[derive(Debug)]
pub struct ReliableMux {
    peers: HashMap<PartyId, PeerState>,
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
    next_timer: u64,
    timer_targets: HashMap<u64, (PartyId, u64)>,
    /// Count of protocol-level payloads sent (excluding retransmits/acks).
    sent_payloads: u64,
    /// Count of retransmitted frames.
    retransmits: u64,
    /// Count of duplicate data frames suppressed before delivery.
    dedup_drops: u64,
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
            peers: HashMap::new(),
            retransmit_after,
            retransmit_max: TimeMs(retransmit_after.0.saturating_mul(32)),
            epoch,
            next_timer: RELIABLE_TIMER_BASE,
            timer_targets: HashMap::new(),
            sent_payloads: 0,
            retransmits: 0,
            dedup_drops: 0,
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

    /// Sends `payload` to `to` with at-least-once retransmission; the
    /// receiver's mux suppresses duplicates, yielding once-only delivery.
    ///
    /// Accepts any byte source, so a multicast caller can serialize a
    /// message once and pass the same shared buffer for every peer; the
    /// per-peer frame (which carries the peer's sequence number) is built
    /// once and shared between the wire and the retransmit buffer.
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
        let peer = self.peers.entry(to.clone()).or_default();
        let seq = peer.next_send_seq;
        peer.next_send_seq += 1;
        let frame: Payload =
            encode_frame(KIND_DATA, self.epoch, seq, &trace, payload.as_ref()).into();
        peer.outstanding.insert(
            seq,
            OutFrame {
                frame: frame.clone(),
                attempts: 0,
            },
        );
        self.sent_payloads += 1;
        ctx.send(to.clone(), frame);
        self.arm_retransmit(to, seq, 0, ctx);
    }

    /// Processes a raw inbound payload; acks data frames and classifies the
    /// result for the caller.
    pub fn on_message(&mut self, from: &PartyId, raw: &[u8], ctx: &mut NodeCtx) -> Inbound {
        let Some((kind, epoch, seq, trace, body)) = decode_frame(raw) else {
            return Inbound::Malformed;
        };
        match kind {
            KIND_DATA => {
                // Always re-ack: the previous ack may have been lost. Acks
                // carry no causal context of their own.
                ctx.send(
                    from.clone(),
                    encode_frame(KIND_ACK, epoch, seq, &TraceContext::NONE, &[]),
                );
                let peer = self.peers.entry(from.clone()).or_default();
                if peer.delivered.insert(epoch, seq) {
                    Inbound::Deliver(body.to_vec(), trace)
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
            KIND_ACK => {
                if epoch == self.epoch {
                    if let Some(peer) = self.peers.get_mut(from) {
                        peer.outstanding.remove(&seq);
                    }
                }
                Inbound::Ack
            }
            _ => Inbound::Malformed,
        }
    }

    /// Handles a reliable-layer timer; returns `true` if the id belonged to
    /// this mux (otherwise the caller should treat it as a protocol timer).
    pub fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) -> bool {
        if timer < RELIABLE_TIMER_BASE {
            return false;
        }
        if let Some((peer_id, seq)) = self.timer_targets.remove(&timer) {
            let resend = self.peers.get_mut(&peer_id).and_then(|p| {
                p.outstanding.get_mut(&seq).map(|out| {
                    out.attempts += 1;
                    // The frame was built at send time; re-sending is a
                    // reference-count bump on the same allocation.
                    (out.frame.clone(), out.attempts)
                })
            });
            if let Some((frame, attempts)) = resend {
                self.retransmits += 1;
                self.telemetry.inc(names::RETRANSMITS);
                self.telemetry.trace(
                    ctx.now().as_millis(),
                    self.owner_label(),
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
                self.arm_retransmit(peer_id, seq, attempts, ctx);
            }
        }
        true
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

    /// Returns `true` if every sent payload has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.peers.values().all(|p| p.outstanding.is_empty())
    }

    fn arm_retransmit(&mut self, peer: PartyId, seq: u64, attempts: u32, ctx: &mut NodeCtx) {
        let id = self.next_timer;
        self.next_timer += 1;
        self.timer_targets.insert(id, (peer, seq));
        ctx.set_timer(id, self.backoff_delay(attempts));
    }
}

/// Returns `true` if `raw` parses as a reliable-layer DATA frame (as
/// opposed to an ack or foreign traffic). Intruder scripts use this to
/// target protocol-bearing datagrams only.
pub fn is_data_frame(raw: &[u8]) -> bool {
    matches!(decode_frame(raw), Some((KIND_DATA, _, _, _, body)) if !body.is_empty())
}

/// Re-wraps a captured DATA frame's body under a fresh `(epoch, seq)`
/// identity, so a replayed copy is not suppressed by the receiver's
/// duplicate filter (which keys on the pair). The captured trace context
/// is preserved — the intruder replays the frame bytes it recorded.
/// Returns `None` for acks and malformed frames. This is the Dolev-Yao
/// "replay at will" primitive: the intruder controls the network and can
/// re-frame recorded traffic.
pub fn reframe(raw: &[u8], epoch: u64, seq: u64) -> Option<Vec<u8>> {
    match decode_frame(raw) {
        Some((KIND_DATA, _, _, trace, body)) => {
            Some(encode_frame(KIND_DATA, epoch, seq, &trace, body))
        }
        _ => None,
    }
}

/// Length of the group envelope prefixed to every frame that crosses a
/// multi-group fabric: the destination group's id, big-endian.
pub const GROUP_ENVELOPE_LEN: usize = 8;

/// Wraps a reliable-layer frame in a group envelope: `group id (8, BE)`
/// followed by the frame bytes unchanged.
///
/// Group routing is a *transport* concern, so the envelope sits **outside**
/// the reliable frame — exactly like TCP's length prefix. The inner
/// `kind | epoch | seq | trace` layout (and therefore every recorded
/// counterexample, forged-frame fixture and wire-tap parser) is untouched,
/// and a single-group fabric that never wraps its frames stays
/// byte-identical on the wire.
pub fn encode_group_frame(group: u64, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(GROUP_ENVELOPE_LEN + frame.len());
    out.extend_from_slice(&group.to_be_bytes());
    out.extend_from_slice(frame);
    out
}

/// Splits a group envelope off a received frame; `None` if `raw` is too
/// short to carry one.
pub fn decode_group_frame(raw: &[u8]) -> Option<(u64, &[u8])> {
    if raw.len() < GROUP_ENVELOPE_LEN {
        return None;
    }
    let group = u64::from_be_bytes(raw[..GROUP_ENVELOPE_LEN].try_into().ok()?);
    Some((group, &raw[GROUP_ENVELOPE_LEN..]))
}

fn encode_frame(kind: u8, epoch: u64, seq: u64, trace: &TraceContext, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.push(kind);
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&trace.encode());
    out.extend_from_slice(body);
    out
}

fn decode_frame(raw: &[u8]) -> Option<(u8, u64, u64, TraceContext, &[u8])> {
    if raw.len() < FRAME_HEADER_LEN {
        return None;
    }
    let kind = raw[0];
    let epoch = u64::from_be_bytes(raw[1..9].try_into().ok()?);
    let seq = u64::from_be_bytes(raw[9..17].try_into().ok()?);
    let trace = TraceContext::decode(&raw[17..FRAME_HEADER_LEN])?;
    Some((kind, epoch, seq, trace, &raw[FRAME_HEADER_LEN..]))
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

    #[test]
    fn reframe_changes_identity_but_not_body() {
        let f = encode_frame(KIND_DATA, 7, 42, &tctx(), b"payload");
        assert!(is_data_frame(&f));
        let r = reframe(&f, 99, 3).unwrap();
        let (k, e, s, t, b) = decode_frame(&r).unwrap();
        assert_eq!((k, e, s, b), (KIND_DATA, 99, 3, &b"payload"[..]));
        // The replayed frame carries the recorded trace bytes verbatim.
        assert_eq!(t, tctx());
        // A receiver treats the reframed copy as fresh traffic.
        let mut rx = ReliableMux::new(TimeMs(10), 0);
        let mut ctx = NodeCtx::new(TimeMs(0));
        let from = PartyId::new("tx");
        assert_eq!(
            rx.on_message(&from, &f, &mut ctx),
            Inbound::Deliver(b"payload".to_vec(), tctx())
        );
        assert_eq!(
            rx.on_message(&from, &r, &mut ctx),
            Inbound::Deliver(b"payload".to_vec(), tctx())
        );
        // Acks cannot be reframed into data.
        let ack = encode_frame(KIND_ACK, 7, 42, &TraceContext::NONE, &[]);
        assert!(!is_data_frame(&ack));
        assert!(reframe(&ack, 1, 1).is_none());
    }

    #[test]
    fn group_envelope_roundtrips_and_preserves_the_inner_frame() {
        let inner = encode_frame(KIND_DATA, 7, 42, &tctx(), b"payload");
        let wrapped = encode_group_frame(0xDEAD_BEEF_0000_0001, &inner);
        assert_eq!(wrapped.len(), GROUP_ENVELOPE_LEN + inner.len());
        let (gid, frame) = decode_group_frame(&wrapped).unwrap();
        assert_eq!(gid, 0xDEAD_BEEF_0000_0001);
        // The inner frame is byte-identical: the envelope is pure prefix.
        assert_eq!(frame, &inner[..]);
        let (k, e, s, t, b) = decode_frame(frame).unwrap();
        assert_eq!((k, e, s, t, b), (KIND_DATA, 7, 42, tctx(), &b"payload"[..]));
        // Too-short inputs are rejected, not sliced.
        assert!(decode_group_frame(&[1, 2, 3]).is_none());
    }

    /// Property sweep over [`decode_group_frame`]: every input shorter
    /// than the envelope is rejected; every input at least as long is
    /// split exactly at the 8-byte boundary with the group id read
    /// big-endian, whatever the bytes are — garbage in the body never
    /// confuses the envelope layer, and the decode never panics.
    #[test]
    fn group_envelope_decode_is_total_and_exact_on_arbitrary_bytes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xE57A6E);
        // Truncated: every length below the envelope, random contents.
        for len in 0..GROUP_ENVELOPE_LEN {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            assert!(decode_group_frame(&bytes).is_none(), "len {len} accepted");
        }
        // At or above the envelope: decode must agree with a manual
        // split, including the empty-body boundary and oversized bodies.
        for case in 0..200 {
            let body_len = match case % 4 {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(2..64usize),
                _ => rng.gen_range(64..4096usize),
            };
            let gid: u64 = rng.gen_range(0..=u64::MAX);
            let body: Vec<u8> = (0..body_len)
                .map(|_| rng.gen_range(0..=255u32) as u8)
                .collect();
            let wrapped = encode_group_frame(gid, &body);
            assert_eq!(wrapped.len(), GROUP_ENVELOPE_LEN + body_len);
            let (got_gid, got_body) = decode_group_frame(&wrapped).unwrap();
            assert_eq!(got_gid, gid, "case {case}");
            assert_eq!(got_body, &body[..], "case {case}");
            // Raw random bytes of the same length also decode: the
            // envelope is position-defined, so the split point cannot
            // drift no matter the contents.
            let raw: Vec<u8> = (0..GROUP_ENVELOPE_LEN + body_len)
                .map(|_| rng.gen_range(0..=255u32) as u8)
                .collect();
            let (raw_gid, raw_body) = decode_group_frame(&raw).unwrap();
            assert_eq!(raw_gid, u64::from_be_bytes(raw[..8].try_into().unwrap()));
            assert_eq!(raw_body, &raw[8..]);
        }
    }

    #[test]
    fn frame_roundtrip() {
        let f = encode_frame(KIND_DATA, 7, 42, &tctx(), b"payload");
        assert_eq!(f.len(), FRAME_HEADER_LEN + b"payload".len());
        let (k, e, s, t, b) = decode_frame(&f).unwrap();
        assert_eq!(k, KIND_DATA);
        assert_eq!(e, 7);
        assert_eq!(s, 42);
        assert_eq!(t, tctx());
        assert_eq!(b, b"payload");
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
            Inbound::Deliver(b"m".to_vec(), tctx())
        );
        // Untraced sends carry the all-zero sentinel.
        let mut ctx2 = NodeCtx::new(TimeMs(2));
        tx.send(PartyId::new("b"), b"n", &mut ctx2);
        let (_, frame2) = ctx2.take_outgoing().remove(0);
        let (_, _, _, t, _) = decode_frame(&frame2).unwrap();
        assert_eq!(t, TraceContext::NONE);
    }

    #[test]
    fn new_epoch_is_not_a_duplicate() {
        // A recovered sender restarts seq numbering under a new epoch; the
        // receiver must deliver, not suppress.
        let mut rx = ReliableMux::new(TimeMs(10), 0);
        let from = PartyId::new("tx");
        let mut ctx = NodeCtx::new(TimeMs(0));
        let before = encode_frame(KIND_DATA, 1, 0, &TraceContext::NONE, b"pre-crash");
        let after = encode_frame(KIND_DATA, 2, 0, &TraceContext::NONE, b"post-crash");
        assert_eq!(
            rx.on_message(&from, &before, &mut ctx),
            Inbound::Deliver(b"pre-crash".to_vec(), TraceContext::NONE)
        );
        assert_eq!(
            rx.on_message(&from, &after, &mut ctx),
            Inbound::Deliver(b"post-crash".to_vec(), TraceContext::NONE)
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
        let frame = encode_frame(KIND_DATA, 1, 0, &TraceContext::NONE, b"x");
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
        let stale = encode_frame(KIND_ACK, 4, 0, &TraceContext::NONE, &[]);
        tx.on_message(&to, &stale, &mut ctx);
        assert!(!tx.all_acked());
        let good = encode_frame(KIND_ACK, 5, 0, &TraceContext::NONE, &[]);
        tx.on_message(&to, &good, &mut ctx);
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
    fn ack_clears_outstanding() {
        let mut a = ReliableMux::new(TimeMs(10), 1);
        let mut b = ReliableMux::new(TimeMs(10), 2);
        let (pa, pb) = (PartyId::new("a"), PartyId::new("b"));
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m"[..], &mut ctx);
        let (_, frame) = ctx.take_outgoing().remove(0);
        assert!(!a.all_acked());

        let mut bctx = NodeCtx::new(TimeMs(1));
        b.on_message(&pa, &frame, &mut bctx);
        let (_, ack) = bctx.take_outgoing().remove(0);

        let mut actx = NodeCtx::new(TimeMs(2));
        assert_eq!(a.on_message(&pb, &ack, &mut actx), Inbound::Ack);
        assert!(a.all_acked());
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

        // Ack arrives; the pending timer becomes a no-op.
        let frame_ack = encode_frame(KIND_ACK, 1, 0, &TraceContext::NONE, &[]);
        let mut ctx3 = NodeCtx::new(TimeMs(15));
        a.on_message(&pb, &frame_ack, &mut ctx3);
        let mut ctx4 = NodeCtx::new(TimeMs(20));
        assert!(a.on_timer(tid2, &mut ctx4));
        assert!(ctx4.take_outgoing().is_empty());
        assert!(ctx4.take_timers().is_empty());
    }

    #[test]
    fn retransmit_backoff_doubles_to_cap() {
        // First retry after the base interval (behaviour-compatible), then
        // doubling, then pinned at the configured ceiling.
        let mut a = ReliableMux::new(TimeMs(10), 1).with_retransmit_max(TimeMs(80));
        let pb = PartyId::new("b");
        let mut ctx = NodeCtx::new(TimeMs(0));
        a.send(pb.clone(), &b"m"[..], &mut ctx);
        let (mut tid, first) = ctx.take_timers()[0];
        assert_eq!(first, TimeMs(10));

        let mut delays = Vec::new();
        let mut now = 0u64;
        for _ in 0..6 {
            now += 1_000;
            let mut tctx = NodeCtx::new(TimeMs(now));
            assert!(a.on_timer(tid, &mut tctx));
            assert_eq!(tctx.take_outgoing().len(), 1, "still unacked: resend");
            let (next_tid, delay) = tctx.take_timers()[0];
            delays.push(delay.0);
            tid = next_tid;
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
        bob_ctx.take_outgoing();
        // A late retransmission of frame 0, now below the watermark.
        assert_eq!(
            bob.on_message(&a, &frames[0], &mut bob_ctx),
            Inbound::Duplicate
        );
        let acks = bob_ctx.take_outgoing();
        assert_eq!(acks.len(), 1, "the duplicate is acked again");
        assert_eq!(alice.on_message(&b, &acks[0].1, &mut ctx), Inbound::Ack);
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
                self.delivered.push(m);
            }
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
