//! Per-object replica state held by a coordinator.
//!
//! Figure 2 of the paper: the logical shared object is realised as
//! regulated coordination of replicas held at each organisation. A
//! [`Replica`] is one such replica plus the protocol bookkeeping the
//! engine needs: the member list in join order (which determines sponsor
//! selection), the group identifier, the agreed state tuple, replay
//! detection sets, and at most one active protocol run.

use crate::ids::{GroupId, ObjectId, RunId, StateId};
use crate::messages::{
    ConnectProposeMsg, ConnectRequestMsg, DecideMsg, DisconnectProposeMsg, DisconnectRequestMsg,
    MemberDecideMsg, MemberRespondMsg, ProposeMsg, RespondMsg, WireMsg, MIN_PARTY_BYTES,
};
use crate::object::B2BObject;
use b2b_crypto::canonical::{decode_seq, encode_seq};
use b2b_crypto::{
    CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Digest32, Encoder, PartyId,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// First byte of every blob this module (and the coordinator's object
/// index) puts in the snapshot store: the version of the layout that
/// follows. A blob with any other first byte is not decoded.
pub const SNAPSHOT_FORMAT: u8 = 1;

/// Lower bound on the encoded size of a signed message (it holds at least
/// one digest), for [`Decoder::get_count`].
const MIN_MSG_BYTES: usize = 32;

/// A decoder positioned after the format byte of a snapshot-store blob; a
/// blob in another format (first byte not [`SNAPSHOT_FORMAT`]) is an error
/// and is left for whoever can read it.
pub(crate) fn snapshot_decoder(bytes: &[u8]) -> Result<Decoder<'_>, DecodeError> {
    let mut dec = Decoder::new(bytes);
    if dec.get_u8()? != SNAPSHOT_FORMAT {
        return DecodeError::at("unknown snapshot format", 0);
    }
    Ok(dec)
}

/// Decodes a response set written as a sequence, re-keying it by
/// responder; a responder appearing twice is rejected.
fn decode_responses<M: CanonicalDecode>(
    dec: &mut Decoder<'_>,
    responder: impl Fn(&M) -> &PartyId,
) -> Result<BTreeMap<PartyId, M>, DecodeError> {
    let at = dec.position();
    let mut out = BTreeMap::new();
    for m in decode_seq::<M>(dec, MIN_MSG_BYTES)? {
        if out.insert(responder(&m).clone(), m).is_some() {
            return DecodeError::at("duplicate responder in response set", at);
        }
    }
    Ok(out)
}

/// A state-coordination run at its proposer.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposerRun {
    /// Run label.
    pub run: RunId,
    /// The m1 we sent (kept for recovery re-sends).
    pub propose: ProposeMsg,
    /// The authenticator `r_P` (revealed in m3).
    pub authenticator: [u8; 32],
    /// The successor state the run installs on success.
    pub new_state: Vec<u8>,
    /// Responses collected so far, by responder.
    pub responses: BTreeMap<PartyId, RespondMsg>,
    /// The m3, once computed (kept for recovery re-sends).
    pub decided: Option<DecideMsg>,
}

impl CanonicalEncode for ProposerRun {
    fn encode(&self, enc: &mut Encoder) {
        self.run.encode(enc);
        self.propose.encode(enc);
        enc.put_raw(&self.authenticator);
        enc.put_bytes(&self.new_state);
        enc.put_u64(self.responses.len() as u64);
        for r in self.responses.values() {
            r.encode(enc);
        }
        self.decided.encode(enc);
    }
}

impl CanonicalDecode for ProposerRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ProposerRun {
            run: RunId::decode(dec)?,
            propose: ProposeMsg::decode(dec)?,
            authenticator: dec.get_array()?,
            new_state: Vec::<u8>::decode(dec)?,
            responses: decode_responses(dec, |r: &RespondMsg| &r.response.responder)?,
            decided: Option::<DecideMsg>::decode(dec)?,
        })
    }
}

/// A state-coordination run at a recipient.
#[derive(Clone, Debug, PartialEq)]
pub struct RecipientRun {
    /// Run label.
    pub run: RunId,
    /// The m1 we received.
    pub propose: ProposeMsg,
    /// The m2 we sent (re-sent on recovery or duplicate m1).
    pub my_response: RespondMsg,
    /// For accepted proposals: the successor state to install on a
    /// positive decide (body for overwrites, computed state for updates).
    pub pending_state: Option<Vec<u8>>,
}

impl CanonicalEncode for RecipientRun {
    fn encode(&self, enc: &mut Encoder) {
        self.run.encode(enc);
        self.propose.encode(enc);
        self.my_response.encode(enc);
        self.pending_state.encode(enc);
    }
}

impl CanonicalDecode for RecipientRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(RecipientRun {
            run: RunId::decode(dec)?,
            propose: ProposeMsg::decode(dec)?,
            my_response: RespondMsg::decode(dec)?,
            pending_state: Option::<Vec<u8>>::decode(dec)?,
        })
    }
}

/// What a membership run is changing.
#[derive(Clone, Debug, PartialEq)]
pub enum MembershipChange {
    /// Admitting `subject`.
    Connect {
        /// The joining party.
        subject: PartyId,
        /// The subject's original signed request.
        request: ConnectRequestMsg,
        /// The sponsor's relay (kept for recovery re-sends).
        propose: ConnectProposeMsg,
    },
    /// Removing `subjects` (voluntarily or by eviction).
    Disconnect {
        /// The leaving parties.
        subjects: Vec<PartyId>,
        /// `true` for eviction.
        eviction: bool,
        /// The original signed request.
        request: DisconnectRequestMsg,
        /// The sponsor's relay.
        propose: DisconnectProposeMsg,
    },
}

impl CanonicalEncode for MembershipChange {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            MembershipChange::Connect {
                subject,
                request,
                propose,
            } => {
                enc.put_u8(0);
                subject.encode(enc);
                request.encode(enc);
                propose.encode(enc);
            }
            MembershipChange::Disconnect {
                subjects,
                eviction,
                request,
                propose,
            } => {
                enc.put_u8(1);
                encode_seq(subjects, enc);
                enc.put_bool(*eviction);
                request.encode(enc);
                propose.encode(enc);
            }
        }
    }
}

impl CanonicalDecode for MembershipChange {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => Ok(MembershipChange::Connect {
                subject: PartyId::decode(dec)?,
                request: ConnectRequestMsg::decode(dec)?,
                propose: ConnectProposeMsg::decode(dec)?,
            }),
            1 => Ok(MembershipChange::Disconnect {
                subjects: decode_seq(dec, MIN_PARTY_BYTES)?,
                eviction: dec.get_bool()?,
                request: DisconnectRequestMsg::decode(dec)?,
                propose: DisconnectProposeMsg::decode(dec)?,
            }),
            _ => DecodeError::at("unknown membership change", at),
        }
    }
}

/// A membership run at its sponsor.
#[derive(Clone, Debug, PartialEq)]
pub struct SponsorRun {
    /// Run label.
    pub run: RunId,
    /// What is being changed.
    pub change: MembershipChange,
    /// The authenticator revealed in the decide.
    pub authenticator: [u8; 32],
    /// The member list that results if agreed (join order).
    pub new_members: Vec<PartyId>,
    /// The group identifier that results if agreed.
    pub new_group: GroupId,
    /// The members polled (recipients of the proposal).
    pub polled: Vec<PartyId>,
    /// Responses collected so far.
    pub responses: BTreeMap<PartyId, MemberRespondMsg>,
    /// The decide, once computed.
    pub decided: Option<MemberDecideMsg>,
}

impl CanonicalEncode for SponsorRun {
    fn encode(&self, enc: &mut Encoder) {
        self.run.encode(enc);
        self.change.encode(enc);
        enc.put_raw(&self.authenticator);
        encode_seq(&self.new_members, enc);
        self.new_group.encode(enc);
        encode_seq(&self.polled, enc);
        enc.put_u64(self.responses.len() as u64);
        for r in self.responses.values() {
            r.encode(enc);
        }
        self.decided.encode(enc);
    }
}

impl CanonicalDecode for SponsorRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SponsorRun {
            run: RunId::decode(dec)?,
            change: MembershipChange::decode(dec)?,
            authenticator: dec.get_array()?,
            new_members: decode_seq(dec, MIN_PARTY_BYTES)?,
            new_group: GroupId::decode(dec)?,
            polled: decode_seq(dec, MIN_PARTY_BYTES)?,
            responses: decode_responses(dec, |r: &MemberRespondMsg| &r.response.responder)?,
            decided: Option::<MemberDecideMsg>::decode(dec)?,
        })
    }
}

/// A membership run at a polled member.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberRun {
    /// Run label.
    pub run: RunId,
    /// What is being changed.
    pub change: MembershipChange,
    /// The response we sent to the sponsor.
    pub my_response: MemberRespondMsg,
}

impl CanonicalEncode for MemberRun {
    fn encode(&self, enc: &mut Encoder) {
        self.run.encode(enc);
        self.change.encode(enc);
        self.my_response.encode(enc);
    }
}

impl CanonicalDecode for MemberRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MemberRun {
            run: RunId::decode(dec)?,
            change: MembershipChange::decode(dec)?,
            my_response: MemberRespondMsg::decode(dec)?,
        })
    }
}

/// A voluntary disconnection at its subject, awaiting the sponsor's ack.
#[derive(Clone, Debug, PartialEq)]
pub struct LeavingRun {
    /// The request we sent.
    pub request: DisconnectRequestMsg,
    /// The sponsor we sent it to.
    pub sponsor: PartyId,
}

impl CanonicalEncode for LeavingRun {
    fn encode(&self, enc: &mut Encoder) {
        self.request.encode(enc);
        self.sponsor.encode(enc);
    }
}

impl CanonicalDecode for LeavingRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(LeavingRun {
            request: DisconnectRequestMsg::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
        })
    }
}

/// The at-most-one protocol run currently active at this replica.
#[derive(Clone, Debug, PartialEq)]
pub enum ActiveRun {
    /// We proposed a state change.
    Proposer(ProposerRun),
    /// We are validating another party's state change.
    Recipient(RecipientRun),
    /// We sponsor a membership change.
    Sponsor(SponsorRun),
    /// We are polled about a membership change.
    Member(MemberRun),
    /// We asked to leave and await the ack.
    Leaving(LeavingRun),
}

impl ActiveRun {
    /// The run label, where one exists (a [`LeavingRun`] has none until the
    /// sponsor assigns it).
    pub fn run_id(&self) -> Option<RunId> {
        match self {
            ActiveRun::Proposer(r) => Some(r.run),
            ActiveRun::Recipient(r) => Some(r.run),
            ActiveRun::Sponsor(r) => Some(r.run),
            ActiveRun::Member(r) => Some(r.run),
            ActiveRun::Leaving(_) => None,
        }
    }
}

impl CanonicalEncode for ActiveRun {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ActiveRun::Proposer(r) => {
                enc.put_u8(0);
                r.encode(enc);
            }
            ActiveRun::Recipient(r) => {
                enc.put_u8(1);
                r.encode(enc);
            }
            ActiveRun::Sponsor(r) => {
                enc.put_u8(2);
                r.encode(enc);
            }
            ActiveRun::Member(r) => {
                enc.put_u8(3);
                r.encode(enc);
            }
            ActiveRun::Leaving(r) => {
                enc.put_u8(4);
                r.encode(enc);
            }
        }
    }
}

impl CanonicalDecode for ActiveRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => ProposerRun::decode(dec).map(ActiveRun::Proposer),
            1 => RecipientRun::decode(dec).map(ActiveRun::Recipient),
            2 => SponsorRun::decode(dec).map(ActiveRun::Sponsor),
            3 => MemberRun::decode(dec).map(ActiveRun::Member),
            4 => LeavingRun::decode(dec).map(ActiveRun::Leaving),
            _ => DecodeError::at("unknown active run", at),
        }
    }
}

/// A queued membership request, deferred while another run is active
/// (§4.5.1: the sponsor blocks new coordination requests pending decision
/// on any active request).
#[derive(Clone, Debug, PartialEq)]
pub enum QueuedRequest {
    /// A connection request from a prospective member.
    Connect(ConnectRequestMsg),
    /// A disconnection/eviction request.
    Disconnect(DisconnectRequestMsg),
}

impl CanonicalEncode for QueuedRequest {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            QueuedRequest::Connect(m) => {
                enc.put_u8(0);
                m.encode(enc);
            }
            QueuedRequest::Disconnect(m) => {
                enc.put_u8(1);
                m.encode(enc);
            }
        }
    }
}

impl CanonicalDecode for QueuedRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => ConnectRequestMsg::decode(dec).map(QueuedRequest::Connect),
            1 => DisconnectRequestMsg::decode(dec).map(QueuedRequest::Disconnect),
            _ => DecodeError::at("unknown queued request", at),
        }
    }
}

/// One party's replica of a shared object plus protocol bookkeeping.
pub struct Replica {
    /// The object alias.
    pub object_id: ObjectId,
    /// The application object (validation upcalls, state install).
    pub object: Box<dyn B2BObject>,
    /// Member list in join order: `members.last()` is the most recently
    /// joined member — the connection sponsor (§4.5.1).
    pub members: Vec<PartyId>,
    /// Current group identifier.
    pub group: GroupId,
    /// The agreed state tuple `t_agreed`.
    pub agreed: StateId,
    /// Bytes of the agreed state (checkpointed for recovery/rollback).
    pub agreed_state: Vec<u8>,
    /// Run labels seen, keyed by the agreed sequence number current when
    /// each was first seen (replay detection across runs). Pruned by the
    /// replay window alongside `seen_tuples`, so the set — and the
    /// snapshot written after every installation — stays bounded no
    /// matter how many rounds a replica lives through.
    pub seen_runs: HashMap<RunId, u64>,
    /// Proposal tuples ever seen: invariant 4 of §4.2.
    pub seen_tuples: HashSet<(u64, Digest32)>,
    /// At most one active run.
    pub active: Option<ActiveRun>,
    /// Membership requests deferred behind the active run.
    pub queued: Vec<QueuedRequest>,
    /// Responses we produced for already-completed runs, so a duplicate or
    /// post-recovery retransmission of m1/m3 gets a consistent re-reply.
    /// Stored pre-encoded (see [`StoredReply`]) so the per-install snapshot
    /// never re-serialises the window. Bounded: insert through
    /// [`Replica::remember_reply`].
    pub completed_replies: HashMap<RunId, StoredReply>,
    /// Insertion order of `completed_replies`, oldest first — the
    /// deterministic eviction order when the retention cap is exceeded.
    pub completed_order: VecDeque<RunId>,
    /// Runs remembered since the last checkpoint, i.e. re-replies whose
    /// slot the persistence layer has not written yet.
    pub dirty_replies: Vec<RunId>,
    /// Monotonic counter of remembered replies; assigns storage slots.
    pub reply_slots: u64,
    /// Set when this party has left (or been evicted from) the group; the
    /// replica is kept for inspection but no longer coordinates.
    pub detached: bool,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("object_id", &self.object_id)
            .field("members", &self.members)
            .field("group", &self.group)
            .field("agreed", &self.agreed)
            .field("active", &self.active.is_some())
            .field("detached", &self.detached)
            .finish()
    }
}

impl Replica {
    /// The current connection sponsor: the most recently joined member.
    pub fn sponsor(&self) -> &PartyId {
        self.members.last().expect("group is never empty")
    }

    /// The sponsor for a disconnection of `subjects`: the most recently
    /// joined member that is not itself leaving (§4.5.1).
    pub fn sponsor_for_disconnect(&self, subjects: &[PartyId]) -> Option<&PartyId> {
        self.members.iter().rev().find(|m| !subjects.contains(m))
    }

    /// Returns `true` if `party` is currently a member.
    pub fn is_member(&self, party: &PartyId) -> bool {
        self.members.contains(party)
    }

    /// The recipients of a proposal by `proposer`: all members but them.
    pub fn recipients(&self, proposer: &PartyId) -> Vec<PartyId> {
        self.members
            .iter()
            .filter(|m| *m != proposer)
            .cloned()
            .collect()
    }

    /// Records the re-reply for a completed run, evicting the oldest
    /// retained reply once more than `cap` are held. A peer retransmitting
    /// a run older than the cap gets silence and recovers through the
    /// normal state-transfer path; `cap == 0` retains nothing.
    ///
    /// The message is encoded to wire bytes **here, once**. The window used
    /// to hold `WireMsg` values and be re-serialised wholesale into every
    /// per-install snapshot, which made checkpointing O(window) — at the
    /// default cap of 64 that was the single largest cost of a coordination
    /// round, and it fell hardest on whoever proposes most (a pipelining
    /// proposer retains full decides; recipients only their response).
    /// Pre-encoded bytes keep every later touch — checkpoint, re-reply
    /// send — a plain byte copy.
    pub fn remember_reply(&mut self, run: RunId, reply: WireMsg, cap: usize) {
        if cap == 0 {
            return;
        }
        let slot = self.reply_slots % cap as u64;
        self.reply_slots += 1;
        let stored = StoredReply {
            slot,
            wire: reply.to_bytes(),
        };
        if self.completed_replies.insert(run, stored).is_none() {
            self.completed_order.push_back(run);
        }
        self.dirty_replies.push(run);
        while self.completed_replies.len() > cap {
            let Some(oldest) = self.completed_order.pop_front() else {
                break;
            };
            self.completed_replies.remove(&oldest);
        }
    }

    /// Decodes the retained re-reply for `run`, if the window still holds
    /// it. Only duplicate/post-recovery retransmissions and TTP evidence
    /// requests take this path, so decode-on-demand is the right trade.
    pub fn completed_reply(&self, run: &RunId) -> Option<WireMsg> {
        self.completed_replies
            .get(run)
            .and_then(|r| WireMsg::from_bytes(&r.wire))
    }

    /// Prunes replay-detection tuples that have fallen out of the window:
    /// after an installation, tuples at sequence numbers more than `window`
    /// behind the agreed state can no longer pass the exact-increment
    /// sequence check, so dropping them only degrades the misbehaviour
    /// label (generic sequence complaint instead of `ReplayedProposal`)
    /// while bounding the set — and the snapshot — across runs.
    pub fn prune_seen(&mut self, window: u64) {
        let floor = self.agreed.seq.saturating_sub(window);
        self.seen_tuples.retain(|(seq, _)| *seq >= floor);
        self.seen_runs.retain(|_, seen_at| *seen_at >= floor);
    }
}

/// A completed run's re-reply: the wire message pre-encoded at
/// [`Replica::remember_reply`] time, plus the snapshot-store slot it is
/// checkpointed under.
///
/// Slots are assigned round-robin over the retention cap, so the store
/// holds at most `cap` reply blobs per object no matter how many rounds
/// the replica lives through, and the main snapshot document only lists
/// `(run, slot)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredReply {
    /// Storage slot (`reply_slots % cap` at insert time).
    pub slot: u64,
    /// The encoded wire message ([`WireMsg::to_bytes`]).
    pub wire: Vec<u8>,
}

/// The durable image of a replica, written to the snapshot store after
/// every protocol step and reloaded on recovery.
///
/// Stored as [`ReplicaSnapshot::to_bytes`]: [`SNAPSHOT_FORMAT`] followed by
/// the fields in declaration order in the canonical encoding — digests as
/// raw 32 bytes, state as raw length-prefixed bytes, the active run with
/// its messages exactly as they travel on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaSnapshot {
    /// Member list in join order.
    pub members: Vec<PartyId>,
    /// Group identifier.
    pub group: GroupId,
    /// Agreed state tuple.
    pub agreed: StateId,
    /// Agreed state bytes.
    pub agreed_state: Vec<u8>,
    /// Replay-detection: runs seen, with the agreed seq each was seen at.
    pub seen_runs: Vec<(RunId, u64)>,
    /// Replay-detection: proposal tuples seen.
    pub seen_tuples: Vec<(u64, Digest32)>,
    /// The active run, if one was in progress.
    pub active: Option<ActiveRun>,
    /// Deferred membership requests.
    pub queued: Vec<QueuedRequest>,
    /// Re-replies for completed runs (so retransmitted traffic after a
    /// crash still receives the decide it is waiting for), as `(run,
    /// slot)` pairs, oldest first. The reply bytes themselves live in
    /// per-slot store entries written once when each run completes — the
    /// per-install snapshot used to re-serialise the whole window (~64
    /// full wire messages) on every write, which dominated round cost.
    pub completed_replies: Vec<(RunId, u64)>,
    /// Continuation point for slot assignment after recovery.
    pub reply_slots: u64,
    /// Whether the party had left the group.
    pub detached: bool,
}

impl ReplicaSnapshot {
    /// Captures the durable image of `replica`.
    pub fn capture(replica: &Replica) -> ReplicaSnapshot {
        ReplicaSnapshot {
            members: replica.members.clone(),
            group: replica.group,
            agreed: replica.agreed,
            agreed_state: replica.agreed_state.clone(),
            seen_runs: replica.seen_runs.iter().map(|(r, s)| (*r, *s)).collect(),
            seen_tuples: replica.seen_tuples.iter().copied().collect(),
            active: replica.active.clone(),
            queued: replica.queued.clone(),
            // Serialized oldest-first so restore preserves eviction order.
            completed_replies: replica
                .completed_order
                .iter()
                .filter_map(|k| replica.completed_replies.get(k).map(|v| (*k, v.slot)))
                .collect(),
            reply_slots: replica.reply_slots,
            detached: replica.detached,
        }
    }

    /// The blob written to the snapshot store.
    pub fn to_bytes(&self) -> Vec<u8> {
        let hint = 1024
            + self.agreed_state.len()
            + 40 * (self.seen_runs.len() + self.seen_tuples.len() + self.completed_replies.len())
            + if self.active.is_some() { 2048 } else { 0 };
        let mut enc = Encoder::with_capacity(hint);
        enc.put_u8(SNAPSHOT_FORMAT);
        encode_seq(&self.members, &mut enc);
        self.group.encode(&mut enc);
        self.agreed.encode(&mut enc);
        enc.put_bytes(&self.agreed_state);
        enc.put_u64(self.seen_runs.len() as u64);
        for (run, seen_at) in &self.seen_runs {
            run.encode(&mut enc);
            enc.put_u64(*seen_at);
        }
        enc.put_u64(self.seen_tuples.len() as u64);
        for (seq, rand_hash) in &self.seen_tuples {
            enc.put_u64(*seq);
            enc.put_digest(rand_hash);
        }
        self.active.encode(&mut enc);
        encode_seq(&self.queued, &mut enc);
        enc.put_u64(self.completed_replies.len() as u64);
        for (run, slot) in &self.completed_replies {
            run.encode(&mut enc);
            enc.put_u64(*slot);
        }
        enc.put_u64(self.reply_slots);
        enc.put_bool(self.detached);
        enc.finish()
    }

    /// Decodes a blob written by [`ReplicaSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplicaSnapshot, DecodeError> {
        let mut dec = snapshot_decoder(bytes)?;
        let run_at = |dec: &mut Decoder<'_>| Ok((RunId::decode(dec)?, dec.get_u64()?));
        let members = decode_seq(&mut dec, MIN_PARTY_BYTES)?;
        let group = GroupId::decode(&mut dec)?;
        let agreed = StateId::decode(&mut dec)?;
        let agreed_state = Vec::<u8>::decode(&mut dec)?;
        let seen_runs = (0..dec.get_count(40)?)
            .map(|_| run_at(&mut dec))
            .collect::<Result<_, _>>()?;
        let seen_tuples = (0..dec.get_count(40)?)
            .map(|_| Ok((dec.get_u64()?, dec.get_digest()?)))
            .collect::<Result<_, _>>()?;
        let active = Option::<ActiveRun>::decode(&mut dec)?;
        let queued = decode_seq(&mut dec, MIN_MSG_BYTES)?;
        let completed_replies = (0..dec.get_count(40)?)
            .map(|_| run_at(&mut dec))
            .collect::<Result<_, _>>()?;
        let snap = ReplicaSnapshot {
            members,
            group,
            agreed,
            agreed_state,
            seen_runs,
            seen_tuples,
            active,
            queued,
            completed_replies,
            reply_slots: dec.get_u64()?,
            detached: dec.get_bool()?,
        };
        dec.finish()?;
        Ok(snap)
    }

    /// Rebuilds a replica around a freshly constructed application object
    /// (the object's state is re-installed from the checkpoint).
    ///
    /// `fetch_reply` resolves a re-reply storage slot back to the bytes
    /// written for it (see [`Replica::remember_reply`]). Each blob carries
    /// the 32-byte run id it was written for as a prefix; an entry whose
    /// blob is missing or names a different run — a crash landed between a
    /// slot overwrite and the core snapshot that would have retired the
    /// old entry — is dropped, which merely re-runs the eviction the
    /// interrupted write was performing.
    pub fn restore(
        self,
        object_id: ObjectId,
        mut object: Box<dyn B2BObject>,
        mut fetch_reply: impl FnMut(u64) -> Option<Vec<u8>>,
    ) -> Replica {
        let agreed_state = self.agreed_state;
        object.apply_state(&agreed_state);
        let mut completed_replies = HashMap::new();
        let mut completed_order = VecDeque::new();
        for (run, slot) in &self.completed_replies {
            let Some(blob) = fetch_reply(*slot) else {
                continue;
            };
            if blob.len() < 32 || blob[..32] != run.0 .0 {
                continue;
            }
            completed_replies.insert(
                *run,
                StoredReply {
                    slot: *slot,
                    wire: blob[32..].to_vec(),
                },
            );
            completed_order.push_back(*run);
        }
        Replica {
            object_id,
            object,
            members: self.members,
            group: self.group,
            agreed: self.agreed,
            agreed_state,
            seen_runs: self.seen_runs.into_iter().collect(),
            seen_tuples: self.seen_tuples.into_iter().collect(),
            active: self.active,
            queued: self.queued,
            completed_replies,
            completed_order,
            dirty_replies: Vec::new(),
            reply_slots: self.reply_slots,
            detached: self.detached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use crate::object::SharedCell;
    use b2b_crypto::sha256;

    fn replica(members: &[&str]) -> Replica {
        let object = Box::new(SharedCell::new(0u64));
        let members: Vec<PartyId> = members.iter().map(|m| PartyId::new(*m)).collect();
        let state = serde_json::to_vec(&0u64).unwrap();
        Replica {
            object_id: ObjectId::new("obj"),
            object,
            group: GroupId::genesis(sha256(b"g"), &members),
            agreed: StateId::genesis(sha256(b"r"), &state),
            agreed_state: state,
            members,
            seen_runs: HashMap::new(),
            seen_tuples: HashSet::new(),
            active: None,
            queued: Vec::new(),
            completed_replies: HashMap::new(),
            completed_order: VecDeque::new(),
            dirty_replies: Vec::new(),
            reply_slots: 0,
            detached: false,
        }
    }

    #[test]
    fn sponsor_is_most_recently_joined() {
        let r = replica(&["a", "b", "c"]);
        assert_eq!(r.sponsor(), &PartyId::new("c"));
    }

    #[test]
    fn disconnect_sponsor_skips_subjects() {
        let r = replica(&["a", "b", "c"]);
        assert_eq!(
            r.sponsor_for_disconnect(&[PartyId::new("c")]),
            Some(&PartyId::new("b"))
        );
        assert_eq!(
            r.sponsor_for_disconnect(&[PartyId::new("b")]),
            Some(&PartyId::new("c"))
        );
        assert_eq!(
            r.sponsor_for_disconnect(&[PartyId::new("a"), PartyId::new("b"), PartyId::new("c")]),
            None
        );
    }

    #[test]
    fn recipients_exclude_proposer() {
        let r = replica(&["a", "b", "c"]);
        assert_eq!(
            r.recipients(&PartyId::new("b")),
            vec![PartyId::new("a"), PartyId::new("c")]
        );
    }

    #[test]
    fn remember_reply_evicts_oldest_beyond_cap() {
        let mut r = replica(&["a", "b"]);
        let mk = |i: u8| {
            WireMsg::Decide(DecideMsg {
                object: ObjectId::new("obj"),
                run: RunId(sha256(&[i])),
                authenticator: [0; 32],
                responses: Vec::new(),
            })
        };
        for i in 0..5u8 {
            r.remember_reply(RunId(sha256(&[i])), mk(i), 3);
        }
        assert_eq!(r.completed_replies.len(), 3);
        assert_eq!(r.completed_order.len(), 3);
        assert!(!r.completed_replies.contains_key(&RunId(sha256(&[0u8]))));
        assert!(!r.completed_replies.contains_key(&RunId(sha256(&[1u8]))));
        assert!(r.completed_replies.contains_key(&RunId(sha256(&[4u8]))));
        // The retained replies decode back to the remembered messages,
        // and their slots stay within the cap.
        assert_eq!(r.completed_reply(&RunId(sha256(&[4u8]))), Some(mk(4)));
        assert!(r.completed_replies.values().all(|sr| sr.slot < 3));
        // Zero cap retains nothing.
        let mut empty = replica(&["a", "b"]);
        empty.remember_reply(RunId(sha256(b"z")), mk(9), 0);
        assert!(empty.completed_replies.is_empty());
    }

    #[test]
    fn prune_seen_drops_tuples_outside_window() {
        let mut r = replica(&["a"]);
        for seq in 0..10u64 {
            r.seen_tuples.insert((seq, sha256(&[seq as u8])));
        }
        r.agreed.seq = 9;
        r.prune_seen(3);
        assert_eq!(r.seen_tuples.len(), 4); // seqs 6..=9
        assert!(r.seen_tuples.iter().all(|(s, _)| *s >= 6));
    }

    #[test]
    fn snapshot_roundtrip_preserves_protocol_state() {
        let mut r = replica(&["a", "b"]);
        r.seen_tuples.insert((3, sha256(b"t")));
        r.seen_runs.insert(RunId(sha256(b"run")), 0);
        let run = RunId(sha256(b"done"));
        let reply = WireMsg::Decide(DecideMsg {
            object: ObjectId::new("obj"),
            run,
            authenticator: [0; 32],
            responses: Vec::new(),
        });
        r.remember_reply(run, reply.clone(), 4);
        // Model the per-slot store: blob = run id || wire bytes.
        let slots: HashMap<u64, Vec<u8>> = r
            .completed_replies
            .iter()
            .map(|(k, sr)| {
                let mut blob = k.0 .0.to_vec();
                blob.extend_from_slice(&sr.wire);
                (sr.slot, blob)
            })
            .collect();
        let snap = ReplicaSnapshot::capture(&r);
        let back = ReplicaSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let restored = back.restore(
            ObjectId::new("obj"),
            Box::new(SharedCell::new(99u64)),
            |s| slots.get(&s).cloned(),
        );
        assert_eq!(restored.members, r.members);
        assert_eq!(restored.group, r.group);
        assert_eq!(restored.agreed, r.agreed);
        assert_eq!(restored.agreed_state, r.agreed_state);
        assert!(restored.seen_tuples.contains(&(3, sha256(b"t"))));
        // The fresh object had state 99 but restore installs the checkpoint.
        assert_eq!(restored.object.get_state(), r.agreed_state);
        // The re-reply window survives through the per-slot store.
        assert_eq!(restored.completed_reply(&run), Some(reply));
        assert_eq!(restored.reply_slots, r.reply_slots);
    }

    #[test]
    fn restore_drops_replies_whose_slot_was_reused() {
        let mut r = replica(&["a", "b"]);
        let run = RunId(sha256(b"stale"));
        r.remember_reply(
            run,
            WireMsg::Decide(DecideMsg {
                object: ObjectId::new("obj"),
                run,
                authenticator: [0; 32],
                responses: Vec::new(),
            }),
            4,
        );
        let snap = ReplicaSnapshot::capture(&r);
        // The slot now holds a blob written for a *different* run: the
        // crash landed between the slot overwrite and the core snapshot.
        let mut blob = sha256(b"other-run").0.to_vec();
        blob.extend_from_slice(b"{}");
        let restored = snap.restore(
            ObjectId::new("obj"),
            Box::new(SharedCell::new(0u64)),
            |_slot| Some(blob.clone()),
        );
        assert!(restored.completed_replies.is_empty());
        assert!(restored.completed_order.is_empty());
    }

    #[test]
    fn shared_cell_validator_is_irrelevant_here_but_object_installs() {
        // Guard: restore must call apply_state even for accept-all cells.
        let snap = ReplicaSnapshot::capture(&replica(&["a"]));
        let restored = snap.restore(
            ObjectId::new("obj"),
            Box::new(SharedCell::new(5u64).with_validator(|_w, _o, _n| Decision::accept())),
            |_slot| None,
        );
        assert_eq!(
            restored.object.get_state(),
            serde_json::to_vec(&0u64).unwrap()
        );
    }
}
