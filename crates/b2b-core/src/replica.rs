//! Per-object replica state held by a coordinator.
//!
//! Figure 2 of the paper: the logical shared object is realised as
//! regulated coordination of replicas held at each organisation. A
//! [`Replica`] is one such replica plus the protocol bookkeeping the
//! engine needs: the member list in join order (which determines sponsor
//! selection), the group identifier, the agreed state tuple, replay
//! detection sets, and at most one active protocol run.
//!
//! The replica is checkpointed as two kinds of snapshot-store document — a
//! [`CoreDoc`] and a ring of [`ReplyDoc`]s — so that a protocol step writes
//! what it changed and never the replay windows; [`Replica::restore`] puts
//! them back together.

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
use std::collections::{BTreeMap, HashMap, VecDeque};

/// First byte of every blob this module (and the coordinator's object
/// index) puts in the snapshot store: the version of the layout that
/// follows. A blob with any other first byte is not decoded.
pub const SNAPSHOT_FORMAT: u8 = 2;

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

/// One replay-window entry: a proposal this replica has seen, keyed for
/// expiry by the agreed sequence number current when it was first seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeenEntry {
    /// The run label (digest of the signed proposal).
    pub run: RunId,
    /// `agreed.seq` when the proposal was first seen; the entry expires
    /// once the agreed state is more than the replay window past it.
    pub seen_at: u64,
    /// For state proposals, the `(seq, rand_hash)` half of the proposed
    /// tuple (invariant 4 of §4.2); membership proposals have none.
    pub tuple: Option<(u64, Digest32)>,
}

/// A replica's replay window as sorted lists: `(run, seen_at)` pairs and
/// `((seq, rand_hash), seen_at)` pairs.
pub type ReplayWindow = (Vec<(RunId, u64)>, Vec<((u64, Digest32), u64)>);

/// Lower bound on an encoded [`SeenEntry`], for [`Decoder::get_count`].
const MIN_SEEN_BYTES: usize = 41;

fn put_tuple(enc: &mut Encoder, tuple: &Option<(u64, Digest32)>) {
    enc.put_bool(tuple.is_some());
    if let Some((seq, rand_hash)) = tuple {
        enc.put_u64(*seq);
        enc.put_digest(rand_hash);
    }
}

fn get_tuple(dec: &mut Decoder<'_>) -> Result<Option<(u64, Digest32)>, DecodeError> {
    Ok(if dec.get_bool()? {
        Some((dec.get_u64()?, dec.get_digest()?))
    } else {
        None
    })
}

impl CanonicalEncode for SeenEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.run.encode(enc);
        enc.put_u64(self.seen_at);
        put_tuple(enc, &self.tuple);
    }
}

impl CanonicalDecode for SeenEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SeenEntry {
            run: RunId::decode(dec)?,
            seen_at: dec.get_u64()?,
            tuple: get_tuple(dec)?,
        })
    }
}

impl ActiveRun {
    /// What the replay window holds for this run: its label and, for a
    /// state run, the proposed tuple's `(seq, rand_hash)`.
    fn seen_key(&self) -> Option<(RunId, Option<(u64, Digest32)>)> {
        let tuple = |m1: &ProposeMsg| {
            let t = &m1.proposal.proposed;
            Some((t.seq, t.rand_hash))
        };
        match self {
            ActiveRun::Proposer(r) => Some((r.run, tuple(&r.propose))),
            ActiveRun::Recipient(r) => Some((r.run, tuple(&r.propose))),
            ActiveRun::Sponsor(r) => Some((r.run, None)),
            ActiveRun::Member(r) => Some((r.run, None)),
            ActiveRun::Leaving(_) => None,
        }
    }
}

/// A checkpoint document of a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Doc {
    /// The reply document of this completed run, in this store slot.
    Reply {
        /// The completed run.
        run: RunId,
        /// The slot the document is stored under.
        slot: u64,
    },
    /// The core document.
    Core,
}

/// One party's replica of a shared object plus protocol bookkeeping.
///
/// Fields are crate-visible for reading; everything the checkpoint covers
/// is *changed* only through the methods below, which note which of the
/// checkpoint documents (see [`CoreDoc`], [`ReplyDoc`]) the change made
/// stale, so a protocol step rewrites only those.
pub struct Replica {
    /// The object alias.
    pub(crate) object_id: ObjectId,
    /// The application object (validation upcalls, state install).
    pub(crate) object: Box<dyn B2BObject>,
    /// Member list in join order: `members.last()` is the most recently
    /// joined member — the connection sponsor (§4.5.1).
    pub(crate) members: Vec<PartyId>,
    /// Current group identifier.
    pub(crate) group: GroupId,
    /// The agreed state tuple `t_agreed`.
    pub(crate) agreed: StateId,
    /// Bytes of the agreed state (checkpointed for recovery/rollback).
    pub(crate) agreed_state: Vec<u8>,
    /// Run labels seen, with the agreed sequence number current when each
    /// was first seen (replay detection across runs). Pruned by the replay
    /// window, so the set stays bounded no matter how many rounds a
    /// replica lives through.
    pub(crate) seen_runs: HashMap<RunId, u64>,
    /// Proposal tuples seen (invariant 4 of §4.2), each with the latest
    /// `seen_at` of the entries that carry it; pruned with `seen_runs`.
    pub(crate) seen_tuples: HashMap<(u64, Digest32), u64>,
    /// Window entries that neither the active run nor a reply slot
    /// carries: proposals recorded without becoming the active run, runs
    /// that ended without a re-reply, and entries that outlive their
    /// evicted slot. Checkpointed in the core document; normally empty.
    pub(crate) loose_seen: Vec<SeenEntry>,
    /// At most one active run.
    pub(crate) active: Option<ActiveRun>,
    /// Membership requests deferred behind the active run.
    pub(crate) queued: Vec<QueuedRequest>,
    /// Responses we produced for already-completed runs, so a duplicate or
    /// post-recovery retransmission of m1/m3 gets a consistent re-reply.
    /// Stored pre-encoded (see [`StoredReply`]). Bounded: insert through
    /// [`Replica::remember_reply`].
    pub(crate) completed_replies: HashMap<RunId, StoredReply>,
    /// Insertion order of `completed_replies`, oldest first — the
    /// deterministic eviction order when the retention cap is exceeded.
    pub(crate) completed_order: VecDeque<RunId>,
    /// Runs remembered since the last checkpoint, i.e. re-replies whose
    /// slot the persistence layer has not written yet.
    dirty_replies: Vec<RunId>,
    /// Monotonic counter of remembered replies; numbers the reply slots.
    pub(crate) reply_slots: u64,
    /// Set when this party has left (or been evicted from) the group; the
    /// replica is kept for inspection but no longer coordinates.
    pub(crate) detached: bool,
    /// The core document no longer matches the replica.
    core_dirty: bool,
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
    /// A fresh replica at `agreed`, with empty windows and no run; its
    /// first checkpoint writes the core document.
    pub fn new(
        object_id: ObjectId,
        object: Box<dyn B2BObject>,
        members: Vec<PartyId>,
        group: GroupId,
        agreed: StateId,
        agreed_state: Vec<u8>,
    ) -> Replica {
        Replica {
            object_id,
            object,
            members,
            group,
            agreed,
            agreed_state,
            seen_runs: HashMap::new(),
            seen_tuples: HashMap::new(),
            loose_seen: Vec::new(),
            active: None,
            queued: Vec::new(),
            completed_replies: HashMap::new(),
            completed_order: VecDeque::new(),
            dirty_replies: Vec::new(),
            reply_slots: 0,
            detached: false,
            core_dirty: true,
        }
    }

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

    /// Member list in join order.
    pub fn members(&self) -> &[PartyId] {
        &self.members
    }

    /// Current group identifier.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The agreed state tuple.
    pub fn agreed(&self) -> StateId {
        self.agreed
    }

    /// Bytes of the agreed state.
    pub fn agreed_state(&self) -> &[u8] {
        &self.agreed_state
    }

    /// The active run, if any.
    pub fn active(&self) -> Option<&ActiveRun> {
        self.active.as_ref()
    }

    /// Whether this party has left (or been evicted from) the group.
    pub fn is_detached(&self) -> bool {
        self.detached
    }

    /// The replay window in a comparable form.
    pub fn replay_window(&self) -> ReplayWindow {
        let mut runs: Vec<_> = self.seen_runs.iter().map(|(r, at)| (*r, *at)).collect();
        let mut tuples: Vec<_> = self.seen_tuples.iter().map(|(t, at)| (*t, *at)).collect();
        runs.sort_unstable();
        tuples.sort_unstable();
        (runs, tuples)
    }

    /// The retained re-replies, oldest first.
    pub fn completed(&self) -> Vec<(RunId, &StoredReply)> {
        self.completed_order
            .iter()
            .filter_map(|run| self.completed_replies.get(run).map(|r| (*run, r)))
            .collect()
    }

    // -----------------------------------------------------------------
    // Mutation points: each notes which checkpoint document it staled.
    // -----------------------------------------------------------------

    /// Enters `entry` in the window maps if it is not past the window.
    fn admit_seen(&mut self, entry: &SeenEntry, floor: u64) {
        if entry.seen_at < floor {
            return;
        }
        let at = self.seen_runs.entry(entry.run).or_insert(entry.seen_at);
        *at = (*at).max(entry.seen_at);
        if let Some(tuple) = entry.tuple {
            let at = self.seen_tuples.entry(tuple).or_insert(entry.seen_at);
            *at = (*at).max(entry.seen_at);
        }
    }

    /// Whether `run` is in the replay window.
    pub(crate) fn has_seen_run(&self, run: &RunId) -> bool {
        self.seen_runs.contains_key(run)
    }

    /// Whether a proposal with this `(seq, rand_hash)` is in the window.
    pub(crate) fn has_seen_tuple(&self, tuple: &(u64, Digest32)) -> bool {
        self.seen_tuples.contains_key(tuple)
    }

    /// Records a proposal that does not become the active run (rejected
    /// without tracking, or decided on the spot). A run already in the
    /// window keeps its first `seen_at`: a proposal old enough to have
    /// expired names a predecessor that is no longer the agreed state.
    pub(crate) fn note_seen(&mut self, run: RunId, tuple: Option<(u64, Digest32)>) {
        if self.seen_runs.contains_key(&run) {
            return;
        }
        let entry = SeenEntry {
            run,
            seen_at: self.agreed.seq,
            tuple,
        };
        self.admit_seen(&entry, 0);
        self.loose_seen.push(entry);
        self.core_dirty = true;
    }

    /// Makes `run` the active run and records it in the replay window; the
    /// core document carries the run, and with it the window entry (whose
    /// `seen_at` is the agreed sequence number for as long as the run is
    /// active, since only the run's own end can install a state).
    pub(crate) fn start_run(&mut self, run: ActiveRun) {
        debug_assert!(self.active.is_none(), "one run at a time");
        if let Some((label, tuple)) = run.seen_key() {
            let entry = SeenEntry {
                run: label,
                seen_at: self.agreed.seq,
                tuple,
            };
            self.admit_seen(&entry, 0);
        }
        self.active = Some(run);
        self.core_dirty = true;
    }

    /// Notes that `doc` no longer matches the replica: the active run
    /// recorded a response, or the document's write failed and the next
    /// checkpoint must retry it.
    pub(crate) fn mark_stale(&mut self, doc: Doc) {
        match doc {
            Doc::Reply { run, .. } => self.dirty_replies.push(run),
            Doc::Core => self.core_dirty = true,
        }
    }

    /// Ends the active run. Its window entry moves to the loose list until
    /// (and unless) [`Replica::remember_reply`] gives it a reply slot.
    pub(crate) fn finish_run(&mut self) -> Option<ActiveRun> {
        let run = self.active.take()?;
        self.core_dirty = true;
        if let Some((label, tuple)) = run.seen_key() {
            let housed = self.completed_replies.contains_key(&label)
                || self.loose_seen.iter().any(|e| e.run == label);
            if let (Some(&seen_at), false) = (self.seen_runs.get(&label), housed) {
                self.loose_seen.push(SeenEntry {
                    run: label,
                    seen_at,
                    tuple,
                });
            }
        }
        Some(run)
    }

    /// Installs a newly agreed state, then prunes replay-window entries
    /// that fell out of `window` (§4.2 invariant 4 stays enforced by the
    /// exact-increment sequence check).
    pub(crate) fn install_state(&mut self, id: StateId, state: Vec<u8>, window: u64) {
        self.object.apply_state(&state);
        self.agreed = id;
        self.agreed_state = state;
        self.prune_seen(window);
        self.core_dirty = true;
    }

    /// Installs an agreed membership change.
    pub(crate) fn install_membership(&mut self, members: Vec<PartyId>, group: GroupId) {
        self.members = members;
        self.group = group;
        self.core_dirty = true;
    }

    /// Marks this party as having left (or been evicted from) the group.
    pub(crate) fn detach(&mut self) {
        self.detached = true;
        self.core_dirty = true;
    }

    /// Defers a membership request behind the active run.
    pub(crate) fn queue_request(&mut self, request: QueuedRequest) {
        self.queued.push(request);
        self.core_dirty = true;
    }

    /// Takes the oldest deferred membership request.
    pub(crate) fn dequeue_request(&mut self) -> Option<QueuedRequest> {
        if self.queued.is_empty() {
            return None;
        }
        self.core_dirty = true;
        Some(self.queued.remove(0))
    }

    /// Records the re-reply for a completed run, evicting the oldest
    /// retained reply once more than `cap` are held. A peer retransmitting
    /// a run older than the cap gets silence and recovers through the
    /// normal state-transfer path; `cap == 0` retains nothing.
    ///
    /// The message is encoded to wire bytes **here, once**, so every later
    /// touch — checkpoint, re-reply send — is a plain byte copy. The run's
    /// window entry moves from the loose list into the reply's slot; an
    /// evicted reply whose entry is still inside the window hands it back.
    pub fn remember_reply(&mut self, run: RunId, reply: WireMsg, cap: usize) {
        if cap == 0 {
            return;
        }
        let tuple = match self.loose_seen.iter().rposition(|e| e.run == run) {
            Some(i) => self.loose_seen.remove(i).tuple,
            None => None,
        };
        let stored = StoredReply {
            n: self.reply_slots,
            wire: reply.to_bytes(),
            tuple,
        };
        self.reply_slots += 1;
        self.core_dirty = true;
        if self.completed_replies.insert(run, stored).is_none() {
            self.completed_order.push_back(run);
        }
        self.dirty_replies.push(run);
        while self.completed_replies.len() > cap {
            let Some(oldest) = self.completed_order.pop_front() else {
                break;
            };
            let evicted = self.completed_replies.remove(&oldest);
            if let (Some(evicted), Some(&seen_at)) = (evicted, self.seen_runs.get(&oldest)) {
                self.loose_seen.push(SeenEntry {
                    run: oldest,
                    seen_at,
                    tuple: evicted.tuple,
                });
            }
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

    /// Prunes replay-window entries first seen more than `window` agreed
    /// states ago: a proposal that old names a predecessor that can no
    /// longer be the agreed state, so dropping its entry only degrades the
    /// misbehaviour label (generic complaint instead of
    /// `ReplayedProposal`) while bounding the window across runs.
    pub(crate) fn prune_seen(&mut self, window: u64) {
        let floor = self.agreed.seq.saturating_sub(window);
        self.seen_runs.retain(|_, seen_at| *seen_at >= floor);
        self.seen_tuples.retain(|_, seen_at| *seen_at >= floor);
        self.loose_seen.retain(|e| e.seen_at >= floor);
    }

    // -----------------------------------------------------------------
    // Checkpoint documents
    // -----------------------------------------------------------------

    /// The documents this replica's changes made stale since the last
    /// call, in the order they must reach the store: reply documents
    /// before the core document whose `reply_slots` commits them, so the
    /// core never counts a reply that is not there.
    pub(crate) fn take_stale_docs(&mut self, cap: usize) -> Vec<(Doc, Vec<u8>)> {
        let mut docs = Vec::new();
        for run in std::mem::take(&mut self.dirty_replies) {
            // Evicted before this checkpoint: nothing to write.
            let Some(stored) = self.completed_replies.get(&run) else {
                continue;
            };
            let seen_at = self.seen_runs.get(&run).copied();
            let blob = encode_reply_doc(stored.n, &run, seen_at, &stored.tuple, &stored.wire);
            let slot = reply_slot(stored.n, cap);
            docs.push((Doc::Reply { run, slot }, blob));
        }
        if std::mem::take(&mut self.core_dirty) {
            docs.push((Doc::Core, self.core_doc()));
        }
        docs
    }

    /// The core document of the replica as it stands.
    pub(crate) fn core_doc(&self) -> Vec<u8> {
        CoreRef {
            members: &self.members,
            group: &self.group,
            agreed: &self.agreed,
            agreed_state: &self.agreed_state,
            active: &self.active,
            queued: &self.queued,
            loose_seen: &self.loose_seen,
            reply_slots: self.reply_slots,
            detached: self.detached,
        }
        .to_bytes()
    }

    /// Whether the core document is due to be rewritten.
    #[cfg(debug_assertions)]
    pub(crate) fn core_is_stale(&self) -> bool {
        self.core_dirty
    }

    /// Rebuilds a replica from its checkpoint documents around a freshly
    /// constructed application object (the object's state is re-installed
    /// from the core document).
    ///
    /// * `fetch_reply` resolves a reply slot to the blob last written to
    ///   it. Reply `n` is retained iff `reply_slots - cap <= n <
    ///   reply_slots` and slot `n % (cap + 1)` holds the blob numbered
    ///   `n`; a blob numbered `reply_slots` or later was written by a step
    ///   whose core document never landed and is not committed.
    /// * The replay window is the union of the entries the active run, the
    ///   retained replies and the core's loose list carry, pruned to
    ///   `window`.
    pub fn restore(
        object_id: ObjectId,
        object: Box<dyn B2BObject>,
        core: CoreDoc,
        cap: usize,
        window: u64,
        mut fetch_reply: impl FnMut(u64) -> Option<Vec<u8>>,
    ) -> Replica {
        let mut rep = Replica::new(
            object_id,
            object,
            core.members,
            core.group,
            core.agreed,
            core.agreed_state,
        );
        rep.object.apply_state(&rep.agreed_state);
        rep.queued = core.queued;
        rep.reply_slots = core.reply_slots;
        rep.detached = core.detached;
        rep.core_dirty = false;
        let floor = rep.agreed.seq.saturating_sub(window);

        for n in core.reply_slots.saturating_sub(cap as u64)..core.reply_slots {
            let Some(doc) = fetch_reply(reply_slot(n, cap))
                .and_then(|blob| ReplyDoc::from_bytes(&blob).ok())
                .filter(|doc| doc.n == n)
            else {
                continue;
            };
            if let Some(seen_at) = doc.seen_at {
                rep.admit_seen(
                    &SeenEntry {
                        run: doc.run,
                        seen_at,
                        tuple: doc.tuple,
                    },
                    floor,
                );
            }
            let stored = StoredReply {
                n,
                wire: doc.wire,
                tuple: doc.tuple,
            };
            if rep.completed_replies.insert(doc.run, stored).is_none() {
                rep.completed_order.push_back(doc.run);
            }
        }
        for entry in core.loose_seen {
            if entry.seen_at >= floor {
                rep.admit_seen(&entry, floor);
                rep.loose_seen.push(entry);
            }
        }
        if let Some((run, tuple)) = core.active.as_ref().and_then(ActiveRun::seen_key) {
            let seen_at = rep.agreed.seq;
            rep.admit_seen(
                &SeenEntry {
                    run,
                    seen_at,
                    tuple,
                },
                floor,
            );
        }
        rep.active = core.active;
        rep
    }
}

/// Finishes a checkpoint blob, trimmed to its length: the in-memory stores
/// keep it as handed over for as long as the replica lives, and a process
/// holds thousands of replicas.
fn finish_doc(enc: Encoder) -> Vec<u8> {
    let mut blob = enc.finish();
    blob.shrink_to_fit();
    blob
}

/// The snapshot-store slot of reply number `n`. One slot more than the
/// `cap` replies retained, so writing reply `n` overwrites reply
/// `n - cap - 1` — already evicted by a committed core document — and a
/// crash before this step's core document lands loses nothing retained.
fn reply_slot(n: u64, cap: usize) -> u64 {
    n % (cap as u64 + 1)
}

/// A completed run's re-reply: the wire message pre-encoded at
/// [`Replica::remember_reply`] time, its number in the reply ring (which
/// fixes the snapshot-store slot it is checkpointed under) and the tuple
/// half of its replay-window entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredReply {
    /// The value of the replica's reply counter when this was remembered.
    pub n: u64,
    /// The encoded wire message ([`WireMsg::to_bytes`]).
    pub wire: Vec<u8>,
    /// The run's `(seq, rand_hash)`, for a state run inside the window.
    pub tuple: Option<(u64, Digest32)>,
}

/// The **core** checkpoint document, key `obj-<id>`: the replica without
/// its replay windows and re-reply ring. Written by every step that
/// changes one of its fields, the active run included.
///
/// Layout: [`SNAPSHOT_FORMAT`], members, group, agreed tuple, agreed state
/// (length-prefixed raw bytes), the active run (its messages exactly as
/// they travel on the wire), queued requests, loose window entries,
/// `reply_slots`, detached.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreDoc {
    /// Member list in join order.
    pub members: Vec<PartyId>,
    /// Group identifier.
    pub group: GroupId,
    /// Agreed state tuple.
    pub agreed: StateId,
    /// Agreed state bytes.
    pub agreed_state: Vec<u8>,
    /// The active run, if one was in progress. Its replay-window entry is
    /// implied: first seen at `agreed.seq`.
    pub active: Option<ActiveRun>,
    /// Deferred membership requests.
    pub queued: Vec<QueuedRequest>,
    /// Replay-window entries no other document carries.
    pub loose_seen: Vec<SeenEntry>,
    /// Replies remembered so far: reply documents numbered below this are
    /// committed.
    pub reply_slots: u64,
    /// Whether the party had left the group.
    pub detached: bool,
}

/// The fields of a core document, borrowed from wherever they live.
struct CoreRef<'a> {
    members: &'a [PartyId],
    group: &'a GroupId,
    agreed: &'a StateId,
    agreed_state: &'a [u8],
    active: &'a Option<ActiveRun>,
    queued: &'a [QueuedRequest],
    loose_seen: &'a [SeenEntry],
    reply_slots: u64,
    detached: bool,
}

impl CoreRef<'_> {
    fn to_bytes(&self) -> Vec<u8> {
        let hint = 256
            + 32 * self.members.len()
            + self.agreed_state.len()
            + if self.active.is_some() { 2048 } else { 0 }
            + 512 * self.queued.len()
            + 2 * MIN_SEEN_BYTES * self.loose_seen.len();
        let mut enc = Encoder::with_capacity(hint);
        enc.put_u8(SNAPSHOT_FORMAT);
        encode_seq(self.members, &mut enc);
        self.group.encode(&mut enc);
        self.agreed.encode(&mut enc);
        enc.put_bytes(self.agreed_state);
        self.active.encode(&mut enc);
        encode_seq(self.queued, &mut enc);
        encode_seq(self.loose_seen, &mut enc);
        enc.put_u64(self.reply_slots);
        enc.put_bool(self.detached);
        finish_doc(enc)
    }
}

impl CoreDoc {
    /// The blob written to the snapshot store.
    pub fn to_bytes(&self) -> Vec<u8> {
        CoreRef {
            members: &self.members,
            group: &self.group,
            agreed: &self.agreed,
            agreed_state: &self.agreed_state,
            active: &self.active,
            queued: &self.queued,
            loose_seen: &self.loose_seen,
            reply_slots: self.reply_slots,
            detached: self.detached,
        }
        .to_bytes()
    }

    /// Decodes a blob written by [`CoreDoc::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CoreDoc, DecodeError> {
        let mut dec = snapshot_decoder(bytes)?;
        let doc = CoreDoc {
            members: decode_seq(&mut dec, MIN_PARTY_BYTES)?,
            group: GroupId::decode(&mut dec)?,
            agreed: StateId::decode(&mut dec)?,
            agreed_state: Vec::<u8>::decode(&mut dec)?,
            active: Option::<ActiveRun>::decode(&mut dec)?,
            queued: decode_seq(&mut dec, MIN_MSG_BYTES)?,
            loose_seen: decode_seq(&mut dec, MIN_SEEN_BYTES)?,
            reply_slots: dec.get_u64()?,
            detached: dec.get_bool()?,
        };
        dec.finish()?;
        Ok(doc)
    }
}

/// A **reply** checkpoint document, key `obj-<id>-reply-<slot>`: the
/// re-reply of one completed run plus that run's replay-window entry.
/// Written once, when the run completes, *before* the core document whose
/// `reply_slots` commits it.
///
/// Layout: [`SNAPSHOT_FORMAT`], `n`, run label, optional `seen_at`,
/// optional tuple, the wire message (length-prefixed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyDoc {
    /// The reply's number in the ring; it lives in slot `n % (cap + 1)`.
    pub n: u64,
    /// The completed run.
    pub run: RunId,
    /// `seen_at` of the run's window entry, if it was inside the window
    /// when the run completed.
    pub seen_at: Option<u64>,
    /// The tuple half of the window entry (state runs).
    pub tuple: Option<(u64, Digest32)>,
    /// The encoded re-reply ([`WireMsg::to_bytes`]).
    pub wire: Vec<u8>,
}

fn encode_reply_doc(
    n: u64,
    run: &RunId,
    seen_at: Option<u64>,
    tuple: &Option<(u64, Digest32)>,
    wire: &[u8],
) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(128 + wire.len());
    enc.put_u8(SNAPSHOT_FORMAT);
    enc.put_u64(n);
    run.encode(&mut enc);
    seen_at.encode(&mut enc);
    put_tuple(&mut enc, tuple);
    enc.put_bytes(wire);
    finish_doc(enc)
}

impl ReplyDoc {
    /// The blob written to the snapshot store.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_reply_doc(self.n, &self.run, self.seen_at, &self.tuple, &self.wire)
    }

    /// Decodes a blob written by [`ReplyDoc::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplyDoc, DecodeError> {
        let mut dec = snapshot_decoder(bytes)?;
        let doc = ReplyDoc {
            n: dec.get_u64()?,
            run: RunId::decode(&mut dec)?,
            seen_at: Option::<u64>::decode(&mut dec)?,
            tuple: get_tuple(&mut dec)?,
            wire: Vec::<u8>::decode(&mut dec)?,
        };
        dec.finish()?;
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use b2b_crypto::sha256;

    /// An object whose state is its bytes, accepting every transition.
    struct Bytes(Vec<u8>);

    impl B2BObject for Bytes {
        fn get_state(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn apply_state(&mut self, state: &[u8]) {
            self.0 = state.to_vec();
        }
        fn validate_state(&self, _who: &PartyId, _cur: &[u8], _next: &[u8]) -> Decision {
            Decision::accept()
        }
    }

    fn replica(members: &[&str]) -> Replica {
        let members: Vec<PartyId> = members.iter().map(|m| PartyId::new(*m)).collect();
        let state = b"0".to_vec();
        Replica::new(
            ObjectId::new("obj"),
            Box::new(Bytes(state.clone())),
            members.clone(),
            GroupId::genesis(sha256(b"g"), &members),
            StateId::genesis(sha256(b"r"), &state),
            state,
        )
    }

    fn run_id(i: u64) -> RunId {
        RunId(sha256(&i.to_be_bytes()))
    }

    fn decide(run: RunId) -> WireMsg {
        WireMsg::Decide(DecideMsg {
            object: ObjectId::new("obj"),
            run,
            authenticator: [0; 32],
            responses: Vec::new(),
        })
    }

    fn leaving() -> ActiveRun {
        let request = crate::messages::DisconnectRequest {
            object: ObjectId::new("obj"),
            proposer: PartyId::new("a"),
            subjects: vec![PartyId::new("a")],
            eviction: false,
            nonce_hash: sha256(b"n"),
        };
        let sig = b2b_crypto::Signer::sign(
            &b2b_crypto::KeyPair::generate_from_seed(1),
            &request.canonical_bytes(),
        );
        ActiveRun::Leaving(LeavingRun {
            request: DisconnectRequestMsg { request, sig },
            sponsor: PartyId::new("b"),
        })
    }

    /// Writes every stale document of `r` into `store`, as `persist` does.
    fn checkpoint(r: &mut Replica, store: &mut HashMap<String, Vec<u8>>, cap: usize) {
        for (doc, blob) in r.take_stale_docs(cap) {
            store.insert(key(doc), blob);
        }
    }

    fn key(doc: Doc) -> String {
        match doc {
            Doc::Reply { slot, .. } => format!("reply-{slot}"),
            Doc::Core => "core".into(),
        }
    }

    fn restore(store: &HashMap<String, Vec<u8>>, cap: usize, window: u64) -> Replica {
        Replica::restore(
            ObjectId::new("obj"),
            Box::new(Bytes(b"99".to_vec())),
            CoreDoc::from_bytes(&store["core"]).unwrap(),
            cap,
            window,
            |slot| store.get(&format!("reply-{slot}")).cloned(),
        )
    }

    fn assert_same(a: &Replica, b: &Replica) {
        assert_eq!(a.members, b.members);
        assert_eq!(a.group, b.group);
        assert_eq!(a.agreed, b.agreed);
        assert_eq!(a.agreed_state, b.agreed_state);
        assert_eq!(a.replay_window(), b.replay_window());
        assert_eq!(a.loose_seen, b.loose_seen);
        assert_eq!(a.active, b.active);
        assert_eq!(a.queued, b.queued);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.reply_slots, b.reply_slots);
        assert_eq!(a.detached, b.detached);
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
        for i in 0..5 {
            r.remember_reply(run_id(i), decide(run_id(i)), 3);
        }
        assert_eq!(r.completed_replies.len(), 3);
        assert_eq!(r.completed_order.len(), 3);
        assert!(!r.completed_replies.contains_key(&run_id(0)));
        assert!(!r.completed_replies.contains_key(&run_id(1)));
        // The retained replies decode back to the remembered messages and
        // are numbered in order.
        assert_eq!(r.completed_reply(&run_id(4)), Some(decide(run_id(4))));
        let numbers: Vec<u64> = r.completed().iter().map(|(_, sr)| sr.n).collect();
        assert_eq!(numbers, vec![2, 3, 4]);
        // Zero cap retains nothing.
        let mut empty = replica(&["a", "b"]);
        empty.remember_reply(run_id(9), decide(run_id(9)), 0);
        assert!(empty.completed_replies.is_empty());
    }

    #[test]
    fn prune_seen_drops_entries_first_seen_outside_the_window() {
        let mut r = replica(&["a"]);
        for seq in 0..10u64 {
            r.agreed.seq = seq;
            r.note_seen(run_id(seq), Some((seq + 1, sha256(&[seq as u8]))));
        }
        r.agreed.seq = 9;
        r.prune_seen(3);
        let (runs, tuples) = r.replay_window();
        assert_eq!(runs.len(), 4); // first seen at 6..=9
        assert!(runs.iter().all(|(_, at)| *at >= 6));
        assert_eq!(tuples.len(), 4);
        assert_eq!(r.loose_seen.len(), 4);
    }

    #[test]
    fn a_replayed_run_keeps_its_first_seen_at_and_one_entry() {
        let mut r = replica(&["a"]);
        r.note_seen(run_id(1), None);
        r.agreed.seq = 5;
        r.note_seen(run_id(1), None);
        assert_eq!(r.replay_window().0, vec![(run_id(1), 0)]);
        assert_eq!(r.loose_seen.len(), 1);
    }

    #[test]
    fn documents_round_trip_through_restore() {
        let (cap, window) = (4, 8);
        let mut store = HashMap::new();
        let mut r = replica(&["a", "b"]);
        checkpoint(&mut r, &mut store, cap);
        // A proposal rejected without tracking, then six completed runs
        // (two more than the ring keeps), then a run in progress.
        r.note_seen(run_id(100), Some((1, sha256(b"t"))));
        for i in 0..6u64 {
            r.start_run(leaving());
            checkpoint(&mut r, &mut store, cap);
            r.finish_run();
            r.note_seen(run_id(i), Some((i + 1, sha256(&[i as u8]))));
            r.install_state(
                StateId {
                    seq: i + 1,
                    ..r.agreed
                },
                i.to_string().into_bytes(),
                window,
            );
            r.remember_reply(run_id(i), decide(run_id(i)), cap);
            checkpoint(&mut r, &mut store, cap);
        }
        r.queue_request(QueuedRequest::Disconnect(match leaving() {
            ActiveRun::Leaving(l) => l.request,
            _ => unreachable!(),
        }));
        r.start_run(leaving());
        checkpoint(&mut r, &mut store, cap);

        let back = restore(&store, cap, window);
        assert_same(&back, &r);
        assert!(back.active.is_some());
        assert_eq!(back.completed().len(), cap);
        // Runs 0 and 1 lost their slots while still inside the window:
        // their entries moved to the loose list, beside run 100's.
        assert_eq!(back.loose_seen.len(), 3);
        assert!(back.has_seen_run(&run_id(0)) && back.has_seen_run(&run_id(100)));
        // The fresh object had state 99 but restore installs the checkpoint.
        assert_eq!(back.object.get_state(), r.agreed_state);
        assert_eq!(back.completed_reply(&run_id(5)), Some(decide(run_id(5))));
        // Nothing is stale after a restore.
        let mut back = back;
        assert!(back.take_stale_docs(cap).is_empty());
    }

    #[test]
    fn restore_commits_only_what_the_core_document_covers() {
        let (cap, window) = (2, 8);
        let mut store = HashMap::new();
        let mut r = replica(&["a", "b"]);
        for i in 0..3u64 {
            r.remember_reply(run_id(i), decide(run_id(i)), cap);
            checkpoint(&mut r, &mut store, cap);
        }
        let committed = restore(&store, cap, window);
        // A run starts, completes and writes its reply document — and the
        // crash lands before the core document.
        r.start_run(leaving());
        checkpoint(&mut r, &mut store, cap);
        r.finish_run();
        r.remember_reply(run_id(3), decide(run_id(3)), cap);
        let mut rest = r.take_stale_docs(cap).into_iter();
        let (doc, blob) = rest.next().unwrap();
        assert!(matches!(doc, Doc::Reply { .. }));
        store.insert(key(doc), blob);
        let back = restore(&store, cap, window);
        // Replies 1 and 2 are still retained (reply 3 went to the spare
        // slot), reply 3 is not committed, and the run is still active.
        assert_eq!(back.completed(), committed.completed());
        assert_eq!(back.reply_slots, 3);
        assert!(back.completed_reply(&run_id(3)).is_none());
        assert_eq!(back.active, Some(leaving()));

        // Once the core document lands, the run is over and reply 3 in.
        let (doc, blob) = rest.next().unwrap();
        assert_eq!(doc, Doc::Core);
        store.insert(key(doc), blob);
        assert_eq!(rest.next(), None);
        let back = restore(&store, cap, window);
        assert_eq!(back.active, None);
        assert_eq!(back.completed_reply(&run_id(3)), Some(decide(run_id(3))));
        assert!(back.completed_reply(&run_id(1)).is_none());
    }

    #[test]
    fn restore_skips_a_missing_or_foreign_reply_blob() {
        let (cap, window) = (4, 8);
        let mut store = HashMap::new();
        let mut r = replica(&["a", "b"]);
        for i in 0..3u64 {
            r.remember_reply(run_id(i), decide(run_id(i)), cap);
        }
        checkpoint(&mut r, &mut store, cap);
        store.remove("reply-0");
        store.insert("reply-1".into(), b"{\"format\":1}".to_vec());
        let back = restore(&store, cap, window);
        let kept: Vec<RunId> = back.completed().iter().map(|(run, _)| *run).collect();
        assert_eq!(kept, vec![run_id(2)]);
    }

    #[test]
    fn restore_installs_the_checkpointed_state_into_the_object() {
        let mut store = HashMap::new();
        checkpoint(&mut replica(&["a"]), &mut store, 4);
        let back = Replica::restore(
            ObjectId::new("obj"),
            Box::new(Bytes(b"5".to_vec())),
            CoreDoc::from_bytes(&store["core"]).unwrap(),
            4,
            8,
            |_slot| None,
        );
        assert_eq!(back.object.get_state(), b"0".to_vec());
    }
}
