//! Per-object replica state held by a coordinator.
//!
//! Figure 2 of the paper: the logical shared object is realised as
//! regulated coordination of replicas held at each organisation. A
//! [`Replica`] is one such replica plus the protocol bookkeeping the
//! engine needs: the member list in join order (which determines sponsor
//! selection), the group identifier, the agreed state tuple, replay
//! detection sets, and at most one active protocol run.
//!
//! The party's evidence log is the replica's commit point, and its
//! checkpoint a cache of the bytes the log lacks: one [`CoreDoc`] (the
//! state bytes, the active run, the deferred requests, how far into the
//! log it reaches). A protocol step rewrites it only if it changed it,
//! after the records it depends on are flushed. A completed run's
//! re-reply is the party's own log record that carries it, read back by
//! its sequence number. [`Replica::restore`] rebuilds the members, the
//! group, the agreed tuple, the replay window and the re-reply ring from
//! the [`History`] of the party's own log, and takes from the checkpoint
//! only what the log does not hold.

use crate::history::{History, Seen};
use crate::ids::{GroupId, ObjectId, RunId, StateId};
use crate::messages::{
    DecideMsg, MemberAnswer, MemberRequestMsg, Proposal, ProposeMsg, RespondMsg, Response, WireMsg,
};
use crate::object::B2BObject;
use b2b_crypto::canonical::{decode_seq, encode_seq};
use b2b_crypto::{
    CachedCanonical, CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Digest32, Encoder,
    PartyId, Signature,
};
use b2b_evidence::{EvidenceKind, EvidenceStore};
use b2b_net::compact::Compact;
use std::collections::{BTreeMap, VecDeque};

/// First byte of every blob this module (and the coordinator's object
/// index) puts in the snapshot store: the version of the layout that
/// follows. A blob with any other first byte is not decoded.
pub const SNAPSHOT_FORMAT: u8 = 6;

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
fn decode_responses(dec: &mut Decoder<'_>) -> Result<BTreeMap<PartyId, RespondMsg>, DecodeError> {
    let at = dec.position();
    let mut out = BTreeMap::new();
    for m in decode_seq::<RespondMsg>(dec, MIN_MSG_BYTES)? {
        if out.insert(m.response.responder.clone(), m).is_some() {
            return DecodeError::at("duplicate responder in response set", at);
        }
    }
    Ok(out)
}

/// A round at its proposer: the party proposing a state transition, or
/// the sponsor of a membership change.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposerRun {
    /// Run label.
    pub run: RunId,
    /// The m1 we sent (kept for recovery re-sends).
    pub propose: ProposeMsg,
    /// The authenticator `r_P` (revealed in m3).
    pub authenticator: [u8; 32],
    /// The successor state a state round installs on success (empty for a
    /// membership round, which keeps the agreed state).
    pub new_state: Vec<u8>,
    /// Responses collected so far, by responder.
    pub responses: BTreeMap<PartyId, RespondMsg>,
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
    }
}

impl CanonicalDecode for ProposerRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ProposerRun {
            run: RunId::decode(dec)?,
            propose: ProposeMsg::decode(dec)?,
            authenticator: dec.get_array()?,
            new_state: Vec::<u8>::decode(dec)?,
            responses: decode_responses(dec)?,
        })
    }
}

/// A round at a recipient: a party polled about another's proposal.
#[derive(Clone, Debug, PartialEq)]
pub struct RecipientRun {
    /// Run label.
    pub run: RunId,
    /// The m1 we received.
    pub propose: ProposeMsg,
    /// The m2 we sent (re-sent on recovery or duplicate m1).
    pub my_response: RespondMsg,
    /// The sequence number of the `StateRespond` record that logged
    /// `my_response`: the run's re-reply once it completes. `None` if the
    /// append failed, and then no re-reply is kept.
    pub responded: Option<u64>,
    /// For accepted state proposals: the successor state to install on a
    /// positive decide (body for overwrites, computed state for updates).
    pub pending_state: Option<Vec<u8>>,
}

impl CanonicalEncode for RecipientRun {
    fn encode(&self, enc: &mut Encoder) {
        self.run.encode(enc);
        self.propose.encode(enc);
        self.my_response.encode(enc);
        self.responded.encode(enc);
        self.pending_state.encode(enc);
    }
}

impl CanonicalDecode for RecipientRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(RecipientRun {
            run: RunId::decode(dec)?,
            propose: ProposeMsg::decode(dec)?,
            my_response: RespondMsg::decode(dec)?,
            responded: Option::<u64>::decode(dec)?,
            pending_state: Option::<Vec<u8>>::decode(dec)?,
        })
    }
}

/// A voluntary departure at its subject, awaiting the sponsor's answer.
#[derive(Clone, Debug, PartialEq)]
pub struct LeavingRun {
    /// The request we sent.
    pub request: MemberRequestMsg,
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
            request: MemberRequestMsg::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
        })
    }
}

/// The at-most-one protocol run currently active at this replica.
///
/// Every variant is boxed, so an idle replica spends one pointer-sized
/// word on its run slot rather than room for an m1 and an m2.
#[derive(Clone, Debug, PartialEq)]
pub enum ActiveRun {
    /// We proposed a state change or sponsor a membership change.
    Proposer(Box<ProposerRun>),
    /// We are polled about another party's proposal.
    Recipient(Box<RecipientRun>),
    /// We asked to leave and await the ack.
    Leaving(Box<LeavingRun>),
}

impl ActiveRun {
    /// The run label, where one exists (a [`LeavingRun`] has none until the
    /// sponsor assigns it).
    pub fn run_id(&self) -> Option<RunId> {
        match self {
            ActiveRun::Proposer(r) => Some(r.run),
            ActiveRun::Recipient(r) => Some(r.run),
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
            ActiveRun::Leaving(r) => {
                enc.put_u8(2);
                r.encode(enc);
            }
        }
    }
}

impl CanonicalDecode for ActiveRun {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => Ok(ActiveRun::Proposer(Box::new(ProposerRun::decode(dec)?))),
            1 => Ok(ActiveRun::Recipient(Box::new(RecipientRun::decode(dec)?))),
            2 => Ok(ActiveRun::Leaving(Box::new(LeavingRun::decode(dec)?))),
            _ => DecodeError::at("unknown active run", at),
        }
    }
}

/// A replica's replay window as sorted lists: `(run, seen_at)` pairs and
/// `((seq, rand_hash), seen_at)` pairs.
pub type ReplayWindow = (Vec<(RunId, u64)>, Vec<((u64, Digest32), u64)>);

impl ActiveRun {
    /// What the replay window holds for this run: its label and, for a
    /// state run, the proposed tuple's `(seq, rand_hash)`.
    fn seen_key(&self) -> Option<(RunId, Option<(u64, Digest32)>)> {
        match self {
            ActiveRun::Proposer(r) => Some((r.run, seen_tuple(&r.propose.proposal))),
            ActiveRun::Recipient(r) => Some((r.run, seen_tuple(&r.propose.proposal))),
            ActiveRun::Leaving(_) => None,
        }
    }

    /// The key the log files this run's end under ([`History::ended`]):
    /// its label, or for a departure the digest of its request.
    fn end_key(&self) -> RunId {
        match self {
            ActiveRun::Proposer(r) => r.run,
            ActiveRun::Recipient(r) => r.run,
            ActiveRun::Leaving(r) => RunId(r.request.request.canonical_digest()),
        }
    }

    /// The successor state this run carries, if it is a state run that
    /// holds one.
    fn carried_state(&self) -> Option<&Vec<u8>> {
        match self {
            ActiveRun::Proposer(r) if !r.propose.proposal.kind.is_membership() => {
                Some(&r.new_state)
            }
            ActiveRun::Recipient(r) => r.pending_state.as_ref(),
            _ => None,
        }
    }
}

/// The tuple half of a proposal's replay-window entry: the proposed
/// `(seq, rand_hash)` of a state proposal; a membership proposal, which
/// proposes the agreed tuple, has none.
pub(crate) fn seen_tuple(p: &Proposal) -> Option<(u64, Digest32)> {
    (!p.kind.is_membership()).then_some((p.proposed.seq, p.proposed.rand_hash))
}

/// One half of the replay window: each key with the latest `seen_at` of
/// the entries that carry it, as a list sorted by key. A quiet replica
/// holds a handful of entries and a busy one those of the last
/// `REPLAY_WINDOW` agreed states, so the list is as large as what it holds
/// and a lookup is a binary search.
#[derive(Debug)]
pub(crate) struct SeenMap<K>(Vec<(K, u64)>);

impl<K: Ord + Copy> SeenMap<K> {
    /// The `seen_at` of `key`, if it is in the window.
    fn get(&self, key: &K) -> Option<u64> {
        let i = self.0.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(self.0[i].1)
    }

    /// Enters `key`, or moves its `seen_at` up to `seen_at`.
    fn admit(&mut self, key: K, seen_at: u64) {
        match self.0.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.0[i].1 = self.0[i].1.max(seen_at),
            Err(i) => self.0.insert(i, (key, seen_at)),
        }
    }

    /// Drops every entry seen before `floor`.
    fn prune(&mut self, floor: u64) {
        self.0.retain(|(_, seen_at)| *seen_at >= floor);
    }
}

/// The sponsor's signed answer that admitted a joiner: the record that
/// founds its history.
pub type Welcome = (MemberAnswer, Signature);

/// One party's replica of a shared object plus protocol bookkeeping.
///
/// Fields are crate-visible for reading; everything the checkpoint covers
/// is *changed* only through the methods below, which note when the
/// change made the [`CoreDoc`] stale, so a protocol step rewrites it only
/// then.
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
    pub(crate) seen_runs: SeenMap<RunId>,
    /// Proposal tuples seen (invariant 4 of §4.2), each with the latest
    /// `seen_at` of the entries that carry it; pruned with `seen_runs`.
    pub(crate) seen_tuples: SeenMap<(u64, Digest32)>,
    /// At most one active run.
    pub(crate) active: Option<ActiveRun>,
    /// Membership requests deferred behind the active run (§4.5.1: the
    /// sponsor blocks new coordination requests pending decision on any
    /// active request).
    pub(crate) queued: Vec<MemberRequestMsg>,
    /// The replies we produced for completed runs, oldest first, so a
    /// duplicate or post-recovery retransmission of m1/m3 gets a
    /// consistent re-reply. Each is held as the sequence number of our
    /// own log record that carries it. Bounded, and sized to what it
    /// holds: insert through [`Replica::remember_reply`].
    replies: VecDeque<(RunId, u64)>,
    /// The answer that admitted this party, until a core document that
    /// carries it lands: it is put before the answer is logged.
    welcome: Option<Box<Welcome>>,
    /// The length of the evidence log when the core document was last
    /// written: how far into the log the checkpoint reaches.
    logged: u64,
    /// Set when this party has left the group; the replica is kept for
    /// inspection but no longer coordinates.
    pub(crate) detached: bool,
    /// Set when this party was admitted through the connection protocol
    /// (not checkpointed: it answers [`ConnectStatus::Member`] until the
    /// next crash, as the engine's volatile connection status did).
    ///
    /// [`ConnectStatus::Member`]: crate::ConnectStatus::Member
    pub(crate) joined: bool,
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
            seen_runs: SeenMap(Vec::new()),
            seen_tuples: SeenMap(Vec::new()),
            active: None,
            queued: Vec::new(),
            replies: VecDeque::new(),
            welcome: None,
            logged: 0,
            detached: false,
            joined: false,
            core_dirty: true,
        }
    }

    /// The current connection sponsor: the most recently joined member.
    pub fn sponsor(&self) -> &PartyId {
        self.members.last().expect("group is never empty")
    }

    /// The sponsor of a membership change that removes `leavers`: the most
    /// recently joined member that is not itself leaving (§4.5.1) — for a
    /// join, which removes nobody, [`Replica::sponsor`].
    pub fn sponsor_for(&self, leavers: &[PartyId]) -> Option<&PartyId> {
        self.members.iter().rev().find(|m| !leavers.contains(m))
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
        (self.seen_runs.0.clone(), self.seen_tuples.0.clone())
    }

    /// The retained re-replies, oldest first, each with the sequence
    /// number of the log record that carries it.
    pub fn completed(&self) -> Vec<(RunId, u64)> {
        self.replies.iter().copied().collect()
    }

    // -----------------------------------------------------------------
    // Mutation points: each notes when it staled the core document.
    // -----------------------------------------------------------------

    /// Whether `run` is in the replay window.
    pub(crate) fn has_seen_run(&self, run: &RunId) -> bool {
        self.seen_runs.get(run).is_some()
    }

    /// Whether a proposal with this `(seq, rand_hash)` is in the window.
    pub(crate) fn has_seen_tuple(&self, tuple: &(u64, Digest32)) -> bool {
        self.seen_tuples.get(tuple).is_some()
    }

    /// Records a proposal in the replay window, first seen at the agreed
    /// sequence number `at`. A run already in the window keeps its first
    /// `seen_at`: a proposal old enough to have expired names a
    /// predecessor that is no longer the agreed state. The core document
    /// is due again, so that its log mark commits the sighting.
    fn see(&mut self, run: RunId, tuple: Option<(u64, Digest32)>, at: u64) {
        if self.has_seen_run(&run) {
            return;
        }
        self.seen_runs.admit(run, at);
        if let Some(tuple) = tuple {
            self.seen_tuples.admit(tuple, at);
        }
        self.core_dirty = true;
    }

    /// Records a proposal that does not become the active run (rejected
    /// without tracking, decided on the spot, or the round that welcomed
    /// this party).
    pub(crate) fn note_seen(&mut self, run: RunId, tuple: Option<(u64, Digest32)>) {
        self.see(run, tuple, self.agreed.seq);
    }

    /// Makes `run` the active run and records it in the replay window.
    pub(crate) fn start_run(&mut self, run: ActiveRun) {
        debug_assert!(self.active.is_none(), "one run at a time");
        if let Some((label, tuple)) = run.seen_key() {
            self.note_seen(label, tuple);
        }
        self.active = Some(run);
        self.core_dirty = true;
    }

    /// Notes that the core document no longer matches the replica: the
    /// active run recorded a response, or the document's write failed and
    /// the next checkpoint must retry it.
    pub(crate) fn mark_core_stale(&mut self) {
        self.core_dirty = true;
    }

    /// Ends the active run.
    pub(crate) fn finish_run(&mut self) -> Option<ActiveRun> {
        let run = self.active.take()?;
        self.core_dirty = true;
        Some(run)
    }

    /// Installs a newly agreed state, then prunes replay-window entries
    /// that fell out of `window` (§4.2 invariant 4 stays enforced by the
    /// exact-increment sequence check).
    pub(crate) fn install_state(&mut self, id: StateId, mut state: Vec<u8>, window: u64) {
        self.object.apply_state(&state);
        // Held until the next install, in every replica of the process.
        state.shrink_to_fit();
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
    pub(crate) fn queue_request(&mut self, request: MemberRequestMsg) {
        self.queued.push(request);
        self.core_dirty = true;
    }

    /// Takes the oldest deferred membership request.
    pub(crate) fn dequeue_request(&mut self) -> Option<MemberRequestMsg> {
        if self.queued.is_empty() {
            return None;
        }
        self.core_dirty = true;
        Some(self.queued.remove(0))
    }

    /// Records that `run` completed with the re-reply our log holds at
    /// `record`, evicting the oldest retained reply once `cap` are held. A
    /// reply whose record append failed (`None`) is not retained, like one
    /// older than the cap: a peer retransmitting such a run gets silence
    /// and recovers through the normal state-transfer path; `cap == 0`
    /// retains nothing. The ring is read back from the log at restore, so
    /// no checkpoint document changes.
    pub(crate) fn remember_reply(&mut self, run: RunId, record: Option<u64>, cap: usize) {
        let Some(record) = record.filter(|_| cap > 0) else {
            return;
        };
        self.replies.retain(|(r, _)| *r != run);
        while self.replies.len() >= cap {
            self.replies.pop_front();
        }
        self.replies.push_small((run, record));
    }

    /// The retained re-reply for `run`, if the ring still holds it: the
    /// frame first sent, rebuilt from our own record in `log` — a decide
    /// is its payload, a response its payload and signature. Only
    /// duplicate/post-recovery retransmissions and TTP evidence requests
    /// take this path, and each reads one record.
    pub fn completed_reply(&self, run: &RunId, log: &dyn EvidenceStore) -> Option<WireMsg> {
        let (_, seq) = self.replies.iter().find(|(r, _)| r == run)?;
        let record = log.get(*seq)?;
        match record.kind {
            EvidenceKind::StateDecide => (DecideMsg::from_canonical(&record.payload).ok())
                .filter(|d| d.run == *run)
                .map(WireMsg::Decide),
            EvidenceKind::StateRespond => {
                let response = Response::from_canonical(&record.payload).ok();
                Some(WireMsg::Respond(RespondMsg {
                    response: response.filter(|r| r.run == *run)?,
                    sig: record.signature?,
                    memo: CachedCanonical::from_received(&record.payload),
                }))
            }
            _ => None,
        }
    }

    /// Prunes replay-window entries first seen more than `window` agreed
    /// states ago: a proposal that old names a predecessor that can no
    /// longer be the agreed state, so dropping its entry only degrades the
    /// misbehaviour label (generic complaint instead of
    /// `ReplayedProposal`) while bounding the window across runs.
    pub(crate) fn prune_seen(&mut self, window: u64) {
        self.prune_seen_at(self.agreed.seq, window);
    }

    /// Prunes the window as an install of sequence number `seq` does.
    fn prune_seen_at(&mut self, seq: u64, window: u64) {
        let floor = seq.saturating_sub(window);
        self.seen_runs.prune(floor);
        self.seen_tuples.prune(floor);
    }

    // -----------------------------------------------------------------
    // Checkpoint documents
    // -----------------------------------------------------------------

    /// The core document, if this replica's changes made it stale since
    /// the last call; it is due again after [`Replica::mark_core_stale`].
    /// `logged` is the length of the evidence log, every record of which
    /// is durable: the document records it as its mark.
    pub(crate) fn take_stale_core(&mut self, logged: u64) -> Option<Vec<u8>> {
        if !std::mem::take(&mut self.core_dirty) {
            return None;
        }
        self.logged = logged;
        Some(self.core_doc())
    }

    /// Holds the answer that admitted this party for the next core
    /// document, which is put before the answer is logged.
    pub(crate) fn hold_welcome(&mut self, welcome: Welcome) {
        self.welcome = Some(Box::new(welcome));
        self.core_dirty = true;
    }

    /// Whether the answer that admitted this party waits for a core
    /// document to carry it.
    pub(crate) fn holds_welcome(&self) -> bool {
        self.welcome.is_some()
    }

    /// A core document landed. If it carried the welcome, the welcome is
    /// let go and the document is due again: the answer is logged next,
    /// and the next core document, written after a flush, reaches past it.
    pub(crate) fn core_written(&mut self) {
        if self.welcome.take().is_some() {
            self.core_dirty = true;
        }
    }

    /// The core document of the replica as it stands. A replica that has
    /// seen no proposal, or only that of its active run, which a sole
    /// member logs after this document, may have logged nothing its group
    /// could be read from, so the document carries its founding.
    pub(crate) fn core_doc(&self) -> Vec<u8> {
        let active = self.active.as_ref().and_then(ActiveRun::run_id);
        let unlogged = self.seen_runs.0.iter().all(|(run, _)| Some(*run) == active);
        CoreRef {
            logged: self.logged,
            founding: unlogged.then_some((&self.group, &self.agreed)),
            welcome: self.welcome.as_deref(),
            agreed_state: &self.agreed_state,
            active: &self.active,
            queued: &self.queued,
            detached: self.detached,
        }
        .to_bytes()
    }

    /// Whether the core document is due to be rewritten.
    pub(crate) fn core_is_stale(&self) -> bool {
        self.core_dirty
    }

    /// Rebuilds `me`'s replica from the `history` of its own log and its
    /// core document, around a fresh application object.
    ///
    /// * The history counts up to the core document's mark, and past it
    ///   only where it ends the document's active run, which is then over
    ///   ([`Ended`]; a state run it installed hands over its bytes). The
    ///   last install (or the document's founding) gives the members, the
    ///   group and the agreed tuple, to which the state bytes must hash.
    ///   A welcome the document carries was logged just after it: the mark
    ///   reaches past it.
    /// * The replay window holds every proposal seen before the mark, and
    ///   the one whose record ended the active run, at the agreed sequence
    ///   number of its record, expired as installs do.
    /// * The re-reply ring is the last `cap` of the history's replies.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the log and the checkpoint disagree.
    pub fn restore(
        object_id: ObjectId,
        object: Box<dyn B2BObject>,
        me: &PartyId,
        history: &History,
        core: CoreDoc,
        cap: usize,
        window: u64,
    ) -> Result<(Replica, Option<Ended>), RestoreError> {
        let CoreDoc {
            mut logged,
            founding,
            welcome,
            mut agreed_state,
            mut active,
            queued,
            detached,
        } = core;
        if let Some((answer, _)) = &welcome {
            let welcomed = history.ended.get(&RunId(answer.request_digest));
            logged = logged.max(welcomed.map_or(0, |seq| seq + 1));
        }
        let end = (active.as_ref()).and_then(|run| history.ended.get(&run.end_key()).copied());
        let installs = &history.installs;
        if installs
            .iter()
            .any(|i| i.record >= logged && Some(i.record) != end)
        {
            return Err(RestoreError::Ahead);
        }
        let (members, group, agreed) = match (installs.last(), founding) {
            (Some(i), _) => (i.members.clone(), i.group, i.tuple),
            (None, Some((group, agreed))) => (vec![me.clone()], group, agreed),
            (None, None) => return Err(RestoreError::NoGroup),
        };
        let ended = end.and_then(|record| {
            let run = active.take()?;
            let installed = installs.last().is_some_and(|i| i.record == record);
            if let (true, Some(state)) = (installed, run.carried_state()) {
                agreed_state.clone_from(state);
            }
            Some(Ended {
                run,
                record,
                installed,
            })
        });
        if !agreed.identifies(&agreed_state) {
            return Err(RestoreError::State);
        }
        let mut rep = Replica::new(object_id, object, members, group, agreed, agreed_state);
        rep.object.apply_state(&rep.agreed_state);
        rep.detached = detached || !rep.is_member(me);
        rep.active = active;
        rep.queued = queued;
        rep.logged = logged;
        let mut pruned_at = None;
        let window_records = |s: &&Seen| s.record < logged || Some(s.record) == end;
        for seen in history.seen.iter().filter(window_records) {
            if pruned_at != Some(seen.at) {
                rep.prune_seen_at(seen.at, window);
                pruned_at = Some(seen.at);
            }
            rep.see(seen.run, seen.tuple, seen.at);
        }
        rep.prune_seen(window);
        let replies = &history.replies;
        for (run, record) in &replies[replies.len().saturating_sub(cap)..] {
            rep.replies.push_small((*run, *record));
        }
        rep.core_dirty = ended.is_some() || welcome.is_some();
        Ok((rep, ended))
    }
}

/// Why a replica is not restored: its log and its checkpoint disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, thiserror::Error)]
pub enum RestoreError {
    /// The log installs past the checkpoint's mark, other than by ending
    /// the checkpoint's active run.
    #[error("the log installs past what the checkpoint reaches")]
    Ahead,
    /// Neither the log nor the checkpoint establishes a group.
    #[error("neither the log nor the checkpoint founds a group")]
    NoGroup,
    /// The state bytes do not hash to the agreed tuple.
    #[error("the state bytes do not hash to the agreed tuple")]
    State,
}

/// A checkpoint's active run that the log shows ended: the end of a step
/// whose last checkpoint write did not land.
#[derive(Debug)]
pub struct Ended {
    /// The run, as the checkpoint held it.
    pub run: ActiveRun,
    /// The sequence number of the record that ended it.
    pub record: u64,
    /// Whether that record installed the run.
    pub installed: bool,
}

/// Finishes a checkpoint blob, trimmed to its length: the in-memory stores
/// keep it as handed over for as long as the replica lives, and a process
/// holds thousands of replicas.
fn finish_doc(enc: Encoder) -> Vec<u8> {
    let mut blob = enc.finish();
    blob.shrink_to_fit();
    blob
}

/// The checkpoint document, key `obj-<id>`: the bytes of the replica that
/// its log does not hold. Written by every step that changes one of its
/// fields, the active run included, after the records it depends on are
/// flushed.
///
/// Layout: [`SNAPSHOT_FORMAT`], the log mark, the optional founding (group
/// and agreed tuple), the optional welcome (answer and signature), the
/// agreed state (length-prefixed raw bytes), the active run (its messages
/// exactly as they travel on the wire), queued requests, detached.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreDoc {
    /// The length of the evidence log when the document was written.
    pub logged: u64,
    /// A founder's genesis group and tuple, while it has logged no
    /// proposal.
    pub founding: Option<(GroupId, StateId)>,
    /// The answer that admitted a joiner, in the document put before the
    /// answer is logged; recovery logs it if the log lacks it.
    pub welcome: Option<Welcome>,
    /// Agreed state bytes.
    pub agreed_state: Vec<u8>,
    /// The active run, if one was in progress.
    pub active: Option<ActiveRun>,
    /// Deferred membership requests.
    pub queued: Vec<MemberRequestMsg>,
    /// Whether the party had left the group; the log records every leave
    /// but a sole member's.
    pub detached: bool,
}

/// The fields of a core document, borrowed from wherever they live.
struct CoreRef<'a> {
    logged: u64,
    founding: Option<(&'a GroupId, &'a StateId)>,
    welcome: Option<&'a Welcome>,
    agreed_state: &'a [u8],
    active: &'a Option<ActiveRun>,
    queued: &'a [MemberRequestMsg],
    detached: bool,
}

impl CoreRef<'_> {
    fn to_bytes(&self) -> Vec<u8> {
        let hint = 256
            + self.agreed_state.len()
            + if self.active.is_some() { 2048 } else { 0 }
            + 512 * self.queued.len();
        let mut enc = Encoder::with_capacity(hint);
        enc.put_u8(SNAPSHOT_FORMAT);
        enc.put_u64(self.logged);
        enc.put_bool(self.founding.is_some());
        if let Some((group, agreed)) = self.founding {
            group.encode(&mut enc);
            agreed.encode(&mut enc);
        }
        enc.put_bool(self.welcome.is_some());
        if let Some((answer, sig)) = self.welcome {
            answer.encode(&mut enc);
            sig.encode(&mut enc);
        }
        enc.put_bytes(self.agreed_state);
        self.active.encode(&mut enc);
        encode_seq(self.queued, &mut enc);
        enc.put_bool(self.detached);
        finish_doc(enc)
    }
}

impl CoreDoc {
    /// The blob written to the snapshot store.
    pub fn to_bytes(&self) -> Vec<u8> {
        CoreRef {
            logged: self.logged,
            founding: self.founding.as_ref().map(|(g, a)| (g, a)),
            welcome: self.welcome.as_ref(),
            agreed_state: &self.agreed_state,
            active: &self.active,
            queued: &self.queued,
            detached: self.detached,
        }
        .to_bytes()
    }

    /// Decodes a blob written by [`CoreDoc::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CoreDoc, DecodeError> {
        let mut dec = snapshot_decoder(bytes)?;
        let logged = dec.get_u64()?;
        let founding = if dec.get_bool()? {
            Some((GroupId::decode(&mut dec)?, StateId::decode(&mut dec)?))
        } else {
            None
        };
        let welcome = if dec.get_bool()? {
            Some((
                MemberAnswer::decode(&mut dec)?,
                Signature::decode(&mut dec)?,
            ))
        } else {
            None
        };
        let doc = CoreDoc {
            logged,
            founding,
            welcome,
            agreed_state: Vec::<u8>::decode(&mut dec)?,
            active: Option::<ActiveRun>::decode(&mut dec)?,
            queued: decode_seq(&mut dec, MIN_MSG_BYTES)?,
            detached: dec.get_bool()?,
        };
        dec.finish()?;
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use crate::history::Seen;
    use b2b_crypto::{sha256, TimeMs};
    use b2b_evidence::{EvidenceRecord, MemStore};
    use std::collections::HashMap;

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

    fn decide(run: RunId) -> DecideMsg {
        DecideMsg {
            object: ObjectId::new("obj"),
            run,
            authenticator: [0; 32],
            responses: Vec::new(),
        }
    }

    fn leaving() -> ActiveRun {
        let request = crate::messages::MemberRequest {
            object: ObjectId::new("obj"),
            requester: PartyId::new("a"),
            change: crate::messages::MemberChange::Leave,
            nonce_hash: sha256(b"n"),
        };
        let sig = b2b_crypto::Signer::sign(
            &b2b_crypto::KeyPair::generate_from_seed(1),
            &request.canonical_bytes(),
        );
        ActiveRun::Leaving(Box::new(LeavingRun {
            request: MemberRequestMsg { request, sig },
            sponsor: PartyId::new("b"),
        }))
    }

    /// Writes the core document of `r` into `store` if it is stale, as
    /// `persist` does, over a log of 0 records.
    fn checkpoint(r: &mut Replica, store: &mut HashMap<String, Vec<u8>>) {
        if let Some(blob) = r.take_stale_core(0) {
            store.insert("core".into(), blob);
            r.core_written();
        }
    }

    /// Logs the decide of `run` in `log`, as a proposer's `finalize` does,
    /// and remembers it as the run's re-reply. Returns the record's seq.
    fn remember(r: &mut Replica, log: &MemStore, run: RunId, cap: usize) -> u64 {
        let record = EvidenceRecord::new(
            EvidenceKind::StateDecide,
            "obj",
            run.to_hex(),
            PartyId::new("a"),
            decide(run).canonical_bytes(),
            None,
            None,
            TimeMs(0),
        );
        let seq = log.append(record).unwrap();
        r.remember_reply(run, Some(seq), cap);
        seq
    }

    /// The retained re-reply of `run`, read back from `log`.
    fn reply(r: &Replica, log: &MemStore, run: RunId) -> Option<WireMsg> {
        r.completed_reply(&run, log)
    }

    /// A history that establishes nothing: the founder's own, before it
    /// proposes.
    fn empty() -> History {
        History::default()
    }

    fn restore_from(
        history: &History,
        core: CoreDoc,
        cap: usize,
    ) -> Result<(Replica, Option<Ended>), RestoreError> {
        Replica::restore(
            ObjectId::new("obj"),
            Box::new(Bytes(b"99".to_vec())),
            &PartyId::new("a"),
            history,
            core,
            cap,
            8,
        )
    }

    /// The founder's replica back from `store` and an empty history.
    fn restore(store: &HashMap<String, Vec<u8>>) -> Replica {
        let core = CoreDoc::from_bytes(&store["core"]).unwrap();
        let (rep, ended) = restore_from(&empty(), core, 4).unwrap();
        assert!(ended.is_none());
        rep
    }

    fn assert_same(a: &Replica, b: &Replica) {
        assert_eq!(a.members, b.members);
        assert_eq!(a.group, b.group);
        assert_eq!(a.agreed, b.agreed);
        assert_eq!(a.agreed_state, b.agreed_state);
        assert_eq!(a.replay_window(), b.replay_window());
        assert_eq!(a.active, b.active);
        assert_eq!(a.queued, b.queued);
        assert_eq!(a.completed(), b.completed());
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
            r.sponsor_for(&[PartyId::new("c")]),
            Some(&PartyId::new("b"))
        );
        assert_eq!(
            r.sponsor_for(&[PartyId::new("b")]),
            Some(&PartyId::new("c"))
        );
        assert_eq!(
            r.sponsor_for(&[PartyId::new("a"), PartyId::new("b"), PartyId::new("c")]),
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
        let log = MemStore::new();
        let mut r = replica(&["a", "b"]);
        for i in 0..5 {
            remember(&mut r, &log, run_id(i), 3);
        }
        let kept: Vec<RunId> = r.completed().iter().map(|(run, _)| *run).collect();
        assert_eq!(kept, vec![run_id(2), run_id(3), run_id(4)]);
        assert_eq!(
            r.replies.capacity(),
            3,
            "the ring is sized to what it holds"
        );
        // The retained replies read back from their records as the decides
        // logged, each under its record's seq; an evicted one does not,
        // though the log still holds its record.
        let decided = |i| Some(WireMsg::Decide(decide(run_id(i))));
        assert_eq!(reply(&r, &log, run_id(4)), decided(4));
        assert_eq!(reply(&r, &log, run_id(0)), None);
        let records: Vec<u64> = r.completed().iter().map(|(_, seq)| *seq).collect();
        assert_eq!(records, vec![2, 3, 4]);
        // Zero cap retains nothing, and neither does a failed append.
        let mut empty = replica(&["a", "b"]);
        empty.remember_reply(run_id(9), Some(0), 0);
        empty.remember_reply(run_id(9), None, 3);
        assert!(empty.completed().is_empty());
        // Remembering a reply is no change to the core document.
        empty.take_stale_core(0);
        empty.remember_reply(run_id(9), Some(4), 3);
        assert!(!empty.core_is_stale());
    }

    #[test]
    fn a_re_reply_reads_only_its_own_run_s_record() {
        let log = MemStore::new();
        let mut r = replica(&["a", "b"]);
        let seq = remember(&mut r, &log, run_id(1), 4);
        // A ring entry naming a record of another run is no reply.
        r.remember_reply(run_id(2), Some(seq), 4);
        assert_eq!(reply(&r, &log, run_id(2)), None);
        // Nor is one past the end of the log.
        r.remember_reply(run_id(3), Some(seq + 1), 4);
        assert_eq!(reply(&r, &log, run_id(3)), None);
        assert_eq!(
            reply(&r, &log, run_id(1)),
            Some(WireMsg::Decide(decide(run_id(1))))
        );
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
    }

    #[test]
    fn a_replayed_run_keeps_its_first_seen_at_and_one_entry() {
        let mut r = replica(&["a"]);
        r.note_seen(run_id(1), None);
        r.agreed.seq = 5;
        r.note_seen(run_id(1), None);
        assert_eq!(r.replay_window().0, vec![(run_id(1), 0)]);
    }

    /// A founder's replica with twenty state installs and a re-reply for
    /// each: its core document in `store`, the decides in `log`, and the
    /// history of that log.
    fn founder_with_history(
        store: &mut HashMap<String, Vec<u8>>,
        log: &MemStore,
        cap: usize,
    ) -> (Replica, History) {
        let window = 8;
        let mut r = replica(&["a"]);
        let mut history = empty();
        // Twenty proposals, one per install, and each seen again later:
        // a replay inside the window keeps its first `seen_at`, one past
        // it enters afresh.
        for i in 0..20u64 {
            for run in [i, i.saturating_sub(3), i.saturating_sub(12)] {
                let tuple = Some((run + 1, sha256(&[run as u8])));
                let at = r.agreed.seq;
                r.note_seen(run_id(run), tuple);
                let record = history.seen.len() as u64;
                let run = run_id(run);
                history.seen.push(Seen {
                    record,
                    run,
                    tuple,
                    at,
                });
            }
            let state = i.to_string().into_bytes();
            let id = StateId {
                seq: i + 1,
                rand_hash: sha256(&[i as u8]),
                state_hash: sha256(&state),
            };
            r.install_state(id, state, window);
            let seq = remember(&mut r, log, run_id(i), cap);
            history.replies.push((run_id(i), seq));
        }
        let members = r.members.clone();
        let (group, tuple, run) = (r.group, r.agreed, run_id(19));
        history.installs.push(crate::history::Install {
            record: history.seen.len() as u64 - 1,
            by: EvidenceKind::StatePropose,
            tuple,
            members,
            group,
            run,
        });
        let blob = r.take_stale_core(history.seen.len() as u64).unwrap();
        store.insert("core".into(), blob);
        (r, history)
    }

    #[test]
    fn restore_reads_the_group_the_tuple_the_window_and_the_ring_from_the_history() {
        let cap = 4;
        let (mut store, log) = (HashMap::new(), MemStore::new());
        let (r, history) = founder_with_history(&mut store, &log, cap);
        let core = CoreDoc::from_bytes(&store["core"]).unwrap();
        assert_eq!(core.founding, None, "the log founds the group");
        let (back, ended) = restore_from(&history, core, cap).unwrap();
        assert!(ended.is_none());
        assert_same(&back, &r);
        // Run 1 expired, and its replay twelve installs later entered
        // afresh; run 9's replay three installs on kept its first sighting,
        // which has since expired.
        assert!(back.has_seen_run(&run_id(1)) && !back.has_seen_run(&run_id(9)));
        assert_eq!(back.object.get_state(), b"19".to_vec());
        // The ring is the history's last `cap` replies, read from the log.
        let kept: Vec<RunId> = back.completed().iter().map(|(run, _)| *run).collect();
        assert_eq!(kept, (16..20).map(run_id).collect::<Vec<_>>());
        assert_eq!(
            reply(&back, &log, run_id(19)),
            Some(WireMsg::Decide(decide(run_id(19))))
        );
        let mut back = back;
        assert!(back.take_stale_core(0).is_none(), "nothing is stale");
    }

    #[test]
    fn restore_refuses_what_the_log_does_not_bear_out() {
        let cap = 4;
        let (mut store, log) = (HashMap::new(), MemStore::new());
        let (_, history) = founder_with_history(&mut store, &log, cap);
        let core = || CoreDoc::from_bytes(&store["core"]).unwrap();
        // State bytes that do not hash to the log's agreed tuple.
        let mut edited = core();
        edited.agreed_state = b"18".to_vec();
        let refused = restore_from(&history, edited, cap);
        assert_eq!(refused.err(), Some(RestoreError::State));
        // An install past the checkpoint's mark that ends no run of it.
        let mut behind = core();
        behind.logged -= 1;
        let refused = restore_from(&history, behind, cap);
        assert_eq!(refused.err(), Some(RestoreError::Ahead));
        // A history with no group, and a checkpoint with no founding.
        let mut unfounded = core();
        unfounded.logged = 0;
        let refused = restore_from(&empty(), unfounded, cap);
        assert_eq!(refused.err(), Some(RestoreError::NoGroup));
    }

    #[test]
    fn a_founder_that_logged_nothing_restores_from_its_founding() {
        let mut store = HashMap::new();
        let mut r = replica(&["a"]);
        checkpoint(&mut r, &mut store);
        let core = CoreDoc::from_bytes(&store["core"]).unwrap();
        assert_eq!(core.founding, Some((r.group, r.agreed)));
        // Alone, it leaves without a word to anyone: only the checkpoint
        // knows.
        r.detach();
        checkpoint(&mut r, &mut store);
        let back = restore(&store);
        assert_same(&back, &r);
        assert!(back.is_detached());
    }

    #[test]
    fn restore_keeps_the_active_run_of_the_last_core_document() {
        let mut store = HashMap::new();
        let mut r = replica(&["a"]);
        checkpoint(&mut r, &mut store);
        // A run starts and completes — and the crash lands before the core
        // document that ends it.
        r.start_run(leaving());
        checkpoint(&mut r, &mut store);
        r.finish_run();
        assert_eq!(restore(&store).active, Some(leaving()));
        // Once the core document lands, the run is over.
        checkpoint(&mut r, &mut store);
        assert_eq!(restore(&store).active, None);
    }

    #[test]
    fn a_welcome_rides_in_one_core_document() {
        let mut store = HashMap::new();
        let mut r = replica(&["a", "b"]);
        let answer = MemberAnswer {
            object: ObjectId::new("obj"),
            sponsor: PartyId::new("a"),
            request_digest: sha256(b"join"),
            verdict: crate::messages::MemberVerdict::Rejected,
        };
        let sig = b2b_crypto::Signer::sign(
            &b2b_crypto::KeyPair::generate_from_seed(1),
            &answer.canonical_bytes(),
        );
        r.hold_welcome((answer.clone(), sig.clone()));
        checkpoint(&mut r, &mut store);
        let core = CoreDoc::from_bytes(&store["core"]).unwrap();
        assert_eq!(core.welcome, Some((answer, sig)));
        // The next document, written after the welcome is logged, leaves
        // it out.
        checkpoint(&mut r, &mut store);
        let core = CoreDoc::from_bytes(&store["core"]).unwrap();
        assert_eq!(core.welcome, None);
        assert!(r.take_stale_core(0).is_none());
    }

    #[test]
    fn restore_installs_the_checkpointed_state_into_the_object() {
        let mut store = HashMap::new();
        checkpoint(&mut replica(&["a"]), &mut store);
        let back = restore(&store);
        assert_eq!(back.object.get_state(), b"0".to_vec());
    }
}
