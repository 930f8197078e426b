//! Wire messages of the coordination protocols.
//!
//! Every message separates a **signed part** (a struct with a canonical
//! byte encoding, carried with its signature) from **unsigned parts**
//! (bulk state/update bytes, aggregations of other parties' signed
//! messages). Unsigned bulk data is bound into the signed part by hash, so
//! Dolev-Yao tampering with unsigned bytes is always detectable (§4.4).
//!
//! Every coordination round is three steps:
//! `m1` [`ProposeMsg`] → `m2` [`RespondMsg`] → `m3` [`DecideMsg`], i.e.
//! `3(n−1)` messages for `n` parties. What the round agrees on is the
//! proposal's [`ProposalKind`]: a state transition (§4.3), or a membership
//! change (§4.5), which is the same round with the requester's signed
//! [`MemberRequestMsg`] as its body, preceded by that request to the
//! sponsor and followed by the sponsor's [`MemberAnswerMsg`] to the
//! subject of a join or leave.
//!
//! # Wire format
//!
//! [`WireMsg::to_bytes`] is `[WIRE_FORMAT][variant tag][message]`, where the
//! message is its [`CanonicalEncode`] form: every signed part appears as its
//! canonical bytes *verbatim*, followed by the unsigned fields and the
//! signature. [`WireMsg::from_bytes`] decodes strictly, so the slice a
//! signed part was read from is byte-for-byte what the sender signed; `m1`
//! and `m2` seed their [`CachedCanonical`] memo from that slice and the
//! receiver verifies the signature over the bytes it actually received.

use crate::decision::Decision;
use crate::ids::{GroupId, ObjectId, RunId, StateId};
use b2b_crypto::canonical::{decode_seq, encode_seq};
use b2b_crypto::{
    CachedCanonical, CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Digest32, Encoder,
    PartyId, Signature,
};
use std::sync::Arc;

/// Lower bounds on encoded sizes, for [`Decoder::get_count`]: a sequence
/// count is rejected unless that many elements could fit in what remains.
/// A party id is at least its length prefix; a signed response carries at
/// least two 72-byte identifier tuples.
pub(crate) const MIN_PARTY_BYTES: usize = 8;
const MIN_RESPOND_BYTES: usize = 144;

/// Generates the codec of a message that is exactly `{signed part, sig}`.
macro_rules! signed_msg_codec {
    ($msg:ident { $part:ident: $part_ty:ty }) => {
        impl CanonicalEncode for $msg {
            fn encode(&self, enc: &mut Encoder) {
                self.$part.encode(enc);
                self.sig.encode(enc);
            }
        }

        impl CanonicalDecode for $msg {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok($msg {
                    $part: <$part_ty>::decode(dec)?,
                    sig: Signature::decode(dec)?,
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// State coordination (§4.3)
// ---------------------------------------------------------------------------

/// One update's link in the hash chain of a batched proposal.
///
/// A batch of `k` updates is one state transition (`seq` advances by one),
/// but the §4.2 chaining obligation holds *per update*: link `i` binds the
/// bytes of update `i` (`update_hash`) and the hash of the state reached by
/// applying updates `0..=i` in order to the agreed state (`state_hash`).
/// Both digests sit in the signed part, so a recipient replaying the batch
/// detects a forged or stale update at its exact index and can attribute it
/// to the proposal's signer (§4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchLink {
    /// `H(u_i)`: hash of the i-th update's bytes.
    pub update_hash: Digest32,
    /// Hash of the state after applying updates `0..=i` to the agreed
    /// state. The last link's `state_hash` must equal the proposed tuple's
    /// state hash.
    pub state_hash: Digest32,
}

impl CanonicalEncode for BatchLink {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.update_hash);
        enc.put_digest(&self.state_hash);
    }
}

impl CanonicalDecode for BatchLink {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BatchLink {
            update_hash: dec.get_digest()?,
            state_hash: dec.get_digest()?,
        })
    }
}

/// What a round agrees on: a state transition — an overwrite, an update
/// delta (§4.3.1) or an ordered batch of update deltas — or a membership
/// change (§4.5). A membership round proposes the agreed tuple unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProposalKind {
    /// The unsigned body is the complete new state.
    Overwrite,
    /// The unsigned body is an update `u_P`; the signed part carries
    /// `H(u_P)` and the proposed tuple still carries the hash of the state
    /// *after* application, so recipients "can determine that, if the
    /// update is agreed and applied, a consistent new state will result".
    Update {
        /// `H(u_P)`.
        update_hash: Digest32,
    },
    /// The unsigned body is an ordered sequence of updates
    /// (see [`encode_batch_body`]); the signed part carries one
    /// [`BatchLink`] per update so every §4.2 check still runs per update.
    /// The whole batch is one state transition: it installs atomically or
    /// not at all.
    Batch {
        /// Per-update hash chain, in application order.
        links: Vec<BatchLink>,
    },
    /// The membership change `requester` asked for (§4.5). The unsigned
    /// body is the signed [`MemberRequestMsg`], bound by `request_digest`.
    Member {
        /// Digest of the signed request.
        request_digest: Digest32,
        /// Who signed the request: the subject of a join or leave.
        requester: PartyId,
        /// The change requested.
        change: MemberChange,
        /// The group that results from the change (`gid_new`).
        new_group: GroupId,
    },
}

impl ProposalKind {
    /// `true` for a connection or disconnection.
    pub fn is_membership(&self) -> bool {
        matches!(self, ProposalKind::Member { .. })
    }

    /// The members the round removes from the group.
    pub fn leavers(&self) -> &[PartyId] {
        match self {
            ProposalKind::Member {
                requester, change, ..
            } => change.leavers(requester),
            _ => &[],
        }
    }

    /// The member list (join order) once the round installs: the
    /// members of a state round, or the members after the change.
    pub fn new_members(&self, members: &[PartyId]) -> Vec<PartyId> {
        match self {
            ProposalKind::Member {
                requester, change, ..
            } => change.new_members(requester, members),
            _ => members.to_vec(),
        }
    }
}

impl CanonicalEncode for ProposalKind {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ProposalKind::Overwrite => enc.put_u8(0),
            ProposalKind::Update { update_hash } => {
                enc.put_u8(1);
                enc.put_digest(update_hash);
            }
            ProposalKind::Batch { links } => {
                enc.put_u8(2);
                encode_seq(links, enc);
            }
            ProposalKind::Member {
                request_digest,
                requester,
                change,
                new_group,
            } => {
                enc.put_u8(3);
                enc.put_digest(request_digest);
                requester.encode(enc);
                change.encode(enc);
                new_group.encode(enc);
            }
        }
    }
}

impl CanonicalDecode for ProposalKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => Ok(ProposalKind::Overwrite),
            1 => Ok(ProposalKind::Update {
                update_hash: dec.get_digest()?,
            }),
            2 => Ok(ProposalKind::Batch {
                links: decode_seq(dec, 64)?,
            }),
            3 => Ok(ProposalKind::Member {
                request_digest: dec.get_digest()?,
                requester: PartyId::decode(dec)?,
                change: MemberChange::decode(dec)?,
                new_group: GroupId::decode(dec)?,
            }),
            _ => DecodeError::at("unknown proposal kind", at),
        }
    }
}

/// Serialises an ordered batch of update byte-strings into one unsigned
/// `m1` body. Length-prefixed (u32 big-endian per update), so update
/// boundaries survive the wire without relying on the updates' own framing.
pub fn encode_batch_body(updates: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = updates.iter().map(|u| 4 + u.len()).sum();
    let mut out = Vec::with_capacity(total);
    for u in updates {
        out.extend_from_slice(&(u.len() as u32).to_be_bytes());
        out.extend_from_slice(u);
    }
    out
}

/// Parses a batched `m1` body back into its ordered updates; `None` for
/// malformed framing (truncated length or trailing garbage).
pub fn decode_batch_body(body: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut updates = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        if rest.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
        rest = &rest[4..];
        if rest.len() < len {
            return None;
        }
        updates.push(rest[..len].to_vec());
        rest = &rest[len..];
    }
    Some(updates)
}

/// The signed part of `m1`: identifies proposer and group, and "specifies
/// the proposed state transition from `t_agreed` to `t_prop`" with the
/// commitment `H(r_P)` to the run authenticator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// The shared object.
    pub object: ObjectId,
    /// The proposing party `P_P`.
    pub proposer: PartyId,
    /// The proposer's view of the group, `gid_P`.
    pub group: GroupId,
    /// The agreed state this transition starts from (`t_agreed`).
    pub prev: StateId,
    /// The proposed new state tuple (`t_prop`).
    pub proposed: StateId,
    /// Commitment `H(r_P)` to the authenticator revealed in `m3`.
    pub auth_commit: Digest32,
    /// What the round agrees on.
    pub kind: ProposalKind,
}

impl CanonicalEncode for Proposal {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.proposer.encode(enc);
        self.group.encode(enc);
        self.prev.encode(enc);
        self.proposed.encode(enc);
        enc.put_digest(&self.auth_commit);
        self.kind.encode(enc);
    }
}

impl CanonicalDecode for Proposal {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Proposal {
            object: ObjectId::decode(dec)?,
            proposer: PartyId::decode(dec)?,
            group: GroupId::decode(dec)?,
            prev: StateId::decode(dec)?,
            proposed: StateId::decode(dec)?,
            auth_commit: dec.get_digest()?,
            kind: ProposalKind::decode(dec)?,
        })
    }
}

impl Proposal {
    /// The run label this proposal starts.
    pub fn run_id(&self) -> RunId {
        RunId::from_bytes(&self.canonical_bytes())
    }

    /// The members of `members` that respond: all but the proposer and
    /// the subjects of a membership change — the leavers, or a joiner, so
    /// the members before the change and after it give the same answer.
    pub fn polled(&self, members: &[PartyId]) -> Vec<PartyId> {
        members.iter().filter(|m| self.polls(m)).cloned().collect()
    }

    /// Whether `member` responds: it is not the proposer, nor a subject.
    pub fn polls(&self, member: &PartyId) -> bool {
        let joiner = match &self.kind {
            ProposalKind::Member {
                requester,
                change: MemberChange::Join,
                ..
            } => Some(requester),
            _ => None,
        };
        *member != self.proposer && !self.kind.leavers().contains(member) && joiner != Some(member)
    }
}

/// `m1`: signed proposal + unsigned body (state or update bytes, or the
/// subject's signed request).
#[derive(Clone, Debug, PartialEq)]
pub struct ProposeMsg {
    /// The signed part.
    pub proposal: Proposal,
    /// The unsigned body: full state for overwrites, `u_P` for updates,
    /// the framed updates of a batch, the signed request of a membership
    /// change.
    pub body: Vec<u8>,
    /// The proposer's signature over the proposal's canonical bytes.
    pub sig: Signature,
    /// Memo of the proposal's canonical encoding: computed on first use for
    /// a locally built message, seeded from the received slice for one
    /// decoded off the wire, kept across clones.
    pub memo: CachedCanonical,
}

impl ProposeMsg {
    /// Canonical bytes of the signed proposal, encoded once per message
    /// lifetime.
    pub fn proposal_bytes(&self) -> Arc<[u8]> {
        self.memo.get_or_encode(&self.proposal).0
    }

    /// SHA-256 digest of the proposal's canonical bytes.
    pub fn proposal_digest(&self) -> Digest32 {
        self.memo.get_or_encode(&self.proposal).1
    }

    /// The run label this proposal starts (digest of the signed part),
    /// derived from the memo rather than a fresh encoding.
    pub fn run_id(&self) -> RunId {
        RunId(self.proposal_digest())
    }
}

impl CanonicalEncode for ProposeMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.proposal.encode(enc);
        enc.put_bytes(&self.body);
        self.sig.encode(enc);
    }

    fn encoded_size_hint(&self) -> usize {
        let links = match &self.proposal.kind {
            ProposalKind::Batch { links } => links.len(),
            _ => 0,
        };
        512 + 64 * links + self.body.len()
    }
}

impl CanonicalDecode for ProposeMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let start = dec.position();
        let proposal = Proposal::decode(dec)?;
        let memo = CachedCanonical::from_received(dec.consumed_since(start));
        Ok(ProposeMsg {
            proposal,
            body: Vec::<u8>::decode(dec)?,
            sig: Signature::decode(dec)?,
            memo,
        })
    }
}

/// The signed part of `m2`: "a receipt from `R_i` for the proposal and a
/// signed decision on its validity. Inclusion of `t_prop`, `t_agreed` and
/// `gid_i` permits systematic consistency checks."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The shared object.
    pub object: ObjectId,
    /// The responding party `R_i`.
    pub responder: PartyId,
    /// The responder's view of the group.
    pub group: GroupId,
    /// The run being responded to (digest of the signed proposal — the
    /// receipt linkage).
    pub run: RunId,
    /// The responder's current agreed state tuple.
    pub prev: StateId,
    /// Echo of the proposed tuple.
    pub proposed: StateId,
    /// The responder's assertion of the integrity (or otherwise) of the
    /// unsigned body with respect to the hashes in the signed proposal.
    pub body_ok: bool,
    /// The responder's decision on the validity of the transition.
    pub decision: Decision,
}

impl CanonicalEncode for Response {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.responder.encode(enc);
        self.group.encode(enc);
        self.run.encode(enc);
        self.prev.encode(enc);
        self.proposed.encode(enc);
        enc.put_bool(self.body_ok);
        self.decision.encode(enc);
    }
}

impl CanonicalDecode for Response {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Response {
            object: ObjectId::decode(dec)?,
            responder: PartyId::decode(dec)?,
            group: GroupId::decode(dec)?,
            run: RunId::decode(dec)?,
            prev: StateId::decode(dec)?,
            proposed: StateId::decode(dec)?,
            body_ok: dec.get_bool()?,
            decision: Decision::decode(dec)?,
        })
    }
}

/// `m2`: signed response.
#[derive(Clone, Debug, PartialEq)]
pub struct RespondMsg {
    /// The signed part.
    pub response: Response,
    /// The responder's signature over the response's canonical bytes.
    pub sig: Signature,
    /// Memo of the response's canonical encoding (see
    /// [`ProposeMsg::memo`]).
    pub memo: CachedCanonical,
}

impl RespondMsg {
    /// Canonical bytes of the signed response, encoded once per message
    /// lifetime.
    pub fn response_bytes(&self) -> Arc<[u8]> {
        self.memo.get_or_encode(&self.response).0
    }

    /// `true` if the response counts against the proposal: a rejection,
    /// or an accept of a body that contradicts the signed hashes.
    pub fn vetoes(&self) -> bool {
        !self.response.decision.is_accept() || !self.response.body_ok
    }
}

impl CanonicalEncode for RespondMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.response.encode(enc);
        self.sig.encode(enc);
    }

    fn encoded_size_hint(&self) -> usize {
        512
    }
}

impl CanonicalDecode for RespondMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let start = dec.position();
        let response = Response::decode(dec)?;
        let memo = CachedCanonical::from_received(dec.consumed_since(start));
        Ok(RespondMsg {
            response,
            sig: Signature::decode(dec)?,
            memo,
        })
    }
}

/// `m3`: "the aggregation of all decisions and of the non-repudiation
/// evidence in the form of signed proposals and responses. Any party can
/// compute the group's decision … `m3` requires no signature since only
/// `P_P` can produce the authenticator `r_P`."
#[derive(Clone, Debug, PartialEq)]
pub struct DecideMsg {
    /// The shared object.
    pub object: ObjectId,
    /// The run being decided.
    pub run: RunId,
    /// The revealed authenticator `r_P` (preimage of the proposal's
    /// `auth_commit`).
    pub authenticator: [u8; 32],
    /// Every recipient's signed response.
    pub responses: Vec<RespondMsg>,
}

/// The canonical form of a [`DecideMsg`] is also the payload of the
/// `StateDecide` evidence record of every round kind, which `dispute` and
/// the auditors parse back with
/// [`CanonicalDecode::from_canonical`].
impl CanonicalEncode for DecideMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        enc.put_raw(&self.authenticator);
        encode_seq(&self.responses, enc);
    }

    fn encoded_size_hint(&self) -> usize {
        128 + 512 * self.responses.len()
    }
}

impl CanonicalDecode for DecideMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DecideMsg {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            authenticator: dec.get_array()?,
            responses: decode_seq(dec, MIN_RESPOND_BYTES)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The subject's request and the sponsor's answer (§4.5)
// ---------------------------------------------------------------------------

/// The membership change a [`MemberRequest`] asks for. A join and a leave
/// name their requester as the subject, so nobody can ask for someone
/// else's admission or voluntary departure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberChange {
    /// Admit the requester (§4.5.3).
    Join,
    /// Remove the requester: a voluntary departure, which cannot be vetoed
    /// (§4.5.4) — a leaver could simply stop cooperating.
    Leave,
    /// Remove `subjects`, a vetoable eviction proposed by the requester
    /// (§4.5.4, including subset eviction).
    Evict {
        /// The member(s) to evict.
        subjects: Vec<PartyId>,
    },
}

impl MemberChange {
    /// The members the change removes, for a request by `requester`.
    pub fn leavers<'a>(&'a self, requester: &'a PartyId) -> &'a [PartyId] {
        match self {
            MemberChange::Join => &[],
            MemberChange::Leave => std::slice::from_ref(requester),
            MemberChange::Evict { subjects } => subjects,
        }
    }

    /// The member list (join order) after the change, requested by
    /// `requester`: `members` without the leavers, then a joining
    /// requester.
    pub fn new_members(&self, requester: &PartyId, members: &[PartyId]) -> Vec<PartyId> {
        let leavers = self.leavers(requester);
        let mut next: Vec<PartyId> = members
            .iter()
            .filter(|m| !leavers.contains(m))
            .cloned()
            .collect();
        if *self == MemberChange::Join {
            next.push(requester.clone());
        }
        next
    }
}

impl CanonicalEncode for MemberChange {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            MemberChange::Join => enc.put_u8(0),
            MemberChange::Leave => enc.put_u8(1),
            MemberChange::Evict { subjects } => {
                enc.put_u8(2);
                encode_seq(subjects, enc);
            }
        }
    }
}

impl CanonicalDecode for MemberChange {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => Ok(MemberChange::Join),
            1 => Ok(MemberChange::Leave),
            2 => Ok(MemberChange::Evict {
                subjects: decode_seq(dec, MIN_PARTY_BYTES)?,
            }),
            _ => DecodeError::at("unknown member change", at),
        }
    }
}

/// The signed part of a membership request: `requester` asks the sponsor
/// of `object`'s group for `change`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberRequest {
    /// The object.
    pub object: ObjectId,
    /// The requesting party, who signs the request.
    pub requester: PartyId,
    /// What the request asks for.
    pub change: MemberChange,
    /// `H(r)`: hash of a random uniquely labelling this request.
    pub nonce_hash: Digest32,
}

impl CanonicalEncode for MemberRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.requester.encode(enc);
        self.change.encode(enc);
        enc.put_digest(&self.nonce_hash);
    }
}

impl CanonicalDecode for MemberRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MemberRequest {
            object: ObjectId::decode(dec)?,
            requester: PartyId::decode(dec)?,
            change: MemberChange::decode(dec)?,
            nonce_hash: dec.get_digest()?,
        })
    }
}

impl MemberRequest {
    /// The members the request would remove.
    pub fn leavers(&self) -> &[PartyId] {
        self.change.leavers(&self.requester)
    }
}

/// Requester → sponsor: a signed membership request. Members forward a
/// request to the current sponsor unchanged; the requester's signature
/// authenticates it wherever it arrives.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberRequestMsg {
    /// The signed part.
    pub request: MemberRequest,
    /// The requester's signature.
    pub sig: Signature,
}

signed_msg_codec!(MemberRequestMsg {
    request: MemberRequest
});

/// How the group decided a membership request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberVerdict {
    /// The group agreed the change in round `run`: the group after it, its
    /// members in join order (an admitted subject last) and the agreed
    /// state tuple, which the change keeps.
    Accepted {
        /// The membership round.
        run: RunId,
        /// The group identifier after the change.
        group: GroupId,
        /// The member list after the change, in join order.
        members: Vec<PartyId>,
        /// The agreed state tuple.
        agreed: StateId,
    },
    /// The sponsor refused at once, or a polled member vetoed — or, for a
    /// voluntary leave, failed a consistency check. §4.5.3: on veto "the
    /// subject learns no more information than in the case of immediate
    /// rejection by the sponsor", so both are this one verdict, with no
    /// run and no decide.
    Rejected,
}

impl CanonicalEncode for MemberVerdict {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            MemberVerdict::Accepted {
                run,
                group,
                members,
                agreed,
            } => {
                enc.put_u8(0);
                run.encode(enc);
                group.encode(enc);
                encode_seq(members, enc);
                agreed.encode(enc);
            }
            MemberVerdict::Rejected => enc.put_u8(1),
        }
    }
}

impl CanonicalDecode for MemberVerdict {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        match dec.get_u8()? {
            0 => Ok(MemberVerdict::Accepted {
                run: RunId::decode(dec)?,
                group: GroupId::decode(dec)?,
                members: decode_seq(dec, MIN_PARTY_BYTES)?,
                agreed: StateId::decode(dec)?,
            }),
            1 => Ok(MemberVerdict::Rejected),
            _ => DecodeError::at("unknown member verdict", at),
        }
    }
}

/// The signed part of the sponsor's answer to a join or leave request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberAnswer {
    /// The object.
    pub object: ObjectId,
    /// The answering sponsor.
    pub sponsor: PartyId,
    /// Digest of the signed request answered.
    pub request_digest: Digest32,
    /// How the group decided.
    pub verdict: MemberVerdict,
}

impl CanonicalEncode for MemberAnswer {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.sponsor.encode(enc);
        enc.put_digest(&self.request_digest);
        self.verdict.encode(enc);
    }
}

impl CanonicalDecode for MemberAnswer {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MemberAnswer {
            object: ObjectId::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
            request_digest: dec.get_digest()?,
            verdict: MemberVerdict::decode(dec)?,
        })
    }
}

/// Sponsor → subject: the signed answer. An accepted answer carries the
/// round's decide, whose signed responses show the subject that every
/// polled member agreed; an accepted join also carries the agreed state,
/// "which can be verified against each of the signed agreed state tuples
/// supplied by members". A rejection carries neither, and decoding refuses
/// one that does.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberAnswerMsg {
    /// The signed part.
    pub answer: MemberAnswer,
    /// The decide of the accepting round.
    pub decide: Option<DecideMsg>,
    /// The agreed state bytes, bound by the verdict's `agreed` tuple.
    pub state: Option<Vec<u8>>,
    /// The sponsor's signature over the answer.
    pub sig: Signature,
}

impl CanonicalEncode for MemberAnswerMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.answer.encode(enc);
        self.decide.encode(enc);
        self.state.encode(enc);
        self.sig.encode(enc);
    }

    fn encoded_size_hint(&self) -> usize {
        let decide = self.decide.as_ref().map_or(0, |d| d.encoded_size_hint());
        512 + decide + self.state.as_ref().map_or(0, Vec::len)
    }
}

impl CanonicalDecode for MemberAnswerMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let answer = MemberAnswer::decode(dec)?;
        let at = dec.position();
        let decide = Option::<DecideMsg>::decode(dec)?;
        let state = Option::<Vec<u8>>::decode(dec)?;
        let accepted = matches!(answer.verdict, MemberVerdict::Accepted { .. });
        if decide.is_some() != accepted || (state.is_some() && !accepted) {
            return DecodeError::at("a decide and state ride only on an accepted answer", at);
        }
        Ok(MemberAnswerMsg {
            answer,
            decide,
            state,
            sig: Signature::decode(dec)?,
        })
    }
}

// ---------------------------------------------------------------------------
// TTP-certified termination (§7 extension)
// ---------------------------------------------------------------------------

/// The signed part of an appeal to the trusted third party over a blocked
/// run (§7: deadlines "require the involvement of a TTP to guarantee that
/// all honest parties terminate with the same view"). Both the proposer
/// and any blocked recipient may appeal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtpResolveRequest {
    /// The object whose run is blocked.
    pub object: ObjectId,
    /// The blocked run.
    pub run: RunId,
    /// The appealing party (the proposer, or a blocked recipient).
    pub appellant: PartyId,
    /// The full member list (join order); the TTP verifies it against the
    /// group identifier's member hash inside the signed proposal.
    pub members: Vec<PartyId>,
}

impl CanonicalEncode for TtpResolveRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        self.appellant.encode(enc);
        encode_seq(&self.members, enc);
    }
}

impl CanonicalDecode for TtpResolveRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TtpResolveRequest {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            appellant: PartyId::decode(dec)?,
            members: decode_seq(dec, MIN_PARTY_BYTES)?,
        })
    }
}

/// Appellant → TTP: appeal with the evidence the appellant holds — the
/// signed proposal plus, for the proposer, the responses collected so far.
#[derive(Clone, Debug, PartialEq)]
pub struct TtpResolveMsg {
    /// The signed part.
    pub request: TtpResolveRequest,
    /// The original signed proposal of the blocked run.
    pub propose: ProposeMsg,
    /// The responses the appellant holds (proposer: all collected;
    /// recipient: typically only its own).
    pub responses: Vec<RespondMsg>,
    /// The appellant's signature over the request.
    pub sig: Signature,
}

impl CanonicalEncode for TtpResolveMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.request.encode(enc);
        self.propose.encode(enc);
        encode_seq(&self.responses, enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for TtpResolveMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TtpResolveMsg {
            request: TtpResolveRequest::decode(dec)?,
            propose: ProposeMsg::decode(dec)?,
            responses: decode_seq(dec, MIN_RESPOND_BYTES)?,
            sig: Signature::decode(dec)?,
        })
    }
}

/// The signed part of the TTP's evidence pull from the proposer, issued
/// when a *recipient* appeals: the proposer may hold the complete response
/// set that turns an abort into a certified decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtpEvidenceRequest {
    /// The object.
    pub object: ObjectId,
    /// The run under resolution.
    pub run: RunId,
    /// The requesting TTP.
    pub ttp: PartyId,
}

impl CanonicalEncode for TtpEvidenceRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        self.ttp.encode(enc);
    }
}

impl CanonicalDecode for TtpEvidenceRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TtpEvidenceRequest {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            ttp: PartyId::decode(dec)?,
        })
    }
}

/// TTP → proposer: signed evidence pull.
#[derive(Clone, Debug, PartialEq)]
pub struct TtpEvidenceRequestMsg {
    /// The signed part.
    pub request: TtpEvidenceRequest,
    /// The TTP's signature.
    pub sig: Signature,
}

signed_msg_codec!(TtpEvidenceRequestMsg {
    request: TtpEvidenceRequest
});

/// The signed part of the proposer's evidence reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtpEvidence {
    /// The object.
    pub object: ObjectId,
    /// The run.
    pub run: RunId,
    /// The proposer supplying the evidence.
    pub proposer: PartyId,
    /// Digest over the attached response set.
    pub responses_digest: Digest32,
}

impl CanonicalEncode for TtpEvidence {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        self.proposer.encode(enc);
        enc.put_digest(&self.responses_digest);
    }
}

impl CanonicalDecode for TtpEvidence {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TtpEvidence {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            proposer: PartyId::decode(dec)?,
            responses_digest: dec.get_digest()?,
        })
    }
}

/// Proposer → TTP: the responses it holds for the run.
#[derive(Clone, Debug, PartialEq)]
pub struct TtpEvidenceMsg {
    /// The signed part.
    pub evidence: TtpEvidence,
    /// The attached responses.
    pub responses: Vec<RespondMsg>,
    /// The proposer's signature.
    pub sig: Signature,
}

impl CanonicalEncode for TtpEvidenceMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.evidence.encode(enc);
        encode_seq(&self.responses, enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for TtpEvidenceMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TtpEvidenceMsg {
            evidence: TtpEvidence::decode(dec)?,
            responses: decode_seq(dec, MIN_RESPOND_BYTES)?,
            sig: Signature::decode(dec)?,
        })
    }
}

/// What the TTP certifies about a blocked run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TtpVerdict {
    /// The response set was incomplete: the run is certifiably aborted and
    /// every replica keeps (or rolls back to) the agreed state.
    CertifiedAbort,
    /// A complete, unanimous accepting response set was presented: the run
    /// is certifiably valid.
    CertifiedValid,
    /// A complete response set containing at least one veto was presented:
    /// the run is certifiably invalidated.
    CertifiedInvalid,
}

/// The signed part of the TTP's resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtpResolution {
    /// The object.
    pub object: ObjectId,
    /// The resolved run.
    pub run: RunId,
    /// The certified verdict.
    pub verdict: TtpVerdict,
    /// Digest over the response set the verdict was derived from (empty
    /// digest for an abort with no responses).
    pub responses_digest: Digest32,
}

impl CanonicalEncode for TtpResolution {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        enc.put_u8(match self.verdict {
            TtpVerdict::CertifiedAbort => 0,
            TtpVerdict::CertifiedValid => 1,
            TtpVerdict::CertifiedInvalid => 2,
        });
        enc.put_digest(&self.responses_digest);
    }
}

impl CanonicalDecode for TtpResolution {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let object = ObjectId::decode(dec)?;
        let run = RunId::decode(dec)?;
        let at = dec.position();
        let verdict = match dec.get_u8()? {
            0 => TtpVerdict::CertifiedAbort,
            1 => TtpVerdict::CertifiedValid,
            2 => TtpVerdict::CertifiedInvalid,
            _ => return DecodeError::at("unknown TTP verdict", at),
        };
        Ok(TtpResolution {
            object,
            run,
            verdict,
            responses_digest: dec.get_digest()?,
        })
    }
}

/// Digest binding a resolution to the exact response set it judged.
pub fn responses_digest(responses: &[RespondMsg]) -> Digest32 {
    let mut enc = Encoder::new();
    enc.put_u64(responses.len() as u64);
    for r in responses {
        r.response.encode(&mut enc);
        r.sig.encode(&mut enc);
    }
    b2b_crypto::sha256(&enc.finish())
}

/// TTP → every member: certified resolution of a blocked run.
#[derive(Clone, Debug, PartialEq)]
pub struct TtpResolutionMsg {
    /// The signed part.
    pub resolution: TtpResolution,
    /// The response set the verdict rests on (recipients re-verify it).
    pub responses: Vec<RespondMsg>,
    /// The TTP's signature over the resolution.
    pub sig: Signature,
}

impl CanonicalEncode for TtpResolutionMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.resolution.encode(enc);
        encode_seq(&self.responses, enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for TtpResolutionMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TtpResolutionMsg {
            resolution: TtpResolution::decode(dec)?,
            responses: decode_seq(dec, MIN_RESPOND_BYTES)?,
            sig: Signature::decode(dec)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Every protocol message that can cross the wire.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum WireMsg {
    /// m1 of any round.
    Propose(ProposeMsg),
    /// m2 of any round.
    Respond(RespondMsg),
    /// m3 of any round.
    Decide(DecideMsg),
    /// Membership: a join, leave or eviction request to the sponsor.
    MemberRequest(MemberRequestMsg),
    /// Membership: the sponsor's answer to the subject of a join or leave.
    MemberAnswer(MemberAnswerMsg),
    /// Termination extension: an appeal to the TTP.
    TtpResolve(TtpResolveMsg),
    /// Termination extension: the TTP pulls evidence from the proposer.
    TtpEvidenceRequest(TtpEvidenceRequestMsg),
    /// Termination extension: the proposer's evidence reply.
    TtpEvidence(TtpEvidenceMsg),
    /// Termination extension: the TTP's certified resolution.
    TtpResolution(TtpResolutionMsg),
}

/// First byte of every wire frame: the version of the layout that follows.
pub const WIRE_FORMAT: u8 = 3;

/// The one table of variant tags and kind names: generates
/// [`WireMsg::to_bytes`], [`WireMsg::from_bytes`], [`WIRE_TAGS`] and
/// [`WireMsg::KIND_NAMES`] so a tag can only ever name one variant. The
/// tags must run `0, 1, 2, …` in the order listed, which is checked at
/// compile time, so a tag indexes the name table.
macro_rules! wire_codec {
    ($($tag:literal => $variant:ident($msg:ty) $name:literal),* $(,)?) => {
        /// How many variant tags [`WireMsg`] has: they are `0..WIRE_TAGS`.
        pub const WIRE_TAGS: usize = [$($tag),*].len();

        const _: () = {
            let tags: [u8; WIRE_TAGS] = [$($tag),*];
            let mut i = 0;
            while i < WIRE_TAGS {
                assert!(tags[i] as usize == i, "wire tags run 0.. in order");
                i += 1;
            }
        };

        impl WireMsg {
            /// The [`WireMsg::kind_name`] of every tag, in tag order.
            pub const KIND_NAMES: [&'static str; WIRE_TAGS] = [$($name),*];

            /// Serialises for the transport: `[WIRE_FORMAT][tag][message]`.
            pub fn to_bytes(&self) -> Vec<u8> {
                let mut enc = Encoder::with_capacity(self.size_hint());
                self.encode_into(&mut enc);
                enc.finish()
            }

            /// Appends the bytes of [`WireMsg::to_bytes`] to `enc`.
            pub fn encode_into(&self, enc: &mut Encoder) {
                enc.put_u8(WIRE_FORMAT);
                match self {
                    $(WireMsg::$variant(m) => {
                        enc.put_u8($tag);
                        m.encode(enc);
                    })*
                }
            }

            /// A rough upper bound on the length of [`WireMsg::to_bytes`].
            pub fn size_hint(&self) -> usize {
                match self {
                    $(WireMsg::$variant(m) => 2 + m.encoded_size_hint(),)*
                }
            }

            /// The variant's tag, `0..`[`WIRE_TAGS`].
            pub fn tag(&self) -> u8 {
                match self {
                    $(WireMsg::$variant(_) => $tag,)*
                }
            }

            /// Parses a transport payload; `None` for malformed traffic —
            /// an unknown format or tag, any field that fails to decode
            /// strictly, or trailing bytes.
            pub fn from_bytes(bytes: &[u8]) -> Option<WireMsg> {
                let mut dec = Decoder::new(bytes);
                if dec.get_u8().ok()? != WIRE_FORMAT {
                    return None;
                }
                let msg = match dec.get_u8().ok()? {
                    $($tag => WireMsg::$variant(<$msg>::decode(&mut dec).ok()?),)*
                    _ => return None,
                };
                dec.finish().ok()?;
                Some(msg)
            }
        }
    };
}

wire_codec! {
    0 => Propose(ProposeMsg) "propose",
    1 => Respond(RespondMsg) "respond",
    2 => Decide(DecideMsg) "decide",
    3 => MemberRequest(MemberRequestMsg) "member-request",
    4 => MemberAnswer(MemberAnswerMsg) "member-answer",
    5 => TtpResolve(TtpResolveMsg) "ttp-resolve",
    6 => TtpEvidenceRequest(TtpEvidenceRequestMsg) "ttp-evidence-request",
    7 => TtpEvidence(TtpEvidenceMsg) "ttp-evidence",
    8 => TtpResolution(TtpResolutionMsg) "ttp-resolution",
}

impl WireMsg {
    /// A short name for diagnostics and traffic accounting.
    pub fn kind_name(&self) -> &'static str {
        WireMsg::KIND_NAMES[usize::from(self.tag())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_crypto::{sha256, KeyPair, Signer};

    fn state_id(n: u64) -> StateId {
        StateId {
            seq: n,
            rand_hash: sha256(&n.to_be_bytes()),
            state_hash: sha256(b"state"),
        }
    }

    fn group_id() -> GroupId {
        GroupId {
            seq: 0,
            rand_hash: sha256(b"g"),
            members_hash: sha256(b"m"),
        }
    }

    fn proposal() -> Proposal {
        Proposal {
            object: ObjectId::new("obj"),
            proposer: PartyId::new("p"),
            group: group_id(),
            prev: state_id(0),
            proposed: state_id(1),
            auth_commit: sha256(b"auth"),
            kind: ProposalKind::Overwrite,
        }
    }

    #[test]
    fn run_id_changes_with_any_field() {
        let base = proposal();
        let mut other = proposal();
        other.proposed.seq = 2;
        assert_ne!(base.run_id(), other.run_id());
        let mut other2 = proposal();
        other2.auth_commit = sha256(b"different");
        assert_ne!(base.run_id(), other2.run_id());
    }

    #[test]
    fn a_change_polls_the_same_members_before_and_after_it() {
        let who = |names: &[&str]| names.iter().map(|n| PartyId::new(*n)).collect::<Vec<_>>();
        let change = |change: MemberChange, requester: &str| Proposal {
            kind: ProposalKind::Member {
                request_digest: sha256(b"r"),
                requester: PartyId::new(requester),
                change,
                new_group: group_id(),
            },
            ..proposal()
        };
        let evict = MemberChange::Evict {
            subjects: who(&["b"]),
        };
        for (p, before) in [
            (change(MemberChange::Join, "j"), who(&["a", "b", "p"])),
            (change(MemberChange::Leave, "b"), who(&["a", "b", "p"])),
            (change(evict, "a"), who(&["a", "b", "p"])),
            (proposal(), who(&["a", "b", "p"])),
        ] {
            let after = p.kind.new_members(&before);
            assert_eq!(p.polled(&before), p.polled(&after), "{:?}", p.kind);
            assert!(!p.polls(&p.proposer) && p.kind.leavers().iter().all(|l| !p.polls(l)));
        }
    }

    #[test]
    fn proposal_kind_canonical_disambiguates() {
        let over = ProposalKind::Overwrite.canonical_bytes();
        let upd = ProposalKind::Update {
            update_hash: sha256(b"u"),
        }
        .canonical_bytes();
        assert_ne!(over, upd);
        // A singleton batch is canonically distinct from an update with the
        // same hash (tag byte differs), and batches differ by link content
        // and order.
        let batch1 = ProposalKind::Batch {
            links: vec![BatchLink {
                update_hash: sha256(b"u"),
                state_hash: sha256(b"s1"),
            }],
        };
        assert_ne!(upd, batch1.canonical_bytes());
        let link = |u: &[u8], s: &[u8]| BatchLink {
            update_hash: sha256(u),
            state_hash: sha256(s),
        };
        let ab = ProposalKind::Batch {
            links: vec![link(b"a", b"s1"), link(b"b", b"s2")],
        };
        let ba = ProposalKind::Batch {
            links: vec![link(b"b", b"s2"), link(b"a", b"s1")],
        };
        assert_ne!(ab.canonical_bytes(), ba.canonical_bytes());
        let mut tampered_state = ab.clone();
        if let ProposalKind::Batch { links } = &mut tampered_state {
            links[1].state_hash = sha256(b"forged");
        }
        assert_ne!(ab.canonical_bytes(), tampered_state.canonical_bytes());
    }

    #[test]
    fn batch_body_roundtrips_and_rejects_malformed() {
        let updates = vec![b"".to_vec(), b"one".to_vec(), vec![0u8; 300]];
        let body = encode_batch_body(&updates);
        assert_eq!(decode_batch_body(&body).unwrap(), updates);
        assert_eq!(decode_batch_body(&[]).unwrap(), Vec::<Vec<u8>>::new());
        // Truncated length prefix and truncated payload are both malformed.
        assert!(decode_batch_body(&body[..body.len() - 1]).is_none());
        assert!(decode_batch_body(&[0, 0]).is_none());
    }

    #[test]
    fn wire_roundtrip_propose() {
        let kp = KeyPair::generate_from_seed(1);
        let p = proposal();
        let msg = WireMsg::Propose(ProposeMsg {
            sig: kp.sign(&p.canonical_bytes()),
            proposal: p,
            body: b"state".to_vec(),
            memo: Default::default(),
        });
        let bytes = msg.to_bytes();
        assert_eq!(WireMsg::from_bytes(&bytes).unwrap(), msg);
        assert_eq!(msg.kind_name(), "propose");
    }

    #[test]
    fn malformed_wire_bytes_rejected() {
        assert!(WireMsg::from_bytes(b"garbage").is_none());
        assert!(WireMsg::from_bytes(b"").is_none());
    }

    #[test]
    fn response_canonical_covers_decision() {
        let r = Response {
            object: ObjectId::new("obj"),
            responder: PartyId::new("r"),
            group: group_id(),
            run: RunId(sha256(b"run")),
            prev: state_id(0),
            proposed: state_id(1),
            body_ok: true,
            decision: Decision::accept(),
        };
        let mut rejected = r.clone();
        rejected.decision = Decision::reject("no");
        assert_ne!(r.canonical_bytes(), rejected.canonical_bytes());
        let mut bad_body = r.clone();
        bad_body.body_ok = false;
        assert_ne!(r.canonical_bytes(), bad_body.canonical_bytes());
    }

    #[test]
    fn accepted_answer_canonical_covers_members_order() {
        let answer = |members: Vec<PartyId>| MemberAnswer {
            object: ObjectId::new("obj"),
            sponsor: PartyId::new("a"),
            request_digest: sha256(b"req"),
            verdict: MemberVerdict::Accepted {
                run: RunId(sha256(b"run")),
                group: group_id(),
                members,
                agreed: state_id(3),
            },
        };
        let (a, b) = (PartyId::new("a"), PartyId::new("b"));
        assert_ne!(
            answer(vec![a.clone(), b.clone()]).canonical_bytes(),
            answer(vec![b, a]).canonical_bytes()
        );
    }

    #[test]
    fn wire_roundtrip_member_request() {
        let kp = KeyPair::generate_from_seed(2);
        let request = MemberRequest {
            object: ObjectId::new("obj"),
            requester: PartyId::new("p"),
            change: MemberChange::Evict {
                subjects: vec![PartyId::new("x"), PartyId::new("y")],
            },
            nonce_hash: sha256(b"n"),
        };
        let msg = WireMsg::MemberRequest(MemberRequestMsg {
            sig: kp.sign(&request.canonical_bytes()),
            request,
        });
        assert_eq!(WireMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        assert_eq!(msg.kind_name(), "member-request");
    }

    #[test]
    fn ttp_messages_roundtrip_and_bind() {
        let kp = KeyPair::generate_from_seed(3);
        let resolution = TtpResolution {
            object: ObjectId::new("obj"),
            run: RunId(sha256(b"run")),
            verdict: TtpVerdict::CertifiedAbort,
            responses_digest: responses_digest(&[]),
        };
        let msg = WireMsg::TtpResolution(TtpResolutionMsg {
            sig: kp.sign(&resolution.canonical_bytes()),
            resolution,
            responses: vec![],
        });
        assert_eq!(WireMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        assert_eq!(msg.kind_name(), "ttp-resolution");

        // Verdicts are canonically distinct.
        let mk = |verdict| TtpResolution {
            object: ObjectId::new("obj"),
            run: RunId(sha256(b"run")),
            verdict,
            responses_digest: responses_digest(&[]),
        };
        assert_ne!(
            mk(TtpVerdict::CertifiedAbort).canonical_bytes(),
            mk(TtpVerdict::CertifiedValid).canonical_bytes()
        );
        assert_ne!(
            mk(TtpVerdict::CertifiedValid).canonical_bytes(),
            mk(TtpVerdict::CertifiedInvalid).canonical_bytes()
        );
    }

    #[test]
    fn responses_digest_binds_set_and_order() {
        let kp = KeyPair::generate_from_seed(4);
        let mk = |who: &str, accept: bool| {
            let response = Response {
                object: ObjectId::new("obj"),
                responder: PartyId::new(who),
                group: group_id(),
                run: RunId(sha256(b"run")),
                prev: state_id(0),
                proposed: state_id(1),
                body_ok: true,
                decision: if accept {
                    Decision::accept()
                } else {
                    Decision::reject("no")
                },
            };
            RespondMsg {
                sig: kp.sign(&response.canonical_bytes()),
                response,
                memo: Default::default(),
            }
        };
        let a = mk("a", true);
        let b = mk("b", true);
        assert_eq!(
            responses_digest(&[a.clone(), b.clone()]),
            responses_digest(&[a.clone(), b.clone()])
        );
        assert_ne!(
            responses_digest(&[a.clone(), b.clone()]),
            responses_digest(&[b.clone(), a.clone()]),
            "order is part of the digest"
        );
        assert_ne!(
            responses_digest(std::slice::from_ref(&a)),
            responses_digest(&[a.clone(), b]),
            "set size is part of the digest"
        );
        // Flipping a decision changes the digest even with the same sig
        // bytes structure.
        let a_flipped = mk("a", false);
        assert_ne!(
            responses_digest(std::slice::from_ref(&a)),
            responses_digest(std::slice::from_ref(&a_flipped))
        );
    }

    #[test]
    fn member_request_canonical_covers_the_change() {
        let mk = |change| MemberRequest {
            object: ObjectId::new("obj"),
            requester: PartyId::new("p"),
            change,
            nonce_hash: sha256(b"n"),
        };
        let evict = MemberChange::Evict {
            subjects: vec![PartyId::new("p")],
        };
        let leave = mk(MemberChange::Leave).canonical_bytes();
        assert_ne!(leave, mk(evict).canonical_bytes());
        assert_ne!(leave, mk(MemberChange::Join).canonical_bytes());
    }
}
