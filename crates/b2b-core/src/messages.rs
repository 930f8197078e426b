//! Wire messages of the coordination protocols.
//!
//! Every message separates a **signed part** (a struct with a canonical
//! byte encoding, carried with its signature) from **unsigned parts**
//! (bulk state/update bytes, aggregations of other parties' signed
//! messages). Unsigned bulk data is bound into the signed part by hash, so
//! Dolev-Yao tampering with unsigned bytes is always detectable (§4.4).
//!
//! State coordination (§4.3) is three steps:
//! `m1` [`ProposeMsg`] → `m2` [`RespondMsg`] → `m3` [`DecideMsg`], i.e.
//! `3(n−1)` messages for `n` parties. Connection/disconnection (§4.5) wrap
//! the same propose/respond/decide core with a subject↔sponsor exchange.
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
/// A party id is at least its length prefix; a signed response of either
/// protocol carries at least two 72-byte identifier tuples.
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

/// Whether a proposal overwrites the state, applies an update delta
/// (§4.3.1), or applies an ordered batch of update deltas in one signed
/// round.
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
                enc.put_u64(links.len() as u64);
                for link in links {
                    link.encode(enc);
                }
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
    /// Overwrite or update.
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
}

/// `m1`: signed proposal + unsigned body (state or update bytes).
#[derive(Clone, Debug, PartialEq)]
pub struct ProposeMsg {
    /// The signed part.
    pub proposal: Proposal,
    /// The unsigned body: full state for overwrites, `u_P` for updates.
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
    /// unsigned body with respect to the hash in the signed proposal.
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

    /// SHA-256 digest of the response's canonical bytes.
    pub fn response_digest(&self) -> Digest32 {
        self.memo.get_or_encode(&self.response).1
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
/// `StateDecide` evidence record, which `dispute` and the auditors parse
/// back with [`CanonicalDecode::from_canonical`].
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
// Connection protocol (§4.5.3)
// ---------------------------------------------------------------------------

/// The signed part of the subject's initial connection request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectRequest {
    /// The object the subject wants to share.
    pub object: ObjectId,
    /// The prospective member `P_{n+1}`.
    pub subject: PartyId,
    /// `H(r_s)`: hash of a random uniquely labelling this request.
    pub nonce_hash: Digest32,
}

impl CanonicalEncode for ConnectRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.subject.encode(enc);
        enc.put_digest(&self.nonce_hash);
    }
}

impl CanonicalDecode for ConnectRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ConnectRequest {
            object: ObjectId::decode(dec)?,
            subject: PartyId::decode(dec)?,
            nonce_hash: dec.get_digest()?,
        })
    }
}

/// Subject → sponsor: signed connection request.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectRequestMsg {
    /// The signed part.
    pub request: ConnectRequest,
    /// The subject's signature.
    pub sig: Signature,
}

signed_msg_codec!(ConnectRequestMsg {
    request: ConnectRequest
});

/// The signed part of the sponsor's relay of a connection request to the
/// current membership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectProposal {
    /// The object.
    pub object: ObjectId,
    /// The sponsoring member.
    pub sponsor: PartyId,
    /// Digest of the subject's signed request (linkage).
    pub request_digest: Digest32,
    /// The subject seeking admission.
    pub subject: PartyId,
    /// The sponsor's view of the current group.
    pub group: GroupId,
    /// The group that would result from admission (`gid_new`).
    pub new_group: GroupId,
    /// The sponsor's current agreed state tuple.
    pub agreed: StateId,
    /// Commitment `H(r_sponsor)` to the decide authenticator.
    pub auth_commit: Digest32,
}

impl CanonicalEncode for ConnectProposal {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.sponsor.encode(enc);
        enc.put_digest(&self.request_digest);
        self.subject.encode(enc);
        self.group.encode(enc);
        self.new_group.encode(enc);
        self.agreed.encode(enc);
        enc.put_digest(&self.auth_commit);
    }
}

impl CanonicalDecode for ConnectProposal {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ConnectProposal {
            object: ObjectId::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
            request_digest: dec.get_digest()?,
            subject: PartyId::decode(dec)?,
            group: GroupId::decode(dec)?,
            new_group: GroupId::decode(dec)?,
            agreed: StateId::decode(dec)?,
            auth_commit: dec.get_digest()?,
        })
    }
}

impl ConnectProposal {
    /// The run label of this membership run.
    pub fn run_id(&self) -> RunId {
        RunId::from_bytes(&self.canonical_bytes())
    }
}

/// Sponsor → members: the relayed connection proposal (with the subject's
/// original signed request attached for verification).
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectProposeMsg {
    /// The signed part.
    pub proposal: ConnectProposal,
    /// The subject's original request (whose digest the proposal binds).
    pub request: ConnectRequestMsg,
    /// The sponsor's signature over the proposal.
    pub sig: Signature,
}

impl CanonicalEncode for ConnectProposeMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.proposal.encode(enc);
        self.request.encode(enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for ConnectProposeMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ConnectProposeMsg {
            proposal: ConnectProposal::decode(dec)?,
            request: ConnectRequestMsg::decode(dec)?,
            sig: Signature::decode(dec)?,
        })
    }
}

/// The signed part of a member's response to a membership proposal
/// (connection or disconnection): decision plus the member's signed agreed
/// state tuple, which the welcome uses to let the subject verify the state
/// it receives (§4.5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberResponse {
    /// The object.
    pub object: ObjectId,
    /// The responding member.
    pub responder: PartyId,
    /// The membership run being responded to.
    pub run: RunId,
    /// The responder's view of the current group.
    pub group: GroupId,
    /// The responder's current agreed state tuple (signed evidence of the
    /// agreed state at the membership change).
    pub agreed: StateId,
    /// The responder's decision.
    pub decision: Decision,
}

impl CanonicalEncode for MemberResponse {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.responder.encode(enc);
        self.run.encode(enc);
        self.group.encode(enc);
        self.agreed.encode(enc);
        self.decision.encode(enc);
    }
}

impl CanonicalDecode for MemberResponse {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MemberResponse {
            object: ObjectId::decode(dec)?,
            responder: PartyId::decode(dec)?,
            run: RunId::decode(dec)?,
            group: GroupId::decode(dec)?,
            agreed: StateId::decode(dec)?,
            decision: Decision::decode(dec)?,
        })
    }
}

/// Member → sponsor: signed membership response.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberRespondMsg {
    /// The signed part.
    pub response: MemberResponse,
    /// The member's signature.
    pub sig: Signature,
}

signed_msg_codec!(MemberRespondMsg {
    response: MemberResponse
});

/// Sponsor → members: aggregated membership decision with the revealed
/// authenticator (no signature needed — only the sponsor holds the
/// preimage).
#[derive(Clone, Debug, PartialEq)]
pub struct MemberDecideMsg {
    /// The object.
    pub object: ObjectId,
    /// The run being decided.
    pub run: RunId,
    /// The revealed authenticator `r_sponsor`.
    pub authenticator: [u8; 32],
    /// Every polled member's signed response.
    pub responses: Vec<MemberRespondMsg>,
    /// `true` if this decide concerns a connection; `false` for
    /// disconnection/eviction.
    pub connecting: bool,
}

/// Also the payload of the `ConnectDecide`/`DisconnectDecide` evidence
/// records.
impl CanonicalEncode for MemberDecideMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        enc.put_raw(&self.authenticator);
        encode_seq(&self.responses, enc);
        enc.put_bool(self.connecting);
    }
}

impl CanonicalDecode for MemberDecideMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MemberDecideMsg {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            authenticator: dec.get_array()?,
            responses: decode_seq(dec, MIN_RESPOND_BYTES)?,
            connecting: dec.get_bool()?,
        })
    }
}

/// The signed part of the sponsor's welcome to an admitted member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Welcome {
    /// The object.
    pub object: ObjectId,
    /// The membership run that admitted the subject.
    pub run: RunId,
    /// The new group identifier.
    pub group: GroupId,
    /// The member list, in join order (subject last).
    pub members: Vec<PartyId>,
    /// The agreed state tuple the carried state must match.
    pub agreed: StateId,
}

impl CanonicalEncode for Welcome {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        self.group.encode(enc);
        encode_seq(&self.members, enc);
        self.agreed.encode(enc);
    }
}

impl CanonicalDecode for Welcome {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Welcome {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            group: GroupId::decode(dec)?,
            members: decode_seq(dec, MIN_PARTY_BYTES)?,
            agreed: StateId::decode(dec)?,
        })
    }
}

/// Sponsor → subject: admission + the current agreed object state, "which
/// can be verified against each of the signed agreed state tuples supplied
/// by members" in the attached decide aggregation.
#[derive(Clone, Debug, PartialEq)]
pub struct WelcomeMsg {
    /// The signed part.
    pub welcome: Welcome,
    /// The unsigned agreed state bytes (bound by `welcome.agreed`).
    pub state: Vec<u8>,
    /// The aggregated member decisions admitting the subject.
    pub decide: MemberDecideMsg,
    /// The sponsor's signature over the welcome.
    pub sig: Signature,
}

impl CanonicalEncode for WelcomeMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.welcome.encode(enc);
        enc.put_bytes(&self.state);
        self.decide.encode(enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for WelcomeMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(WelcomeMsg {
            welcome: Welcome::decode(dec)?,
            state: Vec::<u8>::decode(dec)?,
            decide: MemberDecideMsg::decode(dec)?,
            sig: Signature::decode(dec)?,
        })
    }
}

/// The signed part of a sponsor's rejection of a connection request.
///
/// §4.5.3: on veto "the subject learns no more information than in the
/// case of immediate rejection by the sponsor" — both paths produce exactly
/// this message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectReject {
    /// The object.
    pub object: ObjectId,
    /// The sponsor rejecting.
    pub sponsor: PartyId,
    /// Digest of the subject's signed request being rejected.
    pub request_digest: Digest32,
}

impl CanonicalEncode for ConnectReject {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.sponsor.encode(enc);
        enc.put_digest(&self.request_digest);
    }
}

impl CanonicalDecode for ConnectReject {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ConnectReject {
            object: ObjectId::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
            request_digest: dec.get_digest()?,
        })
    }
}

/// Sponsor → subject: signed rejection.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectRejectMsg {
    /// The signed part.
    pub reject: ConnectReject,
    /// The sponsor's signature.
    pub sig: Signature,
}

signed_msg_codec!(ConnectRejectMsg {
    reject: ConnectReject
});

// ---------------------------------------------------------------------------
// Disconnection protocols (§4.5.4)
// ---------------------------------------------------------------------------

/// The signed part of a disconnection/eviction request.
///
/// For voluntary disconnection the proposer *is* the (single) subject; for
/// eviction the proposer is any member and `subjects` may be a set
/// (subset eviction, §4.5.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisconnectRequest {
    /// The object.
    pub object: ObjectId,
    /// The requesting party.
    pub proposer: PartyId,
    /// The member(s) to disconnect.
    pub subjects: Vec<PartyId>,
    /// `true` for eviction (vetoable), `false` for voluntary
    /// disconnection (not vetoable — a leaver could simply stop
    /// cooperating).
    pub eviction: bool,
    /// `H(r)` uniquely labelling the request.
    pub nonce_hash: Digest32,
}

impl CanonicalEncode for DisconnectRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.proposer.encode(enc);
        encode_seq(&self.subjects, enc);
        enc.put_bool(self.eviction);
        enc.put_digest(&self.nonce_hash);
    }
}

impl CanonicalDecode for DisconnectRequest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisconnectRequest {
            object: ObjectId::decode(dec)?,
            proposer: PartyId::decode(dec)?,
            subjects: decode_seq(dec, MIN_PARTY_BYTES)?,
            eviction: dec.get_bool()?,
            nonce_hash: dec.get_digest()?,
        })
    }
}

/// Proposer → sponsor: signed disconnection request.
#[derive(Clone, Debug, PartialEq)]
pub struct DisconnectRequestMsg {
    /// The signed part.
    pub request: DisconnectRequest,
    /// The proposer's signature.
    pub sig: Signature,
}

signed_msg_codec!(DisconnectRequestMsg {
    request: DisconnectRequest
});

/// The signed part of the sponsor's relay of a disconnection/eviction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisconnectProposal {
    /// The object.
    pub object: ObjectId,
    /// The sponsoring member.
    pub sponsor: PartyId,
    /// Digest of the signed request (linkage).
    pub request_digest: Digest32,
    /// The member(s) leaving.
    pub subjects: Vec<PartyId>,
    /// Eviction or voluntary.
    pub eviction: bool,
    /// The sponsor's view of the current group.
    pub group: GroupId,
    /// The group that would result.
    pub new_group: GroupId,
    /// The sponsor's agreed state tuple.
    pub agreed: StateId,
    /// Commitment to the decide authenticator.
    pub auth_commit: Digest32,
}

impl CanonicalEncode for DisconnectProposal {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.sponsor.encode(enc);
        enc.put_digest(&self.request_digest);
        encode_seq(&self.subjects, enc);
        enc.put_bool(self.eviction);
        self.group.encode(enc);
        self.new_group.encode(enc);
        self.agreed.encode(enc);
        enc.put_digest(&self.auth_commit);
    }
}

impl CanonicalDecode for DisconnectProposal {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisconnectProposal {
            object: ObjectId::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
            request_digest: dec.get_digest()?,
            subjects: decode_seq(dec, MIN_PARTY_BYTES)?,
            eviction: dec.get_bool()?,
            group: GroupId::decode(dec)?,
            new_group: GroupId::decode(dec)?,
            agreed: StateId::decode(dec)?,
            auth_commit: dec.get_digest()?,
        })
    }
}

impl DisconnectProposal {
    /// The run label of this membership run.
    pub fn run_id(&self) -> RunId {
        RunId::from_bytes(&self.canonical_bytes())
    }
}

/// Sponsor → members: relayed disconnection proposal.
#[derive(Clone, Debug, PartialEq)]
pub struct DisconnectProposeMsg {
    /// The signed part.
    pub proposal: DisconnectProposal,
    /// The original signed request.
    pub request: DisconnectRequestMsg,
    /// The sponsor's signature.
    pub sig: Signature,
}

impl CanonicalEncode for DisconnectProposeMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.proposal.encode(enc);
        self.request.encode(enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for DisconnectProposeMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisconnectProposeMsg {
            proposal: DisconnectProposal::decode(dec)?,
            request: DisconnectRequestMsg::decode(dec)?,
            sig: Signature::decode(dec)?,
        })
    }
}

/// The signed part of the sponsor's final acknowledgement to a voluntarily
/// departing member: "evidence of the group membership and agreed object
/// state when they disconnected".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisconnectAck {
    /// The object.
    pub object: ObjectId,
    /// The membership run.
    pub run: RunId,
    /// The sponsor.
    pub sponsor: PartyId,
    /// The departing member.
    pub subject: PartyId,
    /// Group identifier after the departure.
    pub group: GroupId,
    /// The agreed state tuple at departure.
    pub agreed: StateId,
}

impl CanonicalEncode for DisconnectAck {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.run.encode(enc);
        self.sponsor.encode(enc);
        self.subject.encode(enc);
        self.group.encode(enc);
        self.agreed.encode(enc);
    }
}

impl CanonicalDecode for DisconnectAck {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisconnectAck {
            object: ObjectId::decode(dec)?,
            run: RunId::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
            subject: PartyId::decode(dec)?,
            group: GroupId::decode(dec)?,
            agreed: StateId::decode(dec)?,
        })
    }
}

/// Sponsor → departing subject: signed acknowledgement (also carries the
/// decide aggregation as evidence all members saw the request).
#[derive(Clone, Debug, PartialEq)]
pub struct DisconnectAckMsg {
    /// The signed part.
    pub ack: DisconnectAck,
    /// The aggregated member responses.
    pub decide: MemberDecideMsg,
    /// The sponsor's signature.
    pub sig: Signature,
}

impl CanonicalEncode for DisconnectAckMsg {
    fn encode(&self, enc: &mut Encoder) {
        self.ack.encode(enc);
        self.decide.encode(enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for DisconnectAckMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisconnectAckMsg {
            ack: DisconnectAck::decode(dec)?,
            decide: MemberDecideMsg::decode(dec)?,
            sig: Signature::decode(dec)?,
        })
    }
}

/// The signed part of the sponsor's rejection notice to a voluntary leaver
/// whose disconnection run was invalidated.
///
/// Voluntary disconnection cannot be vetoed (§4.5.4), but the run can still
/// fail a *consistency* check at a polled member (group-id or agreed-state
/// mismatch, concurrent run, illegitimate sponsor). Without this notice the
/// leaver's replica would hang in its `Leaving` state until the application
/// intervened; with it, the replica returns to ordinary membership and the
/// leaver may retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisconnectReject {
    /// The object.
    pub object: ObjectId,
    /// The sponsor rejecting.
    pub sponsor: PartyId,
    /// Digest of the leaver's signed request being rejected (linkage).
    pub request_digest: Digest32,
}

impl CanonicalEncode for DisconnectReject {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.sponsor.encode(enc);
        enc.put_digest(&self.request_digest);
    }
}

impl CanonicalDecode for DisconnectReject {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisconnectReject {
            object: ObjectId::decode(dec)?,
            sponsor: PartyId::decode(dec)?,
            request_digest: dec.get_digest()?,
        })
    }
}

/// Sponsor → voluntary leaver: signed rejection of the disconnection run.
#[derive(Clone, Debug, PartialEq)]
pub struct DisconnectRejectMsg {
    /// The signed part.
    pub reject: DisconnectReject,
    /// The sponsor's signature.
    pub sig: Signature,
}

signed_msg_codec!(DisconnectRejectMsg {
    reject: DisconnectReject
});

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
    /// State coordination m1.
    Propose(ProposeMsg),
    /// State coordination m2.
    Respond(RespondMsg),
    /// State coordination m3.
    Decide(DecideMsg),
    /// Connection: subject's request to the sponsor.
    ConnectRequest(ConnectRequestMsg),
    /// Connection: sponsor's relay to members.
    ConnectPropose(ConnectProposeMsg),
    /// Connection/disconnection: member's response to the sponsor.
    MemberRespond(MemberRespondMsg),
    /// Connection/disconnection: sponsor's aggregated decide.
    MemberDecide(MemberDecideMsg),
    /// Connection: sponsor's welcome to the admitted subject.
    Welcome(WelcomeMsg),
    /// Connection: sponsor's rejection to the subject.
    ConnectReject(ConnectRejectMsg),
    /// Disconnection: request to the sponsor.
    DisconnectRequest(DisconnectRequestMsg),
    /// Disconnection: sponsor's relay to members.
    DisconnectPropose(DisconnectProposeMsg),
    /// Disconnection: sponsor's ack to a voluntary leaver.
    DisconnectAck(DisconnectAckMsg),
    /// Disconnection: sponsor's rejection to a voluntary leaver whose run
    /// failed a consistency check at some polled member.
    DisconnectReject(DisconnectRejectMsg),
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
pub const WIRE_FORMAT: u8 = 1;

/// The one table of variant tags: generates [`WireMsg::to_bytes`] and
/// [`WireMsg::from_bytes`] so a tag can only ever name one variant.
macro_rules! wire_codec {
    ($($tag:literal => $variant:ident($msg:ty)),* $(,)?) => {
        impl WireMsg {
            /// Serialises for the transport: `[WIRE_FORMAT][tag][message]`.
            pub fn to_bytes(&self) -> Vec<u8> {
                match self {
                    $(WireMsg::$variant(m) => {
                        let mut enc = Encoder::with_capacity(2 + m.encoded_size_hint());
                        enc.put_u8(WIRE_FORMAT);
                        enc.put_u8($tag);
                        m.encode(&mut enc);
                        enc.finish()
                    })*
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
    0 => Propose(ProposeMsg),
    1 => Respond(RespondMsg),
    2 => Decide(DecideMsg),
    3 => ConnectRequest(ConnectRequestMsg),
    4 => ConnectPropose(ConnectProposeMsg),
    5 => MemberRespond(MemberRespondMsg),
    6 => MemberDecide(MemberDecideMsg),
    7 => Welcome(WelcomeMsg),
    8 => ConnectReject(ConnectRejectMsg),
    9 => DisconnectRequest(DisconnectRequestMsg),
    10 => DisconnectPropose(DisconnectProposeMsg),
    11 => DisconnectAck(DisconnectAckMsg),
    12 => DisconnectReject(DisconnectRejectMsg),
    13 => TtpResolve(TtpResolveMsg),
    14 => TtpEvidenceRequest(TtpEvidenceRequestMsg),
    15 => TtpEvidence(TtpEvidenceMsg),
    16 => TtpResolution(TtpResolutionMsg),
}

impl WireMsg {
    /// A short name for diagnostics and traffic accounting.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WireMsg::Propose(_) => "propose",
            WireMsg::Respond(_) => "respond",
            WireMsg::Decide(_) => "decide",
            WireMsg::ConnectRequest(_) => "connect-request",
            WireMsg::ConnectPropose(_) => "connect-propose",
            WireMsg::MemberRespond(_) => "member-respond",
            WireMsg::MemberDecide(_) => "member-decide",
            WireMsg::Welcome(_) => "welcome",
            WireMsg::ConnectReject(_) => "connect-reject",
            WireMsg::DisconnectRequest(_) => "disconnect-request",
            WireMsg::DisconnectPropose(_) => "disconnect-propose",
            WireMsg::DisconnectAck(_) => "disconnect-ack",
            WireMsg::DisconnectReject(_) => "disconnect-reject",
            WireMsg::TtpResolve(_) => "ttp-resolve",
            WireMsg::TtpEvidenceRequest(_) => "ttp-evidence-request",
            WireMsg::TtpEvidence(_) => "ttp-evidence",
            WireMsg::TtpResolution(_) => "ttp-resolution",
        }
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
    fn welcome_canonical_covers_members_order() {
        let w = Welcome {
            object: ObjectId::new("obj"),
            run: RunId(sha256(b"run")),
            group: group_id(),
            members: vec![PartyId::new("a"), PartyId::new("b")],
            agreed: state_id(3),
        };
        let mut swapped = w.clone();
        swapped.members.reverse();
        assert_ne!(w.canonical_bytes(), swapped.canonical_bytes());
    }

    #[test]
    fn wire_roundtrip_all_membership_kinds() {
        let kp = KeyPair::generate_from_seed(2);
        let req = ConnectRequest {
            object: ObjectId::new("obj"),
            subject: PartyId::new("s"),
            nonce_hash: sha256(b"n"),
        };
        let req_msg = ConnectRequestMsg {
            sig: kp.sign(&req.canonical_bytes()),
            request: req,
        };
        let msg = WireMsg::ConnectRequest(req_msg.clone());
        assert_eq!(WireMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);

        let dreq = DisconnectRequest {
            object: ObjectId::new("obj"),
            proposer: PartyId::new("p"),
            subjects: vec![PartyId::new("x"), PartyId::new("y")],
            eviction: true,
            nonce_hash: sha256(b"n2"),
        };
        let dmsg = WireMsg::DisconnectRequest(DisconnectRequestMsg {
            sig: kp.sign(&dreq.canonical_bytes()),
            request: dreq,
        });
        assert_eq!(WireMsg::from_bytes(&dmsg.to_bytes()).unwrap(), dmsg);
        assert_eq!(dmsg.kind_name(), "disconnect-request");
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
    fn disconnect_request_canonical_covers_eviction_flag() {
        let mk = |ev: bool| DisconnectRequest {
            object: ObjectId::new("obj"),
            proposer: PartyId::new("p"),
            subjects: vec![PartyId::new("x")],
            eviction: ev,
            nonce_hash: sha256(b"n"),
        };
        assert_ne!(mk(true).canonical_bytes(), mk(false).canonical_bytes());
    }
}
