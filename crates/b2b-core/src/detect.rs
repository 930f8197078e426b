//! Misbehaviour detection taxonomy.
//!
//! §4.4 enumerates the subversion attempts the protocol must detect:
//! inconsistent message content, replays from prior runs, omitted and
//! selectively sent messages, null transitions, and tampering with unsigned
//! parts. Every detection is recorded in the non-repudiation log as a
//! `Misbehaviour` evidence record whose payload is the canonical encoding
//! of a [`Misbehaviour`] value: a variant tag byte, then the variant's
//! fields in declaration order, in the `b2b_crypto::canonical` encoding.
//! The decoder is strict, so a payload in any other format (such as the
//! JSON that older logs carry) is refused, never repaired.

use crate::ids::{GroupId, RunId, StateId};
use b2b_crypto::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder, PartyId};
use std::fmt;

/// A detected deviation from the protocol, attributable to `culprit` when
/// signatures make attribution possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Misbehaviour {
    /// A message's signature failed verification: either forged traffic or
    /// tampering with signed content in transit.
    BadSignature {
        /// The claimed signer.
        claimed: PartyId,
        /// What kind of message carried the bad signature.
        message: String,
    },
    /// The unsigned body (state or update bytes) does not hash to the value
    /// bound inside the signed proposal — Dolev-Yao tampering with the
    /// unsigned part, detected per §4.4.
    BodyHashMismatch {
        /// The run concerned.
        run: RunId,
    },
    /// The proposer's view of the group differs from ours.
    GroupIdMismatch {
        /// The identifier carried in the message.
        theirs: GroupId,
        /// Our current identifier.
        ours: GroupId,
    },
    /// The proposal's predecessor tuple is not our current agreed state
    /// (invariant 1/3 of §4.2).
    PredecessorMismatch {
        /// The predecessor the proposer claimed.
        theirs: StateId,
        /// Our agreed state.
        ours: StateId,
    },
    /// The proposed sequence number is not greater than the agreed one
    /// (invariant 3 of §4.2).
    SequenceNotGreater {
        /// Proposed sequence number.
        proposed: u64,
        /// Our agreed sequence number.
        agreed: u64,
    },
    /// A proposal tuple already seen was proposed again — a replay from a
    /// prior run (invariant 4 of §4.2).
    ReplayedProposal {
        /// The replayed run label.
        run: RunId,
    },
    /// A proposal to transition to the state we are already in (§4.4:
    /// "any member can detect that the states are equal and can reject a
    /// null state transition").
    NullTransition {
        /// The run concerned.
        run: RunId,
    },
    /// One update inside a batched proposal fails its hash-chain check:
    /// the update's bytes do not hash to the signed link's `update_hash`,
    /// the replayed state after applying it does not hash to the link's
    /// `state_hash`, or the final link disagrees with the proposed tuple.
    /// Because the links sit in the signed part, the forged or stale update
    /// is attributed to the proposal's signer at its exact batch position
    /// (§4.2/§4.4 held per update inside the batch).
    BatchedUpdateMismatch {
        /// The run concerned.
        run: RunId,
        /// Zero-based index of the offending update inside the batch.
        index: usize,
    },
    /// The revealed authenticator in the decide message does not match the
    /// commitment `H(r_P)` from the proposal.
    AuthenticatorMismatch {
        /// The run concerned.
        run: RunId,
    },
    /// Our own response is missing from, or altered in, the aggregated
    /// decide message — evidence of selective sending or tampering.
    ResponseMisrepresented {
        /// The run concerned.
        run: RunId,
    },
    /// The decide message's response set is internally inconsistent
    /// (wrong run, wrong responders, duplicate responders).
    InconsistentDecide {
        /// The run concerned.
        run: RunId,
        /// Description of the inconsistency.
        detail: String,
    },
    /// A membership message came from a party that is not the legitimate
    /// sponsor for the request (§4.5.1).
    IllegitimateSponsor {
        /// Who sent it.
        claimed: PartyId,
        /// Who the sponsor should be.
        expected: PartyId,
    },
    /// A message arrived that no protocol state expects (unknown run,
    /// wrong role, wrong phase).
    UnexpectedMessage {
        /// Description of the message and why it was unexpected.
        detail: String,
    },
}

impl Misbehaviour {
    /// A short stable tag for reports and experiment output.
    pub fn tag(&self) -> &'static str {
        match self {
            Misbehaviour::BadSignature { .. } => "bad-signature",
            Misbehaviour::BodyHashMismatch { .. } => "body-hash-mismatch",
            Misbehaviour::GroupIdMismatch { .. } => "group-id-mismatch",
            Misbehaviour::PredecessorMismatch { .. } => "predecessor-mismatch",
            Misbehaviour::SequenceNotGreater { .. } => "sequence-not-greater",
            Misbehaviour::ReplayedProposal { .. } => "replayed-proposal",
            Misbehaviour::NullTransition { .. } => "null-transition",
            Misbehaviour::BatchedUpdateMismatch { .. } => "batched-update-mismatch",
            Misbehaviour::AuthenticatorMismatch { .. } => "authenticator-mismatch",
            Misbehaviour::ResponseMisrepresented { .. } => "response-misrepresented",
            Misbehaviour::InconsistentDecide { .. } => "inconsistent-decide",
            Misbehaviour::IllegitimateSponsor { .. } => "illegitimate-sponsor",
            Misbehaviour::UnexpectedMessage { .. } => "unexpected-message",
        }
    }
}

impl fmt::Display for Misbehaviour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tag())
    }
}

impl CanonicalEncode for Misbehaviour {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Misbehaviour::BadSignature { claimed, message } => {
                enc.put_u8(0);
                claimed.encode(enc);
                enc.put_str(message);
            }
            Misbehaviour::BodyHashMismatch { run } => {
                enc.put_u8(1);
                run.encode(enc);
            }
            Misbehaviour::GroupIdMismatch { theirs, ours } => {
                enc.put_u8(2);
                theirs.encode(enc);
                ours.encode(enc);
            }
            Misbehaviour::PredecessorMismatch { theirs, ours } => {
                enc.put_u8(3);
                theirs.encode(enc);
                ours.encode(enc);
            }
            Misbehaviour::SequenceNotGreater { proposed, agreed } => {
                enc.put_u8(4);
                enc.put_u64(*proposed);
                enc.put_u64(*agreed);
            }
            Misbehaviour::ReplayedProposal { run } => {
                enc.put_u8(5);
                run.encode(enc);
            }
            Misbehaviour::NullTransition { run } => {
                enc.put_u8(6);
                run.encode(enc);
            }
            Misbehaviour::BatchedUpdateMismatch { run, index } => {
                enc.put_u8(7);
                run.encode(enc);
                enc.put_u64(*index as u64);
            }
            Misbehaviour::AuthenticatorMismatch { run } => {
                enc.put_u8(8);
                run.encode(enc);
            }
            Misbehaviour::ResponseMisrepresented { run } => {
                enc.put_u8(9);
                run.encode(enc);
            }
            Misbehaviour::InconsistentDecide { run, detail } => {
                enc.put_u8(10);
                run.encode(enc);
                enc.put_str(detail);
            }
            Misbehaviour::IllegitimateSponsor { claimed, expected } => {
                enc.put_u8(11);
                claimed.encode(enc);
                expected.encode(enc);
            }
            Misbehaviour::UnexpectedMessage { detail } => {
                enc.put_u8(12);
                enc.put_str(detail);
            }
        }
    }
}

impl CanonicalDecode for Misbehaviour {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = dec.position();
        Ok(match dec.get_u8()? {
            0 => Misbehaviour::BadSignature {
                claimed: PartyId::decode(dec)?,
                message: String::decode(dec)?,
            },
            1 => Misbehaviour::BodyHashMismatch {
                run: RunId::decode(dec)?,
            },
            2 => Misbehaviour::GroupIdMismatch {
                theirs: GroupId::decode(dec)?,
                ours: GroupId::decode(dec)?,
            },
            3 => Misbehaviour::PredecessorMismatch {
                theirs: StateId::decode(dec)?,
                ours: StateId::decode(dec)?,
            },
            4 => Misbehaviour::SequenceNotGreater {
                proposed: dec.get_u64()?,
                agreed: dec.get_u64()?,
            },
            5 => Misbehaviour::ReplayedProposal {
                run: RunId::decode(dec)?,
            },
            6 => Misbehaviour::NullTransition {
                run: RunId::decode(dec)?,
            },
            7 => {
                let run = RunId::decode(dec)?;
                let at = dec.position();
                let Ok(index) = usize::try_from(dec.get_u64()?) else {
                    return DecodeError::at("batch index overflows usize", at);
                };
                Misbehaviour::BatchedUpdateMismatch { run, index }
            }
            8 => Misbehaviour::AuthenticatorMismatch {
                run: RunId::decode(dec)?,
            },
            9 => Misbehaviour::ResponseMisrepresented {
                run: RunId::decode(dec)?,
            },
            10 => Misbehaviour::InconsistentDecide {
                run: RunId::decode(dec)?,
                detail: String::decode(dec)?,
            },
            11 => Misbehaviour::IllegitimateSponsor {
                claimed: PartyId::decode(dec)?,
                expected: PartyId::decode(dec)?,
            },
            12 => Misbehaviour::UnexpectedMessage {
                detail: String::decode(dec)?,
            },
            _ => return DecodeError::at("unknown misbehaviour tag", at),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_crypto::sha256;

    #[test]
    fn tags_are_unique() {
        let run = RunId(sha256(b"r"));
        let st = StateId {
            seq: 0,
            rand_hash: sha256(b"a"),
            state_hash: sha256(b"b"),
        };
        let gid = GroupId {
            seq: 0,
            rand_hash: sha256(b"a"),
            members_hash: sha256(b"b"),
        };
        let all = vec![
            Misbehaviour::BadSignature {
                claimed: PartyId::new("p"),
                message: "m1".into(),
            },
            Misbehaviour::BodyHashMismatch { run },
            Misbehaviour::GroupIdMismatch {
                theirs: gid,
                ours: gid,
            },
            Misbehaviour::PredecessorMismatch {
                theirs: st,
                ours: st,
            },
            Misbehaviour::SequenceNotGreater {
                proposed: 1,
                agreed: 1,
            },
            Misbehaviour::ReplayedProposal { run },
            Misbehaviour::NullTransition { run },
            Misbehaviour::BatchedUpdateMismatch { run, index: 0 },
            Misbehaviour::AuthenticatorMismatch { run },
            Misbehaviour::ResponseMisrepresented { run },
            Misbehaviour::InconsistentDecide {
                run,
                detail: String::new(),
            },
            Misbehaviour::IllegitimateSponsor {
                claimed: PartyId::new("a"),
                expected: PartyId::new("b"),
            },
            Misbehaviour::UnexpectedMessage {
                detail: String::new(),
            },
        ];
        let mut tags: Vec<_> = all.iter().map(|m| m.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), all.len());
    }
}
