//! Identifiers: objects, state identifier tuples, group identifier tuples
//! and protocol-run labels.
//!
//! Paper §4.2: "The state of an object is uniquely identified by a tuple
//! *(seqno, H(random), H(state))* … The combination of sequence number and
//! hash of the random number disambiguates concurrent proposals and
//! guarantees the uniqueness of the tuple. The hash of the state binds the
//! tuple to the state identified."
//!
//! §4.5.2: "The membership of the group is uniquely identified by a group
//! identifier tuple *(seqno, H(random), H(members))*."

use b2b_crypto::{
    sha256, CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Digest32, Encoder, PartyId,
};
use b2b_evidence::RunLabel;
use std::fmt;
use std::sync::Arc;

/// The coordination alias of a shared object (the paper's `coordAlias`).
/// The alias is shared: a clone is a reference-count increment, while
/// equality, ordering, hashing and the canonical encoding are the
/// string's.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(Arc<str>);

impl ObjectId {
    /// Creates an object alias.
    pub fn new(alias: impl AsRef<str>) -> ObjectId {
        ObjectId(Arc::from(alias.as_ref()))
    }

    /// The alias as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({})", self.0)
    }
}

impl From<&str> for ObjectId {
    fn from(s: &str) -> Self {
        ObjectId::new(s)
    }
}

impl CanonicalEncode for ObjectId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.0);
    }
}

impl CanonicalDecode for ObjectId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_str().map(ObjectId::new)
    }
}

/// The state identifier tuple `(seqno, H(random), H(state))`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId {
    /// Proposal sequence number; strictly greater than that of any agreed
    /// state or coordination request seen by the proposer.
    pub seq: u64,
    /// Hash of a random number generated by the proposer; disambiguates
    /// concurrent proposals with equal sequence numbers.
    pub rand_hash: Digest32,
    /// Hash of the state this tuple identifies.
    pub state_hash: Digest32,
}

impl StateId {
    /// The identifier of a brand-new object's state, before any proposal:
    /// sequence 0, a caller-supplied random hash and the hash of the
    /// initial state bytes.
    pub fn genesis(rand_hash: Digest32, initial_state: &[u8]) -> StateId {
        StateId {
            seq: 0,
            rand_hash,
            state_hash: sha256(initial_state),
        }
    }

    /// Returns `true` if this tuple correctly identifies `state`.
    pub fn identifies(&self, state: &[u8]) -> bool {
        self.state_hash == sha256(state)
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StateId(#{} r:{} s:{})",
            self.seq,
            self.rand_hash.short_hex(),
            self.state_hash.short_hex()
        )
    }
}

impl CanonicalEncode for StateId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.seq);
        enc.put_digest(&self.rand_hash);
        enc.put_digest(&self.state_hash);
    }
}

impl CanonicalDecode for StateId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(StateId {
            seq: dec.get_u64()?,
            rand_hash: dec.get_digest()?,
            state_hash: dec.get_digest()?,
        })
    }
}

/// The group identifier tuple `(seqno, H(random), H(members))`.
///
/// Regenerated by the sponsor at every membership change; "inconsistent
/// group identifiers lead to invalidation of a proposal" (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId {
    /// Membership-change sequence number.
    pub seq: u64,
    /// Hash of a random number generated by the sponsor of the change.
    pub rand_hash: Digest32,
    /// Hash over the member list (in join order, which determines sponsor
    /// selection).
    pub members_hash: Digest32,
}

impl GroupId {
    /// The identifier of a newly created singleton group.
    pub fn genesis(rand_hash: Digest32, members: &[PartyId]) -> GroupId {
        GroupId {
            seq: 0,
            rand_hash,
            members_hash: members_digest(members),
        }
    }

    /// Returns `true` if this identifier matches `members` (join order).
    pub fn identifies(&self, members: &[PartyId]) -> bool {
        self.members_hash == members_digest(members)
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GroupId(#{} r:{} m:{})",
            self.seq,
            self.rand_hash.short_hex(),
            self.members_hash.short_hex()
        )
    }
}

impl CanonicalEncode for GroupId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.seq);
        enc.put_digest(&self.rand_hash);
        enc.put_digest(&self.members_hash);
    }
}

impl CanonicalDecode for GroupId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(GroupId {
            seq: dec.get_u64()?,
            rand_hash: dec.get_digest()?,
            members_hash: dec.get_digest()?,
        })
    }
}

/// Hash over a member list in join order.
///
/// Join order is significant: the sponsor is "the most recently joined
/// member" (§4.5.1), so two groups with the same members in different join
/// orders are different groups.
pub fn members_digest(members: &[PartyId]) -> Digest32 {
    let mut enc = Encoder::new();
    enc.put_u64(members.len() as u64);
    for m in members {
        m.encode(&mut enc);
    }
    sha256(&enc.finish())
}

/// The label of one protocol run: the digest of the signed proposal (or
/// membership request) that started it.
///
/// "`t_prop` provides a unique label for each protocol run that is linked
/// to each message in the run. It is therefore possible to detect any
/// attempt to replay messages from a prior run" (§4.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub Digest32);

impl RunId {
    /// Derives the run label from canonical proposal bytes.
    pub fn from_bytes(canonical_proposal: &[u8]) -> RunId {
        RunId(sha256(canonical_proposal))
    }

    /// Hex rendering used as the `run` key of evidence records.
    pub fn to_hex(&self) -> String {
        self.0.to_string()
    }

    /// The run's label in the evidence log — its hex — written straight
    /// from the digest bytes when a record is encoded.
    pub fn label(&self) -> RunLabel<'_> {
        RunLabel::Hex(self.0.as_bytes())
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run:{}", self.0.short_hex())
    }
}

impl fmt::Debug for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RunId({})", self.0.short_hex())
    }
}

impl CanonicalEncode for RunId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_digest(&self.0);
    }
}

impl CanonicalDecode for RunId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_digest().map(RunId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_id_genesis_identifies_initial_state() {
        let id = StateId::genesis(sha256(b"rand"), b"initial");
        assert_eq!(id.seq, 0);
        assert!(id.identifies(b"initial"));
        assert!(!id.identifies(b"other"));
    }

    #[test]
    fn group_id_tracks_join_order() {
        let ab = [PartyId::new("a"), PartyId::new("b")];
        let ba = [PartyId::new("b"), PartyId::new("a")];
        let gid = GroupId::genesis(sha256(b"r"), &ab);
        assert!(gid.identifies(&ab));
        assert!(!gid.identifies(&ba), "join order is part of identity");
    }

    #[test]
    fn members_digest_depends_on_every_member() {
        let d1 = members_digest(&[PartyId::new("a"), PartyId::new("b")]);
        let d2 = members_digest(&[PartyId::new("a")]);
        let d3 = members_digest(&[PartyId::new("a"), PartyId::new("c")]);
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn run_id_is_stable_over_bytes() {
        assert_eq!(RunId::from_bytes(b"p"), RunId::from_bytes(b"p"));
        assert_ne!(RunId::from_bytes(b"p"), RunId::from_bytes(b"q"));
    }

    #[test]
    fn canonical_encodings_are_injective_across_fields() {
        let a = StateId {
            seq: 1,
            rand_hash: sha256(b"x"),
            state_hash: sha256(b"y"),
        };
        let b = StateId {
            seq: 1,
            rand_hash: sha256(b"y"),
            state_hash: sha256(b"x"),
        };
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn object_id_display() {
        let id = ObjectId::new("order-42");
        assert_eq!(id.to_string(), "order-42");
        assert_eq!(id.as_str(), "order-42");
    }
}
