//! Evidence records: the unit of a party's non-repudiation log.

use b2b_crypto::{
    CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder, PartyId, Signature, TimeMs,
    TimeStamp,
};
use std::fmt;

/// Which protocol action a record evidences.
///
/// One variant per evidence-bearing message of the coordination protocols
/// (paper §4.3 and §4.5), plus local events that matter for recovery and
/// arbitration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvidenceKind {
    /// m1 of state coordination: a signed state-transition proposal.
    StatePropose,
    /// m2: a recipient's signed receipt + validity decision.
    StateRespond,
    /// m3: the proposer's aggregated decision with revealed authenticator.
    StateDecide,
    /// Initial request from a prospective member to the sponsor.
    ConnectRequest,
    /// Sponsor's relay of a connection proposal to current members.
    ConnectPropose,
    /// A member's signed decision on a connection request.
    ConnectRespond,
    /// Sponsor's aggregated connection decision.
    ConnectDecide,
    /// Sponsor's welcome to an admitted member (carries agreed state).
    ConnectWelcome,
    /// Sponsor's signed immediate rejection of a connection request.
    ConnectReject,
    /// A member's request for voluntary disconnection or an eviction
    /// proposal.
    DisconnectRequest,
    /// Sponsor's relay of a disconnection/eviction proposal.
    DisconnectPropose,
    /// A member's signed decision on a disconnection/eviction.
    DisconnectRespond,
    /// Sponsor's aggregated disconnection decision.
    DisconnectDecide,
    /// Final acknowledgement to a voluntarily departing member.
    DisconnectAck,
    /// Sponsor's signed rejection notice to a voluntary leaver whose run
    /// failed a consistency check at a polled member.
    DisconnectReject,
    /// A locally installed checkpoint of newly validated object state.
    Checkpoint,
    /// A locally detected misbehaviour or inconsistency (diagnostics).
    Misbehaviour,
    /// A TTP-certified abort of a blocked run (§7 termination extension).
    TtpAbort,
}

/// Every kind, in the order of its on-disk tag: a kind's tag is its index
/// here, so new kinds are appended and existing ones never move.
const KINDS: [EvidenceKind; 18] = [
    EvidenceKind::StatePropose,
    EvidenceKind::StateRespond,
    EvidenceKind::StateDecide,
    EvidenceKind::ConnectRequest,
    EvidenceKind::ConnectPropose,
    EvidenceKind::ConnectRespond,
    EvidenceKind::ConnectDecide,
    EvidenceKind::ConnectWelcome,
    EvidenceKind::ConnectReject,
    EvidenceKind::DisconnectRequest,
    EvidenceKind::DisconnectPropose,
    EvidenceKind::DisconnectRespond,
    EvidenceKind::DisconnectDecide,
    EvidenceKind::DisconnectAck,
    EvidenceKind::DisconnectReject,
    EvidenceKind::Checkpoint,
    EvidenceKind::Misbehaviour,
    EvidenceKind::TtpAbort,
];

impl EvidenceKind {
    /// Short stable name used in exported logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            EvidenceKind::StatePropose => "state-propose",
            EvidenceKind::StateRespond => "state-respond",
            EvidenceKind::StateDecide => "state-decide",
            EvidenceKind::ConnectRequest => "connect-request",
            EvidenceKind::ConnectPropose => "connect-propose",
            EvidenceKind::ConnectRespond => "connect-respond",
            EvidenceKind::ConnectDecide => "connect-decide",
            EvidenceKind::ConnectWelcome => "connect-welcome",
            EvidenceKind::ConnectReject => "connect-reject",
            EvidenceKind::DisconnectRequest => "disconnect-request",
            EvidenceKind::DisconnectPropose => "disconnect-propose",
            EvidenceKind::DisconnectRespond => "disconnect-respond",
            EvidenceKind::DisconnectDecide => "disconnect-decide",
            EvidenceKind::DisconnectAck => "disconnect-ack",
            EvidenceKind::DisconnectReject => "disconnect-reject",
            EvidenceKind::Checkpoint => "checkpoint",
            EvidenceKind::Misbehaviour => "misbehaviour",
            EvidenceKind::TtpAbort => "ttp-abort",
        }
    }
}

impl fmt::Display for EvidenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry in a party's non-repudiation log.
///
/// The `payload` holds the canonical bytes of the evidenced (signed)
/// content; `signature` is the originator's signature over exactly those
/// bytes, and `timestamp` is the TSA's token over them (§4.2 requires all
/// signed evidence to be time-stamped).
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceRecord {
    /// Log sequence number, assigned by the store on append.
    pub seq: u64,
    /// The protocol action evidenced.
    pub kind: EvidenceKind,
    /// The shared object (coordination alias) the action concerns.
    pub object: String,
    /// Hex-rendered identifier of the protocol run the action belongs to.
    pub run: String,
    /// The party whose action this record evidences (the signer).
    pub origin: PartyId,
    /// Canonical bytes of the evidenced content.
    pub payload: Vec<u8>,
    /// The originator's signature over `payload` (absent for purely local
    /// events such as checkpoints).
    pub signature: Option<Signature>,
    /// TSA token over `payload`.
    pub timestamp: Option<TimeStamp>,
    /// Local time at which the record was appended.
    pub logged_at: TimeMs,
}

/// First byte of a record's binary form: the version of the layout that
/// follows.
pub const RECORD_FORMAT: u8 = 1;

/// The record's binary form, which is the body of a WAL frame:
/// [`RECORD_FORMAT`], then `seq` (u64), the kind's tag (u8), `object`,
/// `run`, `origin` (length-prefixed strings), `payload` (length-prefixed
/// bytes), `signature` and `timestamp` (presence byte + value) and
/// `logged_at` (u64), all in the `b2b_crypto::canonical` encoding.
impl CanonicalEncode for EvidenceRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(RECORD_FORMAT);
        enc.put_u64(self.seq);
        let tag = KINDS
            .iter()
            .position(|k| *k == self.kind)
            .expect("every kind is listed in KINDS");
        enc.put_u8(tag as u8);
        enc.put_str(&self.object);
        enc.put_str(&self.run);
        self.origin.encode(enc);
        enc.put_bytes(&self.payload);
        self.signature.encode(enc);
        self.timestamp.encode(enc);
        self.logged_at.encode(enc);
    }

    fn encoded_size_hint(&self) -> usize {
        256 + self.object.len() + self.run.len() + self.payload.len()
    }
}

impl CanonicalDecode for EvidenceRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if dec.get_u8()? != RECORD_FORMAT {
            return DecodeError::at("unknown record format", dec.position() - 1);
        }
        let seq = dec.get_u64()?;
        let Some(&kind) = KINDS.get(usize::from(dec.get_u8()?)) else {
            return DecodeError::at("unknown evidence kind", dec.position() - 1);
        };
        Ok(EvidenceRecord {
            seq,
            kind,
            object: String::decode(dec)?,
            run: String::decode(dec)?,
            origin: PartyId::decode(dec)?,
            payload: Vec::<u8>::decode(dec)?,
            signature: Option::<Signature>::decode(dec)?,
            timestamp: Option::<TimeStamp>::decode(dec)?,
            logged_at: TimeMs::decode(dec)?,
        })
    }
}

impl EvidenceRecord {
    /// Creates a record awaiting a store-assigned sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: EvidenceKind,
        object: impl Into<String>,
        run: impl Into<String>,
        origin: PartyId,
        payload: Vec<u8>,
        signature: Option<Signature>,
        timestamp: Option<TimeStamp>,
        logged_at: TimeMs,
    ) -> EvidenceRecord {
        EvidenceRecord {
            seq: 0,
            kind,
            object: object.into(),
            run: run.into(),
            origin,
            payload,
            signature,
            timestamp,
            logged_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KINDS.len());
    }

    /// One record per presence combination of signature and time-stamp
    /// (and per kind along the way).
    fn samples() -> Vec<EvidenceRecord> {
        use b2b_crypto::{KeyPair, Signer, TimeStampAuthority};
        let kp = KeyPair::generate_from_seed(5);
        let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(6));
        let payload = vec![0u8, 1, 2, 0xff, b'{'];
        let mut out = Vec::new();
        for (i, kind) in KINDS.iter().enumerate() {
            let mut rec = EvidenceRecord::new(
                *kind,
                "order-1",
                "ab".repeat(32),
                PartyId::new("customer"),
                payload.clone(),
                (i % 2 == 0).then(|| kp.sign(&payload)),
                (i % 4 < 2).then(|| tsa.stamp(&payload, TimeMs(40 + i as u64))),
                TimeMs(42),
            );
            rec.seq = i as u64 * 1_000;
            out.push(rec);
        }
        out
    }

    #[test]
    fn record_binary_roundtrip() {
        for rec in samples() {
            let bytes = rec.canonical_bytes();
            assert_eq!(bytes[0], RECORD_FORMAT);
            assert_eq!(EvidenceRecord::from_canonical(&bytes), Ok(rec));
        }
    }

    #[test]
    fn damaged_record_bytes_are_rejected_or_canonical() {
        for rec in samples().into_iter().take(4) {
            let bytes = rec.canonical_bytes();
            for cut in 0..bytes.len() {
                assert!(EvidenceRecord::from_canonical(&bytes[..cut]).is_err());
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(EvidenceRecord::from_canonical(&longer).is_err());
            for at in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut mutated = bytes.clone();
                    mutated[at] ^= flip;
                    if let Ok(r) = EvidenceRecord::from_canonical(&mutated) {
                        assert_eq!(r.canonical_bytes(), mutated, "byte {at} ^ {flip:#x}");
                    }
                }
            }
            // The format byte and the kind tag are closed sets.
            for (at, value) in [(0, 0u8), (0, 2), (0, b'{'), (9, 18), (9, 255)] {
                let mut bad = bytes.clone();
                bad[at] = value;
                assert!(EvidenceRecord::from_canonical(&bad).is_err());
            }
        }
    }

    #[test]
    fn random_buffers_are_not_records() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4EC04D);
        for i in 0..10_000u32 {
            let len = rng.gen_range(0..=300usize);
            let mut buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
            if i % 2 == 0 && !buf.is_empty() {
                buf[0] = RECORD_FORMAT;
            }
            if let Ok(r) = EvidenceRecord::from_canonical(&buf) {
                assert_eq!(r.canonical_bytes(), buf);
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(EvidenceKind::StateDecide.to_string(), "state-decide");
    }
}
