//! Evidence records: the unit of a party's non-repudiation log.

use b2b_crypto::{
    CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder, PartyId, Signature, TimeMs,
    TimeStamp,
};
use std::fmt;

/// Which protocol action a record evidences.
///
/// One kind per step of the coordination round (paper §4.3, §4.5), which
/// serves every round kind — the proposal inside a propose record says
/// whether the round agreed a state transition or a membership change —
/// plus the subject's request and the sponsor's answer around a
/// membership round, and local events that matter for recovery and
/// arbitration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvidenceKind {
    /// m1 of any round: a signed proposal.
    StatePropose,
    /// m2 of any round: a recipient's signed receipt + validity decision.
    StateRespond,
    /// m3 of any round: the proposer's aggregated decision with revealed
    /// authenticator.
    StateDecide,
    /// A signed join, leave or eviction request to the sponsor.
    MemberRequest,
    /// The sponsor's signed answer to the subject of a join or leave.
    MemberAnswer,
    /// A locally installed checkpoint of newly validated object state.
    Checkpoint,
    /// A locally detected misbehaviour or inconsistency (diagnostics).
    Misbehaviour,
    /// A TTP-certified abort of a blocked run (§7 termination extension).
    TtpAbort,
}

/// Every kind, in the order of its on-disk tag: a kind's tag is its index
/// here, so new kinds are appended and existing ones never move.
const KINDS: [EvidenceKind; 8] = [
    EvidenceKind::StatePropose,
    EvidenceKind::StateRespond,
    EvidenceKind::StateDecide,
    EvidenceKind::MemberRequest,
    EvidenceKind::MemberAnswer,
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
            EvidenceKind::MemberRequest => "member-request",
            EvidenceKind::MemberAnswer => "member-answer",
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
pub const RECORD_FORMAT: u8 = 2;

/// The label of the run a record belongs to, as the log holds it: text.
/// A caller holding a run's digest passes the digest, and it is written
/// as lowercase hex straight into the record's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunLabel<'a> {
    /// Digest bytes, written two lowercase hex digits per byte.
    Hex(&'a [u8]),
    /// A label written as it is.
    Text(&'a str),
}

impl RunLabel<'_> {
    fn len(&self) -> usize {
        match self {
            RunLabel::Hex(bytes) => 2 * bytes.len(),
            RunLabel::Text(text) => text.len(),
        }
    }

    /// Writes the label as a length-prefixed string.
    fn put(&self, enc: &mut Encoder) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        match self {
            RunLabel::Text(text) => enc.put_str(text),
            RunLabel::Hex(bytes) => {
                enc.put_u64(self.len() as u64);
                for byte in *bytes {
                    enc.put_raw(&[
                        DIGITS[usize::from(byte >> 4)],
                        DIGITS[usize::from(byte & 15)],
                    ]);
                }
            }
        }
    }

    /// The label as an owned string.
    pub fn to_text(&self) -> String {
        match self {
            RunLabel::Hex(bytes) => hex::encode(bytes),
            RunLabel::Text(text) => (*text).to_string(),
        }
    }
}

/// An evidence record's fields, borrowed from whoever holds them: what a
/// record is encoded from without first building an [`EvidenceRecord`]
/// (see [`crate::EvidenceStore::append_ref`]). The store assigns `seq`.
#[derive(Clone, Copy, Debug)]
pub struct RecordRef<'a> {
    /// The protocol action evidenced.
    pub kind: EvidenceKind,
    /// The shared object the action concerns.
    pub object: &'a str,
    /// The protocol run the action belongs to.
    pub run: RunLabel<'a>,
    /// The party whose action this record evidences.
    pub origin: &'a PartyId,
    /// Canonical bytes of the evidenced content.
    pub payload: &'a [u8],
    /// The originator's signature over `payload`.
    pub signature: Option<&'a Signature>,
    /// TSA token over `payload`.
    pub timestamp: Option<&'a TimeStamp>,
    /// Local time at which the record is appended.
    pub logged_at: TimeMs,
}

impl RecordRef<'_> {
    /// The record's binary form under sequence number `seq` (see
    /// [`EvidenceRecord`]'s encoding), in one allocation of exactly its
    /// size.
    pub fn encode(&self, seq: u64) -> Box<[u8]> {
        let mut enc = Encoder::with_capacity(self.encoded_len());
        self.encode_into(seq, &mut enc);
        enc.finish().into_boxed_slice()
    }

    /// The one encoder of a record: [`RECORD_FORMAT`], then `seq` (u64),
    /// the kind's tag (u8), `object`, `run`, `origin` (length-prefixed
    /// strings), `payload` (length-prefixed bytes), `signature` and
    /// `timestamp` (presence byte + value) and `logged_at` (u64), all in
    /// the `b2b_crypto::canonical` encoding.
    fn encode_into(&self, seq: u64, enc: &mut Encoder) {
        enc.put_u8(RECORD_FORMAT);
        enc.put_u64(seq);
        let tag = KINDS
            .iter()
            .position(|k| *k == self.kind)
            .expect("every kind is listed in KINDS");
        enc.put_u8(tag as u8);
        enc.put_str(self.object);
        self.run.put(enc);
        self.origin.encode(enc);
        enc.put_bytes(self.payload);
        self.signature.encode(enc);
        self.timestamp.encode(enc);
        self.logged_at.encode(enc);
    }

    /// The exact length of the binary form.
    fn encoded_len(&self) -> usize {
        let string = |len: usize| 8 + len;
        let signature = self
            .signature
            .map_or(0, |sig| 1 + string(sig.as_bytes().len()));
        // A time-stamp's length is its encoding's; only a TSA-backed log
        // pays for measuring it.
        let timestamp = self.timestamp.map_or(0, |ts| ts.canonical_bytes().len());
        1 + 8
            + 1
            + string(self.object.len())
            + string(self.run.len())
            + string(self.origin.as_str().len())
            + string(self.payload.len())
            + 1
            + signature
            + 1
            + timestamp
            + 8
    }

    /// The owned record under sequence number `seq`.
    pub fn to_record(&self, seq: u64) -> EvidenceRecord {
        EvidenceRecord {
            seq,
            kind: self.kind,
            object: self.object.to_string(),
            run: self.run.to_text(),
            origin: self.origin.clone(),
            payload: self.payload.to_vec(),
            signature: self.signature.cloned(),
            timestamp: self.timestamp.cloned(),
            logged_at: self.logged_at,
        }
    }
}

/// The record's binary form, which is the body of a WAL frame; written by
/// the borrowed form's encoder, so a record and the [`RecordRef`] of its
/// fields encode to the same bytes.
impl CanonicalEncode for EvidenceRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.fields().encode_into(self.seq, enc);
    }

    fn encoded_size_hint(&self) -> usize {
        self.fields().encoded_len()
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

    /// This record's fields, borrowed.
    pub fn fields(&self) -> RecordRef<'_> {
        RecordRef {
            kind: self.kind,
            object: &self.object,
            run: RunLabel::Text(&self.run),
            origin: &self.origin,
            payload: &self.payload,
            signature: self.signature.as_ref(),
            timestamp: self.timestamp.as_ref(),
            logged_at: self.logged_at,
        }
    }
}

/// A record held as its binary form: exactly the body of the record's WAL
/// frame, in one exact-size allocation.
///
/// Both stores keep their records this way and decode on read, so a
/// resident log costs its encoded bytes and not a struct with four
/// separately allocated fields. A frame is only ever built from a record
/// or from bytes that decoded as one, so decoding it again cannot fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RecordFrame(Box<[u8]>);

impl RecordFrame {
    /// The frame of the record `fields` describe, under sequence number
    /// `seq`.
    pub(crate) fn encode(seq: u64, fields: &RecordRef<'_>) -> RecordFrame {
        RecordFrame(fields.encode(seq))
    }

    /// The frame of `body`, if it is a record in this version's format.
    pub(crate) fn from_body(body: &[u8]) -> Result<RecordFrame, DecodeError> {
        EvidenceRecord::from_canonical(body)?;
        Ok(RecordFrame(body.into()))
    }

    /// The record's binary form.
    pub(crate) fn body(&self) -> &[u8] {
        &self.0
    }

    /// The record, decoded.
    pub(crate) fn record(&self) -> EvidenceRecord {
        EvidenceRecord::from_canonical(&self.0).expect("a frame holds a decodable record")
    }

    /// The record's `run`, read in place: past the format byte, `seq`, the
    /// kind's tag and `object`.
    pub(crate) fn run(&self) -> &str {
        let mut dec = Decoder::new(&self.0);
        dec.take(1 + 8 + 1)
            .and_then(|_| dec.get_bytes())
            .and_then(|_| dec.get_str())
            .expect("a frame holds a decodable record")
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
    fn frames_hold_the_binary_form_and_read_the_run_in_place() {
        for rec in samples() {
            let frame = RecordFrame::encode(rec.seq, &rec.fields());
            assert_eq!(frame.body(), &rec.canonical_bytes()[..]);
            assert_eq!(frame.run(), rec.run);
            assert_eq!(frame.record(), rec);
            assert_eq!(RecordFrame::from_body(frame.body()), Ok(frame));
        }
        assert!(RecordFrame::from_body(b"{}").is_err());
    }

    #[test]
    fn borrowed_fields_encode_exactly_the_record() {
        for rec in samples() {
            let digest = [0xab_u8; 32];
            let fields = RecordRef {
                run: RunLabel::Hex(&digest),
                ..rec.fields()
            };
            let bytes = fields.encode(rec.seq);
            assert_eq!(bytes.len(), fields.encoded_len(), "an exact-size frame");
            assert_eq!(&bytes[..], &rec.canonical_bytes()[..]);
            assert_eq!(fields.to_record(rec.seq), rec);
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
            // The format byte and the kind tag are closed sets: a record of
            // format 1 (the layout with a kind per membership step) is refused.
            let kinds = KINDS.len() as u8;
            for (at, value) in [(0, 0u8), (0, 1), (0, 3), (0, b'{'), (9, kinds), (9, 255)] {
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
